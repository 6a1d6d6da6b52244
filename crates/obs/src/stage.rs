//! [`Stage`]: the one timing primitive of the serving stack.
//!
//! A stage is one named step of a request at one tier (`router`,
//! `gateway`, `serve` or `core`): a queue wait, a backend hop, a
//! schedule solve. It is timed once, and that one timing feeds both
//! views:
//!
//! * when the [`Recorder`] is on, ending a stage makes exactly one
//!   observation into `drift_stage_microseconds{tier,stage,outcome}`;
//! * when the request is sampled (the stage carries a [`SpanCtx`] and
//!   an enabled [`Tracer`]), ending it writes one span line under
//!   service `tier`.
//!
//! With both off, a stage reads no clock and allocates nothing.
//!
//! ```rust
//! use drift_obs::{Recorder, Stage};
//!
//! let rec = Recorder::enabled();
//! let solve = Stage::new("core", "solve", &rec).open();
//! // ... solve ...
//! solve.end("ok", &[]);
//! let snap = rec.registry().unwrap().snapshot();
//! assert_eq!(snap.histogram("drift_stage_microseconds").unwrap().count(), 1);
//! ```

use crate::contract::LATENCY_US_BUCKETS;
use crate::recorder::Recorder;
use crate::trace::{SpanRecord, TraceId, Tracer};
use std::time::Instant;

/// A sampled stage's place in its trace: the trace, the stage's own
/// span id, and the parent span id (`None` for a root span).
///
/// A span id is often minted before its stage ends, because work
/// downstream parents under it (the gateway's request span, a router
/// hop forwarded on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id (from [`Tracer::new_span_id`]).
    pub span: u64,
    /// The parent span id, or `None` for a root span.
    pub parent: Option<u64>,
}

impl SpanCtx {
    /// A new span under this one, with an id minted by `tracer`.
    pub fn child(&self, tracer: &Tracer) -> SpanCtx {
        SpanCtx {
            trace: self.trace,
            span: tracer.new_span_id(),
            parent: Some(self.span),
        }
    }
}

/// One timed stage: opened now ([`Stage::open`]) or from an instant
/// already taken ([`Stage::since`]), and recorded into both views by
/// [`Stage::end`] or [`Stage::end_at`].
///
/// Build it with [`Stage::new`], then [`Stage::traced`] and
/// [`Stage::job`] as needed, and `open`/`since` last. A stage dropped
/// without being ended records nothing: a step that failed part-way
/// leaves no half-timed trace.
#[must_use = "a stage records nothing until it is ended"]
#[derive(Debug)]
pub struct Stage<'a> {
    tier: &'static str,
    name: &'static str,
    recorder: &'a Recorder,
    span: Option<(&'a Tracer, SpanCtx)>,
    job: Option<u64>,
    start: Option<Instant>,
}

impl<'a> Stage<'a> {
    /// A stage `name` at `tier`, observed into `recorder` when it is on.
    pub fn new(tier: &'static str, name: &'static str, recorder: &'a Recorder) -> Self {
        Stage {
            tier,
            name,
            recorder,
            span: None,
            job: None,
            start: None,
        }
    }

    /// Writes the stage's span through `tracer` when `span` is `Some`
    /// and the tracer is enabled.
    pub fn traced(mut self, tracer: &'a Tracer, span: Option<SpanCtx>) -> Self {
        self.span = span.filter(|_| tracer.is_enabled()).map(|s| (tracer, s));
        self
    }

    /// Tags the span with the wire-visible job (or batch) id.
    pub fn job(mut self, id: u64) -> Self {
        self.job = Some(id);
        self
    }

    /// Whether ending this stage records anything.
    pub(crate) fn is_active(&self) -> bool {
        self.recorder.is_enabled() || self.span.is_some()
    }

    /// Starts the stage now (the clock is read only when active).
    pub fn open(mut self) -> Self {
        if self.is_active() {
            self.start = Some(Instant::now());
        }
        self
    }

    /// Starts the stage at `start`, an instant the caller already took.
    pub fn since(mut self, start: Instant) -> Self {
        self.start = Some(start);
        self
    }

    /// Ends the stage now: see [`Stage::end_at`].
    pub fn end(self, outcome: &str, attrs: &[(&str, &str)]) {
        if self.is_active() {
            self.end_at(Instant::now(), outcome, attrs);
        }
    }

    /// Ends the stage at `end`: one `drift_stage_microseconds`
    /// observation labelled `outcome` when the recorder is on, and one
    /// span carrying `attrs` when the stage is sampled.
    pub fn end_at(self, end: Instant, outcome: &str, attrs: &[(&str, &str)]) {
        let Some(start) = self.start else {
            return;
        };
        if self.recorder.is_enabled() {
            let us = end.saturating_duration_since(start).as_micros();
            self.recorder.observe(
                "drift_stage_microseconds",
                &[
                    ("tier", self.tier),
                    ("stage", self.name),
                    ("outcome", outcome),
                ],
                LATENCY_US_BUCKETS,
                us.min(u128::from(u64::MAX)) as u64,
            );
        }
        if let Some((tracer, span)) = self.span {
            tracer.record(&SpanRecord {
                service: self.tier,
                trace: span.trace,
                span: span.span,
                parent: span.parent,
                stage: self.name,
                start,
                end,
                job: self.job,
                attrs,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{self, Write};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn stage_count(rec: &Recorder, outcome: &str) -> u64 {
        rec.registry()
            .unwrap()
            .snapshot()
            .histogram_merged_where("drift_stage_microseconds", &[("outcome", outcome)])
            .map_or(0, |h| h.count())
    }

    #[test]
    fn one_timing_feeds_the_histogram_and_the_span() {
        let buf = SharedBuf::default();
        let rec = Recorder::enabled();
        let tracer = Tracer::to_writer(Box::new(buf.clone()), "gateway", 1, 0, rec.clone());
        let root = SpanCtx {
            trace: Tracer::trace_id_for(0, 0),
            span: tracer.new_span_id(),
            parent: None,
        };
        let child = root.child(&tracer);
        assert_eq!(child.parent, Some(root.span));
        let start = Instant::now();
        Stage::new("gateway", "queue_wait", &rec)
            .traced(&tracer, Some(child))
            .job(7)
            .since(start)
            .end_at(
                start + Duration::from_micros(250),
                "ok",
                &[("outcome", "ok")],
            );
        tracer.flush();

        let snap = rec.registry().unwrap().snapshot();
        let h = snap.histogram("drift_stage_microseconds").unwrap();
        assert_eq!((h.count(), h.sum), (1, 250));
        let labels: Vec<(&str, &str)> =
            h.id.labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
        assert_eq!(
            labels,
            [
                ("outcome", "ok"),
                ("stage", "queue_wait"),
                ("tier", "gateway")
            ]
        );
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let line = text.lines().next().unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(line.contains("\"svc\":\"gateway\",\"stage\":\"queue_wait\""));
        assert!(line.contains("\"dur_us\":250,\"job\":7"));
        assert!(line.contains("\"attrs\":{\"outcome\":\"ok\"}"));
    }

    #[test]
    fn each_view_records_only_when_it_is_on() {
        // Recorder on, request unsampled: the histogram only.
        let rec = Recorder::enabled();
        Stage::new("serve", "solve", &rec)
            .traced(&Tracer::disabled(), None)
            .open()
            .end("ok", &[]);
        assert_eq!(stage_count(&rec, "ok"), 1);

        // Recorder off, request sampled: the span only.
        let buf = SharedBuf::default();
        let span_rec = Recorder::enabled();
        let tracer = Tracer::to_writer(Box::new(buf.clone()), "router", 1, 0, span_rec.clone());
        let off = Recorder::disabled();
        let span = SpanCtx {
            trace: TraceId(1),
            span: 2,
            parent: None,
        };
        let stage = Stage::new("router", "hop", &off).traced(&tracer, Some(span));
        assert!(stage.is_active());
        stage.open().end("error", &[("outcome", "error")]);
        tracer.flush();
        assert_eq!(buf.0.lock().unwrap().split(|&b| b == b'\n').count(), 2);
        assert!(off.registry().is_none());

        // A stage dropped before it ends records nothing.
        drop(Stage::new("serve", "execute", &rec).open());
        assert_eq!(stage_count(&rec, "ok"), 1);
    }
}
