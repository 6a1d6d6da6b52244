//! Distributed request tracing: the [`Tracer`] handle, trace/span
//! identifiers, head-based sampling, and the JSONL span sink.
//!
//! Tracing follows the same on/off philosophy as the [`Recorder`]: a
//! [`Tracer`] is either **enabled** (wrapping an `Arc` over the sink
//! and sampling state) or **disabled** (a `None`, the default), and a
//! disabled tracer makes every operation an early-returning no-op — no
//! clock reads, no atomics, no allocation — so serving results stay
//! bit-identical whether or not tracing is compiled into the call
//! path.
//!
//! The model is classic head-based sampling: the **ingress edge** (the
//! first traced tier a request enters) calls [`Tracer::decide`] with
//! the request's arrival sequence number. One in every
//! `sample_every` requests is sampled and assigned a 128-bit
//! [`TraceId`] derived *deterministically* from `(seed, seq)`, so two
//! runs with the same seed and arrival order sample the same trace
//! ids. The decision — sampled with a context, or decided-not-sampled
//! — travels downstream as optional wire fields and is never
//! re-decided (see `docs/OBSERVABILITY.md` for the wire encoding).
//!
//! Spans are written only by ending a [`Stage`](crate::stage::Stage),
//! which times each step once for both the metrics and the trace. The
//! tracer converts the stage's start and end `Instant`s to wall-clock
//! microseconds via an anchor pair captured at construction, which
//! keeps timestamps monotonic within a process and comparable across
//! same-host processes. Spans are appended as one JSON object per line
//! to the sink file (`--trace-out`), and the `drift trace` CLI merges
//! per-tier files by trace id into end-to-end waterfalls.

use crate::export::json_str;
use crate::recorder::Recorder;
use std::fmt;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// A 128-bit trace identifier, rendered as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

impl TraceId {
    /// Parses a 32-digit lowercase/uppercase hex string.
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Renders a span id as the 16 hex digits used on the wire and in
/// trace files.
pub fn span_id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a 16-digit hex span id (the inverse of [`span_id_hex`]).
pub fn parse_span_id(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// The context a sampled request carries between tiers: which trace it
/// belongs to and which upstream span is the parent of work done here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The 128-bit trace id assigned at the ingress edge.
    pub trace_id: TraceId,
    /// The sender's span id, which becomes the parent of the
    /// receiver's root span. `None` at the ingress edge itself.
    pub parent_span: Option<u64>,
}

/// The three-valued head-sampling state of a request.
///
/// `Undecided` means no upstream tier has made a sampling decision
/// yet (the receiver may be the ingress edge). `Unsampled` means an
/// upstream edge decided *not* to sample — downstream tiers must
/// honor that and not re-decide. `Sampled` carries the context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceDecision {
    /// No sampling decision has been made for this request yet.
    #[default]
    Undecided,
    /// An upstream edge decided not to sample this request.
    Unsampled,
    /// This request is sampled; spans should be recorded under the
    /// carried context.
    Sampled(TraceContext),
}

impl TraceDecision {
    /// The sampled context, if any.
    pub fn context(&self) -> Option<&TraceContext> {
        match self {
            TraceDecision::Sampled(ctx) => Some(ctx),
            _ => None,
        }
    }

    /// Whether this request is sampled.
    pub fn is_sampled(&self) -> bool {
        matches!(self, TraceDecision::Sampled(_))
    }
}

/// One completed span, ready to be appended to the trace sink.
#[derive(Debug)]
pub(crate) struct SpanRecord<'a> {
    /// The span's service: the tier of the stage that ended. The serve
    /// tier records through its host process's tracer (e.g. a
    /// gateway's), but its spans still belong to service `serve`.
    pub service: &'a str,
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id (from [`Tracer::new_span_id`]).
    pub span: u64,
    /// The parent span id, or `None` for a root span.
    pub parent: Option<u64>,
    /// The stage name (e.g. `queue_wait`); combined with the service
    /// it forms the `svc.stage` key reported by `drift trace`.
    pub stage: &'a str,
    /// When the stage started.
    pub start: Instant,
    /// When the stage ended (must not precede `start`).
    pub end: Instant,
    /// The wire-visible job id, when one applies.
    pub job: Option<u64>,
    /// Free-form string attributes (e.g. `outcome`, `shard`).
    pub attrs: &'a [(&'a str, &'a str)],
}

enum Sink {
    Open(Box<dyn Write + Send>),
    Closed,
}

struct TracerInner {
    service: String,
    sample_every: u64,
    seed: u64,
    span_salt: u64,
    next_span: AtomicU64,
    anchor_wall_us: u64,
    anchor: Instant,
    sink: Mutex<Sink>,
    recorder: Recorder,
}

/// A cheap, cloneable on/off handle to a JSONL trace sink.
///
/// Mirrors [`Recorder`]: the default/disabled tracer early-returns
/// from every method without touching the clock or allocating.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<TracerInner>>);

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => write!(f, "Tracer(disabled)"),
            Some(inner) => write!(
                f,
                "Tracer(service={}, sample_every={})",
                inner.service, inner.sample_every
            ),
        }
    }
}

impl Tracer {
    /// The no-op tracer: every operation returns immediately.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// A tracer appending spans to the file at `path` (created or
    /// truncated). `service` names the process's tier (each span
    /// carries the tier of the stage that wrote it), `sample_every` is
    /// the N of "sample 1 in N" at the ingress edge, and `seed` makes
    /// the sampled trace-id set reproducible. Trace metrics (sampled,
    /// written, dropped and orphaned counters) are emitted through
    /// `recorder`.
    pub fn to_file(
        path: &Path,
        service: &str,
        sample_every: u64,
        seed: u64,
        recorder: Recorder,
    ) -> io::Result<Tracer> {
        let file = std::fs::File::create(path)?;
        Ok(Self::to_writer(
            Box::new(BufWriter::new(file)),
            service,
            sample_every,
            seed,
            recorder,
        ))
    }

    /// A tracer over an arbitrary writer (used by tests; `to_file` is
    /// the production constructor).
    pub fn to_writer(
        writer: Box<dyn Write + Send>,
        service: &str,
        sample_every: u64,
        seed: u64,
        recorder: Recorder,
    ) -> Tracer {
        let anchor_wall_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        let anchor = Instant::now();
        let span_salt = splitmix64(seed ^ u64::from(std::process::id()) ^ anchor_wall_us);
        Tracer(Some(Arc::new(TracerInner {
            service: service.to_string(),
            sample_every: sample_every.max(1),
            seed,
            span_salt,
            next_span: AtomicU64::new(0),
            anchor_wall_us,
            anchor,
            sink: Mutex::new(Sink::Open(writer)),
            recorder,
        })))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The service name the tracer was created with, when enabled.
    pub fn service(&self) -> Option<&str> {
        self.0.as_ref().map(|i| i.service.as_str())
    }

    /// Makes the head-sampling decision for the request with arrival
    /// sequence number `seq` at this (ingress-edge) tier.
    ///
    /// Pure in `(seed, seq)`: request `seq` is sampled iff
    /// `seq % sample_every == 0`, and its trace id is
    /// [`Tracer::trace_id_for`]`(seed, seq)`. Increments the
    /// sampled/unsampled request counters. Disabled tracers return
    /// [`TraceDecision::Undecided`] (a later tier may still be an
    /// edge).
    pub fn decide(&self, seq: u64) -> TraceDecision {
        let Some(inner) = &self.0 else {
            return TraceDecision::Undecided;
        };
        if seq.is_multiple_of(inner.sample_every) {
            inner
                .recorder
                .counter_add("drift_trace_requests_sampled_total", &[], 1);
            TraceDecision::Sampled(TraceContext {
                trace_id: Self::trace_id_for(inner.seed, seq),
                parent_span: None,
            })
        } else {
            inner
                .recorder
                .counter_add("drift_trace_requests_unsampled_total", &[], 1);
            TraceDecision::Unsampled
        }
    }

    /// The deterministic trace id assigned to arrival `seq` under
    /// `seed` — the pure function behind [`Tracer::decide`], exposed
    /// so tests (and operators) can predict sampled ids.
    pub fn trace_id_for(seed: u64, seq: u64) -> TraceId {
        let hi = splitmix64(seed ^ splitmix64(seq));
        let lo = splitmix64(hi ^ seq.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let id = (u128::from(hi) << 64) | u128::from(lo);
        TraceId(if id == 0 { 1 } else { id })
    }

    /// A fresh process-unique span id (0 is never returned; a
    /// disabled tracer returns 0, which callers never use because
    /// they only mint ids for sampled requests).
    pub fn new_span_id(&self) -> u64 {
        let Some(inner) = &self.0 else {
            return 0;
        };
        let n = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(inner.span_salt ^ n);
        if id == 0 {
            0xD41F7
        } else {
            id
        }
    }

    /// Converts a process `Instant` to anchored wall-clock
    /// microseconds (0 when disabled).
    pub fn wall_us(&self, at: Instant) -> u64 {
        let Some(inner) = &self.0 else {
            return 0;
        };
        let offset = at
            .checked_duration_since(inner.anchor)
            .map(|d| d.as_micros().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        inner.anchor_wall_us.saturating_add(offset)
    }

    /// Appends one completed span to the sink and updates the trace
    /// metrics: `spans_written` on success, `spans_dropped` when the
    /// sink write fails, and `spans_orphaned` when the sink was already
    /// closed.
    pub(crate) fn record(&self, rec: &SpanRecord<'_>) {
        let Some(inner) = &self.0 else {
            return;
        };
        let start_us = self.wall_us(rec.start);
        let dur_us = rec
            .end
            .checked_duration_since(rec.start)
            .map(|d| d.as_micros().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        let line = render_span(rec, start_us, dur_us);
        let mut sink = inner.sink.lock().unwrap();
        match &mut *sink {
            Sink::Open(w) => {
                let ok = w
                    .write_all(line.as_bytes())
                    .and_then(|()| w.write_all(b"\n"))
                    .is_ok();
                drop(sink);
                if ok {
                    inner.recorder.counter_add(
                        "drift_trace_spans_written_total",
                        &[("service", rec.service)],
                        1,
                    );
                } else {
                    inner
                        .recorder
                        .counter_add("drift_trace_spans_dropped_total", &[], 1);
                }
            }
            Sink::Closed => {
                drop(sink);
                inner
                    .recorder
                    .counter_add("drift_trace_spans_orphaned_total", &[], 1);
            }
        }
    }

    /// Flushes buffered spans to the sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.0 {
            if let Sink::Open(w) = &mut *inner.sink.lock().unwrap() {
                let _ = w.flush();
            }
        }
    }

    /// Flushes and closes the sink; spans recorded afterwards count as
    /// orphaned instead of being written.
    pub fn close(&self) {
        if let Some(inner) = &self.0 {
            let mut sink = inner.sink.lock().unwrap();
            if let Sink::Open(w) = &mut *sink {
                let _ = w.flush();
                *sink = Sink::Closed;
            }
        }
    }
}

/// `splitmix64` — the finalizer used to derive trace ids and span ids
/// from seeds and sequence numbers.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn render_span(rec: &SpanRecord<'_>, start_us: u64, dur_us: u64) -> String {
    let mut out = String::with_capacity(160);
    out.push_str("{\"trace\":\"");
    out.push_str(&rec.trace.to_string());
    out.push_str("\",\"span\":\"");
    out.push_str(&span_id_hex(rec.span));
    out.push('"');
    if let Some(parent) = rec.parent {
        out.push_str(",\"parent\":\"");
        out.push_str(&span_id_hex(parent));
        out.push('"');
    }
    out.push_str(",\"svc\":");
    out.push_str(&json_str(rec.service));
    out.push_str(",\"stage\":");
    out.push_str(&json_str(rec.stage));
    out.push_str(&format!(",\"start_us\":{start_us},\"dur_us\":{dur_us}"));
    if let Some(job) = rec.job {
        out.push_str(&format!(",\"job\":{job}"));
    }
    if !rec.attrs.is_empty() {
        out.push_str(",\"attrs\":{");
        for (i, (k, v)) in rec.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(k));
            out.push(':');
            out.push_str(&json_str(v));
        }
        out.push('}');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn counter(rec: &Recorder, name: &str) -> u64 {
        rec.registry()
            .unwrap()
            .snapshot()
            .counters
            .iter()
            .filter(|s| s.id.name == name)
            .map(|s| s.value)
            .sum()
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.decide(0), TraceDecision::Undecided);
        assert_eq!(t.new_span_id(), 0);
        assert_eq!(t.wall_us(Instant::now()), 0);
        let now = Instant::now();
        t.record(&SpanRecord {
            service: "noop",
            trace: TraceId(1),
            span: 1,
            parent: None,
            stage: "noop",
            start: now,
            end: now,
            job: None,
            attrs: &[],
        });
        t.flush();
        t.close();
        assert_eq!(t.service(), None);
    }

    #[test]
    fn sampling_is_periodic_and_deterministic() {
        let buf = SharedBuf::default();
        let rec = Recorder::enabled();
        let t = Tracer::to_writer(Box::new(buf.clone()), "edge", 3, 42, rec.clone());
        let decisions: Vec<TraceDecision> = (0..9).map(|seq| t.decide(seq)).collect();
        for (seq, d) in decisions.iter().enumerate() {
            assert_eq!(d.is_sampled(), seq % 3 == 0, "seq {seq}");
        }
        // Same (seed, seq) → same id; sampled contexts carry no parent.
        let ctx = decisions[0].context().unwrap();
        assert_eq!(ctx.parent_span, None);
        assert_eq!(ctx.trace_id, Tracer::trace_id_for(42, 0));
        assert_ne!(Tracer::trace_id_for(42, 0), Tracer::trace_id_for(42, 3));
        assert_ne!(Tracer::trace_id_for(42, 0), Tracer::trace_id_for(43, 0));
        assert_eq!(counter(&rec, "drift_trace_requests_sampled_total"), 3);
        assert_eq!(counter(&rec, "drift_trace_requests_unsampled_total"), 6);
    }

    #[test]
    fn trace_and_span_ids_round_trip_hex() {
        let id = Tracer::trace_id_for(7, 11);
        assert_eq!(TraceId::parse(&id.to_string()), Some(id));
        assert_eq!(id.to_string().len(), 32);
        assert_eq!(parse_span_id(&span_id_hex(0xdead_beef)), Some(0xdead_beef));
        assert_eq!(TraceId::parse("xyz"), None);
        assert_eq!(parse_span_id("123"), None);
    }

    #[test]
    fn records_render_jsonl_spans() {
        let buf = SharedBuf::default();
        let rec = Recorder::enabled();
        let t = Tracer::to_writer(Box::new(buf.clone()), "gateway", 1, 0, rec.clone());
        let trace = Tracer::trace_id_for(0, 0);
        let root = t.new_span_id();
        let child = t.new_span_id();
        assert_ne!(root, 0);
        assert_ne!(child, 0);
        assert_ne!(root, child);
        let start = Instant::now();
        t.record(&SpanRecord {
            service: "gateway",
            trace,
            span: root,
            parent: None,
            stage: "request",
            start,
            end: start + std::time::Duration::from_micros(250),
            job: Some(7),
            attrs: &[("outcome", "ok")],
        });
        t.record(&SpanRecord {
            service: "gateway",
            trace,
            span: child,
            parent: Some(root),
            stage: "queue_wait",
            start,
            end: start,
            job: None,
            attrs: &[],
        });
        t.flush();
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(&format!("\"trace\":\"{trace}\"")));
        assert!(lines[0].contains(&format!("\"span\":\"{}\"", span_id_hex(root))));
        assert!(lines[0].contains("\"svc\":\"gateway\""));
        assert!(lines[0].contains("\"stage\":\"request\""));
        assert!(lines[0].contains("\"dur_us\":250"));
        assert!(lines[0].contains("\"job\":7"));
        assert!(lines[0].contains("\"attrs\":{\"outcome\":\"ok\"}"));
        assert!(!lines[0].contains("\"parent\""));
        assert!(lines[1].contains(&format!("\"parent\":\"{}\"", span_id_hex(root))));
        assert!(!lines[1].contains("\"attrs\""));
        assert_eq!(counter(&rec, "drift_trace_spans_written_total"), 2);
        assert_eq!(counter(&rec, "drift_trace_spans_dropped_total"), 0);
    }

    #[test]
    fn close_orphans_later_spans() {
        let buf = SharedBuf::default();
        let rec = Recorder::enabled();
        let t = Tracer::to_writer(Box::new(buf.clone()), "serve", 1, 0, rec.clone());
        let now = Instant::now();
        let span = SpanRecord {
            service: "serve",
            trace: TraceId(9),
            span: 1,
            parent: None,
            stage: "late",
            start: now,
            end: now,
            job: None,
            attrs: &[],
        };
        t.record(&span);
        t.close();
        t.record(&span);
        assert_eq!(counter(&rec, "drift_trace_spans_written_total"), 1);
        assert_eq!(counter(&rec, "drift_trace_spans_orphaned_total"), 1);
        assert_eq!(buf.contents().lines().count(), 1);
    }

    #[test]
    fn timestamps_are_anchored_and_monotonic() {
        let buf = SharedBuf::default();
        let t = Tracer::to_writer(Box::new(buf), "svc", 1, 0, Recorder::disabled());
        let a = Instant::now();
        let b = a + std::time::Duration::from_millis(5);
        assert!(t.wall_us(a) > 1_600_000_000_000_000); // after 2020 in µs
        assert_eq!(t.wall_us(b) - t.wall_us(a), 5_000);
    }
}
