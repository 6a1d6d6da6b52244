//! Tracing is observation, not transformation: `serve_observed` with a
//! live tracer must produce byte-identical results to the plain path,
//! and the head-sampling decision must be a pure function of
//! `(seed, arrival sequence)` so reruns sample the same trace ids.

use drift_obs::{Recorder, Tracer};
use drift_serve::job::result_line;
use drift_serve::{serve, serve_observed, synthetic_jobs, ServeConfig};
use std::collections::BTreeSet;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A cloneable in-memory span sink for [`Tracer::to_writer`].
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Pulls every `"<field>":"<value>"` string field off one JSONL span
/// line (the fields this test reads are plain hex/identifier strings,
/// so no unescaping is needed).
fn field(line: &str, name: &str) -> Option<String> {
    let needle = format!("\"{name}\":\"");
    let start = line.find(&needle)? + needle.len();
    let end = start + line[start..].find('"')?;
    Some(line[start..end].to_string())
}

#[test]
fn tracing_does_not_change_serve_results() {
    let jobs = synthetic_jobs(90, 5, 7);
    let config = ServeConfig::with_workers(3);

    let plain = serve(jobs.clone(), &config);
    let sink = SharedBuf::default();
    let tracer = Tracer::to_writer(Box::new(sink.clone()), "serve", 2, 9, Recorder::disabled());
    let traced = serve_observed(jobs, &config, Recorder::disabled(), tracer.clone(), None);
    tracer.flush();

    let plain_lines: Vec<String> = plain.results.iter().map(result_line).collect();
    let traced_lines: Vec<String> = traced.results.iter().map(result_line).collect();
    assert_eq!(plain_lines, traced_lines, "tracing changed the results");
    assert_eq!(plain.report.jobs, traced.report.jobs);
    assert_eq!(plain.report.errors, traced.report.errors);

    // Sampling 1 in 2 of 90 submissions roots exactly 45 `job` spans.
    let text = sink.text();
    let roots = text
        .lines()
        .filter(|l| l.contains("\"stage\":\"job\""))
        .count();
    assert_eq!(roots, 45, "unexpected root span count:\n{text}");
    // Every span belongs to service `serve` and joins a sampled trace.
    for line in text.lines() {
        assert_eq!(field(line, "svc").as_deref(), Some("serve"), "{line}");
        assert!(field(line, "trace").is_some(), "{line}");
    }
}

#[test]
fn same_trace_sample_seed_samples_the_same_trace_ids() {
    let jobs = synthetic_jobs(60, 4, 11);
    let config = ServeConfig::with_workers(4);

    let run = || -> BTreeSet<String> {
        let sink = SharedBuf::default();
        let tracer =
            Tracer::to_writer(Box::new(sink.clone()), "serve", 3, 99, Recorder::disabled());
        serve_observed(
            jobs.clone(),
            &config,
            Recorder::disabled(),
            tracer.clone(),
            None,
        );
        tracer.flush();
        sink.text()
            .lines()
            .filter_map(|l| field(l, "trace"))
            .collect()
    };

    let first = run();
    let second = run();
    assert_eq!(first, second, "rerun sampled a different trace-id set");

    // The sampled set is exactly the predicted pure function of
    // (seed, submission sequence): every third submission, ids from
    // `Tracer::trace_id_for`.
    let expected: BTreeSet<String> = (0u64..60)
        .filter(|seq| seq % 3 == 0)
        .map(|seq| Tracer::trace_id_for(99, seq).to_string())
        .collect();
    assert_eq!(first, expected);
}
