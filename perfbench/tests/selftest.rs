//! Self-tests of the benchmark's own logic: the percentile rule, the
//! failure accounting, the result line, the input streams, and the
//! agreement of `BENCHMARK.json` with what the program prints.

use drift_gateway::protocol::Response;
use drift_serve::{synthetic_jobs, synthetic_schedule_jobs, JobOutcome, JobResult};
use perfbench::layers::PER_LAYER;
use perfbench::serving::{check, SpanSink};
use perfbench::stats::{
    quantile, result_line, samples_beyond, supported_tail, Failure, LatencyHistogram,
    LatencySummary, Metric, Tally,
};
use perfbench::streams::{job, period, Workload};
use serde_json::Value;
use std::io::Write;

#[test]
fn nearest_rank_quantiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(quantile(&v, 0.5), 50.0);
    assert_eq!(quantile(&v, 0.99), 99.0);
    assert_eq!(quantile(&v, 1.0), 100.0);
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&[7.0], 0.99), 7.0);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert_eq!(samples_beyond(999, 0.99), 9);
    assert_eq!(supported_tail(10_000), Some(0.999));
    assert_eq!(supported_tail(9_999), Some(0.99));
    assert_eq!(supported_tail(1000), Some(0.99));
    assert_eq!(supported_tail(999), Some(0.9));
    assert_eq!(supported_tail(100), Some(0.9));
    assert_eq!(supported_tail(99), None);
}

#[test]
fn latency_summary_needs_a_thousand_samples() {
    let mut hist = LatencyHistogram::default();
    for us in 1..1000 {
        hist.record(f64::from(us));
    }
    assert!(LatencySummary::of(&hist).is_err());
    hist.record(1000.0);
    let lat = LatencySummary::of(&hist).unwrap();
    assert_eq!(lat.samples, 1000);
    // Buckets are 0.14% wide: the reported value is within that of the
    // exact nearest-rank quantile.
    assert!((lat.p50 / 500.0 - 1.0).abs() < 0.002, "{}", lat.p50);
    assert!((lat.p99 / 990.0 - 1.0).abs() < 0.002, "{}", lat.p99);
}

#[test]
fn histogram_merges_and_keeps_tiny_values() {
    let mut a = LatencyHistogram::default();
    let mut b = LatencyHistogram::default();
    a.record(0.0);
    b.record(2.0);
    b.record(2.0);
    a.merge(&b);
    assert_eq!(a.count(), 3);
    assert_eq!(a.quantile(0.1), Some(0.01));
    assert!((a.quantile(0.9).unwrap() / 2.0 - 1.0).abs() < 0.002);
}

fn answers() -> Vec<JobOutcome> {
    (0..32)
        .map(|i| JobOutcome::Schedule {
            makespan: i,
            latencies: [i, 0, 0, 0],
        })
        .collect()
}

fn answer(i: u64) -> Response {
    Response::Result(JobResult {
        id: i,
        outcome: answers()[(i % 32) as usize].clone(),
    })
}

#[test]
fn refused_batch_fails_every_job_it_carried() {
    let expected = answers();
    let mut tally = Tally::default();
    let refused = Response::Error {
        id: Some(3),
        error: "overloaded".to_string(),
    };
    assert_eq!(check(&refused, 3, 32, &expected, &mut tally), 0);
    assert_eq!(tally.attempted, 32);
    assert_eq!(tally.failed[Failure::Shed as usize], 32);
    assert_eq!(tally.fail_ratio(), 1.0);

    // A good batch of 32 (line 1 holds stream positions 32..64) with
    // one wrong item and one expired item.
    let mut items: Vec<Response> = (32..64).map(answer).collect();
    items[5] = answer(99);
    items[6] = Response::Error {
        id: Some(38),
        error: "deadline_exceeded".to_string(),
    };
    let batch = Response::Batch { id: 1, items };
    assert_eq!(check(&batch, 1, 32, &expected, &mut tally), 30);
    assert_eq!(tally.attempted, 64);
    assert_eq!(tally.ok, 30);
    assert_eq!(tally.failed[Failure::WrongAnswer as usize], 1);
    assert_eq!(tally.failed[Failure::Expired as usize], 1);
    assert_eq!(tally.failed_total(), 34);
    assert!((tally.fail_ratio() - 34.0 / 64.0).abs() < 1e-12);

    // A batch answer of the wrong length fails the whole line.
    let short = Response::Batch {
        id: 2,
        items: vec![answer(64)],
    };
    assert_eq!(check(&short, 2, 32, &expected, &mut tally), 0);
    assert_eq!(tally.failed[Failure::WrongAnswer as usize], 33);
}

#[test]
fn singleton_answers_are_graded_by_id_and_payload() {
    let expected = answers();
    let mut tally = Tally::default();
    assert_eq!(check(&answer(40), 40, 1, &expected, &mut tally), 1);
    assert_eq!(check(&answer(41), 40, 1, &expected, &mut tally), 0);
    let failed = Response::Result(JobResult {
        id: 7,
        outcome: JobOutcome::Error {
            message: "boom".to_string(),
        },
    });
    assert_eq!(check(&failed, 7, 1, &expected, &mut tally), 0);
    assert_eq!(tally.ok, 1);
    assert_eq!(tally.failed[Failure::WrongAnswer as usize], 1);
    assert_eq!(tally.failed[Failure::JobError as usize], 1);
}

#[test]
fn result_line_parses_with_exact_values() {
    let mut tally = Tally::default();
    tally.ok(999);
    tally.fail(Failure::Transport, 1);
    let metrics = [
        Metric::new("ok_per_s", 1_234.567_890_123, "1/s"),
        Metric::new("setup_s", 0.000_123_456_789, "s"),
    ];
    let line = result_line(false, &tally, &metrics);
    let value: Value = serde_json::from_str(&line).unwrap();
    let keys: Vec<&str> = value
        .as_map()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(value.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(value.get("attempted"), Some(&Value::I64(1000)));
    assert_eq!(value.get("failed"), Some(&Value::I64(1)));
    let m = value.get("metrics").unwrap();
    let ok = m.get("ok_per_s").unwrap();
    assert_eq!(ok.get("value"), Some(&Value::F64(1_234.567_890_123)));
    assert_eq!(ok.get("unit"), Some(&Value::Str("1/s".to_string())));
    let setup = m.get("setup_s").unwrap().get("value");
    assert_eq!(setup, Some(&Value::F64(0.000_123_456_789)));
}

#[test]
fn streams_are_one_period_of_the_synthetic_generators() {
    let mixed = period(Workload::MixedGateway, 9);
    assert_eq!(mixed, period(Workload::MixedRouted, 9));
    for (i, spec) in synthetic_jobs(500, 8, 9).into_iter().enumerate() {
        assert_eq!(job(&mixed, i as u64), spec);
    }
    let small = period(Workload::SmallFlood, 9);
    assert_eq!(small, period(Workload::BatchRouted, 9));
    for (i, spec) in synthetic_schedule_jobs(200, 8, 9).into_iter().enumerate() {
        assert_eq!(job(&small, i as u64), spec);
    }
    assert!(period(Workload::PaperZoo, 9).is_empty());
}

#[test]
fn span_sink_skips_lines_that_are_not_spans() {
    let mut sink = SpanSink::default();
    sink.write_all(b"not json\n{\"svc\":\"router\",\"stage\":\"hop\"}\n")
        .unwrap();
    sink.write_all(b"{\"svc\":\"router\",\"stage\":\"hop\",\"dur_us\":2.5}\n")
        .unwrap();
    assert_eq!(sink.durations("router.hop"), vec![2.5]);
}

#[test]
fn span_sink_keeps_durations_by_stage() {
    let mut sink = SpanSink::default();
    let line = "{\"trace\":\"ab\",\"span\":\"01\",\"svc\":\"gateway\",\"stage\":\"queue_wait\",\"start_us\":5,\"dur_us\":17,\"job\":3}\n";
    let (head, tail) = line.split_at(40);
    sink.write_all(head.as_bytes()).unwrap();
    assert!(sink.durations("gateway.queue_wait").is_empty());
    sink.write_all(tail.as_bytes()).unwrap();
    sink.write_all(line.as_bytes()).unwrap();
    assert_eq!(sink.durations("gateway.queue_wait"), vec![17.0, 17.0]);
}

fn names_and_units(value: &Value, key: &str) -> Vec<(String, String)> {
    value
        .get(key)
        .and_then(Value::as_seq)
        .unwrap()
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            other => panic!("bad metric entry {other:?}"),
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_program_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let spec: Value = serde_json::from_str(&text).unwrap();
    let per_layer: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_and_units(&spec, "per_layer"), per_layer);
    let end_to_end: Vec<String> = names_and_units(&spec, "end_to_end")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(
        end_to_end,
        ["ok_per_s", "p50_us", "p99_us", "setup_s", "peak_rss_mb"]
    );
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_seq)
        .unwrap()
        .iter()
        .map(|w| match w.get("name") {
            Some(Value::Str(n)) => n.clone(),
            other => panic!("bad workload {other:?}"),
        })
        .collect();
    // `small-flood`, `batch-routed` and `paper-zoo` run on request but
    // are not gated: see README.md.
    assert_eq!(workloads, ["mixed-gateway", "mixed-routed"]);
    assert!(workloads.iter().all(|w| Workload::parse(w).is_some()));
}
