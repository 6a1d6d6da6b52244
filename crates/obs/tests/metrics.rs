//! Metrics-layer integration tests: bucket boundary semantics,
//! Prometheus escaping, concurrent-update exactness, the golden
//! `drift report` table, and the contract/docs sync check.

use drift_obs::export::{HistogramSample, Sample};
use drift_obs::registry::MetricId;
use drift_obs::{contract, MetricsRegistry, Recorder, Snapshot};

#[test]
fn histogram_bucket_boundaries_are_le_semantics() {
    // Prometheus `le` buckets are inclusive upper bounds: an
    // observation exactly on a bound lands in that bound's bucket.
    let reg = MetricsRegistry::new();
    let bounds = &[10, 100, 1000];
    for v in [9, 10, 11, 100, 101, 1000, 1001, u64::MAX] {
        reg.observe("m", &[], bounds, v);
    }
    let snap = reg.snapshot();
    let h = snap.histogram("m").unwrap();
    assert_eq!(h.bounds, vec![10, 100, 1000]);
    //                    <=10   <=100  <=1000  +Inf
    assert_eq!(h.counts, vec![2, 2, 2, 2]);
    assert_eq!(h.count(), 8);

    // The cumulative rendering the text format requires.
    let text = snap.to_prometheus();
    assert!(text.contains("m_bucket{le=\"10\"} 2"));
    assert!(text.contains("m_bucket{le=\"100\"} 4"));
    assert!(text.contains("m_bucket{le=\"1000\"} 6"));
    assert!(text.contains("m_bucket{le=\"+Inf\"} 8"));
    assert!(text.contains("m_count 8"));
}

#[test]
fn prometheus_escapes_label_values() {
    let reg = MetricsRegistry::new();
    reg.counter_add("m_total", &[("path", "a\\b\"c\nd")], 1);
    let text = reg.snapshot().to_prometheus();
    assert!(
        text.contains(r#"m_total{path="a\\b\"c\nd"} 1"#),
        "backslash, quote, and newline must be escaped, got:\n{text}"
    );
}

#[test]
fn concurrent_counter_increments_sum_exactly() {
    let recorder = Recorder::enabled();
    let threads = 8;
    let per_thread = 10_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let recorder = recorder.clone();
            scope.spawn(move || {
                let label = if t % 2 == 0 { "even" } else { "odd" };
                for _ in 0..per_thread {
                    recorder.counter_add("race_total", &[("half", label)], 1);
                    recorder.fcounter_add("race_pj_total", &[], 0.5);
                    recorder.observe("race_hist", &[], &[1, 2, 4], t);
                }
            });
        }
    });
    let snap = recorder.registry().unwrap().snapshot();
    assert_eq!(snap.counter_sum("race_total"), threads * per_thread);
    let h = snap.histogram("race_hist").unwrap();
    assert_eq!(h.count(), threads * per_thread);
    let pj = snap
        .fcounters
        .iter()
        .find(|s| s.id.name == "race_pj_total")
        .unwrap();
    // 80_000 halves: exactly representable, so CAS accumulation is exact.
    assert_eq!(pj.value, threads as f64 * per_thread as f64 * 0.5);
}

/// A fixed snapshot with every section populated, for format goldens.
fn golden_snapshot() -> Snapshot {
    Snapshot {
        counters: vec![
            Sample {
                id: MetricId::new("drift_schedule_cache_hits_total", &[]),
                value: 39,
            },
            Sample {
                id: MetricId::new(
                    "drift_serve_jobs_total",
                    &[("kind", "simulate"), ("outcome", "ok")],
                ),
                value: 40,
            },
        ],
        fcounters: vec![Sample {
            id: MetricId::new("drift_energy_picojoules_total", &[("stage", "dram")]),
            value: 1234.5,
        }],
        gauges: vec![Sample {
            id: MetricId::new("drift_serve_workers", &[]),
            value: 2,
        }],
        histograms: vec![HistogramSample {
            id: MetricId::new(
                "drift_stage_microseconds",
                &[("tier", "serve"), ("stage", "job"), ("outcome", "ok")],
            ),
            bounds: contract::LATENCY_US_BUCKETS.to_vec(),
            counts: vec![0, 0, 0, 0, 0, 0, 3, 10, 17, 6, 3, 1, 0, 0, 0, 0, 0, 0, 0],
            sum: 24_000,
        }],
    }
}

#[test]
fn report_table_matches_golden_file() {
    let rendered = golden_snapshot().render_table();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/report.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &rendered).unwrap();
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run with BLESS=1 to create)"));
    assert_eq!(
        rendered, golden,
        "drift report layout changed; if intentional, re-bless with \
         BLESS=1 cargo test -p drift-obs --test metrics"
    );
}

#[test]
fn json_round_trips_through_prometheus_names() {
    // Every name in the JSON export shows up in the Prometheus export
    // of the same snapshot (histograms via their _bucket series).
    let snap = golden_snapshot();
    let prom = snap.to_prometheus();
    for s in snap.counters.iter().map(|s| &s.id.name) {
        assert!(prom.contains(s.as_str()));
    }
    for h in &snap.histograms {
        assert!(prom.contains(&format!("{}_bucket", h.id.name)));
    }
}

#[test]
fn docs_cover_every_contract_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/OBSERVABILITY.md");
    let docs = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let mut missing: Vec<&str> = contract::METRICS
        .iter()
        .map(|m| m.name)
        .filter(|name| !docs.contains(&format!("`{name}`")))
        .collect();
    missing.sort_unstable();
    assert!(
        missing.is_empty(),
        "metrics exported but not documented in docs/OBSERVABILITY.md: {missing:?}"
    );
}

#[test]
fn contract_label_sets_match_instrumented_ids() {
    // Spot-check that the label keys the contract declares are the
    // ones the exporters will see, via a representative recording.
    let recorder = Recorder::enabled();
    recorder.counter_add(
        "drift_serve_jobs_total",
        &[("kind", "simulate"), ("outcome", "ok")],
        1,
    );
    let snap = recorder.registry().unwrap().snapshot();
    let sample = snap.counter("drift_serve_jobs_total").unwrap();
    let keys: Vec<&str> = sample.id.labels.iter().map(|(k, _)| k.as_str()).collect();
    let spec = contract::spec_for("drift_serve_jobs_total").unwrap();
    assert_eq!(keys, spec.labels, "label keys must match the contract");
}
