//! One timing feeds both views: every stage a sampled request passes
//! through ends exactly once, as one `drift_stage_microseconds`
//! observation and one trace span, on every tier and on every way a
//! router hop can end.

use drift_gateway::client::Client;
use drift_gateway::loadgen::{self, LoadGenConfig};
use drift_gateway::protocol::{Response, ERR_BAD_REQUEST};
use drift_gateway::{Gateway, GatewayConfig};
use drift_obs::{Recorder, Snapshot, Tracer};
use drift_router::{Router, RouterConfig};
use drift_serve::job::{result_line, JobKind, JobOutcome, JobResult, JobSpec};
use serde::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};

/// A cloneable in-memory span sink for [`Tracer::to_writer`].
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// `(svc, stage, outcome attr)` of every span line written so far.
    fn spans(&self) -> Vec<(String, String, Option<String>)> {
        let text = String::from_utf8(self.0.lock().unwrap().clone()).unwrap();
        text.lines()
            .map(|line| {
                let span: Value = serde_json::from_str(line).expect("span line is JSON");
                let text = |v: Option<&Value>| match v {
                    Some(Value::Str(s)) => Some(s.clone()),
                    _ => None,
                };
                let outcome = span.get("attrs").and_then(|a| text(a.get("outcome")));
                (
                    text(span.get("svc")).expect("span has a svc"),
                    text(span.get("stage")).expect("span has a stage"),
                    outcome,
                )
            })
            .collect()
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

/// `drift_stage_microseconds` observations per `(tier, stage)`.
fn stage_counts(snapshot: &Snapshot) -> BTreeMap<(String, String), u64> {
    let mut counts = BTreeMap::new();
    for h in &snapshot.histograms {
        if h.id.name != "drift_stage_microseconds" {
            continue;
        }
        let label = |key: &str| {
            h.id.labels
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .expect("stage label present")
        };
        *counts.entry((label("tier"), label("stage"))).or_default() += h.count();
    }
    counts
}

#[test]
fn span_lines_and_stage_observations_agree_on_every_tier() {
    // One recorder for the whole stack, one span sink per tracer (as
    // one file per process): both sample every request.
    let recorder = Recorder::enabled();
    let sinks: Vec<SharedBuf> = (0..3).map(|_| SharedBuf::default()).collect();
    let tracer = |tier, sink: &SharedBuf| {
        Tracer::to_writer(Box::new(sink.clone()), tier, 1, 3, recorder.clone())
    };
    let gateways: Vec<Gateway> = sinks[1..]
        .iter()
        .map(|sink| {
            Gateway::start_traced(
                "127.0.0.1:0",
                GatewayConfig::with_workers(2),
                recorder.clone(),
                tracer("gateway", sink),
            )
            .unwrap()
        })
        .collect();
    let shards: Vec<String> = gateways
        .iter()
        .map(|g| g.local_addr().to_string())
        .collect();
    let router = Router::start_traced(
        "127.0.0.1:0",
        &shards,
        RouterConfig::default(),
        recorder.clone(),
        tracer("router", &sinks[0]),
    )
    .unwrap();
    let addr = router.local_addr().to_string();
    // Singleton lines, then batch lines that split across both shards.
    for batch in [1, 4] {
        let load = LoadGenConfig {
            clients: 2,
            jobs: 48,
            shapes: 6,
            seed: 11,
            batch,
            ..LoadGenConfig::default()
        };
        let report = loadgen::run(&addr, &load).unwrap();
        report.verify_complete().unwrap();
        assert_eq!(report.ok, 48, "{}", report.render());
    }
    // Draining joins every thread, so every stage has ended.
    router.shutdown();
    for gw in gateways {
        gw.shutdown();
    }

    let mut spans: BTreeMap<(String, String), u64> = BTreeMap::new();
    for (svc, stage, _) in sinks.iter().flat_map(SharedBuf::spans) {
        *spans.entry((svc, stage)).or_default() += 1;
    }
    let observed = stage_counts(&recorder.registry().unwrap().snapshot());
    assert_eq!(spans, observed, "span lines vs stage observations");
    for (svc, stage) in [
        ("router", "request"),
        ("router", "hop"),
        ("gateway", "request"),
        ("gateway", "queue_wait"),
        ("gateway", "execute"),
        ("gateway", "response_write"),
        ("serve", "cache_lookup"),
        ("serve", "execute"),
    ] {
        assert!(
            spans.contains_key(&(svc.to_string(), stage.to_string())),
            "no {svc}.{stage} stage in {spans:?}"
        );
    }
}

/// A backend that answers every line on its one connection, batch
/// lines included, with a singleton result: a protocol violation the
/// router must still settle. Returns when the router closes the
/// connection.
fn answer_with_singletons(listener: TcpListener) {
    let (stream, _) = listener.accept().unwrap();
    let mut out = stream.try_clone().unwrap();
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { return };
        let request: Value = serde_json::from_str(&line).unwrap();
        let id = match request.get("id") {
            Some(Value::U64(id)) => *id,
            Some(Value::I64(id)) => *id as u64,
            other => panic!("request without an id: {other:?}"),
        };
        let result = JobResult {
            id,
            outcome: JobOutcome::Schedule {
                makespan: 1,
                latencies: [1; 4],
            },
        };
        if writeln!(out, "{}", result_line(&result)).is_err() {
            return;
        }
    }
}

#[test]
fn a_hop_ended_by_a_protocol_violation_is_one_span_and_one_observation() {
    let recorder = Recorder::enabled();
    let sink = SharedBuf::default();
    let tracer = Tracer::to_writer(Box::new(sink.clone()), "router", 1, 0, recorder.clone());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let shard = listener.local_addr().unwrap().to_string();
    let backend = std::thread::spawn(move || answer_with_singletons(listener));
    // No health probe runs during the test: the backend serves only
    // the router's data connection.
    let config = RouterConfig {
        probe_interval_ms: 600_000,
        ..RouterConfig::default()
    };
    let router =
        Router::start_traced("127.0.0.1:0", &[shard], config, recorder.clone(), tracer).unwrap();
    let mut client = Client::connect(&router.local_addr().to_string()).unwrap();
    let spec = JobSpec {
        id: 5,
        seed: 6,
        kind: JobKind::Schedule {
            m: 64,
            k: 128,
            n: 64,
            fa: 0.25,
            fw: 0.5,
        },
    };
    assert_eq!(
        client.submit(&spec, None).unwrap(),
        Response::Error {
            id: Some(5),
            error: ERR_BAD_REQUEST.to_string()
        }
    );
    router.shutdown();
    backend.join().unwrap();

    let hops: Vec<Option<String>> = sink
        .spans()
        .into_iter()
        .filter(|(svc, stage, _)| svc == "router" && stage == "hop")
        .map(|(_, _, outcome)| outcome)
        .collect();
    assert_eq!(hops, [Some("error".to_string())]);
    let snapshot = recorder.registry().unwrap().snapshot();
    let observed = |outcome| {
        snapshot
            .histogram_merged_where(
                "drift_stage_microseconds",
                &[("tier", "router"), ("stage", "hop"), ("outcome", outcome)],
            )
            .map_or(0, |h| h.count())
    };
    assert_eq!(observed("error"), 1);
    assert_eq!(
        stage_counts(&snapshot)[&("router".to_string(), "hop".to_string())],
        1
    );
}
