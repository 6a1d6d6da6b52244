//! Distributed tracing through the gateway: spans must reconstruct a
//! full per-request waterfall (request → queue_wait → execute →
//! serve-tier children → response_write) with zero orphans, the
//! sampled trace-id set must be the pure function of `(seed, arrival
//! sequence)`, and — the acceptance bar — tracing on vs. off must be
//! invisible in the result bytes.

use drift_gateway::loadgen::{self, LoadGenConfig};
use drift_gateway::server::{Gateway, GatewayConfig};
use drift_obs::{Recorder, Tracer};
use drift_serve::job::result_line;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::io::Write;
use std::sync::{Arc, Mutex};

const JOBS: usize = 120;
const SHAPES: usize = 4;
const SEED: u64 = 42;
const TRACE_SEED: u64 = 5;

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

fn field(line: &str, name: &str) -> Option<String> {
    let needle = format!("\"{name}\":\"");
    let start = line.find(&needle)? + needle.len();
    let end = start + line[start..].find('"')?;
    Some(line[start..end].to_string())
}

fn drive(tracer: Tracer, batch: usize) -> (Vec<String>, u64) {
    let mut config = GatewayConfig::with_workers(4);
    config.queue_depth = JOBS; // deep enough that nothing sheds
    let gw = Gateway::start_traced("127.0.0.1:0", config, Recorder::disabled(), tracer).unwrap();
    let addr = gw.local_addr().to_string();
    let load = LoadGenConfig {
        clients: 4,
        jobs: JOBS,
        shapes: SHAPES,
        seed: SEED,
        batch,
        ..LoadGenConfig::default()
    };
    let report = loadgen::run(&addr, &load).unwrap();
    report.verify_complete().unwrap();
    assert_eq!(report.ok, JOBS as u64, "{}", report.render());
    let summary = gw.shutdown();
    (
        report.results.iter().map(result_line).collect(),
        summary.accepted,
    )
}

#[test]
fn tracing_does_not_change_gateway_results() {
    let (plain, _) = drive(Tracer::disabled(), 1);
    let sink = SharedBuf::default();
    let tracer = Tracer::to_writer(
        Box::new(sink.clone()),
        "gateway",
        1,
        TRACE_SEED,
        Recorder::disabled(),
    );
    let (traced, accepted) = drive(tracer.clone(), 1);
    tracer.flush();
    assert_eq!(plain, traced, "tracing changed the result bytes");

    let traces = spans_by_trace(&sink.text());

    // Sampling 1 in 1: every accepted request is a distinct trace.
    assert_eq!(accepted, JOBS as u64);
    assert_eq!(traces.len(), JOBS, "one trace per accepted request");

    // The sampled id set is the pure function of (seed, arrival seq).
    let expected: BTreeSet<String> = (0u64..JOBS as u64)
        .map(|seq| Tracer::trace_id_for(TRACE_SEED, seq).to_string())
        .collect();
    let sampled: BTreeSet<String> = traces.keys().cloned().collect();
    assert_eq!(sampled, expected);

    assert_full_waterfalls(&traces);
}

/// (span id, parent, svc.stage) triples of one trace.
type Spans = Vec<(String, Option<String>, String)>;

/// Groups span lines by trace.
fn spans_by_trace(text: &str) -> HashMap<String, Spans> {
    let mut traces: HashMap<String, Spans> = HashMap::new();
    for line in text.lines() {
        let trace = field(line, "trace").expect("span missing trace id");
        let hop = format!(
            "{}.{}",
            field(line, "svc").unwrap(),
            field(line, "stage").unwrap()
        );
        traces.entry(trace).or_default().push((
            field(line, "span").unwrap(),
            field(line, "parent"),
            hop,
        ));
    }
    traces
}

fn assert_full_waterfalls(traces: &HashMap<String, Spans>) {
    for (trace, spans) in traces {
        // Full waterfall: every gateway hop present, plus at least one
        // serve-tier child recorded under service `serve`.
        let hops: HashSet<&str> = spans.iter().map(|(_, _, hop)| hop.as_str()).collect();
        for hop in [
            "gateway.request",
            "gateway.queue_wait",
            "gateway.execute",
            "gateway.response_write",
        ] {
            assert!(hops.contains(hop), "trace {trace} missing {hop}: {hops:?}");
        }
        assert!(
            hops.iter().any(|h| h.starts_with("serve.")),
            "trace {trace} has no serve-tier span: {hops:?}"
        );
        // Zero orphans: every recorded parent id resolves in-trace.
        let ids: HashSet<&str> = spans.iter().map(|(id, _, _)| id.as_str()).collect();
        for (id, parent, hop) in spans {
            if let Some(parent) = parent {
                assert!(
                    ids.contains(parent.as_str()),
                    "trace {trace}: span {id} ({hop}) orphaned on parent {parent}"
                );
            }
        }
    }
}

#[test]
fn batch_traces_carry_the_full_waterfall() {
    // Each of the 4 clients gets 30 jobs: 5 whole batch lines apiece.
    const BATCH: usize = 6;
    let (plain, _) = drive(Tracer::disabled(), BATCH);
    let sink = SharedBuf::default();
    let tracer = Tracer::to_writer(
        Box::new(sink.clone()),
        "gateway",
        1,
        TRACE_SEED,
        Recorder::disabled(),
    );
    let (traced, accepted) = drive(tracer.clone(), BATCH);
    tracer.flush();
    assert_eq!(plain, traced, "tracing changed the result bytes");
    assert_eq!(accepted, JOBS as u64);

    // One trace per batch line, each a full waterfall with no orphans.
    let traces = spans_by_trace(&sink.text());
    assert_eq!(traces.len(), JOBS / BATCH, "one trace per batch line");
    assert_full_waterfalls(&traces);
}
