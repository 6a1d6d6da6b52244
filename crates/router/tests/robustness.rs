//! Hostile input at the router edge: a malformed line is answered with
//! `bad_request` and never takes the router (or the connection) down.

use drift_gateway::client::Client;
use drift_gateway::protocol::{Response, ERR_BAD_REQUEST};
use drift_gateway::{Gateway, GatewayConfig};
use drift_obs::Recorder;
use drift_router::{Router, RouterConfig};
use drift_serve::job::{JobKind, JobOutcome, JobResult, JobSpec};

#[test]
fn deeply_nested_lines_are_rejected_and_the_connection_survives() {
    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(1),
        Recorder::disabled(),
    )
    .unwrap();
    let router = Router::start(
        "127.0.0.1:0",
        &[gw.local_addr().to_string()],
        RouterConfig::default(),
        Recorder::disabled(),
    )
    .unwrap();
    let mut client = Client::connect(&router.local_addr().to_string()).unwrap();
    // 100 KB of open brackets: far under the line cap, yet deep enough
    // to overflow any recursive parser's stack.
    client.send_raw(&"[".repeat(100_000)).unwrap();
    assert_eq!(
        client.recv().unwrap(),
        Response::Error {
            id: None,
            error: ERR_BAD_REQUEST.to_string()
        }
    );
    // The next job on the same connection is still answered.
    let spec = JobSpec {
        id: 3,
        seed: 4,
        kind: JobKind::Schedule {
            m: 64,
            k: 128,
            n: 64,
            fa: 0.25,
            fw: 0.5,
        },
    };
    match client.submit(&spec, None).unwrap() {
        Response::Result(r) => assert_eq!(r.id, 3),
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(router.shutdown().rejected, 1);
    gw.shutdown();
}

#[test]
fn oversized_jobs_get_a_job_error_and_the_connection_survives() {
    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(1),
        Recorder::disabled(),
    )
    .unwrap();
    let router = Router::start(
        "127.0.0.1:0",
        &[gw.local_addr().to_string()],
        RouterConfig::default(),
        Recorder::disabled(),
    )
    .unwrap();
    let mut client = Client::connect(&router.local_addr().to_string()).unwrap();
    // The router derives a routing key at admission; for a 2^40-row
    // Simulate job that must not draw 2^40 precision-map entries.
    let oversized = JobSpec {
        id: 1,
        seed: 2,
        kind: JobKind::Simulate {
            m: 1 << 40,
            k: 64,
            n: 64,
            fa: 0.5,
            fw: 0.5,
        },
    };
    match client.submit(&oversized, None).unwrap() {
        Response::Result(JobResult {
            id: 1,
            outcome: JobOutcome::Error { message },
        }) => assert!(message.starts_with("job too large"), "{message}"),
        other => panic!("unexpected response {other:?}"),
    }
    // The next job on the same connection is still answered.
    let spec = JobSpec {
        id: 3,
        seed: 4,
        kind: JobKind::Schedule {
            m: 64,
            k: 128,
            n: 64,
            fa: 0.25,
            fw: 0.5,
        },
    };
    match client.submit(&spec, None).unwrap() {
        Response::Result(r) => {
            assert_eq!(r.id, 3);
            assert!(matches!(r.outcome, JobOutcome::Schedule { .. }));
        }
        other => panic!("unexpected response {other:?}"),
    }
    router.shutdown();
    gw.shutdown();
}
