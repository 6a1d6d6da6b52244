//! Hostile input at the router edge: a malformed line is answered with
//! `bad_request` and never takes the router (or the connection) down.
//! Control lines the router does not serve are refused the same way.

use drift_gateway::client::Client;
use drift_gateway::protocol::{parse_response, request_line, Response, ERR_BAD_REQUEST};
use drift_gateway::{Gateway, GatewayConfig};
use drift_obs::Recorder;
use drift_router::{Router, RouterConfig};
use drift_serve::job::{JobKind, JobOutcome, JobResult, JobSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

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

#[test]
fn unserved_controls_are_rejected_and_the_connection_survives() {
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
    let stream = TcpStream::connect(router.local_addr()).unwrap();
    let mut lines = BufReader::new(stream.try_clone().unwrap()).lines();
    let mut exchange = |line: &str| {
        writeln!(&stream, "{line}").unwrap();
        lines.next().unwrap().unwrap()
    };
    // The router holds no schedule cache (prewarm targets gateways),
    // knows no "bogus" op, and needs the op to be a string.
    for line in [
        "{\"control\":\"prewarm\",\"entries\":[]}",
        "{\"control\":\"bogus\"}",
        "{\"control\":5}",
    ] {
        assert_eq!(exchange(line), "{\"error\":\"bad_request\"}", "{line}");
    }
    // A reshard without its shard list is nacked, not rejected.
    assert_eq!(
        exchange("{\"control\":\"reshard\"}"),
        "{\"control\":\"reshard\",\"ok\":false,\"error\":\"reshard needs a shards array\"}"
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
    match parse_response(&exchange(&request_line(&spec, None))).unwrap() {
        Response::Result(r) => assert_eq!(r.id, 3),
        other => panic!("unexpected response {other:?}"),
    }
    let summary = router.shutdown();
    assert_eq!(summary.rejected, 3);
    assert_eq!(summary.reshards, 0);
    gw.shutdown();
}
