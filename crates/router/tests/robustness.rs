//! Hostile input at the router edge: a malformed line is answered with
//! `bad_request` and never takes the router (or the connection) down.
//! Control lines the router does not serve are refused the same way.
//! Hostile shards: one that accepts and closes is never readmitted, and
//! a shard stopped after its router's drain is no ejection.

use drift_gateway::client::Client;
use drift_gateway::protocol::{parse_response, request_line, Response, ERR_BAD_REQUEST};
use drift_gateway::{Gateway, GatewayConfig};
use drift_obs::Recorder;
use drift_router::{Router, RouterConfig};
use drift_serve::job::{JobKind, JobOutcome, JobResult, JobSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn schedule_job(id: u64) -> JobSpec {
    JobSpec {
        id,
        seed: 4,
        kind: JobKind::Schedule {
            m: 64,
            k: 128,
            n: 64,
            fa: 0.25,
            fw: 0.5,
        },
    }
}

/// Polls `done` until it holds, failing with `what` after 30 s.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

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
    let spec = schedule_job(3);
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
    let spec = schedule_job(3);
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
    let spec = schedule_job(3);
    match parse_response(&exchange(&request_line(&spec, None))).unwrap() {
        Response::Result(r) => assert_eq!(r.id, 3),
        other => panic!("unexpected response {other:?}"),
    }
    let summary = router.shutdown();
    assert_eq!(summary.rejected, 3);
    assert_eq!(summary.reshards, 0);
    gw.shutdown();
}

#[test]
fn a_shard_that_accepts_and_closes_is_not_readmitted() {
    // A shard that accepts every connection and closes it at once,
    // reporting each accept.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (accepted_tx, accepted) = mpsc::channel();
    let closing = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let closing = Arc::clone(&closing);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if closing.load(Ordering::SeqCst) {
                    break;
                }
                drop(stream);
                let _ = accepted_tx.send(());
            }
        })
    };
    let config = RouterConfig {
        probe_interval_ms: 10,
        ..RouterConfig::default()
    };
    let router = Router::start(
        "127.0.0.1:0",
        &[addr.to_string()],
        config,
        Recorder::disabled(),
    )
    .unwrap();
    // Each probe is one accept, so the accepts pace the wait: no sleep.
    let next_accept = || {
        accepted
            .recv_timeout(Duration::from_secs(30))
            .expect("the router keeps probing")
    };
    // The start-up connect succeeds; the closed link is then ejected.
    while router.summary().ejections == 0 {
        next_accept();
    }
    for _ in 0..3 {
        next_accept();
    }
    let summary = router.summary();
    assert_eq!((summary.ejections, summary.readmissions), (1, 0));

    // The same address served by a real gateway answers the ping.
    closing.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr);
    acceptor.join().unwrap();
    let gw = Gateway::start(
        &addr.to_string(),
        GatewayConfig::with_workers(1),
        Recorder::disabled(),
    )
    .unwrap();
    wait_until("never readmitted", || router.summary().readmissions > 0);
    let mut client = Client::connect(&router.local_addr().to_string()).unwrap();
    match client.submit(&schedule_job(5), None).unwrap() {
        Response::Result(r) => assert!(matches!(r.outcome, JobOutcome::Schedule { .. })),
        other => panic!("unexpected response {other:?}"),
    }
    let summary = router.shutdown();
    assert_eq!((summary.ejections, summary.readmissions), (1, 1));
    gw.shutdown();
}

#[test]
fn a_gateway_stopped_after_its_router_drains_is_no_ejection() {
    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(1),
        Recorder::disabled(),
    )
    .unwrap();
    let recorder = Recorder::enabled();
    let router = Router::start(
        "127.0.0.1:0",
        &[gw.local_addr().to_string()],
        RouterConfig::default(),
        recorder.clone(),
    )
    .unwrap();
    let mut client = Client::connect(&router.local_addr().to_string()).unwrap();
    assert!(matches!(
        client.submit(&schedule_job(1), None).unwrap(),
        Response::Result(_)
    ));
    // router-stop, then gateway-stop, as a clean shutdown sends them.
    assert!(client.shutdown_server().unwrap());
    router.wait_for_drain();
    gw.shutdown();
    // The router sees the link close before it stops.
    let healthy = recorder
        .registry()
        .unwrap()
        .gauge("drift_router_shards_healthy", &[]);
    wait_until("the closed link was never noticed", || {
        healthy.load(Ordering::SeqCst) == 0
    });
    let summary = router.shutdown();
    assert_eq!((summary.ejections, summary.failovers), (0, 0));
}
