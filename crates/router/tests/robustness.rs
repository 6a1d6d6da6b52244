//! Hostile input at the router edge: a malformed line is answered with
//! `bad_request` and never takes the router (or the connection) down.
//! Control lines the router does not serve are refused the same way.
//! A reshard line asking for more vnodes than the router allows is
//! refused before it quiesces anything.
//! Hostile shards: one that accepts and closes is never readmitted, one
//! that accepts and never answers is ejected or, as a reshard's new
//! owner, costs the reshard no more than a bounded prewarm push, and a
//! shard stopped after its router's drain is no ejection. An idle data
//! link is kept open. A job every shard sheds is tried on at most
//! `MAX_HOPS` shards.

use drift_core::arch::paper_fabric;
use drift_gateway::client::Client;
use drift_gateway::protocol::{
    error_line, parse_request, parse_response, request_line, Request, Response, ERR_BAD_REQUEST,
    ERR_OVERLOADED,
};
use drift_gateway::{Gateway, GatewayConfig};
use drift_obs::Recorder;
use drift_router::server::MAX_HOPS;
use drift_router::{route_key, HashRing, Router, RouterConfig};
use drift_serve::job::{JobKind, JobOutcome, JobResult, JobSpec};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::mem::ManuallyDrop;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a test waits for an answer or a shutdown before it fails
/// instead of hanging the suite.
const HANG_GUARD: Duration = Duration::from_secs(30);

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

/// Sends `spec` to `router` on a fresh connection and returns the
/// answer, failing after [`HANG_GUARD`] without one.
fn submit_within_guard(router: SocketAddr, spec: &JobSpec) -> Response {
    let stream = TcpStream::connect(router).unwrap();
    stream.set_read_timeout(Some(HANG_GUARD)).unwrap();
    writeln!(&stream, "{}", request_line(spec, None)).unwrap();
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("an answer within the guard");
    parse_response(line.trim_end()).unwrap()
}

/// Shuts `router` down on another thread and returns its summary, or
/// fails after [`HANG_GUARD`], leaving that thread and the router to
/// leak.
fn shutdown_within_guard(router: Router) -> drift_router::RouterSummary {
    let (done_tx, done) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(router.shutdown());
    });
    done.recv_timeout(HANG_GUARD)
        .expect("the router's shutdown returns")
}

/// Schedule jobs of distinct keys that `ring` places on shard `shard`,
/// with ids counting from 0.
fn jobs_owned_by(ring: &HashRing, shard: usize) -> impl Iterator<Item = JobSpec> + '_ {
    (0..)
        .map(|i| JobSpec {
            kind: JobKind::Schedule {
                m: 64 + 16 * i,
                k: 128,
                n: 64,
                fa: 0.25,
                fw: 0.5,
            },
            ..schedule_job(i as u64)
        })
        .filter(move |spec| ring.primary(route_key(spec, paper_fabric())) == Some(shard))
}

/// A shard that accepts every connection and then neither reads nor
/// writes, and a channel that reports each accept.
fn silent_shard() -> (String, mpsc::Receiver<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (accepted_tx, accepted) = mpsc::channel();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for stream in listener.incoming() {
            held.push(stream);
            let _ = accepted_tx.send(());
        }
    });
    (addr, accepted)
}

#[test]
fn a_shard_that_accepts_and_never_answers_is_ejected() {
    // A silent shard, as a stopped or deadlocked gateway is: the kernel
    // still completes each handshake and buffers what the router sends.
    let (silent, _accepts) = silent_shard();
    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(1),
        Recorder::disabled(),
    )
    .unwrap();
    let shards = [gw.local_addr().to_string(), silent];
    let config = RouterConfig {
        probe_interval_ms: 200,
        ..RouterConfig::default()
    };
    // A job the silent shard owns.
    let ring = HashRing::new(&shards, config.vnodes);
    let spec = jobs_owned_by(&ring, 1).next().unwrap();
    // Leaked if an answer never comes: dropping it would wait for one.
    let router = ManuallyDrop::new(
        Router::start("127.0.0.1:0", &shards, config, Recorder::disabled()).unwrap(),
    );
    // Sent before the first probe: routed to the silent shard.
    match submit_within_guard(router.local_addr(), &spec) {
        Response::Result(r) => assert!(matches!(r.outcome, JobOutcome::Schedule { .. })),
        Response::Error { error, .. } => assert_eq!(error, ERR_OVERLOADED),
        other => panic!("unexpected response {other:?}"),
    }
    let summary = shutdown_within_guard(ManuallyDrop::into_inner(router));
    assert_eq!(summary.ejections, 1);
    gw.shutdown();
}

/// A shard in front of `gateway` that forwards every line both ways,
/// and the lines each of its connections carried toward the gateway,
/// in the order the connections arrived. The acceptor never exits.
fn recording_proxy(gateway: SocketAddr) -> (String, Arc<Mutex<Vec<Vec<String>>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let lines: Arc<Mutex<Vec<Vec<String>>>> = Arc::default();
    let log = Arc::clone(&lines);
    std::thread::spawn(move || {
        for client in listener.incoming().flatten() {
            let Ok(upstream) = TcpStream::connect(gateway) else {
                continue;
            };
            let conn = {
                let mut log = log.lock().unwrap();
                log.push(Vec::new());
                log.len() - 1
            };
            let (mut answers, mut back) =
                (upstream.try_clone().unwrap(), client.try_clone().unwrap());
            std::thread::spawn(move || std::io::copy(&mut answers, &mut back));
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                for line in BufReader::new(client).lines().map_while(Result::ok) {
                    log.lock().unwrap()[conn].push(line.clone());
                    if writeln!(&upstream, "{line}").is_err() {
                        break;
                    }
                }
                let _ = upstream.shutdown(Shutdown::Both);
            });
        }
    });
    (addr, lines)
}

#[test]
fn an_idle_data_link_carries_pings_and_stays_up() {
    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(1),
        Recorder::disabled(),
    )
    .unwrap();
    let (shard, lines) = recording_proxy(gw.local_addr());
    let config = RouterConfig {
        probe_interval_ms: 50,
        ..RouterConfig::default()
    };
    let router = Router::start("127.0.0.1:0", &[shard], config, Recorder::disabled()).unwrap();
    // The router connects its data link before its first probe, so the
    // link is the proxy's first connection.
    let link = |lines: &Vec<Vec<String>>| lines.first().cloned().unwrap_or_default();
    let pinged = || {
        link(&lines.lock().unwrap())
            .iter()
            .any(|line| line.contains("\"control\":\"ping\""))
    };
    let start = Instant::now();
    while !pinged() {
        assert!(
            start.elapsed() < 100 * Duration::from_millis(config.probe_interval_ms),
            "no ping on the idle data link"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // A job sent afterwards is answered through that link.
    match submit_within_guard(router.local_addr(), &schedule_job(6)) {
        Response::Result(r) => assert!(matches!(r.outcome, JobOutcome::Schedule { .. })),
        other => panic!("unexpected response {other:?}"),
    }
    let jobs = link(&lines.lock().unwrap())
        .iter()
        .filter(|line| !line.contains("\"control\""))
        .count();
    assert_eq!(jobs, 1);
    assert_eq!(router.shutdown().ejections, 0);
    gw.shutdown();
}

#[test]
fn a_reshard_onto_a_shard_that_never_answers_is_acked_and_admits_again() {
    let (silent, accepts) = silent_shard();
    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(1),
        Recorder::disabled(),
    )
    .unwrap();
    let gateway = gw.local_addr().to_string();
    // No health probe runs during the test: the silent shard's only
    // connections are the reshard's.
    let config = RouterConfig {
        probe_interval_ms: 600_000,
        ..RouterConfig::default()
    };
    // Keys the grown ring gives the silent shard, which all move, and
    // one it leaves on the gateway.
    let grown = HashRing::new(&[gateway.clone(), silent.clone()], config.vnodes);
    let moving: Vec<JobSpec> = jobs_owned_by(&grown, 1).take(8).collect();
    let staying = jobs_owned_by(&grown, 0).next().unwrap();
    // Leaked if an answer never comes: dropping it would wait for one.
    let router = ManuallyDrop::new(
        Router::start(
            "127.0.0.1:0",
            std::slice::from_ref(&gateway),
            config,
            Recorder::disabled(),
        )
        .unwrap(),
    );
    for spec in &moving {
        assert!(matches!(
            submit_within_guard(router.local_addr(), spec),
            Response::Result(_)
        ));
    }
    let control = TcpStream::connect(router.local_addr()).unwrap();
    control.set_read_timeout(Some(HANG_GUARD)).unwrap();
    writeln!(
        &control,
        "{{\"control\":\"reshard\",\"shards\":[\"{gateway}\",\"{silent}\"]}}"
    )
    .unwrap();
    // The silent shard's first accept is its data link, the second the
    // prewarm push, made while the reshard holds admissions.
    for _ in 0..2 {
        accepts
            .recv_timeout(HANG_GUARD)
            .expect("the reshard connects to its new shard");
    }
    match submit_within_guard(router.local_addr(), &staying) {
        Response::Result(r) => assert!(matches!(r.outcome, JobOutcome::Schedule { .. })),
        other => panic!("unexpected response {other:?}"),
    }
    let mut ack = String::new();
    BufReader::new(&control)
        .read_line(&mut ack)
        .expect("a reshard ack within the guard");
    let ack: Value = serde_json::from_str(ack.trim_end()).unwrap();
    assert!(matches!(ack.get("ok"), Some(Value::Bool(true))), "{ack:?}");
    let count =
        |name| -> u64 { serde::from_field(ack.as_map().unwrap(), name, "reshard ack").unwrap() };
    assert_eq!((count("moved_keys"), count("prewarmed_keys")), (8, 0));
    let summary = shutdown_within_guard(ManuallyDrop::into_inner(router));
    assert_eq!(summary.reshards, 1);
    gw.shutdown();
}

#[test]
fn a_reshard_asking_for_too_large_a_ring_is_refused_and_the_router_answers() {
    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(1),
        Recorder::disabled(),
    )
    .unwrap();
    let gateway = gw.local_addr().to_string();
    // Leaked if an answer never comes: dropping it would wait for one.
    let router = ManuallyDrop::new(
        Router::start(
            "127.0.0.1:0",
            std::slice::from_ref(&gateway),
            RouterConfig::default(),
            Recorder::disabled(),
        )
        .unwrap(),
    );
    let stream = TcpStream::connect(router.local_addr()).unwrap();
    stream.set_read_timeout(Some(HANG_GUARD)).unwrap();
    let mut lines = BufReader::new(stream.try_clone().unwrap()).lines();
    let mut exchange = |line: &str| {
        writeln!(&stream, "{line}").unwrap();
        lines
            .next()
            .expect("the connection stays open")
            .expect("an answer within the guard")
    };
    // 2^63 vnodes overflow the ring's capacity; 1025 is one past the
    // vnodes cap; 65 shards of 1024 vnodes are past the ring's 65,536
    // points. None of the 65 addresses is ever dialled.
    let many: Vec<String> = (1..=65)
        .map(|port| format!("\"127.0.0.1:{port}\""))
        .collect();
    for (shards, vnodes) in [
        (format!("\"{gateway}\""), "9223372036854775808"),
        (format!("\"{gateway}\""), "1025"),
        (many.join(","), "1024"),
    ] {
        let line = format!("{{\"control\":\"reshard\",\"shards\":[{shards}],\"vnodes\":{vnodes}}}");
        let ack: Value = serde_json::from_str(&exchange(&line)).unwrap();
        assert!(
            matches!(ack.get("ok"), Some(Value::Bool(false))),
            "vnodes {vnodes}: {ack:?}"
        );
    }
    match parse_response(&exchange(&request_line(&schedule_job(3), None))).unwrap() {
        Response::Result(r) => assert_eq!(r.id, 3),
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(router.summary().reshards, 0);
    shutdown_within_guard(ManuallyDrop::into_inner(router));
    gw.shutdown();
}

/// A shard that answers each job line on any connection with
/// `overloaded` for that line's id, and the job lines it answered. The
/// acceptor never exits.
fn shedding_shard() -> (String, Arc<Mutex<Vec<String>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let lines: Arc<Mutex<Vec<String>>> = Arc::default();
    let log = Arc::clone(&lines);
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let out = stream.try_clone().unwrap();
                for line in BufReader::new(stream).lines().map_while(Result::ok) {
                    let Ok(Request::Job(job)) = parse_request(&line) else {
                        continue;
                    };
                    log.lock().unwrap().push(line);
                    if writeln!(&out, "{}", error_line(Some(job.id), ERR_OVERLOADED)).is_err() {
                        break;
                    }
                }
            });
        }
    });
    (addr, lines)
}

#[test]
fn a_job_every_shard_sheds_is_tried_up_to_the_hop_limit_then_answered_overloaded() {
    let shards: Vec<_> = (0..4).map(|_| shedding_shard()).collect();
    let addrs: Vec<String> = shards.iter().map(|(addr, _)| addr.clone()).collect();
    // No health probe runs during the test: only the data links carry
    // lines.
    let config = RouterConfig {
        probe_interval_ms: 600_000,
        ..RouterConfig::default()
    };
    let router = Router::start("127.0.0.1:0", &addrs, config, Recorder::disabled()).unwrap();
    let spec = schedule_job(8);
    match submit_within_guard(router.local_addr(), &spec) {
        Response::Error { id: Some(8), error } => assert_eq!(error, ERR_OVERLOADED),
        other => panic!("unexpected response {other:?}"),
    }
    // The job walked its ring chain: the first MAX_HOPS shards of it saw
    // the job once each, the last never.
    let chain = HashRing::new(&addrs, config.vnodes).owners(route_key(&spec, paper_fabric()));
    let seen: Vec<usize> = chain
        .iter()
        .map(|&shard| shards[shard].1.lock().unwrap().len())
        .collect();
    assert_eq!(seen, [1, 1, 1, 0]);
    assert_eq!(seen.iter().sum::<usize>(), MAX_HOPS as usize);
    let summary = router.shutdown();
    assert_eq!((summary.routed, summary.unrouted), (u64::from(MAX_HOPS), 1));
}
