//! Failure-path behaviour of the gateway: overload sheds instead of
//! hanging, deadlines expire with structured errors, client
//! disconnects stay contained, and a graceful drain answers every
//! accepted job.

use drift_gateway::client::Client;
use drift_gateway::protocol::{
    batch_request_line, request_line, Response, ERR_BAD_REQUEST, ERR_DEADLINE, ERR_OVERLOADED,
};
use drift_gateway::server::{Gateway, GatewayConfig};
use drift_obs::Recorder;
use drift_serve::job::{JobKind, JobOutcome, JobResult, JobSpec};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// A job small enough to stay fast in debug builds.
fn quick_spec(id: u64) -> JobSpec {
    JobSpec {
        id,
        seed: id + 1,
        kind: JobKind::Schedule {
            m: 64,
            k: 128,
            n: 64,
            fa: 0.25,
            fw: 0.5,
        },
    }
}

/// A precision selection over a 128 × 768 activation stream: measured
/// on a 2-CPU AVX-512 x86-64 host through `drift serve --workers 1`,
/// 0.92–0.96 ms per job in a release build and ~30 ms in a debug build,
/// so queues actually fill and deadlines actually pass.
fn heavy_spec(id: u64) -> JobSpec {
    JobSpec {
        id,
        seed: id + 1,
        kind: JobKind::Select {
            tokens: 128,
            hidden: 768,
            delta: 0.027,
            profile: "bert".to_string(),
        },
    }
}

#[test]
fn full_queue_sheds_with_overloaded_and_answers_every_request() {
    const REQUESTS: u64 = 16;
    let mut config = GatewayConfig::with_workers(1);
    config.queue_depth = 1;
    let gw = Gateway::start("127.0.0.1:0", config, Recorder::disabled()).unwrap();
    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();

    // Pipeline everything at once: the single worker cannot keep up,
    // so most requests must shed — and none may go unanswered.
    for id in 0..REQUESTS {
        client.send(&heavy_spec(id), None).unwrap();
    }
    let mut ok_ids = BTreeSet::new();
    let mut shed = 0u64;
    for _ in 0..REQUESTS {
        match client.recv().unwrap() {
            Response::Result(r) => {
                assert!(ok_ids.insert(r.id), "duplicate result id {}", r.id);
            }
            Response::Error { id, error } => {
                assert_eq!(error, ERR_OVERLOADED);
                assert!(id.is_some(), "shed responses must carry the job id");
                shed += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(ok_ids.len() as u64 + shed, REQUESTS);
    assert!(shed > 0, "queue_depth=1 under a pipelined burst must shed");

    let summary = gw.shutdown();
    assert_eq!(summary.accepted, ok_ids.len() as u64);
    assert_eq!(summary.shed, shed);
}

#[test]
fn stale_requests_expire_with_deadline_exceeded() {
    let mut config = GatewayConfig::with_workers(1);
    config.queue_depth = 8;
    let gw = Gateway::start("127.0.0.1:0", config, Recorder::disabled()).unwrap();
    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();

    // Three heavy jobs occupy the single worker; the budgeted request
    // queues behind them, so its 1 ms deadline has long passed when a
    // worker finally dequeues it. One write puts every line in a single
    // read: the 1 ms line is admitted before a heavy job can finish and
    // feed the service estimate that would shed it as unmeetable.
    let mut lines: Vec<String> = (0..3)
        .map(|id| request_line(&heavy_spec(id), None))
        .collect();
    lines.push(request_line(&quick_spec(99), Some(1)));
    client.send_raw(&lines.join("\n")).unwrap();

    let mut expired = Vec::new();
    for _ in 0..4 {
        match client.recv().unwrap() {
            Response::Result(_) => {}
            Response::Error { id, error } => {
                assert_eq!(error, ERR_DEADLINE);
                expired.push(id);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(expired, vec![Some(99)]);
    assert_eq!(gw.shutdown().expired, 1);
}

#[test]
fn stale_batches_expire_and_label_their_queue_wait_expired() {
    let recorder = Recorder::enabled();
    let mut config = GatewayConfig::with_workers(1);
    config.queue_depth = 8;
    let gw = Gateway::start("127.0.0.1:0", config, recorder.clone()).unwrap();
    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();

    // As above, but a 1 ms batch line queues behind the singleton too.
    // Its two items share one schedule key, so it is one queue entry.
    // One write puts every line in a single read: both 1 ms lines are
    // admitted before a heavy job can finish and feed the service
    // estimate that would shed them as unmeetable instead.
    let mut lines: Vec<String> = (0..3)
        .map(|id| request_line(&heavy_spec(id), None))
        .collect();
    lines.push(request_line(&quick_spec(99), Some(1)));
    lines.push(batch_request_line(
        7,
        &[quick_spec(100), quick_spec(101)],
        Some(1),
    ));
    client.send_raw(&lines.join("\n")).unwrap();

    let mut expired = Vec::new();
    let mut expire = |item: Response| match item {
        Response::Error { id, error } => {
            assert_eq!(error, ERR_DEADLINE);
            expired.push(id);
        }
        other => panic!("unexpected response {other:?}"),
    };
    for _ in 0..5 {
        match client.recv().unwrap() {
            Response::Result(_) => {}
            Response::Batch { id, items } => {
                assert_eq!(id, 7);
                items.into_iter().for_each(&mut expire);
            }
            other => expire(other),
        }
    }
    expired.sort();
    assert_eq!(expired, vec![Some(99), Some(100), Some(101)]);
    assert_eq!(gw.shutdown().expired, 3);

    // One queue-wait observation per dequeued entry, labelled by what
    // happened to it: the singleton and the batch were both discarded.
    let snap = recorder.registry().unwrap().snapshot();
    let waits = |outcome: &str| -> u64 {
        snap.histogram_merged_where(
            "drift_stage_microseconds",
            &[
                ("tier", "gateway"),
                ("stage", "queue_wait"),
                ("outcome", outcome),
            ],
        )
        .map_or(0, |h| h.count())
    };
    assert_eq!(waits("expired"), 2);
    assert_eq!(waits("ok"), 3);
}

#[test]
fn mid_stream_disconnect_does_not_kill_the_server() {
    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(1),
        Recorder::disabled(),
    )
    .unwrap();
    let addr = gw.local_addr().to_string();

    // First client submits work and vanishes without reading responses.
    let mut doomed = Client::connect(&addr).unwrap();
    doomed.send(&heavy_spec(0), None).unwrap();
    doomed.send(&quick_spec(1), None).unwrap();
    drop(doomed);

    // The server keeps serving fresh connections.
    let mut client = Client::connect(&addr).unwrap();
    assert!(client.ping().unwrap());
    match client.submit(&quick_spec(2), None).unwrap() {
        Response::Result(r) => assert_eq!(r.id, 2),
        other => panic!("unexpected response {other:?}"),
    }

    // Nothing orders the doomed connection's reader before this point:
    // a shutdown stops a reader at its next check, before it reads the
    // two lines already in its socket. Wait (bounded) for them to be
    // admitted, so the drain below is tested with them in flight.
    let deadline = Instant::now() + Duration::from_secs(20);
    while gw.summary().accepted < 3 {
        assert!(
            Instant::now() < deadline,
            "the doomed lines were never admitted: {}",
            gw.summary().render()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let summary = gw.shutdown();
    assert_eq!(summary.connections, 2);
    assert_eq!(summary.accepted, 3, "{}", summary.render());
}

#[test]
fn graceful_drain_answers_every_accepted_job() {
    const JOBS: u64 = 32;
    let mut config = GatewayConfig::with_workers(2);
    config.queue_depth = JOBS as usize * 2;
    let gw = Gateway::start("127.0.0.1:0", config, Recorder::disabled()).unwrap();
    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();

    for id in 0..JOBS {
        client.send(&quick_spec(id), None).unwrap();
    }
    // The ping ack proves the reader has admitted all the job lines
    // queued ahead of it, so a shutdown from here on may not lose any.
    client.send_raw("{\"control\":\"ping\"}").unwrap();
    let mut results = BTreeSet::new();
    loop {
        match client.recv().unwrap() {
            Response::Control { op, ok, .. } => {
                assert_eq!(op, "ping");
                assert!(ok);
                break;
            }
            Response::Result(r) => {
                assert!(results.insert(r.id));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    let drainer = std::thread::spawn(move || gw.shutdown());
    while results.len() < JOBS as usize {
        match client.recv().unwrap() {
            Response::Result(r) => {
                assert!(results.insert(r.id), "duplicate result id {}", r.id);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    let summary = drainer.join().unwrap();
    assert_eq!(summary.accepted, JOBS);
    assert_eq!(summary.dropped, 0);
    assert_eq!(results, (0..JOBS).collect::<BTreeSet<_>>());
}

#[test]
fn deeply_nested_lines_are_rejected_and_the_connection_survives() {
    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(1),
        Recorder::disabled(),
    )
    .unwrap();
    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();
    // 100 KB of open brackets: far under the line cap, yet deep enough
    // to overflow any recursive parser's stack.
    client.send_raw(&"[".repeat(100_000)).unwrap();
    match client.recv().unwrap() {
        Response::Error { id, error } => {
            assert_eq!(id, None);
            assert_eq!(error, ERR_BAD_REQUEST);
        }
        other => panic!("unexpected response {other:?}"),
    }
    // The next job on the same connection is still answered.
    match client.submit(&quick_spec(5), None).unwrap() {
        Response::Result(r) => assert_eq!(r.id, 5),
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(gw.shutdown().rejected, 1);
}

#[test]
fn oversized_jobs_get_a_job_error_and_the_connection_survives() {
    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(1),
        Recorder::disabled(),
    )
    .unwrap();
    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();
    // Each would ask for terabytes: a 1 x 2^36 activation tensor, and
    // 2^40-row precision maps. Both must fail as jobs, not abort the
    // gateway on a failed allocation.
    let oversized = [
        JobKind::Select {
            tokens: 1,
            hidden: 1 << 36,
            delta: 0.1,
            profile: "bert".to_string(),
        },
        JobKind::Simulate {
            m: 1 << 40,
            k: 64,
            n: 64,
            fa: 0.5,
            fw: 0.5,
        },
    ];
    for (id, kind) in oversized.into_iter().enumerate() {
        let spec = JobSpec {
            id: id as u64,
            seed: 1,
            kind,
        };
        match client.submit(&spec, None).unwrap() {
            Response::Result(JobResult {
                id: got,
                outcome: JobOutcome::Error { message },
            }) => {
                assert_eq!(got, spec.id);
                assert!(message.starts_with("job too large"), "{message}");
            }
            other => panic!("unexpected response {other:?}"),
        }
        // The next job on the same connection is still answered.
        match client.submit(&quick_spec(10 + spec.id), None).unwrap() {
            Response::Result(r) => {
                assert_eq!(r.id, 10 + spec.id);
                assert!(matches!(r.outcome, JobOutcome::Schedule { .. }));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    gw.shutdown();
}
