//! Failure-path behaviour of the gateway: overload sheds instead of
//! hanging, deadlines expire with structured errors, client
//! disconnects stay contained, and a graceful drain answers every
//! accepted job.

use drift_gateway::client::Client;
use drift_gateway::framing::READ_TICK;
use drift_gateway::protocol::{
    batch_request_line, control_line, request_line, ControlOp, Response, ERR_BAD_REQUEST,
    ERR_DEADLINE, ERR_OVERLOADED, ERR_UNMEETABLE,
};
use drift_gateway::server::{Gateway, GatewayConfig};
use drift_obs::Recorder;
use drift_serve::job::{JobKind, JobOutcome, JobResult, JobSpec};
use std::collections::BTreeSet;
use std::io::ErrorKind;
use std::net::TcpStream;
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
/// 0.14–0.15 ms per job in a release build and ~29 ms in a debug build,
/// so a pipelined burst outruns one worker and fills its queue.
fn heavy_spec(id: u64) -> JobSpec {
    select_spec(id, 128, 768)
}

/// The job the stale-deadline tests keep their single worker busy with
/// while their 1 ms lines wait: a 4096 × 2048 Select, measured as above
/// at 10.2–10.9 ms in a release build and ~2.3 s in a debug build, so a
/// 1 ms line admitted while it runs waits at least 10× its budget.
///
/// The queue is deadline-ordered, so a 1 ms line overtakes every queued
/// deadline-less job: only a job already executing can hold it back.
/// The tests therefore send this job alone and admit their 1 ms lines
/// once [`await_dequeues`] has seen it start. Sent alone to an idle
/// gateway, it runs on its connection's reader, which reads nothing
/// more from that connection until it has run; so the 1 ms lines go on
/// a second connection. When the job finishes, the gateway's
/// service-time estimate is its ~10 ms, so each waiting 1 ms line is
/// discarded at dequeue whatever it has waited. Only a client or reader
/// stalled past the whole job fails: its 1 ms lines are then shed as
/// unmeetable, as a 1 ms line read after the job on its reader is.
fn job_ahead() -> String {
    request_line(&select_spec(0, 4096, 2048), None)
}

/// Queue-wait observations under `recorder`, by dequeue outcome: `ok`
/// (handed to a worker) or `expired` (discarded as doomed).
fn queue_waits(recorder: &Recorder, outcome: &str) -> u64 {
    recorder
        .registry()
        .expect("an enabled recorder")
        .snapshot()
        .histogram_merged_where(
            "drift_stage_microseconds",
            &[
                ("tier", "gateway"),
                ("stage", "queue_wait"),
                ("outcome", outcome),
            ],
        )
        .map_or(0, |h| h.count())
}

/// Waits until a worker has taken `n` queue entries to execute.
fn await_dequeues(recorder: &Recorder, n: u64) {
    while queue_waits(recorder, "ok") < n {
        std::thread::yield_now();
    }
}

/// Whether reply bytes wait on a client's `socket`, peeked without
/// blocking.
fn reply_pending(socket: &TcpStream) -> bool {
    socket.set_nonblocking(true).unwrap();
    let peeked = socket.peek(&mut [0u8; 1]);
    socket.set_nonblocking(false).unwrap();
    !matches!(peeked, Err(e) if e.kind() == ErrorKind::WouldBlock)
}

/// A `bert` precision selection over a `tokens × hidden` stream.
fn select_spec(id: u64, tokens: usize, hidden: usize) -> JobSpec {
    JobSpec {
        id,
        seed: id + 1,
        kind: JobKind::Select {
            tokens,
            hidden,
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
    let recorder = Recorder::enabled();
    let mut config = GatewayConfig::with_workers(1);
    config.queue_depth = 8;
    let gw = Gateway::start("127.0.0.1:0", config, recorder.clone()).unwrap();
    let addr = gw.local_addr().to_string();
    let (mut ahead, mut client) = (
        Client::connect(&addr).unwrap(),
        Client::connect(&addr).unwrap(),
    );

    // A long job occupies the single accelerator; the budgeted request,
    // sent on a second connection, queues behind it, so its 1 ms
    // deadline has long passed when the worker finally dequeues it.
    ahead.send_raw(&job_ahead()).unwrap();
    await_dequeues(&recorder, 1);
    client
        .send_raw(&request_line(&quick_spec(99), Some(1)))
        .unwrap();

    let mut expired = Vec::new();
    for client in [&mut ahead, &mut client] {
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
    let addr = gw.local_addr().to_string();
    let (mut ahead, mut client) = (
        Client::connect(&addr).unwrap(),
        Client::connect(&addr).unwrap(),
    );

    // As above, but a 1 ms batch line queues behind the long job too.
    // Its two items share one schedule key, so it is one queue entry.
    // One write puts both lines in a single read.
    ahead.send_raw(&job_ahead()).unwrap();
    await_dequeues(&recorder, 1);
    let lines = [
        request_line(&quick_spec(99), Some(1)),
        batch_request_line(7, &[quick_spec(100), quick_spec(101)], Some(1)),
    ];
    client.send_raw(&lines.join("\n")).unwrap();

    let mut expired = Vec::new();
    let mut expire = |item: Response| match item {
        Response::Error { id, error } => {
            assert_eq!(error, ERR_DEADLINE);
            expired.push(id);
        }
        other => panic!("unexpected response {other:?}"),
    };
    let mut responses = vec![ahead.recv().unwrap()];
    responses.extend((0..2).map(|_| client.recv().unwrap()));
    for response in responses {
        match response {
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
    assert_eq!(queue_waits(&recorder, "expired"), 2);
    assert_eq!(queue_waits(&recorder, "ok"), 1);
}

#[test]
fn a_line_sent_while_its_reader_runs_a_job_is_admitted_after_it() {
    let recorder = Recorder::enabled();
    let mut config = GatewayConfig::with_workers(1);
    config.queue_depth = 8;
    let gw = Gateway::start("127.0.0.1:0", config, recorder.clone()).unwrap();
    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();

    // The long job runs on this connection's reader, so the 1 ms line
    // sent meanwhile is read, and its deadline clock started, only once
    // the job has run. By then the ~10 ms service estimate exceeds its
    // budget, so admission refuses it instead of queueing it to expire.
    client.send_raw(&job_ahead()).unwrap();
    await_dequeues(&recorder, 1);
    client
        .send_raw(&request_line(&quick_spec(99), Some(1)))
        .unwrap();

    assert!(matches!(
        client.recv().unwrap(),
        Response::Result(JobResult { id: 0, .. })
    ));
    assert_eq!(
        client.recv().unwrap(),
        Response::Error {
            id: Some(99),
            error: ERR_UNMEETABLE.to_string()
        }
    );
    let summary = gw.shutdown();
    assert_eq!((summary.unmeetable, summary.expired), (1, 0));
    assert_eq!(queue_waits(&recorder, "ok"), 1);
    assert_eq!(queue_waits(&recorder, "expired"), 0);
}

#[test]
fn a_line_sent_while_its_connection_awaits_a_reply_is_queued() {
    let recorder = Recorder::enabled();
    let mut config = GatewayConfig::with_workers(2);
    config.queue_depth = 8;
    let gw = Gateway::start("127.0.0.1:0", config, recorder.clone()).unwrap();
    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();

    // A ping behind the first long job leaves input behind it, so a
    // worker runs that job. The second long job then finds the heap
    // empty and an accelerator idle, but its connection awaits a reply,
    // so it is queued too and the reader goes on reading: the 1 ms line
    // is admitted on arrival, waits for an accelerator and expires.
    let lines = [job_ahead(), control_line(ControlOp::Ping)];
    client.send_raw(&lines.join("\n")).unwrap();
    assert!(matches!(
        client.recv().unwrap(),
        Response::Control { ok: true, .. }
    ));
    await_dequeues(&recorder, 1);
    client
        .send_raw(&request_line(&select_spec(1, 4096, 2048), None))
        .unwrap();
    await_dequeues(&recorder, 2);
    client
        .send_raw(&request_line(&quick_spec(99), Some(1)))
        .unwrap();

    let mut results = Vec::new();
    for _ in 0..3 {
        match client.recv().unwrap() {
            Response::Result(r) => results.push(r.id),
            Response::Error { id, error } => {
                assert_eq!((id, error.as_str()), (Some(99), ERR_DEADLINE));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    results.sort_unstable();
    assert_eq!(results, vec![0, 1]);
    let summary = gw.shutdown();
    assert_eq!((summary.unmeetable, summary.expired), (0, 1));
}

#[test]
fn pipelined_lines_spread_over_the_pool() {
    let recorder = Recorder::enabled();
    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(2),
        recorder.clone(),
    )
    .unwrap();
    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();
    let socket = client.try_clone_stream().unwrap();

    // Two long Selects in one write: the first line has input behind it
    // and the second a request in flight before it, so neither runs on
    // the reader. Both are queued, and the two workers take them while
    // the first is still running: both dequeues come before any reply.
    let lines = [job_ahead(), request_line(&select_spec(1, 4096, 2048), None)];
    client.send_raw(&lines.join("\n")).unwrap();
    while queue_waits(&recorder, "ok") < 2 {
        assert!(
            !reply_pending(&socket),
            "a reply was written before both lines were dequeued"
        );
        std::thread::yield_now();
    }
    let mut ids: Vec<u64> = (0..2)
        .map(|_| match client.recv().unwrap() {
            Response::Result(r) => r.id,
            other => panic!("unexpected response {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1]);
    gw.shutdown();
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
fn a_fresh_connection_is_served_without_waiting_for_a_tick() {
    // The router's health probe opens a new connection to each shard
    // every probe interval, so connection setup is on its path. The
    // acceptor blocks in `accept`; one that polled instead would hold
    // each connection for up to a READ_TICK, about 2 s for these rounds.
    const ROUNDS: u32 = 20;
    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(1),
        Recorder::disabled(),
    )
    .unwrap();
    let addr = gw.local_addr().to_string();
    let start = Instant::now();
    for _ in 0..ROUNDS {
        assert!(Client::connect(&addr).unwrap().ping().unwrap());
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < ROUNDS * READ_TICK / 4,
        "{ROUNDS} connect-and-ping rounds took {elapsed:?}"
    );
    gw.shutdown();
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
