//! Router failover under seeded shard faults, in one process. Each of
//! three shards is a fake shard: a proxy in front of a real `Gateway`
//! that forwards lines both ways. The busiest shard's proxy applies one
//! fault chosen from a seed to the router's data connection. Faults
//! fire after a counted number of lines, and a cut holds the responses
//! it orphans, so no sleep picks the moment of failure. Every id must
//! be answered exactly once, with offline `drift_serve::serve`'s bytes.

use drift_core::arch::paper_fabric;
use drift_gateway::protocol::{parse_response, request_line, Response};
use drift_gateway::{Gateway, GatewayConfig};
use drift_obs::Recorder;
use drift_router::{route_key, HashRing, Router, RouterConfig};
use drift_serve::job::{result_line, JobKind, JobSpec};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::mem::ManuallyDrop;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

const FLOOD: usize = 240;
const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// Jobs the faulty shard owns, sent after the flood (and its revival).
const OWNED_AFTER: usize = 12;

/// What a fake shard does to the first connection that carries a job
/// line, with `k` counting that connection's lines from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Hold the responses to the first `k` job lines, then close both sockets.
    Cut,
    /// As `Cut`, but first write half of one held response line.
    TornCut,
    /// Write the `k`-th response twice.
    Duplicate,
    /// Write the `k`-th and `k + 1`-th responses in swapped order.
    Swap,
}

#[derive(Default)]
struct FakeShard {
    /// The fault and its `k`, taken by the first job-carrying connection.
    fault: Mutex<Option<(Fault, usize)>>,
    /// Set by a cut: connections are accepted and closed at once, so
    /// health probes fail, until the test revives the shard.
    dead: AtomicBool,
    /// Job lines forwarded to the gateway.
    forwarded: AtomicU64,
}

impl FakeShard {
    /// Serves an ephemeral port in front of `gateway`; the acceptor never exits.
    fn start(gateway: SocketAddr) -> (String, Arc<FakeShard>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shard = Arc::new(FakeShard::default());
        let state = Arc::clone(&shard);
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                // A dead shard drops, and so closes, what it accepts.
                if !state.dead.load(Ordering::SeqCst) {
                    let state = Arc::clone(&state);
                    std::thread::spawn(move || state.proxy(stream, gateway));
                }
            }
        });
        (addr, shard)
    }

    fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::SeqCst)
    }

    /// Forwards one connection's lines to the gateway and back, applying
    /// the shard's fault if this connection took it.
    fn proxy(&self, client: TcpStream, gateway: SocketAddr) {
        let Ok(upstream) = TcpStream::connect(gateway) else {
            return;
        };
        let fault: Arc<OnceLock<(Fault, usize)>> = Arc::default();
        let (held_tx, held_rx) = mpsc::channel::<String>();
        let responder = {
            let (upstream, mut client) =
                (upstream.try_clone().unwrap(), client.try_clone().unwrap());
            let fault = Arc::clone(&fault);
            std::thread::spawn(move || {
                let (mut answered, mut swapped) = (0, None);
                for line in BufReader::new(upstream).lines().map_while(Result::ok) {
                    answered += 1;
                    let out = match fault.get().copied() {
                        Some((Fault::Cut | Fault::TornCut, _)) => {
                            let _ = held_tx.send(line);
                            continue;
                        }
                        Some((Fault::Duplicate, k)) if answered == k => format!("{line}\n{line}\n"),
                        Some((Fault::Swap, k)) if answered == k => {
                            swapped = Some(line);
                            continue;
                        }
                        Some((Fault::Swap, k)) if answered == k + 1 => {
                            format!("{line}\n{}\n", swapped.take().unwrap())
                        }
                        _ => format!("{line}\n"),
                    };
                    if client.write_all(out.as_bytes()).is_err() {
                        return;
                    }
                }
            })
        };
        let mut jobs = 0;
        for line in BufReader::new(&client).lines().map_while(Result::ok) {
            if !line.contains("\"control\"") {
                jobs += 1;
                if let Some(armed) = self.fault.lock().unwrap().take_if(|_| jobs == 1) {
                    fault.set(armed).unwrap();
                }
                self.forwarded.fetch_add(1, Ordering::SeqCst);
            }
            if writeln!(&upstream, "{line}").is_err() {
                break;
            }
            match fault.get().copied() {
                Some((Fault::Cut, k)) if jobs == k => {}
                Some((Fault::TornCut, k)) if jobs == k => {
                    let held = held_rx.recv().unwrap();
                    let _ = (&client).write_all(&held.as_bytes()[..held.len() / 2]);
                }
                _ => continue,
            }
            self.dead.store(true, Ordering::SeqCst);
            let _ = client.shutdown(Shutdown::Both);
            break;
        }
        let _ = upstream.shutdown(Shutdown::Both);
        responder.join().unwrap();
    }
}

/// Small Schedule and Simulate jobs over 24 distinct shapes.
fn flood() -> Vec<JobSpec> {
    (0..FLOOD)
        .map(|i| {
            let (m, k, n, fa, fw) = (64 + 16 * (i % 12), 128, 64, 0.25, 0.5);
            let kind = if (i / 12) % 2 == 0 {
                JobKind::Schedule { m, k, n, fa, fw }
            } else {
                JobKind::Simulate { m, k, n, fa, fw }
            };
            let (id, seed) = (i as u64, (i % 4) as u64);
            JobSpec { id, seed, kind }
        })
        .collect()
}

fn send(mut writer: &TcpStream, jobs: &[JobSpec]) {
    for spec in jobs {
        writeln!(writer, "{}", request_line(spec, None)).expect("send request");
    }
}

/// Reads `n` result lines into `answered`, by job id.
fn collect(reader: &mut impl BufRead, n: usize, answered: &mut HashMap<u64, Vec<String>>) {
    for _ in 0..n {
        let mut line = String::new();
        let read = reader.read_line(&mut line).expect("router answers in time");
        assert!(read > 0, "router closed the connection");
        let line = line.trim_end().to_string();
        match parse_response(&line) {
            Ok(Response::Result(result)) => answered.entry(result.id).or_default().push(line),
            other => panic!("not a result: {other:?}"),
        }
    }
}

/// Every job answered exactly once with its offline bytes, and nothing
/// else answered.
fn assert_exactly_once(answered: &HashMap<u64, Vec<String>>, jobs: &[JobSpec], context: &str) {
    let offline = drift_serve::serve(jobs.to_vec(), &drift_serve::ServeConfig::default());
    assert_eq!(answered.len(), jobs.len(), "{context}: answered ids");
    for result in &offline.results {
        let expected = [result_line(result)];
        let got = answered.get(&result.id).map(Vec::as_slice);
        assert_eq!(got, Some(&expected[..]), "{context}: job {}", result.id);
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

fn run_seed(seed: u64, flood: &[JobSpec]) {
    let fault = [Fault::Cut, Fault::TornCut, Fault::Duplicate, Fault::Swap][seed as usize % 4];
    let k = 1 + (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % 6;
    let ctx = format!("seed {seed}: {fault:?} at {k}");
    let mut config = GatewayConfig::with_workers(2);
    config.queue_depth = 4 * FLOOD;
    let gateways: Vec<Gateway> = (0..3)
        .map(|_| Gateway::start("127.0.0.1:0", config, Recorder::disabled()).unwrap())
        .collect();
    let (addrs, shards): (Vec<String>, Vec<Arc<FakeShard>>) = gateways
        .iter()
        .map(|g| FakeShard::start(g.local_addr()))
        .unzip();
    let router_config = RouterConfig {
        probe_interval_ms: 50,
        ..RouterConfig::default()
    };

    // The faulty shard owns the most jobs: the addresses are ephemeral,
    // so a fixed shard could own too few lines for the fault to fire.
    let ring = HashRing::new(&addrs, router_config.vnodes);
    let owner = |spec: &JobSpec| ring.primary(route_key(spec, paper_fabric())).unwrap();
    let owned = |shard| -> Vec<&JobSpec> { flood.iter().filter(|s| owner(s) == shard).collect() };
    let victim = (0..3).max_by_key(|&i| owned(i).len()).unwrap();
    let (shard, owned) = (&shards[victim], owned(victim));
    assert!(owned.len() > k, "{ctx}");
    *shard.fault.lock().unwrap() = Some((fault, k));

    let recorder = Recorder::enabled();
    // Never dropped by a failed assertion: draining a router whose jobs
    // were lost would wait for them forever instead of failing.
    let router = Router::start("127.0.0.1:0", &addrs, router_config, recorder.clone()).unwrap();
    let router = ManuallyDrop::new(router);
    let counter = |name| recorder.registry().unwrap().snapshot().counter_sum(name);
    let stream = TcpStream::connect(router.local_addr()).unwrap();
    // A hang guard, not a timing decision: a lost answer fails the read.
    let hang_guard = Some(Duration::from_secs(120));
    stream.set_read_timeout(hang_guard).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Flood the router while a concurrent reader drains the answers.
    let mut answered = HashMap::new();
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| collect(&mut reader, FLOOD, &mut answered));
        send(&stream, flood);
        collector.join().unwrap();
    });
    assert_exactly_once(&answered, flood, &ctx);

    let mut sent = flood.to_vec();
    let next_owned = |sent: &[JobSpec]| JobSpec {
        id: sent.len() as u64,
        ..owned[sent.len() % owned.len()].clone()
    };
    if matches!(fault, Fault::Cut | Fault::TornCut) {
        // It died holding k responses, so both are certain.
        assert!(counter("drift_router_shard_ejections_total") >= 1, "{ctx}");
        assert!(counter("drift_router_failovers_total") >= 1, "{ctx}");
        // Revive it. A probe reconnect that raced the revival may still
        // be closed once, so its jobs go one at a time until one lands.
        let forwarded = shard.forwarded();
        let readmitted = counter("drift_router_shard_readmissions_total");
        shard.dead.store(false, Ordering::SeqCst);
        wait_until(&format!("{ctx}: never readmitted"), || {
            counter("drift_router_shard_readmissions_total") > readmitted
        });
        wait_until(&format!("{ctx}: never served again"), || {
            sent.push(next_owned(&sent));
            send(&stream, &sent[sent.len() - 1..]);
            collect(&mut reader, 1, &mut answered);
            shard.forwarded() > forwarded
        });
    } else {
        // A duplicated or reordered response is no shard failure.
        let summary = router.summary();
        assert_eq!((summary.ejections, summary.failovers), (0, 0), "{ctx}");
        assert_eq!(shard.forwarded(), owned.len() as u64, "{ctx}");
    }

    // Jobs whose primary is that shard are answered, and by it.
    let (forwarded, start) = (shard.forwarded(), sent.len());
    for _ in 0..OWNED_AFTER {
        sent.push(next_owned(&sent));
    }
    send(&stream, &sent[start..]);
    collect(&mut reader, OWNED_AFTER, &mut answered);
    assert_eq!(shard.forwarded() - forwarded, OWNED_AFTER as u64, "{ctx}");

    let summary = ManuallyDrop::into_inner(router).shutdown();
    assert_eq!(summary.accepted, sent.len() as u64, "{ctx}");
    // The drained router closes the connection with nothing more to say.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "{ctx}: {rest}");
    assert_exactly_once(&answered, &sent, &ctx);
    for gateway in gateways {
        gateway.shutdown();
    }
}

#[test]
fn seeded_shard_faults_lose_and_duplicate_nothing() {
    let flood = flood();
    for seed in SEEDS {
        run_seed(seed, &flood);
    }
}
