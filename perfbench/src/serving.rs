//! The serving workloads: in-process gateways (and a router), driven
//! from outside through `drift_gateway::client::Client`, one thread per
//! connection, closed loop.

use crate::stats::{Failure, LatencyHistogram, Tally};
use crate::streams::{expected, job, period, warm_set, Plan, Workload, CONNECTIONS};
use drift_core::arch::paper_fabric;
use drift_gateway::client::Client;
use drift_gateway::protocol::Response;
use drift_gateway::{Gateway, GatewayConfig};
use drift_obs::{Recorder, Tracer};
use drift_router::{route_key, HashRing, Router, RouterConfig};
use drift_serve::{JobOutcome, JobResult, JobSpec};
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Request lines a run completes at the least, whatever its length, so
/// p99 always has ten samples beyond it; each of `n` segments completes
/// its share.
pub const MIN_LINES: u64 = 1000;

/// The address of routed shard `i`. The ring places shards by hashing
/// their addresses, so fixed ports give every run the same key-to-shard
/// split; with ephemeral ports `batch-routed` throughput varied by half
/// between runs as the split changed. A run whose ports are taken fails
/// rather than measure another split.
pub fn shard_addr(i: usize) -> String {
    format!("127.0.0.1:{}", 47_301 + i)
}

/// Distinct routing keys of `period` that the default ring over the
/// plan's shards sends to each shard.
pub fn key_split(plan: &Plan, period: &[JobSpec]) -> Vec<usize> {
    let shards: Vec<String> = (0..plan.gateways).map(shard_addr).collect();
    let ring = HashRing::new(&shards, RouterConfig::default().vnodes);
    let keys: HashSet<u64> = period
        .iter()
        .map(|s| route_key(s, paper_fabric()))
        .collect();
    let mut split = vec![0; shards.len()];
    for key in keys {
        if let Some(shard) = ring.primary(key) {
            split[shard] += 1;
        }
    }
    split
}

/// The in-process servers of one serving workload.
#[derive(Debug)]
pub struct Stack {
    gateways: Vec<Gateway>,
    router: Option<Router>,
    /// Where clients connect: the router when there is one.
    pub addr: String,
}

/// The recorder and tracers of a traced stack. Spans go to in-memory
/// sinks that keep only per-stage durations.
#[derive(Debug, Clone)]
pub struct Tracing {
    /// Metrics shared by every server of the stack.
    pub recorder: Recorder,
    gateway: Tracer,
    router: Tracer,
    /// Span durations by `service.stage`, from every tracer.
    pub spans: SpanSink,
}

impl Tracing {
    /// Metrics on, every request sampled (1 in 1).
    pub fn sampled_all(seed: u64) -> Tracing {
        let recorder = Recorder::enabled();
        let spans = SpanSink::default();
        let tracer = |service| {
            Tracer::to_writer(Box::new(spans.clone()), service, 1, seed, recorder.clone())
        };
        Tracing {
            gateway: tracer("gateway"),
            router: tracer("router"),
            recorder,
            spans,
        }
    }

    /// Metrics and tracing off, as in production by default.
    pub fn off() -> Tracing {
        Tracing {
            recorder: Recorder::disabled(),
            gateway: Tracer::disabled(),
            router: Tracer::disabled(),
            spans: SpanSink::default(),
        }
    }
}

/// A trace sink that parses each span line as it is written and keeps
/// only `dur_us`, keyed by `svc.stage`.
#[derive(Debug, Clone, Default)]
pub struct SpanSink(Arc<Mutex<SinkState>>);

#[derive(Debug, Default)]
struct SinkState {
    partial: Vec<u8>,
    durations: HashMap<String, Vec<f64>>,
}

/// `svc.stage` and `dur_us` of one span line.
fn span(line: &str) -> Option<(String, f64)> {
    let span: Value = serde_json::from_str(line).ok()?;
    let text = |key| match span.get(key) {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    };
    let dur = match span.get("dur_us")? {
        Value::I64(n) => *n as f64,
        Value::U64(n) => *n as f64,
        Value::F64(x) => *x,
        _ => return None,
    };
    Some((format!("{}.{}", text("svc")?, text("stage")?), dur))
}

impl SpanSink {
    /// Durations (µs) of every span recorded for `svc.stage`.
    pub fn durations(&self, stage: &str) -> Vec<f64> {
        let state = self.0.lock().expect("span sink poisoned");
        state.durations.get(stage).cloned().unwrap_or_default()
    }
}

impl Write for SpanSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.0.lock().expect("span sink poisoned");
        state.partial.extend_from_slice(buf);
        while let Some(pos) = state.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = state.partial.drain(..=pos).collect();
            if let Some((stage, dur)) = span(String::from_utf8_lossy(&line).trim_end()) {
                state.durations.entry(stage).or_default().push(dur);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Stack {
    /// Starts the plan's gateways (and router) on loopback ports.
    ///
    /// # Errors
    ///
    /// Propagates bind failures, a taken [`shard_addr`] port included.
    pub fn start(plan: &Plan, tracing: &Tracing) -> Result<Stack, String> {
        let gateways = (0..plan.gateways)
            .map(|i| {
                let addr = if plan.routed {
                    shard_addr(i)
                } else {
                    "127.0.0.1:0".to_string()
                };
                Gateway::start_traced(
                    &addr,
                    GatewayConfig::with_workers(plan.workers),
                    tracing.recorder.clone(),
                    tracing.gateway.clone(),
                )
                .map_err(|e| format!("gateway start on {addr}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let shards: Vec<String> = gateways
            .iter()
            .map(|g| g.local_addr().to_string())
            .collect();
        let router = if plan.routed {
            Some(
                Router::start_traced(
                    "127.0.0.1:0",
                    &shards,
                    RouterConfig::default(),
                    tracing.recorder.clone(),
                    tracing.router.clone(),
                )
                .map_err(|e| format!("router start: {e}"))?,
            )
        } else {
            None
        };
        let addr = router
            .as_ref()
            .map_or_else(|| shards[0].clone(), |r| r.local_addr().to_string());
        Ok(Stack {
            gateways,
            router,
            addr,
        })
    }

    /// Connects to the stack's entry point once every server has
    /// accepted a connection: when routed, pings each gateway directly
    /// (its listener then also takes the router's pending connection),
    /// then pings the entry point on the returned client. Servers poll
    /// their listeners every 100 ms, so this wait is either near 0 or
    /// near 100 ms, by the luck of thread start; left in `setup_s`, it
    /// flipped the median between the two.
    ///
    /// # Errors
    ///
    /// Fails on a connection error.
    pub fn ready(&self) -> Result<Client, String> {
        let connect =
            |addr: &str| Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"));
        if self.router.is_some() {
            for gateway in &self.gateways {
                connect(&gateway.local_addr().to_string())?.ping()?;
            }
        }
        let mut client = connect(&self.addr)?;
        client.ping()?;
        Ok(client)
    }

    /// Drains and joins every server.
    pub fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for gateway in self.gateways {
            gateway.shutdown();
        }
    }
}

/// Grades one answered job against the offline answer for stream
/// position `i`; returns 1 when correct.
fn grade(result: &JobResult, i: u64, expected: &[JobOutcome], tally: &mut Tally) -> u64 {
    let want = &expected[(i % expected.len() as u64) as usize];
    if result.id == i && result.outcome == *want {
        tally.ok(1);
        1
    } else if matches!(result.outcome, JobOutcome::Error { .. }) {
        tally.fail(Failure::JobError, 1);
        0
    } else {
        tally.fail(Failure::WrongAnswer, 1);
        0
    }
}

/// Grades the response to request line `line` carrying `batch` jobs
/// (stream positions `line * batch ..`; a singleton line's job is at
/// position `line`). Returns the jobs answered correctly. A refused
/// batch line fails every job it carried.
pub fn check(
    response: &Response,
    line: u64,
    batch: u64,
    expected: &[JobOutcome],
    tally: &mut Tally,
) -> u64 {
    match response {
        Response::Result(result) if batch == 1 => grade(result, line, expected, tally),
        Response::Batch { items, .. } if batch > 1 && items.len() as u64 == batch => items
            .iter()
            .zip(line * batch..)
            .map(|(item, i)| match item {
                Response::Result(result) => grade(result, i, expected, tally),
                Response::Error { error, .. } => {
                    tally.fail(Failure::from_code(error), 1);
                    0
                }
                _ => {
                    tally.fail(Failure::WrongAnswer, 1);
                    0
                }
            })
            .sum(),
        Response::Error { error, .. } => {
            tally.fail(Failure::from_code(error), batch);
            0
        }
        _ => {
            tally.fail(Failure::WrongAnswer, batch);
            0
        }
    }
}

/// The id a response correlates with: the job id of a singleton
/// answer, the batch id of a batch answer.
fn response_id(response: &Response) -> Option<u64> {
    match response {
        Response::Result(r) => Some(r.id),
        Response::Error { id, .. } => *id,
        Response::Batch { id, .. } => Some(*id),
        Response::Control { .. } => None,
    }
}

/// One pass over the distinct schedule keys, pipelined on `client`;
/// every answer is checked.
///
/// # Errors
///
/// Fails on a connection error.
pub fn warm(
    client: &mut Client,
    warm: &[JobSpec],
    expected: &[JobOutcome],
) -> Result<Tally, String> {
    for spec in warm {
        client.send(spec, None)?;
    }
    let mut tally = Tally::default();
    let mut pending: HashSet<u64> = warm.iter().map(|s| s.id).collect();
    while !pending.is_empty() {
        let response = client.recv()?;
        match response_id(&response) {
            Some(id) if pending.remove(&id) => {
                check(&response, id, 1, expected, &mut tally);
            }
            _ => return Err(format!("warm-up got an uncorrelated answer: {response:?}")),
        }
    }
    Ok(tally)
}

/// Per-segment figures of a run.
#[derive(Debug, Clone, Default)]
pub struct Segments {
    /// Server start plus the warm-up pass, seconds: the `setup_s`
    /// samples.
    pub setup_s: Vec<f64>,
    /// Waits, left out of `setup_s`, until every server had accepted
    /// its first connection (see [`Stack::ready`]), seconds.
    pub ready_wait_s: Vec<f64>,
    /// Each segment's `ok_per_s`.
    pub ok_per_s: Vec<f64>,
    /// Each segment's latency p50 and p99, µs.
    pub p50_p99_us: Vec<(f64, f64)>,
}

/// A serving workload's inputs: its plan, one period of its job
/// stream, offline serve's answers to that period, and the warm-up set.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Load and server shape.
    pub plan: Plan,
    /// One period of the job stream.
    pub period: Vec<JobSpec>,
    /// Offline answers, by period position.
    pub expected: Vec<JobOutcome>,
    /// One job per distinct schedule key.
    pub warm: Vec<JobSpec>,
}

impl Inputs {
    /// The inputs of a serving workload at `seed`.
    ///
    /// # Errors
    ///
    /// Fails for `paper-zoo` and when offline serve fails a job.
    pub fn new(workload: Workload, seed: u64) -> Result<Inputs, String> {
        let plan = workload.plan().ok_or("not a serving workload")?;
        let period = period(workload, seed);
        Ok(Inputs {
            plan,
            expected: expected(&period)?,
            warm: warm_set(&period),
            period,
        })
    }

    /// Runs `segments` equal segments totalling `seconds`, each on a
    /// stack freshly started and warmed under `tracing`, then shut
    /// down. Returns the segments' measurements (warm-up answers
    /// included in the tally) and per-segment figures.
    ///
    /// # Errors
    ///
    /// Propagates start and warm-up failures.
    pub fn run(
        &self,
        segments: usize,
        seconds: f64,
        tracing: &Tracing,
    ) -> Result<(Phase, Segments), String> {
        let segments = segments.max(1);
        let mut phase: Option<Phase> = None;
        let mut figures = Segments::default();
        for _ in 0..segments {
            let (stack, warm_tally, setup, ready_wait) = self.set_up(tracing)?;
            let min_lines = MIN_LINES.div_ceil(segments as u64);
            let segment = self.phase(&stack.addr, seconds / segments as f64, min_lines);
            stack.shutdown();
            let mut segment = segment?;
            segment.tally.merge(&warm_tally);
            figures.setup_s.push(setup);
            figures.ready_wait_s.push(ready_wait);
            figures.ok_per_s.push(segment.ok_per_s());
            let lat = &segment.latencies_us;
            figures.p50_p99_us.push((
                lat.quantile(0.5).unwrap_or(0.0),
                lat.quantile(0.99).unwrap_or(0.0),
            ));
            match &mut phase {
                Some(p) => p.append(segment),
                None => phase = Some(segment),
            }
        }
        Ok((phase.expect("at least one segment"), figures))
    }

    /// Sets up `n` more stacks with no timed phase, each shut down after
    /// its warm-up, so that `setup_s` is a median over more set-ups than
    /// segments. Returns their set-up times, in seconds, and the tally of
    /// their warm-up answers.
    ///
    /// # Errors
    ///
    /// Propagates start and warm-up failures.
    pub fn setups(&self, n: usize) -> Result<(Vec<f64>, Tally), String> {
        let mut times = Vec::with_capacity(n);
        let mut tally = Tally::default();
        for _ in 0..n {
            let (stack, warm_tally, setup, _) = self.set_up(&Tracing::off())?;
            stack.shutdown();
            tally.merge(&warm_tally);
            times.push(setup);
        }
        Ok((times, tally))
    }

    /// Starts a stack under `tracing`, waits for it to accept and warms
    /// it. Returns the stack, the tally of the warm-up answers, the
    /// set-up time (start plus warm-up) and the readiness wait left out
    /// of it, in seconds.
    fn set_up(&self, tracing: &Tracing) -> Result<(Stack, Tally, f64, f64), String> {
        let start = Instant::now();
        let stack = Stack::start(&self.plan, tracing)?;
        let started = start.elapsed().as_secs_f64();
        let warmed = (|| {
            let start = Instant::now();
            let mut client = stack.ready()?;
            let ready_wait = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let tally = warm(&mut client, &self.warm, &self.expected)?;
            Ok::<_, String>((tally, ready_wait, start.elapsed().as_secs_f64()))
        })();
        match warmed {
            Ok((tally, ready_wait, warmed)) => Ok((stack, tally, started + warmed, ready_wait)),
            Err(e) => {
                stack.shutdown();
                Err(e)
            }
        }
    }

    /// Runs the closed loop for `seconds` (and at least `min_lines`
    /// lines) over [`CONNECTIONS`] connections, one thread each.
    fn phase(&self, addr: &str, seconds: f64, min_lines: u64) -> Result<Phase, String> {
        // Connect (and wait out the listener's poll) before the clock
        // starts: the phase measures the steady closed loop.
        let clients = (0..CONNECTIONS)
            .map(|_| {
                let mut client =
                    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                client.ping()?;
                Ok(client)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let answered = AtomicU64::new(0);
        let mut phase = Phase::default();
        std::thread::scope(|scope| {
            let threads: Vec<_> = clients
                .into_iter()
                .zip(0..)
                .map(|(client, conn)| {
                    let answered = &answered;
                    scope.spawn(move || self.drive(client, conn, end, min_lines, answered))
                })
                .collect();
            for thread in threads {
                phase.merge(thread.join().expect("load generator thread panicked"));
            }
        });
        phase.wall_s = start.elapsed().as_secs_f64();
        Ok(phase)
    }
}

/// What timed phases measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Jobs attempted and failed.
    pub tally: Tally,
    /// Per request line, send to answer, µs.
    pub latencies_us: LatencyHistogram,
    /// Jobs answered correctly in the timed phases (warm-up excluded).
    pub ok: u64,
    /// Wall time of the timed phases, first send to last answer, s.
    pub wall_s: f64,
    /// Request lines answered.
    pub lines: u64,
}

impl Phase {
    /// Jobs answered correctly per wall second.
    pub fn ok_per_s(&self) -> f64 {
        self.ok as f64 / self.wall_s
    }

    /// Adds the concurrent measurements of another connection (its wall
    /// time is the same phase's).
    fn merge(&mut self, other: Phase) {
        self.tally.merge(&other.tally);
        self.latencies_us.merge(&other.latencies_us);
        self.ok += other.ok;
        self.lines += other.lines;
    }

    /// Appends the measurements of a later segment.
    fn append(&mut self, other: Phase) {
        self.wall_s += other.wall_s;
        self.merge(other);
    }
}

impl Inputs {
    /// One connection's closed loop: keeps `plan.window` lines in
    /// flight, sending the next line of its share of the stream (lines
    /// `conn`, `conn + CONNECTIONS`, ...) as each answer arrives.
    fn drive(
        &self,
        mut client: Client,
        conn: u64,
        end: Instant,
        min_lines: u64,
        answered: &AtomicU64,
    ) -> Phase {
        let (plan, period, expected) = (&self.plan, &self.period, &self.expected);
        let batch = plan.batch as u64;
        let mut out = Phase::default();
        let send = |client: &mut Client, line: u64| {
            if batch == 1 {
                client.send(&job(period, line), None)
            } else {
                let specs: Vec<JobSpec> = (line * batch..(line + 1) * batch)
                    .map(|i| job(period, i))
                    .collect();
                client.send_batch(line, &specs, None)
            }
        };
        let keep_sending = |now: Instant| now < end || answered.load(Ordering::Relaxed) < min_lines;
        let mut inflight: HashMap<u64, Instant> = HashMap::new();
        let mut next = conn;
        let mut transport_failed = false;
        for _ in 0..plan.window {
            if send(&mut client, next).is_err() {
                transport_failed = true;
                break;
            }
            inflight.insert(next, Instant::now());
            next += CONNECTIONS as u64;
        }
        while !inflight.is_empty() && !transport_failed {
            let Ok(response) = client.recv() else {
                break;
            };
            let now = Instant::now();
            let Some((line, sent_at)) =
                response_id(&response).and_then(|id| inflight.remove(&id).map(|t| (id, t)))
            else {
                break;
            };
            out.latencies_us
                .record(now.duration_since(sent_at).as_secs_f64() * 1e6);
            out.ok += check(&response, line, batch, expected, &mut out.tally);
            out.lines += 1;
            answered.fetch_add(1, Ordering::Relaxed);
            if keep_sending(now) {
                if send(&mut client, next).is_err() {
                    transport_failed = true;
                } else {
                    inflight.insert(next, Instant::now());
                    next += CONNECTIONS as u64;
                }
            }
        }
        // Whatever is still in flight was lost with the connection.
        out.tally
            .fail(Failure::Transport, inflight.len() as u64 * batch);
        if transport_failed {
            out.tally.fail(Failure::Transport, batch);
        }
        out
    }
}
