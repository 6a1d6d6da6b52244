//! The gateway server: a multi-threaded TCP front-end over the
//! `drift-serve` runtime.
//!
//! ```text
//!            acceptor thread (non-blocking listener)
//!                 │ spawns one reader per connection
//!   reader ──key groups──▶ bounded JobQueue ──▶ worker pool (one
//!     │  shed: {"error":"overloaded"}            DriftAccelerator each,
//!     │                                          shared schedule cache)
//!     └─▶ writer thread ◀──reply channel──────────┘
//! ```
//!
//! Three properties the batch runtime does not need become load-bearing
//! here and are owned by this module:
//!
//! * **admission control** — submission uses the queue's non-blocking,
//!   all-or-shed [`JobQueue::try_submit_batch`]: every request line, a
//!   singleton included, enters as its schedule-key groups (a singleton
//!   is a group of one); a full queue sheds the request with a
//!   structured `overloaded` response instead of blocking the socket,
//!   and a deadline budget below the observed service-time estimate is
//!   shed as `deadline_unmeetable` before it can occupy a slot;
//! * **deadlines** — each request carries a millisecond budget from
//!   admission; workers check it when they dequeue the job *and* again
//!   after executing it, answering `deadline_exceeded` for expired
//!   work. With `--queue edf` the queue drains
//!   earliest-deadline-first instead of FIFO (`docs/SCHEDULING.md`);
//! * **graceful drain** — [`Gateway::shutdown`] stops the acceptor,
//!   lets readers wind down, flushes every accepted job's response
//!   through its connection writer, and only then closes the queue and
//!   joins the workers. No accepted job is lost.
//!
//! Connections run on the [`LineServer`] the router shares, so stalled
//! clients cannot pin threads: reads tick, and a stalled write discards
//! that connection's remaining responses only.

use crate::framing::{LineHandler, LineServer, Reply};
use crate::protocol::{
    self, ControlOp, Request, ResponseAssembler, ERR_BAD_REQUEST, ERR_DEADLINE, ERR_OVERLOADED,
    ERR_UNMEETABLE,
};
use crossbeam::channel::Sender;
use drift_core::accelerator::DriftAccelerator;
use drift_core::arch::paper_fabric;
use drift_core::schedule::ScheduleKey;
use drift_obs::{Recorder, SpanCtx, Stage, Tracer};
use drift_serve::cache::ScheduleCache;
use drift_serve::job::{result_line, JobOutcome, JobResult, JobSpec};
use drift_serve::persist::{open_and_preload, StoreBinding};
use drift_serve::queue::{job_queue_with_policy, Deadlined, JobQueue, QueuePolicy, WorkerHandle};
use drift_serve::worker::{execute_traced, schedule_key_for};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for one gateway instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayConfig {
    /// Worker threads executing jobs (at least 1).
    pub workers: usize,
    /// Maximum admitted jobs waiting in the queue; beyond this,
    /// requests are shed with `overloaded`.
    pub queue_depth: usize,
    /// Total schedules the shared cache may hold.
    pub cache_capacity: usize,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Default per-request deadline budget in milliseconds, applied
    /// when a request carries no `deadline_ms` field. `0` disables the
    /// default (requests without a field get no deadline).
    pub default_deadline_ms: u64,
    /// Close a connection after this long without a complete request
    /// line. `0` disables idle expiry.
    pub idle_timeout_ms: u64,
    /// Queue discipline for admitted jobs: FIFO (default) or
    /// earliest-deadline-first (see `docs/SCHEDULING.md`).
    pub queue: QueuePolicy,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 4,
            queue_depth: 256,
            cache_capacity: 4096,
            cache_shards: 16,
            default_deadline_ms: 0,
            idle_timeout_ms: 30_000,
            queue: QueuePolicy::Fifo,
        }
    }
}

impl GatewayConfig {
    /// The default configuration with `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        GatewayConfig {
            workers,
            ..GatewayConfig::default()
        }
    }
}

/// Request totals over a gateway's lifetime, returned by
/// [`Gateway::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GatewaySummary {
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests refused with `overloaded` (queue full).
    pub shed: u64,
    /// Requests answered `deadline_exceeded`.
    pub expired: u64,
    /// Requests refused at admission with `deadline_unmeetable`: their
    /// budget was below the gateway's service-time estimate.
    pub unmeetable: u64,
    /// Lines that parsed as neither a job nor a control request.
    pub rejected: u64,
    /// Completed responses dropped because the client was gone or
    /// stalled past the write timeout.
    pub dropped: u64,
    /// Connections accepted over the lifetime.
    pub connections: u64,
}

impl GatewaySummary {
    /// One-line human rendering for the CLI's exit report.
    pub fn render(&self) -> String {
        format!(
            "gateway: {} connections, {} accepted, {} shed, {} expired, {} unmeetable, {} rejected, {} responses dropped",
            self.connections,
            self.accepted,
            self.shed,
            self.expired,
            self.unmeetable,
            self.rejected,
            self.dropped
        )
    }
}

/// Lifetime counters, kept as plain atomics so the exit summary works
/// even with the recorder disabled.
#[derive(Debug, Default)]
struct Tally {
    accepted: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    unmeetable: AtomicU64,
    rejected: AtomicU64,
    dropped: AtomicU64,
    connections: AtomicU64,
}

impl Tally {
    fn summary(&self) -> GatewaySummary {
        GatewaySummary {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            unmeetable: self.unmeetable.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
        }
    }
}

/// An exponentially-weighted moving average of observed job service
/// times, in microseconds. Admission uses it to shed requests whose
/// deadline budget could not be met even from an empty queue.
///
/// `0` means "no samples yet": the gateway never sheds as unmeetable
/// before at least one job has completed, so cold starts and tests
/// with no completed work keep the pre-estimator behaviour.
#[derive(Debug, Default)]
struct ServiceEstimator {
    ewma_us: AtomicU64,
}

impl ServiceEstimator {
    /// Folds one observed service time into the average (new/8 + old*7/8).
    fn observe(&self, service: Duration) {
        let sample = service.as_micros().min(u128::from(u64::MAX)) as u64;
        let prev = self.ewma_us.load(Ordering::Relaxed);
        let next = if prev == 0 {
            sample.max(1)
        } else {
            (prev - prev / 8 + sample / 8).max(1)
        };
        self.ewma_us.store(next, Ordering::Relaxed);
    }

    /// The current estimate in microseconds; `0` until the first sample.
    fn estimate_us(&self) -> u64 {
        self.ewma_us.load(Ordering::Relaxed)
    }
}

/// One admitted request line — a singleton job or a batch — shared by
/// every schedule-key group it was split into: its response, assembled
/// in the client's order no matter which worker finishes first, and
/// the request's own accounting.
#[derive(Debug)]
struct RequestState {
    response: ResponseAssembler,
    reply: Sender<Reply>,
    /// This gateway's request span (the parent of every span the
    /// gateway records for the request), when sampled.
    span: Option<SpanCtx>,
    admitted: Instant,
    /// The line-wide deadline: the budget is shared by every item.
    deadline: Option<Instant>,
}

impl RequestState {
    /// A new span under the request span, when the request is sampled.
    fn child_span(&self, shared: &Shared) -> Option<SpanCtx> {
        self.span.map(|s| s.child(&shared.tracer))
    }

    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// True when the request cannot be answered in budget: already
    /// expired, or the remaining slack is smaller than the estimated
    /// single-job service time (`estimate_us`, 0 = no estimate), a
    /// conservative lower bound on a group's. Executing such work can
    /// only produce a late result, so the worker discards it instead —
    /// without this predictive check EDF degrades under overload,
    /// because the earliest-deadline job is by construction the one
    /// most likely to expire mid-execution (docs/SCHEDULING.md).
    fn doomed(&self, now: Instant, estimate_us: u64) -> bool {
        self.deadline.is_some_and(|d| {
            d.saturating_duration_since(now).as_micros() <= u128::from(estimate_us)
        })
    }

    /// Fills one item's rendered payload; the filler of the last empty
    /// slot sends the response and settles the request's accounting.
    /// `outcome` (`ok` or `deadline_exceeded`) labels a singleton's
    /// request span.
    fn settle_item(&self, shared: &Shared, pos: usize, line: String, outcome: &str) {
        let Some(line) = self.response.settle(pos, line) else {
            return;
        };
        let total = self.response.items() as i64;
        shared
            .recorder
            .gauge_add("drift_gateway_inflight_requests", &[], -total);
        let outcome = if self.response.single { outcome } else { "ok" };
        end_request(shared, self.span, self.response.id, self.admitted, outcome);
        let reply = Reply {
            line,
            timed: true,
            request_span: self.span,
        };
        if self.reply.send(reply).is_err() {
            // The connection is fully gone (reader and writer exited).
            shared.count_dropped();
        }
    }
}

/// The unit of work in the gateway queue: the items of one request
/// line that share a schedule key, executed together on one worker so
/// the key is solved/fetched exactly once
/// (`drift_serve::worker::execute_traced`). A singleton line is a
/// group of one. `key == None` for one-item lines (which skip key
/// grouping) and for the Select items and invalid shapes of a batch:
/// their items resolve their own keys as they execute.
///
/// A request occupies one queue slot per *distinct schedule key*,
/// which is what lets admission stay a single capacity check while
/// same-key floods collapse.
#[derive(Debug)]
struct GroupJob {
    key: Option<ScheduleKey>,
    /// Submission positions within the request, parallel to `specs`.
    positions: Vec<usize>,
    specs: Vec<JobSpec>,
    request: Arc<RequestState>,
}

impl Deadlined for GroupJob {
    fn deadline(&self) -> Option<Instant> {
        self.request.deadline
    }
}

#[derive(Debug)]
struct Shared {
    config: GatewayConfig,
    recorder: Recorder,
    tracer: Tracer,
    /// Arrival sequence of accepted job requests, the head-sampling
    /// input when this gateway is the ingress edge.
    trace_seq: AtomicU64,
    cache: ScheduleCache,
    /// Hard stop: acceptor and readers exit at their next tick.
    stop: AtomicBool,
    /// A client requested a drain (`{"control":"shutdown"}`); the
    /// gateway's owner observes this via [`Gateway::draining`] and
    /// calls [`Gateway::shutdown`].
    drain: AtomicBool,
    tally: Tally,
    estimator: ServiceEstimator,
}

impl Shared {
    fn count_dropped(&self) {
        self.tally.dropped.fetch_add(1, Ordering::Relaxed);
        self.recorder
            .counter_add("drift_gateway_responses_dropped_total", &[], 1);
    }
}

/// The gateway's [`LineHandler`]: admission. It owns the queue's submit
/// side, so joining the server closes the queue and drains the workers.
#[derive(Debug)]
struct Admission {
    shared: Arc<Shared>,
    queue: JobQueue<GroupJob>,
}

impl LineHandler for Admission {
    fn line(&self, line: &str, reply: &Sender<Reply>) -> bool {
        let (shared, queue) = (&*self.shared, &self.queue);
        let answer = |line: String| {
            let _ = reply.send(Reply::plain(line));
        };
        let job = match protocol::parse_request(line) {
            // Reshard is the router's control; to a gateway it is as
            // unknown as any other.
            Err(_) | Ok(Request::Reshard(_)) => {
                // Lenient by design: a malformed request is answered and
                // counted, never a reason to abort the stream.
                shared.tally.rejected.fetch_add(1, Ordering::Relaxed);
                shared
                    .recorder
                    .counter_add("drift_serve_jobs_rejected_total", &[], 1);
                answer(protocol::error_line(None, ERR_BAD_REQUEST));
                return true;
            }
            Ok(Request::Control(ControlOp::Ping)) => {
                // The ack advertises the queue discipline so router health
                // probes learn each shard's policy (docs/SCHEDULING.md).
                answer(protocol::ping_ack_line(true, shared.config.queue.as_str()));
                return true;
            }
            Ok(Request::Control(ControlOp::Shutdown)) => {
                answer(protocol::control_ack_line(ControlOp::Shutdown, true));
                shared.drain.store(true, Ordering::SeqCst);
                return false;
            }
            Ok(Request::Prewarm(entries)) => {
                // Reshard prewarming: the router pushes schedules whose
                // keys now hash here (docs/PERSISTENCE.md). Preloaded
                // entries bypass hit/miss accounting and the store spill —
                // they are transplants, not solves.
                let inserted = shared.cache.preload(&entries);
                shared.recorder.counter_add(
                    "drift_gateway_prewarm_entries_total",
                    &[],
                    inserted as u64,
                );
                answer(protocol::prewarm_ack_line(true, inserted as u64));
                return true;
            }
            Ok(Request::Job(job)) => job,
        };
        let admitted = Instant::now();
        let total = job.specs.len();
        // Resolve head sampling once per line (the whole line is one request
        // to the trace tier): honor an upstream decision; when the request
        // carries none, this gateway is the ingress edge and decides from
        // its arrival sequence.
        let span = shared.tracer.ingress_span(job.trace, || {
            shared.trace_seq.fetch_add(1, Ordering::Relaxed)
        });
        // The deadline budget is shared: one absolute instant for every
        // item, decremented once per hop upstream — never once per item.
        let budget = job.deadline_ms.unwrap_or(shared.config.default_deadline_ms);
        let deadline = (budget > 0).then(|| admitted + Duration::from_millis(budget));
        // Infeasibility shed: once at least one job has completed, a budget
        // below the observed single-job service-time estimate cannot be met
        // even from an empty queue — refuse the whole line immediately
        // instead of letting it occupy slots and expire later.
        let estimate_us = shared.estimator.estimate_us();
        if deadline.is_some() && estimate_us > 0 && budget.saturating_mul(1000) < estimate_us {
            shared
                .tally
                .unmeetable
                .fetch_add(total as u64, Ordering::Relaxed);
            shared.recorder.counter_add(
                "drift_gateway_deadline_outcomes_total",
                &[("outcome", "unmeetable")],
                total as u64,
            );
            end_request(shared, span, job.id, admitted, "unmeetable");
            answer(protocol::error_line(Some(job.id), ERR_UNMEETABLE));
            return true;
        }
        let request = Arc::new(RequestState {
            response: ResponseAssembler::new(job.id, job.single, total),
            reply: reply.clone(),
            span,
            admitted,
            deadline,
        });
        let groups = if total == 1 {
            // Nothing to amortise: the item resolves its own key as it
            // executes, so admission does no key work.
            vec![GroupJob {
                key: None,
                positions: vec![0],
                specs: job.specs,
                request,
            }]
        } else {
            // Group by schedule key, preserving submission order within
            // each group. Linear scan: batches carry at most a few distinct
            // keys by construction (that is the amortization).
            let fabric = paper_fabric();
            let mut groups: Vec<GroupJob> = Vec::new();
            for (pos, spec) in job.specs.into_iter().enumerate() {
                let key = schedule_key_for(&spec, fabric);
                match groups.iter_mut().find(|g| g.key == key) {
                    Some(group) => {
                        group.positions.push(pos);
                        group.specs.push(spec);
                    }
                    None => groups.push(GroupJob {
                        key,
                        positions: vec![pos],
                        specs: vec![spec],
                        request: Arc::clone(&request),
                    }),
                }
            }
            groups
        };
        match queue.try_submit_batch(groups) {
            Ok(()) => {
                shared
                    .tally
                    .accepted
                    .fetch_add(total as u64, Ordering::Relaxed);
                shared.recorder.counter_add(
                    "drift_gateway_requests_accepted_total",
                    &[],
                    total as u64,
                );
                shared
                    .recorder
                    .gauge_add("drift_gateway_inflight_requests", &[], total as i64);
                if !job.single && shared.recorder.is_enabled() {
                    shared.recorder.observe(
                        "drift_gateway_batch_size",
                        &[],
                        drift_obs::contract::BATCH_SIZE_BUCKETS,
                        total as u64,
                    );
                }
            }
            Err(_groups) => {
                // All-or-shed: no group was enqueued, so dropping the groups
                // (and the request state inside) is safe — nothing will
                // ever settle a slot.
                shared.tally.shed.fetch_add(total as u64, Ordering::Relaxed);
                shared
                    .recorder
                    .counter_add("drift_gateway_requests_shed_total", &[], total as u64);
                end_request(shared, span, job.id, admitted, "overloaded");
                answer(protocol::error_line(Some(job.id), ERR_OVERLOADED));
            }
        }
        true
    }

    fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed) || self.shared.drain.load(Ordering::Relaxed)
    }

    fn connections(&self, delta: i64) {
        let shared = &self.shared;
        if delta > 0 {
            shared.tally.connections.fetch_add(1, Ordering::Relaxed);
        }
        shared
            .recorder
            .gauge_add("drift_gateway_connections", &[], delta);
    }

    fn dropped(&self) {
        self.shared.count_dropped();
    }

    /// The answer to an admitted request has its write timed as a
    /// `response_write` stage, a span under the request's span when it
    /// is sampled; control acks and refusals are plain.
    fn write_stage(&self, reply: &Reply) -> Option<Stage<'_>> {
        let shared = &*self.shared;
        let span = reply.request_span.map(|s| s.child(&shared.tracer));
        reply
            .timed
            .then(|| stage(shared, "response_write", span).open())
    }
}

/// A running gateway: line server and worker pool.
///
/// Dropping the gateway performs the same graceful drain as
/// [`Gateway::shutdown`].
#[derive(Debug)]
pub struct Gateway {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The line server. Its handler owns the submit side of the queue,
    /// so joining the server closes the queue and lets the workers
    /// drain out.
    server: Option<LineServer>,
    workers: Vec<JoinHandle<()>>,
    /// The persistent schedule store, when started with one. Finished
    /// (flushed, possibly compacted) during shutdown, after the workers
    /// have stopped producing new schedules.
    store: Option<StoreBinding>,
}

impl Gateway {
    /// Binds `addr` (port 0 picks a free port) and starts the acceptor
    /// and worker threads.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(addr: &str, config: GatewayConfig, recorder: Recorder) -> io::Result<Gateway> {
        Self::start_traced(addr, config, recorder, Tracer::disabled())
    }

    /// Like [`Gateway::start`], additionally recording distributed
    /// trace spans through `tracer`. With a disabled tracer the
    /// behaviour (and every response byte) is identical to `start`.
    pub fn start_traced(
        addr: &str,
        config: GatewayConfig,
        recorder: Recorder,
        tracer: Tracer,
    ) -> io::Result<Gateway> {
        Self::start_inner(addr, config, recorder, tracer, None)
    }

    /// Like [`Gateway::start_traced`], additionally backed by the
    /// persistent schedule store at `store` (created if absent). The
    /// store is loaded into the cache *before* the acceptor starts, so
    /// the very first connection sees the warm cache; newly solved
    /// schedules are appended in the background and flushed — with a
    /// compaction when the log has outgrown the live set — during
    /// shutdown. Warm-started gateways answer byte-identically to cold
    /// ones: schedule solving is deterministic, so a stored schedule is
    /// the schedule a cold solve would produce (`docs/PERSISTENCE.md`).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, and store open/load failures (bad
    /// magic, future version, I/O) as `io::Error::other`. A corrupt
    /// record *tail* is not an error: the valid prefix loads and the
    /// damage is counted in `drift_store_records_skipped_total`.
    pub fn start_persistent(
        addr: &str,
        config: GatewayConfig,
        recorder: Recorder,
        tracer: Tracer,
        store: &Path,
    ) -> io::Result<Gateway> {
        Self::start_inner(addr, config, recorder, tracer, Some(store))
    }

    fn start_inner(
        addr: &str,
        config: GatewayConfig,
        recorder: Recorder,
        tracer: Tracer,
        store_path: Option<&Path>,
    ) -> io::Result<Gateway> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let config = GatewayConfig {
            workers: config.workers.max(1),
            queue_depth: config.queue_depth.max(1),
            cache_capacity: config.cache_capacity.max(1),
            cache_shards: config.cache_shards.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            cache: ScheduleCache::with_recorder(
                config.cache_capacity,
                config.cache_shards,
                recorder.clone(),
            ),
            recorder,
            tracer,
            trace_seq: AtomicU64::new(0),
            config,
            stop: AtomicBool::new(false),
            drain: AtomicBool::new(false),
            tally: Tally::default(),
            estimator: ServiceEstimator::default(),
        });
        shared
            .recorder
            .gauge_set("drift_serve_workers", &[], config.workers as i64);

        // Warm-start before anything can connect: the first request
        // already sees every schedule the previous run persisted.
        let store = store_path
            .map(|path| {
                open_and_preload(path, &shared.cache, shared.recorder.clone())
                    .map(|(_report, binding)| binding)
                    .map_err(io::Error::other)
            })
            .transpose()?;

        let (queue, handle) = job_queue_with_policy::<GroupJob>(config.queue, config.queue_depth);
        let workers = (0..config.workers)
            .map(|i| {
                let handle = handle.clone();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gateway-worker-{i}"))
                    .spawn(move || worker_loop(handle, &shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        drop(handle);

        let admission = Admission {
            shared: Arc::clone(&shared),
            queue,
        };
        let server = LineServer::start(listener, "gateway", config.idle_timeout_ms, admission)?;

        Ok(Gateway {
            addr,
            shared,
            server: Some(server),
            workers,
            store,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a client has requested a drain via
    /// `{"control":"shutdown"}`. The owner should then call
    /// [`Gateway::shutdown`].
    pub fn draining(&self) -> bool {
        self.shared.drain.load(Ordering::Relaxed)
    }

    /// Lifetime request totals so far.
    pub fn summary(&self) -> GatewaySummary {
        self.shared.tally.summary()
    }

    /// Gracefully drains the gateway: stop accepting, flush every
    /// accepted job's response, close the queue, join all threads.
    /// Returns the lifetime totals.
    pub fn shutdown(mut self) -> GatewaySummary {
        self.shutdown_in_place()
    }

    fn shutdown_in_place(&mut self) -> GatewaySummary {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Readers notice the stop flag at their next read tick and
        // exit; each joins its writer, which flushes the responses of
        // every job that connection had in flight (workers are still
        // running here, so those jobs finish). Joining the server drops
        // its handler and with it the queue's submit side: the queue
        // closes, and workers drain whatever is still buffered and exit.
        if let Some(server) = self.server.take() {
            server.join();
        }
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
        // With the workers gone nothing else produces schedules: flush
        // the store's remaining appends and compact if it has outgrown
        // the live set. Persistence is best-effort on the way out — a
        // failed flush loses warm-start data, never responses.
        if let Some(binding) = self.store.take() {
            if let Err(e) = binding.finish(&self.shared.cache) {
                eprintln!("drift-gateway: schedule store flush failed: {e}");
            }
        }
        self.shared.tally.summary()
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        if self.server.is_some() || !self.workers.is_empty() {
            self.shutdown_in_place();
        }
    }
}

/// A gateway-tier stage, written as a span under `span` when sampled.
fn stage<'a>(shared: &'a Shared, name: &'static str, span: Option<SpanCtx>) -> Stage<'a> {
    Stage::new("gateway", name, &shared.recorder).traced(&shared.tracer, span)
}

/// Ends the gateway-tier `request` stage of a request admitted at
/// `admitted` and settled now, labelled with how it settled.
fn end_request(shared: &Shared, span: Option<SpanCtx>, id: u64, admitted: Instant, outcome: &str) {
    stage(shared, "request", span)
        .job(id)
        .since(admitted)
        .end(outcome, &[("outcome", outcome)]);
}

/// One worker: pulls admitted work until the queue closes, enforcing
/// the deadline at dequeue and again at response time.
fn worker_loop(jobs: WorkerHandle<GroupJob>, shared: &Shared) {
    let mut accel =
        DriftAccelerator::paper_config().expect("the paper configuration always builds");
    accel.set_recorder(shared.recorder.clone());
    while let Some(group) = jobs.next_job() {
        run_group(group, &mut accel, shared);
    }
}

/// Executes one schedule-key group: a keyed group's key is
/// solved/fetched once, and each item's rendered payload —
/// byte-identical to what the same job would produce submitted singly —
/// settles into its request slot.
fn run_group(group: GroupJob, accel: &mut DriftAccelerator, shared: &Shared) {
    let request = &group.request;
    let dequeued = Instant::now();
    let n = group.specs.len();
    let doomed = request.doomed(dequeued, shared.estimator.estimate_us());
    // One queue-wait stage per group (the group was one queue entry),
    // labelled by what happened at dequeue: `ok` = handed to a worker,
    // `expired` = discarded as doomed.
    let waited = if doomed { "expired" } else { "ok" };
    stage(shared, "queue_wait", request.child_span(shared))
        .job(request.response.id)
        .since(request.admitted)
        .end_at(dequeued, waited, &[("outcome", waited)]);
    if doomed {
        for (pos, spec) in group.positions.iter().zip(&group.specs) {
            count_expired_item(shared);
            request.settle_item(
                shared,
                *pos,
                protocol::error_line(Some(spec.id), ERR_DEADLINE),
                ERR_DEADLINE,
            );
        }
        return;
    }
    // The execute span is also the parent of serve-tier spans
    // (cache_lookup/solve/execute), so its id is minted up front and
    // handed down through the executor.
    let exec_span = request.child_span(shared);
    let exec = stage(shared, "execute", exec_span)
        .job(request.response.id)
        .open();
    let results = execute_traced(
        group.key.as_ref(),
        &group.specs,
        accel,
        &shared.cache,
        &shared.recorder,
        &shared.tracer,
        exec_span,
    );
    let is_error = |outcome: &JobOutcome| matches!(outcome, JobOutcome::Error { .. });
    let executed = if results.iter().any(|(outcome, _)| is_error(outcome)) {
        "error"
    } else {
        "ok"
    };
    exec.end(
        executed,
        &[("kind", group.specs[0].kind.label()), ("outcome", executed)],
    );
    // One dequeue-to-done observation per item, so the admission
    // estimator keeps tracking per-job service time.
    shared
        .estimator
        .observe(dequeued.elapsed() / n.max(1) as u32);
    let late = request.expired(Instant::now());
    for ((pos, spec), (outcome, _cache_hit)) in
        group.positions.iter().zip(&group.specs).zip(results)
    {
        if shared.recorder.is_enabled() {
            shared.recorder.counter_add(
                "drift_serve_jobs_total",
                &[
                    ("kind", spec.kind.label()),
                    ("outcome", if is_error(&outcome) { "error" } else { "ok" }),
                ],
                1,
            );
        }
        if late {
            count_expired_item(shared);
            let line = protocol::error_line(Some(spec.id), ERR_DEADLINE);
            request.settle_item(shared, *pos, line, ERR_DEADLINE);
            continue;
        }
        if request.deadline.is_some() {
            shared.recorder.counter_add(
                "drift_gateway_deadline_outcomes_total",
                &[("outcome", "met")],
                1,
            );
        }
        let line = result_line(&JobResult {
            id: spec.id,
            outcome,
        });
        request.settle_item(shared, *pos, line, "ok");
    }
}

/// The per-item expiry accounting shared by the dequeue-discard and
/// post-execution paths of [`run_group`].
fn count_expired_item(shared: &Shared) {
    shared.tally.expired.fetch_add(1, Ordering::Relaxed);
    shared
        .recorder
        .counter_add("drift_gateway_requests_expired_total", &[], 1);
    shared.recorder.counter_add(
        "drift_gateway_deadline_outcomes_total",
        &[("outcome", "missed")],
        1,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use drift_serve::job::JobKind;

    fn small_spec(id: u64) -> JobSpec {
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

    #[test]
    fn serves_jobs_and_pings_over_tcp() {
        let gw = Gateway::start(
            "127.0.0.1:0",
            GatewayConfig::with_workers(2),
            Recorder::disabled(),
        )
        .unwrap();
        let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();
        assert!(client.ping().unwrap());
        for id in 0..10 {
            let resp = client.submit(&small_spec(id), None).unwrap();
            match resp {
                protocol::Response::Result(r) => assert_eq!(r.id, id),
                other => panic!("unexpected response {other:?}"),
            }
        }
        let summary = gw.shutdown();
        assert_eq!(summary.accepted, 10);
        assert_eq!(summary.shed, 0);
        assert_eq!(summary.connections, 1);
    }

    #[test]
    fn bad_lines_get_bad_request_responses_and_the_stream_continues() {
        let gw = Gateway::start(
            "127.0.0.1:0",
            GatewayConfig::with_workers(1),
            Recorder::disabled(),
        )
        .unwrap();
        let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();
        client.send_raw("this is not json").unwrap();
        match client.recv().unwrap() {
            protocol::Response::Error { id, error } => {
                assert_eq!(id, None);
                assert_eq!(error, ERR_BAD_REQUEST);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // The connection is still usable afterwards.
        assert!(matches!(
            client.submit(&small_spec(1), None).unwrap(),
            protocol::Response::Result(_)
        ));
        assert_eq!(gw.shutdown().rejected, 1);
    }

    #[test]
    fn reshard_lines_get_bad_request_responses() {
        let gw = Gateway::start(
            "127.0.0.1:0",
            GatewayConfig::with_workers(1),
            Recorder::disabled(),
        )
        .unwrap();
        let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();
        // Resharding is the router's control: a gateway refuses it.
        client
            .send_raw("{\"control\":\"reshard\",\"shards\":[\"127.0.0.1:1\"]}")
            .unwrap();
        assert_eq!(
            client.recv().unwrap(),
            protocol::Response::Error {
                id: None,
                error: ERR_BAD_REQUEST.to_string()
            }
        );
        assert!(matches!(
            client.submit(&small_spec(1), None).unwrap(),
            protocol::Response::Result(_)
        ));
        assert_eq!(gw.shutdown().rejected, 1);
    }

    #[test]
    fn drain_flag_is_set_by_the_shutdown_control() {
        let gw = Gateway::start(
            "127.0.0.1:0",
            GatewayConfig::with_workers(1),
            Recorder::disabled(),
        )
        .unwrap();
        assert!(!gw.draining());
        let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();
        assert!(client.shutdown_server().unwrap());
        // The reader observes the flag on its next tick.
        let start = Instant::now();
        while !gw.draining() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(gw.draining());
        gw.shutdown();
    }
}
