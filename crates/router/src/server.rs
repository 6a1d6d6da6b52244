//! The router server: a consistent-hash sharding tier over gateways.
//!
//! ```text
//!  clients ──▶ acceptor ──▶ conn reader ──route by schedule key──┐
//!                                 │ forward as batch lines       │
//!                                 ▼                              ▼
//!                         pending table ◀─────────── shard links (one
//!                                 │  settle / fail over  persistent,
//!                                 ▼                      pipelined conn
//!            client ◀── conn outbox: the shard-link      per gateway)
//!                       reader writes what it settles
//! ```
//!
//! The router speaks the gateway wire protocol on both sides: clients
//! talk to it exactly as they would to one gateway, and it holds one
//! persistent pipelined [`drift_gateway::client::Client`] connection to
//! each backend. Each job is routed by [`crate::ring::route_key`] —
//! the hash of the exact schedule-cache key its execution will look up
//! — so every distinct cache entry lives on exactly one shard.
//!
//! Every request line — a singleton is a batch of one — is split by
//! owning shard, and each per-shard part is forwarded as one batch line
//! under a router-unique internal batch id (client ids are only unique
//! per client connection). Items keep their client ids; the gateway
//! answers them in submission order, and the router splices each back
//! into its client slot. Responses are byte-identical to a direct
//! gateway because both sides serialise the same
//! [`drift_serve::job::JobResult`] the same way.
//!
//! The unhappy paths are first-class:
//!
//! * **shed failover** — a backend `overloaded` answer re-dispatches
//!   the job to the next distinct shard on its ring walk, up to
//!   [`MAX_HOPS`] distinct shards; only when the walk is exhausted does
//!   the client see `overloaded`.
//! * **ejection and re-admission** — a dead connection (or failed
//!   probe) marks the shard unhealthy, force-closes its socket, and
//!   re-dispatches every job that was in flight on it (orphan
//!   failover); a background probe re-connects and re-admits the shard
//!   once it answers pings again. Re-execution is safe because results
//!   are pure functions of the spec, and the client still sees exactly
//!   one response per request: whichever copy settles the pending entry
//!   first wins, and both carry identical bytes.
//! * **deadlines across hops** — the budget is pinned to an absolute
//!   deadline at admission and each hop forwards only the remainder.
//! * **live reshard** — `{"control":"reshard","shards":[...]}`
//!   quiesces admissions, waits for in-flight work to drain, swaps the
//!   ring (reusing connections to retained shards), and acks with how
//!   many tracked schedule keys changed owner.
//! * **graceful drain** — like the gateway: stop accepting, answer
//!   everything in flight, then tear down.
//!
//! Client connections run on the gateway's [`LineServer`]; the router
//! supplies only the handler. Whichever thread settles a request's last
//! slot, usually a shard-link reader, writes the response through the
//! client connection's [`Outbox`].

use crate::ring::{route_hash, HashRing};
use drift_accel::systolic::ArrayGeometry;
use drift_core::arch::paper_fabric;
use drift_core::schedule::{Schedule, ScheduleKey};
use drift_gateway::client::{Client, ClientReader, ClientWriter};
use drift_gateway::framing::{
    DrainSignal, LineHandler, LineServer, Outbox, Reply, IDLE_TIMEOUT, MAX_LINE_BYTES, READ_TICK,
};
use drift_gateway::protocol::{
    self, ControlOp, JobLine, Request, ResponseAssembler, ERR_BAD_REQUEST, ERR_DEADLINE,
    ERR_OVERLOADED,
};
use drift_gateway::Response;
use drift_obs::{Recorder, SpanCtx, Stage, TraceContext, TraceDecision, Tracer};
use drift_serve::job::{result_line, JobSpec};
use drift_serve::worker::schedule_key_for;
use serde::Value;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
/// Bounded wait for in-flight jobs to drain during a reshard quiesce.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(30);
/// Cap on the distinct-key set tracked for reshard moved-key counts.
/// Past the cap the count is over the tracked sample only.
const SEEN_KEYS_CAP: usize = 65_536;
/// Cap on the moved keys the router solves and pushes to their new
/// owners during one reshard. Past the cap the remaining moved keys
/// warm up lazily: the new owner re-solves them on first miss.
const PREWARM_KEYS_CAP: usize = 2048;
/// Maximum distinct shards one job may be dispatched to (first attempt
/// included) before the client sees `overloaded`.
pub const MAX_HOPS: u32 = 3;
/// Bound on any single backend connect attempt, and on each read and
/// write of a health probe's ping or a reshard's prewarm push.
pub const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Cap on virtual nodes per shard, at start and in a reshard line.
pub const MAX_VNODES: usize = 1024;
/// Cap on the points (shards × vnodes) of a ring a reshard builds.
const MAX_RING_POINTS: usize = 65_536;

/// Tunables for one router instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Virtual nodes per shard on the consistent-hash ring, at most
    /// [`MAX_VNODES`].
    pub vnodes: usize,
    /// Health-probe period in milliseconds. Past half of
    /// [`IDLE_TIMEOUT`], probes still run every half of it, since they
    /// also keep idle data links open.
    pub probe_interval_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            vnodes: 64,
            probe_interval_ms: 500,
        }
    }
}

/// Request totals over a router's lifetime, returned by
/// [`Router::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterSummary {
    /// Client connections accepted over the lifetime.
    pub connections: u64,
    /// Job requests admitted (routable or not).
    pub accepted: u64,
    /// Dispatches to backends (counts each failover hop).
    pub routed: u64,
    /// Re-dispatches after a shed or a dead shard.
    pub failovers: u64,
    /// Shards marked unhealthy.
    pub ejections: u64,
    /// Shards marked healthy again after an ejection.
    pub readmissions: u64,
    /// Jobs answered `overloaded` because every permitted hop was
    /// shed, dead, or there was no healthy shard at all.
    pub unrouted: u64,
    /// Jobs answered `deadline_exceeded` by the router itself (budget
    /// exhausted between hops).
    pub expired: u64,
    /// Lines that parsed as neither a job nor a control request.
    pub rejected: u64,
    /// Completed reshard operations.
    pub reshards: u64,
    /// Responses dropped because the client was gone or stalled.
    pub dropped: u64,
}

impl RouterSummary {
    /// One-line human rendering for the CLI's exit report.
    pub fn render(&self) -> String {
        format!(
            "router: {} connections, {} accepted, {} routed, {} failovers, {} ejections, \
             {} readmissions, {} unrouted, {} expired, {} rejected, {} reshards, {} dropped",
            self.connections,
            self.accepted,
            self.routed,
            self.failovers,
            self.ejections,
            self.readmissions,
            self.unrouted,
            self.expired,
            self.rejected,
            self.reshards,
            self.dropped,
        )
    }
}

/// Lifetime counters as plain atomics so the exit summary works even
/// with the recorder disabled.
#[derive(Debug, Default)]
struct Tally {
    connections: AtomicU64,
    accepted: AtomicU64,
    routed: AtomicU64,
    failovers: AtomicU64,
    ejections: AtomicU64,
    readmissions: AtomicU64,
    unrouted: AtomicU64,
    expired: AtomicU64,
    rejected: AtomicU64,
    reshards: AtomicU64,
    dropped: AtomicU64,
}

impl Tally {
    fn summary(&self) -> RouterSummary {
        RouterSummary {
            connections: self.connections.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            routed: self.routed.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            ejections: self.ejections.load(Ordering::Relaxed),
            readmissions: self.readmissions.load(Ordering::Relaxed),
            unrouted: self.unrouted.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            reshards: self.reshards.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// One backend gateway: address, health, and the write half plus raw
/// handle of its persistent connection (the read half lives in a
/// dedicated reader thread). Identity is the `Arc` itself — pending
/// entries reference their shard by pointer, which stays valid across
/// reshards because retained shards keep their link (and connection).
#[derive(Debug)]
struct ShardLink {
    addr: String,
    healthy: AtomicBool,
    /// Set when a reshard removes the shard: its reader exits without
    /// ejection accounting and the probe stops touching it.
    retired: AtomicBool,
    writer: Mutex<Option<ClientWriter>>,
    raw: Mutex<Option<TcpStream>>,
}

impl ShardLink {
    fn unconnected(addr: &str) -> Arc<ShardLink> {
        Arc::new(ShardLink {
            addr: addr.to_string(),
            healthy: AtomicBool::new(false),
            retired: AtomicBool::new(false),
            writer: Mutex::new(None),
            raw: Mutex::new(None),
        })
    }
}

/// The per-entry distributed-trace state, fixed at admission.
#[derive(Debug, Clone, Copy)]
enum EntryTrace {
    /// No upstream decision and tracing is off here: forward nothing,
    /// keeping the wire bytes identical to a tracing-free build.
    Off,
    /// The router's own tracer is disabled but an upstream tier made a
    /// decision: pass it through verbatim without recording spans.
    Forward(TraceDecision),
    /// Sampled with the router tracing: record a root `request` span
    /// plus one `hop` span per dispatch attempt.
    Sampled {
        /// The router's root `request` span (settles with the job),
        /// parented under the upstream span carried on the wire, if any.
        request: SpanCtx,
        /// The current dispatch attempt's span id (re-minted per hop);
        /// forwarded downstream as the gateway's parent span.
        hop_span: u64,
    },
}

impl EntryTrace {
    /// The root `request` span, when sampled with the router tracing.
    fn request_span(&self) -> Option<SpanCtx> {
        match *self {
            EntryTrace::Sampled { request, .. } => Some(request),
            _ => None,
        }
    }

    /// The current dispatch attempt's `hop` span, under the request span.
    fn hop_span(&self) -> Option<SpanCtx> {
        match *self {
            EntryTrace::Sampled { request, hop_span } => Some(SpanCtx {
                trace: request.trace,
                span: hop_span,
                parent: Some(request.span),
            }),
            _ => None,
        }
    }
}

/// A router-tier stage, written as a span under `span` when sampled.
fn stage<'a>(shared: &'a Shared, name: &'static str, span: Option<SpanCtx>) -> Stage<'a> {
    Stage::new("router", name, &shared.recorder).traced(&shared.tracer, span)
}

/// The client-visible state of one admitted request line — a singleton
/// job or a batch: its response, filled as per-shard sub-batches
/// settle, so the client sees its items in submission order no matter
/// how the line was split or which shard answered first.
#[derive(Debug)]
struct ClientRequest {
    response: ResponseAssembler,
    /// When the request was admitted (root request-span basis).
    admitted: Instant,
    /// The line-wide absolute deadline: the budget is shared, so each
    /// hop forwards one remainder for a whole sub-batch — never a
    /// per-item decrement.
    deadline: Option<Instant>,
    /// Sampling state decided once at admission for the whole line.
    trace: EntryTrace,
    reply: Outbox,
}

impl ClientRequest {
    /// Fills one item's rendered payload; the filler of the last empty
    /// slot writes the response. `outcome` (`ok`, a wire error name, or
    /// `unrouted`) labels a singleton's root `request` span.
    fn settle_slot(&self, shared: &Shared, pos: usize, line: String, outcome: &str) {
        let Some(line) = self.response.settle(pos, line) else {
            return;
        };
        let outcome = if self.response.single { outcome } else { "ok" };
        stage(shared, "request", self.trace.request_span())
            .job(self.response.id)
            .since(self.admitted)
            .end(outcome, &[("outcome", outcome)]);
        let total = self.response.items() as i64;
        shared
            .recorder
            .gauge_add("drift_router_inflight_requests", &[], -total);
        self.reply.send(Reply::plain(line));
    }

    /// Settles every item of `items` with the same wire `error`, each
    /// in its own slot so the rest of the request is unaffected.
    fn settle_all(&self, shared: &Shared, items: &Routing, error: &str, outcome: &str) {
        for (pos, spec) in items.positions.iter().zip(&items.specs) {
            let line = protocol::error_line(Some(spec.id), error);
            self.settle_slot(shared, *pos, line, outcome);
        }
    }
}

/// Items of one client request on their way to a shard: submission
/// positions, routing keys and specs (parallel), plus the walk so far.
#[derive(Debug)]
struct Routing {
    positions: Vec<usize>,
    /// Each item's routing key, computed once at admission so every
    /// failover re-walks the same ring chain.
    keys: Vec<u64>,
    specs: Vec<JobSpec>,
    /// Addresses these items have been sent to: failover never
    /// revisits one, keeping dispatch exactly-once per item per shard.
    tried: Vec<String>,
    /// Dispatch attempts so far.
    hops: u32,
}

impl Routing {
    fn push(&mut self, pos: usize, key: u64, spec: JobSpec) {
        self.positions.push(pos);
        self.keys.push(key);
        self.specs.push(spec);
    }
}

/// One per-shard sub-batch of a client request, in flight to one
/// gateway as a single batch request line under a router-unique
/// internal batch id.
#[derive(Debug)]
struct PendingBatch {
    request: Arc<ClientRequest>,
    items: Routing,
    /// When the current hop was forwarded (hop latency basis).
    sent: Instant,
    /// The shard currently executing this sub-batch.
    shard: Arc<ShardLink>,
    /// Hop-span state (re-minted per dispatch attempt); the parent is
    /// the request's root span.
    trace: EntryTrace,
}

/// The routing table: the ring and the index-aligned shard links.
#[derive(Debug)]
struct Table {
    ring: HashRing,
    links: Vec<Arc<ShardLink>>,
}

#[derive(Debug)]
struct Shared {
    config: RouterConfig,
    recorder: Recorder,
    tracer: Tracer,
    /// Arrival counter feeding the ingress-edge sampling decision.
    trace_seq: AtomicU64,
    fabric: ArrayGeometry,
    stop: AtomicBool,
    drain: DrainSignal,
    /// Blocks new admissions while a reshard quiesces.
    resharding: AtomicBool,
    /// Serialises reshard operations across client connections.
    reshard_gate: Mutex<()>,
    table: RwLock<Table>,
    pending: Mutex<HashMap<u64, PendingBatch>>,
    next_internal_id: AtomicU64,
    /// Sample of distinct routing keys seen, for moved-key accounting.
    /// Each routing hash carries the exact [`ScheduleKey`] it was
    /// derived from (`None` for jobs without a schedule), so a reshard
    /// can re-solve moved keys and push the schedules to their new
    /// owner before traffic resumes (`docs/PERSISTENCE.md`).
    seen_keys: Mutex<HashMap<u64, Option<ScheduleKey>>>,
    tally: Tally,
    /// Reader threads of shard connections (every generation).
    shard_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.drain.is_requested()
    }

    fn healthy_count(&self) -> i64 {
        let table = self.table.read().expect("routing table");
        table
            .links
            .iter()
            .filter(|l| l.healthy.load(Ordering::Relaxed))
            .count() as i64
    }

    fn refresh_healthy_gauge(&self) {
        self.recorder
            .gauge_set("drift_router_shards_healthy", &[], self.healthy_count());
    }
}

/// The router's [`LineHandler`]: client request lines.
#[derive(Debug)]
struct Front(Arc<Shared>);

impl LineHandler for Front {
    fn line(&self, line: &str, reply: &Outbox) -> bool {
        let shared = &self.0;
        let answer = |line: String| reply.send(Reply::plain(line));
        let job = match protocol::parse_request(line) {
            // The router holds no schedule cache, so prewarm (which targets
            // gateways directly) is as unknown here as a malformed line.
            Err(_) | Ok(Request::Prewarm(_)) => {
                shared.tally.rejected.fetch_add(1, Ordering::Relaxed);
                answer(protocol::error_line(None, ERR_BAD_REQUEST));
                return true;
            }
            Ok(Request::Control(op)) => {
                answer(protocol::control_ack_line(op, true));
                if op == ControlOp::Shutdown {
                    shared.drain.request();
                    return false;
                }
                return true;
            }
            Ok(Request::Reshard(value)) => {
                answer(reshard(shared, &value));
                return true;
            }
            Ok(Request::Job(job)) => job,
        };
        // A reshard quiesce holds admissions at the door; jobs already in
        // flight drain unhindered.
        while shared.resharding.load(Ordering::SeqCst) {
            if shared.should_stop() {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        admit(shared, job, reply);
        true
    }

    fn stopping(&self) -> bool {
        self.0.should_stop()
    }

    fn connections(&self, delta: i64) {
        let shared = &self.0;
        if delta > 0 {
            shared.tally.connections.fetch_add(1, Ordering::Relaxed);
        }
        shared
            .recorder
            .gauge_add("drift_router_connections", &[], delta);
    }

    fn dropped(&self) {
        self.0.tally.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running router: line server, one reader thread per backend
/// connection, and a health-probe thread.
///
/// Dropping the router performs the same graceful drain as
/// [`Router::shutdown`].
#[derive(Debug)]
pub struct Router {
    addr: SocketAddr,
    shared: Arc<Shared>,
    server: Option<LineServer>,
    probe: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds `addr` (port 0 picks a free port), connects to every
    /// shard, and starts the acceptor and probe threads. Shards that
    /// refuse the initial connection start unhealthy and are picked up
    /// by the probe once they come up.
    ///
    /// # Errors
    ///
    /// Fails on an empty shard list or a bind failure.
    pub fn start(
        addr: &str,
        shards: &[String],
        config: RouterConfig,
        recorder: Recorder,
    ) -> io::Result<Router> {
        Router::start_traced(addr, shards, config, recorder, Tracer::disabled())
    }

    /// [`Router::start`], additionally recording distributed-trace
    /// spans into `tracer`: a root `request` span per admitted job and
    /// one `hop` span per dispatch attempt (first try, shed failover,
    /// dead-shard failover). When the router is the ingress edge (no
    /// upstream decision on the wire) it makes the head-sampling
    /// decision; downstream tiers honor it. With a disabled tracer the
    /// router's behaviour — including every forwarded byte — is
    /// identical to [`Router::start`].
    ///
    /// # Errors
    ///
    /// Fails on an empty shard list or a bind failure.
    pub fn start_traced(
        addr: &str,
        shards: &[String],
        config: RouterConfig,
        recorder: Recorder,
        tracer: Tracer,
    ) -> io::Result<Router> {
        let mut unique: Vec<String> = Vec::new();
        for shard in shards {
            if !shard.is_empty() && !unique.contains(shard) {
                unique.push(shard.clone());
            }
        }
        if unique.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one shard address",
            ));
        }
        let config = RouterConfig {
            vnodes: config.vnodes.clamp(1, MAX_VNODES),
            probe_interval_ms: config.probe_interval_ms.max(10),
        };
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;

        let links: Vec<Arc<ShardLink>> = unique.iter().map(|a| ShardLink::unconnected(a)).collect();
        let shared = Arc::new(Shared {
            config,
            recorder,
            tracer,
            trace_seq: AtomicU64::new(0),
            fabric: paper_fabric(),
            stop: AtomicBool::new(false),
            drain: DrainSignal::default(),
            resharding: AtomicBool::new(false),
            reshard_gate: Mutex::new(()),
            table: RwLock::new(Table {
                ring: HashRing::new(&unique, config.vnodes),
                links,
            }),
            pending: Mutex::new(HashMap::new()),
            next_internal_id: AtomicU64::new(1),
            seen_keys: Mutex::new(HashMap::new()),
            tally: Tally::default(),
            shard_threads: Mutex::new(Vec::new()),
        });
        {
            let links = shared.table.read().expect("routing table").links.clone();
            for link in links {
                let _ = connect_shard(&shared, &link);
            }
        }
        shared.refresh_healthy_gauge();

        let front = Front(Arc::clone(&shared));
        let server = LineServer::start(listener, "router", front)?;
        let probe = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("router-probe".to_string())
                .spawn(move || probe_loop(&shared))?
        };

        Ok(Router {
            addr,
            shared,
            server: Some(server),
            probe: Some(probe),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a client has requested a drain via
    /// `{"control":"shutdown"}`. The owner should then call
    /// [`Router::shutdown`].
    pub fn draining(&self) -> bool {
        self.shared.drain.is_requested()
    }

    /// Blocks until a client has requested a drain. The owner should
    /// then call [`Router::shutdown`].
    pub fn wait_for_drain(&self) {
        self.shared.drain.wait();
    }

    /// Lifetime request totals so far.
    pub fn summary(&self) -> RouterSummary {
        self.shared.tally.summary()
    }

    /// Gracefully drains the router: stop accepting, answer every
    /// in-flight job, then join all threads. Returns lifetime totals.
    pub fn shutdown(mut self) -> RouterSummary {
        self.shutdown_in_place()
    }

    fn shutdown_in_place(&mut self) -> RouterSummary {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Client readers stop reading at their next tick; each then
        // waits until every pending entry from its connection has been
        // settled by the shard readers and written (the entries hold
        // the connection's outbox). So once the server is joined the
        // pending table is empty: accepted work has been answered.
        if let Some(server) = self.server.take() {
            server.join();
        }
        // Now the backend connections can go: close the sockets so the
        // shard readers unblock and exit (the stop flag suppresses
        // their ejection/failover accounting).
        {
            let table = self.shared.table.read().expect("routing table");
            for link in &table.links {
                close_link(link);
            }
        }
        let readers =
            std::mem::take(&mut *self.shared.shard_threads.lock().expect("shard threads"));
        for reader in readers {
            let _ = reader.join();
        }
        if let Some(probe) = self.probe.take() {
            let _ = probe.join();
        }
        self.shared.tally.summary()
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if self.server.is_some() || self.probe.is_some() {
            self.shutdown_in_place();
        }
    }
}

/// Connects the persistent data connection for `link`, installs the
/// write half, and spawns the reader thread. On success the shard is
/// healthy.
fn connect_shard(shared: &Arc<Shared>, link: &Arc<ShardLink>) -> Result<(), String> {
    let client = Client::connect_with_timeout(&link.addr, CONNECT_TIMEOUT)
        .map_err(|e| format!("connect {}: {e}", link.addr))?;
    let raw = client
        .try_clone_stream()
        .map_err(|e| format!("clone stream for {}: {e}", link.addr))?;
    let (reader, writer) = client.split();
    *link.raw.lock().expect("shard stream") = Some(raw);
    *link.writer.lock().expect("shard writer") = Some(writer);
    link.healthy.store(true, Ordering::SeqCst);
    let handle = {
        let shared = Arc::clone(shared);
        let reader_link = Arc::clone(link);
        std::thread::Builder::new()
            .name("router-shard-reader".to_string())
            .spawn(move || shard_reader(&shared, &reader_link, reader))
            .map_err(|e| format!("spawn reader for {}: {e}", link.addr))?
    };
    let mut threads = shared.shard_threads.lock().expect("shard threads");
    threads.retain(|h| !h.is_finished());
    threads.push(handle);
    Ok(())
}

/// Marks `link` unhealthy and force-closes its connection. Exactly one
/// caller wins the transition and does the accounting; the closed
/// socket wakes the shard's reader, whose exit path re-dispatches the
/// orphaned jobs. A link lost after a drain was requested, with nothing
/// in flight on it, is a shard stopping with its router, not a fault:
/// it closes the same way but counts no ejection.
fn eject(shared: &Shared, link: &ShardLink) {
    let clean = shared.drain.is_requested() && !in_flight_on(shared, link);
    if link.healthy.swap(false, Ordering::SeqCst) {
        if !clean {
            shared.tally.ejections.fetch_add(1, Ordering::Relaxed);
            shared.recorder.counter_add(
                "drift_router_shard_ejections_total",
                &[("shard", &link.addr)],
                1,
            );
        }
        shared.refresh_healthy_gauge();
    }
    close_link(link);
}

/// Closes `link`'s data connection. The socket is shut down before the
/// writer lock is taken: a dispatch blocked writing to a shard that
/// reads nothing holds that lock, and only the shutdown ends its write.
fn close_link(link: &ShardLink) {
    if let Some(stream) = link.raw.lock().expect("shard stream").take() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    *link.writer.lock().expect("shard writer") = None;
}

/// The reader thread of one backend connection: settles responses until
/// the connection dies, then (unless the router is stopping or the
/// shard was retired by a reshard) ejects the shard and fails over
/// everything that was in flight on it.
fn shard_reader(shared: &Arc<Shared>, link: &Arc<ShardLink>, mut reader: ClientReader) {
    while let Ok(response) = reader.recv() {
        on_backend_response(shared, response);
    }
    if !shared.stop.load(Ordering::Relaxed) && !link.retired.load(Ordering::Relaxed) {
        eject(shared, link);
        orphan_failover(shared, link);
    }
}

/// True if a sub-batch dispatched to `link` awaits its response.
fn in_flight_on(shared: &Shared, link: &ShardLink) -> bool {
    let pending = shared.pending.lock().expect("pending table");
    pending
        .values()
        .any(|e| std::ptr::eq(Arc::as_ptr(&e.shard), link))
}

/// Re-dispatches every sub-batch in flight on `link` (which just
/// died). At-least-once execution is safe — results are pure functions
/// of the spec — and the pending table still guarantees exactly one
/// response per accepted id.
fn orphan_failover(shared: &Arc<Shared>, link: &Arc<ShardLink>) {
    let orphans: Vec<PendingBatch> = {
        let mut pending = shared.pending.lock().expect("pending table");
        let ids: Vec<u64> = pending
            .iter()
            .filter(|(_, e)| Arc::ptr_eq(&e.shard, link))
            .map(|(&id, _)| id)
            .collect();
        ids.into_iter()
            .filter_map(|id| pending.remove(&id))
            .collect()
    };
    for orphan in orphans {
        end_hop(shared, &orphan, "shard_dead");
        count_failover(shared);
        route(shared, &orphan.request, orphan.items);
    }
}

/// Ends the `hop` stage of a sub-batch's current dispatch attempt
/// (started at `batch.sent`, against `batch.shard`). Every way a hop
/// ends calls this exactly once.
fn end_hop(shared: &Shared, batch: &PendingBatch, outcome: &str) {
    stage(shared, "hop", batch.trace.hop_span())
        .job(batch.request.response.id)
        .since(batch.sent)
        .end(
            outcome,
            &[("outcome", outcome), ("shard", &batch.shard.addr)],
        );
}

fn count_failover(shared: &Shared) {
    shared.tally.failovers.fetch_add(1, Ordering::Relaxed);
    shared
        .recorder
        .counter_add("drift_router_failovers_total", &[], 1);
}

/// Handles one response line from a backend.
fn on_backend_response(shared: &Arc<Shared>, response: Response) {
    let id = match &response {
        Response::Result(result) => result.id,
        Response::Batch { id, .. } | Response::Error { id: Some(id), .. } => *id,
        // Un-correlatable: a control ack or an id-less error. The only
        // control the router sends on a data connection is the probe's
        // keepalive ping, whose ack settles nothing.
        _ => return,
    };
    let Some(batch) = shared.pending.lock().expect("pending table").remove(&id) else {
        // Already settled by a failover copy; identical bytes either
        // way, so dropping the duplicate is safe.
        return;
    };
    match response {
        Response::Batch { items, .. } => {
            end_hop(shared, &batch, "ok");
            // Splice each item back into its client slot. Re-rendering
            // the parsed payload goes through the same serialisers the
            // gateway used, so the bytes match a direct submission.
            let sent = batch.items.positions.iter().zip(&batch.items.specs);
            for (i, (pos, spec)) in sent.enumerate() {
                let (line, outcome) = match items.get(i) {
                    Some(Response::Result(result)) => (result_line(result), "ok"),
                    Some(Response::Error { id, error }) => {
                        (protocol::error_line(*id, error), error.as_str())
                    }
                    // Short or malformed item list: answer the leftovers
                    // instead of stranding the request.
                    _ => (
                        protocol::error_line(Some(spec.id), ERR_BAD_REQUEST),
                        ERR_BAD_REQUEST,
                    ),
                };
                batch.request.settle_slot(shared, *pos, line, outcome);
            }
        }
        Response::Error { error, .. } if error == ERR_OVERLOADED => {
            // The gateway shed the whole sub-batch (admission is
            // all-or-shed): walk its items on to their next untried
            // shards.
            end_hop(shared, &batch, "overloaded");
            count_failover(shared);
            route(shared, &batch.request, batch.items);
        }
        Response::Error { error, .. } => {
            end_hop(shared, &batch, "error");
            batch
                .request
                .settle_all(shared, &batch.items, &error, &error);
        }
        // Protocol violation — a singleton result correlated to a
        // sub-batch id. Settle the slots so the request never hangs.
        _ => {
            end_hop(shared, &batch, "error");
            let items = &batch.items;
            batch
                .request
                .settle_all(shared, items, ERR_BAD_REQUEST, ERR_BAD_REQUEST);
        }
    }
}

/// The budget until `deadline` in whole milliseconds, rounded *up* and
/// at least 1.
///
/// Rounding down here (the old `as_millis()` behaviour) silently
/// donated up to 1 ms of the client's budget to the floor on every
/// hop: a job with 2.5 ms remaining was forwarded as `deadline_ms:2`,
/// so the backend's re-derived deadline could expire while the
/// client's original one still had slack. Ceil keeps the forwarded
/// budget a (tight) upper bound that the dispatch-time expiry check —
/// which compares exact `Instant`s — already enforces.
fn remaining_budget_ms(deadline: Instant, now: Instant) -> u64 {
    let nanos = deadline.saturating_duration_since(now).as_nanos();
    (nanos.div_ceil(1_000_000).max(1)).min(u128::from(u64::MAX)) as u64
}

/// Routes items of `request`: each item walks its own ring chain to
/// the first healthy shard not in `tried`, items sharing a target
/// travel together as one sub-batch under one internal batch id (split
/// while its line exceeds [`MAX_LINE_BYTES`]), and
/// items with no reachable shard settle `overloaded` in their slots;
/// exhausting the deadline or the hop budget answers the client
/// directly. Failover re-enters this function with the grown `tried`
/// set, so no item is ever dispatched to the same shard twice —
/// exactly-once per item per shard.
///
/// The deadline budget is decremented once per hop for the whole
/// sub-batch — every sub-batch of a split forwards the same remaining
/// budget (`batch_remaining_budget_ms`), never a per-item remainder.
fn route(shared: &Arc<Shared>, request: &Arc<ClientRequest>, items: Routing) {
    let mut work = vec![items];
    while let Some(items) = work.pop() {
        let now = Instant::now();
        let n = items.specs.len() as u64;
        if request.deadline.is_some_and(|d| now >= d) {
            shared.tally.expired.fetch_add(n, Ordering::Relaxed);
            request.settle_all(shared, &items, ERR_DEADLINE, ERR_DEADLINE);
            continue;
        }
        if items.hops >= MAX_HOPS {
            shared.tally.unrouted.fetch_add(n, Ordering::Relaxed);
            request.settle_all(shared, &items, ERR_OVERLOADED, "unrouted");
            continue;
        }
        let Routing {
            positions,
            keys,
            specs,
            tried,
            hops,
        } = items;
        let mut groups: Vec<(Arc<ShardLink>, Routing)> = Vec::new();
        let mut unroutable: Vec<(usize, u64)> = Vec::new();
        {
            let table = shared.table.read().expect("routing table");
            for ((pos, key), spec) in positions.into_iter().zip(keys).zip(specs) {
                let choice = table
                    .ring
                    .owners(key)
                    .into_iter()
                    .map(|i| &table.links[i])
                    .find(|l| l.healthy.load(Ordering::SeqCst) && !tried.contains(&l.addr));
                let Some(link) = choice else {
                    unroutable.push((pos, spec.id));
                    continue;
                };
                let i = match groups.iter().position(|(g, _)| Arc::ptr_eq(g, link)) {
                    Some(i) => i,
                    None => {
                        let mut tried = tried.clone();
                        tried.push(link.addr.clone());
                        let sub = Routing {
                            positions: Vec::new(),
                            keys: Vec::new(),
                            specs: Vec::new(),
                            tried,
                            hops: hops + 1,
                        };
                        groups.push((Arc::clone(link), sub));
                        groups.len() - 1
                    }
                };
                groups[i].1.push(pos, key, spec);
            }
        }
        for (pos, id) in unroutable {
            shared.tally.unrouted.fetch_add(1, Ordering::Relaxed);
            let line = protocol::error_line(Some(id), ERR_OVERLOADED);
            request.settle_slot(shared, pos, line, "unrouted");
        }
        if groups.len() > 1 {
            shared
                .recorder
                .counter_add("drift_router_batch_splits_total", &[], 1);
        }
        // One budget computation for this hop: every sub-batch of the
        // split forwards the same remainder.
        let remaining_ms = batch_remaining_budget_ms(request.deadline, now);
        // A sub-batch whose forwarded line would exceed the shard's line
        // limit goes back onto `groups` in halves (`split_oversized`).
        while let Some((link, items)) = groups.pop() {
            let internal_id = shared.next_internal_id.fetch_add(1, Ordering::Relaxed);
            // Each sub-batch dispatch is its own hop span under the
            // request's root span; the fresh id is forwarded so the
            // gateway's request span parents under it.
            let mut trace = request.trace;
            if let EntryTrace::Sampled { hop_span, .. } = &mut trace {
                *hop_span = shared.tracer.new_span_id();
            }
            let decision = match trace {
                EntryTrace::Off => TraceDecision::Undecided,
                EntryTrace::Forward(decision) => decision,
                EntryTrace::Sampled { request, hop_span } => TraceDecision::Sampled(TraceContext {
                    trace_id: request.trace,
                    parent_span: Some(hop_span),
                }),
            };
            let line = protocol::batch_request_line_traced(
                internal_id,
                &items.specs,
                remaining_ms,
                &decision,
            );
            if line.len() > MAX_LINE_BYTES {
                split_oversized(shared, request, link, items, &mut groups);
                continue;
            }
            // Insert before sending: the response must never race an
            // absent entry.
            shared.pending.lock().expect("pending table").insert(
                internal_id,
                PendingBatch {
                    request: Arc::clone(request),
                    items,
                    sent: now,
                    shard: Arc::clone(&link),
                    trace,
                },
            );
            let sent = {
                let mut writer = link.writer.lock().expect("shard writer");
                match writer.as_mut() {
                    Some(w) => w.send_raw(&line).is_ok(),
                    None => false,
                }
            };
            if sent {
                shared.tally.routed.fetch_add(1, Ordering::Relaxed);
                shared.recorder.counter_add(
                    "drift_router_requests_routed_total",
                    &[("shard", &link.addr)],
                    1,
                );
                continue;
            }
            // The write failed before a complete line reached the shard
            // (write_all only errors short), so no response is coming:
            // reclaim the sub-batch, kill the connection, and re-route
            // its items past this shard.
            let Some(reclaimed) = shared
                .pending
                .lock()
                .expect("pending table")
                .remove(&internal_id)
            else {
                continue;
            };
            end_hop(shared, &reclaimed, "write_failed");
            eject(shared, &link);
            count_failover(shared);
            work.push(reclaimed.items);
        }
    }
}

/// Handles a sub-batch whose forwarded line exceeds [`MAX_LINE_BYTES`],
/// as a client's line within the limit can when re-rendering lengthens
/// its numbers (`"fa":0` forwards as `"fa":0.0`). Its two halves go
/// back onto `groups` for the same shard with the same walk, counting
/// no hop, failover or ejection; a lone item settles `bad_request`.
fn split_oversized(
    shared: &Shared,
    request: &ClientRequest,
    link: Arc<ShardLink>,
    mut items: Routing,
    groups: &mut Vec<(Arc<ShardLink>, Routing)>,
) {
    if items.specs.len() < 2 {
        request.settle_all(shared, &items, ERR_BAD_REQUEST, ERR_BAD_REQUEST);
        return;
    }
    let at = items.specs.len() / 2;
    let back = Routing {
        positions: items.positions.split_off(at),
        keys: items.keys.split_off(at),
        specs: items.specs.split_off(at),
        tried: items.tried.clone(),
        hops: items.hops,
    };
    groups.push((Arc::clone(&link), back));
    groups.push((link, items));
}

/// The single forwarded budget for one batch hop, shared by every item
/// of every sub-batch dispatched in that hop. The batch deadline is
/// decremented once per hop — never once per item — so splitting a
/// batch across shards cannot shrink (or multiply) its budget.
fn batch_remaining_budget_ms(deadline: Option<Instant>, now: Instant) -> Option<u64> {
    deadline.map(|d| remaining_budget_ms(d, now))
}

/// Resolves the per-request distributed-trace state at admission: the
/// router is usually the ingress edge, so absent an upstream decision
/// it makes one; an upstream decision is honored and forwarded.
fn resolve_entry_trace(shared: &Shared, trace_wire: TraceDecision) -> EntryTrace {
    if !shared.tracer.is_enabled() {
        return match trace_wire {
            TraceDecision::Undecided => EntryTrace::Off,
            decided => EntryTrace::Forward(decided),
        };
    }
    let next_seq = || shared.trace_seq.fetch_add(1, Ordering::Relaxed);
    match shared.tracer.ingress_span(trace_wire, next_seq) {
        Some(request) => EntryTrace::Sampled {
            request,
            hop_span: 0,
        },
        None => EntryTrace::Forward(TraceDecision::Unsampled),
    }
}

/// Admits one request line — a singleton job or a batch: one trace
/// decision and one shared deadline for the whole line, each item's
/// routing key computed once, then the items are split by owning shard
/// and dispatched as per-shard sub-batches ([`route`]).
fn admit(shared: &Arc<Shared>, job: JobLine, reply: &Outbox) {
    let admitted = Instant::now();
    let trace = resolve_entry_trace(shared, job.trace);
    let deadline = job
        .deadline_ms
        .filter(|&budget| budget > 0)
        .map(|budget| admitted + Duration::from_millis(budget));
    let total = job.specs.len();
    let keyed: Vec<(u64, Option<ScheduleKey>)> = job
        .specs
        .iter()
        .map(|spec| {
            let schedule_key = schedule_key_for(spec, shared.fabric);
            (route_hash(spec, schedule_key.as_ref()), schedule_key)
        })
        .collect();
    {
        // Reshard prewarming needs the real schedule key behind each
        // routing hash, not just the hash.
        let mut seen = shared.seen_keys.lock().expect("seen keys");
        for &(key, schedule_key) in &keyed {
            if seen.len() < SEEN_KEYS_CAP && !seen.contains_key(&key) {
                seen.insert(key, schedule_key);
            }
        }
    }
    shared
        .tally
        .accepted
        .fetch_add(total as u64, Ordering::Relaxed);
    shared
        .recorder
        .gauge_add("drift_router_inflight_requests", &[], total as i64);
    let request = Arc::new(ClientRequest {
        response: ResponseAssembler::new(job.id, job.single, total),
        admitted,
        deadline,
        trace,
        reply: reply.clone(),
    });
    let items = Routing {
        positions: (0..total).collect(),
        keys: keyed.into_iter().map(|(key, _)| key).collect(),
        specs: job.specs,
        tried: Vec::new(),
        hops: 0,
    };
    route(shared, &request, items);
}

/// Executes a `{"control":"reshard","shards":[...],"vnodes":K}`
/// operation: quiesce admissions, wait for in-flight work to drain,
/// swap the ring (reusing live connections to retained shards), and
/// report how many tracked keys changed owner. Returns the ack line.
fn reshard(shared: &Arc<Shared>, value: &Value) -> String {
    // Every nack reason below is ASCII with no quote or backslash, so
    // plain quoting is valid JSON.
    let nack =
        |reason: &str| format!("{{\"control\":\"reshard\",\"ok\":false,\"error\":\"{reason}\"}}");
    let Some(shards) = value.get("shards").and_then(Value::as_seq) else {
        return nack("reshard needs a shards array");
    };
    let mut unique: Vec<String> = Vec::new();
    for shard in shards {
        let Value::Str(addr) = shard else {
            return nack("shard addresses must be strings");
        };
        if addr.is_empty() {
            return nack("shard addresses must be non-empty");
        }
        if !unique.contains(addr) {
            unique.push(addr.clone());
        }
    }
    if unique.is_empty() {
        return nack("reshard needs at least one shard");
    }
    let _gate = shared.reshard_gate.lock().expect("reshard gate");
    if shared.should_stop() {
        return nack("router is stopping");
    }
    let vnodes = match value.get("vnodes") {
        Some(Value::U64(v)) => usize::try_from(*v).unwrap_or(usize::MAX).max(1),
        Some(Value::I64(v)) if *v > 0 => usize::try_from(*v).unwrap_or(usize::MAX),
        _ => shared.config.vnodes,
    };
    // Checked before the quiesce: the ring is built under the table's
    // write lock, where a failed allocation would poison the lock and
    // leave admissions held for good.
    if vnodes > MAX_VNODES {
        return nack(&format!("vnodes must be at most {MAX_VNODES}"));
    }
    if unique.len() * vnodes > MAX_RING_POINTS {
        return nack(&format!(
            "the ring may hold at most {MAX_RING_POINTS} points"
        ));
    }

    // Quiesce: block new admissions, then wait for in-flight work to
    // drain through the shard readers.
    shared.resharding.store(true, Ordering::SeqCst);
    let quiesce_start = Instant::now();
    loop {
        if shared.pending.lock().expect("pending table").is_empty() {
            break;
        }
        if quiesce_start.elapsed() > QUIESCE_TIMEOUT {
            shared.resharding.store(false, Ordering::SeqCst);
            return nack("quiesce timed out with jobs still in flight");
        }
        if shared.stop.load(Ordering::Relaxed) {
            shared.resharding.store(false, Ordering::SeqCst);
            return nack("router is stopping");
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let (moved, moving, tracked, retired, added) = {
        let mut table = shared.table.write().expect("routing table");
        let new_ring = HashRing::new(&unique, vnodes);
        let seen = shared.seen_keys.lock().expect("seen keys");
        let mut moved = 0u64;
        // The moved keys whose schedules can be pushed to their new
        // owner: jobs without a schedule key have nothing to prewarm.
        let mut moving: Vec<(ScheduleKey, String)> = Vec::new();
        for (&key, schedule_key) in seen.iter() {
            let old = table
                .ring
                .primary(key)
                .map(|i| table.ring.shards()[i].as_str());
            let new = new_ring.primary(key).map(|i| new_ring.shards()[i].as_str());
            if old == new {
                continue;
            }
            moved += 1;
            if let (Some(schedule_key), Some(new_addr)) = (schedule_key, new) {
                if moving.len() < PREWARM_KEYS_CAP {
                    moving.push((*schedule_key, new_addr.to_string()));
                }
            }
        }
        let tracked = seen.len() as u64;
        drop(seen);
        let mut added = 0u64;
        let new_links: Vec<Arc<ShardLink>> = new_ring
            .shards()
            .iter()
            .map(|addr| {
                if let Some(existing) = table.links.iter().find(|l| &l.addr == addr) {
                    Arc::clone(existing)
                } else {
                    added += 1;
                    ShardLink::unconnected(addr)
                }
            })
            .collect();
        let mut retired = 0u64;
        for old in &table.links {
            if !new_ring.shards().contains(&old.addr) {
                retired += 1;
                old.retired.store(true, Ordering::SeqCst);
                old.healthy.store(false, Ordering::SeqCst);
                close_link(old);
            }
        }
        *table = Table {
            ring: new_ring,
            links: new_links,
        };
        (moved, moving, tracked, retired, added)
    };
    // Connect newly added shards outside the table write lock.
    {
        let links = shared.table.read().expect("routing table").links.clone();
        for link in links {
            if !link.healthy.load(Ordering::SeqCst) && !link.retired.load(Ordering::SeqCst) {
                let _ = connect_shard(shared, &link);
            }
        }
    }
    // Still quiesced: push moved schedules to their new owners so the
    // first post-reshard request hits a warm cache instead of paying a
    // cold solve on every relocated key.
    let prewarmed = prewarm_moved_keys(shared, moving);
    shared.refresh_healthy_gauge();
    shared.tally.reshards.fetch_add(1, Ordering::Relaxed);
    shared
        .recorder
        .counter_add("drift_router_reshard_moved_keys_total", &[], moved);
    shared.resharding.store(false, Ordering::SeqCst);
    format!(
        "{{\"control\":\"reshard\",\"ok\":true,\"shards\":{},\"added\":{added},\"retired\":{retired},\
         \"moved_keys\":{moved},\"tracked_keys\":{tracked},\"prewarmed_keys\":{prewarmed}}}",
        unique.len()
    )
}

/// Solves the moved keys and pushes each group to its new owning shard
/// over a short-lived connection (prewarm acks would be noise on the
/// pipelined data connections). Solving here costs the router one
/// Eq. 8 sweep per key — exactly the sweep the new owner would
/// otherwise run on its first miss, but off the request path. Wholly
/// best-effort: an unreachable or refusing shard just misses its
/// warm-up and re-solves lazily.
fn prewarm_moved_keys(shared: &Shared, moving: Vec<(ScheduleKey, String)>) -> u64 {
    if moving.is_empty() {
        return 0;
    }
    let mut by_shard: HashMap<String, Vec<(ScheduleKey, Schedule)>> = HashMap::new();
    for (key, addr) in moving {
        // Pure solve — byte-identical to what the new owner would
        // compute itself, so prewarming never changes a response.
        if let Ok(schedule) = key.solve() {
            by_shard.entry(addr).or_default().push((key, schedule));
        }
    }
    let mut prewarmed = 0u64;
    for (addr, entries) in by_shard {
        let pushed = control_connection(&addr)
            .ok()
            .and_then(|mut client| client.prewarm(&entries).ok());
        if pushed == Some(true) {
            prewarmed += entries.len() as u64;
        }
    }
    if prewarmed > 0 {
        shared
            .recorder
            .counter_add("drift_router_prewarm_keys_total", &[], prewarmed);
    }
    prewarmed
}

/// Opens a short-lived connection to `addr` for a health probe's ping or
/// a prewarm push: the connect, and each later read and write, are
/// bounded by [`CONNECT_TIMEOUT`], so a shard that accepts and never
/// answers fails the call instead of blocking it for good.
fn control_connection(addr: &str) -> io::Result<Client> {
    let client = Client::connect_with_timeout(addr, CONNECT_TIMEOUT)?;
    client.set_timeout(CONNECT_TIMEOUT)?;
    Ok(client)
}

/// The health-probe thread. Each pass pings every shard over a fresh
/// [`control_connection`] (catching processes that hang, or accept and
/// never answer, without closing the data socket), and re-connects
/// unhealthy shards, re-admitting them once they answer again. It also
/// writes a ping on each healthy data link ([`keepalive`]). A pass runs
/// every `probe_interval_ms`, and at least every half [`IDLE_TIMEOUT`].
fn probe_loop(shared: &Arc<Shared>) {
    let interval = Duration::from_millis(shared.config.probe_interval_ms).min(IDLE_TIMEOUT / 2);
    let mut last = Instant::now();
    while !shared.stop.load(Ordering::Relaxed) {
        if last.elapsed() < interval {
            std::thread::sleep(READ_TICK.min(interval));
            continue;
        }
        last = Instant::now();
        let links = shared.table.read().expect("routing table").links.clone();
        for link in links {
            if shared.stop.load(Ordering::Relaxed) {
                break;
            }
            if link.retired.load(Ordering::Relaxed) {
                continue;
            }
            // Health and readmission both take a ping: a shard that
            // accepts connections and then drops them stays out.
            let acked = control_connection(&link.addr)
                .ok()
                .and_then(|mut c| c.ping().ok())
                .unwrap_or(false);
            if link.healthy.load(Ordering::SeqCst) {
                if acked {
                    keepalive(&link);
                } else {
                    // Ejection closes the data socket, which wakes
                    // the shard reader; its exit path fails the
                    // in-flight jobs over to the ring successors.
                    eject(shared, &link);
                }
            } else if acked && connect_shard(shared, &link).is_ok() {
                shared.tally.readmissions.fetch_add(1, Ordering::Relaxed);
                shared.recorder.counter_add(
                    "drift_router_shard_readmissions_total",
                    &[("shard", &link.addr)],
                    1,
                );
                shared.refresh_healthy_gauge();
            }
        }
    }
}

/// Writes a ping on `link`'s data connection, so that a link no job
/// has used for [`IDLE_TIMEOUT`] is not closed by its gateway, and
/// ejected here, for idling. [`on_backend_response`] drops the ack. A
/// dispatch holding the writer is traffic enough: then nothing is sent.
fn keepalive(link: &ShardLink) {
    if let Ok(mut writer) = link.writer.try_lock() {
        if let Some(writer) = writer.as_mut() {
            let _ = writer.send_raw(&protocol::control_line(ControlOp::Ping));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_budget_rounds_up_instead_of_truncating() {
        let now = Instant::now();
        // 2.5 ms of slack must forward as 3 ms, not 2: truncation made
        // the backend's re-derived deadline tighter than the client's,
        // so sub-millisecond slack expired spuriously downstream.
        assert_eq!(
            remaining_budget_ms(now + Duration::from_micros(2_500), now),
            3
        );
        // Whole milliseconds are untouched.
        assert_eq!(remaining_budget_ms(now + Duration::from_millis(7), now), 7);
        // Sub-millisecond slack is still a live budget: 1, never 0
        // (deadline_ms:0 would mean "no deadline" on the wire).
        assert_eq!(
            remaining_budget_ms(now + Duration::from_micros(300), now),
            1
        );
        // An already-passed deadline saturates to the minimum; the
        // caller's expiry check on exact Instants fires first anyway.
        assert_eq!(remaining_budget_ms(now, now), 1);
    }

    #[test]
    fn batch_budget_decrements_once_per_hop_not_per_item() {
        let now = Instant::now();
        let deadline = Some(now + Duration::from_millis(40));
        // Every sub-batch of a split dispatched in the same hop
        // forwards the same remainder — the item count never divides
        // or multiplies the budget.
        let forwarded = batch_remaining_budget_ms(deadline, now);
        assert_eq!(forwarded, Some(40));
        for _sub_batch_of_any_size in 0..3 {
            assert_eq!(batch_remaining_budget_ms(deadline, now), forwarded);
        }
        // A later hop is charged the elapsed wall time exactly once.
        let later = now + Duration::from_millis(15);
        assert_eq!(batch_remaining_budget_ms(deadline, later), Some(25));
        // No deadline forwards no budget, matching the singleton path.
        assert_eq!(batch_remaining_budget_ms(None, now), None);
    }
}
