//! The gateway wire protocol: newline-delimited JSON over TCP.
//!
//! One request per line in, one response per line out. The request
//! format is a strict superset of the [`JobSpec`] JSONL format
//! `drift serve` reads — a plain job line is a valid request — plus an
//! optional `deadline_ms` budget and a `control` escape hatch:
//!
//! ```text
//! {"id":0,"seed":7,"kind":{"Schedule":{"m":512,"k":768,"n":768,"fa":0.2,"fw":0.1}}}
//! {"id":1,"seed":9,"kind":{"Simulate":{...}},"deadline_ms":250}
//! {"id":2,"batch":[{"id":10,...},{"id":11,...}],"deadline_ms":500}
//! {"control":"ping"}
//! {"control":"shutdown"}
//! ```
//!
//! A **batch** line submits several jobs as one atomically-admitted
//! unit (all-or-shed, one shared deadline) and is answered by exactly
//! one `{"id":2,"batch":[item,...]}` response whose items are, byte
//! for byte, the singleton responses the same jobs would have
//! received, in submission order.
//!
//! Success responses are [`JobResult`] lines, byte-identical to the
//! offline `drift serve` output for the same job. Failure responses are
//! flat error objects (`{"id":N,"error":"overloaded"}`); control lines
//! are acknowledged as `{"control":"ping","ok":true}`. Responses to
//! pipelined requests may arrive out of order — clients correlate by
//! `id`. The full contract lives in `docs/SERVING.md`.
//!
//! Requests may additionally carry distributed-tracing fields: a
//! `trace_id` of 32 hex digits plus an optional `trace_span` (the
//! sender's 16-hex span id, the parent of work done here) mark the
//! request as head-sampled; an **empty** `trace_id` (`"trace_id":""`)
//! records that an upstream edge decided *not* to sample, so receivers
//! must not re-decide; absent fields leave the decision to the
//! receiver. Untraced request lines are byte-identical to the
//! pre-tracing format. See `docs/OBSERVABILITY.md` § Tracing.

use drift_core::schedule::{Schedule, ScheduleKey};
use drift_obs::trace::{parse_span_id, span_id_hex};
use drift_obs::{TraceContext, TraceDecision, TraceId};
use drift_serve::job::{JobResult, JobSpec};
use serde::{Deserialize, Serialize, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Error code: the queue was full and the request was shed.
pub const ERR_OVERLOADED: &str = "overloaded";
/// Error code: the request's deadline passed before its response.
pub const ERR_DEADLINE: &str = "deadline_exceeded";
/// Error code: the request line did not parse as a job or control line.
pub const ERR_BAD_REQUEST: &str = "bad_request";
/// Error code: the request was shed at admission because its deadline
/// budget was below the gateway's current service-time estimate — it
/// could not have met its deadline even with an empty queue.
pub const ERR_UNMEETABLE: &str = "deadline_unmeetable";

/// A control operation carried on a `{"control":...}` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOp {
    /// Liveness probe; acknowledged immediately.
    Ping,
    /// Begin a graceful drain: stop accepting, flush in-flight work,
    /// then exit.
    Shutdown,
}

impl ControlOp {
    /// The wire name of the operation.
    pub fn name(self) -> &'static str {
        match self {
            ControlOp::Ping => "ping",
            ControlOp::Shutdown => "shutdown",
        }
    }
}

/// A parsed job line: one job in the `drift serve` JSONL format, or a
/// `{"id":N,"batch":[spec,...]}` batch admitted as one unit and answered
/// with one line (`docs/SERVING.md` § Batch requests). A singleton is a
/// batch of one answered without the envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct JobLine {
    /// The singleton's job id, or the batch correlation id echoed on
    /// the response (independent of the item job ids inside).
    pub id: u64,
    /// The jobs, in submission order; never empty.
    pub specs: Vec<JobSpec>,
    /// A singleton line: answered with its item's line, not a batch
    /// envelope.
    pub single: bool,
    /// One latency budget in milliseconds shared by every item, measured
    /// from admission; overrides the server's default.
    pub deadline_ms: Option<u64>,
    /// The upstream head-sampling decision carried on the wire
    /// (`trace_id`/`trace_span` fields; absent → `Undecided`).
    pub trace: TraceDecision,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A job line: a singleton or a batch.
    Job(JobLine),
    /// A control line.
    Control(ControlOp),
    /// A `{"control":"prewarm","entries":[...]}` line carrying solved
    /// schedules for the cache — sent by the router for moved keys
    /// during a live reshard, or by tooling seeding a cold gateway (see
    /// `docs/PERSISTENCE.md`). Prewarmed entries are inserted without
    /// counting hits/misses and are never re-appended to a store.
    Prewarm(Vec<(ScheduleKey, Schedule)>),
    /// A `{"control":"reshard","shards":[...],"vnodes":K}` line, carried
    /// as parsed: only the router acts on it, and it validates the
    /// fields itself (`docs/SERVING.md` § Resharding).
    Reshard(Value),
}

/// One parsed response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job completed; the payload is the same [`JobResult`] the
    /// offline runtime would produce.
    Result(JobResult),
    /// The gateway refused or failed the request.
    Error {
        /// The request's id, when the gateway could recover it.
        id: Option<u64>,
        /// One of [`ERR_OVERLOADED`], [`ERR_DEADLINE`],
        /// [`ERR_UNMEETABLE`], [`ERR_BAD_REQUEST`].
        error: String,
    },
    /// A control acknowledgement.
    Control {
        /// The acknowledged operation name.
        op: String,
        /// Whether the gateway accepted the operation.
        ok: bool,
        /// The server's queue discipline (`"fifo"` / `"edf"`), carried
        /// on gateway ping acks so the router's health probes learn
        /// each shard's policy. Absent on other acks and on routers'
        /// own ping acks.
        queue: Option<String>,
    },
    /// The single response to a batch request: the echoed batch id and
    /// one item per submitted job, in submission order. Each item is a
    /// [`Response::Result`] or [`Response::Error`], byte-identical in
    /// payload to the line the same job would get submitted singly.
    Batch {
        /// The batch id from the request.
        id: u64,
        /// Per-item responses in submission order.
        items: Vec<Response>,
    },
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, unknown control
/// operations, bad `deadline_ms` values, or job specs that do not
/// match the [`JobSpec`] schema.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    if let Some(op) = value.get("control") {
        let op = match op {
            Value::Str(s) => s.as_str(),
            other => return Err(format!("control must be a string, got {}", other.kind())),
        };
        return match op {
            "ping" => Ok(Request::Control(ControlOp::Ping)),
            "shutdown" => Ok(Request::Control(ControlOp::Shutdown)),
            "prewarm" => parse_prewarm_entries(&value).map(Request::Prewarm),
            "reshard" => Ok(Request::Reshard(value)),
            other => Err(format!("unknown control operation '{other}'")),
        };
    }
    let deadline_ms = match value.get("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(v) => Some(u64::from_value(v).map_err(|e| format!("deadline_ms: {e}"))?),
    };
    let trace = parse_trace_fields(&value)?;
    if let Some((id, items)) = batch_envelope(&value)? {
        if items.is_empty() {
            return Err("batch must contain at least one job".to_string());
        }
        let specs = items
            .iter()
            .enumerate()
            .map(|(i, item)| JobSpec::from_value(item).map_err(|e| format!("batch item {i}: {e}")))
            .collect::<Result<Vec<JobSpec>, String>>()?;
        return Ok(Request::Job(JobLine {
            id,
            specs,
            single: false,
            deadline_ms,
            trace,
        }));
    }
    let spec = JobSpec::from_value(&value).map_err(|e| e.to_string())?;
    Ok(Request::Job(JobLine {
        id: spec.id,
        specs: vec![spec],
        single: true,
        deadline_ms,
        trace,
    }))
}

/// The id and items of a `{"id":N,"batch":[...]}` envelope (a batch
/// request or response line), or `None` when `value` has no `batch`.
fn batch_envelope(value: &Value) -> Result<Option<(u64, &[Value])>, String> {
    let Some(batch) = value.get("batch") else {
        return Ok(None);
    };
    let Value::Seq(items) = batch else {
        return Err(format!("batch must be an array, got {}", batch.kind()));
    };
    let id = value.get("id").ok_or("batch requires an id")?;
    let id = u64::from_value(id).map_err(|e| format!("batch id: {e}"))?;
    Ok(Some((id, items)))
}

/// Decodes the `entries` array of a prewarm control line: each element
/// is `{"key":<ScheduleKey>,"schedule":<Schedule>}`.
fn parse_prewarm_entries(value: &Value) -> Result<Vec<(ScheduleKey, Schedule)>, String> {
    let entries = match value.get("entries") {
        Some(Value::Seq(seq)) => seq,
        Some(other) => return Err(format!("entries must be an array, got {}", other.kind())),
        None => return Err("prewarm requires an entries array".to_string()),
    };
    entries
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let key = item
                .get("key")
                .ok_or_else(|| format!("entry {i}: missing key"))?;
            let schedule = item
                .get("schedule")
                .ok_or_else(|| format!("entry {i}: missing schedule"))?;
            Ok((
                ScheduleKey::from_value(key).map_err(|e| format!("entry {i} key: {e}"))?,
                Schedule::from_value(schedule).map_err(|e| format!("entry {i} schedule: {e}"))?,
            ))
        })
        .collect()
}

/// Decodes the optional `trace_id`/`trace_span` request fields into a
/// [`TraceDecision`].
fn parse_trace_fields(value: &Value) -> Result<TraceDecision, String> {
    let id = match value.get("trace_id") {
        None | Some(Value::Null) => return Ok(TraceDecision::Undecided),
        Some(Value::Str(s)) => s.as_str(),
        Some(other) => return Err(format!("trace_id must be a string, got {}", other.kind())),
    };
    if id.is_empty() {
        return Ok(TraceDecision::Unsampled);
    }
    let trace_id =
        TraceId::parse(id).ok_or_else(|| format!("trace_id must be 32 hex digits, got '{id}'"))?;
    let parent_span = match value.get("trace_span") {
        None | Some(Value::Null) => None,
        Some(Value::Str(s)) => Some(
            parse_span_id(s)
                .ok_or_else(|| format!("trace_span must be 16 hex digits, got '{s}'"))?,
        ),
        Some(other) => return Err(format!("trace_span must be a string, got {}", other.kind())),
    };
    Ok(TraceDecision::Sampled(TraceContext {
        trace_id,
        parent_span,
    }))
}

/// Renders a job request line (no trailing newline). Without a
/// deadline the line is byte-identical to the `drift serve` JobSpec
/// JSONL format.
pub fn request_line(spec: &JobSpec, deadline_ms: Option<u64>) -> String {
    request_line_traced(spec, deadline_ms, &TraceDecision::Undecided)
}

/// Renders a job request line carrying a sampling decision. An
/// `Undecided` decision adds no fields (the line is identical to
/// [`request_line`]); `Unsampled` adds `"trace_id":""`; `Sampled` adds
/// the hex `trace_id` and, when the context has a parent, the sender's
/// `trace_span`.
pub fn request_line_traced(
    spec: &JobSpec,
    deadline_ms: Option<u64>,
    trace: &TraceDecision,
) -> String {
    let mut value = spec.to_value();
    if let Value::Map(entries) = &mut value {
        push_line_fields(entries, deadline_ms, trace);
    }
    render(&value)
}

/// Appends a job line's optional fields: the deadline budget and the
/// sampling decision.
fn push_line_fields(
    entries: &mut Vec<(String, Value)>,
    deadline_ms: Option<u64>,
    trace: &TraceDecision,
) {
    if let Some(ms) = deadline_ms {
        entries.push(("deadline_ms".to_string(), ms.to_value()));
    }
    match trace {
        TraceDecision::Undecided => {}
        TraceDecision::Unsampled => {
            entries.push(("trace_id".to_string(), Value::Str(String::new())));
        }
        TraceDecision::Sampled(ctx) => {
            entries.push(("trace_id".to_string(), Value::Str(ctx.trace_id.to_string())));
            if let Some(parent) = ctx.parent_span {
                entries.push(("trace_span".to_string(), Value::Str(span_id_hex(parent))));
            }
        }
    }
}

/// Renders a batch request line, e.g.
/// `{"id":3,"batch":[{...},{...}],"deadline_ms":250}` (no trailing
/// newline). The elements of `batch` are exactly the singleton request
/// payloads for the same specs.
pub fn batch_request_line(id: u64, specs: &[JobSpec], deadline_ms: Option<u64>) -> String {
    batch_request_line_traced(id, specs, deadline_ms, &TraceDecision::Undecided)
}

/// [`batch_request_line`] carrying a sampling decision for the whole
/// batch, with the same field semantics as [`request_line_traced`].
pub fn batch_request_line_traced(
    id: u64,
    specs: &[JobSpec],
    deadline_ms: Option<u64>,
    trace: &TraceDecision,
) -> String {
    let mut entries = vec![
        ("id".to_string(), id.to_value()),
        (
            "batch".to_string(),
            Value::Seq(specs.iter().map(|s| s.to_value()).collect()),
        ),
    ];
    push_line_fields(&mut entries, deadline_ms, trace);
    render(&Value::Map(entries))
}

/// Assembles the one-line response to a batch request from the
/// already-rendered per-item response payloads, in submission order.
/// Splicing pre-rendered lines (rather than re-building a value tree)
/// keeps each item byte-identical to the singleton response for the
/// same job and avoids re-serialising results on the hot path.
pub fn batch_response_line(id: u64, items: &[String]) -> String {
    let mut line = String::with_capacity(24 + items.iter().map(|i| i.len() + 1).sum::<usize>());
    line.push_str("{\"id\":");
    line.push_str(&id.to_string());
    line.push_str(",\"batch\":[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(item);
    }
    line.push_str("]}");
    line
}

/// The response to one admitted job line, assembled from its items'
/// rendered lines as they settle, in any order and from any thread, into
/// the client's submission order: a singleton's item line, or a batch's
/// [`batch_response_line`] envelope.
#[derive(Debug)]
pub struct ResponseAssembler {
    /// The singleton's job id, or the batch id.
    pub id: u64,
    /// A singleton line: answered without the batch envelope.
    pub single: bool,
    slots: Mutex<Vec<Option<String>>>,
    remaining: AtomicUsize,
}

impl ResponseAssembler {
    /// An assembler for a line of `items` jobs (at least one).
    pub fn new(id: u64, single: bool, items: usize) -> Self {
        ResponseAssembler {
            id,
            single,
            slots: Mutex::new(vec![None; items]),
            remaining: AtomicUsize::new(items),
        }
    }

    /// How many items the line carries.
    pub fn items(&self) -> usize {
        self.slots.lock().expect("response slots").len()
    }

    /// Fills item `pos` (its submission position) with its rendered
    /// `line`. Whoever fills the last empty slot gets the response line.
    pub fn settle(&self, pos: usize, line: String) -> Option<String> {
        let mut slots = self.slots.lock().expect("response slots");
        debug_assert!(slots[pos].is_none(), "response slot settled twice");
        slots[pos] = Some(line);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        let mut items: Vec<String> = slots
            .iter_mut()
            .map(|slot| slot.take().expect("all response slots settled"))
            .collect();
        Some(if self.single {
            items.swap_remove(0)
        } else {
            batch_response_line(self.id, &items)
        })
    }
}

/// Renders a protocol value tree; the protocol's values never contain
/// non-finite floats, so serialization cannot fail.
fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("protocol lines contain only finite numbers")
}

/// Renders a control request line.
pub fn control_line(op: ControlOp) -> String {
    render(&Value::Map(vec![(
        "control".to_string(),
        Value::Str(op.name().to_string()),
    )]))
}

/// Renders a prewarm control line carrying solved schedules.
pub fn prewarm_line(entries: &[(ScheduleKey, Schedule)]) -> String {
    let items: Vec<Value> = entries
        .iter()
        .map(|(key, schedule)| {
            Value::Map(vec![
                ("key".to_string(), key.to_value()),
                ("schedule".to_string(), schedule.to_value()),
            ])
        })
        .collect();
    render(&Value::Map(vec![
        ("control".to_string(), Value::Str("prewarm".to_string())),
        ("entries".to_string(), Value::Seq(items)),
    ]))
}

/// Renders a prewarm acknowledgement,
/// e.g. `{"control":"prewarm","ok":true,"inserted":12}`. The `inserted`
/// count is informational (generic control parsing ignores it).
pub fn prewarm_ack_line(ok: bool, inserted: u64) -> String {
    render(&Value::Map(vec![
        ("control".to_string(), Value::Str("prewarm".to_string())),
        ("ok".to_string(), Value::Bool(ok)),
        ("inserted".to_string(), inserted.to_value()),
    ]))
}

/// Renders an error response line, e.g. `{"id":3,"error":"overloaded"}`.
pub fn error_line(id: Option<u64>, error: &str) -> String {
    let mut entries = Vec::with_capacity(2);
    if let Some(id) = id {
        entries.push(("id".to_string(), id.to_value()));
    }
    entries.push(("error".to_string(), Value::Str(error.to_string())));
    render(&Value::Map(entries))
}

/// Renders a control acknowledgement line.
pub fn control_ack_line(op: ControlOp, ok: bool) -> String {
    render(&Value::Map(vec![
        ("control".to_string(), Value::Str(op.name().to_string())),
        ("ok".to_string(), Value::Bool(ok)),
    ]))
}

/// Renders a gateway ping acknowledgement advertising the server's
/// queue discipline, e.g. `{"control":"ping","ok":true,"queue":"edf"}`.
pub fn ping_ack_line(ok: bool, queue: &str) -> String {
    render(&Value::Map(vec![
        (
            "control".to_string(),
            Value::Str(ControlOp::Ping.name().to_string()),
        ),
        ("ok".to_string(), Value::Bool(ok)),
        ("queue".to_string(), Value::Str(queue.to_string())),
    ]))
}

/// Parses one response line into a [`Response`].
///
/// # Errors
///
/// Returns a message when the line is not valid JSON or matches none of
/// the three response shapes.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    if let Some(op) = value.get("control") {
        let op = match op {
            Value::Str(s) => s.clone(),
            other => return Err(format!("control must be a string, got {}", other.kind())),
        };
        let ok = matches!(value.get("ok"), Some(Value::Bool(true)));
        let queue = match value.get("queue") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        return Ok(Response::Control { op, ok, queue });
    }
    if let Some((id, items)) = batch_envelope(&value)? {
        let items = items
            .iter()
            .enumerate()
            .map(|(i, item)| parse_response_item(item).map_err(|e| format!("batch item {i}: {e}")))
            .collect::<Result<Vec<Response>, String>>()?;
        return Ok(Response::Batch { id, items });
    }
    parse_response_item(&value)
}

/// Parses a result-or-error response payload — the shape shared by a
/// singleton response line and each element of a batch response.
fn parse_response_item(value: &Value) -> Result<Response, String> {
    if let Some(err) = value.get("error") {
        let error = match err {
            Value::Str(s) => s.clone(),
            other => return Err(format!("error must be a string, got {}", other.kind())),
        };
        let id = match value.get("id") {
            None | Some(Value::Null) => None,
            Some(v) => Some(u64::from_value(v).map_err(|e| format!("id: {e}"))?),
        };
        return Ok(Response::Error { id, error });
    }
    JobResult::from_value(value)
        .map(Response::Result)
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use drift_serve::job::{result_line, JobKind, JobOutcome};

    fn spec() -> JobSpec {
        JobSpec {
            id: 7,
            seed: 3,
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
    fn job_requests_round_trip_with_and_without_deadline() {
        let plain = request_line(&spec(), None);
        // Without a deadline the request is exactly the serve format.
        assert_eq!(plain, serde_json::to_string(&spec()).unwrap());
        assert_eq!(
            parse_request(&plain).unwrap(),
            Request::Job(JobLine {
                id: 7,
                specs: vec![spec()],
                single: true,
                deadline_ms: None,
                trace: TraceDecision::Undecided
            })
        );
        let budgeted = request_line(&spec(), Some(250));
        assert!(budgeted.contains("\"deadline_ms\":250"));
        assert_eq!(
            parse_request(&budgeted).unwrap(),
            Request::Job(JobLine {
                id: 7,
                specs: vec![spec()],
                single: true,
                deadline_ms: Some(250),
                trace: TraceDecision::Undecided
            })
        );
    }

    #[test]
    fn trace_fields_round_trip() {
        // Undecided adds nothing: byte-identical to the plain line.
        assert_eq!(
            request_line_traced(&spec(), None, &TraceDecision::Undecided),
            request_line(&spec(), None)
        );
        // Decided-unsampled is the empty trace id.
        let unsampled = request_line_traced(&spec(), Some(100), &TraceDecision::Unsampled);
        assert!(unsampled.contains("\"trace_id\":\"\""));
        assert!(matches!(
            parse_request(&unsampled).unwrap(),
            Request::Job(JobLine {
                trace: TraceDecision::Unsampled,
                ..
            })
        ));
        // Sampled carries the trace id and the sender's span id.
        let ctx = TraceContext {
            trace_id: TraceId(0xabcd_0123),
            parent_span: Some(0xfeed),
        };
        let sampled = request_line_traced(&spec(), None, &TraceDecision::Sampled(ctx));
        assert!(sampled.contains(&format!("\"trace_id\":\"{}\"", ctx.trace_id)));
        assert!(sampled.contains(&format!("\"trace_span\":\"{}\"", span_id_hex(0xfeed))));
        match parse_request(&sampled).unwrap() {
            Request::Job(job) => assert_eq!(job.trace, TraceDecision::Sampled(ctx)),
            other => panic!("expected a job, got {other:?}"),
        }
        // A sampled root (no parent yet) omits trace_span.
        let root = request_line_traced(
            &spec(),
            None,
            &TraceDecision::Sampled(TraceContext {
                trace_id: TraceId(5),
                parent_span: None,
            }),
        );
        assert!(!root.contains("trace_span"));
        // Malformed hex is rejected with a pointed message.
        let err = parse_request("{\"id\":1,\"seed\":2,\"kind\":{\"Select\":{\"tokens\":4,\"hidden\":8,\"delta\":0.1,\"profile\":\"bert\"}},\"trace_id\":\"zz\"}")
            .unwrap_err();
        assert!(err.contains("trace_id"), "{err}");
    }

    #[test]
    fn control_lines_round_trip() {
        for op in [ControlOp::Ping, ControlOp::Shutdown] {
            let req = parse_request(&control_line(op)).unwrap();
            assert_eq!(req, Request::Control(op));
            let ack = parse_response(&control_ack_line(op, true)).unwrap();
            assert_eq!(
                ack,
                Response::Control {
                    op: op.name().to_string(),
                    ok: true,
                    queue: None
                }
            );
        }
        assert!(parse_request("{\"control\":\"reboot\"}").is_err());
    }

    #[test]
    fn ping_acks_advertise_the_queue_policy() {
        let line = ping_ack_line(true, "edf");
        assert_eq!(line, "{\"control\":\"ping\",\"ok\":true,\"queue\":\"edf\"}");
        assert_eq!(
            parse_response(&line).unwrap(),
            Response::Control {
                op: "ping".to_string(),
                ok: true,
                queue: Some("edf".to_string())
            }
        );
        // Plain acks (and pre-queue servers) parse with no policy.
        assert_eq!(
            parse_response(&control_ack_line(ControlOp::Ping, true)).unwrap(),
            Response::Control {
                op: "ping".to_string(),
                ok: true,
                queue: None
            }
        );
    }

    #[test]
    fn prewarm_lines_round_trip() {
        use drift_quant::Precision;
        let key = ScheduleKey {
            shape: drift_accel::gemm::GemmShape::new(64, 256, 64).unwrap(),
            act_high: 16,
            weight_high: 8,
            act_precisions: (Precision::INT8, Precision::INT4),
            weight_precisions: (Precision::INT8, Precision::INT4),
            fabric: drift_accel::systolic::ArrayGeometry::new(8, 9).unwrap(),
        };
        let entries = vec![(key, key.solve().unwrap())];
        let line = prewarm_line(&entries);
        assert!(line.starts_with("{\"control\":\"prewarm\""));
        match parse_request(&line).unwrap() {
            Request::Prewarm(parsed) => assert_eq!(parsed, entries),
            other => panic!("expected a prewarm, got {other:?}"),
        }
        // An empty batch is legal (a reshard may move zero tracked keys).
        assert_eq!(
            parse_request(&prewarm_line(&[])).unwrap(),
            Request::Prewarm(Vec::new())
        );
        // Malformed batches are rejected with pointed messages.
        assert!(parse_request("{\"control\":\"prewarm\"}").is_err());
        assert!(parse_request("{\"control\":\"prewarm\",\"entries\":7}").is_err());
        assert!(parse_request("{\"control\":\"prewarm\",\"entries\":[{\"key\":1}]}").is_err());
        // The ack parses as a generic control acknowledgement.
        let ack = parse_response(&prewarm_ack_line(true, 12)).unwrap();
        assert_eq!(
            ack,
            Response::Control {
                op: "prewarm".to_string(),
                ok: true,
                queue: None
            }
        );
    }

    #[test]
    fn error_lines_round_trip() {
        let line = error_line(Some(9), ERR_OVERLOADED);
        assert_eq!(line, "{\"id\":9,\"error\":\"overloaded\"}");
        assert_eq!(
            parse_response(&line).unwrap(),
            Response::Error {
                id: Some(9),
                error: ERR_OVERLOADED.to_string()
            }
        );
        let anon = error_line(None, ERR_BAD_REQUEST);
        assert_eq!(
            parse_response(&anon).unwrap(),
            Response::Error {
                id: None,
                error: ERR_BAD_REQUEST.to_string()
            }
        );
    }

    #[test]
    fn result_responses_parse_as_results() {
        let result = JobResult {
            id: 4,
            outcome: JobOutcome::Schedule {
                makespan: 100,
                latencies: [1, 2, 3, 4],
            },
        };
        assert_eq!(
            parse_response(&result_line(&result)).unwrap(),
            Response::Result(result)
        );
        // A job-level error outcome is still a Result, not a gateway
        // error: the job ran, its payload says it failed.
        let failed = JobResult {
            id: 5,
            outcome: JobOutcome::Error {
                message: "bad shape".to_string(),
            },
        };
        assert!(matches!(
            parse_response(&result_line(&failed)).unwrap(),
            Response::Result(_)
        ));
    }

    #[test]
    fn batch_requests_round_trip() {
        let specs = vec![
            spec(),
            JobSpec {
                id: 8,
                seed: 4,
                kind: JobKind::Select {
                    tokens: 16,
                    hidden: 32,
                    delta: 0.1,
                    profile: "bert".to_string(),
                },
            },
        ];
        let line = batch_request_line(3, &specs, Some(250));
        // The elements are exactly the singleton request payloads.
        for s in &specs {
            assert!(line.contains(&request_line(s, None)), "{line}");
        }
        assert_eq!(
            parse_request(&line).unwrap(),
            Request::Job(JobLine {
                id: 3,
                specs: specs.clone(),
                single: false,
                deadline_ms: Some(250),
                trace: TraceDecision::Undecided
            })
        );
        // Traced batches carry the decision for the whole line.
        let unsampled = batch_request_line_traced(3, &specs, None, &TraceDecision::Unsampled);
        assert!(matches!(
            parse_request(&unsampled).unwrap(),
            Request::Job(JobLine {
                single: false,
                trace: TraceDecision::Unsampled,
                ..
            })
        ));
        // Empty batches, missing ids, and bad elements are rejected.
        assert!(parse_request("{\"id\":1,\"batch\":[]}").is_err());
        assert!(parse_request("{\"batch\":[{\"id\":1}]}").is_err());
        assert!(parse_request("{\"id\":1,\"batch\":7}").is_err());
        let err = parse_request("{\"id\":1,\"batch\":[{\"id\":2}]}").unwrap_err();
        assert!(err.contains("batch item 0"), "{err}");
    }

    #[test]
    fn batch_responses_splice_singleton_payloads() {
        let ok = result_line(&JobResult {
            id: 10,
            outcome: JobOutcome::Schedule {
                makespan: 42,
                latencies: [4, 3, 2, 1],
            },
        });
        let err = error_line(Some(11), ERR_DEADLINE);
        let line = batch_response_line(3, &[ok.clone(), err.clone()]);
        assert_eq!(line, format!("{{\"id\":3,\"batch\":[{ok},{err}]}}"));
        match parse_response(&line).unwrap() {
            Response::Batch { id, items } => {
                assert_eq!(id, 3);
                assert_eq!(items.len(), 2);
                assert!(matches!(&items[0], Response::Result(r) if r.id == 10));
                assert!(matches!(
                    &items[1],
                    Response::Error { id: Some(11), error } if error == ERR_DEADLINE
                ));
            }
            other => panic!("expected a batch, got {other:?}"),
        }
        // An empty batch response parses (a shed batch answers with a
        // flat error line instead, but the shape itself is legal).
        assert!(matches!(
            parse_response("{\"id\":9,\"batch\":[]}").unwrap(),
            Response::Batch { id: 9, items } if items.is_empty()
        ));
    }

    #[test]
    fn reshard_lines_parse_to_their_value() {
        let line = "{\"control\":\"reshard\",\"shards\":[\"a:1\"],\"vnodes\":8}";
        match parse_request(line).unwrap() {
            Request::Reshard(value) => {
                assert_eq!(value, serde_json::from_str::<Value>(line).unwrap());
            }
            other => panic!("expected a reshard, got {other:?}"),
        }
        // The fields are the router's to check.
        assert!(matches!(
            parse_request("{\"control\":\"reshard\"}").unwrap(),
            Request::Reshard(_)
        ));
        assert!(parse_request("{\"control\":5}").is_err());
    }

    fn item(id: u64) -> String {
        result_line(&JobResult {
            id,
            outcome: JobOutcome::Schedule {
                makespan: id * 10,
                latencies: [1, 2, 3, 4],
            },
        })
    }

    #[test]
    fn a_singleton_response_is_its_item_line() {
        let assembler = ResponseAssembler::new(5, true, 1);
        assert_eq!(assembler.items(), 1);
        assert_eq!(assembler.settle(0, item(5)), Some(item(5)));
    }

    #[test]
    fn a_batch_response_is_the_envelope_in_submission_order() {
        let items: Vec<String> = (10..14).map(item).collect();
        let assembler = ResponseAssembler::new(3, false, items.len());
        // Settled out of order: only the last filler gets the line.
        for pos in [2, 0, 3] {
            assert_eq!(assembler.settle(pos, items[pos].clone()), None);
        }
        assert_eq!(
            assembler.settle(1, items[1].clone()),
            Some(batch_response_line(3, &items))
        );
    }

    #[test]
    fn concurrent_settles_finish_exactly_once() {
        const N: usize = 16;
        for round in 0..20u64 {
            let assembler = ResponseAssembler::new(round, false, N);
            // Every thread settles at once, so the last slots race.
            let start = std::sync::Barrier::new(N);
            let finished: Vec<Option<String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..N)
                    .map(|pos| {
                        let (assembler, start) = (&assembler, &start);
                        scope.spawn(move || {
                            start.wait();
                            assembler.settle(pos, item(pos as u64))
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let lines: Vec<&String> = finished.iter().flatten().collect();
            let items: Vec<String> = (0..N as u64).map(item).collect();
            assert_eq!(lines, [&batch_response_line(round, &items)]);
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"id\":1}").is_err());
        assert!(parse_request("{\"id\":1,\"seed\":2,\"kind\":{\"Nope\":{}}}").is_err());
        let err =
            parse_request("{\"id\":1,\"seed\":2,\"kind\":{\"Select\":{\"tokens\":4,\"hidden\":8,\"delta\":0.1,\"profile\":\"bert\"}},\"deadline_ms\":\"soon\"}")
                .unwrap_err();
        assert!(err.contains("deadline_ms"), "{err}");
    }

    #[test]
    fn deeply_nested_lines_are_errors_not_stack_overflows() {
        // A 100 KB line of nothing but open brackets is far below the
        // framing cap; parsing it must fail cleanly on both sides of
        // the wire (the router's shard reader parses gateway replies
        // with the same parser).
        for open in ["[", "{\"a\":"] {
            let deep = open.repeat(100_000);
            assert!(parse_request(&deep).is_err());
            assert!(parse_response(&deep).is_err());
        }
    }
}
