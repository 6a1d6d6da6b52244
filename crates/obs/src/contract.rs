//! The stable metrics contract.
//!
//! Every metric the Drift workspace exports is declared here — name,
//! kind, unit, labels, and help text — and documented prose-side in
//! `docs/OBSERVABILITY.md`. A test in this crate asserts the two stay
//! in sync, so adding a metric without documenting it fails CI.
//!
//! Naming follows Prometheus conventions: `drift_` prefix, snake case,
//! base unit in the name (`_cycles`, `_nanoseconds`, `_picojoules`),
//! `_total` suffix on counters.

/// How a metric behaves over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing.
    Counter,
    /// Point-in-time value, may go down.
    Gauge,
    /// Fixed-bucket distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn prometheus_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One metric's contract entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// The exported name.
    pub name: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// The unit of the value (or of histogram observations).
    pub unit: &'static str,
    /// Label keys this metric carries (empty = unlabelled).
    pub labels: &'static [&'static str],
    /// One-line help text (exported as Prometheus `# HELP`).
    pub help: &'static str,
}

/// Buckets for every stage duration (`drift_stage_microseconds`),
/// microseconds: 1 µs at the bottom resolves cache lookups and
/// sub-50 µs Eq. 8 solves, 1 s at the top covers the slowest jobs.
pub const LATENCY_US_BUCKETS: &[u64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 1_000_000,
];

/// Buckets for sampled queue depth, jobs.
pub const QUEUE_DEPTH_BUCKETS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Buckets for admitted batch-request size, jobs per batch.
pub const BATCH_SIZE_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// Every metric the workspace exports, sorted by name.
pub const METRICS: &[MetricSpec] = &[
    MetricSpec {
        name: "drift_array_busy_cycles_total",
        kind: MetricKind::Counter,
        unit: "cycles",
        labels: &["array"],
        help: "BitGroup-cycles each systolic sub-array (hh/hl/lh/ll) spent computing",
    },
    MetricSpec {
        name: "drift_array_idle_cycles_total",
        kind: MetricKind::Counter,
        unit: "cycles",
        labels: &["array"],
        help: "BitGroup-cycles each sub-array sat idle inside the layer's compute span",
    },
    MetricSpec {
        name: "drift_compute_cycles_total",
        kind: MetricKind::Counter,
        unit: "cycles",
        labels: &[],
        help: "Compute-side cycles across executed layers (Eq. 7 makespans plus reconfiguration)",
    },
    MetricSpec {
        name: "drift_dram_bytes_total",
        kind: MetricKind::Counter,
        unit: "bytes",
        labels: &["dir"],
        help: "Bytes moved to (dir=write) and from (dir=read) DRAM",
    },
    MetricSpec {
        name: "drift_dram_cycles_total",
        kind: MetricKind::Counter,
        unit: "cycles",
        labels: &[],
        help: "DRAM-side cycles across executed layers",
    },
    MetricSpec {
        name: "drift_dram_row_conflicts_total",
        kind: MetricKind::Counter,
        unit: "bursts",
        labels: &[],
        help: "DRAM bursts that required a row precharge and/or activate",
    },
    MetricSpec {
        name: "drift_dram_row_hits_total",
        kind: MetricKind::Counter,
        unit: "bursts",
        labels: &[],
        help: "DRAM bursts served from an already-open row",
    },
    MetricSpec {
        name: "drift_energy_picojoules_total",
        kind: MetricKind::Counter,
        unit: "picojoules",
        labels: &["stage"],
        help: "Energy by stage: core, static, dram, buffer",
    },
    MetricSpec {
        name: "drift_gateway_batch_size",
        kind: MetricKind::Histogram,
        unit: "jobs",
        labels: &[],
        help: "Jobs per admitted batch request (singleton lines are not observed; routed singletons arrive as batches of 1)",
    },
    MetricSpec {
        name: "drift_gateway_connections",
        kind: MetricKind::Gauge,
        unit: "connections",
        labels: &[],
        help: "Client connections currently open on the gateway",
    },
    MetricSpec {
        name: "drift_gateway_deadline_outcomes_total",
        kind: MetricKind::Counter,
        unit: "requests",
        labels: &["outcome"],
        help: "Deadlined requests by fate: met, missed (expired), or unmeetable (shed at admission)",
    },
    MetricSpec {
        name: "drift_gateway_inflight_requests",
        kind: MetricKind::Gauge,
        unit: "requests",
        labels: &[],
        help: "Requests admitted into the gateway queue and not yet answered",
    },
    MetricSpec {
        name: "drift_gateway_prewarm_entries_total",
        kind: MetricKind::Counter,
        unit: "schedules",
        labels: &[],
        help: "Solved schedules accepted from prewarm control messages into the cache",
    },
    MetricSpec {
        name: "drift_gateway_requests_accepted_total",
        kind: MetricKind::Counter,
        unit: "requests",
        labels: &[],
        help: "Requests admitted into the gateway's bounded queue",
    },
    MetricSpec {
        name: "drift_gateway_requests_expired_total",
        kind: MetricKind::Counter,
        unit: "requests",
        labels: &[],
        help: "Requests answered deadline_exceeded (expired at dequeue or at response time)",
    },
    MetricSpec {
        name: "drift_gateway_requests_shed_total",
        kind: MetricKind::Counter,
        unit: "requests",
        labels: &[],
        help: "Requests refused with overloaded because the queue was full",
    },
    MetricSpec {
        name: "drift_gateway_responses_dropped_total",
        kind: MetricKind::Counter,
        unit: "responses",
        labels: &[],
        help:
            "Responses discarded because the client disconnected or stalled past the write timeout",
    },
    MetricSpec {
        name: "drift_layers_executed_total",
        kind: MetricKind::Counter,
        unit: "layers",
        labels: &[],
        help: "GEMM layers executed on the Drift accelerator model",
    },
    MetricSpec {
        name: "drift_reconfigurations_total",
        kind: MetricKind::Counter,
        unit: "events",
        labels: &[],
        help: "Fabric repartitions actually charged (elided repeats are not counted)",
    },
    MetricSpec {
        name: "drift_router_batch_splits_total",
        kind: MetricKind::Counter,
        unit: "batches",
        labels: &[],
        help: "Batch requests the router split into more than one per-shard sub-batch",
    },
    MetricSpec {
        name: "drift_router_connections",
        kind: MetricKind::Gauge,
        unit: "connections",
        labels: &[],
        help: "Client connections currently open on the router front tier",
    },
    MetricSpec {
        name: "drift_router_failovers_total",
        kind: MetricKind::Counter,
        unit: "requests",
        labels: &[],
        help:
            "Jobs re-dispatched to a ring successor after a shed, a dead shard, or a failed write",
    },
    MetricSpec {
        name: "drift_router_inflight_requests",
        kind: MetricKind::Gauge,
        unit: "requests",
        labels: &[],
        help: "Jobs admitted by the router and not yet answered",
    },
    MetricSpec {
        name: "drift_router_prewarm_keys_total",
        kind: MetricKind::Counter,
        unit: "keys",
        labels: &[],
        help: "Moved schedule keys solved and pushed to their new owner during reshard",
    },
    MetricSpec {
        name: "drift_router_requests_routed_total",
        kind: MetricKind::Counter,
        unit: "requests",
        labels: &["shard"],
        help: "Successful dispatches to each backend shard (failover hops count separately)",
    },
    MetricSpec {
        name: "drift_router_reshard_moved_keys_total",
        kind: MetricKind::Counter,
        unit: "keys",
        labels: &[],
        help: "Tracked schedule keys whose owning shard changed across reshard operations",
    },
    MetricSpec {
        name: "drift_router_shard_ejections_total",
        kind: MetricKind::Counter,
        unit: "events",
        labels: &["shard"],
        help: "Times each shard was marked unhealthy (dead connection or failed probe)",
    },
    MetricSpec {
        name: "drift_router_shard_readmissions_total",
        kind: MetricKind::Counter,
        unit: "events",
        labels: &["shard"],
        help: "Times each shard was re-admitted after answering health probes again",
    },
    MetricSpec {
        name: "drift_router_shards_healthy",
        kind: MetricKind::Gauge,
        unit: "shards",
        labels: &[],
        help: "Backend shards currently healthy in the routing table",
    },
    MetricSpec {
        name: "drift_schedule_cache_entries",
        kind: MetricKind::Gauge,
        unit: "schedules",
        labels: &[],
        help: "Schedules resident in the shared schedule cache",
    },
    MetricSpec {
        name: "drift_schedule_cache_hits_total",
        kind: MetricKind::Counter,
        unit: "lookups",
        labels: &[],
        help: "Schedule-cache lookups answered without solving Eq. 8",
    },
    MetricSpec {
        name: "drift_schedule_cache_misses_total",
        kind: MetricKind::Counter,
        unit: "lookups",
        labels: &[],
        help: "Schedule-cache lookups that ran the Eq. 8 sweep",
    },
    MetricSpec {
        name: "drift_selector_convert_hc_total",
        kind: MetricKind::Counter,
        unit: "subtensors",
        labels: &["hc"],
        help: "Converted sub-tensors by high-clip choice hc (Eq. 5 outcome)",
    },
    MetricSpec {
        name: "drift_selector_decisions_total",
        kind: MetricKind::Counter,
        unit: "subtensors",
        labels: &["decision"],
        help: "Precision-selector decisions (decision=keep|convert)",
    },
    MetricSpec {
        name: "drift_serve_backpressure_stalls_total",
        kind: MetricKind::Counter,
        unit: "submissions",
        labels: &[],
        help: "Job submissions that blocked because the queue was full",
    },
    MetricSpec {
        name: "drift_serve_cache_evictions_total",
        kind: MetricKind::Counter,
        unit: "schedules",
        labels: &[],
        help: "Schedule-cache entries evicted (LRU within a full shard) to admit new ones",
    },
    MetricSpec {
        name: "drift_serve_jobs_rejected_total",
        kind: MetricKind::Counter,
        unit: "lines",
        labels: &[],
        help:
            "Ingest lines rejected as malformed (lenient file ingest and gateway bad_request lines)",
    },
    MetricSpec {
        name: "drift_serve_jobs_total",
        kind: MetricKind::Counter,
        unit: "jobs",
        labels: &["kind", "outcome"],
        help: "Jobs completed, by kind (select|schedule|simulate) and outcome (ok|error)",
    },
    MetricSpec {
        name: "drift_serve_queue_depth",
        kind: MetricKind::Gauge,
        unit: "jobs",
        labels: &[],
        help: "Jobs waiting in the bounded queue right now",
    },
    MetricSpec {
        name: "drift_serve_queue_depth_sampled",
        kind: MetricKind::Histogram,
        unit: "jobs",
        labels: &[],
        help: "Queue depth sampled at each submission (drives the queue-depth percentiles)",
    },
    MetricSpec {
        name: "drift_serve_workers",
        kind: MetricKind::Gauge,
        unit: "threads",
        labels: &[],
        help: "Worker threads in the serving pool",
    },
    MetricSpec {
        name: "drift_sim_cycles_total",
        kind: MetricKind::Counter,
        unit: "cycles",
        labels: &[],
        help: "Simulated cycles across executed layers (what a Simulate job reports as cycles)",
    },
    MetricSpec {
        name: "drift_stage_microseconds",
        kind: MetricKind::Histogram,
        unit: "microseconds",
        labels: &["tier", "stage", "outcome"],
        help: "Duration of each timed stage, by tier, stage and outcome (the same timing its trace span carries)",
    },
    MetricSpec {
        name: "drift_store_bytes_written_total",
        kind: MetricKind::Counter,
        unit: "bytes",
        labels: &[],
        help: "Bytes appended to the schedule store log (frames plus payloads)",
    },
    MetricSpec {
        name: "drift_store_compactions_total",
        kind: MetricKind::Counter,
        unit: "events",
        labels: &[],
        help: "Store logs rewritten to their live set (at drain, or via `drift store compact`)",
    },
    MetricSpec {
        name: "drift_store_records_appended_total",
        kind: MetricKind::Counter,
        unit: "records",
        labels: &[],
        help: "Newly solved schedules appended to the store log by the background flusher",
    },
    MetricSpec {
        name: "drift_store_records_loaded_total",
        kind: MetricKind::Counter,
        unit: "records",
        labels: &[],
        help: "Sound records loaded from the store log at warm start",
    },
    MetricSpec {
        name: "drift_store_records_skipped_total",
        kind: MetricKind::Counter,
        unit: "records",
        labels: &[],
        help: "Store records skipped at load: torn tail, checksum mismatch, or failed decode",
    },
    MetricSpec {
        name: "drift_trace_requests_sampled_total",
        kind: MetricKind::Counter,
        unit: "requests",
        labels: &[],
        help: "Requests head-sampled for tracing at this ingress edge",
    },
    MetricSpec {
        name: "drift_trace_requests_unsampled_total",
        kind: MetricKind::Counter,
        unit: "requests",
        labels: &[],
        help: "Requests the ingress edge decided not to trace",
    },
    MetricSpec {
        name: "drift_trace_spans_dropped_total",
        kind: MetricKind::Counter,
        unit: "spans",
        labels: &[],
        help: "Completed spans lost because the trace sink write failed",
    },
    MetricSpec {
        name: "drift_trace_spans_orphaned_total",
        kind: MetricKind::Counter,
        unit: "spans",
        labels: &[],
        help: "Completed spans discarded because the trace sink was already closed",
    },
    MetricSpec {
        name: "drift_trace_spans_written_total",
        kind: MetricKind::Counter,
        unit: "spans",
        labels: &["service"],
        help: "Spans appended to the JSONL trace sink",
    },
];

/// Looks up the contract entry for `name`.
pub fn spec_for(name: &str) -> Option<&'static MetricSpec> {
    METRICS.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_is_sorted_and_unique() {
        let names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted, "contract entries must be sorted and unique");
    }

    #[test]
    fn counters_end_in_total() {
        for m in METRICS {
            if m.kind == MetricKind::Counter {
                assert!(m.name.ends_with("_total"), "{} missing _total", m.name);
            } else {
                assert!(!m.name.ends_with("_total"), "{} is not a counter", m.name);
            }
        }
    }

    #[test]
    fn bucket_sets_are_strictly_increasing() {
        for bounds in [LATENCY_US_BUCKETS, QUEUE_DEPTH_BUCKETS, BATCH_SIZE_BUCKETS] {
            assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
