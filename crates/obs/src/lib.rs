//! `drift-obs` — the observability core of the Drift workspace.
//!
//! A dependency-free metrics and tracing layer the simulator crates
//! (`drift-accel`, `drift-core`) and the serving runtime
//! (`drift-serve`) record into, behind a [`Recorder`] handle that costs
//! nothing when disabled:
//!
//! * [`registry`] — [`MetricsRegistry`]: atomic counters, float
//!   counters, gauges, and fixed-bucket histograms, keyed by
//!   `(name, labels)`;
//! * [`recorder`] — [`Recorder`], the on/off handle every metric
//!   goes through;
//! * [`stage`] — [`Stage`], the one timing primitive: a stage is timed
//!   once, and ending it feeds both `drift_stage_microseconds` and the
//!   request's trace span;
//! * [`contract`] — the declared list of every exported metric (name,
//!   kind, unit, labels, help), kept in sync with
//!   `docs/OBSERVABILITY.md` by test;
//! * [`export`] — [`Snapshot`] plus the three renderers: Prometheus
//!   text format, JSON, and the human `drift report` table;
//! * [`http`] — a std-only `GET /metrics` (Prometheus text) and
//!   `GET /metrics.json` (snapshot JSON) endpoint for scrapes
//!   (`drift serve --metrics-addr`);
//! * [`trace`] — [`Tracer`]: distributed request tracing with
//!   deterministic head sampling and a JSONL span sink, threaded
//!   router → gateway → serve (`--trace-out`, `drift trace`).
//!
//! # Example
//!
//! ```rust
//! use drift_obs::{Recorder, Stage};
//!
//! let rec = Recorder::enabled();
//! rec.counter_add("drift_serve_jobs_total", &[("kind", "simulate"), ("outcome", "ok")], 1);
//! let solve = Stage::new("core", "solve", &rec).open();
//! solve.end("ok", &[]);
//! let snapshot = rec.registry().unwrap().snapshot();
//! assert!(snapshot.to_prometheus().contains("drift_serve_jobs_total"));
//! assert_eq!(snapshot.histogram("drift_stage_microseconds").unwrap().count(), 1);
//!
//! // The disabled recorder accepts the same calls and does nothing:
//! let off = Recorder::disabled();
//! off.counter_add("drift_serve_jobs_total", &[], 1);
//! assert!(off.registry().is_none());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod contract;
pub mod export;
pub mod http;
pub mod recorder;
pub mod registry;
pub mod stage;
pub mod trace;

pub use export::Snapshot;
pub use recorder::Recorder;
pub use registry::{Histogram, MetricsRegistry};
pub use stage::{SpanCtx, Stage};
pub use trace::{TraceContext, TraceDecision, TraceId, Tracer};
