//! Multi-threaded batch-simulation serving for the Drift model.
//!
//! The simulator crates answer one question at a time; this crate
//! answers streams of them. A [`runtime::serve`] call owns:
//!
//! * a **bounded job queue** ([`queue`]) — submission blocks when the
//!   queue is full, so producers can never outrun memory, and closing
//!   the queue drains then stops the pool;
//! * a **worker pool** ([`worker::run_worker`], the one loop the
//!   gateway's workers run too) — the queue's pool holds one
//!   [`drift_core::DriftAccelerator`] per worker, each job
//!   runs on an idle one (reset before every job), and each
//!   job gets a private ChaCha RNG seeded from its spec, so results are
//!   a pure function of the job, not of worker assignment or timing;
//! * a **sharded LRU schedule cache** ([`cache`]) — the Eq. 8 sweep is
//!   memoised on [`drift_core::schedule::ScheduleKey`], turning
//!   repeated shapes (the common case in serving) into lookups;
//! * **statistics** ([`stats`]) — per-worker job counts, cache hits,
//!   and p50/p99 latencies, aggregated into a [`stats::ServeReport`].
//!
//! With [`runtime::serve_observed`], every stage additionally
//! records into a [`drift_obs::Recorder`] — queue depth, cache
//! hits/misses, per-worker latency histograms, per-array cycle counters
//! — and sampled jobs into a [`drift_obs::Tracer`], over a fresh or a
//! caller-owned cache, without changing any result
//! (`docs/OBSERVABILITY.md` documents the full metric contract).
//!
//! Jobs and results travel as JSONL ([`job`]), one JSON object per
//! line, so streams pipe through the `drift serve` CLI:
//!
//! ```text
//! $ drift serve --jobs jobs.jsonl --workers 8 > results.jsonl
//! ```
//!
//! # Example
//!
//! ```rust
//! use drift_serve::job::{JobKind, JobSpec};
//! use drift_serve::runtime::{serve, ServeConfig};
//!
//! let jobs = vec![
//!     JobSpec {
//!         id: 0,
//!         seed: 7,
//!         kind: JobKind::Schedule { m: 128, k: 256, n: 128, fa: 0.25, fw: 0.5 },
//!     },
//!     JobSpec {
//!         id: 1,
//!         seed: 8,
//!         kind: JobKind::Simulate { m: 64, k: 256, n: 64, fa: 0.5, fw: 0.5 },
//!     },
//! ];
//! let outcome = serve(jobs, &ServeConfig::with_workers(2));
//! assert_eq!(outcome.results.len(), 2);
//! assert_eq!(outcome.report.jobs, 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod job;
pub mod persist;
pub mod queue;
pub mod runtime;
pub mod stats;
pub mod worker;

pub use cache::{CacheStats, ScheduleCache};
pub use job::{
    read_jobs, read_jobs_lenient, synthetic_jobs, synthetic_schedule_jobs, JobKind, JobOutcome,
    JobResult, JobSpec, LenientIngest,
};
pub use persist::{open_and_preload, StoreBinding};
pub use queue::Deadlined;
pub use runtime::{serve, serve_observed, ServeConfig, ServeOutcome};
pub use stats::ServeReport;
