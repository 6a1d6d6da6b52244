//! The workloads' inputs, all pure functions of the seed, and the
//! offline answers every served job is checked against.

use drift_core::arch::paper_fabric;
use drift_serve::worker::schedule_key_for;
use drift_serve::{serve, synthetic_jobs, synthetic_schedule_jobs};
use drift_serve::{JobOutcome, JobSpec, ServeConfig};
use std::collections::HashSet;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The mixed stream as singleton lines into one gateway.
    MixedGateway,
    /// The small-job stream, 32 pipelined lines per connection.
    SmallFlood,
    /// The small-job stream in batch lines of 32 through the router.
    BatchRouted,
    /// The mixed stream in batch lines of 2 through the router.
    MixedRouted,
    /// Fig. 7/8 sweeps over the five zoo models, no network.
    PaperZoo,
}

impl Workload {
    /// Every workload the command runs; `BENCHMARK.json` gates
    /// `mixed-gateway` and `mixed-routed`.
    pub const ALL: [Workload; 5] = [
        Workload::MixedGateway,
        Workload::SmallFlood,
        Workload::BatchRouted,
        Workload::MixedRouted,
        Workload::PaperZoo,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixedGateway => "mixed-gateway",
            Workload::SmallFlood => "small-flood",
            Workload::BatchRouted => "batch-routed",
            Workload::MixedRouted => "mixed-routed",
            Workload::PaperZoo => "paper-zoo",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How a serving workload loads the stack; `None` for `paper-zoo`.
    pub fn plan(self) -> Option<Plan> {
        match self {
            Workload::MixedGateway => Some(Plan {
                batch: 1,
                window: 1,
                gateways: 1,
                workers: 2,
                routed: false,
            }),
            Workload::SmallFlood => Some(Plan {
                batch: 1,
                window: 32,
                gateways: 1,
                workers: 2,
                routed: false,
            }),
            Workload::BatchRouted => Some(Plan {
                batch: 32,
                window: 1,
                gateways: 2,
                workers: 1,
                routed: true,
            }),
            // At most one Select job per line: with lines of 8, p99 was a
            // rare meeting of two lines that each held two Select jobs on
            // one shard's worker, and it moved with the host (spread 0.26
            // over ten seeds). With one line in flight per connection and
            // one worker per shard, a shard idled whenever both lines
            // waited on the other, and how often that happened followed
            // the host (ok_per_s spread 0.27-0.31 over ten seeds). Two
            // workers per shard and two lines in flight keep work queued
            // at both shards.
            Workload::MixedRouted => Some(Plan {
                batch: 2,
                window: 2,
                gateways: 2,
                workers: 2,
                routed: true,
            }),
            Workload::PaperZoo => None,
        }
    }
}

/// Connections the load generator opens, one thread each (`nproc` = 2).
pub const CONNECTIONS: usize = 2;

/// The shape of a serving workload's load and server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Jobs per request line (1 = singleton lines).
    pub batch: usize,
    /// Request lines each connection keeps in flight.
    pub window: usize,
    /// In-process gateways.
    pub gateways: usize,
    /// Worker threads per gateway.
    pub workers: usize,
    /// Whether a `Router` fronts the gateways.
    pub routed: bool,
}

/// One period of a serving workload's job stream: job `i` of the
/// unbounded stream is `period[i % len]` with id `i` (see [`job`]).
///
/// `synthetic_jobs` cycles shapes by `i % 8`, fractions by `(i / 8) % 4`,
/// kinds by `i % 5` and profiles by `i % 4`, so its period is 160;
/// `synthetic_schedule_jobs` repeats every 32.
pub fn period(workload: Workload, seed: u64) -> Vec<JobSpec> {
    match workload {
        Workload::MixedGateway | Workload::MixedRouted => synthetic_jobs(160, 8, seed),
        Workload::SmallFlood | Workload::BatchRouted => synthetic_schedule_jobs(32, 8, seed),
        Workload::PaperZoo => Vec::new(),
    }
}

/// Job `i` of the stream whose period is `period`.
pub fn job(period: &[JobSpec], i: u64) -> JobSpec {
    let mut spec = period[(i % period.len() as u64) as usize].clone();
    spec.id = i;
    spec
}

/// The period's jobs that carry a schedule key, one per distinct key:
/// the warm-up pass that performs every Eq. 8 solve.
pub fn warm_set(period: &[JobSpec]) -> Vec<JobSpec> {
    let fabric = paper_fabric();
    let mut seen = HashSet::new();
    period
        .iter()
        .filter(|s| schedule_key_for(s, fabric).is_some_and(|k| seen.insert(k)))
        .cloned()
        .collect()
}

/// Offline `drift_serve::serve` answers for one period, indexed by
/// position. Results are pure functions of the job spec (the id only
/// echoes), so these are the answers for every job of the stream.
///
/// # Errors
///
/// Fails if any job of the period fails offline: the workloads are
/// chosen so none does.
pub fn expected(period: &[JobSpec]) -> Result<Vec<JobOutcome>, String> {
    let outcome = serve(period.to_vec(), &ServeConfig::with_workers(CONNECTIONS));
    let mut answers = Vec::with_capacity(period.len());
    for (pos, result) in outcome.results.into_iter().enumerate() {
        if result.id != pos as u64 {
            return Err(format!("offline serve answered id {} at {pos}", result.id));
        }
        if let JobOutcome::Error { message } = &result.outcome {
            return Err(format!("offline serve failed job {pos}: {message}"));
        }
        answers.push(result.outcome);
    }
    Ok(answers)
}
