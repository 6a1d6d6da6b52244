//! Job execution: one simulator per worker, one RNG per job.
//!
//! Each pool thread owns a [`DriftAccelerator`] for its whole lifetime
//! (building one per job would rebuild the memory subsystem
//! constantly), and calls [`DriftAccelerator::reset`] before every job
//! so no cross-layer state — reconfiguration elision, DRAM row/
//! allocator state, the index buffer — leaks between jobs. Randomness
//! comes from a per-job ChaCha stream seeded by [`JobSpec::seed`].
//! Together these make every result a pure function of its spec: the
//! same job stream yields the same result set at any worker count and
//! any assignment of jobs to workers.

use crate::cache::ScheduleCache;
use crate::job::{JobKind, JobOutcome, JobResult, JobSpec};
use crate::queue::WorkerHandle;
use crate::stats::WorkerStats;
use crossbeam::channel::Sender;
use drift_accel::gemm::{GemmShape, GemmWorkload};
use drift_accel::systolic::ArrayGeometry;
use drift_core::accelerator::DriftAccelerator;
use drift_core::schedule::{Schedule, ScheduleKey};
use drift_core::selector::{record_policy_run, DriftPolicy};
use drift_nn::datagen::TokenProfile;
use drift_obs::{Recorder, SpanCtx, Stage, TraceDecision, Tracer};
use drift_quant::Precision;
use drift_tensor::rng::{derive_seed, seeded};
use rand::Rng;
use std::time::Instant;

/// Executes one job on `accel`, using `cache` for schedules. Returns
/// the outcome and whether the schedule came from the cache.
///
/// Failures of any stage land in [`JobOutcome::Error`] rather than
/// tearing down the worker: one malformed job must not poison the
/// stream.
pub fn execute_job(
    spec: &JobSpec,
    accel: &mut DriftAccelerator,
    cache: &ScheduleCache,
) -> (JobOutcome, bool) {
    execute_group(
        None,
        std::slice::from_ref(spec),
        accel,
        cache,
        &Recorder::disabled(),
    )
    .remove(0)
}

/// [`execute_traced`] without trace spans: executes a group of jobs,
/// folding a Select job's per-sub-tensor decisions into `recorder`
/// (the accelerator and cache carry their own recorders).
pub fn execute_group(
    key: Option<&ScheduleKey>,
    specs: &[JobSpec],
    accel: &mut DriftAccelerator,
    cache: &ScheduleCache,
    recorder: &Recorder,
) -> Vec<(JobOutcome, bool)> {
    execute_traced(
        key,
        specs,
        accel,
        cache,
        recorder,
        &Tracer::disabled(),
        None,
    )
}

/// The one executor: runs a group of jobs on `accel` and returns one
/// `(outcome, cache_hit)` pair per spec, in order. A singleton is a
/// group of one.
///
/// `key` is the [`schedule_key_for`] value every spec in the group
/// shares, when the caller grouped by it (the gateway does so for
/// multi-item batch lines). The key is then resolved against `cache`
/// once, so `len - 1` redundant cache probes (and their shard-lock
/// acquisitions) collapse into one lookup; only the first job reports
/// the real probe outcome — the rest would have hit by construction.
/// With `key == None` each job resolves its own key from the workload
/// it builds anyway: Select jobs, invalid shapes, and every one-item
/// line take this path.
///
/// Outcomes are byte-identical either way: each job gets its own
/// accelerator reset and per-job seeded RNG, and the schedule is the
/// same pure function of the key. Failures land in
/// [`JobOutcome::Error`] rather than tearing down the worker.
///
/// The serve-tier stages (`cache_lookup`/`solve` around the schedule
/// cache, `execute` around the simulator or selector) are timed into
/// `recorder` and, when the request is sampled, written as spans
/// through `tracer` under `parent`. Neither changes any outcome.
pub fn execute_traced(
    key: Option<&ScheduleKey>,
    specs: &[JobSpec],
    accel: &mut DriftAccelerator,
    cache: &ScheduleCache,
    recorder: &Recorder,
    tracer: &Tracer,
    parent: Option<SpanCtx>,
) -> Vec<(JobOutcome, bool)> {
    debug_assert!(key.is_none_or(|key| specs
        .iter()
        .all(|s| schedule_key_for(s, accel.fabric()).as_ref() == Some(key))));
    let exec = Exec {
        cache,
        recorder,
        tracer,
        parent,
    };
    let mut resolved = key.map(|key| exec.schedule(*key));
    specs
        .iter()
        .map(|spec| {
            accel.reset();
            let result = match &resolved {
                // A solve failure reads exactly as it would per job.
                Some(Err(message)) => Err(message.clone()),
                Some(Ok(shared)) => run_job(spec, accel, &exec, Some(*shared)),
                None => run_job(spec, accel, &exec, None),
            };
            if let Some(Ok((_, hit))) = &mut resolved {
                *hit = true;
            }
            result.unwrap_or_else(|message| (JobOutcome::Error { message }, false))
        })
        .collect()
}

/// What every job of one executed group shares.
struct Exec<'a> {
    cache: &'a ScheduleCache,
    recorder: &'a Recorder,
    tracer: &'a Tracer,
    /// The span the group's serve-tier spans hang under, when sampled.
    parent: Option<SpanCtx>,
}

impl Exec<'_> {
    /// Looks `key` up in the cache, solving it on a miss.
    fn schedule(&self, key: ScheduleKey) -> Result<(Schedule, bool), String> {
        self.cache
            .get_or_solve_traced(key, self.tracer, self.parent)
            .map_err(|e| e.to_string())
    }

    /// Opens a serve-tier `execute` stage; the caller ends it with the
    /// job kind once the simulator or selector returns.
    fn execute_stage(&self) -> Stage<'_> {
        Stage::new("serve", "execute", self.recorder)
            .traced(self.tracer, self.parent.map(|p| p.child(self.tracer)))
            .open()
    }
}

/// The Bernoulli precision maps a Simulate job draws from its private
/// ChaCha stream — shared between execution ([`execute_traced`]) and
/// routing ([`schedule_key_for`]) so both always agree on the counts.
fn simulate_precision_maps(
    seed: u64,
    m: usize,
    n: usize,
    fa: f64,
    fw: f64,
) -> (Vec<bool>, Vec<bool>) {
    let mut rng = seeded(derive_seed(seed, "serve-simulate"));
    let fa = fa.clamp(0.0, 1.0);
    let fw = fw.clamp(0.0, 1.0);
    let act_high: Vec<bool> = (0..m).map(|_| rng.gen_bool(fa)).collect();
    let weight_high: Vec<bool> = (0..n).map(|_| rng.gen_bool(fw)).collect();
    (act_high, weight_high)
}

/// The exact [`ScheduleKey`] executing `spec` on `fabric` will look up,
/// or `None` for jobs without a schedule (Select), for invalid shapes,
/// and for jobs over [`crate::job::MAX_JOB_ELEMENTS`] (execution
/// reports both as a job-level error anyway).
///
/// This is the single source of truth the router tier shards by: a
/// front tier that routes every job by this key sends each distinct
/// schedule-cache entry to exactly one backend, so per-shard key sets
/// are disjoint and each shard's LRU holds only its own slice. For
/// Simulate jobs the key re-derives the seeded Bernoulli precision
/// maps, so it costs `O(m + n)` RNG draws — microseconds against a
/// millisecond-scale simulation.
pub fn schedule_key_for(spec: &JobSpec, fabric: ArrayGeometry) -> Option<ScheduleKey> {
    // Routers call this at admission: an oversized job must not size
    // the precision maps below.
    spec.kind.check_size().ok()?;
    match &spec.kind {
        JobKind::Select { .. } => None,
        JobKind::Schedule { m, k, n, fa, fw } => {
            let shape = GemmShape::new(*m, *k, *n).ok()?;
            Some(ScheduleKey {
                shape,
                act_high: (*m as f64 * fa.clamp(0.0, 1.0)) as usize,
                weight_high: (*n as f64 * fw.clamp(0.0, 1.0)) as usize,
                act_precisions: (Precision::INT8, Precision::INT4),
                weight_precisions: (Precision::INT8, Precision::INT4),
                fabric,
            })
        }
        JobKind::Simulate { m, k, n, fa, fw } => {
            let shape = GemmShape::new(*m, *k, *n).ok()?;
            let (act_high, weight_high) = simulate_precision_maps(spec.seed, *m, *n, *fa, *fw);
            let workload =
                GemmWorkload::new(format!("job-{}", spec.id), shape, act_high, weight_high).ok()?;
            Some(ScheduleKey::for_workload(&workload, fabric))
        }
    }
}

/// Runs one job. `shared` is the group's already-resolved schedule and
/// its probe outcome; without one the job looks up its own key.
fn run_job(
    spec: &JobSpec,
    accel: &mut DriftAccelerator,
    exec: &Exec,
    shared: Option<(Schedule, bool)>,
) -> Result<(JobOutcome, bool), String> {
    spec.kind.check_size()?;
    match &spec.kind {
        JobKind::Select {
            tokens,
            hidden,
            delta,
            profile,
        } => {
            let stage = exec.execute_stage();
            let profile = TokenProfile::by_name(profile)
                .ok_or_else(|| format!("unknown profile '{profile}'"))?;
            // Only the decisions are answered, so the tensor streams
            // through the selector's statistics and is never built.
            let stats = profile
                .token_stats(*tokens, *hidden, spec.seed)
                .map_err(|e| e.to_string())?;
            let policy = DriftPolicy::new(*delta).map_err(|e| e.to_string())?;
            let selection = stats.select(Precision::INT8, &policy);
            record_policy_run(exec.recorder, &selection.decisions);
            stage.end("ok", &[("kind", "select")]);
            Ok((
                JobOutcome::Select {
                    low_subtensors: selection.low_subtensors(),
                    subtensors: selection.decisions.len(),
                    low_fraction: selection.low_fraction(),
                },
                false,
            ))
        }
        JobKind::Schedule { m, k, n, .. } => {
            GemmShape::new(*m, *k, *n).map_err(|e| e.to_string())?;
            let (schedule, hit) = match shared {
                Some(shared) => shared,
                // Same truncation as `drift schedule`: fractions become
                // prefix counts (built inside `schedule_key_for`, the
                // one place the spec → key mapping lives).
                None => exec.schedule(
                    schedule_key_for(spec, accel.fabric())
                        .ok_or_else(|| "schedule job has no schedule key".to_string())?,
                )?,
            };
            Ok((
                JobOutcome::Schedule {
                    makespan: schedule.makespan,
                    latencies: schedule.latencies,
                },
                hit,
            ))
        }
        JobKind::Simulate { m, k, n, fa, fw } => {
            let shape = GemmShape::new(*m, *k, *n).map_err(|e| e.to_string())?;
            // Precision maps are Bernoulli draws from the job's private
            // ChaCha stream — scattered like real selector output, yet
            // reproducible from the spec alone.
            let (act_high, weight_high) = simulate_precision_maps(spec.seed, *m, *n, *fa, *fw);
            let workload =
                GemmWorkload::new(format!("job-{}", spec.id), shape, act_high, weight_high)
                    .map_err(|e| e.to_string())?;
            let (schedule, hit) = match shared {
                Some(shared) => shared,
                None => exec.schedule(ScheduleKey::for_workload(&workload, accel.fabric()))?,
            };
            let stage = exec.execute_stage();
            let report = accel
                .execute_with_schedule(&workload, schedule)
                .map_err(|e| e.to_string())?;
            stage.end("ok", &[("kind", "simulate")]);
            Ok((
                JobOutcome::Simulate {
                    cycles: report.cycles,
                    compute_cycles: report.compute_cycles,
                    dram_cycles: report.dram_cycles,
                    energy_pj: report.energy.total_pj(),
                },
                hit,
            ))
        }
    }
}

/// One pool thread: pulls jobs until the queue closes, sending one
/// result per job, and returns its counters.
///
/// Jobs arrive tagged with their submission sequence number, which is
/// echoed alongside the result so the runtime can keep duplicate job
/// ids sequence-stable (see the [`crate::job`] module docs).
///
/// The result channel only disconnects when the collector is gone —
/// at that point nobody can observe further results, so the worker
/// simply stops.
pub(crate) fn worker_loop(
    worker: usize,
    jobs: WorkerHandle<(u64, JobSpec)>,
    results: Sender<(u64, JobResult)>,
    cache: &ScheduleCache,
    recorder: Recorder,
    tracer: Tracer,
) -> WorkerStats {
    let mut accel =
        DriftAccelerator::paper_config().expect("the paper configuration always builds");
    accel.set_recorder(recorder.clone());
    let mut stats = WorkerStats::new(worker);
    while let Some((seq, spec)) = jobs.next_job() {
        // Offline serve is its own ingress edge: the submission
        // sequence number is the sampling input, and each sampled job
        // gets a root `job` span with cache/solve/execute children.
        let span = tracer.ingress_span(TraceDecision::Undecided, || seq);
        let start = Instant::now();
        let (outcome, cache_hit) = execute_traced(
            None,
            std::slice::from_ref(&spec),
            &mut accel,
            cache,
            &recorder,
            &tracer,
            span,
        )
        .remove(0);
        let end = Instant::now();
        let latency = end.duration_since(start);
        let is_error = matches!(outcome, JobOutcome::Error { .. });
        let job_outcome = if is_error { "error" } else { "ok" };
        let kind = spec.kind.label();
        Stage::new("serve", "job", &recorder)
            .traced(&tracer, span)
            .job(spec.id)
            .since(start)
            .end_at(
                end,
                job_outcome,
                &[("kind", kind), ("outcome", job_outcome)],
            );
        recorder.counter_add(
            "drift_serve_jobs_total",
            &[("kind", kind), ("outcome", job_outcome)],
            1,
        );
        stats.record(latency, cache_hit, is_error);
        if results
            .send((
                seq,
                JobResult {
                    id: spec.id,
                    outcome,
                },
            ))
            .is_err()
        {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accel() -> DriftAccelerator {
        DriftAccelerator::paper_config().unwrap()
    }

    #[test]
    fn simulate_jobs_are_reproducible_across_simulators() {
        let cache = ScheduleCache::new(16, 2);
        let spec = JobSpec {
            id: 4,
            seed: 99,
            kind: JobKind::Simulate {
                m: 96,
                k: 256,
                n: 128,
                fa: 0.3,
                fw: 0.4,
            },
        };
        let (a, _) = execute_job(&spec, &mut accel(), &cache);
        // A different simulator instance with prior history must agree.
        let mut used = accel();
        let warmup = JobSpec {
            id: 0,
            seed: 1,
            kind: JobKind::Simulate {
                m: 64,
                k: 128,
                n: 64,
                fa: 0.9,
                fw: 0.1,
            },
        };
        execute_job(&warmup, &mut used, &cache);
        let (b, _) = execute_job(&spec, &mut used, &cache);
        assert_eq!(a, b);
        assert!(matches!(a, JobOutcome::Simulate { cycles, .. } if cycles > 0));
    }

    #[test]
    fn schedule_jobs_hit_the_cache_on_repeats() {
        let cache = ScheduleCache::new(16, 2);
        let spec = JobSpec {
            id: 0,
            seed: 0,
            kind: JobKind::Schedule {
                m: 128,
                k: 256,
                n: 128,
                fa: 0.25,
                fw: 0.5,
            },
        };
        let (_, hit1) = execute_job(&spec, &mut accel(), &cache);
        let (out2, hit2) = execute_job(&spec, &mut accel(), &cache);
        assert!(!hit1);
        assert!(hit2);
        assert!(matches!(out2, JobOutcome::Schedule { makespan, .. } if makespan > 0));
    }

    #[test]
    fn select_jobs_report_conversion_statistics() {
        let cache = ScheduleCache::new(4, 1);
        let spec = JobSpec {
            id: 1,
            seed: 7,
            kind: JobKind::Select {
                tokens: 64,
                hidden: 128,
                delta: 0.05,
                profile: "bert".to_string(),
            },
        };
        let (out, hit) = execute_job(&spec, &mut accel(), &cache);
        assert!(!hit);
        match out {
            JobOutcome::Select {
                low_subtensors,
                subtensors,
                low_fraction,
            } => {
                assert_eq!(subtensors, 64);
                assert!(low_subtensors <= subtensors);
                assert!((0.0..=1.0).contains(&low_fraction));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn schedule_key_for_matches_execution() {
        // Pre-seeding the cache at `schedule_key_for`'s key must turn
        // the job's own lookup into a hit, for both kinds that
        // schedule. This is the property the router's key-sharding
        // relies on: the routing key IS the execution key.
        for kind in [
            JobKind::Schedule {
                m: 96,
                k: 192,
                n: 80,
                fa: 0.31,
                fw: 0.47,
            },
            JobKind::Simulate {
                m: 72,
                k: 128,
                n: 64,
                fa: 0.4,
                fw: 0.2,
            },
        ] {
            let spec = JobSpec {
                id: 9,
                seed: 13,
                kind,
            };
            let cache = ScheduleCache::new(16, 2);
            let mut accel = accel();
            let key = schedule_key_for(&spec, accel.fabric()).expect("both kinds schedule");
            cache.get_or_solve(key).unwrap();
            let (_, hit) = execute_job(&spec, &mut accel, &cache);
            assert!(hit, "execution missed the pre-seeded routing key");
        }
        let select = JobSpec {
            id: 0,
            seed: 0,
            kind: JobKind::Select {
                tokens: 8,
                hidden: 16,
                delta: 0.1,
                profile: "bert".to_string(),
            },
        };
        assert!(schedule_key_for(&select, accel().fabric()).is_none());
    }

    #[test]
    fn bad_jobs_become_error_outcomes() {
        let cache = ScheduleCache::new(4, 1);
        let bad = JobSpec {
            id: 2,
            seed: 0,
            kind: JobKind::Simulate {
                m: 0,
                k: 16,
                n: 16,
                fa: 0.5,
                fw: 0.5,
            },
        };
        let (out, _) = execute_job(&bad, &mut accel(), &cache);
        assert!(matches!(out, JobOutcome::Error { .. }));
        let bad_profile = JobSpec {
            id: 3,
            seed: 0,
            kind: JobKind::Select {
                tokens: 4,
                hidden: 8,
                delta: 0.1,
                profile: "gpt".to_string(),
            },
        };
        let (out, _) = execute_job(&bad_profile, &mut accel(), &cache);
        assert!(matches!(out, JobOutcome::Error { message } if message.contains("gpt")));
    }
}
