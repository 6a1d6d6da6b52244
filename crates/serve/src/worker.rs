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
use crate::job::{JobKind, JobOutcome, JobSpec};
use crate::queue::WorkerHandle;
use drift_accel::gemm::{GemmShape, GemmWorkload};
use drift_accel::systolic::ArrayGeometry;
use drift_core::accelerator::DriftAccelerator;
use drift_core::schedule::{Schedule, ScheduleKey};
use drift_core::selector::{record_policy_run, DriftPolicy};
use drift_nn::datagen::TokenProfile;
use drift_nn::NnError;
use drift_obs::{Recorder, SpanCtx, Stage, Tracer};
use drift_quant::Precision;
use drift_tensor::rng::{derive_seed, seeded};
use drift_tensor::Shape;

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

/// The Bernoulli draws behind a Simulate job's precision maps, from its
/// private ChaCha stream: `m` activation rows at `fa`, then `n` weight
/// columns at `fw`, each handed to `visit` as `(map, high)` with map 0
/// for activations and 1 for weights. A draw is `rand`'s `gen_bool(p)`
/// over bulk words: `gen::<f64>() < p` on one word, that is `k·2⁻⁵³ < p`
/// for `k = word >> 11`, and for `p ∈ [0, 1]` that is `k < ⌈p·2⁵³⌉`
/// (`p·2⁵³` is exact; a NaN `p` gives 0, so no draw is high).
fn simulate_draws(
    seed: u64,
    (m, n): (usize, usize),
    (fa, fw): (f64, f64),
    mut visit: impl FnMut(usize, bool),
) {
    let mut rng = seeded(derive_seed(seed, "serve-simulate"));
    let mut words = [0u64; 256];
    for (map, (draws, p)) in [(m, fa), (n, fw)].into_iter().enumerate() {
        let below = (p.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64;
        let mut left = draws;
        while left > 0 {
            let chunk = &mut words[..left.min(256)];
            rng.fill_u64(chunk);
            for &word in chunk.iter() {
                visit(map, word >> 11 < below);
            }
            left -= chunk.len();
        }
    }
}

/// A Simulate job's activation and weight precision maps: Bernoulli
/// draws scattered like real selector output, yet reproducible from the
/// spec alone.
fn simulate_precision_maps(
    seed: u64,
    m: usize,
    n: usize,
    fa: f64,
    fw: f64,
) -> (Vec<bool>, Vec<bool>) {
    let mut maps = [Vec::with_capacity(m), Vec::with_capacity(n)];
    simulate_draws(seed, (m, n), (fa, fw), |map, high| maps[map].push(high));
    let [act_high, weight_high] = maps;
    (act_high, weight_high)
}

/// How many of [`simulate_precision_maps`]'s two maps are `true`,
/// without building them.
fn simulate_high_counts(seed: u64, m: usize, n: usize, fa: f64, fw: f64) -> (usize, usize) {
    let mut high = [0; 2];
    simulate_draws(seed, (m, n), (fa, fw), |map, is_high| {
        high[map] += usize::from(is_high)
    });
    (high[0], high[1])
}

/// The key of a GEMM with `act_high` high rows and `weight_high` high
/// columns, at the INT8/INT4 pairs every serve job uses.
fn gemm_key(
    shape: GemmShape,
    act_high: usize,
    weight_high: usize,
    fabric: ArrayGeometry,
) -> ScheduleKey {
    ScheduleKey {
        shape,
        act_high,
        weight_high,
        act_precisions: (Precision::INT8, Precision::INT4),
        weight_precisions: (Precision::INT8, Precision::INT4),
        fabric,
    }
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
/// Simulate jobs the key counts the seeded Bernoulli precision maps'
/// high entries from `m + n` bulk RNG words, without building the maps.
pub fn schedule_key_for(spec: &JobSpec, fabric: ArrayGeometry) -> Option<ScheduleKey> {
    // Routers call this at admission: an oversized job must not draw
    // the precision maps below.
    spec.kind.check_size().ok()?;
    match &spec.kind {
        JobKind::Select { .. } => None,
        JobKind::Schedule { m, k, n, fa, fw } => Some(gemm_key(
            GemmShape::new(*m, *k, *n).ok()?,
            (*m as f64 * fa.clamp(0.0, 1.0)) as usize,
            (*n as f64 * fw.clamp(0.0, 1.0)) as usize,
            fabric,
        )),
        JobKind::Simulate { m, k, n, fa, fw } => {
            let shape = GemmShape::new(*m, *k, *n).ok()?;
            let (act_high, weight_high) = simulate_high_counts(spec.seed, *m, *n, *fa, *fw);
            Some(gemm_key(shape, act_high, weight_high, fabric))
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
            // A zero dimension is reported before a bad δ.
            Shape::matrix(*tokens, *hidden).map_err(|e| NnError::from(e).to_string())?;
            let policy = DriftPolicy::new(*delta).map_err(|e| e.to_string())?;
            // Only the decisions are answered, so they are taken from
            // each token's keystream and the tensor is never built.
            let selection = profile
                .select(*tokens, *hidden, spec.seed, &policy)
                .map_err(|e| e.to_string())?;
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

/// A paper-configuration [`DriftAccelerator`] that records into
/// `recorder`: what the serving stack stocks its queue's pool with, one
/// per worker ([`crate::queue::pooled_queue`]).
pub fn accelerator(recorder: &Recorder) -> DriftAccelerator {
    let mut accel =
        DriftAccelerator::paper_config().expect("the paper configuration always builds");
    accel.set_recorder(recorder.clone());
    accel
}

/// One pool thread, the serving stack's only worker loop: takes jobs
/// from the queue behind `jobs` until it closes and drains, handing each
/// job with the idle accelerator the queue paired it with to `settle`,
/// and the accelerator back to the pool with its next take.
///
/// Offline serve settles a job by filling its result slot
/// ([`crate::runtime`]); the gateway settles a schedule-key group by
/// writing its reply, and its connection readers lease the same pool's
/// accelerators to run a lone line themselves. Each caller spawns its
/// own threads: offline serve's are scoped (they borrow its cache), the
/// gateway's are long-lived and named.
pub fn run_worker<T>(
    jobs: WorkerHandle<T, DriftAccelerator>,
    mut settle: impl FnMut(T, &mut DriftAccelerator),
) {
    let mut idle = None;
    while let Some((job, mut accel)) = jobs.next_with_accelerator(idle.take()) {
        settle(job, &mut accel);
        idle = Some(accel);
    }
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
    fn simulate_draws_are_gen_bool_draws() {
        // The bulk threshold takes `gen_bool`'s decision on every word,
        // across a refill and at the edge fractions.
        use rand::Rng;
        for p in [0.0, 1.0, f64::NAN, 0.37, 0.5, 1.0 - f64::EPSILON, -0.5, 2.0] {
            let mut rng = seeded(derive_seed(9, "serve-simulate"));
            let mut draw = |len: usize, p: f64| -> Vec<bool> {
                (0..len).map(|_| rng.gen_bool(p.clamp(0.0, 1.0))).collect()
            };
            let expected = (draw(300, p), draw(17, 1.0 - p));
            assert_eq!(
                simulate_precision_maps(9, 300, 17, p, 1.0 - p),
                expected,
                "p {p}"
            );
        }
    }

    #[test]
    fn simulate_keys_count_what_execution_draws() {
        // The counted key equals the key of the workload execution
        // builds from the drawn maps, whatever the fractions and sizes.
        let fabric = accel().fabric();
        let sizes = [1, 17, 513];
        for (m, n) in sizes.into_iter().flat_map(|m| sizes.map(|n| (m, n))) {
            for fraction in [0.0, 1.0, f64::NAN, 0.37, 0.5, 1.0 - f64::EPSILON, -0.5, 2.0] {
                for seed in [0, 41] {
                    let (fa, fw) = (fraction, 1.0 - fraction);
                    let spec = JobSpec {
                        id: 5,
                        seed,
                        kind: JobKind::Simulate {
                            m,
                            k: 32,
                            n,
                            fa,
                            fw,
                        },
                    };
                    let (act_high, weight_high) = simulate_precision_maps(seed, m, n, fa, fw);
                    let shape = GemmShape::new(m, 32, n).unwrap();
                    let workload = GemmWorkload::new("w", shape, act_high, weight_high).unwrap();
                    assert_eq!(
                        schedule_key_for(&spec, fabric),
                        Some(ScheduleKey::for_workload(&workload, fabric)),
                        "m {m}, n {n}, fractions ({fa}, {fw}), seed {seed}"
                    );
                }
            }
        }
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
