//! The batch-serving runtime: queue + worker pool + cache + report.

use crate::cache::{self, ScheduleCache};
use crate::job::{JobOutcome, JobResult, JobSpec};
use crate::queue::{pooled_queue, JobQueue};
use crate::stats::{ServeReport, WorkerStats};
use crate::worker::{accelerator, execute_traced, run_worker};
use drift_core::accelerator::DriftAccelerator;
use drift_obs::{Recorder, Stage, TraceDecision, Tracer};
use std::sync::OnceLock;
use std::time::Instant;

/// Tunables for one serve run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads (at least 1).
    pub workers: usize,
    /// Maximum jobs buffered in the queue before `submit` blocks.
    pub queue_depth: usize,
    /// Total schedules the cache may hold.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 256,
            cache_capacity: 4096,
        }
    }
}

impl ServeConfig {
    /// The default configuration with `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        ServeConfig {
            workers,
            ..ServeConfig::default()
        }
    }
}

/// Everything a serve run produces.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// One result per submitted job, sorted by job id.
    pub results: Vec<JobResult>,
    /// Throughput, latency, and cache statistics.
    pub report: ServeReport,
}

/// Runs `jobs` on a worker pool and collects every result.
///
/// Jobs are fed through a bounded queue (backpressure keeps at most
/// `queue_depth` in flight beyond what workers hold), workers pull
/// until the queue drains, and the pool shuts down gracefully: exactly
/// one result per job, regardless of worker count. Results are sorted
/// by id before returning so equal job streams compare equal across
/// configurations.
pub fn serve(jobs: Vec<JobSpec>, config: &ServeConfig) -> ServeOutcome {
    serve_observed(jobs, config, Recorder::disabled(), Tracer::disabled(), None)
}

/// [`serve`] observed: every stage — queue, cache, workers and each
/// worker's simulator — records into `recorder` (`docs/OBSERVABILITY.md`),
/// and the runtime, as its own ingress edge, head-samples jobs by
/// submission sequence number and records serve-tier spans through
/// `tracer`. `cache` is a caller-owned cache (perhaps warm-started from a
/// `drift-store` log, with a spill attached); with `None` the run builds
/// one that records into `recorder`. Results equal [`serve`]'s whatever
/// the observers and the cache's warmth (both are tested).
pub fn serve_observed(
    jobs: Vec<JobSpec>,
    config: &ServeConfig,
    recorder: Recorder,
    tracer: Tracer,
    cache: Option<&ScheduleCache>,
) -> ServeOutcome {
    let owned;
    let cache = match cache {
        Some(cache) => cache,
        None => {
            owned = ScheduleCache::with_recorder(
                config.cache_capacity.max(1),
                cache::SHARDS,
                recorder.clone(),
            );
            &owned
        }
    };
    let workers = config.workers.max(1);
    recorder.gauge_set("drift_serve_workers", &[], workers as i64);
    let (queue, worker_handle) = pooled_queue(
        config.queue_depth,
        (0..workers).map(|_| accelerator(&recorder)),
    );
    let run = Run {
        cache,
        recorder: &recorder,
        tracer: &tracer,
        slots: (0..jobs.len()).map(|_| OnceLock::new()).collect(),
    };

    let start = Instant::now();
    let worker_stats = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..workers)
            .map(|i| {
                let handle = worker_handle.clone();
                let run = &run;
                scope.spawn(move || {
                    let mut stats = WorkerStats::new(i);
                    run_worker(handle, |job, accel| run.settle(job, accel, &mut stats));
                    stats
                })
            })
            .collect();
        // Only the workers hold handles now: if every one of them dies,
        // submission below fails instead of blocking.
        drop(worker_handle);

        // Tag each job with its submission sequence number, the index
        // of its result slot.
        for job in jobs.into_iter().enumerate() {
            // Probe without blocking first so a full queue is visible as
            // a backpressure stall before we commit to the blocking
            // submit.
            let Err(job) = queue.try_submit(job) else {
                record_queue_depth(&recorder, &queue);
                continue;
            };
            recorder.counter_add("drift_serve_backpressure_stalls_total", &[], 1);
            if queue.submit(job).is_err() {
                // Every worker died (only possible via a panic, which
                // the join below re-raises); stop feeding.
                break;
            }
            record_queue_depth(&recorder, &queue);
        }
        queue.close();

        threads
            .into_iter()
            .map(|t| t.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    });
    let wall = start.elapsed();
    // Every job has drained by now.
    recorder.gauge_set("drift_serve_queue_depth", &[], 0);

    let mut results: Vec<JobResult> = run
        .slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every submitted job is answered"))
        .collect();
    // Sequence-stable order: by id, then by submission order (the stable
    // sort keeps the slots' order among equal ids), so duplicate ids
    // come back deterministically at any worker count.
    results.sort_by_key(|r| r.id);
    ServeOutcome {
        results,
        report: ServeReport::aggregate(&worker_stats, cache.stats(), wall),
    }
}

/// What every pool thread of one offline run shares: the cache, the
/// observers, and one result slot per submitted job, indexed by its
/// submission sequence number.
struct Run<'a> {
    cache: &'a ScheduleCache,
    recorder: &'a Recorder,
    tracer: &'a Tracer,
    slots: Vec<OnceLock<JobResult>>,
}

impl Run<'_> {
    /// Offline serve's settle: runs one job as its own ingress edge,
    /// records it into the worker's `stats` and the recorder, and fills
    /// its result slot.
    fn settle(
        &self,
        (seq, spec): (usize, JobSpec),
        accel: &mut DriftAccelerator,
        stats: &mut WorkerStats,
    ) {
        let (recorder, tracer) = (self.recorder, self.tracer);
        // The submission sequence number is the sampling input, and each
        // sampled job gets a root `job` span with cache/solve/execute
        // children.
        let span = tracer.ingress_span(TraceDecision::Undecided, || seq as u64);
        let start = Instant::now();
        let (outcome, cache_hit) = execute_traced(
            None,
            std::slice::from_ref(&spec),
            accel,
            self.cache,
            recorder,
            tracer,
            span,
        )
        .remove(0);
        let end = Instant::now();
        let is_error = matches!(outcome, JobOutcome::Error { .. });
        let job_outcome = if is_error { "error" } else { "ok" };
        let labels = [("kind", spec.kind.label()), ("outcome", job_outcome)];
        Stage::new("serve", "job", recorder)
            .traced(tracer, span)
            .job(spec.id)
            .since(start)
            .end_at(end, job_outcome, &labels);
        recorder.counter_add("drift_serve_jobs_total", &labels, 1);
        stats.record(end.duration_since(start), cache_hit, is_error);
        let result = JobResult {
            id: spec.id,
            outcome,
        };
        self.slots[seq].set(result).expect("one answer per job");
    }
}

/// Samples the queue backlog after a submit: the live gauge plus a
/// histogram of observed depths (for the p99 in `EXPERIMENTS.md`).
fn record_queue_depth(recorder: &Recorder, queue: &JobQueue<(usize, JobSpec), DriftAccelerator>) {
    if recorder.is_enabled() {
        let depth = queue.backlog() as u64;
        recorder.gauge_set("drift_serve_queue_depth", &[], depth as i64);
        recorder.observe(
            "drift_serve_queue_depth_sampled",
            &[],
            drift_obs::contract::QUEUE_DEPTH_BUCKETS,
            depth,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::synthetic_jobs;
    use std::collections::HashSet;

    #[test]
    fn every_job_gets_exactly_one_result() {
        let jobs = synthetic_jobs(120, 6, 11);
        let outcome = serve(jobs.clone(), &ServeConfig::with_workers(4));
        assert_eq!(outcome.results.len(), jobs.len());
        let ids: HashSet<u64> = outcome.results.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), jobs.len(), "duplicated or lost ids");
        assert_eq!(outcome.report.jobs, jobs.len() as u64);
        assert_eq!(outcome.report.errors, 0);
        assert_eq!(outcome.report.workers.len(), 4);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let jobs = synthetic_jobs(60, 4, 23);
        let solo = serve(jobs.clone(), &ServeConfig::with_workers(1));
        let pool = serve(jobs, &ServeConfig::with_workers(4));
        assert_eq!(solo.results, pool.results);
    }

    #[test]
    fn duplicate_ids_are_echoed_both_and_sequence_stable() {
        use crate::job::{JobKind, JobOutcome};
        // Two distinct jobs sharing id 7, interleaved with normal jobs.
        let jobs = vec![
            JobSpec {
                id: 7,
                seed: 1,
                kind: JobKind::Schedule {
                    m: 64,
                    k: 128,
                    n: 64,
                    fa: 0.25,
                    fw: 0.5,
                },
            },
            JobSpec {
                id: 3,
                seed: 2,
                kind: JobKind::Schedule {
                    m: 128,
                    k: 128,
                    n: 128,
                    fa: 0.5,
                    fw: 0.5,
                },
            },
            JobSpec {
                id: 7,
                seed: 9,
                kind: JobKind::Select {
                    tokens: 16,
                    hidden: 32,
                    delta: 0.05,
                    profile: "bert".to_string(),
                },
            },
        ];
        let solo = serve(jobs.clone(), &ServeConfig::with_workers(1));
        let pool = serve(jobs, &ServeConfig::with_workers(4));
        // Both id-7 jobs come back, in submission order: the Schedule
        // outcome (submitted first) before the Select outcome.
        for outcome in [&solo, &pool] {
            let ids: Vec<u64> = outcome.results.iter().map(|r| r.id).collect();
            assert_eq!(ids, vec![3, 7, 7]);
            assert!(matches!(
                outcome.results[1].outcome,
                JobOutcome::Schedule { .. }
            ));
            assert!(matches!(
                outcome.results[2].outcome,
                JobOutcome::Select { .. }
            ));
        }
        assert_eq!(solo.results, pool.results);
    }

    #[test]
    fn repeated_shapes_hit_the_cache() {
        let jobs = synthetic_jobs(100, 2, 5);
        let outcome = serve(jobs, &ServeConfig::with_workers(2));
        assert!(
            outcome.report.cache.hit_rate() > 0.0,
            "expected cache hits on a 2-shape stream: {:?}",
            outcome.report.cache
        );
    }

    #[test]
    fn recorder_does_not_change_serve_results() {
        // The acceptance bar: observability on vs. off is invisible in
        // the result stream.
        let jobs = synthetic_jobs(80, 5, 31);
        let config = ServeConfig::with_workers(3);
        let plain = serve(jobs.clone(), &config);
        let rec = Recorder::enabled();
        let observed = serve_observed(jobs, &config, rec.clone(), Tracer::disabled(), None);
        assert_eq!(plain.results, observed.results);
        assert_eq!(plain.report.jobs, observed.report.jobs);
        assert_eq!(plain.report.cache.hits, observed.report.cache.hits);
        assert_eq!(plain.report.cache.misses, observed.report.cache.misses);

        // The recorder saw the run end to end.
        let snap = rec.registry().unwrap().snapshot();
        assert_eq!(snap.counter_sum("drift_serve_jobs_total"), 80);
        assert_eq!(
            snap.counter_sum("drift_schedule_cache_hits_total"),
            observed.report.cache.hits
        );
        assert_eq!(
            snap.counter_sum("drift_schedule_cache_misses_total"),
            observed.report.cache.misses
        );
        let stage = |name| {
            snap.histogram_merged_where(
                "drift_stage_microseconds",
                &[("tier", "serve"), ("stage", name)],
            )
            .map_or(0, |h| h.count())
        };
        assert_eq!(stage("job"), 80);
        assert_eq!(stage("solve"), observed.report.cache.misses);
    }

    #[test]
    fn prometheus_export_covers_the_serve_pipeline() {
        let jobs = synthetic_jobs(60, 4, 17);
        let rec = Recorder::enabled();
        serve_observed(
            jobs,
            &ServeConfig::with_workers(2),
            rec.clone(),
            Tracer::disabled(),
            None,
        );
        let text = rec.registry().unwrap().snapshot().to_prometheus();
        // The acceptance criteria's minimum exported set.
        for needle in [
            "drift_serve_queue_depth",
            "drift_schedule_cache_hits_total",
            "drift_schedule_cache_misses_total",
            "drift_array_busy_cycles_total{array=\"",
            "drift_stage_microseconds_bucket{outcome=\"ok\",stage=\"job\",tier=\"serve\",",
            "drift_serve_workers 2",
            "drift_selector_decisions_total{decision=\"",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn result_slots_hold_at_the_edges() {
        // No jobs: no results, and every worker reports an empty run.
        let empty = serve(Vec::new(), &ServeConfig::with_workers(4));
        assert!(empty.results.is_empty());
        assert_eq!(empty.report.jobs, 0);
        assert_eq!(empty.report.workers.len(), 4);
        assert!(empty.report.workers.iter().all(|w| w.jobs == 0));

        // More workers than jobs: each job is answered exactly once, as
        // a single worker answers it.
        let jobs = synthetic_jobs(3, 2, 41);
        let solo = serve(jobs.clone(), &ServeConfig::with_workers(1));
        let wide = serve(jobs, &ServeConfig::with_workers(8));
        assert_eq!(wide.results.len(), 3);
        assert_eq!(wide.report.jobs, 3);
        assert_eq!(wide.report.workers.len(), 8);
        assert_eq!(wide.results, solo.results);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let jobs = synthetic_jobs(5, 2, 1);
        let outcome = serve(
            jobs,
            &ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
        );
        assert_eq!(outcome.results.len(), 5);
        assert_eq!(outcome.report.workers.len(), 1);
    }
}
