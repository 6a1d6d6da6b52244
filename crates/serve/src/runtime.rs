//! The batch-serving runtime: queue + worker pool + cache + report.

use crate::cache::{self, ScheduleCache};
use crate::job::{JobResult, JobSpec};
use crate::queue::job_queue;
use crate::stats::ServeReport;
use crate::worker::worker_loop;
use crossbeam::channel::unbounded;
use drift_obs::{Recorder, Tracer};
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
    serve_with_recorder(jobs, config, Recorder::disabled())
}

/// [`serve`] with observability: every stage of the pipeline — queue,
/// cache, workers, and each worker's simulator — records into
/// `recorder` (see `docs/OBSERVABILITY.md` for the metric contract).
///
/// Results and the report are identical to [`serve`] for the same job
/// stream: recording is strictly write-only.
pub fn serve_with_recorder(
    jobs: Vec<JobSpec>,
    config: &ServeConfig,
    recorder: Recorder,
) -> ServeOutcome {
    serve_traced(jobs, config, recorder, Tracer::disabled())
}

/// [`serve_with_recorder`] with distributed tracing: the runtime acts
/// as its own ingress edge, head-sampling jobs by submission sequence
/// number and recording serve-tier spans through `tracer`. With a
/// disabled tracer results are identical to [`serve_with_recorder`].
pub fn serve_traced(
    jobs: Vec<JobSpec>,
    config: &ServeConfig,
    recorder: Recorder,
    tracer: Tracer,
) -> ServeOutcome {
    let cache = ScheduleCache::with_recorder(
        config.cache_capacity.max(1),
        cache::SHARDS,
        recorder.clone(),
    );
    serve_on_cache(jobs, config, recorder, tracer, &cache)
}

/// [`serve_traced`] over a caller-owned cache. The caller may have
/// warm-started the cache from a `drift-store` log and attached a
/// persistence spill before the run; the runtime itself neither knows
/// nor cares — results are a pure function of the job stream either
/// way (warm-vs-cold byte-identity is tested).
pub fn serve_on_cache(
    jobs: Vec<JobSpec>,
    config: &ServeConfig,
    recorder: Recorder,
    tracer: Tracer,
    cache: &ScheduleCache,
) -> ServeOutcome {
    let workers = config.workers.max(1);
    recorder.gauge_set("drift_serve_workers", &[], workers as i64);
    let (queue, worker_handle) = job_queue(config.queue_depth);
    let (result_tx, result_rx) = unbounded();

    let start = Instant::now();
    let (mut results, worker_stats) = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..workers)
            .map(|i| {
                let handle = worker_handle.clone();
                let tx = result_tx.clone();
                let recorder = recorder.clone();
                let tracer = tracer.clone();
                scope.spawn(move || worker_loop(i, handle, tx, cache, recorder, tracer))
            })
            .collect();
        // The scope keeps only the workers' clones alive: when the last
        // worker exits, the result channel disconnects and collection
        // below terminates.
        drop(worker_handle);
        drop(result_tx);

        // Tag each job with its submission sequence number so results
        // for duplicate ids stay in submission order (see the
        // `crate::job` module docs on duplicate-id semantics).
        for job in jobs.into_iter().enumerate().map(|(seq, j)| (seq as u64, j)) {
            let job = if recorder.is_enabled() {
                // Probe without blocking first so a full queue is
                // visible as a backpressure stall before we commit to
                // the blocking submit.
                match queue.try_submit(job) {
                    Ok(()) => {
                        record_queue_depth(&recorder, &queue);
                        continue;
                    }
                    Err(job) => {
                        recorder.counter_add("drift_serve_backpressure_stalls_total", &[], 1);
                        job
                    }
                }
            } else {
                job
            };
            if queue.submit(job).is_err() {
                // Every worker died (only possible via a panic, which
                // the scope will re-raise on join); stop feeding.
                break;
            }
            record_queue_depth(&recorder, &queue);
        }
        queue.close();

        let results: Vec<(u64, JobResult)> = result_rx.iter().collect();
        let stats = threads
            .into_iter()
            .map(|t| t.join().expect("worker panicked"))
            .collect::<Vec<_>>();
        (results, stats)
    });
    let wall = start.elapsed();
    // Every job has drained by now.
    recorder.gauge_set("drift_serve_queue_depth", &[], 0);

    // Sequence-stable order: by id, then by submission order, so
    // duplicate ids come back deterministically at any worker count.
    results.sort_by_key(|(seq, r)| (r.id, *seq));
    ServeOutcome {
        results: results.into_iter().map(|(_, r)| r).collect(),
        report: ServeReport::aggregate(&worker_stats, cache.stats(), wall),
    }
}

/// Samples the queue backlog after a submit: the live gauge plus a
/// histogram of observed depths (for the p99 in `EXPERIMENTS.md`).
fn record_queue_depth(recorder: &Recorder, queue: &crate::queue::JobQueue<(u64, JobSpec)>) {
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
        let observed = serve_with_recorder(jobs, &config, rec.clone());
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
        serve_with_recorder(jobs, &ServeConfig::with_workers(2), rec.clone());
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
