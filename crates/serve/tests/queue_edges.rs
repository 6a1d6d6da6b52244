//! Shutdown and backpressure edge cases of the job queue, and its
//! accelerator pool's lease rules — the behaviours the gateway's
//! admission control leans on (docs/SCHEDULING.md).

use drift_serve::queue::{job_queue, pooled_queue, Deadlined, WorkerHandle};
use drift_serve::runtime::{serve, ServeConfig};
use drift_serve::synthetic_jobs;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

#[test]
fn try_submit_racing_shutdown_never_panics_and_never_loses_delivered_jobs() {
    // Producers hammer try_submit while the consumer side shuts down at
    // an arbitrary moment. Every Ok(()) must correspond to a delivered
    // job until the close; afterwards try_submit must keep returning
    // Err instead of panicking.
    const PRODUCERS: usize = 4;
    const CONSUMED: usize = 64;

    let (queue, handle) = job_queue::<usize>(2);
    let queue = Arc::new(queue);
    let submitted = Arc::new(AtomicUsize::new(0));
    let delivered = Arc::new(AtomicUsize::new(0));
    // Producers run until the consumer has quit; a fixed attempt count
    // could end before the consumer's quota and deadlock it in
    // next_job() (the queue sender stays alive for the whole test).
    let done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(PRODUCERS + 2));

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let queue = Arc::clone(&queue);
            let submitted = Arc::clone(&submitted);
            let done = Arc::clone(&done);
            let start = Arc::clone(&start);
            scope.spawn(move || {
                start.wait();
                for i in 0.. {
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    if queue.try_submit(p * 1_000_000 + i).is_ok() {
                        submitted.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
        let consumer = {
            let delivered = Arc::clone(&delivered);
            let done = Arc::clone(&done);
            let start = Arc::clone(&start);
            scope.spawn(move || {
                start.wait();
                // Take a handful of jobs, then quit mid-stream: from the
                // producers' side this is an abrupt shutdown.
                for _ in 0..CONSUMED {
                    if handle.next_job().is_none() {
                        break;
                    }
                    delivered.fetch_add(1, Ordering::SeqCst);
                }
                drop(handle);
                done.store(true, Ordering::SeqCst);
            })
        };
        start.wait();
        consumer.join().unwrap();
    });

    // The consumer stopped early, so some accepted jobs may still sit
    // in the (now closed) queue's buffer — but never more than its
    // depth, and nothing was double-counted.
    let submitted = submitted.load(Ordering::SeqCst);
    let delivered = delivered.load(Ordering::SeqCst);
    assert!(delivered <= submitted);
    assert!(
        submitted - delivered <= 2,
        "at most queue_depth accepted jobs may be stranded by an \
         abrupt consumer shutdown: submitted {submitted}, delivered {delivered}"
    );

    // The queue is closed: submission fails cleanly from here on.
    assert_eq!(queue.try_submit(99), Err(99));
    assert_eq!(queue.try_submit(99), Err(99));
}

#[test]
fn try_submit_batch_racing_shutdown_stays_atomic_and_never_panics() {
    // The batch analogue of try_submit_racing_shutdown: producers
    // hammer try_submit_batch while the consumer quits mid-stream.
    // Admission stays all-or-shed under the race — every accepted
    // batch is accounted whole, and after the close try_submit_batch
    // hands the batch back untouched instead of panicking.
    const PRODUCERS: usize = 4;
    const BATCH: usize = 3;
    const CONSUMED: usize = 60;
    const DEPTH: usize = 2 * BATCH;

    let (queue, handle) = job_queue::<usize>(DEPTH);
    let queue = Arc::new(queue);
    let submitted = Arc::new(AtomicUsize::new(0));
    let delivered = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(PRODUCERS + 2));

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let queue = Arc::clone(&queue);
            let submitted = Arc::clone(&submitted);
            let done = Arc::clone(&done);
            let start = Arc::clone(&start);
            scope.spawn(move || {
                start.wait();
                for i in 0.. {
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    let batch: Vec<usize> =
                        (0..BATCH).map(|j| p * 1_000_000 + i * BATCH + j).collect();
                    match queue.try_submit_batch(batch) {
                        Ok(()) => {
                            submitted.fetch_add(BATCH, Ordering::SeqCst);
                        }
                        Err(returned) => {
                            assert_eq!(returned.len(), BATCH, "a shed batch must come back whole")
                        }
                    }
                }
            });
        }
        let consumer = {
            let delivered = Arc::clone(&delivered);
            let done = Arc::clone(&done);
            let start = Arc::clone(&start);
            scope.spawn(move || {
                start.wait();
                for _ in 0..CONSUMED {
                    if handle.next_job().is_none() {
                        break;
                    }
                    delivered.fetch_add(1, Ordering::SeqCst);
                }
                drop(handle);
                done.store(true, Ordering::SeqCst);
            })
        };
        start.wait();
        consumer.join().unwrap();
    });

    // Atomic admission: accepted-but-undelivered jobs are bounded by
    // the queue depth, exactly as in the singleton race.
    let submitted = submitted.load(Ordering::SeqCst);
    let delivered = delivered.load(Ordering::SeqCst);
    assert!(delivered <= submitted);
    assert!(
        submitted - delivered <= DEPTH,
        "at most queue_depth accepted jobs may be stranded: \
         submitted {submitted}, delivered {delivered}"
    );

    // The queue is closed: the whole batch comes back, in order.
    assert_eq!(queue.try_submit_batch(vec![7, 8, 9]), Err(vec![7, 8, 9]));
    assert_eq!(queue.try_submit_batch(vec![7, 8, 9]), Err(vec![7, 8, 9]));
}

#[test]
fn batch_larger_than_capacity_sheds_whole_and_consumes_nothing() {
    let (queue, handle) = job_queue::<u32>(4);
    // Oversized relative to total depth: can never be admitted,
    // even against an empty queue.
    assert_eq!(
        queue.try_submit_batch(vec![1, 2, 3, 4, 5]),
        Err(vec![1, 2, 3, 4, 5])
    );
    assert_eq!(queue.backlog(), 0, "shed must consume no slots");
    // Exactly-at-depth still fits — the shed above charged nothing.
    queue
        .try_submit_batch(vec![10, 11, 12, 13])
        .unwrap_or_else(|_| panic!("a depth-sized batch must fit an empty queue"));
    // Now full: even a minimal batch sheds whole.
    assert_eq!(queue.try_submit_batch(vec![99]), Err(vec![99]));
    let drained: Vec<u32> = (0..4)
        .map(|_| handle.next_job().expect("four jobs are buffered"))
        .collect();
    let expect: HashSet<u32> = [10, 11, 12, 13].into();
    assert_eq!(drained.iter().copied().collect::<HashSet<u32>>(), expect);
}

#[test]
fn depth_one_queue_drains_batches_of_one_and_sheds_anything_larger() {
    // The tightest queue: batch admission degenerates to singleton
    // behaviour at size 1 and must shed any larger batch whole —
    // nothing lost, nothing duplicated.
    const JOBS: usize = 64;
    let (queue, handle) = job_queue::<usize>(1);
    let queue = Arc::new(queue);
    let delivered: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            while let Some(job) = handle.next_job() {
                delivered.lock().unwrap().push(job);
            }
        });
        // A batch of two can never fit depth 1, no matter how
        // drained the queue is at the instant of the check.
        assert_eq!(queue.try_submit_batch(vec![900, 901]), Err(vec![900, 901]));
        for job in 0..JOBS {
            // Spin until the size-1 batch is admitted; every shed
            // hands the job back for the retry.
            let mut batch = vec![job];
            loop {
                match queue.try_submit_batch(batch) {
                    Ok(()) => break,
                    Err(returned) => {
                        assert_eq!(returned, vec![job]);
                        batch = returned;
                        std::thread::yield_now();
                    }
                }
            }
        }
        drop(queue);
        consumer.join().unwrap();
    });
    let drained = delivered.into_inner().unwrap();
    assert_eq!(drained.len(), JOBS, "lost or duplicated jobs");
    let unique: HashSet<usize> = drained.iter().copied().collect();
    assert_eq!(unique.len(), JOBS, "duplicated jobs");
}

#[test]
fn submit_after_shutdown_returns_the_job_instead_of_panicking() {
    let (queue, handle) = job_queue::<u32>(4);
    queue.try_submit(1).unwrap();
    drop(handle);
    // Both the blocking and non-blocking paths must hand the job back.
    assert_eq!(queue.submit(2), Err(2));
    assert_eq!(queue.try_submit(3), Err(3));
    // And stay in that state on repeated calls.
    assert_eq!(queue.submit(2), Err(2));
}

/// A queue payload carrying an absolute deadline.
#[derive(Debug, Clone)]
struct Timed {
    budget_ticks: u64,
    deadline: Instant,
}

impl Deadlined for Timed {
    fn deadline(&self) -> Option<Instant> {
        Some(self.deadline)
    }
}

#[test]
fn edf_meets_strictly_more_deadlines_than_fifo_on_a_backlogged_burst() {
    // The deterministic core of the EXPERIMENTS.md overload sweep: an
    // overload burst lands a backlog of jobs with uniform random
    // deadline budgets on the queue all at once, and a single worker
    // then drains it at one job per tick. A job dequeued at position p
    // completes at tick p + 1 and meets its deadline iff
    // p + 1 <= budget. Arrival order (FIFO) lets tight-budget jobs deep
    // in the backlog expire while loose ones ahead of them waste their
    // slack; the queue drains in deadline order and must meet strictly
    // more (docs/SCHEDULING.md). Virtual time only — nothing sleeps, so
    // the assertion is exact and single-core-safe.
    const BURST: u64 = 64;

    let base = Instant::now() + Duration::from_secs(3600);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let budgets: Vec<u64> = (0..BURST)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state % BURST + 1
        })
        .collect();

    // Arrival order: the job at position p meets its deadline iff
    // budget >= p + 1.
    let fifo = (1..)
        .zip(&budgets)
        .filter(|&(tick, &budget)| budget >= tick)
        .count() as u64;

    let (queue, handle) = job_queue::<Timed>(BURST as usize);
    for budget_ticks in budgets.iter().copied() {
        queue
            .try_submit(Timed {
                budget_ticks,
                deadline: base + Duration::from_millis(budget_ticks),
            })
            .expect("the queue is deep enough for the whole burst");
    }
    drop(queue);
    let mut edf = 0;
    let mut tick = 0;
    while let Some(job) = handle.next_job() {
        tick += 1;
        if job.budget_ticks >= tick {
            edf += 1;
        }
    }
    assert_eq!(tick, BURST, "the drain must deliver the whole burst");

    assert!(
        edf > fifo,
        "EDF must meet strictly more deadlines than FIFO on a random \
         backlog: edf {edf}, fifo {fifo}"
    );
}

#[test]
fn draining_through_a_depth_one_queue_loses_zero_results() {
    // The tightest possible queue forces a backpressure stall on nearly
    // every submit; the run must still produce exactly one result per
    // job.
    let jobs = synthetic_jobs(64, 4, 13);
    let outcome = serve(
        jobs.clone(),
        &ServeConfig {
            workers: 3,
            queue_depth: 1,
            ..ServeConfig::default()
        },
    );
    assert_eq!(outcome.results.len(), jobs.len());
    let ids: HashSet<u64> = outcome.results.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), jobs.len(), "duplicated or lost ids");
    assert_eq!(outcome.report.jobs, jobs.len() as u64);
}

/// Spins until `n` accelerators are idle in the pool behind `handle`.
fn await_idle<T, A>(handle: &WorkerHandle<T, A>, n: usize) {
    while handle.idle() != n {
        std::thread::yield_now();
    }
}

#[test]
fn a_lease_is_refused_while_any_job_is_queued() {
    // One worker that reports each job it takes and holds the job's
    // accelerator until told to finish it.
    let (queue, handle) = pooled_queue::<u32, u32>(4, [7]);
    let (started_tx, started) = mpsc::channel();
    let (finish, finish_rx) = mpsc::channel::<()>();
    let worker = {
        let handle = handle.clone();
        std::thread::spawn(move || {
            let mut idle = None;
            while let Some((job, accel)) = handle.next_with_accelerator(idle.take()) {
                started_tx.send(job).unwrap();
                finish_rx.recv().unwrap();
                idle = Some(accel);
            }
        })
    };
    // An empty heap and an idle accelerator: the lease is granted, and
    // dropping it puts the accelerator back.
    assert_eq!(queue.try_lease().as_deref(), Some(&7));
    assert_eq!(handle.idle(), 1);

    queue.submit(1).unwrap();
    assert_eq!(started.recv().unwrap(), 1);
    queue.submit(2).unwrap();
    assert!(queue.try_lease().is_none(), "job 2 is queued");
    finish.send(()).unwrap();
    // The worker hands its accelerator back and takes job 2 with it
    // under the same lock: no lease slips in between.
    assert_eq!(started.recv().unwrap(), 2);
    assert!(queue.try_lease().is_none(), "job 2 holds the accelerator");
    finish.send(()).unwrap();
    await_idle(&handle, 1);
    assert!(queue.try_lease().is_some(), "drained and idle again");

    drop(queue);
    worker.join().unwrap();
}

#[test]
fn a_worker_waiting_on_a_queued_job_is_never_passed_over_by_a_lease() {
    // A job queued while the only accelerator is leased waits for it;
    // when the lease returns it, the waiting worker must get it, however
    // fast the submit side asks again.
    const ROUNDS: u32 = 200;
    let (queue, handle) = pooled_queue::<u32, u32>(4, [0]);
    let taken = Arc::new(AtomicUsize::new(0));
    let worker = {
        let handle = handle.clone();
        let taken = Arc::clone(&taken);
        std::thread::spawn(move || {
            let mut idle = None;
            while let Some((_job, accel)) = handle.next_with_accelerator(idle.take()) {
                // Counted before the accelerator goes back to the pool.
                taken.fetch_add(1, Ordering::SeqCst);
                idle = Some(accel);
            }
        })
    };
    for round in 0..ROUNDS {
        await_idle(&handle, 1);
        let lease = queue.try_lease().expect("the accelerator is idle");
        queue.submit(round).unwrap();
        drop(lease);
        let lease = loop {
            if let Some(lease) = queue.try_lease() {
                break lease;
            }
            std::thread::yield_now();
        };
        assert_eq!(
            taken.load(Ordering::SeqCst),
            round as usize + 1,
            "round {round}: a lease passed over the queued job"
        );
        drop(lease);
    }
    drop(queue);
    worker.join().unwrap();
}

#[test]
fn leases_and_workers_never_run_more_jobs_than_accelerators() {
    // Submitters that also lease race the workers for the pool. Every
    // run, whether a worker's or a lease's, is counted while it holds
    // its accelerator; the high-water mark may never exceed the pool,
    // and no accelerator is ever held twice.
    const WORKERS: usize = 2;
    const SUBMITTERS: usize = 3;
    const JOBS_EACH: usize = 400;
    let (queue, handle) = pooled_queue::<usize, usize>(8, 0..WORKERS);
    let queue = Arc::new(queue);
    let running = AtomicUsize::new(0);
    let high = AtomicUsize::new(0);
    let held: Vec<AtomicBool> = (0..WORKERS).map(|_| AtomicBool::new(false)).collect();
    let (worker_runs, leased_runs) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let run = |accel: usize| {
        assert!(
            !held[accel].swap(true, Ordering::SeqCst),
            "accelerator {accel} held twice"
        );
        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
        high.fetch_max(now, Ordering::SeqCst);
        std::thread::yield_now();
        running.fetch_sub(1, Ordering::SeqCst);
        held[accel].store(false, Ordering::SeqCst);
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let handle = handle.clone();
                let (run, worker_runs) = (&run, &worker_runs);
                scope.spawn(move || {
                    let mut idle = None;
                    while let Some((_job, accel)) = handle.next_with_accelerator(idle.take()) {
                        run(accel);
                        worker_runs.fetch_add(1, Ordering::SeqCst);
                        idle = Some(accel);
                    }
                })
            })
            .collect();
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|s| {
                let queue = Arc::clone(&queue);
                let (run, leased_runs) = (&run, &leased_runs);
                scope.spawn(move || {
                    for i in 0..JOBS_EACH {
                        match queue.try_lease() {
                            Some(lease) => {
                                run(*lease);
                                leased_runs.fetch_add(1, Ordering::SeqCst);
                            }
                            None => queue.submit(s * JOBS_EACH + i).unwrap(),
                        }
                    }
                })
            })
            .collect();
        for submitter in submitters {
            submitter.join().unwrap();
        }
        // The submitters' clones are gone: this closes the queue.
        drop(queue);
        for worker in workers {
            worker.join().unwrap();
        }
    });
    let high = high.load(Ordering::SeqCst);
    assert!(
        high <= WORKERS,
        "{high} jobs ran at once on {WORKERS} accelerators"
    );
    let (worker_runs, leased_runs) = (worker_runs.into_inner(), leased_runs.into_inner());
    assert_eq!(
        worker_runs + leased_runs,
        SUBMITTERS * JOBS_EACH,
        "lost or duplicated jobs"
    );
    assert_eq!(handle.idle(), WORKERS);
}

#[test]
fn close_drains_every_job_and_returns_every_accelerator() {
    const WORKERS: usize = 3;
    const JOBS: usize = 50;
    let (queue, handle) = pooled_queue::<usize, usize>(JOBS, 0..WORKERS);
    for job in 0..JOBS {
        queue.submit(job).unwrap();
    }
    // A lease borrows the queue, so none can be outstanding at the
    // close: the pool and the workers hold every accelerator there is.
    let delivered = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let handle = handle.clone();
                let delivered = &delivered;
                scope.spawn(move || {
                    let mut idle = None;
                    while let Some((job, accel)) = handle.next_with_accelerator(idle.take()) {
                        delivered.lock().unwrap().push(job);
                        idle = Some(accel);
                    }
                })
            })
            .collect();
        queue.close();
        for worker in workers {
            worker.join().unwrap();
        }
    });
    let mut delivered = delivered.into_inner().unwrap();
    delivered.sort_unstable();
    assert_eq!(
        delivered,
        (0..JOBS).collect::<Vec<_>>(),
        "lost or duplicated jobs"
    );
    assert_eq!(handle.idle(), WORKERS, "an accelerator did not come back");
}
