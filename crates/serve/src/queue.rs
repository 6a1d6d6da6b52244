//! The bounded job queue feeding the worker pool, and the pool of
//! accelerators that run its jobs.
//!
//! One discipline (see `docs/SCHEDULING.md` for the full contract):
//! earliest-deadline-first, a binary heap keyed by each job's absolute
//! deadline (via the [`Deadlined`] trait). Jobs without deadlines sort
//! behind every deadlined job and drain in submission order among
//! themselves; ties on deadline break by submission order. A stream in
//! which no job carries a deadline is therefore delivered FIFO.
//!
//! The heap sits behind one mutex-and-condvar core, which is what
//! lets [`JobQueue::try_submit_batch`] admit a whole batch atomically:
//! one lock acquisition, one capacity check, all-or-shed — no
//! interleaving singleton submit can steal capacity mid-batch.
//!
//! The queue also holds its pool of idle accelerators under that lock
//! ([`pooled_queue`]). The pool is stocked when the queue is made, and
//! [`WorkerHandle::next_with_accelerator`] returns a job together with
//! an idle accelerator to run it on, taking back the one the worker ran
//! its previous job on. The submit side may run a job
//! itself: [`JobQueue::try_lease`] lends it an idle accelerator, but
//! only while the heap is empty. So no more jobs run at once than there
//! are accelerators, and a leased accelerator is never one a queued job
//! could have run on.
//!
//! The queue fixes the behaviours the runtime relies on:
//!
//! * **backpressure** — [`JobQueue::submit`] blocks while the queue is
//!   at capacity, so a fast producer cannot buffer an unbounded job
//!   backlog in memory;
//! * **work sharing** — every [`WorkerHandle`] pulls from the same
//!   queue; a job is delivered to exactly one worker;
//! * **graceful shutdown** — dropping (or [`JobQueue::close`]-ing) the
//!   queue ends the stream: workers first drain every job already
//!   queued, then [`WorkerHandle::next_with_accelerator`] returns `None`
//!   and the worker exits. No job is lost or cut short, and every
//!   accelerator is back in the pool.

use parking_lot::{Condvar, Mutex};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Instant;

/// Exposes a job's absolute deadline to the queue's ordering.
///
/// The default implementation reports no deadline, which means "after
/// every deadlined job, FIFO among peers" — so a type only needs a
/// real implementation when its jobs can carry deadlines.
pub trait Deadlined {
    /// The absolute instant this job must complete by, if any.
    fn deadline(&self) -> Option<Instant> {
        None
    }
}

// Offline serve jobs never carry deadlines; the queue delivers them
// FIFO by construction.
impl Deadlined for (usize, crate::job::JobSpec) {}

/// The producer side of the queue. Owning it keeps the job stream open.
#[derive(Debug)]
pub struct JobQueue<T, A> {
    shared: Arc<Shared<T, A>>,
}

/// A worker's pull handle on the queue. Cloning shares the same queue;
/// when every handle is gone, [`JobQueue::submit`] fails.
#[derive(Debug)]
pub struct WorkerHandle<T, A> {
    shared: Arc<Shared<T, A>>,
}

/// An accelerator lent to the submit side by [`JobQueue::try_lease`].
/// It derefs to the accelerator, and dropping it returns the
/// accelerator to the pool.
#[derive(Debug)]
pub struct Lease<'a, T, A> {
    shared: &'a Shared<T, A>,
    accel: Option<A>,
}

/// Creates a queue holding at most `depth` pending jobs
/// (`depth >= 1` enforced) and a pool of accelerators stocked with
/// `pool`, returning the producer side and the first worker handle.
/// Jobs are delivered earliest absolute deadline first, deadline-less
/// jobs following in submission order, each together with an idle
/// accelerator of type `A` ([`WorkerHandle::next_with_accelerator`]),
/// and the submit side may lease one while no job waits
/// ([`JobQueue::try_lease`]). Since the pool is full from the start, a
/// first job never finds it empty only because a worker thread has not
/// run yet.
pub fn pooled_queue<T, A>(
    depth: usize,
    pool: impl IntoIterator<Item = A>,
) -> (JobQueue<T, A>, WorkerHandle<T, A>) {
    let shared = Arc::new(Shared {
        depth: depth.max(1),
        state: Mutex::new(State {
            buf: BinaryHeap::new(),
            seq: 0,
            closed: false,
            handles: 1,
            idle: pool.into_iter().collect(),
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        JobQueue {
            shared: Arc::clone(&shared),
        },
        WorkerHandle { shared },
    )
}

impl<T, A> JobQueue<T, A> {
    /// Enqueues a job, blocking while the queue is full (backpressure).
    ///
    /// # Errors
    ///
    /// Returns the job back when every [`WorkerHandle`] has been
    /// dropped — there is no one left to run it.
    pub fn submit(&self, job: T) -> Result<(), T>
    where
        T: Deadlined,
    {
        self.shared.submit(job, true)
    }

    /// Enqueues a job without blocking: the producer's way of detecting
    /// a backpressure stall before committing to a blocking
    /// [`JobQueue::submit`].
    ///
    /// # Errors
    ///
    /// Returns the job back when the queue is full right now, or when
    /// every [`WorkerHandle`] has been dropped (a follow-up blocking
    /// `submit` distinguishes the two: it fails only in the latter
    /// case).
    pub fn try_submit(&self, job: T) -> Result<(), T>
    where
        T: Deadlined,
    {
        self.shared.submit(job, false)
    }

    /// Enqueues a whole batch atomically without blocking: either every
    /// job is admitted under a single lock acquisition and capacity
    /// check, or none is (all-or-shed). A batch larger than the queue's
    /// total depth can therefore never be admitted. An empty batch is
    /// trivially admitted.
    ///
    /// # Errors
    ///
    /// Returns the batch back untouched when the queue lacks capacity
    /// for all of it right now, or when every [`WorkerHandle`] has been
    /// dropped.
    pub fn try_submit_batch(&self, jobs: Vec<T>) -> Result<(), Vec<T>>
    where
        T: Deadlined,
    {
        self.shared.submit_batch(jobs)
    }

    /// Lends an idle accelerator to the caller, who runs a job on it
    /// instead of queueing the job. Refused (`None`) while any job is
    /// queued, since a worker would run that one first, and when no
    /// accelerator is idle or every [`WorkerHandle`] has been dropped.
    pub fn try_lease(&self) -> Option<Lease<'_, T, A>> {
        let mut state = self.shared.state.lock();
        if state.handles == 0 || !state.buf.is_empty() {
            return None;
        }
        let accel = state.idle.pop()?;
        Some(Lease {
            shared: &self.shared,
            accel: Some(accel),
        })
    }

    /// Jobs currently waiting in the queue.
    pub fn backlog(&self) -> usize {
        self.shared.state.lock().buf.len()
    }

    /// Closes the queue. Queued jobs are still delivered; afterwards
    /// every worker's next take returns `None`. Dropping the queue is
    /// equivalent.
    pub fn close(self) {}
}

impl<T, A> Drop for JobQueue<T, A> {
    fn drop(&mut self) {
        self.shared.state.lock().closed = true;
        self.shared.not_empty.notify_all();
    }
}

impl<T, A> WorkerHandle<T, A> {
    /// Hands `idle` to the pool, if given (the accelerator the worker
    /// ran its previous job on), then blocks for the next job together
    /// with an idle accelerator, both taken under the queue's one lock.
    /// `None` once the queue is closed *and* drained.
    pub fn next_with_accelerator(&self, idle: Option<A>) -> Option<(T, A)> {
        self.shared.next(idle)
    }

    /// Accelerators idle in the pool right now: a check for tests, which
    /// the serving code never needs.
    pub fn idle(&self) -> usize {
        self.shared.state.lock().idle.len()
    }
}

impl<T, A> Clone for WorkerHandle<T, A> {
    fn clone(&self) -> Self {
        self.shared.state.lock().handles += 1;
        WorkerHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T, A> Drop for WorkerHandle<T, A> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock();
        state.handles -= 1;
        if state.handles == 0 {
            // Blocked submitters must fail now, exactly as a
            // disconnected channel send would.
            drop(state);
            self.shared.not_full.notify_all();
        }
    }
}

impl<T, A> Deref for Lease<'_, T, A> {
    type Target = A;

    fn deref(&self) -> &A {
        self.accel.as_ref().expect("held until the lease drops")
    }
}

impl<T, A> DerefMut for Lease<'_, T, A> {
    fn deref_mut(&mut self) -> &mut A {
        self.accel.as_mut().expect("held until the lease drops")
    }
}

impl<T, A> Drop for Lease<'_, T, A> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock();
        state.idle.extend(self.accel.take());
        // A job queued meanwhile waits for exactly this: a worker
        // with no idle accelerator to run it on.
        let waiting = !state.buf.is_empty();
        drop(state);
        if waiting {
            self.shared.not_empty.notify_one();
        }
    }
}

/// The shared queue core: a `depth`-bounded deadline heap and the idle
/// accelerators behind a mutex, with condvars standing in for a
/// channel's blocking send/recv. One lock over the heap is what makes
/// batch admission atomic against concurrent singleton submits, and
/// one lock over heap and pool is what keeps a lease from passing over
/// a queued job.
#[derive(Debug)]
struct Shared<T, A> {
    depth: usize,
    state: Mutex<State<T, A>>,
    not_empty: Condvar,
    not_full: Condvar,
}

#[derive(Debug)]
struct State<T, A> {
    buf: BinaryHeap<Reverse<EdfItem<T>>>,
    seq: u64,
    closed: bool,
    handles: usize,
    /// Accelerators no job runs on.
    idle: Vec<A>,
}

#[derive(Debug)]
struct EdfItem<T> {
    deadline: Option<Instant>,
    seq: u64,
    job: T,
}

impl<T> EdfItem<T> {
    /// `None` deadlines sort *after* every `Some`: a deadline-less job
    /// never preempts one with a real deadline, and among themselves
    /// deadline-less jobs keep submission order. Equal deadlines also
    /// break by submission order, so the heap is a stable refinement
    /// of FIFO.
    fn rank(&self) -> (bool, Option<Instant>, u64) {
        (self.deadline.is_none(), self.deadline, self.seq)
    }
}

impl<T> Ord for EdfItem<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank().cmp(&other.rank())
    }
}

impl<T> PartialOrd for EdfItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for EdfItem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}

impl<T> Eq for EdfItem<T> {}

impl<T: Deadlined, A> State<T, A> {
    /// Queues `job`, stamped with the next submission number.
    fn push(&mut self, job: T) {
        let deadline = job.deadline();
        let seq = self.seq;
        self.seq += 1;
        self.buf.push(Reverse(EdfItem { deadline, seq, job }));
    }
}

impl<T: Deadlined, A> Shared<T, A> {
    fn submit(&self, job: T, block: bool) -> Result<(), T> {
        let mut state = self.state.lock();
        loop {
            if state.handles == 0 {
                return Err(job);
            }
            if state.buf.len() < self.depth {
                state.push(job);
                // A waiting worker can take the job only with an idle
                // accelerator. With none idle, whoever returns one takes
                // the job or wakes a worker for it.
                let wake = !state.idle.is_empty();
                drop(state);
                if wake {
                    self.not_empty.notify_one();
                }
                return Ok(());
            }
            if !block {
                return Err(job);
            }
            self.not_full.wait(&mut state);
        }
    }

    fn submit_batch(&self, jobs: Vec<T>) -> Result<(), Vec<T>> {
        if jobs.is_empty() {
            return Ok(());
        }
        let mut state = self.state.lock();
        if state.handles == 0 || state.buf.len() + jobs.len() > self.depth {
            return Err(jobs);
        }
        let n = jobs.len();
        for job in jobs {
            state.push(job);
        }
        let wake = !state.idle.is_empty();
        drop(state);
        if wake && n == 1 {
            self.not_empty.notify_one();
        } else if wake {
            self.not_empty.notify_all();
        }
        Ok(())
    }
}

impl<T, A> Shared<T, A> {
    /// Returns `idle` to the pool, then waits for the next job and an
    /// idle accelerator to run it on.
    fn next(&self, idle: Option<A>) -> Option<(T, A)> {
        let mut state = self.state.lock();
        state.idle.extend(idle);
        loop {
            if !state.buf.is_empty() {
                if let Some(accel) = state.idle.pop() {
                    let Reverse(item) = state.buf.pop().expect("the heap is not empty");
                    drop(state);
                    self.not_full.notify_one();
                    return Some((item.job, accel));
                }
            }
            if state.closed && state.buf.is_empty() {
                return None;
            }
            self.not_empty.wait(&mut state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// The tests' payload: an id, and a deadline set per item.
    #[derive(Debug, PartialEq, Eq)]
    struct Timed(u64, Option<Instant>);

    impl Deadlined for Timed {
        fn deadline(&self) -> Option<Instant> {
            self.1
        }
    }

    /// A job without a deadline.
    fn job(id: u64) -> Timed {
        Timed(id, None)
    }

    /// A queue of `depth` with one accelerator per worker.
    fn queue(depth: usize, workers: usize) -> (JobQueue<Timed, ()>, WorkerHandle<Timed, ()>) {
        pooled_queue(depth, vec![(); workers])
    }

    /// The next job's id, taken as a worker takes it: handing back the
    /// accelerator `held`, which its previous job ran on.
    fn pull(handle: &WorkerHandle<Timed, ()>, held: &mut Option<()>) -> Option<u64> {
        let (job, accel) = handle.next_with_accelerator(held.take())?;
        *held = Some(accel);
        Some(job.0)
    }

    /// Closes `queue` and drains it on one worker, in delivery order.
    fn drain(queue: JobQueue<Timed, ()>, handle: &WorkerHandle<Timed, ()>) -> Vec<u64> {
        queue.close();
        let mut held = None;
        std::iter::from_fn(|| pull(handle, &mut held)).collect()
    }

    #[test]
    fn every_job_is_delivered_exactly_once() {
        let (queue, handle) = queue(4, 3);
        let delivered = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let handle = handle.clone();
                let delivered = Arc::clone(&delivered);
                std::thread::spawn(move || {
                    let mut held = None;
                    while pull(&handle, &mut held).is_some() {
                        delivered.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        drop(handle);
        for i in 0..100 {
            queue.submit(job(i)).unwrap();
        }
        queue.close();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(delivered.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn submit_applies_backpressure() {
        let (queue, handle) = queue(2, 1);
        queue.submit(job(1)).unwrap();
        queue.submit(job(2)).unwrap();
        // The queue is full: a third submit blocks until a worker
        // takes a job. Prove it by unblocking from another thread.
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            // Return the handle too: dropping it here would close
            // the queue before the blocked submit gets its slot.
            (pull(&handle, &mut None), handle)
        });
        let start = std::time::Instant::now();
        queue.submit(job(3)).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(20),
            "submit did not block"
        );
        assert_eq!(consumer.join().unwrap().0, Some(1));
    }

    #[test]
    fn close_drains_queued_jobs_first() {
        let (queue, handle) = queue(8, 1);
        for i in 0..5 {
            queue.submit(job(i)).unwrap();
        }
        assert_eq!(queue.backlog(), 5);
        // Deadline-less jobs keep submission order.
        assert_eq!(drain(queue, &handle), vec![0, 1, 2, 3, 4]);
        assert_eq!(pull(&handle, &mut None), None);
    }

    #[test]
    fn try_submit_reports_a_full_queue_without_blocking() {
        let (queue, handle) = queue(1, 1);
        assert_eq!(queue.try_submit(job(1)), Ok(()));
        assert_eq!(queue.try_submit(job(2)), Err(job(2)));
        assert_eq!(pull(&handle, &mut None), Some(1));
        assert_eq!(queue.try_submit(job(2)), Ok(()));
    }

    #[test]
    fn submit_fails_once_all_workers_quit() {
        let (queue, handle) = queue(2, 1);
        drop(handle);
        assert_eq!(queue.submit(job(7)), Err(job(7)));
    }

    #[test]
    fn edf_delivers_earliest_deadline_first() {
        let (queue, handle) = queue(8, 1);
        let base = Instant::now() + Duration::from_secs(10);
        queue
            .submit(Timed(0, Some(base + Duration::from_millis(300))))
            .unwrap();
        queue
            .submit(Timed(1, Some(base + Duration::from_millis(100))))
            .unwrap();
        queue
            .submit(Timed(2, Some(base + Duration::from_millis(200))))
            .unwrap();
        assert_eq!(drain(queue, &handle), vec![1, 2, 0]);
    }

    #[test]
    fn edf_orders_deadline_less_jobs_fifo_behind_deadlined_ones() {
        let (queue, handle) = queue(8, 1);
        let soon = Instant::now() + Duration::from_secs(5);
        queue.submit(Timed(0, None)).unwrap();
        queue
            .submit(Timed(1, Some(soon + Duration::from_secs(1))))
            .unwrap();
        queue.submit(Timed(2, None)).unwrap();
        queue.submit(Timed(3, Some(soon))).unwrap();
        // Deadlined jobs first (earliest first), then the deadline-less
        // ones in submission order.
        assert_eq!(drain(queue, &handle), vec![3, 1, 0, 2]);
    }

    #[test]
    fn edf_breaks_deadline_ties_by_submission_order() {
        let (queue, handle) = queue(8, 1);
        let tie = Instant::now() + Duration::from_secs(3);
        for id in 0..4 {
            queue.submit(Timed(id, Some(tie))).unwrap();
        }
        assert_eq!(drain(queue, &handle), vec![0, 1, 2, 3]);
    }
}
