//! The sharded LRU schedule cache.
//!
//! The Eq. 8 sweep is the expensive part of a schedule/simulate job —
//! `O(C·R)` latency-model evaluations per layer — yet its answer
//! depends only on the [`ScheduleKey`] (shape, high-precision counts,
//! precisions, fabric). Serving workloads repeat shapes constantly
//! (every layer of every request of the same model), so one shared
//! cache turns almost all of those sweeps into lookups.
//!
//! The map is split into shards, each behind its own `parking_lot`
//! mutex, so workers contend only when their keys land in the same
//! shard. Within a shard, entries are stamped on use and the
//! least-recently-used one is evicted when the shard outgrows its
//! capacity slice.
//!
//! A cold key is solved once: the first caller to miss it solves it
//! outside the shard lock, and callers that miss it meanwhile wait for
//! that solve and count as hits. So a miss always means "ran the
//! scheduler".

use drift_core::schedule::{Schedule, ScheduleKey};
use drift_obs::{Recorder, SpanCtx, Stage, Tracer};
use parking_lot::{Condvar, Mutex};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

/// The shard count every serving path builds its cache with: the
/// offline runtime, `drift serve` and the gateway.
pub const SHARDS: usize = 16;

/// Aggregate cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the scheduler.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries evicted to make room (LRU within a full shard).
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over total lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    schedule: Schedule,
    last_used: u64,
}

struct Shard {
    entries: HashMap<ScheduleKey, Entry>,
    /// Keys being solved now, each with the flight its waiters wait on.
    solving: HashMap<ScheduleKey, Arc<Flight>>,
    /// Monotonic use counter; larger = more recently used.
    tick: u64,
}

/// How a solve in flight ended, as its waiters see it.
enum Landing {
    /// Still solving.
    Airborne,
    /// The solve's outcome.
    Solved(drift_core::Result<Schedule>),
    /// The solver unwound without an outcome.
    Abandoned,
}

/// One solve in progress, which callers that miss its key wait on.
struct Flight {
    landing: Mutex<Landing>,
    landed: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            landing: Mutex::new(Landing::Airborne),
            landed: Condvar::new(),
        }
    }

    /// Blocks until the solve ends: its outcome, or `None` if the
    /// solver unwound.
    fn wait(&self) -> Option<drift_core::Result<Schedule>> {
        let mut landing = self.landing.lock();
        loop {
            match &*landing {
                Landing::Airborne => self.landed.wait(&mut landing),
                Landing::Solved(outcome) => return Some(outcome.clone()),
                Landing::Abandoned => return None,
            }
        }
    }
}

/// The solving caller's hold on a flight. Dropping it takes the key off
/// its shard's solving list, then lands the flight with `outcome`, or
/// as abandoned if the solver unwound before setting one.
struct Pilot<'a> {
    cache: &'a ScheduleCache,
    key: ScheduleKey,
    flight: Arc<Flight>,
    outcome: Option<drift_core::Result<Schedule>>,
}

impl Drop for Pilot<'_> {
    fn drop(&mut self) {
        self.cache
            .shard_for(&self.key)
            .lock()
            .solving
            .remove(&self.key);
        *self.flight.landing.lock() = match self.outcome.take() {
            Some(outcome) => Landing::Solved(outcome),
            None => Landing::Abandoned,
        };
        self.flight.landed.notify_all();
    }
}

/// What a lookup that may join a solve in flight found.
enum Lookup {
    /// A cached schedule, or the outcome of the solve it waited for.
    Hit(drift_core::Result<Schedule>),
    /// A miss: the caller solves the key and lands this flight.
    Solve(Arc<Flight>),
}

/// A thread-safe schedule cache shared by all workers.
pub struct ScheduleCache {
    shards: Box<[Mutex<Shard>]>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// When set, every *newly solved* schedule is also sent here — the
    /// persistence spill feeding `drift-store`'s background appender.
    /// Preloaded and prewarmed entries never spill (they came from a
    /// store already). Touched only on the miss path, which already
    /// costs a ~100 µs solve, so the channel send is noise.
    spill: Mutex<Option<Sender<(ScheduleKey, Schedule)>>>,
    recorder: Recorder,
}

impl std::fmt::Debug for ScheduleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ScheduleCache")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .field("stats", &stats)
            .finish()
    }
}

impl ScheduleCache {
    /// Creates a cache holding at most `capacity` schedules across
    /// `shards` shards (both clamped to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        ScheduleCache::with_recorder(capacity, shards, Recorder::disabled())
    }

    /// Like [`ScheduleCache::new`], but mirroring hit/miss/residency
    /// counters and the lookup and Eq. 8 solve stages into `recorder`.
    pub fn with_recorder(capacity: usize, shards: usize, recorder: Recorder) -> Self {
        let shards = shards.clamp(1, capacity.max(1));
        ScheduleCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        solving: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            per_shard_capacity: capacity.max(1).div_ceil(shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            spill: Mutex::new(None),
            recorder,
        }
    }

    /// Routes newly solved schedules into `tx` as well as the cache
    /// (see the `spill` field). Replaces any previous spill.
    pub fn set_spill(&self, tx: Sender<(ScheduleKey, Schedule)>) {
        *self.spill.lock() = Some(tx);
    }

    /// Detaches the spill channel, dropping the cache's sender so a
    /// receiver loop draining it sees disconnection and can exit.
    pub fn take_spill(&self) -> Option<Sender<(ScheduleKey, Schedule)>> {
        self.spill.lock().take()
    }

    fn shard_for(&self, key: &ScheduleKey) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() % self.shards.len() as u64) as usize]
    }

    /// Looks up `key`, counting a hit or miss.
    pub fn get(&self, key: &ScheduleKey) -> Option<Schedule> {
        let found = Self::stamp(&mut self.shard_for(key).lock(), key);
        self.count(found.is_some());
        found
    }

    /// `key`'s resident schedule, marked most recently used.
    fn stamp(shard: &mut Shard, key: &ScheduleKey) -> Option<Schedule> {
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard.entries.get_mut(key)?;
        entry.last_used = tick;
        Some(entry.schedule)
    }

    /// Counts one lookup as a hit or a miss.
    fn count(&self, hit: bool) {
        let (counter, name) = if hit {
            (&self.hits, "drift_schedule_cache_hits_total")
        } else {
            (&self.misses, "drift_schedule_cache_misses_total")
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.recorder.counter_add(name, &[], 1);
    }

    /// Looks up `key`, waiting for its solve if one is in flight; on a
    /// miss, registers the caller's solve of it.
    fn lookup(&self, key: &ScheduleKey) -> Lookup {
        loop {
            let flight = {
                let mut shard = self.shard_for(key).lock();
                if let Some(schedule) = Self::stamp(&mut shard, key) {
                    self.count(true);
                    return Lookup::Hit(Ok(schedule));
                }
                match shard.solving.get(key) {
                    Some(flight) => Arc::clone(flight),
                    None => {
                        let flight = Arc::new(Flight::new());
                        shard.solving.insert(*key, Arc::clone(&flight));
                        self.count(false);
                        return Lookup::Solve(flight);
                    }
                }
            };
            if let Some(outcome) = flight.wait() {
                self.count(true);
                return Lookup::Hit(outcome);
            }
            // The solver unwound: look again, and solve if still cold.
        }
    }

    /// Inserts a schedule, evicting the shard's least-recently-used
    /// entry when the shard is full.
    pub fn insert(&self, key: ScheduleKey, schedule: Schedule) {
        self.put(key, schedule);
    }

    /// [`ScheduleCache::insert`], returning whether `key` was absent.
    fn put(&self, key: ScheduleKey, schedule: Schedule) -> bool {
        let (grew, added);
        {
            let mut shard = self.shard_for(&key).lock();
            shard.tick += 1;
            let tick = shard.tick;
            if shard.entries.len() >= self.per_shard_capacity && !shard.entries.contains_key(&key) {
                // O(shard) scan: shards are small (capacity / shard count),
                // and eviction only runs when a full shard takes a new key.
                if let Some(evict) = shard
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                {
                    shard.entries.remove(&evict);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    self.recorder
                        .counter_add("drift_serve_cache_evictions_total", &[], 1);
                }
            }
            let before = shard.entries.len();
            added = shard
                .entries
                .insert(
                    key,
                    Entry {
                        schedule,
                        last_used: tick,
                    },
                )
                .is_none();
            grew = shard.entries.len() > before;
        }
        if grew {
            // Only net growth moves the residency gauge; an insert that
            // evicted (or replaced an existing key) is a wash. Tracking
            // the delta here keeps `snapshot` from locking every shard.
            self.recorder
                .gauge_add("drift_schedule_cache_entries", &[], 1);
        }
        added
    }

    /// Warm-starts the cache from already-solved entries (a store load
    /// or a reshard prewarm): inserts without touching the hit/miss
    /// counters and without spilling — these schedules are already
    /// durable somewhere. Normal LRU eviction applies, so preloading
    /// more than the capacity keeps only the most recent entries.
    /// Returns how many entries were inserted.
    pub fn preload(&self, entries: &[(ScheduleKey, Schedule)]) -> usize {
        for (key, schedule) in entries {
            self.insert(*key, *schedule);
        }
        entries.len()
    }

    /// Snapshots the resident entries for persistence. Within each
    /// shard, entries come out least-recently-used first, so a
    /// [`ScheduleCache::preload`] of the result into a same-shaped
    /// cache reproduces each shard's eviction order.
    pub fn export(&self) -> Vec<(ScheduleKey, Schedule)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock();
            let mut entries: Vec<_> = shard
                .entries
                .iter()
                .map(|(k, e)| (e.last_used, *k, e.schedule))
                .collect();
            entries.sort_unstable_by_key(|(used, ..)| *used);
            out.extend(entries.into_iter().map(|(_, k, s)| (k, s)));
        }
        out
    }

    /// Returns `key`'s schedule, running the Eq. 8 sweep on a miss.
    /// The `bool` is true on a hit. The sweep runs outside the shard
    /// lock, once per cold key: a caller that misses a key another is
    /// solving waits for that solve and counts a hit.
    ///
    /// # Errors
    ///
    /// Propagates [`ScheduleKey::solve`] errors (nothing is cached).
    pub fn get_or_solve(&self, key: ScheduleKey) -> drift_core::Result<(Schedule, bool)> {
        self.get_or_solve_traced(key, &Tracer::disabled(), None)
    }

    /// [`ScheduleCache::get_or_solve`], timing the serve-tier
    /// `cache_lookup` stage and, on a miss, the `solve` stage: into the
    /// cache's recorder, and as trace spans through `tracer` under
    /// `parent` when the request is sampled.
    ///
    /// # Errors
    ///
    /// Propagates [`ScheduleKey::solve`] errors (nothing is cached).
    pub fn get_or_solve_traced(
        &self,
        key: ScheduleKey,
        tracer: &Tracer,
        parent: Option<SpanCtx>,
    ) -> drift_core::Result<(Schedule, bool)> {
        let stage = |name| {
            Stage::new("serve", name, &self.recorder)
                .traced(tracer, parent.map(|p| p.child(tracer)))
                .open()
        };
        let lookup = stage("cache_lookup");
        let flight = match self.lookup(&key) {
            Lookup::Hit(outcome) => {
                lookup.end("hit", &[("hit", "true")]);
                return outcome.map(|schedule| (schedule, true));
            }
            Lookup::Solve(flight) => flight,
        };
        lookup.end("miss", &[("hit", "false")]);
        let mut pilot = Pilot {
            cache: self,
            key,
            flight,
            outcome: None,
        };
        let solve = stage("solve");
        let outcome = key.solve();
        pilot.outcome = Some(outcome.clone());
        let schedule = outcome?;
        solve.end("ok", &[]);
        // Insert before the pilot lands, so that no caller finds the key
        // neither resident nor in flight. Only the solve that added the
        // key spills it: a second spill would write a duplicate store
        // record.
        let added = self.put(key, schedule);
        drop(pilot);
        if !added {
            return Ok((schedule, false));
        }
        if let Some(tx) = self.spill.lock().as_ref() {
            // A disconnected receiver (persistence already shut down)
            // must never fail a solve; the entry is simply not spilled.
            let _ = tx.send((key, schedule));
        }
        Ok((schedule, false))
    }

    /// Current counters and residency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().entries.len()).sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drift_accel::gemm::GemmShape;
    use drift_accel::systolic::ArrayGeometry;
    use drift_quant::Precision;

    fn key(m: usize, n: usize, ah: usize, wh: usize) -> ScheduleKey {
        ScheduleKey {
            shape: GemmShape::new(m, 256, n).unwrap(),
            act_high: ah,
            weight_high: wh,
            act_precisions: (Precision::INT8, Precision::INT4),
            weight_precisions: (Precision::INT8, Precision::INT4),
            fabric: ArrayGeometry::new(8, 9).unwrap(),
        }
    }

    #[test]
    fn second_lookup_hits_and_matches_solve() {
        let cache = ScheduleCache::new(64, 4);
        let k = key(64, 64, 16, 8);
        let (first, hit1) = cache.get_or_solve(k).unwrap();
        let (second, hit2) = cache.get_or_solve(k).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(first, second);
        assert_eq!(first, k.solve().unwrap());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // One shard of capacity 2 makes the eviction order observable.
        let cache = ScheduleCache::new(2, 1);
        let (a, b, c) = (key(32, 32, 8, 8), key(48, 32, 8, 8), key(64, 32, 8, 8));
        cache.get_or_solve(a).unwrap();
        cache.get_or_solve(b).unwrap();
        cache.get(&a); // refresh a: b is now the LRU entry
        cache.get_or_solve(c).unwrap(); // evicts b
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&b).is_none());
        assert!(cache.get(&c).is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn concurrent_workers_agree_on_schedules() {
        let cache = ScheduleCache::new(128, 8);
        let baseline: Vec<_> = (0..8)
            .map(|i| key(64 + i * 8, 64, 16, 8).solve().unwrap())
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for round in 0..3 {
                        for (i, expected) in baseline.iter().enumerate() {
                            let k = key(64 + i * 8, 64, 16, 8);
                            let (got, _) = cache.get_or_solve(k).unwrap();
                            assert_eq!(&got, expected, "round {round}");
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 3 * 8);
        assert!(stats.hits > 0);
        assert_eq!(stats.entries, 8);
    }

    #[test]
    fn concurrent_misses_spill_each_key_once() {
        // Threads released together race to miss the same cold keys;
        // however many of them solve a key, the store must receive it
        // exactly once.
        const THREADS: usize = 4;
        const KEYS: usize = 16;
        let cache = ScheduleCache::new(128, 8);
        let (tx, rx) = std::sync::mpsc::channel();
        cache.set_spill(tx);
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for i in 0..KEYS {
                        cache.get_or_solve(key(32 + i * 8, 64, 8, 8)).unwrap();
                    }
                });
            }
        });
        drop(cache.take_spill());
        let mut spilled: Vec<_> = rx.iter().map(|(k, _)| k.shape.m).collect();
        spilled.sort_unstable();
        assert_eq!(spilled, (0..KEYS).map(|i| 32 + i * 8).collect::<Vec<_>>());
        // Each key was solved once; every other lookup, waiting or not,
        // was a hit.
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.hits),
            (KEYS as u64, ((THREADS - 1) * KEYS) as u64)
        );
    }

    #[test]
    fn a_waiter_takes_over_a_solve_that_unwound() {
        let cache = ScheduleCache::new(64, 1);
        let k = key(64, 64, 16, 8);
        let Lookup::Solve(flight) = cache.lookup(&k) else {
            panic!("a cold key is a miss");
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| cache.get_or_solve(k).unwrap());
            // The solver unwinds: its pilot lands the flight abandoned.
            drop(Pilot {
                cache: &cache,
                key: k,
                flight,
                outcome: None,
            });
            let (schedule, hit) = waiter.join().unwrap();
            assert_eq!(schedule, k.solve().unwrap());
            // Whether it waited or looked after the landing, the waiter
            // found the key cold and solved it.
            assert!(!hit);
        });
        assert_eq!(cache.stats().misses, 2);
    }
}
