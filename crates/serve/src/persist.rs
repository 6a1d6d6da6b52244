//! Wiring between the in-RAM [`ScheduleCache`] and the on-disk
//! `drift-store` log.
//!
//! A [`StoreBinding`] owns the background flusher: newly solved
//! schedules spill out of the cache over a channel (miss path only —
//! already ~100 µs of solve, so the send is noise), a dedicated thread
//! batches them and appends to the log, and [`StoreBinding::finish`]
//! drains everything at shutdown, syncs, and compacts the log when it
//! has outgrown the live set. Preloaded entries never spill — they came
//! from a store already (see [`ScheduleCache::preload`]).
//!
//! The warm-start contract (what survives a restart, when compaction
//! runs, why warm results are byte-identical to cold) is documented in
//! `docs/PERSISTENCE.md`.

use crate::cache::ScheduleCache;
use drift_core::schedule::{Schedule, ScheduleKey};
use drift_obs::Recorder;
use drift_store::{write_snapshot, StoreWriter};
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the flusher waits for more spilled entries before writing
/// the batch it has.
const FLUSH_INTERVAL: Duration = Duration::from_millis(250);
/// Entries per append batch.
const FLUSH_BATCH: usize = 64;
/// Compact at shutdown when the log holds more than this many records
/// per live cache entry (append-only logs accumulate duplicates and
/// evicted entries; 2× is the point where a rewrite halves the file).
const COMPACT_FACTOR: u64 = 2;

/// A live connection from a [`ScheduleCache`] to a store log.
#[derive(Debug)]
pub struct StoreBinding {
    flusher: JoinHandle<StoreWriter>,
    recorder: Recorder,
}

/// Opens (or creates) the store at `path`, preloads its entries into
/// `cache`, and attaches a background flusher so newly solved schedules
/// are appended. Records `drift_store_records_loaded_total` /
/// `drift_store_records_skipped_total` for the load. Call
/// [`StoreBinding::finish`] before dropping the cache.
///
/// # Errors
///
/// Propagates store open failures (I/O, bad magic, future version) —
/// corrupt *content* is skipped, not fatal.
pub fn open_and_preload(
    path: &Path,
    cache: &ScheduleCache,
    recorder: Recorder,
) -> drift_store::Result<(drift_store::LoadReport, StoreBinding)> {
    let (report, writer) = StoreWriter::open(path)?;
    recorder.counter_add("drift_store_records_loaded_total", &[], report.records);
    recorder.counter_add("drift_store_records_skipped_total", &[], report.skipped);
    cache.preload(&report.entries);
    let binding = StoreBinding::attach(writer, cache, recorder);
    Ok((report, binding))
}

impl StoreBinding {
    /// Attaches `writer` to `cache`: sets the cache's spill channel and
    /// spawns the flusher thread. The binding must be [`finish`]ed (not
    /// just dropped) to guarantee the tail of the spill reaches disk.
    ///
    /// [`finish`]: StoreBinding::finish
    pub fn attach(writer: StoreWriter, cache: &ScheduleCache, recorder: Recorder) -> StoreBinding {
        let (tx, rx) = channel();
        cache.set_spill(tx);
        let flush_recorder = recorder.clone();
        let flusher = std::thread::spawn(move || flusher_loop(writer, rx, flush_recorder));
        StoreBinding { flusher, recorder }
    }

    /// Drains and detaches: drops the cache's spill sender so the
    /// flusher sees disconnection after writing every spilled entry,
    /// joins it, syncs the log, and — when the log has grown to at
    /// least `COMPACT_FACTOR` (2×) the live set — rewrites it to the cache's
    /// resident entries (`drift_store_compactions_total`). Returns the
    /// records now in the log.
    pub fn finish(self, cache: &ScheduleCache) -> drift_store::Result<u64> {
        drop(cache.take_spill());
        let mut writer = self.flusher.join().expect("store flusher panicked");
        writer.sync()?;
        let live = cache.export();
        let (records, live_n) = (writer.records_on_disk(), live.len() as u64);
        if records > live_n && records >= COMPACT_FACTOR * live_n {
            let path = writer.path().to_path_buf();
            drop(writer);
            write_snapshot(&path, &live)?;
            self.recorder
                .counter_add("drift_store_compactions_total", &[], 1);
            return Ok(live.len() as u64);
        }
        Ok(writer.records_on_disk())
    }
}

fn flusher_loop(
    mut writer: StoreWriter,
    rx: Receiver<(ScheduleKey, Schedule)>,
    recorder: Recorder,
) -> StoreWriter {
    let mut batch: Vec<(ScheduleKey, Schedule)> = Vec::with_capacity(FLUSH_BATCH);
    let mut flush = |batch: &mut Vec<(ScheduleKey, Schedule)>| {
        if batch.is_empty() {
            return;
        }
        match writer.append_batch(batch) {
            Ok(bytes) => {
                recorder.counter_add(
                    "drift_store_records_appended_total",
                    &[],
                    batch.len() as u64,
                );
                recorder.counter_add("drift_store_bytes_written_total", &[], bytes);
            }
            Err(e) => {
                // Persistence is best-effort from the serving path's
                // point of view: losing an append batch costs a future
                // warm start some entries, never a live result.
                eprintln!("drift-store append failed: {e}");
            }
        }
        batch.clear();
    };
    loop {
        match rx.recv_timeout(FLUSH_INTERVAL) {
            Ok(entry) => {
                batch.push(entry);
                if batch.len() >= FLUSH_BATCH {
                    flush(&mut batch);
                }
            }
            Err(RecvTimeoutError::Timeout) => flush(&mut batch),
            Err(RecvTimeoutError::Disconnected) => {
                flush(&mut batch);
                break;
            }
        }
    }
    writer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::synthetic_jobs;
    use crate::runtime::{serve_observed, ServeConfig};
    use drift_obs::Tracer;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "drift-persist-test-{}-{tag}-{n}.log",
            std::process::id()
        ))
    }

    #[test]
    fn solved_schedules_reach_the_log_and_warm_start_skips_solving() {
        let path = temp_path("spill");
        let config = ServeConfig::with_workers(2);
        let jobs = synthetic_jobs(40, 4, 9);

        let cache = ScheduleCache::new(config.cache_capacity, crate::cache::SHARDS);
        let (report, binding) = open_and_preload(&path, &cache, Recorder::disabled()).unwrap();
        assert_eq!(report.records, 0);
        let cold = serve_observed(
            jobs.clone(),
            &config,
            Recorder::disabled(),
            Tracer::disabled(),
            Some(&cache),
        );
        let cold_misses = cache.stats().misses;
        assert!(cold_misses > 0);
        binding.finish(&cache).unwrap();

        // Second start: every schedule the first run solved loads from
        // disk, so the same stream misses zero times and the results
        // are byte-identical.
        let warm_cache = ScheduleCache::new(config.cache_capacity, crate::cache::SHARDS);
        let (report, binding) = open_and_preload(&path, &warm_cache, Recorder::disabled()).unwrap();
        assert_eq!(report.records, cold_misses);
        let warm = serve_observed(
            jobs,
            &config,
            Recorder::disabled(),
            Tracer::disabled(),
            Some(&warm_cache),
        );
        assert_eq!(warm_cache.stats().misses, 0, "warm run should never solve");
        assert_eq!(cold.results, warm.results);
        binding.finish(&warm_cache).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn finish_compacts_a_log_that_outgrew_the_live_set() {
        let path = temp_path("compacting");
        let recorder = Recorder::enabled();
        // A 4-entry cache serving 8 distinct shapes: the log gets all 8
        // solves but only 4 stay live, crossing the 2× threshold.
        let cache = ScheduleCache::with_recorder(4, 1, recorder.clone());
        let (_, binding) = open_and_preload(&path, &cache, recorder.clone()).unwrap();
        for i in 0..8 {
            let k = drift_core::schedule::ScheduleKey {
                shape: drift_accel::gemm::GemmShape::new(32 + i * 16, 64, 32).unwrap(),
                act_high: 16,
                weight_high: 16,
                act_precisions: (drift_quant::Precision::INT8, drift_quant::Precision::INT4),
                weight_precisions: (drift_quant::Precision::INT8, drift_quant::Precision::INT4),
                fabric: drift_accel::systolic::ArrayGeometry::new(8, 9).unwrap(),
            };
            cache.get_or_solve(k).unwrap();
        }
        assert_eq!(cache.stats().entries, 4);
        assert_eq!(cache.stats().evictions, 4);
        let records = binding.finish(&cache).unwrap();
        assert_eq!(records, 4, "finish should have compacted to the live set");
        let verified = drift_store::verify(&path, true).unwrap();
        assert_eq!(verified.records, 4);
        let snap = recorder.registry().unwrap().snapshot();
        assert_eq!(snap.counter_sum("drift_store_records_appended_total"), 8);
        assert_eq!(snap.counter_sum("drift_store_compactions_total"), 1);
        assert_eq!(snap.counter_sum("drift_serve_cache_evictions_total"), 4);
        std::fs::remove_file(&path).unwrap();
    }
}
