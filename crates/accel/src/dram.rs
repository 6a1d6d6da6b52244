//! A banked row-buffer DRAM simulator.
//!
//! Stand-in for DRAMsim3 (paper Section 5.1): models channels, banks,
//! row-buffer hits/misses, burst timing, and per-access energy. All
//! timings are in accelerator cycles at the paper's 500 MHz clock.
//!
//! Accuracy goal: capture the two effects the paper uses DRAMsim3 for —
//! (1) the latency of streaming weights/activations (sequential traffic
//! is row-buffer friendly; the effective bandwidth gates layer latency
//! under double buffering), and (2) DRAM access energy, the dominant
//! dynamic-energy term of Fig. 8.
//!
//! [`DramSim::stream`] walks a transfer one (channel, row) run at a
//! time: only a run's first burst can miss, so the cost is O(rows
//! touched), not O(bursts). The per-burst loop stays as the reference,
//! [`DramSim::stream_stepped`], and a property test holds the two equal
//! in cycles, [`DramStats`] and row state.

use crate::{AccelError, Result};
use serde::{Deserialize, Serialize};

/// DRAM organisation and timing/energy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Independent channels (transfers proceed in parallel).
    pub channels: usize,
    /// Banks per channel (each with one open row).
    pub banks_per_channel: usize,
    /// Row size in bytes.
    pub row_bytes: u64,
    /// Burst (minimum transfer) size in bytes.
    pub burst_bytes: u64,
    /// RAS-to-CAS delay in cycles (row activation).
    pub t_rcd: u64,
    /// Row precharge in cycles.
    pub t_rp: u64,
    /// CAS latency in cycles.
    pub t_cl: u64,
    /// Data transfer cycles per burst.
    pub t_burst: u64,
    /// Energy per row activation, in pJ.
    pub e_activate_pj: f64,
    /// Read energy per byte, in pJ.
    pub e_read_pj_per_byte: f64,
    /// Write energy per byte, in pJ.
    pub e_write_pj_per_byte: f64,
}

impl Default for DramConfig {
    /// A 4-channel LPDDR-class part at accelerator clock: 64 B bursts,
    /// 2 KiB rows, ~32 GB/s peak at 500 MHz, ~15 pJ/byte.
    fn default() -> Self {
        DramConfig {
            channels: 4,
            banks_per_channel: 8,
            row_bytes: 2048,
            burst_bytes: 64,
            t_rcd: 14,
            t_rp: 14,
            t_cl: 14,
            t_burst: 4,
            e_activate_pj: 1500.0,
            e_read_pj_per_byte: 15.0,
            e_write_pj_per_byte: 15.0,
        }
    }
}

impl DramConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when a structural parameter
    /// is zero or the burst exceeds the row.
    pub fn validate(&self) -> Result<()> {
        if self.channels == 0 || self.banks_per_channel == 0 {
            return Err(AccelError::InvalidConfig {
                name: "dram",
                detail: "channels and banks must be positive".to_string(),
            });
        }
        if self.burst_bytes == 0 || self.row_bytes == 0 || self.burst_bytes > self.row_bytes {
            return Err(AccelError::InvalidConfig {
                name: "dram",
                detail: format!(
                    "need 0 < burst ({}) <= row ({})",
                    self.burst_bytes, self.row_bytes
                ),
            });
        }
        Ok(())
    }

    /// Peak bandwidth in bytes per cycle (all channels busy, row hits).
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.channels as f64 * self.burst_bytes as f64 / self.t_burst as f64
    }
}

/// Cumulative DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DramStats {
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Row-buffer hits (bursts served from an open row).
    pub row_hits: u64,
    /// Row-buffer misses (bursts requiring precharge + activate).
    pub row_misses: u64,
    /// Total energy in pJ.
    pub energy_pj: f64,
}

impl DramStats {
    /// Row-buffer hit rate (0 when no traffic).
    pub fn hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// A stateful DRAM simulator.
///
/// # Example
///
/// ```rust
/// use drift_accel::dram::{DramConfig, DramSim};
///
/// # fn main() -> Result<(), drift_accel::AccelError> {
/// let mut dram = DramSim::new(DramConfig::default())?;
/// // Sequential streams are row-buffer friendly:
/// let cycles = dram.stream(0, 1 << 20, false);
/// assert!(dram.stats().hit_rate() > 0.9);
/// assert!(cycles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DramSim {
    config: DramConfig,
    /// Open row per (channel, bank); `None` when closed.
    open_rows: Vec<Option<u64>>,
    /// Cumulative statistics.
    stats: DramStats,
    next_alloc: u64,
}

impl DramSim {
    /// Creates a simulator with all rows closed.
    ///
    /// # Errors
    ///
    /// Propagates [`DramConfig::validate`].
    pub fn new(config: DramConfig) -> Result<Self> {
        config.validate()?;
        Ok(DramSim {
            config,
            open_rows: vec![None; config.channels * config.banks_per_channel],
            stats: DramStats::default(),
            next_alloc: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Resets statistics (row state is kept).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Returns the simulator to its just-constructed state: all rows
    /// closed, statistics zeroed, allocator rewound. Subsequent
    /// transfers behave identically to those on a fresh simulator.
    pub fn reset(&mut self) {
        self.open_rows.iter_mut().for_each(|row| *row = None);
        self.stats = DramStats::default();
        self.next_alloc = 0;
    }

    /// Allocates a region of `bytes`, returning its base address.
    /// Regions are laid out back to back, row-aligned, so distinct
    /// tensors land in distinct rows.
    pub fn allocate(&mut self, bytes: u64) -> u64 {
        let base = self.next_alloc;
        let rows = bytes.div_ceil(self.config.row_bytes).max(1);
        self.next_alloc += rows * self.config.row_bytes;
        base
    }

    /// Transfers `bytes` sequentially starting at `addr` (read when
    /// `write` is false), returning the cycles the transfer occupies.
    ///
    /// Bursts are interleaved across channels; the returned latency is
    /// the maximum per-channel busy time for this stream (channels work
    /// in parallel).
    ///
    /// This is the per-row walk: it takes one step per (channel, row)
    /// run of bursts instead of one per burst. Channels own disjoint
    /// banks, so each channel's bursts can be replayed on their own, in
    /// address order. Within a run every burst maps to the same bank
    /// and row, so only the first can miss and the other `run - 1` are
    /// hits. Each miss adds the same `e_activate_pj`, so adding it once
    /// per miss gives the same bits as the interleaved order.
    /// [`DramSim::stream_stepped`] is the per-burst reference; cycles,
    /// [`DramStats`] and row state match it exactly.
    pub fn stream(&mut self, addr: u64, bytes: u64, write: bool) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let cfg = self.config;
        let channels = cfg.channels as u64;
        let bursts_per_row = cfg.row_bytes / cfg.burst_bytes;
        // Bursts `first .. end` in address-map order (see
        // `stream_stepped`): channel = index % channels, and each
        // channel's bursts form consecutive per-channel indices.
        let first = addr / cfg.burst_bytes;
        let end = first + bytes.div_ceil(cfg.burst_bytes);
        let mut busiest = 0u64;
        for channel in 0..channels {
            let index = first + (channel + channels - first % channels) % channels;
            if index >= end {
                continue;
            }
            let mut per_channel = index / channels;
            let last = per_channel + (end - 1 - index) / channels;
            let mut busy = 0u64;
            while per_channel <= last {
                let row_seq = per_channel / bursts_per_row;
                let run = ((row_seq + 1) * bursts_per_row).min(last + 1) - per_channel;
                let bank = (row_seq % cfg.banks_per_channel as u64) as usize;
                let row = row_seq / cfg.banks_per_channel as u64;
                busy += self.access(channel as usize * cfg.banks_per_channel + bank, row);
                self.stats.row_hits += run - 1;
                busy += (run - 1) * (cfg.t_cl + cfg.t_burst);
                per_channel += run;
            }
            busiest = busiest.max(busy);
        }
        self.finish_stream(bytes, write);
        busiest
    }

    /// The per-burst reference for [`DramSim::stream`]: steps through
    /// every burst in address order, channels interleaved. Same
    /// arguments, result and effect on the simulator.
    pub fn stream_stepped(&mut self, addr: u64, bytes: u64, write: bool) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let cfg = self.config;
        let bursts = bytes.div_ceil(cfg.burst_bytes);
        let mut channel_busy = vec![0u64; cfg.channels];
        for b in 0..bursts {
            let burst_addr = addr + b * cfg.burst_bytes;
            // Address mapping (low → high bits): burst offset within a
            // row, channel, bank, row — so a sequential stream fills an
            // entire row in one bank before moving on (row-buffer
            // friendly), the behaviour real controllers choose for
            // streaming accelerators.
            let burst_index = burst_addr / cfg.burst_bytes;
            let channel = (burst_index % cfg.channels as u64) as usize;
            let per_channel = burst_index / cfg.channels as u64;
            let bursts_per_row = cfg.row_bytes / cfg.burst_bytes;
            let row_seq = per_channel / bursts_per_row;
            let bank = (row_seq % cfg.banks_per_channel as u64) as usize;
            let row = row_seq / cfg.banks_per_channel as u64;
            channel_busy[channel] += self.access(channel * cfg.banks_per_channel + bank, row);
        }
        self.finish_stream(bytes, write);
        channel_busy.into_iter().max().unwrap_or(0)
    }

    /// One burst to `row` of bank `slot`: opens the row on a miss and
    /// returns the burst's cycles.
    fn access(&mut self, slot: usize, row: u64) -> u64 {
        let cfg = self.config;
        match self.open_rows[slot] {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                cfg.t_cl + cfg.t_burst
            }
            open => {
                self.stats.row_misses += 1;
                self.stats.energy_pj += cfg.e_activate_pj;
                self.open_rows[slot] = Some(row);
                // A closed bank skips the precharge.
                let precharge = if open.is_some() { cfg.t_rp } else { 0 };
                precharge + cfg.t_rcd + cfg.t_cl + cfg.t_burst
            }
        }
    }

    /// Charges a finished stream's transfer energy and byte count.
    fn finish_stream(&mut self, bytes: u64, write: bool) {
        let cfg = self.config;
        let per_byte = if write {
            cfg.e_write_pj_per_byte
        } else {
            cfg.e_read_pj_per_byte
        };
        self.stats.energy_pj += per_byte * bytes as f64;
        if write {
            self.stats.write_bytes += bytes;
        } else {
            self.stats.read_bytes += bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(DramConfig::default().validate().is_ok());
        let bad = DramConfig {
            channels: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad2 = DramConfig {
            burst_bytes: 4096,
            ..Default::default()
        };
        assert!(bad2.validate().is_err());
    }

    #[test]
    fn sequential_stream_is_row_friendly() {
        let mut dram = DramSim::new(DramConfig::default()).unwrap();
        dram.stream(0, 1 << 20, false);
        let s = dram.stats();
        assert!(s.hit_rate() > 0.9, "hit rate {}", s.hit_rate());
        assert_eq!(s.read_bytes, 1 << 20);
    }

    #[test]
    fn scattered_rows_miss() {
        let cfg = DramConfig::default();
        let mut dram = DramSim::new(cfg).unwrap();
        // Touch one burst in each of 64 different rows of the same bank:
        // stride by row_bytes * channels * banks to stay in bank 0.
        let stride = cfg.row_bytes * cfg.channels as u64 * cfg.banks_per_channel as u64;
        for i in 0..64 {
            dram.stream(i * stride, cfg.burst_bytes, false);
        }
        assert_eq!(dram.stats().row_misses, 64);
        assert_eq!(dram.stats().row_hits, 0);
    }

    #[test]
    fn latency_scales_with_bytes() {
        let mut dram = DramSim::new(DramConfig::default()).unwrap();
        let small = dram.stream(0, 4096, false);
        let mut dram2 = DramSim::new(DramConfig::default()).unwrap();
        let large = dram2.stream(0, 1 << 20, false);
        assert!(large > small * 100, "large {large} vs small {small}");
    }

    #[test]
    fn effective_bandwidth_near_peak_for_streams() {
        let cfg = DramConfig::default();
        let mut dram = DramSim::new(cfg).unwrap();
        let bytes = 8u64 << 20;
        let cycles = dram.stream(0, bytes, false);
        let bw = bytes as f64 / cycles as f64;
        let peak = cfg.peak_bytes_per_cycle();
        assert!(bw > peak * 0.15, "bandwidth {bw} vs peak {peak}");
        assert!(bw <= peak + 1e-9);
    }

    #[test]
    fn write_and_read_energy_tracked() {
        let mut dram = DramSim::new(DramConfig::default()).unwrap();
        dram.stream(0, 1024, true);
        let e1 = dram.stats().energy_pj;
        assert!(e1 > 0.0);
        dram.stream(1 << 16, 1024, false);
        assert!(dram.stats().energy_pj > e1);
        assert_eq!(dram.stats().write_bytes, 1024);
        assert_eq!(dram.stats().read_bytes, 1024);
    }

    #[test]
    fn allocate_is_row_aligned_and_disjoint() {
        let mut dram = DramSim::new(DramConfig::default()).unwrap();
        let a = dram.allocate(100);
        let b = dram.allocate(5000);
        let c = dram.allocate(1);
        assert_eq!(a % 2048, 0);
        assert_eq!(b % 2048, 0);
        assert!(b >= a + 2048);
        assert!(c >= b + 5000_u64.div_ceil(2048) * 2048 - 2048 + 2048);
    }

    #[test]
    fn zero_bytes_is_free() {
        let mut dram = DramSim::new(DramConfig::default()).unwrap();
        assert_eq!(dram.stream(0, 0, false), 0);
        assert_eq!(dram.stats().total_bytes(), 0);
    }

    #[test]
    fn reset_stats_keeps_rows_open() {
        let mut dram = DramSim::new(DramConfig::default()).unwrap();
        dram.stream(0, 64, false);
        dram.reset_stats();
        assert_eq!(dram.stats().total_bytes(), 0);
        // Re-touching the same row is now a hit.
        dram.stream(0, 64, false);
        assert_eq!(dram.stats().row_hits, 1);
        assert_eq!(dram.stats().row_misses, 0);
    }
}
