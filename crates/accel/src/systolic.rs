//! Weight-stationary systolic-array timing models.
//!
//! Two models, cross-verified against each other (standing in for the
//! paper's RTL-vs-simulator cross-verification):
//!
//! 1. **Analytical** ([`analytical_cycles`]): paper Eq. 7. For a GEMM
//!    `(M, K, N)` at precisions `(pa, pw)` on an `R×C` BitGroup array:
//!
//!    ```text
//!    T_pre   = R
//!    T_exe   = M + R + C - 2
//!    T_total = (T_pre + T_exe) · ⌈pa·K / 4R⌉ · ⌈pw·N / 16C⌉
//!    ```
//!
//!    Each BitGroup is a 4×4 array of BitBricks, each multiplying 1
//!    activation bit by 4 weight bits per cycle, so an array row accepts
//!    `4R` activation bits per cycle and an array column holds `16C`
//!    weight bits — hence the repetition factors.
//!
//! 2. **Stream simulation** ([`simulate_stream`]): generalises `T_exe`
//!    to streams whose elements need more than one injection slot. When
//!    a statically-fused array meets a dynamically-precised stream
//!    (paper Section 2.3 / Figure 2), an element wider than the fused
//!    width occupies every PE it passes through for multiple cycles, so
//!    the whole wavefront behind it stalls. Element `i` with occupancy
//!    `c_i` makes `T_exe = Σc_i + R + C - 2`.
//!
//! Both collapse to the same numbers when every occupancy is 1; a
//! property test asserts this.

use crate::gemm::GemmShape;
use crate::{AccelError, Result};
use drift_quant::precision::Precision;
use serde::{Deserialize, Serialize};

/// Activation bit-lanes per BitGroup row (a BG row of 4 BitBricks
/// consumes 4 activation bits per cycle).
pub const BG_ACT_BIT_LANES: u64 = 4;

/// Weight bit-lanes per BitGroup column (a BG holds 4×4 BitBricks × 4
/// weight bits = 16 weight bits per column).
pub const BG_WEIGHT_BIT_LANES: u64 = 16;

/// Geometry of a systolic array, in BitGroup units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArrayGeometry {
    /// BitGroup rows.
    pub rows: usize,
    /// BitGroup columns.
    pub cols: usize,
}

impl ArrayGeometry {
    /// Creates a geometry.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] if either extent is zero.
    pub fn new(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(AccelError::InvalidConfig {
                name: "array geometry",
                detail: format!("extents must be positive, got {rows}x{cols}"),
            });
        }
        Ok(ArrayGeometry { rows, cols })
    }

    /// Total BitGroups.
    pub fn units(&self) -> usize {
        self.rows * self.cols
    }
}

/// Number of repetitions of the array schedule a GEMM needs at the given
/// precisions (the two ceiling factors of paper Eq. 7).
pub fn pass_count(shape: GemmShape, pa: Precision, pw: Precision, geo: ArrayGeometry) -> u64 {
    let k_passes =
        (u64::from(pa.bits()) * shape.k as u64).div_ceil(BG_ACT_BIT_LANES * geo.rows as u64);
    let n_passes =
        (u64::from(pw.bits()) * shape.n as u64).div_ceil(BG_WEIGHT_BIT_LANES * geo.cols as u64);
    k_passes * n_passes
}

/// The analytical latency of paper Eq. 7 for a uniform-precision GEMM.
pub fn analytical_cycles(
    shape: GemmShape,
    pa: Precision,
    pw: Precision,
    geo: ArrayGeometry,
) -> u64 {
    let t_pre = geo.rows as u64;
    let t_exe = shape.m as u64 + geo.rows as u64 + geo.cols as u64 - 2;
    (t_pre + t_exe) * pass_count(shape, pa, pw, geo)
}

/// A latency report from the stream simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyReport {
    /// Repetitions of the array schedule.
    pub passes: u64,
    /// Weight-preload cycles across all passes.
    pub preload_cycles: u64,
    /// Execution cycles across all passes (injection + drain).
    pub execute_cycles: u64,
    /// Total cycles.
    pub total_cycles: u64,
    /// Cycles lost to multi-cycle elements relative to an ideal
    /// single-cycle stream (the Figure-2 stalls).
    pub stall_cycles: u64,
    /// PE-busy cycles (BitGroup-cycles of real work), for core energy
    /// accounting.
    pub busy_bg_cycles: u64,
}

impl LatencyReport {
    /// A report of zero work (empty tile).
    pub fn empty() -> Self {
        LatencyReport {
            passes: 0,
            preload_cycles: 0,
            execute_cycles: 0,
            total_cycles: 0,
            stall_cycles: 0,
            busy_bg_cycles: 0,
        }
    }

    /// Fraction of total cycles in which the array does useful work
    /// (1.0 when there is no work is defined as 0).
    pub fn utilization(&self, geo: ArrayGeometry) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.busy_bg_cycles as f64 / (self.total_cycles as f64 * geo.units() as f64)
    }
}

/// Simulates one weight-stationary schedule over a stream of `M`
/// elements where element `i` occupies each PE for `occupancies[i]`
/// cycles, repeated for `passes` array repetitions.
///
/// The closed form is derived from the injection recurrence
/// `s_i = s_{i-1} + c_{i-1}` (an element cannot enter the array until
/// its predecessor releases the port): the last element starts at
/// `Σc - c_last`, holds its first PE for `c_last` cycles and needs
/// `R + C - 2` more to drain, giving `T_exe = Σc + R + C - 2`.
/// [`simulate_stream_stepped`] reproduces the same number by explicit
/// cycle stepping and is used to cross-verify in tests.
pub fn simulate_stream(occupancies: &[u32], geo: ArrayGeometry, passes: u64) -> LatencyReport {
    let work = occupancies.iter().map(|&c| u64::from(c)).sum();
    stream_report(occupancies.len() as u64, work, geo, passes)
}

/// [`simulate_stream`] of `m` single-cycle elements, as a split Drift
/// array streams them, without building the all-ones stream: its work
/// `Σc` is `m`, so it never stalls.
pub fn simulate_uniform_stream(m: usize, geo: ArrayGeometry, passes: u64) -> LatencyReport {
    stream_report(m as u64, m as u64, geo, passes)
}

/// [`simulate_stream`]'s closed form for `m` elements of total
/// occupancy `work`.
fn stream_report(m: u64, work: u64, geo: ArrayGeometry, passes: u64) -> LatencyReport {
    if m == 0 || passes == 0 {
        return LatencyReport::empty();
    }
    let t_pre = geo.rows as u64;
    let t_exe = work + geo.rows as u64 + geo.cols as u64 - 2;
    let ideal_exe = m + geo.rows as u64 + geo.cols as u64 - 2;
    LatencyReport {
        passes,
        preload_cycles: t_pre * passes,
        execute_cycles: t_exe * passes,
        total_cycles: (t_pre + t_exe) * passes,
        stall_cycles: (t_exe - ideal_exe) * passes,
        busy_bg_cycles: work * geo.units() as u64 * passes,
    }
}

/// Cycle-stepped reference implementation of [`simulate_stream`] for one
/// pass: advances a clock cycle by cycle, tracking the injection port
/// and the drain wavefront explicitly. Quadratic in stream length; used
/// for cross-verification, not for production runs.
pub fn simulate_stream_stepped(occupancies: &[u32], geo: ArrayGeometry) -> u64 {
    if occupancies.is_empty() {
        return 0;
    }
    let mut clock: u64 = 0;
    // Weight preload, one row per cycle.
    for _ in 0..geo.rows {
        clock += 1;
    }
    // Injection: the port is held for c_i cycles per element; the
    // wavefront behind a multi-cycle element cannot advance.
    for &c in occupancies {
        for _ in 0..c {
            clock += 1;
        }
    }
    // Drain: the last element's contribution traverses the remaining
    // R-1 row hops and C-1 column hops.
    for _ in 0..(geo.rows - 1 + geo.cols - 1) {
        clock += 1;
    }
    clock
}

/// The per-element injection occupancy of a statically fused array
/// facing an element of precision `(pa, pw)` when the array is fused for
/// `(fa, fw)`: `⌈pa/fa⌉ · ⌈pw/fw⌉` temporal repetitions (the Section 2.3
/// stall mechanism — fusion is spatial and fixed before runtime, so
/// wider data must iterate in place).
pub fn fused_occupancy(pa: Precision, pw: Precision, fa: Precision, fw: Precision) -> u32 {
    let a = u32::from(pa.bits()).div_ceil(u32::from(fa.bits()));
    let w = u32::from(pw.bits()).div_ceil(u32::from(fw.bits()));
    a * w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(r: usize, c: usize) -> ArrayGeometry {
        ArrayGeometry::new(r, c).unwrap()
    }

    #[test]
    fn geometry_validation() {
        assert!(ArrayGeometry::new(0, 4).is_err());
        assert!(ArrayGeometry::new(4, 0).is_err());
        assert_eq!(geo(3, 5).units(), 15);
    }

    #[test]
    fn eq7_pass_count() {
        // pa=8, K=64, R=16: ceil(512/64) = 8; pw=8, N=32, C=8: ceil(256/128) = 2.
        let s = GemmShape::new(10, 64, 32).unwrap();
        assert_eq!(
            pass_count(s, Precision::INT8, Precision::INT8, geo(16, 8)),
            16
        );
        // Halving precision halves the factor.
        assert_eq!(
            pass_count(s, Precision::INT4, Precision::INT8, geo(16, 8)),
            8
        );
        assert_eq!(
            pass_count(s, Precision::INT4, Precision::INT4, geo(16, 8)),
            4
        );
    }

    #[test]
    fn eq7_total() {
        let s = GemmShape::new(100, 64, 32).unwrap();
        let g = geo(16, 8);
        // Per pass: T_pre = 16, T_exe = 100 + 16 + 8 - 2 = 122.
        let per_pass = 16 + 122;
        assert_eq!(
            analytical_cycles(s, Precision::INT8, Precision::INT8, g),
            per_pass * 16
        );
    }

    #[test]
    fn uniform_stream_matches_analytical() {
        let s = GemmShape::new(77, 48, 24).unwrap();
        let g = geo(12, 6);
        let passes = pass_count(s, Precision::INT8, Precision::INT8, g);
        let report = simulate_stream(&vec![1u32; s.m], g, passes);
        assert_eq!(
            report.total_cycles,
            analytical_cycles(s, Precision::INT8, Precision::INT8, g)
        );
        assert_eq!(report.stall_cycles, 0);
    }

    #[test]
    fn stepped_matches_closed_form() {
        let g = geo(5, 7);
        for occ in [
            vec![1u32; 20],
            vec![2u32; 20],
            vec![1, 2, 1, 2, 4, 1, 1, 2],
            vec![4],
            vec![1],
        ] {
            let closed = simulate_stream(&occ, g, 1);
            let stepped = simulate_stream_stepped(&occ, g);
            assert_eq!(
                closed.total_cycles, stepped,
                "mismatch for occupancies {occ:?}"
            );
        }
    }

    #[test]
    fn stalls_grow_with_high_fraction() {
        let g = geo(8, 8);
        let mut last_total = 0u64;
        for high in [0usize, 8, 16, 24, 32] {
            let occ: Vec<u32> = (0..32).map(|i| if i < high { 2 } else { 1 }).collect();
            let report = simulate_stream(&occ, g, 1);
            assert!(report.total_cycles > last_total);
            assert_eq!(report.stall_cycles, high as u64);
            last_total = report.total_cycles;
        }
    }

    #[test]
    fn fused_occupancy_matrix() {
        let i8 = Precision::INT8;
        let i4 = Precision::INT4;
        // Array fused for 4x4:
        assert_eq!(fused_occupancy(i4, i4, i4, i4), 1);
        assert_eq!(fused_occupancy(i8, i4, i4, i4), 2);
        assert_eq!(fused_occupancy(i4, i8, i4, i4), 2);
        assert_eq!(fused_occupancy(i8, i8, i4, i4), 4);
        // Array fused for 8x8 runs anything narrower in one slot:
        assert_eq!(fused_occupancy(i4, i4, i8, i8), 1);
        assert_eq!(fused_occupancy(i8, i8, i8, i8), 1);
    }

    #[test]
    fn empty_stream_is_empty_report() {
        let r = simulate_stream(&[], geo(4, 4), 3);
        assert_eq!(r, LatencyReport::empty());
        let r2 = simulate_stream(&[1, 1], geo(4, 4), 0);
        assert_eq!(r2, LatencyReport::empty());
    }

    #[test]
    fn utilization_bounded() {
        let g = geo(4, 4);
        let r = simulate_stream(&vec![1; 1000], g, 2);
        let u = r.utilization(g);
        assert!(u > 0.9 && u <= 1.0, "utilization {u}");
        assert_eq!(LatencyReport::empty().utilization(g), 0.0);
    }

    #[test]
    fn busy_cycles_scale_with_work() {
        let g = geo(2, 3);
        let a = simulate_stream(&[1; 10], g, 1);
        let b = simulate_stream(&[2; 10], g, 1);
        assert_eq!(b.busy_bg_cycles, 2 * a.busy_bg_cycles);
    }
}
