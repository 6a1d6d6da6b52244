//! Streaming statistics and Laplace / exponential maximum-likelihood
//! estimation.
//!
//! Drift's dynamic precision selection (paper Section 3.3) needs exactly
//! two statistics per sub-tensor: `max(|Y|)` (for the representation-range
//! test, Eq. 5) and `avg(|Y|)` (the MLE of the Laplace scale `b`, which
//! gives `var(Y) = 2 b²` for the representation-density test, Eq. 6).
//! [`AbsStats`] accumulates exactly those, as the accelerator's pooling
//! unit does in hardware, and is what every precision policy reads.
//! [`SummaryStats`] adds min/max, the signed sum and Welford mean/variance
//! for profiling and verification; [`SummaryStats::abs`] projects it onto
//! the [`AbsStats`] the same values give.
//!
//! # One pass, the same bits
//!
//! [`AbsStats::push_slice`] folds a whole sub-tensor into a running
//! accumulator and returns the sub-tensor's own statistics, in one pass
//! whose cost is one `f64` add latency per value. Its bits equal those of
//! one [`AbsStats::push`] per value into both, for every input:
//!
//! * `count` is the slice length.
//! * `max|Y|` does not depend on order, so it is taken across `f32`
//!   lanes. Widening `f32 → f64` is exact and monotone, and `|·|` commutes
//!   with it, so the widest `f32` magnitude widens to the widest `f64`
//!   one. [`f64::max`] returns its other operand when one is NaN, and the
//!   running maximum starts at `0.0`, so a push never lets a NaN in: the
//!   maximum is that of the non-NaN values, or `0.0`. The lanes keep a
//!   value only when `|v| > lane`, which is false for NaN, so they ignore
//!   NaN the same way. Signed zeros and subnormals need no rule: `|·|`
//!   maps `-0` to `+0`, and subnormal `f32`s widen to normal `f64`s
//!   exactly.
//! * The two `Σ|Y|` chains (the slice's, from `0.0`, and the running one)
//!   add the same widened magnitudes in stream order, one add per value
//!   each, exactly as the pushes do. They do not depend on each other, so
//!   the loop runs them side by side and a value costs one add latency,
//!   not two. One caveat holds for any two compiled copies of the same
//!   sum, the per-value pushes included: when NaNs with different
//!   payloads meet in a sum, Rust leaves open which payload survives
//!   (a NaN result's payload is unspecified), so those sums agree only
//!   in being NaN. A stream holding one NaN bit pattern has one answer.
//!   Sampled tensors hold no NaN.

use serde::{Deserialize, Serialize};

/// One-pass `count`, `max(|Y|)` and `Σ|Y|` over a stream of `f32` values:
/// the statistics a precision policy reads.
///
/// Pushes and merges do the same floating-point operations, in the same
/// order, as [`SummaryStats`]'s, so `AbsStats::from_slice(x)` equals
/// `SummaryStats::from_slice(x).abs()` bit for bit.
///
/// # Example
///
/// ```rust
/// use drift_tensor::stats::AbsStats;
///
/// let stats = AbsStats::from_slice([1.0f32, -2.0, 3.0, -4.0]);
/// assert_eq!(stats.abs_max(), 4.0);
/// assert_eq!(stats.mean_abs(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsStats {
    count: u64,
    abs_max: f64,
    sum_abs: f64,
}

impl AbsStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        AbsStats {
            count: 0,
            abs_max: 0.0,
            sum_abs: 0.0,
        }
    }

    /// Builds statistics from anything that can be viewed as a `[f32]`
    /// slice.
    pub fn from_slice(values: impl AsRef<[f32]>) -> Self {
        AbsStats::new().push_slice(values.as_ref())
    }

    /// Feeds one value into the accumulator.
    #[inline]
    pub fn push(&mut self, value: f32) {
        let a = f64::from(value).abs();
        self.count += 1;
        self.abs_max = self.abs_max.max(a);
        self.sum_abs += a;
    }

    /// Feeds every value of `values`, in order, into the accumulator and
    /// returns the statistics of `values` alone: the same bits as a
    /// [`push`](Self::push) per value into both (see the module doc).
    ///
    /// `max|Y|` is taken across 16 `f32` lanes, whatever the order;
    /// the two `Σ|Y|` chains advance side by side in stream order, so a
    /// value costs one `f64` add latency.
    pub fn push_slice(&mut self, values: &[f32]) -> AbsStats {
        let mut lanes = [0.0f32; LANES];
        let (mut row_sum, mut sum) = (0.0f64, self.sum_abs);
        let mut chunks = values.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (lane, &v) in lanes.iter_mut().zip(chunk) {
                *lane = max_ignoring_nan(*lane, v.abs());
            }
            for &v in chunk {
                let a = f64::from(v).abs();
                row_sum += a;
                sum += a;
            }
        }
        for &v in chunks.remainder() {
            lanes[0] = max_ignoring_nan(lanes[0], v.abs());
            let a = f64::from(v).abs();
            row_sum += a;
            sum += a;
        }
        let row = AbsStats {
            count: values.len() as u64,
            abs_max: f64::from(lanes.into_iter().fold(0.0, max_ignoring_nan)),
            sum_abs: row_sum,
        };
        self.count += row.count;
        self.abs_max = self.abs_max.max(row.abs_max);
        self.sum_abs = sum;
        row
    }

    /// Merges another accumulator into this one (parallel reduction),
    /// folding as [`SummaryStats::merge`] does.
    pub fn merge(&mut self, other: &AbsStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.abs_max = self.abs_max.max(other.abs_max);
        self.sum_abs += other.sum_abs;
    }

    /// Number of values observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `max(|Y|)`: the statistic driving Drift's representation-range test
    /// (paper Eq. 5). Zero when empty.
    pub fn abs_max(&self) -> f64 {
        self.abs_max
    }

    /// `Σ|Y|`, summed in stream order. Zero when empty.
    pub fn sum_abs(&self) -> f64 {
        self.sum_abs
    }

    /// `avg(|Y|)`: the statistic driving Drift's representation-density
    /// test (paper Eq. 6). Zero when empty.
    pub fn mean_abs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_abs / self.count as f64
        }
    }
}

/// `f32` lanes of [`AbsStats::push_slice`]'s `max|Y|`: one 512-bit
/// vector, or four 128-bit ones.
const LANES: usize = 16;

/// `max(acc, a)` for `acc` never NaN: a NaN `a` compares false and
/// leaves `acc`, as [`f64::max`] ignores a NaN operand. Written as a
/// compare and select so that it maps onto one vector `max` per lane.
#[inline(always)]
fn max_ignoring_nan(acc: f32, a: f32) -> f32 {
    if a > acc {
        a
    } else {
        acc
    }
}

impl Default for AbsStats {
    fn default() -> Self {
        AbsStats::new()
    }
}

/// One-pass summary statistics over a stream of `f32` values.
///
/// Uses Welford's algorithm for numerically stable variance.
///
/// # Example
///
/// ```rust
/// use drift_tensor::stats::SummaryStats;
///
/// let stats = SummaryStats::from_slice([1.0f32, -2.0, 3.0, -4.0]);
/// assert_eq!(stats.abs_max(), 4.0);
/// assert_eq!(stats.mean_abs(), 2.5);
/// // Laplace MLE: b = avg(|Y|).
/// assert_eq!(stats.laplace_scale(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    count: u64,
    min: f64,
    max: f64,
    abs_max: f64,
    sum: f64,
    sum_abs: f64,
    mean: f64,
    m2: f64,
}

impl SummaryStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        SummaryStats {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            abs_max: 0.0,
            sum: 0.0,
            sum_abs: 0.0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Builds statistics from anything that can be viewed as a `[f32]`
    /// slice.
    pub fn from_slice(values: impl AsRef<[f32]>) -> Self {
        let mut stats = SummaryStats::new();
        for &v in values.as_ref() {
            stats.push(v);
        }
        stats
    }

    /// Feeds one value into the accumulator.
    pub fn push(&mut self, value: f32) {
        let v = f64::from(value);
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.abs_max = self.abs_max.max(v.abs());
        self.sum += v;
        self.sum_abs += v.abs();
        // Welford update.
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &SummaryStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean =
            (self.mean * self.count as f64 + other.mean * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.abs_max = self.abs_max.max(other.abs_max);
        self.sum += other.sum;
        self.sum_abs += other.sum_abs;
    }

    /// The [`AbsStats`] of the same values.
    pub fn abs(&self) -> AbsStats {
        AbsStats {
            count: self.count,
            abs_max: self.abs_max,
            sum_abs: self.sum_abs,
        }
    }

    /// Number of values observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observed value (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observed value (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// `max(|Y|)`: the statistic driving Drift's representation-range test
    /// (paper Eq. 5). Zero when empty.
    pub fn abs_max(&self) -> f64 {
        self.abs_max
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// `avg(|Y|)`: the statistic driving Drift's representation-density
    /// test (paper Eq. 6). Zero when empty.
    pub fn mean_abs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_abs / self.count as f64
        }
    }

    /// Population variance (0 when fewer than two values).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Maximum-likelihood Laplace scale `b = avg(|Y - μ|)`, evaluated under
    /// the paper's zero-mean assumption as `avg(|Y|)`.
    pub fn laplace_scale(&self) -> f64 {
        self.mean_abs()
    }

    /// The variance implied by the zero-mean Laplace model:
    /// `var(Y) = 2 · avg(|Y|)²` (paper Section 3.3).
    pub fn laplace_variance(&self) -> f64 {
        let b = self.laplace_scale();
        2.0 * b * b
    }

    /// Maximum-likelihood rate `λ = 1 / avg(|Y|)` of the exponential
    /// distribution that `|Y|` follows when `Y` is zero-mean Laplace
    /// (paper Eq. 4). Returns `+inf` for all-zero data.
    pub fn exponential_rate(&self) -> f64 {
        1.0 / self.mean_abs()
    }

    /// Relative gap between the empirical variance and the Laplace-implied
    /// variance; small values indicate a good Laplace fit.
    pub fn laplace_fit_gap(&self) -> f64 {
        let emp = self.variance();
        let model = self.laplace_variance();
        if emp == 0.0 && model == 0.0 {
            0.0
        } else {
            (emp - model).abs() / emp.max(model)
        }
    }
}

impl Default for SummaryStats {
    fn default() -> Self {
        SummaryStats::new()
    }
}

impl FromIterator<f32> for SummaryStats {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let mut stats = SummaryStats::new();
        for v in iter {
            stats.push(v);
        }
        stats
    }
}

impl Extend<f32> for SummaryStats {
    fn extend<I: IntoIterator<Item = f32>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_benign() {
        let s = SummaryStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.mean_abs(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.abs_max(), 0.0);
    }

    #[test]
    fn empty_abs_stats_are_benign() {
        let s = AbsStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.abs_max(), 0.0);
        assert_eq!(s.mean_abs(), 0.0);
        assert_eq!(s, SummaryStats::new().abs());
        let mut e = AbsStats::new();
        e.merge(&AbsStats::from_slice([-3.0f32, 1.0]));
        assert_eq!(e.abs_max(), 3.0);
        assert_eq!(e.mean_abs(), 2.0);
    }

    #[test]
    fn basic_moments() {
        let s = SummaryStats::from_slice([2.0f32, -2.0, 4.0, -4.0]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.mean_abs(), 3.0);
        assert_eq!(s.abs_max(), 4.0);
        assert_eq!(s.min(), -4.0);
        assert_eq!(s.max(), 4.0);
        // Population variance of {2,-2,4,-4} is (4+4+16+16)/4 = 10.
        assert!((s.variance() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f32> = (0..1000).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        let s = SummaryStats::from_slice(&data);
        let mean = data.iter().map(|&v| f64::from(v)).sum::<f64>() / data.len() as f64;
        let var = data
            .iter()
            .map(|&v| (f64::from(v) - mean).powi(2))
            .sum::<f64>()
            / data.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.variance() - var).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_sequential() {
        let a: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.1).collect();
        let b: Vec<f32> = (0..57).map(|i| (i as f32) * 0.3 - 2.0).collect();
        let mut left = SummaryStats::from_slice(&a);
        let right = SummaryStats::from_slice(&b);
        left.merge(&right);
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let combined = SummaryStats::from_slice(&all);
        assert_eq!(left.count(), combined.count());
        assert!((left.mean() - combined.mean()).abs() < 1e-9);
        assert!((left.variance() - combined.variance()).abs() < 1e-9);
        assert_eq!(left.abs_max(), combined.abs_max());
    }

    #[test]
    fn merge_with_empty() {
        let mut s = SummaryStats::from_slice([1.0f32, 2.0]);
        let before = s;
        s.merge(&SummaryStats::new());
        assert_eq!(s, before);
        let mut e = SummaryStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn laplace_relations() {
        let s = SummaryStats::from_slice([1.0f32, -1.0, 1.0, -1.0]);
        assert_eq!(s.laplace_scale(), 1.0);
        assert_eq!(s.laplace_variance(), 2.0);
        assert_eq!(s.exponential_rate(), 1.0);
    }

    #[test]
    fn fit_gap_zero_for_ideal() {
        // Data engineered so empirical var equals 2*mean_abs^2:
        // {b, -b, b*sqrt(3), -b*sqrt(3)} has mean_abs = b(1+sqrt3)/2,
        // so instead just check the gap is within [0, 1].
        let s = SummaryStats::from_slice([0.5f32, -0.25, 1.5, -0.75, 0.1]);
        let gap = s.laplace_fit_gap();
        assert!((0.0..=1.0).contains(&gap));
    }

    #[test]
    fn from_iterator_and_extend() {
        let s: SummaryStats = vec![1.0f32, 2.0, 3.0].into_iter().collect();
        assert_eq!(s.count(), 3);
        let mut t = SummaryStats::new();
        t.extend(vec![1.0f32, 2.0, 3.0]);
        assert_eq!(t.mean(), s.mean());
    }
}
