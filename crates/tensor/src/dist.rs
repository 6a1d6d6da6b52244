//! Distribution samplers, histograms, and goodness-of-fit tests.
//!
//! The Drift paper's Figure 1 profiles sub-tensor distributions and finds
//! that zero-mean Laplace distributions approximate nearly all of them.
//! This module supplies the samplers used to generate activation data with
//! controlled sub-tensor statistics, and the Kolmogorov–Smirnov machinery
//! used by the Figure-1 reproduction to quantify the Laplace fit.
//!
//! # Bulk Laplace sampling, and why its `f32` values are exact
//!
//! [`Laplace::fill_f32`] gives every slot the bits `sample(rng) as f32`
//! would, without a libm call per value. It draws a chunk of keystream
//! words at once and, per word, forms `u`, `v`, `signum` and `w` with
//! exactly [`Laplace`]'s own operations, then computes `L = ln(w)` with
//! the fdlibm `e_log.c` algorithm (branch-free, so it vectorises). The
//! certificate that the result is the one `f64::ln` would have led to:
//!
//! 1. fdlibm's `log` is within 1 ulp of the true logarithm, and so is
//!    the platform libm's; both are therefore within `2⁻⁵¹·|L|` of each
//!    other, far inside the bracket `x ∈ [L − |L|·2⁻³⁶, L + |L|·2⁻³⁶]`.
//! 2. The sampler's expression `(μ − (b·signum)·x) as f32` is monotone
//!    in `x`: every step (a multiplication by a fixed value, a
//!    subtraction from a fixed value, the narrowing) is a correctly
//!    rounded monotone function.
//! 3. So when both ends of the bracket give the same nonzero `f32` (and
//!    `L ≠ 0`), every `x` inside it gives that value, libm's among them;
//!    a nonzero `f32` value has one encoding, so the bits agree too.
//!
//! A slot whose ends differ (about `2·2⁻³⁶/2⁻²⁴ ≈ 4.9·10⁻⁴` of them, at
//! an `f32` rounding boundary) is recomputed exactly through libm. The
//! chunk loop is compiled twice, for the baseline target and for
//! AVX-512, and picked at run time; Rust never fuses a multiply and an
//! add, so both compilations give the same bits.
//!
//! # A row's `max|Y|` and a bracket on its `Σ|Y|`, without its values
//!
//! [`Laplace::abs_bracket`] reads a zero-mean row's keystream words and
//! returns what [`AbsStats::push_slice`](crate::stats::AbsStats::push_slice)
//! of [`Laplace::fill_f32`]'s values would: the count and `max|Y|`
//! exactly, and `Σ|Y|` inside a proven interval, at one multiply per
//! value and no logarithm. Nothing below depends on the order the words
//! come in, so the row is folded in one pass over the slices
//! [`DriftRng::lend_u64`](rand_chacha::ChaCha8Rng::lend_u64) lends:
//! whole keystream groups straight from the AVX-512 lanes, untransposed
//! and uncopied. A word's draw `u = k·2⁻⁵³` (`k = word >> 11`)
//! gives `w = 1 − 2|u − ½| = j·2⁻⁵²` with `j = min(k, 2⁵³ − k)`, exactly
//! (every step of `inverse_cdf` before the `ln` is exact), and for `μ = 0`
//! the value's magnitude is `a = fl32(fl64(b·|ln w|))`. `j = 0` is the
//! one draw whose `w` is floored at `MIN_POSITIVE`; the method returns
//! `None` for it, so `j ∈ [1, 2⁵²]` below.
//!
//! **`max|Y|`.** `a` is a monotone function of libm's `|ln w|`, which is
//! within `2u·|ln w|` (`u = 2⁻⁵³`, one ulp) of the true value. A draw
//! with `j > j_min·(1 + 2⁻⁴⁰)` has a true `|ln w|` smaller than the
//! smallest draw's by more than `ln(1 + 2⁻⁴⁰) > 2⁻⁴¹`, while both errors
//! together stay below `2u·2·52·ln 2 < 2⁻⁴⁵`: libm cannot rank it above
//! the smallest draw, monotone or not. So `max|Y|` is the largest exact
//! `inverse_cdf` value over the draws with `j ≤ j_min + ⌊j_min·2⁻⁴⁰⌋`,
//! an integer test. Almost always only the smallest draw passes it. The
//! fold keeps each lane's smallest and second-smallest `j`; the row's
//! two smallest are among them. When the second-smallest lies past the
//! margin, `max|Y|` is the smallest draw's exact value. Otherwise the row
//! replays its own words from its start position (key, block counter,
//! word) and takes the exact maximum over those within the margin; only
//! such a row pays the replay's refill.
//!
//! **`Σ|Y|`.** With `Λ = Σ −ln w_i = −ln Π w_i`, the exact sum is close
//! to `b·Λ`, and `Π w_i` costs one multiply per value: eight `f64` lanes
//! multiply the integers `j` (each `≤ 2⁵²`, so sixteen of them on a lane
//! mantissa in `[1, 2)` stay below `2⁸³³`), and after each lent slice of
//! at most 128 values, so at most sixteen per lane, each lane's exponent
//! moves into an integer, exactly. How many roundings a product takes
//! does not depend on the order of its factors, nor on which lane takes
//! which word. The half width `H` of the returned interval
//! `[Σ̂ − H, Σ̂ + H]` covers:
//!
//! 1. each value's rounding: `a_i = b·ℓ_i·(1 + θ_i) + β_i` with
//!    `ℓ_i = −ln w_i`, `|θ_i| ≤ 2⁻²⁴ + 4u` (libm's `ln`, the product by
//!    `b`, the narrowing) and `|β_i| ≤ 2⁻¹⁴⁹` (an `f32` or `f64`
//!    subnormal result);
//! 2. the stream-order `f64` sum `Σ_x` of `n` nonnegative terms, within
//!    `γ_{n−1} = (n−1)u/(1 − (n−1)u)` of their real sum;
//! 3. the product: at most `n + 7` roundings (`n` multiplies, in any
//!    order, and 7 to join the eight lanes), each moving `ln Π` by at
//!    most `u/(1 − u)`;
//! 4. the finish `Σ̂ = b·(−(ln M + E·ln 2))` with lane product `M < 2⁸`
//!    and integer exponent `E`: libm's `ln M` (at most `2u·ln 2⁸ < 12u`),
//!    the rounded `ln 2` and `E·ln 2` (at most `2.01u·|E|·ln 2`, where
//!    `|E|·ln 2 ≤ Λ + 6`), the add and the product by `b` (`u` each).
//!
//! Items 3 and 4 give `|Σ̂ − b·Λ| ≤ b·(n + 41)·u + 6u·b·Λ`, and items 1
//! and 2 give `|Σ_x − b·Λ| ≤ b·Λ·(γ_{n−1}(1 + 2⁻²³) + 2⁻²⁴ + 4u) +
//! 2n·2⁻¹⁴⁹`. Writing `A = b·(n + 41)·u`, so that `b·Λ ≤ (Σ̂ + A)/(1 − 6u)`:
//!
//! ```text
//! |Σ_x − Σ̂| ≤ (Σ̂ + A)·(2⁻²⁴ + γ_{n−1}(1 + 2⁻²³) + 10u)/(1 − 6u) + A + n·2⁻¹⁴⁸
//! ```
//!
//! The code takes `A' = b·(n + 64)·2⁻⁵² ≥ 2A` and the relative factor
//! `2⁻²³ + n·2⁻⁵⁰`, which exceeds the one above by more than `2⁻²⁵`
//! whenever `n·u < ½` (then `γ_{n−1} < 2n·u`); that margin absorbs the
//! rounding of `H`'s own arithmetic and of `Σ̂ ± H`. The lower end is
//! clamped at 0, which the exact sum never undercuts. Relative to `Σ̂`
//! the interval is about `2⁻²²` wide for rows of a few thousand values,
//! so a decision that reads `Σ|Y|` only through a monotone threshold is
//! decided by it unless the exact mean lies that close to the threshold.

use crate::rng::DriftRng;
use crate::{Result, TensorError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution that can draw `f64` samples from a [`DriftRng`].
///
/// Implemented by [`Laplace`], [`Gaussian`], [`Exponential`], and
/// [`Uniform`].
pub trait Sampler {
    /// Draws one sample.
    fn sample(&self, rng: &mut DriftRng) -> f64;

    /// Evaluates the cumulative distribution function at `x`.
    fn cdf(&self, x: f64) -> f64;

    /// Fills a vector with `n` samples.
    fn sample_vec(&self, rng: &mut DriftRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Fills `out` with samples narrowed to `f32`: slot by slot, the
    /// values `sample(rng) as f32` gives.
    fn fill_f32(&self, rng: &mut DriftRng, out: &mut [f32]) {
        for value in out {
            *value = self.sample(rng) as f32;
        }
    }

    /// Fills a vector with `n` samples, narrowed to `f32`.
    fn sample_f32(&self, rng: &mut DriftRng, n: usize) -> Vec<f32> {
        let mut out = vec![0.0; n];
        self.fill_f32(rng, &mut out);
        out
    }
}

/// Laplace distribution `Laplace(μ, b)` with density
/// `f(x) = exp(-|x-μ|/b) / (2b)`.
///
/// # Example
///
/// ```rust
/// use drift_tensor::dist::{Laplace, Sampler};
/// use drift_tensor::stats::SummaryStats;
///
/// # fn main() -> Result<(), drift_tensor::TensorError> {
/// let lap = Laplace::new(0.0, 0.5)?;
/// let mut rng = drift_tensor::rng::seeded(3);
/// let stats: SummaryStats = lap.sample_f32(&mut rng, 4096).into_iter().collect();
/// // MLE of the scale recovers b.
/// assert!((stats.laplace_scale() - 0.5).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Laplace {
    mu: f64,
    b: f64,
}

impl Laplace {
    /// Creates a Laplace distribution with location `mu` and scale `b`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] unless `b > 0` and both
    /// parameters are finite.
    pub fn new(mu: f64, b: f64) -> Result<Self> {
        if !b.is_finite() || b <= 0.0 {
            return Err(TensorError::InvalidParameter {
                name: "b",
                value: b,
            });
        }
        if !mu.is_finite() {
            return Err(TensorError::InvalidParameter {
                name: "mu",
                value: mu,
            });
        }
        Ok(Laplace { mu, b })
    }

    /// Location parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Scale parameter.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// The distribution variance, `2 b²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.b * self.b
    }

    /// Inverse-CDF sampling from a uniform draw `u ∈ [0, 1)`: with
    /// `v = u - 1/2`, `x = μ - b · sign(v) · ln(1 - 2|v|)`. The log's
    /// argument is floored at `f64::MIN_POSITIVE`, as in [`Gaussian`] and
    /// [`Exponential`], so the draw `u = 0` gives a finite value; every
    /// other draw has `1 - 2|v| ≥ 2⁻⁵²` and is not affected.
    #[inline]
    fn inverse_cdf(&self, u: f64) -> f64 {
        let v = u - 0.5;
        self.mu - self.b * v.signum() * (1.0 - 2.0 * v.abs()).max(f64::MIN_POSITIVE).ln()
    }

    /// Turns one chunk of keystream words into `out`, slot for slot the
    /// values `inverse_cdf(unit(word)) as f32`: the certified bulk pass,
    /// then libm for every slot it left uncertified.
    fn fill_chunk(&self, words: &[u64], out: &mut [f32]) {
        laplace_chunk(self.mu, self.b, words, out);
        for (value, &word) in out.iter_mut().zip(words) {
            if value.is_nan() {
                *value = self.inverse_cdf(unit(word)) as f32;
            }
        }
    }

    /// The `|sample as f32|` of the draw with scaled weight `j` (module
    /// doc): `unit = j·2⁻⁵³` gives `w = j·2⁻⁵²`, as every draw with that
    /// `j` does, and for `μ = 0` the draws sharing a `w` differ only in
    /// sign.
    fn abs_at(&self, j: u64) -> f64 {
        f64::from((self.inverse_cdf(j as f64 * UNIT) as f32).abs())
    }

    /// Draws exactly the `n` keystream words [`Sampler::fill_f32`] on a
    /// slice of `n` values draws, and returns, without computing those
    /// values, what
    /// [`AbsStats::push_slice`](crate::stats::AbsStats::push_slice) of
    /// them would: the count and `max|Y|` exactly, and an interval around
    /// `Σ|Y|` (module doc). The words are folded in one pass, in the
    /// order [`DriftRng::lend_u64`] lends them.
    ///
    /// Returns `None` when the bracket does not apply: for `μ ≠ 0`
    /// (nothing is drawn then), when a draw's `w` is floored at
    /// `f64::MIN_POSITIVE` (`word >> 11 == 0`), or when `max|Y|` is not
    /// finite. `rng` has then moved by an unspecified number of words.
    pub fn abs_bracket(&self, rng: &mut DriftRng, n: usize) -> Option<AbsBracket> {
        if self.mu != 0.0 {
            return None;
        }
        let start = rng.get_word_pos();
        let mut fold = RowFold::new();
        rng.lend_u64(n, |words| fold.push(words));
        self.finish(&fold, n, |limit| self.replay_max(rng, start, n, limit))
    }

    /// The bracket of a row whose words are at hand, folded through the
    /// same kernel in the same slices.
    #[cfg(test)]
    fn bracket_words(&self, words: &[u64]) -> Option<AbsBracket> {
        self.finish(&RowFold::of(words), words.len(), |limit| {
            self.max_within(words, limit, 0.0)
        })
    }

    /// The `max|Y|` of the `n` words from stream position `start` whose
    /// scaled weight is at most `limit`: the row replayed from a copy of
    /// `rng` moved back to the row's start, for the rare row whose
    /// second-smallest weight lies within the margin (module doc).
    fn replay_max(&self, rng: &DriftRng, start: u128, n: usize, limit: u64) -> f64 {
        let mut replay = rng.clone();
        replay.set_word_pos(start);
        let mut abs_max = 0.0;
        replay.lend_u64(n, |words| abs_max = self.max_within(words, limit, abs_max));
        abs_max
    }

    /// `abs_max` and the `|Y|` of every word in `words` whose scaled
    /// weight is at most `limit`, folded with `f64::max`.
    fn max_within(&self, words: &[u64], limit: u64, abs_max: f64) -> f64 {
        words
            .iter()
            .map(|&word| scaled_w(word))
            .filter(|&j| j <= limit)
            .map(|j| self.abs_at(j))
            .fold(abs_max, f64::max)
    }

    /// The bracket of an `n`-value row from its fold: `max|Y|` from the
    /// smallest weight alone when the second-smallest lies past its
    /// margin, and from `replay(limit)`, the exact `max|Y|` over the
    /// row's weights within the margin, otherwise.
    fn finish(
        &self,
        fold: &RowFold,
        n: usize,
        replay: impl FnOnce(u64) -> f64,
    ) -> Option<AbsBracket> {
        debug_assert_eq!(self.mu, 0.0);
        let (j_min, second) = fold.two_smallest();
        if j_min == 0 {
            return None;
        }
        let limit = margin_limit(j_min);
        let abs_max = if second > limit {
            self.abs_at(j_min)
        } else {
            replay(limit)
        };
        if !abs_max.is_finite() {
            return None;
        }
        // Σ −ln w = −ln Π j + 52·n·ln 2, as −(ln M + E·ln 2).
        let mantissa = fold.lanes.iter().product::<f64>();
        let exponent = fold.exponents.iter().sum::<i64>() - 52 * n as i64;
        let sum = self.b * -(mantissa.ln() + exponent as f64 * std::f64::consts::LN_2);
        let count = n as u64;
        let n = n as f64;
        let absolute = self.b * (n + 64.0) * 2f64.powi(-52) + n * 2f64.powi(-148);
        let half = (sum + absolute) * (2f64.powi(-23) + n * 2f64.powi(-50)) + absolute;
        Some(AbsBracket {
            count,
            abs_max,
            sum_lo: (sum - half).max(0.0),
            sum_hi: sum + half,
        })
    }
}

/// What [`Laplace::abs_bracket`] knows of a row from its keystream words:
/// the row's [`AbsStats`](crate::stats::AbsStats) count and `max|Y|`
/// exactly, and an interval holding its `Σ|Y|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsBracket {
    /// Values in the row.
    pub count: u64,
    /// The row's `max|Y|`, bit for bit.
    pub abs_max: f64,
    /// A lower bound on the row's stream-order `Σ|Y|` (never negative).
    pub sum_lo: f64,
    /// An upper bound on the row's stream-order `Σ|Y|`.
    pub sum_hi: f64,
}

/// Values per chunk of [`Laplace::fill_f32`].
const CHUNK: usize = 256;

/// `2⁻⁵³`, the weight of a draw's lowest bit.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// `f64` lanes of [`RowFold`]'s product and minima.
const PRODUCT_LANES: usize = 8;

const _: () = assert!(
    rand_chacha::LEND <= PRODUCT_LANES * 16,
    "a lent slice puts at most sixteen factors on a lane between two renormalisations"
);

/// The scaled weight `j = w·2⁵²` of a keystream word (module doc):
/// `min(k, 2⁵³ − k)` for `k = word >> 11`, 0 only where `w` is floored.
#[inline(always)]
fn scaled_w(word: u64) -> u64 {
    let k = word >> 11;
    k.min((1u64 << 53) - k)
}

/// The largest scaled weight within the `max|Y|` margin of `j_min`:
/// `j_min + ⌊j_min·2⁻⁴⁰⌋` (module doc).
#[inline(always)]
fn margin_limit(j_min: u64) -> u64 {
    j_min.saturating_add(j_min >> 40)
}

/// [`Laplace::abs_bracket`]'s one-pass fold of a row's scaled weights,
/// in any order: per lane, the smallest and second-smallest weight and
/// the product of every weight, whose binary exponent moves out after
/// each slice.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RowFold {
    /// Per-lane smallest scaled weight.
    mins: [u64; PRODUCT_LANES],
    /// Per-lane second-smallest scaled weight.
    seconds: [u64; PRODUCT_LANES],
    /// Per-lane mantissas in `[1, 2)`; with `exponents`, `Π j` (rounded).
    lanes: [f64; PRODUCT_LANES],
    /// The powers of two the lane mantissas were divided by.
    exponents: [i64; PRODUCT_LANES],
}

impl RowFold {
    /// The fold of no words.
    fn new() -> Self {
        RowFold {
            mins: [u64::MAX; PRODUCT_LANES],
            seconds: [u64::MAX; PRODUCT_LANES],
            lanes: [1.0; PRODUCT_LANES],
            exponents: [0; PRODUCT_LANES],
        }
    }

    /// The fold of `words`, in the slices [`DriftRng::lend_u64`] would
    /// lend them in.
    #[cfg(test)]
    fn of(words: &[u64]) -> Self {
        let mut fold = RowFold::new();
        for slice in words.chunks(rand_chacha::LEND) {
            fold.push(slice);
        }
        fold
    }

    /// Folds one slice of at most [`rand_chacha::LEND`] words, in the
    /// widest build this CPU runs.
    fn push(&mut self, words: &[u64]) {
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            // SAFETY: the CPU has AVX-512F, DQ and VL, checked just above.
            return unsafe { fold_slice_avx512(self, words) };
        }
        fold_slice_body(self, words);
    }

    /// The smallest and second-smallest scaled weight folded (`u64::MAX`
    /// for those missing): the two smallest of the whole row are among
    /// each lane's two smallest.
    fn two_smallest(&self) -> (u64, u64) {
        let (mut first, mut second) = (u64::MAX, u64::MAX);
        for &j in self.mins.iter().chain(&self.seconds) {
            second = second.min(first.max(j));
            first = first.min(j);
        }
        (first, second)
    }
}

/// Folds up to one word per lane into the lane minima and products.
#[inline(always)]
fn fold_group(fold: &mut RowFold, group: &[u64]) {
    let lanes = fold
        .mins
        .iter_mut()
        .zip(&mut fold.seconds)
        .zip(&mut fold.lanes);
    for (((min, second), lane), &word) in lanes.zip(group) {
        let j = scaled_w(word);
        *second = (*second).min((*min).max(j));
        *min = (*min).min(j);
        *lane *= j as f64;
    }
}

/// The certificate's kernel: folds one slice of at most
/// [`rand_chacha::LEND`] words, so at most sixteen per lane, then moves
/// each lane's binary exponent into `exponents`, leaving a mantissa in
/// `[1, 2)`. The move is exact for the positive normal lanes a row with
/// every `j ≥ 1` keeps (a zero lane only arises for a row that is
/// refused anyway).
#[inline(always)]
fn fold_slice_body(fold: &mut RowFold, words: &[u64]) {
    const MANTISSA: u64 = (1 << 52) - 1;
    const ONE: u64 = 1023 << 52;
    debug_assert!(words.len() <= rand_chacha::LEND);
    let mut groups = words.chunks_exact(PRODUCT_LANES);
    for group in &mut groups {
        fold_group(fold, group);
    }
    fold_group(fold, groups.remainder());
    for (lane, exponent) in fold.lanes.iter_mut().zip(&mut fold.exponents) {
        let bits = lane.to_bits();
        *exponent += (bits >> 52) as i64 - 1023;
        *lane = f64::from_bits((bits & MANTISSA) | ONE);
    }
}

/// [`fold_slice_body`] in AVX-512 vectors.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX-512DQ and AVX-512VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
unsafe fn fold_slice_avx512(fold: &mut RowFold, words: &[u64]) {
    fold_slice_body(fold, words);
}

/// Relative half-width of the bracket around fdlibm's `ln` (module doc).
const BRACKET: f64 = 1.0 / (1u64 << 36) as f64;

/// The `f64` in `[0, 1)` that `rng.gen::<f64>()` makes of the keystream
/// value `word`: its top 53 bits, scaled by `2⁻⁵³`.
#[inline(always)]
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 * UNIT
}

/// fdlibm's `e_log.c` natural logarithm, < 1 ulp from the true value,
/// with its branches turned into selects so that it vectorises. It
/// always takes the general path: the `|f| < 2⁻²⁰` shortcut is only a
/// faster approximation, and the `k = 0` forms are the general formula
/// at `k = 0`. `x` must be positive and normal, as every `w` [`Laplace`]
/// forms is.
#[inline(always)]
fn fdlibm_ln(x: f64) -> f64 {
    const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
    const LG1: f64 = f64::from_bits(0x3FE5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3FD9_9999_9997_FA04);
    const LG3: f64 = f64::from_bits(0x3FD2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3FCC_71C5_1D8E_78AF);
    const LG5: f64 = f64::from_bits(0x3FC7_4664_96CB_03DE);
    const LG6: f64 = f64::from_bits(0x3FC3_9A09_D078_C69F);
    const LG7: f64 = f64::from_bits(0x3FC2_F112_DF3E_5244);
    debug_assert!(x.is_normal() && x > 0.0, "fdlibm_ln domain: {x}");

    let bits = x.to_bits();
    let high = (bits >> 32) as i32;
    let hx = high & 0x000f_ffff;
    // Scale x by 2^-k into m ∈ [√2/2, √2): `i` is set when the mantissa
    // is at least √2, and then m takes the exponent of 1/2.
    let i = (hx + 0x95f64) & 0x10_0000;
    let k = (high >> 20) - 1023 + (i >> 20);
    let m_high = (hx | (i ^ 0x3ff0_0000)) as u32;
    let f = f64::from_bits((u64::from(m_high) << 32) | (bits & 0xffff_ffff)) - 1.0;

    let s = f / (2.0 + f);
    let dk = f64::from(k);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    // fdlibm keeps `hfsq` in the reconstruction where x's mantissa lies
    // in (1.38, 1.42), the two ends of the range of |f|.
    let large = ((hx - 0x6147a) | (0x6b851 - hx)) > 0;
    if large {
        dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f)
    } else {
        dk * LN2_HI - ((s * (f - r) - dk * LN2_LO) - f)
    }
}

/// The certified pass over one chunk (module doc): slot `i` gets
/// `inverse_cdf(unit(words[i])) as f32` where the bracket certifies it,
/// and NaN, which no sample is, where it does not.
#[inline(always)]
fn laplace_chunk_body(mu: f64, b: f64, words: &[u64], out: &mut [f32]) {
    for (value, &word) in out.iter_mut().zip(words) {
        // Exactly `inverse_cdf`'s operations up to the logarithm.
        let v = unit(word) - 0.5;
        let scale = b * v.signum();
        let l = fdlibm_ln((1.0 - 2.0 * v.abs()).max(f64::MIN_POSITIVE));
        let d = l.abs() * BRACKET;
        let lo = (mu - scale * (l - d)) as f32;
        let hi = (mu - scale * (l + d)) as f32;
        let certified = lo.to_bits() == hi.to_bits() && l != 0.0 && lo != 0.0;
        *value = if certified { lo } else { f32::NAN };
    }
}

/// [`laplace_chunk_body`] in AVX-512 vectors.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX-512DQ and AVX-512VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
unsafe fn laplace_chunk_avx512(mu: f64, b: f64, words: &[u64], out: &mut [f32]) {
    laplace_chunk_body(mu, b, words, out);
}

/// Whether this CPU runs [`laplace_chunk_avx512`] (std caches the
/// answer).
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
}

/// [`laplace_chunk_body`] in the widest build this CPU runs.
fn laplace_chunk(mu: f64, b: f64, words: &[u64], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if has_avx512() {
        // SAFETY: the CPU has AVX-512F, DQ and VL, checked just above.
        return unsafe { laplace_chunk_avx512(mu, b, words, out) };
    }
    laplace_chunk_body(mu, b, words, out);
}

impl Sampler for Laplace {
    #[inline]
    fn sample(&self, rng: &mut DriftRng) -> f64 {
        self.inverse_cdf(rng.gen())
    }

    /// Chunks of 256 values, each drawn with one
    /// [`DriftRng::fill_u64`] and certified in bulk (module doc).
    fn fill_f32(&self, rng: &mut DriftRng, out: &mut [f32]) {
        let mut words = [0u64; CHUNK];
        for chunk in out.chunks_mut(CHUNK) {
            let words = &mut words[..chunk.len()];
            rng.fill_u64(words);
            self.fill_chunk(words, chunk);
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.b;
        if z < 0.0 {
            0.5 * z.exp()
        } else {
            1.0 - 0.5 * (-z).exp()
        }
    }
}

/// Gaussian distribution `N(μ, σ²)` sampled via Box–Muller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gaussian {
    mu: f64,
    sigma: f64,
}

impl Gaussian {
    /// Creates a Gaussian with mean `mu` and standard deviation `sigma`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] unless `sigma > 0` and
    /// both parameters are finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !sigma.is_finite() || sigma <= 0.0 {
            return Err(TensorError::InvalidParameter {
                name: "sigma",
                value: sigma,
            });
        }
        if !mu.is_finite() {
            return Err(TensorError::InvalidParameter {
                name: "mu",
                value: mu,
            });
        }
        Ok(Gaussian { mu, sigma })
    }

    /// Mean.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Sampler for Gaussian {
    #[inline]
    fn sample(&self, rng: &mut DriftRng) -> f64 {
        // Box–Muller; one of the pair is discarded for simplicity.
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mu + self.sigma * z
    }

    fn cdf(&self, x: f64) -> f64 {
        0.5 * (1.0 + erf((x - self.mu) / (self.sigma * std::f64::consts::SQRT_2)))
    }
}

/// Exponential distribution with rate `λ` (the distribution of `|Y|` when
/// `Y ~ Laplace(0, 1/λ)`, paper Eq. 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] unless `lambda > 0` and
    /// finite.
    pub fn new(lambda: f64) -> Result<Self> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(TensorError::InvalidParameter {
                name: "lambda",
                value: lambda,
            });
        }
        Ok(Exponential { lambda })
    }

    /// Rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Sampler for Exponential {
    #[inline]
    fn sample(&self, rng: &mut DriftRng) -> f64 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        -u.ln() / self.lambda
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            1.0 - (-self.lambda * x).exp()
        }
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] unless `lo < hi`, both
    /// are finite, and so is the width `hi - lo`.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if !lo.is_finite() || !hi.is_finite() || lo >= hi || !(hi - lo).is_finite() {
            return Err(TensorError::InvalidParameter {
                name: "hi",
                value: hi,
            });
        }
        Ok(Uniform { lo, hi })
    }

    /// Maps a uniform draw `u ∈ [0, 1)` onto `[lo, hi)`. The product
    /// can round up to `hi` (for `[1, 2)` and `u = 1 − 2⁻⁵³`), so the
    /// result is capped at the largest value below `hi`.
    fn inverse_cdf(&self, u: f64) -> f64 {
        (self.lo + (self.hi - self.lo) * u).min(self.hi.next_down())
    }
}

impl Sampler for Uniform {
    #[inline]
    fn sample(&self, rng: &mut DriftRng) -> f64 {
        self.inverse_cdf(rng.gen())
    }

    fn cdf(&self, x: f64) -> f64 {
        ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, max abs error
/// 1.5e-7), sufficient for goodness-of-fit reporting.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// One-sample Kolmogorov–Smirnov statistic of `samples` against a model
/// CDF: `D = sup_x |F_n(x) - F(x)|`.
///
/// Small values (≲ 1.36/√n for 5% significance) indicate the model fits.
///
/// # Example
///
/// ```rust
/// use drift_tensor::dist::{ks_statistic, Laplace, Sampler};
///
/// # fn main() -> Result<(), drift_tensor::TensorError> {
/// let lap = Laplace::new(0.0, 1.0)?;
/// let mut rng = drift_tensor::rng::seeded(11);
/// let samples = lap.sample_vec(&mut rng, 2000);
/// let d = ks_statistic(&samples, |x| lap.cdf(x));
/// assert!(d < 1.36 / (2000f64).sqrt() * 1.5);
/// # Ok(())
/// # }
/// ```
pub fn ks_statistic(samples: &[f64], cdf: impl Fn(f64) -> f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x);
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    d
}

/// KS statistic of `samples` against the best-fit zero-mean Laplace
/// (scale from the MLE `b = avg(|x|)`). Returns the fitted scale and the
/// statistic; `None` for empty or all-zero input.
pub fn laplace_fit_ks(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.is_empty() {
        return None;
    }
    let b = samples.iter().map(|v| v.abs()).sum::<f64>() / samples.len() as f64;
    if b == 0.0 {
        return None;
    }
    let lap = Laplace::new(0.0, b).ok()?;
    Some((b, ks_statistic(samples, |x| lap.cdf(x))))
}

/// Quantile function (inverse CDF) of the zero-mean Laplace
/// distribution with scale `b`.
pub fn laplace_quantile(p: f64, b: f64) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    if p < 0.5 {
        b * (2.0 * p).ln()
    } else {
        -b * (2.0 * (1.0 - p)).ln()
    }
}

/// QQ-plot points of `samples` against the best-fit zero-mean Laplace:
/// `(theoretical quantile, empirical quantile)` pairs at the plotting
/// positions `(i + 0.5) / n`. A good fit hugs the diagonal; the
/// Figure-1 reproduction prints the worst deviation. Returns an empty
/// vector for empty or all-zero input.
pub fn laplace_qq_points(samples: &[f64]) -> Vec<(f64, f64)> {
    if samples.is_empty() {
        return Vec::new();
    }
    let b = samples.iter().map(|v| v.abs()).sum::<f64>() / samples.len() as f64;
    if b == 0.0 {
        return Vec::new();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, c| a.partial_cmp(c).expect("samples must not contain NaN"));
    let n = sorted.len() as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (laplace_quantile((i as f64 + 0.5) / n, b), x))
        .collect()
}

/// A fixed-width histogram over `[lo, hi]` used to render Figure-1 style
/// distribution plots as text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins on `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] unless `lo < hi` and
    /// `bins > 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self> {
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(TensorError::InvalidParameter {
                name: "hi",
                value: hi,
            });
        }
        if bins == 0 {
            return Err(TensorError::InvalidParameter {
                name: "bins",
                value: 0.0,
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            underflow: 0,
            overflow: 0,
        })
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        if x > self.hi {
            self.overflow += 1;
            return;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let bin = (((x - self.lo) / width) as usize).min(self.counts.len() - 1);
        self.counts[bin] += 1;
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations (including out-of-range).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Normalized bin densities (each bin's fraction of in-range mass,
    /// divided by bin width).
    pub fn densities(&self) -> Vec<f64> {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let in_range: u64 = self.counts.iter().sum();
        if in_range == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / in_range as f64 / width)
            .collect()
    }

    /// Centre of each bin, for plotting.
    pub fn bin_centers(&self) -> Vec<f64> {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        (0..self.counts.len())
            .map(|i| self.lo + width * (i as f64 + 0.5))
            .collect()
    }

    /// Renders a compact ASCII bar chart (one line per bin).
    pub fn to_ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let centers = self.bin_centers();
        let mut out = String::new();
        for (c, count) in centers.iter().zip(&self.counts) {
            let bar = "#".repeat((count * width as u64 / max) as usize);
            out.push_str(&format!("{c:>9.3} | {bar}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn laplace_rejects_bad_params() {
        assert!(Laplace::new(0.0, 0.0).is_err());
        assert!(Laplace::new(0.0, -1.0).is_err());
        assert!(Laplace::new(f64::NAN, 1.0).is_err());
        assert!(Laplace::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn laplace_zero_draw_is_finite() {
        let lap = Laplace::new(0.5, 2.0).unwrap();
        let lowest = lap.inverse_cdf(0.0);
        assert!(lowest.is_finite(), "u = 0 gave {lowest}");
        // The floor only touches u = 0: the next draw, 2⁻⁵³, still takes
        // the unfloored log, and lies above the floored value.
        let next = lap.inverse_cdf(2f64.powi(-53));
        assert_eq!(next, 0.5 + 2.0 * 2f64.powi(-52).ln());
        assert!(lowest < next);
        assert_eq!(lap.inverse_cdf(0.5), 0.5);
    }

    #[test]
    fn laplace_moments_recovered() {
        let lap = Laplace::new(0.0, 0.8).unwrap();
        let mut rng = seeded(1);
        let xs = lap.sample_vec(&mut rng, 20_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mean_abs = xs.iter().map(|v| v.abs()).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((mean_abs - 0.8).abs() < 0.03, "mean_abs {mean_abs}");
    }

    #[test]
    fn laplace_cdf_properties() {
        let lap = Laplace::new(0.0, 1.0).unwrap();
        assert!((lap.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!(lap.cdf(-10.0) < 1e-4);
        assert!(lap.cdf(10.0) > 1.0 - 1e-4);
        // Monotone.
        assert!(lap.cdf(-1.0) < lap.cdf(0.0));
        assert!(lap.cdf(0.0) < lap.cdf(1.0));
    }

    #[test]
    fn gaussian_moments_recovered() {
        let g = Gaussian::new(1.0, 2.0).unwrap();
        let mut rng = seeded(2);
        let xs = g.sample_vec(&mut rng, 20_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 1.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.2);
    }

    #[test]
    fn gaussian_cdf_median() {
        let g = Gaussian::new(3.0, 1.5).unwrap();
        assert!((g.cdf(3.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let e = Exponential::new(4.0).unwrap();
        let mut rng = seeded(3);
        let xs = e.sample_vec(&mut rng, 20_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.25).abs() < 0.01);
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn abs_laplace_is_exponential() {
        // Paper Eq. 4: |Laplace(0, b)| ~ Exponential(1/b).
        let lap = Laplace::new(0.0, 0.5).unwrap();
        let exp = Exponential::new(2.0).unwrap();
        let mut rng = seeded(4);
        let abs_samples: Vec<f64> = lap
            .sample_vec(&mut rng, 5_000)
            .into_iter()
            .map(f64::abs)
            .collect();
        let d = ks_statistic(&abs_samples, |x| exp.cdf(x));
        assert!(d < 0.03, "KS statistic {d} too large");
    }

    /// The ulps between two positive finite `f64`s.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn fdlibm_ln_is_within_one_ulp_of_libm() {
        let near_one = (1..=20_000u64).map(|j| 1.0 - j as f64 * f64::EPSILON);
        let smallest = (1..=20_000u64).map(|j| j as f64 * f64::EPSILON);
        let powers = (0..=1022).map(|e| 2f64.powi(-e));
        let mut rng = seeded(99);
        // Every w the sampler forms from a draw: 1 − 2|u − 1/2|, floored.
        let drawn = (0..1_000_000).map(|_| {
            let v = rng.gen::<f64>() - 0.5;
            (1.0 - 2.0 * v.abs()).max(f64::MIN_POSITIVE)
        });
        // Around where the mantissa folds into [√2/2, √2).
        let root = std::f64::consts::FRAC_1_SQRT_2;
        let fixed = [
            f64::MIN_POSITIVE,
            root.next_down(),
            root,
            root.next_up(),
            0.75,
        ];
        let mut checked = 0;
        for w in near_one
            .chain(smallest)
            .chain(powers)
            .chain(drawn)
            .chain(fixed)
        {
            let (ours, libm) = (fdlibm_ln(w), w.ln());
            assert!(
                ulps(ours, libm) <= 1,
                "ln({w:e}): {ours:e} vs libm {libm:e}"
            );
            checked += 1;
        }
        assert!(checked > 1_000_000);
    }

    /// A build of the chunk body.
    type ChunkBody = fn(f64, f64, &[u64], &mut [f32]);

    /// Every build of the chunk body this CPU runs, by name.
    fn chunk_builds() -> Vec<(&'static str, ChunkBody)> {
        let mut builds: Vec<(&'static str, ChunkBody)> = vec![("baseline", laplace_chunk_body)];
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            builds.push(("avx512", |mu, b, words, out| {
                // SAFETY: `has_avx512` found AVX-512F, DQ and VL.
                unsafe { laplace_chunk_avx512(mu, b, words, out) }
            }));
        } else {
            println!("AVX-512F/DQ/VL not present on this CPU: skipping the AVX-512 chunk body");
        }
        builds
    }

    #[test]
    fn chunk_body_handles_the_edge_draws() {
        // The top 53 bits of a word make u: 0 gives u = 0 (w floored to
        // MIN_POSITIVE), 2^52 gives u = 1/2 (w = 1, L = 0), and 2^52 ± 1
        // give w = 1 − 2⁻⁵², the largest w below 1.
        let half = 1u64 << 63;
        let words = [0, 2047, half, half + (1 << 11), half - (1 << 11), u64::MAX];
        for (mu, b) in [(0.0, 1.0), (0.0, 1e-6), (-20.0, 3.5), (1e-3, 1e3)] {
            let lap = Laplace::new(mu, b).unwrap();
            let exact: Vec<f32> = words
                .iter()
                .map(|&w| lap.inverse_cdf(unit(w)) as f32)
                .collect();
            for (name, body) in chunk_builds() {
                let mut out = [0.0f32; 6];
                body(mu, b, &words, &mut out);
                for (i, (&got, &want)) in out.iter().zip(&exact).enumerate() {
                    assert!(
                        got.is_nan() || got.to_bits() == want.to_bits(),
                        "{name}: word {i}, mu {mu}, b {b}: {got} vs {want}"
                    );
                }
                // u = 1/2 has L = 0, which the bracket cannot certify.
                assert!(out[2].is_nan(), "{name}: u = 1/2 certified");
                assert!(!out[0].is_nan(), "{name}: u = 0 left uncertified");
            }
            let mut out = [0.0f32; 6];
            lap.fill_chunk(&words, &mut out);
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&exact), "mu {mu}, b {b}");
            assert_eq!(out[2], mu as f32);
        }
    }

    #[test]
    fn chunk_builds_agree_and_rarely_fall_back() {
        let mut rng = seeded(31);
        let mut words = vec![0u64; 1 << 16];
        rng.fill_u64(&mut words);
        let builds = chunk_builds();
        for (mu, b) in [(0.0, 0.05), (20.0, 1e-6), (-1e-3, 700.0)] {
            let mut reference = vec![0.0f32; words.len()];
            laplace_chunk_body(mu, b, &words, &mut reference);
            for (name, body) in &builds {
                let mut out = vec![0.0f32; words.len()];
                body(mu, b, &words, &mut out);
                let same = out
                    .iter()
                    .zip(&reference)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{name} differs from the baseline build");
            }
            // About 4.9e-4 of slots sit at an f32 rounding boundary.
            let fallbacks = reference.iter().filter(|x| x.is_nan()).count();
            let rate = fallbacks as f64 / words.len() as f64;
            assert!(rate < 2e-3, "fallback rate {rate} for mu {mu}, b {b}");
        }
    }

    /// The statistics `push_slice` gives `words`' exact values.
    fn exact_abs_stats(lap: &Laplace, words: &[u64]) -> crate::stats::AbsStats {
        let values: Vec<f32> = words
            .iter()
            .map(|&w| lap.inverse_cdf(unit(w)) as f32)
            .collect();
        crate::stats::AbsStats::from_slice(values)
    }

    /// `bracket` holds `exact`: the same count and `max|Y|` bits, and
    /// `Σ|Y|` inside the interval.
    fn assert_brackets(bracket: &AbsBracket, exact: &crate::stats::AbsStats, what: &str) {
        assert_eq!(bracket.count, exact.count(), "{what}");
        assert_eq!(
            bracket.abs_max.to_bits(),
            exact.abs_max().to_bits(),
            "{what}: max {} vs {}",
            bracket.abs_max,
            exact.abs_max()
        );
        assert!(
            bracket.sum_lo <= exact.sum_abs() && exact.sum_abs() <= bracket.sum_hi,
            "{what}: sum {} outside [{}, {}]",
            exact.sum_abs(),
            bracket.sum_lo,
            bracket.sum_hi
        );
    }

    #[test]
    fn scaled_w_is_the_samplers_w() {
        let half = 1u64 << 63;
        let step = 1u64 << 11;
        let mut rng = seeded(41);
        let mut words = vec![0u64; 4096];
        rng.fill_u64(&mut words);
        words.extend([0, 2047, step, half - step, half, half + step, u64::MAX]);
        for word in words {
            let v = unit(word) - 0.5;
            let w = 1.0 - 2.0 * v.abs();
            assert_eq!(scaled_w(word) as f64 * 2f64.powi(-52), w, "word {word:#x}");
        }
    }

    #[test]
    fn abs_bracket_holds_push_slice_of_fill_f32() {
        for (seed, b) in [(1, 1e-6), (2, 0.03), (3, 1.0), (4, 700.0), (5, 2.5e30)] {
            let lap = Laplace::new(0.0, b).unwrap();
            let mut rng = seeded(seed);
            for n in [0, 1, 7, 8, 127, 128, 129, 257, 768, 1000, 4096] {
                // Each row starts 1 to 3 drawn values after the last
                // one ends, so rows start at varied offsets into a refill.
                for _ in 0..1 + n % 3 {
                    rng.gen::<u64>();
                }
                let (mut exact_rng, mut bracket_rng) = (rng.clone(), rng.clone());
                let values = lap.sample_f32(&mut exact_rng, n);
                let exact = crate::stats::AbsStats::from_slice(&values);
                let bracket = lap.abs_bracket(&mut bracket_rng, n).unwrap();
                assert_brackets(&bracket, &exact, &format!("b {b}, n {n}"));
                let width = bracket.sum_hi - bracket.sum_lo;
                assert!(
                    width <= exact.sum_abs() * 2e-6 + b * 1e-9,
                    "b {b}, n {n}: width {width}"
                );
                // Both drew the same words, so the streams stay in step.
                assert_eq!(exact_rng.gen::<u64>(), bracket_rng.gen::<u64>());
                rng = bracket_rng;
            }
        }
    }

    /// Whether `words`' bracket takes `max|Y|` from a replay: the row's
    /// second-smallest weight lies within the smallest one's margin.
    fn replays(words: &[u64]) -> bool {
        let (j_min, second) = RowFold::of(words).two_smallest();
        second <= margin_limit(j_min)
    }

    #[test]
    fn abs_bracket_edge_words() {
        let half = 1u64 << 63;
        let step = 1u64 << 11;
        let lap = Laplace::new(0.0, 1.0).unwrap();
        // The draw u = 0 (any word below 2^11) floors w at MIN_POSITIVE.
        for floor in [0, 1, 2047] {
            assert_eq!(lap.bracket_words(&[half, floor, 12345 << 11]), None);
        }
        // u = 1/2 gives w = 1 and |Y| = 0; a row of them is all zeros.
        let ones = [half; 9];
        let bracket = lap.bracket_words(&ones).unwrap();
        assert_brackets(&bracket, &exact_abs_stats(&lap, &ones), "w = 1");
        assert_eq!((bracket.abs_max, bracket.sum_lo), (0.0, 0.0));
        // The two draws u = 2^-53 and u = 1 − 2^-53 share the smallest
        // w, so two words pass the max|Y| margin and the row replays. So
        // it does when the row's smallest w is the largest below 1
        // (u = 1/2 ± 2^-53): every w = 1 draw lies in its margin, 300 of
        // them. The two lie in different lanes and different slices.
        let mut rng = seeded(8);
        let mut words = vec![0u64; 300];
        rng.fill_u64(&mut words);
        let near_half = {
            let mut row = vec![half; 300];
            row[17] = half - step;
            row[250] = half + step;
            row
        };
        let mut extremes = words.clone();
        extremes[17] = step;
        extremes[250] = u64::MAX;
        // Both smallest weights in one lane of one slice.
        let mut one_lane = words.clone();
        one_lane[3] = step;
        one_lane[3 + PRODUCT_LANES] = u64::MAX;
        assert!(!replays(&words), "a drawn row has one candidate");
        for row in [&near_half, &extremes, &one_lane] {
            assert!(replays(row));
            for b in [1e-6, 1.0, 1e3] {
                let lap = Laplace::new(0.0, b).unwrap();
                let bracket = lap.bracket_words(row).unwrap();
                assert_brackets(&bracket, &exact_abs_stats(&lap, row), "two smallest w");
            }
        }
        // b at the profile's 1e-6 floor, and b large enough that the
        // smallest w's magnitude overflows f32.
        let tiny = Laplace::new(0.0, 1e-6).unwrap();
        let bracket = tiny.bracket_words(&words).unwrap();
        assert_brackets(&bracket, &exact_abs_stats(&tiny, &words), "b = 1e-6");
        let huge = Laplace::new(0.0, 1e38).unwrap();
        assert!(exact_abs_stats(&huge, &[step]).abs_max().is_infinite());
        assert_eq!(huge.bracket_words(&[half, step, half + step]), None);
        // A nonzero location has no bracket, and nothing is drawn.
        let shifted = Laplace::new(0.5, 1.0).unwrap();
        let mut rng = seeded(9);
        let before = rng.clone().gen::<u64>();
        assert_eq!(shifted.abs_bracket(&mut rng, 4), None);
        assert_eq!(rng.gen::<u64>(), before);
    }

    #[test]
    fn a_replay_reads_the_rows_own_words() {
        // A limit of u64::MAX admits every word, so the replay's answer
        // is the row's exact max|Y|, from wherever the row started.
        let lap = Laplace::new(0.0, 0.25).unwrap();
        let mut rng = seeded(13);
        for n in [1, 5, 128, 300, 1000] {
            for _ in 0..1 + n % 3 {
                rng.gen::<u64>();
            }
            let start = rng.get_word_pos();
            let mut words = vec![0u64; n];
            rng.fill_u64(&mut words);
            rng.gen::<u64>();
            let replayed = lap.replay_max(&rng, start, n, u64::MAX);
            let exact = exact_abs_stats(&lap, &words).abs_max();
            assert_eq!(replayed.to_bits(), exact.to_bits(), "n {n}");
        }
    }

    #[test]
    fn fold_builds_agree() {
        let mut rng = seeded(77);
        let mut words = vec![0u64; 5000];
        rng.fill_u64(&mut words);
        for n in [1, 9, 128, 1000, 5000] {
            let (mut chosen, mut reference) = (RowFold::new(), RowFold::new());
            for slice in words[..n].chunks(rand_chacha::LEND) {
                chosen.push(slice);
                fold_slice_body(&mut reference, slice);
            }
            assert_eq!(chosen, reference, "n {n}");
        }
    }

    #[test]
    fn uniform_stays_below_hi() {
        let u = Uniform::new(1.0, 2.0).unwrap();
        let top = 1.0 - f64::EPSILON / 2.0;
        assert_eq!(1.0 + top, 2.0, "the unclamped map rounds up to hi");
        assert_eq!(u.inverse_cdf(top), 2.0f64.next_down());
        assert_eq!(u.inverse_cdf(0.0), 1.0);
    }

    #[test]
    fn uniform_rejects_an_infinite_width() {
        assert!(Uniform::new(-f64::MAX, f64::MAX).is_err());
        assert!(Uniform::new(-f64::MAX / 2.0, f64::MAX / 2.0).is_ok());
    }

    #[test]
    fn uniform_bounds() {
        let u = Uniform::new(-1.0, 1.0).unwrap();
        let mut rng = seeded(5);
        for _ in 0..1000 {
            let x = u.sample(&mut rng);
            assert!((-1.0..1.0).contains(&x));
        }
        assert!(Uniform::new(1.0, 1.0).is_err());
    }

    #[test]
    fn ks_accepts_true_model_rejects_wrong_model() {
        let lap = Laplace::new(0.0, 1.0).unwrap();
        let mut rng = seeded(6);
        let xs = lap.sample_vec(&mut rng, 3_000);
        let d_true = ks_statistic(&xs, |x| lap.cdf(x));
        let g = Gaussian::new(0.0, (2.0f64).sqrt()).unwrap();
        let d_wrong = ks_statistic(&xs, |x| g.cdf(x));
        assert!(d_true < d_wrong, "true {d_true} vs wrong {d_wrong}");
        assert!(d_true < 0.05);
    }

    #[test]
    fn laplace_fit_ks_recovers_scale() {
        let lap = Laplace::new(0.0, 0.3).unwrap();
        let mut rng = seeded(7);
        let xs = lap.sample_vec(&mut rng, 5_000);
        let (b, d) = laplace_fit_ks(&xs).unwrap();
        assert!((b - 0.3).abs() < 0.02);
        assert!(d < 0.05);
        assert!(laplace_fit_ks(&[]).is_none());
        assert!(laplace_fit_ks(&[0.0, 0.0]).is_none());
    }

    #[test]
    fn laplace_quantile_inverts_cdf() {
        let lap = Laplace::new(0.0, 0.7).unwrap();
        for p in [0.01, 0.25, 0.5, 0.75, 0.99] {
            let x = laplace_quantile(p, 0.7);
            assert!((lap.cdf(x) - p).abs() < 1e-9, "p = {p}");
        }
        assert_eq!(laplace_quantile(0.5, 1.0), 0.0);
    }

    #[test]
    fn qq_points_hug_the_diagonal_for_true_laplace() {
        let lap = Laplace::new(0.0, 0.4).unwrap();
        let mut rng = seeded(12);
        let xs = lap.sample_vec(&mut rng, 4000);
        let points = laplace_qq_points(&xs);
        assert_eq!(points.len(), 4000);
        // Central 95% of points stay near the diagonal.
        let inner = &points[100..3900];
        let worst = inner
            .iter()
            .map(|(t, e)| (t - e).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 0.12, "worst central deviation {worst}");
        assert!(laplace_qq_points(&[]).is_empty());
        assert!(laplace_qq_points(&[0.0, 0.0]).is_empty());
    }

    #[test]
    fn histogram_counts_and_range() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        for x in [0.1, 0.3, 0.6, 0.9, -0.5, 1.5] {
            h.push(x);
        }
        assert_eq!(h.counts(), &[1, 1, 1, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 6);
        let centers = h.bin_centers();
        assert!((centers[0] - 0.125).abs() < 1e-12);
        assert!(!h.to_ascii(20).is_empty());
    }

    #[test]
    fn histogram_densities_integrate_to_one() {
        let mut h = Histogram::new(-2.0, 2.0, 32).unwrap();
        let lap = Laplace::new(0.0, 0.4).unwrap();
        let mut rng = seeded(8);
        for _ in 0..10_000 {
            h.push(lap.sample(&mut rng));
        }
        let width = 4.0 / 32.0;
        let integral: f64 = h.densities().iter().map(|d| d * width).sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    fn erf_reference_values() {
        assert!(erf(0.0).abs() < 1e-6);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_91).abs() < 1e-5);
    }
}
