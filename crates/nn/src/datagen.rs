//! Synthetic data generation matched to the paper's Figure-1
//! observations.
//!
//! Two levels:
//!
//! 1. **Tensor level** ([`TokenProfile::generate`], [`ImageProfile`]) —
//!    full activation tensors for the scaled-down executable models of
//!    the accuracy evaluation. [`TokenProfile::token_stats`] streams
//!    the same values one token at a time into what the precision
//!    selector reads. Every sub-tensor is zero-mean Laplace;
//!    sub-tensor scales are log-normally dispersed per model family,
//!    with occasional outlier tokens for transformer/LLM families (the
//!    LLM.int8 phenomenon the paper cites).
//! 2. **Statistics level** ([`TokenProfile::row_stats`]) — for the
//!    full-scale hardware evaluation we need per-row `(max|Y|,
//!    avg(|Y|))` for GEMMs with thousands of rows and wide reduction
//!    dims; materialising the tensors would be wasteful because every
//!    policy decision depends only on those two statistics. We sample
//!    the statistics directly from their sampling distributions (the
//!    max of `K` i.i.d. exponentials is Gumbel-distributed around
//!    `b·ln K`) and synthesise a tiny value multiset realising them
//!    exactly, so `SummaryStats` stays the single source of truth.

use crate::{NnError, Result};
use drift_core::selector::DriftPolicy;
use drift_quant::policy::{Selection, StreamStats};
use drift_quant::Precision;
use drift_tensor::dist::{Laplace, Sampler};
use drift_tensor::rng::{derive_seed, seeded, DriftRng};
use drift_tensor::stats::SummaryStats;
use drift_tensor::{Shape, Tensor};
use rand::Rng;

/// Per-model-family token (sub-tensor) statistics profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenProfile {
    /// Median Laplace scale of a token.
    pub base_scale: f64,
    /// Log-normal sigma of the per-token scale dispersion. CNN feature
    /// maps are homogeneous (small sigma); transformer tokens span
    /// orders of magnitude (paper Fig. 1a).
    pub scale_sigma: f64,
    /// Fraction of tokens that are outliers.
    pub outlier_fraction: f64,
    /// Scale multiplier for outlier tokens.
    pub outlier_gain: f64,
}

impl TokenProfile {
    /// CNN feature-map regions: homogeneous scales, no outliers.
    pub fn cnn() -> Self {
        TokenProfile {
            base_scale: 0.25,
            scale_sigma: 0.45,
            outlier_fraction: 0.0,
            outlier_gain: 1.0,
        }
    }

    /// ViT patch tokens: wide dispersion (paper Fig. 1a shows patch
    /// maxima from ~0 to >3), occasional outliers (the CLS token and
    /// high-attention patches). The bulk of tokens sit an order of
    /// magnitude below the outliers: below the reach of a
    /// range-preserving 4-bit step, within the reach of INT8.
    pub fn vit() -> Self {
        TokenProfile {
            base_scale: 0.05,
            scale_sigma: 0.6,
            outlier_fraction: 0.05,
            outlier_gain: 5.0,
        }
    }

    /// BERT tokens: wide dispersion with a few outlier tokens
    /// (separator/punctuation tokens carry large activations).
    pub fn bert() -> Self {
        TokenProfile {
            base_scale: 0.04,
            scale_sigma: 0.5,
            outlier_fraction: 0.05,
            outlier_gain: 5.0,
        }
    }

    /// LLM tokens: the heaviest dispersion plus systematic outliers
    /// (LLM.int8's observation, cited by the paper for the era of large
    /// models).
    pub fn llm() -> Self {
        TokenProfile {
            base_scale: 0.03,
            scale_sigma: 0.7,
            outlier_fraction: 0.04,
            outlier_gain: 8.0,
        }
    }

    /// The profile for a model family by its zoo tag.
    pub fn for_family(family: crate::zoo::ModelFamily) -> Self {
        use crate::zoo::ModelFamily;
        match family {
            ModelFamily::Cnn => TokenProfile::cnn(),
            ModelFamily::Vit => TokenProfile::vit(),
            ModelFamily::Bert => TokenProfile::bert(),
            ModelFamily::Llm => TokenProfile::llm(),
        }
    }

    /// The profile named `cnn`, `vit`, `bert` or `llm` (the wire and CLI
    /// spelling), or `None` for any other name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "cnn" => Some(TokenProfile::cnn()),
            "vit" => Some(TokenProfile::vit()),
            "bert" => Some(TokenProfile::bert()),
            "llm" => Some(TokenProfile::llm()),
            _ => None,
        }
    }

    /// Draws one token's Laplace scale.
    pub fn sample_scale(&self, rng: &mut DriftRng) -> f64 {
        // Log-normal dispersion around the base scale.
        let gauss = drift_tensor::dist::Gaussian::new(0.0, self.scale_sigma)
            .expect("sigma > 0 by construction");
        let mut scale = self.base_scale * gauss.sample(rng).exp();
        if self.outlier_fraction > 0.0 && rng.gen::<f64>() < self.outlier_fraction {
            scale *= self.outlier_gain;
        }
        scale.max(1e-6)
    }

    /// Generates a `[tokens, hidden]` activation tensor: token `t` is
    /// i.i.d. `Laplace(0, scale_t)`. The collected form of the row
    /// generator `for_each_token`.
    ///
    /// # Errors
    ///
    /// Returns a tensor error for zero dimensions.
    pub fn generate(&self, tokens: usize, hidden: usize, seed: u64) -> Result<Tensor> {
        let mut data = Vec::with_capacity(tokens * hidden);
        self.for_each_token(tokens, hidden, seed, |row| data.extend_from_slice(row))?;
        Ok(Tensor::from_vec(vec![tokens, hidden], data)?)
    }

    /// The one row loop of [`TokenProfile::generate`]'s tensor: per
    /// token, in order, draws the token's scale and hands `row` its
    /// distribution and the RNG, which `row` draws the token's values
    /// from.
    ///
    /// # Errors
    ///
    /// Returns a tensor error for zero dimensions, before any row.
    fn for_each_row(
        &self,
        tokens: usize,
        hidden: usize,
        seed: u64,
        mut row: impl FnMut(&Laplace, &mut DriftRng),
    ) -> Result<()> {
        Shape::new(vec![tokens, hidden])?;
        let mut rng = seeded(derive_seed(seed, "token-profile"));
        for _ in 0..tokens {
            let b = self.sample_scale(&mut rng);
            let lap = Laplace::new(0.0, b).map_err(NnError::Tensor)?;
            row(&lap, &mut rng);
        }
        Ok(())
    }

    /// Streams the rows of [`TokenProfile::generate`]'s tensor: calls
    /// `row` once per token, in order, with that token's `hidden` values,
    /// refilling one buffer for every token.
    ///
    /// # Errors
    ///
    /// Returns a tensor error for zero dimensions, before any row.
    fn for_each_token(
        &self,
        tokens: usize,
        hidden: usize,
        seed: u64,
        mut row: impl FnMut(&[f32]),
    ) -> Result<()> {
        let mut buffer = Vec::new();
        self.for_each_row(tokens, hidden, seed, |lap, rng| {
            buffer.resize(hidden, 0.0);
            lap.fill_f32(rng, &mut buffer);
            row(&buffer)
        })
    }

    /// The precision selector's view of [`TokenProfile::generate`]'s
    /// tensor at token granularity: the whole-tensor and per-token
    /// statistics, gathered row by row without materialising the
    /// tensor. [`StreamStats::select`] on the
    /// result takes the decisions
    /// [`drift_quant::policy::run_policy`] takes on the tensor under
    /// `SubTensorScheme::token(hidden)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TokenProfile::generate`].
    pub fn token_stats(&self, tokens: usize, hidden: usize, seed: u64) -> Result<StreamStats> {
        let mut stats = StreamStats::new();
        self.for_each_token(tokens, hidden, seed, |row| stats.push_subtensor(row))?;
        Ok(stats)
    }

    /// The INT8 [`Selection`] `policy` makes of [`TokenProfile::generate`]'s
    /// tensor at token granularity: equal to
    /// `token_stats(..)?.select(Precision::INT8, policy)`, but decided
    /// from each token's keystream words without computing its values.
    ///
    /// [`Laplace::abs_bracket`] gives every token's exact `max|Y|`, hence
    /// the exact tensor scale and Eq. 5 choice, and an interval around
    /// its `Σ|Y|`; [`DriftPolicy::decide_bounded`] decides wherever the
    /// interval's mean range does not straddle δ. If any token has no
    /// bracket or straddles, the whole job takes the exact path,
    /// [`TokenProfile::token_stats`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`TokenProfile::generate`].
    pub fn select(
        &self,
        tokens: usize,
        hidden: usize,
        seed: u64,
        policy: &DriftPolicy,
    ) -> Result<Selection> {
        match self.certified_selection(tokens, hidden, seed, policy)? {
            Some(selection) => Ok(selection),
            None => Ok(self
                .token_stats(tokens, hidden, seed)?
                .select(Precision::INT8, policy)),
        }
    }

    /// [`TokenProfile::select`]'s answer where every token's bracket
    /// decides it, `None` where the exact path must.
    fn certified_selection(
        &self,
        tokens: usize,
        hidden: usize,
        seed: u64,
        policy: &DriftPolicy,
    ) -> Result<Option<Selection>> {
        let mut rows = Vec::new();
        self.for_each_row(tokens, hidden, seed, |lap, rng| {
            rows.push(lap.abs_bracket(rng, hidden));
        })?;
        let Some(rows) = rows.into_iter().collect::<Option<Vec<_>>>() else {
            return Ok(None);
        };
        // The whole-tensor max|X|, folded as `AbsStats` folds it.
        let abs_max = rows.iter().map(|row| row.abs_max).fold(0.0, f64::max);
        Ok(Selection::from_views(
            abs_max,
            Precision::INT8,
            &rows,
            |params, row| {
                let n = row.count as f64;
                let decision =
                    policy.decide_bounded(params, row.abs_max, row.sum_lo / n, row.sum_hi / n)?;
                Some((row.count as usize, decision))
            },
        ))
    }

    /// Generates a `[tokens, hidden]` activation tensor carrying a
    /// class signal: every token is `Laplace(0, scale_t)` noise plus
    /// `amplitude · scale_t` times a class-specific unit template, so
    /// the class information rides on *every* token proportionally to
    /// its scale — after layer normalisation, small tokens carry it as
    /// strongly as large ones. This mirrors real data, where logits
    /// have real margins and a method that wipes small tokens loses
    /// decision-relevant content.
    ///
    /// Templates depend only on `(class, hidden)`, so all inputs of a
    /// class share their signal direction.
    ///
    /// # Errors
    ///
    /// Returns a tensor error for zero dimensions.
    pub fn generate_classified(
        &self,
        tokens: usize,
        hidden: usize,
        class: usize,
        amplitude: f64,
        seed: u64,
    ) -> Result<Tensor> {
        let template = class_template(class, hidden);
        let mut rng = seeded(derive_seed(seed, "classified-tokens"));
        let gauss = drift_tensor::dist::Gaussian::new(0.0, 1.0).expect("unit sigma");
        let mut data = Vec::with_capacity(tokens * hidden);
        for _ in 0..tokens {
            let b = self.sample_scale(&mut rng);
            let lap = Laplace::new(0.0, b).map_err(NnError::Tensor)?;
            // Per-token jitter around the class direction: tokens are
            // different words carrying the same meaning, so their signal
            // directions agree on average but differ individually —
            // which also decorrelates quantization rounding across
            // tokens, as it is in real data.
            let jitter: Vec<f64> = gauss.sample_vec(&mut rng, hidden);
            let jnorm = jitter.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-9);
            for (t, j) in template.iter().zip(&jitter) {
                let noise = lap.sample(&mut rng);
                let dir = t + 0.6 * j / jnorm;
                data.push((noise + amplitude * b * dir * (hidden as f64).sqrt()) as f32);
            }
        }
        Ok(Tensor::from_vec(vec![tokens, hidden], data)?)
    }

    /// Samples the `(abs_max, mean_abs)` statistics of one token of
    /// width `k` without materialising its values.
    ///
    /// For `Y ~ Laplace(0, b)`, `|Y| ~ Exp(1/b)`; the max of `k` i.i.d.
    /// exponentials is `b·(ln k + G)` with `G` standard Gumbel, and the
    /// sample mean of `|Y|` concentrates around `b` with relative
    /// deviation `1/√k`.
    pub fn sample_row_stats(&self, k: usize, rng: &mut DriftRng) -> (f64, f64) {
        let b = self.sample_scale(rng);
        let u: f64 = rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12);
        let gumbel = -(-u.ln()).ln();
        let abs_max = (b * ((k as f64).ln() + gumbel)).max(b * 0.5);
        let noise = drift_tensor::dist::Gaussian::new(0.0, 1.0 / (k as f64).sqrt())
            .expect("positive sigma");
        let mean_abs = (b * (1.0 + noise.sample(rng))).clamp(b * 0.1, abs_max);
        (abs_max, mean_abs)
    }

    /// Per-row statistics for an `m × k` activation matrix, as
    /// [`SummaryStats`] realising the sampled `(abs_max, mean_abs)`
    /// exactly (see [`stats_with`]).
    pub fn row_stats(&self, m: usize, k: usize, seed: u64) -> Vec<SummaryStats> {
        let mut rng = seeded(derive_seed(seed, "row-stats"));
        (0..m)
            .map(|_| {
                let (abs_max, mean_abs) = self.sample_row_stats(k, &mut rng);
                stats_with(abs_max, mean_abs)
            })
            .collect()
    }
}

/// The deterministic unit template vector of a class (shared between
/// [`TokenProfile::generate_classified`] and matched classifier heads:
/// a trained classifier reads exactly the class directions the data
/// carries).
pub fn class_template(class: usize, hidden: usize) -> Vec<f64> {
    let mut trng = seeded(derive_seed(0x0C1A_55E5, &format!("class-{class}-{hidden}")));
    let gauss = drift_tensor::dist::Gaussian::new(0.0, 1.0).expect("unit sigma");
    let raw: Vec<f64> = gauss.sample_vec(&mut trng, hidden);
    let norm = raw.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-9);
    raw.into_iter().map(|v| v / norm).collect()
}

/// Builds a [`SummaryStats`] whose `abs_max()` and `mean_abs()` equal
/// the given targets exactly (requires `0 < mean_abs <= abs_max`), by
/// pushing a small symmetric multiset: one `±abs_max` pair plus `n-1`
/// pairs at the value that lands the mean.
///
/// # Panics
///
/// Panics when `mean_abs <= 0`, `abs_max <= 0`, or
/// `mean_abs > abs_max` — these are generator bugs, not runtime
/// conditions.
pub fn stats_with(abs_max: f64, mean_abs: f64) -> SummaryStats {
    assert!(
        abs_max > 0.0 && mean_abs > 0.0 && mean_abs <= abs_max,
        "invalid stats targets: abs_max={abs_max}, mean_abs={mean_abs}"
    );
    // Choose n so the filler value is non-negative:
    // (abs_max + (n-1)·x) / n = mean_abs  ⇒  x = (n·mean_abs - abs_max)/(n-1).
    let n = ((abs_max / mean_abs).ceil() as usize + 1).max(2);
    let x = (n as f64 * mean_abs - abs_max) / (n as f64 - 1.0);
    let mut stats = SummaryStats::new();
    stats.push(abs_max as f32);
    stats.push(-(abs_max as f32));
    for _ in 0..n - 1 {
        stats.push(x as f32);
        stats.push(-(x as f32));
    }
    stats
}

/// Per-row statistics for a CNN layer's im2col matrix, with *spatial
/// clustering*: the `m` rows are the raster-ordered output positions of
/// an (approximately square) feature map, and one rectangular
/// high-amplitude object region covers `object_fraction` of each edge.
/// This is the structure DRQ's region sensitivity exploits — and the
/// reason DRQ's variable-speed array sees few precision transitions on
/// CNNs (high rows arrive in runs) but many on token-interleaved
/// transformers.
pub fn cnn_row_stats(m: usize, k: usize, seed: u64) -> Vec<SummaryStats> {
    let mut rng = seeded(derive_seed(seed, "cnn-rows"));
    let width = (m as f64).sqrt().ceil() as usize;
    let object_fraction = 0.4;
    let span = ((width as f64 * object_fraction) as usize).max(1);
    let y0 = if width > span {
        rng.gen_range(0..width - span)
    } else {
        0
    };
    let x0 = if width > span {
        rng.gen_range(0..width - span)
    } else {
        0
    };
    let background = TokenProfile {
        base_scale: 0.08,
        scale_sigma: 0.45,
        outlier_fraction: 0.0,
        outlier_gain: 1.0,
    };
    let object = TokenProfile {
        base_scale: 0.6,
        scale_sigma: 0.3,
        outlier_fraction: 0.0,
        outlier_gain: 1.0,
    };
    (0..m)
        .map(|row| {
            let (y, x) = (row / width, row % width);
            let inside = y >= y0 && y < y0 + span && x >= x0 && x < x0 + span;
            let profile = if inside { &object } else { &background };
            let (abs_max, mean_abs) = profile.sample_row_stats(k, &mut rng);
            stats_with(abs_max, mean_abs)
        })
        .collect()
}

/// Synthetic image generator for CNN inputs: a low-amplitude Laplace
/// background with one high-amplitude object region — the structure
/// DRQ's region sensitivity assumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageProfile {
    /// Background Laplace scale.
    pub background_scale: f64,
    /// Object-region Laplace scale.
    pub object_scale: f64,
    /// Object size as a fraction of each spatial edge.
    pub object_fraction: f64,
}

impl ImageProfile {
    /// A natural-image-like default: the object is ~8× the background
    /// amplitude and covers ~40% of each edge.
    pub fn natural() -> Self {
        ImageProfile {
            background_scale: 0.08,
            object_scale: 0.6,
            object_fraction: 0.4,
        }
    }

    /// Generates a `[channels, h, w]` image.
    ///
    /// # Errors
    ///
    /// Returns a tensor error for zero dimensions.
    pub fn generate(&self, channels: usize, h: usize, w: usize, seed: u64) -> Result<Tensor> {
        let mut rng = seeded(derive_seed(seed, "image-profile"));
        let bg = Laplace::new(0.0, self.background_scale).map_err(NnError::Tensor)?;
        let obj = Laplace::new(0.0, self.object_scale).map_err(NnError::Tensor)?;
        let oh = ((h as f64 * self.object_fraction) as usize).max(1);
        let ow = ((w as f64 * self.object_fraction) as usize).max(1);
        let oy = rng.gen_range(0..=h - oh.min(h));
        let ox = rng.gen_range(0..=w - ow.min(w));
        let mut data = Vec::with_capacity(channels * h * w);
        for _ in 0..channels {
            for y in 0..h {
                for x in 0..w {
                    let inside = y >= oy && y < oy + oh && x >= ox && x < ox + ow;
                    let v = if inside {
                        obj.sample(&mut rng)
                    } else {
                        bg.sample(&mut rng)
                    };
                    data.push(v as f32);
                }
            }
        }
        Ok(Tensor::from_vec(vec![channels, h, w], data)?)
    }
}

/// A Gaussian weight matrix `[rows, cols]` with Xavier-style standard
/// deviation `sqrt(2 / (rows + cols))`.
///
/// # Errors
///
/// Returns a tensor error for zero dimensions.
pub fn xavier_weights(rows: usize, cols: usize, seed: u64) -> Result<Tensor> {
    let std = (2.0 / (rows + cols) as f64).sqrt();
    let gauss = drift_tensor::dist::Gaussian::new(0.0, std).map_err(NnError::Tensor)?;
    let mut rng = seeded(derive_seed(seed, "xavier"));
    let data = gauss.sample_f32(&mut rng, rows * cols);
    Ok(Tensor::from_vec(vec![rows, cols], data)?)
}

/// Per-column weight statistics for a `k × n` weight matrix whose
/// columns (output channels) have log-normally dispersed scales —
/// driving the static per-sub-tensor weight precision profile.
pub fn weight_column_stats(n: usize, k: usize, sigma: f64, seed: u64) -> Vec<SummaryStats> {
    let mut rng = seeded(derive_seed(seed, "weight-cols"));
    let profile = TokenProfile {
        base_scale: 0.05,
        scale_sigma: sigma,
        outlier_fraction: 0.0,
        outlier_gain: 1.0,
    };
    (0..n)
        .map(|_| {
            let (abs_max, mean_abs) = profile.sample_row_stats(k, &mut rng);
            stats_with(abs_max, mean_abs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drift_quant::linear::QuantParams;
    use drift_tensor::subtensor::SubTensorScheme;

    #[test]
    fn stats_with_realises_targets_exactly() {
        for (a, m) in [(1.0, 0.5), (10.0, 0.3), (0.02, 0.02), (5.0, 0.01)] {
            let s = stats_with(a, m);
            assert!((s.abs_max() - a).abs() < 1e-6, "abs_max for ({a}, {m})");
            assert!(
                (s.mean_abs() - m).abs() / m < 1e-5,
                "mean_abs for ({a}, {m}): {}",
                s.mean_abs()
            );
            assert!(s.mean().abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "invalid stats targets")]
    fn stats_with_rejects_mean_above_max() {
        let _ = stats_with(1.0, 2.0);
    }

    #[test]
    fn token_tensor_has_dispersed_scales() {
        let t = TokenProfile::bert().generate(64, 128, 42).unwrap();
        let views = SubTensorScheme::token(128).partition(t.shape()).unwrap();
        let mut scales: Vec<f64> = views
            .iter()
            .map(|v| SummaryStats::from_slice(t.subtensor(v).unwrap()).mean_abs())
            .collect();
        scales.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let ratio = scales[scales.len() - 1] / scales[0].max(1e-12);
        assert!(ratio > 10.0, "BERT token scale spread only {ratio}");
    }

    #[test]
    fn cnn_profile_is_more_homogeneous_than_llm() {
        let spread = |p: TokenProfile| {
            let t = p.generate(128, 64, 7).unwrap();
            let views = SubTensorScheme::token(64).partition(t.shape()).unwrap();
            let scales: Vec<f64> = views
                .iter()
                .map(|v| SummaryStats::from_slice(t.subtensor(v).unwrap()).mean_abs())
                .collect();
            let max = scales.iter().cloned().fold(0.0f64, f64::max);
            let min = scales.iter().cloned().fold(f64::INFINITY, f64::min);
            max / min.max(1e-12)
        };
        assert!(spread(TokenProfile::llm()) > spread(TokenProfile::cnn()));
    }

    #[test]
    fn generated_tokens_are_laplace() {
        let t = TokenProfile::vit().generate(8, 512, 3).unwrap();
        let views = SubTensorScheme::token(512).partition(t.shape()).unwrap();
        for v in views.iter().take(4) {
            let vals: Vec<f64> = t
                .subtensor(v)
                .unwrap()
                .iter()
                .map(|&x| f64::from(x))
                .collect();
            let (_, d) = drift_tensor::dist::laplace_fit_ks(&vals).unwrap();
            assert!(d < 0.1, "KS {d} too large for a Laplace token");
        }
    }

    #[test]
    fn row_stats_scale_with_k() {
        let p = TokenProfile::cnn();
        let narrow = p.row_stats(256, 16, 5);
        let wide = p.row_stats(256, 4096, 5);
        let avg_ratio = |rows: &[SummaryStats]| {
            rows.iter().map(|s| s.abs_max() / s.mean_abs()).sum::<f64>() / rows.len() as f64
        };
        // Wider rows have larger max-to-mean ratios (ln k growth).
        assert!(avg_ratio(&wide) > avg_ratio(&narrow));
    }

    #[test]
    fn image_has_hot_object_region() {
        let img = ImageProfile::natural().generate(3, 32, 32, 9).unwrap();
        let views = SubTensorScheme::region(8, 8)
            .partition(img.shape())
            .unwrap();
        let means: Vec<f64> = views
            .iter()
            .map(|v| SummaryStats::from_slice(img.subtensor(v).unwrap()).mean_abs())
            .collect();
        let max = means.iter().cloned().fold(0.0f64, f64::max);
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min > 3.0,
            "object region not distinguishable: {max} / {min}"
        );
    }

    #[test]
    fn generated_bytes_are_pinned() {
        // FNV-1a over the little-endian bytes of each generated tensor,
        // pinned from the per-value sampler: a changed value shows here
        // even where it flips no precision decision.
        let fnv = |t: &Tensor| {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for byte in t.as_slice().iter().flat_map(|x| x.to_le_bytes()) {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x1000_0000_01b3);
            }
            hash
        };
        let pinned = [
            ("cnn", 0x816a_46a5_7117_e504, 0x445f_ffcd_2a2c_8ea0),
            ("vit", 0xaf17_ae50_44a8_4002, 0x8a38_7543_6c59_482b),
            ("bert", 0xc43c_498d_75f1_6a2d, 0xac1f_92ed_0f67_829e),
            ("llm", 0x750d_d73f_9223_b1d2, 0x9d2f_1d70_f0ec_e279),
        ];
        for (name, wide, odd) in pinned {
            let profile = TokenProfile::by_name(name).unwrap();
            let t = profile.generate(16, 768, 42).unwrap();
            assert_eq!(fnv(&t), wide, "{name} 16 x 768");
            // 257 values per row: one past a bulk chunk, and rows that
            // start mid-way through a keystream refill.
            let t = profile.generate(33, 257, 7).unwrap();
            assert_eq!(fnv(&t), odd, "{name} 33 x 257");
        }
    }

    /// The edge shapes of serve's pinned jobs (1×1 and odd widths) and
    /// rows around and past a keystream refill.
    const SELECT_SHAPES: [(usize, usize); 7] = [
        (1, 1),
        (3, 7),
        (5, 33),
        (17, 129),
        (8, 16),
        (9, 257),
        (12, 768),
    ];

    #[test]
    fn select_equals_the_exact_path() {
        let deltas = [0.0, 0.001, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0];
        let (mut jobs, mut fallbacks) = (0, 0);
        for name in ["cnn", "vit", "bert", "llm"] {
            let profile = TokenProfile::by_name(name).unwrap();
            for (tokens, hidden) in SELECT_SHAPES {
                for seed in 0..6 {
                    let stats = profile.token_stats(tokens, hidden, seed).unwrap();
                    for delta in deltas {
                        let policy = DriftPolicy::new(delta).unwrap();
                        let exact = stats.select(Precision::INT8, &policy);
                        let what = format!("{name} {tokens}x{hidden} seed {seed} delta {delta}");
                        assert_eq!(
                            profile.select(tokens, hidden, seed, &policy).unwrap(),
                            exact,
                            "{what}"
                        );
                        match profile
                            .certified_selection(tokens, hidden, seed, &policy)
                            .unwrap()
                        {
                            Some(certified) => assert_eq!(certified, exact, "{what}"),
                            None => fallbacks += 1,
                        }
                        jobs += 1;
                    }
                }
            }
        }
        println!("{fallbacks} of {jobs} jobs took the exact path");
        assert!(
            fallbacks * 100 <= jobs,
            "{fallbacks} of {jobs} jobs fell back"
        );
    }

    #[test]
    fn a_threshold_at_a_rows_exact_ratio_falls_back_to_the_same_answer() {
        use drift_quant::capability::RepresentationCapability;
        use drift_tensor::stats::AbsStats;
        let (tokens, hidden, seed) = (16, 96, 5);
        for name in ["cnn", "vit", "bert", "llm"] {
            let profile = TokenProfile::by_name(name).unwrap();
            let stats = profile.token_stats(tokens, hidden, seed).unwrap();
            let params = QuantParams::from_abs_max(stats.global().abs_max(), Precision::INT8);
            // Each row's exact statistics, and the bracket the
            // certificate sees for it.
            let mut exact_rows = Vec::new();
            profile
                .for_each_token(tokens, hidden, seed, |values| {
                    exact_rows.push(AbsStats::from_slice(values))
                })
                .unwrap();
            let mut brackets = Vec::new();
            profile
                .for_each_row(tokens, hidden, seed, |lap, rng| {
                    brackets.push(lap.abs_bracket(rng, hidden).unwrap())
                })
                .unwrap();
            for row in [3, 11] {
                // δ exactly at the row's density ratio: the exact mean
                // passes, and the bracket's lower end does not.
                let exact_row = exact_rows[row];
                let choice = DriftPolicy::new(0.0)
                    .unwrap()
                    .range_choice(exact_row.abs_max(), &params)
                    .unwrap();
                let mean = exact_row.mean_abs();
                let delta =
                    RepresentationCapability::of(&choice, &params).density_ratio(2.0 * mean * mean);
                let policy = DriftPolicy::new(delta).unwrap();
                let bracket = brackets[row];
                let n = bracket.count as f64;
                assert_eq!(
                    policy.decide_bounded(
                        &params,
                        bracket.abs_max,
                        bracket.sum_lo / n,
                        bracket.sum_hi / n
                    ),
                    None,
                    "{name} row {row}: the bracket decided at its own threshold"
                );
                let certified = profile.certified_selection(tokens, hidden, seed, &policy);
                assert_eq!(certified.unwrap(), None, "{name} row {row}");
                let exact = stats.select(Precision::INT8, &policy);
                assert!(exact.decisions[row].decision.is_low(), "{name} row {row}");
                let selection = profile.select(tokens, hidden, seed, &policy).unwrap();
                assert_eq!(selection, exact, "{name} row {row}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TokenProfile::bert().generate(8, 16, 1).unwrap();
        let b = TokenProfile::bert().generate(8, 16, 1).unwrap();
        assert_eq!(a, b);
        let c = TokenProfile::bert().generate(8, 16, 2).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn xavier_weights_have_expected_std() {
        let w = xavier_weights(256, 256, 4).unwrap();
        let stats = SummaryStats::from_slice(w.as_slice());
        let expected = (2.0 / 512.0f64).sqrt();
        assert!((stats.std_dev() - expected).abs() / expected < 0.1);
    }

    #[test]
    fn weight_column_stats_count_and_validity() {
        let cols = weight_column_stats(64, 1024, 0.5, 3);
        assert_eq!(cols.len(), 64);
        for c in &cols {
            assert!(c.abs_max() >= c.mean_abs());
            assert!(c.mean_abs() > 0.0);
        }
    }
}
