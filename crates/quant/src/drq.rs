//! The DRQ baseline: dynamic region-based quantization (Song et al.,
//! ISCA 2020), as characterised in Drift's Sections 2.2 and 5.2.
//!
//! DRQ observes that in image classification, a sparse set of *sensitive
//! regions* of the input feature map (roughly, the object of interest)
//! governs model accuracy. It runs a mean filter over the activation
//! tensor, marks regions whose mean magnitude exceeds a threshold as
//! sensitive, and computes those at 8-bit while all other regions drop to
//! 4-bit.
//!
//! The crucial difference from Drift: DRQ's low-precision encoding always
//! keeps the *high-order* bits (range-preserving, `hc = 0`), and its
//! sensitivity criterion is the region's mean magnitude *relative to the
//! whole tensor*. On CNN feature maps, whose regions share a common
//! scale, this works well. On transformer activations — where per-token
//! scales differ by orders of magnitude (paper Figure 1) — small-scale
//! tokens are classified "insensitive" precisely *because* their
//! magnitudes are small, then encoded with a step of `2^lc · Δ` sized by
//! the *global* maximum. Every value in such a token rounds to zero, and
//! accuracy collapses (the >12% drop of paper Section 5.2). Drift avoids
//! this by clipping from the *high* end for small-range sub-tensors.

use crate::convert::ConversionChoice;
use crate::policy::{Decision, PrecisionPolicy, TensorContext};
use crate::precision::Precision;
use crate::{QuantError, Result};
use drift_tensor::stats::AbsStats;

/// The DRQ precision policy.
///
/// # Example
///
/// ```rust
/// use drift_quant::drq::DrqPolicy;
/// use drift_quant::policy::{run_policy, PrecisionPolicy};
/// use drift_quant::Precision;
/// use drift_tensor::subtensor::SubTensorScheme;
/// use drift_tensor::Tensor;
///
/// # fn main() -> Result<(), drift_quant::QuantError> {
/// let drq = DrqPolicy::new(1.0)?;
/// // One hot 4x4 region (top-left); the other three regions are cold.
/// let t = Tensor::from_fn(vec![8, 8], |i| {
///     if i / 8 < 4 && i % 8 < 4 { 1.0 } else { 0.01 }
/// })
/// .unwrap();
/// let run = run_policy(&t, &SubTensorScheme::region(4, 4), Precision::INT8, &drq)?;
/// // The high-magnitude region stays 8-bit; the rest drop to 4-bit.
/// assert!(run.low_fraction() > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrqPolicy {
    /// Sensitivity threshold α: a region is sensitive (kept at 8-bit)
    /// when its mean magnitude exceeds `α · avg(|X|)` of the whole
    /// tensor.
    alpha: f64,
    lp: Precision,
}

impl DrqPolicy {
    /// Creates a DRQ policy with sensitivity threshold `alpha`.
    ///
    /// The DRQ paper tunes this per network; `1.0` (a region is
    /// sensitive when it is above-average) is the canonical setting used
    /// in Drift's comparison.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidParameter`] unless `alpha` is finite
    /// and non-negative.
    pub fn new(alpha: f64) -> Result<Self> {
        if !alpha.is_finite() || alpha < 0.0 {
            return Err(QuantError::InvalidParameter {
                name: "alpha",
                detail: format!("must be finite and >= 0, got {alpha}"),
            });
        }
        Ok(DrqPolicy {
            alpha,
            lp: Precision::INT4,
        })
    }

    /// Creates a DRQ policy with a non-default low precision (for
    /// ablations).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DrqPolicy::new`].
    pub fn with_low_precision(alpha: f64, lp: Precision) -> Result<Self> {
        let mut p = DrqPolicy::new(alpha)?;
        p.lp = lp;
        Ok(p)
    }

    /// The sensitivity threshold α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl PrecisionPolicy for DrqPolicy {
    fn name(&self) -> &str {
        "drq"
    }

    fn decide(&self, ctx: &TensorContext, stats: &AbsStats) -> Decision {
        let hp = ctx.params.precision;
        if self.lp.bits() >= hp.bits() {
            return Decision::Keep;
        }
        // Mean-filter sensitivity test: sensitive regions stay high.
        if stats.mean_abs() >= self.alpha * ctx.global.mean_abs() {
            return Decision::Keep;
        }
        // Insensitive regions: 4-bit keeping the high-order bits
        // (hc = 0), exactly DRQ's range-preserving encoding.
        let lc = hp.bits() - self.lp.bits();
        let choice =
            ConversionChoice::new(hp, self.lp, 0, lc).expect("hc=0 split always satisfies Eq. 2");
        Decision::Convert(choice)
    }

    fn low_precision(&self) -> Precision {
        self.lp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::QuantParams;

    fn ctx_with(global: &[f32]) -> TensorContext {
        let stats = AbsStats::from_slice(global);
        TensorContext {
            global: stats,
            params: QuantParams::from_abs_max(stats.abs_max(), Precision::INT8),
        }
    }

    #[test]
    fn rejects_bad_alpha() {
        assert!(DrqPolicy::new(-0.1).is_err());
        assert!(DrqPolicy::new(f64::NAN).is_err());
        assert!(DrqPolicy::new(0.0).is_ok());
    }

    #[test]
    fn sensitive_region_stays_high() {
        let drq = DrqPolicy::new(1.0).unwrap();
        let ctx = ctx_with(&[1.0, 0.1, 0.1, 0.1]);
        let hot = AbsStats::from_slice([1.0f32, 0.9]);
        assert_eq!(drq.decide(&ctx, &hot), Decision::Keep);
    }

    #[test]
    fn insensitive_region_goes_low_with_hc0() {
        let drq = DrqPolicy::new(1.0).unwrap();
        let ctx = ctx_with(&[1.0, 0.1, 0.1, 0.1]);
        let cold = AbsStats::from_slice([0.05f32, 0.02]);
        match drq.decide(&ctx, &cold) {
            Decision::Convert(choice) => {
                assert_eq!(choice.hc(), 0);
                assert_eq!(choice.lc(), 4);
                assert_eq!(choice.lp(), Precision::INT4);
            }
            other => panic!("expected conversion, got {other:?}"),
        }
    }

    #[test]
    fn alpha_zero_keeps_everything_high() {
        // With alpha = 0 every region's mean >= 0, so all stay 8-bit.
        let drq = DrqPolicy::new(0.0).unwrap();
        let ctx = ctx_with(&[1.0, 0.1]);
        let cold = AbsStats::from_slice([0.0001f32]);
        assert_eq!(drq.decide(&ctx, &cold), Decision::Keep);
    }

    #[test]
    fn the_transformer_failure_mode() {
        // A small-scale token in a tensor with a large global maximum:
        // DRQ deems it insensitive and encodes it with step 16Δ, which
        // zeroes every value. This is the mechanism behind the >12%
        // accuracy drop on ViT/BERT in paper Section 5.2.
        let drq = DrqPolicy::new(1.0).unwrap();
        let ctx = ctx_with(&[8.0, -8.0, 0.01, -0.01]);
        let small_token = AbsStats::from_slice([0.01f32, -0.008, 0.009]);
        let decision = drq.decide(&ctx, &small_token);
        let Decision::Convert(choice) = decision else {
            panic!("expected conversion");
        };
        // The token's largest code is round(0.01/Δ) with Δ = 8/127:
        let code = crate::linear::quantize_value(0.01, &ctx.params);
        assert_eq!(choice.apply_value(code), 0, "token is wiped out");
    }

    #[test]
    fn respects_custom_low_precision() {
        let drq = DrqPolicy::with_low_precision(1.0, Precision::INT3).unwrap();
        assert_eq!(drq.low_precision(), Precision::INT3);
        let ctx = ctx_with(&[1.0, 0.1, 0.1, 0.1]);
        let cold = AbsStats::from_slice([0.01f32]);
        match drq.decide(&ctx, &cold) {
            Decision::Convert(choice) => assert_eq!(choice.lp(), Precision::INT3),
            other => panic!("expected conversion, got {other:?}"),
        }
    }

    #[test]
    fn keeps_high_when_lp_not_lower() {
        let drq = DrqPolicy::new(1.0).unwrap();
        let stats = AbsStats::from_slice([0.001f32]);
        let mut ctx = ctx_with(&[1.0, 0.001]);
        ctx.params = QuantParams::from_abs_max(1.0, Precision::INT4);
        assert_eq!(drq.decide(&ctx, &stats), Decision::Keep);
    }
}
