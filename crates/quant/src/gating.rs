//! The Precision Gating baseline (Zhang et al., ICLR 2020), as
//! characterised in Drift's Section 2.2.
//!
//! Precision Gating is a *per-value* dual-precision scheme: every
//! activation is first computed with its most-significant bits only
//! (e.g. 3 of 8); values whose truncated magnitude crosses a learned
//! gate threshold are recomputed at full precision. The scheme needs
//! model retraining to learn the gates, and per-value bookkeeping —
//! the "intolerable hardware costs" Drift cites when rejecting it.
//!
//! We model the *inference-time* behaviour: a per-value policy (use it
//! with [`drift_tensor::subtensor::SubTensorScheme::PerValue`]) that
//! keeps a value at high precision when its magnitude crosses the gate,
//! and truncates to the MSBs otherwise. The retraining step is
//! represented by an accuracy penalty knob in the evaluation harness,
//! not here.

use crate::convert::ConversionChoice;
use crate::policy::{Decision, PrecisionPolicy, TensorContext};
use crate::precision::Precision;
use crate::{QuantError, Result};
use drift_tensor::stats::AbsStats;

/// The Precision Gating policy.
///
/// # Example
///
/// ```rust
/// use drift_quant::gating::PrecisionGatingPolicy;
/// use drift_quant::policy::{run_policy, PrecisionPolicy};
/// use drift_quant::Precision;
/// use drift_tensor::subtensor::SubTensorScheme;
/// use drift_tensor::Tensor;
///
/// # fn main() -> Result<(), drift_quant::QuantError> {
/// let pg = PrecisionGatingPolicy::new(0.25, Precision::INT5)?;
/// let t = Tensor::from_fn(vec![4, 4], |i| if i % 4 == 0 { 0.9 } else { 0.05 }).unwrap();
/// let run = run_policy(&t, &SubTensorScheme::PerValue, Precision::INT8, &pg)?;
/// // Large values gate up to high precision; small ones stay truncated.
/// assert!(run.low_fraction() > 0.5 && run.low_fraction() < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionGatingPolicy {
    /// Gate threshold θ as a fraction of the tensor's absolute maximum:
    /// values with `|v| >= θ · max(|X|)` are recomputed at high
    /// precision.
    theta: f64,
    lp: Precision,
}

impl PrecisionGatingPolicy {
    /// Creates a gating policy with threshold fraction `theta` and low
    /// precision `lp` (the original paper uses 3-of-8 or 5-of-8 bits).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidParameter`] unless `0 <= theta <= 1`.
    pub fn new(theta: f64, lp: Precision) -> Result<Self> {
        if !theta.is_finite() || !(0.0..=1.0).contains(&theta) {
            return Err(QuantError::InvalidParameter {
                name: "theta",
                detail: format!("must be in [0, 1], got {theta}"),
            });
        }
        Ok(PrecisionGatingPolicy { theta, lp })
    }

    /// The gate threshold fraction θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

impl PrecisionPolicy for PrecisionGatingPolicy {
    fn name(&self) -> &str {
        "precision-gating"
    }

    fn decide(&self, ctx: &TensorContext, stats: &AbsStats) -> Decision {
        let hp = ctx.params.precision;
        if self.lp.bits() >= hp.bits() {
            return Decision::Keep;
        }
        // Gate: magnitudes crossing θ·max(|X|) are recomputed in full.
        if stats.abs_max() >= self.theta * ctx.global.abs_max() {
            return Decision::Keep;
        }
        // Otherwise keep the MSBs only (hc = 0, truncate low bits).
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

    fn ctx() -> TensorContext {
        let global = AbsStats::from_slice([1.0f32, -0.5, 0.25, -0.125]);
        TensorContext {
            global,
            params: QuantParams::from_abs_max(global.abs_max(), Precision::INT8),
        }
    }

    #[test]
    fn validates_theta() {
        assert!(PrecisionGatingPolicy::new(-0.1, Precision::INT3).is_err());
        assert!(PrecisionGatingPolicy::new(1.5, Precision::INT3).is_err());
        assert!(PrecisionGatingPolicy::new(f64::NAN, Precision::INT3).is_err());
        assert!(PrecisionGatingPolicy::new(0.5, Precision::INT3).is_ok());
    }

    #[test]
    fn large_value_gates_up() {
        let pg = PrecisionGatingPolicy::new(0.5, Precision::INT3).unwrap();
        let big = AbsStats::from_slice([0.9f32]);
        assert_eq!(pg.decide(&ctx(), &big), Decision::Keep);
    }

    #[test]
    fn small_value_truncates_to_msbs() {
        let pg = PrecisionGatingPolicy::new(0.5, Precision::INT3).unwrap();
        let small = AbsStats::from_slice([0.1f32]);
        match pg.decide(&ctx(), &small) {
            Decision::Convert(choice) => {
                assert_eq!(choice.hc(), 0);
                assert_eq!(choice.lc(), 5);
                assert_eq!(choice.lp(), Precision::INT3);
            }
            other => panic!("expected conversion, got {other:?}"),
        }
    }

    #[test]
    fn theta_zero_gates_everything_up() {
        let pg = PrecisionGatingPolicy::new(0.0, Precision::INT3).unwrap();
        let any = AbsStats::from_slice([0.0001f32]);
        assert_eq!(pg.decide(&ctx(), &any), Decision::Keep);
    }

    #[test]
    fn theta_one_truncates_all_but_the_max() {
        let pg = PrecisionGatingPolicy::new(1.0, Precision::INT3).unwrap();
        let below = AbsStats::from_slice([0.99f32]);
        assert!(pg.decide(&ctx(), &below).is_low());
        let exactly = AbsStats::from_slice([1.0f32]);
        assert_eq!(pg.decide(&ctx(), &exactly), Decision::Keep);
    }
}
