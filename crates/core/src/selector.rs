//! The Drift dynamic precision selection algorithm (paper Section 3.3).
//!
//! For each sub-tensor `Y` of an initially INT8-quantized tensor (scale
//! `Δ`), the algorithm decides whether `Y` can be re-encoded at low
//! precision, and with which conversion, in two steps:
//!
//! 1. **Range step (Eq. 5).** The low encoding's representation range
//!    must cover the sub-tensor's largest magnitude:
//!
//!    ```text
//!    RR = (2^(hp-1) - 1) / 2^hc · Δ ≥ max(|Y|)
//!    ⇒ hc = ⌊log₂((2^(hp-1) - 1) · Δ / max(|Y|))⌋
//!    ```
//!
//!    With `hc` fixed, Eq. 2 fixes `lc = hp - lp - hc`: the conversion
//!    choice is fully determined.
//!
//! 2. **Density step (Eq. 6).** The encoding's step must be fine enough
//!    relative to the sub-tensor's variance. Under the zero-mean Laplace
//!    model, `var(Y) = 2 · avg(|Y|)²` (Eq. 4 + MLE), so the test is
//!
//!    ```text
//!    var(Y) / RD = 2 · avg(|Y|)² / (2^lc · Δ) ≥ δ
//!    ```
//!
//!    Sub-tensors failing it keep the full 8-bit encoding.
//!
//! Everything the algorithm needs — `max(|Y|)` and `avg(|Y|)` — is
//! exactly what the accelerator's pooling unit already computes, which
//! is why the paper claims zero additional compute/area overhead.

use crate::{CoreError, Result};
use drift_obs::Recorder;
use drift_quant::capability::RepresentationCapability;
use drift_quant::convert::ConversionChoice;
use drift_quant::linear::QuantParams;
use drift_quant::policy::{Decision, PrecisionPolicy, SubTensorDecision, TensorContext};
use drift_quant::precision::Precision;
use drift_tensor::stats::AbsStats;

/// The Drift precision policy.
///
/// # Example
///
/// ```rust
/// use drift_core::selector::DriftPolicy;
/// use drift_quant::policy::run_policy;
/// use drift_quant::Precision;
/// use drift_tensor::subtensor::SubTensorScheme;
/// use drift_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Tokens with very different scales: Drift adapts hc per token
/// // instead of wiping small tokens out.
/// let t = Tensor::from_fn(vec![4, 32], |i| {
///     let scale = [2.0f32, 0.5, 0.1, 0.01][i / 32];
///     scale * (((i * 7) % 11) as f32 - 5.0) / 5.0
/// })?;
/// let policy = DriftPolicy::new(8.0)?;
/// let run = run_policy(&t, &SubTensorScheme::token(32), Precision::INT8, &policy)?;
/// assert!(run.low_fraction() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftPolicy {
    delta: f64,
    lp: Precision,
}

impl DriftPolicy {
    /// Creates a Drift policy with density threshold `delta` (δ of
    /// Eq. 6) targeting the paper's 4-bit low precision.
    ///
    /// Use [`crate::calibrate`] to pick δ Hessian-aware; typical values
    /// land between 1 and 100 depending on the tensor scale regime.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless `delta` is finite
    /// and non-negative.
    pub fn new(delta: f64) -> Result<Self> {
        if !delta.is_finite() || delta < 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "delta",
                detail: format!("must be finite and >= 0, got {delta}"),
            });
        }
        Ok(DriftPolicy {
            delta,
            lp: Precision::INT4,
        })
    }

    /// Creates a policy targeting a non-default low precision (the 3/5-bit
    /// flexibility of paper Section 5.3).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DriftPolicy::new`].
    pub fn with_low_precision(delta: f64, lp: Precision) -> Result<Self> {
        let mut p = DriftPolicy::new(delta)?;
        p.lp = lp;
        Ok(p)
    }

    /// The density threshold δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Step 1 (Eq. 5): the range-optimal conversion for a sub-tensor
    /// with largest magnitude `abs_max`, as a fully determined
    /// [`ConversionChoice`]. Returns `None` when `lp >= hp` (nothing to
    /// convert to).
    ///
    /// All-zero sub-tensors (`abs_max == 0`) clip maximally from the
    /// high end: any encoding represents them exactly.
    pub fn range_choice(&self, abs_max: f64, params: &QuantParams) -> Option<ConversionChoice> {
        let hp = params.precision;
        if self.lp.bits() >= hp.bits() {
            return None;
        }
        let free = hp.bits() - self.lp.bits();
        let hc = if abs_max <= 0.0 || params.scale == 0.0 {
            free
        } else {
            let headroom = f64::from(hp.q_max()) * params.scale / abs_max;
            if headroom < 1.0 {
                0
            } else {
                (headroom.log2().floor() as i64).clamp(0, i64::from(free)) as u8
            }
        };
        let lc = free - hc;
        Some(
            ConversionChoice::new(hp, self.lp, hc, lc)
                .expect("hc clamped to [0, hp-lp] satisfies Eq. 2"),
        )
    }

    /// Step 2 (Eq. 6): whether `choice` is dense enough for a sub-tensor
    /// with mean magnitude `mean_abs`, using the Laplace-model variance
    /// `2 · avg(|Y|)²`.
    pub fn density_ok(
        &self,
        choice: &ConversionChoice,
        mean_abs: f64,
        params: &QuantParams,
    ) -> bool {
        let capability = RepresentationCapability::of(choice, params);
        let laplace_variance = 2.0 * mean_abs * mean_abs;
        capability.density_ratio(laplace_variance) >= self.delta
    }

    /// The decision [`PrecisionPolicy::decide`] takes for a sub-tensor
    /// whose `max|Y|` is `abs_max` and whose `avg|Y|` lies somewhere in
    /// `[mean_lo, mean_hi]` (`0 ≤ mean_lo ≤ mean_hi`), under `params`;
    /// `None` when the interval straddles the density threshold.
    ///
    /// The mean enters the decision only through [`density_ok`](Self::density_ok),
    /// which is monotone in it: for `m ≥ 0`, `2·m·m` is a product of
    /// nondecreasing nonnegative factors, dividing by the positive
    /// density (or taking `+inf` for a zero one) and comparing against δ
    /// are monotone too, and each step rounds correctly, so rounding
    /// keeps the order. When both ends agree, so does every mean between
    /// them.
    pub fn decide_bounded(
        &self,
        params: &QuantParams,
        abs_max: f64,
        mean_lo: f64,
        mean_hi: f64,
    ) -> Option<Decision> {
        let Some(choice) = self.range_choice(abs_max, params) else {
            return Some(Decision::Keep);
        };
        // All-zero sub-tensors are exactly representable at any width.
        if abs_max <= 0.0 || params.scale == 0.0 {
            return Some(Decision::Convert(choice));
        }
        let dense = self.density_ok(&choice, mean_lo, params);
        (dense == self.density_ok(&choice, mean_hi, params)).then_some(if dense {
            Decision::Convert(choice)
        } else {
            Decision::Keep
        })
    }
}

/// Records a selector run's per-sub-tensor decisions into `recorder`:
/// `drift_selector_decisions_total{decision=keep|convert}` and, for
/// conversions, the Eq. 5 high-clip distribution
/// `drift_selector_convert_hc_total{hc}`.
///
/// A no-op on a disabled recorder; never changes the decisions.
pub fn record_policy_run(recorder: &Recorder, decisions: &[SubTensorDecision]) {
    if !recorder.is_enabled() {
        return;
    }
    let mut keep = 0u64;
    let mut convert = 0u64;
    // hc ≤ hp − lp ≤ 7 for the INT8 family; one spare slot guards the
    // label table against future wider pairs.
    const HC_LABELS: [&str; 9] = ["0", "1", "2", "3", "4", "5", "6", "7", "8"];
    let mut by_hc = [0u64; HC_LABELS.len()];
    for d in decisions {
        match &d.decision {
            Decision::Keep => keep += 1,
            Decision::Convert(choice) => {
                convert += 1;
                by_hc[usize::from(choice.hc()).min(HC_LABELS.len() - 1)] += 1;
            }
        }
    }
    recorder.counter_add(
        "drift_selector_decisions_total",
        &[("decision", "keep")],
        keep,
    );
    recorder.counter_add(
        "drift_selector_decisions_total",
        &[("decision", "convert")],
        convert,
    );
    for (hc, &n) in by_hc.iter().enumerate() {
        if n > 0 {
            recorder.counter_add(
                "drift_selector_convert_hc_total",
                &[("hc", HC_LABELS[hc])],
                n,
            );
        }
    }
}

impl PrecisionPolicy for DriftPolicy {
    fn name(&self) -> &str {
        "drift"
    }

    fn decide(&self, ctx: &TensorContext, stats: &AbsStats) -> Decision {
        let mean = stats.mean_abs();
        self.decide_bounded(&ctx.params, stats.abs_max(), mean, mean)
            .expect("a one-point interval never straddles the threshold")
    }

    fn low_precision(&self) -> Precision {
        self.lp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drift_quant::policy::run_policy;
    use drift_tensor::subtensor::SubTensorScheme;
    use drift_tensor::Tensor;

    fn ctx(abs_max: f64) -> TensorContext {
        TensorContext {
            global: AbsStats::from_slice([abs_max as f32, -(abs_max as f32)]),
            params: QuantParams::from_abs_max(abs_max, Precision::INT8),
        }
    }

    #[test]
    fn rejects_bad_delta() {
        assert!(DriftPolicy::new(-1.0).is_err());
        assert!(DriftPolicy::new(f64::NAN).is_err());
        assert!(DriftPolicy::new(f64::INFINITY).is_err());
        assert!(DriftPolicy::new(0.0).is_ok());
    }

    #[test]
    fn eq5_wide_range_clips_low_bits() {
        // Fig. 3 row 2: sub-tensor spanning the full range ⇒ hc = 0,
        // lc = 4.
        let p = DriftPolicy::new(0.0).unwrap();
        let params = QuantParams::from_abs_max(1.0, Precision::INT8);
        let choice = p.range_choice(1.0, &params).unwrap();
        assert_eq!(choice.hc(), 0);
        assert_eq!(choice.lc(), 4);
    }

    #[test]
    fn eq5_small_range_clips_high_bits() {
        // A sub-tensor whose max is 1/16 of the tensor max has 4 bits of
        // headroom ⇒ hc = 4, lc = 0.
        let p = DriftPolicy::new(0.0).unwrap();
        let params = QuantParams::from_abs_max(1.0, Precision::INT8);
        let choice = p.range_choice(1.0 / 16.0, &params).unwrap();
        assert_eq!(choice.hc(), 4);
        assert_eq!(choice.lc(), 0);
    }

    #[test]
    fn eq5_intermediate_ranges() {
        let p = DriftPolicy::new(0.0).unwrap();
        let params = QuantParams::from_abs_max(1.0, Precision::INT8);
        // max|Y| = 0.3: headroom = 1/0.3 = 3.33 ⇒ hc = 1.
        let choice = p.range_choice(0.3, &params).unwrap();
        assert_eq!(choice.hc(), 1);
        assert_eq!(choice.lc(), 3);
        // The chosen encoding covers the sub-tensor (Eq. 5's guarantee).
        let rc = RepresentationCapability::of(&choice, &params);
        assert!(rc.covers(0.3));
    }

    #[test]
    fn eq5_range_always_covered() {
        // Property: the range-optimal choice always satisfies Eq. 5, and
        // one more high clip would violate it.
        let p = DriftPolicy::new(0.0).unwrap();
        let params = QuantParams::from_abs_max(2.54, Precision::INT8);
        for abs_max in [2.54, 1.9, 1.0, 0.5, 0.2, 0.04, 0.01] {
            let choice = p.range_choice(abs_max, &params).unwrap();
            let rc = RepresentationCapability::of(&choice, &params);
            assert!(rc.covers(abs_max), "abs_max {abs_max}: range not covered");
            if choice.hc() < 4 {
                // Tightness: hc is the largest clip that still covers
                // (unless capped by lc = 0).
                let tighter = ConversionChoice::new(
                    Precision::INT8,
                    Precision::INT4,
                    choice.hc() + 1,
                    choice.lc() - 1,
                )
                .unwrap();
                let rc2 = RepresentationCapability::of(&tighter, &params);
                assert!(!rc2.covers(abs_max), "abs_max {abs_max}: hc not maximal");
            }
        }
    }

    #[test]
    fn eq6_small_variance_keeps_high() {
        // Fig. 3 row 3: tiny variance fails the density test.
        let policy = DriftPolicy::new(10.0).unwrap();
        let c = ctx(1.0);
        // A sub-tensor with moderate range but tiny mean magnitude.
        let stats = AbsStats::from_slice([0.9f32, -0.001, 0.001, -0.9]);
        // Range forces hc = 0 ⇒ lc = 4 ⇒ RD = 16Δ; var = 2·0.45²≈0.4;
        // ratio = 0.4 / (16/127) ≈ 3.2 < 10 ⇒ keep.
        assert_eq!(policy.decide(&c, &stats), Decision::Keep);
    }

    #[test]
    fn eq6_large_variance_converts() {
        let policy = DriftPolicy::new(1.0).unwrap();
        let c = ctx(1.0);
        let stats = AbsStats::from_slice([0.9f32, -0.8, 0.7, -0.85]);
        assert!(policy.decide(&c, &stats).is_low());
    }

    #[test]
    fn delta_monotonicity() {
        // Raising δ can only move decisions from Convert to Keep.
        let c = ctx(1.0);
        let samples: Vec<AbsStats> = (1..20)
            .map(|i| {
                let scale = i as f32 / 20.0;
                AbsStats::from_slice([scale, -scale * 0.7, scale * 0.3, -scale])
            })
            .collect();
        let mut last_low = usize::MAX;
        for delta in [0.1, 1.0, 10.0, 100.0, 1000.0] {
            let policy = DriftPolicy::new(delta).unwrap();
            let low = samples
                .iter()
                .filter(|s| policy.decide(&c, s).is_low())
                .count();
            assert!(low <= last_low, "delta {delta}: {low} > {last_low}");
            last_low = low;
        }
    }

    #[test]
    fn all_zero_subtensor_converts_maximally() {
        let policy = DriftPolicy::new(1e9).unwrap();
        let c = ctx(1.0);
        let stats = AbsStats::from_slice([0.0f32, 0.0, 0.0]);
        match policy.decide(&c, &stats) {
            Decision::Convert(choice) => assert_eq!(choice.hc(), 4),
            other => panic!("expected conversion, got {other:?}"),
        }
    }

    #[test]
    fn zero_scale_tensor_converts() {
        let policy = DriftPolicy::new(1e9).unwrap();
        let c = TensorContext {
            global: AbsStats::from_slice([0.0f32]),
            params: QuantParams::from_abs_max(0.0, Precision::INT8),
        };
        let stats = AbsStats::from_slice([0.0f32]);
        assert!(policy.decide(&c, &stats).is_low());
    }

    #[test]
    fn keeps_when_lp_not_lower() {
        let policy = DriftPolicy::with_low_precision(1.0, Precision::INT8).unwrap();
        let c = ctx(1.0);
        let stats = AbsStats::from_slice([0.5f32, -0.5]);
        assert_eq!(policy.decide(&c, &stats), Decision::Keep);
    }

    #[test]
    fn flexible_precisions_supported() {
        // 8 → 3-bit leaves 5 bits to split; 8 → 5-bit leaves 3.
        for (lp, free) in [(Precision::INT3, 5u8), (Precision::INT5, 3u8)] {
            let policy = DriftPolicy::with_low_precision(0.0, lp).unwrap();
            let params = QuantParams::from_abs_max(1.0, Precision::INT8);
            let choice = policy.range_choice(1.0, &params).unwrap();
            assert_eq!(choice.lp(), lp);
            assert_eq!(choice.hc() + choice.lc(), free);
        }
    }

    #[test]
    fn policy_run_metrics_match_decisions() {
        let policy = DriftPolicy::new(1.0).unwrap();
        let t = Tensor::from_fn(vec![4, 32], |i| {
            let scale = [2.0f32, 0.5, 0.1, 0.01][i / 32];
            scale * (((i * 7) % 11) as f32 - 5.0) / 5.0
        })
        .unwrap();
        let run = run_policy(&t, &SubTensorScheme::token(32), Precision::INT8, &policy).unwrap();
        let rec = Recorder::enabled();
        record_policy_run(&rec, &run.decisions);
        let snap = rec.registry().unwrap().snapshot();
        assert_eq!(
            snap.counter_sum("drift_selector_decisions_total"),
            run.decisions.len() as u64
        );
        assert_eq!(
            snap.counter_sum("drift_selector_convert_hc_total"),
            run.low_subtensors() as u64
        );
        // A disabled recorder records nothing and does not panic.
        record_policy_run(&Recorder::disabled(), &run.decisions);
    }

    #[test]
    fn bounded_decision_is_the_point_decision_or_none() {
        // Means on a grid around each choice's threshold: every interval
        // whose ends decide alike decides as every mean inside it does,
        // and one that straddles the threshold is refused.
        let params = QuantParams::from_abs_max(2.0, Precision::INT8);
        for delta in [0.0, 0.01, 0.3, 3.0] {
            let policy = DriftPolicy::new(delta).unwrap();
            for abs_max in [0.0, 0.01, 0.2, 1.3, 2.0] {
                let means: Vec<f64> = (0..=60).map(|i| abs_max * i as f64 / 60.0).collect();
                let point = |m: f64| policy.decide_bounded(&params, abs_max, m, m).unwrap();
                for (i, &lo) in means.iter().enumerate() {
                    for &hi in &means[i..] {
                        let inside: Vec<Decision> = means
                            .iter()
                            .filter(|&&m| lo <= m && m <= hi)
                            .map(|&m| point(m))
                            .collect();
                        let same = inside.windows(2).all(|w| w[0] == w[1]);
                        match policy.decide_bounded(&params, abs_max, lo, hi) {
                            Some(d) => assert!(same && inside[0] == d, "[{lo}, {hi}]"),
                            None => assert_ne!(point(lo), point(hi), "[{lo}, {hi}]"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn small_tokens_survive_drift_but_not_naive_low_clip() {
        // The motivating contrast with DRQ: a token at 1/100 of the
        // global scale keeps fidelity under Drift because hc > 0
        // preserves density.
        let policy = DriftPolicy::new(1.0).unwrap();
        let t = Tensor::from_fn(vec![2, 64], |i| {
            if i < 64 {
                // Large-scale token.
                (((i * 13) % 17) as f32 - 8.0) / 8.0
            } else {
                // Small-scale token at 1% amplitude.
                0.01 * (((i * 13) % 17) as f32 - 8.0) / 8.0
            }
        })
        .unwrap();
        let run = run_policy(&t, &SubTensorScheme::token(64), Precision::INT8, &policy).unwrap();
        // The small token must not be wiped to zeros.
        let small = &run.effective.as_slice()[64..];
        assert!(small.iter().any(|&v| v != 0.0), "small token wiped out");
    }
}
