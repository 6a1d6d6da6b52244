//! The precision-policy interface between quantization algorithms and the
//! inference engine, plus the static baselines.
//!
//! A [`PrecisionPolicy`] receives, for each sub-tensor, the streaming
//! statistics the accelerator's pooling unit computes (`max|Y|` and
//! `avg|Y|`, as an [`AbsStats`]) and returns a [`Decision`]: keep the initial
//! high-precision encoding, or convert to low precision with a specific
//! [`ConversionChoice`]. The Drift selection algorithm (in `drift-core`),
//! the DRQ baseline ([`crate::drq`]), and the static baselines below all
//! implement this trait, so the engine and the hardware simulators can
//! treat them interchangeably.

use crate::convert::ConversionChoice;
use crate::linear::{dequantize_slice, quantize_value, QuantParams};
use crate::precision::Precision;
use crate::Result;
use drift_tensor::stats::AbsStats;
use drift_tensor::subtensor::SubTensorScheme;
use drift_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A per-sub-tensor precision decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// Keep the initial high-precision encoding.
    Keep,
    /// Convert to low precision with the given choice.
    Convert(ConversionChoice),
}

impl Decision {
    /// The bit width this decision computes at, given the initial
    /// precision `hp`.
    pub fn bits(&self, hp: Precision) -> Precision {
        match self {
            Decision::Keep => hp,
            Decision::Convert(choice) => choice.lp(),
        }
    }

    /// Whether the decision selects low precision.
    pub fn is_low(&self) -> bool {
        matches!(self, Decision::Convert(_))
    }
}

/// Whole-tensor context handed to a policy alongside each sub-tensor's
/// statistics. DRQ's sensitivity criterion, for example, compares a
/// region's mean magnitude against the whole tensor's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TensorContext {
    /// Statistics over the entire tensor.
    pub global: AbsStats,
    /// The initial quantization parameters (scale Δ and precision hp).
    pub params: QuantParams,
}

/// A dynamic (or static) precision-selection algorithm.
///
/// Implementations must be deterministic functions of their inputs: the
/// hardware precision selector evaluates them on the fly (paper
/// Section 4.1) and replays must agree.
pub trait PrecisionPolicy {
    /// A short, stable name for reports ("drift", "drq", "int8", …).
    fn name(&self) -> &str;

    /// Decides the precision for one sub-tensor.
    fn decide(&self, ctx: &TensorContext, stats: &AbsStats) -> Decision;

    /// The low precision this policy targets (used by hardware mapping to
    /// size low-precision tiles). Defaults to INT4, the paper's setting.
    fn low_precision(&self) -> Precision {
        Precision::INT4
    }
}

/// Static high-precision policy: every sub-tensor keeps the initial
/// encoding. With `hp = INT8` this is the paper's INT8 baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticHighPolicy;

impl StaticHighPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        StaticHighPolicy
    }
}

impl PrecisionPolicy for StaticHighPolicy {
    fn name(&self) -> &str {
        "int8"
    }

    fn decide(&self, _ctx: &TensorContext, _stats: &AbsStats) -> Decision {
        Decision::Keep
    }
}

/// Static low-precision policy: every sub-tensor is converted with a
/// fixed range-preserving choice (`hc = 0`, all clipping at the low end).
/// With `lp = INT4` this is an aggressive static INT4 baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticLowPolicy {
    lp: Precision,
}

impl StaticLowPolicy {
    /// Creates a static low-precision policy targeting `lp` bits.
    pub fn new(lp: Precision) -> Self {
        StaticLowPolicy { lp }
    }
}

impl PrecisionPolicy for StaticLowPolicy {
    fn name(&self) -> &str {
        "static-low"
    }

    fn decide(&self, ctx: &TensorContext, _stats: &AbsStats) -> Decision {
        let hp = ctx.params.precision;
        if self.lp.bits() >= hp.bits() {
            return Decision::Keep;
        }
        let lc = hp.bits() - self.lp.bits();
        // hc = 0 keeps the full representation range (Eq. 5 always holds);
        // the cost is a 2^lc coarser representation density.
        let choice =
            ConversionChoice::new(hp, self.lp, 0, lc).expect("hc=0 split always satisfies Eq. 2");
        Decision::Convert(choice)
    }

    fn low_precision(&self) -> Precision {
        self.lp
    }
}

/// One sub-tensor's decision within a [`PolicyRun`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubTensorDecision {
    /// The sub-tensor's view id within the partition.
    pub view_id: usize,
    /// Elements in the sub-tensor.
    pub len: usize,
    /// The decision taken.
    pub decision: Decision,
}

/// A policy's per-sub-tensor decisions over a whole tensor, without the
/// reconstructed values: everything the precision selector's output
/// carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The initial quantization parameters.
    pub params: QuantParams,
    /// Per-sub-tensor decisions, in view order.
    pub decisions: Vec<SubTensorDecision>,
}

impl Selection {
    /// Builds a selection view by view: fixes the initial quantization
    /// parameters from the whole tensor's `max|X|` (Eq. 1, the same fold
    /// [`crate::linear::quantize_slice`] does), then asks `decide` once
    /// per view, in view order, for that view's element count and
    /// decision; a view's id is its index. `None` if any view returns
    /// `None`.
    pub fn from_views<V>(
        global_abs_max: f64,
        hp: Precision,
        views: impl IntoIterator<Item = V>,
        mut decide: impl FnMut(&QuantParams, V) -> Option<(usize, Decision)>,
    ) -> Option<Self> {
        let params = QuantParams::from_abs_max(global_abs_max, hp);
        let decisions = views
            .into_iter()
            .enumerate()
            .map(|(view_id, view)| {
                let (len, decision) = decide(&params, view)?;
                Some(SubTensorDecision {
                    view_id,
                    len,
                    decision,
                })
            })
            .collect::<Option<_>>()?;
        Some(Selection { params, decisions })
    }

    /// The decision step every policy run shares: [`Selection::from_views`]
    /// over each view's statistics, in view order, asking `policy`.
    fn decide(
        global: &AbsStats,
        subtensors: &[AbsStats],
        hp: Precision,
        policy: &dyn PrecisionPolicy,
    ) -> Self {
        Selection::from_views(global.abs_max(), hp, subtensors, |&params, stats| {
            let ctx = TensorContext {
                global: *global,
                params,
            };
            Some((stats.count() as usize, policy.decide(&ctx, stats)))
        })
        .expect("every view decides")
    }

    /// Fraction of *elements* that compute at low precision.
    pub fn low_fraction(&self) -> f64 {
        low_fraction(&self.decisions)
    }

    /// Count of sub-tensors that selected low precision.
    pub fn low_subtensors(&self) -> usize {
        low_subtensors(&self.decisions)
    }
}

fn low_fraction(decisions: &[SubTensorDecision]) -> f64 {
    let total: usize = decisions.iter().map(|d| d.len).sum();
    if total == 0 {
        return 0.0;
    }
    let low: usize = decisions
        .iter()
        .filter(|d| d.decision.is_low())
        .map(|d| d.len)
        .sum();
    low as f64 / total as f64
}

fn low_subtensors(decisions: &[SubTensorDecision]) -> usize {
    decisions.iter().filter(|d| d.decision.is_low()).count()
}

/// The statistics the accelerator's pooling unit gathers as a tensor
/// streams past it one contiguous sub-tensor at a time (paper §4.1):
/// one [`AbsStats`] for the whole tensor and one per sub-tensor.
///
/// Feeding a `[tokens, hidden]` tensor row by row yields exactly the
/// statistics [`run_policy`] computes under
/// [`SubTensorScheme::token`]`(hidden)`, so [`StreamStats::select`]
/// takes the same decisions without the tensor ever existing in full.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    global: AbsStats,
    subtensors: Vec<AbsStats>,
}

impl StreamStats {
    /// An empty stream.
    pub fn new() -> Self {
        StreamStats::default()
    }

    /// Feeds the next sub-tensor, whose values follow the previous
    /// sub-tensor's in the tensor's row-major order.
    pub fn push_subtensor(&mut self, values: &[f32]) {
        let stats = self.global.push_slice(values);
        self.subtensors.push(stats);
    }

    /// Statistics over every value streamed so far.
    pub fn global(&self) -> &AbsStats {
        &self.global
    }

    /// Runs `policy` over the streamed tensor at initial precision `hp`.
    pub fn select(&self, hp: Precision, policy: &dyn PrecisionPolicy) -> Selection {
        Selection::decide(&self.global, &self.subtensors, hp, policy)
    }
}

/// The result of running a policy over a whole tensor.
///
/// `effective` holds the dequantized values *as the selected encodings
/// represent them* — i.e. what the accelerator actually computes with —
/// so downstream layers and accuracy metrics see the true quantization
/// error of the mixed-precision tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRun {
    /// The initial quantization parameters.
    pub params: QuantParams,
    /// Per-sub-tensor decisions, in view order.
    pub decisions: Vec<SubTensorDecision>,
    /// The tensor as reconstructed from the selected encodings.
    pub effective: Tensor,
}

impl PolicyRun {
    /// Fraction of *elements* that compute at low precision.
    pub fn low_fraction(&self) -> f64 {
        low_fraction(&self.decisions)
    }

    /// Count of sub-tensors that selected low precision.
    pub fn low_subtensors(&self) -> usize {
        low_subtensors(&self.decisions)
    }
}

/// Runs `policy` over `tensor` partitioned by `scheme`:
///
/// 1. compute the whole tensor's and each sub-tensor's statistics (what
///    the pooling unit does);
/// 2. take the per-sub-tensor decisions (the step [`StreamStats::select`]
///    shares);
/// 3. quantize the whole tensor to `hp` with a per-tensor scale (Eq. 1)
///    and materialise the effective (mixed-precision, dequantized)
///    tensor.
///
/// Callers that need only the decisions of a token-partitioned tensor
/// should stream it through [`StreamStats`] instead.
///
/// # Errors
///
/// Propagates partitioning errors (e.g. a token length that does not
/// divide the tensor).
pub fn run_policy(
    tensor: &Tensor,
    scheme: &SubTensorScheme,
    hp: Precision,
    policy: &dyn PrecisionPolicy,
) -> Result<PolicyRun> {
    let view_error = |e: drift_tensor::TensorError| crate::QuantError::InvalidParameter {
        name: "view",
        detail: e.to_string(),
    };
    let views =
        scheme
            .partition(tensor.shape())
            .map_err(|e| crate::QuantError::InvalidParameter {
                name: "scheme",
                detail: e.to_string(),
            })?;
    let subtensors = views
        .iter()
        .map(|view| {
            Ok(AbsStats::from_slice(
                tensor.subtensor(view).map_err(view_error)?,
            ))
        })
        .collect::<Result<Vec<_>>>()?;
    let global = AbsStats::from_slice(tensor.as_slice());
    let Selection { params, decisions } = Selection::decide(&global, &subtensors, hp, policy);

    // Reconstruct each sub-tensor's integer codes through its selected
    // encoding.
    let codes: Vec<i32> = tensor
        .as_slice()
        .iter()
        .map(|&x| quantize_value(x, &params))
        .collect();
    let mut effective = tensor.clone();
    for (view, d) in views.iter().zip(&decisions) {
        let sub_codes: Vec<i32> = view.indices().map(|i| codes[i]).collect();
        let restored = match d.decision {
            Decision::Keep => dequantize_slice(&sub_codes, &params),
            Decision::Convert(choice) => {
                let low = choice.apply_slice(&sub_codes);
                choice.dequantize_slice(&low, &params)
            }
        };
        effective
            .set_subtensor(view, &restored)
            .map_err(view_error)?;
    }

    Ok(PolicyRun {
        params,
        decisions,
        effective,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::mse;
    use drift_tensor::Shape;

    fn ramp_tensor() -> Tensor {
        Tensor::from_fn(vec![8, 16], |i| ((i * 29) % 97) as f32 / 97.0 - 0.5).unwrap()
    }

    #[test]
    fn static_high_keeps_everything() {
        let t = ramp_tensor();
        let run = run_policy(
            &t,
            &SubTensorScheme::token(16),
            Precision::INT8,
            &StaticHighPolicy,
        )
        .unwrap();
        assert_eq!(run.low_fraction(), 0.0);
        assert_eq!(run.low_subtensors(), 0);
        // INT8 reconstruction error bounded by half a step per element.
        let err = mse(t.as_slice(), run.effective.as_slice());
        assert!(err < (run.params.scale * run.params.scale) as f64);
    }

    #[test]
    fn static_low_converts_everything() {
        let t = ramp_tensor();
        let run = run_policy(
            &t,
            &SubTensorScheme::token(16),
            Precision::INT8,
            &StaticLowPolicy::new(Precision::INT4),
        )
        .unwrap();
        assert_eq!(run.low_fraction(), 1.0);
        assert_eq!(run.low_subtensors(), 8);
    }

    #[test]
    fn static_low_noop_when_lp_not_lower() {
        let t = ramp_tensor();
        let run = run_policy(
            &t,
            &SubTensorScheme::PerTensor,
            Precision::INT4,
            &StaticLowPolicy::new(Precision::INT8),
        )
        .unwrap();
        assert_eq!(run.low_fraction(), 0.0);
    }

    #[test]
    fn low_precision_is_lossier() {
        let t = ramp_tensor();
        let high = run_policy(
            &t,
            &SubTensorScheme::token(16),
            Precision::INT8,
            &StaticHighPolicy,
        )
        .unwrap();
        let low = run_policy(
            &t,
            &SubTensorScheme::token(16),
            Precision::INT8,
            &StaticLowPolicy::new(Precision::INT4),
        )
        .unwrap();
        assert!(
            mse(t.as_slice(), low.effective.as_slice())
                > mse(t.as_slice(), high.effective.as_slice())
        );
    }

    #[test]
    fn decisions_cover_all_subtensors() {
        let t = ramp_tensor();
        let scheme = SubTensorScheme::region(4, 4);
        let run = run_policy(&t, &scheme, Precision::INT8, &StaticHighPolicy).unwrap();
        let expected = scheme.count(&Shape::matrix(8, 16).unwrap()).unwrap();
        assert_eq!(run.decisions.len(), expected);
        let total: usize = run.decisions.iter().map(|d| d.len).sum();
        assert_eq!(total, 128);
    }

    #[test]
    fn decision_bits() {
        let keep = Decision::Keep;
        assert_eq!(keep.bits(Precision::INT8), Precision::INT8);
        assert!(!keep.is_low());
        let choice = ConversionChoice::new(Precision::INT8, Precision::INT4, 0, 4).unwrap();
        let conv = Decision::Convert(choice);
        assert_eq!(conv.bits(Precision::INT8), Precision::INT4);
        assert!(conv.is_low());
    }

    #[test]
    fn bad_scheme_is_an_error() {
        let t = ramp_tensor();
        let res = run_policy(
            &t,
            &SubTensorScheme::token(31),
            Precision::INT8,
            &StaticHighPolicy,
        );
        assert!(res.is_err());
    }
}
