//! Lowering model descriptions to GEMM workloads with precision maps.
//!
//! Every accelerator in the comparison executes GEMMs, so a model's
//! hardware cost is the cost of its lowered GEMM list. This module
//! also builds the *precision-annotated* workloads: it samples per-row
//! activation statistics from the model family's [`TokenProfile`],
//! runs a [`PrecisionPolicy`] on each row (exactly what the Drift
//! precision selector does online), and profiles per-column weight
//! precisions statically — producing the [`GemmWorkload`]s that
//! Figs. 7–8 execute.

use crate::datagen::{cnn_row_stats, weight_column_stats, TokenProfile};
use crate::zoo::{LayerDesc, ModelDesc};
use crate::{NnError, Result};
use drift_accel::gemm::{GemmShape, GemmWorkload};
use drift_quant::linear::QuantParams;
use drift_quant::policy::{PrecisionPolicy, TensorContext};
use drift_quant::precision::Precision;
use drift_tensor::rng::derive_seed;
use drift_tensor::stats::{AbsStats, SummaryStats};
use serde::{Deserialize, Serialize};

/// One lowered GEMM with an instance multiplier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GemmOp {
    /// Layer name this GEMM implements.
    pub name: String,
    /// GEMM dimensions.
    pub shape: GemmShape,
    /// Identical instances in the model (heads × layers); simulate once
    /// and scale.
    pub repeat: u64,
}

/// Lowers a model description to its GEMM list.
///
/// Convolutions become im2col GEMMs: `M = out_h·out_w`,
/// `K = k²·in_c`, `N = out_c`.
///
/// # Errors
///
/// Returns [`NnError::InvalidModel`] for layers whose kernel does not
/// fit the input.
pub fn lower(desc: &ModelDesc) -> Result<Vec<GemmOp>> {
    desc.layers
        .iter()
        .map(|layer| match layer {
            LayerDesc::Conv {
                name,
                in_c,
                out_c,
                k,
                stride,
                pad,
                in_hw,
                repeat,
            } => {
                let eff = in_hw + 2 * pad;
                if *k == 0 || *stride == 0 || eff < *k {
                    return Err(NnError::InvalidModel {
                        detail: format!("conv {name} does not fit input {in_hw}"),
                    });
                }
                let out_hw = (eff - k) / stride + 1;
                let shape = GemmShape::new(out_hw * out_hw, k * k * in_c, *out_c)?;
                Ok(GemmOp {
                    name: name.clone(),
                    shape,
                    repeat: *repeat,
                })
            }
            LayerDesc::Linear {
                name,
                tokens,
                in_dim,
                out_dim,
                repeat,
            } => {
                let shape = GemmShape::new(*tokens, *in_dim, *out_dim)?;
                Ok(GemmOp {
                    name: name.clone(),
                    shape,
                    repeat: *repeat,
                })
            }
        })
        .collect()
}

/// Builds the precision-annotated workload for one GEMM:
///
/// * per-row activation statistics are sampled from `profile` and the
///   `policy` decides each row (the online selector); CNN layers use
///   spatially clustered rows ([`cnn_row_stats`]), transformer layers
///   independent token scales;
/// * per-column weight precisions come from a static profile of the
///   weight sub-tensor statistics with the *same* policy (the paper's
///   independent activation/weight selection, Section 4.3).
///
/// # Errors
///
/// Propagates workload construction errors.
pub fn annotate(
    op: &GemmOp,
    family: crate::zoo::ModelFamily,
    profile: &TokenProfile,
    policy: &dyn PrecisionPolicy,
    seed: u64,
) -> Result<GemmWorkload> {
    let shape = op.shape;
    let rows = if family == crate::zoo::ModelFamily::Cnn && shape.m > 4 {
        cnn_row_stats(shape.m, shape.k, derive_seed(seed, &op.name))
    } else {
        profile.row_stats(shape.m, shape.k, derive_seed(seed, &op.name))
    };
    let rows: Vec<AbsStats> = rows.iter().map(SummaryStats::abs).collect();

    // The tensor-global context the policy sees: merge the row stats.
    let mut global = AbsStats::new();
    for r in &rows {
        global.merge(r);
    }
    let ctx = TensorContext {
        global,
        params: QuantParams::from_abs_max(global.abs_max(), Precision::INT8),
    };
    let act_high: Vec<bool> = rows
        .iter()
        .map(|r| !policy.decide(&ctx, r).is_low())
        .collect();

    // Static per-column weight profile: weights are well-behaved
    // (moderate dispersion, no outliers), so most columns go low.
    let wcols = weight_column_stats(
        shape.n,
        shape.k,
        0.3,
        derive_seed(seed, &format!("{}-w", op.name)),
    );
    let wcols: Vec<AbsStats> = wcols.iter().map(SummaryStats::abs).collect();
    let mut wglobal = AbsStats::new();
    for c in &wcols {
        wglobal.merge(c);
    }
    let wctx = TensorContext {
        global: wglobal,
        params: QuantParams::from_abs_max(wglobal.abs_max(), Precision::INT8),
    };
    let weight_high: Vec<bool> = wcols
        .iter()
        .map(|c| !policy.decide(&wctx, c).is_low())
        .collect();

    Ok(GemmWorkload::new(
        op.name.clone(),
        shape,
        act_high,
        weight_high,
    )?)
}

/// Lowers a whole model and annotates every GEMM with `policy`.
///
/// # Errors
///
/// Propagates lowering and annotation errors.
pub fn model_workloads(
    desc: &ModelDesc,
    policy: &dyn PrecisionPolicy,
    seed: u64,
) -> Result<Vec<(GemmOp, GemmWorkload)>> {
    let profile = TokenProfile::for_family(desc.family);
    lower(desc)?
        .into_iter()
        .map(|op| {
            let w = annotate(&op, desc.family, &profile, policy, seed)?;
            Ok((op, w))
        })
        .collect()
}

/// The MAC-weighted fraction of activation rows computing at low
/// precision across a model's workloads — the "percentage of 4-bit
/// computation" of Fig. 6 / Table 1.
pub fn model_low_fraction(workloads: &[(GemmOp, GemmWorkload)]) -> f64 {
    let mut low = 0.0f64;
    let mut total = 0.0f64;
    for (op, w) in workloads {
        let macs = (op.shape.macs() * op.repeat) as f64;
        low += macs * w.low_compute_fraction();
        total += macs;
    }
    if total == 0.0 {
        0.0
    } else {
        low / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use drift_core::selector::DriftPolicy;
    use drift_quant::policy::StaticHighPolicy;

    #[test]
    fn conv_lowering_dimensions() {
        let desc = ModelDesc {
            name: "t".to_string(),
            family: zoo::ModelFamily::Cnn,
            layers: vec![LayerDesc::Conv {
                name: "c".to_string(),
                in_c: 3,
                out_c: 64,
                k: 7,
                stride: 2,
                pad: 3,
                in_hw: 224,
                repeat: 1,
            }],
            seq: 1,
        };
        let ops = lower(&desc).unwrap();
        assert_eq!(ops[0].shape.m, 112 * 112);
        assert_eq!(ops[0].shape.k, 147);
        assert_eq!(ops[0].shape.n, 64);
    }

    #[test]
    fn invalid_conv_is_rejected() {
        let desc = ModelDesc {
            name: "t".to_string(),
            family: zoo::ModelFamily::Cnn,
            layers: vec![LayerDesc::Conv {
                name: "bad".to_string(),
                in_c: 3,
                out_c: 8,
                k: 9,
                stride: 1,
                pad: 0,
                in_hw: 4,
                repeat: 1,
            }],
            seq: 1,
        };
        assert!(lower(&desc).is_err());
    }

    #[test]
    fn annotation_matches_shape() {
        let desc = zoo::bert_base();
        let policy = DriftPolicy::new(1.0).unwrap();
        let workloads = model_workloads(&desc, &policy, 42).unwrap();
        for (op, w) in &workloads {
            assert_eq!(w.shape(), op.shape);
            assert_eq!(w.act_high().len(), op.shape.m);
            assert_eq!(w.weight_high().len(), op.shape.n);
        }
    }

    #[test]
    fn drift_policy_yields_mostly_low_on_bert() {
        let desc = zoo::bert_base();
        let policy = DriftPolicy::new(0.05).unwrap();
        let workloads = model_workloads(&desc, &policy, 42).unwrap();
        let low = model_low_fraction(&workloads);
        assert!(low > 0.5, "expected a majority-low mix, got {low}");
    }

    #[test]
    fn static_high_policy_yields_zero_low() {
        let desc = zoo::resnet18();
        let workloads = model_workloads(&desc, &StaticHighPolicy, 1).unwrap();
        assert_eq!(model_low_fraction(&workloads), 0.0);
    }

    #[test]
    fn annotation_is_deterministic() {
        let desc = zoo::deit_s();
        let policy = DriftPolicy::new(0.5).unwrap();
        let a = model_workloads(&desc, &policy, 7).unwrap();
        let b = model_workloads(&desc, &policy, 7).unwrap();
        for ((_, wa), (_, wb)) in a.iter().zip(&b) {
            assert_eq!(wa.act_high(), wb.act_high());
            assert_eq!(wa.weight_high(), wb.weight_high());
        }
    }
}
