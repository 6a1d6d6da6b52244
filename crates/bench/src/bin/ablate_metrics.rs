//! Ablation A2: the two selection criteria of Section 3.3 in
//! isolation.
//!
//! * **RR-only** (δ = 0): Eq. 5 picks the conversion, every sub-tensor
//!   converts — maximal 4-bit share, no accuracy guard.
//! * **RD-only**: no range adaptation — the conversion is fixed at the
//!   range-preserving `(hc=0, lc=4)` (what DRQ/PG use) and only the
//!   Eq. 6 density test gates it.
//! * **Full Drift**: Eq. 5 + Eq. 6.
//!
//! ```text
//! cargo run --release -p drift-bench --bin ablate_metrics
//! ```

use drift_bench::{fmt_pct, render_table};
use drift_core::selector::DriftPolicy;
use drift_nn::datagen::TokenProfile;
use drift_nn::engine::TinyTransformer;
use drift_nn::eval::classification_fidelity;
use drift_quant::capability::RepresentationCapability;
use drift_quant::convert::ConversionChoice;
use drift_quant::policy::{Decision, PrecisionPolicy, StaticHighPolicy, TensorContext};
use drift_quant::precision::Precision;
use drift_tensor::stats::AbsStats;
use drift_tensor::Tensor;

/// Density-test-only policy: fixed range-preserving conversion, gated
/// by Eq. 6.
#[derive(Debug)]
struct RdOnlyPolicy {
    delta: f64,
}

impl PrecisionPolicy for RdOnlyPolicy {
    fn name(&self) -> &str {
        "rd-only"
    }

    fn decide(&self, ctx: &TensorContext, stats: &AbsStats) -> Decision {
        let hp = ctx.params.precision;
        if hp.bits() <= 4 {
            return Decision::Keep;
        }
        let choice = ConversionChoice::new(hp, Precision::INT4, 0, hp.bits() - 4)
            .expect("hc=0 split is valid");
        let cap = RepresentationCapability::of(&choice, &ctx.params);
        let variance = 2.0 * stats.mean_abs() * stats.mean_abs();
        if cap.density_ratio(variance) >= self.delta {
            Decision::Convert(choice)
        } else {
            Decision::Keep
        }
    }
}

fn main() {
    println!("== Ablation A2: RR-only vs RD-only vs full Drift ==\n");
    let model = TinyTransformer::bert_like(23).expect("valid config");
    let inputs: Vec<Tensor> = (0..128)
        .map(|i| {
            TokenProfile::bert()
                .generate_classified(16, model.hidden(), i % 10, 2.5, 9000 + i as u64)
                .expect("valid dims")
        })
        .collect();

    let int8 = classification_fidelity(&model, &inputs, &StaticHighPolicy, 100.0)
        .expect("evaluation runs");
    let rr_only = classification_fidelity(
        &model,
        &inputs,
        &DriftPolicy::new(0.0).expect("delta 0 is valid"),
        100.0,
    )
    .expect("evaluation runs");
    let rd_only = classification_fidelity(&model, &inputs, &RdOnlyPolicy { delta: 0.3 }, 100.0)
        .expect("evaluation runs");
    let full = classification_fidelity(
        &model,
        &inputs,
        &DriftPolicy::new(0.3).expect("delta is valid"),
        100.0,
    )
    .expect("evaluation runs");

    let rows = vec![
        vec![
            "INT8 (reference)".to_string(),
            fmt_pct(int8.agreement),
            fmt_pct(int8.low_fraction),
        ],
        vec![
            "RR-only (Eq. 5, δ=0)".to_string(),
            fmt_pct(rr_only.agreement),
            fmt_pct(rr_only.low_fraction),
        ],
        vec![
            "RD-only (hc=0 fixed, δ=0.3)".to_string(),
            fmt_pct(rd_only.agreement),
            fmt_pct(rd_only.low_fraction),
        ],
        vec![
            "Full Drift (δ=0.3)".to_string(),
            fmt_pct(full.agreement),
            fmt_pct(full.low_fraction),
        ],
    ];
    println!(
        "{}",
        render_table(&["criterion", "agreement vs FP32", "4-bit share"], &rows)
    );
    println!("RR-only converts everything (range-safe but density-blind);");
    println!("RD-only wastes density on small sub-tensors (no high-end clipping);");
    println!("the full algorithm needs both metrics to hold accuracy at a high");
    println!("4-bit share.");
}
