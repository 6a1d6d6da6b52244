//! Figure 3: how representation range and density drive the
//! precision-conversion choice.
//!
//! Reproduces the worked example: three sub-tensors with distinct
//! statistics, the five 8→4-bit `(hc, lc)` choices, the RR test
//! (Eq. 5) fixing the choice, and the RD test (Eq. 6) accepting or
//! rejecting it.
//!
//! ```text
//! cargo run --release -p drift-bench --bin fig3_conversion_choices
//! ```

use drift_bench::render_table;
use drift_core::selector::DriftPolicy;
use drift_nn::datagen::stats_with;
use drift_quant::capability::RepresentationCapability;
use drift_quant::convert::ConversionChoice;
use drift_quant::linear::QuantParams;
use drift_quant::policy::{Decision, PrecisionPolicy, TensorContext};
use drift_quant::precision::Precision;

fn main() {
    // The tensor-wide scale: abs max 1.27 so Δ = 0.01 exactly.
    let params = QuantParams::from_abs_max(1.27, Precision::INT8);
    println!("== Figure 3: conversion choices under RR/RD ==");
    println!("Δ = {:.4}, hp = INT8, lp = INT4\n", params.scale);

    // The five conversion choices and their capabilities (Eq. 3).
    let mut rows = Vec::new();
    for c in ConversionChoice::enumerate(Precision::INT8, Precision::INT4) {
        let cap = RepresentationCapability::of(&c, &params);
        rows.push(vec![
            format!("hc={} lc={}", c.hc(), c.lc()),
            format!("{:.4}", cap.range),
            format!("{:.4}", cap.density),
        ]);
    }
    println!(
        "{}",
        render_table(&["choice", "RR (range)", "RD (step)"], &rows)
    );

    // Three example sub-tensors, one per row of the paper's figure.
    let policy = DriftPolicy::new(1.0).expect("delta is valid");
    let ctx = TensorContext {
        global: stats_with(1.27, 0.4).abs(),
        params,
    };
    let examples = [
        (
            "row 1: moderate range, high variance",
            stats_with(0.30, 0.16),
        ),
        ("row 2: wide range (forces hc=0)", stats_with(1.20, 0.45)),
        ("row 3: wide range, tiny variance", stats_with(1.20, 0.02)),
    ];
    let mut rows = Vec::new();
    for (label, stats) in examples {
        let choice = policy
            .range_choice(stats.abs_max(), &params)
            .expect("INT4 < INT8");
        let cap = RepresentationCapability::of(&choice, &params);
        let ratio = cap.density_ratio(2.0 * stats.mean_abs() * stats.mean_abs());
        let decision = policy.decide(&ctx, &stats.abs());
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", stats.abs_max()),
            format!("{:.3}", stats.mean_abs()),
            format!("hc={} lc={}", choice.hc(), choice.lc()),
            format!("{ratio:.3}"),
            match decision {
                Decision::Keep => "keep INT8".to_string(),
                Decision::Convert(c) => format!("INT4 ({})", c),
            },
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "sub-tensor",
                "max|Y|",
                "avg|Y|",
                "Eq.5 choice",
                "var/RD",
                "decision (δ=1)"
            ],
            &rows
        )
    );
    println!("paper: the wide-range sub-tensor clips only low bits (hc=0, lc=4);");
    println!("       the small-variance one fails Eq. 6 and stays 8-bit.");
}
