//! Property-based tests of the Drift algorithm's core invariants.

use drift::core::selector::DriftPolicy;
use drift::nn::datagen::TokenProfile;
use drift::quant::capability::RepresentationCapability;
use drift::quant::convert::ConversionChoice;
use drift::quant::drq::DrqPolicy;
use drift::quant::gating::PrecisionGatingPolicy;
use drift::quant::linear::{dequantize_slice, quantize_slice, QuantParams};
use drift::quant::policy::{
    run_policy, Decision, PrecisionPolicy, StaticHighPolicy, StaticLowPolicy, StreamStats,
    TensorContext,
};
use drift::quant::Precision;
use drift::tensor::stats::SummaryStats;
use drift::tensor::subtensor::SubTensorScheme;
use drift::tensor::Tensor;
use proptest::prelude::*;

fn stats_from(values: &[f32]) -> SummaryStats {
    SummaryStats::from_slice(values)
}

proptest! {
    /// The streamed selector takes exactly `run_policy`'s decisions at
    /// token granularity, for every policy family: the same parameters,
    /// the same decision per token, and a whole-tensor context equal to
    /// the tensor's own statistics. Values mix Laplace-profile rows
    /// (through `TokenProfile::token_stats`) with arbitrary rows that
    /// include exact zeros and repeated magnitudes.
    #[test]
    fn streamed_selection_matches_run_policy(
        tokens in 1usize..24,
        hidden in 1usize..48,
        profile in 0usize..4,
        seed in any::<u64>(),
        raw in proptest::collection::vec(-4i32..5, 24 * 48),
        scale in 1e-3f32..10.0,
        delta in 0.0f64..40.0,
        alpha in 0.0f64..2.0,
        theta in 0.0f64..1.0,
    ) {
        let policies: [&dyn PrecisionPolicy; 5] = [
            &DriftPolicy::new(delta).unwrap(),
            &DrqPolicy::new(alpha).unwrap(),
            &PrecisionGatingPolicy::new(theta, Precision::INT4).unwrap(),
            &StaticHighPolicy,
            &StaticLowPolicy::new(Precision::INT4),
        ];
        let profile = TokenProfile::by_name(["cnn", "vit", "bert", "llm"][profile]).unwrap();
        let generated = profile.generate(tokens, hidden, seed).unwrap();
        let values: Vec<f32> = raw[..tokens * hidden]
            .iter()
            .map(|&q| q as f32 * scale / 4.0)
            .collect();
        let arbitrary = Tensor::from_vec(vec![tokens, hidden], values).unwrap();
        let mut streamed = StreamStats::new();
        arbitrary.as_slice().chunks(hidden).for_each(|row| streamed.push_subtensor(row));
        for (tensor, stats) in [
            (&generated, profile.token_stats(tokens, hidden, seed).unwrap()),
            (&arbitrary, streamed),
        ] {
            prop_assert_eq!(stats.global(), &SummaryStats::from_slice(tensor.as_slice()).abs());
            for policy in policies {
                let run =
                    run_policy(tensor, &SubTensorScheme::token(hidden), Precision::INT8, policy)
                        .unwrap();
                let selection = stats.select(Precision::INT8, policy);
                prop_assert_eq!(selection.params, run.params, "{}", policy.name());
                prop_assert_eq!(&selection.decisions, &run.decisions, "{}", policy.name());
                prop_assert_eq!(
                    selection.low_fraction().to_bits(),
                    run.low_fraction().to_bits()
                );
            }
        }
    }

    /// Eq. 5's guarantee: whatever the sub-tensor, the selected
    /// conversion's representation range covers its largest magnitude.
    #[test]
    fn range_choice_always_covers(
        abs_max in 1e-6f64..100.0,
        tensor_max in 1e-3f64..100.0,
    ) {
        let abs_max = abs_max.min(tensor_max);
        let params = QuantParams::from_abs_max(tensor_max, Precision::INT8);
        let policy = DriftPolicy::new(1.0).unwrap();
        let choice = policy.range_choice(abs_max, &params).unwrap();
        let cap = RepresentationCapability::of(&choice, &params);
        // Covers within quantization slack: a value that survived
        // INT8 quantization never exceeds the INT8 range either.
        prop_assert!(cap.range >= abs_max.min(params.representation_range()) - 1e-9);
    }

    /// δ-monotonicity: raising the threshold never converts more.
    #[test]
    fn delta_monotone(
        values in proptest::collection::vec(-10.0f32..10.0, 4..64),
        d1 in 0.0f64..10.0,
        d2 in 0.0f64..10.0,
    ) {
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let stats = stats_from(&values).abs();
        let global = stats_from(&values).abs();
        let ctx = TensorContext {
            global,
            params: QuantParams::from_abs_max(global.abs_max(), Precision::INT8),
        };
        let p_lo = DriftPolicy::new(lo).unwrap();
        let p_hi = DriftPolicy::new(hi).unwrap();
        // If the stricter threshold converts, the looser one must too.
        if p_hi.decide(&ctx, &stats).is_low() {
            prop_assert!(p_lo.decide(&ctx, &stats).is_low());
        }
    }

    /// Quantize→dequantize error is bounded by half a step for every
    /// in-range value.
    #[test]
    fn quantization_error_bounded(
        values in proptest::collection::vec(-100.0f32..100.0, 1..128),
    ) {
        let (codes, params) = quantize_slice(&values, Precision::INT8).unwrap();
        let restored = dequantize_slice(&codes, &params);
        for (a, b) in values.iter().zip(&restored) {
            prop_assert!(
                f64::from((a - b).abs()) <= params.scale * 0.5 + 1e-5,
                "{a} vs {b} with step {}", params.scale
            );
        }
    }

    /// Every (hc, lc) conversion satisfies Eq. 2 and its saturation
    /// bound: converted codes always fit the low precision.
    #[test]
    fn conversions_respect_low_range(code in -127i32..=127) {
        for choice in ConversionChoice::enumerate(Precision::INT8, Precision::INT4) {
            prop_assert_eq!(
                choice.hc() + choice.lp().bits() + choice.lc(),
                choice.hp().bits()
            );
            let low = choice.apply_value(code);
            prop_assert!(choice.lp().contains(low), "{low} out of INT4 range");
        }
    }

    /// The decision is a pure function of the statistics.
    #[test]
    fn decisions_are_deterministic(
        values in proptest::collection::vec(-5.0f32..5.0, 2..32),
        delta in 0.0f64..5.0,
    ) {
        let stats = stats_from(&values).abs();
        let ctx = TensorContext {
            global: stats,
            params: QuantParams::from_abs_max(stats.abs_max(), Precision::INT8),
        };
        let policy = DriftPolicy::new(delta).unwrap();
        prop_assert_eq!(policy.decide(&ctx, &stats), policy.decide(&ctx, &stats));
    }

    /// An all-zero sub-tensor always converts (it is exactly
    /// representable at any width), regardless of δ.
    #[test]
    fn zero_subtensors_always_convert(delta in 0.0f64..1e6) {
        let stats = stats_from(&[0.0, 0.0, 0.0]).abs();
        let ctx = TensorContext {
            global: stats_from(&[1.0, -1.0]).abs(),
            params: QuantParams::from_abs_max(1.0, Precision::INT8),
        };
        let policy = DriftPolicy::new(delta).unwrap();
        prop_assert!(matches!(policy.decide(&ctx, &stats), Decision::Convert(_)));
    }
}

// SummaryStats merge is associative enough for parallel reductions.
proptest! {
    #[test]
    fn stats_merge_matches_sequential(
        a in proptest::collection::vec(-10.0f32..10.0, 1..64),
        b in proptest::collection::vec(-10.0f32..10.0, 1..64),
    ) {
        let mut merged = stats_from(&a);
        merged.merge(&stats_from(&b));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let sequential = stats_from(&all);
        prop_assert_eq!(merged.count(), sequential.count());
        prop_assert!((merged.mean() - sequential.mean()).abs() < 1e-6);
        prop_assert!((merged.variance() - sequential.variance()).abs() < 1e-5);
        prop_assert_eq!(merged.abs_max(), sequential.abs_max());
    }
}
