//! Criterion: throughput of the Drift precision selector — the per-
//! sub-tensor decision the hardware controller evaluates online. The
//! paper claims the algorithm adds no computational overhead; this
//! bench quantifies the software-model cost per decision.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use drift_core::selector::DriftPolicy;
use drift_nn::datagen::TokenProfile;
use drift_quant::linear::QuantParams;
use drift_quant::policy::{PrecisionPolicy, TensorContext};
use drift_quant::precision::Precision;
use drift_tensor::rng::seeded;
use drift_tensor::stats::{AbsStats, SummaryStats};

fn bench_selector(c: &mut Criterion) {
    let policy = DriftPolicy::new(0.3).expect("delta is valid");
    let rows: Vec<AbsStats> = TokenProfile::bert()
        .row_stats(1024, 768, 7)
        .iter()
        .map(SummaryStats::abs)
        .collect();
    let mut global = AbsStats::new();
    for r in &rows {
        global.merge(r);
    }
    let ctx = TensorContext {
        global,
        params: QuantParams::from_abs_max(global.abs_max(), Precision::INT8),
    };

    c.bench_function("selector/decide_1024_subtensors", |b| {
        b.iter(|| {
            rows.iter()
                .filter(|s| policy.decide(&ctx, s).is_low())
                .count()
        })
    });

    c.bench_function("selector/stats_one_token_768", |b| {
        let mut rng = seeded(3);
        let lap = drift_tensor::dist::Laplace::new(0.0, 0.1).expect("valid scale");
        use drift_tensor::dist::Sampler;
        b.iter_batched(
            || lap.sample_f32(&mut rng, 768),
            AbsStats::from_slice,
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_selector);
criterion_main!(benches);
