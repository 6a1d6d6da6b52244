//! Property-based tests for the tensor substrate.

use drift_tensor::dist::{ks_statistic, Exponential, Gaussian, Histogram, Laplace, Sampler};
use drift_tensor::rng::seeded;
use drift_tensor::stats::{AbsStats, SummaryStats};
use drift_tensor::subtensor::SubTensorScheme;
use drift_tensor::{Shape, Tensor};
use proptest::prelude::*;
use rand::RngCore;

fn arb_shape() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..8, 1..4)
}

/// Values that stress `|·|`, `max` and the sums: signed zeros,
/// subnormals, repeated magnitudes of either sign, `±f32::MAX`, and the
/// ordinary value `x` of the same position.
fn awkward(picks: &[u32], ordinary: &[f32]) -> Vec<f32> {
    let subnormal = f32::MIN_POSITIVE / 3.0;
    picks
        .iter()
        .zip(ordinary)
        .map(|(&pick, &x)| match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(1),
            3 => -f32::from_bits(1),
            4 => subnormal,
            5 => -subnormal,
            6 => 0.75,
            7 => -0.75,
            8 => f32::MAX,
            9 => -f32::MAX,
            _ => x,
        })
        .collect()
}

/// Every field of an [`AbsStats`] a policy can read, as bits.
fn abs_bits(stats: &AbsStats) -> (u64, u64, u64) {
    (
        stats.count(),
        stats.abs_max().to_bits(),
        stats.mean_abs().to_bits(),
    )
}

proptest! {
    /// flatten ∘ unflatten is the identity on every valid offset.
    #[test]
    fn shape_flatten_roundtrip(dims in arb_shape()) {
        let shape = Shape::new(dims).unwrap();
        for flat in 0..shape.volume() {
            let idx = shape.unflatten(flat).unwrap();
            prop_assert_eq!(shape.flatten(&idx).unwrap(), flat);
        }
    }

    /// Strides are consistent with flatten: moving one step along an
    /// axis moves the flat offset by that axis's stride.
    #[test]
    fn strides_match_flatten(dims in arb_shape()) {
        let shape = Shape::new(dims.clone()).unwrap();
        let strides = shape.strides();
        let zero = vec![0usize; dims.len()];
        for axis in 0..dims.len() {
            if dims[axis] < 2 {
                continue;
            }
            let mut idx = zero.clone();
            idx[axis] = 1;
            prop_assert_eq!(shape.flatten(&idx).unwrap(), strides[axis]);
        }
    }

    /// Every partitioning scheme covers the tensor exactly once.
    #[test]
    fn partitions_are_exact_covers(
        rows in 1usize..12,
        cols in 1usize..12,
        tile_r in 1usize..6,
        tile_c in 1usize..6,
    ) {
        let shape = Shape::matrix(rows, cols).unwrap();
        let schemes = vec![
            SubTensorScheme::PerTensor,
            SubTensorScheme::region(tile_r, tile_c),
            SubTensorScheme::Channel,
            SubTensorScheme::PerValue,
        ];
        for scheme in schemes {
            let views = scheme.partition(&shape).unwrap();
            prop_assert_eq!(views.len(), scheme.count(&shape).unwrap());
            let mut seen = vec![false; shape.volume()];
            for v in &views {
                for i in v.indices() {
                    prop_assert!(!seen[i], "double cover at {i}");
                    seen[i] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }

    /// Gather then scatter of any view is the identity.
    #[test]
    fn gather_scatter_identity(
        rows in 1usize..8,
        cols in 1usize..8,
        data in proptest::collection::vec(-100.0f32..100.0, 64),
    ) {
        let n = rows * cols;
        let t = Tensor::from_vec(vec![rows, cols], data[..n].to_vec()).unwrap();
        let views = SubTensorScheme::region(2, 2).partition(t.shape()).unwrap();
        let mut u = t.clone();
        for v in &views {
            let gathered = t.subtensor(v).unwrap();
            u.set_subtensor(v, &gathered).unwrap();
        }
        prop_assert_eq!(t, u);
    }

    /// Welford statistics match two-pass computation.
    #[test]
    fn stats_match_two_pass(data in proptest::collection::vec(-1e3f32..1e3, 1..256)) {
        let s = SummaryStats::from_slice(&data);
        let mean = data.iter().map(|&v| f64::from(v)).sum::<f64>() / data.len() as f64;
        let var = data
            .iter()
            .map(|&v| (f64::from(v) - mean).powi(2))
            .sum::<f64>()
            / data.len() as f64;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-5 * var.max(1.0));
        let abs_max = data.iter().fold(0.0f64, |m, &v| m.max(f64::from(v).abs()));
        prop_assert_eq!(s.abs_max(), abs_max);
        prop_assert!(s.mean_abs() <= s.abs_max() + 1e-12);
    }

    /// `AbsStats` is `SummaryStats` projected onto `count`, `max|Y|` and
    /// `Σ|Y|`, bit for bit: over one pass, and over a chain of merges of
    /// the same cuts (empty pieces included).
    #[test]
    fn abs_stats_are_summary_stats_projected(
        picks in proptest::collection::vec(0u32..16, 0..96),
        ordinary in proptest::collection::vec(-1e3f32..1e3, 96),
        cuts in proptest::collection::vec(0usize..97, 0..6),
    ) {
        let values = awkward(&picks, &ordinary);
        let summary = SummaryStats::from_slice(&values);
        let abs = AbsStats::from_slice(&values);
        prop_assert_eq!(summary.abs(), abs);
        prop_assert_eq!(abs_bits(&summary.abs()), abs_bits(&abs));

        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(values.len())).collect();
        cuts.sort_unstable();
        let mut merged_summary = SummaryStats::new();
        let mut merged_abs = AbsStats::new();
        let mut start = 0;
        for end in cuts.into_iter().chain([values.len()]) {
            merged_summary.merge(&SummaryStats::from_slice(&values[start..end]));
            merged_abs.merge(&AbsStats::from_slice(&values[start..end]));
            start = end;
        }
        prop_assert_eq!(merged_summary.abs(), merged_abs);
        prop_assert_eq!(abs_bits(&merged_summary.abs()), abs_bits(&merged_abs));
    }

    /// All histogram mass is accounted for (bins + underflow + overflow).
    #[test]
    fn histogram_conserves_mass(
        data in proptest::collection::vec(-10.0f64..10.0, 1..200),
        lo in -5.0f64..-0.1,
        hi in 0.1f64..5.0,
        bins in 1usize..32,
    ) {
        let mut h = Histogram::new(lo, hi, bins).unwrap();
        for &x in &data {
            h.push(x);
        }
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), h.total());
        prop_assert_eq!(h.total(), data.len() as u64);
    }

    /// CDFs are monotone and bounded for all three parametrised
    /// distributions.
    #[test]
    fn cdfs_are_monotone(
        scale in 0.01f64..10.0,
        a in -20.0f64..20.0,
        b in -20.0f64..20.0,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let lap = Laplace::new(0.0, scale).unwrap();
        let gauss = Gaussian::new(0.0, scale).unwrap();
        let exp = Exponential::new(1.0 / scale).unwrap();
        for cdf in [&lap.cdf(lo), &gauss.cdf(lo), &exp.cdf(lo)] {
            prop_assert!((0.0..=1.0).contains(cdf));
        }
        prop_assert!(lap.cdf(lo) <= lap.cdf(hi) + 1e-12);
        prop_assert!(gauss.cdf(lo) <= gauss.cdf(hi) + 1e-12);
        prop_assert!(exp.cdf(lo) <= exp.cdf(hi) + 1e-12);
    }

    /// The KS statistic of a sample against its own empirical source is
    /// bounded by 1 and decreases with sample size for the true model.
    #[test]
    fn ks_statistic_bounded(seed in 0u64..1000, scale in 0.05f64..5.0) {
        let lap = Laplace::new(0.0, scale).unwrap();
        let mut rng = seeded(seed);
        let xs = lap.sample_vec(&mut rng, 500);
        let d = ks_statistic(&xs, |x| lap.cdf(x));
        prop_assert!((0.0..=1.0).contains(&d));
        // 99.9% band for n = 500.
        prop_assert!(d < 1.95 / (500f64).sqrt(), "KS {d} too large");
    }

    /// Sampling is deterministic per seed and sensitive to it.
    #[test]
    fn sampling_deterministic(seed in 0u64..10_000) {
        let lap = Laplace::new(0.0, 1.0).unwrap();
        let a = lap.sample_vec(&mut seeded(seed), 16);
        let b = lap.sample_vec(&mut seeded(seed), 16);
        prop_assert_eq!(a, b);
    }

    /// The bulk sampler gives every slot exactly the bits of the
    /// per-value path, `sample() as f32`, and leaves the stream where
    /// the per-value path does.
    #[test]
    fn laplace_fill_f32_is_sample_as_f32_bit_for_bit(
        seed in any::<u64>(),
        log_b in -6.0f64..3.0,
    ) {
        let b = 10f64.powf(log_b);
        for mu in [0.0, 1e-3, -1e-3, 20.0, -20.0] {
            let lap = Laplace::new(mu, b).unwrap();
            for len in [0, 1, 255, 256, 257, 1024] {
                let mut bulk = seeded(seed);
                let mut single = seeded(seed);
                let mut out = vec![0.0f32; len];
                lap.fill_f32(&mut bulk, &mut out);
                for (i, &x) in out.iter().enumerate() {
                    let want = lap.sample(&mut single) as f32;
                    prop_assert_eq!(
                        x.to_bits(),
                        want.to_bits(),
                        "mu {}, b {}, len {}, slot {}",
                        mu,
                        b,
                        len,
                        i
                    );
                }
                prop_assert_eq!(bulk.next_u64(), single.next_u64());
            }
        }
    }
}

/// `count`, `max|Y|` and `Σ|Y|` as bits: NaN sums compare by payload.
fn raw_bits(stats: &AbsStats) -> (u64, u64, u64) {
    (
        stats.count(),
        stats.abs_max().to_bits(),
        stats.sum_abs().to_bits(),
    )
}

/// The NaNs of the kernel test: quiet and signalling, of both signs,
/// with and without a payload.
const KERNEL_NANS: [u32; 4] = [0x7fc0_0000, 0xffc1_2345, 0x7f80_0001, 0xff80_4321];

/// A value for the statistics kernel: mostly ordinary, otherwise one of
/// the specials `|·|`, `max` and the sums must treat as a push does, or
/// the NaN `nan` (when given; most rows keep a finite sum).
fn kernel_value(rng: &mut impl RngCore, nan: Option<u32>) -> f32 {
    const SPECIALS: [u32; 10] = [
        0x0000_0000, // +0
        0x8000_0000, // -0
        0x0000_0001, // smallest subnormal
        0x8020_0000, // negative subnormal
        0x007f_ffff, // largest subnormal
        0x7f7f_ffff, // f32::MAX
        0xff7f_ffff, // -f32::MAX
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x3f40_0000, // 0.75
    ];
    let pick = rng.next_u32();
    if !pick.is_multiple_of(4) {
        return (pick >> 8) as f32 / (1u32 << 20) as f32 - 8.0;
    }
    match (nan, (pick >> 2) as usize % (SPECIALS.len() + 2)) {
        (Some(bits), i) if i >= SPECIALS.len() => f32::from_bits(bits),
        (_, i) => f32::from_bits(SPECIALS[i % SPECIALS.len()]),
    }
}

/// `AbsStats::push_slice` equals one `push` per value into both the
/// running accumulator and a fresh one, bit for bit, at every length up
/// to 70 and at 1024 (every lane width and remainder), after prefixes
/// that may already hold a NaN sum.
///
/// A case holds at most one NaN bit pattern: where two NaN payloads meet
/// in a sum, which one survives is left open by Rust's float semantics,
/// and two copies of the per-value loop already disagree on it.
#[test]
fn push_slice_equals_per_value_pushes_bit_for_bit() {
    for seed in [3u64, 17, 29] {
        let mut rng = seeded(seed);
        for len in (0..=70).chain([1024]) {
            let pick = rng.next_u32() as usize;
            let nan = pick
                .is_multiple_of(3)
                .then(|| KERNEL_NANS[pick / 3 % KERNEL_NANS.len()]);
            let prefix: Vec<f32> = (0..rng.next_u32() % 5)
                .map(|_| kernel_value(&mut rng, nan))
                .collect();
            let row: Vec<f32> = (0..len).map(|_| kernel_value(&mut rng, nan)).collect();

            let mut want_total = AbsStats::new();
            prefix.iter().for_each(|&v| want_total.push(v));
            let mut got_total = want_total;
            let mut want_row = AbsStats::new();
            for &v in &row {
                want_total.push(v);
                want_row.push(v);
            }
            let got_row = got_total.push_slice(&row);

            let ctx =
                format!("seed {seed}, len {len}, nan {nan:x?}, prefix {prefix:?}, row {row:?}");
            assert_eq!(raw_bits(&got_row), raw_bits(&want_row), "row: {ctx}");
            assert_eq!(raw_bits(&got_total), raw_bits(&want_total), "total: {ctx}");
            let from_slice = AbsStats::from_slice(&row);
            assert_eq!(raw_bits(&from_slice), raw_bits(&want_row), "{ctx}");
        }
    }
}
