//! Property-based tests for the accelerator simulation substrate.

use drift_accel::accelerator::Accelerator;
use drift_accel::bitfusion::BitFusion;
use drift_accel::dram::{DramConfig, DramSim};
use drift_accel::drq::DrqAccelerator;
use drift_accel::eyeriss::Eyeriss;
use drift_accel::gemm::{GemmShape, GemmWorkload};
use drift_accel::systolic::{
    analytical_cycles, fused_occupancy, pass_count, simulate_stream, simulate_stream_stepped,
    simulate_uniform_stream, ArrayGeometry,
};
use drift_quant::Precision;
use proptest::prelude::*;

proptest! {
    /// Stream latency is monotone in occupancy: widening any element's
    /// occupancy never speeds the pass up.
    #[test]
    fn stream_monotone_in_occupancy(
        occ in proptest::collection::vec(1u32..4, 1..100),
        bump in 0usize..100,
        rows in 1usize..16,
        cols in 1usize..16,
    ) {
        let geo = ArrayGeometry::new(rows, cols).unwrap();
        let base = simulate_stream(&occ, geo, 1);
        let mut widened = occ.clone();
        let idx = bump % widened.len();
        widened[idx] += 1;
        let more = simulate_stream(&widened, geo, 1);
        prop_assert_eq!(more.total_cycles, base.total_cycles + 1);
        prop_assert_eq!(more.stall_cycles, base.stall_cycles + 1);
        prop_assert!(more.busy_bg_cycles > base.busy_bg_cycles);
    }

    /// The all-ones stream's closed form is the general stream model of
    /// that stream, whose one-pass latency the cycle-stepped oracle
    /// reproduces.
    #[test]
    fn uniform_stream_matches_the_stepped_oracle(
        m in 0usize..300,
        rows in 1usize..16,
        cols in 1usize..16,
        passes in 0u64..5,
    ) {
        let geo = ArrayGeometry::new(rows, cols).unwrap();
        let ones = vec![1u32; m];
        let uniform = simulate_uniform_stream(m, geo, passes);
        prop_assert_eq!(uniform, simulate_stream(&ones, geo, passes));
        prop_assert_eq!(uniform.stall_cycles, 0);
        prop_assert_eq!(
            simulate_uniform_stream(m, geo, 1).total_cycles,
            simulate_stream_stepped(&ones, geo)
        );
    }

    /// Pass counts and Eq. 7 latency are monotone in every GEMM
    /// dimension.
    #[test]
    fn eq7_monotone_in_dimensions(
        m in 1usize..200,
        k in 1usize..1000,
        n in 1usize..1000,
    ) {
        let geo = ArrayGeometry::new(24, 33).unwrap();
        let s = GemmShape::new(m, k, n).unwrap();
        let bigger = GemmShape::new(m + 1, k + 16, n + 16).unwrap();
        let (pa, pw) = (Precision::INT8, Precision::INT8);
        prop_assert!(pass_count(bigger, pa, pw, geo) >= pass_count(s, pa, pw, geo));
        prop_assert!(
            analytical_cycles(bigger, pa, pw, geo) >= analytical_cycles(s, pa, pw, geo)
        );
    }

    /// Fused occupancy is 1 exactly when the fused widths cover the
    /// data widths.
    #[test]
    fn fused_occupancy_covers(pa in 1u8..=8, pw in 1u8..=8, fa in 1u8..=8, fw in 1u8..=8) {
        let occ = fused_occupancy(
            Precision::new(pa).unwrap(),
            Precision::new(pw).unwrap(),
            Precision::new(fa).unwrap(),
            Precision::new(fw).unwrap(),
        );
        if pa <= fa && pw <= fw {
            prop_assert_eq!(occ, 1);
        } else {
            prop_assert!(occ > 1);
        }
    }

    /// The DRAM simulator accounts every byte exactly once and its
    /// latency is monotone in transfer size.
    #[test]
    fn dram_byte_conservation(bytes in 1u64..(1 << 18), write in any::<bool>()) {
        let mut dram = DramSim::new(DramConfig::default()).unwrap();
        let c1 = dram.stream(0, bytes, write);
        prop_assert_eq!(dram.stats().total_bytes(), bytes);
        prop_assert!(c1 > 0);
        let mut dram2 = DramSim::new(DramConfig::default()).unwrap();
        let c2 = dram2.stream(0, bytes * 2, write);
        prop_assert!(c2 >= c1);
        // Hits + misses = bursts.
        let bursts = bytes.div_ceil(64);
        prop_assert_eq!(dram.stats().row_hits + dram.stats().row_misses, bursts);
    }

    /// Every accelerator produces internally consistent reports on
    /// random workloads: positive cycles, all energy terms set, and
    /// total cycles at least both compute and DRAM sides.
    #[test]
    fn reports_are_consistent(
        m in 1usize..300,
        k in 8usize..512,
        n in 8usize..512,
        frac in 0.0f64..1.0,
    ) {
        let shape = GemmShape::new(m, k, n).unwrap();
        let high = (m as f64 * frac) as usize;
        let w = GemmWorkload::new(
            "prop",
            shape,
            (0..m).map(|i| i < high).collect(),
            vec![false; n],
        )
        .unwrap();
        let uniform = GemmWorkload::uniform("u", shape, false);

        let mut eyeriss = Eyeriss::paper_config().unwrap();
        let mut bitfusion = BitFusion::int8().unwrap();
        let mut drq = DrqAccelerator::paper_config().unwrap();
        let reports = [
            eyeriss.execute(&uniform).unwrap(),
            bitfusion.execute(&uniform).unwrap(),
            drq.execute(&w).unwrap(),
        ];
        for r in &reports {
            prop_assert!(r.cycles > 0);
            prop_assert!(r.cycles >= r.compute_cycles.max(r.dram_cycles).min(r.cycles));
            prop_assert!(r.energy.total_pj() > 0.0);
            prop_assert!(r.energy.static_pj > 0.0);
            prop_assert!(r.busy_unit_cycles > 0);
        }
        // BitFusion INT8 is stall-free on uniform streams; DRQ stalls
        // exactly when high-precision rows exist.
        prop_assert_eq!(reports[1].stall_cycles, 0);
        if high == 0 {
            prop_assert_eq!(reports[2].stall_cycles, 0);
        }
    }

    /// Low-precision workloads never move more bytes than high.
    #[test]
    fn byte_monotonicity(m in 1usize..100, k in 8usize..256, n in 8usize..256) {
        let shape = GemmShape::new(m, k, n).unwrap();
        let hi = GemmWorkload::uniform("hi", shape, false);
        let lo = GemmWorkload::uniform("lo", shape, true);
        prop_assert!(lo.act_bytes() <= hi.act_bytes());
        prop_assert!(lo.weight_bytes() <= hi.weight_bytes());
        // Quadrant MACs always partition the GEMM.
        let mixed = GemmWorkload::new(
            "m",
            shape,
            (0..m).map(|i| i % 3 == 0).collect(),
            (0..n).map(|j| j % 2 == 0).collect(),
        )
        .unwrap();
        let total: u64 = mixed.quadrants().iter().map(|q| q.macs()).sum();
        prop_assert_eq!(total, shape.macs());
    }
}
