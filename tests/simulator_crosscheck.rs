//! Cross-verification of the timing models — the reproduction's
//! analogue of the paper's "cycle-accurate simulator cross-verified
//! with the RTL implementation".

use drift::accel::dram::{DramConfig, DramSim};
use drift::accel::gemm::{GemmShape, GemmWorkload};
use drift::accel::systolic::{
    analytical_cycles, pass_count, simulate_stream, simulate_stream_stepped, ArrayGeometry,
};
use drift::core::arch::paper_fabric;
use drift::core::schedule::{balanced_schedule, oracle_lower_bound, quadrant_latency};
use drift::quant::Precision;
use proptest::prelude::*;

proptest! {
    /// The closed-form stream model equals the cycle-stepped reference
    /// for arbitrary occupancy streams.
    #[test]
    fn stream_closed_form_matches_stepped(
        occupancies in proptest::collection::vec(1u32..5, 1..200),
        rows in 1usize..32,
        cols in 1usize..32,
    ) {
        let geo = ArrayGeometry::new(rows, cols).unwrap();
        let closed = simulate_stream(&occupancies, geo, 1).total_cycles;
        let stepped = simulate_stream_stepped(&occupancies, geo);
        prop_assert_eq!(closed, stepped);
    }

    /// The per-row DRAM walk equals the per-burst reference on random
    /// organisations (rows need not hold a whole number of bursts),
    /// unaligned addresses, and sequences of streams that revisit each
    /// other's rows, so open-row state carries from one stream into the
    /// next. Cycles must match per stream; hits, misses, bytes and the
    /// bits of the energy total must match after every stream.
    #[test]
    fn dram_row_walk_matches_stepped(
        channels in 1usize..6,
        banks in 1usize..9,
        burst_bytes in 1u64..129,
        bursts_per_row in 1u64..40,
        row_slack in 0u64..128,
        e_activate_pj in 0.1f64..3000.0,
        e_read_pj_per_byte in 0.1f64..40.0,
        e_write_pj_per_byte in 0.1f64..40.0,
        addrs in proptest::collection::vec(0u64..200_000, 1..10),
        lens in proptest::collection::vec(0u64..40_000, 10),
        writes in proptest::collection::vec(any::<bool>(), 10),
    ) {
        let config = DramConfig {
            channels,
            banks_per_channel: banks,
            row_bytes: burst_bytes * bursts_per_row + row_slack % burst_bytes,
            burst_bytes,
            e_activate_pj,
            e_read_pj_per_byte,
            e_write_pj_per_byte,
            ..DramConfig::default()
        };
        let mut walk = DramSim::new(config).unwrap();
        let mut stepped = DramSim::new(config).unwrap();
        for (i, &addr) in addrs.iter().enumerate() {
            let (bytes, write) = (lens[i], writes[i]);
            prop_assert_eq!(
                walk.stream(addr, bytes, write),
                stepped.stream_stepped(addr, bytes, write),
                "stream {} ({} bytes at {})", i, bytes, addr
            );
            let (a, b) = (walk.stats(), stepped.stats());
            prop_assert_eq!(a.row_hits, b.row_hits);
            prop_assert_eq!(a.row_misses, b.row_misses);
            prop_assert_eq!(a.read_bytes, b.read_bytes);
            prop_assert_eq!(a.write_bytes, b.write_bytes);
            prop_assert_eq!(a.energy_pj.to_bits(), b.energy_pj.to_bits());
        }
    }

    /// A stall-free stream reproduces Eq. 7 exactly.
    #[test]
    fn uniform_stream_equals_eq7(
        m in 1usize..500,
        k in 1usize..2048,
        n in 1usize..2048,
        rows in 1usize..32,
        cols in 1usize..40,
    ) {
        let shape = GemmShape::new(m, k, n).unwrap();
        let geo = ArrayGeometry::new(rows, cols).unwrap();
        let passes = pass_count(shape, Precision::INT8, Precision::INT4, geo);
        let report = simulate_stream(&vec![1u32; m], geo, passes);
        prop_assert_eq!(
            report.total_cycles,
            analytical_cycles(shape, Precision::INT8, Precision::INT4, geo)
        );
        prop_assert_eq!(report.stall_cycles, 0);
    }

    /// Eq. 7 monotonicity: more precision bits never cost fewer cycles.
    #[test]
    fn eq7_monotone_in_precision(
        m in 1usize..300,
        k in 1usize..1024,
        n in 1usize..1024,
    ) {
        let shape = GemmShape::new(m, k, n).unwrap();
        let geo = paper_fabric();
        let c44 = analytical_cycles(shape, Precision::INT4, Precision::INT4, geo);
        let c84 = analytical_cycles(shape, Precision::INT8, Precision::INT4, geo);
        let c88 = analytical_cycles(shape, Precision::INT8, Precision::INT8, geo);
        prop_assert!(c44 <= c84);
        prop_assert!(c84 <= c88);
    }

    /// The balanced schedule is feasible, at least as good as any
    /// single-quadrant whole-fabric run of the dominant tile, and never
    /// beats the perfect-balance oracle.
    #[test]
    fn schedule_is_sound(
        m in 8usize..512,
        n in 8usize..512,
        fa in 0.0f64..1.0,
        fw in 0.0f64..1.0,
    ) {
        let shape = GemmShape::new(m, 512, n).unwrap();
        let ah = (m as f64 * fa) as usize;
        let wh = (n as f64 * fw) as usize;
        let w = GemmWorkload::new(
            "prop",
            shape,
            (0..m).map(|i| i < ah).collect(),
            (0..n).map(|j| j < wh).collect(),
        )
        .unwrap();
        let quads = w.quadrants();
        let schedule = balanced_schedule(paper_fabric(), &quads).unwrap();
        // Lower bound.
        let lb = oracle_lower_bound(paper_fabric(), &quads);
        prop_assert!(schedule.makespan as f64 >= lb - 1e-9);
        // Within pass-quantisation slack of serialising everything on
        // the whole fabric. (A concurrent column-split partition can
        // legitimately exceed the serial sum when a tile's column-pass
        // ceiling jumps at the narrower width, so equality is not a
        // sound bound — but 4x plus a constant is.)
        let serial: u64 = quads
            .iter()
            .map(|q| quadrant_latency(q, Some(paper_fabric())).unwrap())
            .sum();
        prop_assert!(schedule.makespan <= serial * 4 + 10_000);
        // Makespan is the max of the reported latencies.
        prop_assert_eq!(
            schedule.makespan,
            schedule.latencies.into_iter().max().unwrap()
        );
    }
}

/// The four-array execution conserves work: Drift's busy BG-cycles for
/// a mixed workload never exceed BitFusion's all-INT8 busy cycles on
/// the same GEMM (lower precision strictly reduces bit-work).
#[test]
fn drift_busy_cycles_bounded_by_int8_work() {
    use drift::accel::accelerator::Accelerator;
    use drift::accel::bitfusion::BitFusion;
    use drift::core::accelerator::DriftAccelerator;

    let shape = GemmShape::new(256, 512, 512).unwrap();
    let w = GemmWorkload::new(
        "mixed",
        shape,
        (0..256).map(|i| i % 5 == 0).collect(),
        (0..512).map(|j| j % 4 == 0).collect(),
    )
    .unwrap();
    let mut drift = DriftAccelerator::paper_config().unwrap();
    let rd = drift.execute(&w).unwrap();
    let mut bf = BitFusion::int8().unwrap();
    let rb = bf
        .execute(&GemmWorkload::uniform("hi", shape, false))
        .unwrap();
    assert!(
        rd.busy_unit_cycles <= rb.busy_unit_cycles,
        "drift work {} exceeds int8 work {}",
        rd.busy_unit_cycles,
        rb.busy_unit_cycles
    );
}
