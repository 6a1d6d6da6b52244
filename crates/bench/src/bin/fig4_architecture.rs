//! Figure 4: the architecture overview of Drift — component inventory,
//! configuration, and a functional demonstration of one layer flowing
//! through selector → index buffer → dispatcher → split fabric, with
//! the register-level fabric simulation cross-checked against the
//! exact integer GEMM.
//!
//! ```text
//! cargo run --release -p drift-bench --bin fig4_architecture
//! ```

use drift_accel::dram::DramConfig;
use drift_accel::energy::EnergyModel;
use drift_accel::gemm::{GemmShape, GemmWorkload};
use drift_accel::memory::BufferSet;
use drift_bench::render_table;
use drift_core::arch::controller::{PrecisionController, INDEX_ENTRY_BITS};
use drift_core::arch::dispatch::DispatchPlan;
use drift_core::arch::functional::FunctionalArray;
use drift_core::arch::paper_fabric;
use drift_core::selector::DriftPolicy;
use drift_quant::intgemm::{int_gemm, CodedMatrix};
use drift_quant::linear::QuantParams;
use drift_quant::policy::{PrecisionPolicy, TensorContext};
use drift_quant::precision::Precision;
use drift_tensor::stats::AbsStats;
use drift_tensor::Tensor;

fn main() {
    println!("== Figure 4: Drift architecture overview ==\n");
    let fabric = paper_fabric();
    let buffers = BufferSet::drift_default();
    let dram = DramConfig::default();
    let energy = EnergyModel::default();
    let rows = vec![
        vec![
            "computing engine".to_string(),
            format!(
                "{}x{} BitGroups = {} units (4x4 BitBricks each, 1x4-bit)",
                fabric.rows,
                fabric.cols,
                fabric.units()
            ),
        ],
        vec![
            "dataflow".to_string(),
            "weight-stationary; bidirectional BG links; splits into <=4 arrays".to_string(),
        ],
        vec![
            "global buffer".to_string(),
            format!(
                "{} KiB (activations/outputs)",
                buffers.global.capacity_bytes() >> 10
            ),
        ],
        vec![
            "weight buffer".to_string(),
            format!("{} KiB", buffers.weight.capacity_bytes() >> 10),
        ],
        vec![
            "index buffer".to_string(),
            format!(
                "{} KiB ({} bits/entry: precision flag + hc code)",
                buffers.index.capacity_bytes() >> 10,
                INDEX_ENTRY_BITS
            ),
        ],
        vec![
            "controller".to_string(),
            "precision selector (2 comparisons/sub-tensor) + Eq. 8 scheduler".to_string(),
        ],
        vec![
            "DRAM".to_string(),
            format!(
                "{} ch x {} banks, {} B bursts, peak {:.0} B/cycle",
                dram.channels,
                dram.banks_per_channel,
                dram.burst_bytes,
                dram.peak_bytes_per_cycle()
            ),
        ],
        vec![
            "energy model".to_string(),
            format!(
                "BG {:.2} pJ/cycle, leak {:.2} pJ/unit/cycle",
                energy.e_bg_cycle_pj, energy.static_pj_per_unit_cycle
            ),
        ],
    ];
    println!("{}", render_table(&["component", "configuration"], &rows));

    // Area: the "no additional area overheads" claim, quantified.
    let area_model = drift_accel::area::AreaModel::default();
    let drift_area = drift_accel::area::drift_area(&area_model, fabric, &buffers);
    let bf_area = drift_accel::area::bitfusion_area(&area_model, fabric, &buffers);
    println!(
        "area (40 nm model): drift {:.2} mm2 vs bitfusion-class {:.2} mm2;",
        drift_area.total_mm2(),
        bf_area.total_mm2()
    );
    println!(
        "dynamic-precision support (links + index + controller) = {:.1}% of the die\n",
        drift_area.dynamic_precision_overhead() * 100.0
    );

    // Functional walk-through: one small GEMM through the whole control
    // path.
    println!("== functional walk-through (selector -> index -> dispatch -> fabric) ==\n");
    let acts = Tensor::from_fn(vec![8, 12], |i| {
        let token = i / 12;
        0.02 * (1 + token * token) as f32 * (((i * 29) % 13) as f32 - 6.0) / 6.0
    })
    .expect("valid dims");
    let weights =
        Tensor::from_fn(vec![12, 6], |i| ((i * 17 % 11) as f32 - 5.0) * 0.07).expect("valid dims");

    let policy = DriftPolicy::new(0.3).expect("valid delta");
    let ca = CodedMatrix::encode_rows(&acts, Precision::INT8, &policy).expect("encodes");
    let cb = CodedMatrix::encode_cols(&weights, Precision::INT8, &policy).expect("encodes");

    // Index buffer filled by the selector.
    let mut controller = PrecisionController::drift_default();
    let global = AbsStats::from_slice(acts.as_slice());
    let ctx = TensorContext {
        global,
        params: QuantParams::from_abs_max(global.abs_max(), Precision::INT8),
    };
    let mut act_high = Vec::new();
    for r in 0..8 {
        let row = &acts.as_slice()[r * 12..(r + 1) * 12];
        let d = policy.decide(&ctx, &AbsStats::from_slice(row));
        act_high.push(!d.is_low());
        controller.record(r, d).expect("index buffer has room");
    }
    println!(
        "selector: {} comparisons, {} index bits used",
        controller.comparisons(),
        controller.used_bits()
    );

    // Dispatcher consults the index buffer.
    let shape = GemmShape::new(8, 12, 6).expect("valid shape");
    let weight_high: Vec<bool> = (0..6)
        .map(|c| cb.precisions()[c] == Precision::INT8)
        .collect();
    let workload =
        GemmWorkload::new("walkthrough", shape, act_high, weight_high).expect("valid maps");
    let plan = DispatchPlan::build(&workload, Some(&controller)).expect("plan builds");
    println!(
        "dispatcher: {} lookups; streams h/l rows = {}/{}, h/l cols = {}/{}",
        plan.lookups,
        plan.high_rows.len(),
        plan.low_rows.len(),
        plan.high_cols.len(),
        plan.low_cols.len()
    );

    // Register-level fabric vs exact integer GEMM.
    let arr = FunctionalArray::new(4, 4).expect("valid extents");
    let (raw, cycles) = arr
        .run_gemm(ca.codes(), cb.codes(), 8, 12, 6)
        .expect("operands match");
    let reference = int_gemm(&ca, &cb).expect("layouts match");
    let mut max_err = 0.0f64;
    for i in 0..8 {
        for j in 0..6 {
            let v = raw[i * 6 + j] as f64 * ca.scales()[i] * cb.scales()[j];
            max_err = max_err.max((v - f64::from(reference.as_slice()[i * 6 + j])).abs());
        }
    }
    println!(
        "fabric: register-level GEMM in {cycles} cycles; max deviation from the \
         exact integer path = {max_err:.2e}"
    );
    println!("\n(the paper's Fig. 4 is the block diagram; this binary prints the");
    println!("same inventory and proves the blocks compose functionally.)");
}
