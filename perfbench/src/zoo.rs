//! `paper-zoo`: the Fig. 7/8 comparison of Eyeriss, BitFusion, DRQ and
//! Drift over the five zoo models, in one thread with no network.
//!
//! A sweep runs the body of `drift_bench::compare_model` — the same
//! public calls in the same order — one GEMM layer at a time, so each
//! layer simulated on all four accelerators is one timed request. The
//! check compares every sweep's totals with `compare_model` itself and
//! with the values recorded in [`REFERENCE`].
//!
//! The models are lowered at [`PAPER_SEED`], as `fig7_latency` and
//! `fig8_energy` lower them: `zoo_layers_per_s` is stated at that one
//! input. The run's seed only rotates the order of the models in a
//! sweep. Lowered at the run's seed instead, the precision maps — and
//! with them the simulation cost — moved `ok_per_s` by a fifth between
//! seeds.

use crate::layers::{per_call_ns, scheduled_execution, solve_us, traffic, Layers};
use crate::stats::{Failure, LatencyHistogram, Tally};
use drift_accel::accelerator::{total_report, Accelerator, ExecReport};
use drift_accel::bitfusion::BitFusion;
use drift_accel::drq::DrqAccelerator;
use drift_accel::eyeriss::Eyeriss;
use drift_accel::gemm::GemmWorkload;
use drift_bench::{compare_model, dynamic_workloads, geomean, scale_report, ModelComparison};
use drift_core::accelerator::DriftAccelerator;
use drift_core::schedule::ScheduleKey;
use drift_nn::lower::{model_low_fraction, GemmOp};
use drift_nn::zoo::{hardware_eval_models, ModelDesc};
use std::time::{Duration, Instant};

/// The seed `fig7_latency` and `fig8_energy` use; [`REFERENCE`] holds
/// its results.
pub const PAPER_SEED: u64 = 42;

/// One model's recorded totals, in (eyeriss, bitfusion, drq, drift)
/// order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelRef {
    /// Model name.
    pub model: &'static str,
    /// Simulated cycles.
    pub cycles: [u64; 4],
    /// Simulated energy, pJ.
    pub energy_pj: [f64; 4],
}

/// Per-model totals at [`PAPER_SEED`], printed by `--print-reference`.
pub const REFERENCE: [ModelRef; 5] = [
    ModelRef {
        model: "ResNet18",
        cycles: [21136862, 3563594, 2480507, 1863644],
        energy_pj: [20263270483.2, 4738589169.6, 3060924828.0, 2348402683.0],
    },
    ModelRef {
        model: "ResNet50",
        cycles: [33863365, 7031436, 4595289, 3475102],
        energy_pj: [34594502764.8, 9174853897.2, 5719608219.6, 4218278861.2],
    },
    ModelRef {
        model: "ViT-B",
        cycles: [151845224, 31800032, 27559990, 13328443],
        energy_pj: [
            163302697696.0,
            41685581303.600006,
            31244697962.0,
            16722558835.2,
        ],
    },
    ModelRef {
        model: "DeiT-S",
        cycles: [28269780, 8481136, 6684976, 3399191],
        energy_pj: [34968873840.0, 11009775546.8, 7796997537.2, 4206676004.8],
    },
    ModelRef {
        model: "BERT",
        cycles: [106298908, 23344224, 14919880, 8963200],
        energy_pj: [
            110020400969.6,
            28606739507.6,
            17865444803.6,
            9995122624.400002,
        ],
    },
];

/// Fig. 7 then Fig. 8 geomeans at [`PAPER_SEED`]: speed-up (energy
/// reduction) over Eyeriss of BitFusion, DRQ, Drift, then Drift over
/// BitFusion and over DRQ.
pub const REFERENCE_GEOMEANS: [f64; 10] = [
    4.604748803511378,
    6.362167421698935,
    10.442750001960235,
    2.267821861204906,
    1.6413824581767507,
    3.779869377338186,
    5.654388847558239,
    9.124002950588245,
    2.413840807645432,
    1.6136143439318473,
];

/// The totals of one comparison, in [`ModelRef`] form.
pub fn model_ref(cmp: &ModelComparison) -> ([u64; 4], [f64; 4]) {
    let all = [&cmp.eyeriss, &cmp.bitfusion, &cmp.drq, &cmp.drift];
    (all.map(|r| r.cycles), all.map(|r| r.energy.total_pj()))
}

/// The Fig. 7/8 geomean ratios of a sweep (see [`REFERENCE_GEOMEANS`]).
pub fn geomeans(sweep: &[ModelComparison]) -> [f64; 10] {
    let mut out = [0.0; 10];
    for (half, ratios) in [
        sweep
            .iter()
            .map(ModelComparison::speedups)
            .collect::<Vec<_>>(),
        sweep
            .iter()
            .map(ModelComparison::energy_reductions)
            .collect(),
    ]
    .iter()
    .enumerate()
    {
        let col = |f: &dyn Fn(&[f64; 3]) -> f64| geomean(&ratios.iter().map(f).collect::<Vec<_>>());
        out[half * 5..half * 5 + 5].copy_from_slice(&[
            col(&|r| r[0]),
            col(&|r| r[1]),
            col(&|r| r[2]),
            col(&|r| r[2] / r[0]),
            col(&|r| r[2] / r[1]),
        ]);
    }
    out
}

/// The five models lowered at [`PAPER_SEED`]: the workload's input.
pub type ZooInput = Vec<(ModelDesc, Vec<(GemmOp, GemmWorkload)>)>;

/// Set-up: lowers the five models (with Drift's policy annotations),
/// in an order rotated by `seed`, and builds the four accelerators
/// once.
///
/// # Errors
///
/// Propagates lowering and build errors.
pub fn set_up(seed: u64) -> Result<ZooInput, String> {
    build_accelerators()?;
    let mut models = hardware_eval_models();
    let len = models.len() as u64;
    models.rotate_left((seed % len) as usize);
    models
        .into_iter()
        .map(|desc| dynamic_workloads(&desc, PAPER_SEED).map(|w| (desc, w)))
        .collect()
}

type Accels = (Eyeriss, BitFusion, DrqAccelerator, DriftAccelerator);

fn build_accelerators() -> Result<Accels, String> {
    Ok((
        Eyeriss::paper_config().map_err(|e| e.to_string())?,
        BitFusion::int8().map_err(|e| e.to_string())?,
        DrqAccelerator::paper_config().map_err(|e| e.to_string())?,
        DriftAccelerator::paper_config().map_err(|e| e.to_string())?,
    ))
}

/// Per-accelerator busy time, µs per layer, when a sweep is traced.
pub type AccelTimes = [Vec<f64>; 4];

/// Runs one model layer by layer on fresh accelerators, recording each
/// layer's time (µs) in `latencies`; with `per_accel`, also each
/// accelerator's own time.
///
/// # Errors
///
/// Propagates execution errors.
pub fn simulate_model(
    desc: &ModelDesc,
    dynamic: &[(GemmOp, GemmWorkload)],
    latencies: &mut LatencyHistogram,
    mut per_accel: Option<&mut AccelTimes>,
) -> Result<ModelComparison, String> {
    let (mut eyeriss, mut bitfusion, mut drq, mut drift) = build_accelerators()?;
    let mut rows: [Vec<ExecReport>; 4] = [vec![], vec![], vec![], vec![]];
    for (op, workload) in dynamic {
        let start = Instant::now();
        let uniform = GemmWorkload::uniform(op.name.clone(), op.shape, false);
        let mut marks = [start; 5];
        let runs: [Result<ExecReport, drift_accel::AccelError>; 4] = [
            eyeriss.execute(&uniform),
            {
                marks[1] = Instant::now();
                bitfusion.execute(&uniform)
            },
            {
                marks[2] = Instant::now();
                drq.execute(workload)
            },
            {
                marks[3] = Instant::now();
                drift.execute(workload)
            },
        ];
        marks[4] = Instant::now();
        if let Some(times) = per_accel.as_deref_mut() {
            for (slot, t) in times.iter_mut().enumerate() {
                t.push(marks[slot + 1].duration_since(marks[slot]).as_secs_f64() * 1e6);
            }
        }
        for (slot, run) in runs.into_iter().enumerate() {
            let report = run.map_err(|e| format!("{}: {e}", op.name))?;
            rows[slot].push(scale_report(&report, op.repeat));
        }
        latencies.record(marks[4].duration_since(start).as_secs_f64() * 1e6);
    }
    let [e, b, q, d] = rows;
    Ok(ModelComparison {
        model: desc.name.clone(),
        eyeriss: total_report(&desc.name, "eyeriss", &e),
        bitfusion: total_report(&desc.name, "bitfusion", &b),
        drq: total_report(&desc.name, "drq", &q),
        drift: total_report(&desc.name, "drift", &d),
        low_fraction: model_low_fraction(dynamic),
    })
}

/// Whether two comparisons agree exactly.
pub fn same(a: &ModelComparison, b: &ModelComparison) -> bool {
    a.model == b.model
        && a.eyeriss == b.eyeriss
        && a.bitfusion == b.bitfusion
        && a.drq == b.drq
        && a.drift == b.drift
        && a.low_fraction.to_bits() == b.low_fraction.to_bits()
}

/// What a timed `paper-zoo` phase measured.
#[derive(Debug, Default)]
pub struct ZooPhase {
    /// Layers attempted and failed (a layer of a sweep that disagrees
    /// with the first sweep is a wrong answer).
    pub tally: Tally,
    /// Per layer, µs.
    pub latencies_us: LatencyHistogram,
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// The first sweep's results.
    pub first: Vec<ModelComparison>,
    /// Whole sweeps run.
    pub sweeps: u64,
}

impl ZooPhase {
    /// Layers simulated correctly per wall second.
    pub fn ok_per_s(&self) -> f64 {
        self.tally.ok as f64 / self.wall_s
    }
}

/// Sweeps the five models until `seconds` have passed and at least
/// `min_layers` layers ran, finishing the sweep in progress.
///
/// # Errors
///
/// Propagates execution errors.
pub fn run_phase(
    input: &ZooInput,
    seconds: f64,
    min_layers: u64,
    mut per_accel: Option<&mut AccelTimes>,
) -> Result<ZooPhase, String> {
    let mut phase = ZooPhase::default();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    while Instant::now() < end || phase.tally.attempted < min_layers {
        for (i, (desc, dynamic)) in input.iter().enumerate() {
            let cmp = simulate_model(
                desc,
                dynamic,
                &mut phase.latencies_us,
                per_accel.as_deref_mut(),
            )?;
            let layers = dynamic.len() as u64;
            if phase.sweeps == 0 {
                phase.first.push(cmp);
            } else if !same(&cmp, &phase.first[i]) {
                phase.tally.fail(Failure::WrongAnswer, layers);
                continue;
            }
            phase.tally.ok(layers);
        }
        phase.sweeps += 1;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    Ok(phase)
}

/// The correctness gate, outside the timed phase: the first sweep must
/// equal `compare_model` for every model, and reproduce [`REFERENCE`]
/// and [`REFERENCE_GEOMEANS`] exactly. Returns the problems found.
///
/// # Errors
///
/// Propagates execution errors.
pub fn check(input: &ZooInput, first: &[ModelComparison]) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    for ((desc, _), got) in input.iter().zip(first) {
        if !same(got, &compare_model(desc, PAPER_SEED)?) {
            problems.push(format!("{}: sweep differs from compare_model", desc.name));
        }
    }
    // Geomeans sum logarithms, so compare them in the recorded order.
    let mut ordered = Vec::new();
    for want in &REFERENCE {
        let Some(cmp) = first.iter().find(|c| c.model == want.model) else {
            problems.push(format!("{}: not simulated", want.model));
            continue;
        };
        let (cycles, energy) = model_ref(cmp);
        if cycles != want.cycles || energy.map(f64::to_bits) != want.energy_pj.map(f64::to_bits) {
            problems.push(format!(
                "{}: cycles {cycles:?} energy {energy:?}, recorded {:?} {:?}",
                cmp.model, want.cycles, want.energy_pj
            ));
        }
        ordered.push(cmp.clone());
    }
    let got = geomeans(&ordered);
    if got.map(f64::to_bits) != REFERENCE_GEOMEANS.map(f64::to_bits) {
        problems.push(format!("geomeans {got:?}, recorded {REFERENCE_GEOMEANS:?}"));
    }
    Ok(problems)
}

/// `REFERENCE` and `REFERENCE_GEOMEANS` as Rust source, for updating
/// them after a deliberate change to the simulator.
///
/// # Errors
///
/// Propagates execution errors.
pub fn reference_source() -> Result<String, String> {
    let paper: Vec<ModelComparison> = hardware_eval_models()
        .iter()
        .map(|desc| compare_model(desc, PAPER_SEED))
        .collect::<Result<_, _>>()?;
    let mut out = String::from("pub const REFERENCE: [ModelRef; 5] = [\n");
    for cmp in &paper {
        let (cycles, energy) = model_ref(cmp);
        out.push_str(&format!(
            "    ModelRef {{\n        model: {:?},\n        cycles: {cycles:?},\n        energy_pj: {energy:?},\n    }},\n",
            cmp.model
        ));
    }
    out.push_str(&format!(
        "];\n\npub const REFERENCE_GEOMEANS: [f64; 10] = {:?};\n",
        geomeans(&paper)
    ));
    Ok(out)
}

/// Per-layer calls on the zoo input: model lowering, the memory
/// subsystem, and Drift's solve and scheduled execution per layer,
/// plus Drift's simulated cycles (counts).
///
/// # Errors
///
/// Propagates lowering and execution errors.
pub fn zoo_layers(layers: &mut Layers, input: &ZooInput) -> Result<(), String> {
    lowering(layers);
    let workloads: Vec<&GemmWorkload> = input
        .iter()
        .flat_map(|(_, dynamic)| dynamic.iter().map(|(_, w)| w))
        .collect();
    let fabric = drift_core::arch::paper_fabric();
    let keys: Vec<ScheduleKey> = workloads
        .iter()
        .map(|w| ScheduleKey::for_workload(w, fabric))
        .collect();
    layers.set("core.solve_us", solve_us(&keys));
    scheduled_execution(layers, &workloads)?;
    traffic(layers, &workloads);
    let mut drift = DriftAccelerator::paper_config().map_err(|e| e.to_string())?;
    let mut cycles = [0.0f64; 3];
    for w in &workloads {
        drift.reset();
        let r = drift.execute(w).map_err(|e| e.to_string())?;
        for (sum, v) in cycles
            .iter_mut()
            .zip([r.cycles, r.compute_cycles, r.dram_cycles])
        {
            *sum += v as f64;
        }
    }
    let n = workloads.len().max(1) as f64;
    layers.set("core.sim_cycles", cycles[0] / n);
    layers.set("core.sim_compute_cycles", cycles[1] / n);
    layers.set("core.sim_dram_cycles", cycles[2] / n);
    Ok(())
}

/// µs per `drift_bench::dynamic_workloads` call: lowering one of the
/// five models, with Drift's policy annotations, at [`PAPER_SEED`].
pub fn lowering(layers: &mut Layers) {
    let models = hardware_eval_models();
    layers.set(
        "nn.model_workloads_us",
        per_call_ns(&models, Duration::from_millis(300), |d| {
            dynamic_workloads(d, PAPER_SEED)
        }) / 1e3,
    );
}

/// Mean per-layer time of each accelerator from a traced phase.
pub fn accel_times(layers: &mut Layers, times: &AccelTimes) {
    for (t, name) in times.iter().zip([
        "accel.execute_us.eyeriss",
        "accel.execute_us.bitfusion",
        "accel.execute_us.drq",
        "accel.execute_us.drift",
    ]) {
        if !t.is_empty() {
            layers.set(name, t.iter().sum::<f64>() / t.len() as f64);
        }
    }
}
