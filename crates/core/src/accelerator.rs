//! The Drift accelerator: fabric + scheduler + memory subsystem behind
//! the common [`Accelerator`] trait.
//!
//! Per layer, execution proceeds as the paper describes:
//!
//! 1. the precision selector has already annotated the workload (its
//!    decisions arrive as the [`GemmWorkload`] precision maps, tracked
//!    by the index buffer);
//! 2. the scheduler solves Eq. 8, partitioning the fabric into four
//!    single-precision systolic arrays sized to the (hh, hl, lh, ll)
//!    work mix;
//! 3. each array streams its tile stall-free (occupancy 1 by
//!    construction); the layer's compute time is the slowest array plus
//!    one reconfiguration;
//! 4. the shared memory subsystem accounts DRAM/buffer traffic with
//!    per-sub-tensor byte widths.

use crate::arch::controller::PrecisionController;
use crate::arch::dispatch::DispatchPlan;
use crate::arch::paper_fabric;
use crate::schedule::{balanced_schedule, equal_schedule, Schedule};
use drift_accel::accelerator::{finish_report, Accelerator, ExecReport, MemorySubsystem};
use drift_accel::energy::EnergyModel;
use drift_accel::gemm::GemmWorkload;
use drift_accel::systolic::{
    pass_count, simulate_uniform_stream, ArrayGeometry, BG_WEIGHT_BIT_LANES,
};
use drift_accel::{AccelError, Result};
use drift_obs::{Recorder, Stage};
use drift_quant::convert::ConversionChoice;
use drift_quant::policy::Decision;
use drift_quant::precision::Precision;
use serde::{Deserialize, Serialize};

/// The low-precision decision the dispatcher records for converted
/// rows: the dispatcher only needs the precision flag, so the
/// range-preserving split stands in for the selector's exact choice.
fn decision_for(hp: Precision, lp: Precision) -> Decision {
    match ConversionChoice::new(hp, lp, 0, hp.bits().saturating_sub(lp.bits())) {
        Ok(choice) => Decision::Convert(choice),
        Err(_) => Decision::Keep,
    }
}

/// Scheduling strategy for the fabric partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// The paper's balanced online scheduler (Eq. 8).
    Balanced,
    /// A static equal 2×2 split (ablation A1).
    EqualStatic,
}

/// The Drift accelerator model.
#[derive(Debug)]
pub struct DriftAccelerator {
    fabric: ArrayGeometry,
    scheduler: SchedulerKind,
    controller: PrecisionController,
    energy: EnergyModel,
    memory: MemorySubsystem,
    last_schedule: Option<Schedule>,
    recorder: Recorder,
}

impl DriftAccelerator {
    /// The paper configuration: a 24×33 fabric (792 BitGroups) with the
    /// balanced scheduler.
    ///
    /// # Errors
    ///
    /// Propagates memory-subsystem construction errors.
    pub fn paper_config() -> Result<Self> {
        DriftAccelerator::new(paper_fabric(), SchedulerKind::Balanced)
    }

    /// Creates a custom configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] for an empty fabric.
    pub fn new(fabric: ArrayGeometry, scheduler: SchedulerKind) -> Result<Self> {
        if fabric.units() == 0 {
            return Err(AccelError::InvalidConfig {
                name: "fabric",
                detail: "empty fabric".to_string(),
            });
        }
        Ok(DriftAccelerator {
            fabric,
            scheduler,
            controller: PrecisionController::drift_default(),
            energy: EnergyModel::default(),
            memory: MemorySubsystem::new()?,
            last_schedule: None,
            recorder: Recorder::disabled(),
        })
    }

    /// Routes this simulator's metrics — per-array busy/idle cycles,
    /// layer cycle totals, reconfigurations, per-stage energy, and the
    /// memory subsystem's DRAM counters — to `recorder`.
    ///
    /// Recording is strictly write-only: reports are bit-identical with
    /// the recorder enabled, disabled (the default), or replaced
    /// mid-run.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.memory.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The schedule chosen for the most recently executed layer
    /// (exposed for the Fig. 5 reproduction and the scheduler ablation).
    pub fn last_schedule(&self) -> Option<&Schedule> {
        self.last_schedule.as_ref()
    }

    /// Clears all cross-layer state: the controller's index buffer, the
    /// memory subsystem's allocator/row/counter state, and the
    /// remembered partition that drives reconfiguration elision.
    ///
    /// After a reset, the next `execute` behaves exactly like the first
    /// call on a freshly built accelerator — which is what lets a worker
    /// pool reuse one simulator per thread while keeping every job's
    /// report independent of which worker ran it (and of job order).
    pub fn reset(&mut self) {
        self.controller.reset();
        self.memory.reset();
        self.last_schedule = None;
    }

    /// Executes `workload` with a pre-computed `schedule`, skipping the
    /// `O(C·R)` Eq. 8 sweep. The schedule must come from
    /// [`ScheduleKey::solve`](crate::schedule::ScheduleKey::solve) (or
    /// [`balanced_schedule`]) for this workload's quadrant counts on
    /// this fabric — this is the consumer side of the schedule cache.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when the schedule's
    /// partition was cut from a different fabric, and propagates
    /// dispatch errors.
    pub fn execute_with_schedule(
        &mut self,
        workload: &GemmWorkload,
        schedule: Schedule,
    ) -> Result<ExecReport> {
        if schedule.partition.fabric() != self.fabric {
            return Err(AccelError::InvalidConfig {
                name: "schedule",
                detail: format!(
                    "schedule was cut from a {}x{} fabric, accelerator has {}x{}",
                    schedule.partition.fabric().rows,
                    schedule.partition.fabric().cols,
                    self.fabric.rows,
                    self.fabric.cols
                ),
            });
        }
        let plan = self.dispatch(workload)?;
        self.simulate(workload, &plan, schedule)
    }

    /// Records the workload's precision decisions in the index buffer
    /// and builds the four per-quadrant dispatch streams (Section 4.1).
    fn dispatch(&mut self, workload: &GemmWorkload) -> Result<DispatchPlan> {
        // If the layer exceeds the index buffer, hardware would process
        // it in index-buffer-sized chunks; the model falls back to
        // direct (workload-map) dispatch in that case.
        self.controller.reset();
        let fits = workload.shape().m as u64 * crate::arch::controller::INDEX_ENTRY_BITS
            <= self.controller.capacity_bits();
        let plan = if fits {
            let (hp, lp) = workload.act_precisions();
            for (i, &high) in workload.act_high().iter().enumerate() {
                let decision = if high {
                    Decision::Keep
                } else {
                    decision_for(hp, lp)
                };
                self.controller
                    .record(i, decision)
                    .map_err(|e| AccelError::InvalidConfig {
                        name: "index buffer",
                        detail: e.to_string(),
                    })?;
            }
            DispatchPlan::build(workload, Some(&self.controller))
        } else {
            DispatchPlan::build(workload, None)
        }
        .map_err(|e| AccelError::InvalidConfig {
            name: "dispatch",
            detail: e.to_string(),
        })?;
        debug_assert!(plan.is_consistent(workload.shape().m, workload.shape().n));
        Ok(plan)
    }

    /// Streams every quadrant of the dispatched workload under
    /// `schedule`, charges reconfiguration when the partition changed,
    /// and accounts memory traffic.
    fn simulate(
        &mut self,
        workload: &GemmWorkload,
        plan: &DispatchPlan,
        schedule: Schedule,
    ) -> Result<ExecReport> {
        let quadrants = workload.quadrants();
        debug_assert_eq!(
            plan.tile_extents(),
            [
                (quadrants[0].rows, quadrants[0].cols),
                (quadrants[1].rows, quadrants[1].cols),
                (quadrants[2].rows, quadrants[2].cols),
                (quadrants[3].rows, quadrants[3].cols),
            ]
        );

        // Stream each quadrant on its own array: occupancy 1 everywhere
        // (a split array serves exactly one precision pair), so the
        // stream simulator reports zero stalls.
        let geos = schedule.partition.geometries();
        let mut busy_bg_cycles = 0u64;
        let mut compute_cycles = 0u64;
        let mut act_reread_weighted = 0u64;
        let mut act_bytes_total = 0u64;
        let mut array_busy = [0u64; 4];
        let mut array_units = [0u64; 4];
        for (slot, (q, geo)) in quadrants.iter().zip(geos).enumerate() {
            let (Some(shape), Some(geo)) = (q.shape(), geo) else {
                continue;
            };
            array_units[slot] = geo.units() as u64;
            let passes = pass_count(shape, q.pair.activation, q.pair.weight, geo);
            let report = simulate_uniform_stream(shape.m, geo, passes);
            debug_assert_eq!(report.stall_cycles, 0);
            array_busy[slot] = report.busy_bg_cycles;
            busy_bg_cycles += report.busy_bg_cycles;
            compute_cycles = compute_cycles.max(report.total_cycles);

            // This quadrant's activations are re-read once per column
            // pass group.
            let n_passes = (u64::from(q.pair.weight.bits()) * shape.n as u64)
                .div_ceil(BG_WEIGHT_BIT_LANES * geo.cols as u64);
            let q_act_bytes =
                shape.m as u64 * (shape.k as u64 * u64::from(q.pair.activation.bits())).div_ceil(8);
            act_reread_weighted += q_act_bytes * n_passes;
            act_bytes_total += q_act_bytes;
        }
        // Reconfiguring the BG link directions costs one pipeline depth
        // — but only when the partition actually changes. Consecutive
        // layers with similar precision mixes keep the fabric as-is
        // (reconfiguration elision).
        let reconfigures = self
            .last_schedule
            .is_none_or(|prev| prev.partition != schedule.partition);
        if reconfigures {
            compute_cycles += schedule.partition.reconfig_cycles();
        }

        let act_reread = if act_bytes_total == 0 {
            1
        } else {
            act_reread_weighted.div_ceil(act_bytes_total).max(1)
        };
        let traffic = self.memory.workload_traffic(workload, act_reread);

        let core_pj = busy_bg_cycles as f64 * self.energy.e_bg_cycle_pj;
        self.last_schedule = Some(schedule);
        let report = finish_report(
            "drift",
            workload,
            compute_cycles,
            0,
            busy_bg_cycles,
            core_pj,
            traffic,
            self.fabric.units(),
            self.energy.static_pj_per_unit_cycle,
        );
        if self.recorder.is_enabled() {
            const ARRAYS: [&str; 4] = ["hh", "hl", "lh", "ll"];
            for (slot, name) in ARRAYS.iter().enumerate() {
                if array_units[slot] == 0 {
                    continue;
                }
                let span_cycles = array_units[slot] * compute_cycles;
                self.recorder.counter_add(
                    "drift_array_busy_cycles_total",
                    &[("array", name)],
                    array_busy[slot],
                );
                self.recorder.counter_add(
                    "drift_array_idle_cycles_total",
                    &[("array", name)],
                    span_cycles.saturating_sub(array_busy[slot]),
                );
            }
            self.recorder
                .counter_add("drift_sim_cycles_total", &[], report.cycles);
            self.recorder
                .counter_add("drift_compute_cycles_total", &[], report.compute_cycles);
            self.recorder
                .counter_add("drift_dram_cycles_total", &[], report.dram_cycles);
            self.recorder
                .counter_add("drift_layers_executed_total", &[], 1);
            if reconfigures {
                self.recorder
                    .counter_add("drift_reconfigurations_total", &[], 1);
            }
            self.recorder.fcounter_add(
                "drift_energy_picojoules_total",
                &[("stage", "core")],
                report.energy.core_pj,
            );
            self.recorder.fcounter_add(
                "drift_energy_picojoules_total",
                &[("stage", "static")],
                report.energy.static_pj,
            );
        }
        Ok(report)
    }

    /// The controller (precision selector + index buffer) model.
    pub fn controller(&self) -> &PrecisionController {
        &self.controller
    }

    /// The fabric geometry.
    pub fn fabric(&self) -> ArrayGeometry {
        self.fabric
    }
}

impl Accelerator for DriftAccelerator {
    fn name(&self) -> &str {
        "drift"
    }

    fn units(&self) -> usize {
        self.fabric.units()
    }

    fn execute(&mut self, workload: &GemmWorkload) -> Result<ExecReport> {
        // Per layer, the precision selector's decisions land in the
        // index buffer and the dispatcher builds the four per-quadrant
        // streams from it (Section 4.1); the scheduler then solves
        // Eq. 8 for the quadrant mix.
        let plan = self.dispatch(workload)?;
        let solve = Stage::new("core", "solve", &self.recorder).open();
        let schedule = match self.scheduler {
            SchedulerKind::Balanced => balanced_schedule(self.fabric, &workload.quadrants()),
            SchedulerKind::EqualStatic => equal_schedule(self.fabric, &workload.quadrants()),
        }
        .map_err(|e| AccelError::InvalidConfig {
            name: "schedule",
            detail: e.to_string(),
        })?;
        solve.end("ok", &[]);
        self.simulate(workload, &plan, schedule)
    }
}

// Workers in `drift-serve` move one simulator into each pool thread;
// keep that guaranteed at compile time.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<DriftAccelerator>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use drift_accel::bitfusion::BitFusion;
    use drift_accel::drq::DrqAccelerator;
    use drift_accel::gemm::GemmShape;

    fn mixed_workload(m: usize, n: usize, fa: f64, fw: f64) -> GemmWorkload {
        let shape = GemmShape::new(m, 768, n).unwrap();
        let ah = (m as f64 * fa) as usize;
        let wh = (n as f64 * fw) as usize;
        GemmWorkload::new(
            "mixed",
            shape,
            (0..m).map(|i| i < ah).collect(),
            (0..n).map(|j| j < wh).collect(),
        )
        .unwrap()
    }

    #[test]
    fn drift_never_stalls() {
        let mut drift = DriftAccelerator::paper_config().unwrap();
        let w = mixed_workload(512, 512, 0.25, 0.25);
        let r = drift.execute(&w).unwrap();
        assert_eq!(r.stall_cycles, 0);
        assert!(drift.last_schedule().is_some());
    }

    #[test]
    fn drift_beats_bitfusion_int8_on_mostly_low_workloads() {
        let w = mixed_workload(1024, 1024, 0.15, 0.15);
        let mut drift = DriftAccelerator::paper_config().unwrap();
        let c_drift = drift.execute(&w).unwrap().compute_cycles;
        let mut bf = BitFusion::int8().unwrap();
        let hi = GemmWorkload::uniform("hi", w.shape(), false);
        let c_bf = bf.execute(&hi).unwrap().compute_cycles;
        let speedup = c_bf as f64 / c_drift as f64;
        assert!(
            speedup > 2.0 && speedup < 4.5,
            "speedup {speedup} out of the expected band"
        );
    }

    #[test]
    fn drift_beats_drq_on_the_same_workload() {
        let w = mixed_workload(1024, 1024, 0.15, 0.15);
        let mut drift = DriftAccelerator::paper_config().unwrap();
        let c_drift = drift.execute(&w).unwrap().compute_cycles;
        let mut drq = DrqAccelerator::paper_config().unwrap();
        let c_drq = drq.execute(&w).unwrap().compute_cycles;
        assert!(
            c_drq > c_drift,
            "drq {c_drq} should be slower than drift {c_drift}"
        );
    }

    #[test]
    fn uniform_high_workload_degrades_to_bitfusion() {
        // With everything 8-bit, Drift's partition collapses to one
        // array and its latency matches BitFusion INT8 to within the
        // reconfiguration overhead and the scheduler's ceiling slack.
        let shape = GemmShape::new(512, 512, 512).unwrap();
        let w = GemmWorkload::uniform("hi", shape, false);
        let mut drift = DriftAccelerator::paper_config().unwrap();
        let c_drift = drift.execute(&w).unwrap().compute_cycles;
        let mut bf = BitFusion::int8().unwrap();
        let c_bf = bf.execute(&w).unwrap().compute_cycles;
        let overhead = drift.fabric().rows as u64 + drift.fabric().cols as u64;
        assert!(
            c_drift <= c_bf + overhead,
            "{c_drift} > {c_bf} + {overhead}"
        );
        let rel = (c_drift as f64 - c_bf as f64).abs() / c_bf as f64;
        assert!(rel < 0.01, "relative gap {rel} too large");
    }

    #[test]
    fn balanced_scheduler_beats_equal_static() {
        let w = mixed_workload(1024, 1024, 0.1, 0.4);
        let mut balanced = DriftAccelerator::paper_config().unwrap();
        let c_b = balanced.execute(&w).unwrap().compute_cycles;
        let mut equal = DriftAccelerator::new(paper_fabric(), SchedulerKind::EqualStatic).unwrap();
        let c_e = equal.execute(&w).unwrap().compute_cycles;
        assert!(c_b <= c_e, "balanced {c_b} !<= equal {c_e}");
    }

    #[test]
    fn reconfiguration_elides_on_repeated_partitions() {
        let mut drift = DriftAccelerator::paper_config().unwrap();
        let w = mixed_workload(512, 512, 0.25, 0.25);
        let first = drift.execute(&w).unwrap();
        let second = drift.execute(&w).unwrap();
        // Same workload → same partition → no reconfiguration charge.
        let overhead = drift.last_schedule().unwrap().partition.reconfig_cycles();
        assert_eq!(first.compute_cycles, second.compute_cycles + overhead);
    }

    #[test]
    fn reset_restores_first_run_behavior() {
        let mut drift = DriftAccelerator::paper_config().unwrap();
        let w = mixed_workload(512, 512, 0.25, 0.25);
        let first = drift.execute(&w).unwrap();
        let repeat = drift.execute(&w).unwrap();
        assert_ne!(first.compute_cycles, repeat.compute_cycles);
        drift.reset();
        assert!(drift.last_schedule().is_none());
        let fresh = drift.execute(&w).unwrap();
        assert_eq!(first, fresh);
    }

    #[test]
    fn cached_schedule_reproduces_direct_execution() {
        use crate::schedule::ScheduleKey;
        let w = mixed_workload(384, 256, 0.3, 0.6);
        let mut direct = DriftAccelerator::paper_config().unwrap();
        let want = direct.execute(&w).unwrap();
        let mut reused = DriftAccelerator::paper_config().unwrap();
        let schedule = ScheduleKey::for_workload(&w, reused.fabric())
            .solve()
            .unwrap();
        let got = reused.execute_with_schedule(&w, schedule).unwrap();
        assert_eq!(want, got);
        assert_eq!(reused.last_schedule(), Some(&schedule));
    }

    #[test]
    fn foreign_fabric_schedule_is_rejected() {
        let w = mixed_workload(64, 64, 0.5, 0.5);
        let small = drift_accel::systolic::ArrayGeometry::new(4, 4).unwrap();
        let schedule = crate::schedule::ScheduleKey::for_workload(&w, small)
            .solve()
            .unwrap();
        let mut drift = DriftAccelerator::paper_config().unwrap();
        assert!(drift.execute_with_schedule(&w, schedule).is_err());
    }

    #[test]
    fn recorder_does_not_change_reports() {
        // The acceptance bar: with observability enabled, simulation
        // results are bit-identical to a run with it disabled.
        let w = mixed_workload(512, 512, 0.25, 0.25);
        let mut plain = DriftAccelerator::paper_config().unwrap();
        let want = [plain.execute(&w).unwrap(), plain.execute(&w).unwrap()];

        let rec = Recorder::enabled();
        let mut observed = DriftAccelerator::paper_config().unwrap();
        observed.set_recorder(rec.clone());
        let got = [observed.execute(&w).unwrap(), observed.execute(&w).unwrap()];
        assert_eq!(want, got);

        // ...and the run actually produced metrics.
        let snap = rec.registry().unwrap().snapshot();
        assert_eq!(snap.counter_sum("drift_layers_executed_total"), 2);
        assert_eq!(snap.counter_sum("drift_reconfigurations_total"), 1);
        let solves = snap
            .histogram_merged("drift_stage_microseconds")
            .expect("the solve stage is timed");
        assert_eq!(solves.count(), 2);
        assert_eq!(
            snap.counter_sum("drift_sim_cycles_total"),
            want.iter().map(|r| r.cycles).sum::<u64>()
        );
        assert!(snap.counter_sum("drift_array_busy_cycles_total") > 0);
        assert!(snap.counter_sum("drift_array_idle_cycles_total") > 0);
        assert!(snap.counter_sum("drift_dram_row_hits_total") > 0);
    }

    #[test]
    fn energy_components_present() {
        let mut drift = DriftAccelerator::paper_config().unwrap();
        let w = mixed_workload(512, 512, 0.2, 0.2);
        let r = drift.execute(&w).unwrap();
        assert!(r.energy.static_pj > 0.0);
        assert!(r.energy.dram_pj > 0.0);
        assert!(r.energy.buffer_pj > 0.0);
        assert!(r.energy.core_pj > 0.0);
    }
}
