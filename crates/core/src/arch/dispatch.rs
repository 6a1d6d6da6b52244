//! The dispatcher: steering sub-tensors to the right systolic array.
//!
//! Paper Section 4.1: the index buffer "serves as a reference for the
//! dispatcher to control access to the activation data". After the
//! precision selector fills the index buffer, the dispatcher walks the
//! activation rows in storage order and routes each to the stream of
//! the quadrant handling its precision pair — so each split array sees
//! a dense, single-precision stream even though the data arrives
//! interleaved. (This reordering is exactly what DRQ's single
//! variable-speed array cannot do, and why it pays speed-switch bubbles
//! on interleaved streams.)

use crate::arch::controller::PrecisionController;
use crate::{CoreError, Result};
use drift_accel::gemm::GemmWorkload;
use serde::{Deserialize, Serialize};

/// The four per-quadrant row streams produced for one GEMM, in
/// `(hh, hl, lh, ll)` order. The `hh`/`hl` streams share the
/// high-activation rows and `lh`/`ll` the low ones — a row is streamed
/// to both column-side arrays (they compute different output columns
/// from the same activations).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatchPlan {
    /// Row indices streamed to the high-activation arrays (hh and hl).
    pub high_rows: Vec<usize>,
    /// Row indices streamed to the low-activation arrays (lh and ll).
    pub low_rows: Vec<usize>,
    /// Column indices served by the high-weight arrays (hh and lh).
    pub high_cols: Vec<usize>,
    /// Column indices served by the low-weight arrays (hl and ll).
    pub low_cols: Vec<usize>,
    /// Index-buffer lookups the dispatcher performed.
    pub lookups: u64,
}

impl DispatchPlan {
    /// Builds the plan for a workload, consulting the (already filled)
    /// precision controller when one is supplied — the lookups are
    /// counted — or the workload's own maps otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the controller's
    /// entries disagree with the workload (a selector/dispatcher
    /// desynchronisation, which real hardware cannot exhibit).
    pub fn build(
        workload: &GemmWorkload,
        controller: Option<&PrecisionController>,
    ) -> Result<Self> {
        let mut lookups = 0u64;
        let mut high_rows = Vec::new();
        let mut low_rows = Vec::new();
        for (i, &high) in workload.act_high().iter().enumerate() {
            let is_high = match controller {
                Some(c) => {
                    lookups += 1;
                    let entry = c.lookup(i).ok_or_else(|| CoreError::InvalidParameter {
                        name: "controller",
                        detail: format!("no index entry for sub-tensor {i}"),
                    })?;
                    if entry.low == high {
                        return Err(CoreError::InvalidParameter {
                            name: "controller",
                            detail: format!(
                                "index entry for sub-tensor {i} disagrees with workload"
                            ),
                        });
                    }
                    !entry.low
                }
                None => high,
            };
            if is_high {
                high_rows.push(i);
            } else {
                low_rows.push(i);
            }
        }
        let mut high_cols = Vec::new();
        let mut low_cols = Vec::new();
        for (j, &high) in workload.weight_high().iter().enumerate() {
            if high {
                high_cols.push(j);
            } else {
                low_cols.push(j);
            }
        }
        Ok(DispatchPlan {
            high_rows,
            low_rows,
            high_cols,
            low_cols,
            lookups,
        })
    }

    /// The `(rows, cols)` tile extents per quadrant in `(hh, hl, lh,
    /// ll)` order — must agree with
    /// [`drift_accel::gemm::GemmWorkload::quadrants`].
    pub fn tile_extents(&self) -> [(usize, usize); 4] {
        [
            (self.high_rows.len(), self.high_cols.len()),
            (self.high_rows.len(), self.low_cols.len()),
            (self.low_rows.len(), self.high_cols.len()),
            (self.low_rows.len(), self.low_cols.len()),
        ]
    }

    /// Verifies the plan is a permutation: every row and column appears
    /// in exactly one stream, in ascending (storage) order within each.
    pub fn is_consistent(&self, m: usize, n: usize) -> bool {
        let sorted_disjoint = |a: &[usize], b: &[usize], extent: usize| {
            let mut seen = vec![false; extent];
            for &i in a.iter().chain(b) {
                if i >= extent || seen[i] {
                    return false;
                }
                seen[i] = true;
            }
            seen.iter().all(|&s| s)
                && a.windows(2).all(|w| w[0] < w[1])
                && b.windows(2).all(|w| w[0] < w[1])
        };
        sorted_disjoint(&self.high_rows, &self.low_rows, m)
            && sorted_disjoint(&self.high_cols, &self.low_cols, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::controller::INDEX_ENTRY_BITS;
    use drift_accel::gemm::GemmShape;
    use drift_quant::convert::ConversionChoice;
    use drift_quant::policy::Decision;
    use drift_quant::precision::Precision;
    use proptest::prelude::*;

    fn workload() -> GemmWorkload {
        let shape = GemmShape::new(8, 16, 6).unwrap();
        GemmWorkload::new(
            "d",
            shape,
            vec![true, false, false, true, false, false, false, true],
            vec![false, true, false, false, true, false],
        )
        .unwrap()
    }

    fn filled_controller(w: &GemmWorkload) -> PrecisionController {
        let mut c = PrecisionController::drift_default();
        let choice = ConversionChoice::new(Precision::INT8, Precision::INT4, 0, 4).unwrap();
        for (i, &high) in w.act_high().iter().enumerate() {
            let d = if high {
                Decision::Keep
            } else {
                Decision::Convert(choice)
            };
            c.record(i, d).unwrap();
        }
        c
    }

    #[test]
    fn plan_partitions_rows_and_cols() {
        let w = workload();
        let plan = DispatchPlan::build(&w, None).unwrap();
        assert_eq!(plan.high_rows, vec![0, 3, 7]);
        assert_eq!(plan.low_rows, vec![1, 2, 4, 5, 6]);
        assert_eq!(plan.high_cols, vec![1, 4]);
        assert_eq!(plan.low_cols, vec![0, 2, 3, 5]);
        assert!(plan.is_consistent(8, 6));
        assert_eq!(plan.lookups, 0);
    }

    #[test]
    fn tile_extents_match_quadrants() {
        let w = workload();
        let plan = DispatchPlan::build(&w, None).unwrap();
        let quads = w.quadrants();
        for (ext, q) in plan.tile_extents().iter().zip(&quads) {
            assert_eq!(*ext, (q.rows, q.cols));
        }
    }

    #[test]
    fn controller_driven_dispatch_counts_lookups() {
        let w = workload();
        let c = filled_controller(&w);
        let plan = DispatchPlan::build(&w, Some(&c)).unwrap();
        assert_eq!(plan.lookups, 8);
        assert!(plan.is_consistent(8, 6));
        assert_eq!(plan.high_rows, vec![0, 3, 7]);
    }

    #[test]
    fn missing_index_entry_is_an_error() {
        let w = workload();
        let c = PrecisionController::drift_default(); // empty
        assert!(DispatchPlan::build(&w, Some(&c)).is_err());
    }

    #[test]
    fn desynchronised_controller_is_an_error() {
        let w = workload();
        let mut c = PrecisionController::drift_default();
        // Record the OPPOSITE decision for every row.
        let choice = ConversionChoice::new(Precision::INT8, Precision::INT4, 0, 4).unwrap();
        for (i, &high) in w.act_high().iter().enumerate() {
            let d = if high {
                Decision::Convert(choice)
            } else {
                Decision::Keep
            };
            c.record(i, d).unwrap();
        }
        assert!(DispatchPlan::build(&w, Some(&c)).is_err());
    }

    #[test]
    fn consistency_detects_corruption() {
        let w = workload();
        let mut plan = DispatchPlan::build(&w, None).unwrap();
        plan.high_rows.push(1); // duplicate with low_rows
        assert!(!plan.is_consistent(8, 6));
    }

    /// The plan the dispatcher built when it found each row's entry by
    /// scanning the whole index buffer: the oracle for the addressed
    /// lookup.
    fn scan_plan(workload: &GemmWorkload, controller: &PrecisionController) -> DispatchPlan {
        let mut plan = DispatchPlan::build(workload, None).unwrap();
        let (mut high_rows, mut low_rows) = (Vec::new(), Vec::new());
        for i in 0..workload.act_high().len() {
            let entry = controller
                .entries()
                .iter()
                .find(|e| e.subtensor == i)
                .expect("every row recorded");
            if entry.low {
                low_rows.push(i);
            } else {
                high_rows.push(i);
            }
        }
        plan.high_rows = high_rows;
        plan.low_rows = low_rows;
        plan.lookups = workload.act_high().len() as u64;
        plan
    }

    proptest! {
        /// Over random masks up to the index buffer's capacity, the
        /// addressed lookup dispatches exactly as the scan did, with
        /// the same lookup and comparator counts. Densities outside
        /// [0, 1] give all-low and all-high masks.
        #[test]
        fn addressed_dispatch_matches_the_scan(
            log2_m in 0u32..=14,
            extra in 0usize..(1 << 14),
            density in -0.2f64..1.2,
            seed in any::<u64>(),
        ) {
            let capacity = (PrecisionController::default().capacity_bits()
                / INDEX_ENTRY_BITS) as usize;
            let m = ((1usize << log2_m) + extra % (1 << log2_m)).min(capacity);
            let mut state = seed | 1;
            let act_high: Vec<bool> = (0..m)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 11) as f64 * 2f64.powi(-53) < density
                })
                .collect();
            let w = GemmWorkload::new("p", GemmShape::new(m, 8, 3).unwrap(), act_high, vec![true, false, true])
                .unwrap();
            let c = filled_controller(&w);
            let plan = DispatchPlan::build(&w, Some(&c)).unwrap();
            prop_assert_eq!(&plan, &scan_plan(&w, &c));
            prop_assert_eq!(plan.lookups, m as u64);
            prop_assert_eq!(c.comparisons(), 2 * m as u64);
        }
    }
}
