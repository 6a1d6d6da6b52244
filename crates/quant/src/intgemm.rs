//! Exact integer GEMM over mixed-precision codes — the compute path the
//! hardware actually executes.
//!
//! The accelerator never touches floats: activations and weights arrive
//! as small integer codes with per-sub-tensor scales, BitBricks multiply
//! code bits, and wide integer accumulators collect the products; the
//! float value is recovered once, at the output, as
//! `acc · scale_row · scale_col`. This module implements that path
//! bit-exactly so the simulators and the (dequantize-then-f32) engine
//! path can be cross-checked against each other: for any policy, the
//! integer GEMM of the coded operands equals the f32 GEMM of the
//! effective (dequantized) tensors.

use crate::linear::{quantize_slice, QuantParams};
use crate::policy::{Decision, PolicyRun, PrecisionPolicy, SubTensorDecision, TensorContext};
use crate::precision::Precision;
use crate::{QuantError, Result};
use drift_tensor::stats::AbsStats;
use drift_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A row-major integer-coded matrix with one scale per row group
/// (activations) or per column group (weights).
///
/// # Example
///
/// ```rust
/// use drift_quant::intgemm::{int_gemm, CodedMatrix};
/// use drift_quant::policy::StaticHighPolicy;
/// use drift_quant::Precision;
/// use drift_tensor::Tensor;
///
/// # fn main() -> Result<(), drift_quant::QuantError> {
/// let a = Tensor::from_fn(vec![4, 8], |i| (i as f32).sin()).unwrap();
/// let b = Tensor::from_fn(vec![8, 3], |i| (i as f32).cos()).unwrap();
/// let ca = CodedMatrix::encode_rows(&a, Precision::INT8, &StaticHighPolicy)?;
/// let cb = CodedMatrix::encode_cols(&b, Precision::INT8, &StaticHighPolicy)?;
/// let c = int_gemm(&ca, &cb)?;
/// assert_eq!(c.shape().dims(), &[4, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodedMatrix {
    rows: usize,
    cols: usize,
    /// Row-major codes.
    codes: Vec<i32>,
    /// One scale per row (row-coded) or per column (column-coded).
    scales: Vec<f64>,
    /// One effective precision per row/column group.
    precisions: Vec<Precision>,
    /// True when scales index rows; false when they index columns.
    row_major_scales: bool,
}

impl CodedMatrix {
    /// Encodes a rank-2 tensor with one sub-tensor per *row* (the
    /// activation layout: every GEMM row is a token), running `policy`
    /// per row exactly as the precision selector does.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidParameter`] for non-rank-2 input.
    pub fn encode_rows(
        tensor: &Tensor,
        hp: Precision,
        policy: &dyn PrecisionPolicy,
    ) -> Result<Self> {
        let (rows, cols) = matrix_dims(tensor)?;
        let (codes8, params) = quantize_slice(tensor.as_slice(), hp)?;
        let ctx = context_for(tensor, params);
        let mut codes = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        let mut precisions = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &tensor.as_slice()[r * cols..(r + 1) * cols];
            let stats = AbsStats::from_slice(row);
            let decision = policy.decide(&ctx, &stats);
            let row_codes = &codes8[r * cols..(r + 1) * cols];
            let (converted, scale, precision) = encode_group(row_codes, decision, &params);
            codes.extend(converted);
            scales.push(scale);
            precisions.push(precision);
        }
        Ok(CodedMatrix {
            rows,
            cols,
            codes,
            scales,
            precisions,
            row_major_scales: true,
        })
    }

    /// Encodes a rank-2 tensor with one sub-tensor per *column* (the
    /// weight layout: every GEMM column is an output channel).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidParameter`] for non-rank-2 input.
    pub fn encode_cols(
        tensor: &Tensor,
        hp: Precision,
        policy: &dyn PrecisionPolicy,
    ) -> Result<Self> {
        let (rows, cols) = matrix_dims(tensor)?;
        let (codes8, params) = quantize_slice(tensor.as_slice(), hp)?;
        let ctx = context_for(tensor, params);
        let data = tensor.as_slice();
        let mut codes = vec![0i32; rows * cols];
        let mut scales = Vec::with_capacity(cols);
        let mut precisions = Vec::with_capacity(cols);
        for c in 0..cols {
            let column: Vec<f32> = (0..rows).map(|r| data[r * cols + c]).collect();
            let stats = AbsStats::from_slice(&column);
            let decision = policy.decide(&ctx, &stats);
            let col_codes: Vec<i32> = (0..rows).map(|r| codes8[r * cols + c]).collect();
            let (converted, scale, precision) = encode_group(&col_codes, decision, &params);
            for (r, v) in converted.into_iter().enumerate() {
                codes[r * cols + c] = v;
            }
            scales.push(scale);
            precisions.push(precision);
        }
        Ok(CodedMatrix {
            rows,
            cols,
            codes,
            scales,
            precisions,
            row_major_scales: false,
        })
    }

    /// Builds the row-coded matrix from a pre-computed [`PolicyRun`]
    /// (so engine-side decisions and integer-path decisions provably
    /// coincide).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidParameter`] when the run's decisions
    /// do not form one-per-row token groups.
    pub fn from_policy_run(tensor: &Tensor, run: &PolicyRun, hp: Precision) -> Result<Self> {
        let (rows, cols) = matrix_dims(tensor)?;
        if run.decisions.len() != rows || run.decisions.iter().any(|d| d.len != cols) {
            return Err(QuantError::InvalidParameter {
                name: "run",
                detail: "policy run is not token-per-row".to_string(),
            });
        }
        let (codes8, params) = quantize_slice(tensor.as_slice(), hp)?;
        let mut codes = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        let mut precisions = Vec::with_capacity(rows);
        for (r, SubTensorDecision { decision, .. }) in run.decisions.iter().enumerate() {
            let row_codes = &codes8[r * cols..(r + 1) * cols];
            let (converted, scale, precision) = encode_group(row_codes, *decision, &params);
            codes.extend(converted);
            scales.push(scale);
            precisions.push(precision);
        }
        Ok(CodedMatrix {
            rows,
            cols,
            codes,
            scales,
            precisions,
            row_major_scales: true,
        })
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The integer codes, row-major.
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Per-group scales (rows for activations, columns for weights).
    pub fn scales(&self) -> &[f64] {
        &self.scales
    }

    /// Per-group effective precisions.
    pub fn precisions(&self) -> &[Precision] {
        &self.precisions
    }

    /// The effective (dequantized) tensor this coding represents — the
    /// same values [`crate::policy::run_policy`] produces.
    pub fn to_effective(&self) -> Tensor {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let scale = if self.row_major_scales {
                    self.scales[r]
                } else {
                    self.scales[c]
                };
                data.push((f64::from(self.codes[r * self.cols + c]) * scale) as f32);
            }
        }
        Tensor::from_vec(vec![self.rows, self.cols], data).expect("dims are consistent")
    }

    /// Fraction of groups at a precision strictly below `hp`.
    pub fn low_fraction(&self, hp: Precision) -> f64 {
        let low = self
            .precisions
            .iter()
            .filter(|p| p.bits() < hp.bits())
            .count();
        low as f64 / self.precisions.len() as f64
    }
}

/// Multiplies a row-coded activation matrix by a column-coded weight
/// matrix with exact integer accumulation (i64 accumulators, like the
/// hardware's wide psum registers), scaling once at the output.
///
/// # Errors
///
/// Returns [`QuantError::InvalidParameter`] on inner-dimension or
/// layout mismatch.
pub fn int_gemm(a: &CodedMatrix, b: &CodedMatrix) -> Result<Tensor> {
    if !a.row_major_scales || b.row_major_scales {
        return Err(QuantError::InvalidParameter {
            name: "layout",
            detail: "int_gemm needs row-coded activations x column-coded weights".to_string(),
        });
    }
    if a.cols != b.rows {
        return Err(QuantError::InvalidParameter {
            name: "shapes",
            detail: format!("inner dims {} vs {}", a.cols, b.rows),
        });
    }
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = &a.codes[i * k..(i + 1) * k];
        let mut acc = vec![0i64; n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0 {
                continue;
            }
            let brow = &b.codes[p * n..(p + 1) * n];
            for (j, &bv) in brow.iter().enumerate() {
                acc[j] += i64::from(av) * i64::from(bv);
            }
        }
        for j in 0..n {
            out[i * n + j] = (acc[j] as f64 * a.scales[i] * b.scales[j]) as f32;
        }
    }
    Ok(Tensor::from_vec(vec![m, n], out)?)
}

fn matrix_dims(tensor: &Tensor) -> Result<(usize, usize)> {
    let dims = tensor.shape().dims();
    if dims.len() != 2 {
        return Err(QuantError::InvalidParameter {
            name: "tensor",
            detail: format!("expected rank-2, got {:?}", dims),
        });
    }
    Ok((dims[0], dims[1]))
}

fn context_for(tensor: &Tensor, params: QuantParams) -> TensorContext {
    TensorContext {
        global: AbsStats::from_slice(tensor.as_slice()),
        params,
    }
}

/// Applies a decision to a group of INT8 codes, returning the final
/// codes, their effective scale, and their effective precision.
fn encode_group(
    codes8: &[i32],
    decision: Decision,
    params: &QuantParams,
) -> (Vec<i32>, f64, Precision) {
    match decision {
        Decision::Keep => (codes8.to_vec(), params.scale, params.precision),
        Decision::Convert(choice) => (
            choice.apply_slice(codes8),
            choice.effective_scale(params),
            choice.lp(),
        ),
    }
}

/// Convenience: the identity conversion's encoding of a tensor at `hp`
/// with per-row scales (used by tests and the functional fabric model).
///
/// # Errors
///
/// Propagates encoding errors.
pub fn encode_rows_static(tensor: &Tensor, hp: Precision) -> Result<CodedMatrix> {
    CodedMatrix::encode_rows(tensor, hp, &crate::policy::StaticHighPolicy)
}

/// The identity check behind this module: for arbitrary policies, the
/// integer path and the dequantize-then-f32 path agree. Exposed so
/// integration tests across crates can reuse it.
///
/// # Errors
///
/// Propagates encoding errors.
///
/// # Panics
///
/// Panics when the two paths disagree beyond f32 rounding — that is the
/// assertion being exported.
pub fn assert_paths_agree(
    acts: &Tensor,
    weights: &Tensor,
    hp: Precision,
    policy: &dyn PrecisionPolicy,
) -> Result<()> {
    let ca = CodedMatrix::encode_rows(acts, hp, policy)?;
    let cb = CodedMatrix::encode_cols(weights, hp, policy)?;
    let integer = int_gemm(&ca, &cb)?;

    // Reference: f32 GEMM of the effective tensors.
    let ea = ca.to_effective();
    let eb = cb.to_effective();
    let (m, k) = (ea.shape().dims()[0], ea.shape().dims()[1]);
    let n = eb.shape().dims()[1];
    let (av, bv) = (ea.as_slice(), eb.as_slice());
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += f64::from(av[i * k + p]) * f64::from(bv[p * n + j]);
            }
            let int_v = f64::from(integer.as_slice()[i * n + j]);
            let tol = acc.abs().max(1.0) * 1e-4;
            assert!(
                (acc - int_v).abs() <= tol,
                "paths disagree at ({i},{j}): {acc} vs {int_v}"
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drq::DrqPolicy;
    use crate::policy::{run_policy, StaticHighPolicy, StaticLowPolicy};
    use drift_tensor::subtensor::SubTensorScheme;

    fn acts() -> Tensor {
        Tensor::from_fn(vec![6, 16], |i| {
            let token = i / 16;
            let scale = 0.05 * (1 + token * token) as f32;
            scale * ((((i * 29) % 13) as f32) - 6.0) / 6.0
        })
        .unwrap()
    }

    fn weights() -> Tensor {
        Tensor::from_fn(vec![16, 5], |i| ((((i * 17) % 11) as f32) - 5.0) * 0.07).unwrap()
    }

    #[test]
    fn encode_rows_shapes_and_scales() {
        let m = CodedMatrix::encode_rows(&acts(), Precision::INT8, &StaticHighPolicy).unwrap();
        assert_eq!((m.rows(), m.cols()), (6, 16));
        assert_eq!(m.scales().len(), 6);
        assert_eq!(m.precisions().len(), 6);
        assert!(m.scales().iter().all(|&s| s > 0.0));
        assert_eq!(m.low_fraction(Precision::INT8), 0.0);
    }

    #[test]
    fn encode_cols_transposed_grouping() {
        let m = CodedMatrix::encode_cols(&weights(), Precision::INT8, &StaticHighPolicy).unwrap();
        assert_eq!((m.rows(), m.cols()), (16, 5));
        assert_eq!(m.scales().len(), 5);
    }

    #[test]
    fn rejects_non_matrix() {
        let t = Tensor::zeros(vec![2, 2, 2]).unwrap();
        assert!(CodedMatrix::encode_rows(&t, Precision::INT8, &StaticHighPolicy).is_err());
    }

    #[test]
    fn int_gemm_rejects_mismatches() {
        let a = CodedMatrix::encode_rows(&acts(), Precision::INT8, &StaticHighPolicy).unwrap();
        let b = CodedMatrix::encode_rows(&weights(), Precision::INT8, &StaticHighPolicy).unwrap();
        // Both row-coded: layout error.
        assert!(int_gemm(&a, &b).is_err());
        let bad = CodedMatrix::encode_cols(&acts(), Precision::INT8, &StaticHighPolicy).unwrap();
        // Inner dims 16 vs 6.
        assert!(int_gemm(&a, &bad).is_err());
    }

    #[test]
    fn integer_path_matches_effective_path_int8() {
        assert_paths_agree(&acts(), &weights(), Precision::INT8, &StaticHighPolicy).unwrap();
    }

    #[test]
    fn integer_path_matches_effective_path_int4() {
        assert_paths_agree(
            &acts(),
            &weights(),
            Precision::INT8,
            &StaticLowPolicy::new(Precision::INT4),
        )
        .unwrap();
    }

    #[test]
    fn integer_path_matches_effective_path_drq() {
        assert_paths_agree(
            &acts(),
            &weights(),
            Precision::INT8,
            &DrqPolicy::new(1.0).unwrap(),
        )
        .unwrap();
    }

    #[test]
    fn from_policy_run_matches_encode_rows() {
        let a = acts();
        let policy = StaticLowPolicy::new(Precision::INT4);
        let run = run_policy(&a, &SubTensorScheme::token(16), Precision::INT8, &policy).unwrap();
        let via_run = CodedMatrix::from_policy_run(&a, &run, Precision::INT8).unwrap();
        let direct = CodedMatrix::encode_rows(&a, Precision::INT8, &policy).unwrap();
        assert_eq!(via_run, direct);
        // And the effective tensor equals run_policy's.
        let eff = via_run.to_effective();
        for (x, y) in eff.iter().zip(run.effective.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn from_policy_run_rejects_wrong_granularity() {
        let a = acts();
        let run = run_policy(
            &a,
            &SubTensorScheme::token(8), // half-rows, not rows
            Precision::INT8,
            &StaticHighPolicy,
        )
        .unwrap();
        assert!(CodedMatrix::from_policy_run(&a, &run, Precision::INT8).is_err());
    }

    #[test]
    fn accumulators_hold_worst_case() {
        // Saturated INT8 codes over a wide K must not overflow i64:
        // 127 * 127 * K fits easily, but verify end-to-end.
        let a = Tensor::full(vec![2, 4096], 1.0).unwrap();
        let b = Tensor::full(vec![4096, 2], 1.0).unwrap();
        let ca = encode_rows_static(&a, Precision::INT8).unwrap();
        let cb = CodedMatrix::encode_cols(&b, Precision::INT8, &StaticHighPolicy).unwrap();
        let c = int_gemm(&ca, &cb).unwrap();
        for &v in c.as_slice() {
            assert!((f64::from(v) - 4096.0).abs() < 1.0);
        }
    }
}
