//! Numerically stable row-wise softmax: backend dispatch.
//!
//! The free functions here are thin dispatchers, exactly like the matmul
//! ones: they resolve the calling thread's
//! [`RowOpsBackend`](crate::ops::rowops::RowOpsBackend), record the
//! `compute.softmax.{flops,ns}` trace counters when tracing is enabled,
//! and delegate. The actual kernels — the reference tier's verbatim
//! historical loops and the bit-identical row-parallel vectorized tier —
//! live in [`mod@crate::ops::rowops`].

use crate::ops::rowops::{current_row_ops, traced_rowop, SOFTMAX_FLOPS_PER_ELEM};
use crate::tensor::Tensor;
use bagualu_trace::names;

/// Row-wise softmax of a 2-D tensor, in place, on the calling thread's
/// row-op backend. Uses the max-subtraction trick so
/// half-precision-scale logits cannot overflow the exponentials. `lse` is
/// empty, or one slot per row that receives the row's log-sum-exp from the
/// same pass (`x − lse` is the log-softmax a cross-entropy loss reads;
/// see [`RowOpsBackend::softmax_rows_inplace`](crate::ops::rowops::RowOpsBackend::softmax_rows_inplace)).
pub fn softmax_rows_inplace(x: &mut Tensor, lse: &mut [f32]) {
    let flops = SOFTMAX_FLOPS_PER_ELEM * x.len() as u64;
    traced_rowop(
        names::COMPUTE_SOFTMAX_NS,
        names::COMPUTE_SOFTMAX_FLOPS,
        flops,
        || current_row_ops().softmax_rows_inplace(x, lse),
    )
}

/// Row-wise softmax, returning a new tensor.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    softmax_rows_inplace(&mut out, &mut []);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = softmax_rows(&x);
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let y = Tensor::from_vec(vec![101.0, 102.0, 103.0], &[1, 3]);
        assert!(softmax_rows(&x).approx_eq(&softmax_rows(&y), 1e-6));
    }

    #[test]
    fn stable_under_huge_logits() {
        let x = Tensor::from_vec(vec![1e4, 1e4 + 1.0], &[1, 2]);
        let s = softmax_rows(&x);
        assert!(!s.has_non_finite());
        assert!((s.at(0, 0) + s.at(0, 1) - 1.0).abs() < 1e-6);
        assert!(s.at(0, 1) > s.at(0, 0));
    }

    #[test]
    fn log_softmax_matches_ln_of_softmax() {
        let x = Tensor::from_vec(vec![0.3, -1.2, 2.5, 0.0], &[2, 2]);
        let mut s = x.clone();
        let mut lse = vec![0.0; 2];
        softmax_rows_inplace(&mut s, &mut lse);
        for i in 0..x.len() {
            let log_softmax = x.as_slice()[i] - lse[i / 2];
            assert!((log_softmax - s.as_slice()[i].ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn uniform_logits_give_uniform_probs() {
        let x = Tensor::zeros(&[1, 4]);
        let s = softmax_rows(&x);
        for &p in s.as_slice() {
            assert!((p - 0.25).abs() < 1e-6);
        }
    }
}
