//! The pluggable row-op seam: [`RowOpsBackend`] and its registry.
//!
//! PR 6 put GEMM behind [`MatmulBackend`](crate::ops::backend); this module
//! extends the same pattern to the remaining per-step hot loops — row-wise
//! softmax (attention scores, MoE gates, the loss), layer-norm forward, and
//! the element-wise Adam update — so the whole compute path of a training
//! step is backend-dispatch, not hard-coded loops. Resolution mirrors the
//! GEMM seam exactly: thread override ([`install_row_ops`]) → process
//! default ([`set_process_row_ops`]) → [`ReferenceRowOps`].
//!
//! # Contract
//!
//! Both tiers are **bit-identical** on every input:
//!
//! * [`ReferenceRowOps`] is the verbatim historical loops (the oracle the
//!   pinned trainer curves were recorded under).
//! * [`VectorizedRowOps`] keeps every *within-row* reduction in the same
//!   sequential order — reassociating a float sum changes bits, so sums
//!   never change shape — and takes its speed from what is exactly
//!   reorderable: rows are independent, so above the work cutoff of
//!   [`crate::par`] blocks of rows fan out across the calling thread's
//!   intra-op lanes; layer-norm's normalize and scale-shift passes fuse
//!   into one (f32 store/load between passes is lossless, so fusing is
//!   exact); and the Adam update splits its four state slices at identical
//!   element boundaries across the same lanes.
//!
//! There is deliberately no FMA tier here: these ops are memory-bound
//! passes where fused arithmetic buys nothing, and keeping every row-op
//! tier bit-identical means only the GEMM choice (`tiled:fma`) ever moves
//! a loss curve.
//!
//! The free functions ([`softmax_rows_inplace`](crate::ops::softmax) and
//! friends, [`layernorm_rows`], [`adam_update`]) dispatch through the
//! registry and record `compute.{softmax,layernorm,adam}.{flops,ns}` trace
//! counters with *nominal* FLOP counts (documented per op) so traces can
//! attribute row-op time next to GEMM time.

use crate::par::{self, work};
use crate::tensor::Tensor;
use bagualu_trace::{self as trace, names};
use rayon::prelude::*;
use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// One Adam/AdamW update step's scalars, precomputed by the optimizer:
/// hyperparameters plus the bias-correction terms `1 − βᵢᵗ` for the current
/// step count `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamStep {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// Decoupled (AdamW-style) weight decay.
    pub weight_decay: f32,
    /// `1 − β₁ᵗ`.
    pub bc1: f32,
    /// `1 − β₂ᵗ`.
    pub bc2: f32,
}

/// Layer-norm forward outputs: the result plus the per-row cache the
/// backward pass needs.
#[derive(Debug, Clone)]
pub struct LayerNormOut {
    /// `y = γ ⊙ x̂ + β`.
    pub y: Tensor,
    /// The normalized rows `x̂ = (x − μ)/σ`.
    pub xhat: Tensor,
    /// `1/σ` per row.
    pub inv_sigma: Vec<f32>,
}

/// Row-structured compute kernels: softmax family, layer-norm forward, and
/// the Adam update. Implementations must be `Send + Sync` (one instance may
/// be shared by every rank thread) and **bit-identical to
/// [`ReferenceRowOps`]** — see the module docs.
pub trait RowOpsBackend: fmt::Debug + Send + Sync {
    /// Short stable identifier (used in reports, benches, and traces).
    fn name(&self) -> &'static str;

    /// Row-wise softmax of a 2-D tensor, in place (max-subtracted for
    /// stability).
    fn softmax_rows_inplace(&self, x: &mut Tensor);

    /// Row-wise log-softmax, returning a new tensor.
    fn log_softmax_rows(&self, x: &Tensor) -> Tensor;

    /// Row-wise layer norm `y = γ ⊙ (x − μ)/√(σ² + ε) + β` over `[n, d]`,
    /// returning `y` plus the backward cache.
    fn layernorm_rows(&self, x: &Tensor, gamma: &[f32], beta: &[f32], eps: f32) -> LayerNormOut;

    /// One Adam/AdamW update over a parameter slice and its moment state.
    /// All four slices have identical length.
    fn adam_update(
        &self,
        value: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        s: &AdamStep,
    );
}

/// The update rule for one element, shared verbatim by both tiers (and by
/// any chunking of the slices — it touches only index `j`).
#[inline]
fn adam_element(value: &mut f32, g: f32, m: &mut f32, v: &mut f32, s: &AdamStep) {
    *m = s.beta1 * *m + (1.0 - s.beta1) * g;
    *v = s.beta2 * *v + (1.0 - s.beta2) * g * g;
    let mhat = *m / s.bc1;
    let vhat = *v / s.bc2;
    *value -= s.lr * (mhat / (vhat.sqrt() + s.eps) + s.weight_decay * *value);
}

/// [`adam_element`] over four equally long slices: the one loop both tiers
/// run, so a vectorized call that stays on the calling thread costs what
/// the reference call costs.
fn adam_slices(value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32], s: &AdamStep) {
    for j in 0..value.len() {
        adam_element(&mut value[j], grad[j], &mut m[j], &mut v[j], s);
    }
}

/// The verbatim historical loops — sequential, clone-based where the
/// originals were. This is the oracle tier: the pinned trainer loss curves
/// were recorded under exactly these bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceRowOps;

impl RowOpsBackend for ReferenceRowOps {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn softmax_rows_inplace(&self, x: &mut Tensor) {
        let c = x.cols();
        for row in x.as_mut_slice().chunks_exact_mut(c) {
            softmax_row(row);
        }
    }

    fn log_softmax_rows(&self, x: &Tensor) -> Tensor {
        let c = x.cols();
        let mut out = x.clone();
        for row in out.as_mut_slice().chunks_exact_mut(c) {
            log_softmax_row(row);
        }
        out
    }

    fn layernorm_rows(&self, x: &Tensor, gamma: &[f32], beta: &[f32], eps: f32) -> LayerNormOut {
        let d = x.cols();
        let n = x.rows();
        let mut xhat = x.clone();
        let mut inv_sigma = Vec::with_capacity(n);
        for row in xhat.as_mut_slice().chunks_exact_mut(d) {
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + eps).sqrt();
            for v in row.iter_mut() {
                *v = (*v - mean) * inv;
            }
            inv_sigma.push(inv);
        }
        let mut y = xhat.clone();
        for row in y.as_mut_slice().chunks_exact_mut(d) {
            for ((v, &gi), &bi) in row.iter_mut().zip(gamma).zip(beta) {
                *v = *v * gi + bi;
            }
        }
        LayerNormOut { y, xhat, inv_sigma }
    }

    fn adam_update(
        &self,
        value: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        s: &AdamStep,
    ) {
        adam_slices(value, grad, m, v, s);
    }
}

/// One row of softmax — the exact historical three-step sequence: max,
/// exp-and-sum, scale. Shared by both tiers (rows are independent, so the
/// vectorized tier reuses it under row parallelism).
#[inline]
fn softmax_row(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// One row of log-softmax (see [`softmax_row`]).
#[inline]
fn log_softmax_row(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let lse = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
    for v in row.iter_mut() {
        *v -= lse;
    }
}

/// Row-parallel, pass-fused tier — bit-identical to [`ReferenceRowOps`]
/// (see the module docs for why each transformation is exact).
#[derive(Debug, Clone, Copy, Default)]
pub struct VectorizedRowOps;

/// Apply `row` to every `cols`-wide row of `x`, blocks of rows claimed by
/// the intra-op lanes when the whole call clears the work cutoff.
fn softmax_family_rows(x: &mut [f32], cols: usize, row: impl Fn(&mut [f32]) + Sync) {
    let rows = par::rows_per_task(work::EXP_ELEM * cols as u64);
    let work = work::EXP_ELEM * x.len() as u64;
    par::for_each_chunk(x, rows * cols, work, |_, block| {
        block.chunks_exact_mut(cols).for_each(&row);
    });
}

impl RowOpsBackend for VectorizedRowOps {
    fn name(&self) -> &'static str {
        "vectorized"
    }

    fn softmax_rows_inplace(&self, x: &mut Tensor) {
        let c = x.cols();
        if c == 0 {
            return;
        }
        softmax_family_rows(x.as_mut_slice(), c, softmax_row);
    }

    fn log_softmax_rows(&self, x: &Tensor) -> Tensor {
        let c = x.cols();
        let mut out = x.clone();
        if c == 0 {
            return out;
        }
        softmax_family_rows(out.as_mut_slice(), c, log_softmax_row);
        out
    }

    /// Fused single pass per row (mean, variance, then normalize+scale+
    /// shift writing both `x̂` and `y`), blocks of rows claimed by the
    /// intra-op lanes. The reference's `x̂` round-trip between its two
    /// passes is an exact f32 store/load, so fusing them changes no bits;
    /// the reductions keep the reference's sequential order.
    fn layernorm_rows(&self, x: &Tensor, gamma: &[f32], beta: &[f32], eps: f32) -> LayerNormOut {
        let d = x.cols();
        let n = x.rows();
        let mut xhat = Tensor::zeros(x.shape());
        let mut y = Tensor::zeros(x.shape());
        let mut inv_sigma = vec![0.0f32; n];
        if d == 0 || n == 0 {
            return LayerNormOut { y, xhat, inv_sigma };
        }

        let xs = x.as_slice();
        // One block of rows: `r0` is the block's first row, the three
        // outputs are that block's windows of `x̂`, `y` and `1/σ`.
        let block = |r0: usize, xh: &mut [f32], ys: &mut [f32], iv: &mut [f32]| {
            for (r, inv_out) in iv.iter_mut().enumerate() {
                let xr = &xs[(r0 + r) * d..(r0 + r + 1) * d];
                let mean = xr.iter().sum::<f32>() / d as f32;
                let var = xr.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
                let inv = 1.0 / (var + eps).sqrt();
                let (xhr, yr) = (&mut xh[r * d..(r + 1) * d], &mut ys[r * d..(r + 1) * d]);
                for i in 0..d {
                    let v = (xr[i] - mean) * inv;
                    xhr[i] = v;
                    yr[i] = v * gamma[i] + beta[i];
                }
                *inv_out = inv;
            }
        };

        let (xh, ys, iv) = (
            xhat.as_mut_slice(),
            y.as_mut_slice(),
            inv_sigma.as_mut_slice(),
        );
        if par::dispatch(work::STREAM_ELEM * (n * d) as u64) {
            let rows = par::rows_per_task(work::STREAM_ELEM * d as u64);
            xh.par_chunks_mut(rows * d)
                .zip(ys.par_chunks_mut(rows * d))
                .zip(iv.par_chunks_mut(rows))
                .enumerate()
                .for_each(|(t, ((xh, ys), iv))| block(t * rows, xh, ys, iv));
        } else {
            block(0, xh, ys, iv);
        }
        LayerNormOut { y, xhat, inv_sigma }
    }

    /// The four state slices split at identical element boundaries across
    /// the intra-op lanes; each element's update is `adam_element` either
    /// way, so any chunking is bit-identical to the sequential loop.
    fn adam_update(
        &self,
        value: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        s: &AdamStep,
    ) {
        if par::dispatch(work::STREAM_ELEM * value.len() as u64) {
            let len = par::rows_per_task(work::STREAM_ELEM);
            value
                .par_chunks_mut(len)
                .zip(m.par_chunks_mut(len))
                .zip(v.par_chunks_mut(len))
                .enumerate()
                .for_each(|(t, ((value, m), v))| {
                    adam_slices(value, &grad[t * len..][..value.len()], m, v, s)
                });
        } else {
            adam_slices(value, grad, m, v, s);
        }
    }
}

fn process_slot() -> &'static RwLock<Arc<dyn RowOpsBackend>> {
    static SLOT: OnceLock<RwLock<Arc<dyn RowOpsBackend>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(Arc::new(ReferenceRowOps)))
}

thread_local! {
    /// Stack of thread-scoped row-op overrides (a stack so scopes nest).
    static THREAD_ROW_OPS: RefCell<Vec<Arc<dyn RowOpsBackend>>> = const { RefCell::new(Vec::new()) };
}

/// Swap the process-default row-op backend; returns the previous one.
pub fn set_process_row_ops(backend: Arc<dyn RowOpsBackend>) -> Arc<dyn RowOpsBackend> {
    std::mem::replace(&mut *process_slot().write().unwrap(), backend)
}

/// The current process-default row-op backend.
pub fn process_row_ops() -> Arc<dyn RowOpsBackend> {
    Arc::clone(&process_slot().read().unwrap())
}

/// Install `backend` for the *calling thread* until the returned guard
/// drops. Nested installs shadow outer ones — the same discipline as
/// [`install_backend`](crate::ops::backend::install_backend), and the
/// trainer installs both guards side by side per rank thread.
#[must_use = "the override lasts only while the guard is alive"]
pub fn install_row_ops(backend: Arc<dyn RowOpsBackend>) -> RowOpsGuard {
    THREAD_ROW_OPS.with(|s| s.borrow_mut().push(backend));
    RowOpsGuard { _private: () }
}

/// RAII guard for [`install_row_ops`]; pops the override on drop.
#[derive(Debug)]
pub struct RowOpsGuard {
    _private: (),
}

impl Drop for RowOpsGuard {
    fn drop(&mut self) {
        THREAD_ROW_OPS.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Resolve the row-op backend the calling thread should use right now.
pub fn current_row_ops() -> Arc<dyn RowOpsBackend> {
    THREAD_ROW_OPS
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(process_row_ops)
}

/// Record a row-op's compute counters around its invocation; mirrors the
/// matmul `traced` wrapper (one relaxed load when tracing is off).
#[inline]
pub(crate) fn traced_rowop<R>(
    ns_name: &'static str,
    flops_name: &'static str,
    flops: u64,
    f: impl FnOnce() -> R,
) -> R {
    if trace::enabled() {
        let t0 = std::time::Instant::now();
        let r = f();
        trace::count(ns_name, t0.elapsed().as_nanos() as u64);
        trace::count(flops_name, flops);
        r
    } else {
        f()
    }
}

/// Nominal FLOPs per element for the softmax family: compare, subtract,
/// exp, sum-add, scale — 5. (Counter convention: nominal counts make
/// achieved "GFLOP/s" comparable across PRs, not micro-architecturally
/// exact — `exp` is many hardware ops.)
pub(crate) const SOFTMAX_FLOPS_PER_ELEM: u64 = 5;
/// Nominal FLOPs per element for layer-norm forward: two reduction adds,
/// centered square, normalize multiply-subtract, scale, shift — 8.
const LAYERNORM_FLOPS_PER_ELEM: u64 = 8;
/// Nominal FLOPs per element for the Adam update: two moment lerps (4),
/// two bias corrections (2), sqrt, divide, decay multiply-add, final
/// subtract-multiply — 12.
const ADAM_FLOPS_PER_ELEM: u64 = 12;

/// Row-wise layer-norm forward on the calling thread's row-op backend,
/// recording `compute.layernorm.{flops,ns}`.
pub fn layernorm_rows(x: &Tensor, gamma: &[f32], beta: &[f32], eps: f32) -> LayerNormOut {
    let flops = LAYERNORM_FLOPS_PER_ELEM * x.len() as u64;
    traced_rowop(
        names::COMPUTE_LAYERNORM_NS,
        names::COMPUTE_LAYERNORM_FLOPS,
        flops,
        || current_row_ops().layernorm_rows(x, gamma, beta, eps),
    )
}

/// One Adam/AdamW update on the calling thread's row-op backend, recording
/// `compute.adam.{flops,ns}`.
pub fn adam_update(value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32], s: &AdamStep) {
    assert_eq!(value.len(), grad.len(), "adam_update: value vs grad length");
    assert_eq!(value.len(), m.len(), "adam_update: value vs m length");
    assert_eq!(value.len(), v.len(), "adam_update: value vs v length");
    let flops = ADAM_FLOPS_PER_ELEM * value.len() as u64;
    traced_rowop(
        names::COMPUTE_ADAM_NS,
        names::COMPUTE_ADAM_FLOPS,
        flops,
        || current_row_ops().adam_update(value, grad, m, v, s),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn assert_bitwise(x: &[f32], y: &[f32], what: &str) {
        assert_eq!(x.len(), y.len(), "{what}: length");
        for (i, (a, b)) in x.iter().zip(y).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    fn step() -> AdamStep {
        AdamStep {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            bc1: 1.0 - 0.9f32.powi(3),
            bc2: 1.0 - 0.999f32.powi(3),
        }
    }

    /// Shapes on both sides of the work cutoff (the last clears it for
    /// softmax and layer-norm alike), so the inline and the fanned-out
    /// paths of the vectorized tier are both pinned. The tests run on three
    /// lanes whatever the host has: the cutoff, not the core count, picks
    /// the path.
    fn shapes() -> Vec<(usize, usize)> {
        vec![(1, 1), (3, 17), (40, 64), (70, 70), (128, 64), (2063, 130)]
    }

    #[test]
    fn vectorized_softmax_is_bit_identical() {
        let _lanes = par::scoped_width(3);
        let mut rng = Rng::seed_from(31);
        for (n, d) in shapes() {
            let x = Tensor::randn(&[n, d], 2.0, &mut rng);
            let mut a = x.clone();
            let mut b = x.clone();
            ReferenceRowOps.softmax_rows_inplace(&mut a);
            VectorizedRowOps.softmax_rows_inplace(&mut b);
            assert_bitwise(a.as_slice(), b.as_slice(), &format!("softmax {n}x{d}"));
            let la = ReferenceRowOps.log_softmax_rows(&x);
            let lb = VectorizedRowOps.log_softmax_rows(&x);
            assert_bitwise(
                la.as_slice(),
                lb.as_slice(),
                &format!("log_softmax {n}x{d}"),
            );
        }
    }

    #[test]
    fn vectorized_layernorm_is_bit_identical() {
        let _lanes = par::scoped_width(3);
        let mut rng = Rng::seed_from(32);
        for (n, d) in shapes() {
            let x = Tensor::randn(&[n, d], 1.5, &mut rng);
            let gamma: Vec<f32> = (0..d).map(|i| 1.0 + 0.1 * i as f32).collect();
            let beta: Vec<f32> = (0..d).map(|i| -0.05 * i as f32).collect();
            let a = ReferenceRowOps.layernorm_rows(&x, &gamma, &beta, 1e-5);
            let b = VectorizedRowOps.layernorm_rows(&x, &gamma, &beta, 1e-5);
            assert_bitwise(a.y.as_slice(), b.y.as_slice(), &format!("ln y {n}x{d}"));
            assert_bitwise(
                a.xhat.as_slice(),
                b.xhat.as_slice(),
                &format!("ln xhat {n}x{d}"),
            );
            assert_bitwise(&a.inv_sigma, &b.inv_sigma, &format!("ln inv {n}x{d}"));
        }
    }

    #[test]
    fn vectorized_adam_is_bit_identical() {
        let _lanes = par::scoped_width(3);
        let mut rng = Rng::seed_from(33);
        let cutoff = (par::MIN_WORK / work::STREAM_ELEM) as usize;
        for len in [1usize, 100, 4096, cutoff - 1, cutoff, cutoff + 12_345] {
            let grad: Vec<f32> = Tensor::randn(&[len], 1.0, &mut rng).as_slice().to_vec();
            let init: Vec<f32> = Tensor::randn(&[len], 1.0, &mut rng).as_slice().to_vec();
            let (mut va, mut ma, mut sa) = (init.clone(), vec![0.1f32; len], vec![0.2f32; len]);
            let (mut vb, mut mb, mut sb) = (init.clone(), vec![0.1f32; len], vec![0.2f32; len]);
            ReferenceRowOps.adam_update(&mut va, &grad, &mut ma, &mut sa, &step());
            VectorizedRowOps.adam_update(&mut vb, &grad, &mut mb, &mut sb, &step());
            assert_bitwise(&va, &vb, &format!("adam value {len}"));
            assert_bitwise(&ma, &mb, &format!("adam m {len}"));
            assert_bitwise(&sa, &sb, &format!("adam v {len}"));
        }
    }

    #[test]
    fn registry_resolves_thread_then_process_then_reference() {
        assert_eq!(current_row_ops().name(), process_row_ops().name());
        {
            let _g = install_row_ops(Arc::new(VectorizedRowOps));
            assert_eq!(current_row_ops().name(), "vectorized");
            {
                let _g2 = install_row_ops(Arc::new(ReferenceRowOps));
                assert_eq!(current_row_ops().name(), "reference");
            }
            assert_eq!(current_row_ops().name(), "vectorized");
        }
        // A fresh thread sees the process default, not this thread's stack.
        let _g = install_row_ops(Arc::new(VectorizedRowOps));
        let other = std::thread::spawn(|| current_row_ops().name())
            .join()
            .unwrap();
        assert_eq!(other, process_row_ops().name());
    }

    #[test]
    fn degenerate_shapes_are_fine() {
        let mut empty = Tensor::zeros(&[0, 4]);
        VectorizedRowOps.softmax_rows_inplace(&mut empty);
        let out =
            VectorizedRowOps.layernorm_rows(&Tensor::zeros(&[0, 4]), &[1.0; 4], &[0.0; 4], 1e-5);
        assert_eq!(out.y.shape(), &[0, 4]);
        assert!(out.inv_sigma.is_empty());
        VectorizedRowOps.adam_update(&mut [], &[], &mut [], &mut [], &step());
    }
}
