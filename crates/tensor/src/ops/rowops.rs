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
//!   exact); and the Adam update splits its state slices at identical
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

use crate::dtype::DType;
use crate::par::{self, work};
use crate::tensor::Tensor;
use bagualu_trace::{self as trace, names};
use rayon::prelude::*;
use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// One Adam/AdamW update step's scalars, precomputed by the optimizer:
/// hyperparameters, the bias-correction terms `1 − βᵢᵗ` for the current
/// step count `t`, and the two factors each gradient element is multiplied
/// by before the rule sees it, in this order: `(g · unscale) · clip`.
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
    /// `1 / loss scale`; 1 when the gradients are not loss-scaled.
    pub unscale: f32,
    /// The global-norm clip factor; 1 when the step does not clip.
    pub clip: f32,
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
/// the fused optimizer update. Implementations must be `Send + Sync` (one
/// instance may be shared by every rank thread) and **bit-identical to
/// [`ReferenceRowOps`]** — see the module docs.
pub trait RowOpsBackend: fmt::Debug + Send + Sync {
    /// Short stable identifier (used in reports, benches, and traces).
    fn name(&self) -> &'static str;

    /// Row-wise softmax of a 2-D tensor, in place (max-subtracted for
    /// stability). `lse` is empty, or holds one slot per row that receives
    /// the row's log-sum-exp `ln Σⱼ exp(xⱼ − max) + max` from the same pass:
    /// `x − lse` is the row's log-softmax.
    fn softmax_rows_inplace(&self, x: &mut Tensor, lse: &mut [f32]);

    /// Row-wise layer norm `y = γ ⊙ (x − μ)/√(σ² + ε) + β` over `[n, d]`,
    /// returning `y` plus the backward cache.
    fn layernorm_rows(&self, x: &Tensor, gamma: &[f32], beta: &[f32], eps: f32) -> LayerNormOut;

    /// The whole optimizer visit of one parameter. Each gradient element is
    /// unscaled and clipped (`(g · s.unscale) · s.clip`), run through the
    /// Adam/AdamW rule on `value` and its moments `m` and `v`, and written
    /// back as `0.0`. With a `working` buffer, `value` is the FP32 master
    /// and each updated element is also published there, rounded through
    /// the given format. All slices have identical length.
    fn adam_update(
        &self,
        value: &mut [f32],
        working: Option<(&mut [f32], DType)>,
        grad: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        s: &AdamStep,
    );
}

/// The update rule for one element, shared verbatim by both tiers (and by
/// any chunking of the slices — it touches only index `j`): consume the
/// gradient, unscaled then clipped, into the moments and the value.
#[inline]
fn adam_element(value: &mut f32, grad: &mut f32, m: &mut f32, v: &mut f32, s: &AdamStep) {
    let g = *grad * s.unscale * s.clip;
    *grad = 0.0;
    *m = s.beta1 * *m + (1.0 - s.beta1) * g;
    *v = s.beta2 * *v + (1.0 - s.beta2) * g * g;
    let mhat = *m / s.bc1;
    let vhat = *v / s.bc2;
    *value -= s.lr * (mhat / (vhat.sqrt() + s.eps) + s.weight_decay * *value);
}

/// [`adam_element`] over equally long slices, publishing each updated value
/// into `working` through its format's rounding when there is one: the one
/// loop both tiers run, so a vectorized call that stays on the calling
/// thread costs what the reference call costs. The publish follows the
/// update a block at a time, while the block is still in L1: per element
/// inside the update loop, the rounding would keep the compiler from
/// vectorizing the rule.
fn adam_slices(
    value: &mut [f32],
    working: Option<(&mut [f32], DType)>,
    grad: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    s: &AdamStep,
) {
    const PUBLISH_BLOCK: usize = 1024;
    let Some((w, dt)) = working else {
        return adam_loop(value, grad, m, v, s);
    };
    let blocks = value
        .chunks_mut(PUBLISH_BLOCK)
        .zip(grad.chunks_mut(PUBLISH_BLOCK))
        .zip(m.chunks_mut(PUBLISH_BLOCK))
        .zip(v.chunks_mut(PUBLISH_BLOCK))
        .zip(w.chunks_mut(PUBLISH_BLOCK));
    for ((((value, grad), m), v), w) in blocks {
        adam_loop(value, grad, m, v, s);
        w.copy_from_slice(value);
        dt.round_trip_slice(w);
    }
}

/// The element loop of [`adam_slices`].
fn adam_loop(value: &mut [f32], grad: &mut [f32], m: &mut [f32], v: &mut [f32], s: &AdamStep) {
    let n = value.len();
    let (grad, m, v) = (&mut grad[..n], &mut m[..n], &mut v[..n]);
    for j in 0..n {
        adam_element(&mut value[j], &mut grad[j], &mut m[j], &mut v[j], s);
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

    fn softmax_rows_inplace(&self, x: &mut Tensor, lse: &mut [f32]) {
        let c = x.cols();
        softmax_block(x.as_mut_slice(), c, lse);
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
        working: Option<(&mut [f32], DType)>,
        grad: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        s: &AdamStep,
    ) {
        adam_slices(value, working, grad, m, v, s);
    }
}

/// One row of softmax — the exact historical three-step sequence: max,
/// exp-and-sum, scale — returning the row's max and its sum of
/// exponentials.
#[inline]
fn softmax_row(row: &mut [f32]) -> (f32, f32) {
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
    (max, sum)
}

/// [`softmax_row`] over every `cols`-wide row of `x`, writing each row's
/// log-sum-exp to its slot of `lse` unless `lse` is empty. Shared by both
/// tiers (rows are independent, so the vectorized tier runs it per block of
/// rows).
fn softmax_block(x: &mut [f32], cols: usize, lse: &mut [f32]) {
    for (r, row) in x.chunks_exact_mut(cols).enumerate() {
        let (max, sum) = softmax_row(row);
        if let Some(l) = lse.get_mut(r) {
            *l = sum.ln() + max;
        }
    }
}

/// Row-parallel, pass-fused tier — bit-identical to [`ReferenceRowOps`]
/// (see the module docs for why each transformation is exact).
#[derive(Debug, Clone, Copy, Default)]
pub struct VectorizedRowOps;

impl RowOpsBackend for VectorizedRowOps {
    fn name(&self) -> &'static str {
        "vectorized"
    }

    /// Blocks of rows claimed by the intra-op lanes when the whole call
    /// clears the work cutoff.
    fn softmax_rows_inplace(&self, x: &mut Tensor, lse: &mut [f32]) {
        let c = x.cols();
        if c == 0 {
            return;
        }
        let x = x.as_mut_slice();
        if !par::dispatch(work::EXP_ELEM * x.len() as u64) {
            return softmax_block(x, c, lse);
        }
        let rows = par::rows_per_task(work::EXP_ELEM * c as u64);
        let blocks = x.par_chunks_mut(rows * c);
        if lse.is_empty() {
            blocks.for_each(|b| softmax_block(b, c, &mut []));
        } else {
            blocks
                .zip(lse.par_chunks_mut(rows))
                .for_each(|(b, l)| softmax_block(b, c, l));
        }
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

    /// The state slices split at identical element boundaries across the
    /// intra-op lanes; each element's visit is `adam_element` either way,
    /// so any chunking is bit-identical to the sequential loop.
    fn adam_update(
        &self,
        value: &mut [f32],
        working: Option<(&mut [f32], DType)>,
        grad: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        s: &AdamStep,
    ) {
        if !par::dispatch(work::STREAM_ELEM * value.len() as u64) {
            return adam_slices(value, working, grad, m, v, s);
        }
        let len = par::rows_per_task(work::STREAM_ELEM);
        let state = value
            .par_chunks_mut(len)
            .zip(grad.par_chunks_mut(len))
            .zip(m.par_chunks_mut(len))
            .zip(v.par_chunks_mut(len));
        match working {
            None => state.for_each(|(((value, g), m), v)| adam_slices(value, None, g, m, v, s)),
            Some((w, dt)) => {
                state
                    .zip(w.par_chunks_mut(len))
                    .for_each(|((((value, g), m), v), w)| {
                        adam_slices(value, Some((w, dt)), g, m, v, s)
                    })
            }
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
/// Nominal FLOPs per element for the fused optimizer update: unscale and
/// clip (2), two moment lerps (4), two bias corrections (2), sqrt, divide,
/// decay multiply-add, final subtract-multiply — 14.
const ADAM_FLOPS_PER_ELEM: u64 = 14;

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

/// The fused optimizer update ([`RowOpsBackend::adam_update`]) on the
/// calling thread's row-op backend, recording `compute.adam.{flops,ns}`.
pub fn adam_update(
    value: &mut [f32],
    working: Option<(&mut [f32], DType)>,
    grad: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    s: &AdamStep,
) {
    assert_eq!(value.len(), grad.len(), "adam_update: value vs grad length");
    assert_eq!(value.len(), m.len(), "adam_update: value vs m length");
    assert_eq!(value.len(), v.len(), "adam_update: value vs v length");
    if let Some((w, _)) = &working {
        assert_eq!(value.len(), w.len(), "adam_update: value vs working length");
    }
    let flops = ADAM_FLOPS_PER_ELEM * value.len() as u64;
    traced_rowop(
        names::COMPUTE_ADAM_NS,
        names::COMPUTE_ADAM_FLOPS,
        flops,
        || current_row_ops().adam_update(value, working, grad, m, v, s),
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
            unscale: 1.0 / 1024.0,
            clip: 0.75,
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
            let (mut la, mut lb) = (vec![0.0; n], vec![0.0; n]);
            ReferenceRowOps.softmax_rows_inplace(&mut a, &mut la);
            VectorizedRowOps.softmax_rows_inplace(&mut b, &mut lb);
            assert_bitwise(a.as_slice(), b.as_slice(), &format!("softmax {n}x{d}"));
            assert_bitwise(&la, &lb, &format!("log-sum-exp {n}x{d}"));
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
            let grad: Vec<f32> = Tensor::randn(&[len], 1e3, &mut rng).as_slice().to_vec();
            let init: Vec<f32> = Tensor::randn(&[len], 1.0, &mut rng).as_slice().to_vec();
            for dt in [None, Some(DType::F32), Some(DType::F16), Some(DType::BF16)] {
                let run = |ops: &dyn RowOpsBackend| {
                    let (mut value, mut g) = (init.clone(), grad.clone());
                    let (mut m, mut v, mut w) = (vec![0.1f32; len], vec![0.2f32; len], vec![]);
                    if dt.is_some() {
                        w = vec![f32::NAN; len];
                    }
                    let working = dt.map(|dt| (w.as_mut_slice(), dt));
                    ops.adam_update(&mut value, working, &mut g, &mut m, &mut v, &step());
                    assert!(
                        g.iter().all(|&x| x.to_bits() == 0),
                        "{len} {dt:?}: gradient zeroed"
                    );
                    [value, m, v, w]
                };
                let (a, b) = (run(&ReferenceRowOps), run(&VectorizedRowOps));
                for (what, (x, y)) in ["value", "m", "v", "working"].iter().zip(a.iter().zip(&b)) {
                    assert_bitwise(x, y, &format!("adam {what} {len} {dt:?}"));
                }
                if let Some(dt) = dt {
                    let mut rounded = a[0].clone();
                    dt.round_trip_slice(&mut rounded);
                    assert_bitwise(&a[3], &rounded, &format!("published {len} {dt:?}"));
                }
            }
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
        VectorizedRowOps.softmax_rows_inplace(&mut empty, &mut []);
        let out =
            VectorizedRowOps.layernorm_rows(&Tensor::zeros(&[0, 4]), &[1.0; 4], &[0.0; 4], 1e-5);
        assert_eq!(out.y.shape(), &[0, 4]);
        assert!(out.inv_sigma.is_empty());
        VectorizedRowOps.adam_update(&mut [], None, &mut [], &mut [], &mut [], &step());
    }
}
