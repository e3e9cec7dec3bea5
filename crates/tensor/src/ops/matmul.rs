//! Matrix multiplication: backend dispatch plus the [`Reference`] kernels.
//!
//! Three layouts cover everything a transformer's forward and backward pass
//! needs, without ever materializing a transposed copy:
//!
//! * [`matmul`]    — `C[m,n]  = A[m,k] · B[k,n]`          (forward)
//! * [`matmul_nt`] — `C[m,n]  = A[m,k] · B[n,k]ᵀ`         (dX = dY · Wᵀ)
//! * [`matmul_tn`] — `C[k,n]  = A[m,k]ᵀ · B[m,n]`         (dW = Xᵀ · dY)
//!
//! plus [`matmul_bias_act`], the fused `act(A·B + bias)` epilogue used by
//! the linear/FFN layers, and [`matmul_packed`], the same against a weight
//! packed once for inference. The free functions are thin dispatchers: they
//! resolve the calling thread's [`MatmulBackend`] (see
//! `crate::ops::backend`), record the `compute.matmul.{flops,ns}` trace
//! counters when tracing is enabled, and delegate.
//!
//! [`Reference`] holds the original blocked kernels — the correctness
//! oracle every other backend is tested against. Its inner loops run in the
//! cache-friendly order for row-major storage (`ikj` for NN and for NT over
//! the materialized `Bᵀ`, row-`axpy` for TN) with K-panel blocking so the
//! streamed operand stays in L1/L2. Every layout sums each output element's
//! products in ascending reduction index from `+0.0`. Above the work cutoff of [`crate::par`], blocks
//! of output rows are distributed across the calling thread's intra-op
//! lanes; each task writes a disjoint chunk, so there is no synchronization
//! in the hot loop.

use crate::ops::backend::{current_backend, Activation, MatmulBackend};
use crate::ops::tiled::PackedB;
use crate::par;
use crate::tensor::Tensor;
use bagualu_trace::{self as trace, names};

/// Panel size along the reduction dimension; 256 f32 = 1 KiB per row panel,
/// mirroring the 256 KiB LDM budget of an SW26010-Pro CPE cluster when 64
/// rows are in flight.
pub(crate) const KC: usize = 256;

/// Estimated work of an `m×k · k×n` GEMM: its multiply-adds, the unit
/// [`par::MIN_WORK`] is written in.
pub(crate) fn gemm_work(m: usize, k: usize, n: usize) -> u64 {
    m as u64 * k as u64 * n as u64
}

/// Record the compute counters around a kernel invocation. `flops` is the
/// multiply-add count `2·m·k·n`; the timer only runs when tracing is on.
#[inline]
fn traced(flops: u64, f: impl FnOnce() -> Tensor) -> Tensor {
    if trace::enabled() {
        let t0 = std::time::Instant::now();
        let c = f();
        trace::count(names::COMPUTE_MATMUL_NS, t0.elapsed().as_nanos() as u64);
        trace::count(names::COMPUTE_MATMUL_FLOPS, flops);
        c
    } else {
        f()
    }
}

/// `C[m,n] = A[m,k] · B[k,n]`, on the calling thread's backend.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let flops = 2 * a.rows() as u64 * a.cols() as u64 * b.cols() as u64;
    traced(flops, || current_backend().matmul(a, b))
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ`, on the calling thread's backend.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let flops = 2 * a.rows() as u64 * a.cols() as u64 * b.rows() as u64;
    traced(flops, || current_backend().matmul_nt(a, b))
}

/// `C[k,n] = A[m,k]ᵀ · B[m,n]`, on the calling thread's backend.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let flops = 2 * a.rows() as u64 * a.cols() as u64 * b.cols() as u64;
    traced(flops, || current_backend().matmul_tn(a, b))
}

/// `C = act(A·B + bias)`, on the calling thread's backend. The epilogue
/// rides inside the kernel's timed span: its cost is attributed to compute,
/// where it executes.
pub fn matmul_bias_act(a: &Tensor, b: &Tensor, bias: Option<&[f32]>, act: Activation) -> Tensor {
    let flops = 2 * a.rows() as u64 * a.cols() as u64 * b.cols() as u64;
    traced(flops, || current_backend().matmul_bias_act(a, b, bias, act))
}

/// `C = act(A·W + bias)` against a weight packed once, on the calling
/// thread's backend: [`MatmulBackend::matmul_packed`].
pub fn matmul_packed(a: &Tensor, w: &PackedB, bias: Option<&[f32]>, act: Activation) -> Tensor {
    let flops = 2 * a.rows() as u64 * a.cols() as u64 * w.cols() as u64;
    traced(flops, || current_backend().matmul_packed(a, w, bias, act))
}

/// The original blocked kernels — the correctness oracle.
///
/// One deliberate change from the historical code: the hot loops used to
/// skip multiplies where `a[i,k] == 0.0`. That skip silently dropped
/// NaN/inf propagation (IEEE 754 requires `0·NaN = NaN`) and paid a branch
/// per multiply; it is gone from every backend. For finite inputs the
/// results are bit-identical with or without the skip (adding an exact
/// `±0.0` product never changes a finite accumulator), which is pinned by
/// `zero_skip_removal_is_bit_identical_on_finite_data` below; the NaN
/// difference is documented by `zero_times_nan_propagates`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reference;

impl MatmulBackend for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        reference_matmul(a, b)
    }

    fn matmul_nt(&self, a: &Tensor, b: &Tensor) -> Tensor {
        reference_matmul_nt(a, b)
    }

    fn matmul_tn(&self, a: &Tensor, b: &Tensor) -> Tensor {
        reference_matmul_tn(a, b)
    }
}

/// `C[m,n] = A[m,k] · B[k,n]` with the reference kernel.
pub(crate) fn reference_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "matmul: inner dims {k} vs {kb}");
    let mut c = Tensor::zeros(&[m, n]);
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    let (av, bv) = (a.as_slice(), b.as_slice());

    let rows = par::gemm_rows_per_task(m, gemm_work(1, k, n));
    par::for_each_chunk(
        c.as_mut_slice(),
        rows * n,
        gemm_work(m, k, n),
        |task, cchunk| {
            for (r, crow) in cchunk.chunks_mut(n).enumerate() {
                let i = task * rows + r;
                let arow = &av[i * k..(i + 1) * k];
                for k0 in (0..k).step_by(KC) {
                    let k1 = (k0 + KC).min(k);
                    for (kk, &aik) in arow[k0..k1].iter().enumerate() {
                        let brow = &bv[(k0 + kk) * n..(k0 + kk + 1) * n];
                        for (cj, &bj) in crow.iter_mut().zip(brow) {
                            *cj += aik * bj;
                        }
                    }
                }
            }
        },
    );
    c
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ` with the reference kernel: the reference NN
/// loop over the materialized `Bᵀ`, so every NT element sums its products
/// in ascending `k`, as in every other layout.
pub(crate) fn reference_matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, kb) = (a.cols(), b.cols());
    assert_eq!(k, kb, "matmul_nt: inner dims {k} vs {kb}");
    reference_matmul(a, &b.transposed())
}

/// `C[k,n] = A[m,k]ᵀ · B[m,n]` with the reference kernel — the
/// weight-gradient layout `dW = Xᵀ · dY`.
///
/// Parallelized over panels of output rows: each task owns a contiguous
/// range of rows of `C` and streams through all `m` rows of `A`/`B`,
/// accumulating `C[r,:] += A[i,r] * B[i,:]`. Writes are disjoint, reads are
/// shared. Both the panel's first row and its row count derive from the
/// chunk the task was handed (`p * panel` and `cpanel.len() / n`), so a
/// ragged final panel — `k` not a multiple of the panel size, or `k`
/// smaller than one panel — can never drift out of agreement with the
/// chunking.
pub(crate) fn reference_matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (mb, n) = (b.rows(), b.cols());
    assert_eq!(m, mb, "matmul_tn: outer dims {m} vs {mb}");
    let mut c = Tensor::zeros(&[k, n]);
    if m == 0 || k == 0 || n == 0 {
        return c;
    }
    let (av, bv) = (a.as_slice(), b.as_slice());

    // Panel of output rows per task: big enough to amortize streaming B,
    // never larger than the k rows that exist.
    let panel = 64.max(k / (par::current_num_threads() * 4)).min(k);

    par::for_each_chunk(
        c.as_mut_slice(),
        panel * n,
        gemm_work(m, k, n),
        |p, cpanel| {
            let r0 = p * panel;
            debug_assert_eq!(cpanel.len() % n, 0, "panel chunk must be whole rows");
            let rows_here = cpanel.len() / n;
            debug_assert!(r0 + rows_here <= k);
            for i in 0..m {
                let brow = &bv[i * n..(i + 1) * n];
                let arow = &av[i * k..(i + 1) * k];
                for r in 0..rows_here {
                    let aik = arow[r0 + r];
                    let crow = &mut cpanel[r * n..(r + 1) * n];
                    for (cj, &bj) in crow.iter_mut().zip(brow) {
                        *cj += aik * bj;
                    }
                }
            }
        },
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Straightforward reference implementation.
    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.at(i, p) * b.at(p, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    /// The historical NN inner loop *with* the `aik == 0.0` skip, kept only
    /// here: it documents the behavior the skip used to cause.
    fn old_skipping_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for kk in 0..k {
                let aik = a.at(i, kk);
                if aik == 0.0 {
                    continue; // the old branch: silently drops 0·NaN
                }
                for j in 0..n {
                    c.set(i, j, c.at(i, j) + aik * b.at(kk, j));
                }
            }
        }
        c
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Rng::seed_from(1);
        let a = Tensor::randn(&[5, 5], 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            eye.set(i, i, 1.0);
        }
        assert!(matmul(&a, &eye).approx_eq(&a, 1e-6));
        assert!(matmul(&eye, &a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = Rng::seed_from(2);
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (17, 33, 9), (64, 128, 96)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            assert!(
                matmul(&a, &b).approx_eq(&naive(&a, &b), 1e-4),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn matmul_nt_matches_transposed() {
        let mut rng = Rng::seed_from(3);
        for (m, k, n) in [(4, 8, 6), (31, 17, 13), (70, 70, 70)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[n, k], 1.0, &mut rng);
            let expect = naive(&a, &b.transposed());
            let got = matmul_nt(&a, &b);
            assert_eq!(got.shape(), expect.shape());
            for (x, y) in got.as_slice().iter().zip(expect.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn matmul_tn_matches_transposed() {
        let mut rng = Rng::seed_from(4);
        for (m, k, n) in [(4, 8, 6), (29, 15, 11), (80, 100, 60)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[m, n], 1.0, &mut rng);
            let expect = naive(&a.transposed(), &b);
            assert!(matmul_tn(&a, &b).approx_eq(&expect, 1e-4), "{m}x{k}x{n}");
        }
    }

    /// `k` smaller than one output-row panel, and panel-non-dividing `k`:
    /// the ragged final chunk must still agree with the oracle (regression
    /// for the panel row-range arithmetic).
    #[test]
    fn matmul_tn_ragged_panels_match_naive() {
        let mut rng = Rng::seed_from(6);
        // panel = max(64, ...) so k < 64 exercises k-smaller-than-panel;
        // k = 65 and 127 exercise a one-row and a near-full ragged tail.
        for (m, k, n) in [(40, 3, 9), (12, 65, 70), (33, 127, 17), (5, 64, 64)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[m, n], 1.0, &mut rng);
            let expect = naive(&a.transposed(), &b);
            assert!(matmul_tn(&a, &b).approx_eq(&expect, 1e-4), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn degenerate_shapes_are_fine() {
        for (m, k, n) in [(0, 4, 3), (4, 0, 3), (4, 3, 0), (0, 0, 0), (1, 1, 1)] {
            let a = Tensor::zeros(&[m, k]);
            let b = Tensor::zeros(&[k, n]);
            assert_eq!(matmul(&a, &b).shape(), &[m, n]);
            let bt = Tensor::zeros(&[n, k]);
            assert_eq!(matmul_nt(&a, &bt).shape(), &[m, n]);
            let b2 = Tensor::zeros(&[m, n]);
            assert_eq!(matmul_tn(&a, &b2).shape(), &[k, n]);
        }
    }

    #[test]
    fn large_parallel_path_matches_naive() {
        let mut rng = Rng::seed_from(5);
        let a = Tensor::randn(&[130, 300], 1.0, &mut rng);
        let b = Tensor::randn(&[300, 140], 1.0, &mut rng);
        // 130·300·140 multiply-adds clear `par::MIN_WORK`: the fanned-out
        // path wherever the test thread owns more than one lane.
        assert!(matmul(&a, &b).approx_eq(&naive(&a, &b), 1e-4));
        let bt = Tensor::randn(&[140, 300], 1.0, &mut rng);
        assert!(matmul_nt(&a, &bt).approx_eq(&naive(&a, &bt.transposed()), 1e-4));
        let b2 = Tensor::randn(&[130, 120], 1.0, &mut rng);
        assert!(matmul_tn(&a, &b2).approx_eq(&naive(&a.transposed(), &b2), 1e-4));
    }

    /// IEEE semantics: a zero weight must not mask a NaN (or inf) operand.
    /// The old `aik == 0.0` skip did exactly that — shown side by side.
    #[test]
    fn zero_times_nan_propagates() {
        // A = [0, 1] picks out b-row 1; b-row 0 carries the NaN that a
        // correct kernel must still propagate through the 0-weight.
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
        let b = Tensor::from_vec(vec![f32::NAN, f32::NAN, 2.0, 3.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert!(c.at(0, 0).is_nan() && c.at(0, 1).is_nan());
        let c = matmul_tn(&a.transposed(), &b);
        assert!(c.at(0, 0).is_nan() && c.at(0, 1).is_nan());
        // The documented old behavior: the skip swallowed the NaN.
        let old = old_skipping_matmul(&a, &b);
        assert_eq!(old.at(0, 0), 2.0);
        assert_eq!(old.at(0, 1), 3.0);
        // 0 · inf = NaN as well.
        let binf = Tensor::from_vec(vec![f32::INFINITY, 0.0, 2.0, 3.0], &[2, 2]);
        assert!(matmul(&a, &binf).at(0, 0).is_nan());
    }

    /// On finite data the skip never mattered: adding an exact ±0.0 product
    /// cannot change a finite accumulator (C starts at +0.0 and stays
    /// +0.0-or-nonzero under round-to-nearest). Sparse inputs with negative
    /// values exercise the −0.0 product case.
    #[test]
    fn zero_skip_removal_is_bit_identical_on_finite_data() {
        let mut rng = Rng::seed_from(9);
        let mut a = Tensor::randn(&[13, 21], 1.0, &mut rng);
        for (i, x) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *x = 0.0;
            }
        }
        let b = Tensor::randn(&[21, 8], 1.0, &mut rng);
        let new = matmul(&a, &b);
        let old = old_skipping_matmul(&a, &b);
        for (x, y) in new.as_slice().iter().zip(old.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn dimension_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        matmul(&a, &b);
    }
}
