//! Causal multi-head attention as one forward and one backward kernel.
//!
//! Both read the `[batch·seq, 3d]` rows of a fused QKV projection (`q | k |
//! v`, heads packed `hd` columns apart) in place and write their results
//! straight into the rows of the context (forward) or of the QKV gradient
//! (backward). The causal mask is a loop bound: row `i` of a block sums its
//! scores, its softmax and its context only over `j ≤ i` (rounded up to the
//! 4-row register tile), instead of writing `−∞` into a full `seq × seq`
//! score matrix. Each `(batch, head)` block is independent; a call that
//! clears the work cutoff of [`crate::par`] fans the batch elements, each
//! with its heads, over the calling thread's intra-op lanes.
//!
//! The kernels have the bits of the unfused composition they replace —
//! `q·kᵀ` (NT), `× 1/√hd`, `−∞` above the diagonal, row softmax, `p·v`
//! (NN), and in backward `dctx·vᵀ`, `pᵀ·dctx`, the softmax backward, `ds·k`
//! and `dsᵀ·q` — on every backend but `tiled:fma`:
//! - every output element sums its products one IEEE multiply and one IEEE
//!   add at a time, in ascending index from `+0.0`, as every GEMM of this
//!   crate does; each lane of a register tile is its own element;
//! - the products the mask removes are exact zeros (`exp(−∞) = +0`, and a
//!   masked probability times anything finite is `±0`), which leave a sum
//!   started at `+0.0` unchanged, so stopping at the diagonal changes no
//!   sum;
//! - the softmax is the shared row kernel on the prefix `0..=i`
//!   ([`softmax_prefixes`]), which has the bits of the same row masked to
//!   full length;
//! - under a half-precision [`compute_dtype`](crate::ops::MatmulBackend::compute_dtype)
//!   every GEMM operand is rounded through that format where `HalfCompute`
//!   rounds it (q, k, v, p, dctx and ds), and nothing else is;
//! - results are written as `x + 0.0`, as the scatter into a zeroed tensor
//!   did.
//!
//! `tiled:fma` fuses its GEMMs' multiply-adds; these kernels never do, so
//! under it attention computes the bits of the `tiled` backend.
//!
//! Probabilities are cached, one `seq × seq` block per `(batch, head)` in
//! one tensor, zero above the diagonal; the backward reads them instead of
//! recomputing them (sequences here are at most a few hundred positions).

use crate::dtype::DType;
use crate::lanes::{lanes_fn, Lanes};
use crate::ops::backend::current_backend;
use crate::ops::softmax::softmax_prefixes;
use crate::par::{self, work};
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Rows of one register tile.
const R: usize = 4;
/// Lanes of one register tile: one AVX-512 vector of `f32`.
const W: usize = 16;

/// One call's geometry. `s4`, `s16` and `h16` are `seq` and `hd` rounded up
/// to whole tiles: panel strides, so that a tile never reads past a panel.
#[derive(Debug, Clone, Copy)]
struct Dims {
    seq: usize,
    heads: usize,
    hd: usize,
    d: usize,
    s4: usize,
    s16: usize,
    h16: usize,
    scale: f32,
    round: DType,
}

impl Dims {
    fn new(qkv: &Tensor, batch: usize, heads: usize) -> Dims {
        assert!(batch > 0 && heads > 0, "attention needs a batch and heads");
        assert_eq!(qkv.rows() % batch, 0, "QKV rows must split into the batch");
        assert_eq!(
            qkv.cols() % (3 * heads),
            0,
            "QKV columns must be 3 × heads × hd"
        );
        let (seq, d) = (qkv.rows() / batch, qkv.cols() / 3);
        let hd = d / heads;
        Dims {
            seq,
            heads,
            hd,
            d,
            s4: seq.next_multiple_of(R),
            s16: seq.next_multiple_of(W),
            h16: hd.next_multiple_of(W),
            scale: 1.0 / (hd as f32).sqrt(),
            round: current_backend().compute_dtype(),
        }
    }

    /// Multiply-adds and `exp`s of one batch element, as work for
    /// [`par::dispatch`]: the causal half of the `seq² · hd` products of
    /// each of its GEMMs.
    fn work_per_batch(&self, gemms: u64) -> u64 {
        let (s, hd) = (self.seq as u64, self.hd as u64);
        self.heads as u64 * (gemms * s * s * hd / 2 + work::EXP_ELEM * s * s / 2)
    }
}

/// Per-lane panels, reused across the blocks one lane runs.
#[derive(Default)]
struct Panels {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    e: Vec<f32>,
    p: Vec<f32>,
    ds: Vec<f32>,
    /// The `s4` that `ds` is laid out, and zero above its diagonal, for.
    ds_side: usize,
}

/// `dst[r·stride + c] = round(src[r·src_stride + col + c])` for `r < rows`
/// and `c < w`, and zero everywhere else in `dst[..len]`; each element is
/// written once.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pack_rows(
    dst: &mut Vec<f32>,
    len: usize,
    src: &[f32],
    src_stride: usize,
    rows: usize,
    col: usize,
    w: usize,
    stride: usize,
    round: DType,
) {
    dst.resize(len.max(dst.len()), 0.0);
    let (data, pad) = dst[..len].split_at_mut(rows * stride);
    for (r, out) in data.chunks_exact_mut(stride).enumerate() {
        let (vals, zeros) = out.split_at_mut(w);
        copy(vals, &src[r * src_stride + col..][..w]);
        if !zeros.is_empty() {
            zeros.fill(0.0);
        }
    }
    pad.fill(0.0);
    round_panel(&mut dst[..len], round);
}

/// `dst.copy_from_slice(src)` in whole vectors: a row of a head is too
/// short to be worth a call to `memcpy`.
#[inline(always)]
fn copy(dst: &mut [f32], src: &[f32]) {
    let mut d = dst.chunks_exact_mut(W);
    let mut s = src.chunks_exact(W);
    for (d, s) in (&mut d).zip(&mut s) {
        let s: &[f32; W] = s.try_into().unwrap();
        d.copy_from_slice(s);
    }
    for (d, &s) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *d = s;
    }
}

/// Round a panel through the compute format, if it is a half format.
#[inline(always)]
fn round_panel(panel: &mut [f32], round: DType) {
    if round != DType::F32 {
        round.round_trip_slice(panel);
    }
}

/// The transpose of [`pack_rows`]: `dst[c·stride + r] = round(src[r·src_stride
/// + col + c])`, zero elsewhere in `dst[..len]`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pack_cols(
    dst: &mut Vec<f32>,
    len: usize,
    src: &[f32],
    src_stride: usize,
    rows: usize,
    col: usize,
    w: usize,
    stride: usize,
    round: DType,
) {
    dst.resize(len.max(dst.len()), 0.0);
    for c in 0..w {
        dst[c * stride + rows..(c + 1) * stride].fill(0.0);
    }
    dst[w * stride..len].fill(0.0);
    for r in 0..rows {
        let row = &src[r * src_stride + col..r * src_stride + col + w];
        for (c, &x) in row.iter().enumerate() {
            dst[c * stride + r] = x;
        }
    }
    round_panel(&mut dst[..len], round);
}

/// One `R × W` tile of `A·Bᵀ`-shaped products: `acc[r][l] = Σ_c a[(i0 +
/// r)·a_stride + c] · bt[c·bt_stride + j0 + l]` over `c < k`, ascending
/// from `+0.0`. `bt` is the transposed panel.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_rows_by_cols(
    a: &[f32],
    a_stride: usize,
    i0: usize,
    bt: &[f32],
    bt_stride: usize,
    j0: usize,
    k: usize,
) -> [[f32; W]; R] {
    let mut acc = [[0.0f32; W]; R];
    for c in 0..k {
        let b: &[f32; W] = bt[c * bt_stride + j0..][..W].try_into().unwrap();
        for (r, acc) in acc.iter_mut().enumerate() {
            let x = a[(i0 + r) * a_stride + c];
            for l in 0..W {
                acc[l] += x * b[l];
            }
        }
    }
    acc
}

/// One `R × W` tile of `A·B`-shaped products over rows `i` of `a` given
/// column by column: `acc[r][l] = Σ_j a(r, j) · b[j·b_stride + c0 + l]`
/// over `j ∈ js`, ascending, where `a(r, j) = a[j·a_row + r·a_col]`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_sum_over(
    js: std::ops::Range<usize>,
    a: &[f32],
    a_row: usize,
    a_col: usize,
    b: &[f32],
    b_stride: usize,
    c0: usize,
) -> [[f32; W]; R] {
    let mut acc = [[0.0f32; W]; R];
    for j in js {
        let bv: &[f32; W] = b[j * b_stride + c0..][..W].try_into().unwrap();
        for (r, acc) in acc.iter_mut().enumerate() {
            let x = a[j * a_row + r * a_col];
            for l in 0..W {
                acc[l] += x * bv[l];
            }
        }
    }
    acc
}

/// Write the first `n` lanes of tile row `acc` as `acc · scale + 0.0`.
#[inline(always)]
fn store(out: &mut [f32], acc: &[f32; W], n: usize, scale: f32) {
    for (o, &a) in out[..n].iter_mut().zip(acc) {
        *o = a * scale + 0.0;
    }
}

/// One `(batch, head)` block of the forward: scores, softmax into `probs`
/// (`seq × seq`, zero above the diagonal) and the context into columns
/// `h·hd..` of `ctx` (`seq` rows of `d`).
#[inline(always)]
fn forward_block(
    m: &Dims,
    qkv: &[f32],
    h: usize,
    probs: &mut [f32],
    ctx: &mut [f32],
    pan: &mut Panels,
) {
    let (s, hd, d3) = (m.seq, m.hd, 3 * m.d);
    pack_rows(&mut pan.a, m.s4 * hd, qkv, d3, s, h * hd, hd, hd, m.round);
    pack_cols(
        &mut pan.b,
        hd * m.s16,
        qkv,
        d3,
        s,
        m.d + h * hd,
        hd,
        m.s16,
        m.round,
    );
    let v_col = 2 * m.d + h * hd;
    pack_rows(
        &mut pan.c,
        m.s16 * m.h16,
        qkv,
        d3,
        s,
        v_col,
        hd,
        m.h16,
        m.round,
    );
    pan.p.resize(R * m.s16.max(pan.p.len() / R), 0.0);
    for i0 in (0..s).step_by(R) {
        let rows = R.min(s - i0);
        let jend = i0 + rows;
        for j0 in (0..jend).step_by(W) {
            let acc = tile_rows_by_cols(&pan.a, hd, i0, &pan.b, m.s16, j0, hd);
            for (r, acc) in acc.iter().enumerate().take(rows) {
                let i = i0 + r;
                let n = W.min(i + 1 - j0);
                for (p, &a) in probs[i * s + j0..][..n].iter_mut().zip(acc) {
                    *p = a * m.scale;
                }
            }
        }
        let block = &mut probs[i0 * s..jend * s];
        let mut rows_of = block.chunks_exact_mut(s).enumerate();
        softmax_prefixes([(); R].map(|_| match rows_of.next() {
            Some((r, row)) => (row, i0 + r + 1),
            None => (&mut [][..], 0),
        }));
        for r in 0..R {
            let pr = &mut pan.p[r * m.s16..r * m.s16 + jend];
            if r < rows {
                copy(pr, &block[r * s..r * s + jend]);
                round_panel(pr, m.round);
            } else {
                pr.fill(0.0);
            }
        }
        for c0 in (0..hd).step_by(W) {
            let acc = tile_sum_over(0..jend, &pan.p, 1, m.s16, &pan.c, m.h16, c0);
            let n = W.min(hd - c0);
            for (r, acc) in acc.iter().enumerate().take(rows) {
                let at = (i0 + r) * m.d + h * hd + c0;
                store(&mut ctx[at..], acc, n, 1.0);
            }
        }
    }
}

/// One `(batch, head)` block of the backward: `dq`, `dk` and `dv` into
/// columns `h·hd..` of the three thirds of `dqkv` (`seq` rows of `3d`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn backward_block(
    m: &Dims,
    qkv: &[f32],
    probs: &[f32],
    dctx: &[f32],
    h: usize,
    dqkv: &mut [f32],
    pan: &mut Panels,
) {
    let (s, hd, d, d3, s4) = (m.seq, m.hd, m.d, 3 * m.d, m.s4);
    let (q_col, k_col, v_col) = (h * hd, d + h * hd, 2 * d + h * hd);
    pack_rows(
        &mut pan.a,
        s4 * m.h16,
        dctx,
        d,
        s,
        h * hd,
        hd,
        m.h16,
        m.round,
    );
    pack_cols(
        &mut pan.b,
        hd * m.s16,
        qkv,
        d3,
        s,
        v_col,
        hd,
        m.s16,
        m.round,
    );
    pack_rows(
        &mut pan.c,
        s4 * m.h16,
        qkv,
        d3,
        s,
        k_col,
        hd,
        m.h16,
        m.round,
    );
    pack_rows(
        &mut pan.e,
        s4 * m.h16,
        qkv,
        d3,
        s,
        q_col,
        hd,
        m.h16,
        m.round,
    );
    pack_rows(&mut pan.p, s4 * s4, probs, s, s, 0, s, s4, m.round);
    // `ds` above the diagonal, and in the padding rows, is zero: set once
    // per shape, since no block writes there.
    if pan.ds_side != s4 {
        pan.ds.clear();
        pan.ds.resize(s4 * s4, 0.0);
        pan.ds_side = s4;
    }
    for i0 in (0..s).step_by(R) {
        let rows = R.min(s - i0);
        let jend = i0 + rows;
        // dp = dctx·vᵀ at j ≤ i, parked in `ds`; then ds = p ⊙ (dp − ⟨dp, p⟩),
        // rounded for the two GEMMs that read it.
        for j0 in (0..jend).step_by(W) {
            let acc = tile_rows_by_cols(&pan.a, m.h16, i0, &pan.b, m.s16, j0, hd);
            for (r, acc) in acc.iter().enumerate().take(rows) {
                let i = i0 + r;
                let n = W.min(i + 1 - j0);
                copy(&mut pan.ds[i * s4 + j0..][..n], &acc[..n]);
            }
        }
        // ⟨dp, p⟩ of the tile's rows side by side, each in ascending `j` from
        // `−0.0` (an `f32` sum's start). A full tile also adds its rows'
        // zeros above the diagonal, which can only turn a `−0` into a `+0`,
        // and a zero `dot` of either sign gives the same GEMM sums below.
        let mut dot = [-0.0f32; R];
        if rows == R {
            for j in 0..jend {
                for (r, dot) in dot.iter_mut().enumerate() {
                    let i = i0 + r;
                    *dot += pan.ds[i * s4 + j] * probs[i * s + j];
                }
            }
        } else {
            for (r, dot) in dot.iter_mut().enumerate().take(rows) {
                let i = i0 + r;
                for j in 0..=i {
                    *dot += pan.ds[i * s4 + j] * probs[i * s + j];
                }
            }
        }
        for (r, &dot) in dot.iter().enumerate().take(rows) {
            let i = i0 + r;
            let p = &probs[i * s..i * s + i + 1];
            let ds = &mut pan.ds[i * s4..i * s4 + i + 1];
            for (x, &pj) in ds.iter_mut().zip(p) {
                *x = pj * (*x - dot);
            }
            round_panel(ds, m.round);
        }
        // dq = ds·k · scale.
        for c0 in (0..hd).step_by(W) {
            let acc = tile_sum_over(0..jend, &pan.ds[i0 * s4..], 1, s4, &pan.c, m.h16, c0);
            let n = W.min(hd - c0);
            for (r, acc) in acc.iter().enumerate().take(rows) {
                let at = (i0 + r) * d3 + q_col + c0;
                store(&mut dqkv[at..], acc, n, m.scale);
            }
        }
    }
    // dk = dsᵀ·q · scale and dv = pᵀ·dctx: row j sums over i ≥ j.
    for j0 in (0..s).step_by(R) {
        let rows = R.min(s - j0);
        for c0 in (0..hd).step_by(W) {
            let dk = tile_sum_over(j0..s, &pan.ds[j0..], s4, 1, &pan.e, m.h16, c0);
            let dv = tile_sum_over(j0..s, &pan.p[j0..], s4, 1, &pan.a, m.h16, c0);
            let n = W.min(hd - c0);
            for r in 0..rows {
                let row = (j0 + r) * d3;
                store(&mut dqkv[row + k_col + c0..], &dk[r], n, m.scale);
                store(&mut dqkv[row + v_col + c0..], &dv[r], n, 1.0);
            }
        }
    }
}

lanes_fn! {
    /// Every head of one batch element's forward.
    fn forward_batch(m: &Dims, qkv: &[f32], probs: &mut [f32], ctx: &mut [f32], pan: &mut Panels) {
        let ss = m.seq * m.seq;
        for (h, probs) in probs.chunks_exact_mut(ss).enumerate() {
            forward_block(m, qkv, h, probs, ctx, pan);
        }
    }
}

lanes_fn! {
    /// Every head of one batch element's backward.
    fn backward_batch(
        m: &Dims,
        qkv: &[f32],
        probs: &[f32],
        dctx: &[f32],
        dqkv: &mut [f32],
        pan: &mut Panels,
    ) {
        let ss = m.seq * m.seq;
        for (h, probs) in probs.chunks_exact(ss).enumerate() {
            backward_block(m, qkv, probs, dctx, h, dqkv, pan);
        }
    }
}

/// Causal self-attention over the `[batch·seq, 3d]` rows of a fused QKV
/// projection (`q | k | v`, `heads` heads of `hd = d / heads` columns each,
/// queries and keys already rotated if the model uses RoPE). Returns the
/// `[batch·seq, d]` context, heads packed like the input, and the softmax
/// probabilities, `[batch·heads·seq, seq]` (batch-major, then head), zero
/// above each block's diagonal: the cache [`causal_attention_backward`]
/// reads.
pub fn causal_attention(qkv: &Tensor, batch: usize, heads: usize) -> (Tensor, Tensor) {
    let m = Dims::new(qkv, batch, heads);
    let (s, d) = (m.seq, m.d);
    let mut ctx = Tensor::zeros(&[batch * s, d]);
    let mut probs = Tensor::zeros(&[batch * heads * s, s]);
    if s == 0 {
        return (ctx, probs);
    }
    let lanes = Lanes::host();
    let qkv = qkv.as_slice();
    let (ctx_s, probs_s) = (ctx.as_mut_slice(), probs.as_mut_slice());
    let (ctx_b, probs_b, qkv_b) = (s * d, heads * s * s, 3 * s * d);
    if par::dispatch(batch as u64 * m.work_per_batch(2)) {
        ctx_s
            .par_chunks_mut(ctx_b)
            .zip(probs_s.par_chunks_mut(probs_b))
            .enumerate()
            .for_each(|(b, (ctx, probs))| {
                let qkv = &qkv[b * qkv_b..(b + 1) * qkv_b];
                forward_batch(lanes, &m, qkv, probs, ctx, &mut Panels::default());
            });
    } else {
        let mut pan = Panels::default();
        let batches = ctx_s
            .chunks_exact_mut(ctx_b)
            .zip(probs_s.chunks_exact_mut(probs_b));
        for ((ctx, probs), qkv) in batches.zip(qkv.chunks_exact(qkv_b)) {
            forward_batch(lanes, &m, qkv, probs, ctx, &mut pan);
        }
    }
    (ctx, probs)
}

/// The backward of [`causal_attention`]: from the same `qkv` rows, the
/// `probs` it returned and the context gradient `dctx` (`[batch·seq, d]`),
/// the gradient of the QKV rows, `[batch·seq, 3d]`, with respect to the
/// rotated queries and keys (the caller applies the inverse rotation).
pub fn causal_attention_backward(
    qkv: &Tensor,
    probs: &Tensor,
    dctx: &Tensor,
    batch: usize,
    heads: usize,
) -> Tensor {
    let m = Dims::new(qkv, batch, heads);
    let (s, d) = (m.seq, m.d);
    assert_eq!(
        probs.shape(),
        &[batch * heads * s, s],
        "attention probabilities"
    );
    assert_eq!(dctx.shape(), &[batch * s, d], "attention context gradient");
    let mut dqkv = Tensor::zeros(&[batch * s, 3 * d]);
    if s == 0 {
        return dqkv;
    }
    let lanes = Lanes::host();
    let (qkv, probs, dctx) = (qkv.as_slice(), probs.as_slice(), dctx.as_slice());
    let (ctx_b, probs_b, qkv_b) = (s * d, heads * s * s, 3 * s * d);
    let rows = dqkv.as_mut_slice();
    if par::dispatch(batch as u64 * m.work_per_batch(4)) {
        rows.par_chunks_mut(qkv_b)
            .enumerate()
            .for_each(|(b, dqkv)| {
                let (qkv, probs) = (&qkv[b * qkv_b..][..qkv_b], &probs[b * probs_b..][..probs_b]);
                let dctx = &dctx[b * ctx_b..][..ctx_b];
                backward_batch(lanes, &m, qkv, probs, dctx, dqkv, &mut Panels::default());
            });
    } else {
        let mut pan = Panels::default();
        for (b, dqkv) in rows.chunks_exact_mut(qkv_b).enumerate() {
            let (qkv, probs) = (&qkv[b * qkv_b..][..qkv_b], &probs[b * probs_b..][..probs_b]);
            let dctx = &dctx[b * ctx_b..][..ctx_b];
            backward_batch(lanes, &m, qkv, probs, dctx, dqkv, &mut pan);
        }
    }
    dqkv
}
