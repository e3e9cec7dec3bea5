//! [`Tiled`]: cache-blocked, packed-panel, register-blocked GEMM.
//!
//! Structure follows the classic Goto decomposition, sized for the
//! SW26010-Pro analogue this workspace targets (see DESIGN.md "Compute
//! floor"):
//!
//! * **KC** (reduction panel, shared with the reference kernel): the slice
//!   of the reduction dimension kept hot while a block of C accumulates.
//! * **MC** rows of C per parallel task — the unit the intra-op lanes
//!   claim (see [`crate::par`]).
//! * **MR×NR** register tile: the micro-kernel holds a block of C in
//!   registers, broadcasts one A element per row, and multiply-adds an
//!   NR-wide packed B row into each — zero C traffic inside the k-loop and
//!   far fewer memory operations per FLOP than the reference axpy loop.
//! * **Packed B** ([`PackedB`]): before the row-block loop, B is repacked
//!   once into KC-high, NR-wide column panels (zero-padded on the ragged
//!   right edge), so the micro-kernel streams B contiguously regardless of
//!   `n`.
//! * **Single-tile GEMMs skip the pack**: when all of A's rows fit one
//!   register tile (`m ≤ MR` of the tier in use — the few-row GEMMs of
//!   decoding and of a lightly loaded expert) each panel would be written
//!   once and read once, so the same micro-kernels take B's own row stride
//!   and run over row-major B at full `k`. One pass over the weight instead
//!   of three; the rule is structural, there is nothing to tune.
//! * **Weights that never change are packed once** ([`PackedB::new`], the
//!   same routine and layout as the per-call pack): a layer frozen for
//!   inference keeps only the panels and multiplies through
//!   [`MatmulBackend::matmul_packed`], which feeds them to the same
//!   micro-kernels at every row count — even `m ≤ MR`, where one
//!   contiguous pass over the panels beats the strided pass over row-major
//!   B. No call on that path packs.
//! * **One core for every layout**: NT is NN on Bᵀ — the one packing
//!   routine takes its source's row and column strides, so it writes Bᵀ's
//!   panels straight from row-major `[n, k]` B — and TN is NN on an exact
//!   transpose of A.
//!
//! Three micro-kernel paths share this skeleton. Which one a call runs is
//! fixed by its B panel width, chosen once per call from `n` and the tier
//! of [`Lanes::host`] (and recorded in a [`PackedB`]):
//!
//! * **wide** (`n ≥ 64` on x86-64 with AVX-512F, detected at runtime): a
//!   6×64 tile — 24 zmm accumulators + 4 packed-B vectors + 1 broadcast =
//!   29 of the 32 vector registers — using explicit `_mm512_mul_ps` +
//!   `_mm512_add_ps`. Row remainders run the same kernel at their own
//!   height (it is const-generic in its rows); the ragged right column edge
//!   runs the narrow tiles over the padded panel, 16 columns at a time.
//!   Each `unsafe` call site states the CPU feature and the slice bounds it
//!   relies on, and checks the bounds with `debug_assert!` in debug builds.
//! * **narrow** (`n < 64` on the same hosts — the attention core's
//!   `q·kᵀ`, `p·v` and their backward, the gate): 16-wide panels and 8×16
//!   tiles, one zmm of accumulator per row, every row height its own
//!   instance. Safe Rust, auto-vectorized.
//! * **portable** (a host without AVX-512F, or a thread inside
//!   [`crate::lanes::portable`]): a safe 8×8 scalar tile the
//!   auto-vectorizer lowers to whatever the target baseline offers — SSE2
//!   on x86-64 — with a row-at-a-time kernel on every ragged edge.
//!
//! The chunk loop that calls the safe tiles is compiled twice, at the
//! target's baseline and for AVX-512F ([`lanes_fn!`]), and runs at the
//! call's tier, so the narrow tile is a 16-lane kernel on the hosts that
//! run it. Its lanes are distinct output elements, like the wide kernel's.
//!
//! # Bit-identity with `Reference`
//!
//! One rule holds for every layout and backend: every output element
//! starts at `+0.0` and sums its `k` products in strictly ascending `k`.
//! Tiling reorders *which* output element is computed when — never the
//! additions *within* one element (KC-blocks ascend, `kk` ascends inside
//! the micro-kernel, and the register tile round-trips through memory
//! between KC-blocks exactly — f32 store/load is lossless). The wide
//! kernel deliberately issues *separate* IEEE multiply and add
//! instructions rather than FMA: a fused multiply-add skips the
//! intermediate rounding of the product and would produce different bits
//! than the scalar reference. Vector lanes are distinct output elements,
//! so lane width never touches accumulation order. NT runs the NN core on
//! Bᵀ's panels, so its bits are NN's on the materialized transpose; TN
//! runs it on an exact transpose of A, whose `k`-order is the reference
//! TN's `i`-order. The proptests in `tests/` pin all of this bitwise.
//!
//! # The FMA tier
//!
//! [`TiledFma`] runs the same tiling with `_mm512_fmadd_ps` in the wide
//! micro-kernel (every layout runs it). Skipping the product's intermediate
//! rounding changes low bits, so this tier is **not** bit-identical to the
//! oracle; it is pinned to a tolerance band instead: per output element the
//! absolute error is bounded by `2 (k+1) ε · Σₚ|A[i,p]||B[p,j]|` (each of
//! the ≤ k+1 fused/rounded steps contributes at most one half-ulp of the
//! running magnitude bound, doubled for slack). Where the wide kernel does
//! not run (no AVX-512F, `n < 64`, or the ragged right *column* edge),
//! `TiledFma` runs the exact narrow or portable tiles and computes exactly
//! the same bits as [`Tiled`] — the band holds trivially.
//! Which kernel an element gets depends on its column alone, never on how
//! many rows share the call, so both tiers are row-wise pure: row *i* of an
//! `[m×k]·[k×n]` product has the bits of the one-row product of row *i*
//! (what makes continuous batching invisible in served logits). Runs whose
//! tests assert bit-identity (elastic re-shard pins, checkpoint-resume
//! pins) must not use it; the CLI rejects those combinations.

use crate::lanes::{lanes_fn, Lanes};
use crate::ops::backend::{Activation, MatmulBackend};
use crate::ops::elementwise::GeluClock;
use crate::ops::matmul::{gemm_work, KC};
use crate::par;
use crate::tensor::Tensor;
use bagualu_trace::{self as trace, names};

/// Rows of C per parallel task on the portable and narrow paths.
pub(crate) const MC: usize = 64;
/// Portable micro-tile height (rows of A per register block).
pub(crate) const MR: usize = 8;
/// Portable micro-tile width (columns of B per register block).
pub(crate) const NR: usize = 8;
/// Narrow-path micro-tile height: 8 rows of one 16-lane accumulator each.
/// Divides [`MC`].
pub(crate) const MR_N: usize = 8;
/// Narrow-path micro-tile width: one 16-lane vector of `f32`.
pub(crate) const NR_N: usize = 16;
/// Wide-path micro-tile height: 6 rows × 4 zmm of accumulator.
pub(crate) const MR_W: usize = 6;
/// Wide-path micro-tile height for the FMA tier: 5 rows keeps the live
/// register count at 25 zmm so the allocator never re-folds B loads into
/// the FMAs (see [`micro_full_wide`]). Divides [`MC_W`] exactly, like 6.
pub(crate) const MR_W_FMA: usize = 5;
/// Wide-path micro-tile width: 64 columns = 4 × 16 f32 lanes.
pub(crate) const NR_W: usize = 64;
/// Rows of C per parallel task on the wide path — a multiple of [`MR_W`]
/// so full-height chunks contain no row edge at all.
pub(crate) const MC_W: usize = 60;
/// Wide-path reduction block: 128 rows × 64 cols × 4 B = 32 KiB, so one
/// packed-B panel stays L1-resident under the micro-kernel. Block height
/// never affects accumulation order (each element still sums its products
/// in strictly ascending `k`), so this is free to differ from [`KC`].
pub(crate) const KC_W: usize = 128;

/// Which micro-kernels a GEMM runs, fixed by its B panel width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// [`NR`]-wide panels, 8×8 tiles: a host without AVX-512F.
    Portable,
    /// [`NR_N`]-wide panels, [`MR_N`]×16 tiles: `n < 64` on a host with it.
    Narrow,
    /// [`NR_W`]-wide panels, the 6×64 intrinsic tile, with the narrow tiles
    /// on the ragged right column edge.
    Wide,
}

impl Kernel {
    /// The kernel of an NN GEMM with `n` output columns at tier `lanes`:
    /// the 64-wide tile only pays when at least one panel is full.
    fn of(n: usize, lanes: Lanes) -> Kernel {
        match (lanes.is_wide(), n >= NR_W) {
            (true, true) => Kernel::Wide,
            (true, false) => Kernel::Narrow,
            (false, _) => Kernel::Portable,
        }
    }

    /// Panel width and KC-block height.
    fn panels(self) -> (usize, usize) {
        match self {
            Kernel::Wide => (NR_W, KC_W),
            Kernel::Narrow => (NR_N, KC),
            Kernel::Portable => (NR, KC),
        }
    }

    /// Register-tile height: the wide kernel runs 6 rows exact and 5 fused
    /// (see [`MR_W_FMA`]); the narrow and portable tiles compute exactly at
    /// any `fma`.
    fn tile_rows(self, fma: bool) -> usize {
        match (self, fma) {
            (Kernel::Wide, false) => MR_W,
            (Kernel::Wide, true) => MR_W_FMA,
            (Kernel::Narrow, _) => MR_N,
            (Kernel::Portable, _) => MR,
        }
    }
}

/// `len` floats starting on a 64-byte boundary (one cache line, one zmm)
/// inside a tensor's buffer: the storage of packed panels. A recycled
/// buffer sits wherever `malloc` first put it, page-aligned from a fresh
/// mmap but only 16-byte aligned out of a heap bin, and a 16-byte base makes
/// three of every four 64-byte panel loads straddle a cache line. The
/// arithmetic-bound exact kernels hide that; the load-bound FMA kernels
/// measurably do not.
#[derive(Debug)]
struct Aligned {
    data: Tensor,
    /// Offset (in floats) of the first 64-byte-aligned element of `data`.
    off: usize,
    len: usize,
}

impl Aligned {
    /// Over-allocate one cache line through `alloc` and skip to the aligned
    /// start; a tensor's heap block never moves, so the offset stays valid.
    fn new(len: usize, alloc: impl FnOnce(usize) -> Tensor) -> Aligned {
        let data = alloc(len + 16);
        let off = (data.as_slice().as_ptr() as usize).wrapping_neg() % 64 / 4;
        Aligned { data, off, len }
    }

    fn as_slice(&self) -> &[f32] {
        &self.data.as_slice()[self.off..self.off + self.len]
    }

    fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data.as_mut_slice()[self.off..self.off + self.len]
    }
}

impl Clone for Aligned {
    /// A copy aligned in its own buffer: the offset belongs to the address.
    fn clone(&self) -> Aligned {
        let mut copy = Aligned::new(self.len, |n| Tensor::zeros(&[n]));
        copy.as_mut_slice().copy_from_slice(self.as_slice());
        copy
    }
}

/// A `[k, n]` right-hand NN operand repacked into the panels the
/// micro-kernels read: KC-high, `nr`-wide, zero-padded column panels,
/// 64-byte aligned. The layout is fixed by `n` and the host when the value
/// is built and recorded in it — `NR_W × KC_W` where the wide kernel runs,
/// `NR_N × KC` for a narrower `n` on the same host, `NR × KC` on a host
/// without AVX-512F — so the exact and FMA tiers, which differ only in tile
/// height, read the same panels.
///
/// Layout: KC-blocks in ascending `k0` order; within a block, `n_panels`
/// panels of `kc·nr` contiguous floats. Offset arithmetic stays exact for
/// the ragged final KC-block because every *preceding* block has full
/// height: `block_base = k0 · n_panels · nr`.
///
/// A multi-tile GEMM packs B into scratch from the process-wide
/// [`crate::reservoir`] (`Tensor::scratch`): whichever recycled buffer was
/// used last and is big enough, so one call maps no memory of its own and
/// consecutive calls pack into the same cache-warm block whatever their `n`.
/// [`PackedB::new`] packs a weight that will not change, once, into a
/// buffer of its own size, for [`MatmulBackend::matmul_packed`].
#[derive(Debug, Clone)]
pub struct PackedB {
    panels: Aligned,
    k: usize,
    n: usize,
    /// The kernel the panels are laid out for, which fixes their width and
    /// KC-block height: [`Kernel::Wide`] only where [`Kernel::of`] granted
    /// it, at the wide tier of [`Lanes`] — on a host with AVX-512F.
    kernel: Kernel,
}

impl PackedB {
    /// Pack `b` once for a lifetime of [`MatmulBackend::matmul_packed`]
    /// calls, counted under `compute.pack.{bytes,ns}` when tracing is on.
    pub fn new(b: &Tensor) -> PackedB {
        let alloc = |len| Tensor::zeros(&[len]);
        PackedB::pack(
            b.as_slice(),
            b.rows(),
            b.cols(),
            (b.cols(), 1),
            alloc,
            Lanes::host(),
        )
    }

    /// Rows of the packed operand (the GEMM's `k`).
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Columns of the packed operand (the GEMM's `n`).
    pub fn cols(&self) -> usize {
        self.n
    }

    /// The one packing routine, shared by NN, NT and [`PackedB::new`]: the
    /// `[k, n]` operand whose element `(kk, j)` sits at `src[kk·rs + j·cs]`
    /// for `(rs, cs) = strides` — row-major B at `(n, 1)`, the transpose
    /// of a row-major `[n, k]` B at `(1, k)` — into panels in storage from
    /// `alloc`, laid out for the kernel `n` runs at tier `lanes`.
    fn pack(
        src: &[f32],
        k: usize,
        n: usize,
        strides: (usize, usize),
        alloc: impl FnOnce(usize) -> Tensor,
        lanes: Lanes,
    ) -> PackedB {
        let (rs, cs) = strides;
        let kernel = Kernel::of(n, lanes);
        let (nr, kcb) = kernel.panels();
        let n_panels = n.div_ceil(nr);
        let len = k * n_panels * nr;
        timed_pack(len, || {
            let mut panels = Aligned::new(len, alloc);
            let floats = panels.as_mut_slice();
            for k0 in (0..k).step_by(kcb) {
                let kc = (k0 + kcb).min(k) - k0;
                let block = &mut floats[k0 * n_panels * nr..][..kc * n_panels * nr];
                if cs == 1 {
                    // Rows contiguous: each source row is read once,
                    // sequentially, and scattered to its panels — sequential
                    // reads beat sequential writes once B outgrows L2.
                    for kk in 0..kc {
                        let row = &src[(k0 + kk) * rs..][..n];
                        for (p, panel) in block.chunks_exact_mut(kc * nr).enumerate() {
                            let (j0, width) = (p * nr, nr.min(n - p * nr));
                            panel[kk * nr..][..width].copy_from_slice(&row[j0..j0 + width]);
                        }
                    }
                    continue;
                }
                // Columns contiguous (a transpose): column `j` is the
                // source row from `j·cs` on. Four columns by four `kk` at a
                // time: four loads of four contiguous floats become four
                // panel-row stores of four (a 4×4 register transpose); the
                // ragged ends copy element by element.
                debug_assert_eq!(rs, 1, "pack: one of the strides must be 1");
                for (p, panel) in block.chunks_exact_mut(kc * nr).enumerate() {
                    let (j0, width) = (p * nr, nr.min(n - p * nr));
                    let col = |l: usize| &src[(j0 + l) * cs + k0..][..kc];
                    let (w4, kc4) = (width / 4 * 4, kc / 4 * 4);
                    for l0 in (0..w4).step_by(4) {
                        let c = [col(l0), col(l0 + 1), col(l0 + 2), col(l0 + 3)];
                        for t in (0..kc4).step_by(4) {
                            let q: [[f32; 4]; 4] = c.map(|ci| ci[t..t + 4].try_into().unwrap());
                            let rows = panel[t * nr..(t + 4) * nr].chunks_exact_mut(nr);
                            for (r, row) in rows.enumerate() {
                                row[l0..l0 + 4].copy_from_slice(&q.map(|qi| qi[r]));
                            }
                        }
                        for t in kc4..kc {
                            panel[t * nr + l0..][..4].copy_from_slice(&c.map(|ci| ci[t]));
                        }
                    }
                    for l in w4..width {
                        for (kk, &x) in col(l).iter().enumerate() {
                            panel[kk * nr + l] = x;
                        }
                    }
                }
            }
            PackedB {
                panels,
                k,
                n,
                kernel,
            }
        })
    }

    /// The same layout over `f` of every panel element, padding included:
    /// for an element-wise map with `f(0) = 0` (operand quantization), the
    /// packing of `f` applied to the source.
    pub(crate) fn map_elems(&self, f: impl FnOnce(&[f32]) -> Vec<f32>) -> PackedB {
        let mapped = f(self.panels.as_slice());
        let mut panels = Aligned::new(mapped.len(), Tensor::scratch);
        panels.as_mut_slice().copy_from_slice(&mapped);
        PackedB { panels, ..*self }
    }

    /// The `kc`-row panel `p` of the KC-block starting at `k0`.
    #[inline]
    fn panel(&self, k0: usize, kc: usize, p: usize) -> &[f32] {
        let nr = self.kernel.panels().0;
        let base = k0 * self.n.div_ceil(nr) * nr + p * kc * nr;
        &self.panels.as_slice()[base..base + kc * nr]
    }
}

/// One KC-block of one B panel against the C rows of a chunk: the
/// coordinates every micro-kernel takes. The safe kernels address a tile
/// `r` rows and `s0` columns into it.
struct Tile<'a> {
    av: &'a [f32],
    k: usize,
    /// A's row of the chunk's first C row.
    ia0: usize,
    k0: usize,
    kc: usize,
    /// The panel from its first column: `kc` rows `ldb` apart.
    bpanel: &'a [f32],
    ldb: usize,
    n: usize,
    /// C's column of the panel's first column.
    j0: usize,
}

/// Safe `MR×NR` micro-kernel over C rows `r..r + MR` and panel columns
/// `s0..s0 + NR`: every loop bound is a constant, so the accumulator tile
/// lives in registers and the inner loop compiles to broadcast + multiply +
/// add at the width of the tier it is compiled at — the portable 8×8 tile
/// at whatever the baseline ISA offers, the narrow 8×16 tile at one zmm
/// per row. Every B row is read `NR` wide (a panel's zero padding
/// included); only the `width ≤ NR` valid columns of C are loaded and
/// stored, so the lanes past them never reach C.
#[inline(always)]
fn micro_tile<const MR: usize, const NR: usize>(
    t: &Tile,
    r: usize,
    s0: usize,
    width: usize,
    cchunk: &mut [f32],
) {
    let (ia0, j0, bpanel) = (t.ia0 + r, t.j0 + s0, &t.bpanel[s0..]);
    // A ragged tile moves C through a copy of the row, so that the
    // accumulators themselves are only ever indexed by constants and stay
    // in registers.
    let mut acc = [[0.0f32; NR]; MR];
    // The first KC-block starts from C's `+0.0` without reading it.
    if t.k0 > 0 {
        for (i, accr) in acc.iter_mut().enumerate() {
            let crow = &cchunk[(r + i) * t.n + j0..][..width];
            if width == NR {
                *accr = crow.try_into().unwrap();
            } else {
                let mut row = [0.0f32; NR];
                row[..width].copy_from_slice(crow);
                *accr = row;
            }
        }
    }
    for kk in 0..t.kc {
        let brow: &[f32; NR] = bpanel[kk * t.ldb..][..NR].try_into().unwrap();
        for (i, accr) in acc.iter_mut().enumerate() {
            let aik = t.av[(ia0 + i) * t.k + t.k0 + kk];
            for (cj, &bj) in accr.iter_mut().zip(brow) {
                *cj += aik * bj;
            }
        }
    }
    for (i, accr) in acc.iter().enumerate() {
        let crow = &mut cchunk[(r + i) * t.n + j0..][..width];
        if width == NR {
            crow.copy_from_slice(accr);
        } else {
            let row = *accr;
            crow.copy_from_slice(&row[..width]);
        }
    }
}

/// Wide full MR×NR_W micro-kernel: `MR` C rows × 4 zmm accumulators, with
/// one B row (4 loads) and `MR` scalar broadcasts per `kk` step. Consecutive
/// B rows sit `ldb` floats apart: `NR_W` in a packed panel, `n` when
/// `bpanel` is row-major B itself (see [`tiled_nn`]).
///
/// With `FMA = false`, multiply and add are issued as *separate* IEEE
/// instructions so every product rounds exactly like the scalar reference
/// and the backend stays bit-identical (see the module docs). With
/// `FMA = true` the pair fuses into `_mm512_fmadd_ps` — half the arithmetic
/// µops, low bits inside the documented tolerance band.
///
/// `MR` is a const parameter because the two tiers want different register
/// budgets: the exact tier runs 6 rows (24 accumulators + 4 B + 1
/// broadcast = 29 zmm) and is arithmetic-bound anyway, but at 6 rows the
/// register allocator is squeezed enough that it re-folds the four B
/// vectors into *every* multiply as memory operands — ~30 load µops per
/// `kk` instead of 10. Hidden under 48 arithmetic µops that is free; under
/// 24 fused FMAs it becomes the bottleneck. The FMA tier therefore runs 5
/// rows (25 zmm live), which keeps B in registers and the kernel on its
/// FMA-port bound — same 64 flops/cycle ceiling, actually reachable. Row
/// remainders (`rows mod mr`) instantiate the same kernel at their own
/// height, so every row of a full-width panel gets its tier's arithmetic.
///
/// # Safety
///
/// Callers must guarantee:
/// * the CPU supports AVX-512F ([`crate::lanes::wide_kernel_available`]);
/// * `av` holds at least `(ia0 + MR - 1) * k + k0 + kc` elements;
/// * `bpanel` holds at least `(kc - 1) * ldb + NR_W` elements;
/// * `cchunk` holds at least `(rc0 + MR - 1) * n + j0 + NR_W` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)] // same signature as micro_full — the tile coordinates
unsafe fn micro_full_wide<const FMA: bool, const MR: usize>(
    av: &[f32],
    k: usize,
    ia0: usize,
    k0: usize,
    kc: usize,
    bpanel: &[f32],
    ldb: usize,
    cchunk: &mut [f32],
    rc0: usize,
    n: usize,
    j0: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(MR > 0 && kc > 0 && (ia0 + MR - 1) * k + k0 + kc <= av.len());
    debug_assert!((kc - 1) * ldb + NR_W <= bpanel.len());
    debug_assert!((rc0 + MR - 1) * n + j0 + NR_W <= cchunk.len());

    let cp = cchunk.as_mut_ptr();
    let bp = bpanel.as_ptr();
    // Hoist the per-row A cursors so the k-loop does no index arithmetic.
    let mut arow = [av.as_ptr(); MR];
    for (r, ar) in arow.iter_mut().enumerate() {
        *ar = av.as_ptr().add((ia0 + r) * k + k0);
    }
    let mut acc = [[_mm512_setzero_ps(); 4]; MR];
    // The first KC-block starts from C's `+0.0` without reading it.
    if k0 > 0 {
        for (r, accr) in acc.iter_mut().enumerate() {
            let base = cp.add((rc0 + r) * n + j0);
            for (v, a) in accr.iter_mut().enumerate() {
                *a = _mm512_loadu_ps(base.add(v * 16));
            }
        }
    }
    for kk in 0..kc {
        let brow = bp.add(kk * ldb);
        let b0 = _mm512_loadu_ps(brow);
        let b1 = _mm512_loadu_ps(brow.add(16));
        let b2 = _mm512_loadu_ps(brow.add(32));
        let b3 = _mm512_loadu_ps(brow.add(48));
        for (r, accr) in acc.iter_mut().enumerate() {
            let a = _mm512_set1_ps(*arow[r].add(kk));
            if FMA {
                accr[0] = _mm512_fmadd_ps(a, b0, accr[0]);
                accr[1] = _mm512_fmadd_ps(a, b1, accr[1]);
                accr[2] = _mm512_fmadd_ps(a, b2, accr[2]);
                accr[3] = _mm512_fmadd_ps(a, b3, accr[3]);
            } else {
                accr[0] = _mm512_add_ps(accr[0], _mm512_mul_ps(a, b0));
                accr[1] = _mm512_add_ps(accr[1], _mm512_mul_ps(a, b1));
                accr[2] = _mm512_add_ps(accr[2], _mm512_mul_ps(a, b2));
                accr[3] = _mm512_add_ps(accr[3], _mm512_mul_ps(a, b3));
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let base = cp.add((rc0 + r) * n + j0);
        for (v, a) in accr.iter().enumerate() {
            _mm512_storeu_ps(base.add(v * 16), *a);
        }
    }
}

/// Generic edge micro-kernel for ragged tiles, over C rows `r..r + rows`
/// and panel columns `s0..s0 + width`: the portable path's ragged right
/// column edge (`width < NR`) and row remainders, and the ragged edge of
/// the other paths over row-major B, whose rows end where a panel's
/// padding would be. Row-at-a-time with a stack accumulator, loading and
/// storing only the `width` valid columns so a packed panel's zero padding
/// (or, over row-major B at `ldb = n`, the next panel's columns) never
/// reaches C. Per element the products still accumulate in ascending `kk`
/// order — bit-identical by construction.
#[inline(always)]
fn micro_edge(t: &Tile, r: usize, rows: usize, s0: usize, width: usize, cchunk: &mut [f32]) {
    debug_assert!(s0 + width <= NR_W && width <= t.ldb);
    let (j0, bpanel) = (t.j0 + s0, &t.bpanel[s0..]);
    let mut acc = [0.0f32; NR_W];
    for i in r..r + rows {
        let arow = &t.av[(t.ia0 + i) * t.k + t.k0..][..t.kc];
        let crow = &mut cchunk[i * t.n + j0..][..width];
        acc[..width].copy_from_slice(crow);
        for (kk, &aik) in arow.iter().enumerate() {
            let brow = &bpanel[kk * t.ldb..][..width];
            for (cj, &bj) in acc[..width].iter_mut().zip(brow) {
                *cj += aik * bj;
            }
        }
        crow.copy_from_slice(&acc[..width]);
    }
}

/// Run one pack of `floats` panel elements, counted under
/// `compute.pack.{bytes,ns}` when tracing is on.
fn timed_pack<T>(floats: usize, pack: impl FnOnce() -> T) -> T {
    if !trace::enabled() {
        return pack();
    }
    let t0 = std::time::Instant::now();
    let packed = pack();
    trace::count(names::COMPUTE_PACK_NS, t0.elapsed().as_nanos() as u64);
    trace::count(names::COMPUTE_PACK_BYTES, 4 * floats as u64);
    packed
}

/// Apply the fused epilogue to a chunk of whole C rows, in `f32`, in the
/// same per-element order as the unfused `add_row_broadcast` + activation
/// sequence (so fused and unfused are bit-identical). Row by row, so a row
/// is still in L1 when the activation's slice kernel reads it; `gelu` times
/// the activation alone, not the bias add.
fn epilogue(
    cchunk: &mut [f32],
    n: usize,
    bias: Option<&[f32]>,
    act: Activation,
    gelu: &GeluClock,
    lanes: Lanes,
) {
    if bias.is_none() && act == Activation::Identity {
        return;
    }
    for row in cchunk.chunks_mut(n) {
        if let Some(bias) = bias {
            for (x, &b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
        gelu.time(|| act.apply_slice(lanes, row));
    }
}

/// The NN result when there is nothing to multiply — an empty C, or C = 0
/// through the epilogue for an empty reduction — and `None` otherwise.
fn nn_degenerate(
    a: &Tensor,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
    act: Activation,
    lanes: Lanes,
) -> Option<Tensor> {
    let (m, ka) = (a.rows(), a.cols());
    assert_eq!(ka, k, "matmul: inner dims {ka} vs {k}");
    if m != 0 && n != 0 && k != 0 {
        return None;
    }
    let mut c = Tensor::zeros(&[m, n]);
    if m != 0 && n != 0 {
        let gelu = GeluClock::start(act == Activation::Gelu);
        epilogue(c.as_mut_slice(), n, bias, act, &gelu, lanes);
        gelu.record(m * n);
    }
    Some(c)
}

/// Where the NN core reads B from.
enum BSource<'a> {
    /// Row-major B read in place: one `k`-block, B's own row stride.
    InPlace(&'a Tensor),
    Packed(&'a PackedB),
}

/// The shared NN entry point: `C = act(A·B + bias)` with the epilogue
/// applied per row-chunk while it is still cache-resident. `HalfCompute`
/// reuses this on quantized operands.
///
/// B is packed once into panels — unless all of A's rows fit one register
/// tile (`m ≤ mr` of the tier in use). Then every panel would be written
/// once and read once, so the same micro-kernels run straight over
/// row-major B (`ldb = n`) at full `k`: the accumulators never leave
/// registers and B is read exactly once. Each element still starts at
/// `+0.0` and sums its products in ascending `k`, so the bits are those of
/// the packed path.
///
/// `fma` selects the fused multiply-add variant of the *wide* 64-column
/// micro-kernel only, at every row height — the narrow tiles, the ragged
/// right column edge and the portable path always compute exactly, so a
/// row's bits never depend on how many other rows share the call.
pub(crate) fn tiled_nn(
    a: &Tensor,
    b: &Tensor,
    bias: Option<&[f32]>,
    act: Activation,
    fma: bool,
) -> Tensor {
    let (k, n) = (b.rows(), b.cols());
    let lanes = Lanes::host();
    if let Some(c) = nn_degenerate(a, k, n, bias, act, lanes) {
        return c;
    }
    // C before the panels' scratch: the other way round the hot scratch
    // takes the buffer C would have had, and the training workloads'
    // memory moves.
    let c = Tensor::zeros(&[a.rows(), n]);
    if a.rows() <= Kernel::of(n, lanes).tile_rows(fma) {
        trace::count(names::COMPUTE_MATMUL_UNPACKED, 1);
        nn_core(a, BSource::InPlace(b), c, bias, act, fma, lanes)
    } else {
        let packed = PackedB::pack(b.as_slice(), k, n, (n, 1), Tensor::scratch, lanes);
        nn_core(a, BSource::Packed(&packed), c, bias, act, fma, lanes)
    }
}

/// [`tiled_nn`] against panels packed once ([`PackedB::new`]): no pack, at
/// any row count. The panels are B's, so the bits are those of `tiled_nn`
/// over the weight they were packed from.
pub(crate) fn tiled_nn_packed(
    a: &Tensor,
    w: &PackedB,
    bias: Option<&[f32]>,
    act: Activation,
    fma: bool,
) -> Tensor {
    let lanes = Lanes::host();
    if let Some(c) = nn_degenerate(a, w.k, w.n, bias, act, lanes) {
        return c;
    }
    let c = Tensor::zeros(&[a.rows(), w.n]);
    nn_core(a, BSource::Packed(w), c, bias, act, fma, lanes)
}

/// One NN call's operands and layout, shared by every row chunk of C.
struct NnCall<'a> {
    av: &'a [f32],
    k: usize,
    n: usize,
    b: BSource<'a>,
    kernel: Kernel,
    fma: bool,
    /// KC-block height.
    kcb: usize,
    /// Distance between consecutive `kk` rows of a panel.
    ldb: usize,
}

/// The NN kernel proper over non-empty operands, into the zeroed `[m, n]`
/// output `c`, with every chunk of C rows at tier `lanes`.
fn nn_core(
    a: &Tensor,
    b: BSource,
    mut c: Tensor,
    bias: Option<&[f32]>,
    act: Activation,
    fma: bool,
    lanes: Lanes,
) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let n = c.cols();
    // Unpacked: one `k`-block at B's own row stride. Packed: the layout the
    // panels record. The FMA wide kernel runs 5-row tiles (see
    // [`MR_W_FMA`]); blocking (`kcb`) is shared with the exact tier:
    // measured on AVX-512 hosts, L1-resident B panels beat a
    // register-resident C with full-`k` panels streaming from L2.
    let (kernel, kcb, ldb) = match b {
        BSource::InPlace(_) => (Kernel::of(n, lanes), k, n),
        BSource::Packed(p) => {
            let (nr, kcb) = p.kernel.panels();
            (p.kernel, kcb, nr)
        }
    };
    let mc = if kernel == Kernel::Wide { MC_W } else { MC };
    let call = NnCall {
        av: a.as_slice(),
        k,
        n,
        b,
        kernel,
        fma,
        kcb,
        ldb,
    };
    let gelu = GeluClock::start(act == Activation::Gelu);
    let body = |chunk_idx: usize, cchunk: &mut [f32]| {
        nn_chunk(lanes, &call, chunk_idx * mc, cchunk);
        epilogue(cchunk, n, bias, act, &gelu, lanes);
    };
    par::for_each_chunk(c.as_mut_slice(), mc * n, gemm_work(m, k, n), body);
    gelu.record(m * n);
    c
}

lanes_fn! {
    /// C rows `ia0..` — all of `cchunk` — over every KC-block and panel.
    fn nn_chunk(call: &NnCall<'_>, ia0: usize, cchunk: &mut [f32]) {
        let &NnCall { av, k, n, kernel, fma, kcb, ldb, .. } = call;
        let (nr, rows) = (kernel.panels().0, cchunk.len() / n);
        for k0 in (0..k).step_by(kcb) {
            let kc = (k0 + kcb).min(k) - k0;
            for p in 0..n.div_ceil(nr) {
                let j0 = p * nr;
                let width = nr.min(n - j0);
                let (bpanel, padded) = match &call.b {
                    BSource::Packed(packed) => (packed.panel(k0, kc, p), true),
                    BSource::InPlace(b) => (&b.as_slice()[k0 * n + j0..], false),
                };
                let tile = Tile { av, k, ia0, k0, kc, bpanel, ldb, n, j0 };
                match kernel {
                    Kernel::Wide if width == NR_W => tile.wide(rows, fma, cchunk),
                    Kernel::Portable => tile.portable(rows, width, cchunk),
                    _ => tile.narrow(rows, width, padded, cchunk),
                }
            }
        }
    }
}

impl Tile<'_> {
    /// The portable path: full 8×8 tiles, and the edge kernel on every
    /// ragged row or column edge.
    #[inline(always)]
    fn portable(&self, rows: usize, width: usize, cchunk: &mut [f32]) {
        for r in (0..rows).step_by(MR) {
            let rh = MR.min(rows - r);
            if rh == MR && width == NR {
                micro_tile::<MR, NR>(self, r, 0, NR, cchunk);
            } else {
                micro_edge(self, r, rh, 0, width, cchunk);
            }
        }
    }

    /// The narrow tiles over `width` columns of the panel, 16 at a time,
    /// every row height its own instance; a ragged last block stores only
    /// its valid columns. Over row-major B (not `padded`) a ragged block
    /// has no padding to read, and takes the edge kernel.
    #[inline(always)]
    fn narrow(&self, rows: usize, width: usize, padded: bool, cchunk: &mut [f32]) {
        for s0 in (0..width).step_by(NR_N) {
            let w = NR_N.min(width - s0);
            if w < NR_N && !padded {
                micro_edge(self, 0, rows, s0, w, cchunk);
                continue;
            }
            for r in (0..rows).step_by(MR_N) {
                macro_rules! tile {
                    ($rh:literal) => {
                        micro_tile::<$rh, NR_N>(self, r, s0, w, cchunk)
                    };
                }
                match MR_N.min(rows - r) {
                    8 => tile!(8),
                    7 => tile!(7),
                    6 => tile!(6),
                    5 => tile!(5),
                    4 => tile!(4),
                    3 => tile!(3),
                    2 => tile!(2),
                    1 => tile!(1),
                    rh => unreachable!("narrow row tile of {rh} rows"),
                }
            }
        }
    }

    /// The 64-wide intrinsic tiles over a full panel, every row height its
    /// own instance.
    #[inline(always)]
    fn wide(&self, rows: usize, fma: bool, cchunk: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        {
            let Tile {
                av,
                k,
                ia0,
                k0,
                kc,
                bpanel,
                ldb,
                n,
                j0,
            } = *self;
            let mr = Kernel::Wide.tile_rows(fma);
            for r in (0..rows).step_by(mr) {
                let rh = mr.min(rows - r);
                // Each precondition of `micro_full_wide`, checked in debug
                // builds: a tile out of range fails here, in the bitwise
                // proptests, instead of reading past a slice.
                debug_assert!(kc > 0 && (ia0 + r + rh - 1) * k + k0 + kc <= av.len());
                debug_assert!((kc - 1) * ldb + NR_W <= bpanel.len());
                debug_assert!((r + rh - 1) * n + j0 + NR_W <= cchunk.len());
                debug_assert!(r + rh <= rows && j0 + NR_W <= n);
                macro_rules! tile {
                    ($fma:literal, $rh:literal) => {
                        micro_full_wide::<$fma, $rh>(
                            av,
                            k,
                            ia0 + r,
                            k0,
                            kc,
                            bpanel,
                            ldb,
                            cchunk,
                            r,
                            n,
                            j0,
                        )
                    };
                }
                // SAFETY: a `Kernel::Wide` call proves AVX-512F support —
                // read in place, `Kernel::of` chose it at the wide tier of
                // `Lanes`, which exists only on such a host, and a `PackedB`
                // records `Kernel::Wide` only the same way (the fields are
                // private to this module; a CPU's features do not change
                // while a process runs); the loop bounds keep `ia0+r+rh`
                // rows inside `av`; `bpanel` is either a packed panel,
                // exactly `kc·NR_W` long at `ldb = NR_W`, or row-major B
                // from `[k0, j0]` on at `ldb = n`, where row `kc−1` still
                // holds `n − j0 ≥ NR_W` floats (this panel is full); and
                // `r+rh` rows × `j0+NR_W` cols sit inside this chunk. The
                // debug assertions above check each of these.
                unsafe {
                    match (fma, rh) {
                        (false, 6) => tile!(false, 6),
                        (false, 5) => tile!(false, 5),
                        (false, 4) => tile!(false, 4),
                        (false, 3) => tile!(false, 3),
                        (false, 2) => tile!(false, 2),
                        (false, 1) => tile!(false, 1),
                        (true, 5) => tile!(true, 5),
                        (true, 4) => tile!(true, 4),
                        (true, 3) => tile!(true, 3),
                        (true, 2) => tile!(true, 2),
                        (true, 1) => tile!(true, 1),
                        _ => unreachable!("row tile of {rh} rows, fma = {fma}"),
                    }
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (rows, fma, cchunk);
            unreachable!("wide path requires x86_64");
        }
    }
}

/// NT as NN on Bᵀ, the way TN is NN on Aᵀ: the `[n, k]` row-major B is
/// packed transposed, through [`PackedB::pack`]'s strides, into the panels
/// [`tiled_nn`] would pack from the materialized `[k, n]` transpose, and
/// the NN core runs over them. The bits are therefore those of `tiled_nn`
/// on `Bᵀ`: every element sums its products in ascending `k` from `+0.0`.
/// The panels are always packed — B's rows are Bᵀ's columns, so there is
/// no row-major operand to read in place.
pub(crate) fn tiled_nt(a: &Tensor, b: &Tensor, fma: bool) -> Tensor {
    let (n, k) = (b.rows(), b.cols());
    let lanes = Lanes::host();
    if let Some(c) = nn_degenerate(a, k, n, None, Activation::Identity, lanes) {
        return c;
    }
    let c = Tensor::zeros(&[a.rows(), n]);
    let packed = PackedB::pack(b.as_slice(), k, n, (1, k), Tensor::scratch, lanes);
    let identity = Activation::Identity;
    nn_core(a, BSource::Packed(&packed), c, None, identity, fma, lanes)
}

/// Cache-blocked, packed, register-tiled kernels — bit-identical to
/// [`Reference`](crate::ops::matmul::Reference) on every f32 input.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tiled;

impl MatmulBackend for Tiled {
    fn name(&self) -> &'static str {
        "tiled"
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        tiled_nn(a, b, None, Activation::Identity, false)
    }

    fn matmul_nt(&self, a: &Tensor, b: &Tensor) -> Tensor {
        tiled_nt(a, b, false)
    }

    /// TN as an exact transpose of A fed to the NN core: the core's
    /// ascending-`k` accumulation *is* the reference TN's ascending-`i`
    /// accumulation, so the results are bit-identical.
    fn matmul_tn(&self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(
            a.rows(),
            b.rows(),
            "matmul_tn: outer dims {} vs {}",
            a.rows(),
            b.rows()
        );
        tiled_nn(&a.transposed(), b, None, Activation::Identity, false)
    }

    fn matmul_bias_act(
        &self,
        a: &Tensor,
        b: &Tensor,
        bias: Option<&[f32]>,
        act: Activation,
    ) -> Tensor {
        tiled_nn(a, b, bias, act, false)
    }
}

/// The same tiling as [`Tiled`] with fused multiply-add in the wide
/// micro-kernels — roughly half the arithmetic µops where the 64-wide tile
/// runs, at the price of bit-identity: results sit in a tolerance band of
/// the oracle (see the module docs) rather than matching it exactly. Opt-in
/// via `--compute-backend tiled:fma`; rejected wherever a run promises
/// bit-pinned comparisons.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TiledFma;

impl MatmulBackend for TiledFma {
    fn name(&self) -> &'static str {
        "tiled:fma"
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        tiled_nn(a, b, None, Activation::Identity, true)
    }

    fn matmul_nt(&self, a: &Tensor, b: &Tensor) -> Tensor {
        tiled_nt(a, b, true)
    }

    fn matmul_tn(&self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(
            a.rows(),
            b.rows(),
            "matmul_tn: outer dims {} vs {}",
            a.rows(),
            b.rows()
        );
        tiled_nn(&a.transposed(), b, None, Activation::Identity, true)
    }

    fn matmul_bias_act(
        &self,
        a: &Tensor,
        b: &Tensor,
        bias: Option<&[f32]>,
        act: Activation,
    ) -> Tensor {
        tiled_nn(a, b, bias, act, true)
    }

    fn matmul_packed(
        &self,
        a: &Tensor,
        w: &PackedB,
        bias: Option<&[f32]>,
        act: Activation,
    ) -> Tensor {
        tiled_nn_packed(a, w, bias, act, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul::Reference;
    use crate::rng::Rng;

    fn assert_bitwise(x: &Tensor, y: &Tensor, what: &str) {
        assert_eq!(x.shape(), y.shape(), "{what}: shape");
        for (i, (a, b)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    /// Shapes chosen to hit: tiny, MR/NR-ragged edges, KC-non-dividing k,
    /// multi-KC-block k, the serial/parallel boundary, multi-chunk m, and
    /// (on AVX-512 hosts) the wide path's full tiles plus both of its edge
    /// kinds — ragged rows mod MR_W and ragged columns mod NR_W; then the
    /// few-row sweep of [`few_row_shapes`].
    fn shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = base_shapes();
        shapes.extend(few_row_shapes());
        shapes
    }

    fn base_shapes() -> Vec<(usize, usize, usize)> {
        vec![
            (1, 1, 1),
            (3, 5, 2),
            (8, 8, 8),
            (9, 7, 17),
            (64, 64, 64),
            (65, 257, 66),
            (64, 300, 69),
            (130, 31, 70),
            (61, 500, 131),
            (128, 64, 128),
        ]
    }

    /// Every row count around the register tiles (single-tile unpacked at
    /// `m ≤ mr`, one full tile plus each remainder height above it) against
    /// empty, one-deep, KC-straddling and multi-block reductions, and widths
    /// on the narrow or portable path (`n < 64`), exactly one and many wide
    /// panels, and a ragged column edge.
    fn few_row_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for m in 1..=13 {
            for k in [0, 1, 127, 128, 129, 300, 1024] {
                for n in [8, 48, 64, 65, 128, 1000, 1024] {
                    shapes.push((m, k, n));
                }
            }
        }
        shapes
    }

    #[test]
    fn nn_bitwise_matches_reference() {
        let mut rng = Rng::seed_from(11);
        for (m, k, n) in shapes() {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            assert_bitwise(
                &Tiled.matmul(&a, &b),
                &Reference.matmul(&a, &b),
                &format!("nn {m}x{k}x{n}"),
            );
        }
    }

    #[test]
    fn nt_bitwise_matches_reference() {
        let mut rng = Rng::seed_from(12);
        for (m, k, n) in shapes() {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[n, k], 1.0, &mut rng);
            assert_bitwise(
                &Tiled.matmul_nt(&a, &b),
                &Reference.matmul_nt(&a, &b),
                &format!("nt {m}x{k}x{n}"),
            );
        }
    }

    #[test]
    fn tn_bitwise_matches_reference() {
        let mut rng = Rng::seed_from(13);
        for (m, k, n) in shapes() {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[m, n], 1.0, &mut rng);
            assert_bitwise(
                &Tiled.matmul_tn(&a, &b),
                &Reference.matmul_tn(&a, &b),
                &format!("tn {m}x{k}x{n}"),
            );
        }
    }

    #[test]
    fn degenerate_shapes_are_fine() {
        for (m, k, n) in [(0, 4, 3), (4, 0, 3), (4, 3, 0), (0, 0, 0)] {
            assert_eq!(
                Tiled
                    .matmul(&Tensor::zeros(&[m, k]), &Tensor::zeros(&[k, n]))
                    .shape(),
                &[m, n]
            );
            assert_eq!(
                Tiled
                    .matmul_nt(&Tensor::zeros(&[m, k]), &Tensor::zeros(&[n, k]))
                    .shape(),
                &[m, n]
            );
            assert_eq!(
                Tiled
                    .matmul_tn(&Tensor::zeros(&[m, k]), &Tensor::zeros(&[m, n]))
                    .shape(),
                &[k, n]
            );
        }
    }

    /// The fused epilogue must equal the unfused sequence bit-for-bit, and
    /// (because Tiled == Reference bitwise) also the Reference default
    /// composition. k == 0 checks that the epilogue still fires on an empty
    /// reduction.
    #[test]
    fn fused_epilogue_bitwise_matches_unfused() {
        let mut rng = Rng::seed_from(14);
        // The few-row shapes run the epilogue on the unpacked path, wide
        // (n ≥ 64, with a ragged column edge) and portable.
        for (m, k, n) in [
            (5, 4, 3),
            (65, 257, 66),
            (9, 0, 7),
            (1, 256, 1024),
            (4, 129, 65),
            (6, 300, 200),
            (8, 127, 48),
        ] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.25 - 1.0).collect();
            for act in [Activation::Identity, Activation::Gelu] {
                for bias_opt in [Some(bias.as_slice()), None] {
                    let fused = Tiled.matmul_bias_act(&a, &b, bias_opt, act);
                    let mut manual = Tiled.matmul(&a, &b);
                    if let Some(bs) = bias_opt {
                        manual.add_row_broadcast(bs);
                    }
                    act.apply(&mut manual);
                    assert_bitwise(&fused, &manual, &format!("fused {m}x{k}x{n} {act:?}"));
                    let ref_fused = Reference.matmul_bias_act(&a, &b, bias_opt, act);
                    assert_bitwise(&fused, &ref_fused, &format!("vs ref {m}x{k}x{n} {act:?}"));
                }
            }
        }
    }

    /// The per-element magnitude bound `Σₚ|A[i,p]||B[p,j]|` used by the
    /// FMA tolerance band.
    fn abs_bound(a: &Tensor, b: &Tensor, nt: bool) -> Tensor {
        let (m, k) = (a.rows(), a.cols());
        let n = if nt { b.rows() } else { b.cols() };
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for p in 0..k {
                    let bv = if nt { b.at(j, p) } else { b.at(p, j) };
                    s += (a.at(i, p) * bv).abs() as f64;
                }
                c.set(i, j, s as f32);
            }
        }
        c
    }

    /// `TiledFma` must sit inside the documented tolerance band of the
    /// oracle: per element, `|Δ| ≤ 2 (k+1) ε · Σ|a||b|` (see the module
    /// docs). Exercises NN, NT, TN and the fused epilogue on shapes that
    /// hit the wide path, its edges, and the portable path.
    #[test]
    fn fma_variant_is_within_the_documented_band() {
        let mut rng = Rng::seed_from(15);
        // Of the few-row sweep, the shapes up to two panels wide: every row
        // height on and off the unpacked path and both column kinds. The
        // scalar bound below is what a longer list would mostly time.
        let few_rows = few_row_shapes()
            .into_iter()
            .filter(|&(_, k, n)| k <= 300 && n <= 128);
        for (m, k, n) in base_shapes().into_iter().chain(few_rows) {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let tol_of = |bound: f32, k: usize| 2.0 * (k as f32 + 1.0) * f32::EPSILON * bound;
            {
                let b = Tensor::randn(&[k, n], 1.0, &mut rng);
                let exact = Reference.matmul(&a, &b);
                let bound = abs_bound(&a, &b, false);
                let prepacked =
                    TiledFma.matmul_packed(&a, &PackedB::new(&b), None, Activation::Identity);
                for (path, fma) in [("nn", TiledFma.matmul(&a, &b)), ("prepacked nn", prepacked)] {
                    for i in 0..m * n {
                        let d = (exact.as_slice()[i] - fma.as_slice()[i]).abs();
                        assert!(
                            d <= tol_of(bound.as_slice()[i], k),
                            "{path} {m}x{k}x{n} elem {i}: Δ={d}"
                        );
                    }
                }
            }
            {
                let b = Tensor::randn(&[n, k], 1.0, &mut rng);
                let exact = Reference.matmul_nt(&a, &b);
                let fma = TiledFma.matmul_nt(&a, &b);
                let bound = abs_bound(&a, &b, true);
                for i in 0..m * n {
                    let d = (exact.as_slice()[i] - fma.as_slice()[i]).abs();
                    assert!(
                        d <= tol_of(bound.as_slice()[i], k),
                        "nt {m}x{k}x{n} elem {i}: Δ={d}"
                    );
                }
            }
            {
                let b = Tensor::randn(&[m, n], 1.0, &mut rng);
                let exact = Reference.matmul_tn(&a, &b);
                let fma = TiledFma.matmul_tn(&a, &b);
                let bound = abs_bound(&a.transposed(), &b, false);
                for i in 0..k * n {
                    let d = (exact.as_slice()[i] - fma.as_slice()[i]).abs();
                    assert!(
                        d <= tol_of(bound.as_slice()[i], m),
                        "tn {m}x{k}x{n} elem {i}: Δ={d}"
                    );
                }
            }
        }
    }

    /// Where the 64-wide kernel does not run (`n < NR_W`: the narrow tier
    /// on an AVX-512 host, the portable one elsewhere), `TiledFma` computes
    /// exactly the same bits as `Tiled` — FMA only ever fires inside the
    /// wide full micro-kernels.
    #[test]
    fn fma_equals_tiled_bitwise_on_the_portable_path() {
        let mut rng = Rng::seed_from(16);
        for (m, k, n) in [
            (9, 33, 7),
            (40, 120, 63),
            (130, 31, 8),
            (32, 16, 32),
            (33, 300, 16),
        ] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            assert_bitwise(
                &TiledFma.matmul(&a, &b),
                &Tiled.matmul(&a, &b),
                &format!("portable nn {m}x{k}x{n}"),
            );
            let bt = Tensor::randn(&[n, k], 1.0, &mut rng);
            assert_bitwise(
                &TiledFma.matmul_nt(&a, &bt),
                &Tiled.matmul_nt(&a, &bt),
                &format!("portable nt {m}x{k}x{n}"),
            );
            let at = Tensor::randn(&[m, k], 1.0, &mut rng);
            let bm = Tensor::randn(&[m, n], 1.0, &mut rng);
            assert_bitwise(
                &TiledFma.matmul_tn(&at, &bm),
                &Tiled.matmul_tn(&at, &bm),
                &format!("portable tn {m}x{k}x{n}"),
            );
            let w = PackedB::new(&b);
            assert_bitwise(
                &TiledFma.matmul_packed(&a, &w, None, Activation::Gelu),
                &Tiled.matmul_packed(&a, &w, None, Activation::Gelu),
                &format!("portable prepacked {m}x{k}x{n}"),
            );
        }
    }

    /// Every narrow width against every row height around both tiers' tiles
    /// and the 64-row chunk, and reductions empty, one deep, odd and past
    /// KC: NN, NT, TN, prepacked and bias+GELU on the portable tier
    /// (through [`crate::lanes::portable`]) and on the host's own, each
    /// against `Reference`, bit for bit. On an AVX-512 host the second is
    /// the narrow tier; elsewhere it is the portable tier again.
    #[test]
    fn narrow_shapes_match_reference_on_both_tiers() {
        let mut rng = Rng::seed_from(20);
        let all_ops = |a: &Tensor, b: &Tensor, bias: &[f32]| {
            let w = PackedB::new(b);
            [
                Tiled.matmul(a, b),
                Tiled.matmul_nt(a, &b.transposed()),
                Tiled.matmul_tn(&a.transposed(), b),
                Tiled.matmul_packed(a, &w, None, Activation::Identity),
                Tiled.matmul_bias_act(a, b, Some(bias), Activation::Gelu),
            ]
        };
        for n in [1, 4, 15, 16, 17, 31, 32, 33, 48, 63] {
            for m in [1, 7, 8, 9, 15, 16, 17, 33, 64, 65, 130] {
                for k in [0, 1, 17, 257] {
                    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
                    let b = Tensor::randn(&[k, n], 1.0, &mut rng);
                    let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.25 - 1.0).collect();
                    let nn = Reference.matmul(&a, &b);
                    let fused = Reference.matmul_bias_act(&a, &b, Some(&bias), Activation::Gelu);
                    let want = [&nn, &nn, &nn, &nn, &fused];
                    let tiers = [
                        (
                            "portable",
                            crate::lanes::portable(|| all_ops(&a, &b, &bias)),
                        ),
                        ("host", all_ops(&a, &b, &bias)),
                    ];
                    for (tier, got) in &tiers {
                        let ops = ["nn", "nt", "tn", "prepacked", "fused"];
                        for ((op, got), want) in ops.iter().zip(got).zip(want) {
                            assert_bitwise(got, want, &format!("{tier} {op} {m}x{k}x{n}"));
                        }
                    }
                }
            }
        }
    }

    /// Row *i* of `[m×k]·[k×n]` equals the one-row product of row *i*,
    /// bitwise, on both tiers: which micro-kernel computes an element
    /// depends on its column, never on the rows beside it. Under
    /// `TiledFma` this failed while row remainders fell to the exact edge
    /// kernel and full tiles fused.
    #[test]
    fn rows_do_not_depend_on_the_rows_beside_them() {
        let mut rng = Rng::seed_from(17);
        let backends: [&dyn MatmulBackend; 2] = [&Tiled, &TiledFma];
        for (k, n) in [(256, 768), (129, 200), (300, 48)] {
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.01 - 1.0).collect();
            for m in 1..=13 {
                let a = Tensor::randn(&[m, k], 1.0, &mut rng);
                for be in backends {
                    let whole = be.matmul(&a, &b);
                    let fused = be.matmul_bias_act(&a, &b, Some(&bias), Activation::Gelu);
                    for i in 0..m {
                        let row = a.slice_rows(i, i + 1);
                        let what = format!("{} row {i} of {m}x{k}x{n}", be.name());
                        assert_bitwise(&whole.slice_rows(i, i + 1), &be.matmul(&row, &b), &what);
                        assert_bitwise(
                            &fused.slice_rows(i, i + 1),
                            &be.matmul_bias_act(&row, &b, Some(&bias), Activation::Gelu),
                            &format!("fused {what}"),
                        );
                    }
                }
            }
        }
    }

    /// A weight packed once gives every call the bits of the per-call path —
    /// which packs, or reads B in place at `m ≤ mr` — plain and through the
    /// fused bias+GELU epilogue, on both tiers; on the exact tier those are
    /// the reference's (and `Reference` inherits the exact tier's
    /// `matmul_packed`).
    #[test]
    fn prepacked_matches_packed_per_call_and_reference() {
        let mut rng = Rng::seed_from(18);
        for (m, k, n) in shapes() {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.01 - 1.0).collect();
            let w = PackedB::new(&b);
            assert_eq!((w.rows(), w.cols()), (k, n));
            for (bias, act) in [
                (None, Activation::Identity),
                (Some(bias.as_slice()), Activation::Gelu),
            ] {
                let what = format!("{m}x{k}x{n} {act:?}");
                let reference = Reference.matmul_bias_act(&a, &b, bias, act);
                let per_call = Tiled.matmul_bias_act(&a, &b, bias, act);
                assert_bitwise(&per_call, &reference, &format!("per call {what}"));
                assert_bitwise(
                    &Tiled.matmul_packed(&a, &w, bias, act),
                    &reference,
                    &format!("prepacked {what}"),
                );
                assert_bitwise(
                    &TiledFma.matmul_packed(&a, &w, bias, act),
                    &TiledFma.matmul_bias_act(&a, &b, bias, act),
                    &format!("tiled:fma prepacked {what}"),
                );
            }
        }
    }

    /// A cloned weight is aligned in its own buffer and multiplies the same.
    #[test]
    fn a_cloned_packed_weight_multiplies_the_same() {
        let mut rng = Rng::seed_from(19);
        let (a, b) = (
            Tensor::randn(&[9, 300], 1.0, &mut rng),
            Tensor::randn(&[300, 130], 1.0, &mut rng),
        );
        let w = PackedB::new(&b);
        let copy = w.clone();
        drop(w);
        assert_bitwise(
            &Tiled.matmul_packed(&a, &copy, None, Activation::Identity),
            &Reference.matmul(&a, &b),
            "clone",
        );
    }

    #[test]
    fn nan_propagates_through_zero_weights() {
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
        let b = Tensor::from_vec(vec![f32::NAN, f32::NAN, 2.0, 3.0], &[2, 2]);
        let c = Tiled.matmul(&a, &b);
        assert!(c.at(0, 0).is_nan() && c.at(0, 1).is_nan());
    }
}
