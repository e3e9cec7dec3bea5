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
//! * **Packed B**: before the row-block loop, B is repacked once into
//!   KC-high, NR-wide column panels (zero-padded on the ragged right edge),
//!   so the micro-kernel streams B contiguously regardless of `n`.
//! * **Single-tile GEMMs skip the pack**: when all of A's rows fit one
//!   register tile (`m ≤ MR` of the tier in use — the few-row GEMMs of
//!   decoding and of a lightly loaded expert) each panel would be written
//!   once and read once, so the same micro-kernels take B's own row stride
//!   and run over row-major B at full `k`. One pass over the weight instead
//!   of three; the rule is structural, there is nothing to tune.
//!
//! Two micro-kernel paths share this skeleton, chosen once per call:
//!
//! * **wide** (x86-64 with AVX-512F, detected at runtime): a 6×64 tile —
//!   24 zmm accumulators + 4 packed-B vectors + 1 broadcast = 29 of the 32
//!   vector registers — using explicit `_mm512_mul_ps` + `_mm512_add_ps`.
//!   Row remainders run the same kernel at their own height (it is
//!   const-generic in its rows). This is the only `unsafe` in the
//!   workspace; each call site proves the CPU feature and the slice bounds
//!   it relies on.
//! * **portable** (everything else, and any `n < 64` where a 64-wide panel
//!   would be all edge): a safe 8×8 scalar tile the auto-vectorizer lowers
//!   to whatever the target baseline offers.
//!
//! # Bit-identity with `Reference`
//!
//! Tiling reorders *which* output element is computed when — never the
//! additions *within* one element. Every `C[i,j]` starts at `+0.0` and
//! accumulates its `k` products in strictly increasing `k` order (KC-blocks
//! ascend, `kk` ascends inside the micro-kernel, and the register tile
//! round-trips through memory between KC-blocks exactly — f32 store/load
//! is lossless). The wide kernel deliberately issues *separate* IEEE
//! multiply and add instructions rather than FMA: a fused multiply-add
//! skips the intermediate rounding of the product and would produce
//! different bits than the scalar reference. Vector lanes are distinct
//! output elements, so lane width never touches accumulation order. NT
//! packs Bᵀ into column panels and reproduces the reference's `dot4`
//! pattern exactly — four independent chains filled in ascending `k`, chain
//! sums folded left-to-right, then a sequential tail — with output columns
//! as vector lanes; edge columns fall back to the scalar `dot4` itself. TN
//! is an exact transpose of A fed to the NN core, whose `k`-order is the
//! reference TN's `i`-order. The proptests in `tests/` pin all of this
//! bitwise.
//!
//! # The FMA tier
//!
//! [`TiledFma`] runs the same tiling with `_mm512_fmadd_ps` in the wide
//! micro-kernels (NN and NT). Skipping the product's intermediate
//! rounding changes low bits, so this tier is **not** bit-identical to the
//! oracle; it is pinned to a tolerance band instead: per output element the
//! absolute error is bounded by `2 (k+1) ε · Σₚ|A[i,p]||B[p,j]|` (each of
//! the ≤ k+1 fused/rounded steps contributes at most one half-ulp of the
//! running magnitude bound, doubled for slack). Where the wide kernel does
//! not run (no AVX-512F, or the ragged right *column* edge), `TiledFma`
//! computes exactly the same bits as [`Tiled`] — the band holds trivially.
//! Which kernel an element gets depends on its column alone, never on how
//! many rows share the call, so both tiers are row-wise pure: row *i* of an
//! `[m×k]·[k×n]` product has the bits of the one-row product of row *i*
//! (what makes continuous batching invisible in served logits). Runs whose
//! tests assert bit-identity (elastic re-shard pins, checkpoint-resume
//! pins) must not use it; the CLI rejects those combinations.

use crate::ops::backend::{Activation, MatmulBackend};
use crate::ops::elementwise::GeluClock;
use crate::ops::matmul::{dot4, gemm_work, KC};
use crate::par;
use crate::tensor::Tensor;
use bagualu_trace::{self as trace, names};

/// Rows of C per parallel task on the portable path.
pub(crate) const MC: usize = 64;
/// Portable micro-tile height (rows of A per register block).
pub(crate) const MR: usize = 8;
/// Portable micro-tile width (columns of B per register block).
pub(crate) const NR: usize = 8;
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
/// Output columns per packed-Bᵀ panel on the portable NT path. Matches the
/// NN micro-tile width so the autovectorizer sees the same 8-wide rows.
const NT_NR: usize = NR;
/// Output columns per packed-Bᵀ panel on the wide NT path: 64 = 4 zmm of
/// lanes per chain accumulator. One full-k panel at `k = 512` is 128 KiB —
/// L2-resident while every A row of an MC-chunk streams over it.
const NT_NR_W: usize = NR_W;

/// Whether this host runs the wide (AVX-512) micro-kernel. Benchmarks use
/// this to decide which performance floor to hold [`Tiled`] to — results
/// are bit-identical on both paths, only the throughput differs.
pub fn wide_kernel_available() -> bool {
    avx512_available()
}

/// Whether the wide AVX-512 micro-kernel may be used. Checked once per
/// GEMM call; `std` caches the CPUID probe behind an atomic.
#[inline]
fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// B repacked into KC-high, `nr`-wide, zero-padded column panels.
///
/// Layout: KC-blocks in ascending `k0` order; within a block, `n_panels`
/// panels of `kc·nr` contiguous floats. Offset arithmetic stays exact for
/// the ragged final KC-block because every *preceding* block has full
/// height: `block_base = k0 · n_panels · nr`.
///
/// The buffer is scratch from the process-wide [`crate::reservoir`]
/// ([`Tensor::scratch`]): whichever recycled buffer was used last and is big
/// enough, so one GEMM call maps no memory of its own and consecutive calls
/// pack into the same cache-warm block whatever their `n`, as they did at
/// the top of `malloc`'s heap. The panels are explicitly aligned to
/// 64 bytes (one cache line, one zmm) inside it — a recycled buffer sits
/// wherever `malloc` first put it, page-aligned from a fresh mmap but only
/// 16-byte aligned out of a heap bin, and a 16-byte base makes three of
/// every four 64-byte panel loads straddle a cache line. The
/// arithmetic-bound exact kernels hide that; the load-bound FMA kernel
/// measurably does not.
struct PackedB {
    data: Tensor,
    /// Offset (in floats) of the first 64-byte-aligned element of `data`.
    align_off: usize,
    n_panels: usize,
    nr: usize,
}

impl PackedB {
    fn pack(bv: &[f32], k: usize, n: usize, nr: usize, kcb: usize) -> PackedB {
        let n_panels = n.div_ceil(nr);
        let len = k * n_panels * nr;
        // Over-allocate one cache line and skip to the aligned start; the
        // tensor's heap block never moves, so the offset stays valid.
        let mut data = Tensor::scratch(len + 16);
        let align_off = (data.as_slice().as_ptr() as usize).wrapping_neg() % 64 / 4;
        let floats = &mut data.as_mut_slice()[align_off..align_off + len];
        // kk-outer traversal: each B row is read once, sequentially, and
        // scattered to its panels — sequential reads beat sequential
        // writes once B outgrows L2.
        for k0 in (0..k).step_by(kcb) {
            let kc = (k0 + kcb).min(k) - k0;
            let block_base = k0 * n_panels * nr;
            for kk in 0..kc {
                let src = &bv[(k0 + kk) * n..(k0 + kk + 1) * n];
                for p in 0..n_panels {
                    let j0 = p * nr;
                    let width = nr.min(n - j0);
                    let dst = block_base + p * kc * nr + kk * nr;
                    floats[dst..dst + width].copy_from_slice(&src[j0..j0 + width]);
                }
            }
        }
        PackedB {
            data,
            align_off,
            n_panels,
            nr,
        }
    }

    /// The `kc`-row panel `p` of the KC-block starting at `k0`.
    #[inline]
    fn panel(&self, k0: usize, kc: usize, p: usize) -> &[f32] {
        let base = self.align_off + k0 * self.n_panels * self.nr + p * kc * self.nr;
        &self.data.as_slice()[base..base + kc * self.nr]
    }
}

/// Portable full MR×NR micro-kernel: every loop bound is a constant, so
/// the accumulator tile lives in registers and the inner loop compiles to
/// broadcast + multiply + add at whatever width the baseline ISA offers.
/// `ldb` is the distance between consecutive `kk` rows of `bpanel`: `NR`
/// for a packed panel, `n` when `bpanel` is row-major B itself (see
/// [`tiled_nn`]).
#[inline]
#[allow(clippy::too_many_arguments)] // the args *are* the tile coordinates; a struct would obscure the hot path
fn micro_full(
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
    let mut acc = [[0.0f32; NR]; MR];
    for (r, accr) in acc.iter_mut().enumerate() {
        let base = (rc0 + r) * n + j0;
        accr.copy_from_slice(&cchunk[base..base + NR]);
    }
    for kk in 0..kc {
        let brow: &[f32; NR] = bpanel[kk * ldb..kk * ldb + NR].try_into().unwrap();
        for (r, accr) in acc.iter_mut().enumerate() {
            let aik = av[(ia0 + r) * k + k0 + kk];
            for (cj, &bj) in accr.iter_mut().zip(brow) {
                *cj += aik * bj;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let base = (rc0 + r) * n + j0;
        cchunk[base..base + NR].copy_from_slice(accr);
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
/// * the CPU supports AVX-512F (`avx512_available()` returned true);
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
    for (r, accr) in acc.iter_mut().enumerate() {
        let base = cp.add((rc0 + r) * n + j0);
        for (v, a) in accr.iter_mut().enumerate() {
            *a = _mm512_loadu_ps(base.add(v * 16));
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

/// Generic edge micro-kernel for ragged tiles: the ragged right column edge
/// (`width < nr`) of both paths, and the portable path's row remainders.
/// Row-at-a-time with a stack accumulator, loading and storing only the
/// `width` valid columns so a packed panel's zero padding (or, over
/// row-major B at `ldb = n`, the next panel's columns) never reaches C. Per
/// element the products still accumulate in ascending `kk` order —
/// bit-identical by construction.
#[inline]
#[allow(clippy::too_many_arguments)] // tile coordinates plus the ragged rows/width pair
fn micro_edge(
    av: &[f32],
    k: usize,
    ia0: usize,
    rows: usize,
    k0: usize,
    kc: usize,
    bpanel: &[f32],
    ldb: usize,
    cchunk: &mut [f32],
    rc0: usize,
    n: usize,
    j0: usize,
    width: usize,
) {
    debug_assert!(width <= NR_W && width <= ldb);
    let mut acc = [0.0f32; NR_W];
    for r in 0..rows {
        let arow = &av[(ia0 + r) * k + k0..][..kc];
        let crow = &mut cchunk[(rc0 + r) * n + j0..][..width];
        acc[..width].copy_from_slice(crow);
        for (kk, &aik) in arow.iter().enumerate() {
            let brow = &bpanel[kk * ldb..][..width];
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
fn epilogue(cchunk: &mut [f32], n: usize, bias: Option<&[f32]>, act: Activation, gelu: &GeluClock) {
    if bias.is_none() && act == Activation::Identity {
        return;
    }
    for row in cchunk.chunks_mut(n) {
        if let Some(bias) = bias {
            for (x, &b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
        gelu.time(|| act.apply_slice(row));
    }
}

/// The shared NN core: `C = act(A·B + bias)` with the epilogue applied per
/// row-chunk while it is still cache-resident. `HalfCompute` reuses this on
/// quantized operands.
///
/// B is packed once into panels — unless all of A's rows fit one register
/// tile (`m ≤ mr` of the tier in use). Then every panel would be written
/// once and read once, so the same micro-kernels run straight over
/// row-major B (`ldb = n`) at full `k`: the accumulators never leave
/// registers and B is read exactly once. Each element still starts at
/// `+0.0` and sums its products in ascending `k`, so the bits are those of
/// the packed path.
///
/// `fma` selects the fused multiply-add variant of the *wide* micro-kernel
/// only, at every row height — the ragged right column edge and the
/// portable path always compute exactly, so a row's bits never depend on
/// how many other rows share the call.
pub(crate) fn tiled_nn(
    a: &Tensor,
    b: &Tensor,
    bias: Option<&[f32]>,
    act: Activation,
    fma: bool,
) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "matmul: inner dims {k} vs {kb}");
    let mut c = Tensor::zeros(&[m, n]);
    if m == 0 || n == 0 {
        return c;
    }
    let gelu = GeluClock::start(act == Activation::Gelu);
    if k == 0 {
        // Empty reduction: C is all zeros, but the epilogue still applies.
        epilogue(c.as_mut_slice(), n, bias, act, &gelu);
        gelu.record(m * n);
        return c;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = fma;
    // The wide tile only pays when at least one panel is full-width.
    let wide = avx512_available() && n >= NR_W;
    let (mc, mr, nr, kcb) = if wide {
        (MC_W, MR_W, NR_W, KC_W)
    } else {
        (MC, MR, NR, KC)
    };
    // The FMA wide kernel runs 5-row tiles (see [`MR_W_FMA`]). Blocking
    // (`kcb`) is shared with the exact tier: measured on AVX-512 hosts,
    // L1-resident B panels beat a register-resident C with full-`k` panels
    // streaming from L2.
    let mr = if wide && fma { MR_W_FMA } else { mr };
    let (av, bv) = (a.as_slice(), b.as_slice());
    let n_panels = n.div_ceil(nr);
    let packed = if m <= mr {
        trace::count(names::COMPUTE_MATMUL_UNPACKED, 1);
        None
    } else {
        Some(timed_pack(k * n_panels * nr, || {
            PackedB::pack(bv, k, n, nr, kcb)
        }))
    };
    // Unpacked: one `k`-block, B's own row stride.
    let (kcb, ldb) = if packed.is_some() { (kcb, nr) } else { (k, n) };
    let packed = packed.as_ref();

    let body = |chunk_idx: usize, cchunk: &mut [f32]| {
        let ia0 = chunk_idx * mc;
        let rows = cchunk.len() / n;
        for k0 in (0..k).step_by(kcb) {
            let kc = (k0 + kcb).min(k) - k0;
            for p in 0..n_panels {
                let j0 = p * nr;
                let width = nr.min(n - j0);
                let bpanel = match packed {
                    Some(packed) => packed.panel(k0, kc, p),
                    None => &bv[k0 * n + j0..],
                };
                let mut r = 0;
                while r < rows {
                    let rh = mr.min(rows - r);
                    if wide && width == nr {
                        #[cfg(target_arch = "x86_64")]
                        {
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
                            // SAFETY: `wide` proves AVX-512F support; the
                            // loop bounds keep `ia0+r+rh` rows inside `av`;
                            // `bpanel` is either a packed panel, exactly
                            // `kc·NR_W` long at `ldb = NR_W`, or row-major
                            // B from `[k0, j0]` on at `ldb = n`, where row
                            // `kc−1` still holds `n − j0 ≥ NR_W` floats
                            // (width == NR_W); and `r+rh` rows × `j0+NR_W`
                            // cols sit inside this chunk.
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
                        #[cfg(not(target_arch = "x86_64"))]
                        unreachable!("wide path requires x86_64");
                    } else if rh == mr && width == nr {
                        micro_full(av, k, ia0 + r, k0, kc, bpanel, ldb, cchunk, r, n, j0);
                    } else {
                        micro_edge(
                            av,
                            k,
                            ia0 + r,
                            rh,
                            k0,
                            kc,
                            bpanel,
                            ldb,
                            cchunk,
                            r,
                            n,
                            j0,
                            width,
                        );
                    }
                    r += mr;
                }
            }
        }
        epilogue(cchunk, n, bias, act, &gelu);
    };

    par::for_each_chunk(c.as_mut_slice(), mc * n, gemm_work(m, k, n), body);
    gelu.record(m * n);
    c
}

/// Bᵀ packed for the NT kernel: full-`k`-height, `nr`-wide column panels.
///
/// B is `[n, k]` row-major; panel `p` holds, at offset `kk·nr + lane`, the
/// value `B[(p·nr + lane)·k + kk]` — the transposed panel in the same
/// (`kk`-major, lane-minor) layout [`PackedB`] produces for NN, but at full
/// `k` height: the NT micro-kernel keeps four *chain* accumulators live
/// across the whole reduction (they cannot round-trip through C without
/// collapsing the chains), so there is no KC blocking to offset for. Only
/// the `n / nr` full panels are packed; ragged edge columns take the plain
/// [`dot4`] path over unpacked B rows.
fn pack_bt(bv: &[f32], k: usize, n: usize, nr: usize) -> (Tensor, usize) {
    let full_panels = n / nr;
    let len = full_panels * k * nr;
    // 64-byte-align the panels, exactly as [`PackedB::pack`] does and for
    // the same reason: the wide NT kernel is load-bound, and a 16-byte
    // buffer base would split most of its 64-byte panel loads across
    // cache lines.
    let mut data = Tensor::scratch(len + 16);
    let align_off = (data.as_slice().as_ptr() as usize).wrapping_neg() % 64 / 4;
    // Lane-outer traversal: each B row is read once, sequentially, and
    // scattered down its panel column (stride `nr`).
    for p in 0..full_panels {
        let panel = &mut data.as_mut_slice()[align_off + p * k * nr..align_off + (p + 1) * k * nr];
        for lane in 0..nr {
            let src = &bv[(p * nr + lane) * k..(p * nr + lane + 1) * k];
            for (kk, &x) in src.iter().enumerate() {
                panel[kk * nr + lane] = x;
            }
        }
    }
    (data, align_off)
}

/// Portable NT micro-kernel: one A row × [`NT_NR`] output columns, columns
/// as lanes. Reproduces [`dot4`] per lane exactly — four independent
/// chains filled in ascending `k` (`chain = k mod 4`), chain sums folded
/// left-to-right, then a sequential tail — so the result is bit-identical
/// to the reference's scalar dot product.
#[inline]
fn micro_nt(arow: &[f32], bpanel: &[f32], cseg: &mut [f32]) {
    let k = arow.len();
    let mut acc = [[0.0f32; NT_NR]; 4];
    let chunks = k / 4;
    for t in 0..chunks {
        let p = t * 4;
        for (c, accc) in acc.iter_mut().enumerate() {
            let a = arow[p + c];
            let brow: &[f32; NT_NR] = bpanel[(p + c) * NT_NR..(p + c + 1) * NT_NR]
                .try_into()
                .unwrap();
            for (s, &bj) in accc.iter_mut().zip(brow) {
                *s += a * bj;
            }
        }
    }
    let mut s = [0.0f32; NT_NR];
    for (lane, sl) in s.iter_mut().enumerate() {
        *sl = ((acc[0][lane] + acc[1][lane]) + acc[2][lane]) + acc[3][lane];
    }
    for p in chunks * 4..k {
        let a = arow[p];
        let brow = &bpanel[p * NT_NR..(p + 1) * NT_NR];
        for (sl, &bj) in s.iter_mut().zip(brow) {
            *sl += a * bj;
        }
    }
    cseg.copy_from_slice(&s);
}

/// Wide NT micro-kernel: one A row × [`NT_NR_W`] output columns, with
/// 4 chains × 4 zmm of accumulators (16 registers) plus one broadcast and
/// four packed-B loads per `k` step. Per lane this is exactly [`dot4`]'s
/// accumulation order (see [`micro_nt`]); with `FMA = true` the
/// multiply-add pairs fuse and land in the documented tolerance band
/// instead.
///
/// # Safety
///
/// Callers must guarantee the CPU supports AVX-512F, `bpanel` holds at
/// least `arow.len() * NT_NR_W` elements, and `cseg` holds at least
/// `NT_NR_W` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_nt_wide<const FMA: bool>(arow: &[f32], bpanel: &[f32], cseg: &mut [f32]) {
    use std::arch::x86_64::*;
    let k = arow.len();
    debug_assert!(k * NT_NR_W <= bpanel.len());
    debug_assert!(NT_NR_W <= cseg.len());
    let ap = arow.as_ptr();
    let bp = bpanel.as_ptr();
    let mut acc = [[_mm512_setzero_ps(); 4]; 4]; // [chain][vec]
    let chunks = k / 4;
    for t in 0..chunks {
        let p = t * 4;
        for (c, accc) in acc.iter_mut().enumerate() {
            let a = _mm512_set1_ps(*ap.add(p + c));
            let brow = bp.add((p + c) * NT_NR_W);
            for (v, s) in accc.iter_mut().enumerate() {
                let bj = _mm512_loadu_ps(brow.add(v * 16));
                *s = if FMA {
                    _mm512_fmadd_ps(a, bj, *s)
                } else {
                    _mm512_add_ps(*s, _mm512_mul_ps(a, bj))
                };
            }
        }
    }
    // Chain sums fold left-to-right — per lane, dot4's exact order.
    let mut s = [_mm512_setzero_ps(); 4];
    for (v, sv) in s.iter_mut().enumerate() {
        *sv = _mm512_add_ps(
            _mm512_add_ps(_mm512_add_ps(acc[0][v], acc[1][v]), acc[2][v]),
            acc[3][v],
        );
    }
    for p in chunks * 4..k {
        let a = _mm512_set1_ps(*ap.add(p));
        let brow = bp.add(p * NT_NR_W);
        for (v, sv) in s.iter_mut().enumerate() {
            let bj = _mm512_loadu_ps(brow.add(v * 16));
            *sv = if FMA {
                _mm512_fmadd_ps(a, bj, *sv)
            } else {
                _mm512_add_ps(*sv, _mm512_mul_ps(a, bj))
            };
        }
    }
    let cp = cseg.as_mut_ptr();
    for (v, sv) in s.iter().enumerate() {
        _mm512_storeu_ps(cp.add(v * 16), *sv);
    }
}

/// NT kernel: Bᵀ is packed once into full-`k` column panels, then each
/// panel stays cache-resident while every A row of the chunk streams over
/// it (panel-outer, row-inner — the old per-element `dot4` walk streamed
/// all of B past every row and lost to the reference). Ragged edge columns
/// (`n mod nr`) take the plain [`dot4`] path. Bit-identical to the
/// reference for `fma = false`; see the module docs for the `fma = true`
/// band.
pub(crate) fn tiled_nt(a: &Tensor, b: &Tensor, fma: bool) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (n, kb) = (b.rows(), b.cols());
    assert_eq!(k, kb, "matmul_nt: inner dims {k} vs {kb}");
    let mut c = Tensor::zeros(&[m, n]);
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = fma;
    let (av, bv) = (a.as_slice(), b.as_slice());
    let wide = avx512_available() && n >= NT_NR_W;
    let nr = if wide { NT_NR_W } else { NT_NR };
    let full_panels = n / nr;
    let (packed, align_off) = timed_pack(full_panels * k * nr, || pack_bt(bv, k, n, nr));
    let packed = packed.as_slice();

    let body = |chunk_idx: usize, cchunk: &mut [f32]| {
        let ia0 = chunk_idx * MC;
        let rows = cchunk.len() / n;
        for p in 0..full_panels {
            let j0 = p * nr;
            let bpanel = &packed[align_off + p * k * nr..align_off + (p + 1) * k * nr];
            for r in 0..rows {
                let arow = &av[(ia0 + r) * k..(ia0 + r + 1) * k];
                let cseg = &mut cchunk[r * n + j0..r * n + j0 + nr];
                if wide {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `wide` proves AVX-512F support; `bpanel` is
                    // exactly `k·NT_NR_W` long and `cseg` exactly `NT_NR_W`.
                    unsafe {
                        if fma {
                            micro_nt_wide::<true>(arow, bpanel, cseg);
                        } else {
                            micro_nt_wide::<false>(arow, bpanel, cseg);
                        }
                    }
                    #[cfg(not(target_arch = "x86_64"))]
                    unreachable!("wide path requires x86_64");
                } else {
                    micro_nt(arow, bpanel, cseg);
                }
            }
        }
        for r in 0..rows {
            let arow = &av[(ia0 + r) * k..(ia0 + r + 1) * k];
            for j in full_panels * nr..n {
                cchunk[r * n + j] = dot4(arow, &bv[j * k..(j + 1) * k]);
            }
        }
    };

    par::for_each_chunk(c.as_mut_slice(), MC * n, gemm_work(m, k, n), body);
    c
}

/// Cache-blocked, packed, register-tiled kernels — bit-identical to
/// [`Reference`](crate::ops::matmul::Reference) on every f32 input.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tiled;

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
pub struct TiledFma;

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
    /// on the portable path (`n < 64`), exactly one and many wide panels,
    /// and a ragged column edge.
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
            for act in [Activation::Identity, Activation::Gelu, Activation::Relu] {
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
                let fma = TiledFma.matmul(&a, &b);
                let bound = abs_bound(&a, &b, false);
                for i in 0..m * n {
                    let d = (exact.as_slice()[i] - fma.as_slice()[i]).abs();
                    assert!(
                        d <= tol_of(bound.as_slice()[i], k),
                        "nn {m}x{k}x{n} elem {i}: Δ={d}"
                    );
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

    /// Where the wide kernel cannot run (portable path: `n < NR_W`, or no
    /// AVX-512), `TiledFma` computes exactly the same bits as `Tiled` —
    /// FMA only ever fires inside the wide full micro-kernels.
    #[test]
    fn fma_equals_tiled_bitwise_on_the_portable_path() {
        let mut rng = Rng::seed_from(16);
        for (m, k, n) in [(9, 33, 7), (40, 120, 63), (130, 31, 8)] {
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

    #[test]
    fn nan_propagates_through_zero_weights() {
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
        let b = Tensor::from_vec(vec![f32::NAN, f32::NAN, 2.0, 3.0], &[2, 2]);
        let c = Tiled.matmul(&a, &b);
        assert!(c.at(0, 0).is_nan() && c.at(0, 1).is_nan());
    }
}
