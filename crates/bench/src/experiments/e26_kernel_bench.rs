//! E26 — the compute floor: GEMM + row-op throughput per backend.
//!
//! Measures achieved GFLOP/s for every `MatmulBackend` on the GEMM shapes
//! the trainer actually runs (square NN at several sizes, plus the NT/TN
//! backward layouts and the fused bias+GELU epilogue at 256³ **and** the
//! 512³ gate shape, plus the few-row `[m×256]·[256×1024]` NN a decode step
//! runs), and elements/s for both `RowOpsBackend` tiers on the
//! softmax / layer-norm / Adam kernels. Self-gating on:
//!
//! * correctness — `Tiled` must agree with `Reference` **bitwise** (NN and
//!   NT) and the vectorized row-op tier must agree with the reference tier
//!   bitwise before any timing is believed;
//! * performance — eight CI gates, all ratios timed in the same process at
//!   the host's full intra-op width (so they hold on single-core and noisy
//!   runners). Three are kernel ratios at 512³:
//!   - `nn_tiled_over_reference` ≥ [`NN_TILED_MIN_SPEEDUP`]× where the
//!     wide AVX-512 micro-kernel runs,
//!   - `nt_tiled_over_reference` ≥ [`NT_TILED_MIN_SPEEDUP`]× — the packed
//!     dot4-order NT kernel must actually beat the scalar reference,
//!   - `nn_fma_over_tiled` ≥ [`FMA_MIN_SPEEDUP`]× — the opt-in FMA tier
//!     must pay for its loss of bit-identity.
//!
//!   On hosts without AVX-512 each of those floors drops to
//!   [`PORTABLE_MIN_SPEEDUP`] (recorded in the JSON as `wide_kernel`). Two
//!   hold the intra-op runtime to "fanning out is never a loss", on any
//!   core count:
//!   - `rowops_vectorized_over_reference` ≥ [`NOT_SLOWER`]× on both
//!     softmax 256×2048 and Adam 1 M (the gate records the lower of the
//!     two) — the tier that fans rows out over the intra-op lanes against
//!     the sequential oracle it shadows,
//!   - `nn_reference_dispatched_over_inline` ≥ [`NOT_SLOWER`]× — the same
//!     reference 512³ GEMM at full width against itself on one lane.
//!
//!   Two hold the activation to the GEMM's speed:
//!   - `gelu_over_libm` ≥ [`GELU_OVER_LIBM_MIN`]× — `ops::gelu` (the
//!     in-crate branch-free `tanh`) against a loop over the host libm's
//!     `tanhf`, the form it replaced, on 256×1024,
//!   - `nn_bias_gelu_over_nn` ≥ [`FUSED_GELU_OVER_NN_MIN`]× — plain tiled
//!     NN time ÷ fused bias+GELU time at 256³: the fused call must track
//!     the GEMM, not the activation.
//!
//!   One holds the few-row GEMM to one pass over the weight:
//!   - `nn_single_tile_over_two_tile` ≥ [`SINGLE_TILE_MIN`]× — tiled
//!     `[7×256]·[256×1024]` (two register tiles: B is packed) over
//!     `[1×256]·[256×1024]` (one tile: B is read in place). Seven rows for
//!     the price of ≈ 1.5 would mean the one-row call packs again.
//!
//! * consistency — the file must say one thing: every sweep row at the
//!   512³ gate shape has to sit within [`SWEEP_VS_GATE_MAX`]× of the time
//!   the gate pair of the same backend and layout measured (each gate
//!   records its two paired times, `num_ns` and `den_ns`, next to its
//!   ratio). A sweep table and a gate that disagree about the same kernel
//!   mean one of them was taken in a different state of the allocator.
//!
//! Every GEMM row also reports arithmetic intensity (FLOPs per byte of
//! minimum streaming traffic) and percent-of-roofline against an
//! approximate single-core host model ([`host_roofline`]) — so the table
//! says not just "faster than reference" but "how far from the machine".
//!
//! Artifacts: `target/e26/kernel-table.txt` (human table) and
//! `BENCH_kernels.json` at the repo root (schema `bagualu-kernel-bench/v3`:
//! v2 plus each gate's two paired times) — the machine-readable cross-PR
//! kernel-perf trajectory. Half-compute
//! rows time the *whole* operation including operand quantization — the
//! honest number a training step sees.

use crate::table::Table;
use bagualu::hw::{Precision, Roofline};
use bagualu::tensor::ops::{self, Activation, AdamStep, ComputeBackend, RowOpsBackend};
use bagualu::tensor::par;
use bagualu::tensor::rng::Rng;
use bagualu::tensor::Tensor;
use std::cell::RefCell;
use std::time::Instant;

const TABLE_OUT: &str = "target/e26/kernel-table.txt";
const JSON_OUT: &str = "BENCH_kernels.json";

/// NN gate where the wide (AVX-512) micro-kernel runs: the 6×64 register
/// tile keeps C out of the k-loop entirely and runs 16-lane multiply+add
/// against packed B panels, so 3× over the reference holds with margin.
pub const NN_TILED_MIN_SPEEDUP: f64 = 3.0;
/// NT gate where the wide kernel runs: the packed dot4-order kernel keeps
/// 4 chain accumulators × 4 ZMM columns in registers against full-k packed
/// Bᵀ panels; 2× over the scalar reference is conservative.
pub const NT_TILED_MIN_SPEEDUP: f64 = 2.0;
/// FMA gate where the wide kernel runs: fusing multiply+add halves the
/// arithmetic µops of the inner loops, so the opt-in tier must show at
/// least 1.5× over the exact tiled backend to justify giving up
/// bit-identity.
pub const FMA_MIN_SPEEDUP: f64 = 1.5;
/// The floor applied to every gate when only the portable micro-kernel is
/// available (no AVX-512): strictly not-slower, honestly labelled.
pub const PORTABLE_MIN_SPEEDUP: f64 = 1.0;
/// Floor of the two intra-op gates: the fanned-out side against the
/// sequential side of the same work. Not slower, with 2 % of timer noise:
/// on one core both sides run the same loops, on more the fanned-out one
/// must turn the extra lanes into speed rather than dispatch cost.
pub const NOT_SLOWER: f64 = 0.98;
/// Floor of `gelu_over_libm`. The vectorized kernel reads ≈ 2 ns per
/// element on the 2-core reference box against 20–24 for glibc 2.36's
/// `tanhf`; 4× leaves room for a faster libm or a narrower vector unit.
pub const GELU_OVER_LIBM_MIN: f64 = 4.0;
/// Floor of `nn_bias_gelu_over_nn`: with libm's `tanhf` in the epilogue the
/// ratio was 0.30.
pub const FUSED_GELU_OVER_NN_MIN: f64 = 0.7;
/// Floor of `nn_single_tile_over_two_tile` where the wide kernel runs
/// (3.6–4.6 on the reference box; ≈ 1.5 when every call packed the weight).
pub const SINGLE_TILE_MIN: f64 = 2.0;
/// The decode shape: `[m×256]·[256×1024]`, the `serve_decode` model's FFN
/// up-projection. `m` is one row, the exact tier's one-tile limit, the
/// first two-tile count, and the engine's batch.
const DECODE_KN: (usize, usize) = (256, 1024);
const DECODE_ROWS: [usize; 4] = [1, 6, 7, 8];
/// How far a 512³ sweep row and the gate pair that timed the same backend
/// and layout may sit apart. They are the same kernel on same-sized
/// operands in one process, so a larger gap means the two were not measured
/// in the same state of the machine — which is what `BENCH_kernels.json`
/// recorded while every fresh GEMM output was page-faulted in (sweep rows
/// of 5.2–5.3 ms beside a paired 2.1 ms for the same tiled call).
pub const SWEEP_VS_GATE_MAX: f64 = 1.5;
/// The gate shape: large enough that B (1 MiB) falls out of L1/L2 and the
/// reference kernel's streaming cost shows.
const GATE_DIM: usize = 512;

/// Approximate roofline model of the benchmark host, used only to put the
/// achieved rates in context (`pct_roofline` is reporting, never gated —
/// the model is not measured on the runner). Assumptions, documented so
/// the percentages mean something: one core at a nominal 2 GHz sustaining
/// one 16-lane FMA per cycle → 64 GFLOP/s fp32; the half backends convert
/// to fp32 and compute fp32, so their sustained rate is the same; fp64
/// halves the lanes; ~12 GB/s single-core DRAM stream; zero launch
/// overhead for in-process calls.
pub fn host_roofline() -> Roofline {
    Roofline::from_rates(64.0e9, 64.0e9, 32.0e9, 12.0e9, 0.0)
}

const HOST_FP32_GFLOPS: f64 = 64.0;
const HOST_MEM_BW_GBPS: f64 = 12.0;

/// GELU over the host libm's `tanhf`: the form `ops::gelu` replaced, kept
/// here as the baseline of the `gelu_over_libm` gate.
fn gelu_libm(x: f32) -> f32 {
    0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044715 * x * x * x)).tanh())
}

/// Best-of-N wall time for one op, with one untimed warmup.
fn best_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> u64 {
    std::hint::black_box(f());
    let mut best = u64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

fn gflops(flops: u64, ns: u64) -> f64 {
    flops as f64 / ns as f64
}

/// Best-of-N for two ops with their reps *interleaved*: rep i of `f` runs
/// immediately before rep i of `g`, on the same operands. Gate ratios use
/// this instead of sweep-table rows because the table times each backend
/// as a block — on shared or frequency-scaling runners, minutes of drift
/// between blocks shows up as ratio noise that a paired measurement
/// cancels.
fn paired_best<T>(reps: usize, mut f: impl FnMut() -> T, mut g: impl FnMut() -> T) -> (u64, u64) {
    std::hint::black_box(f());
    std::hint::black_box(g());
    let (mut bf, mut bg) = (u64::MAX, u64::MAX);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        bf = bf.min(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        std::hint::black_box(g());
        bg = bg.min(t0.elapsed().as_nanos() as u64);
    }
    (bf, bg)
}

/// Running state of one gate's paired measurement, sampled at several
/// points dispersed across the run. On a shared single-core runner the
/// machine oscillates between quiet and contended windows lasting
/// seconds; a contended window compresses both rates *and* their ratio,
/// so back-to-back retries cannot escape it. The gates assert peak
/// kernel capability, so each pair keeps its global best-of across all
/// sample points, and a pair that has already cleared its floor is not
/// re-sampled.
struct GatePair {
    best_f: u64,
    best_g: u64,
    floor: f64,
    rounds: usize,
}

impl GatePair {
    fn new(floor: f64) -> GatePair {
        GatePair {
            best_f: u64::MAX,
            best_g: u64::MAX,
            floor,
            rounds: 0,
        }
    }

    fn ratio(&self) -> f64 {
        self.best_f as f64 / self.best_g as f64
    }

    fn passing(&self) -> bool {
        self.rounds > 0 && self.ratio() >= self.floor
    }

    fn absorb(&mut self, f: u64, g: u64) {
        self.best_f = self.best_f.min(f);
        self.best_g = self.best_g.min(g);
        self.rounds += 1;
    }
}

struct Row {
    backend: String,
    op: &'static str,
    m: usize,
    k: usize,
    n: usize,
    ns: u64,
    gflops: f64,
    /// FLOPs per byte of minimum streaming traffic (both operands + the
    /// output once each, at their in-memory fp32 width).
    ai: f64,
    /// Achieved rate as a percentage of the [`host_roofline`] rate for
    /// this row's FLOPs/bytes.
    pct_roofline: f64,
}

struct RowOpRow {
    backend: &'static str,
    op: &'static str,
    rows: usize,
    cols: usize,
    ns: u64,
    /// Billions of elements per second.
    gelems: f64,
}

struct Gate {
    name: &'static str,
    op: &'static str,
    shape: String,
    /// The pair's two best times: `ratio = num_ns / den_ns`.
    num_ns: u64,
    den_ns: u64,
    ratio: f64,
    floor: f64,
}

impl Gate {
    fn of(name: &'static str, op: &'static str, shape: &str, pair: &GatePair) -> Gate {
        Gate {
            name,
            op,
            shape: shape.to_string(),
            num_ns: pair.best_f,
            den_ns: pair.best_g,
            ratio: pair.ratio(),
            floor: pair.floor,
        }
    }
}

/// Build one GEMM row: time it, then attach intensity and roofline
/// context. All operands live in memory as fp32, so the minimum traffic is
/// `4(mk + kn + mn)` bytes regardless of the compute dtype (the half
/// backends' packed copies are extra traffic the percentage honestly
/// charges against them).
#[allow(clippy::too_many_arguments)]
fn gemm_row(
    backend: &str,
    op: &'static str,
    m: usize,
    k: usize,
    n: usize,
    precision: Precision,
    reps: usize,
    f: impl FnMut() -> Tensor,
) -> Row {
    let ns = best_ns(reps, f);
    let flops = 2 * (m as u64) * (k as u64) * (n as u64);
    let bytes = 4.0 * (m * k + k * n + m * n) as f64;
    let gf = gflops(flops, ns);
    let rl = host_roofline().kernel(flops as f64, bytes, precision);
    let roof_gflops = rl.flops / rl.time / 1.0e9;
    Row {
        backend: backend.to_string(),
        op,
        m,
        k,
        n,
        ns,
        gflops: gf,
        ai: flops as f64 / bytes,
        pct_roofline: 100.0 * gf / roof_gflops,
    }
}

/// One sweep row at the gate shape next to what a gate pair measured for
/// the same backend and layout.
struct SweepVsGate {
    backend: &'static str,
    op: &'static str,
    /// Index into the sweep rows.
    row: usize,
    gate_ns: u64,
    /// The larger of the two times over the smaller.
    apart: f64,
}

/// Every sweep row the gate pairs also timed (the tiled NN is in two pairs).
fn sweep_vs_gate(rows: &[Row], nn: &GatePair, nt: &GatePair, fma: &GatePair) -> Vec<SweepVsGate> {
    let paired = [
        ("reference", "nn", nn.best_f),
        ("tiled", "nn", nn.best_g.min(fma.best_f)),
        ("tiled:fma", "nn", fma.best_g),
        ("reference", "nt", nt.best_f),
        ("tiled", "nt", nt.best_g),
    ];
    let mut out = Vec::new();
    for (backend, op, gate_ns) in paired {
        for (row, r) in rows.iter().enumerate() {
            if r.backend == backend && r.op == op && [r.m, r.k, r.n] == [GATE_DIM; 3] {
                let (a, b) = (r.ns as f64, gate_ns as f64);
                out.push(SweepVsGate {
                    backend,
                    op,
                    row,
                    gate_ns,
                    apart: (a / b).max(b / a),
                });
            }
        }
    }
    out
}

/// Bitwise prechecks: no timing is meaningful if the kernels disagree.
fn precheck() {
    let mut rng = Rng::seed_from(99);
    let a = Tensor::randn(&[130, 257], 1.0, &mut rng);
    let b = Tensor::randn(&[257, 140], 1.0, &mut rng);
    let reference = ComputeBackend::Reference.instantiate();
    let tiled = ComputeBackend::Tiled.instantiate();
    let assert_bits = |x: &Tensor, y: &Tensor, what: &str| {
        for (p, q) in x.as_slice().iter().zip(y.as_slice()) {
            assert_eq!(p.to_bits(), q.to_bits(), "{what} must be bit-identical");
        }
    };
    assert_bits(
        &reference.matmul(&a, &b),
        &tiled.matmul(&a, &b),
        "tiled nn vs reference",
    );
    let bt = Tensor::randn(&[140, 257], 1.0, &mut rng);
    assert_bits(
        &reference.matmul_nt(&a, &bt),
        &tiled.matmul_nt(&a, &bt),
        "tiled nt vs reference",
    );

    // Row-op tiers: the vectorized tier splits rows across threads but
    // never reorders a within-row reduction, so it must be bit-identical.
    let ref_ops = ComputeBackend::Reference.instantiate_row_ops();
    let vec_ops = ComputeBackend::Tiled.instantiate_row_ops();
    let x = Tensor::randn(&[65, 130], 2.0, &mut rng);
    let (mut xa, mut xb) = (x.clone(), x.clone());
    ref_ops.softmax_rows_inplace(&mut xa);
    vec_ops.softmax_rows_inplace(&mut xb);
    assert_bits(&xa, &xb, "vectorized softmax vs reference");
    let gamma: Vec<f32> = (0..130).map(|i| 1.0 + i as f32 * 1e-3).collect();
    let beta: Vec<f32> = (0..130).map(|i| i as f32 * 1e-2).collect();
    let la = ref_ops.layernorm_rows(&x, &gamma, &beta, 1e-5);
    let lb = vec_ops.layernorm_rows(&x, &gamma, &beta, 1e-5);
    assert_bits(&la.y, &lb.y, "vectorized layernorm vs reference");

    println!(
        "correctness: tiled == reference bitwise (nn 130x257x140, nt 130x257x140);\n\
         \x20            vectorized row-ops == reference bitwise (softmax, layernorm) ✓\n"
    );
}

pub fn run() {
    println!("== E26: compute floor — GEMM + row-op throughput per backend ==\n");
    precheck();

    let wide = bagualu::tensor::ops::wide_kernel_available();
    let mut rows: Vec<Row> = Vec::new();
    let mut rng = Rng::seed_from(7);

    // ---- Gate operands are allocated first (this process's first large
    // allocations: fresh mmap, page-aligned), and the paired gate rounds
    // are sampled at several points dispersed across the run — see
    // [`GatePair`] for why back-to-back retries are not enough.
    let floor_of = |wide_floor: f64| {
        if wide {
            wide_floor
        } else {
            PORTABLE_MIN_SPEEDUP
        }
    };
    let ga = Tensor::randn(&[GATE_DIM, GATE_DIM], 1.0, &mut rng);
    let gb = Tensor::randn(&[GATE_DIM, GATE_DIM], 1.0, &mut rng);
    let reference = ComputeBackend::Reference.instantiate();
    let tiled = ComputeBackend::Tiled.instantiate();
    let fma = ComputeBackend::TiledFma.instantiate();
    let mut gate_nn = GatePair::new(floor_of(NN_TILED_MIN_SPEEDUP));
    let mut gate_nt = GatePair::new(floor_of(NT_TILED_MIN_SPEEDUP));
    let mut gate_fma = GatePair::new(floor_of(FMA_MIN_SPEEDUP));
    // The dispatch pair is sampled first: the process's first fanned-out
    // call starts the worker pool, and that belongs in this pair's warm-up.
    // Where it sits also decides which state glibc's heap is in for the
    // kernel pairs after it — see ROADMAP.md ledger (a)(i) before moving it.
    let mut gate_dispatch = GatePair::new(NOT_SLOWER);
    // `again` samples the three kernel pairs even where they already pass.
    let sample_gates = |nn: &mut GatePair,
                        nt: &mut GatePair,
                        fm: &mut GatePair,
                        dispatch: &mut GatePair,
                        again: bool| {
        if !dispatch.passing() {
            let (f, g) = paired_best(
                7,
                || {
                    let _one_lane = par::scoped_width(1);
                    reference.matmul(&ga, &gb)
                },
                || reference.matmul(&ga, &gb),
            );
            dispatch.absorb(f, g);
        }
        if again || !nn.passing() {
            let (f, g) = paired_best(11, || reference.matmul(&ga, &gb), || tiled.matmul(&ga, &gb));
            nn.absorb(f, g);
        }
        if again || !nt.passing() {
            let (f, g) = paired_best(
                7,
                || reference.matmul_nt(&ga, &gb),
                || tiled.matmul_nt(&ga, &gb),
            );
            nt.absorb(f, g);
        }
        if again || !fm.passing() {
            let (f, g) = paired_best(15, || tiled.matmul(&ga, &gb), || fma.matmul(&ga, &gb));
            fm.absorb(f, g);
        }
    };
    sample_gates(
        &mut gate_nn,
        &mut gate_nt,
        &mut gate_fma,
        &mut gate_dispatch,
        false,
    );

    // ---- The row-op gate's operands and pairs, sampled at the same
    // dispersed points as the GEMM gates (after each section below).
    let (rn, rc) = (256usize, 2048usize);
    let adam_len = 1usize << 20;
    let adam_step = AdamStep {
        lr: 1e-3,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
        weight_decay: 0.01,
        bc1: 0.1,
        bc2: 0.001,
    };
    let ref_ops = ComputeBackend::Reference.instantiate_row_ops();
    let vec_ops = ComputeBackend::Tiled.instantiate_row_ops();
    let mut gate_softmax = GatePair::new(NOT_SLOWER);
    let mut gate_adam = GatePair::new(NOT_SLOWER);
    let sample_rowop_gates = {
        // Both tiers work on the same buffers, turn by turn, the way both
        // GEMM backends multiply the same operands: where the two tiers run
        // the same loop (one lane), page placement cannot tell them apart.
        // What the values drift to under repeated updates does not matter
        // to the timing.
        let soft = RefCell::new(Tensor::randn(&[rn, rc], 1.0, &mut rng));
        let grad = Tensor::randn(&[adam_len], 0.1, &mut rng);
        // Value, first moment, second moment.
        let state = RefCell::new([
            Tensor::randn(&[adam_len], 1.0, &mut rng),
            Tensor::zeros(&[adam_len]),
            Tensor::zeros(&[adam_len]),
        ]);
        let (ref_ops, vec_ops) = (ref_ops.clone(), vec_ops.clone());
        move |softmax: &mut GatePair, adam: &mut GatePair| {
            if !softmax.passing() {
                let (f, g) = paired_best(
                    11,
                    || ref_ops.softmax_rows_inplace(&mut soft.borrow_mut()),
                    || vec_ops.softmax_rows_inplace(&mut soft.borrow_mut()),
                );
                softmax.absorb(f, g);
            }
            if !adam.passing() {
                let update = |ops: &dyn RowOpsBackend| {
                    let [value, m, v] = &mut *state.borrow_mut();
                    ops.adam_update(
                        value.as_mut_slice(),
                        grad.as_slice(),
                        m.as_mut_slice(),
                        v.as_mut_slice(),
                        &adam_step,
                    )
                };
                let (f, g) = paired_best(11, || update(&*ref_ops), || update(&*vec_ops));
                adam.absorb(f, g);
            }
        }
    };
    sample_rowop_gates(&mut gate_softmax, &mut gate_adam);

    // ---- The activation gates: a [256×1024] hidden through GELU, and the
    // fused 256³ call against the plain GEMM it extends.
    let mut gate_gelu = GatePair::new(GELU_OVER_LIBM_MIN);
    let mut gate_fused = GatePair::new(FUSED_GELU_OVER_NN_MIN);
    let sample_gelu_gates = {
        let hidden = Tensor::randn(&[256, 1024], 1.5, &mut rng);
        let a = Tensor::randn(&[256, 256], 1.0, &mut rng);
        let b = Tensor::randn(&[256, 256], 1.0, &mut rng);
        let bias: Vec<f32> = (0..256).map(|j| j as f32 * 1e-3).collect();
        let tiled = tiled.clone();
        move |gelu: &mut GatePair, fused: &mut GatePair| {
            if !gelu.passing() {
                let (f, g) = paired_best(11, || hidden.map(gelu_libm), || ops::gelu(&hidden));
                gelu.absorb(f, g);
            }
            if !fused.passing() {
                let (f, g) = paired_best(
                    15,
                    || tiled.matmul(&a, &b),
                    || tiled.matmul_bias_act(&a, &b, Some(&bias), Activation::Gelu),
                );
                fused.absorb(f, g);
            }
        }
    };
    sample_gelu_gates(&mut gate_gelu, &mut gate_fused);

    // ---- The few-row gate: two register tiles (packed) over one (in place).
    let mut gate_single = GatePair::new(floor_of(SINGLE_TILE_MIN));
    let sample_decode_gate = {
        let (k, n) = DECODE_KN;
        let two_tiles = Tensor::randn(&[7, k], 1.0, &mut rng);
        let one_tile = Tensor::randn(&[1, k], 1.0, &mut rng);
        let w = Tensor::randn(&[k, n], 1.0, &mut rng);
        let tiled = tiled.clone();
        move |single: &mut GatePair| {
            if !single.passing() {
                let (f, g) = paired_best(
                    31,
                    || tiled.matmul(&two_tiles, &w),
                    || tiled.matmul(&one_tile, &w),
                );
                single.absorb(f, g);
            }
        }
    };
    sample_decode_gate(&mut gate_single);

    // ---- Square NN sweep (the forward-pass shape).
    let backends = [
        ComputeBackend::Reference,
        ComputeBackend::Tiled,
        ComputeBackend::TiledFma,
        ComputeBackend::Half(bagualu::tensor::DType::BF16),
        ComputeBackend::Half(bagualu::tensor::DType::F16),
    ];
    println!(
        "-- square NN GFLOP/s (best of N; %roof vs ~{HOST_FP32_GFLOPS:.0} GFLOP/s host model) --"
    );
    let mut t = Table::new(&["backend", "128^3", "256^3", "512^3", "%roof@512"]);
    for cb in backends {
        let be = cb.instantiate();
        let precision = match cb {
            ComputeBackend::Half(_) => Precision::Half,
            _ => Precision::FP32,
        };
        let mut cells = vec![cb.to_string()];
        let mut pct = 0.0;
        for dim in [128usize, 256, GATE_DIM] {
            let a = Tensor::randn(&[dim, dim], 1.0, &mut rng);
            let b = Tensor::randn(&[dim, dim], 1.0, &mut rng);
            let reps = if dim >= GATE_DIM { 5 } else { 3 };
            let row = gemm_row(
                &cb.to_string(),
                "nn",
                dim,
                dim,
                dim,
                precision,
                reps,
                || be.matmul(&a, &b),
            );
            cells.push(format!("{:.2}", row.gflops));
            if dim == GATE_DIM {
                pct = row.pct_roofline;
            }
            rows.push(row);
        }
        cells.push(format!("{pct:.1}%"));
        t.row(&[
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
            cells[4].clone(),
        ]);
    }
    t.print();
    sample_gates(
        &mut gate_nn,
        &mut gate_nt,
        &mut gate_fma,
        &mut gate_dispatch,
        false,
    );
    sample_rowop_gates(&mut gate_softmax, &mut gate_adam);
    sample_gelu_gates(&mut gate_gelu, &mut gate_fused);
    sample_decode_gate(&mut gate_single);

    // ---- Backward layouts + fused epilogue at 256³ and the 512³ gate
    // shape, for the three fp32 backends.
    println!("\n-- layout & epilogue GFLOP/s --");
    let mut t2 = Table::new(&["backend", "shape", "nt (dX)", "tn (dW)", "nn+bias+gelu"]);
    for cb in [
        ComputeBackend::Reference,
        ComputeBackend::Tiled,
        ComputeBackend::TiledFma,
    ] {
        let be = cb.instantiate();
        for dim in [256usize, GATE_DIM] {
            let a = Tensor::randn(&[dim, dim], 1.0, &mut rng);
            let b = Tensor::randn(&[dim, dim], 1.0, &mut rng);
            let bias: Vec<f32> = (0..dim).map(|j| j as f32 * 1e-3).collect();
            let reps = if dim >= GATE_DIM { 5 } else { 3 };
            type OpSpec<'a> = (&'static str, Box<dyn FnMut() -> Tensor + 'a>);
            let specs: [OpSpec; 3] = [
                ("nt", Box::new(|| be.matmul_nt(&a, &b))),
                ("tn", Box::new(|| be.matmul_tn(&a, &b))),
                (
                    "nn_bias_gelu",
                    Box::new(|| be.matmul_bias_act(&a, &b, Some(&bias), Activation::Gelu)),
                ),
            ];
            let mut cells = vec![cb.to_string(), format!("{dim}^3")];
            for (op, f) in specs {
                let row = gemm_row(&cb.to_string(), op, dim, dim, dim, Precision::FP32, reps, f);
                cells.push(format!("{:.2}", row.gflops));
                rows.push(row);
            }
            t2.row(&[
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
                cells[3].clone(),
                cells[4].clone(),
            ]);
        }
    }
    t2.print();

    // ---- The few-row NN of a decode step, fp32 tiers.
    println!("\n-- decode-shape NN [m x 256]·[256 x 1024], us per call --");
    let mut t4 = Table::new(&["backend", "m=1", "m=6", "m=7", "m=8"]);
    for cb in [
        ComputeBackend::Reference,
        ComputeBackend::Tiled,
        ComputeBackend::TiledFma,
    ] {
        let be = cb.instantiate();
        let (k, n) = DECODE_KN;
        let w = Tensor::randn(&[k, n], 1.0, &mut rng);
        let mut cells = vec![cb.to_string()];
        for m in DECODE_ROWS {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let row = gemm_row(&cb.to_string(), "nn", m, k, n, Precision::FP32, 31, || {
                be.matmul(&a, &w)
            });
            cells.push(format!("{:.1}", row.ns as f64 / 1e3));
            rows.push(row);
        }
        t4.row(&[
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
            cells[4].clone(),
        ]);
    }
    t4.print();
    sample_gates(
        &mut gate_nn,
        &mut gate_nt,
        &mut gate_fma,
        &mut gate_dispatch,
        false,
    );
    sample_rowop_gates(&mut gate_softmax, &mut gate_adam);
    sample_gelu_gates(&mut gate_gelu, &mut gate_fused);
    sample_decode_gate(&mut gate_single);

    // ---- Row-op tiers: elements/s for softmax, layernorm, Adam.
    println!("\n-- row-op Gelem/s (reference vs vectorized tier) --");
    let mut rowop_rows: Vec<RowOpRow> = Vec::new();
    let mut t3 = Table::new(&["tier", "softmax 256x2048", "layernorm 256x2048", "adam 1M"]);
    for (tier, cb) in [
        ("reference", ComputeBackend::Reference),
        ("vectorized", ComputeBackend::Tiled),
    ] {
        let ops = cb.instantiate_row_ops();
        let mut cells = vec![tier.to_string()];

        let x = Tensor::randn(&[rn, rc], 1.0, &mut rng);
        let mut buf = x.clone();
        let ns = best_ns(5, || ops.softmax_rows_inplace(&mut buf));
        let gel = (rn * rc) as f64 / ns as f64;
        cells.push(format!("{gel:.3}"));
        rowop_rows.push(RowOpRow {
            backend: tier,
            op: "softmax",
            rows: rn,
            cols: rc,
            ns,
            gelems: gel,
        });

        let gamma: Vec<f32> = (0..rc).map(|i| 1.0 + i as f32 * 1e-4).collect();
        let beta: Vec<f32> = (0..rc).map(|i| i as f32 * 1e-3).collect();
        let ns = best_ns(5, || ops.layernorm_rows(&x, &gamma, &beta, 1e-5));
        let gel = (rn * rc) as f64 / ns as f64;
        cells.push(format!("{gel:.3}"));
        rowop_rows.push(RowOpRow {
            backend: tier,
            op: "layernorm",
            rows: rn,
            cols: rc,
            ns,
            gelems: gel,
        });

        let g = Tensor::randn(&[adam_len], 0.1, &mut rng);
        let mut value = Tensor::randn(&[adam_len], 1.0, &mut rng);
        let mut m = Tensor::zeros(&[adam_len]);
        let mut v = Tensor::zeros(&[adam_len]);
        let ns = best_ns(5, || {
            ops.adam_update(
                value.as_mut_slice(),
                g.as_slice(),
                m.as_mut_slice(),
                v.as_mut_slice(),
                &adam_step,
            )
        });
        let gel = adam_len as f64 / ns as f64;
        cells.push(format!("{gel:.3}"));
        rowop_rows.push(RowOpRow {
            backend: tier,
            op: "adam",
            rows: 1,
            cols: adam_len,
            ns,
            gelems: gel,
        });

        t3.row(&[
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
        ]);
    }
    t3.print();

    // ---- Last gate sample point, then freeze the CI gates — all at
    // 512³, from the dispersed paired rounds (see [`GatePair`]); the
    // sweep rows above are for the trajectory tables, not the gates.
    sample_gates(
        &mut gate_nn,
        &mut gate_nt,
        &mut gate_fma,
        &mut gate_dispatch,
        false,
    );
    sample_rowop_gates(&mut gate_softmax, &mut gate_adam);
    sample_gelu_gates(&mut gate_gelu, &mut gate_fused);
    sample_decode_gate(&mut gate_single);
    let shape = format!("{GATE_DIM}^3");

    // ---- The file has to say one thing ([`SWEEP_VS_GATE_MAX`]). A sweep
    // row is one best-of-5 at one moment and a pair that has cleared its
    // floor is not sampled again, so on a shared box either may come from a
    // contended window. Before they are compared, every row and pair that
    // disagree get up to three more samples each, best-of as everywhere.
    for _ in 0..3 {
        let stale = sweep_vs_gate(&rows, &gate_nn, &gate_nt, &gate_fma);
        if stale.iter().all(|d| d.apart <= SWEEP_VS_GATE_MAX) {
            break;
        }
        sample_gates(
            &mut gate_nn,
            &mut gate_nt,
            &mut gate_fma,
            &mut gate_dispatch,
            true,
        );
        for d in stale.iter().filter(|d| d.apart > SWEEP_VS_GATE_MAX) {
            let cb: ComputeBackend = d.backend.parse().expect("a backend the sweep named");
            let be = cb.instantiate();
            let fresh = gemm_row(
                d.backend,
                d.op,
                GATE_DIM,
                GATE_DIM,
                GATE_DIM,
                Precision::FP32,
                5,
                || match d.op {
                    "nn" => be.matmul(&ga, &gb),
                    _ => be.matmul_nt(&ga, &gb),
                },
            );
            if fresh.ns < rows[d.row].ns {
                rows[d.row] = fresh;
            }
        }
    }

    let rowops_pair = if gate_softmax.ratio() <= gate_adam.ratio() {
        &gate_softmax
    } else {
        &gate_adam
    };
    let gates = vec![
        Gate::of("nn_tiled_over_reference", "nn", &shape, &gate_nn),
        Gate::of("nt_tiled_over_reference", "nt", &shape, &gate_nt),
        Gate::of("nn_fma_over_tiled", "nn", &shape, &gate_fma),
        Gate::of(
            "rowops_vectorized_over_reference",
            "softmax+adam",
            &format!("{rn}x{rc}, {adam_len}"),
            rowops_pair,
        ),
        Gate::of(
            "nn_reference_dispatched_over_inline",
            "nn",
            &shape,
            &gate_dispatch,
        ),
        Gate::of("gelu_over_libm", "gelu", "256x1024", &gate_gelu),
        Gate::of("nn_bias_gelu_over_nn", "nn_bias_gelu", "256^3", &gate_fused),
        Gate::of(
            "nn_single_tile_over_two_tile",
            "nn",
            "7x256x1024 / 1x256x1024",
            &gate_single,
        ),
    ];
    let gate_flops = 2 * (GATE_DIM as u64).pow(3);
    println!(
        "\npaired @{shape}: nn ref {:.1} / tiled {:.1} GF/s; nt ref {:.1} / tiled {:.1}; \
         nn tiled {:.1} / fma {:.1}",
        gflops(gate_flops, gate_nn.best_f),
        gflops(gate_flops, gate_nn.best_g),
        gflops(gate_flops, gate_nt.best_f),
        gflops(gate_flops, gate_nt.best_g),
        gflops(gate_flops, gate_fma.best_f),
        gflops(gate_flops, gate_fma.best_g),
    );
    println!(
        "paired on {} lane(s) vs one: softmax vectorized {:.2}x reference, adam {:.2}x, \
         reference nn {:.2}x inline",
        par::current_num_threads(),
        gate_softmax.ratio(),
        gate_adam.ratio(),
        gate_dispatch.ratio()
    );
    println!(
        "paired: gelu 256x1024 libm {:.2} / in-crate {:.2} ns/elem; tiled 256^3 nn {} / \
         nn+bias+gelu {} us",
        gate_gelu.best_f as f64 / (256.0 * 1024.0),
        gate_gelu.best_g as f64 / (256.0 * 1024.0),
        gate_fused.best_f / 1000,
        gate_fused.best_g / 1000,
    );
    println!(
        "paired: tiled [m x 256]·[256 x 1024] m=7 (packed) {:.1} / m=1 (in place) {:.1} us",
        gate_single.best_f as f64 / 1e3,
        gate_single.best_g as f64 / 1e3,
    );
    println!("-- gates (GEMM at {shape}; wide kernel: {wide}) --");
    for g in &gates {
        println!(
            "gate {}: {:.2}x (floor {}x) {}",
            g.name,
            g.ratio,
            g.floor,
            if g.ratio >= g.floor { "✓" } else { "✗" }
        );
    }

    // ---- Artifacts.
    let mut artifact = String::from("E26 kernel bench\n\nsquare NN GFLOP/s\n");
    artifact.push_str(&t.render());
    artifact.push_str("\nlayouts\n");
    artifact.push_str(&t2.render());
    artifact.push_str("\ndecode-shape NN [m x 256]·[256 x 1024], us per call\n");
    artifact.push_str(&t4.render());
    artifact.push_str(&format!("\ngates (GEMM at {shape}; wide kernel: {wide})\n"));
    for g in &gates {
        artifact.push_str(&format!(
            "  {}: {:.2}x (floor {}x)\n",
            g.name, g.ratio, g.floor
        ));
    }
    artifact.push_str("\nrow-op Gelem/s\n");
    artifact.push_str(&t3.render());
    std::fs::create_dir_all("target/e26").expect("create target/e26");
    std::fs::write(TABLE_OUT, &artifact).expect("write kernel table");

    let mut json = String::from("{\n  \"schema\": \"bagualu-kernel-bench/v3\",\n");
    json.push_str(&format!("  \"wide_kernel\": {wide},\n"));
    json.push_str(&format!(
        "  \"roofline_model\": {{\"sustained_fp32_gflops\": {HOST_FP32_GFLOPS}, \
         \"mem_bw_gbps\": {HOST_MEM_BW_GBPS}, \"note\": \"approximate single-core host \
         model; pct_roofline is context, never gated\"}},\n"
    ));
    json.push_str("  \"gates\": [\n");
    for (i, g) in gates.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"op\": \"{}\", \"shape\": \"{}\", \
             \"num_ns\": {}, \"den_ns\": {}, \"ratio\": {:.3}, \"floor\": {}}}{}\n",
            g.name,
            g.op,
            g.shape,
            g.num_ns,
            g.den_ns,
            g.ratio,
            g.floor,
            if i + 1 == gates.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"op\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"best_ns\": {}, \"gflops\": {:.3}, \"ai\": {:.2}, \"pct_roofline\": {:.2}}}{}\n",
            r.backend,
            r.op,
            r.m,
            r.k,
            r.n,
            r.ns,
            r.gflops,
            r.ai,
            r.pct_roofline,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"rowops\": [\n");
    for (i, r) in rowop_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"op\": \"{}\", \"rows\": {}, \"cols\": {}, \
             \"best_ns\": {}, \"gelems_per_s\": {:.3}}}{}\n",
            r.backend,
            r.op,
            r.rows,
            r.cols,
            r.ns,
            r.gelems,
            if i + 1 == rowop_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(JSON_OUT, json).expect("write BENCH_kernels.json");

    println!(
        "\nwrote {TABLE_OUT} and {JSON_OUT}\n\n\
         Shape check: the tiled kernels' wins come from memory operations per\n\
         FLOP (register-tiled C, packed panels), so they are per-core and\n\
         survive any runner's thread count. The FMA tier halves the arithmetic\n\
         µops of the same loops — pure issue-width win, same traffic. Half\n\
         rows pay operand quantization up front: O(n^2) against O(n^3)\n\
         compute, so their gap to tiled narrows as shapes grow (the\n\
         reproduction analogue of mixed-precision arithmetic intensity on\n\
         the CPEs). Roofline context uses a documented approximate host\n\
         model, so pct_roofline is comparable across PRs, not across\n\
         machines.\n"
    );

    // Gates last, after artifacts are on disk for post-mortems. First that
    // the file says one thing.
    for d in sweep_vs_gate(&rows, &gate_nn, &gate_nt, &gate_fma) {
        assert!(
            d.apart <= SWEEP_VS_GATE_MAX,
            "{} {} at {shape}: sweep row {} ns vs {} ns in its gate pair ({:.2}x apart, at \
             most {SWEEP_VS_GATE_MAX}x)",
            d.backend,
            d.op,
            rows[d.row].ns,
            d.gate_ns,
            d.apart
        );
    }
    for g in &gates {
        assert!(
            g.ratio >= g.floor,
            "gate {} failed: {:.2}x < floor {}x at {} (wide kernel: {wide})",
            g.name,
            g.ratio,
            g.floor,
            g.shape
        );
    }
}
