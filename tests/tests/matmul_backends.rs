//! Property tests for the pluggable [`MatmulBackend`]s: every backend
//! against a naive triple-loop oracle, plus the bitwise contracts the
//! compute floor is built on (see DESIGN.md "Compute floor"):
//!
//! * `Reference` NN *is* the naive accumulation order, bit for bit;
//! * `Tiled` is bit-identical to `Reference` on every f32 input, for all
//!   three layouts and the fused epilogue — on both the portable and the
//!   wide (AVX-512) micro-kernel, wherever this host runs;
//! * `HalfCompute` equals `Reference` bit for bit once the operands are
//!   pre-quantized (storage format is the *only* difference), and tracks
//!   the f32 oracle within its format's tolerance otherwise;
//! * `tiled:fma` is the one tier that is *not* bit-identical — it must
//!   stay inside the documented per-element error band instead.
//!
//! Shapes deliberately sweep the degenerate cases (`m == 0`, `k == 0`,
//! `n == 1`), the MR/NR/MR_W/NR_W tile edges, the few-row GEMMs that skip
//! the pack (`m` up to one register tile), and the inline-vs-fanned-out
//! dispatch boundary (`m·n·k` around `par::MIN_WORK`) at intra-op widths
//! 1, 2, 3 and the host's core count.

use bagualu_tensor::ops::{Activation, ComputeBackend};
use bagualu_tensor::par;
use bagualu_tensor::rng::Rng;
use bagualu_tensor::{DType, Tensor};
use proptest::prelude::*;

/// Ground truth: the plainest possible triple loop, ascending `k` per
/// output element — the accumulation order every f32 backend must honor.
fn naive_nn(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for p in 0..k {
                s += a.at(i, p) * b.at(p, j);
            }
            c.set(i, j, s);
        }
    }
    c
}

fn bitwise_eq(x: &Tensor, y: &Tensor) -> bool {
    x.shape() == y.shape()
        && x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The operands a half backend actually computes on: f32 values already
/// rounded through the 16-bit storage format.
fn prequantized(t: &Tensor, dtype: DType) -> Tensor {
    let mut q = t.clone();
    q.quantize(dtype);
    q
}

fn f32_backends() -> [ComputeBackend; 2] {
    [ComputeBackend::Reference, ComputeBackend::Tiled]
}

/// Intra-op widths every width-sensitive property runs at.
fn widths() -> [usize; 4] {
    [1, 2, 3, par::available_cores()]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    // Reference NN is the naive order itself — bitwise, not approximate.
    // `m`/`k` start at 0 and `n` at 1 so the degenerate shapes stay
    // covered; `k` crosses the KC=256 panel boundary.
    #[test]
    fn reference_nn_is_bitwise_naive(
        m in 0usize..40, k in 0usize..300, n in 1usize..40, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let r = ComputeBackend::Reference.instantiate().matmul(&a, &b);
        prop_assert!(bitwise_eq(&r, &naive_nn(&a, &b)), "{m}x{k}x{n}");
    }

    // Both f32 backends, all three layouts, against the oracle within
    // f32 reassociation tolerance (NT sums through a 4-chain dot).
    #[test]
    fn f32_backends_match_naive_oracle(
        m in 0usize..48, k in 0usize..130, n in 1usize..80, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let want = naive_nn(&a, &b);
        for cb in f32_backends() {
            let be = cb.instantiate();
            prop_assert!(be.matmul(&a, &b).approx_eq(&want, 1e-3), "{cb} nn {m}x{k}x{n}");
            prop_assert!(
                be.matmul_nt(&a, &b.transposed()).approx_eq(&want, 1e-3),
                "{cb} nt {m}x{k}x{n}"
            );
            prop_assert!(
                be.matmul_tn(&a.transposed(), &b).approx_eq(&want, 1e-3),
                "{cb} tn {m}x{k}x{n}"
            );
        }
    }

    // The load-bearing contract: Tiled == Reference bit for bit, for all
    // layouts and the fused epilogue, across tile-edge and multi-panel
    // shapes. `n` reaches past NR_W=64 so AVX-512 hosts exercise the wide
    // micro-kernel's full tiles and both of its edge kinds.
    #[test]
    fn tiled_is_bit_identical_to_reference(
        m in 0usize..70, k in 0usize..300, n in 0usize..140, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let bt = b.transposed();
        let at = a.transposed();
        let reference = ComputeBackend::Reference.instantiate();
        let tiled = ComputeBackend::Tiled.instantiate();
        prop_assert!(
            bitwise_eq(&tiled.matmul(&a, &b), &reference.matmul(&a, &b)),
            "nn {m}x{k}x{n}"
        );
        prop_assert!(
            bitwise_eq(&tiled.matmul_nt(&a, &bt), &reference.matmul_nt(&a, &bt)),
            "nt {m}x{k}x{n}"
        );
        prop_assert!(
            bitwise_eq(&tiled.matmul_tn(&at, &b), &reference.matmul_tn(&at, &b)),
            "tn {m}x{k}x{n}"
        );
        let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.125 - 0.5).collect();
        prop_assert!(
            bitwise_eq(
                &tiled.matmul_bias_act(&a, &b, Some(&bias), Activation::Gelu),
                &reference.matmul_bias_act(&a, &b, Some(&bias), Activation::Gelu),
            ),
            "fused {m}x{k}x{n}"
        );
    }

    // The few-row GEMMs of decoding and of a lightly loaded expert: up to
    // `mr` rows read row-major B in place (no pack), more run one full
    // register tile plus a remainder at its own height. `k` is empty, one
    // deep, around the wide KC=128 block, and several blocks; `n` is on the
    // portable path (< 64), one and many wide panels, and ragged at the
    // right edge. NN and the fused bias+GELU epilogue, bit for bit against
    // Reference on one lane, at intra-op widths 1 and 2.
    #[test]
    fn few_row_gemms_are_bit_identical_to_reference(
        m in 1usize..14, ki in 0usize..7, ni in 0usize..7, seed in 0u64..1000,
    ) {
        let k = [0, 1, 127, 128, 129, 300, 1024][ki];
        let n = [8, 48, 64, 65, 128, 1000, 1024][ni];
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.125 - 0.5).collect();
        let both = |cb: ComputeBackend| {
            let be = cb.instantiate();
            [
                be.matmul(&a, &b),
                be.matmul_bias_act(&a, &b, Some(&bias), Activation::Gelu),
            ]
        };
        let want = {
            let _one_lane = par::scoped_width(1);
            both(ComputeBackend::Reference)
        };
        for width in [1, 2] {
            let _lanes = par::scoped_width(width);
            for (op, (got, want)) in ["nn", "fused"].iter().zip(both(ComputeBackend::Tiled).iter().zip(&want)) {
                prop_assert!(bitwise_eq(got, want), "{op} {m}x{k}x{n} at width {width}");
            }
        }
    }

    // `tiled:fma` trades bitwise identity for a *documented* band: each
    // output element stays within `2(k+1)·ε·Σ_p |A[i,p]·B[p,j]|` of the
    // Reference answer (the standard forward-error bound for a length-k
    // dot product, doubled for the padded-edge contraction). Shapes sweep
    // the edges where the fused path hands off to the exact micro-kernel:
    // `m == 0`, `k` below one KC panel, and `n` not dividing NR_W.
    #[test]
    fn fma_stays_within_documented_band_of_reference(
        m in 0usize..70, k in 0usize..300, n in 0usize..140, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let bt = b.transposed();
        let at = a.transposed();
        let reference = ComputeBackend::Reference.instantiate();
        let fma = ComputeBackend::TiledFma.instantiate();
        let eps = f32::EPSILON as f64;
        let layouts: [(&str, Tensor, Tensor); 3] = [
            ("nn", fma.matmul(&a, &b), reference.matmul(&a, &b)),
            ("nt", fma.matmul_nt(&a, &bt), reference.matmul_nt(&a, &bt)),
            ("tn", fma.matmul_tn(&at, &b), reference.matmul_tn(&at, &b)),
        ];
        for (layout, got, want) in layouts {
            for i in 0..m {
                for j in 0..n {
                    let mut mag = 0.0f64;
                    for p in 0..k {
                        mag += (a.at(i, p) as f64 * b.at(p, j) as f64).abs();
                    }
                    let band = 2.0 * (k as f64 + 1.0) * eps * mag;
                    let diff = (got.at(i, j) as f64 - want.at(i, j) as f64).abs();
                    prop_assert!(
                        diff <= band,
                        "{layout} {m}x{k}x{n} [{i},{j}]: |{} - {}| = {diff:e} > band {band:e}",
                        got.at(i, j),
                        want.at(i, j),
                    );
                }
            }
        }
    }

    // Straddle `m·n = 64·64`, where dispatch switched before the cutoff
    // became estimated work: still a tile-edge sweep worth keeping.
    #[test]
    fn par_threshold_boundary_is_bit_stable(
        m in 60usize..69, n in 60usize..69, k in 1usize..32, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let want = naive_nn(&a, &b);
        for cb in f32_backends() {
            let c = cb.instantiate().matmul(&a, &b);
            prop_assert!(bitwise_eq(&c, &want), "{cb} {m}x{k}x{n} vs naive");
        }
    }

    // Width never reaches the bits: chunking decides which lane computes
    // an output element, not the order of additions inside it. Shapes put
    // `m·k·n` between 0.4× and 2.4× `par::MIN_WORK` (so both the inline and
    // the fanned-out path run, ragged last chunks included), and every
    // layout and the fused epilogue of both f32 backends must equal
    // Reference on one lane at every width.
    #[test]
    fn width_and_work_cutoff_never_change_a_bit(
        m in 120usize..220, k in 120usize..220, n in 120usize..220, seed in 0u64..1000,
    ) {
        let below = m * k * n < par::MIN_WORK as usize;
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let (at, bt) = (a.transposed(), b.transposed());
        let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.125 - 0.5).collect();
        let all_ops = |cb: ComputeBackend| {
            let be = cb.instantiate();
            [
                be.matmul(&a, &b),
                be.matmul_nt(&a, &bt),
                be.matmul_tn(&at, &b),
                be.matmul_bias_act(&a, &b, Some(&bias), Activation::Gelu),
            ]
        };
        let want = {
            let _one_lane = par::scoped_width(1);
            all_ops(ComputeBackend::Reference)
        };
        for width in widths() {
            let _lanes = par::scoped_width(width);
            for cb in f32_backends() {
                for (op, (got, want)) in ["nn", "nt", "tn", "fused"].iter().zip(all_ops(cb).iter().zip(&want)) {
                    prop_assert!(
                        bitwise_eq(got, want),
                        "{cb} {op} {m}x{k}x{n} (below cutoff: {below}) at width {width}"
                    );
                }
            }
        }
    }

    // Half-compute is *exactly* the f32 pipeline on pre-quantized
    // operands: quantization is the only thing the dtype changes.
    #[test]
    fn half_equals_reference_on_prequantized_operands(
        m in 0usize..40, k in 0usize..130, n in 1usize..80,
        bf16 in any::<bool>(), seed in 0u64..1000,
    ) {
        let dtype = if bf16 { DType::BF16 } else { DType::F16 };
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let (aq, bq) = (prequantized(&a, dtype), prequantized(&b, dtype));
        let half = ComputeBackend::Half(dtype).instantiate();
        let reference = ComputeBackend::Reference.instantiate();
        prop_assert!(
            bitwise_eq(&half.matmul(&a, &b), &reference.matmul(&aq, &bq)),
            "nn {m}x{k}x{n} {dtype:?}"
        );
        let (atq, btq) = (aq.transposed(), bq.transposed());
        prop_assert!(
            bitwise_eq(
                &half.matmul_nt(&a, &b.transposed()),
                &reference.matmul_nt(&aq, &btq)
            ),
            "nt {m}x{k}x{n} {dtype:?}"
        );
        prop_assert!(
            bitwise_eq(
                &half.matmul_tn(&a.transposed(), &b),
                &reference.matmul_tn(&atq, &bq)
            ),
            "tn {m}x{k}x{n} {dtype:?}"
        );
    }

    // Against the *unquantized* oracle, half-compute stays inside its
    // format's error envelope (relative tolerance per `approx_eq`).
    #[test]
    fn half_tracks_oracle_within_format_tolerance(
        m in 1usize..32, k in 1usize..64, n in 1usize..32, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let want = naive_nn(&a, &b);
        let f16 = ComputeBackend::Half(DType::F16).instantiate().matmul(&a, &b);
        prop_assert!(f16.approx_eq(&want, 5e-2), "f16 nn {m}x{k}x{n}");
        let bf16 = ComputeBackend::Half(DType::BF16).instantiate().matmul(&a, &b);
        prop_assert!(bf16.approx_eq(&want, 3e-1), "bf16 nn {m}x{k}x{n}");
    }

    // The fused bias+activation epilogue equals the unfused sequence bit
    // for bit on every backend (the half epilogue stays in f32 — it runs
    // at accumulator precision on both sides).
    #[test]
    fn fused_epilogue_is_bitwise_unfused_everywhere(
        m in 0usize..24, k in 0usize..40, n in 1usize..80,
        relu in any::<bool>(), seed in 0u64..1000,
    ) {
        let act = if relu { Activation::Relu } else { Activation::Gelu };
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.1 - 1.0).collect();
        for cb in [
            ComputeBackend::Reference,
            ComputeBackend::Tiled,
            ComputeBackend::Half(DType::BF16),
            ComputeBackend::Half(DType::F16),
        ] {
            let be = cb.instantiate();
            let fused = be.matmul_bias_act(&a, &b, Some(&bias), act);
            let mut unfused = be.matmul(&a, &b);
            unfused.add_row_broadcast(&bias);
            act.apply(&mut unfused);
            prop_assert!(bitwise_eq(&fused, &unfused), "{cb} {m}x{k}x{n} {act:?}");
        }
    }
}

/// `compute.gelu.elems` names every element that went through GELU or its
/// derivative — standalone forward, backward, and the fused epilogue of
/// every backend — including the chunks that ran on pool workers, which
/// hold no trace lane of their own.
#[test]
fn gelu_counters_cover_forward_backward_and_fused_epilogue_at_any_width() {
    use bagualu_tensor::ops::{gelu, gelu_backward};
    use bagualu_trace::{names, TraceCollector};

    let mut rng = Rng::seed_from(17);
    // 128 × 512 × 128 multiply-adds and 128 × 512 GELU elements both clear
    // `par::MIN_WORK`, so at width 2 the work leaves the calling thread.
    let a = Tensor::randn(&[128, 128], 1.0, &mut rng);
    let b = Tensor::randn(&[128, 512], 1.0, &mut rng);
    let bias = vec![0.1f32; 512];
    let h = Tensor::randn(&[128, 512], 1.0, &mut rng);
    let elems = h.len() as u64;
    for width in [1, 2] {
        let _w = par::scoped_width(width);
        let collector = TraceCollector::new();
        {
            let _lane = collector.install(0);
            std::hint::black_box(gelu(&h));
            std::hint::black_box(gelu_backward(&h, &h));
            for cb in [
                ComputeBackend::Reference,
                ComputeBackend::Tiled,
                ComputeBackend::Half(DType::BF16),
            ] {
                let be = cb.instantiate();
                std::hint::black_box(be.matmul_bias_act(&a, &b, Some(&bias), Activation::Gelu));
                // An identity epilogue is not GELU.
                std::hint::black_box(be.matmul_bias_act(&a, &b, Some(&bias), Activation::Identity));
            }
        }
        let trace = collector.finish();
        assert_eq!(
            trace.counter_total(names::COMPUTE_GELU_ELEMS),
            5 * elems,
            "width {width}"
        );
        assert!(trace.counter_total(names::COMPUTE_GELU_NS) > 0);
    }
}
