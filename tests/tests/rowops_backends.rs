//! Property tests for the [`RowOpsBackend`] tier pair: the vectorized
//! tier must be bit-identical to the reference tier for every row op, on
//! arbitrary shapes and seeds — the same contract `Tiled` carries against
//! `Reference` for GEMM (see DESIGN.md "Compute floor"). Unlike the
//! `tiled:fma` GEMM tier there is no tolerance band here: both row-op
//! tiers keep the reference accumulation order and only differ in how
//! rows are split across intra-op lanes, which must not change a single
//! bit — at any width, on either side of the work cutoff. The 16-bit wire
//! pack/unpack kernels share that dispatch and are pinned the same way.

use bagualu_tensor::ops::{
    AdamStep, ComputeBackend, ReferenceRowOps, RowOpsBackend, VectorizedRowOps,
};
use bagualu_tensor::par::{self, work};
use bagualu_tensor::rng::Rng;
use bagualu_tensor::{pack_slice, unpack_slice, DType, Tensor};
use proptest::prelude::*;

fn bitwise_eq(x: &[f32], y: &[f32]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Intra-op widths every width-sensitive property runs at.
fn widths() -> [usize; 4] {
    [1, 2, 3, par::available_cores()]
}

/// An element count between 0.5× and 1.5× the cutoff of an op class that
/// costs `per_elem` per element, picked by `t` in `0..1000`.
fn around_cutoff(per_elem: u64, t: usize) -> usize {
    let cutoff = (par::MIN_WORK / per_elem) as usize;
    cutoff / 2 + cutoff * t / 1000
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    // Softmax and log-softmax: rows from empty to far past the row-split
    // chunk size, including single-column rows (softmax of one element is
    // exactly 1.0 on both tiers).
    #[test]
    fn vectorized_softmax_is_bitwise_reference(
        rows in 0usize..48, cols in 1usize..300, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[rows, cols], 2.0, &mut rng);
        let (mut a, mut b) = (x.clone(), x.clone());
        ReferenceRowOps.softmax_rows_inplace(&mut a);
        VectorizedRowOps.softmax_rows_inplace(&mut b);
        prop_assert!(bitwise_eq(a.as_slice(), b.as_slice()), "softmax {rows}x{cols}");
        let la = ReferenceRowOps.log_softmax_rows(&x);
        let lb = VectorizedRowOps.log_softmax_rows(&x);
        prop_assert!(bitwise_eq(la.as_slice(), lb.as_slice()), "log_softmax {rows}x{cols}");
    }

    // LayerNorm: all three outputs (y, x̂, 1/σ) must match, since the
    // backward pass consumes the cached x̂ and 1/σ directly.
    #[test]
    fn vectorized_layernorm_is_bitwise_reference(
        rows in 0usize..48, cols in 1usize..300, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[rows, cols], 1.0, &mut rng);
        let gamma: Vec<f32> = (0..cols).map(|i| 1.0 + i as f32 * 1e-3).collect();
        let beta: Vec<f32> = (0..cols).map(|i| i as f32 * 1e-2 - 0.5).collect();
        let a = ReferenceRowOps.layernorm_rows(&x, &gamma, &beta, 1e-5);
        let b = VectorizedRowOps.layernorm_rows(&x, &gamma, &beta, 1e-5);
        prop_assert!(bitwise_eq(a.y.as_slice(), b.y.as_slice()), "y {rows}x{cols}");
        prop_assert!(bitwise_eq(a.xhat.as_slice(), b.xhat.as_slice()), "xhat {rows}x{cols}");
        prop_assert!(bitwise_eq(&a.inv_sigma, &b.inv_sigma), "inv_sigma {rows}x{cols}");
    }

    // Adam: value, m, and v must all agree after the update — optimizer
    // state divergence is how elastic-resize replays go wrong silently.
    #[test]
    fn vectorized_adam_is_bitwise_reference(
        len in 0usize..5000, t in 1u32..50, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let grad = Tensor::randn(&[len.max(1)], 0.1, &mut rng);
        let value0 = Tensor::randn(&[len.max(1)], 1.0, &mut rng);
        let m0 = Tensor::randn(&[len.max(1)], 0.01, &mut rng);
        let v0 = Tensor::randn(&[len.max(1)], 0.001, &mut rng);
        let grad = &grad.as_slice()[..len];
        let step = AdamStep {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            bc1: 1.0 - 0.9f32.powi(t as i32),
            bc2: 1.0 - 0.999f32.powi(t as i32),
        };
        let run = |ops: &dyn RowOpsBackend| {
            let mut value = value0.as_slice()[..len].to_vec();
            let mut m = m0.as_slice()[..len].to_vec();
            let mut v: Vec<f32> = v0.as_slice()[..len].iter().map(|x| x.abs()).collect();
            ops.adam_update(&mut value, grad, &mut m, &mut v, &step);
            (value, m, v)
        };
        let (va, ma, sa) = run(&ReferenceRowOps);
        let (vb, mb, sb) = run(&VectorizedRowOps);
        prop_assert!(bitwise_eq(&va, &vb), "value len={len} t={t}");
        prop_assert!(bitwise_eq(&ma, &mb), "m len={len} t={t}");
        prop_assert!(bitwise_eq(&sa, &sb), "v len={len} t={t}");
    }

    // Softmax, log-softmax and layer-norm at every width, with element
    // counts straddling each op's work cutoff (ragged last row block
    // included): the vectorized tier equals the reference tier bit for bit
    // whether it ran inline or fanned out.
    #[test]
    fn row_kernels_are_bitwise_reference_at_every_width(
        cols in 100usize..300, t in 0usize..1000, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let gamma: Vec<f32> = (0..cols).map(|i| 1.0 + i as f32 * 1e-3).collect();
        let beta: Vec<f32> = (0..cols).map(|i| i as f32 * 1e-2 - 0.5).collect();
        let xs = Tensor::randn(&[around_cutoff(work::EXP_ELEM, t) / cols, cols], 2.0, &mut rng);
        let xl = Tensor::randn(&[around_cutoff(work::STREAM_ELEM, t) / cols, cols], 1.0, &mut rng);
        let mut soft = xs.clone();
        ReferenceRowOps.softmax_rows_inplace(&mut soft);
        let log_soft = ReferenceRowOps.log_softmax_rows(&xs);
        let ln = ReferenceRowOps.layernorm_rows(&xl, &gamma, &beta, 1e-5);
        for width in widths() {
            let _lanes = par::scoped_width(width);
            let what = format!("{:?} / {:?} at width {width}", xs.shape(), xl.shape());
            let mut got = xs.clone();
            VectorizedRowOps.softmax_rows_inplace(&mut got);
            prop_assert!(bitwise_eq(got.as_slice(), soft.as_slice()), "softmax {what}");
            let got = VectorizedRowOps.log_softmax_rows(&xs);
            prop_assert!(bitwise_eq(got.as_slice(), log_soft.as_slice()), "log_softmax {what}");
            let got = VectorizedRowOps.layernorm_rows(&xl, &gamma, &beta, 1e-5);
            prop_assert!(bitwise_eq(got.y.as_slice(), ln.y.as_slice()), "ln y {what}");
            prop_assert!(bitwise_eq(got.xhat.as_slice(), ln.xhat.as_slice()), "ln xhat {what}");
            prop_assert!(bitwise_eq(&got.inv_sigma, &ln.inv_sigma), "ln inv_sigma {what}");
        }
    }

    // Adam and the f16/bf16 wire pack/unpack at every width, lengths
    // straddling their cutoffs: value, both moments, packed bits and the
    // unpacked round trip are those of one lane.
    #[test]
    fn adam_and_pack_are_bitwise_stable_at_every_width(
        t in 0usize..1000, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let len = around_cutoff(work::STREAM_ELEM, t);
        let grad = Tensor::randn(&[len], 0.1, &mut rng);
        let value0 = Tensor::randn(&[len], 1.0, &mut rng);
        let step = AdamStep {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            bc1: 1.0 - 0.9f32.powi(3),
            bc2: 1.0 - 0.999f32.powi(3),
        };
        let adam = |ops: &dyn RowOpsBackend| {
            let (mut value, mut m, mut v) = (value0.as_slice().to_vec(), vec![0.1f32; len], vec![0.2f32; len]);
            ops.adam_update(&mut value, grad.as_slice(), &mut m, &mut v, &step);
            (value, m, v)
        };
        let wire = Tensor::randn(&[around_cutoff(work::STREAM_ELEM, t)], 100.0, &mut rng);
        let pack = |dt: DType| {
            let bits = pack_slice(dt, wire.as_slice());
            let back = unpack_slice(dt, &bits);
            (bits, back)
        };
        let (want_adam, want_f16, want_bf16) = {
            let _one_lane = par::scoped_width(1);
            (adam(&ReferenceRowOps), pack(DType::F16), pack(DType::BF16))
        };
        for width in widths() {
            let _lanes = par::scoped_width(width);
            let got = adam(&VectorizedRowOps);
            prop_assert!(bitwise_eq(&got.0, &want_adam.0), "adam value len={len} width {width}");
            prop_assert!(bitwise_eq(&got.1, &want_adam.1), "adam m len={len} width {width}");
            prop_assert!(bitwise_eq(&got.2, &want_adam.2), "adam v len={len} width {width}");
            for (dt, want) in [(DType::F16, &want_f16), (DType::BF16, &want_bf16)] {
                let got = pack(dt);
                prop_assert!(got.0 == want.0, "{dt} pack len={} width {width}", wire.len());
                prop_assert!(bitwise_eq(&got.1, &want.1), "{dt} unpack len={} width {width}", wire.len());
            }
        }
    }

    // The backend registry pairing: every ComputeBackend resolves to the
    // row-op tier its bit-identity contract promises — Reference keeps
    // the reference tier, everything faster gets the vectorized tier,
    // and the result is bitwise either way.
    #[test]
    fn compute_backend_rowops_pairing_is_bitwise(
        rows in 1usize..16, cols in 1usize..80, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[rows, cols], 1.0, &mut rng);
        let mut want = x.clone();
        ReferenceRowOps.softmax_rows_inplace(&mut want);
        for cb in [
            ComputeBackend::Reference,
            ComputeBackend::Tiled,
            ComputeBackend::TiledFma,
        ] {
            let ops = cb.instantiate_row_ops();
            let mut got = x.clone();
            ops.softmax_rows_inplace(&mut got);
            prop_assert!(
                bitwise_eq(got.as_slice(), want.as_slice()),
                "{cb} ({}) {rows}x{cols}", ops.name(),
            );
        }
    }
}
