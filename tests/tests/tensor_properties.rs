//! Property-based tests of the tensor kernels and half-precision types.

use bagualu_tensor::ops::{matmul, matmul_nt, matmul_tn, softmax_rows};
use bagualu_tensor::pack::{pack_slice, unpack_slice};
use bagualu_tensor::rng::Rng;
use bagualu_tensor::{DType, Tensor, BF16, F16};
use proptest::prelude::*;

fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn matmul_matches_naive(m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        prop_assert!(matmul(&a, &b).approx_eq(&naive_matmul(&a, &b), 1e-3));
    }

    #[test]
    fn nt_and_tn_are_consistent_with_nn(m in 1usize..16, k in 1usize..16, n in 1usize..16, seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[n, k], 1.0, &mut rng);
        // One summation order for every layout: both are NN bit for bit.
        let same = |x: &Tensor, y: &Tensor| {
            x.as_slice().iter().map(|v| v.to_bits()).eq(y.as_slice().iter().map(|v| v.to_bits()))
        };
        prop_assert!(same(&matmul_nt(&a, &b), &matmul(&a, &b.transposed())));
        let b2 = Tensor::randn(&[m, n], 1.0, &mut rng);
        prop_assert!(same(&matmul_tn(&a, &b2), &matmul(&a.transposed(), &b2)));
    }

    #[test]
    fn f16_round_trip_is_idempotent(bits in any::<u16>()) {
        // Converting f16→f32→f16 must return the same bit pattern (NaN
        // payloads may differ; compare via f32 semantics for NaN).
        let x = F16(bits).to_f32();
        if x.is_nan() {
            prop_assert!(F16::from_f32(x).to_f32().is_nan());
        } else {
            prop_assert_eq!(F16::from_f32(x), F16(bits));
        }
    }

    #[test]
    fn bf16_round_trip_is_idempotent(bits in any::<u16>()) {
        let x = BF16(bits).to_f32();
        if x.is_nan() {
            prop_assert!(BF16::from_f32(x).to_f32().is_nan());
        } else {
            prop_assert_eq!(BF16::from_f32(x), BF16(bits));
        }
    }

    #[test]
    fn f16_rounding_error_is_bounded(v in -60000.0f32..60000.0) {
        let r = F16::from_f32(v).to_f32();
        // Relative error of round-to-nearest f16 is at most 2^-11 for
        // normal values; subnormals have bounded absolute error.
        if v.abs() >= 6.2e-5 {
            prop_assert!((r - v).abs() <= v.abs() * 4.9e-4, "v={} r={}", v, r);
        } else {
            prop_assert!((r - v).abs() <= 3.0e-8, "v={} r={}", v, r);
        }
    }

    #[test]
    fn pack_unpack_matches_round_trip_bit_for_bit(
        bit_patterns in proptest::collection::vec(any::<u32>(), 0..200),
    ) {
        // The wire pack kernels must agree with the scalar DType::round_trip
        // on *every* f32 bit pattern — NaNs, ±inf, subnormals, -0.0 — so the
        // parallel chunked path can never diverge from the scalar semantics.
        let src: Vec<f32> = bit_patterns.iter().map(|&b| f32::from_bits(b)).collect();
        for dt in [DType::F16, DType::BF16] {
            let unpacked = unpack_slice(dt, &pack_slice(dt, &src));
            prop_assert_eq!(unpacked.len(), src.len());
            for (&x, &y) in src.iter().zip(&unpacked) {
                let reference = dt.round_trip(x);
                prop_assert_eq!(
                    y.to_bits(), reference.to_bits(),
                    "dtype {:?}: input {:#010x} packed to {:#010x}, round_trip gives {:#010x}",
                    dt, x.to_bits(), y.to_bits(), reference.to_bits()
                );
            }
        }
    }

    #[test]
    fn quantize_is_monotone(a in -1000.0f32..1000.0, b in -1000.0f32..1000.0) {
        // Rounding must preserve order (weaker: not invert it).
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for dt in [DType::F16, DType::BF16] {
            prop_assert!(dt.round_trip(lo) <= dt.round_trip(hi));
        }
    }

    #[test]
    fn softmax_rows_are_distributions(r in 1usize..8, c in 1usize..12, seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[r, c], 3.0, &mut rng);
        let s = softmax_rows(&x);
        for i in 0..r {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(s.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn transpose_is_involutive(r in 1usize..40, c in 1usize..40, seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let t = Tensor::randn(&[r, c], 1.0, &mut rng);
        prop_assert!(t.transposed().transposed().approx_eq(&t, 0.0));
    }

    #[test]
    fn concat_slice_round_trip(r1 in 1usize..10, r2 in 1usize..10, c in 1usize..10) {
        let mut rng = Rng::seed_from(7);
        let a = Tensor::randn(&[r1, c], 1.0, &mut rng);
        let b = Tensor::randn(&[r2, c], 1.0, &mut rng);
        let joined = Tensor::concat_rows(&[a.clone(), b.clone()]);
        prop_assert!(joined.slice_rows(0, r1).approx_eq(&a, 0.0));
        prop_assert!(joined.slice_rows(r1, r1 + r2).approx_eq(&b, 0.0));
    }
}
