//! [`HalfCompute`]: native half-precision storage-and-compute GEMM.
//!
//! The SW26010-Pro's CPEs execute FP16/BF16 vector arithmetic in hardware,
//! with products widened into `f32` accumulators. This backend reproduces
//! those numerics exactly on top of the workspace's software half types:
//!
//! 1. both operands are rounded through the configured 16-bit format using
//!    the same [`crate::pack`] conversions the wire-compression path uses
//!    (round-to-nearest-even, FP16 gradual underflow, saturation to ±∞) —
//!    this models *storing* A and B natively in half precision;
//! 2. the [`Tiled`](crate::ops::tiled) kernels then run over the quantized
//!    values. Every half×half product is exactly representable in `f32`
//!    (11×11 or 8×8 significant bits ≪ 24), so an `f32` kernel over
//!    quantized operands computes bit-for-bit what a native half multiplier
//!    feeding an `f32` accumulator would;
//! 3. the bias and activation epilogue stays in `f32` — epilogues run at
//!    accumulator precision, as on the real hardware.
//!
//! Consequence (pinned by tests): `HalfCompute` equals `Tiled` run on
//! pre-quantized operands bitwise, and differs from the f32 oracle only by
//! the input-rounding error, which the E24 mixed-precision tolerance band
//! already budgets for.

use crate::dtype::DType;
use crate::ops::backend::{Activation, MatmulBackend};
use crate::ops::tiled::{PackedB, Tiled};
use crate::pack::{pack_slice, unpack_slice};
use crate::tensor::Tensor;

/// Tiled kernels over operands stored and multiplied in a 16-bit format,
/// accumulating in `f32`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HalfCompute {
    dtype: DType,
}

impl HalfCompute {
    /// # Panics
    /// Panics on [`DType::F32`] — half compute needs a 16-bit format.
    pub(crate) fn new(dtype: DType) -> HalfCompute {
        assert_ne!(
            dtype,
            DType::F32,
            "HalfCompute needs a 16-bit dtype (fp16 or bf16)"
        );
        HalfCompute { dtype }
    }

    /// Round a tensor through the 16-bit storage format via the same
    /// pack/unpack kernels the wire path uses. The u16 round trip *is* the
    /// native storage story: these are the bits a half-precision buffer
    /// would hold.
    fn quantize(&self, t: &Tensor) -> Tensor {
        Tensor::from_vec(self.round(t.as_slice()), t.shape())
    }

    fn round(&self, xs: &[f32]) -> Vec<f32> {
        unpack_slice(self.dtype, &pack_slice(self.dtype, xs))
    }
}

impl MatmulBackend for HalfCompute {
    fn name(&self) -> &'static str {
        match self.dtype {
            DType::F16 => "half:fp16",
            DType::BF16 => "half:bf16",
            DType::F32 => unreachable!("rejected by HalfCompute::new"),
        }
    }

    fn compute_dtype(&self) -> DType {
        self.dtype
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        Tiled.matmul(&self.quantize(a), &self.quantize(b))
    }

    fn matmul_nt(&self, a: &Tensor, b: &Tensor) -> Tensor {
        Tiled.matmul_nt(&self.quantize(a), &self.quantize(b))
    }

    fn matmul_tn(&self, a: &Tensor, b: &Tensor) -> Tensor {
        Tiled.matmul_tn(&self.quantize(a), &self.quantize(b))
    }

    /// Quantized operands, `f32` epilogue: the bias vector and activation
    /// are *not* rounded to half — they apply at accumulator precision.
    fn matmul_bias_act(
        &self,
        a: &Tensor,
        b: &Tensor,
        bias: Option<&[f32]>,
        act: Activation,
    ) -> Tensor {
        Tiled.matmul_bias_act(&self.quantize(a), &self.quantize(b), bias, act)
    }

    /// The panels are quantized per call, like every other operand: the
    /// rounding is element-wise and maps the zero padding to itself, so
    /// these are the panels of the quantized weight.
    fn matmul_packed(
        &self,
        a: &Tensor,
        w: &PackedB,
        bias: Option<&[f32]>,
        act: Activation,
    ) -> Tensor {
        let wq = w.map_elems(|panels| self.round(panels));
        Tiled.matmul_packed(&self.quantize(a), &wq, bias, act)
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

    /// On operands already representable in the half format, quantization
    /// is the identity, so HalfCompute == Tiled == Reference bitwise.
    #[test]
    fn equals_f32_backends_on_prequantized_operands() {
        let mut rng = Rng::seed_from(21);
        for dt in [DType::F16, DType::BF16] {
            let hc = HalfCompute::new(dt);
            let mut a = Tensor::randn(&[33, 65], 1.0, &mut rng);
            let mut b = Tensor::randn(&[65, 18], 1.0, &mut rng);
            dt.round_trip_slice(a.as_mut_slice());
            dt.round_trip_slice(b.as_mut_slice());
            assert_bitwise(
                &hc.matmul(&a, &b),
                &Reference.matmul(&a, &b),
                &format!("{dt} nn"),
            );
            let bt = {
                let mut t = Tensor::randn(&[18, 65], 1.0, &mut rng);
                dt.round_trip_slice(t.as_mut_slice());
                t
            };
            assert_bitwise(
                &hc.matmul_nt(&a, &bt),
                &Reference.matmul_nt(&a, &bt),
                &format!("{dt} nt"),
            );
            let b2 = {
                let mut t = Tensor::randn(&[33, 18], 1.0, &mut rng);
                dt.round_trip_slice(t.as_mut_slice());
                t
            };
            assert_bitwise(
                &hc.matmul_tn(&a, &b2),
                &Reference.matmul_tn(&a, &b2),
                &format!("{dt} tn"),
            );
        }
    }

    /// Against the f32 oracle the only error source is input rounding:
    /// relative error stays within a few ulps of the half format scaled by
    /// the reduction length.
    #[test]
    fn close_to_f32_oracle_within_format_tolerance() {
        let mut rng = Rng::seed_from(22);
        let a = Tensor::randn(&[20, 64], 1.0, &mut rng);
        let b = Tensor::randn(&[64, 12], 1.0, &mut rng);
        let exact = Reference.matmul(&a, &b);
        let w = PackedB::new(&b);
        for (dt, tol) in [(DType::F16, 5e-2), (DType::BF16, 3e-1)] {
            let hc = HalfCompute::new(dt);
            let c = hc.matmul(&a, &b);
            for (x, y) in c.as_slice().iter().zip(exact.as_slice()) {
                assert!((x - y).abs() <= tol * (1.0 + y.abs()), "{dt}: {x} vs {y}");
            }
            // Quantizing the panels is quantizing the weight, then packing.
            assert_bitwise(
                &hc.matmul_packed(&a, &w, None, Activation::Identity),
                &c,
                &format!("{dt} prepacked"),
            );
        }
    }

    /// Bias and activation must apply in f32 — quantizing the epilogue
    /// would double-round the accumulator, which real hardware does not do.
    #[test]
    fn epilogue_applies_at_f32_precision() {
        let mut rng = Rng::seed_from(23);
        let mut a = Tensor::randn(&[4, 8], 1.0, &mut rng);
        let mut b = Tensor::randn(&[8, 6], 1.0, &mut rng);
        DType::BF16.round_trip_slice(a.as_mut_slice());
        DType::BF16.round_trip_slice(b.as_mut_slice());
        // A bias with more mantissa bits than bf16 can hold: if the
        // epilogue quantized, this precision would vanish.
        let bias = [1.0000001f32; 6];
        let hc = HalfCompute::new(DType::BF16);
        let fused = hc.matmul_bias_act(&a, &b, Some(&bias), Activation::Gelu);
        let expect = Reference.matmul_bias_act(&a, &b, Some(&bias), Activation::Gelu);
        assert_bitwise(&fused, &expect, "f32 epilogue");
    }

    #[test]
    fn names_and_dtype_round_trip() {
        assert_eq!(HalfCompute::new(DType::F16).name(), "half:fp16");
        assert_eq!(HalfCompute::new(DType::BF16).name(), "half:bf16");
        assert_eq!(HalfCompute::new(DType::BF16).compute_dtype(), DType::BF16);
    }

    #[test]
    #[should_panic(expected = "16-bit dtype")]
    fn f32_is_rejected() {
        HalfCompute::new(DType::F32);
    }
}
