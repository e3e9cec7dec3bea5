//! Software half-precision floating-point types.
//!
//! The New Generation Sunway's CPEs execute FP16/BF16 vector arithmetic in
//! hardware. We reproduce the *numerics* of those formats — rounding to
//! nearest-even, gradual underflow (for FP16), saturation to infinity — with
//! bit-exact software conversions, so that experiments on loss scaling and
//! precision ablations behave like the real system.

/// Element type of a tensor as stored or communicated.
///
/// Compute in this reproduction always happens in `f32`; `DType` describes
/// the format values are *rounded through* when a kernel, optimizer, or
/// collective is configured for reduced precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// IEEE 754 binary32.
    #[default]
    F32,
    /// IEEE 754 binary16 (1 sign, 5 exponent, 10 mantissa bits).
    F16,
    /// bfloat16 (1 sign, 8 exponent, 7 mantissa bits).
    BF16,
}

impl DType {
    /// Round an `f32` value through this format and back.
    #[inline]
    pub fn round_trip(self, x: f32) -> f32 {
        match self {
            DType::F32 => x,
            DType::F16 => F16::from_f32(x).to_f32(),
            DType::BF16 => BF16::from_f32(x).to_f32(),
        }
    }

    /// Round every element of a slice through this format in place.
    pub(crate) fn round_trip_slice(self, xs: &mut [f32]) {
        match self {
            DType::F32 => {}
            DType::F16 => {
                for x in xs {
                    *x = F16::from_f32(*x).to_f32();
                }
            }
            DType::BF16 => {
                for x in xs {
                    *x = BF16::from_f32(*x).to_f32();
                }
            }
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DType::F32 => write!(f, "fp32"),
            DType::F16 => write!(f, "fp16"),
            DType::BF16 => write!(f, "bf16"),
        }
    }
}

impl std::str::FromStr for DType {
    type Err = String;

    /// `fp32 | fp16 | bf16` (with `f32`/`f16` accepted as aliases), the
    /// inverse of [`Display`](std::fmt::Display).
    fn from_str(s: &str) -> Result<DType, String> {
        match s {
            "fp32" | "f32" => Ok(DType::F32),
            "fp16" | "f16" => Ok(DType::F16),
            "bf16" => Ok(DType::BF16),
            other => Err(format!("unknown dtype: {other} (want fp32 | fp16 | bf16)")),
        }
    }
}

/// IEEE 754 binary16 value stored as its raw bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct F16(pub u16);

impl F16 {
    /// Convert from `f32` with round-to-nearest-even, handling subnormals,
    /// overflow to infinity, and NaN payloads.
    ///
    /// Select-only: all three candidates are computed and the magnitude
    /// picks one, so a loop over a slice has no data-dependent branch.
    /// * subnormal results (`|x| < 2⁻¹⁴`): adding `0.5` puts the f16
    ///   subnormal's bits in the low mantissa, and the hardware add rounds
    ///   them to nearest-even;
    /// * normal results: re-bias the exponent and round the 13 dropped
    ///   mantissa bits to nearest-even (a carry into the exponent is
    ///   correct rounding, up to infinity);
    /// * `|x| ≥ 65536`: infinity, or a quiet NaN keeping the top payload
    ///   bits with the low one set.
    #[inline(always)]
    pub fn from_f32(value: f32) -> F16 {
        // 0.5 as f32: the subnormal magic, `(127 − 15 + 23 − 10 + 1) << 23`.
        const SUBNORMAL_MAGIC: u32 = 126 << 23;
        let bits = value.to_bits();
        let sign = (bits >> 16) & 0x8000;
        let abs = bits & 0x7FFF_FFFF;

        let subnormal = (f32::from_bits(abs) + f32::from_bits(SUBNORMAL_MAGIC))
            .to_bits()
            .wrapping_sub(SUBNORMAL_MAGIC);
        let odd = (abs >> 13) & 1;
        let normal = abs
            .wrapping_sub((127 - 15) << 23)
            .wrapping_add(0x0FFF + odd)
            >> 13;
        let inf_nan = if abs > 0x7F80_0000 {
            0x7C00 | 0x0200 | (abs >> 13) & 0x03FF | 0x0001
        } else {
            0x7C00
        };
        let out = if abs >= (127 + 16) << 23 {
            inf_nan
        } else if abs < (127 - 14) << 23 {
            subnormal
        } else {
            normal
        };
        F16((sign | out) as u16)
    }

    /// Convert to `f32` exactly (every f16 is representable in f32).
    ///
    /// Select-only, like [`F16::from_f32`]: shift the exponent and mantissa
    /// into place and re-bias; an all-ones exponent re-biases once more to
    /// f32's infinity/NaN; a zero exponent (zero or subnormal) gets the
    /// smallest normal's exponent and has `2⁻¹⁴` subtracted, which is exact.
    #[inline(always)]
    pub fn to_f32(self) -> f32 {
        const EXP_MASK: u32 = 0x7C00 << 13;
        // 2⁻¹⁴ as f32.
        const MIN_NORMAL: u32 = (127 - 14) << 23;
        let h = self.0 as u32;
        let shifted = (h & 0x7FFF) << 13;
        let exp = shifted & EXP_MASK;
        let normal = shifted + ((127 - 15) << 23);
        let inf_nan = normal + ((128 - 16) << 23);
        let subnormal = (f32::from_bits(normal + (1 << 23)) - f32::from_bits(MIN_NORMAL)).to_bits();
        let out = if exp == EXP_MASK {
            inf_nan
        } else if exp == 0 {
            subnormal
        } else {
            normal
        };
        f32::from_bits(out | (h & 0x8000) << 16)
    }
}

/// bfloat16 value stored as its raw bit pattern (the top 16 bits of an f32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BF16(pub u16);

impl BF16 {
    /// Convert from `f32` with round-to-nearest-even.
    #[inline(always)]
    pub fn from_f32(value: f32) -> BF16 {
        let bits = value.to_bits();
        if value.is_nan() {
            // Quiet NaN, preserving sign.
            return BF16(((bits >> 16) as u16) | 0x0040 | 0x0001);
        }
        let rest = bits & 0xFFFF;
        let mut top = (bits >> 16) as u16;
        if rest > 0x8000 || (rest == 0x8000 && (top & 1) == 1) {
            top = top.wrapping_add(1);
        }
        BF16(top)
    }

    /// Convert to `f32` exactly.
    #[inline(always)]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl F16 {
        const ONE: F16 = F16(0x3C00);
        const INFINITY: F16 = F16(0x7C00);
        const NEG_INFINITY: F16 = F16(0xFC00);
    }

    impl BF16 {
        const ONE: BF16 = BF16(0x3F80);
    }

    /// The branching f32 → f16 conversion the select-only one replaced:
    /// the oracle it is checked against.
    fn from_f32_branching(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN. Preserve NaN-ness with a quiet mantissa bit.
            let payload = if mant != 0 {
                0x0200 | (mant >> 13) as u16 & 0x03FF | 0x0001
            } else {
                0
            };
            return F16(sign | 0x7C00 | payload);
        }

        // Re-bias exponent from 127 to 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow → infinity.
            return F16(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal range. Round mantissa from 23 to 10 bits, nearest-even.
            let half_exp = (unbiased + 15) as u16;
            let shifted = mant >> 13;
            let rest = mant & 0x1FFF;
            let mut out = (half_exp << 10) | shifted as u16;
            if rest > 0x1000 || (rest == 0x1000 && (shifted & 1) == 1) {
                out += 1; // may carry into exponent; that is correct rounding
            }
            return F16(sign | out);
        }
        if unbiased >= -25 {
            // Subnormal range: implicit leading 1 becomes explicit, shift right.
            let full = mant | 0x0080_0000;
            let shift = (-14 - unbiased) as u32 + 13;
            let shifted = full >> shift;
            let rest_mask = (1u32 << shift) - 1;
            let rest = full & rest_mask;
            let halfway = 1u32 << (shift - 1);
            let mut out = shifted as u16;
            if rest > halfway || (rest == halfway && (shifted & 1) == 1) {
                out += 1;
            }
            return F16(sign | out);
        }
        // Underflow to signed zero.
        F16(sign)
    }

    /// The branching f16 → f32 conversion the select-only one replaced.
    fn to_f32_branching(h: F16) -> f32 {
        let sign = ((h.0 & 0x8000) as u32) << 16;
        let exp = ((h.0 >> 10) & 0x1F) as u32;
        let mant = (h.0 & 0x03FF) as u32;

        let bits = if exp == 0 {
            if mant == 0 {
                sign // signed zero
            } else {
                // Subnormal: value = mant · 2⁻²⁴. Normalize so the leading
                // set bit becomes the implicit one.
                let b = 31 - mant.leading_zeros(); // highest set bit, 0..=9
                let exp_f32 = 127 - 24 + b;
                let mant_norm = (mant << (23 - b)) & 0x007F_FFFF;
                sign | (exp_f32 << 23) | mant_norm
            }
        } else if exp == 0x1F {
            sign | 0x7F80_0000 | (mant << 13) // Inf / NaN
        } else {
            sign | ((exp + 127 - 15) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }

    /// Check `F16::from_f32` against the branching oracle on every f32 bit
    /// pattern `step` apart (and the last one).
    fn sweep_from_f32(step: usize) {
        for bits in (0..=u32::MAX).step_by(step).chain([u32::MAX]) {
            let x = f32::from_bits(bits);
            assert_eq!(
                F16::from_f32(x),
                from_f32_branching(x),
                "f32 bits {bits:#010x}"
            );
        }
    }

    /// A strided sweep over all 2³² f32 inputs (every exponent, both signs,
    /// NaN payloads) and every one of the 2¹⁶ f16 inputs, and every f32
    /// within a few ulps of each f16 value and rounding midpoint.
    #[test]
    fn select_only_converters_match_the_branching_ones() {
        sweep_from_f32(4099);
        for h in 0..=u16::MAX {
            let got = F16(h).to_f32();
            assert_eq!(
                got.to_bits(),
                to_f32_branching(F16(h)).to_bits(),
                "f16 {h:#06x}"
            );
            let exact = got.to_bits();
            let midpoint = exact.wrapping_add(1 << 12);
            for centre in [exact, midpoint] {
                for d in 0..8u32 {
                    for bits in [centre.wrapping_add(d), centre.wrapping_sub(d)] {
                        let x = f32::from_bits(bits);
                        assert_eq!(F16::from_f32(x), from_f32_branching(x), "{bits:#010x}");
                    }
                }
            }
        }
    }

    /// Every one of the 2³² f32 inputs: ≈ 30 s in a release build, far
    /// longer in a debug one, so it runs on request
    /// (`cargo test --release -p bagualu-tensor dtype -- --ignored`).
    #[test]
    #[ignore = "all 2^32 inputs; run in a release build"]
    fn select_only_from_f32_matches_on_every_input() {
        sweep_from_f32(1);
    }

    #[test]
    fn f16_exact_values() {
        assert_eq!(F16::from_f32(0.0).0, 0);
        assert_eq!(F16::from_f32(-0.0).0, 0x8000);
        assert_eq!(F16::from_f32(1.0), F16::ONE);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::from_f32(2.0).to_f32(), 2.0);
        assert_eq!(F16::from_f32(-1.5).to_f32(), -1.5);
        assert_eq!(F16::from_f32(0.5).to_f32(), 0.5);
        assert_eq!(F16::from_f32(65504.0).to_f32(), 65504.0);
    }

    #[test]
    fn f16_overflow_saturates_to_infinity() {
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY);
        assert_eq!(F16::from_f32(1e30), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e30), F16::NEG_INFINITY);
        assert!(F16::INFINITY.to_f32().is_infinite());
    }

    #[test]
    fn f16_subnormals_round_trip() {
        // Smallest positive subnormal: 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).0, 1);
        assert_eq!(F16(1).to_f32(), tiny);
        // 2^-14 is the smallest normal.
        let min_normal = 2.0f32.powi(-14);
        assert_eq!(F16::from_f32(min_normal).to_f32(), min_normal);
        // Below half the smallest subnormal → zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-26)).0, 0);
    }

    #[test]
    fn f16_nan_is_preserved() {
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16 (1 + 2^-10);
        // nearest-even rounds down to 1.0.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(F16::from_f32(above).to_f32(), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn bf16_exact_values() {
        assert_eq!(BF16::from_f32(1.0), BF16::ONE);
        assert_eq!(BF16::ONE.to_f32(), 1.0);
        assert_eq!(BF16::from_f32(-2.0).to_f32(), -2.0);
        // bf16 keeps the f32 exponent range: no overflow at 1e30.
        let big = BF16::from_f32(1e30).to_f32();
        assert!(big.is_finite());
        assert!((big - 1e30).abs() / 1e30 < 0.01);
    }

    #[test]
    fn bf16_rounds_to_nearest_even() {
        // 1 + 2^-8 is halfway between 1.0 and 1 + 2^-7 in bf16.
        let halfway = 1.0 + 2.0f32.powi(-8);
        assert_eq!(BF16::from_f32(halfway).to_f32(), 1.0);
        let above = 1.0 + 2.0f32.powi(-8) + 2.0f32.powi(-16);
        assert_eq!(BF16::from_f32(above).to_f32(), 1.0 + 2.0f32.powi(-7));
    }

    #[test]
    fn bf16_nan_is_preserved() {
        assert!(BF16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn dtype_round_trip_slice() {
        let mut xs = vec![1.0f32, 1e-8, 70000.0, -3.25];
        DType::F16.round_trip_slice(&mut xs);
        assert_eq!(xs[0], 1.0);
        assert_eq!(xs[1], 0.0); // underflow
        assert!(xs[2].is_infinite()); // overflow
        assert_eq!(xs[3], -3.25);
    }
}
