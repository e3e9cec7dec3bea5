//! The repository's own `ln` and `sin`/`cos`, for the initial weights.
//!
//! [`Rng::normal`](crate::rng::Rng::normal) and
//! [`Rng::fill_normals`](crate::rng::Rng::fill_normals) turn uniforms into
//! normals with Box–Muller, which needs `ln u₁` and `sin`/`cos` of `2π·u₂`.
//! Both are written here on the terms of GELU's
//! [`tanh`](crate::ops::elementwise::tanh): `+ − × ÷` and integer bit
//! operations only — no fused multiply-add, no intrinsic, no `unsafe`, no
//! libm call — so a loop over them vectorizes at any width (SSE2 at the
//! x86-64 baseline, AVX-512F in the wide tier of [`crate::lanes`]) and
//! gives the same bits in scalar and vector form on every host. The initial
//! weights therefore belong to this repository, not to the host's libm.
//!
//! Both are exact enough on the whole domain Box–Muller feeds them, and the
//! unit tests check that domain exhaustively: the generator's uniforms are
//! `k/2²⁴`, so `ln` sees the 2²⁴ values `1 − k/2²⁴` (within 0.83 ulp of
//! the exact logarithm) and [`sin_cos`] the 2²⁴ values `k/2²⁴` (within
//! 1.24 ulp of the exact sine and cosine).

/// `1.5 · 2²³`: adding it to a value in `(−2²², 2²²)` rounds that value to
/// the nearest integer (ties to even) and leaves the integer in the low
/// mantissa bits of the sum, two's complement.
pub(crate) const ROUND_MAGIC: f32 = 12_582_912.0;

/// `ln 2` split so that `k · LN2_HI` is exact for every exponent `k` of an
/// `f32`: `LN2_HI` has 16 significant bits.
const LN2_HI: f32 = 0.693_138_1;
const LN2_LO: f32 = 9.058_001e-6;
/// `(ln(1+s) − ln(1−s))/s ≈ 2 + LN_POLY(s²)`, minimax on `|s| ≤ 0.1716`
/// (`s = f/(2+f)` for `1 + f ∈ [√2/2, √2)`), error below 2⁻³⁴.
const LN_POLY: [f32; 4] = [0.666_666_6, 0.400_009_72, 0.284_987_87, 0.242_790_79];

/// Natural logarithm of a positive, normal, finite `x` (what Box–Muller
/// passes: `u₁ ∈ [2⁻²⁴, 1]`). Zero, subnormals, negatives, ∞ and NaN are
/// outside the domain and return unspecified values.
///
/// `x = 2ᵏ·(1 + f)` with `1 + f ∈ [√2/2, √2)`, read from the bits; then
/// `ln(1 + f) = 2·atanh(s)` with `s = f/(2 + f)`, evaluated as
/// `f − f²/2 + s·(f²/2 + R(s²))` so that the leading `f` — exact, by
/// Sterbenz — carries the result near `x = 1`; and `ln x = k·ln2 +
/// ln(1 + f)` with `ln2` in two parts.
#[inline(always)]
pub(crate) fn ln(x: f32) -> f32 {
    // Re-bias so that a mantissa of √2/2 or more rounds the exponent up:
    // the field then holds `k + 127` and the low bits `1 + f − √2/2`.
    let ix = x.to_bits().wrapping_add(0x3f80_0000 - 0x3f35_04f3);
    let m = f32::from_bits((ix & 0x007f_ffff) + 0x3f35_04f3);
    // `k` as a float without a conversion: `2²³ + (k + 127)` from bits.
    let k = f32::from_bits(0x4b00_0000 | (ix >> 23)) - 8_388_735.0;
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let [l1, l2, l3, l4] = LN_POLY;
    let r = z * (l1 + w * l3) + w * (l2 + w * l4);
    let hfsq = 0.5 * f * f;
    s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// `sin(π/2·r)/r − 1.5` on `|r| ≤ 1/2`, in powers of `r²` (Taylor; the
/// first term is `π/2 − 1.5`, so that `1.5·r` — exact — carries the rest).
const SIN_POLY: [f32; 5] = [
    0.070_796_326,
    -0.645_964_1,
    0.079_692_625,
    -0.004_681_754,
    0.000_160_441_18,
];
/// `(cos(π/2·r) − 1)/r²` on `|r| ≤ 1/2`, in powers of `r²` (Taylor).
const COS_POLY: [f32; 5] = [
    -1.233_700_5,
    0.253_669_5,
    -0.020_863_48,
    0.000_919_260_26,
    -2.520_204_2e-5,
];

/// `(sin 2πt, cos 2πt)` for a turn fraction `t ∈ [0, 1)` of the form
/// `k/2²⁴` — what Box–Muller passes as `u₂`. Exactly `±0` where the true
/// value is zero; other arguments are outside the domain.
///
/// Quarter-turn reduction: `4t = n + r` with `n = round(4t)` and
/// `|r| ≤ 1/2`. For `t = k/2²⁴` both steps are exact (`4t` is a power-of-two
/// scale, and `r` needs at most 21 bits), so no Cody–Waite split is needed.
/// Two short polynomials give `sin(π/2·r)` and `cos(π/2·r)`, and the
/// quadrant `n mod 4` swaps them and flips signs by bit operations.
#[inline(always)]
pub(crate) fn sin_cos(t: f32) -> (f32, f32) {
    let q = 4.0 * t;
    let m = q + ROUND_MAGIC;
    let n = m.to_bits();
    let r = q - (m - ROUND_MAGIC);
    let r2 = r * r;
    let [s1, s3, s5, s7, s9] = SIN_POLY;
    let [c2, c4, c6, c8, c10] = COS_POLY;
    let s = r * 1.5 + r * (s1 + r2 * (s3 + r2 * (s5 + r2 * (s7 + r2 * s9))));
    let c = 1.0 + r2 * (c2 + r2 * (c4 + r2 * (c6 + r2 * (c8 + r2 * c10))));
    // Quadrants 1 and 3 swap sine and cosine; the sine is negated in
    // quadrants 2 and 3, the cosine in 1 and 2.
    let swap = 0u32.wrapping_sub(n & 1);
    let (sb, cb) = (s.to_bits(), c.to_bits());
    let sin = (cb & swap) | (sb & !swap);
    let cos = (sb & swap) | (cb & !swap);
    (
        f32::from_bits(sin ^ ((n & 2) << 30)),
        f32::from_bits(cos ^ ((n.wrapping_add(1) & 2) << 30)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::{FRAC_1_SQRT_2, SQRT_2};

    /// Distance of `got` from the exact `want`, in units of the last place
    /// of `want` rounded to `f32`.
    fn ulps(got: f32, want: f64) -> f64 {
        let w = (want.abs() as f32).max(f32::MIN_POSITIVE);
        let exp = (w.to_bits() >> 23) as i32 - 127;
        (got as f64 - want).abs() / 2f64.powi(exp - 23)
    }

    /// Every uniform the generator can return, `k/2²⁴`.
    fn uniforms() -> impl Iterator<Item = f32> {
        (0u32..1 << 24).map(|k| k as f32 * (1.0 / 16_777_216.0))
    }

    #[test]
    fn ln_is_within_one_ulp_on_every_box_muller_argument() {
        let mut worst = 0.0f64;
        for u in uniforms() {
            let x = 1.0 - u;
            let e = ulps(ln(x), (x as f64).ln());
            assert!(e <= 1.0, "ln({x:e}) = {:e}: {e} ulp", ln(x));
            worst = worst.max(e);
        }
        assert!(worst > 0.5, "the sweep measured nothing: {worst}");
        assert_eq!(ln(1.0).to_bits(), 0);
    }

    #[test]
    fn ln_reads_the_exponent_of_every_normal_binade() {
        for k in -126..=127 {
            let x = 2f32.powi(k);
            for y in [x, x * FRAC_1_SQRT_2, x * SQRT_2, x * 1.9999999] {
                if y.is_finite() && y >= f32::MIN_POSITIVE {
                    let e = ulps(ln(y), (y as f64).ln());
                    assert!(e <= 1.0, "ln({y:e}): {e} ulp");
                }
            }
        }
    }

    #[test]
    fn sin_cos_is_within_two_ulp_on_every_box_muller_argument() {
        let mut worst = 0.0f64;
        for (k, t) in uniforms().enumerate() {
            let (s, c) = sin_cos(t);
            let theta = std::f64::consts::TAU * t as f64;
            // Where the exact value is zero the f64 oracle is not (its
            // `2π` is rounded): the result must be a zero.
            for (got, want, zero) in [
                (s, theta.sin(), k % (1 << 23) == 0),
                (c, theta.cos(), k % (1 << 23) == 1 << 22),
            ] {
                if zero {
                    assert_eq!(got, 0.0, "t = {t}");
                    continue;
                }
                let e = ulps(got, want);
                assert!(e <= 2.0, "sin_cos({t:e}) = ({s:e}, {c:e}): {e} ulp");
                worst = worst.max(e);
            }
        }
        assert!(worst > 0.5, "the sweep measured nothing: {worst}");
        assert_eq!(sin_cos(0.0), (0.0, 1.0));
        assert_eq!(sin_cos(0.25), (1.0, 0.0));
    }
}
