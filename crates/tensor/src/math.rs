//! The repository's own `exp`, `ln` and `sin`/`cos`.
//!
//! [`Rng::normal`](crate::rng::Rng::normal) and
//! [`Rng::fill_normals`](crate::rng::Rng::fill_normals) turn uniforms into
//! normals with Box–Muller, which needs `ln u₁` and `sin`/`cos` of `2π·u₂`;
//! every softmax ([`crate::ops::softmax_row`]) needs `exp`, and its
//! log-sum-exp `ln`. All are written here on the terms of GELU's
//! [`tanh`](crate::ops::elementwise::tanh), which shares `exp`'s reduction:
//! `+ − × ÷`, selects and integer bit operations only — no fused
//! multiply-add, no intrinsic, no `unsafe`, no libm call — so a loop over
//! them vectorizes at any width (SSE2 at the x86-64 baseline, AVX-512F in
//! the wide tier of [`crate::lanes`]) and gives the same bits in scalar and
//! vector form on every host. The initial weights and every probability
//! therefore belong to this repository, not to the host's libm.
//!
//! `ln` and `sin_cos` are exact enough on the whole domain Box–Muller feeds
//! them, and the unit tests check that domain exhaustively: the generator's
//! uniforms are `k/2²⁴`, so `ln` sees the 2²⁴ values `1 − k/2²⁴` (within
//! 0.83 ulp of the exact logarithm) and [`sin_cos`] the 2²⁴ values `k/2²⁴`
//! (within 1.24 ulp of the exact sine and cosine). [`exp`] is checked on a
//! strided sweep of every `f32` (within 1.04 ulp wherever its result is
//! normal).

use std::f32::consts::LOG2_E;

/// `1.5 · 2²³`: adding it to a value in `(−2²², 2²²)` rounds that value to
/// the nearest integer (ties to even) and leaves the integer in the low
/// mantissa bits of the sum, two's complement.
pub(crate) const ROUND_MAGIC: f32 = 12_582_912.0;

/// `ln 2` split so that `n · EXP_LN2_HI` is exact for every `|n| < 2¹⁵`:
/// `EXP_LN2_HI` is 355/512, nine significant bits.
const EXP_LN2_HI: f32 = 0.693_359_4;
const EXP_LN2_LO: f32 = -2.121_944_4e-4;
/// `(expm1(r) − r) / r²` on `|r| ≤ ln2 / 2`: degree-4 Chebyshev fit,
/// relative error of the resulting `expm1` below 2.3e-8.
const EXPM1_POLY: [f32; 5] = [
    0.5,
    1.666_657_6e-1,
    4.166_655_4e-2,
    8.363_293e-3,
    1.392_632_6e-3,
];

/// The Cody–Waite reduction `exp` and GELU's `tanh` share: for a finite
/// `v` with `|v| < 2²¹`, `n = round(v / ln2)` and `r = v − n·ln2` (`ln2` in
/// two parts, so `r` is exact), returned as `ROUND_MAGIC + n` — whose low
/// mantissa bits hold `n` — and `p = expm1(r)` from `EXPM1_POLY`. Then
/// `eᵛ = 2ⁿ·(1 + p)`.
#[inline(always)]
pub(crate) fn exp_reduce(v: f32) -> (f32, f32) {
    let t = v * LOG2_E + ROUND_MAGIC;
    let n = t - ROUND_MAGIC;
    let r = (v - n * EXP_LN2_HI) - n * EXP_LN2_LO;
    let [c2, c3, c4, c5, c6] = EXPM1_POLY;
    (
        t,
        r + r * r * (c2 + r * (c3 + r * (c4 + r * (c5 + r * c6)))),
    )
}

/// `2ⁿ` for the `t = ROUND_MAGIC + n` of [`exp_reduce`], `n ∈ [−127, 127]`
/// (`n = −127` gives `+0`): the shift drops the magic's own bits and
/// leaves `n` in the exponent field, the add applies the bias.
#[inline(always)]
pub(crate) fn exp2_int(t: f32) -> f32 {
    f32::from_bits((t.to_bits() << 23).wrapping_add(0x3f80_0000))
}

/// Arguments below this are raised to it: `n = −127`, whose `2ⁿ` is `+0`.
/// Every result below `2⁻¹²⁶` is flushed to `+0` anyway.
const EXP_LO: f32 = -88.0;
/// Arguments above this are lowered to it: the result is `+∞` from
/// `ln f32::MAX ≈ 88.72` on, and `n = 128` still has `|r| ≤ ln2 / 2`.
const EXP_HI: f32 = 89.0;

/// `eˣ`: within 1.04 ulp of the exact value wherever that is a normal
/// `f32`; `+0` wherever the result would fall below `2⁻¹²⁶` (so
/// `exp(−∞) = +0`, and a softmax's masked lanes cost no subnormal
/// arithmetic); `+∞` from `x ≈ 88.72` on; NaN → NaN; `exp(±0) = 1`.
///
/// [`exp_reduce`] on `x` clamped to `[−88, 89]`, then `2ⁿ + 2ⁿ·p`. The
/// one `n` the bits of an `f32` exponent cannot hold, `128`, is built as
/// `2¹²⁷` and the result doubled, which is exact or overflows to `+∞`.
#[inline(always)]
pub(crate) fn exp(x: f32) -> f32 {
    // Comparisons, not `f32::max`/`min`, which return the non-NaN operand:
    // a NaN fails both and stays.
    let v = if x < EXP_LO { EXP_LO } else { x };
    let v = if v > EXP_HI { EXP_HI } else { v };
    let (t, p) = exp_reduce(v);
    let big = t > ROUND_MAGIC + 127.0;
    let s = exp2_int(if big { t - 1.0 } else { t });
    let y = s + s * p;
    let y = if big { y + y } else { y };
    if y < f32::MIN_POSITIVE {
        0.0
    } else {
        y
    }
}

/// `ln 2` split so that `k · LN2_HI` is exact for every exponent `k` of an
/// `f32`: `LN2_HI` has 16 significant bits.
const LN2_HI: f32 = 0.693_138_1;
const LN2_LO: f32 = 9.058_001e-6;
/// `(ln(1+s) − ln(1−s))/s ≈ 2 + LN_POLY(s²)`, minimax on `|s| ≤ 0.1716`
/// (`s = f/(2+f)` for `1 + f ∈ [√2/2, √2)`), error below 2⁻³⁴.
const LN_POLY: [f32; 4] = [0.666_666_6, 0.400_009_72, 0.284_987_87, 0.242_790_79];

/// Natural logarithm of a positive, normal, finite `x` (what its callers
/// pass: Box–Muller's `u₁ ∈ [2⁻²⁴, 1]`, a softmax row's sum `Σ ≥ 1`, a
/// gate's probability floored at `1e-30`). A NaN comes back NaN, so a
/// softmax row holding one has a NaN log-sum-exp; zero, subnormals,
/// negatives and ∞ are outside the domain and return unspecified values.
///
/// `x = 2ᵏ·(1 + f)` with `1 + f ∈ [√2/2, √2)`, read from the bits; then
/// `ln(1 + f) = 2·atanh(s)` with `s = f/(2 + f)`, evaluated as
/// `f − f²/2 + s·(f²/2 + R(s²))` so that the leading `f` — exact, by
/// Sterbenz — carries the result near `x = 1`; and `ln x = k·ln2 +
/// ln(1 + f)` with `ln2` in two parts.
#[inline(always)]
pub fn ln(x: f32) -> f32 {
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
    let y = s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI;
    // The bits of a NaN read as a finite `k` and `f`: pass it through.
    if x.is_nan() {
        x
    } else {
        y
    }
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
    use crate::lanes::{lanes_fn, Lanes};
    use crate::ops::softmax::softmax_block;
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
        assert!(ln(f32::NAN).is_nan() && ln(-f32::NAN).is_nan());
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

    /// `exp`'s distance from the f64 oracle where the exact result is a
    /// normal `f32`, and its flush, overflow and NaN behaviour elsewhere.
    fn exp_error(x: f32) -> f64 {
        let got = exp(x);
        let want = (x as f64).exp();
        if x.is_nan() {
            assert!(got.is_nan(), "exp(NaN) = {got:e}");
            return 0.0;
        }
        if want < f32::MIN_POSITIVE as f64 {
            // Below 2⁻¹²⁶ the result is +0, or — within an ulp of the
            // threshold — the smallest normal.
            assert!(
                got.to_bits() == 0 || got == f32::MIN_POSITIVE,
                "exp({x:e}) = {got:e}, exact {want:e}"
            );
            return 0.0;
        }
        if want > f32::MAX as f64 {
            assert!(
                got == f32::INFINITY
                    || (got as f64 - want).abs() <= 2.0 * want * f32::EPSILON as f64,
                "exp({x:e}) = {got:e} overflows"
            );
            return 0.0;
        }
        if got == f32::INFINITY && want > 0.99999 * f32::MAX as f64 {
            return 0.0;
        }
        let e = ulps(got, want);
        assert!(e <= 1.04, "exp({x:e}) = {got:e}, exact {want:e}: {e} ulp");
        e
    }

    #[test]
    fn exp_is_within_1_04_ulp_on_a_strided_sweep_of_every_f32() {
        // Every 997th bit pattern (a prime stride: both signs, every
        // exponent and the low mantissa bits all vary). In a release build
        // every 7th pattern measures 1.04 ulp at most.
        let mut worst = 0.0f64;
        for bits in (0..=u32::MAX).step_by(997) {
            worst = worst.max(exp_error(f32::from_bits(bits)));
        }
        assert!(worst > 0.5, "the sweep measured nothing: {worst}");
    }

    #[test]
    fn exp_special_values_and_both_sides_of_each_threshold() {
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(-f32::NAN).is_nan());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0, "exp(−∞) = +0");
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f32::MAX), f32::INFINITY);
        assert_eq!(exp(f32::MIN).to_bits(), 0);
        // The flush: e^x crosses 2⁻¹²⁶ at x = −126·ln2 ≈ −87.336.
        let flush = (-126.0 * std::f64::consts::LN_2) as f32;
        for k in 1..=64u32 {
            let above = f32::from_bits(flush.to_bits() - k);
            let below = f32::from_bits(flush.to_bits() + k);
            assert!(exp(above) >= f32::MIN_POSITIVE, "exp({above:e}) is normal");
            assert_eq!(exp(below).to_bits(), 0, "exp({below:e}) flushes to +0");
            exp_error(above);
        }
        for x in [-87.5f32, -88.0, -88.5, -100.0, -1e10] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x}) flushes to +0");
        }
        // Overflow: e^x crosses f32::MAX at x = ln(MAX) ≈ 88.7228.
        let ovf = (f32::MAX as f64).ln() as f32;
        for k in 2..=64u32 {
            let below = f32::from_bits(ovf.to_bits() - k);
            let above = f32::from_bits(ovf.to_bits() + k);
            assert!(exp(below).is_finite(), "exp({below:e}) is finite");
            assert_eq!(exp(above), f32::INFINITY, "exp({above:e}) overflows");
            exp_error(below);
        }
        // `n = 128`, built as 2¹²⁷ doubled, and the binades around it.
        for x in [88.0f32, 88.3, 88.4, 88.6, 88.72] {
            exp_error(x);
        }
        assert_eq!(exp(89.0), f32::INFINITY);
    }

    #[test]
    fn exp_holds_at_every_boundary_of_the_reduction() {
        // `n` steps where `x · log2(e)` crosses a half-integer.
        for k in -126i32..=127 {
            let edge = ((k as f64 + 0.5) * std::f64::consts::LN_2) as f32;
            let bits = edge.to_bits();
            for b in bits - 32..=bits + 32 {
                exp_error(f32::from_bits(b));
            }
        }
    }

    lanes_fn! {
        fn exp_slice(xs: &mut [f32]) {
            for x in xs {
                *x = exp(*x);
            }
        }
    }

    /// `exp` and the softmax row kernel on both tiers over the bit
    /// patterns `start, start + stride, …`, `to_bits()` equal. A NaN's
    /// payload is not part of the contract: where an add meets two NaNs
    /// (a row holding `±∞`), the compiler may order its operands
    /// differently at the two widths, and either NaN comes out.
    /// The softmax runs over rows of 37 of the same patterns, so every
    /// lane sees every kind of input, and over rows of 7 (the short path).
    fn sweep_wide_against_portable(start: u32, stride: usize) {
        let wide = Lanes::host();
        if !wide.is_wide() {
            return;
        }
        const BLOCK: usize = 37 * 7 * 256;
        let (mut x, mut got, mut want) = (Vec::new(), Vec::new(), Vec::new());
        let mut bits = (start as u64..=u32::MAX as u64).step_by(stride);
        // Element `i` of `got` belongs to `x[i * per..][..per]`.
        let same = |got: &[f32], want: &[f32], x: &[f32], per: usize, what: &str| {
            for i in 0..got.len() {
                let (g, w) = (got[i], want[i]);
                assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "{what} of {:?}: {g:e} vs {w:e}",
                    &x[i * per..][..per]
                );
            }
        };
        loop {
            x.clear();
            x.extend(bits.by_ref().take(BLOCK).map(|b| f32::from_bits(b as u32)));
            if x.is_empty() {
                break;
            }
            got.clone_from(&x);
            want.clone_from(&x);
            exp_slice(wide, &mut got);
            exp_slice(Lanes::PORTABLE, &mut want);
            same(&got, &want, &x, 1, "exp");
            for cols in [37, 7] {
                let n = x.len() / cols * cols;
                let (mut lg, mut lw) = (vec![0.0; n / cols], vec![0.0; n / cols]);
                got[..n].copy_from_slice(&x[..n]);
                want[..n].copy_from_slice(&x[..n]);
                softmax_block(wide, &mut got[..n], cols, &mut lg);
                softmax_block(Lanes::PORTABLE, &mut want[..n], cols, &mut lw);
                same(&got[..n], &want[..n], &x, 1, "softmax");
                same(&lg, &lw, &x, cols, "log-sum-exp");
            }
        }
    }

    #[test]
    fn wide_exp_and_softmax_have_the_portable_bits_over_a_strided_sweep() {
        sweep_wide_against_portable(0, 4099);
    }

    /// Every one of the 2³² f32 inputs, so it runs on request in a release
    /// build (`cargo test --release -p bagualu-tensor exp_every -- --ignored`).
    #[test]
    #[ignore = "all 2^32 inputs; run in a release build"]
    fn exp_every_f32_input_wide_equals_portable() {
        sweep_wide_against_portable(0, 1);
    }
}
