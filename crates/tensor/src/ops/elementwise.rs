//! Element-wise activation kernels and their backward passes.
//!
//! GELU is the FFN/expert activation, and its `tanh` is computed in this
//! crate (as are Box–Muller's `ln` and `sin`/`cos`, in [`crate::math`],
//! on the same terms): [`tanh`] is a branch-free
//! `f32` routine made only of `+ − × ÷`, `abs`, a compare-select and
//! integer bit operations, so the slice loops below vectorize at any width
//! and produce the same bits in scalar and vector form on every host. There
//! is no fused multiply-add in it (Rust never contracts `a * b + c`, and a
//! host with FMA must not round differently from one without) and no libm
//! call. DESIGN.md "Numerics" has the error bound and what it means for
//! bit-identity.
//!
//! Two slice kernels carry every GELU in the workspace — `gelu_slice` (in
//! place) and `gelu_backward_slice` (`dx = dy ⊙ gelu'(h)`). Each is compiled
//! at the target's baseline (SSE2 on x86-64) and again for AVX-512F
//! ([`crate::lanes`]); the caller names the tier, picked once per kernel
//! call with [`Lanes::host`], and the two give the same bits (CI compares
//! them on every `f32` input). The tensor-level [`gelu`], [`gelu_backward`]
//! and [`Activation::apply`](crate::ops::Activation::apply) fan them out
//! over the calling thread's intra-op lanes above the work cutoff of
//! [`crate::par`]; the tiled GEMM epilogue calls `gelu_slice` per output
//! row. All of them record `compute.gelu.{elems,ns}` through one
//! `GeluClock`.

use crate::lanes::{lanes_fn, Lanes};
use crate::math::ROUND_MAGIC;
use crate::par::{self, work};
use crate::tensor::Tensor;
use bagualu_trace::{self as trace, names};
use std::f32::consts::LOG2_E;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `ln 2` split so that `n · LN2_HI` is exact for every `|n| < 2¹⁵`:
/// `LN2_HI` is 355/512, nine significant bits.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `2|x|` beyond this is clamped: `tanh` is exactly `1.0` in `f32` from
/// `|x| ≈ 9.02` on, so the clamp changes no result, only bounds the
/// exponent of `2ⁿ`.
const TANH_CLAMP: f32 = 20.0;
/// `(expm1(r) − r) / r²` on `|r| ≤ ln2 / 2`: degree-4 Chebyshev fit,
/// relative error of the resulting `expm1` below 2.3e-8.
const EXPM1_POLY: [f32; 5] = [
    0.5,
    1.666_657_6e-1,
    4.166_655_4e-2,
    8.363_293e-3,
    1.392_632_6e-3,
];

/// Hyperbolic tangent: within 2.2 ulp and 1.1e-7 of the exact value over
/// all of `f32` (glibc 2.36's `tanhf`, same sweep: 2.2 ulp, 1.0e-7),
/// exactly odd, NaN → NaN, ±∞ → ±1, ±0 → ±0, subnormals → themselves.
///
/// `tanh|x| = (1 − e) / (1 + e)` with `e = exp(−2|x|) = 2ⁿ·(1 + p)`,
/// `n = round(−2|x| / ln2)`, `r = −2|x| − n·ln2` and `p = expm1(r)` from
/// `EXPM1_POLY`. The negative argument keeps `2ⁿ ≤ 1`, so the polynomial's
/// rounding error is scaled *down*; numerator and denominator are summed
/// as `(1 ∓ 2ⁿ) ∓ 2ⁿ·p`, one rounding each; and for `n = 0` the numerator
/// is `−p`, which keeps small `|x|` accurate to the last bits.
#[inline(always)]
pub(crate) fn tanh(x: f32) -> f32 {
    let v = -2.0 * x.abs();
    // Not `f32::max`, which returns the non-NaN operand: a NaN fails the
    // comparison and stays.
    let v = if v < -TANH_CLAMP { -TANH_CLAMP } else { v };
    let t = v * LOG2_E + ROUND_MAGIC;
    let n = t - ROUND_MAGIC;
    let r = (v - n * LN2_HI) - n * LN2_LO;
    let [c2, c3, c4, c5, c6] = EXPM1_POLY;
    let p = r + r * r * (c2 + r * (c3 + r * (c4 + r * (c5 + r * c6))));
    // 2ⁿ: the shift drops the magic's own bits and leaves `n` in the
    // exponent field, the add applies the bias.
    let s = f32::from_bits((t.to_bits() << 23).wrapping_add(0x3f80_0000));
    let sp = s * p;
    let magnitude = ((1.0 - s) - sp) / ((1.0 + s) + sp);
    // The quotient is never negative (`p ≤ 0` when `s = 1`), so OR-ing the
    // argument's sign in is `copysign`.
    f32::from_bits(magnitude.to_bits() | (x.to_bits() & 0x8000_0000))
}

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_CUBIC: f32 = 0.044715;

/// GELU activation (tanh approximation, as used by GPT-style pretrained
/// models): `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
#[inline(always)]
pub(crate) fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh(SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x)))
}

/// Derivative of [`gelu_scalar`] with respect to its input.
#[inline(always)]
pub(crate) fn gelu_grad_scalar(x: f32) -> f32 {
    let x3 = x * x * x;
    let inner = SQRT_2_OVER_PI * (x + GELU_CUBIC * x3);
    let t = tanh(inner);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_CUBIC * x * x)
}

lanes_fn! {
    /// [`gelu_scalar`] over a slice, in place, on the calling thread.
    pub(crate) fn gelu_slice(xs: &mut [f32]) {
        for x in xs {
            *x = gelu_scalar(*x);
        }
    }
}

lanes_fn! {
    /// `dx[i] = dy[i] · gelu'(h[i])` on the calling thread; `h` is the
    /// forward input. All three slices have the same length.
    pub(crate) fn gelu_backward_slice(dy: &[f32], h: &[f32], dx: &mut [f32]) {
        assert!(dy.len() == dx.len() && h.len() == dx.len());
        for ((g, &d), &x) in dx.iter_mut().zip(dy).zip(h) {
            *g = d * gelu_grad_scalar(x);
        }
    }
}

/// The time one kernel call spends inside the GELU slice kernels, for
/// `compute.gelu.ns`: summed over the lanes that ran them, standalone pass
/// and fused epilogue alike, so `ns ÷ elems` is the cost of one element at
/// any intra-op width. Lane time, not the caller's wall time, because a
/// fused epilogue is interleaved with its GEMM on every lane and has no
/// wall time of its own. Chunks run on pool workers, which hold no trace
/// lane, so the calling thread records the sum once the call is done.
/// Inert (no clock reads) unless that thread is tracing.
pub(crate) struct GeluClock(Option<AtomicU64>);

impl GeluClock {
    /// A running clock if `gelu` and the calling thread is tracing.
    pub(crate) fn start(gelu: bool) -> Self {
        Self((gelu && trace::enabled()).then(AtomicU64::default))
    }

    #[inline]
    pub(crate) fn time(&self, f: impl FnOnce()) {
        match &self.0 {
            None => f(),
            Some(ns) => {
                let t0 = Instant::now();
                f();
                ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
    }

    /// Record the call: its lane time and the `elems` it covered.
    pub(crate) fn record(self, elems: usize) {
        if let Some(ns) = self.0 {
            trace::count(names::COMPUTE_GELU_NS, ns.into_inner());
            trace::count(names::COMPUTE_GELU_ELEMS, elems as u64);
        }
    }
}

/// Elements per claimed chunk of a fanned-out GELU pass.
fn gelu_task_len() -> usize {
    par::rows_per_task(work::EXP_ELEM)
}

/// Element-wise GELU in place, recording `compute.gelu.{elems,ns}`.
pub(crate) fn gelu_inplace(x: &mut Tensor) {
    let elems = x.len();
    let (lanes, clock) = (Lanes::host(), GeluClock::start(true));
    par::for_each_chunk(
        x.as_mut_slice(),
        gelu_task_len(),
        work::EXP_ELEM * elems as u64,
        |_, chunk| clock.time(|| gelu_slice(lanes, chunk)),
    );
    clock.record(elems);
}

/// Element-wise GELU.
pub fn gelu(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    gelu_inplace(&mut out);
    out
}

/// Backward of GELU: `dX = dY ⊙ gelu'(X)` where `X` is the forward input.
/// Counted under `compute.gelu.*` with the forward pass.
pub fn gelu_backward(dy: &Tensor, x: &Tensor) -> Tensor {
    assert_eq!(dy.shape(), x.shape());
    let mut dx = Tensor::zeros(x.shape());
    let elems = x.len();
    let len = gelu_task_len();
    let (dys, xs) = (dy.as_slice(), x.as_slice());
    let (lanes, clock) = (Lanes::host(), GeluClock::start(true));
    par::for_each_chunk(
        dx.as_mut_slice(),
        len,
        work::EXP_ELEM * elems as u64,
        |i, chunk| {
            let at = i * len..i * len + chunk.len();
            clock.time(|| gelu_backward_slice(lanes, &dys[at.clone()], &xs[at], chunk))
        },
    );
    clock.record(elems);
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The libm form this module replaced: the oracle for the GELU tests.
    fn gelu_libm(x: f32) -> f32 {
        0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x)).tanh())
    }

    /// Derivative of [`gelu_libm`].
    fn gelu_grad_libm(x: f32) -> f32 {
        let t = (SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x)).tanh();
        0.5 * (1.0 + t)
            + 0.5 * x * (1.0 - t * t) * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_CUBIC * x * x)
    }

    /// Distance of `got` from the exact `want`, in units of the last place
    /// of `want` rounded to `f32`.
    fn ulps(got: f32, want: f64) -> f64 {
        let w = (want.abs() as f32).max(f32::MIN_POSITIVE);
        let exp = (w.to_bits() >> 23) as i32 - 127;
        (got as f64 - want).abs() / 2f64.powi(exp - 23)
    }

    fn assert_tanh_close(x: f32) {
        let want = (x as f64).tanh();
        let got = tanh(x);
        assert!(
            ulps(got, want) <= 4.0 && (got as f64 - want).abs() <= 2e-7,
            "tanh({x:e}) = {got:e}, exact {want:e}"
        );
        assert_eq!(
            tanh(-x).to_bits(),
            (-got).to_bits(),
            "odd symmetry at {x:e}"
        );
    }

    #[test]
    fn tanh_tracks_the_f64_oracle_over_a_strided_sweep_of_all_f32() {
        // Every 97th bit pattern from +0 through +∞; the negative half is
        // the symmetry assertion.
        for bits in (0..=f32::INFINITY.to_bits()).step_by(97) {
            assert_tanh_close(f32::from_bits(bits));
        }
    }

    #[test]
    fn tanh_holds_at_every_boundary_of_the_reduction_and_the_clamp() {
        let around = |x: f32| {
            let bits = x.to_bits();
            (bits - 64..=bits + 64).map(f32::from_bits)
        };
        // `n` steps where `2|x| · log2(e)` crosses a half-integer.
        for k in 0..30 {
            let edge = (k as f64 + 0.5) * std::f64::consts::LN_2 / 2.0;
            around(edge as f32).for_each(assert_tanh_close);
        }
        around(TANH_CLAMP / 2.0).for_each(assert_tanh_close);
        // Where the result first rounds to 1.0.
        around(9.010_913).for_each(assert_tanh_close);
    }

    #[test]
    fn tanh_special_values() {
        assert!(tanh(f32::NAN).is_nan());
        assert!(tanh(-f32::NAN).is_nan());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(f32::MAX), 1.0);
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        for bits in [1u32, 2, 0x0040_0000, 0x007f_ffff] {
            let sub = f32::from_bits(bits);
            assert_eq!(tanh(sub).to_bits(), bits, "subnormal {sub:e}");
            assert_eq!(tanh(-sub).to_bits(), (-sub).to_bits());
        }
    }

    #[test]
    fn gelu_and_its_gradient_track_the_libm_form() {
        // 1e-6 everywhere forward (measured against glibc 2.36: 4.8e-7 at
        // 4.004) and on `|x| ≤ 3` in the derivative (3.6e-7 at 2.643). In
        // the saturated tail the derivative multiplies `1 − tanh²` by
        // `|x|/2·√(2/π)·(1 + 0.134·x²)` ≈ 9 at `|x| = 5`, where the two forms
        // may round `tanh` to neighbouring values next to ±1: no `f32`
        // form is within 1e-6 of the exact derivative there, and the bound
        // is 4e-6 (measured 1.9e-6 at −4.929).
        for i in -12_000..=12_000 {
            let x = i as f32 * 1e-3;
            let (g, gl) = (gelu_scalar(x), gelu_libm(x));
            assert!((g - gl).abs() <= 1e-6, "gelu({x}) = {g}, libm {gl}");
            let (d, dl) = (gelu_grad_scalar(x), gelu_grad_libm(x));
            let tol = if x.abs() <= 3.0 { 1e-6 } else { 4e-6 };
            assert!((d - dl).abs() <= tol, "gelu'({x}) = {d}, libm {dl}");
        }
    }

    #[test]
    fn gelu_known_points() {
        assert_eq!(gelu_scalar(0.0), 0.0);
        // GELU(x) → x for large positive x, → 0 for large negative x.
        assert!((gelu_scalar(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu_scalar(-10.0).abs() < 1e-4);
        // Tabulated value: gelu(1.0) ≈ 0.8412 (tanh approximation).
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
        // GELU is slightly negative around x ≈ -0.75.
        assert!(gelu_scalar(-0.75) < 0.0);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        let eps = 1e-3f32;
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.5, 2.0, 4.0] {
            let fd = (gelu_scalar(x + eps) - gelu_scalar(x - eps)) / (2.0 * eps);
            let an = gelu_grad_scalar(x);
            assert!((fd - an).abs() < 2e-3, "x={x}: fd={fd} an={an}");
        }
    }

    /// Values that cover both tails, the clamp, zero and a NaN.
    fn probe_values(len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| match i % 23 {
                0 => 0.0,
                1 => f32::NAN,
                2 => -30.0,
                _ => ((i * 37 % 101) as f32 - 50.0) * 0.173,
            })
            .collect()
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            // A NaN's payload is not part of the contract.
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i}: {g:e} vs {w:e}"
            );
        }
    }

    /// The portable tier, and the wide one where this host has it.
    fn tiers() -> Vec<Lanes> {
        let host = Lanes::host();
        if host.is_wide() {
            vec![Lanes::PORTABLE, host]
        } else {
            vec![Lanes::PORTABLE]
        }
    }

    #[test]
    fn slice_kernels_equal_the_scalar_functions_at_every_length_and_offset() {
        // Vector body, scalar tail and unaligned starts of the compiled
        // loops, on both tiers, against the scalar functions, element by
        // element.
        let base = probe_values(80);
        let dy: Vec<f32> = (0..80).map(|i| 0.25 * i as f32 - 7.0).collect();
        for lanes in tiers() {
            for off in 0..=7 {
                for len in 0..=67 {
                    let h = &base[off..off + len];
                    let mut fwd = h.to_vec();
                    gelu_slice(lanes, &mut fwd);
                    let want: Vec<f32> = h.iter().map(|&x| gelu_scalar(x)).collect();
                    assert_same_bits(&fwd, &want, &format!("gelu_slice {lanes:?}"));

                    let d = &dy[off..off + len];
                    let mut dx = vec![0.0; len];
                    gelu_backward_slice(lanes, d, h, &mut dx);
                    let want: Vec<f32> = d
                        .iter()
                        .zip(h)
                        .map(|(&d, &x)| d * gelu_grad_scalar(x))
                        .collect();
                    assert_same_bits(&dx, &want, &format!("gelu_backward_slice {lanes:?}"));
                }
            }
        }
    }

    /// GELU and GELU′ on both tiers over the bit patterns `start, start +
    /// stride, …`, in blocks, `to_bits()` equal (NaN payloads included: both
    /// tiers run the same operations on the same lanes).
    fn sweep_wide_against_portable(start: u32, stride: usize) {
        let wide = Lanes::host();
        if !wide.is_wide() {
            return;
        }
        const BLOCK: usize = 1 << 16;
        let dy = vec![1.5f32; BLOCK];
        let (mut h, mut fwd, mut want) = (Vec::new(), Vec::new(), Vec::new());
        let (mut dx, mut dx_want) = (vec![0.0f32; BLOCK], vec![0.0f32; BLOCK]);
        let mut bits = (start as u64..=u32::MAX as u64).step_by(stride);
        loop {
            h.clear();
            h.extend(bits.by_ref().take(BLOCK).map(|b| f32::from_bits(b as u32)));
            if h.is_empty() {
                break;
            }
            let n = h.len();
            fwd.clone_from(&h);
            want.clone_from(&h);
            gelu_slice(wide, &mut fwd);
            gelu_slice(Lanes::PORTABLE, &mut want);
            gelu_backward_slice(wide, &dy[..n], &h, &mut dx[..n]);
            gelu_backward_slice(Lanes::PORTABLE, &dy[..n], &h, &mut dx_want[..n]);
            for i in 0..n {
                assert_eq!(fwd[i].to_bits(), want[i].to_bits(), "gelu({:e})", h[i]);
                assert_eq!(dx[i].to_bits(), dx_want[i].to_bits(), "gelu'({:e})", h[i]);
            }
        }
    }

    #[test]
    fn wide_gelu_has_the_portable_bits_over_a_strided_sweep_of_all_f32() {
        // Every 4099th pattern (a prime stride: every residue of the
        // vector lanes and of both signs is visited).
        sweep_wide_against_portable(0, 4099);
    }

    /// Every one of the 2³² f32 inputs: ≈ 80 s in a release build,
    /// far longer in a debug one, so it runs on request
    /// (`cargo test --release -p bagualu-tensor gelu_every -- --ignored`).
    #[test]
    #[ignore = "all 2^32 inputs; run in a release build"]
    fn gelu_every_f32_input_wide_equals_portable() {
        sweep_wide_against_portable(0, 1);
    }

    #[test]
    fn tensor_kernels_are_identical_at_every_width_across_the_cutoff() {
        let cutoff = (par::MIN_WORK / work::EXP_ELEM) as usize;
        for len in [cutoff - 1, cutoff, cutoff + gelu_task_len() + 3] {
            let x = Tensor::from_vec(probe_values(len), &[len]);
            let dy = Tensor::from_vec((0..len).map(|i| (i % 13) as f32 - 6.0).collect(), &[len]);
            let want_fwd: Vec<f32> = x.as_slice().iter().map(|&v| gelu_scalar(v)).collect();
            let want_bwd: Vec<f32> = dy
                .as_slice()
                .iter()
                .zip(x.as_slice())
                .map(|(&d, &v)| d * gelu_grad_scalar(v))
                .collect();
            for width in [1, 2, 3, par::available_cores()] {
                let _w = par::scoped_width(width);
                assert_same_bits(gelu(&x).as_slice(), &want_fwd, "gelu");
                assert_same_bits(
                    gelu_backward(&dy, &x).as_slice(),
                    &want_bwd,
                    "gelu_backward",
                );
                crate::lanes::portable(|| {
                    assert_same_bits(gelu(&x).as_slice(), &want_fwd, "portable gelu");
                    assert_same_bits(
                        gelu_backward(&dy, &x).as_slice(),
                        &want_bwd,
                        "portable gelu_backward",
                    );
                });
            }
        }
    }

    #[test]
    fn activations_do_not_swallow_nan() {
        let x = Tensor::from_vec(vec![f32::NAN, -1.0, 1.0], &[3]);
        let dy = Tensor::ones(&[3]);
        let (fwd, bwd) = (gelu(&x), gelu_backward(&dy, &x));
        assert!(fwd.as_slice()[0].is_nan(), "gelu forward");
        assert!(bwd.as_slice()[0].is_nan(), "gelu backward");
        assert!(!fwd.as_slice()[1].is_nan() && !bwd.as_slice()[2].is_nan());
    }

    #[test]
    fn gelu_backward_shapes_and_values() {
        let x = Tensor::from_vec(vec![0.0, 1.0], &[2]);
        let dy = Tensor::from_vec(vec![2.0, 3.0], &[2]);
        let dx = gelu_backward(&dy, &x);
        assert!((dx.as_slice()[0] - 2.0 * gelu_grad_scalar(0.0)).abs() < 1e-6);
        assert!((dx.as_slice()[1] - 3.0 * gelu_grad_scalar(1.0)).abs() < 1e-6);
    }
}
