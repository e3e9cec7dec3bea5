//! The two widths every hot loop of this crate is compiled at, and the one
//! place that picks between them.
//!
//! The build target is the x86-64 baseline, so a loop the auto-vectorizer
//! lowers on its own runs at SSE2 width: four `f32` lanes. A host with
//! AVX-512F has sixteen. [`lanes_fn!`] compiles a kernel body twice — once
//! at the baseline (the **portable** tier) and once with AVX-512F enabled
//! (the **wide** tier) — and [`Lanes::host`] picks the wide one, once per
//! kernel call, where the CPU has the feature. A host without it runs the
//! portable body, which is the code the baseline build always ran.
//!
//! Both tiers give the same bits, by construction rather than by testing
//! alone. Every kernel compiled this way maps each output element to its
//! own lane: a GEMM element still sums its products in ascending `k` from
//! `+0.0`, one IEEE multiply and one IEEE add per product, and the row
//! kernels (GELU, Box–Muller, the f16/bf16 conversions) use only `+ − × ÷`,
//! square root, compares, selects and integer bit operations — each
//! correctly rounded, or exact, at any vector width. Rust never contracts a
//! multiply and an add into a fused multiply-add, so enabling AVX-512F (which
//! implies FMA) changes the instructions, not the arithmetic. Lane width
//! decides how many elements one instruction covers, never what any one of
//! them computes. The tests compare both tiers `to_bits()` on the same
//! inputs, and CI sweeps GELU over all 2³² inputs.
//!
//! [`portable`] holds the calling thread to the portable tier, so tests and
//! the E26 benchmark can run both bodies of a kernel on one host.

use std::cell::Cell;

thread_local! {
    /// Set inside [`portable`].
    static PORTABLE: Cell<bool> = const { Cell::new(false) };
}

/// Whether this host has AVX-512F: the wide tier and the 64-wide GEMM
/// micro-kernel run. Benchmarks use this to decide which performance floor
/// to hold a kernel to — results are bit-identical on both tiers, only the
/// throughput differs. `std` caches the CPUID probe behind an atomic.
#[inline]
pub fn wide_kernel_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Run `f` with every kernel it calls on this thread held to the portable
/// tier, as on a host without AVX-512F. Kernels fanned out over the intra-op
/// lanes follow the calling thread: the tier is picked once per call,
/// before any chunk is handed out. Scopes nest; the tier on entry comes
/// back, also when `f` panics.
pub fn portable<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            PORTABLE.set(self.0);
        }
    }
    let _restore = Restore(PORTABLE.replace(true));
    f()
}

/// The tier one kernel call runs at. Only [`Lanes::host`] makes a wide
/// value, and only where the CPU has AVX-512F: that is the whole safety
/// argument of [`lanes_fn!`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lanes {
    wide: bool,
}

impl Lanes {
    /// The portable tier: the body compiled at the target's baseline.
    #[cfg(test)]
    pub(crate) const PORTABLE: Lanes = Lanes { wide: false };

    /// The widest tier this host runs, unless the calling thread is inside
    /// [`portable`]. Checked once per kernel call.
    #[inline]
    pub(crate) fn host() -> Lanes {
        Lanes {
            wide: !PORTABLE.get() && wide_kernel_available(),
        }
    }

    /// Whether this is the wide tier — and so whether the CPU has AVX-512F.
    #[inline]
    pub(crate) fn is_wide(self) -> bool {
        self.wide
    }
}

/// Define `fn name(lanes: Lanes, args…)`: one body, compiled at the
/// target's baseline and, on x86-64, again with AVX-512F enabled, run at
/// the tier `lanes` names. The body is an `#[inline(always)]` function, so
/// it is compiled into each of the two entry points with that entry point's
/// features; what the body calls is compiled with them too where it is
/// inlined, which is why the helpers of these kernels are
/// `#[inline(always)]`.
macro_rules! lanes_fn {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block
    ) => {
        $(#[$attr])*
        $vis fn $name(lanes: $crate::lanes::Lanes, $($arg: $ty),*) {
            #[inline(always)]
            fn body($($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            fn wide($($arg: $ty),*) {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            if lanes.is_wide() {
                debug_assert!($crate::lanes::wide_kernel_available());
                // SAFETY: the one precondition of a `target_feature`
                // function is the CPU feature, and a wide `Lanes` exists
                // only where `wide_kernel_available()` saw AVX-512F (its
                // field is private to `lanes`). The body is safe Rust.
                return unsafe { wide($($arg),*) };
            }
            let _ = lanes;
            body($($arg),*)
        }
    };
}
pub(crate) use lanes_fn;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_scopes_nest_and_restore() {
        let host = wide_kernel_available();
        assert_eq!(Lanes::host().is_wide(), host);
        portable(|| {
            assert!(!Lanes::host().is_wide());
            portable(|| assert!(!Lanes::host().is_wide()));
            assert!(!Lanes::host().is_wide());
        });
        assert_eq!(Lanes::host().is_wide(), host);
        let caught = std::panic::catch_unwind(|| portable(|| panic!("inside")));
        assert!(caught.is_err());
        assert_eq!(Lanes::host().is_wide(), host, "restored after a panic");
        assert!(!Lanes::PORTABLE.is_wide());
    }
}
