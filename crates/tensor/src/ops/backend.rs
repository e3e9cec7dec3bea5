//! The pluggable GEMM seam: [`MatmulBackend`] and the backend registry.
//!
//! Every GEMM in the workspace goes through the free functions in
//! [`mod@crate::ops::matmul`], which resolve a backend *at call time*:
//!
//! 1. the calling thread's installed backend, if any ([`install_backend`] —
//!    the trainer installs one per rank thread so concurrent runs with
//!    different backends never interfere),
//! 2. else the process default ([`set_process_backend`] — what the CLI
//!    arms once at startup),
//! 3. else [`Reference`](crate::ops::matmul::Reference).
//!
//! Model code never names a concrete backend; swapping in SIMD intrinsics
//! or an accelerator later means implementing this trait, nothing else.
//!
//! # Contract
//!
//! All backends must agree with the naive triple loop within their
//! documented tolerance:
//!
//! * `Reference` and `Tiled` are **bit-identical** to each other on every
//!   shape, under one rule for every layout (NN, NT, TN): each output
//!   element starts at `+0.0` and sums its products in strictly increasing
//!   reduction index. NT is therefore NN on `Bᵀ` bit for bit, and TN is NN
//!   on `Aᵀ`. Tiling changes *which* element is computed when, never the
//!   order of additions *within* an element.
//! * `HalfCompute` rounds both operands through its 16-bit format before
//!   multiplying and accumulates in `f32`; it is bit-identical to `Tiled`
//!   run on pre-quantized operands (half×half products are exact in `f32`).
//! * [`MatmulBackend::matmul_packed`] over a [`PackedB`] gives the bits
//!   `matmul_bias_act` gives over the weight the panels were packed from,
//!   on every backend.

use crate::dtype::DType;
use crate::lanes::Lanes;
use crate::ops::elementwise::{gelu_inplace, gelu_slice};
use crate::ops::tiled::PackedB;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock, RwLock};

/// Epilogue activation fused into [`MatmulBackend::matmul_bias_act`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// No activation: the epilogue is just the bias broadcast (or nothing).
    #[default]
    Identity,
    /// GELU (tanh approximation) — the FFN/expert activation.
    Gelu,
}

impl Activation {
    /// Apply to a slice in place on the calling thread, at the tier `lanes`
    /// names: what a tiled GEMM's epilogue runs on each output row. The same
    /// scalar functions as the standalone element-wise kernels, so a fused
    /// epilogue is bit-identical to `matmul` + `add_row_broadcast` + `gelu`.
    pub(crate) fn apply_slice(self, lanes: Lanes, xs: &mut [f32]) {
        match self {
            Activation::Identity => {}
            Activation::Gelu => gelu_slice(lanes, xs),
        }
    }

    /// Apply element-wise in place. GELU fans out over the intra-op lanes
    /// above the work cutoff and is counted under `compute.gelu.*`, like
    /// the standalone [`gelu`](crate::ops::elementwise::gelu).
    pub fn apply(self, t: &mut Tensor) {
        match self {
            Activation::Identity => {}
            Activation::Gelu => gelu_inplace(t),
        }
    }
}

/// A GEMM implementation covering the three layouts training needs plus a
/// fused bias+activation epilogue.
///
/// Implementations must be `Send + Sync`: one instance may be shared by
/// every rank thread of a trainer.
pub trait MatmulBackend: fmt::Debug + Send + Sync {
    /// Short stable identifier (used in reports, benches, and traces).
    fn name(&self) -> &'static str;

    /// Format operands are rounded through before multiplication.
    /// [`DType::F32`] means full-precision compute; accumulation is always
    /// `f32` regardless.
    fn compute_dtype(&self) -> DType {
        DType::F32
    }

    /// `C[m,n] = A[m,k] · B[k,n]`.
    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor;

    /// `C[m,n] = A[m,k] · B[n,k]ᵀ`.
    fn matmul_nt(&self, a: &Tensor, b: &Tensor) -> Tensor;

    /// `C[k,n] = A[m,k]ᵀ · B[m,n]`.
    fn matmul_tn(&self, a: &Tensor, b: &Tensor) -> Tensor;

    /// `C = act(A·B + bias)` with `bias` broadcast over rows.
    ///
    /// The provided default composes the unfused steps — exactly the
    /// historical `matmul` → `add_row_broadcast` → activation sequence, so
    /// any backend whose `matmul` is bit-identical to [`Reference`]'s stays
    /// bit-identical here too. Backends with their own tiling override this
    /// to apply the epilogue while the output tile is still cache-resident.
    ///
    /// The bias (when present) and the activation are always applied in
    /// `f32`, even under a half-precision compute dtype: epilogues run at
    /// accumulator precision, as on real mixed-precision hardware.
    ///
    /// [`Reference`]: crate::ops::matmul::Reference
    fn matmul_bias_act(
        &self,
        a: &Tensor,
        b: &Tensor,
        bias: Option<&[f32]>,
        act: Activation,
    ) -> Tensor {
        let mut c = self.matmul(a, b);
        if let Some(bias) = bias {
            c.add_row_broadcast(bias);
        }
        act.apply(&mut c);
        c
    }

    /// [`matmul_bias_act`](Self::matmul_bias_act) against a weight packed
    /// once ([`PackedB::new`]) — the GEMM of a layer frozen for inference.
    /// It never packs.
    ///
    /// The provided default runs the exact tiled micro-kernels over the
    /// panels, which are bit-identical to [`Reference`] on the weight the
    /// panels were packed from — so it is the answer of every exact tier.
    /// Tiers that round differently override it.
    ///
    /// [`Reference`]: crate::ops::matmul::Reference
    fn matmul_packed(
        &self,
        a: &Tensor,
        w: &PackedB,
        bias: Option<&[f32]>,
        act: Activation,
    ) -> Tensor {
        crate::ops::tiled::tiled_nn_packed(a, w, bias, act, false)
    }
}

fn process_slot() -> &'static RwLock<Arc<dyn MatmulBackend>> {
    static SLOT: OnceLock<RwLock<Arc<dyn MatmulBackend>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(Arc::new(crate::ops::matmul::Reference)))
}

thread_local! {
    /// Stack of thread-scoped backend overrides (a stack so scopes nest).
    static THREAD_BACKEND: RefCell<Vec<Arc<dyn MatmulBackend>>> = const { RefCell::new(Vec::new()) };
}

/// Swap the process-default backend; returns the previous one. Affects every
/// thread that has no [`install_backend`] override.
pub fn set_process_backend(backend: Arc<dyn MatmulBackend>) -> Arc<dyn MatmulBackend> {
    std::mem::replace(&mut *process_slot().write().unwrap(), backend)
}

/// The current process-default backend.
pub fn process_backend() -> Arc<dyn MatmulBackend> {
    Arc::clone(&process_slot().read().unwrap())
}

/// Install `backend` for the *calling thread* until the returned guard
/// drops. Nested installs shadow outer ones. The trainer installs each
/// rank's configured backend this way, so two trainers with different
/// compute configurations can run concurrently in one process (as the test
/// suite does) without racing on the process default.
#[must_use = "the override lasts only while the guard is alive"]
pub fn install_backend(backend: Arc<dyn MatmulBackend>) -> BackendGuard {
    THREAD_BACKEND.with(|s| s.borrow_mut().push(backend));
    BackendGuard { _private: () }
}

/// RAII guard for [`install_backend`]; pops the override on drop.
#[derive(Debug)]
pub struct BackendGuard {
    _private: (),
}

impl Drop for BackendGuard {
    fn drop(&mut self) {
        THREAD_BACKEND.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Resolve the backend the calling thread should use right now: innermost
/// thread override, else the process default.
pub fn current_backend() -> Arc<dyn MatmulBackend> {
    THREAD_BACKEND
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(process_backend)
}

/// Copyable *name* of a backend configuration — what rides inside
/// `TrainConfig`/`TrainReport` and parses from `--compute-backend` /
/// `--compute-dtype`. [`ComputeBackend::instantiate`] turns it into the
/// actual trait object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComputeBackend {
    /// The original rayon blocked kernels — the correctness oracle.
    #[default]
    Reference,
    /// Cache-tiled, packed-panel, register-blocked kernels. Bit-identical
    /// to `Reference` on every f32 input, just faster.
    Tiled,
    /// The tiled kernels with fused multiply-add in the wide micro-kernels.
    /// **Not** bit-identical to `Reference` — results sit in a documented
    /// tolerance band — so any run whose tests or tooling assert bit-pinned
    /// curves must not use it (see [`ComputeBackend::bit_identical`]).
    TiledFma,
    /// Tiled kernels over operands stored and multiplied in a 16-bit
    /// format, accumulating in `f32`. The dtype must be [`DType::F16`] or
    /// [`DType::BF16`].
    Half(DType),
}

impl ComputeBackend {
    /// Reject configurations that name no real kernel.
    pub fn validate(self) -> Result<(), String> {
        match self {
            ComputeBackend::Half(DType::F32) => {
                Err("half compute needs a 16-bit dtype (fp16 or bf16)".into())
            }
            _ => Ok(()),
        }
    }

    /// Whether this backend reproduces its tier's pinned bits exactly.
    ///
    /// `Reference` and `Tiled` are bit-identical to each other;
    /// `Half` is bit-pinned within its own dtype tier (deterministic and
    /// reproducible run to run). `TiledFma` is the one tier that trades
    /// bit-identity for speed, so workflows that compare loss curves or
    /// checkpoints bit-for-bit (elastic re-shard pins, resume pins) must
    /// reject it — the CLI does.
    pub fn bit_identical(self) -> bool {
        !matches!(self, ComputeBackend::TiledFma)
    }

    /// Build the backend this configuration names.
    ///
    /// # Panics
    /// Panics when [`ComputeBackend::validate`] would fail.
    pub fn instantiate(self) -> Arc<dyn MatmulBackend> {
        self.validate().expect("invalid compute backend");
        match self {
            ComputeBackend::Reference => Arc::new(crate::ops::matmul::Reference),
            ComputeBackend::Tiled => Arc::new(crate::ops::tiled::Tiled),
            ComputeBackend::TiledFma => Arc::new(crate::ops::tiled::TiledFma),
            ComputeBackend::Half(dt) => Arc::new(crate::ops::half_compute::HalfCompute::new(dt)),
        }
    }

    /// Build the row-op backend ([`RowOpsBackend`]) that pairs with this
    /// GEMM configuration: the reference tier for `Reference` (the oracle
    /// stays the oracle end to end), the vectorized tier — bit-identical to
    /// reference, just parallel/fused — for every faster GEMM tier.
    ///
    /// [`RowOpsBackend`]: crate::ops::rowops::RowOpsBackend
    pub fn instantiate_row_ops(self) -> Arc<dyn crate::ops::rowops::RowOpsBackend> {
        match self {
            ComputeBackend::Reference => Arc::new(crate::ops::rowops::ReferenceRowOps),
            _ => Arc::new(crate::ops::rowops::VectorizedRowOps),
        }
    }
}

impl fmt::Display for ComputeBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputeBackend::Reference => write!(f, "reference"),
            ComputeBackend::Tiled => write!(f, "tiled"),
            ComputeBackend::TiledFma => write!(f, "tiled:fma"),
            ComputeBackend::Half(dt) => write!(f, "half:{dt}"),
        }
    }
}

impl FromStr for ComputeBackend {
    type Err = String;

    /// `reference | tiled | tiled:fma | half[:fp16|:bf16]` (bare `half`
    /// means bf16, the format that keeps f32's exponent range). `f16` is
    /// accepted as an alias for `fp16`, and `fma` for `tiled:fma`.
    fn from_str(s: &str) -> Result<ComputeBackend, String> {
        match s {
            "reference" | "ref" => Ok(ComputeBackend::Reference),
            "tiled" => Ok(ComputeBackend::Tiled),
            "tiled:fma" | "fma" => Ok(ComputeBackend::TiledFma),
            "half" | "half:bf16" => Ok(ComputeBackend::Half(DType::BF16)),
            "half:fp16" | "half:f16" => Ok(ComputeBackend::Half(DType::F16)),
            other => Err(format!(
                "unknown compute backend: {other} \
                 (want reference | tiled | tiled:fma | half[:fp16|:bf16])"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_backend_round_trips_through_strings() {
        for cb in [
            ComputeBackend::Reference,
            ComputeBackend::Tiled,
            ComputeBackend::TiledFma,
            ComputeBackend::Half(DType::F16),
            ComputeBackend::Half(DType::BF16),
        ] {
            let s = cb.to_string();
            assert_eq!(s.parse::<ComputeBackend>().unwrap(), cb, "{s}");
        }
        assert_eq!(
            "half".parse::<ComputeBackend>().unwrap(),
            ComputeBackend::Half(DType::BF16)
        );
        assert!("gpu".parse::<ComputeBackend>().is_err());
    }

    #[test]
    fn half_f32_is_rejected() {
        assert!(ComputeBackend::Half(DType::F32).validate().is_err());
        assert!(ComputeBackend::Tiled.validate().is_ok());
        assert!(ComputeBackend::TiledFma.validate().is_ok());
    }

    #[test]
    fn only_fma_gives_up_bit_identity() {
        assert!(ComputeBackend::Reference.bit_identical());
        assert!(ComputeBackend::Tiled.bit_identical());
        assert!(ComputeBackend::Half(DType::BF16).bit_identical());
        assert!(!ComputeBackend::TiledFma.bit_identical());
    }

    #[test]
    fn fma_alias_parses() {
        assert_eq!(
            "fma".parse::<ComputeBackend>().unwrap(),
            ComputeBackend::TiledFma
        );
    }

    #[test]
    fn row_ops_tier_follows_the_gemm_tier() {
        assert_eq!(
            ComputeBackend::Reference.instantiate_row_ops().name(),
            "reference"
        );
        for cb in [
            ComputeBackend::Tiled,
            ComputeBackend::TiledFma,
            ComputeBackend::Half(DType::BF16),
        ] {
            assert_eq!(cb.instantiate_row_ops().name(), "vectorized");
        }
    }

    #[test]
    fn thread_override_shadows_process_default_and_nests() {
        // The process default is shared test-wide; only read it.
        let base = current_backend().name();
        {
            let _g = install_backend(ComputeBackend::Tiled.instantiate());
            assert_eq!(current_backend().name(), "tiled");
            {
                let _g2 = install_backend(ComputeBackend::Reference.instantiate());
                assert_eq!(current_backend().name(), "reference");
            }
            assert_eq!(current_backend().name(), "tiled");
        }
        assert_eq!(current_backend().name(), base);
    }

    #[test]
    fn overrides_are_per_thread() {
        let _g = install_backend(ComputeBackend::Tiled.instantiate());
        let other = std::thread::spawn(|| current_backend().name())
            .join()
            .unwrap();
        // A fresh thread sees the process default, not this thread's guard.
        assert_eq!(other, process_backend().name());
    }

    #[test]
    fn fused_epilogue_default_matches_unfused_sequence() {
        use crate::rng::Rng;
        let mut rng = Rng::seed_from(7);
        let a = Tensor::randn(&[5, 4], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let bias = [0.5f32, -1.0, 2.0];
        let backend = crate::ops::matmul::Reference;
        let fused = backend.matmul_bias_act(&a, &b, Some(&bias), Activation::Gelu);
        let mut manual = backend.matmul(&a, &b);
        manual.add_row_broadcast(&bias);
        let manual = crate::ops::elementwise::gelu(&manual);
        for (x, y) in fused.as_slice().iter().zip(manual.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
