//! Compute kernels over [`crate::Tensor`].
//!
//! These are the substitute for the hand-written SW26010-Pro CPE kernels:
//! blocked for cache locality and fanned out over the calling thread's
//! intra-op lanes (see [`crate::par`]), per the project's HPC coding guides.
//!
//! Matrix multiplication is pluggable: the free functions in [`mod@matmul`]
//! dispatch to the calling thread's [`MatmulBackend`] (see `backend`),
//! one of [`matmul::Reference`] (the oracle), `tiled::Tiled`
//! (packed/cache-tiled, bit-identical to the oracle on f32),
//! `tiled::TiledFma` (fused multiply-add, tolerance-banded), or
//! `half_compute::HalfCompute` (native f16/bf16 storage-and-compute with
//! f32 accumulation). The row-structured kernels — softmax, layer-norm
//! forward, the Adam update — dispatch the same way through
//! [`rowops::RowOpsBackend`], whose two tiers (reference / vectorized) are
//! bit-identical to each other. GELU has one form on every backend: the
//! in-crate branch-free `tanh` of `elementwise`.

pub(crate) mod attention;
pub(crate) mod backend;
pub(crate) mod elementwise;
pub(crate) mod half_compute;
pub mod matmul;
pub(crate) mod rowops;
pub(crate) mod softmax;
pub(crate) mod tiled;

pub use crate::lanes::{portable, wide_kernel_available};
pub use crate::math::ln;
pub use attention::{causal_attention, causal_attention_backward};
pub use backend::{
    install_backend, set_process_backend, Activation, BackendGuard, ComputeBackend, MatmulBackend,
};
pub use elementwise::{gelu, gelu_backward};
pub use matmul::{matmul, matmul_bias_act, matmul_nt, matmul_packed, matmul_tn, Reference};
pub use rowops::{
    adam_update, install_row_ops, layernorm_rows, AdamStep, LayerNormOut, ReferenceRowOps,
    RowOpsBackend, RowOpsGuard, VectorizedRowOps,
};
pub use softmax::{softmax_row, softmax_rows_inplace};
pub use tiled::PackedB;
