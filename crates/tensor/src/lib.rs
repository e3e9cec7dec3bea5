//! Dense tensor kernels for the BaGuaLu reproduction.
//!
//! This crate is the compute substrate that stands in for the hand-tuned
//! SW26010-Pro CPE kernels (SWDNN) used by the original system. It provides:
//!
//! * [`Tensor`] — an owned, contiguous, row-major `f32` tensor with the small
//!   set of shapes deep-learning training needs (vectors, matrices, batched
//!   matrices),
//! * blocked matrix multiplication in the `NN`/`NT`/`TN` layouts used by
//!   forward and backward passes, fanned out over the calling thread's
//!   intra-op lanes (see [`par`]),
//! * fused element-wise and reduction kernels (GELU, softmax, layer-norm
//!   statistics, …),
//! * one process-wide recycling [`reservoir`] under every large buffer, so a
//!   steady-state step allocates nothing from the kernel,
//! * bit-exact software [`F16`] and [`BF16`] types so
//!   that mixed-precision *numerics* (rounding, underflow, loss-scale
//!   dynamics) can be reproduced without half-precision hardware.
//!
//! Master storage is always `f32`; half precision is modelled by *round-trip
//! quantization* (`f32 → half → f32`) applied at the points where the real
//! system would store or communicate half-precision values. This keeps the
//! kernels simple while making the numerics faithful.

pub(crate) mod dtype;
pub(crate) mod lanes;
pub(crate) mod math;
pub mod ops;
pub mod pack;
pub mod par;
pub mod reservoir;
pub mod rng;
pub(crate) mod tensor;

pub use dtype::{DType, BF16, F16};
pub use ops::{install_backend, set_process_backend, Activation, ComputeBackend};
pub use pack::{pack_slice, unpack_slice};
pub use tensor::Tensor;
