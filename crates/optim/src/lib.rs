//! Optimizers and mixed-precision machinery.
//!
//! BaGuaLu's headline throughput comes from half-precision arithmetic, which
//! only trains stably with the standard mixed-precision recipe: **FP32
//! master weights**, a **dynamic loss scaler** that keeps FP16 gradients out
//! of the underflow region and backs off on overflow, and an FP32 optimizer
//! (Adam) whose state never leaves full precision. This crate implements
//! that recipe over any [`bagualu_model::param::HasParams`] model:
//!
//! * `Adam` — the plain FP32 optimizer (Adam/AdamW),
//! * `clip_grad_norm` — global gradient-norm clipping,
//! * `LossScaler` — dynamic loss scaling (grow on a streak of good steps,
//!   halve on overflow),
//! * `MixedPrecision` — the master-weight wrapper: working parameters are
//!   round-tripped through the configured half format after every update;
//!   one read pass over the gradients gives the norm and the overflow
//!   check, then one fused kernel call per parameter unscales, clips and
//!   applies its gradient, publishes the rounded working copy and zeroes
//!   the gradient.

pub mod adam;
pub mod clip;
pub mod mixed;
pub mod scaler;
pub mod schedule;
