//! Transformer and mixture-of-experts model components with manual backprop.
//!
//! BaGuaLu's model is a GPT-style decoder where the FFN of (some) blocks is
//! replaced by a **mixture of experts**: a gating network routes each token
//! to one or two of many expert FFNs, so parameter count scales with the
//! expert count while per-token compute stays constant. This crate
//! implements every layer with an explicit, hand-derived backward pass —
//! no autograd tape — which keeps the per-rank training step allocation-
//! predictable and easy to cost-model, and mirrors how the original
//! system's kernels are structured.
//!
//! Layer convention: `forward(&mut self, …)` caches whatever the backward
//! pass needs; `backward(&mut self, dy)` consumes the cache, **accumulates**
//! parameter gradients, and returns the input gradient. A step is
//! `zero_grad → forward → loss → backward → optimizer`. The layers serving
//! uses also have `freeze(self)`, which consumes the layer and returns its
//! inference form (`PackedLinear`, `ServedFfn`, `ServedAttention`,
//! `ServedNorm`, `ServedRouter`): weights packed once, no gradient, no
//! cache, and only the cache-free `apply`/`forward` decoding calls — so a
//! served layer cannot be trained, visited or checkpointed.

pub mod attention;
pub mod config;
pub mod embedding;
pub mod ffn;
pub mod layernorm;
pub mod linear;
pub mod loss;
pub mod moe;
pub mod param;
pub mod transformer;
