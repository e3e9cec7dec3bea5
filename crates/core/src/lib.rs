//! BaGuaLu-rs: brain-scale MoE pretraining, reproduced in Rust.
//!
//! This crate is the public facade over the full stack:
//!
//! * [`bagualu_tensor`] — compute kernels and software half precision,
//! * [`bagualu_hw`] / [`bagualu_net`] — the simulated Sunway machine and
//!   network (substituting for hardware this reproduction cannot access),
//! * [`bagualu_comm`] — rank communicator and collective algorithms,
//! * [`bagualu_model`] — transformer + mixture-of-experts layers,
//! * [`bagualu_optim`] — Adam, loss scaling, mixed precision,
//! * [`bagualu_parallel`] — MoDa hybrid parallelism,
//! * [`bagualu_serve`] — continuous-batching expert-parallel inference
//!   with a paged KV cache (see `docs/SERVING.md`),
//! * [`bagualu_trace`] — per-rank structured tracing (spans, counters,
//!   Chrome-trace export; see `docs/OBSERVABILITY.md`). Enable it with
//!   [`trainer::TrainConfig::trace`] and read the result from
//!   [`trainer::TrainReport::trace`].
//!
//! What this crate adds:
//!
//! * [`trainer`] — a multi-rank functional trainer (one OS thread per rank)
//!   with mixed precision, gradient clipping, and full metrics,
//! * [`data`] — synthetic workload generators (learnable next-token tasks,
//!   Zipf-skewed token streams that stress gate load balancing),
//! * [`checkpoint`] — sharded binary checkpointing,
//! * [`perfmodel`] — the one step-time model: the projection to the full
//!   96,000-node / 37-million-core machine that regenerates the paper-style
//!   scaling tables and figures and that the auto-tuner scores with,
//! * [`metrics`] — formatting and throughput bookkeeping.
//!
//! # Quickstart
//!
//! ```
//! use bagualu::trainer::{TrainConfig, Trainer};
//! use bagualu::model::config::ModelConfig;
//!
//! let cfg = TrainConfig {
//!     model: ModelConfig::tiny(),
//!     nranks: 2,
//!     steps: 5,
//!     ..TrainConfig::default()
//! };
//! let report = Trainer::new(cfg).run();
//! assert_eq!(report.loss_curve.len(), 5);
//! ```

/// `ensure!(ok, "fmt", args…)`: return `Err(format!(…))` unless `ok`.
macro_rules! ensure {
    ($ok:expr, $($msg:tt)+) => {
        if !$ok {
            return Err(format!($($msg)+));
        }
    };
}

pub mod checkpoint;
pub mod data;
pub mod metrics;
pub mod perfmodel;
pub mod runconfig;
pub mod tokenizer;
pub mod trainer;

// Re-export the sub-crates under one roof for downstream users.
pub use bagualu_comm as comm;
pub use bagualu_hw as hw;
pub use bagualu_model as model;
pub use bagualu_net as net;
pub use bagualu_optim as optim;
pub use bagualu_parallel as parallel;
pub use bagualu_serve as serve;
pub use bagualu_tensor as tensor;
pub use bagualu_trace as trace;
