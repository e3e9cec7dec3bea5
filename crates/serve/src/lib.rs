//! BaGuaLu-serve: continuous-batching, expert-parallel inference.
//!
//! Training gets a model to brain scale; this crate is the path from that
//! checkpoint to answering requests — the paper's "millions of users"
//! endpoint. Three ideas, each in its own module:
//!
//! * **Continuous batching** (`engine`) — requests join the in-flight
//!   batch at step boundaries and leave the moment they finish; the GPU
//!   analogue never drains to rebuild a static batch. Decoding is greedy
//!   and every per-row operation is row-independent, so batch composition
//!   cannot change any sequence's tokens (pinned bit-identical to
//!   [`Transformer::generate_cached`](bagualu_model::transformer::Transformer::generate_cached)
//!   by the integration tests).
//! * **Paged KV cache** (`kv`) — fixed-size blocks, a LIFO free list,
//!   and per-sequence block tables; worst-case blocks are reserved at
//!   admission, so an admitted sequence can never fail mid-decode, and a
//!   request that does not fit is re-queued (typed
//!   `AdmissionError`), never dropped.
//! * **Expert-parallel decode** (`server`) — each rank hosts its expert
//!   shard and decode rows travel through the same all-to-all
//!   dispatch/combine as training. The rank loop keeps collective calls
//!   aligned via an exact integer all-reduce consensus even though
//!   requests arrive asynchronously, and every rank derives from the same
//!   agreed vector which rank admits each waiting request.
//!
//! # Quickstart
//!
//! ```
//! use bagualu_model::config::ModelConfig;
//! use bagualu_parallel::{A2aKind, DistTransformer};
//! use bagualu_serve::{run, EngineConfig, ServerOptions};
//!
//! let opts = ServerOptions {
//!     nranks: 2,
//!     engine: EngineConfig { max_batch: 4, kv_blocks: 32, block_tokens: 4 },
//!     trace: false,
//! };
//! let report = run(
//!     opts,
//!     // One replica per rank from the same seed: dense weights agree,
//!     // expert shards partition one logical model.
//!     |rank| DistTransformer::new(ModelConfig::tiny(), 7, rank, 2, A2aKind::Pairwise),
//!     |client| {
//!         let ticket = client.submit(vec![3, 5], 4);
//!         ticket.wait().expect("valid request").tokens
//!     },
//! );
//! assert_eq!(report.output.len(), 6); // 2 prompt + 4 generated tokens
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod engine;
pub(crate) mod kv;
pub(crate) mod request;
pub(crate) mod server;

pub use engine::{Engine, EngineConfig};
pub use request::{Request, Response, SubmitError};
pub use server::{run, Client, ServerOptions, ServerReport, Ticket};
