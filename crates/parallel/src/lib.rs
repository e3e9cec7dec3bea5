//! MoDa hybrid parallelism — the core contribution of the reproduced system.
//!
//! **MoDa** combines **Da**ta parallelism and **Mo**E expert parallelism in
//! one process group:
//!
//! * every rank holds a full replica of the *dense* parameters (embeddings,
//!   attention, layer norms, gates, LM head) and trains them data-parallel —
//!   each rank consumes a different micro-batch and gradients are averaged
//!   with a ring all-reduce;
//! * the *experts* of each MoE layer are **sharded**, never replicated:
//!   each expert lives on exactly one rank, chosen by a pluggable
//!   [`ExpertPlacement`] policy (round-robin, block-contiguous, or
//!   supernode-aware). Tokens are routed by the (replicated) gate and
//!   physically exchanged with an **all-to-all** — pairwise or
//!   hierarchical, the choice this reproduction ablates.
//!
//! Parameter count therefore scales with `R × experts-per-rank` while
//! per-rank compute and memory stay flat — this is what makes 174-trillion-
//! parameter training fit on 96,000 nodes.
//!
//! Modules:
//!
//! * [`decode`] — the batched expert-parallel decode step the serving
//!   path (`bagualu-serve`) builds continuous batching on,
//! * [`moe_dist`] — the distributed MoE layer (dispatch → expert compute →
//!   combine, with the exact mirror in backward),
//! * [`model_dist`] — the distributed transformer assembled from replicated
//!   dense layers and distributed MoE layers,
//! * [`placement`] — the expert↔rank mapping policies,
//! * [`sync`] — gradient synchronization (dense all-reduce averaging,
//!   expert gradient rescaling) and replica-consistency checks.

pub mod decode;
pub mod model_dist;
pub mod moe_dist;
pub mod placement;
pub mod sync;
pub mod zero;

pub use decode::{decode_hidden, decode_step, logits, KvProvider, VecKvBatch};
pub use model_dist::{DistBlock, DistFfn, DistTransformer};
pub use moe_dist::{A2aKind, DistMoELayer};
pub use placement::ExpertPlacement;
pub use sync::{
    backward_and_sync_overlapped, backward_and_sync_overlapped_wire, check_replica_consistency,
    sync_grads, sync_grads_wire, SyncStats,
};
pub use zero::ZeroAdam;
