//! Every product item the benchmark touches, named in one place.
//!
//! The rest of the benchmark imports from here and never from `bagualu::*`
//! directly, so a product change that renames or merges an entry point (the
//! roadmap's ladder collapse) pairs with a change to this file only. Where
//! the product has plain/`_wire` twins the general one is taken.

// core: the entry points the end-to-end numbers come from.
pub use bagualu::checkpoint::load_params;
pub use bagualu::data::{SyntheticLM, TokenDistribution};
pub use bagualu::trainer::{FtConfig, TrainConfig, TrainReport, Trainer};

// serve: the server entry point and its request/response types.
pub use bagualu::serve::{run as serve_run, Client, EngineConfig, Response, ServerOptions, Ticket};

// comm: rank harness, transport, and the collectives probed in isolation.
pub use bagualu::comm::collectives::{
    allreduce_recursive_doubling, allreduce_wire, alltoallv_hierarchical_wire, ReduceOp,
};
pub use bagualu::comm::harness::run_ranks_map;
pub use bagualu::comm::{Communicator, WireDType};

// parallel: the distributed model walked layer by layer in the replay.
pub use bagualu::parallel::{sync_grads_wire, A2aKind, DistFfn, DistTransformer, ExpertPlacement};

/// One rank's shard of the model a training configuration describes, built
/// the way the trainer builds it.
pub fn build_model(cfg: &TrainConfig, rank: usize) -> DistTransformer {
    DistTransformer::new_placed(
        cfg.model,
        cfg.seed,
        rank,
        cfg.nranks,
        cfg.a2a,
        cfg.resolved_placement(),
    )
}

// model: layer types reached through `DistTransformer`'s public fields,
// the loss, and the single-rank oracle for the serving check.
pub use bagualu::model::attention::KvCache;
pub use bagualu::model::config::ModelConfig;
pub use bagualu::model::loss::cross_entropy;
pub use bagualu::model::moe::GateKind;
pub use bagualu::model::param::HasParams;
pub use bagualu::model::transformer::Transformer;

// optim.
pub use bagualu::optim::adam::AdamConfig;
pub use bagualu::optim::clip::clip_grad_norm;
pub use bagualu::optim::mixed::{MixedPrecision, StepOutcome};

// tensor: backends installed exactly as `rank_main` installs them, plus the
// kernels probed at decode shapes.
pub use bagualu::tensor::ops::{
    install_backend, install_row_ops, matmul, set_process_backend, ComputeBackend,
};
pub use bagualu::tensor::pack::{pack_slice, unpack_slice};
pub use bagualu::tensor::rng::Rng;
pub use bagualu::tensor::{DType, Tensor};

// trace: the recorder (the benchmark's own spans ride the same lanes as the
// program's) and the read-side API.
#[cfg(test)]
pub use bagualu::trace::count;
pub use bagualu::trace::{names, span, EventKind, RankTrace, Trace, TraceCollector};
