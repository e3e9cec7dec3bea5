//! Per-node memory accounting for brain-scale model states.
//!
//! Whether a 174-trillion-parameter model *fits* is a bookkeeping question:
//! parameters, gradients, and optimizer states, split between per-rank
//! expert shards (never replicated) and dense parameters (replicated per
//! rank unless optimizer-state sharding is enabled). This module answers it
//! and backs experiment E7.

/// Bytes of model/optimizer state each node must hold.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemoryBudget {
    /// Half-precision working parameters.
    pub params: f64,
    /// Half-precision gradients.
    pub grads: f64,
    /// FP32 master weights + Adam first/second moments.
    pub optimizer: f64,
    /// Activations for one micro-batch (checkpointed).
    pub(crate) activations: f64,
}

impl MemoryBudget {
    /// Total bytes.
    pub fn total(&self) -> f64 {
        self.params + self.grads + self.optimizer + self.activations
    }

    /// Human-readable GiB.
    pub fn total_gib(&self) -> f64 {
        self.total() / (1u64 << 30) as f64
    }

    /// Memory per node for a model with `dense_params` replicated parameters
    /// and `expert_params_total` expert parameters spread evenly over
    /// `nodes` (expert parallelism never replicates experts).
    ///
    /// * `param_bytes` — working precision (2 for half).
    /// * `shard_dense_optimizer` — ZeRO-style sharding of the *dense*
    ///   optimizer states across `nodes`; expert optimizer states are
    ///   already unique per node.
    /// * `activation_bytes` — per-node activation footprint.
    pub fn per_node(
        dense_params: f64,
        expert_params_total: f64,
        nodes: usize,
        param_bytes: f64,
        shard_dense_optimizer: bool,
        activation_bytes: f64,
    ) -> MemoryBudget {
        let expert_local = expert_params_total / nodes as f64;
        let params = (dense_params + expert_local) * param_bytes;
        let grads = (dense_params + expert_local) * param_bytes;
        // Adam: fp32 master + m + v = 12 bytes per parameter.
        const OPT_BYTES: f64 = 12.0;
        let dense_opt = if shard_dense_optimizer {
            dense_params * OPT_BYTES / nodes as f64
        } else {
            dense_params * OPT_BYTES
        };
        let optimizer = dense_opt + expert_local * OPT_BYTES;
        MemoryBudget {
            params,
            grads,
            optimizer,
            activations: activation_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expert_params_are_sharded_not_replicated() {
        let b = MemoryBudget::per_node(0.0, 96_000.0 * 1e9, 96_000, 2.0, false, 0.0);
        // Each node holds exactly 1e9 expert params at 2 bytes.
        assert!((b.params - 2e9).abs() < 1.0);
        assert!((b.optimizer - 12e9).abs() < 1.0);
    }

    #[test]
    fn sharding_divides_dense_optimizer() {
        let dense = 1e9;
        let rep = MemoryBudget::per_node(dense, 0.0, 1000, 2.0, false, 0.0);
        let shard = MemoryBudget::per_node(dense, 0.0, 1000, 2.0, true, 0.0);
        assert!((rep.optimizer / shard.optimizer - 1000.0).abs() < 1e-6);
        // Params and grads are unaffected by optimizer sharding.
        assert_eq!(rep.params, shard.params);
        assert_eq!(rep.grads, shard.grads);
    }

    #[test]
    fn brain_scale_fits_with_expert_parallelism() {
        // 174T parameters, ~all in experts, over 96k nodes:
        let b = MemoryBudget::per_node(2e9, 174e12, 96_000, 2.0, true, 8e9);
        // 174T/96k ≈ 1.81e9 expert params/node → ~3.6 GB params + ~21.8 GB opt.
        assert!(b.total_gib() < 96.0, "per-node GiB = {}", b.total_gib());
        assert!(b.total_gib() > 20.0);
    }

    #[test]
    fn total_is_sum_of_parts() {
        let b = MemoryBudget {
            params: 1.0,
            grads: 2.0,
            optimizer: 3.0,
            activations: 4.0,
        };
        assert_eq!(b.total(), 10.0);
    }
}
