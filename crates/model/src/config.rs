//! Model configuration and exact parameter counting, including the
//! brain-scale presets.
//!
//! The presets are *reconstructions*: configurations that hit the published
//! parameter counts (1.93 T / 14.5 T / 174 T) with a CPM-style decoder whose
//! alternate blocks carry mixture-of-experts FFNs. The original paper's
//! exact hyperparameters are not available to this reproduction (see
//! DESIGN.md); what the experiments rely on is the *scaling structure* —
//! expert count multiplies parameters without multiplying per-token FLOPs —
//! which these configs preserve.

use crate::ffn::FeedForward;
use crate::moe::{GateKind, TwoLevelGate};

/// Per-token forward FLOPs of a [`ModelConfig`]: attention, dense FFNs
/// and LM head; the MoE routers; the `k` active experts per MoE block.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlopsSplit {
    pub dense: f64,
    pub gate: f64,
    pub expert: f64,
}

impl FlopsSplit {
    pub fn total(&self) -> f64 {
        self.dense + self.gate + self.expert
    }
}

/// Hyperparameters of a (possibly MoE) decoder transformer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    pub vocab: usize,
    pub d_model: usize,
    pub n_heads: usize,
    pub n_layers: usize,
    pub d_ff: usize,
    pub max_seq: usize,
    /// Experts per MoE block; `0` makes every block dense.
    pub n_experts: usize,
    /// Every `moe_every`-th block is MoE (blocks `moe_every-1, 2·moe_every-1, …`).
    pub moe_every: usize,
    pub gate: GateKind,
    pub capacity_factor: f32,
    pub aux_weight: f32,
    /// Two-level router group count for MoE blocks; `0` uses the flat gate.
    /// (Single-rank feature: the distributed runtime requires a flat gate.)
    pub router_groups: usize,
    /// Rotary position embeddings instead of a learned position table.
    pub rope: bool,
    /// Tie the LM head to the token embedding (logits = x·Eᵀ), the
    /// standard parameter-saving trick of GPT-family models.
    pub tie_embeddings: bool,
}

impl ModelConfig {
    /// A laptop-scale config for functional tests and examples.
    pub fn tiny() -> ModelConfig {
        ModelConfig {
            vocab: 64,
            d_model: 32,
            n_heads: 4,
            n_layers: 2,
            d_ff: 64,
            max_seq: 16,
            n_experts: 4,
            moe_every: 2,
            gate: GateKind::Top2,
            capacity_factor: 2.0,
            aux_weight: 0.01,
            router_groups: 0,
            rope: false,
            tie_embeddings: false,
        }
    }

    /// A dense variant of [`ModelConfig::tiny`].
    pub fn tiny_dense() -> ModelConfig {
        ModelConfig {
            n_experts: 0,
            ..ModelConfig::tiny()
        }
    }

    fn brain_scale_base() -> ModelConfig {
        ModelConfig {
            vocab: 51_200,
            d_model: 4096,
            n_heads: 32,
            n_layers: 24,
            d_ff: 16_384,
            max_seq: 2048,
            n_experts: 0,
            moe_every: 2,
            gate: GateKind::Top2,
            capacity_factor: 1.25,
            aux_weight: 0.01,
            router_groups: 0,
            rope: false,
            tie_embeddings: false,
        }
    }

    /// ~1.93 trillion parameters (1,200 experts × 12 MoE blocks).
    pub fn bagualu_1_93t() -> ModelConfig {
        ModelConfig {
            n_experts: 1_200,
            ..Self::brain_scale_base()
        }
    }

    /// ~14.5 trillion parameters (9,000 experts × 12 MoE blocks).
    pub fn bagualu_14_5t() -> ModelConfig {
        ModelConfig {
            n_experts: 9_000,
            ..Self::brain_scale_base()
        }
    }

    /// ~174 trillion parameters — the brain-scale configuration
    /// (108,000 experts × 12 MoE blocks).
    pub fn bagualu_174t() -> ModelConfig {
        ModelConfig {
            n_experts: 108_000,
            ..Self::brain_scale_base()
        }
    }

    /// Whether block `i` (0-based) carries an MoE FFN.
    pub fn is_moe_block(&self, i: usize) -> bool {
        self.n_experts > 0 && (i + 1).is_multiple_of(self.moe_every)
    }

    /// Number of MoE blocks.
    pub fn n_moe_blocks(&self) -> usize {
        (0..self.n_layers).filter(|&i| self.is_moe_block(i)).count()
    }

    /// Parameters of one attention sub-layer.
    fn attn_params(&self) -> u128 {
        let d = self.d_model as u128;
        (d * 3 * d + 3 * d) + (d * d + d)
    }

    /// Parameters of the two layer norms in a block.
    fn block_ln_params(&self) -> u128 {
        4 * self.d_model as u128
    }

    /// Exact total trainable parameters.
    pub fn count_params(&self) -> u128 {
        let d = self.d_model as u128;
        let expert = FeedForward::param_count(self.d_model, self.d_ff);
        let mut total = 0u128;
        // Token embedding; the position table exists only without RoPE.
        total += self.vocab as u128 * d;
        if !self.rope {
            total += self.max_seq as u128 * d;
        }
        for i in 0..self.n_layers {
            total += self.attn_params() + self.block_ln_params();
            if self.is_moe_block(i) {
                // Router: flat gate projects d×E; the two-level router adds
                // a d×G group projection on top of the d×E expert table.
                total += d * self.n_experts as u128;
                if self.router_groups > 0 {
                    total += d * self.router_groups as u128;
                }
                total += self.n_experts as u128 * expert;
            } else {
                total += expert;
            }
        }
        // Final norm + LM head (absent when tied to the embedding).
        total += 2 * d;
        if !self.tie_embeddings {
            total += d * self.vocab as u128 + self.vocab as u128;
        }
        total
    }

    /// Parameters that are *replicated* under MoDa parallelism (everything
    /// except the experts, which are sharded one-per-rank-group).
    pub fn dense_params(&self) -> u128 {
        self.count_params() - self.expert_params()
    }

    /// Total parameters living in experts (sharded, never replicated).
    pub fn expert_params(&self) -> u128 {
        let expert = FeedForward::param_count(self.d_model, self.d_ff);
        self.n_moe_blocks() as u128 * self.n_experts as u128 * expert
    }

    /// This config with the two-level router at its FLOPs-optimal group
    /// count `round(√E)`, where `d·(G + E/G)` is smallest.
    pub fn two_level_router(self) -> ModelConfig {
        ModelConfig {
            router_groups: ((self.n_experts as f64).sqrt().round() as usize).max(1),
            ..self
        }
    }

    /// Forward FLOPs per token (the standard 2·params-activated estimate,
    /// broken out so MoE activates only `k` experts, not all of them),
    /// split into the terms a step's compute is charged by.
    pub fn flops_per_token_split(&self) -> FlopsSplit {
        let d = self.d_model as f64;
        let expert = FeedForward::param_count(self.d_model, self.d_ff) as f64;
        let gate = if self.router_groups > 0 {
            TwoLevelGate::flops_per_token(self.d_model, self.n_experts, self.router_groups)
        } else {
            2.0 * d * self.n_experts as f64
        };
        let mut fl = FlopsSplit::default();
        for i in 0..self.n_layers {
            // Projections, plus score/context FLOPs 2·2·seq·d at the
            // average causal context max_seq/2.
            fl.dense += 2.0 * (self.attn_params() as f64);
            fl.dense += 2.0 * 2.0 * (self.max_seq as f64 / 2.0) * d;
            if self.is_moe_block(i) {
                fl.gate += gate;
                fl.expert += 2.0 * expert * self.gate.k() as f64; // k active experts
            } else {
                fl.dense += 2.0 * expert;
            }
        }
        fl.dense += 2.0 * d * self.vocab as f64; // LM head
        fl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_parameter_counts_hit_published_scales() {
        let c1 = ModelConfig::bagualu_1_93t().count_params() as f64;
        let c2 = ModelConfig::bagualu_14_5t().count_params() as f64;
        let c3 = ModelConfig::bagualu_174t().count_params() as f64;
        assert!(
            (c1 / 1.93e12 - 1.0).abs() < 0.05,
            "1.93T preset gives {c1:.3e}"
        );
        assert!(
            (c2 / 14.5e12 - 1.0).abs() < 0.05,
            "14.5T preset gives {c2:.3e}"
        );
        assert!(
            (c3 / 174e12 - 1.0).abs() < 0.05,
            "174T preset gives {c3:.3e}"
        );
    }

    #[test]
    fn moe_block_pattern() {
        let c = ModelConfig::bagualu_1_93t();
        assert!(!c.is_moe_block(0));
        assert!(c.is_moe_block(1));
        assert!(c.is_moe_block(23));
        assert_eq!(c.n_moe_blocks(), 12);
        let dense = ModelConfig::tiny_dense();
        assert_eq!(dense.n_moe_blocks(), 0);
    }

    #[test]
    fn expert_params_dominate_at_brain_scale() {
        let c = ModelConfig::bagualu_174t();
        let frac = c.expert_params() as f64 / c.count_params() as f64;
        assert!(frac > 0.99, "experts hold {frac:.4} of parameters");
    }

    #[test]
    fn dense_plus_expert_equals_total() {
        for c in [ModelConfig::tiny(), ModelConfig::bagualu_1_93t()] {
            assert_eq!(c.dense_params() + c.expert_params(), c.count_params());
        }
    }

    #[test]
    fn moe_flops_do_not_scale_with_expert_count() {
        let small = ModelConfig::bagualu_1_93t();
        let big = ModelConfig::bagualu_174t();
        let ratio = big.flops_per_token_split().total() / small.flops_per_token_split().total();
        // 90× the parameters, but only the gate projection grows.
        assert!(ratio < 3.0, "FLOPs ratio {ratio}");
        let params_ratio = big.count_params() as f64 / small.count_params() as f64;
        assert!(params_ratio > 80.0);
    }

    #[test]
    fn tiny_config_counts_match_a_real_model() {
        // Cross-checked against Transformer::num_params in transformer.rs
        // tests; here just sanity: counting is positive and dense < moe.
        let moe = ModelConfig::tiny().count_params();
        let dense = ModelConfig::tiny_dense().count_params();
        assert!(moe > dense);
    }
}
