//! The four workloads: their shapes, frozen here so that two commits are
//! always measured on the same work. `benchmark/README.md` says why each one
//! exists and which layer it is meant to load.

use crate::product::{
    A2aKind, ComputeBackend, DType, EngineConfig, ExpertPlacement, GateKind, ModelConfig,
    TokenDistribution, TrainConfig, WireDType,
};

pub const WORKLOADS: [&str; 4] = [
    "train_compute",
    "train_route",
    "train_state",
    "serve_decode",
];

/// Ranks of every workload: two load-bearing threads on the two-core
/// reference box (the serve generator is a third, mostly asleep).
pub const NRANKS: usize = 2;

pub struct TrainShape {
    pub cfg: TrainConfig,
    /// Steps of one timed repetition of `Trainer::run` / `run_ft`.
    pub steps: usize,
    /// `Some(n)`: run through `Trainer::run_ft`, checkpointing every `n`.
    pub ckpt_every: Option<usize>,
}

pub struct ServeShape {
    pub model: ModelConfig,
    pub engine: EngineConfig,
    pub prompt_len: usize,
    pub max_new: usize,
    /// Requests of one closed-loop burst (all submitted at once).
    pub burst: usize,
    /// Open-loop arrival rates, requests/s: round numbers near 30/60/90/120 %
    /// of the closed-loop request rate measured on the reference box when
    /// the benchmark was defined. They are constants, not re-derived per
    /// run, so a faster commit is judged at the same offered load.
    pub rates_rps: [f64; 4],
}

/// What every workload's model shares: top-2 gate, capacity 1.25, learned
/// positions, untied head. The sizes are set per workload.
fn moe_base() -> ModelConfig {
    ModelConfig {
        gate: GateKind::Top2,
        capacity_factor: 1.25,
        aux_weight: 0.01,
        router_groups: 0,
        rope: false,
        tie_embeddings: false,
        ..ModelConfig::tiny()
    }
}

fn train_cfg(model: ModelConfig, batch_per_rank: usize, seq: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        model,
        nranks: NRANKS,
        batch_per_rank,
        seq,
        steps: 0, // set per repetition
        lr: 1e-2,
        dtype: DType::F32,
        a2a: A2aKind::Pairwise,
        clip: Some(1.0),
        seed,
        data: TokenDistribution::Zipf(0.8),
        overlap: true,
        wire: WireDType::F32,
        placement: ExpertPlacement::RoundRobin,
        compute: ComputeBackend::Tiled,
        ..TrainConfig::default()
    }
}

/// The compute model shared by `train_compute` and `serve_decode`.
fn compute_model(smoke: bool) -> ModelConfig {
    if smoke {
        ModelConfig {
            d_model: 32,
            n_heads: 4,
            n_layers: 2,
            d_ff: 64,
            vocab: 64,
            max_seq: 16,
            n_experts: 4,
            moe_every: 2,
            ..moe_base()
        }
    } else {
        ModelConfig {
            d_model: 256,
            n_heads: 8,
            n_layers: 4,
            d_ff: 1024,
            vocab: 2048,
            max_seq: 64,
            n_experts: 4,
            moe_every: 2,
            ..moe_base()
        }
    }
}

pub fn train_shape(workload: &str, seed: u64, smoke: bool) -> TrainShape {
    match (workload, smoke) {
        ("train_compute", false) => TrainShape {
            cfg: train_cfg(compute_model(false), 4, 64, seed),
            steps: 3,
            ckpt_every: None,
        },
        ("train_compute", true) => TrainShape {
            cfg: train_cfg(compute_model(true), 2, 8, seed),
            steps: 3,
            ckpt_every: None,
        },
        ("train_route", _) => {
            let model = if smoke {
                ModelConfig {
                    d_model: 16,
                    n_heads: 2,
                    n_layers: 2,
                    d_ff: 32,
                    vocab: 64,
                    max_seq: 8,
                    n_experts: 4,
                    moe_every: 1,
                    ..moe_base()
                }
            } else {
                ModelConfig {
                    d_model: 64,
                    n_heads: 4,
                    n_layers: 4,
                    d_ff: 256,
                    vocab: 1024,
                    max_seq: 32,
                    n_experts: 16,
                    moe_every: 1,
                    ..moe_base()
                }
            };
            let (batch, seq) = if smoke { (2, 8) } else { (16, 32) };
            TrainShape {
                cfg: TrainConfig {
                    wire: WireDType::F16,
                    a2a: A2aKind::Hierarchical { supernode_size: 1 },
                    ..train_cfg(model, batch, seq, seed)
                },
                steps: if smoke { 3 } else { 8 },
                ckpt_every: None,
            }
        }
        ("train_state", _) => {
            let model = if smoke {
                ModelConfig {
                    d_model: 16,
                    n_heads: 2,
                    n_layers: 2,
                    d_ff: 32,
                    vocab: 64,
                    max_seq: 8,
                    n_experts: 8,
                    moe_every: 1,
                    ..moe_base()
                }
            } else {
                ModelConfig {
                    d_model: 128,
                    n_heads: 8,
                    n_layers: 2,
                    d_ff: 512,
                    vocab: 1024,
                    max_seq: 32,
                    n_experts: 64,
                    moe_every: 1,
                    ..moe_base()
                }
            };
            let (batch, seq) = if smoke { (2, 8) } else { (2, 32) };
            TrainShape {
                cfg: train_cfg(model, batch, seq, seed),
                steps: if smoke { 4 } else { 6 },
                ckpt_every: Some(2),
            }
        }
        _ => panic!("{workload} is not a train workload"),
    }
}

pub fn serve_shape(smoke: bool) -> ServeShape {
    ServeShape {
        model: compute_model(smoke),
        engine: EngineConfig {
            max_batch: 8,
            kv_blocks: 256,
            block_tokens: 16,
        },
        prompt_len: if smoke { 4 } else { 32 },
        max_new: if smoke { 4 } else { 16 },
        burst: if smoke { 8 } else { 32 },
        rates_rps: if smoke {
            [50.0, 100.0, 150.0, 200.0]
        } else {
            [12.0, 24.0, 36.0, 48.0]
        },
    }
}
