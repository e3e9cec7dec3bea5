//! End-to-end performance projection to the full machine.
//!
//! The functional trainer cannot run on 37 million cores; this model
//! charges one training step its component costs using the roofline
//! (compute) and α–β collective (communication) models, at any machine
//! size. It is the one step-time model of the repository: the scaling
//! experiments, the CLI's `project` and the auto-tuner's objective all
//! price a step through [`project`]. It regenerates the scaling tables and
//! figures: weak/strong scaling, the pairwise-vs-hierarchical all-to-all
//! ablation, per-step time breakdowns, and the sustained mixed-precision
//! FLOPS headline.
//!
//! Conventions: the projection uses one aggregated rank per node (the six
//! core groups of an SW26010-Pro act as one roofline unit), `tokens_per_
//! node` tokens of micro-batch per node per step, and charges forward +
//! backward as 3× forward FLOPs. The all-to-alls are never overlapped
//! (the next layer needs their activations at once); the dense-gradient
//! all-reduce is either one blocking collective after backward or the
//! trainer's bucketed pipeline, which hides every bucket but the last.

use bagualu_hw::{MachineConfig, Precision};
use bagualu_model::config::ModelConfig;
use bagualu_net::cost::CollectiveCost;
use std::fmt;

/// The all-to-all algorithm a projection charges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum A2aAlgo {
    /// One exchange round per peer.
    Pairwise,
    /// Two-phase: aggregate inside the supernode, then across supernodes.
    Hierarchical,
    /// Two-level with expert-placement locality: the fraction `kept` of
    /// each rank's payload stays inside its supernode.
    Locality { kept: f64 },
}

/// Inputs of one projection.
#[derive(Debug, Clone, Copy)]
pub struct PerfInput {
    pub model: ModelConfig,
    pub machine: MachineConfig,
    /// Micro-batch tokens per node per step.
    pub tokens_per_node: usize,
    /// Arithmetic precision of the dense/expert kernels.
    pub precision: Precision,
    /// The MoE all-to-all algorithm.
    pub a2a: A2aAlgo,
    /// Bytes per activation element in the all-to-all (2 = half wire).
    pub a2a_bytes: f64,
    /// Use the hierarchical all-reduce (vs flat ring).
    pub hierarchical_allreduce: bool,
    /// Max/mean expert-load imbalance; multiplies expert compute (step time
    /// is set by the slowest expert shard).
    pub imbalance: f64,
    /// Bytes per gradient element in the dense all-reduce (4 = FP32 reduce).
    pub grad_bytes: f64,
    /// Gradient-sync bucket size in bytes. `None` is one blocking
    /// all-reduce after backward. `Some(b)` is the trainer's overlapped
    /// pipeline: every bucket pays its collective's α, and all but the last
    /// reduce while backward still computes.
    pub bucket_bytes: Option<usize>,
    /// Charge the two-level router's gate FLOPs at `round(√E)` groups
    /// instead of the flat gate's `d·E` — the ablation of experiment E18.
    pub two_level_gate: bool,
}

/// Why a [`PerfInput`] cannot be priced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerfInputError {
    NoNodes,
    NoTokens,
    /// A bucket (bytes) below 1 KiB.
    BucketTooSmall(usize),
    /// An imbalance that is not a finite max/mean ≥ 1.
    Imbalance(f64),
}

impl fmt::Display for PerfInputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoNodes => write!(f, "the machine needs at least 1 node"),
            Self::NoTokens => write!(f, "tokens per node must be >= 1"),
            Self::BucketTooSmall(b) => write!(f, "a {b}-byte gradient bucket is below 1 KiB"),
            Self::Imbalance(x) => write!(f, "imbalance must be a finite max/mean >= 1, not {x}"),
        }
    }
}

impl std::error::Error for PerfInputError {}

impl PerfInput {
    /// BaGuaLu-like defaults on the full machine: half precision, both
    /// hierarchical collectives, balanced routing, FP32 gradient reduce,
    /// blocking gradient sync.
    pub fn sunway_full(model: ModelConfig) -> PerfInput {
        PerfInput {
            model,
            machine: MachineConfig::new_generation_sunway(),
            tokens_per_node: 2048,
            precision: Precision::Half,
            a2a: A2aAlgo::Hierarchical,
            a2a_bytes: 2.0,
            hierarchical_allreduce: true,
            imbalance: 1.0,
            grad_bytes: 4.0,
            bucket_bytes: None,
            two_level_gate: false,
        }
    }

    /// Same, on a subset of nodes.
    pub fn sunway_nodes(model: ModelConfig, nodes: usize) -> PerfInput {
        PerfInput {
            machine: MachineConfig::sunway_subset(nodes),
            ..PerfInput::sunway_full(model)
        }
    }

    /// Reject inputs the model cannot price (they would print NaN or a
    /// step of zero tokens).
    pub(crate) fn validate(&self) -> Result<(), PerfInputError> {
        let imbalance = self.imbalance;
        match self.bucket_bytes {
            _ if self.machine.nodes == 0 => Err(PerfInputError::NoNodes),
            _ if self.tokens_per_node == 0 => Err(PerfInputError::NoTokens),
            Some(b) if b < 1024 => Err(PerfInputError::BucketTooSmall(b)),
            _ if !(imbalance.is_finite() && imbalance >= 1.0) => {
                Err(PerfInputError::Imbalance(imbalance))
            }
            _ => Ok(()),
        }
    }
}

/// Per-step wall-time decomposition, seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepBreakdown {
    /// Attention + dense FFN + LM head compute.
    pub dense_compute: f64,
    /// Gate projection compute (grows with expert count).
    pub gate_compute: f64,
    /// Expert FFN compute (constant per token; scaled by imbalance).
    pub expert_compute: f64,
    /// All four all-to-alls per MoE layer.
    pub a2a: f64,
    /// Dense-gradient all-reduce, every bucket.
    pub allreduce: f64,
}

impl StepBreakdown {
    /// Sum of the terms (the step time when nothing is hidden).
    pub(crate) fn total(&self) -> f64 {
        self.dense_compute + self.gate_compute + self.expert_compute + self.a2a + self.allreduce
    }

    /// Dense + gate + expert compute.
    pub fn compute(&self) -> f64 {
        self.dense_compute + self.gate_compute + self.expert_compute
    }

    /// Fraction of the summed terms spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        (self.a2a + self.allreduce) / self.total()
    }
}

/// Result of one projection.
#[derive(Debug, Clone, Copy)]
pub struct Projection {
    pub breakdown: StepBreakdown,
    /// All-reduce seconds hidden behind backward compute (0 for a
    /// blocking sync).
    pub hidden_comm: f64,
    /// Seconds per training step: the breakdown less the hidden comm.
    pub step_time: f64,
    /// Tokens processed machine-wide per step.
    pub global_tokens: f64,
    /// Training throughput, tokens/second.
    pub tokens_per_sec: f64,
    /// Useful model FLOPs sustained per second (the paper-style headline).
    pub sustained_flops: f64,
    /// Sustained as a fraction of the machine's GEMM-sustained peak.
    pub efficiency: f64,
    /// Training FLOPs one node computes per step.
    pub node_flops: f64,
    /// Bytes one node injects per step: its all-to-all payloads plus twice
    /// its gradient volume (reduce-scatter + all-gather). 0 on one node.
    pub node_wire_bytes: f64,
}

impl Projection {
    /// Communication left on the critical path.
    pub fn exposed_comm(&self) -> f64 {
        self.breakdown.a2a + self.breakdown.allreduce - self.hidden_comm
    }
}

/// Project one training step.
pub fn project(input: &PerfInput) -> Result<Projection, PerfInputError> {
    input.validate()?;
    let m = &input.model;
    let mach = &input.machine;
    let nodes = mach.nodes;
    let b = input.tokens_per_node as f64;
    // The two-level gate changes the router's FLOPs only; its small group
    // table is not charged to the gradient all-reduce.
    let fl = if input.two_level_gate {
        m.two_level_router().flops_per_token_split()
    } else {
        m.flops_per_token_split()
    };

    // ---- Compute, per node (one roofline unit per node).
    let sustained = mach.processor.peak(input.precision) * mach.gemm_efficiency;
    let dense_compute = 3.0 * fl.dense * b / sustained;
    let gate_compute = 3.0 * fl.gate * b / sustained;
    let expert_compute = 3.0 * fl.expert * b * input.imbalance / sustained;

    // ---- All-to-all: per MoE layer, 2 exchanges forward + 2 backward.
    // Per-pair payload: this node's B·k token vectors spread over all nodes.
    let cc = CollectiveCost::new(*mach);
    let a2a_bytes_per_rank = b * m.gate.k() as f64 * m.d_model as f64 * input.a2a_bytes;
    let bytes_per_pair = ((a2a_bytes_per_rank / nodes as f64).ceil() as usize).max(1);
    let one_a2a = match input.a2a {
        A2aAlgo::Pairwise => cc.alltoall_pairwise(nodes, bytes_per_pair),
        A2aAlgo::Hierarchical => cc.alltoall_hierarchical(nodes, bytes_per_pair),
        A2aAlgo::Locality { kept } => {
            cc.alltoall_with_locality(nodes, a2a_bytes_per_rank.ceil() as usize, kept)
        }
    };
    let a2a = one_a2a * 4.0 * m.n_moe_blocks() as f64;

    // ---- Dense-gradient all-reduce, once per step, in the trainer's
    // buckets; each bucket pays its collective's α.
    let grad_bytes = m.dense_params() as f64 * input.grad_bytes;
    let n_buckets = match input.bucket_bytes {
        Some(bucket) => (grad_bytes / bucket as f64).ceil().max(1.0),
        None => 1.0,
    };
    let per_bucket = (grad_bytes / n_buckets).ceil() as usize;
    let allreduce = n_buckets
        * if input.hierarchical_allreduce {
            cc.allreduce_hierarchical(nodes, per_bucket)
        } else {
            cc.allreduce_ring(nodes, per_bucket)
        };

    let breakdown = StepBreakdown {
        dense_compute,
        gate_compute,
        expert_compute,
        a2a,
        allreduce,
    };
    // The pipeline reduces bucket i while backward computes the gradients
    // of bucket i+1, so all but the last bucket hide behind compute.
    let hidden_comm = match input.bucket_bytes {
        Some(_) => ((1.0 - 1.0 / n_buckets) * allreduce).min(breakdown.compute()),
        None => 0.0,
    };
    let step_time = breakdown.total() - hidden_comm;
    let global_tokens = b * nodes as f64;
    let node_flops = 3.0 * fl.total() * b;
    let sustained_flops = node_flops * nodes as f64 / step_time;
    let node_wire_bytes = if nodes > 1 {
        4.0 * m.n_moe_blocks() as f64 * a2a_bytes_per_rank + 2.0 * grad_bytes
    } else {
        0.0
    };
    Ok(Projection {
        breakdown,
        hidden_comm,
        step_time,
        global_tokens,
        tokens_per_sec: global_tokens / step_time,
        sustained_flops,
        efficiency: sustained_flops / mach.sustained(input.precision),
        node_flops,
        node_wire_bytes,
    })
}

// ----------------------------------------------- checkpoint-interval math

/// Young/Daly first-order optimal checkpoint interval,
/// τ_opt = √(2·δ·MTBF), where δ is the cost of writing one checkpoint and
/// MTBF the mean time between failures (same time unit for both; the
/// result is in that unit). Experiment E27 plots it against measured
/// goodput.
pub fn young_daly_tau_opt(checkpoint_cost_s: f64, mtbf_s: f64) -> f64 {
    assert!(
        checkpoint_cost_s >= 0.0 && mtbf_s > 0.0,
        "young_daly_tau_opt wants δ >= 0 and MTBF > 0, got δ = {checkpoint_cost_s}, \
         MTBF = {mtbf_s}"
    );
    (2.0 * checkpoint_cost_s * mtbf_s).sqrt()
}

/// First-order expected fraction of wall-clock lost to fault tolerance at
/// checkpoint interval τ: δ/τ spent writing plus τ/(2·MTBF) of re-executed
/// work per failure (half an interval lost on average). Minimized exactly
/// at [`young_daly_tau_opt`]; the tuner folds this into its step-time
/// objective.
pub fn checkpoint_waste_fraction(checkpoint_cost_s: f64, interval_s: f64, mtbf_s: f64) -> f64 {
    assert!(
        interval_s > 0.0 && mtbf_s > 0.0,
        "checkpoint_waste_fraction wants τ > 0 and MTBF > 0, got τ = {interval_s}, \
         MTBF = {mtbf_s}"
    );
    checkpoint_cost_s / interval_s + interval_s / (2.0 * mtbf_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PerfInput {
        PerfInput::sunway_full(ModelConfig::bagualu_14_5t())
    }

    #[test]
    fn young_daly_matches_the_closed_form() {
        // δ = 2s, MTBF = 100s → τ = √400 = 20s.
        assert_eq!(young_daly_tau_opt(2.0, 100.0), 20.0);
        // τ_opt minimizes the waste model it pairs with.
        let (delta, mtbf) = (3.0, 500.0);
        let tau = young_daly_tau_opt(delta, mtbf);
        let at_opt = checkpoint_waste_fraction(delta, tau, mtbf);
        for off in [0.5, 0.8, 1.25, 2.0] {
            assert!(at_opt <= checkpoint_waste_fraction(delta, tau * off, mtbf));
        }
    }

    #[test]
    fn hierarchical_a2a_beats_pairwise_at_full_scale() {
        let hier = project(&base()).unwrap();
        let flat = project(&PerfInput {
            a2a: A2aAlgo::Pairwise,
            ..base()
        })
        .unwrap();
        assert!(
            hier.breakdown.a2a < flat.breakdown.a2a / 5.0,
            "hier {}s vs flat {}s",
            hier.breakdown.a2a,
            flat.breakdown.a2a
        );
        assert!(hier.tokens_per_sec > flat.tokens_per_sec * 1.5);
    }

    #[test]
    fn half_precision_raises_throughput() {
        let half = project(&base()).unwrap();
        let full = project(&PerfInput {
            precision: Precision::FP32,
            ..base()
        })
        .unwrap();
        assert!(half.tokens_per_sec > full.tokens_per_sec * 1.5);
    }

    #[test]
    fn sustained_flops_is_eflops_scale_at_full_machine() {
        let p = project(&base()).unwrap();
        // Headline shape: ~1 EFLOPS-order sustained mixed precision.
        assert!(
            p.sustained_flops > 2e17 && p.sustained_flops < 6e18,
            "sustained = {:.3e}",
            p.sustained_flops
        );
        assert!(p.efficiency > 0.05 && p.efficiency <= 1.0);
    }

    #[test]
    fn imbalance_slows_the_step() {
        let balanced = project(&base()).unwrap();
        let skewed = project(&PerfInput {
            imbalance: 4.0,
            ..base()
        })
        .unwrap();
        assert!(skewed.step_time > balanced.step_time);
        assert!(
            (skewed.breakdown.expert_compute / balanced.breakdown.expert_compute - 4.0).abs()
                < 1e-9
        );
    }

    #[test]
    fn weak_scaling_is_near_linear_with_hierarchical_collectives() {
        // Throughput per node should stay within 2× from 1k to 96k nodes.
        let small = project(&PerfInput::sunway_nodes(ModelConfig::bagualu_14_5t(), 1024)).unwrap();
        let big = project(&base()).unwrap();
        let per_node_small = small.tokens_per_sec / 1024.0;
        let per_node_big = big.tokens_per_sec / 96_000.0;
        let eff = per_node_big / per_node_small;
        assert!(eff > 0.5, "weak-scaling efficiency collapsed: {eff}");
    }

    #[test]
    fn single_node_has_no_communication() {
        let p = project(&PerfInput::sunway_nodes(ModelConfig::tiny(), 1)).unwrap();
        assert_eq!(p.breakdown.allreduce, 0.0);
        // One node = one "supernode": a2a degenerates to self-exchange cost 0.
        assert_eq!(p.breakdown.a2a, 0.0);
    }

    #[test]
    fn overlap_hides_communication() {
        let blocking = project(&base()).unwrap();
        assert_eq!(blocking.hidden_comm, 0.0);
        let grad_bytes = base().model.dense_params() as usize * 4;
        let one_bucket = project(&PerfInput {
            bucket_bytes: Some(grad_bytes),
            ..base()
        })
        .unwrap();
        // One bucket is the blocking sync: nothing runs beside it.
        assert_eq!(one_bucket.hidden_comm, 0.0);
        assert!((one_bucket.step_time - blocking.step_time).abs() < 1e-12);
        let four = project(&PerfInput {
            bucket_bytes: Some(grad_bytes / 4),
            ..base()
        })
        .unwrap();
        let b = four.breakdown;
        // Every bucket pays α, so the summed all-reduce grows ...
        assert!(b.allreduce > blocking.breakdown.allreduce);
        // ... but three of four buckets hide behind backward compute.
        assert!((four.hidden_comm - 0.75 * b.allreduce).abs() < 1e-12);
        assert!(four.step_time < blocking.step_time);
        // The a2a stays exposed.
        assert_eq!(b.a2a, blocking.breakdown.a2a);
        assert!(four.exposed_comm() >= b.a2a);
    }

    #[test]
    fn inputs_it_cannot_price_are_rejected() {
        let bad = |input: PerfInput| project(&input).unwrap_err();
        assert_eq!(
            bad(PerfInput::sunway_nodes(ModelConfig::bagualu_14_5t(), 0)),
            PerfInputError::NoNodes
        );
        assert_eq!(
            bad(PerfInput {
                tokens_per_node: 0,
                ..base()
            }),
            PerfInputError::NoTokens
        );
        assert_eq!(
            bad(PerfInput {
                bucket_bytes: Some(1023),
                ..base()
            }),
            PerfInputError::BucketTooSmall(1023)
        );
        for imbalance in [f64::NAN, f64::INFINITY, 0.5] {
            let e = bad(PerfInput {
                imbalance,
                ..base()
            });
            assert!(
                matches!(e, PerfInputError::Imbalance(_)),
                "{imbalance}: {e}"
            );
        }
        // The smallest legal values price.
        let edge = PerfInput {
            tokens_per_node: 1,
            bucket_bytes: Some(1024),
            ..PerfInput::sunway_nodes(ModelConfig::bagualu_14_5t(), 1)
        };
        assert!(project(&edge).unwrap().tokens_per_sec > 0.0);
    }

    #[test]
    fn the_two_level_gate_is_charged_at_rounded_sqrt_groups() {
        let m = ModelConfig::bagualu_174t();
        let p = project(&PerfInput {
            two_level_gate: true,
            ..PerfInput::sunway_full(m)
        })
        .unwrap();
        let gate = bagualu_model::moe::TwoLevelGate::flops_per_token(m.d_model, m.n_experts, 329)
            * m.n_moe_blocks() as f64;
        let sustained =
            base().machine.processor.peak(Precision::Half) * base().machine.gemm_efficiency;
        let expect = 3.0 * gate * 2048.0 / sustained;
        assert!((p.breakdown.gate_compute / expect - 1.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let p = project(&base()).unwrap();
        let b = p.breakdown;
        let sum = b.dense_compute + b.gate_compute + b.expert_compute + b.a2a + b.allreduce;
        assert!((sum - p.step_time).abs() < 1e-12);
        assert!(b.comm_fraction() > 0.0 && b.comm_fraction() < 1.0);
    }
}
