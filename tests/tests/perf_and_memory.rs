//! Properties of the performance projection, cost models, and memory
//! accounting — the analytical side of the reproduction.

use bagualu::hw::{MachineConfig, MemoryBudget, Precision};
use bagualu::model::config::ModelConfig;
use bagualu::net::cost::CollectiveCost;
use bagualu::net::simnet::{Message, SimNet};
use bagualu::perfmodel::{project, PerfInput};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn collective_costs_are_monotone_in_bytes(nodes_pow in 8u32..17, b1 in 1usize..1_000_000, b2 in 1usize..1_000_000) {
        let nodes = 1usize << nodes_pow;
        let cc = CollectiveCost::new(MachineConfig::sunway_subset(nodes));
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(cc.alltoall_pairwise(nodes, lo) <= cc.alltoall_pairwise(nodes, hi));
        prop_assert!(cc.alltoall_hierarchical(nodes, lo) <= cc.alltoall_hierarchical(nodes, hi));
        prop_assert!(cc.allreduce_ring(nodes, lo) <= cc.allreduce_ring(nodes, hi));
        prop_assert!(cc.allreduce_hierarchical(nodes, lo) <= cc.allreduce_hierarchical(nodes, hi));
    }

    #[test]
    fn hierarchical_a2a_always_wins_at_tiny_payloads(nodes_pow in 10u32..17) {
        // In the latency-dominated regime the two-phase algorithm must win
        // whenever the machine spans multiple supernodes.
        let nodes = 1usize << nodes_pow;
        let cc = CollectiveCost::new(MachineConfig::sunway_subset(nodes));
        prop_assert!(cc.alltoall_hierarchical(nodes, 16) < cc.alltoall_pairwise(nodes, 16));
    }

    #[test]
    fn projection_step_time_is_positive_and_decomposes(
        nodes_pow in 8u32..17,
        tokens in 64usize..4096,
    ) {
        let nodes = 1usize << nodes_pow;
        let p = project(&PerfInput {
            tokens_per_node: tokens,
            ..PerfInput::sunway_nodes(ModelConfig::bagualu_1_93t(), nodes)
        }).unwrap();
        prop_assert!(p.step_time > 0.0);
        let b = p.breakdown;
        let sum = b.dense_compute + b.gate_compute + b.expert_compute + b.a2a + b.allreduce;
        prop_assert!((sum - p.step_time).abs() < 1e-9);
        prop_assert!(p.efficiency > 0.0 && p.efficiency <= 1.0);
    }

    #[test]
    fn more_tokens_per_node_amortize_better(nodes_pow in 10u32..17) {
        let nodes = 1usize << nodes_pow;
        let small = project(&PerfInput {
            tokens_per_node: 128,
            ..PerfInput::sunway_nodes(ModelConfig::bagualu_1_93t(), nodes)
        }).unwrap();
        let big = project(&PerfInput {
            tokens_per_node: 4096,
            ..PerfInput::sunway_nodes(ModelConfig::bagualu_1_93t(), nodes)
        }).unwrap();
        // Throughput per token improves with batch (fixed costs amortized).
        prop_assert!(big.tokens_per_sec > small.tokens_per_sec);
    }

    #[test]
    fn memory_budget_is_monotone(
        dense in 1.0e6f64..1.0e10,
        experts in 0.0f64..1.0e13,
        nodes in 2usize..100_000,
    ) {
        let rep = MemoryBudget::per_node(dense, experts, nodes, 2.0, false, 0.0);
        let shard = MemoryBudget::per_node(dense, experts, nodes, 2.0, true, 0.0);
        prop_assert!(shard.total() <= rep.total());
        // More nodes → strictly less per-node expert state.
        let more = MemoryBudget::per_node(dense, experts, nodes * 2, 2.0, false, 0.0);
        prop_assert!(more.total() <= rep.total());
    }

    #[test]
    fn simnet_completion_never_beats_alpha_beta_floor(
        src in 0usize..64,
        dst in 0usize..64,
        kib in 1usize..512,
    ) {
        prop_assume!(src != dst);
        let m = MachineConfig::sunway_subset(64);
        let mut net = SimNet::new(m);
        let bytes = kib * 1024;
        let c = net.run(&[Message { src, dst, bytes, release: 0.0 }]);
        let floor = m.network.latency(m.same_supernode(src, dst))
            + bytes as f64 / m.network.intra_bw;
        prop_assert!(c[0].finish >= floor - 1e-12);
    }
}

#[test]
fn full_machine_headline_is_stable() {
    // Pin the headline projection so accidental cost-model regressions are
    // caught: sustained half-precision compute on the 14.5T preset at the
    // full machine must stay EFLOPS-order.
    let p = project(&PerfInput::sunway_full(ModelConfig::bagualu_14_5t())).unwrap();
    assert!(
        p.sustained_flops > 5e17 && p.sustained_flops < 5e18,
        "headline drifted: {:.3e}",
        p.sustained_flops
    );
}

#[test]
fn precision_ladder_orders_throughput() {
    let mk = |prec| {
        project(&PerfInput {
            precision: prec,
            ..PerfInput::sunway_full(ModelConfig::bagualu_14_5t())
        })
        .unwrap()
        .tokens_per_sec
    };
    let half = mk(Precision::Half);
    let fp32 = mk(Precision::FP32);
    let fp64 = mk(Precision::FP64);
    assert!(half > fp32);
    assert!(fp32 >= fp64);
}
