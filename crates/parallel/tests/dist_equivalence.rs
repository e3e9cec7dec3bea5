//! Semantic equivalence: an R-rank MoDa-parallel step must reproduce the
//! single-rank step over the concatenated global batch.
//!
//! This is the load-bearing correctness property of the whole runtime: the
//! all-to-all dispatch/combine, the expert sharding, and the gradient
//! synchronization rules are all exercised at once, with the local
//! `MoELayer`-based `Transformer` as the oracle.

use bagualu_comm::harness::{run_ranks, run_ranks_map};
use bagualu_comm::payload::WireDType;
use bagualu_comm::shm::Communicator;
use bagualu_model::config::ModelConfig;
use bagualu_model::moe::GateKind;
use bagualu_model::param::HasParams;
use bagualu_model::transformer::Transformer;
use bagualu_parallel::model_dist::DistTransformer;
use bagualu_parallel::moe_dist::A2aKind;
use bagualu_parallel::sync::{check_replica_consistency, sync_grads_wire};
use bagualu_tensor::rng::Rng;
use bagualu_tensor::Tensor;

/// Config with loose capacity and no aux loss so local and distributed
/// routing agree exactly (capacity is computed over local token counts).
fn cfg() -> ModelConfig {
    ModelConfig {
        vocab: 31,
        d_model: 16,
        n_heads: 2,
        n_layers: 2,
        d_ff: 32,
        max_seq: 8,
        n_experts: 4,
        moe_every: 2,
        gate: GateKind::Top2,
        capacity_factor: 64.0,
        aux_weight: 0.0,
        router_groups: 0,
        rope: false,
        tie_embeddings: false,
    }
}

fn global_batch(
    cfg: &ModelConfig,
    nranks: usize,
    per_rank: usize,
    seq: usize,
) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::seed_from(99);
    let n = nranks * per_rank * seq;
    let tokens: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    let targets: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    (tokens, targets)
}

fn rank_shard(all: &[usize], rank: usize, per_rank: usize, seq: usize) -> Vec<usize> {
    let lo = rank * per_rank * seq;
    all[lo..lo + per_rank * seq].to_vec()
}

#[test]
fn forward_matches_local_model() {
    let cfg = cfg();
    let (nranks, per_rank, seq) = (2usize, 2usize, 4usize);
    let (tokens, _) = global_batch(&cfg, nranks, per_rank, seq);

    // Oracle: single model over the whole batch.
    let mut rng = Rng::seed_from(7);
    let mut local = Transformer::new(cfg, &mut rng);
    let expect = local.forward(&tokens, nranks * per_rank, seq);

    let tokens_ref = &tokens;
    let local_ref = &local;
    run_ranks(nranks, move |c| {
        let mut dist = DistTransformer::from_local(local_ref, c.rank(), nranks, A2aKind::Pairwise);
        let shard = rank_shard(tokens_ref, c.rank(), per_rank, seq);
        let logits = dist.forward(&shard, per_rank, seq, &c);
        let expect_shard =
            expect.slice_rows(c.rank() * per_rank * seq, (c.rank() + 1) * per_rank * seq);
        assert!(
            logits.approx_eq(&expect_shard, 1e-4),
            "rank {} logits diverge from local oracle",
            c.rank()
        );
    });
}

#[test]
fn hierarchical_a2a_matches_pairwise() {
    let cfg = cfg();
    let (nranks, per_rank, seq) = (4usize, 1usize, 4usize);
    let (tokens, _) = global_batch(&cfg, nranks, per_rank, seq);

    let mut rng = Rng::seed_from(8);
    let local = Transformer::new(cfg, &mut rng);
    let tokens_ref = &tokens;
    let local_ref = &local;

    let flat = run_ranks_map(nranks, move |c| {
        let mut dist = DistTransformer::from_local(local_ref, c.rank(), nranks, A2aKind::Pairwise);
        let shard = rank_shard(tokens_ref, c.rank(), per_rank, seq);
        dist.forward(&shard, per_rank, seq, &c).into_vec()
    });
    let hier = run_ranks_map(nranks, move |c| {
        let mut dist = DistTransformer::from_local(
            local_ref,
            c.rank(),
            nranks,
            A2aKind::Hierarchical { supernode_size: 2 },
        );
        let shard = rank_shard(tokens_ref, c.rank(), per_rank, seq);
        dist.forward(&shard, per_rank, seq, &c).into_vec()
    });
    for (a, b) in flat.iter().zip(&hier) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-5, "a2a algorithms disagree: {x} vs {y}");
        }
    }
}

#[test]
fn synced_gradients_match_local_model() {
    let cfg = cfg();
    let (nranks, per_rank, seq) = (2usize, 2usize, 4usize);
    let (tokens, targets) = global_batch(&cfg, nranks, per_rank, seq);

    // Oracle gradients over the global batch.
    let mut rng = Rng::seed_from(9);
    let mut local = Transformer::new(cfg, &mut rng);
    local.train_batch(&tokens, &targets, nranks * per_rank, seq);
    let mut oracle: Vec<(String, Tensor)> = Vec::new();
    local.visit_params(&mut |p| oracle.push((p.name.clone(), p.grad.clone())));
    let oracle_map: std::collections::HashMap<String, Tensor> = oracle.into_iter().collect();

    let (tokens_ref, targets_ref, local_ref, oracle_ref) = (&tokens, &targets, &local, &oracle_map);
    run_ranks(nranks, move |c| {
        let mut dist = DistTransformer::from_local(local_ref, c.rank(), nranks, A2aKind::Pairwise);
        let tok = rank_shard(tokens_ref, c.rank(), per_rank, seq);
        let tgt = rank_shard(targets_ref, c.rank(), per_rank, seq);
        dist.train_batch(&tok, &tgt, per_rank, seq, &c);
        sync_grads_wire(&mut dist, &c, WireDType::F32);

        // Every parameter this rank holds must now carry the oracle's
        // global-batch gradient.
        dist.visit_params(&mut |p| {
            let want = &oracle_ref[&p.name];
            let max_diff = p
                .grad
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(
                p.grad.approx_eq(want, 5e-3),
                "rank {}: grad mismatch for {} (|Δ|max = {max_diff}, ‖want‖ = {})",
                c.rank(),
                p.name,
                want.norm()
            );
        });
    });
}

#[test]
fn multi_step_training_keeps_replicas_consistent_and_learns() {
    let cfg = cfg();
    let (nranks, per_rank, seq) = (4usize, 1usize, 8usize);
    let (tokens, targets) = global_batch(&cfg, nranks, per_rank, seq);
    let (tokens_ref, targets_ref) = (&tokens, &targets);

    let losses = run_ranks_map(nranks, move |c| {
        let mut dist = DistTransformer::new(cfg, 1234, c.rank(), nranks, A2aKind::Pairwise);
        let tok = rank_shard(tokens_ref, c.rank(), per_rank, seq);
        let tgt = rank_shard(targets_ref, c.rank(), per_rank, seq);
        let mut first = 0.0f32;
        let mut last = 0.0f32;
        for step in 0..25 {
            let stats = dist.train_batch(&tok, &tgt, per_rank, seq, &c);
            sync_grads_wire(&mut dist, &c, WireDType::F32);
            // Plain SGD, identical on every rank for dense params.
            dist.visit_params(&mut |p| {
                let g = p.grad.clone();
                p.value.axpy(-0.5, &g);
            });
            dist.zero_grad();
            if step == 0 {
                first = stats.ce_loss;
            }
            last = stats.ce_loss;
        }
        let divergence = check_replica_consistency(&mut dist, &c);
        assert!(divergence < 1e-4, "replicas diverged by {divergence}");
        (first, last)
    });

    // Every rank's loss must drop substantially on its memorizable batch.
    for (rank, (first, last)) in losses.iter().enumerate() {
        assert!(
            last < &(first * 0.7),
            "rank {rank} did not learn: {first} -> {last}"
        );
    }
}

#[test]
fn expert_shards_partition_the_expert_set() {
    let cfg = cfg();
    let mut rng = Rng::seed_from(11);
    let local = Transformer::new(cfg, &mut rng);
    let total: usize = (0..2)
        .map(|r| {
            let dist = DistTransformer::from_local(&local, r, 2, A2aKind::Pairwise);
            dist.local_experts_per_block()
        })
        .sum();
    assert_eq!(total, cfg.n_experts);
}

#[test]
fn dense_param_order_is_rank_invariant() {
    let cfg = cfg();
    let mut rng = Rng::seed_from(12);
    let local = Transformer::new(cfg, &mut rng);
    let names: Vec<Vec<String>> = (0..3)
        .map(|r| {
            let mut dist = DistTransformer::from_local(&local, r, 3, A2aKind::Pairwise);
            let mut v = Vec::new();
            dist.visit_dense_params(&mut |p| v.push(p.name.clone()));
            v
        })
        .collect();
    assert_eq!(names[0], names[1]);
    assert_eq!(names[1], names[2]);
}
