//! Bucketed, overlapped gradient sync must be numerically equivalent to
//! the monolithic blocking [`sync_grads_wire`] — the property the nonblocking
//! communication refactor is not allowed to break.
//!
//! Equivalence is up to all-reduce summation order: buckets partition the
//! gradient stream differently than the single flatten, so sums may differ
//! in the last bits. The tolerance below covers that.

use bagualu_comm::harness::run_ranks_map;
use bagualu_comm::payload::WireDType;
use bagualu_comm::shm::Communicator;
use bagualu_model::config::ModelConfig;
use bagualu_model::loss::cross_entropy;
use bagualu_model::moe::GateKind;
use bagualu_model::transformer::Transformer;
use bagualu_parallel::model_dist::DistTransformer;
use bagualu_parallel::moe_dist::A2aKind;
use bagualu_parallel::sync::{backward_and_sync_overlapped_wire, sync_grads_wire};
use bagualu_tensor::rng::Rng;
use proptest::prelude::*;

fn cfg(n_experts: usize) -> ModelConfig {
    ModelConfig {
        vocab: 19,
        d_model: 8,
        n_heads: 2,
        n_layers: 2,
        d_ff: 16,
        max_seq: 6,
        n_experts,
        moe_every: 2,
        gate: GateKind::Top2,
        capacity_factor: 64.0,
        aux_weight: 0.0,
        router_groups: 0,
        rope: false,
        tie_embeddings: false,
    }
}

/// (dense_a, dense_b, expert_a, expert_b) gradient flats.
type GradFlats = (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>);

/// Run one backward on each of two identical replicas of the same sharded
/// model — one synced monolithically, one synced bucketed/overlapped — and
/// return the per-rank gradient flats.
fn grads_both_ways(
    cfg: ModelConfig,
    nranks: usize,
    bucket_bytes: usize,
    seed: u64,
    wire: WireDType,
) -> Vec<GradFlats> {
    let per_rank = 2usize;
    let seq = 4usize;
    let mut data_rng = Rng::seed_from(seed);
    let tokens: Vec<usize> = (0..nranks * per_rank * seq)
        .map(|_| data_rng.below(cfg.vocab))
        .collect();
    let targets: Vec<usize> = (0..nranks * per_rank * seq)
        .map(|_| data_rng.below(cfg.vocab))
        .collect();

    let mut rng = Rng::seed_from(seed ^ 0x5EED);
    let local = Transformer::new(cfg, &mut rng);

    let (tokens_ref, targets_ref, local_ref) = (&tokens, &targets, &local);
    run_ranks_map(nranks, move |c| {
        let lo = c.rank() * per_rank * seq;
        let shard = &tokens_ref[lo..lo + per_rank * seq];
        let tshard = &targets_ref[lo..lo + per_rank * seq];

        let run_one = |overlapped: bool| {
            let mut m = DistTransformer::from_local(local_ref, c.rank(), nranks, A2aKind::Pairwise);
            let logits = m.forward(shard, per_rank, seq, &c);
            let (_, dlogits) = cross_entropy(&logits, tshard);
            if overlapped {
                let stats =
                    backward_and_sync_overlapped_wire(&mut m, &dlogits, &c, bucket_bytes, wire);
                assert_eq!(stats.ring_steps, stats.buckets * 2 * (nranks - 1));
                assert!(stats.ring_steps_overlapped <= stats.ring_steps);
                assert!(stats.dense_scalars > 0);
                // One tag per in-flight bucket, and there are 4096 of them.
                assert!(stats.buckets <= 4096, "{} buckets in flight", stats.buckets);
            } else {
                m.backward(&dlogits, &c);
                sync_grads_wire(&mut m, &c, WireDType::F32);
            }
            let mut dense = Vec::new();
            m.visit_dense_params(&mut |p| dense.extend_from_slice(p.grad.as_slice()));
            let mut expert = Vec::new();
            m.visit_expert_params(&mut |p| expert.extend_from_slice(p.grad.as_slice()));
            (dense, expert)
        };

        let (dense_a, expert_a) = run_one(false);
        let (dense_b, expert_b) = run_one(true);
        (dense_a, dense_b, expert_a, expert_b)
    })
}

fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str, rank: usize) {
    assert_eq!(a.len(), b.len(), "{what} length mismatch on rank {rank}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{what}[{i}] diverged on rank {rank}: {x} vs {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn bucketed_sync_matches_monolithic(
        nranks_sel in 0usize..3,
        bucket_sel in 0usize..4,
        seed in 0u64..1000,
    ) {
        let nranks = [1usize, 2, 4][nranks_sel];
        // From "everything straddles" (single scalars per bucket would be
        // 4 B; 64 B splits most tensors) up to "one bucket fits all".
        let bucket_bytes = [64usize, 1 << 10, 1 << 14, 1 << 22][bucket_sel];
        for (rank, (dense_a, dense_b, expert_a, expert_b)) in
            grads_both_ways(cfg(nranks * 2), nranks, bucket_bytes, seed, WireDType::F32).into_iter().enumerate()
        {
            assert_close(&dense_a, &dense_b, 1e-5, "dense grad", rank);
            assert_close(&expert_a, &expert_b, 1e-6, "expert grad", rank);
        }
    }

    #[test]
    fn bucketed_sync_over_bf16_wire_tracks_monolithic(
        nranks_sel in 0usize..3,
        bucket_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        // Same equivalence as above, but the overlapped side ships its
        // buckets as bf16. Each ring hop rounds once to 8 mantissa bits, so
        // the dense gradients may drift by ~hops · 2⁻⁸ relative; expert
        // gradients never leave the rank and must stay at the f32 bound.
        let nranks = [1usize, 2, 4][nranks_sel];
        let bucket_bytes = [64usize, 1 << 12, 1 << 22][bucket_sel];
        let hops = (2 * nranks.saturating_sub(1)).max(1) as f32;
        let tol = hops * (1.0 / 256.0);
        for (rank, (dense_a, dense_b, expert_a, expert_b)) in
            grads_both_ways(cfg(nranks * 2), nranks, bucket_bytes, seed, WireDType::BF16).into_iter().enumerate()
        {
            assert_close(&dense_a, &dense_b, tol, "dense grad (bf16 wire)", rank);
            assert_close(&expert_a, &expert_b, 1e-6, "expert grad (bf16 wire)", rank);
        }
    }
}

#[test]
fn replica_consistency_check_is_clean_after_overlapped_sync() {
    // After an overlapped sync + identical deterministic updates, replicas
    // must still agree bit-for-bit; the chunked early-exit checker should
    // report zero divergence (and a deliberate perturbation must be caught).
    let nranks = 4;
    let results = run_ranks_map(nranks, move |c| {
        let mut m = DistTransformer::new(cfg(nranks * 2), 9, c.rank(), nranks, A2aKind::Pairwise);
        let mut rng = Rng::seed_from(7 + c.rank() as u64);
        let tokens: Vec<usize> = (0..2 * 4).map(|_| rng.below(19)).collect();
        let targets: Vec<usize> = (0..2 * 4).map(|_| rng.below(19)).collect();
        let logits = m.forward(&tokens, 2, 4, &c);
        let (_, dlogits) = cross_entropy(&logits, &targets);
        backward_and_sync_overlapped_wire(&mut m, &dlogits, &c, 1 << 10, WireDType::F32);
        // Apply a plain SGD update: deterministic on identical grads.
        m.visit_dense_params(&mut |p| {
            let g: Vec<f32> = p.grad.as_slice().to_vec();
            for (w, gi) in p.value.as_mut_slice().iter_mut().zip(g) {
                *w -= 0.1 * gi;
            }
        });
        let clean = bagualu_parallel::check_replica_consistency(&mut m, &c);
        // Perturb one weight on one rank and re-check: must be detected.
        if c.rank() == 2 {
            m.visit_dense_params(&mut |p| {
                p.value.as_mut_slice()[0] += 0.5;
            });
        }
        let dirty = bagualu_parallel::check_replica_consistency(&mut m, &c);
        (clean, dirty)
    });
    for (clean, dirty) in results {
        assert_eq!(clean, 0.0, "replicas diverged after overlapped sync");
        assert!(dirty >= 0.5, "perturbation not detected: {dirty}");
    }
}

#[test]
fn more_dense_scalars_than_bucket_tags_still_match_monolithic() {
    // 4-byte buckets would give every dense scalar a ring of its own, more
    // rings than there are bucket tags. The bucketer must widen its buckets
    // instead: two rings in flight on one tag could swap chunks.
    let wide = ModelConfig {
        d_model: 32,
        d_ff: 64,
        ..cfg(4)
    };
    for (rank, (dense_a, dense_b, expert_a, expert_b)) in
        grads_both_ways(wide, 2, 4, 11, WireDType::F32)
            .into_iter()
            .enumerate()
    {
        assert!(dense_a.len() > 4096, "{} dense scalars", dense_a.len());
        assert_close(&dense_a, &dense_b, 1e-5, "dense grad", rank);
        assert_close(&expert_a, &expert_b, 1e-6, "expert grad", rank);
    }
}
