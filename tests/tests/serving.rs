//! Serving bit-identity pins.
//!
//! Continuous batching and expert-parallel decode are *scheduling*
//! choices: whichever sequences share a batch, whenever they arrive or
//! finish, and however many ranks split the experts, each request must
//! decode to exactly the tokens `Transformer::generate_cached` produces
//! from the same weights. These tests pin that invariant — a plain
//! deterministic pin first, then a property test over random
//! arrival/finish schedules, then the distributed engine against the
//! single-rank oracle.

use bagualu_comm::harness::run_ranks_map;
use bagualu_model::config::ModelConfig;
use bagualu_model::moe::GateKind;
use bagualu_model::transformer::Transformer;
use bagualu_parallel::model_dist::DistTransformer;
use bagualu_parallel::moe_dist::A2aKind;
use bagualu_parallel::placement::ExpertPlacement;
use bagualu_serve::{run, Engine, EngineConfig, Request, ServerOptions};
use bagualu_tensor::rng::Rng;
use proptest::prelude::*;

/// A small serving model: MoE every other block, deterministic Top2 gate
/// (the inference router is dropless, so the capacity factor is inert at
/// decode time and only shapes training).
fn cfg() -> ModelConfig {
    ModelConfig {
        vocab: 23,
        d_model: 8,
        n_heads: 2,
        n_layers: 2,
        d_ff: 16,
        max_seq: 12,
        n_experts: 4,
        moe_every: 2,
        gate: GateKind::Top2,
        capacity_factor: 2.0,
        aux_weight: 0.0,
        router_groups: 0,
        rope: false,
        tie_embeddings: false,
    }
}

/// The sequential oracle: each prompt decoded alone by the single-rank
/// reference path.
fn oracle(cfg: ModelConfig, seed: u64, jobs: &[(Vec<usize>, usize)]) -> Vec<Vec<usize>> {
    let mut rng = Rng::seed_from(seed);
    let mut model = Transformer::new(cfg, &mut rng);
    jobs.iter()
        .map(|(prompt, max_new)| model.generate_cached(prompt, *max_new))
        .collect()
}

/// Drive one single-rank engine over an arrival schedule: request `i` is
/// submitted just before engine step `arrivals[i]`. Steps keep running
/// (idle or not) until every request has arrived and completed.
fn run_schedule(
    cfg: ModelConfig,
    seed: u64,
    engine_cfg: EngineConfig,
    jobs: &[(Vec<usize>, usize)],
    arrivals: &[usize],
) -> Vec<Vec<usize>> {
    assert_eq!(jobs.len(), arrivals.len());
    let results = run_ranks_map(1, |comm| {
        let mut rng = Rng::seed_from(seed);
        let local = Transformer::new(cfg, &mut rng);
        let model = DistTransformer::from_local(&local, 0, 1, A2aKind::Pairwise);
        let mut eng = Engine::new(model, engine_cfg);
        let mut step = 0usize;
        let mut submitted = 0usize;
        loop {
            for (id, (job, &at)) in jobs.iter().zip(arrivals).enumerate() {
                if at == step {
                    eng.submit(Request::new(id as u64, job.0.clone(), job.1))
                        .expect("schedules only contain feasible requests");
                    submitted += 1;
                }
            }
            if submitted == jobs.len() && eng.local_work() == 0 {
                break;
            }
            eng.step(&comm);
            step += 1;
            assert!(step < 10_000, "schedule failed to converge");
        }
        let mut done = eng.take_finished();
        assert_eq!(
            eng.pool().used_blocks(),
            0,
            "all KV blocks must be returned"
        );
        done.sort_by_key(|r| r.id);
        done.into_iter().map(|r| r.tokens).collect::<Vec<_>>()
    });
    results.into_iter().next().unwrap()
}

#[test]
fn staggered_arrivals_match_the_sequential_oracle() {
    let jobs: Vec<(Vec<usize>, usize)> = vec![
        (vec![3, 7, 1], 6),
        (vec![5], 4),
        (vec![2, 2, 9, 4], 3),
        (vec![11, 0], 5),
    ];
    let want = oracle(cfg(), 300, &jobs);
    // Requests trickle in while earlier ones are mid-decode, with a batch
    // cap that forces queueing: the full continuous-batching path.
    let got = run_schedule(
        cfg(),
        300,
        EngineConfig {
            max_batch: 2,
            kv_blocks: 16,
            block_tokens: 2,
        },
        &jobs,
        &[0, 1, 1, 4],
    );
    assert_eq!(got, want, "batch composition changed decoded tokens");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    // Any feasible request mix, any arrival schedule, any batch cap, any
    // block size, any (sufficient) pool: tokens match the sequential
    // oracle bit for bit. Tight pools exercise re-queued admissions;
    // small batch caps exercise queueing; arrivals mid-decode exercise
    // join-in-flight; different `max_new` exercise finish-and-detach.
    #[test]
    fn continuous_batching_is_invisible(
        jobs in proptest::collection::vec(
            (proptest::collection::vec(0usize..23, 1..6), 1usize..6),
            1..6,
        ),
        arrivals_raw in proptest::collection::vec(0usize..7, 5),
        max_batch in 1usize..4,
        block_tokens in 1usize..5,
        seed in 0u64..1000,
    ) {
        let arrivals = &arrivals_raw[..jobs.len()];
        let want = oracle(cfg(), seed, &jobs);
        let engine_cfg = EngineConfig {
            // 12 blocks always fit one request (≤ 9 positions even at
            // block_tokens 1) but not always the whole mix — admission
            // back-pressure is part of the sampled space.
            max_batch,
            kv_blocks: 12,
            block_tokens,
        };
        let got = run_schedule(cfg(), seed, engine_cfg, &jobs, arrivals);
        prop_assert_eq!(got, want);
    }
}

#[test]
fn distributed_serving_matches_the_single_rank_oracle() {
    // Supernode-blocked placement under the hierarchical exchange — the
    // deployment shape — with zero locality bias (bias is rank-relative
    // and intentionally changes routing; identity holds only without it).
    let jobs: Vec<(Vec<usize>, usize)> = vec![
        (vec![4, 9], 5),
        (vec![8, 1, 1], 4),
        (vec![2], 6),
        (vec![7, 7, 7, 3], 3),
        (vec![0, 13], 5),
    ];
    let want = oracle(cfg(), 77, &jobs);

    let report = run(
        ServerOptions {
            nranks: 4,
            engine: EngineConfig {
                max_batch: 2,
                kv_blocks: 16,
                block_tokens: 4,
            },
            trace: false,
        },
        |rank| {
            DistTransformer::new_placed(
                cfg(),
                77,
                rank,
                4,
                A2aKind::Hierarchical { supernode_size: 2 },
                ExpertPlacement::Supernode { supernode_size: 2 },
            )
        },
        |client| {
            let tickets: Vec<_> = jobs
                .iter()
                .map(|(p, n)| client.submit(p.clone(), *n))
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().expect("feasible request").tokens)
                .collect::<Vec<_>>()
        },
    );
    assert_eq!(report.output, want, "expert-parallel serving diverged");
}

#[test]
fn world_sizes_agree_with_each_other() {
    // The same request set served on 1, 2, and 4 ranks produces identical
    // tokens: expert placement and the all-to-all path are pure data
    // movement at decode time too.
    let jobs: Vec<(Vec<usize>, usize)> = vec![(vec![6, 2], 5), (vec![1, 1, 4], 4), (vec![9], 6)];
    let serve_on = |nranks: usize| {
        run(
            ServerOptions {
                nranks,
                engine: EngineConfig {
                    max_batch: 3,
                    kv_blocks: 16,
                    block_tokens: 2,
                },
                trace: false,
            },
            |rank| DistTransformer::new(cfg(), 55, rank, nranks, A2aKind::Pairwise),
            |client| {
                let tickets: Vec<_> = jobs
                    .iter()
                    .map(|(p, n)| client.submit(p.clone(), *n))
                    .collect();
                tickets
                    .into_iter()
                    .map(|t| t.wait().expect("feasible request").tokens)
                    .collect::<Vec<_>>()
            },
        )
        .output
    };
    let one = serve_on(1);
    assert_eq!(serve_on(2), one, "2-rank serving diverged from 1-rank");
    assert_eq!(serve_on(4), one, "4-rank serving diverged from 1-rank");
}

#[test]
fn one_dead_rank_fails_the_server_instead_of_hanging() {
    // Rank 1 cannot build its shard. Rank 0 must not wait for it in the
    // per-step consensus for good: `run` panics, within the watchdog.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let served = std::panic::catch_unwind(|| {
            run(
                ServerOptions {
                    nranks: 2,
                    engine: EngineConfig {
                        max_batch: 2,
                        kv_blocks: 16,
                        block_tokens: 2,
                    },
                    trace: false,
                },
                |rank| {
                    assert_ne!(rank, 1, "rank 1 cannot build its shard");
                    DistTransformer::new(cfg(), 55, rank, 2, A2aKind::Pairwise)
                },
                |client| client.submit(vec![6, 2], 3).wait().map(|r| r.tokens),
            )
        });
        let _ = tx.send(served.is_err());
    });
    let panicked = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("serve::run still blocked 30 s after a rank died");
    assert!(panicked, "serve::run returned although a rank died");
}
