//! End-to-end training-step benchmarks: local model and the distributed
//! MoDa step (4 ranks), pairwise vs hierarchical all-to-all.

use bagualu::comm::harness::run_ranks;
use bagualu::comm::WireDType;
use bagualu::model::config::ModelConfig;
use bagualu::model::param::HasParams;
use bagualu::model::transformer::Transformer;
use bagualu::parallel::model_dist::DistTransformer;
use bagualu::parallel::moe_dist::A2aKind;
use bagualu::parallel::sync::sync_grads_wire;
use bagualu::tensor::rng::Rng;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn cfg() -> ModelConfig {
    ModelConfig {
        vocab: 128,
        d_model: 64,
        n_heads: 4,
        n_layers: 2,
        d_ff: 128,
        max_seq: 32,
        n_experts: 8,
        ..ModelConfig::tiny()
    }
}

fn bench_local_step(c: &mut Criterion) {
    let cfg = cfg();
    let mut rng = Rng::seed_from(1);
    let mut model = Transformer::new(cfg, &mut rng);
    let tokens: Vec<usize> = (0..4 * 16).map(|i| i % cfg.vocab).collect();
    let targets: Vec<usize> = (0..4 * 16).map(|i| (i + 1) % cfg.vocab).collect();
    let mut g = c.benchmark_group("train_step_local");
    g.throughput(Throughput::Elements(tokens.len() as u64));
    g.bench_function("fwd_bwd_64_tokens", |bench| {
        bench.iter(|| {
            let s = model.train_batch(&tokens, &targets, 4, 16);
            model.zero_grad();
            s
        })
    });
    g.finish();
}

fn bench_dist_step(c: &mut Criterion) {
    let cfg = cfg();
    let mut g = c.benchmark_group("train_step_dist_4ranks");
    g.throughput(Throughput::Elements((4 * 16 * 4) as u64));
    for (name, a2a) in [
        ("pairwise", A2aKind::Pairwise),
        ("hierarchical", A2aKind::Hierarchical { supernode_size: 2 }),
    ] {
        g.bench_function(name, |bench| {
            bench.iter(|| {
                run_ranks(4, |comm| {
                    use bagualu::comm::shm::Communicator;
                    let mut model = DistTransformer::new(cfg, 7, comm.rank(), 4, a2a);
                    let tokens: Vec<usize> =
                        (0..4 * 16).map(|i| (i + comm.rank()) % cfg.vocab).collect();
                    let targets: Vec<usize> = (0..4 * 16).map(|i| (i + 1) % cfg.vocab).collect();
                    model.train_batch(&tokens, &targets, 4, 16, &comm);
                    sync_grads_wire(&mut model, &comm, WireDType::F32);
                });
            })
        });
    }
    g.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10)
}

criterion_group! {name = benches; config = quick(); targets = bench_local_step, bench_dist_step}
criterion_main!(benches);
