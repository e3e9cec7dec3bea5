//! The kitchen-sink integration test: tokenizer → distributed MoDa
//! training (hierarchical all-to-all, bf16 mixed precision, LR schedule)
//! → sharded checkpoint → restore into a *different* rank layout →
//! KV-cached generation → decoded text. Every major subsystem in one flow.

use bagualu::checkpoint::{load_params_from_files, save_params};
use bagualu::comm::harness::run_ranks_map;
use bagualu::comm::shm::Communicator;
use bagualu::comm::WireDType;
use bagualu::model::config::ModelConfig;
use bagualu::model::loss::cross_entropy;
use bagualu::model::param::HasParams;
use bagualu::model::transformer::Transformer;
use bagualu::optim::adam::AdamConfig;
use bagualu::optim::mixed::MixedPrecision;
use bagualu::optim::schedule::LrSchedule;
use bagualu::parallel::model_dist::DistTransformer;
use bagualu::parallel::moe_dist::A2aKind;
use bagualu::parallel::sync::sync_grads_wire;
use bagualu::tensor::rng::Rng;
use bagualu::tensor::DType;
use bagualu::tokenizer::Bpe;

const CORPUS: &str = "the gate sends the tokens to the experts and the experts answer \
the gate. the tokens travel to the experts and the experts answer. \
the gate learns and the tokens travel. the experts answer the gate. ";

#[test]
fn tokenize_train_checkpoint_repartition_generate() {
    // ---- 1. Tokenize a real corpus.
    let bpe = Bpe::train(CORPUS, 300);
    let stream = bpe.encode(CORPUS);
    assert_eq!(bpe.decode(&stream), CORPUS);

    let cfg = ModelConfig {
        vocab: bpe.vocab_size(),
        d_model: 32,
        n_heads: 4,
        n_layers: 2,
        d_ff: 64,
        max_seq: 32,
        n_experts: 4,
        rope: true,
        tie_embeddings: true,
        ..ModelConfig::tiny()
    };
    const SEQ: usize = 8;
    const BATCH: usize = 4;
    const NRANKS: usize = 2;

    let dir = std::env::temp_dir().join(format!("bagualu-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // ---- 2. Distributed training on the token stream.
    let (stream_ref, dir_ref) = (&stream, &dir);
    let losses = run_ranks_map(NRANKS, move |comm| {
        let rank = comm.rank();
        let mut model = DistTransformer::new(
            cfg,
            909,
            rank,
            NRANKS,
            A2aKind::Hierarchical { supernode_size: 1 },
        );
        let mut opt = MixedPrecision::new(
            AdamConfig {
                lr: 0.0,
                ..Default::default()
            },
            DType::BF16,
        );
        opt.quantize_model(&mut model);
        let schedule = LrSchedule::WarmupCosine {
            peak: 5e-3,
            warmup: 10,
            total: 200,
            floor: 5e-4,
        };
        let mut data_rng = Rng::for_rank(33, rank);
        let mut last = f32::NAN;
        let mut first = f32::NAN;
        for step in 0..200 {
            opt.set_lr(schedule.at(step));
            let mut tokens = Vec::with_capacity(BATCH * SEQ);
            let mut targets = Vec::with_capacity(BATCH * SEQ);
            for _ in 0..BATCH {
                let start = data_rng.below(stream_ref.len() - SEQ - 1);
                tokens.extend_from_slice(&stream_ref[start..start + SEQ]);
                targets.extend_from_slice(&stream_ref[start + 1..start + SEQ + 1]);
            }
            let logits = model.forward(&tokens, BATCH, SEQ, &comm);
            let (loss, mut dlogits) = cross_entropy(&logits, &targets);
            dlogits.scale(opt.loss_scale());
            model.backward(&dlogits, &comm);
            sync_grads_wire(&mut model, &comm, WireDType::F32);
            opt.step(&mut model);
            model.zero_grad();
            if step == 0 {
                first = loss;
            }
            last = loss;
        }
        // ---- 3. Checkpoint this rank's shard.
        save_params(dir_ref.join(format!("rank{rank}.bglu")), &mut model).unwrap();
        (first, last)
    });
    for (rank, (first, last)) in losses.iter().enumerate() {
        assert!(
            last < &(first * 0.2),
            "rank {rank} did not learn: {first} -> {last}"
        );
    }

    // ---- 4. Restore into a single-rank *local* model (repartitioning from
    // 2 distributed shards to 1 full model) and generate text.
    let mut local = Transformer::new(cfg, &mut Rng::seed_from(1));
    let paths: Vec<_> = (0..NRANKS)
        .map(|r| dir.join(format!("rank{r}.bglu")))
        .collect();
    load_params_from_files(&paths, &mut local).unwrap();

    let prompt = bpe.encode("the gate");
    let out = local.generate_cached(&prompt, 16.min(cfg.max_seq - prompt.len()));
    let text = bpe.decode(&out);
    let known: std::collections::HashSet<&str> = CORPUS.split_whitespace().collect();
    let words: Vec<&str> = text.split_whitespace().collect();
    let on_corpus = words.iter().filter(|w| known.contains(*w)).count();
    assert!(
        on_corpus * 2 >= words.len(),
        "restored model generated off-corpus text: {text:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
