//! A fuller training workflow: train an MoE language model, checkpoint it,
//! corrupt the live weights, restore, and verify the model still predicts.
//!
//! Demonstrates the pieces a downstream user composes by hand when the
//! packaged [`Trainer`] is too rigid: the distributed model, explicit
//! optimizer, gradient sync, and sharded checkpointing.
//!
//! ```text
//! cargo run -p bagualu --release --example moe_language_model
//! ```

use bagualu::checkpoint::{load_params_sharded, save_params_sharded};
use bagualu::comm::harness::run_ranks_map;
use bagualu::comm::shm::Communicator;
use bagualu::comm::WireDType;
use bagualu::data::{SyntheticLM, TokenDistribution};
use bagualu::model::config::ModelConfig;
use bagualu::model::loss::{cross_entropy, perplexity};
use bagualu::model::param::HasParams;
use bagualu::optim::adam::AdamConfig;
use bagualu::optim::mixed::MixedPrecision;
use bagualu::parallel::model_dist::DistTransformer;
use bagualu::parallel::moe_dist::A2aKind;
use bagualu::parallel::sync::sync_grads_wire;
use bagualu::tensor::DType;

const NRANKS: usize = 2;
const BATCH: usize = 4;
const SEQ: usize = 8;
const STEPS: usize = 150;

fn main() {
    let model_cfg = ModelConfig {
        n_experts: 8,
        ..ModelConfig::tiny()
    };
    let task = SyntheticLM::new(model_cfg.vocab, TokenDistribution::Zipf(0.8), 77);
    let ckpt_dir = std::env::temp_dir().join(format!("bagualu-example-{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let ckpt = &ckpt_dir;
    let task_ref = &task;

    let finals = run_ranks_map(NRANKS, move |comm| {
        let rank = comm.rank();
        let mut model = DistTransformer::new(model_cfg, 2024, rank, NRANKS, A2aKind::Pairwise);
        let mut opt = MixedPrecision::new(
            AdamConfig {
                lr: 1e-2,
                ..Default::default()
            },
            DType::BF16,
        );
        opt.quantize_model(&mut model);

        // ---- Train.
        let mut last_loss = f32::NAN;
        for step in 0..STEPS {
            let (tokens, targets) = task_ref.batch(BATCH, SEQ, rank, step);
            let logits = model.forward(&tokens, BATCH, SEQ, &comm);
            let (loss, mut dlogits) = cross_entropy(&logits, &targets);
            dlogits.scale(opt.loss_scale());
            model.backward(&dlogits, &comm);
            sync_grads_wire(&mut model, &comm, WireDType::F32);
            opt.step(&mut model);
            last_loss = loss;
            if rank == 0 && step % 25 == 0 {
                println!(
                    "step {step:>4}: loss {loss:.4} (ppl {:.2})",
                    perplexity(loss)
                );
            }
        }

        // ---- Checkpoint this rank's shard (dense params are identical on
        // every rank; experts are disjoint, so shards together hold the
        // complete model exactly once per expert).
        let dir = ckpt.join(format!("rank{rank}"));
        save_params_sharded(&dir, &mut model, 2).unwrap();

        // ---- Sabotage the live weights, restore, verify.
        model.visit_params(&mut |p| p.value.fill(0.0));
        load_params_sharded(&dir, &mut model, 2).unwrap();
        let (tokens, targets) = task_ref.batch(BATCH, SEQ, rank, 0);
        let logits = model.forward(&tokens, BATCH, SEQ, &comm);
        let (restored_loss, _) = cross_entropy(&logits, &targets);
        (last_loss, restored_loss)
    });

    let (train_loss, restored_loss) = finals[0];
    println!("\nfinal training loss: {train_loss:.4}");
    println!("loss after zeroing weights and restoring the checkpoint: {restored_loss:.4}");
    assert!(
        restored_loss < 1.0,
        "restored model must still predict (got {restored_loss})"
    );
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    println!("ok: trained, checkpointed, restored, and verified.");
}
