//! Train a small MoE decoder on a synthetic grammar and sample from it —
//! the "did we actually build a language model?" sanity example.
//!
//! The grammar: `next(t) = (5·t + 3) mod vocab`, a bijective successor map.
//! After training, greedy generation should walk the map.
//!
//! ```text
//! cargo run -p bagualu --release --example text_generation
//! ```

use bagualu::data::{SyntheticLM, TokenDistribution};
use bagualu::model::config::ModelConfig;
use bagualu::model::param::HasParams;
use bagualu::model::transformer::Transformer;
use bagualu::optim::adam::{Adam, AdamConfig};
use bagualu::optim::schedule::LrSchedule;
use bagualu::tensor::rng::Rng;

fn main() {
    let cfg = ModelConfig {
        vocab: 32,
        ..ModelConfig::tiny()
    };
    let mut rng = Rng::seed_from(11);
    let mut model = Transformer::new(cfg, &mut rng);
    let task = SyntheticLM::new(cfg.vocab, TokenDistribution::Uniform, 11);
    let mut opt = Adam::new(AdamConfig {
        lr: 0.0,
        ..Default::default()
    });
    let schedule = LrSchedule::WarmupCosine {
        peak: 2e-2,
        warmup: 20,
        total: 400,
        floor: 1e-3,
    };

    println!(
        "training a {}-param MoE decoder on the synthetic grammar…",
        model.num_params()
    );
    for step in 0..400 {
        let (tokens, targets) = task.batch(4, 8, 0, step);
        let stats = model.train_batch(&tokens, &targets, 4, 8);
        opt.set_lr(schedule.at(step));
        opt.step(&mut model);
        if step % 80 == 0 {
            println!(
                "  step {step:>3}: loss {:.4} (lr {:.4})",
                stats.ce_loss,
                schedule.at(step)
            );
        }
    }

    println!("\ngreedy generation (prompt → continuation):");
    let mut correct = 0;
    let mut total = 0;
    for start in [1usize, 7, 19] {
        let prompt = vec![start, task.target_of(start)];
        let out = model.generate(&prompt, 8);
        let pretty: Vec<String> = out.iter().map(|t| t.to_string()).collect();
        // Count how many generated transitions follow the grammar.
        let follow = out
            .windows(2)
            .filter(|w| w[1] == task.target_of(w[0]))
            .count();
        correct += follow;
        total += out.len() - 1;
        println!(
            "  [{}] → {}  ({follow}/{} transitions on-grammar)",
            prompt
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            pretty.join(" "),
            out.len() - 1
        );
    }
    let acc = correct as f64 / total as f64;
    println!("\noverall on-grammar transition rate: {:.0}%", acc * 100.0);
    assert!(acc > 0.8, "generation quality too low: {acc}");
    println!("ok: the trained decoder reproduces the grammar it was taught.");
}
