//! End-to-end *text* language modelling: train a byte-pair tokenizer on a
//! corpus, train an MoE decoder (with RoPE) on the token stream, and decode
//! a continuation back to text.
//!
//! ```text
//! cargo run -p bagualu --release --example text_corpus_lm
//! ```

use bagualu::model::config::ModelConfig;
use bagualu::model::param::HasParams;
use bagualu::model::transformer::Transformer;
use bagualu::optim::adam::{Adam, AdamConfig};
use bagualu::tensor::rng::Rng;
use bagualu::tokenizer::Bpe;

const CORPUS: &str = "the brain has a hundred trillion synapses. \
training a model with a hundred trillion parameters needs a hundred \
thousand nodes. the experts hold the parameters and the tokens travel \
to the experts. the gate sends the tokens and the experts answer. \
the brain has a hundred trillion synapses and the machine has forty \
million cores. the tokens travel and the gate learns where to send them. ";

const SEQ: usize = 16;
const BATCH: usize = 8;

fn main() {
    // 1. Tokenizer.
    let bpe = Bpe::train(CORPUS, 320);
    let stream = bpe.encode(CORPUS);
    println!(
        "tokenizer: vocab {} | corpus {} bytes → {} tokens ({:.2} bytes/token)",
        bpe.vocab_size(),
        CORPUS.len(),
        stream.len(),
        bpe.bytes_per_token(CORPUS)
    );
    assert!(
        stream.len() > SEQ * 2,
        "corpus too short after tokenization"
    );

    // 2. Model: RoPE decoder with a small expert pool.
    let cfg = ModelConfig {
        vocab: bpe.vocab_size(),
        d_model: 48,
        n_heads: 4,
        n_layers: 2,
        d_ff: 96,
        max_seq: 64,
        n_experts: 4,
        rope: true,
        ..ModelConfig::tiny()
    };
    let mut rng = Rng::seed_from(2026);
    let mut model = Transformer::new(cfg, &mut rng);
    let mut opt = Adam::new(AdamConfig {
        lr: 3e-3,
        ..Default::default()
    });
    println!(
        "model: {} parameters (RoPE, {} experts)\n",
        model.num_params(),
        cfg.n_experts
    );

    // 3. Train on random windows of the real token stream.
    let mut data_rng = Rng::seed_from(7);
    for step in 0..600 {
        let mut tokens = Vec::with_capacity(BATCH * SEQ);
        let mut targets = Vec::with_capacity(BATCH * SEQ);
        for _ in 0..BATCH {
            let start = data_rng.below(stream.len() - SEQ - 1);
            tokens.extend_from_slice(&stream[start..start + SEQ]);
            targets.extend_from_slice(&stream[start + 1..start + SEQ + 1]);
        }
        let stats = model.train_batch(&tokens, &targets, BATCH, SEQ);
        opt.step(&mut model);
        if step % 100 == 0 {
            println!("step {step:>3}: loss {:.4}", stats.ce_loss);
        }
    }

    // 4. Decode a continuation of a corpus prefix.
    let prompt_text = "the brain has";
    let prompt = bpe.encode(prompt_text);
    let out = model.generate_cached(&prompt, 24.min(cfg.max_seq - prompt.len()));
    let text = bpe.decode(&out);
    println!("\nprompt: {prompt_text:?}");
    println!("continuation: {text:?}");

    // The model memorized a tiny corpus: the continuation must reuse corpus
    // vocabulary (every decoded word appears in the training text).
    let known: std::collections::HashSet<&str> = CORPUS.split_whitespace().collect();
    let words: Vec<&str> = text.split_whitespace().collect();
    let on_corpus = words.iter().filter(|w| known.contains(*w)).count();
    println!(
        "on-corpus words: {on_corpus}/{} ({:.0}%)",
        words.len(),
        100.0 * on_corpus as f64 / words.len() as f64
    );
    assert!(
        on_corpus as f64 >= words.len() as f64 * 0.6,
        "generation wandered off-corpus"
    );
    println!("ok: tokenizer → MoE training → decoding all work on real text.");
}
