//! E17 — expert modality specialization on a multimodal stream.
//!
//! Brain-scale pretrained models are multimodal (image + text). A question
//! the MoE design answers implicitly: do experts *specialize* by modality
//! when nothing forces them to? Train a small MoE on the synthetic
//! image+caption task, then probe the gate: for each expert, the share of
//! its routed tokens that are image patches. Specialization = experts far
//! from the 50/50 input mix.

use crate::table::Table;
use bagualu::data::{Modality, MultimodalLM};
use bagualu::model::config::ModelConfig;
use bagualu::model::moe::GateKind;
use bagualu::model::transformer::{BlockFfn, Transformer};
use bagualu::optim::adam::{Adam, AdamConfig};
use bagualu::tensor::rng::Rng;

const EXPERTS: usize = 8;

fn modality_shares(
    model: &mut Transformer,
    task: &MultimodalLM,
    steps: usize,
) -> Vec<(f64, usize)> {
    // Probe several batches; count image tokens per expert.
    let mut img = [0usize; EXPERTS];
    let mut tot = [0usize; EXPERTS];
    for step in 0..steps {
        let (tokens, _) = task.batch(4, 8, 7, 1000 + step);
        model.forward(&tokens, 4, 8);
        for b in &model.blocks {
            if let BlockFfn::MoE(m) = &b.ffn {
                let r = m.last_routing().unwrap();
                for a in &r.assignments {
                    tot[a.expert] += 1;
                    if task.modality_of(tokens[a.token]) == Modality::Image {
                        img[a.expert] += 1;
                    }
                }
            }
        }
    }
    (0..EXPERTS)
        .map(|e| {
            let share = if tot[e] == 0 {
                0.5
            } else {
                img[e] as f64 / tot[e] as f64
            };
            (share, tot[e])
        })
        .collect()
}

pub(crate) fn run() {
    println!("== E17: expert modality specialization (image+text stream, 8 experts) ==\n");
    let cfg = ModelConfig {
        vocab: 64,
        n_experts: EXPERTS,
        gate: GateKind::Top1,
        capacity_factor: 2.0,
        aux_weight: 0.01,
        ..ModelConfig::tiny()
    };
    let task = MultimodalLM::new(16, 48, 99);
    assert!(task.total_vocab() <= cfg.vocab);

    let mut rng = Rng::seed_from(17);
    let mut model = Transformer::new(cfg, &mut rng);
    let before = modality_shares(&mut model, &task, 8);

    let mut opt = Adam::new(AdamConfig {
        lr: 1e-2,
        ..Default::default()
    });
    for step in 0..300 {
        let (tokens, targets) = task.batch(4, 8, 0, step);
        model.train_batch(&tokens, &targets, 4, 8);
        opt.step(&mut model);
    }
    let after = modality_shares(&mut model, &task, 8);

    let mut t = Table::new(&[
        "expert",
        "image share (init)",
        "image share (trained)",
        "tokens (trained)",
    ]);
    for e in 0..EXPERTS {
        t.row(&[
            format!("{e}"),
            format!("{:.0}%", before[e].0 * 100.0),
            format!("{:.0}%", after[e].0 * 100.0),
            format!("{}", after[e].1),
        ]);
    }
    t.print();

    let specialization = |shares: &[(f64, usize)]| {
        // Token-weighted mean distance from the 50/50 mix.
        let total: usize = shares.iter().map(|(_, n)| n).sum();
        shares
            .iter()
            .map(|&(s, n)| (s - 0.5).abs() * 2.0 * n as f64 / total as f64)
            .sum::<f64>()
    };
    println!(
        "\nspecialization index (0 = mixed, 1 = fully separated): init {:.2} → trained {:.2}",
        specialization(&before),
        specialization(&after)
    );
    println!(
        "\nShape check: training drives experts toward single-modality traffic —\n\
         the division of labour that makes scaling expert count productive on\n\
         multimodal corpora.\n"
    );
}
