//! E5 — mixed-precision ablation.
//!
//! The same model/data/steps in four precision regimes: FP32, BF16 with
//! master weights, FP16 with dynamic loss scaling, and FP16 *without*
//! scaling (the failure mode scaling exists to prevent). Reported: final
//! loss, loss drop, and steps skipped by the scaler.

use crate::table::Table;
use bagualu::data::TokenDistribution;
use bagualu::model::config::ModelConfig;
use bagualu::tensor::DType;
use bagualu::trainer::{TrainConfig, Trainer};

fn run_one(dtype: DType, disable_scaling: bool) -> (f32, f32, u64) {
    let cfg = TrainConfig {
        model: ModelConfig::tiny(),
        nranks: 2,
        batch_per_rank: 4,
        seq: 8,
        steps: 120,
        lr: 1e-2,
        dtype,
        seed: 7,
        data: TokenDistribution::Uniform,
        disable_loss_scaling: disable_scaling,
        ..Default::default()
    };
    let report = Trainer::new(cfg).run();
    (
        report.loss_curve[0],
        report.final_loss(),
        report.skipped_steps,
    )
}

pub(crate) fn run() {
    println!("== E5: precision ablation (tiny MoE LM, 120 steps, 2 ranks) ==\n");
    let mut t = Table::new(&[
        "regime",
        "first loss",
        "final loss",
        "improvement",
        "skipped steps",
    ]);
    for (label, dtype, disable) in [
        ("fp32", DType::F32, false),
        ("bf16 + master weights", DType::BF16, false),
        ("fp16 + loss scaling", DType::F16, false),
        ("fp16, no scaling", DType::F16, true),
    ] {
        let (first, last, skipped) = run_one(dtype, disable);
        t.row(&[
            label.into(),
            format!("{first:.4}"),
            format!("{last:.4}"),
            format!("{:.1}%", 100.0 * (first - last) / first),
            format!("{skipped}"),
        ]);
    }
    t.print();
    println!(
        "\nShape check: fp32, bf16, and scaled fp16 all converge comparably; at this\n\
         small scale unscaled fp16 usually survives too (gradients are large), but\n\
         the half-precision weight rounding is exercised end to end. The underflow\n\
         failure mode of unscaled fp16 is pinned down by the unit tests on the\n\
         scaler and on deep-model gradient magnitudes.\n"
    );
}
