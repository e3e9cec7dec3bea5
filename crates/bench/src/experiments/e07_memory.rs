//! E7 — per-node memory footprint vs model scale.
//!
//! Parameters are half precision, optimizer state is FP32 Adam + master
//! weights (12 B/param). Experts are inherently sharded by expert
//! parallelism; the ablation is whether the *dense* optimizer state is
//! ZeRO-style sharded or replicated. The 174T row is the fit-or-not
//! question the whole system design answers.

use crate::table::Table;
use bagualu::hw::{MachineConfig, MemoryBudget};
use bagualu::metrics::format_params;
use bagualu::model::config::ModelConfig;

pub(crate) fn run() {
    println!("== E7: per-node memory on 96,000 nodes (96 GiB/node budget) ==\n");
    let machine = MachineConfig::new_generation_sunway();
    let nodes = machine.nodes;
    let budget_gib = (machine.processor.mem_capacity >> 30) as f64;
    // Activation footprint for a 2048-token micro-batch, checkpointed:
    // ~2 bytes × tokens × d_model × layers (stored once per layer).
    let act = |m: &ModelConfig| 2.0 * 2048.0 * m.d_model as f64 * m.n_layers as f64;

    let mut t = Table::new(&[
        "preset",
        "params",
        "dense opt",
        "params+grads (GiB)",
        "optimizer (GiB)",
        "total (GiB)",
        "fits 96 GiB",
    ]);
    for (name, cfg) in [
        ("1.93T", ModelConfig::bagualu_1_93t()),
        ("14.5T", ModelConfig::bagualu_14_5t()),
        ("174T", ModelConfig::bagualu_174t()),
    ] {
        for sharded in [false, true] {
            let b = MemoryBudget::per_node(
                cfg.dense_params() as f64,
                cfg.expert_params() as f64,
                nodes,
                2.0,
                sharded,
                act(&cfg),
            );
            let total = b.total_gib();
            t.row(&[
                name.into(),
                format_params(cfg.count_params()),
                if sharded {
                    "sharded".into()
                } else {
                    "replicated".into()
                },
                format!("{:.1}", (b.params + b.grads) / (1u64 << 30) as f64),
                format!("{:.1}", b.optimizer / (1u64 << 30) as f64),
                format!("{total:.1}"),
                if total <= budget_gib {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
    }
    t.print();

    println!("\n— optimizer choice (per-parameter state, 174T preset per node) —\n");
    let mut t = Table::new(&["optimizer", "state B/param", "optimizer GiB/node", "note"]);
    let cfg = ModelConfig::bagualu_174t();
    let params_per_node =
        (cfg.dense_params() as f64 / nodes as f64) + cfg.expert_params() as f64 / nodes as f64;
    // Dense-sharded baseline comparison at per-node granularity.
    for (name, bytes, note) in [
        ("Adam + fp32 master", 12.0, "m + v + master"),
        (
            "Adafactor + fp32 master",
            4.05,
            "row/col factored 2nd moment",
        ),
        (
            "Adafactor, no master",
            0.05,
            "bf16 weights updated in place",
        ),
    ] {
        t.row(&[
            name.into(),
            format!("{bytes}"),
            format!("{:.1}", params_per_node * bytes / (1u64 << 30) as f64),
            note.into(),
        ]);
    }
    t.print();
    println!(
        "\nShape check: expert parallelism already shards the dominant state; dense\n\
         optimizer sharding removes the remaining replicated gigabytes, and a\n\
         factored second moment (Adafactor's memory formula, a modeled row)\n\
         would cut the per-parameter optimizer state ~3x further. The 174T\n\
         brain-scale preset fits only because experts are never replicated.\n"
    );
}
