//! E1 — machine and model configuration tables, including the exact
//! parameter counts of the brain-scale presets.

use crate::table::Table;
use bagualu::hw::{MachineConfig, Precision};
use bagualu::metrics::{format_flops, format_params, format_si};
use bagualu::model::config::ModelConfig;

pub(crate) fn run() {
    println!("== E1: machine configuration (New Generation Sunway model) ==\n");
    let m = MachineConfig::new_generation_sunway();
    let mut t = Table::new(&["property", "value"]);
    t.row(&["nodes".into(), format!("{}", m.nodes)]);
    t.row(&["supernode size".into(), format!("{}", m.supernode_size)]);
    t.row(&["supernodes".into(), format!("{}", m.supernodes())]);
    t.row(&[
        "core groups/node".into(),
        format!("{}", m.processor.core_groups),
    ]);
    t.row(&["cores/node".into(), format!("{}", m.processor.cores())]);
    t.row(&["total cores".into(), format!("{}", m.total_cores())]);
    t.row(&["peak FP32".into(), format_flops(m.peak(Precision::FP32))]);
    t.row(&[
        "peak FP16/BF16".into(),
        format_flops(m.peak(Precision::Half)),
    ]);
    t.row(&[
        "memory/node".into(),
        format!("{} GiB", m.processor.mem_capacity >> 30),
    ]);
    t.row(&[
        "intra-supernode bw/node".into(),
        format_si(m.network.intra_bw, "B/s"),
    ]);
    t.row(&[
        "inter-supernode bw/node".into(),
        format_si(m.network.inter_bw, "B/s"),
    ]);
    t.print();

    println!("\n== E1: model presets and parameter counts ==\n");
    let mut t = Table::new(&[
        "preset",
        "d_model",
        "layers",
        "moe blocks",
        "experts",
        "total params",
        "dense",
        "experts(params)",
    ]);
    for (name, cfg) in [
        ("1.93T", ModelConfig::bagualu_1_93t()),
        ("14.5T", ModelConfig::bagualu_14_5t()),
        ("174T (brain scale)", ModelConfig::bagualu_174t()),
    ] {
        t.row(&[
            name.into(),
            format!("{}", cfg.d_model),
            format!("{}", cfg.n_layers),
            format!("{}", cfg.n_moe_blocks()),
            format!("{}", cfg.n_experts),
            format_params(cfg.count_params()),
            format_params(cfg.dense_params()),
            format_params(cfg.expert_params()),
        ]);
    }
    t.print();
    println!(
        "\nNote: presets are reconstructions hitting the published parameter counts\n\
         (the original hyperparameters are not available to this reproduction).\n"
    );
}
