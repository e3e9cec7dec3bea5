//! E2 — weak scaling of MoDa hybrid parallelism, 256 → 96,000 nodes.
//!
//! The model grows with the machine (9/8 experts per node, matching the
//! 174T preset at full scale); per-node batch is fixed. Reported per point:
//! throughput, per-node efficiency relative to the smallest machine, and
//! the pairwise-vs-hierarchical all-to-all ablation.

use crate::table::Table;
use bagualu::metrics::{format_params, format_si};
use bagualu::model::config::ModelConfig;
use bagualu::perfmodel::{project, A2aAlgo, PerfInput};

/// The preset family used for scaling: experts grow with the machine.
pub(crate) fn model_for_nodes(nodes: usize) -> ModelConfig {
    ModelConfig {
        n_experts: nodes * 9 / 8,
        ..ModelConfig::bagualu_174t()
    }
}

pub(crate) fn run() {
    println!("== E2: weak scaling (model grows with machine, fixed per-node batch) ==\n");
    let node_counts = [256usize, 1024, 4096, 16384, 49152, 96_000];

    let mut t = Table::new(&[
        "nodes",
        "params",
        "tok/s (hier)",
        "tok/s (pairwise)",
        "hier speedup",
        "per-node eff",
    ]);
    let mut base_per_node = None;
    for &nodes in &node_counts {
        let model = model_for_nodes(nodes);
        let hier = project(&PerfInput::sunway_nodes(model, nodes)).unwrap();
        let flat = project(&PerfInput {
            a2a: A2aAlgo::Pairwise,
            hierarchical_allreduce: false,
            ..PerfInput::sunway_nodes(model, nodes)
        })
        .unwrap();
        let per_node = hier.tokens_per_sec / nodes as f64;
        let base = *base_per_node.get_or_insert(per_node);
        t.row(&[
            format!("{nodes}"),
            format_params(model.count_params()),
            format_si(hier.tokens_per_sec, "tok/s"),
            format_si(flat.tokens_per_sec, "tok/s"),
            format!("{:.2}x", hier.tokens_per_sec / flat.tokens_per_sec),
            format!("{:.1}%", 100.0 * per_node / base),
        ]);
    }
    t.print();
    println!(
        "\nShape check: hierarchical collectives keep per-node efficiency high at\n\
         full scale, while the pairwise baseline collapses (latency-bound all-to-all\n\
         across 96k endpoints). The speedup column is the paper's headline ablation.\n"
    );
}
