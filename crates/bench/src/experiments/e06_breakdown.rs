//! E6 — per-step time breakdown vs machine scale (14.5T preset).

use crate::table::Table;
use bagualu::model::config::ModelConfig;
use bagualu::perfmodel::{project, A2aAlgo, PerfInput};

pub(crate) fn run() {
    println!("== E6: step-time breakdown, 14.5T preset, hierarchical collectives ==\n");
    let mut t = Table::new(&[
        "nodes",
        "dense (s)",
        "gate (s)",
        "experts (s)",
        "a2a (s)",
        "allreduce (s)",
        "total (s)",
        "comm %",
    ]);
    for &nodes in &[1024usize, 8192, 49152, 96_000] {
        let p = project(&PerfInput::sunway_nodes(
            ModelConfig::bagualu_14_5t(),
            nodes,
        ))
        .unwrap();
        let b = p.breakdown;
        t.row(&[
            format!("{nodes}"),
            format!("{:.3}", b.dense_compute),
            format!("{:.3}", b.gate_compute),
            format!("{:.3}", b.expert_compute),
            format!("{:.3}", b.a2a),
            format!("{:.3}", b.allreduce),
            format!("{:.3}", p.step_time),
            format!("{:.1}%", 100.0 * b.comm_fraction()),
        ]);
    }
    t.print();

    println!("\n— same, with the naive (pairwise + flat-ring) collectives —\n");
    let mut t = Table::new(&["nodes", "a2a (s)", "allreduce (s)", "total (s)", "comm %"]);
    for &nodes in &[1024usize, 8192, 49152, 96_000] {
        let p = project(&PerfInput {
            a2a: A2aAlgo::Pairwise,
            hierarchical_allreduce: false,
            ..PerfInput::sunway_nodes(ModelConfig::bagualu_14_5t(), nodes)
        })
        .unwrap();
        let b = p.breakdown;
        t.row(&[
            format!("{nodes}"),
            format!("{:.3}", b.a2a),
            format!("{:.3}", b.allreduce),
            format!("{:.3}", p.step_time),
            format!("{:.1}%", 100.0 * b.comm_fraction()),
        ]);
    }
    t.print();
    println!(
        "\nShape check: with naive collectives, communication swallows the step at\n\
         full scale; the hierarchical algorithms hold the comm share roughly flat,\n\
         which is what makes the weak-scaling curve in E2 near-linear.\n"
    );
}
