//! E11 — strong scaling: fixed global batch, growing machine.
//!
//! The 1.93T preset with a fixed 16M-token global batch. As nodes grow,
//! per-node work shrinks while collective latencies do not — efficiency
//! rolls off exactly where the per-node batch stops amortizing the
//! all-to-all and all-reduce latency floors.

use crate::table::Table;
use bagualu::metrics::format_si;
use bagualu::model::config::ModelConfig;
use bagualu::perfmodel::{project, PerfInput};

pub(crate) fn run() {
    println!("== E11: strong scaling, 1.93T preset, 16M-token global batch ==\n");
    let global_tokens: usize = 16 * 1024 * 1024;
    let mut t = Table::new(&[
        "nodes",
        "tokens/node",
        "step time",
        "tokens/s",
        "speedup",
        "efficiency",
    ]);
    let mut base: Option<(usize, f64)> = None;
    for &nodes in &[2048usize, 8192, 24576, 49152, 96_000] {
        let input = PerfInput {
            tokens_per_node: (global_tokens / nodes).max(1),
            ..PerfInput::sunway_nodes(ModelConfig::bagualu_1_93t(), nodes)
        };
        let p = project(&input).unwrap();
        let (n0, t0) = *base.get_or_insert((nodes, p.step_time));
        let speedup = t0 / p.step_time;
        let ideal = nodes as f64 / n0 as f64;
        t.row(&[
            format!("{nodes}"),
            format!("{}", input.tokens_per_node),
            format!("{:.3} s", p.step_time),
            format_si(p.tokens_per_sec, "tok/s"),
            format!("{speedup:.2}x"),
            format!("{:.1}%", 100.0 * speedup / ideal),
        ]);
    }
    t.print();
    println!(
        "\nShape check: near-ideal speedup while per-node batch is large, rolling\n\
         off as latency floors (α terms of the collectives) stop amortizing — the\n\
         classic strong-scaling knee.\n"
    );
}
