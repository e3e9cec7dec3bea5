//! Project a brain-scale training run onto the full 37-million-core
//! machine model: what step time, throughput, and sustained FLOPS a
//! configuration would achieve, and what the naive collectives would cost.
//!
//! ```text
//! cargo run -p bagualu --release --example brain_scale_projection            # 174T preset
//! cargo run -p bagualu --release --example brain_scale_projection -- 14.5t 49152
//! ```

use bagualu::hw::Precision;
use bagualu::metrics::{format_flops, format_params, format_si};
use bagualu::model::config::ModelConfig;
use bagualu::perfmodel::{project, A2aAlgo, PerfInput};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let model = match args.first().map(|s| s.as_str()) {
        None | Some("174t") => ModelConfig::bagualu_174t(),
        Some("14.5t") => ModelConfig::bagualu_14_5t(),
        Some("1.93t") => ModelConfig::bagualu_1_93t(),
        Some(other) => {
            eprintln!("unknown preset {other}; use 1.93t | 14.5t | 174t");
            std::process::exit(2);
        }
    };
    let nodes: usize = args
        .get(1)
        .map(|s| s.parse().expect("node count"))
        .unwrap_or(96_000);

    println!(
        "model: {} parameters ({} experts × {} MoE blocks)",
        format_params(model.count_params()),
        model.n_experts,
        model.n_moe_blocks()
    );
    println!("machine: {nodes} nodes = {} cores\n", nodes * 390);

    for (label, input) in [
        (
            "hierarchical collectives, half precision",
            PerfInput::sunway_nodes(model, nodes),
        ),
        (
            "naive collectives, half precision",
            PerfInput {
                a2a: A2aAlgo::Pairwise,
                hierarchical_allreduce: false,
                ..PerfInput::sunway_nodes(model, nodes)
            },
        ),
        (
            "hierarchical collectives, fp32",
            PerfInput {
                precision: Precision::FP32,
                a2a_bytes: Precision::FP32.bytes(),
                ..PerfInput::sunway_nodes(model, nodes)
            },
        ),
    ] {
        let p = project(&input).expect("the presets are priceable");
        let b = p.breakdown;
        println!("— {label} —");
        println!(
            "  step {:.2}s = dense {:.2}s + gate {:.2}s + experts {:.2}s + a2a {:.2}s + allreduce {:.2}s",
            p.step_time, b.dense_compute, b.gate_compute, b.expert_compute, b.a2a, b.allreduce
        );
        println!(
            "  throughput {} | sustained {} ({:.1}% of sustained peak, {:.0}% comm)\n",
            format_si(p.tokens_per_sec, "tok/s"),
            format_flops(p.sustained_flops),
            100.0 * p.efficiency,
            100.0 * b.comm_fraction()
        );
    }
    println!(
        "The hierarchical/naive gap above is the system's core claim: at 100k-\n\
         endpoint scale, topology-aware collectives are the difference between an\n\
         EFLOPS-class machine and one that spends its time in message latency."
    );
}
