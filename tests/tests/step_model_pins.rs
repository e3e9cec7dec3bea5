//! Pins of the step-time model.
//!
//! `perfmodel::project` is pinned on the inputs of the scaling experiments
//! (E2 weak scaling, E6 breakdown, E9 headline, E11 strong scaling), E18b's
//! two router rows and the `bagualu project` default; the tuner's
//! `model_cost` on every overlap-on candidate of `SearchSpace::default()`
//! at 4096 and 96,000 nodes. The recorded values live in
//! `step_model_pins.txt`, one row per input: a label, a tab, then the
//! numbers. Every pinned number must hold to 1e-9 relative, except the
//! two-level router row, whose group count is rounded to an integer
//! (1e-5).
//!
//! A failing run prints the whole current table in the file's format.

use bagualu::hw::Precision;
use bagualu::model::config::ModelConfig;
use bagualu::perfmodel::{project, A2aAlgo, PerfInput, Projection};
use bagualu::runconfig::RunConfig;
use bagualu_tune::objective::model_cost;
use bagualu_tune::{CostEnv, SearchSpace};

const PINS: &str = include_str!("step_model_pins.txt");

/// `step_time, tokens_per_sec` and the five breakdown terms.
fn projection_row(p: &Projection) -> Vec<f64> {
    let b = p.breakdown;
    vec![
        p.step_time,
        p.tokens_per_sec,
        b.dense_compute,
        b.gate_compute,
        b.expert_compute,
        b.a2a,
        b.allreduce,
    ]
}

/// `(label, values, relative tolerance)` for every pinned input.
fn current() -> Vec<(String, Vec<f64>, f64)> {
    let mut rows = Vec::new();
    let mut pin = |label: String, input: PerfInput, tol: f64| {
        rows.push((label, projection_row(&project(&input).unwrap()), tol));
    };
    let naive = |input: PerfInput| PerfInput {
        a2a: A2aAlgo::Pairwise,
        hierarchical_allreduce: false,
        ..input
    };
    // E2: the 174T family with experts growing with the machine.
    for nodes in [256usize, 1024, 4096, 16384, 49152, 96_000] {
        let model = ModelConfig {
            n_experts: nodes * 9 / 8,
            ..ModelConfig::bagualu_174t()
        };
        let hier = PerfInput::sunway_nodes(model, nodes);
        pin(format!("e02 hier {nodes}"), hier, 1e-9);
        pin(format!("e02 pairwise {nodes}"), naive(hier), 1e-9);
    }
    // E6: 14.5T, hierarchical and naive collectives.
    for nodes in [1024usize, 8192, 49152, 96_000] {
        let hier = PerfInput::sunway_nodes(ModelConfig::bagualu_14_5t(), nodes);
        pin(format!("e06 hier {nodes}"), hier, 1e-9);
        pin(format!("e06 naive {nodes}"), naive(hier), 1e-9);
    }
    // E9: three presets at two precisions on the full machine.
    for (name, cfg) in [
        ("1.93T", ModelConfig::bagualu_1_93t()),
        ("14.5T", ModelConfig::bagualu_14_5t()),
        ("174T", ModelConfig::bagualu_174t()),
    ] {
        pin(
            format!("e09 {name} fp32"),
            PerfInput {
                precision: Precision::FP32,
                a2a_bytes: 4.0,
                ..PerfInput::sunway_full(cfg)
            },
            1e-9,
        );
        pin(
            format!("e09 {name} half"),
            PerfInput::sunway_full(cfg),
            1e-9,
        );
    }
    // E11: 1.93T at a fixed 16M-token global batch.
    for nodes in [2048usize, 8192, 24576, 49152, 96_000] {
        let input = PerfInput {
            tokens_per_node: (16 * 1024 * 1024 / nodes).max(1),
            ..PerfInput::sunway_nodes(ModelConfig::bagualu_1_93t(), nodes)
        };
        pin(format!("e11 {nodes}"), input, 1e-9);
    }
    // E18b: flat and two-level router at 174T on the full machine.
    let e18 = PerfInput::sunway_full(ModelConfig::bagualu_174t());
    pin("e18b flat".into(), e18, 1e-9);
    pin(
        "e18b two-level".into(),
        PerfInput {
            two_level_gate: true,
            ..e18
        },
        1e-5,
    );
    // `bagualu project` with no flags.
    pin(
        "cli default".into(),
        PerfInput::sunway_nodes(ModelConfig::bagualu_14_5t(), 96_000),
        1e-9,
    );

    // The tuner on every overlap-on candidate at two scales.
    for nodes in [4096usize, 96_000] {
        let env = CostEnv::sunway(nodes);
        for c in SearchSpace::default().enumerate(&RunConfig::default()) {
            if !c.rc.comm.overlap {
                continue;
            }
            let m = model_cost(&c.rc, &env).unwrap();
            rows.push((
                format!("tune {nodes} {}", c.name),
                vec![
                    m.step_s,
                    m.compute_s,
                    m.a2a_s,
                    m.allreduce_s,
                    m.roofline_distance,
                    m.comm_bound_nodes.unwrap_or(0) as f64,
                ],
                1e-9,
            ));
        }
    }
    rows
}

fn render(rows: &[(String, Vec<f64>, f64)]) -> String {
    let mut out = String::new();
    for (label, values, _) in rows {
        let nums: Vec<String> = values.iter().map(|v| format!("{v:e}")).collect();
        out.push_str(&format!("{label}\t{}\n", nums.join(" ")));
    }
    out
}

#[test]
fn the_step_model_holds_its_recorded_values() {
    let rows = current();
    let pinned: Vec<(&str, Vec<f64>)> = PINS
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (label, nums) = l.split_once('\t').expect("label<TAB>numbers");
            let nums = nums
                .split_whitespace()
                .map(|n| n.parse().expect("a number"))
                .collect();
            (label, nums)
        })
        .collect();
    let table = render(&rows);
    assert_eq!(
        pinned.len(),
        rows.len(),
        "pinned {} rows, computed {}; current values:\n{table}",
        pinned.len(),
        rows.len()
    );
    for ((label, values, tol), (pin_label, pin_values)) in rows.iter().zip(&pinned) {
        assert_eq!(
            label, pin_label,
            "row order changed; current values:\n{table}"
        );
        assert_eq!(values.len(), pin_values.len(), "{label}");
        for (i, (&v, &p)) in values.iter().zip(pin_values).enumerate() {
            let scale = v.abs().max(p.abs());
            assert!(
                (v - p).abs() <= tol * scale,
                "{label}: value {i} is {v:e}, pinned {p:e} (tolerance {tol:e}); \
                 current values:\n{table}"
            );
        }
    }
}
