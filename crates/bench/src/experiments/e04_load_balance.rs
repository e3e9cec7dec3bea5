//! E4 — expert load balance across gate types and token skews.
//!
//! Tokens are drawn uniform / Zipf(0.8) / Zipf(1.2), embedded through a
//! fixed random table, and routed by each gate type with capacity factor
//! 1.25. Reported: max/mean load imbalance, token drop rate, and the
//! auxiliary balance loss — the three quantities that decide expert-
//! parallel step time (which is set by the most loaded expert).

use crate::table::Table;
use bagualu::model::embedding::Embedding;
use bagualu::model::moe::{Gate, GateKind};
use bagualu::tensor::rng::{Rng, Zipf};

const D: usize = 32;
const EXPERTS: usize = 64;
const VOCAB: usize = 512;
const TOKENS: usize = 4096;

fn routing_for(kind: GateKind, skew: f64, cf: f32) -> (f64, f64, f64) {
    let mut rng = Rng::seed_from(404);
    let mut emb = Embedding::new("emb", VOCAB, D, &mut rng);
    let mut gate = Gate::new("g", D, EXPERTS, kind, cf, 0.01, &mut rng);
    let zipf = Zipf::new(VOCAB, skew);
    let mut data_rng = Rng::seed_from(405);
    let ids: Vec<usize> = (0..TOKENS).map(|_| zipf.sample(&mut data_rng)).collect();
    let x = emb.forward(&ids);
    let r = gate.forward(&x);
    // Share of tokens whose first choice is the single hottest expert —
    // the quantity the auxiliary loss pushes down during real training.
    let hot = *r.raw_load.iter().max().unwrap() as f64 / TOKENS as f64;
    (r.imbalance(), r.drop_rate(), hot)
}

pub(crate) fn run() {
    println!("== E4: expert load balance (64 experts, 4096 tokens, capacity factor 1.25) ==\n");
    let mut t = Table::new(&[
        "token skew",
        "gate",
        "imbalance (max/mean)",
        "drop rate",
        "hottest expert share",
    ]);
    for &(skew, label) in &[(0.0, "uniform"), (0.8, "zipf 0.8"), (1.2, "zipf 1.2")] {
        for (kind, name) in [
            (GateKind::Top1, "top-1 (switch)"),
            (GateKind::Top2, "top-2 (gshard)"),
            (GateKind::NoisyTop1, "noisy top-1"),
            (GateKind::Balanced, "balanced greedy"),
        ] {
            let (imb, drop, hot) = routing_for(kind, skew, 1.25);
            t.row(&[
                label.into(),
                name.into(),
                format!("{imb:.2}"),
                format!("{:.1}%", drop * 100.0),
                format!("{:.1}% (fair: {:.1}%)", hot * 100.0, 100.0 / EXPERTS as f64),
            ]);
        }
    }
    t.print();
    println!(
        "\nShape check: skew drives top-1/top-2 imbalance and drop rates up; the\n\
         balance-aware gate bounds imbalance at the capacity factor with zero\n\
         drops — the property that keeps the all-to-all and expert compute\n\
         balanced at scale (expert-parallel step time follows the max load).\n"
    );
}
