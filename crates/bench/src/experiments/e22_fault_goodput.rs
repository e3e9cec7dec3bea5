//! E22 — fault-injected training: goodput vs MTBF × checkpoint interval.
//!
//! Crashes arrive as a seeded Poisson process (exponential inter-arrival
//! with the given MTBF, measured in steps); the trainer recovers from its
//! last checkpoint each time. Short checkpoint intervals waste time on
//! writes, long ones waste time re-executing lost steps — the classic
//! trade-off whose analytic optimum is the Young/Daly interval
//! τ_opt = √(2·δ·MTBF).

use crate::table::Table;
use bagualu::comm::FaultPlan;
use bagualu::trainer::{FtConfig, TrainConfig, Trainer};
use std::time::Instant;

const STEPS: usize = 24;
const MTBFS: [f64; 3] = [6.0, 12.0, 24.0];
const INTERVALS: [usize; 3] = [2, 4, 8];

/// Crash steps drawn from an exponential inter-arrival process,
/// deterministic in `seed`, deduplicated, within `(0, horizon)`.
fn exp_arrivals(seed: u64, mtbf_steps: f64, horizon: usize) -> Vec<usize> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut unit = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut t = 0.0;
    let mut out: Vec<usize> = Vec::new();
    loop {
        t += -unit().max(1e-12).ln() * mtbf_steps;
        let s = t as usize;
        if s >= horizon {
            break;
        }
        if s >= 1 && out.last() != Some(&s) {
            out.push(s);
        }
    }
    out
}

pub(crate) fn run() {
    println!("== E22: goodput under faults, MTBF x checkpoint interval ==\n");
    let cfg = TrainConfig {
        nranks: 2,
        steps: STEPS,
        ..TrainConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("bagualu-e22-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Fault-free, checkpoint-free baseline: the goodput denominator.
    let base = Trainer::new(cfg).run();
    let step_s = cfg.steps as f64 * cfg.batch_per_rank as f64 * cfg.seq as f64 * cfg.nranks as f64
        / base.tokens_per_sec
        / cfg.steps as f64;

    // Checkpoint cost δ: run one fault-free job per interval and charge the
    // throughput difference; measured directly from one shard write below.
    let ckpt_probe = dir.join("probe");
    let probe = Trainer::new(cfg).run_ft(&FtConfig {
        ckpt_every: 1,
        ..FtConfig::new(&ckpt_probe)
    });
    let probe_step_s =
        cfg.steps as f64 * cfg.batch_per_rank as f64 * cfg.seq as f64 * cfg.nranks as f64
            / probe.tokens_per_sec
            / cfg.steps as f64;
    let delta_s = (probe_step_s - step_s).max(1e-6);

    println!(
        "baseline: {:.0} tokens/s, step {:.2} ms, checkpoint cost δ ≈ {:.2} ms\n",
        base.tokens_per_sec,
        step_s * 1e3,
        delta_s * 1e3
    );

    let mut t = Table::new(&[
        "MTBF (steps)",
        "crashes",
        "ckpt K",
        "restarts",
        "lost steps",
        "goodput",
        "Young/Daly τ_opt",
    ]);
    for (mi, &mtbf) in MTBFS.iter().enumerate() {
        // Walk seeds deterministically until the draw contains a failure —
        // a fault-free row says nothing about the interval trade-off.
        let mut seed = 42 + mi as u64;
        let mut arrivals = exp_arrivals(seed, mtbf, STEPS);
        while arrivals.is_empty() {
            seed += 1;
            arrivals = exp_arrivals(seed, mtbf, STEPS);
        }
        // The analytic optimum (shared with the tuner), seconds to steps.
        let tau_opt_s = bagualu::perfmodel::young_daly_tau_opt(delta_s, mtbf * step_s);
        let tau_opt_steps = tau_opt_s / step_s;
        let mut best: Option<(usize, f64)> = None;
        let mut rows = Vec::new();
        for &k in &INTERVALS {
            let mut plan = FaultPlan::new(9000 + mi as u64);
            for (i, &s) in arrivals.iter().enumerate() {
                plan = plan.crash(i % cfg.nranks, s);
            }
            let cell_dir = dir.join(format!("mtbf{mi}-k{k}"));
            let ft = FtConfig {
                plan,
                ckpt_every: k,
                max_restarts: arrivals.len() + 2,
                heartbeat_ms: 500,
                ..FtConfig::new(&cell_dir)
            };
            let start = Instant::now();
            let r = Trainer::new(cfg).run_ft(&ft);
            let _ = start;
            let goodput = r.tokens_per_sec / base.tokens_per_sec;
            if best.is_none_or(|(_, g)| goodput > g) {
                best = Some((k, goodput));
            }
            rows.push((k, r.restarts, r.lost_steps, goodput));
        }
        let (best_k, _) = best.unwrap();
        for (k, restarts, lost, goodput) in rows {
            t.row(&[
                format!("{mtbf:.0}"),
                format!("{}", arrivals.len()),
                format!("{k}{}", if k == best_k { " *" } else { "" }),
                format!("{restarts}"),
                format!("{lost}"),
                format!("{:.0}%", goodput * 100.0),
                format!("{tau_opt_steps:.1} steps"),
            ]);
        }
    }
    t.print();
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "\nShape check: goodput falls as MTBF shrinks; for a given MTBF the best\n\
         measured interval (*) tracks the Young/Daly prediction — frequent\n\
         checkpoints pay off only when failures are frequent. At the paper's\n\
         scale (96,000 nodes) the machine-level MTBF makes this sizing, plus\n\
         sharded parallel checkpoint writes (E10), a first-order design input.\n"
    );
}
