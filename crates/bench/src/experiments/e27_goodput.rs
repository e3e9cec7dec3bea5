//! E27 — goodput under faults: checkpoint sizing, elastic degradation and
//! straggler shedding.
//!
//! Three sections, one fault-tolerant trainer:
//!
//! 1. **MTBF × checkpoint interval.** Crashes arrive as a seeded Poisson
//!    process (exponential inter-arrival with the given MTBF, measured in
//!    steps); the trainer restores its last checkpoint each time. Short
//!    intervals waste time on writes, long ones re-execute lost steps —
//!    the trade-off whose analytic optimum is the Young/Daly interval
//!    τ_opt = √(2·δ·MTBF). Each cell's goodput, the baseline and the
//!    checkpoint cost δ are medians of [`RUNS`] runs, the cells of one
//!    MTBF taken in alternating rounds.
//! 2. **Elastic vs restart.** Two recovery policies face the same crash
//!    schedule (rank 3 dies at step 12 and again at step 18):
//!    * **restart** restores the full-width world from the last checkpoint
//!      after every crash — and so eats *both* crashes, two recovery
//!      pauses plus the re-executed steps;
//!    * **elastic** shrinks to the survivors after the first crash and
//!      re-shards the full-width checkpoint across R−1 ranks. The second
//!      crash is scheduled for a rank id that no longer exists, so it
//!      never fires — the run has degraded *out of the blast radius*.
//!
//!    Goodput is wall-clock relative to a fault-free, checkpoint-free
//!    baseline delivering the same 24 training steps. Each policy runs
//!    [`RUNS`] times, alternating, and the CI gate compares the median
//!    goodputs (`elastic > restart`); the exact counts (restarts, resizes,
//!    re-executed steps) are asserted on every run.
//! 3. **Straggler shedding.** A sustained slow rank is flagged by the
//!    online straggler detector and its expert load is shed at a
//!    checkpoint boundary, with the `__placement__` record staying
//!    consistent.
//!
//! Artifacts: `target/e27/goodput-table.txt` (all three sections) and
//! `BENCH_goodput.json` at the repo root (schema `bagualu-goodput/v1`:
//! the baseline, the median run of each policy, the straggler record).

use crate::table::Table;
use bagualu::checkpoint::read_placement;
use bagualu::comm::FaultPlan;
use bagualu::model::config::ModelConfig;
use bagualu::parallel::ExpertPlacement;
use bagualu::trainer::{FtConfig, TrainConfig, TrainReport, Trainer};
use std::path::Path;
use std::time::Instant;

const TABLE_OUT: &str = "target/e27/goodput-table.txt";
const JSON_OUT: &str = "BENCH_goodput.json";

const STEPS: usize = 24;
const MTBFS: [f64; 3] = [6.0, 12.0, 24.0];
const INTERVALS: [usize; 3] = [2, 4, 8];
const CKPT_EVERY: usize = 8;
/// The crashing rank: the highest id, so the elastic shrink retires
/// exactly the id the second crash is scheduled against.
const CRASH_RANK: usize = 3;
/// Runs per recovery policy, per sweep cell and of the δ probe; each
/// reports its median. A whole run takes well under a second, so one run's
/// goodput is mostly host noise.
const RUNS: usize = 3;

/// The middle value of an odd number of measurements.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

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

/// Section 1: goodput over MTBF × checkpoint interval on the default
/// 2-rank trainer, with the Young/Daly τ_opt of each MTBF beside it.
fn checkpoint_sweep(dir: &Path) -> Table {
    println!("-- checkpoint interval vs MTBF --\n");
    let cfg = TrainConfig {
        nranks: 2,
        steps: STEPS,
        ..TrainConfig::default()
    };
    let tokens = (cfg.steps * cfg.batch_per_rank * cfg.seq * cfg.nranks) as f64;

    // The fault-free, checkpoint-free baseline (the goodput denominator)
    // and the checkpoint cost δ: the per-step slowdown of a fault-free run
    // that checkpoints every step over the baseline run beside it. RUNS
    // of each, alternating; both are medians.
    let step_s_of = |r: &TrainReport| tokens / r.tokens_per_sec / cfg.steps as f64;
    let (mut base_tps, mut deltas) = (Vec::new(), Vec::new());
    for i in 0..RUNS {
        let base = Trainer::new(cfg).run();
        let probe = Trainer::new(cfg).run_ft(&FtConfig {
            ckpt_every: 1,
            ..FtConfig::new(dir.join(format!("probe{i}")))
        });
        base_tps.push(base.tokens_per_sec);
        deltas.push(step_s_of(&probe) - step_s_of(&base));
    }
    let base_tps = median(base_tps);
    let step_s = tokens / base_tps / cfg.steps as f64;
    let delta_s = median(deltas).max(1e-6);

    println!(
        "baseline: {base_tps:.0} tokens/s, step {:.2} ms, checkpoint cost δ ≈ {:.2} ms \
         (medians of {RUNS})\n",
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
        // RUNS rounds over the intervals, so each cell's runs alternate with
        // the other cells'. The counts are exact, so every run of a cell
        // must agree on them; its goodput is the median.
        let mut runs: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); INTERVALS.len()];
        for round in 0..RUNS {
            for (cell, &k) in runs.iter_mut().zip(&INTERVALS) {
                let mut plan = FaultPlan::none();
                for (i, &s) in arrivals.iter().enumerate() {
                    plan = plan.crash(i % cfg.nranks, s);
                }
                let r = Trainer::new(cfg).run_ft(&FtConfig {
                    plan,
                    ckpt_every: k,
                    max_restarts: arrivals.len() + 2,
                    heartbeat_ms: 500,
                    ..FtConfig::new(dir.join(format!("mtbf{mi}-k{k}-{round}")))
                });
                cell.push((r.restarts, r.lost_steps, r.tokens_per_sec / base_tps));
            }
        }
        let mut best: Option<(usize, f64)> = None;
        let mut rows = Vec::new();
        for (cell, &k) in runs.iter().zip(&INTERVALS) {
            let (restarts, lost) = (cell[0].0, cell[0].1);
            assert!(
                cell.iter().all(|r| (r.0, r.1) == (restarts, lost)),
                "MTBF {mtbf}, K {k}: restarts and lost steps must repeat exactly: {cell:?}"
            );
            let goodput = median(cell.iter().map(|r| r.2).collect());
            if best.is_none_or(|(_, g)| goodput > g) {
                best = Some((k, goodput));
            }
            rows.push((k, restarts, lost, goodput));
        }
        let (best_k, _) = best.expect("INTERVALS is not empty");
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
    println!(
        "\n(*) best measured interval per MTBF, to set against the Young/Daly\n\
         τ_opt column. Each goodput cell is the median of {RUNS} runs, taken\n\
         in rounds that alternate the intervals.\n"
    );
    t
}

/// The median run of one recovery policy.
struct PolicyRow {
    policy: &'static str,
    restarts: usize,
    resizes: usize,
    lost_steps: usize,
    elapsed_s: f64,
    goodput: f64,
    /// Goodput of every run, in the order they ran.
    runs: Vec<f64>,
}

pub(crate) fn run() {
    println!("== E27: goodput under faults ==\n");
    let dir = std::env::temp_dir().join(format!("bagualu-e27-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let sweep = checkpoint_sweep(&dir);

    // ---- Elastic vs restart under one two-crash schedule.
    println!("-- elastic vs restart --\n");
    let cfg = TrainConfig {
        nranks: 4,
        steps: STEPS,
        model: ModelConfig {
            n_experts: 12,
            ..ModelConfig::tiny()
        },
        ..TrainConfig::default()
    };

    // Fault-free, checkpoint-free baseline: the goodput denominator.
    let t0 = Instant::now();
    let base = Trainer::new(cfg).run();
    let base_s = t0.elapsed().as_secs_f64();
    assert!(base.final_loss().is_finite());
    println!(
        "baseline: {STEPS} steps in {base_s:.2}s ({:.0} tokens/s)\n",
        base.tokens_per_sec
    );

    let policies = [("restart", false), ("elastic", true)];
    // (elapsed_s, restarts, resizes, lost_steps) per run, per policy.
    let mut runs: [Vec<(f64, usize, usize, usize)>; 2] = Default::default();
    for i in 0..RUNS {
        for (p, &(policy, elastic)) in policies.iter().enumerate() {
            let ft = FtConfig {
                plan: FaultPlan::none()
                    .crash(CRASH_RANK, 12)
                    .crash(CRASH_RANK, 18),
                ckpt_every: CKPT_EVERY,
                max_restarts: 4,
                heartbeat_ms: 500,
                elastic,
                ..FtConfig::new(dir.join(format!("{policy}{i}")))
            };
            let t0 = Instant::now();
            let r = Trainer::new(cfg).run_ft(&ft);
            let elapsed_s = t0.elapsed().as_secs_f64();
            assert!(r.loss_curve.iter().all(|l| l.is_finite()));
            if elastic {
                assert_eq!(r.restarts, 1, "elastic absorbs the first crash only");
                assert_eq!(r.resizes, 1, "one shrink to the survivors");
            } else {
                assert_eq!(r.restarts, 2, "restart policy eats both crashes");
                assert_eq!(r.resizes, 0);
            }
            runs[p].push((elapsed_s, r.restarts, r.resizes, r.lost_steps));
        }
    }
    let rows: Vec<PolicyRow> = policies
        .iter()
        .zip(runs)
        .map(|(&(policy, _), mut v)| {
            let runs = v.iter().map(|r| base_s / r.0).collect();
            v.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (elapsed_s, restarts, resizes, lost_steps) = v[RUNS / 2];
            PolicyRow {
                policy,
                restarts,
                resizes,
                lost_steps,
                elapsed_s,
                goodput: base_s / elapsed_s,
                runs,
            }
        })
        .collect();

    let mut t = Table::new(&[
        "policy",
        "restarts",
        "resizes",
        "lost steps",
        "elapsed",
        "goodput",
        "runs",
    ]);
    for r in &rows {
        t.row(&[
            r.policy.to_string(),
            format!("{}", r.restarts),
            format!("{}", r.resizes),
            format!("{}", r.lost_steps),
            format!("{:.2}s", r.elapsed_s),
            format!("{:.0}%", r.goodput * 100.0),
            r.runs
                .iter()
                .map(|g| format!("{:.0}%", g * 100.0))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    t.print();

    let (restart, elastic) = (&rows[0], &rows[1]);
    // The CI gate: degrading out of the second crash must beat restoring
    // through it. Elastic does strictly less recovery (one pause vs two)
    // and re-executes strictly fewer steps; the step counts are exact, the
    // goodputs are medians of RUNS alternating runs.
    assert!(
        elastic.lost_steps < restart.lost_steps,
        "elastic re-executed {} steps, restart {}",
        elastic.lost_steps,
        restart.lost_steps
    );
    assert!(
        elastic.goodput > restart.goodput,
        "median elastic goodput {:.3} must beat median restart goodput {:.3}",
        elastic.goodput,
        restart.goodput
    );
    println!(
        "\ngate: median elastic {:.0}% > restart {:.0}% goodput, {} < {} lost steps ✓",
        elastic.goodput * 100.0,
        restart.goodput * 100.0,
        elastic.lost_steps,
        restart.lost_steps
    );

    // ---- Straggler migration: shed load off a sustained slow rank.
    println!("\n-- straggler migration --");
    let scfg = TrainConfig {
        nranks: 2,
        steps: 12,
        ..TrainConfig::default()
    };
    let sdir = dir.join("straggler");
    let sr = Trainer::new(scfg).run_ft(&FtConfig {
        plan: FaultPlan::none().slow_rank(1, 0, 12, 2000),
        ckpt_every: 4,
        heartbeat_ms: 500,
        straggler_factor: Some(1.5),
        straggler_window: 2,
        ..FtConfig::new(&sdir)
    });
    assert_eq!(sr.migrations, 1, "the slow rank must be flagged and shed");
    let e = scfg.model.n_experts;
    let before = ExpertPlacement::RoundRobin.local_count(1, e, scfg.nranks);
    let after = sr.placement.local_count(1, e, scfg.nranks);
    assert!(
        after < before,
        "migration must shed expert load: victim still hosts {after}/{e}"
    );
    let meta = read_placement(sdir.join("step8").join("rank0.bglu"))
        .expect("read post-migration checkpoint")
        .expect("placement record present");
    assert_eq!(
        meta.placement, sr.placement,
        "checkpoint placement record must match the migrated layout"
    );
    println!(
        "slow rank 1 flagged → {} ({} experts -> {} of {e}), \
         post-migration checkpoint consistent ✓",
        sr.placement, before, after
    );

    // ---- Artifacts.
    let mut artifact = String::from("E27 goodput under faults\n\n");
    artifact.push_str("checkpoint interval vs MTBF (2 ranks, restart policy)\n\n");
    artifact.push_str(&sweep.render());
    artifact.push_str(&format!(
        "\nelastic vs restart (median of {RUNS} runs each)\n\
         baseline: {STEPS} steps in {base_s:.2}s\n\n"
    ));
    artifact.push_str(&t.render());
    artifact.push_str(&format!(
        "\nstraggler migration: victim rank 1, {before} -> {after} of {e} experts\n"
    ));
    std::fs::create_dir_all("target/e27").expect("create target/e27");
    std::fs::write(TABLE_OUT, &artifact).expect("write goodput table");

    let mut json = String::from("{\n  \"schema\": \"bagualu-goodput/v1\",\n");
    json.push_str(&format!(
        "  \"baseline\": {{\"steps\": {STEPS}, \"elapsed_s\": {base_s:.4}}},\n"
    ));
    json.push_str("  \"policies\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"policy\": \"{}\", \"restarts\": {}, \"resizes\": {}, \
             \"lost_steps\": {}, \"elapsed_s\": {:.4}, \"goodput\": {:.4}}}{}\n",
            r.policy,
            r.restarts,
            r.resizes,
            r.lost_steps,
            r.elapsed_s,
            r.goodput,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"straggler\": {{\"victim\": 1, \"migrations\": {}, \
         \"experts_before\": {before}, \"experts_after\": {after}}}\n",
        sr.migrations
    ));
    json.push_str("}\n");
    std::fs::write(JSON_OUT, json).expect("write BENCH_goodput.json");

    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "\nwrote {TABLE_OUT} and {JSON_OUT}\n\n\
         Shape check: re-executed steps fall as MTBF grows and rise with\n\
         the checkpoint interval (exact counts; the sweep's goodput cells\n\
         are medians of three timed runs), and τ_opt says how often to\n\
         checkpoint for a given MTBF. The restart policy pays two recovery\n\
         pauses and re-executes every step lost to both crashes; the\n\
         elastic policy pays one, then continues on 3 ranks — the second\n\
         crash targets a\n\
         retired rank id and never fires. At BaGuaLu's scale (96,000 nodes)\n\
         the machine-level MTBF makes checkpoint sizing, sharded parallel\n\
         writes (E10) and a policy that keeps the surviving 95,999 busy\n\
         between repairs first-order design inputs; shedding expert load\n\
         off flagged stragglers applies the same degrade-don't-die rule to\n\
         ranks that are merely slow instead of dead.\n"
    );
}
