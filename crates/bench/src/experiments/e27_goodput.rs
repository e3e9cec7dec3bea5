//! E27 — degrade, don't die: elastic goodput vs the restart baseline.
//!
//! Two recovery policies face the same crash schedule (rank 3 dies at step
//! 12 and again at step 18):
//!
//! * **restart** (the E22 policy) restores the full-width world from the
//!   last checkpoint after every crash — and so eats *both* crashes, two
//!   recovery pauses plus the re-executed steps;
//! * **elastic** shrinks to the survivors after the first crash and
//!   re-shards the full-width checkpoint across R−1 ranks. The second
//!   crash is scheduled for a rank id that no longer exists, so it never
//!   fires — the run has degraded *out of the blast radius*.
//!
//! Goodput is wall-clock relative to a fault-free, checkpoint-free
//! baseline delivering the same 24 training steps; the in-process asserts
//! are the CI gate (`elastic > restart`). A second section exercises the
//! other degradation path: a sustained slow rank is flagged by the online
//! straggler detector and its expert load is shed at a checkpoint
//! boundary, with the `__placement__` record staying consistent.
//!
//! Artifacts: `target/e27/goodput-table.txt` and `BENCH_goodput.json` at
//! the repo root (schema `bagualu-goodput/v1`).

use crate::table::Table;
use bagualu::checkpoint::read_placement;
use bagualu::comm::FaultPlan;
use bagualu::model::config::ModelConfig;
use bagualu::parallel::ExpertPlacement;
use bagualu::trainer::{FtConfig, TrainConfig, Trainer};
use std::time::Instant;

const TABLE_OUT: &str = "target/e27/goodput-table.txt";
const JSON_OUT: &str = "BENCH_goodput.json";

const STEPS: usize = 24;
const CKPT_EVERY: usize = 8;
/// The crashing rank: the highest id, so the elastic shrink retires
/// exactly the id the second crash is scheduled against.
const CRASH_RANK: usize = 3;

struct PolicyRow {
    policy: &'static str,
    restarts: usize,
    resizes: usize,
    lost_steps: usize,
    elapsed_s: f64,
    goodput: f64,
}

pub(crate) fn run() {
    println!("== E27: elastic goodput vs restart baseline ==\n");
    let cfg = TrainConfig {
        nranks: 4,
        steps: STEPS,
        model: ModelConfig {
            n_experts: 12,
            ..ModelConfig::tiny()
        },
        ..TrainConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("bagualu-e27-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Fault-free, checkpoint-free baseline: the goodput denominator.
    let t0 = Instant::now();
    let base = Trainer::new(cfg).run();
    let base_s = t0.elapsed().as_secs_f64();
    assert!(base.final_loss().is_finite());
    println!(
        "baseline: {STEPS} steps in {base_s:.2}s ({:.0} tokens/s)\n",
        base.tokens_per_sec
    );

    let plan = || {
        FaultPlan::new(2700)
            .crash(CRASH_RANK, 12)
            .crash(CRASH_RANK, 18)
    };
    let mut rows: Vec<PolicyRow> = Vec::new();
    for (policy, elastic) in [("restart", false), ("elastic", true)] {
        let ft = FtConfig {
            plan: plan(),
            ckpt_every: CKPT_EVERY,
            max_restarts: 4,
            heartbeat_ms: 500,
            elastic,
            ..FtConfig::new(dir.join(policy))
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
        rows.push(PolicyRow {
            policy,
            restarts: r.restarts,
            resizes: r.resizes,
            lost_steps: r.lost_steps,
            elapsed_s,
            goodput: base_s / elapsed_s,
        });
    }

    let mut t = Table::new(&[
        "policy",
        "restarts",
        "resizes",
        "lost steps",
        "elapsed",
        "goodput",
    ]);
    for r in &rows {
        t.row(&[
            r.policy.to_string(),
            format!("{}", r.restarts),
            format!("{}", r.resizes),
            format!("{}", r.lost_steps),
            format!("{:.2}s", r.elapsed_s),
            format!("{:.0}%", r.goodput * 100.0),
        ]);
    }
    t.print();

    let restart = rows.iter().find(|r| r.policy == "restart").unwrap();
    let elastic = rows.iter().find(|r| r.policy == "elastic").unwrap();
    // The CI gate: degrading out of the second crash must beat restoring
    // through it. Elastic does strictly less recovery (one pause vs two)
    // and strictly fewer re-executed steps, so this holds with margin.
    assert!(
        elastic.goodput > restart.goodput,
        "elastic goodput {:.3} must beat restart goodput {:.3}",
        elastic.goodput,
        restart.goodput
    );
    println!(
        "\ngate: elastic {:.0}% > restart {:.0}% goodput ✓",
        elastic.goodput * 100.0,
        restart.goodput * 100.0
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
        plan: FaultPlan::new(2701).slow_rank(1, 0, 12, 2000),
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
    let mut artifact = String::from("E27 goodput: elastic vs restart\n\n");
    artifact.push_str(&format!("baseline: {STEPS} steps in {base_s:.2}s\n\n"));
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
         Shape check: the restart policy pays two recovery pauses and\n\
         re-executes every step lost to both crashes; the elastic policy\n\
         pays one, then continues on 3 ranks — the second crash targets a\n\
         retired rank id and never fires. At BaGuaLu's scale (96,000 nodes)\n\
         a policy that keeps the surviving 95,999 busy between repairs is\n\
         the difference between goodput and idle time; shedding expert load\n\
         off flagged stragglers applies the same degrade-don't-die rule to\n\
         ranks that are merely slow instead of dead.\n"
    );
}
