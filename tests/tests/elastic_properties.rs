//! Property: elastic shrink is *only* a re-shard. For any crash step,
//! starting world size, and checkpoint interval, the shrunk continuation's
//! loss bits must equal a fresh (R−1)-rank run restored from the same
//! checkpoint — if the two ever diverge, the elastic path has smuggled in
//! extra computation (or lost some).
//!
//! This is the contract that makes "degrade, don't die" safe to enable by
//! default: a resize is indistinguishable, numerically, from having
//! launched at the smaller width in the first place.

use bagualu::comm::FaultPlan;
use bagualu::model::config::ModelConfig;
use bagualu::trainer::{FtConfig, TrainConfig, Trainer};
use proptest::prelude::*;

const STEPS: usize = 12;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bagualu-elastic-prop-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn elastic_resume_is_bit_identical_to_a_fresh_shrunk_run(
        nranks in 3usize..5,
        crash_step in 1usize..STEPS,
        ckpt_sel in 0usize..3,
    ) {
        let ckpt_every = [3usize, 4, 5][ckpt_sel];
        // The step the elastic driver will restore from: the newest
        // checkpoint strictly before the crash.
        let restored = (crash_step / ckpt_every) * ckpt_every;
        let dir = tmpdir(&format!("{nranks}-{crash_step}-{ckpt_every}"));

        let cfg = TrainConfig {
            steps: STEPS,
            nranks,
            model: ModelConfig {
                n_experts: 12,
                ..ModelConfig::tiny()
            },
            ..Default::default()
        };
        let r = Trainer::new(cfg).run_ft(&FtConfig {
            plan: FaultPlan::none().crash(nranks - 1, crash_step),
            ckpt_every,
            heartbeat_ms: 200,
            elastic: true,
            ..FtConfig::new(&dir)
        });
        prop_assert_eq!(r.restarts, 1, "one crash, one recovery");
        prop_assert_eq!(r.resizes, 1, "the recovery shrank the world");
        prop_assert_eq!(r.lost_steps, crash_step - restored);
        prop_assert_eq!(r.loss_curve.len(), STEPS);
        prop_assert!(r.loss_curve.iter().all(|l| l.is_finite()));

        // Reference: a brand-new (R−1)-rank trainer restored from the very
        // same checkpoint (`elastic` authorizes the cross-width re-shard;
        // with no checkpoint yet, both sides start over from step 0).
        let fresh = Trainer::new(TrainConfig {
            nranks: nranks - 1,
            ..cfg
        })
        .run_ft(&FtConfig {
            ckpt_every: 0,
            resume_step: restored,
            elastic: true,
            ..FtConfig::new(&dir)
        });
        prop_assert_eq!(fresh.restarts, 0);
        prop_assert_eq!(
            &r.loss_curve[restored..],
            &fresh.loss_curve[restored..],
            "R={} crash@{} ckpt_every={}: elastic continuation diverged \
             from the fresh {}-rank run",
            nranks,
            crash_step,
            ckpt_every,
            nranks - 1
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
