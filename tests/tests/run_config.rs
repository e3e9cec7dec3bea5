//! Cross-crate contract tests for the `RunConfig` layer: the TOML schema
//! round-trips exactly, bad input is rejected with actionable errors, a
//! config file drives the trainer bit-identically to the equivalent direct
//! construction, and the tuner's winning TOML replays the tuned run.

use bagualu::runconfig::RunConfig;
use bagualu::trainer::Trainer;
use bagualu_comm::WireDType;
use bagualu_parallel::ExpertPlacement;
use bagualu_tune::{tune, CostEnv, SearchSpace, TuneOptions};

/// A config that exercises every section with non-default values, so the
/// round-trip test cannot pass by only preserving defaults.
fn loaded_config() -> RunConfig {
    let mut rc = RunConfig::default();
    rc.model.experts = 8;
    rc.train.ranks = 4;
    rc.train.steps = 3;
    rc.train.batch = 2;
    rc.train.seq = 8;
    rc.train.lr = 3e-3;
    rc.train.seed = 7;
    rc.train.skew = 1.1;
    rc.comm.wire_dtype = WireDType::BF16;
    rc.comm.hierarchical = true;
    rc.comm.supernode_size = 2;
    rc.comm.overlap = false;
    rc.comm.bucket_kib = 256;
    rc.placement.policy = ExpertPlacement::Supernode { supernode_size: 0 };
    rc.placement.locality_bias = 1.5;
    rc.ft.enabled = true;
    rc.ft.ckpt_dir = "/tmp/ck".into();
    rc.ft.ckpt_every = 2;
    rc
}

#[test]
fn toml_round_trip_is_exact() {
    for rc in [RunConfig::default(), loaded_config()] {
        rc.validate().unwrap();
        let text = rc.to_toml();
        let back = RunConfig::from_toml(&text).unwrap();
        assert_eq!(back, rc, "TOML round-trip changed the config:\n{text}");
        // Serializing the round-tripped config is a fixed point.
        assert_eq!(back.to_toml(), text);
    }
}

#[test]
fn unknown_and_duplicate_keys_are_rejected_with_line_numbers() {
    let mut text = RunConfig::default().to_toml();
    text.push_str("\n[train]\nbogus_knob = 1\n");
    let err = RunConfig::from_toml(&text).unwrap_err();
    assert!(err.contains("bogus_knob"), "{err}");
    assert!(err.contains("line"), "error should name the line: {err}");

    let dup = RunConfig::default().to_toml().replacen("ranks", "steps", 1);
    let err = RunConfig::from_toml(&dup).unwrap_err();
    assert!(err.contains("steps"), "{err}");
}

#[test]
fn contradictory_configs_fail_validation_not_later() {
    // A supernode size only shapes the hierarchical all-to-all.
    let mut rc = RunConfig::default();
    rc.comm.supernode_size = 2;
    let err = rc.validate().unwrap_err();
    assert!(err.contains("comm.supernode_size"), "{err}");

    // Supernode-aware placement is meaningless without a hierarchical a2a.
    let mut rc = RunConfig::default();
    rc.placement.policy = ExpertPlacement::Supernode { supernode_size: 0 };
    rc.comm.hierarchical = false;
    let err = rc.validate().unwrap_err();
    assert!(err.to_lowercase().contains("hierarchical"), "{err}");

    // from_toml applies the same gate, so a hand-edited file cannot smuggle
    // a contradiction past the CLI.
    let mut bad = RunConfig::default();
    bad.comm.supernode_size = 2;
    assert!(RunConfig::from_toml(&bad.to_toml()).is_err());
}

/// The reproducibility contract behind `bagualu train --config`: a config
/// that went through the TOML file format drives the trainer to the exact
/// same losses as the directly-constructed equivalent.
#[test]
fn config_file_reproduces_direct_construction_bit_for_bit() {
    let mut rc = RunConfig::default();
    rc.train.ranks = 2;
    rc.train.steps = 3;
    rc.train.batch = 2;
    rc.train.seq = 8;
    rc.comm.wire_dtype = WireDType::BF16;
    rc.comm.hierarchical = true;

    let via_file = RunConfig::from_toml(&rc.to_toml()).unwrap();
    let a = Trainer::new(rc.to_train_config().unwrap()).run();
    let b = Trainer::new(via_file.to_train_config().unwrap()).run();
    assert_eq!(
        a.loss_curve, b.loss_curve,
        "loss curves must be bitwise equal"
    );
    assert_eq!(a.aux_curve, b.aux_curve);
    assert_eq!(a.total_tokens, b.total_tokens);
}

/// A trainer built straight from a `RunConfig` (what `bagualu train`
/// does) refuses what `train` refuses — experts that do not divide evenly
/// over the ranks — and otherwise runs the `TrainConfig` path's losses, bit
/// for bit.
#[test]
fn a_trainer_from_a_run_config_validates_and_runs_the_same_bits() {
    let mut rc = RunConfig::default();
    rc.model.experts = 6;
    rc.train.ranks = 4;
    let e = Trainer::try_from(&rc).err().expect("6 experts on 4 ranks");
    assert!(e.contains("divide evenly"), "{e}");

    let mut rc = RunConfig::default();
    rc.train.ranks = 2;
    rc.train.steps = 1;
    rc.train.batch = 2;
    rc.train.seq = 8;
    let trainer = Trainer::try_from(&rc).unwrap();
    assert!(
        !trainer.config().trace,
        "a run config describes an untraced run"
    );
    let a = trainer.run();
    let b = Trainer::new(rc.to_train_config().unwrap()).run();
    let bits = |r: &bagualu::trainer::TrainReport| {
        r.loss_curve.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
    };
    assert_eq!(bits(&a), bits(&b), "loss bits");
    assert_eq!(a.loss_curve.len(), 1);
}

/// End-to-end tuner contract: the winning TOML, fed back through the file
/// format, replays the tuned run bit-identically.
#[test]
fn tuner_winning_toml_replays_bit_identically() {
    let mut base = RunConfig::default();
    base.train.ranks = 2;
    base.train.steps = 2;
    base.train.batch = 1;
    base.train.seq = 8;
    let space = SearchSpace {
        wire_dtypes: vec![WireDType::F32, WireDType::F16],
        hierarchical: vec![false, true],
        placements: vec![bagualu_tune::space::PlacementChoice::RoundRobin],
        overlap: vec![true],
        bucket_kibs: vec![1024],
    };
    let opts = TuneOptions {
        measure: false,
        ..TuneOptions::default()
    };
    let report = tune(&base, &space, &CostEnv::sunway(4096), &opts).unwrap();

    let replayed = RunConfig::from_toml(&report.winning_toml()).unwrap();
    assert_eq!(replayed, report.winner().rc);
    let a = Trainer::new(report.winner().rc.to_train_config().unwrap()).run();
    let b = Trainer::new(replayed.to_train_config().unwrap()).run();
    assert_eq!(a.loss_curve, b.loss_curve);
}
