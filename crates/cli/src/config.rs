//! Flags → [`RunConfig`]: the CLI's half of the unified config layer.
//!
//! Every flag is a row of [`KEYS`], read like its TOML value, and every
//! default is *derived from* [`RunConfig::default`] — the CLI holds no
//! key names or default literals of its own, so the flag surface and the
//! TOML schema can never drift (tests below pin this). Precedence is
//! `RunConfig::default()` < `--config FILE` < explicit flags, which makes
//! a config file a named set of overrides and a flag a one-off tweak on
//! top of it.

use crate::args::Args;
use bagualu::runconfig::{Flag, RunConfig, KEYS};
use bagualu::tensor::{ComputeBackend, DType};

/// Read `--config FILE` into a [`RunConfig`], or start from defaults.
fn base(args: &Args) -> Result<RunConfig, String> {
    let path = args.get("config", "");
    if path.is_empty() {
        return Ok(RunConfig::default());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("--config {path}: {e}"))?;
    RunConfig::from_toml(&text).map_err(|e| format!("--config {path}: {e}"))
}

/// The recovery-side flags that also opt the run into the fault-tolerant
/// driver (`ft.enabled`, which has no flag of its own).
const FT_FLAGS: [&str; 3] = ["ckpt-dir", "elastic", "straggler-factor"];

/// The flags [`train_run_config`] (or, with `serve`,
/// [`serve_run_config`]) consumes, for `assert_known`.
pub(crate) fn config_flags(serve: bool) -> Vec<&'static str> {
    let mut flags = vec!["config", "dump-config"];
    flags.extend(
        KEYS.iter()
            .filter(|k| k.takes(serve))
            .filter_map(|k| k.flag.name()),
    );
    if !serve {
        flags.push("compute-dtype");
    }
    flags
}

/// Overlay the subcommand's key flags onto `--config`/defaults. A value
/// flag reads like its TOML value; an error names the flag.
fn overlay(args: &Args, serve: bool) -> Result<RunConfig, String> {
    let mut rc = base(args)?;
    for key in KEYS.iter().filter(|k| k.takes(serve)) {
        let (flag, value) = match key.flag {
            Flag::Value(f) => (f, args.get(f, "")),
            Flag::Switch(f) if args.switch(f) => (f, "true".into()),
            Flag::Off(f) if args.switch(f) => (f, "false".into()),
            _ => continue,
        };
        if !value.is_empty() {
            (key.set)(&mut rc, &value).map_err(|e| format!("--{flag} {value}: {e}"))?;
        }
    }
    Ok(rc)
}

/// Overlay the training-side flags onto `--config`/defaults. The result
/// is *not* yet validated — `RunConfig::to_train_config` validates, so
/// `--dump-config` can still print a config the user is mid-way through
/// assembling.
pub(crate) fn train_run_config(args: &Args) -> Result<RunConfig, String> {
    let mut rc = overlay(args, false)?;
    // `--compute-dtype` refines a `half` backend in place.
    let compute_dtype = args.get("compute-dtype", "");
    if !compute_dtype.is_empty() {
        let dt: DType = compute_dtype
            .parse()
            .map_err(|e| format!("--compute-dtype: {e}"))?;
        match (rc.compute.backend, dt) {
            (_, DType::F32) => {
                return Err("--compute-dtype wants a 16-bit format (fp16 | bf16)".into())
            }
            (ComputeBackend::Half(_), dt) => rc.compute.backend = ComputeBackend::Half(dt),
            _ => {
                return Err(
                    "--compute-dtype only applies to --compute-backend half (reference, \
                     tiled, and tiled:fma always compute in fp32)"
                        .into(),
                )
            }
        }
    }
    if FT_FLAGS
        .iter()
        .any(|f| args.switch(f) || !args.get(f, "").is_empty())
    {
        rc.ft.enabled = true;
    }
    Ok(rc)
}

/// Overlay the serving-side flags onto `--config`/defaults. Serving uses
/// `[model]`, `[serve]`, the comm topology, placement and the seed;
/// `[train]`'s `ranks` doubles as the serving world size (one world size
/// per run).
pub(crate) fn serve_run_config(args: &Args) -> Result<RunConfig, String> {
    overlay(args, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagualu::parallel::ExpertPlacement;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    /// The anti-drift pin: a bare `bagualu train` must mean exactly
    /// `RunConfig::default()`. If a default literal ever sneaks back into
    /// the CLI layer, this fails.
    #[test]
    fn bare_train_is_exactly_the_default_run_config() {
        assert_eq!(
            train_run_config(&parse("train")).unwrap(),
            RunConfig::default()
        );
        assert_eq!(
            serve_run_config(&parse("serve")).unwrap(),
            RunConfig::default()
        );
    }

    #[test]
    fn flags_override_defaults() {
        let rc = train_run_config(&parse(
            "train --ranks 4 --steps 7 --wire-dtype bf16 --hierarchical \
             --supernode-size 2 --placement supernode:2 --no-overlap --zero \
             --compute-backend tiled:fma --gate balanced --skew 1.1",
        ))
        .unwrap();
        assert_eq!(rc.train.ranks, 4);
        assert_eq!(rc.train.steps, 7);
        assert!(rc.comm.hierarchical && !rc.comm.overlap && rc.train.zero);
        assert_eq!(rc.comm.supernode_size, 2);
        assert_eq!(
            rc.placement.policy,
            ExpertPlacement::Supernode { supernode_size: 2 }
        );
        assert_eq!(rc.compute.backend, ComputeBackend::TiledFma);
    }

    #[test]
    fn flags_override_config_file() {
        let dir = std::env::temp_dir().join(format!("bagualu-cli-cfg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.toml");
        let mut file_rc = RunConfig::default();
        file_rc.train.steps = 99;
        file_rc.train.ranks = 4;
        std::fs::write(&path, file_rc.to_toml()).unwrap();
        let rc = train_run_config(&parse(&format!(
            "train --config {} --steps 11",
            path.display()
        )))
        .unwrap();
        assert_eq!(rc.train.steps, 11, "flag beats file");
        assert_eq!(rc.train.ranks, 4, "file beats default");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ft_flags_enable_the_recovery_driver() {
        let rc = train_run_config(&parse("train --elastic --ckpt-every 4")).unwrap();
        assert!(rc.ft.enabled && rc.ft.elastic);
        assert_eq!(rc.ft.ckpt_every, 4);
        let rc = train_run_config(&parse("train --straggler-factor 1.5")).unwrap();
        assert!(rc.ft.enabled);
        assert_eq!(rc.ft.straggler_factor, 1.5);
        assert!(!train_run_config(&parse("train")).unwrap().ft.enabled);
    }

    #[test]
    fn knob_errors_name_the_flag_and_the_choices() {
        let e = train_run_config(&parse("train --gate top9")).unwrap_err();
        assert!(e.contains("--gate") && e.contains("balanced"), "{e}");
        let e = train_run_config(&parse("train --compute-dtype fp32")).unwrap_err();
        assert!(e.contains("16-bit"), "{e}");
        let e = train_run_config(&parse("train --config /no/such/file.toml")).unwrap_err();
        assert!(e.contains("--config"), "{e}");
    }

    /// A value each value flag's key does not default to, valid next to
    /// the context below.
    fn sample(flag: &str) -> &'static str {
        match flag {
            "preset" => "1.93t",
            "experts" => "8",
            "gate" => "balanced",
            "ranks" => "4",
            "steps" => "7",
            "batch" => "3",
            "seq" => "16",
            "lr" => "0.5",
            "dtype" => "bf16",
            "seed" => "7",
            "skew" => "1.1",
            "wire-dtype" => "bf16",
            "supernode-size" => "2",
            "bucket-kib" => "64",
            "placement" => "block",
            "locality-bias" => "0.5",
            "compute-backend" => "reference",
            "ckpt-dir" => "/tmp/ck",
            "ckpt-every" => "4",
            "max-restarts" => "7",
            "straggler-factor" => "1.5",
            "straggler-window" => "2",
            "max-batch" => "3",
            "kv-blocks" => "17",
            "block-tokens" => "8",
            other => panic!("no sample value for --{other}"),
        }
    }

    /// The table-driven pin on the key table: for every key with a flag,
    /// the flag and the key's TOML line build equal configs, on every
    /// subcommand that takes the flag, and the result is a `to_toml` →
    /// `from_toml` fixed point. Keys that only validate next to another
    /// (`supernode_size` needs `hierarchical`, the `[ft]` knobs need
    /// `enabled`) get that context on both sides, from one `--config` file.
    #[test]
    fn every_key_flag_sets_what_its_toml_line_sets() {
        let dir = std::env::temp_dir().join(format!("bagualu-cli-keys-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let context = [("comm", "hierarchical"), ("ft", "enabled")];
        let mut tested = 0;
        for key in KEYS {
            let Some(flag) = key.flag.name() else {
                continue;
            };
            let ctx: String = context
                .iter()
                .filter(|&&(section, name)| (section, name) != (key.section, key.name))
                .map(|(section, name)| format!("[{section}]\n{name} = true\n"))
                .collect();
            let ctx_path = dir.join(format!("{flag}.toml"));
            std::fs::write(&ctx_path, &ctx).unwrap();
            let (value, argv) = match key.flag {
                Flag::Value(_) => (sample(flag), format!("--{flag} {}", sample(flag))),
                Flag::Switch(_) => ("true", format!("--{flag}")),
                Flag::Off(_) => ("false", format!("--{flag}")),
                Flag::None => unreachable!(),
            };
            let literal = match key.kind {
                bagualu::runconfig::Kind::Str => format!("\"{value}\""),
                _ => value.to_string(),
            };
            let line = format!("{ctx}[{}]\n{} = {literal}\n", key.section, key.name);
            let via_toml = RunConfig::from_toml(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_ne!(
                via_toml,
                RunConfig::from_toml(&ctx).unwrap(),
                "{flag}: a default"
            );
            let text = via_toml.to_toml();
            assert_eq!(RunConfig::from_toml(&text).unwrap(), via_toml, "{flag}");
            assert_eq!(
                RunConfig::from_toml(&text).unwrap().to_toml(),
                text,
                "{flag}"
            );
            for (serve, build) in [
                (
                    false,
                    train_run_config as fn(&Args) -> Result<RunConfig, String>,
                ),
                (true, serve_run_config),
            ] {
                if key.takes(serve) {
                    let cmd = if serve { "serve" } else { "train" };
                    let args = parse(&format!("{cmd} --config {} {argv}", ctx_path.display()));
                    assert_eq!(build(&args).unwrap(), via_toml, "{cmd} {argv}");
                    tested += 1;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        // The derived flag lists are the flagged rows plus the file flags.
        let flagged = |serve| KEYS.iter().filter(|k| k.takes(serve)).count();
        assert_eq!(tested, flagged(false) + flagged(true));
        assert_eq!(
            config_flags(false).len(),
            flagged(false) + 3,
            "+ config, dump-config, compute-dtype"
        );
        assert_eq!(
            config_flags(true).len(),
            flagged(true) + 2,
            "+ config, dump-config"
        );
    }

    #[test]
    fn non_finite_and_out_of_range_flags_name_the_flag() {
        for (argv, flag) in [
            ("train --lr 1e39", "--lr"),
            ("train --locality-bias inf", "--locality-bias"),
            ("train --straggler-factor NaN", "--straggler-factor"),
            ("train --skew nan", "--skew"),
        ] {
            let e = train_run_config(&parse(argv)).unwrap_err();
            assert!(e.contains(flag) && e.contains("finite"), "{argv}: {e}");
        }
        let e = train_run_config(&parse("train --ranks -1")).unwrap_err();
        assert!(e.contains("--ranks"), "{e}");
    }

    /// `--seed` is the `[train] seed` key for serving too: the flag and a
    /// config file's seed both reach the served model.
    #[test]
    fn serve_reads_the_configured_seed() {
        assert_eq!(
            serve_run_config(&parse("serve --seed 7"))
                .unwrap()
                .train
                .seed,
            7
        );
        assert!(config_flags(true).contains(&"seed"));
    }
}
