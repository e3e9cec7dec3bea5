//! The step ledger: one benchmark of a whole training step and a whole
//! decode step, end to end and crate by crate. See `benchmark/README.md`.
//!
//! ```text
//! bagualu-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! bagualu-benchmark --smoke                      every workload, tiny shapes, both modes
//! bagualu-benchmark suite --out FILE [--seeds a,b,..] [--seconds s] [--smoke]
//! bagualu-benchmark compare A.json B.json [...]
//! ```
//!
//! The first form is what the driver runs, from the root of a checkout. Its
//! last line on standard output is the result object; everything meant for a
//! person goes to standard error.

mod compare;
mod host;
mod json;
mod ledger;
mod metrics;
mod probes;
mod product;
mod replay;
mod schedule;
mod serve;
mod stats;
mod train;
mod workloads;

use json::Json;
use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 11;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

/// `--key value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }
}

/// The `[profile.release]` table of a manifest, whitespace-trimmed lines.
fn release_profile(manifest: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(manifest).map_err(|e| format!("{manifest}: {e}"))?;
    Ok(text
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect())
}

/// The benchmark must be built the way the product is: the two release
/// profiles have to be the same table.
fn check_profiles() -> Result<(), String> {
    let (root, own) = (
        release_profile("Cargo.toml")?,
        release_profile("benchmark/Cargo.toml")?,
    );
    if root.is_empty() || root != own {
        return Err(format!(
            "[profile.release] of Cargo.toml {root:?} and benchmark/Cargo.toml {own:?} differ"
        ));
    }
    Ok(())
}

fn run_workload(a: &RunArgs) -> Result<Outcome, String> {
    match a.workload.as_str() {
        "serve_decode" => {
            let shape = workloads::serve_shape(a.smoke);
            Ok(if a.traced {
                serve::traced(&shape, a.seed, a.seconds)
            } else {
                serve::end_to_end(&shape, a.seed, a.seconds)
            })
        }
        w if workloads::WORKLOADS.contains(&w) => {
            let shape = workloads::train_shape(w, a.seed, a.smoke);
            Ok(if a.traced {
                train::traced(w, &shape)
            } else {
                train::end_to_end(w, &shape, a.seconds)
            })
        }
        other => Err(format!(
            "unknown workload {other:?} (want one of {:?})",
            workloads::WORKLOADS
        )),
    }
}

/// Run one workload in this process and print its result object as the last
/// line of standard output. Fails (no result line) when an output check did.
fn run_and_print(a: &RunArgs) -> Result<(), String> {
    check_profiles()?;
    let out = run_workload(a)?;
    let table = if a.traced { PER_LAYER } else { END_TO_END };
    for line in &out.notes {
        eprintln!("{line}");
    }
    for &(name, unit) in table {
        eprintln!("  {name:32} {:>16.6} {unit}", out.get(name));
    }
    eprintln!(
        "  attempted {} failed {} (failed share {})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    if !out.failures.is_empty() {
        return Err(format!(
            "{}: output checks failed:\n  {}",
            a.workload,
            out.failures.join("\n  ")
        ));
    }
    println!("{}", out.to_json(table));
    Ok(())
}

/// Every workload at tiny shapes, tracing off and on, each in its own
/// process: a check that the whole benchmark still runs, in seconds.
fn smoke_all() -> Result<(), String> {
    for w in workloads::WORKLOADS {
        for trace in ["0", "1"] {
            let result = compare::run_child(w, DEFAULT_SEED, 1.0, trace, true)?;
            let correct = result.get("correct") == Some(&Json::Bool(true));
            eprintln!("smoke {w} --trace {trace}: correct={correct}");
            if !correct {
                return Err(format!(
                    "smoke {w} --trace {trace} reported incorrect outputs"
                ));
            }
        }
    }
    Ok(())
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => compare::compare(&argv[1..]),
        Some("suite") => {
            let args = Args(argv[1..].to_vec());
            let seeds: Vec<u64> = args
                .value("--seeds")
                .unwrap_or("11")
                .split(',')
                .map(|s| s.parse().map_err(|_| format!("--seeds: cannot read {s:?}")))
                .collect::<Result<_, _>>()?;
            compare::suite(
                args.value("--out").ok_or("suite needs --out FILE")?,
                &seeds,
                args.parsed("--seconds", compare::run_seconds()?)?,
                args.flag("--smoke"),
            )
        }
        _ => {
            let args = Args(argv);
            let Some(workload) = args.value("--workload") else {
                return if args.flag("--smoke") {
                    smoke_all()
                } else {
                    Err("need --workload <name> (or --smoke, suite, compare)".into())
                };
            };
            run_and_print(&RunArgs {
                workload: workload.to_string(),
                seed: args.parsed("--seed", DEFAULT_SEED)?,
                seconds: args.parsed("--seconds", 10.0)?,
                traced: args.parsed::<u8>("--trace", 0)? != 0,
                smoke: args.flag("--smoke"),
            })
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bagualu-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
