//! `suite`: run every workload in its own process over a list of seeds and
//! write the results as one set. `compare`: read two or more sets and say,
//! per end-to-end metric and workload, whether the later set improved,
//! stayed, regressed, or cannot be told apart from its own spread — using
//! the bounds `BENCHMARK.json` fixes.

use crate::json::Json;
use crate::stats;
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Per-layer metrics that are counts made by the program: on one seed they
/// must read exactly the same in every set.
const EXACT: &[&str] = &[
    "core.final_loss",
    "core.loss_crc",
    "core.ckpt_bytes",
    "comm.bytes_per_step",
    "comm.msgs_per_step",
    "comm.a2a_bytes_per_step",
    "comm.allreduce_bytes_per_step",
    "comm.wire_f16_bytes_per_step",
];
/// Workloads whose counts repeat: serving batches by arrival time, so its
/// traffic per step does not.
const EXACT_WORKLOADS: &[&str] = &["train_compute", "train_route", "train_state"];
/// A run whose spin probe is this far off its set's median was taken next to
/// a noisy neighbour.
const SPIN_TOLERANCE: f64 = 0.15;

fn spec() -> Result<Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

pub fn run_seconds() -> Result<f64, String> {
    spec()?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| "BENCHMARK.json: no run_seconds".into())
}

/// Run one workload in a child process of this same program, wait for it,
/// and return the result object from the last line of its standard output.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: &str,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", trace])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} --trace {trace} --seed {seed}: {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))
}

pub fn suite(out_path: &str, seeds: &[u64], seconds: f64, smoke: bool) -> Result<(), String> {
    let mut runs = Vec::new();
    for workload in WORKLOADS {
        for &seed in seeds {
            for trace in ["0", "1"] {
                eprintln!("suite: {workload} --seed {seed} --trace {trace}");
                let result = run_child(workload, seed, seconds, trace, smoke)?;
                runs.push(Json::obj([
                    ("workload", Json::Str(workload.into())),
                    ("seed", Json::Num(seed as f64)),
                    ("trace", Json::Num(trace.parse::<f64>().unwrap_or(0.0))),
                    ("result", result),
                ]));
            }
        }
    }
    let set = Json::obj([
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(out_path, format!("{set}\n")).map_err(|e| format!("{out_path}: {e}"))
}

/// One set, indexed: `(workload, metric) → [(seed, value)]`, untraced and
/// traced runs kept apart.
struct Set {
    name: String,
    end_to_end: BTreeMap<(String, String), Vec<(u64, f64)>>,
    per_layer: BTreeMap<(String, String), Vec<(u64, f64)>>,
}

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set {
        name: path.to_string(),
        end_to_end: BTreeMap::new(),
        per_layer: BTreeMap::new(),
    };
    for run in json.get("runs").map(Json::as_arr).unwrap_or_default() {
        let field = |k: &str| {
            run.get(k)
                .ok_or_else(|| format!("{path}: run without {k:?}"))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
        let table = if field("trace")?.as_f64() == Some(0.0) {
            &mut set.end_to_end
        } else {
            &mut set.per_layer
        };
        let metrics = field("result")?
            .get("metrics")
            .map(Json::as_obj)
            .unwrap_or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                table
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push((seed, v));
            }
        }
    }
    Ok(set)
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Judge `b` against the baseline `a`. `bound` is the share of the
/// baseline's median a metric may worsen by. When either set's own spread
/// (quartile distance over median) exceeds the bound, the sets cannot
/// resolve a change of that size. An improvement must also exceed the
/// baseline's spread.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if a.len() < 3 || b.len() < 3 {
        return Verdict::Unresolved;
    }
    let (spread_a, spread_b) = (stats::iqr_share(a), stats::iqr_share(b));
    if spread_a.max(spread_b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > bound.max(spread_a) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn describe(xs: &[f64]) -> String {
    if xs.len() < 2 {
        return format!(
            "{:.4} (n={})",
            xs.first().copied().unwrap_or(f64::NAN),
            xs.len()
        );
    }
    let (q1, q3) = stats::quartiles(xs);
    format!("{:.4} [{q1:.4}, {q3:.4}] n={}", stats::median(xs), xs.len())
}

fn values(points: Option<&Vec<(u64, f64)>>) -> Vec<f64> {
    points
        .map(|p| p.iter().map(|x| x.1).collect())
        .unwrap_or_default()
}

pub fn compare(paths: &[String]) -> Result<(), String> {
    if paths.len() < 2 {
        return Err("compare needs at least two result sets".into());
    }
    let spec = spec()?;
    let sets: Vec<Set> = paths.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let (base, others) = sets.split_first().expect("two or more sets");
    let mut regressed = 0usize;

    for other in others {
        println!("== {} -> {}", base.name, other.name);
        for m in spec.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            for workload in WORKLOADS {
                let key = (workload.to_string(), name.to_string());
                let (a, b) = (
                    values(base.end_to_end.get(&key)),
                    values(other.end_to_end.get(&key)),
                );
                let v = verdict(&a, &b, lower, bound);
                regressed += usize::from(v == Verdict::Regressed);
                println!(
                    "{name:14} {workload:14} {:44} {:44} bound {:>4.1} % {}",
                    describe(&a),
                    describe(&b),
                    100.0 * bound,
                    format!("{v:?}").to_lowercase()
                );
            }
        }
        // Counts the program makes must repeat exactly on the same seed.
        for workload in EXACT_WORKLOADS {
            for name in EXACT {
                let key = (workload.to_string(), name.to_string());
                let (Some(a), Some(b)) = (base.per_layer.get(&key), other.per_layer.get(&key))
                else {
                    continue;
                };
                for &(seed, va) in a {
                    for &(_, vb) in b.iter().filter(|(s, _)| *s == seed) {
                        if va.to_bits() != vb.to_bits() {
                            println!("{name} {workload} seed {seed}: differs ({va} vs {vb})");
                            regressed += 1;
                        }
                    }
                }
            }
        }
    }

    for set in &sets {
        for workload in WORKLOADS {
            let key = (workload.to_string(), "host.spin_ms".to_string());
            let Some(points) = set.per_layer.get(&key) else {
                continue;
            };
            let med = stats::median(&values(Some(points)));
            for &(seed, v) in points {
                if ((v - med) / med).abs() > SPIN_TOLERANCE {
                    println!(
                        "noisy run: {} {workload} seed {seed}: host.spin_ms {v:.1} vs the set's median {med:.1}",
                        set.name
                    );
                }
            }
        }
    }
    if regressed > 0 {
        return Err(format!("{regressed} regressed or differing rows"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |by: f64| base.map(|x| x * by);
        // Higher is better, bound 5 %.
        assert_eq!(verdict(&base, &shift(1.0), false, 0.05), Verdict::Unchanged);
        assert_eq!(
            verdict(&base, &shift(0.97), false, 0.05),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &shift(0.90), false, 0.05),
            Verdict::Regressed
        );
        assert_eq!(verdict(&base, &shift(1.10), false, 0.05), Verdict::Improved);
        // Lower is better: the same shifts read the other way.
        assert_eq!(verdict(&base, &shift(1.10), true, 0.05), Verdict::Regressed);
        assert_eq!(verdict(&base, &shift(0.90), true, 0.05), Verdict::Improved);
        // A set whose own quartiles are further apart than the bound
        // resolves nothing, and neither do two runs.
        let wide = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(verdict(&base, &wide, false, 0.05), Verdict::Unresolved);
        assert_eq!(verdict(&base[..2], &base, false, 0.05), Verdict::Unresolved);
    }
}
