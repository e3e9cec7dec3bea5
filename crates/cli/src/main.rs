//! `bagualu` — the command-line face of the reproduction.
//!
//! ```text
//! bagualu info                                # machine + preset tables
//! bagualu train --ranks 4 --steps 100 --dtype bf16 --csv out.csv
//! bagualu project --preset 174t --nodes 96000 --precision half
//! bagualu generate --steps 300 --prompt 3,4,5 --tokens 8
//! bagualu serve --ranks 4 --max-batch 8 --kv-blocks 64 --requests 32 --qps 200
//! ```

mod args;
mod config;

use args::Args;
use bagualu::comm::FaultPlan;
use bagualu::data::TokenDistribution;
use bagualu::hw::{MachineConfig, Precision};
use bagualu::metrics::{format_flops, format_params, format_si};
use bagualu::model::config::ModelConfig;
use bagualu::model::param::HasParams;
use bagualu::model::transformer::Transformer;
use bagualu::optim::adam::{Adam, AdamConfig};
use bagualu::parallel::moe_dist::A2aKind;
use bagualu::perfmodel::{project, PerfInput};
use bagualu::tensor::par;
use bagualu::tensor::rng::Rng;
use bagualu::trainer::Trainer;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => die(&e),
    };
    let result = match args.command.as_str() {
        "info" => cmd_info(&args),
        "train" => cmd_train(&args),
        "project" => cmd_project(&args),
        "generate" => cmd_generate(&args),
        "serve" => cmd_serve(&args),
        "tune" => cmd_tune(&args),
        "" | "help" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command: {other}")),
    };
    if let Err(e) = result {
        die(&e);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!();
    print_help();
    std::process::exit(2);
}

fn print_help() {
    eprintln!("usage: bagualu <command> [--flags]");
    eprintln!();
    eprintln!("commands:");
    eprintln!("  info      machine model and brain-scale preset tables");
    eprintln!("  train     run the functional MoDa trainer");
    eprintln!("            --config FILE (TOML RunConfig; defaults < file < flags)");
    eprintln!("            --dump-config (print the resolved config as TOML and exit)");
    eprintln!("            --preset tiny|1.93t|14.5t|174t (model shape; default tiny)");
    eprintln!("            --ranks N --steps N --batch N --seq N --lr F --dtype fp32|bf16|fp16");
    eprintln!("            --wire-dtype f32|f16|bf16 (compress comm traffic to 16-bit in flight)");
    eprintln!(
        "            --compute-backend reference|tiled|tiled:fma|half (GEMM kernels; \
         default tiled. tiled:fma is faster but not bit-identical)"
    );
    eprintln!("            --compute-dtype fp16|bf16 (half-compute storage format; default bf16)");
    eprintln!("            --experts N --gate top1|top2|balanced|noisy --skew F");
    eprintln!("            --hierarchical (a2a) --supernode-size S (0 = auto ranks/2)");
    eprintln!("            --zero (sharded optimizer) --csv PATH");
    eprintln!("            --placement roundrobin|block|supernode[:S] (expert↔rank mapping)");
    eprintln!("            --locality-bias B (gate bonus toward intra-supernode experts)");
    eprintln!("            --no-overlap (blocking grad sync) --bucket-kib N (overlap bucket)");
    eprintln!("            --trace FILE (write Chrome trace JSON + per-rank summary)");
    eprintln!("            --ckpt-dir PATH --ckpt-every N (checkpoint/restart recovery)");
    eprintln!("            --crash R@S[,R@S…] (inject rank R crash at step S) --max-restarts N");
    eprintln!("            --slow R@A..B:USEC[,…] (rank R stalls USEC µs per send on steps A..B)");
    eprintln!(
        "            --elastic (continue on R-1 ranks after a crash instead of full restore)"
    );
    eprintln!("            --straggler-factor F (flag ranks over F x median send occupancy)");
    eprintln!("            --straggler-window N (samples averaged before flagging; default 3)");
    eprintln!("  project   performance projection on the simulated machine");
    eprintln!("            --preset 1.93t|14.5t|174t --nodes N --precision fp32|half");
    eprintln!("            --naive (collectives) --overlap F --tokens-per-node N --two-level-gate");
    eprintln!("  generate  train a tiny model and decode from it");
    eprintln!("            --steps N --prompt a,b,c --tokens N");
    eprintln!("  tune      auto-tune the comm knobs against the cost model (see docs/TUNING.md)");
    eprintln!("            takes every train flag as the base config, plus:");
    eprintln!("            --scale-nodes N (machine scale the model targets; default 4096)");
    eprintln!("            --top-k N (modeled candidates to validate with real runs; default 3)");
    eprintln!("            --measure-steps N (steps per validation run) --no-measure (model only)");
    eprintln!("            --out FILE (write the winning config TOML; feed to train --config)");
    eprintln!("  serve     continuous-batching expert-parallel inference (see docs/SERVING.md)");
    eprintln!("            --ranks N --max-batch N --kv-blocks N --block-tokens N");
    eprintln!("            --requests N --qps F (0 = all at once) --prompt-len N --tokens N");
    eprintln!("            --experts N --hierarchical --placement roundrobin|block|supernode[:S]");
    eprintln!("            --locality-bias B (trades exact logits for intra-supernode a2a)");
}

fn preset(name: &str) -> Result<ModelConfig, String> {
    match name {
        "tiny" => Ok(ModelConfig::tiny()),
        "1.93t" => Ok(ModelConfig::bagualu_1_93t()),
        "14.5t" => Ok(ModelConfig::bagualu_14_5t()),
        "174t" => Ok(ModelConfig::bagualu_174t()),
        other => Err(format!(
            "unknown preset: {other} (tiny | 1.93t | 14.5t | 174t)"
        )),
    }
}

fn cmd_info(args: &Args) -> Result<(), String> {
    args.assert_known(&[])?;
    let m = MachineConfig::new_generation_sunway();
    println!("machine: New Generation Sunway (model)");
    println!(
        "  nodes: {}  supernodes: {}  cores: {}",
        m.nodes,
        m.supernodes(),
        m.total_cores()
    );
    println!(
        "  peak: {} fp32, {} half",
        format_flops(m.peak(Precision::FP32)),
        format_flops(m.peak(Precision::Half))
    );
    println!("\npresets:");
    for (name, cfg) in [
        ("1.93t", ModelConfig::bagualu_1_93t()),
        ("14.5t", ModelConfig::bagualu_14_5t()),
        ("174t", ModelConfig::bagualu_174t()),
    ] {
        println!(
            "  {name:>6}: {} params ({} experts x {} MoE blocks, d={}, L={})",
            format_params(cfg.count_params()),
            cfg.n_experts,
            cfg.n_moe_blocks(),
            cfg.d_model,
            cfg.n_layers
        );
    }
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let mut known = vec!["csv", "trace", "crash", "slow"];
    known.extend_from_slice(config::TRAIN_CONFIG_FLAGS);
    args.assert_known(&known)?;
    // Defaults < --config FILE < explicit flags, all through one
    // RunConfig: the run is fully described by `--dump-config`'s output.
    let rc = config::train_run_config(args)?;
    if args.switch("dump-config") {
        print!("{}", rc.to_toml());
        return Ok(());
    }
    let trace_path = args.get("trace", "");
    let mut cfg = rc.to_train_config()?;
    cfg.trace = !trace_path.is_empty();
    let nranks = cfg.nranks;
    println!(
        "training {} params on {} ranks, {} steps, {} (wire {}, placement {}, compute {}) …",
        cfg.model.count_params(),
        cfg.nranks,
        cfg.steps,
        cfg.dtype,
        cfg.wire,
        cfg.resolved_placement(),
        cfg.compute
    );
    println!("{}", par::describe_layout(nranks));

    // Fault-tolerant path: an enabled [ft] section (any checkpoint or
    // degradation flag sets it) or an injected fault routes through
    // run_ft. Contradictory combinations were already rejected by
    // `to_train_config`'s validation, each with the fix spelled out.
    let crash_spec = args.get("crash", "");
    let slow_spec = args.get("slow", "");
    let ft_requested = rc.ft.enabled || !crash_spec.is_empty() || !slow_spec.is_empty();
    let report = if ft_requested {
        let mut plan = FaultPlan::new(cfg.seed);
        for part in crash_spec.split(',').filter(|s| !s.is_empty()) {
            let (r, s) = part
                .split_once('@')
                .ok_or_else(|| format!("bad --crash spec: {part} (want rank@step)"))?;
            let rank: usize = r.trim().parse().map_err(|_| format!("bad rank: {r}"))?;
            let step: usize = s.trim().parse().map_err(|_| format!("bad step: {s}"))?;
            if rank >= cfg.nranks {
                return Err(format!(
                    "--crash rank {rank} out of range (ranks={nranks}); ranks are \
                     numbered 0..{}",
                    nranks - 1
                ));
            }
            if step >= cfg.steps {
                return Err(format!(
                    "--crash at step {step} can never fire: the run only has {} steps \
                     (0..{})",
                    cfg.steps,
                    cfg.steps - 1
                ));
            }
            plan = plan.crash(rank, step);
        }
        for part in slow_spec.split(',').filter(|s| !s.is_empty()) {
            let bad = || format!("bad --slow spec: {part} (want rank@from..to:usec)");
            let (r, rest) = part.split_once('@').ok_or_else(bad)?;
            let (range, usec) = rest.split_once(':').ok_or_else(bad)?;
            let (a, b) = range.split_once("..").ok_or_else(bad)?;
            let rank: usize = r.trim().parse().map_err(|_| format!("bad rank: {r}"))?;
            let from: usize = a.trim().parse().map_err(|_| format!("bad step: {a}"))?;
            let to: usize = b.trim().parse().map_err(|_| format!("bad step: {b}"))?;
            let delay: u64 = usec
                .trim()
                .parse()
                .map_err(|_| format!("bad delay: {usec}"))?;
            if rank >= cfg.nranks {
                return Err(format!(
                    "--slow rank {rank} out of range (ranks={nranks}); ranks are \
                     numbered 0..{}",
                    nranks - 1
                ));
            }
            if from >= to {
                return Err(format!(
                    "--slow step range {from}..{to} is empty (want from < to)"
                ));
            }
            plan = plan.slow_rank(rank, from, to, delay);
        }
        // The fault *plan* is injection tooling, not part of the run
        // description — --crash/--slow opt into the recovery driver
        // without writing an [ft] section of their own.
        let mut ft_rc = rc.clone();
        ft_rc.ft.enabled = true;
        let mut ft = ft_rc.to_ft_config().expect("just enabled");
        ft.plan = plan;
        let report = Trainer::new(cfg).run_ft(&ft);
        if report.restarts > 0 {
            println!(
                "recovered from {} failure(s): {} step(s) re-executed, {:.2}s lost{}",
                report.restarts,
                report.lost_steps,
                report.recovery_time_s,
                if report.resizes > 0 {
                    format!(", world shrunk {} time(s)", report.resizes)
                } else {
                    String::new()
                }
            );
        }
        if report.migrations > 0 {
            println!(
                "straggler mitigation: {} expert-load migration(s), final placement {}",
                report.migrations, report.placement
            );
        }
        report
    } else {
        Trainer::new(cfg).run()
    };
    for (i, l) in report.loss_curve.iter().enumerate() {
        if i % 10 == 0 || i + 1 == report.loss_curve.len() {
            println!(
                "  step {i:>4}: loss {l:.4}  imbalance {:.2}",
                report.imbalance_curve[i]
            );
        }
    }
    let overlap = match report.overlap_fraction {
        Some(f) => format!("overlap {:.0}%", f * 100.0),
        None => "overlap n/a".to_string(),
    };
    println!(
        "final loss {:.4} | {} | skipped {} | {}",
        report.final_loss(),
        format_si(report.tokens_per_sec, "tok/s"),
        report.skipped_steps,
        overlap
    );
    if let Some(stats) = report.comm_stats {
        print!(
            "comm traffic: {} total",
            format_si(stats.total_bytes as f64, "B")
        );
        for (family, f) in stats.families() {
            if f.bytes > 0 {
                print!(" | {:?} {}", family, format_si(f.bytes as f64, "B"));
            }
        }
        if let Some(f) = stats.a2a_local_fraction() {
            print!(" | a2a intra-supernode {:.0}%", f * 100.0);
        }
        println!();
    }
    if !trace_path.is_empty() {
        let trace = report.trace.as_ref().expect("trace was enabled");
        std::fs::write(&trace_path, trace.to_chrome_json()).map_err(|e| e.to_string())?;
        println!("wrote Chrome trace to {trace_path} (open at https://ui.perfetto.dev)");
        print!("{}", trace.summary());
    }
    if let Some(path) = {
        let p = args.get("csv", "");
        (!p.is_empty()).then_some(p)
    } {
        std::fs::write(&path, report.to_csv()).map_err(|e| e.to_string())?;
        println!("wrote per-step metrics to {path}");
    }
    Ok(())
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    let mut known = vec!["scale-nodes", "top-k", "measure-steps", "no-measure", "out"];
    known.extend_from_slice(config::TRAIN_CONFIG_FLAGS);
    args.assert_known(&known)?;
    // Every train flag works here and fixes the base config the tuner
    // anchors to; the tuner only searches the communication-side axes.
    let rc = config::train_run_config(args)?;
    if args.switch("dump-config") {
        print!("{}", rc.to_toml());
        return Ok(());
    }
    let defaults = bagualu_tune::TuneOptions::default();
    let opts = bagualu_tune::TuneOptions {
        scale_nodes: args.get_parse("scale-nodes", defaults.scale_nodes)?,
        top_k: args.get_parse("top-k", defaults.top_k)?,
        measure_steps: args.get_parse("measure-steps", defaults.measure_steps)?,
        measure: !args.switch("no-measure"),
    };
    let env = bagualu_tune::CostEnv::sunway(opts.scale_nodes);
    let space = bagualu_tune::SearchSpace::default();
    println!(
        "tuning over {} knob combinations at {} modeled nodes ({} measured validation \
         run(s) of {} step(s) each) …",
        space.grid_points(),
        opts.scale_nodes,
        if opts.measure { opts.top_k + 1 } else { 0 },
        opts.measure_steps
    );
    let report = bagualu_tune::tune(&rc, &space, &env, &opts)?;
    print!("{}", report.table());
    let w = report.winner();
    println!(
        "winner: {} (modeled {:.3} ms/step, {}, {:.2}x over the roofline floor)",
        w.name,
        w.cost.step_s * 1e3,
        match w.measured_step_s {
            Some(t) => format!("measured {:.3} ms/step", t * 1e3),
            None => "not measured".into(),
        },
        w.cost.roofline_distance
    );
    let out = args.get("out", "");
    if out.is_empty() {
        println!("\n# winning config (save and replay with: bagualu train --config FILE)");
        print!("{}", report.winning_toml());
    } else {
        std::fs::write(&out, report.winning_toml()).map_err(|e| format!("--out {out}: {e}"))?;
        println!("wrote winning config to {out} (replay with: bagualu train --config {out})");
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let mut known = vec!["requests", "qps", "prompt-len", "tokens", "seed"];
    known.extend_from_slice(config::SERVE_CONFIG_FLAGS);
    args.assert_known(&known)?;
    use bagualu::serve::run;
    use bagualu::trace::names;
    use std::time::{Duration, Instant};

    let rc = config::serve_run_config(args)?;
    if args.switch("dump-config") {
        print!("{}", rc.to_toml());
        return Ok(());
    }
    rc.validate()?;
    let nranks = rc.train.ranks;
    let requests = args.get_parse("requests", 32usize)?;
    let qps: f64 = args.get_parse("qps", 0.0f64)?;
    let prompt_len = args.get_parse("prompt-len", 4usize)?;
    let max_new = args.get_parse("tokens", 8usize)?;
    let seed = args.get_parse("seed", 42u64)?;
    let locality_bias = rc.placement.locality_bias;
    let engine = rc.to_engine_config();
    let model_cfg = ModelConfig {
        n_experts: rc.model.experts,
        gate: rc.model.gate,
        ..bagualu::runconfig::preset(&rc.model.preset)?
    };
    let a2a = rc.a2a();
    let placement = rc.placement.policy;
    if requests == 0 || prompt_len == 0 {
        return Err("--requests and --prompt-len must both be >= 1".into());
    }
    if max_new == 0 {
        return Err("--tokens must be >= 1 (there is nothing to decode otherwise)".into());
    }
    if prompt_len + max_new > model_cfg.max_seq {
        return Err(format!(
            "--prompt-len {prompt_len} + --tokens {max_new} exceeds the model's max_seq \
             ({}); shorten one of them",
            model_cfg.max_seq
        ));
    }
    let supernode_size = match a2a {
        A2aKind::Hierarchical { supernode_size } => supernode_size,
        A2aKind::Pairwise => nranks,
    };
    if locality_bias > 0.0 {
        println!(
            "note: --locality-bias trades bit-exact logits for cheaper decode a2a \
             (see docs/SERVING.md)"
        );
    }

    println!(
        "serving on {nranks} rank(s): {} experts, batch {} / {} KV blocks x {} tokens, \
         {} requests of {}+{} tokens at {} …",
        model_cfg.n_experts,
        engine.max_batch,
        engine.kv_blocks,
        engine.block_tokens,
        requests,
        prompt_len,
        max_new,
        if qps > 0.0 {
            format!("{qps} req/s")
        } else {
            "full blast".to_string()
        }
    );
    println!("{}", par::describe_layout(nranks));
    let opts = rc.to_server_options(true);
    let started = Instant::now();
    let report = run(
        opts,
        |rank| {
            let mut m = bagualu::parallel::DistTransformer::new_placed(
                model_cfg, seed, rank, nranks, a2a, placement,
            );
            if locality_bias > 0.0 {
                m.set_locality_bias(locality_bias, supernode_size);
            }
            m
        },
        |client| {
            // Open-loop load generator: fixed inter-arrival gap of 1/qps
            // (0 = submit everything immediately), deterministic prompts.
            let mut rng = Rng::seed_from(seed ^ 0x5e2e);
            let gap = (qps > 0.0).then(|| Duration::from_secs_f64(1.0 / qps));
            let tickets: Vec<_> = (0..requests)
                .map(|i| {
                    if let (Some(gap), true) = (gap, i > 0) {
                        std::thread::sleep(gap);
                    }
                    let prompt: Vec<usize> = (0..prompt_len)
                        .map(|_| rng.below(model_cfg.vocab))
                        .collect();
                    client.submit(prompt, max_new)
                })
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().expect("generated requests are always valid"))
                .collect::<Vec<_>>()
        },
    );
    let wall = started.elapsed();
    let responses = report.output;
    let trace = report.trace.expect("serve always traces");

    let mut totals_ms: Vec<f64> = responses
        .iter()
        .map(|r| r.total_ns() as f64 / 1e6)
        .collect();
    totals_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| totals_ms[((totals_ms.len() - 1) as f64 * p).round() as usize];
    let generated: usize = responses.iter().map(|r| r.generated().len()).sum();
    let decode_steps = trace.span_count(names::SERVE_DECODE_STEP);
    let occupancy = if decode_steps > 0 {
        trace.counter_total(names::SERVE_BATCH_OCCUPANCY) as f64 / decode_steps as f64
    } else {
        0.0
    };
    println!(
        "completed {} requests in {:.2}s: {} generated",
        responses.len(),
        wall.as_secs_f64(),
        format_si(generated as f64 / wall.as_secs_f64(), "tok/s"),
    );
    println!(
        "latency p50 {:.2}ms  p99 {:.2}ms  (queue+prefill+decode)",
        pct(0.50),
        pct(0.99)
    );
    println!(
        "mean batch occupancy {:.2}/{} | re-queued admissions {} | KV blocks reserved {} \
         (all {} returned)",
        occupancy,
        engine.max_batch,
        trace.counter_total(names::SERVE_REQUEUED),
        trace.counter_total(names::SERVE_KV_BLOCKS_USED),
        trace.counter_total(names::SERVE_KV_BLOCKS_FREE),
    );
    // The process-wide rows (rank 0's lane): what the run cost the host, and
    // what the tensor reservoir spared it.
    println!(
        "host: {} minor faults, {} ms system | tensor reservoir: {} hit, {} missed, {} released, \
         {} retained at most",
        trace.counter_total(names::HOST_MINOR_FAULTS),
        trace.counter_total(names::HOST_SYS_MS),
        format_si(
            trace.counter_total(names::MEM_RESERVOIR_HIT_BYTES) as f64,
            "B"
        ),
        format_si(
            trace.counter_total(names::MEM_RESERVOIR_MISS_BYTES) as f64,
            "B"
        ),
        format_si(
            trace.counter_total(names::MEM_RESERVOIR_RELEASED_BYTES) as f64,
            "B"
        ),
        format_si(
            trace.counter_total(names::MEM_RESERVOIR_RETAINED_PEAK_BYTES) as f64,
            "B"
        ),
    );
    Ok(())
}

fn cmd_project(args: &Args) -> Result<(), String> {
    args.assert_known(&[
        "preset",
        "nodes",
        "precision",
        "naive",
        "overlap",
        "tokens-per-node",
        "two-level-gate",
    ])?;
    let model = preset(&args.get("preset", "14.5t"))?;
    let nodes = args.get_parse("nodes", 96_000usize)?;
    let naive = args.switch("naive");
    let input = PerfInput {
        precision: match args.get("precision", "half").as_str() {
            "half" => Precision::Half,
            "fp32" => Precision::FP32,
            other => return Err(format!("unknown precision: {other}")),
        },
        hierarchical_a2a: !naive,
        hierarchical_allreduce: !naive,
        overlap: args.get_parse("overlap", 0.0f64)?,
        tokens_per_node: args.get_parse("tokens-per-node", 2048usize)?,
        two_level_gate: args.switch("two-level-gate"),
        ..PerfInput::sunway_nodes(model, nodes)
    };
    let p = project(&input);
    let b = p.breakdown;
    println!(
        "{} params on {} nodes ({} cores):",
        format_params(model.count_params()),
        nodes,
        nodes * 390
    );
    println!(
        "  step {:.3}s = dense {:.3} + gate {:.3} + experts {:.3} + a2a {:.3} + allreduce {:.3}",
        p.step_time, b.dense_compute, b.gate_compute, b.expert_compute, b.a2a, b.allreduce
    );
    println!(
        "  {} | sustained {} ({:.1}% of sustained peak) | comm {:.0}%",
        format_si(p.tokens_per_sec, "tok/s"),
        format_flops(p.sustained_flops),
        100.0 * p.efficiency,
        100.0 * b.comm_fraction()
    );
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    args.assert_known(&["steps", "prompt", "tokens", "seed"])?;
    let steps = args.get_parse("steps", 300usize)?;
    let n: usize = args.get_parse("tokens", 8usize)?;
    let cfg = ModelConfig {
        vocab: 32,
        ..ModelConfig::tiny()
    };
    let prompt: Vec<usize> = args
        .get("prompt", "3,4")
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad prompt token: {s}"))
        })
        .collect::<Result<_, _>>()?;
    if prompt.iter().any(|&t| t >= cfg.vocab) {
        return Err(format!("prompt tokens must be < {}", cfg.vocab));
    }

    let mut rng = Rng::seed_from(args.get_parse("seed", 7u64)?);
    let mut model = Transformer::new(cfg, &mut rng);
    let task = bagualu::data::SyntheticLM::new(cfg.vocab, TokenDistribution::Uniform, 7);
    let mut opt = Adam::new(AdamConfig {
        lr: 1e-2,
        ..Default::default()
    });
    println!("training {} params for {steps} steps…", model.num_params());
    for step in 0..steps {
        let (tokens, targets) = task.batch(4, 8, 0, step);
        model.train_batch(&tokens, &targets, 4, 8);
        opt.step(&mut model);
        model.zero_grad();
    }
    let out = model.generate_cached(&prompt, n.min(cfg.max_seq - prompt.len()));
    println!(
        "prompt {:?} → {}",
        prompt,
        out.iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    Ok(())
}
