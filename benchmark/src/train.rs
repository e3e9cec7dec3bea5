//! The three training workloads. End-to-end numbers time the product's own
//! entry points (`Trainer::run`, `Trainer::run_ft`) with tracing off; the
//! traced run reads the same entry point through the program's trace (T1),
//! replays the step through the crates' public functions (T2), and probes
//! what neither can split.

use crate::host::{self, Scratch};
use crate::ledger::{span_durations, worst_rank_counter, Ledger};
use crate::metrics::{loss_crc, Outcome};
use crate::product::{
    build_model, names, FtConfig, SyntheticLM, TrainConfig, TrainReport, Trainer, WireDType,
};
use crate::workloads::TrainShape;
use crate::{probes, replay, stats};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Steps of the untimed warm-up repetition inside each set-up.
const WARM_STEPS: usize = 1;
/// Fewest timed repetitions and fewest cold-start samples, however short
/// the run.
const MIN_REPS: usize = 3;
const MIN_FIRSTS: usize = 5;
/// Share of `--seconds` given to the timed repetitions; the cold-start
/// samples behind `first_ms_p50` take the rest.
const REPS_SHARE: f64 = 0.75;

/// The rows of the T2 ledger: the metric each replay span is reported as.
/// The spans do not nest in one another, so the rows add up to the step.
const T2_ROWS: &[(&str, &str)] = &[
    ("core.data_batch_ms", replay::DATA),
    ("model.embed_ms", replay::EMBED),
    ("model.ln_ms", replay::LN),
    ("model.attn_fwd_ms", replay::ATTN_FWD),
    ("model.attn_bwd_ms", replay::ATTN_BWD),
    ("model.ffn_dense_fwd_ms", replay::FFN_FWD),
    ("model.ffn_dense_bwd_ms", replay::FFN_BWD),
    ("parallel.moe_fwd_ms", replay::MOE_FWD),
    ("parallel.moe_bwd_ms", replay::MOE_BWD),
    ("model.head_ms", replay::HEAD),
    ("model.loss_ms", replay::LOSS),
    ("parallel.grad_sync_ms", replay::GRAD_SYNC),
    ("optim.clip_ms", replay::CLIP),
    ("optim.adam_step_ms", replay::ADAM),
    ("optim.zero_grad_ms", replay::ZERO_GRAD),
    ("core.ctrl_ms", replay::CTRL),
];

/// One call of the product's training entry point, and how long it took.
struct Rep {
    report: TrainReport,
    wall_s: f64,
}

impl Rep {
    fn tok_s(&self) -> f64 {
        self.report.total_tokens as f64 / self.wall_s
    }
}

/// `Trainer::run`, or `Trainer::run_ft` into `ckpt_dir` when the workload
/// checkpoints. No faults are injected; the heartbeat is long enough that a
/// descheduled rank is never mistaken for a dead one.
fn train_once(shape: &TrainShape, cfg: TrainConfig, ckpt_dir: &Path, resume_step: usize) -> Rep {
    let trainer = Trainer::new(cfg);
    let t0 = Instant::now();
    let report = match shape.ckpt_every {
        None => trainer.run(),
        Some(every) => trainer.run_ft(&FtConfig {
            ckpt_every: every,
            heartbeat_ms: 30_000,
            resume_step,
            ..FtConfig::new(ckpt_dir)
        }),
    };
    Rep {
        report,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// The step `run_ft` last checkpointed in a run of `steps` steps.
fn last_ckpt_step(steps: usize, every: usize) -> usize {
    (steps - 1) / every * every
}

/// What a user pays before the first timed repetition: generating inputs,
/// building the model once, and one untimed warm-up repetition.
fn setup(shape: &TrainShape, scratch: &Scratch) {
    let cfg = shape.cfg;
    let task = SyntheticLM::new(cfg.model.vocab, cfg.data, cfg.seed);
    for rank in 0..cfg.nranks {
        black_box(task.batch(cfg.batch_per_rank, cfg.seq, rank, 0));
    }
    black_box(build_model(&cfg, 0));
    let warm = TrainConfig {
        steps: WARM_STEPS,
        ..cfg
    };
    train_once(shape, warm, &scratch.fresh("warm"), 0);
}

/// Time from a cold call of the entry point to its first finished step: a
/// fresh one-step run, or — when the workload checkpoints — a resume from
/// the last checkpoint in `ckpt_dir` that runs one more step.
fn first_step_ms(shape: &TrainShape, ckpt_dir: &Path) -> (f64, TrainReport) {
    let (steps, resume) = match shape.ckpt_every {
        None => (1, 0),
        Some(every) => {
            let at = last_ckpt_step(shape.steps, every);
            (at + 1, at)
        }
    };
    let cfg = TrainConfig { steps, ..shape.cfg };
    let rep = train_once(shape, cfg, ckpt_dir, resume);
    (rep.wall_s * 1e3, rep.report)
}

/// Output checks every repetition must pass. Returns failed steps. The
/// one-rank baseline trains on half the global batch, a different problem,
/// so it is only held to finite losses (`must_learn` false).
fn check_rep(out: &mut Outcome, what: &str, rep: &Rep, steps: usize, must_learn: bool) -> u64 {
    let r = &rep.report;
    let curve = &r.loss_curve;
    out.require(curve.len() == steps, || {
        format!("{what}: {} losses for {steps} steps", curve.len())
    });
    let non_finite = curve.iter().filter(|l| !l.is_finite()).count() as u64;
    out.require(non_finite == 0, || format!("{what}: non-finite loss"));
    out.require(!must_learn || r.final_loss() < curve[0], || {
        format!(
            "{what}: loss did not fall ({} -> {})",
            curve[0],
            r.final_loss()
        )
    });
    out.require(r.restarts == 0, || {
        format!("{what}: {} restarts without an injected fault", r.restarts)
    });
    non_finite + r.skipped_steps
}

/// Traffic totals of a run as one comparable tuple (total and per family).
fn traffic(r: &TrainReport) -> Vec<(u64, u64)> {
    let s = r.comm_stats.expect("the shm transport collects statistics");
    std::iter::once((s.total_bytes, s.total_msgs))
        .chain(s.families().map(|(_, f)| (f.bytes, f.msgs)))
        .collect()
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn end_to_end(workload: &str, shape: &TrainShape, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let scratch = Scratch::new(workload);
    let full = TrainConfig {
        steps: shape.steps,
        ..shape.cfg
    };

    let setups: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            setup(shape, &scratch);
            t0.elapsed().as_secs_f64()
        })
        .collect();

    let phase = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || phase.elapsed().as_secs_f64() < seconds * REPS_SHARE {
        reps.push(train_once(shape, full, &scratch.fresh("rep"), 0));
    }
    // The last repetition's checkpoints are still in place for the resumes.
    let mut firsts: Vec<f64> = Vec::new();
    while firsts.len() < MIN_FIRSTS || phase.elapsed().as_secs_f64() < seconds {
        let (ms, report) = first_step_ms(shape, &scratch.path().join("rep"));
        out.require(report.final_loss().is_finite(), || {
            "first-step run: non-finite loss".into()
        });
        firsts.push(ms);
    }

    for (i, rep) in reps.iter().enumerate() {
        out.attempted += shape.steps as u64;
        out.failed += check_rep(&mut out, &format!("rep {i}"), rep, shape.steps, true);
        out.require(
            same_bits(&rep.report.loss_curve, &reps[0].report.loss_curve),
            || format!("rep {i}: loss curve differs from rep 0 on the same seed"),
        );
        out.require(traffic(&rep.report) == traffic(&reps[0].report), || {
            format!("rep {i}: comm traffic differs from rep 0")
        });
    }

    let tok_s: Vec<f64> = reps.iter().map(Rep::tok_s).collect();
    out.set("setup_s", stats::median(&setups));
    out.set("tok_s", stats::median(&tok_s));
    out.set("first_ms_p50", stats::median(&firsts));
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.note(format!(
        "{workload}: {} timed reps x {} steps, tok/s IQR {:.2} % of median; {} first-step samples; \
         final loss {} (curve crc {:08x})",
        reps.len(),
        shape.steps,
        100.0 * stats::iqr_share(&tok_s),
        firsts.len(),
        reps[0].report.final_loss(),
        loss_crc(&reps[0].report.loss_curve),
    ));
    out
}

pub fn traced(workload: &str, shape: &TrainShape) -> Outcome {
    let mut out = Outcome::default();
    let scratch = Scratch::new(workload);
    let cfg = TrainConfig {
        steps: shape.steps,
        ..shape.cfg
    };
    let (nranks, steps) = (cfg.nranks, shape.steps);
    let spin_before = host::spin_ms();
    setup(shape, &scratch);

    // The untraced reference, then the same call with the program's trace on.
    let reference = train_once(shape, cfg, &scratch.fresh("ref"), 0);
    let t1_dir = scratch.fresh("t1");
    let t1 = train_once(shape, TrainConfig { trace: true, ..cfg }, &t1_dir, 0);
    let t1_trace = t1.report.trace.clone().expect("trace was requested");
    // T2, and the run it must reproduce: the blocking-sync trainer. With an
    // f32 wire that is also the overlapped reference bit for bit (two-rank
    // sums commute); a 16-bit wire rounds whichever operand crossed the wire,
    // which depends on the bucket layout, so there the overlapped run is only
    // compared with T1.
    let t2 = replay::run(cfg);
    let blocking = if cfg.wire == WireDType::F32 {
        None
    } else {
        let no_overlap = TrainConfig {
            overlap: false,
            ..cfg
        };
        Some(train_once(shape, no_overlap, &scratch.fresh("blocking"), 0))
    };
    // One rank, same per-rank batch: the baseline for scaling efficiency.
    let single = train_once(
        shape,
        TrainConfig { nranks: 1, ..cfg },
        &scratch.fresh("single"),
        0,
    );

    for (what, rep, must_learn) in [
        ("reference", &reference, true),
        ("T1", &t1, true),
        ("1-rank", &single, false),
    ]
    .into_iter()
    .chain(blocking.as_ref().map(|b| ("blocking", b, true)))
    {
        out.attempted += steps as u64;
        out.failed += check_rep(&mut out, what, rep, steps, must_learn);
    }
    let ref_curve = &reference.report.loss_curve;
    out.require(same_bits(&t1.report.loss_curve, ref_curve), || {
        "T1 (traced) loss curve differs from the untraced run".into()
    });
    let t2_target = blocking.as_ref().unwrap_or(&reference);
    out.require(
        same_bits(&t2.loss_curve, &t2_target.report.loss_curve),
        || {
            format!(
                "T2 replay is not the trainer's computation: {:?} vs {:?}",
                t2.loss_curve, t2_target.report.loss_curve
            )
        },
    );
    out.require(traffic(&t1.report) == traffic(&reference.report), || {
        "comm traffic of the traced run differs from the untraced run".into()
    });
    for lane in &t1_trace.ranks {
        out.require(lane.check_balanced().is_ok(), || {
            format!("T1 lane {}: unbalanced spans", lane.lane)
        });
    }

    // ---- T1: the program's own spans and counters.
    let l1 = Ledger::read(&t1_trace, nranks, names::STEP);
    out.require(l1.steps() == steps, || {
        format!("T1 recorded {} step spans for {steps} steps", l1.steps())
    });
    let step_ms = l1.step_ms();
    out.set("core.step_ms_p50", stats::median(&step_ms));
    out.set("core.step_ms_p90", stats::percentile(&step_ms, 90.0));
    out.set("core.fwd_ms", l1.span_ms(names::FORWARD));
    out.set("core.bwd_ms", l1.span_ms(names::BACKWARD));
    out.set("core.opt_ms", l1.span_ms(names::OPTIMIZER));
    out.set(
        "parallel.grad_sync_exposed_ms",
        l1.span_ms(names::GRAD_SYNC),
    );
    out.set(
        "parallel.overlap_fraction",
        t1.report.overlap_fraction.unwrap_or(0.0),
    );
    let per_step = |name| worst_rank_counter(&t1_trace, name) as f64 / steps as f64;
    out.set("tensor.matmul_ms", per_step(names::COMPUTE_MATMUL_NS) / 1e6);
    out.set(
        "tensor.softmax_ms",
        per_step(names::COMPUTE_SOFTMAX_NS) / 1e6,
    );
    out.set(
        "tensor.layernorm_ms",
        per_step(names::COMPUTE_LAYERNORM_NS) / 1e6,
    );
    out.set("tensor.adam_ms", per_step(names::COMPUTE_ADAM_NS) / 1e6);
    out.set(
        "tensor.matmul_gflops",
        t1_trace.counter_total(names::COMPUTE_MATMUL_FLOPS) as f64
            / t1_trace.counter_total(names::COMPUTE_MATMUL_NS).max(1) as f64,
    );
    // Exact counts, summed over ranks, per step of the whole run.
    let stats_t1 = t1.report.comm_stats.expect("shm transport statistics");
    let total_per_step = |v: u64| v as f64 / steps as f64;
    out.set("comm.bytes_per_step", total_per_step(stats_t1.total_bytes));
    out.set("comm.msgs_per_step", total_per_step(stats_t1.total_msgs));
    out.set(
        "comm.a2a_bytes_per_step",
        total_per_step(t1_trace.counter_total("comm.sent.alltoall.bytes")),
    );
    out.set(
        "comm.allreduce_bytes_per_step",
        total_per_step(t1_trace.counter_total("comm.sent.allreduce.bytes")),
    );
    let f16_bytes = t1_trace.counter_total(names::WIRE_F16_BYTES);
    out.set("comm.wire_f16_bytes_per_step", total_per_step(f16_bytes));
    out.set(
        "trace.overhead_pct",
        100.0 * (t1.wall_s - reference.wall_s) / reference.wall_s,
    );

    // Checkpoints: the stall is the slowest rank's checkpoint span.
    if let Some(every) = shape.ckpt_every {
        let per_rank: Vec<Vec<u64>> = t1_trace
            .ranks
            .iter()
            .map(|l| span_durations(l, names::CHECKPOINT))
            .filter(|d| !d.is_empty())
            .collect();
        let n = per_rank.iter().map(Vec::len).min().unwrap_or(0);
        let saves_ms: Vec<f64> = (0..n)
            .map(|i| per_rank.iter().map(|d| d[i]).max().unwrap_or(0) as f64 / 1e6)
            .collect();
        out.require(!saves_ms.is_empty(), || {
            "no checkpoint span in a checkpointing run".into()
        });
        if !saves_ms.is_empty() {
            out.set("core.ckpt_save_ms_p50", stats::median(&saves_ms));
            out.set(
                "core.ckpt_stall_share",
                saves_ms.iter().sum::<f64>() / (t1.wall_s * 1e3),
            );
        }
        let step_dir = t1_dir.join(format!("step{}", last_ckpt_step(steps, every)));
        out.set("core.ckpt_bytes", host::dir_bytes(&step_dir) as f64);
        out.set("core.ckpt_load_ms", probes::ckpt_load_ms(cfg, &step_dir));
    }

    // ---- T2: the replay's ledger.
    let l2 = Ledger::read(&t2.trace, nranks, replay::STEP);
    out.require(l2.steps() == steps, || {
        format!("T2 recorded {} step spans for {steps} steps", l2.steps())
    });
    let nested = [
        ("parallel.a2a_dispatch_ms", names::A2A_DISPATCH),
        ("parallel.a2a_combine_ms", names::A2A_COMBINE),
    ];
    for &(metric, span) in T2_ROWS.iter().chain(&nested) {
        out.set(metric, l2.span_ms(span));
    }
    out.set("core.t2_step_ms", stats::median(&l2.step_ms()));
    let unattributed = l2.unattributed_pct("t2.");
    out.set("core.unattributed_pct", unattributed);
    out.require(unattributed <= 5.0, || {
        format!("T2 ledger leaves {unattributed:.1} % of the step unattributed (limit 5 %)")
    });
    let builds: Vec<u64> = t2
        .trace
        .ranks
        .iter()
        .flat_map(|l| span_durations(l, replay::BUILD))
        .collect();
    out.set(
        "parallel.model_build_ms",
        builds.into_iter().max().unwrap_or(0) as f64 / 1e6,
    );
    out.set(
        "trace.dropped",
        (t1_trace.total_dropped() + t2.trace.total_dropped()) as f64,
    );

    out.set(
        "core.scaling_eff_2r",
        reference.tok_s() / (nranks as f64 * single.tok_s()),
    );
    out.set("core.final_loss", reference.report.final_loss() as f64);
    out.set("core.loss_crc", loss_crc(ref_curve) as f64);

    // ---- Probes.
    let f16_elems_per_rank_step = f16_bytes as usize / 2 / nranks / steps;
    let p = probes::run(cfg, f16_elems_per_rank_step);
    out.set("tensor.pack_ms", p.pack_ms);
    out.set("tensor.gemm_decode_us", p.gemm_decode_us);
    out.set("model.gate_fwd_ms", p.gate_fwd_ms);
    out.set("model.attn_decode_us", p.attn_decode_us);
    out.set("comm.allreduce_probe_ms", p.allreduce_ms);
    out.set("comm.a2a_probe_ms", p.a2a_ms);

    out.set("host.spin_ms", spin_before.max(host::spin_ms()));
    out.note(share_table(workload, &out));
    out
}

/// The layer-share table of one workload: each T2 row as a share of the T2
/// step, for the README and for a reader checking where the step goes.
fn share_table(workload: &str, out: &Outcome) -> String {
    let step = out.get("core.t2_step_ms").max(f64::MIN_POSITIVE);
    let mut s = format!("{workload}: T2 step {step:.2} ms; shares of the step:");
    for &(name, _) in T2_ROWS {
        s.push_str(&format!(
            "\n  {name:28} {:6.2} ms {:5.1} %",
            out.get(name),
            100.0 * out.get(name) / step
        ));
    }
    s.push_str(&format!(
        "\n  {:28} {:13.1} %\n  tensor.matmul_ms (T1 counter) {:.2} ms = {:.1} % of the T1 step",
        "core.unattributed_pct",
        out.get("core.unattributed_pct"),
        out.get("tensor.matmul_ms"),
        100.0 * out.get("tensor.matmul_ms") / out.get("core.step_ms_p50").max(f64::MIN_POSITIVE),
    ));
    s
}
