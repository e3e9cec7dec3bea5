//! The serving workload: the product's `serve::run` under a closed-loop burst
//! (throughput at saturation) and under open-loop Poisson arrivals at fixed
//! rates (latency from each request's due time, and whether the rate holds).

use crate::host;
use crate::ledger::{counter_peak, span_durations, worst_rank_counter, worst_rank_span_ns};
use crate::metrics::Outcome;
use crate::product::{
    names, serve_run, set_process_backend, A2aKind, Client, ComputeBackend, DistTransformer,
    ExpertPlacement, Response, Rng, ServerOptions, Ticket, TrainConfig, Transformer,
};
use crate::schedule::{judge, latency, poisson_schedule, run_open_loop, Latency, Slo, SplitMix};
use crate::workloads::{ServeShape, NRANKS};
use crate::{probes, stats};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Index into `ServeShape::rates_rps` of the rate behind the end-to-end time
/// to first token: light load, where the median is steady from seed to seed.
const LIGHT_RATE: usize = 0;
/// Index of the rate the traced pass runs at: loaded enough that queueing and
/// batching show in the per-layer numbers.
const LOADED_RATE: usize = 1;
/// Requests whose tokens are checked against the single-rank model.
const ORACLE_SAMPLES: usize = 8;

/// The latency limits of the rate sweep: at least 90 % of the requests sent
/// get their first token within 250 ms and the rest at 40 ms a token or
/// better. Only requests beyond the in-flight batches count as waiting.
fn slo(shape: &ServeShape) -> Slo {
    Slo {
        ttft_ms: 250.0,
        tpot_ms: 40.0,
        min_share: 0.9,
        in_service: shape.engine.max_batch * NRANKS,
    }
}

/// Share of `--seconds` the closed-loop bursts take; the open-loop window
/// takes the rest.
const CLOSED_SHARE: f64 = 0.55;
/// Fewest closed-loop bursts behind `tok_s`, however short the run.
const MIN_BURSTS: usize = 5;

/// Seeded prompts; the first `oracle_samples` are the ones checked against
/// the single-rank model.
fn prompts(shape: &ServeShape, seed: u64, n: usize) -> Vec<Vec<usize>> {
    let mut rng = SplitMix(seed ^ 0x5052_4F4D_5054);
    (0..n)
        .map(|_| {
            (0..shape.prompt_len)
                .map(|_| rng.below(shape.model.vocab))
                .collect()
        })
        .collect()
}

/// What the single-rank model generates for each sampled prompt.
fn oracle(shape: &ServeShape, seed: u64, sample: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut model = Transformer::new(shape.model, &mut Rng::seed_from(seed));
    sample
        .iter()
        .map(|p| model.generate_cached(p, shape.max_new))
        .collect()
}

fn build(shape: &ServeShape, seed: u64, nranks: usize) -> impl Fn(usize) -> DistTransformer + Sync {
    let model = shape.model;
    move |rank| {
        DistTransformer::new_placed(
            model,
            seed,
            rank,
            nranks,
            A2aKind::Pairwise,
            ExpertPlacement::RoundRobin,
        )
    }
}

fn options(shape: &ServeShape, nranks: usize, trace: bool) -> ServerOptions {
    ServerOptions {
        nranks,
        engine: shape.engine,
        trace,
    }
}

/// Closed loop: submit `prompts` at once, wait for all. Returns generated
/// tokens per second and the answers (`None` where the server refused).
fn burst(
    client: &Client,
    shape: &ServeShape,
    prompts: &[Vec<usize>],
) -> (f64, Vec<Option<Response>>) {
    let t0 = Instant::now();
    let tickets: Vec<Ticket> = prompts
        .iter()
        .map(|p| client.submit(p.clone(), shape.max_new))
        .collect();
    let answers: Vec<Option<Response>> = tickets.into_iter().map(|t| t.wait().ok()).collect();
    let generated: usize = answers.iter().flatten().map(|r| r.generated().len()).sum();
    (generated as f64 / t0.elapsed().as_secs_f64(), answers)
}

/// One open-loop window and what came back.
struct Window {
    rate_rps: f64,
    window_s: f64,
    sent: usize,
    answered: Vec<Latency>,
    /// Due offsets of requests the server refused or never answered.
    unanswered_due_s: Vec<f64>,
    /// Queue wait and prefill of the answered requests, milliseconds.
    queue_wait_ms: Vec<f64>,
    prefill_ms: Vec<f64>,
    bad_length: usize,
}

impl Window {
    fn values(&self, f: impl Fn(&Latency) -> f64) -> Vec<f64> {
        self.answered.iter().map(f).collect()
    }
}

/// Open loop at `rate_rps` for `window`: the calling thread is the one
/// generator; prompts cycle through `prompts`.
fn open_loop(
    client: &Client,
    shape: &ServeShape,
    prompts: &[Vec<usize>],
    rate_rps: f64,
    window: Duration,
    seed: u64,
) -> Window {
    let schedule = poisson_schedule(rate_rps, window, seed);
    let start = Instant::now();
    let sent = run_open_loop(start, &schedule, |i| {
        client.submit(prompts[i % prompts.len()].clone(), shape.max_new)
    });
    let mut w = Window {
        rate_rps,
        window_s: window.as_secs_f64(),
        sent: sent.len(),
        answered: Vec::new(),
        unanswered_due_s: Vec::new(),
        queue_wait_ms: Vec::new(),
        prefill_ms: Vec::new(),
        bad_length: 0,
    };
    for s in sent {
        match s.handle.wait() {
            Ok(r) => {
                w.bad_length += usize::from(r.generated().len() != shape.max_new);
                w.queue_wait_ms.push(r.queue_wait_ns as f64 / 1e6);
                w.prefill_ms.push(r.prefill_ns as f64 / 1e6);
                w.answered.push(latency(
                    start,
                    s.due,
                    s.sent,
                    r.queue_wait_ns,
                    r.prefill_ns,
                    r.decode_ns,
                    shape.max_new,
                ));
            }
            Err(_) => w
                .unanswered_due_s
                .push(s.due.saturating_duration_since(start).as_secs_f64()),
        }
    }
    w
}

/// Count a window into the outcome and check that every request sent was
/// answered in full.
fn account(out: &mut Outcome, w: &Window) {
    out.attempted += w.sent as u64;
    out.failed += (w.unanswered_due_s.len() + w.bad_length) as u64;
    out.require(w.unanswered_due_s.is_empty() && w.bad_length == 0, || {
        format!(
            "open loop at {} req/s: {} of {} requests unanswered, {} of the wrong length",
            w.rate_rps,
            w.unanswered_due_s.len(),
            w.sent,
            w.bad_length
        )
    });
    out.require(!w.answered.is_empty(), || {
        format!("open loop at {} req/s sent no request", w.rate_rps)
    });
}

/// Build the inputs, the oracle's answers and a warm server once: what a
/// user pays before the first request is timed.
fn setup(shape: &ServeShape, seed: u64) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let prompts = prompts(shape, seed, shape.burst);
    let expected = oracle(shape, seed, &prompts[..ORACLE_SAMPLES]);
    black_box(build(shape, seed, NRANKS)(0));
    serve_run(
        options(shape, NRANKS, false),
        build(shape, seed, NRANKS),
        |client| {
            burst(
                client,
                shape,
                &prompts[..prompts.len().min(shape.engine.max_batch * 2)],
            );
        },
    );
    (prompts, expected)
}

/// Closed-loop answers must be complete, and the sampled ones must be the
/// tokens the single-rank model generates.
fn check_burst(
    out: &mut Outcome,
    answers: &[Option<Response>],
    prompts: &[Vec<usize>],
    expected: &[Vec<usize>],
    max_new: usize,
) {
    out.attempted += answers.len() as u64;
    let bad = answers
        .iter()
        .filter(|a| a.as_ref().is_none_or(|r| r.generated().len() != max_new))
        .count();
    out.failed += bad as u64;
    out.require(bad == 0, || {
        format!("closed burst: {bad} requests refused or short")
    });
    for (i, want) in expected.iter().enumerate() {
        let got = answers[i].as_ref().map(|r| &r.tokens);
        out.require(got == Some(want) && want[..prompts[i].len()] == prompts[i][..], || {
            format!("request {i}: served tokens {got:?} differ from the single-rank model's {want:?}")
        });
    }
}

pub fn end_to_end(shape: &ServeShape, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    set_process_backend(ComputeBackend::Tiled.instantiate());

    let mut inputs = None;
    let setups: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            inputs = Some(setup(shape, seed));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let (prompts, expected) = inputs.expect("three set-ups ran");

    let rate = shape.rates_rps[LIGHT_RATE];
    let window = Duration::from_secs_f64(seconds * (1.0 - CLOSED_SHARE));
    let report = serve_run(
        options(shape, NRANKS, false),
        build(shape, seed, NRANKS),
        |client| {
            let phase = Instant::now();
            let mut bursts = Vec::new();
            while bursts.len() < MIN_BURSTS
                || phase.elapsed().as_secs_f64() < seconds * CLOSED_SHARE
            {
                bursts.push(burst(client, shape, &prompts));
            }
            let open = open_loop(client, shape, &prompts, rate, window, seed);
            (bursts, open)
        },
    );
    let (bursts, open) = report.output;

    for (_, answers) in &bursts {
        check_burst(&mut out, answers, &prompts, &expected, shape.max_new);
    }
    account(&mut out, &open);
    if open.answered.is_empty() {
        return out;
    }

    let tok_s: Vec<f64> = bursts.iter().map(|b| b.0).collect();
    let (share, sustained) = judge(
        slo(shape),
        &open.answered,
        &open.unanswered_due_s,
        open.window_s,
    );
    out.set("setup_s", stats::median(&setups));
    out.set("tok_s", stats::median(&tok_s));
    out.set("first_ms_p50", stats::median(&open.values(|l| l.ttft_ms)));
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.note(format!(
        "serve_decode: {} closed bursts of {} requests (tok/s IQR {:.1} % of median); open loop {} \
         req/s for {:.1} s: {} sent, {} answered, p90 TTFT {:.2} ms / TPOT {:.2} ms (n={}, highest \
         supported percentile p{}), generator late p90 {:.3} ms, SLO share {:.3}, sustained {}",
        bursts.len(),
        shape.burst,
        100.0 * stats::iqr_share(&tok_s),
        rate,
        open.window_s,
        open.sent,
        open.answered.len(),
        stats::percentile(&open.values(|l| l.ttft_ms), 90.0),
        stats::percentile(&open.values(|l| l.tpot_ms), 90.0),
        open.answered.len(),
        stats::highest_supported_percentile(open.answered.len()),
        stats::percentile(&open.values(|l| l.late_ms), 90.0),
        share,
        sustained,
    ));
    out
}

pub fn traced(shape: &ServeShape, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    set_process_backend(ComputeBackend::Tiled.instantiate());
    let spin_before = host::spin_ms();
    let (prompts, expected) = setup(shape, seed);
    let rate = shape.rates_rps[LOADED_RATE];

    // Untraced: one closed burst, the latency-rate window, then the other
    // three fixed rates; and the same burst on one rank for the scaling ratio.
    let window = Duration::from_secs_f64(seconds * 0.3);
    let sweep_window = Duration::from_secs_f64(seconds * 0.12);
    let (tok_s, windows) = serve_run(
        options(shape, NRANKS, false),
        build(shape, seed, NRANKS),
        |client| {
            let tok_s = burst(client, shape, &prompts).0;
            let windows: Vec<Window> = shape
                .rates_rps
                .iter()
                .map(|&r| {
                    let w = if r == rate { window } else { sweep_window };
                    open_loop(client, shape, &prompts, r, w, seed)
                })
                .collect();
            (tok_s, windows)
        },
    )
    .output;
    let single_tok_s = serve_run(options(shape, 1, false), build(shape, seed, 1), |client| {
        burst(client, shape, &prompts).0
    })
    .output;
    // Traced: the latency-rate window again, same schedule, trace on.
    let report = serve_run(
        options(shape, NRANKS, true),
        build(shape, seed, NRANKS),
        |client| {
            let (_, answers) = burst(client, shape, &prompts[..ORACLE_SAMPLES]);
            (
                answers,
                open_loop(client, shape, &prompts, rate, window, seed),
            )
        },
    );
    let (answers, open) = report.output;
    let trace = report.trace.expect("trace was requested");
    check_burst(&mut out, &answers, &prompts, &expected, shape.max_new);
    account(&mut out, &open);
    for w in &windows {
        account(&mut out, w);
    }
    if !out.failures.is_empty() {
        return out;
    }

    let steps = trace
        .lane(0)
        .map_or(0, |l| l.span_count(names::SERVE_DECODE_STEP))
        .max(1) as f64;
    out.set(
        "serve.queue_wait_ms_p50",
        stats::median(&open.queue_wait_ms),
    );
    out.set("serve.prefill_ms_p50", stats::median(&open.prefill_ms));
    out.set(
        "serve.prefill_tok_s",
        trace.counter_total(names::SERVE_PREFILL_TOKENS) as f64
            / (worst_rank_span_ns(&trace, names::SERVE_PREFILL) as f64 / 1e9),
    );
    out.set(
        "serve.batch_occupancy",
        trace.counter_total(names::SERVE_BATCH_OCCUPANCY) as f64
            / trace.span_count(names::SERVE_DECODE_STEP).max(1) as f64,
    );
    out.set(
        "serve.kv_blocks_used_peak",
        trace
            .ranks
            .iter()
            .map(|l| counter_peak(l, names::SERVE_KV_BLOCKS_USED, names::SERVE_KV_BLOCKS_FREE))
            .max()
            .unwrap_or(0) as f64,
    );
    out.set(
        "serve.requeued",
        trace.counter_total(names::SERVE_REQUEUED) as f64,
    );
    let p50 = |f: fn(&Latency) -> f64| stats::median(&open.values(f));
    let p90 = |f: fn(&Latency) -> f64| stats::percentile(&open.values(f), 90.0);
    out.set("serve.gen_late_ms_p90", p90(|l| l.late_ms));
    out.set("serve.ttft_ms_p50", p50(|l| l.ttft_ms));
    out.set("serve.tpot_ms_p50", p50(|l| l.tpot_ms));
    out.set("serve.ttft_ms_p90", p90(|l| l.ttft_ms));
    out.set("serve.tpot_ms_p90", p90(|l| l.tpot_ms));
    let decode_ms: Vec<f64> = trace
        .ranks
        .iter()
        .flat_map(|l| span_durations(l, names::SERVE_DECODE_STEP))
        .map(|ns| ns as f64 / 1e6)
        .collect();
    out.set("parallel.decode_step_ms_p50", stats::median(&decode_ms));
    out.set(
        "parallel.a2a_dispatch_ms",
        worst_rank_span_ns(&trace, names::A2A_DISPATCH) as f64 / 1e6 / steps,
    );
    out.set(
        "parallel.a2a_combine_ms",
        worst_rank_span_ns(&trace, names::A2A_COMBINE) as f64 / 1e6 / steps,
    );
    out.set(
        "tensor.matmul_ms",
        worst_rank_counter(&trace, names::COMPUTE_MATMUL_NS) as f64 / steps / 1e6,
    );
    out.set(
        "tensor.matmul_gflops",
        trace.counter_total(names::COMPUTE_MATMUL_FLOPS) as f64
            / trace.counter_total(names::COMPUTE_MATMUL_NS).max(1) as f64,
    );
    out.set(
        "tensor.softmax_ms",
        worst_rank_counter(&trace, names::COMPUTE_SOFTMAX_NS) as f64 / steps / 1e6,
    );
    out.set(
        "tensor.layernorm_ms",
        worst_rank_counter(&trace, names::COMPUTE_LAYERNORM_NS) as f64 / steps / 1e6,
    );
    let sent_bytes: u64 = trace.sent_bytes_by_family().iter().map(|f| f.1).sum();
    out.set("comm.bytes_per_step", sent_bytes as f64 / steps);
    out.set(
        "comm.a2a_bytes_per_step",
        trace.counter_total("comm.sent.alltoall.bytes") as f64 / steps,
    );
    out.set(
        "comm.allreduce_bytes_per_step",
        trace.counter_total("comm.sent.allreduce.bytes") as f64 / steps,
    );
    out.set("trace.dropped", trace.total_dropped() as f64);

    // The sweep: the highest fixed rate that met the limits and held.
    let mut slo_rate = 0.0f64;
    for w in &windows {
        let (share, sustained) = judge(slo(shape), &w.answered, &w.unanswered_due_s, w.window_s);
        if sustained {
            slo_rate = slo_rate.max(w.rate_rps);
        }
        if w.rate_rps == rate {
            out.set("serve.slo_share", share);
            let untraced = stats::median(&w.values(|l| l.tpot_ms));
            let traced = p50(|l| l.tpot_ms);
            out.set("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
        }
        out.note(format!(
            "serve_decode: {} req/s for {:.1} s: {} sent, SLO share {share:.3}, sustained {sustained}",
            w.rate_rps, w.window_s, w.sent
        ));
    }
    out.set("serve.slo_rate_rps", slo_rate);
    out.set(
        "core.scaling_eff_2r",
        tok_s / (NRANKS as f64 * single_tok_s),
    );

    // Decode-shaped probes: eight rows, the engine's batch.
    let t0 = Instant::now();
    black_box(build(shape, seed, NRANKS)(0));
    out.set("parallel.model_build_ms", t0.elapsed().as_secs_f64() * 1e3);
    let p = probes::run(
        TrainConfig {
            model: shape.model,
            nranks: NRANKS,
            batch_per_rank: shape.engine.max_batch,
            seq: 1,
            seed,
            compute: ComputeBackend::Tiled,
            ..TrainConfig::default()
        },
        0,
    );
    out.set("tensor.gemm_decode_us", p.gemm_decode_us);
    out.set("model.gate_fwd_ms", p.gate_fwd_ms);
    out.set("model.attn_decode_us", p.attn_decode_us);
    out.set("comm.a2a_probe_ms", p.a2a_ms);

    out.set("host.spin_ms", spin_before.max(host::spin_ms()));
    out
}
