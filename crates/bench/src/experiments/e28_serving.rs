//! E28 — serving: continuous-batching latency/throughput and the 96k-node
//! per-token decode projection.
//!
//! Four sections:
//!
//! 1. **Bit-identity gates** (the CI teeth): continuous batching over a
//!    staggered arrival schedule must reproduce `generate_cached` token
//!    for token, and the 4-rank expert-parallel server must match the
//!    single-rank oracle.
//! 2. **Offered-load sweep**: p50/p99 end-to-end latency and delivered
//!    tokens/s vs offered QPS on a fixed world — the classic
//!    serving-system curve (latency grows toward saturation while
//!    throughput plateaus at the batch-occupancy ceiling).
//! 3. **Saturation vs rank count**: full-blast throughput on 1/2/4 ranks.
//!    Per-rank batches ride the same collective decode steps, so adding
//!    ranks adds concurrent batch slots (and experts stay sharded).
//!
//!    A full-blast burst of 24 requests takes about a millisecond, so one
//!    burst is noise. Full-blast rows serve [`BURSTS`] bursts on one server
//!    and report the median burst, each timed from its first submit to its
//!    last answer (the server's setup is outside every timer).
//! 4. **α–β projection to 96,000 nodes**: per-token decode all-to-all
//!    time for the 14.5T preset under pairwise vs hierarchical exchange
//!    and rising intra-supernode locality, from `net::cost` — the honest
//!    split: sections 2–3 are *measured* on the functional runtime,
//!    section 4 is *modeled* for hardware this reproduction cannot run.
//!
//! Artifacts: `target/e28/serving-table.txt` and `BENCH_serving.json` at
//! the repo root (schema `bagualu-serving/v1`).

use crate::table::Table;
use bagualu::hw::MachineConfig;
use bagualu::model::config::ModelConfig;
use bagualu::model::transformer::Transformer;
use bagualu::net::cost::CollectiveCost;
use bagualu::parallel::moe_dist::A2aKind;
use bagualu::parallel::DistTransformer;
use bagualu::serve::{run as serve_run, EngineConfig, Response, ServerOptions};
use bagualu::tensor::rng::Rng;
use bagualu::trace::names;
use std::time::{Duration, Instant};

const TABLE_OUT: &str = "target/e28/serving-table.txt";
const JSON_OUT: &str = "BENCH_serving.json";

const PROMPT_LEN: usize = 4;
const MAX_NEW: usize = 6;
const SEED: u64 = 2800;
/// Bursts a full-blast row serves; its throughput is the median burst's.
const BURSTS: usize = 15;

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        max_batch: 8,
        kv_blocks: 64,
        block_tokens: 4,
    }
}

fn prompts(n: usize) -> Vec<Vec<usize>> {
    let cfg = ModelConfig::tiny();
    let mut rng = Rng::seed_from(SEED ^ 0xbeef);
    (0..n)
        .map(|_| (0..PROMPT_LEN).map(|_| rng.below(cfg.vocab)).collect())
        .collect()
}

/// Serve `bursts` rounds of `jobs` on one `nranks`-rank server at the
/// given offered rate (`None` = submit everything immediately). Returns
/// every response, the mean decode-phase batch occupancy, and the median
/// burst's wall time, timed from its first submit to its last answer.
fn serve(
    nranks: usize,
    jobs: &[Vec<usize>],
    gap: Option<Duration>,
    bursts: usize,
) -> (Vec<Response>, f64, f64) {
    let report = serve_run(
        ServerOptions {
            nranks,
            engine: engine_cfg(),
            trace: true,
        },
        |rank| DistTransformer::new(ModelConfig::tiny(), SEED, rank, nranks, A2aKind::Pairwise),
        |client| {
            let mut responses = Vec::with_capacity(bursts * jobs.len());
            let mut walls = Vec::with_capacity(bursts);
            for _ in 0..bursts {
                let started = Instant::now();
                let tickets: Vec<_> = jobs
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        if let (Some(gap), true) = (gap, i > 0) {
                            std::thread::sleep(gap);
                        }
                        client.submit(p.clone(), MAX_NEW)
                    })
                    .collect();
                responses.extend(
                    tickets
                        .into_iter()
                        .map(|t| t.wait().expect("feasible request")),
                );
                walls.push(started.elapsed().as_secs_f64());
            }
            walls.sort_by(f64::total_cmp);
            (responses, walls[bursts / 2])
        },
    );
    let (responses, wall_s) = report.output;
    let trace = report.trace.expect("tracing on");
    let steps = trace.span_count(names::SERVE_DECODE_STEP);
    let occupancy = if steps > 0 {
        trace.counter_total(names::SERVE_BATCH_OCCUPANCY) as f64 / steps as f64
    } else {
        0.0
    };
    (responses, occupancy, wall_s)
}

fn percentile_ms(responses: &[Response], p: f64) -> f64 {
    let mut ms: Vec<f64> = responses
        .iter()
        .map(|r| r.total_ns() as f64 / 1e6)
        .collect();
    ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ms[((ms.len() - 1) as f64 * p).round() as usize]
}

pub(crate) fn run() {
    println!("== E28: continuous-batching serving ==\n");

    // ---- 1. Bit-identity gates.
    println!("-- bit-identity gates --");
    let jobs = prompts(12);
    let mut rng = Rng::seed_from(SEED);
    let mut oracle_model = Transformer::new(ModelConfig::tiny(), &mut rng);
    let oracle: Vec<Vec<usize>> = jobs
        .iter()
        .map(|p| oracle_model.generate_cached(p, MAX_NEW))
        .collect();

    // Continuous batching under offered load (requests join mid-decode).
    let (responses, _, _) = serve(1, &jobs, Some(Duration::from_millis(1)), 1);
    let mut got: Vec<(u64, Vec<usize>)> =
        responses.iter().map(|r| (r.id, r.tokens.clone())).collect();
    got.sort_by_key(|(id, _)| *id);
    for ((_, tokens), want) in got.iter().zip(&oracle) {
        assert_eq!(
            tokens, want,
            "continuous batching changed decoded tokens (gate 1)"
        );
    }
    println!("gate 1: staggered continuous batching == generate_cached ✓");

    // Expert-parallel serving on 4 ranks.
    let (responses, _, _) = serve(4, &jobs, None, 1);
    let mut got: Vec<(u64, Vec<usize>)> =
        responses.iter().map(|r| (r.id, r.tokens.clone())).collect();
    got.sort_by_key(|(id, _)| *id);
    for ((_, tokens), want) in got.iter().zip(&oracle) {
        assert_eq!(
            tokens, want,
            "expert-parallel decode diverged from the single-rank oracle (gate 2)"
        );
    }
    println!("gate 2: 4-rank expert-parallel serving == single-rank oracle ✓\n");

    // ---- 2. Offered-load sweep (2 ranks).
    println!(
        "-- offered load sweep (2 ranks, 24 requests; full blast: median of {BURSTS} bursts) --"
    );
    let sweep_jobs = prompts(24);
    let mut load_table = Table::new(&["offered", "p50", "p99", "tok/s", "occupancy"]);
    let mut load_rows: Vec<(String, f64, f64, f64, f64)> = Vec::new();
    for (label, gap, bursts) in [
        ("100 req/s", Some(Duration::from_millis(10)), 1),
        ("400 req/s", Some(Duration::from_micros(2500)), 1),
        ("full blast", None, BURSTS),
    ] {
        let (responses, occupancy, wall_s) = serve(2, &sweep_jobs, gap, bursts);
        let generated = responses.iter().map(|r| r.generated().len()).sum::<usize>() / bursts;
        let p50 = percentile_ms(&responses, 0.50);
        let p99 = percentile_ms(&responses, 0.99);
        let tps = generated as f64 / wall_s;
        load_table.row(&[
            label.to_string(),
            format!("{p50:.2}ms"),
            format!("{p99:.2}ms"),
            format!("{tps:.0}"),
            format!("{occupancy:.2}"),
        ]);
        load_rows.push((label.to_string(), p50, p99, tps, occupancy));
    }
    load_table.print();

    // ---- 3. Saturation throughput vs rank count.
    println!(
        "\n-- saturation vs rank count (full blast, 24 requests, median of {BURSTS} bursts) --"
    );
    let mut rank_table = Table::new(&["ranks", "tok/s", "occupancy", "wall"]);
    let mut rank_rows: Vec<(usize, f64, f64)> = Vec::new();
    for nranks in [1usize, 2, 4] {
        let (responses, occupancy, wall_s) = serve(nranks, &sweep_jobs, None, BURSTS);
        let generated = responses.iter().map(|r| r.generated().len()).sum::<usize>() / BURSTS;
        let tps = generated as f64 / wall_s;
        rank_table.row(&[
            format!("{nranks}"),
            format!("{tps:.0}"),
            format!("{occupancy:.2}"),
            format!("{:.2}ms", wall_s * 1e3),
        ]);
        rank_rows.push((nranks, tps, occupancy));
    }
    rank_table.print();
    // On the tiny model the trend is honest but inverted: experts are so
    // small that the per-step all-to-all overhead of more ranks outweighs
    // the extra batch slots. The projection below shows the regime where
    // expert parallelism pays: paper-scale experts that cannot fit on one
    // node, where the exchange cost is the thing being optimized.
    println!(
        "(tiny-model caveat: per-step a2a overhead dominates toy experts, so\n\
         added ranks cost throughput here; see the 96k projection below)"
    );

    // ---- 4. α–β projection of per-token decode at 96,000 nodes.
    //
    // One decode step moves, per MoE block, each in-flight row to its
    // top-k experts and back: dispatch + combine, B·k·d·4 bytes each way
    // from every node, spread across n peers. Compute per-pair payloads
    // for the 14.5T preset at per-node batch B = 8, then price the
    // exchange with the same α–β machine model the training projections
    // use. Modeled, not measured — the honest split.
    println!("\n-- per-token decode a2a at 96,000 nodes (14.5T preset, modeled) --");
    let machine = MachineConfig::new_generation_sunway();
    let cost = CollectiveCost::new(machine);
    let paper = ModelConfig::bagualu_14_5t();
    let nodes = machine.nodes;
    let batch = 8usize; // in-flight rows per node
    let topk = 2usize;
    let bytes_per_node = batch * topk * paper.d_model * 4;
    let bytes_per_pair = (bytes_per_node / nodes).max(1);
    let moe_blocks = paper.n_moe_blocks();
    // Dispatch + combine per MoE block, per decode step.
    let a2a_calls = 2 * moe_blocks;

    let mut proj_table = Table::new(&["exchange", "a2a/step", "note"]);
    let mut proj_rows: Vec<(String, f64)> = Vec::new();
    let pairwise_s = cost.alltoall_pairwise(nodes, bytes_per_pair) * a2a_calls as f64;
    let hier_s = cost.alltoall_hierarchical(nodes, bytes_per_pair) * a2a_calls as f64;
    proj_table.row(&[
        "pairwise".into(),
        format!("{:.1}ms", pairwise_s * 1e3),
        "baseline".into(),
    ]);
    proj_rows.push(("pairwise".into(), pairwise_s));
    proj_table.row(&[
        "hierarchical".into(),
        format!("{:.1}ms", hier_s * 1e3),
        "supernode two-phase".into(),
    ]);
    proj_rows.push(("hierarchical".into(), hier_s));
    let mut locality_s = Vec::new();
    for frac in [0.5f64, 0.9] {
        let s = cost.alltoall_with_locality(nodes, bytes_per_node, frac) * a2a_calls as f64;
        proj_table.row(&[
            format!("locality {:.0}%", frac * 100.0),
            format!("{:.1}ms", s * 1e3),
            "placement + gate bias".into(),
        ]);
        proj_rows.push((format!("locality {:.0}%", frac * 100.0), s));
        locality_s.push(s);
    }
    proj_table.print();

    // Projection gates: the optimized exchange and rising locality must
    // both pay off, exactly as they do for training steps (E3/E25).
    assert!(
        hier_s < pairwise_s,
        "hierarchical decode a2a ({hier_s:.4}s) must beat pairwise ({pairwise_s:.4}s)"
    );
    assert!(
        locality_s[1] < locality_s[0],
        "higher intra-supernode locality must cut decode a2a"
    );
    println!(
        "\ngate: hierarchical {:.1}ms < pairwise {:.1}ms; locality 90% {:.1}ms < 50% {:.1}ms ✓",
        hier_s * 1e3,
        pairwise_s * 1e3,
        locality_s[1] * 1e3,
        locality_s[0] * 1e3
    );

    // Measured per-token decode on the functional runtime, for scale.
    let sat = rank_rows.last().unwrap();
    println!(
        "measured (tiny model, {} ranks): {:.0} tok/s at occupancy {:.2}",
        sat.0, sat.1, sat.2
    );

    // ---- Artifacts.
    let mut artifact =
        String::from("E28 serving: continuous batching + expert-parallel decode\n\n");
    artifact.push_str("offered load sweep (2 ranks):\n");
    artifact.push_str(&load_table.render());
    artifact.push_str("\nsaturation vs ranks (full blast):\n");
    artifact.push_str(&rank_table.render());
    artifact.push_str(&format!(
        "\nper-token decode a2a, 96k nodes, 14.5T preset (B={batch}, k={topk}, {moe_blocks} MoE blocks):\n"
    ));
    artifact.push_str(&proj_table.render());
    std::fs::create_dir_all("target/e28").expect("create target/e28");
    std::fs::write(TABLE_OUT, &artifact).expect("write serving table");

    let mut json = String::from("{\n  \"schema\": \"bagualu-serving/v1\",\n");
    json.push_str(&format!(
        "  \"workload\": {{\"prompt_len\": {PROMPT_LEN}, \"max_new\": {MAX_NEW}, \"requests\": {}, \"bursts\": {BURSTS}}},\n",
        sweep_jobs.len()
    ));
    json.push_str(
        "  \"bit_identity\": {\"continuous_batching\": true, \"expert_parallel\": true},\n",
    );
    json.push_str("  \"offered_load\": [\n");
    for (i, (label, p50, p99, tps, occ)) in load_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"offered\": \"{label}\", \"p50_ms\": {p50:.3}, \"p99_ms\": {p99:.3}, \
             \"tokens_per_sec\": {tps:.1}, \"occupancy\": {occ:.3}}}{}\n",
            if i + 1 == load_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"saturation\": [\n");
    for (i, (nranks, tps, occ)) in rank_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"ranks\": {nranks}, \"tokens_per_sec\": {tps:.1}, \"occupancy\": {occ:.3}}}{}\n",
            if i + 1 == rank_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"projection_96k\": {{\"preset\": \"14.5t\", \"nodes\": {nodes}, \"batch_per_node\": {batch}, \
         \"topk\": {topk}, \"moe_blocks\": {moe_blocks}, \"a2a_per_step\": [\n"
    ));
    for (i, (name, s)) in proj_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"exchange\": \"{name}\", \"seconds\": {s:.6}}}{}\n",
            if i + 1 == proj_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]}\n}\n");
    std::fs::write(JSON_OUT, json).expect("write BENCH_serving.json");

    println!(
        "\nwrote {TABLE_OUT} and {JSON_OUT}\n\n\
         Shape check: at low offered load, latency is one request's prefill\n\
         plus its own decode; toward saturation, queue wait dominates the\n\
         p99 while throughput rises with batch occupancy — continuous\n\
         batching keeps decode slots full without ever changing a single\n\
         token (the bit-identity gates above). The projection prices the\n\
         same decode step's all-to-all on the full machine: small per-pair\n\
         payloads make decode latency-bound, which is exactly where the\n\
         supernode-aware exchange and locality-biased placement matter.\n"
    );
}
