//! E23 — step-time breakdown from the structured trace alone.
//!
//! Every number in this table is derived from `TrainReport::trace` — no
//! timers in the experiment itself. Per rank count we run the functional
//! trainer with the bucketed overlapped sync and periodic checkpoints
//! (fault-free `run_ft`), then decompose the traced time into:
//!
//! * **compute** — STEP span time minus everything below,
//! * **exposed comm** — GRAD_SYNC + A2A_DISPATCH + A2A_COMBINE span time
//!   (communication the step actually waited on),
//! * **overlapped comm** — the `sync.overlap_poll_ns` counter: wall time
//!   spent driving in-flight rings *inside* the backward pass (hidden),
//! * **checkpoint** — CHECKPOINT span time (outside the STEP span).
//!
//! The 4-rank run's merged Chrome export is written to
//! `target/e23/trace-4rank.json` (CI uploads it as an artifact; open it at
//! <https://ui.perfetto.dev>). See `docs/OBSERVABILITY.md` for the span and
//! counter taxonomy this decomposition relies on.

use crate::table::Table;
use bagualu::model::config::ModelConfig;
use bagualu::model::moe::GateKind;
use bagualu::trace::names;
use bagualu::trainer::{FtConfig, TrainConfig, Trainer};

/// Rank counts to sweep; `n_experts` (64) must divide each of them.
const RANKS: [usize; 6] = [2, 4, 8, 16, 32, 64];
const TRACE_OUT: &str = "target/e23/trace-4rank.json";

fn model() -> ModelConfig {
    ModelConfig {
        vocab: 64,
        d_model: 32,
        n_heads: 4,
        n_layers: 2,
        d_ff: 64,
        max_seq: 8,
        n_experts: 64,
        moe_every: 2,
        gate: GateKind::Top2,
        capacity_factor: 2.0,
        aux_weight: 0.01,
        router_groups: 0,
        rope: false,
        tie_embeddings: false,
    }
}

pub(crate) fn run() {
    println!("== E23: step-time breakdown from trace data alone ==\n");
    let dir = std::env::temp_dir().join(format!("bagualu-e23-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut t = Table::new(&[
        "ranks",
        "step avg",
        "compute",
        "matmul (meas)",
        "gflop/s",
        "exposed comm",
        "overlapped comm",
        "checkpoint",
        "comm hidden",
    ]);
    for &nranks in &RANKS {
        let cfg = TrainConfig {
            model: model(),
            nranks,
            batch_per_rank: 1,
            seq: 8,
            steps: 4,
            overlap: true,
            bucket_bytes: 4 << 10,
            trace: true,
            ..TrainConfig::default()
        };
        let ft = FtConfig {
            ckpt_every: 2,
            ..FtConfig::new(dir.join(format!("r{nranks}")))
        };
        let report = Trainer::new(cfg).run_ft(&ft);
        assert_eq!(report.restarts, 0, "fault-free run must not restart");
        let trace = report.trace.as_ref().expect("trace requested");

        // Everything below comes from the trace, nothing from timers.
        let step_ns = trace.span_total_ns(names::STEP);
        let exposed = trace.span_total_ns(names::GRAD_SYNC)
            + trace.span_total_ns(names::A2A_DISPATCH)
            + trace.span_total_ns(names::A2A_COMBINE);
        let hidden = trace.counter_total(names::OVERLAP_POLL_NS);
        let ckpt = trace.span_total_ns(names::CHECKPOINT);
        let compute = step_ns.saturating_sub(exposed + hidden);
        // Honest compute attribution: the "compute" column above is STEP
        // minus comm (inference); the matmul column is what the kernels
        // *measured* about themselves via compute.matmul.{ns,flops}.
        let mm_ns = trace.counter_total(names::COMPUTE_MATMUL_NS);
        let mm_flops = trace.counter_total(names::COMPUTE_MATMUL_FLOPS);
        assert!(mm_ns > 0, "instrumented kernels must have recorded time");
        let mm_gflops = mm_flops as f64 / mm_ns as f64;
        let total = step_ns + ckpt;
        let pct = |x: u64| format!("{:.1}%", x as f64 / total as f64 * 100.0);
        let comm = exposed + hidden;
        let hidden_share = if comm > 0 {
            format!("{:.0}%", hidden as f64 / comm as f64 * 100.0)
        } else {
            "n/a".into()
        };
        t.row(&[
            format!("{nranks}"),
            // Per-rank average step time: lanes record in parallel, so the
            // summed span time divides by ranks × steps.
            format!(
                "{:.2} ms",
                step_ns as f64 / (nranks * cfg.steps) as f64 / 1e6
            ),
            pct(compute),
            pct(mm_ns),
            format!("{mm_gflops:.2}"),
            pct(exposed),
            pct(hidden),
            pct(ckpt),
            hidden_share,
        ]);

        if nranks == 4 {
            std::fs::create_dir_all("target/e23").expect("create target/e23");
            std::fs::write(TRACE_OUT, trace.to_chrome_json()).expect("write trace JSON");
        }
    }
    t.print();
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "\nwrote {TRACE_OUT} (load it at https://ui.perfetto.dev)\n\n\
         Shape check: with 64 experts spread over more ranks, each rank's\n\
         compute shrinks while the all-to-all fans out wider, so the\n\
         communication share of the step grows with scale — the trend the\n\
         paper's hierarchical collectives and aggressive overlap exist to\n\
         fight. 'comm hidden' is the fraction of all communication time the\n\
         bucketed sync managed to bury inside backward; the checkpoint\n\
         column is the steady-state fault-tolerance tax from E27's δ.\n\
         'matmul (meas)' is the directly instrumented GEMM time\n\
         (compute.matmul.ns) — the measured slice of the inferred compute\n\
         column — and 'gflop/s' the throughput those kernels sustained\n\
         (E26 benchmarks the same counter-pair per backend in isolation).\n"
    );
}
