//! E14 — communication/compute overlap ablation.
//!
//! The trainer's overlapped gradient sync splits the dense gradients into
//! buckets and reduces bucket i while backward still computes the
//! gradients of bucket i+1, so every bucket but the last hides behind
//! compute — while every bucket pays its all-reduce's α. This ablation
//! sweeps the bucket size at full machine scale through the step model to
//! show how much of the all-reduce the pipeline recovers, and where the
//! per-bucket α eats the gain. The MoE all-to-alls stay exposed: the next
//! layer needs their activations at once.

use crate::table::Table;
use bagualu::metrics::format_si;
use bagualu::model::config::ModelConfig;
use bagualu::model::moe::GateKind;
use bagualu::perfmodel::{project, A2aAlgo, PerfInput};
use bagualu::trainer::{TrainConfig, Trainer};

pub(crate) fn run() {
    println!("== E14: bucketed gradient-sync overlap, 14.5T preset, 96,000 nodes ==\n");
    let hier = PerfInput::sunway_full(ModelConfig::bagualu_14_5t());
    let naive = PerfInput {
        a2a: A2aAlgo::Pairwise,
        hierarchical_allreduce: false,
        ..hier
    };
    let step = |input: PerfInput, bucket_bytes| {
        project(&PerfInput {
            bucket_bytes,
            ..input
        })
        .unwrap()
    };
    let (hier_blocking, naive_blocking) = (step(hier, None), step(naive, None));
    let mut t = Table::new(&[
        "gradient sync",
        "all-reduce",
        "hidden",
        "step time",
        "tokens/s",
        "gain",
        "naive step",
        "naive gain",
    ]);
    for bucket in [
        None,
        Some(1 << 20),
        Some(16 << 20),
        Some(256 << 20),
        Some(4 << 30),
    ] {
        let (p, n) = (step(hier, bucket), step(naive, bucket));
        t.row(&[
            bucket.map_or("blocking".into(), |b| format!("{} MiB buckets", b >> 20)),
            format!("{:.2} s", p.breakdown.allreduce),
            format!("{:.2} s", p.hidden_comm),
            format!("{:.2} s", p.step_time),
            format_si(p.tokens_per_sec, "tok/s"),
            format!("{:.2}x", hier_blocking.step_time / p.step_time),
            format!("{:.2} s", n.step_time),
            format!("{:.2}x", naive_blocking.step_time / n.step_time),
        ]);
    }
    t.print();
    println!(
        "\nShape check: the pipeline hides every bucket but the last, and every\n\
         bucket pays the all-reduce's α. At 96,000 nodes that α is milliseconds,\n\
         so small buckets (the trainer's 1 MiB default) cost far more than they\n\
         hide; a few hundred MiB balance the two and cut the step ~1.6x. With\n\
         naive (pairwise + flat-ring) collectives the exposed all-to-all\n\
         dominates, and bucketing a flat ring only multiplies its α —\n\
         algorithms first, scheduling second.\n"
    );

    // ---- measured functional overlap -------------------------------------
    //
    // The rows above are *analytic*: the bucket size is fed to the
    // projection. This section actually runs the functional trainer with
    // the bucketed nonblocking all-reduce and reports what fraction of ring
    // steps completed while backward compute was still executing — the
    // measured counterpart of that knob, on the shared-memory transport.
    println!("— measured functional overlap (4 ranks, bucketed nonblocking ring) —\n");
    let model = ModelConfig {
        vocab: 64,
        d_model: 64,
        n_heads: 4,
        n_layers: 4,
        d_ff: 128,
        max_seq: 16,
        n_experts: 4,
        moe_every: 2,
        gate: GateKind::Top2,
        capacity_factor: 2.0,
        aux_weight: 0.01,
        router_groups: 0,
        rope: false,
        tie_embeddings: false,
    };
    let mut t = Table::new(&["bucket", "measured overlap", "allreduce traffic"]);
    for &bucket_bytes in &[4usize << 10, 16 << 10, 64 << 10] {
        let report = Trainer::new(TrainConfig {
            model,
            nranks: 4,
            batch_per_rank: 2,
            seq: 16,
            steps: 4,
            bucket_bytes,
            overlap: true,
            ..TrainConfig::default()
        })
        .run();
        let traffic = report
            .comm_stats
            .map(|s| s.family(bagualu::comm::CommFamily::Allreduce).bytes)
            .unwrap_or(0);
        t.row(&[
            format!("{} KiB", bucket_bytes >> 10),
            format!("{:.0}%", report.overlap_fraction.unwrap_or(0.0) * 100.0),
            format_si(traffic as f64, "B"),
        ]);
    }
    t.print();
    println!(
        "\nMeasured overlap is the fraction of ring all-reduce steps already\n\
         complete when backward returns. Smaller buckets launch earlier and\n\
         hide more; the tail bucket is always exposed, so 100% is\n\
         unreachable by construction. Compare with the analytic sweep above.\n"
    );
}
