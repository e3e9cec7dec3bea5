//! E25 — measured expert-placement locality, end to end.
//!
//! A higher intra-supernode traffic fraction moves all-to-all bytes off the
//! tapered inter-supernode links. This experiment *measures* that fraction
//! on the functional runtime and prices it at machine scale:
//!
//! 1. **measured local wire fraction** — the same training run under
//!    round-robin vs supernode-aware placement, with and without the
//!    gate's locality bias, classified by the transport's per-destination
//!    accounting (`comm.a2a.{intra,inter}.bytes`). The pairwise a2a keeps
//!    wire classification equal to logical token locality. The run *fails*
//!    unless supernode placement + bias beats the round-robin baseline
//!    strictly (CI runs this experiment as a regression gate).
//! 2. **trainer-level cross-check** — the `TrainConfig` path (placement +
//!    `locality_bias` knobs) must arm the same accounting, and the trace
//!    counters must agree with `CommStats` on every classified byte.
//! 3. **modeled step time** — the step model (`perfmodel::project` with
//!    the locality-kept all-to-all) at full machine scale, for the
//!    round-robin baseline, what-if points at 25/50/75% local, and the
//!    measured fractions, so the speedup column is grounded in a fraction
//!    the runtime actually achieved rather than a hypothesis.
//!
//! Self-addressed traffic never touches the wire (the transport hands the
//! self part over in memory), so the measured round-robin baseline is
//! `(s-1)/(n-1)` of wire bytes — slightly *below* the logical `s/n` token
//! fraction the model's baseline uses. Both are printed.

use crate::table::Table;
use bagualu::comm::harness::run_ranks_map;
use bagualu::comm::shm::{CommStats, Communicator};
use bagualu::comm::CommFamily;
use bagualu::comm::WireDType;
use bagualu::metrics::format_si;
use bagualu::model::config::ModelConfig;
use bagualu::model::moe::GateKind;
use bagualu::model::param::HasParams;
use bagualu::parallel::model_dist::DistTransformer;
use bagualu::parallel::moe_dist::A2aKind;
use bagualu::parallel::sync::sync_grads_wire;
use bagualu::parallel::ExpertPlacement;
use bagualu::perfmodel::{project, A2aAlgo, PerfInput};
use bagualu::tensor::rng::Rng;
use bagualu::trace::names;
use bagualu::trainer::{TrainConfig, Trainer};

const TABLE_OUT: &str = "target/e25/placement-table.txt";

fn model(n_experts: usize) -> ModelConfig {
    ModelConfig {
        vocab: 64,
        d_model: 16,
        n_heads: 2,
        n_layers: 2,
        d_ff: 32,
        max_seq: 8,
        n_experts,
        moe_every: 2,
        gate: GateKind::Top2,
        capacity_factor: 2.0,
        aux_weight: 0.01,
        router_groups: 0,
        rope: false,
        tie_embeddings: false,
    }
}

/// Train a few steps under `placement` on `nranks` ranks with supernodes of
/// `s` world ranks, and return rank 0's view of the shared traffic stats.
/// Uses the pairwise a2a so wire source/destination equals the logical
/// token route, and arms the accounting explicitly so even the round-robin
/// baseline (which no supernode knob would otherwise arm) is classified.
fn measure(nranks: usize, s: usize, placement: ExpertPlacement, bias: f32) -> CommStats {
    let cfg = model(2 * nranks);
    let per_rank = 2usize;
    let seq = 8usize;
    let mut data_rng = Rng::seed_from(4242);
    let n = nranks * per_rank * seq;
    let tokens: Vec<usize> = (0..n).map(|_| data_rng.below(cfg.vocab)).collect();
    let targets: Vec<usize> = (0..n).map(|_| data_rng.below(cfg.vocab)).collect();
    let (tokens_ref, targets_ref) = (&tokens, &targets);
    let mut stats = run_ranks_map(nranks, move |c| {
        c.set_supernode_size(s);
        let mut dist =
            DistTransformer::new_placed(cfg, 1234, c.rank(), nranks, A2aKind::Pairwise, placement);
        if bias != 0.0 {
            dist.set_locality_bias(bias, s);
        }
        let lo = c.rank() * per_rank * seq;
        let tok = tokens_ref[lo..lo + per_rank * seq].to_vec();
        let tgt = targets_ref[lo..lo + per_rank * seq].to_vec();
        for _ in 0..6 {
            dist.train_batch(&tok, &tgt, per_rank, seq, &c);
            sync_grads_wire(&mut dist, &c, WireDType::F32);
            dist.visit_params(&mut |p| {
                let g = p.grad.clone();
                p.value.axpy(-0.1, &g);
            });
            dist.zero_grad();
        }
        c.stats().expect("ShmComm collects stats")
    });
    stats.swap_remove(0)
}

pub(crate) fn run() {
    println!("== E25: measured expert-placement locality ==\n");
    let mut artifact = String::new();

    // ---- 1. Measured local wire fraction per placement policy.
    let nranks = 8usize;
    println!("-- measured a2a local fraction (8 ranks, 16 experts, pairwise a2a) --");
    let mut t = Table::new(&[
        "supernode",
        "placement",
        "bias",
        "intra",
        "inter",
        "local frac",
        "wire baseline",
    ]);
    let mut measured: Vec<(usize, f64, f64)> = Vec::new(); // (s, rr frac, best frac)
    for s in [2usize, 4] {
        let wire_baseline = (s - 1) as f64 / (nranks - 1) as f64;
        let mut fracs = Vec::new();
        for (placement, bias, label) in [
            (ExpertPlacement::RoundRobin, 0.0f32, "round-robin"),
            (
                ExpertPlacement::Supernode { supernode_size: s },
                0.0,
                "supernode",
            ),
            (
                ExpertPlacement::Supernode { supernode_size: s },
                2.0,
                "supernode",
            ),
            (
                ExpertPlacement::Supernode { supernode_size: s },
                6.0,
                "supernode",
            ),
        ] {
            let stats = measure(nranks, s, placement, bias);
            // The split must account for every a2a byte the transport sent.
            assert_eq!(
                stats.a2a_intra_bytes + stats.a2a_inter_bytes,
                stats.family(CommFamily::Alltoall).bytes,
                "intra+inter must cover the alltoall family"
            );
            let frac = stats
                .a2a_local_fraction()
                .expect("accounting armed via set_supernode_size");
            fracs.push(frac);
            t.row(&[
                format!("{s}"),
                label.into(),
                format!("{bias}"),
                format_si(stats.a2a_intra_bytes as f64, "B"),
                format_si(stats.a2a_inter_bytes as f64, "B"),
                format!("{:.1}%", frac * 100.0),
                format!("{:.1}%", wire_baseline * 100.0),
            ]);
        }
        // The regression gate: supernode-aware placement with a biased gate
        // must keep strictly more traffic local than round-robin, which
        // sits near the uniform-routing wire baseline.
        let rr = fracs[0];
        let best = fracs.iter().copied().fold(0.0f64, f64::max);
        assert!(
            best > rr,
            "supernode placement must beat round-robin locality: {best} vs {rr}"
        );
        assert!(
            fracs[3] > wire_baseline,
            "biased gate must beat the uniform wire baseline {wire_baseline}: {}",
            fracs[3]
        );
        measured.push((s, rr, best));
    }
    t.print();
    artifact.push_str("measured a2a local fraction (8 ranks, 16 experts)\n");
    artifact.push_str(&t.render());
    println!(
        "\nUnbiased runs sit near the uniform wire baseline (s-1)/(n-1)\n\
         whatever the placement — placement alone moves experts, not tokens.\n\
         The locality-biased gate is what converts co-location into locality,\n\
         and it needs the supernode-aware placement to have something local\n\
         to aim at.\n"
    );

    // ---- 2. Trainer-level cross-check: config knobs + trace counters.
    println!("-- trainer path (placement/locality_bias knobs, trace counters) --");
    let cfg = TrainConfig {
        model: model(8),
        nranks: 4,
        batch_per_rank: 2,
        seq: 8,
        steps: 6,
        placement: ExpertPlacement::Supernode { supernode_size: 2 },
        locality_bias: 4.0,
        trace: true,
        ..TrainConfig::default()
    };
    let r = Trainer::new(cfg).run();
    assert!(r.final_loss().is_finite());
    assert_eq!(
        r.placement,
        ExpertPlacement::Supernode { supernode_size: 2 }
    );
    let stats = r.comm_stats.as_ref().expect("ShmComm collects stats");
    let trace = r.trace.as_ref().expect("trace requested");
    assert_eq!(
        trace.counter_total(names::A2A_INTRA_BYTES),
        stats.a2a_intra_bytes,
        "trace intra counter must match CommStats"
    );
    assert_eq!(
        trace.counter_total(names::A2A_INTER_BYTES),
        stats.a2a_inter_bytes,
        "trace inter counter must match CommStats"
    );
    let trainer_frac = stats.a2a_local_fraction().expect("accounting armed");
    println!(
        "supernode:2 + bias 4 on 4 ranks: intra {} | inter {} | local {:.1}% (counters agree)\n",
        format_si(stats.a2a_intra_bytes as f64, "B"),
        format_si(stats.a2a_inter_bytes as f64, "B"),
        trainer_frac * 100.0
    );
    artifact.push_str(&format!(
        "\ntrainer path: supernode:2 + bias 4 on 4 ranks -> local {:.1}%\n",
        trainer_frac * 100.0
    ));

    // ---- 3. Locality fractions in the step model at machine scale.
    println!("-- modeled a2a at 96,000 nodes, 14.5T preset (locality-kept a2a) --");
    let base = PerfInput::sunway_full(ModelConfig::bagualu_14_5t());
    let a2a_per_step = 4.0 * base.model.n_moe_blocks() as f64;
    let step_a2a = |kept: f64| {
        let input = PerfInput {
            a2a: A2aAlgo::Locality { kept },
            ..base
        };
        project(&input).unwrap().breakdown.a2a
    };
    let baseline_frac = base.machine.supernode_size as f64 / base.machine.nodes as f64;
    let base_time = step_a2a(baseline_frac);
    let mut t = Table::new(&[
        "local fraction",
        "source",
        "one a2a",
        "per step (4 per MoE block)",
        "speedup",
    ]);
    let mut rows: Vec<(f64, String)> = vec![
        (baseline_frac, "round-robin s/n (baseline)".into()),
        (0.25, "what-if: locality-biased gate".into()),
        (0.50, "what-if: hot experts replicated".into()),
        (0.75, "what-if: aggressive co-location".into()),
    ];
    for (s, rr, best) in &measured {
        rows.push((*rr, format!("measured: round-robin (s={s})")));
        rows.push((*best, format!("measured: supernode + bias (s={s})")));
    }
    for (frac, label) in rows {
        let step = step_a2a(frac);
        t.row(&[
            format!("{:.2}%", frac * 100.0),
            label,
            format!("{:.2} ms", step / a2a_per_step * 1e3),
            format!("{:.2} s", step),
            format!("{:.2}x", base_time / step),
        ]);
    }
    t.print();
    artifact.push_str("\nmodeled a2a at 96,000 nodes\n");
    artifact.push_str(&t.render());
    println!(
        "\nThe biased-gate fractions the runtime measures land at or above\n\
         the 25% and 50% what-if points, so those modeled speedups are\n\
         achievable with placement + gate bias alone — before any expert\n\
         replication. Every point of locality removes traffic from the 4:1-\n\
         tapered uplinks, but the a2a here is already hierarchical, so these\n\
         gains are second-order next to E3's pairwise-vs-hierarchical gap.\n\
         At the full machine the round-robin fraction is s/n ≈ 0.27%, far\n\
         below what the 8-rank harness can exhibit, which is why the\n\
         measured fractions are fed to the model as what-ifs rather than\n\
         extrapolated.\n"
    );

    std::fs::create_dir_all("target/e25").expect("create target/e25");
    std::fs::write(TABLE_OUT, &artifact).expect("write placement table");
    println!("wrote {TABLE_OUT}");
}
