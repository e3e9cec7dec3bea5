//! E24 — half-precision wire compression for gradient sync and MoE a2a.
//!
//! BaGuaLu reaches brain scale by spending as few bytes as possible on the
//! interconnect; this experiment quantifies what the 16-bit wire formats
//! (`TrainConfig::wire`, CLI `--wire-dtype`) buy and what they cost:
//!
//! 1. **wire bytes** — the same 4-rank training run under `f32`/`bf16`/
//!    `f16` wires; gradient-allreduce + a2a bytes from `CommStats`,
//!    cross-checked against the per-dtype `comm.wire.*` trace counters.
//!    The run *fails* if a 16-bit wire does not cut those bytes by ≥45%
//!    (CI runs this experiment as a regression gate).
//! 2. **modeled step comm time** — the step model (`perfmodel::project`)
//!    prices one step's hierarchical all-reduce and its four all-to-alls
//!    per MoE block at 256 → 96,000 nodes for 4- vs 2-byte elements. Compression halves the β term only, so
//!    the win is largest where bandwidth dominates (the dense gradient
//!    volume) and fades where latency does (tiny per-pair a2a payloads at
//!    full machine scale — exactly the regime the hierarchical a2a exists
//!    for).
//! 3. **measured ShmComm step time** — functional-trainer wall time at
//!    2–64 ranks for both wires. Threads share memory, so "the wire" is a
//!    memcpy: moving half the bytes competes against paying the pack/
//!    unpack conversions, and this table reports that tradeoff honestly.
//! 4. **convergence** — eval-loss delta vs the f32 wire after the same
//!    number of steps, including the FP16-params + FP16-wire corner where
//!    loss-scaled gradients ride a 65504-max-finite format. The bf16 wire
//!    must stay within 1% of the f32 final eval loss.

use crate::table::Table;
use bagualu::comm::{CommFamily, WireDType};
use bagualu::metrics::format_si;
use bagualu::model::config::ModelConfig;
use bagualu::model::moe::GateKind;
use bagualu::perfmodel::{project, PerfInput};
use bagualu::tensor::DType;
use bagualu::trace::names;
use bagualu::trainer::{TrainConfig, TrainReport, Trainer};

const TABLE_OUT: &str = "target/e24/wire-table.txt";

/// A small-but-real MoE model: d_model large enough that token rows (not
/// u32 headers) dominate the a2a, experts divisible by every rank count.
fn model(n_experts: usize) -> ModelConfig {
    ModelConfig {
        vocab: 64,
        d_model: 32,
        n_heads: 4,
        n_layers: 2,
        d_ff: 64,
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

fn run_traced(wire: WireDType) -> TrainReport {
    let cfg = TrainConfig {
        model: model(8),
        nranks: 4,
        batch_per_rank: 2,
        seq: 8,
        steps: 6,
        overlap: true,
        bucket_bytes: 8 << 10,
        trace: true,
        wire,
        ..TrainConfig::default()
    };
    Trainer::new(cfg).run()
}

/// Gradient-allreduce + a2a bytes — the traffic the wire knob compresses.
fn comm_bytes(r: &TrainReport) -> u64 {
    let stats = r.comm_stats.as_ref().expect("ShmComm collects stats");
    stats.family(CommFamily::Allreduce).bytes + stats.family(CommFamily::Alltoall).bytes
}

pub(crate) fn run() {
    println!("== E24: half-precision wire compression ==\n");
    let mut artifact = String::new();

    // ---- 1. Wire bytes, CommStats vs trace counters.
    println!("-- wire bytes (4 ranks, 6 steps, allreduce + a2a families) --");
    let mut t = Table::new(&[
        "wire",
        "allreduce+a2a",
        "vs f32",
        "fp32 ctr",
        "16-bit ctr",
        "u32 ctr",
        "total==stats",
    ]);
    let baseline = run_traced(WireDType::F32);
    let base_bytes = comm_bytes(&baseline);
    for wire in [WireDType::F32, WireDType::BF16, WireDType::F16] {
        let r = if wire == WireDType::F32 {
            baseline.clone()
        } else {
            run_traced(wire)
        };
        let bytes = comm_bytes(&r);
        let stats = r.comm_stats.as_ref().unwrap();
        let trace = r.trace.as_ref().expect("trace requested");
        // The per-dtype wire counters slice the same sent bytes as the
        // per-family counters: their sum must equal the transport total.
        let by_dtype: u64 = [
            names::WIRE_F32_BYTES,
            names::WIRE_F16_BYTES,
            names::WIRE_BF16_BYTES,
            names::WIRE_U64_BYTES,
            names::WIRE_U32_BYTES,
        ]
        .iter()
        .map(|n| trace.counter_total(n))
        .sum();
        assert_eq!(
            by_dtype, stats.total_bytes,
            "{wire}: per-dtype trace counters must cover every sent byte"
        );
        let half_ctr = trace.counter_total(names::WIRE_F16_BYTES)
            + trace.counter_total(names::WIRE_BF16_BYTES);
        if wire != WireDType::F32 {
            assert!(half_ctr > 0, "{wire}: compressed traffic must be counted");
            let cut = 1.0 - bytes as f64 / base_bytes as f64;
            assert!(
                cut >= 0.45,
                "{wire} wire must cut allreduce+a2a bytes by >=45%, got {:.1}%",
                cut * 100.0
            );
        }
        t.row(&[
            wire.to_string(),
            format_si(bytes as f64, "B"),
            format!("-{:.1}%", (1.0 - bytes as f64 / base_bytes as f64) * 100.0),
            format_si(trace.counter_total(names::WIRE_F32_BYTES) as f64, "B"),
            format_si(half_ctr as f64, "B"),
            format_si(trace.counter_total(names::WIRE_U32_BYTES) as f64, "B"),
            "yes".into(),
        ]);
    }
    t.print();
    artifact.push_str("wire bytes (4 ranks, allreduce + a2a families)\n");
    artifact.push_str(&t.render());
    println!(
        "\nControl-path scalars (metric/overflow reductions) stay fp32 and the\n\
         dispatch headers travel as u32, so the cut lands just under the 50%\n\
         data-byte ceiling. CommStats and the comm.wire.* counters agree on\n\
         every byte.\n"
    );

    // ---- 2. Modeled step comm time from the α–β cost model.
    println!("-- modeled step comm time (14.5T preset, hierarchical collectives) --");
    let mut t = Table::new(&[
        "nodes",
        "f32 allreduce",
        "bf16 allreduce",
        "f32 a2a",
        "bf16 a2a",
        "step speedup",
    ]);
    for nodes in [256usize, 1024, 6144, 24_576, 96_000] {
        // The one step model, with the wire format setting the bytes of
        // both the gradient all-reduce and every MoE all-to-all.
        let at = |wire: WireDType| {
            let elem = wire.size_bytes() as f64;
            let input = PerfInput {
                a2a_bytes: elem,
                grad_bytes: elem,
                ..PerfInput::sunway_nodes(ModelConfig::bagualu_14_5t(), nodes)
            };
            project(&input).unwrap().breakdown
        };
        let (full, half) = (at(WireDType::F32), at(WireDType::BF16));
        let speedup = (full.allreduce + full.a2a) / (half.allreduce + half.a2a);
        t.row(&[
            format!("{nodes}"),
            format!("{:.3}s", full.allreduce),
            format!("{:.3}s", half.allreduce),
            format!("{:.3}s", full.a2a),
            format!("{:.3}s", half.a2a),
            format!("{speedup:.2}x"),
        ]);
        assert!(
            speedup > 1.0 && speedup <= 2.0 + 1e-9,
            "compression halves beta only: speedup {speedup}"
        );
    }
    t.print();
    artifact.push_str("\nmodeled step comm time (14.5T preset)\n");
    artifact.push_str(&t.render());
    println!(
        "\nThe dense gradient allreduce is bandwidth-bound at every scale, so\n\
         its time halves outright; the per-pair a2a payload shrinks as 1/nodes\n\
         until latency (α) dominates and compression stops mattering — the\n\
         two optimizations (hierarchical a2a for α, 16-bit wire for β) are\n\
         complementary, not redundant.\n"
    );

    // ---- 3. Measured ShmComm step time at 2–64 ranks.
    println!("-- measured functional step time (ShmComm threads, 64 experts) --");
    let mut t = Table::new(&["ranks", "f32 tok/s", "bf16 tok/s", "bf16/f32"]);
    for nranks in [2usize, 4, 8, 16, 32, 64] {
        let run_one = |wire| {
            let cfg = TrainConfig {
                model: model(64),
                nranks,
                batch_per_rank: 1,
                seq: 8,
                steps: 4,
                overlap: true,
                bucket_bytes: 8 << 10,
                wire,
                ..TrainConfig::default()
            };
            Trainer::new(cfg).run().tokens_per_sec
        };
        let f32_tps = run_one(WireDType::F32);
        let bf16_tps = run_one(WireDType::BF16);
        t.row(&[
            format!("{nranks}"),
            format_si(f32_tps, "tok/s"),
            format_si(bf16_tps, "tok/s"),
            format!("{:.2}x", bf16_tps / f32_tps),
        ]);
    }
    t.print();
    artifact.push_str("\nmeasured functional step time (ShmComm)\n");
    artifact.push_str(&t.render());
    println!(
        "\nIn shared memory the \"wire\" is a memcpy, so halving bytes competes\n\
         with paying the pack/unpack conversions — expect ratios near 1.0\n\
         here. The bytes the modeled network charges for (section 2) are\n\
         where the 2x lives.\n"
    );

    // ---- 4. Convergence: eval-loss delta vs the f32 wire. The run stops
    // while the eval loss is still O(1): at the synthetic task's
    // convergence floor (~1e-2 after 60 steps) per-hop rounding jitters
    // the trajectory by more than the loss itself, and a relative bound
    // stops measuring the wire format and starts measuring the floor.
    println!("-- convergence (4 ranks, 16 steps, eval every 8) --");
    let run_conv = |dtype: DType, wire: WireDType| {
        let cfg = TrainConfig {
            model: model(8),
            nranks: 4,
            batch_per_rank: 2,
            seq: 8,
            steps: 16,
            lr: 1e-2,
            dtype,
            eval_every: Some(8),
            wire,
            ..TrainConfig::default()
        };
        Trainer::new(cfg).run()
    };
    let exact = run_conv(DType::F32, WireDType::F32);
    let exact_eval = exact.eval_curve.last().unwrap().1;
    let mut t = Table::new(&["params", "wire", "final eval loss", "delta", "skipped"]);
    for (dtype, wire) in [
        (DType::F32, WireDType::F32),
        (DType::F32, WireDType::BF16),
        (DType::F32, WireDType::F16),
        (DType::F16, WireDType::F32),
        (DType::F16, WireDType::F16),
    ] {
        let r = if (dtype, wire) == (DType::F32, WireDType::F32) {
            exact.clone()
        } else {
            run_conv(dtype, wire)
        };
        let eval = r.eval_curve.last().unwrap().1;
        let delta = (eval - exact_eval) / exact_eval;
        if dtype == DType::F32 && wire == WireDType::BF16 {
            assert!(
                delta.abs() < 0.01,
                "bf16 wire must stay within 1% of f32 eval loss: {exact_eval} vs {eval}"
            );
        }
        assert!(eval.is_finite(), "{dtype}/{wire} diverged");
        t.row(&[
            dtype.to_string(),
            wire.to_string(),
            format!("{eval:.4}"),
            format!("{:+.2}%", delta * 100.0),
            format!("{}", r.skipped_steps),
        ]);
    }
    t.print();
    artifact.push_str("\nconvergence (4 ranks, 16 steps)\n");
    artifact.push_str(&t.render());
    println!(
        "\nReductions accumulate in f32 and each value is rounded only once\n\
         per hop, so the rounding noise stays far below gradient noise. The\n\
         fp16-params rows exercise the LossScaler: scaled gradients must\n\
         survive FP16's 65504 max-finite on the wire. Compare the two fp16\n\
         rows against each other — their gap is the wire's contribution,\n\
         while the gap to fp32 is the cost of fp16 parameters themselves\n\
         (the scaler's skipped warm-up steps mean fewer updates).\n"
    );

    std::fs::create_dir_all("target/e24").expect("create target/e24");
    std::fs::write(TABLE_OUT, &artifact).expect("write wire table");
    println!("wrote {TABLE_OUT}");
}
