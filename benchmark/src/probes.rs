//! Isolated probes: single calls into one crate at a workload's shapes, for
//! the costs a replay of the step cannot separate from outside (the gate
//! inside the MoE layer, the pack inside a send, one collective without the
//! compute around it) and for the decode-shaped kernels.

use crate::product::{
    allreduce_wire, alltoallv_hierarchical_wire, build_model, install_backend, install_row_ops,
    load_params, matmul, pack_slice, run_ranks_map, unpack_slice, Communicator, DType, DistFfn,
    KvCache, ReduceOp, Rng, Tensor, TrainConfig, WireDType,
};
use crate::stats;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median wall time of `f` over `n` calls, milliseconds; `prep` builds each
/// call's input outside the timed region.
fn median_ms<I, O>(n: usize, mut prep: impl FnMut() -> I, mut f: impl FnMut(I) -> O) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let input = prep();
            let t0 = Instant::now();
            black_box(f(black_box(input)));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

pub struct Probes {
    pub pack_ms: f64,
    pub gemm_decode_us: f64,
    pub gate_fwd_ms: f64,
    pub attn_decode_us: f64,
    pub allreduce_ms: f64,
    pub a2a_ms: f64,
}

/// Run every single-thread probe for `cfg`, then the two collective probes
/// on `cfg.nranks` ranks. `f16_elems` is the number of 16-bit wire elements
/// one rank sends per step (0 when the wire is f32: nothing is packed).
pub fn run(cfg: TrainConfig, f16_elems: usize) -> Probes {
    let _backend = install_backend(cfg.compute.instantiate());
    let _row_ops = install_row_ops(cfg.compute.instantiate_row_ops());
    let m = cfg.model;
    let tokens = cfg.batch_per_rank * cfg.seq;
    let mut rng = Rng::seed_from(cfg.seed ^ 0x50_52_4F_42);
    let mut model = build_model(&cfg, 0);

    let pack_ms = if f16_elems == 0 {
        0.0
    } else {
        let v = Tensor::randn(&[f16_elems], 1.0, &mut rng).into_vec();
        median_ms(
            5,
            || (),
            |()| unpack_slice(DType::F16, &pack_slice(DType::F16, &v)),
        )
    };

    let a = Tensor::randn(&[8, m.d_model], 1.0, &mut rng);
    let b = Tensor::randn(&[m.d_model, m.d_ff], 1.0, &mut rng);
    let gemm_decode_us = 1e3 * median_ms(50, || (), |()| matmul(&a, &b));

    let x = Tensor::randn(&[tokens, m.d_model], 1.0, &mut rng);
    let gate = model.blocks.iter().find_map(|blk| match &blk.ffn {
        DistFfn::MoE(moe) => Some(moe.gate.clone()),
        DistFfn::Dense(_) => None,
    });
    let gate_fwd_ms = gate.map_or(0.0, |mut g| median_ms(7, || (), |()| g.forward(&x)));

    // One new position against a KV history 5/8 of the way into the window
    // (length 40 at max_seq 64).
    let history = m.max_seq * 5 / 8;
    let attn = &mut model.blocks[0].attn;
    let mut kv = KvCache::new(m.d_model);
    for _ in 0..history {
        attn.forward_incremental(&Tensor::randn(&[1, m.d_model], 1.0, &mut rng), &mut kv);
    }
    let row = Tensor::randn(&[1, m.d_model], 1.0, &mut rng);
    let attn_decode_us = 1e3
        * median_ms(
            30,
            || kv.clone(),
            |mut kv| attn.forward_incremental(&row, &mut kv),
        );

    let mut dense_len = 0usize;
    model.visit_dense_params(&mut |p| dense_len += p.numel());
    // One dispatch's payload: every assignment's row, split evenly over the
    // destination ranks.
    let a2a_part = tokens * m.gate.k() * m.d_model / cfg.nranks;
    let sn = cfg.a2a.supernode_size().max(1);
    let wire = cfg.wire;
    let per_rank = run_ranks_map(cfg.nranks, move |comm| {
        collective_probes(&comm, dense_len, a2a_part, sn, wire)
    });
    let worst = |f: fn(&(f64, f64)) -> f64| per_rank.iter().map(f).fold(0.0, f64::max);

    Probes {
        pack_ms,
        gemm_decode_us,
        gate_fwd_ms,
        attn_decode_us,
        allreduce_ms: worst(|p| p.0),
        a2a_ms: if m.n_experts == 0 {
            0.0
        } else {
            worst(|p| p.1)
        },
    }
}

/// Median time of a ring all-reduce of the dense-gradient length and of one
/// hierarchical all-to-all of a dispatch's payload, on this rank.
fn collective_probes<C: Communicator>(
    comm: &C,
    dense_len: usize,
    a2a_part: usize,
    supernode_size: usize,
    wire: WireDType,
) -> (f64, f64) {
    let allreduce = median_ms(
        5,
        || {
            comm.barrier();
            vec![0.5f32; dense_len]
        },
        |grads| allreduce_wire(comm, grads, ReduceOp::Sum, wire),
    );
    let a2a = median_ms(
        9,
        || {
            comm.barrier();
            vec![vec![0.25f32; a2a_part]; comm.size()]
        },
        |parts| alltoallv_hierarchical_wire(comm, parts, supernode_size, wire),
    );
    (allreduce, a2a)
}

/// Median time to load rank 0's shard of a checkpoint step into a freshly
/// built model, milliseconds.
pub fn ckpt_load_ms(cfg: TrainConfig, step_dir: &Path) -> f64 {
    let mut model = build_model(&cfg, 0);
    let shard = step_dir.join("rank0.bglu");
    median_ms(
        3,
        || (),
        |()| load_params(&shard, &mut model).expect("load the checkpoint the run just wrote"),
    )
}
