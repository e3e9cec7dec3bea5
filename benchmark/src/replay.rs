//! T2: the benchmark's own rank loop. It replays the trainer's step through
//! the crates' public functions, one call at a time, with a span of the
//! benchmark's own around each call. Gradient sync is blocking (no overlap),
//! so every millisecond belongs to exactly one row.
//!
//! The replay is only worth reading if it is the same computation, so it
//! returns its loss curve and the caller compares it bit for bit with
//! `Trainer::run`'s.

use crate::product::{
    allreduce_recursive_doubling, build_model, clip_grad_norm, cross_entropy, install_backend,
    install_row_ops, run_ranks_map, span, sync_grads_wire, AdamConfig, Communicator, DistFfn,
    DistTransformer, HasParams, MixedPrecision, ReduceOp, StepOutcome, SyntheticLM, Tensor, Trace,
    TraceCollector, TrainConfig,
};

pub const STEP: &str = "t2.step";
pub const BUILD: &str = "t2.build";
pub const DATA: &str = "t2.data";
pub const EMBED: &str = "t2.embed";
pub const LN: &str = "t2.ln";
pub const ATTN_FWD: &str = "t2.attn_fwd";
pub const ATTN_BWD: &str = "t2.attn_bwd";
pub const FFN_FWD: &str = "t2.ffn_fwd";
pub const FFN_BWD: &str = "t2.ffn_bwd";
pub const MOE_FWD: &str = "t2.moe_fwd";
pub const MOE_BWD: &str = "t2.moe_bwd";
pub const HEAD: &str = "t2.head";
pub const LOSS: &str = "t2.loss";
pub const GRAD_SYNC: &str = "t2.grad_sync";
pub const CLIP: &str = "t2.clip";
pub const ADAM: &str = "t2.adam";
pub const ZERO_GRAD: &str = "t2.zero_grad";
/// The two scalar all-reduces of a step: the overflow flag and the metrics.
pub const CTRL: &str = "t2.ctrl";

pub struct Replay {
    pub loss_curve: Vec<f32>,
    pub trace: Trace,
}

/// Run `cfg.steps` steps on `cfg.nranks` ranks.
pub fn run(cfg: TrainConfig) -> Replay {
    let collector = TraceCollector::new();
    let col = collector.clone();
    let mut curves = run_ranks_map(cfg.nranks, move |comm| {
        let _lane = col.install(comm.rank());
        rank_loop(cfg, &comm)
    });
    Replay {
        loss_curve: curves.swap_remove(0),
        trace: collector.finish(),
    }
}

/// What `rank_main` + `RankState::{new, step}` do, for the configurations
/// the benchmark uses (fp32 parameters, no accumulation, replicated Adam,
/// no schedule, no eval, no locality bias), call for call.
fn rank_loop<C: Communicator>(cfg: TrainConfig, comm: &C) -> Vec<f32> {
    let _backend = install_backend(cfg.compute.instantiate());
    let _row_ops = install_row_ops(cfg.compute.instantiate_row_ops());

    let mut model = {
        let _s = span(BUILD);
        build_model(&cfg, comm.rank())
    };
    model.set_wire_dtype(cfg.wire);
    let sn = cfg.effective_supernode_size();
    if sn > 0 {
        comm.set_supernode_size(sn);
    }
    let mut opt = MixedPrecision::new(
        AdamConfig {
            lr: cfg.lr,
            ..Default::default()
        },
        cfg.dtype,
    );
    opt.quantize_model(&mut model);
    let task = SyntheticLM::new(cfg.model.vocab, cfg.data, cfg.seed);
    let (batch, seq) = (cfg.batch_per_rank, cfg.seq);
    let r = comm.size() as f32;

    let mut loss_curve = Vec::with_capacity(cfg.steps);
    for step in 0..cfg.steps {
        let _step = span(STEP);
        let (tokens, targets) = {
            let _s = span(DATA);
            task.batch(batch, seq, comm.rank(), step)
        };

        let logits = forward(&mut model, &tokens, batch, seq, comm);
        let (ce, aux, imb, dropr, mut dlogits) = {
            let _s = span(LOSS);
            let (ce, dlogits) = cross_entropy(&logits, &targets);
            let (imb, dropr) = routing_stats(&model);
            (ce, model.aux_loss(), imb, dropr, dlogits)
        };
        dlogits.scale(opt.loss_scale());
        backward(&mut model, &dlogits, comm);

        {
            let _s = span(GRAD_SYNC);
            sync_grads_wire(&mut model, comm, cfg.wire);
        }
        if let Some(max_norm) = cfg.clip {
            let _s = span(CLIP);
            let inv = 1.0 / opt.loss_scale();
            model.visit_params(&mut |p| p.grad.scale(inv));
            clip_grad_norm(&mut model, max_norm);
            let back = opt.loss_scale();
            model.visit_params(&mut |p| p.grad.scale(back));
        }
        let outcome = {
            let _s = span(ADAM);
            opt.step(&mut model)
        };
        {
            let _s = span(CTRL);
            let flag = f32::from(outcome == StepOutcome::SkippedOverflow);
            allreduce_recursive_doubling(comm, vec![flag], ReduceOp::Max);
        }
        {
            let _s = span(ZERO_GRAD);
            model.zero_grad();
        }
        let stats = {
            let _s = span(CTRL);
            allreduce_recursive_doubling(
                comm,
                vec![ce, aux, imb as f32, dropr as f32],
                ReduceOp::Sum,
            )
        };
        loss_curve.push(stats[0] / r);
    }
    loss_curve
}

/// `DistTransformer::forward`, walked over its public fields.
fn forward<C: Communicator>(
    m: &mut DistTransformer,
    tokens: &[usize],
    batch: usize,
    seq: usize,
    comm: &C,
) -> Tensor {
    let mut x = {
        let _s = span(EMBED);
        let mut x = m.tok.forward(tokens);
        if !m.cfg.rope {
            let pos_ids: Vec<usize> = (0..batch * seq).map(|i| i % seq).collect();
            x.add_assign(&m.pos.forward(&pos_ids));
        }
        x
    };
    for b in &mut m.blocks {
        let a = {
            let _s = span(LN);
            b.ln1.forward(&x)
        };
        let a = {
            let _s = span(ATTN_FWD);
            b.attn.forward(&a, batch, seq)
        };
        let mut h = x.clone();
        h.add_assign(&a);
        let f = {
            let _s = span(LN);
            b.ln2.forward(&h)
        };
        let f = match &mut b.ffn {
            DistFfn::Dense(ffn) => {
                let _s = span(FFN_FWD);
                ffn.forward(&f)
            }
            DistFfn::MoE(moe) => {
                let _s = span(MOE_FWD);
                moe.forward(&f, comm)
            }
        };
        h.add_assign(&f);
        x = h;
    }
    let x = {
        let _s = span(LN);
        m.ln_f.forward(&x)
    };
    let _s = span(HEAD);
    m.head.forward(&x)
}

/// `DistTransformer::backward`, walked the same way.
fn backward<C: Communicator>(m: &mut DistTransformer, dlogits: &Tensor, comm: &C) {
    let dx = {
        let _s = span(HEAD);
        m.head.backward(dlogits)
    };
    let mut dx = {
        let _s = span(LN);
        m.ln_f.backward(&dx)
    };
    for b in m.blocks.iter_mut().rev() {
        let df = match &mut b.ffn {
            DistFfn::Dense(ffn) => {
                let _s = span(FFN_BWD);
                ffn.backward(&dx)
            }
            DistFfn::MoE(moe) => {
                let _s = span(MOE_BWD);
                moe.backward(&dx, comm)
            }
        };
        let mut dh = {
            let _s = span(LN);
            b.ln2.backward(&df)
        };
        dh.add_assign(&dx);
        let da = {
            let _s = span(ATTN_BWD);
            b.attn.backward(&dh)
        };
        dx = {
            let _s = span(LN);
            b.ln1.backward(&da)
        };
        dx.add_assign(&dh);
    }
    let _s = span(EMBED);
    m.tok.backward(&dx);
    if !m.cfg.rope {
        m.pos.backward(&dx);
    }
}

/// Imbalance and drop rate of the first MoE block's last routing, which the
/// trainer folds into its per-step metric all-reduce.
fn routing_stats(model: &DistTransformer) -> (f64, f64) {
    model
        .blocks
        .iter()
        .find_map(|b| match &b.ffn {
            DistFfn::MoE(moe) => moe.last_routing().map(|r| (r.imbalance(), r.drop_rate())),
            DistFfn::Dense(_) => None,
        })
        .unwrap_or((1.0, 0.0))
}
