//! Gradient synchronization for MoDa parallelism, and the optimizer step
//! that consumes the synchronized gradients.
//!
//! After each rank's local backward:
//!
//! * **dense gradients** (replicated parameters) are averaged across ranks —
//!   standard data parallelism;
//! * **expert gradients** are *not* communicated (each expert lives on one
//!   rank only) but are rescaled by `1/R`, because each rank's loss is the
//!   mean over its `1/R`-sized micro-batch while an expert accumulates
//!   contributions from all ranks' tokens.
//!
//! Three dense paths exist, one [`DenseSync`] each:
//!
//! * [`sync_grads_wire`] — flatten everything after backward, one monolithic
//!   blocking all-reduce (simple, zero overlap) in the [`WireDType`] the
//!   caller names (`WireDType::F32` is lossless);
//! * [`backward_and_sync_overlapped_wire`] — a `GradBucketer` rides the
//!   backward pass via `backward_with_grad_ready`, fills fixed-size
//!   buckets in reverse parameter-visit order, launches each bucket's
//!   ring all-reduce the moment it fills, and polls in-flight rings from
//!   inside the hook so communication overlaps the remaining backward
//!   compute. This is BaGuaLu's communication/computation-overlap strategy
//!   for the data-parallel dimension, realized functionally;
//! * `ZeroShard` — ZeRO: reduce-scatter into this rank's `1/R` shard,
//!   which the optimizer steps instead of the replica, then all-gather it,
//!   so optimizer state exists once across the world (E7's saving).
//!
//! [`sync_and_step`] runs any of them and then the one [`MixedPrecision`]
//! step, its overflow verdict agreed across ranks before anything is
//! applied. With any path, an `R`-rank step is numerically equivalent to a
//! single-rank step over the concatenated global batch (up to reduction
//! summation order) — the property the integration tests pin down.

use crate::model_dist::DistTransformer;
use bagualu_comm::collectives::{
    allgather, allreduce_recursive_doubling, allreduce_wire, broadcast, bucket_tag, reduce_scatter,
    ReduceOp, RingAllreduce,
};
use bagualu_comm::payload::WireDType;
use bagualu_comm::shm::Communicator;
use bagualu_model::param::{HasParams, Param};
use bagualu_optim::mixed::{MixedPrecision, StepOutcome};
use bagualu_tensor::{reservoir, Tensor};
use bagualu_trace::{self as trace, names};

/// Bucket tags [`bucket_tag`] hands out, so the most buckets one backward
/// pass may keep in flight.
const MAX_BUCKETS: usize = 4096;

/// Synchronize gradients across the data-parallel group with one blocking
/// all-reduce of the dense gradients: they are rounded to `wire` per ring
/// hop while the reduction itself accumulates in `f32`.
pub fn sync_grads_wire<C: Communicator>(model: &mut DistTransformer, comm: &C, wire: WireDType) {
    let _span = trace::span(names::GRAD_SYNC);
    let r = comm.size() as f32;

    // Flatten dense grads in the deterministic visit order.
    let mut flat = Vec::new();
    model.visit_dense_params(&mut |p| flat.extend_from_slice(p.grad.as_slice()));
    let mut reduced = allreduce_wire(comm, flat, ReduceOp::Sum, wire);
    let inv = 1.0 / r;
    for g in &mut reduced {
        *g *= inv;
    }

    let mut off = 0usize;
    model.visit_dense_params(&mut |p| {
        let n = p.grad.len();
        p.grad
            .as_mut_slice()
            .copy_from_slice(&reduced[off..off + n]);
        off += n;
    });

    // Experts: rescale only.
    model.visit_expert_params(&mut |p| p.grad.scale(1.0 / r));
}

/// Outcome of one overlapped backward+sync, for overlap accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncStats {
    /// Dense gradient scalars reduced.
    pub dense_scalars: usize,
    /// Buckets launched (≥ 1 unless the model has no dense parameters).
    pub buckets: usize,
    /// Ring steps across all buckets (`2(R-1)` per bucket at `R` ranks).
    pub ring_steps: usize,
    /// Ring steps that completed while backward compute was still running —
    /// the *measured* communication/computation overlap.
    pub ring_steps_overlapped: usize,
}

/// Fills fixed-size buckets with ready gradients and drives their ring
/// all-reduces incrementally. One instance lives for one backward pass.
struct GradBucketer<'a, C: Communicator> {
    comm: &'a C,
    bucket_elems: usize,
    /// Element format each bucket's ring uses in flight.
    wire: WireDType,
    /// Dense gradient scalars still to come, so the last bucket borrows a
    /// buffer of the size it will fill rather than a whole bucket's.
    remaining: usize,
    current: Vec<f32>,
    rings: Vec<RingAllreduce<C>>,
    /// Wall time spent polling in-flight rings from inside the backward
    /// hook, i.e. driving overlapped communication. Only accumulated while
    /// a trace is being recorded.
    poll_ns: u64,
}

impl<'a, C: Communicator> GradBucketer<'a, C> {
    fn new(
        comm: &'a C,
        bucket_bytes: usize,
        wire: WireDType,
        dense_scalars: usize,
    ) -> GradBucketer<'a, C> {
        // `bucket_bytes` is a *wire* budget: a 16-bit wire fits twice the
        // scalars per bucket, so fewer rings move the same gradient stream.
        // Every bucket stays in flight until the pass drains, so buckets
        // widen past the budget rather than outnumber the bucket tags.
        let bucket_elems = (bucket_bytes / wire.size_bytes())
            .max(dense_scalars.div_ceil(MAX_BUCKETS))
            .max(1);
        GradBucketer {
            comm,
            bucket_elems,
            wire,
            remaining: dense_scalars,
            current: Vec::new(),
            rings: Vec::new(),
            poll_ns: 0,
        }
    }

    /// Append a ready gradient to the stream, launching every bucket it
    /// fills, then give in-flight rings a chance to advance.
    fn push(&mut self, grad: &[f32]) {
        let mut off = 0usize;
        while off < grad.len() {
            if self.current.capacity() == 0 {
                self.current = reservoir::global().lend(self.bucket_elems.min(self.remaining));
            }
            let take = (self.bucket_elems - self.current.len()).min(grad.len() - off);
            self.current.extend_from_slice(&grad[off..off + take]);
            off += take;
            self.remaining = self.remaining.saturating_sub(take);
            if self.current.len() == self.bucket_elems {
                self.flush();
            }
        }
        if trace::enabled() {
            let t0 = std::time::Instant::now();
            self.poll();
            self.poll_ns += t0.elapsed().as_nanos() as u64;
        } else {
            self.poll();
        }
    }

    /// Launch the current (possibly partial) bucket.
    fn flush(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let data = std::mem::take(&mut self.current);
        let tag = bucket_tag(self.rings.len());
        self.rings.push(RingAllreduce::start_wire(
            self.comm,
            data,
            ReduceOp::Sum,
            tag,
            self.wire,
        ));
    }

    /// Advance every in-flight ring without blocking.
    fn poll(&mut self) {
        for ring in self.rings.iter_mut() {
            ring.poll(self.comm);
        }
    }

    /// Ring steps completed so far, across all buckets.
    fn steps_done(&self) -> usize {
        self.rings.iter().map(|r| r.steps_done()).sum()
    }

    /// Total ring steps across all buckets launched so far.
    fn steps_total(&self) -> usize {
        self.rings.iter().map(|r| r.steps_total()).sum()
    }
}

/// Backward pass with bucketed, overlapped dense-gradient synchronization.
///
/// Equivalent to `model.backward(dlogits, comm)` followed by
/// [`sync_grads_wire`], up to all-reduce summation order (buckets partition
/// the gradient stream differently than the monolithic flatten). Every
/// bucket's ring packs each hop to `wire` (reductions still accumulate in
/// `f32`), and `bucket_bytes` budgets *wire* bytes — a 16-bit wire fits
/// twice the scalars per bucket. A pass never launches more than 4096
/// buckets; past that, buckets grow beyond `bucket_bytes`. Collective —
/// every rank must call it with the same `bucket_bytes`.
pub fn backward_and_sync_overlapped_wire<C: Communicator>(
    model: &mut DistTransformer,
    dlogits: &Tensor,
    comm: &C,
    bucket_bytes: usize,
    wire: WireDType,
) -> SyncStats {
    let r = comm.size() as f32;
    let mut dense_scalars = 0;
    model.visit_dense_params(&mut |p| dense_scalars += p.grad.len());
    let mut bucketer = GradBucketer::new(comm, bucket_bytes, wire, dense_scalars);
    let backward_span = trace::span(names::BACKWARD);
    model.backward_with_grad_ready(dlogits, comm, &mut |p| {
        bucketer.push(p.grad.as_slice());
    });
    // Everything that completed by now was hidden under backward compute.
    let overlapped = bucketer.steps_done();
    drop(backward_span);
    // The tail bucket only launches now: there is no compute left to hide
    // it behind, so its steps are exposed by construction.
    let _sync_span = trace::span(names::GRAD_SYNC);
    bucketer.flush();

    let mut stats = SyncStats {
        dense_scalars: 0,
        buckets: bucketer.rings.len(),
        ring_steps: bucketer.steps_total(),
        ring_steps_overlapped: overlapped,
    };
    if trace::enabled() {
        trace::count(names::RING_STEPS, stats.ring_steps as u64);
        trace::count(
            names::RING_STEPS_OVERLAPPED,
            stats.ring_steps_overlapped as u64,
        );
        trace::count(names::OVERLAP_POLL_NS, bucketer.poll_ns);
    }

    // Every bucket is launched: finish the rings in index order, blocking
    // on the mailbox. Every rank launches the same buckets in the same
    // order, so this cannot deadlock, and no ring's reduction order moves.
    let mut buckets: Vec<Vec<f32>> = bucketer
        .rings
        .into_iter()
        .map(|ring| ring.finish(comm))
        .collect();
    // Scatter the reduced stream back in the exact ready order it was
    // gathered in; parameters may straddle bucket boundaries.
    let inv = 1.0 / r;
    for b in &mut buckets {
        stats.dense_scalars += b.len();
        for g in b.iter_mut() {
            *g *= inv;
        }
    }
    let mut bucket_idx = 0usize;
    let mut off = 0usize;
    model.visit_dense_params_ready_order(&mut |p| {
        let dst = p.grad.as_mut_slice();
        let mut written = 0usize;
        while written < dst.len() {
            let src = &buckets[bucket_idx];
            let take = (src.len() - off).min(dst.len() - written);
            dst[written..written + take].copy_from_slice(&src[off..off + take]);
            written += take;
            off += take;
            if off == src.len() {
                bucket_idx += 1;
                off = 0;
            }
        }
    });

    buckets
        .into_iter()
        .for_each(|v| reservoir::global().recycle(v));

    // Experts: rescale only.
    model.visit_expert_params(&mut |p| p.grad.scale(1.0 / r));

    stats
}

/// How a run's dense gradients cross ranks between backward and the update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseSync {
    /// [`sync_grads_wire`] after backward, in this wire format.
    Blocking(WireDType),
    /// Done under backward by [`backward_and_sync_overlapped_wire`].
    Overlapped,
    /// Reduce-scattered into this rank's shard, all-gathered once updated
    /// (ZeRO).
    Sharded,
}

/// The step every rank runs after its backward: the dense gradients cross
/// ranks as `sync` says, then one [`MixedPrecision::step_agreed`] whose
/// overflow verdict is a one-scalar max-all-reduce, so every rank skips or
/// every rank applies; under ZeRO the applied shard is all-gathered.
/// Consumes every gradient. Collective, with the same `sync` on every rank.
pub fn sync_and_step<C: Communicator>(
    model: &mut DistTransformer,
    opt: &mut MixedPrecision,
    sync: DenseSync,
    comm: &C,
) -> StepOutcome {
    let agree = |overflow: bool| {
        allreduce_recursive_doubling(comm, vec![f32::from(overflow)], ReduceOp::Max)[0] > 0.0
    };
    match sync {
        DenseSync::Sharded => {
            let mut shard = ZeroShard::scatter(model, comm);
            let _span = trace::span(names::OPTIMIZER);
            let outcome = opt.step_agreed(&mut shard, agree);
            // Agreed, so every rank gathers or none; a skip moved nothing.
            if outcome == StepOutcome::Applied {
                shard.gather(comm);
            }
            outcome
        }
        DenseSync::Blocking(_) | DenseSync::Overlapped => {
            if let DenseSync::Blocking(wire) = sync {
                sync_grads_wire(model, comm, wire);
            }
            let _span = trace::span(names::OPTIMIZER);
            opt.step_agreed(model, agree)
        }
    }
}

/// ZeRO's view of a rank's model for the optimizer: this rank's contiguous
/// `1/R` slice of the flattened dense parameters as one [`Param`], then its
/// experts. It only moves data: the shard's values are read from the
/// replica at every scatter, and masters and moments live in the
/// [`MixedPrecision`] that steps the view.
struct ZeroShard<'a> {
    model: &'a mut DistTransformer,
    shard: Param,
}

impl<'a> ZeroShard<'a> {
    /// Reduce-scatter the dense gradients (in `f32`, averaged, consumed from
    /// the model) into this rank's shard, and rescale the experts' by `1/R`.
    fn scatter<C: Communicator>(model: &'a mut DistTransformer, comm: &C) -> ZeroShard<'a> {
        let _span = trace::span(names::GRAD_SYNC);
        let (r, rank) = (comm.size(), comm.rank());
        let mut flat = Vec::new();
        model.visit_dense_params(&mut |p| {
            flat.extend_from_slice(p.grad.as_slice());
            p.zero_grad();
        });
        let (lo, hi) = (flat.len() * rank / r, flat.len() * (rank + 1) / r);
        let mut grad = reduce_scatter(comm, flat, ReduceOp::Sum);
        let inv = 1.0 / r as f32;
        grad.iter_mut().for_each(|g| *g *= inv);
        let mut value = Vec::with_capacity(hi - lo);
        let mut off = 0usize;
        model.visit_dense_params(&mut |p| {
            let w = p.value.as_slice();
            let end = off + w.len();
            value.extend_from_slice(&w[lo.clamp(off, end) - off..hi.clamp(off, end) - off]);
            off = end;
        });
        model.visit_expert_params(&mut |p| p.grad.scale(inv));
        let n = value.len();
        ZeroShard {
            model,
            shard: Param {
                name: "zero.shard".into(),
                value: Tensor::from_vec(value, &[n]),
                grad: Tensor::from_vec(grad, &[n]),
            },
        }
    }

    /// All-gather the updated shards into this replica's dense parameters.
    fn gather<C: Communicator>(self, comm: &C) {
        let full = allgather(comm, self.shard.value.into_vec()).concat();
        let mut off = 0usize;
        self.model.visit_dense_params(&mut |p| {
            let n = p.value.len();
            p.value.as_mut_slice().copy_from_slice(&full[off..off + n]);
            off += n;
        });
        assert_eq!(
            off,
            full.len(),
            "the gathered shards must tile the dense parameters"
        );
    }
}

impl HasParams for ZeroShard<'_> {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.shard);
        self.model.visit_expert_params(f);
    }
}

/// Debug/validation helper: confirm every rank holds identical dense
/// parameter *values* (they must, since updates are deterministic on
/// identical gradients). Returns the maximum absolute divergence from the
/// rank-0 replica.
///
/// Compares in fixed-size chunks instead of broadcasting the full flat
/// parameter vector at once, and every few chunks max-allreduces the
/// running divergence so all ranks can exit early (coherently) as soon as
/// any rank has proven a mismatch.
pub fn check_replica_consistency<C: Communicator>(model: &mut DistTransformer, comm: &C) -> f32 {
    const CHUNK: usize = 1 << 14;
    const CHECK_EVERY: usize = 8;

    let mut flat = Vec::new();
    model.visit_dense_params(&mut |p| flat.extend_from_slice(p.value.as_slice()));

    let mut local_max = 0.0f32;
    let mut since_check = 0usize;
    for chunk in flat.chunks(CHUNK) {
        let reference = broadcast(comm, 0, (comm.rank() == 0).then(|| chunk.to_vec()));
        local_max = chunk
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(local_max, f32::max);
        since_check += 1;
        if since_check == CHECK_EVERY {
            since_check = 0;
            // Collective early-exit: every rank sees the same global max
            // and takes the same branch, so the protocol stays in lockstep.
            let global = allreduce_recursive_doubling(comm, vec![local_max], ReduceOp::Max)[0];
            if global > 0.0 {
                return global;
            }
            local_max = 0.0;
        }
    }
    allreduce_recursive_doubling(comm, vec![local_max], ReduceOp::Max)[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moe_dist::A2aKind;
    use bagualu_comm::harness::run_ranks_map;
    use bagualu_model::config::ModelConfig;
    use bagualu_model::loss::cross_entropy;
    use bagualu_model::moe::GateKind;
    use bagualu_optim::adam::AdamConfig;
    use bagualu_tensor::rng::Rng;
    use bagualu_tensor::DType;

    const DTYPES: [DType; 3] = [DType::F32, DType::F16, DType::BF16];

    fn cfg() -> ModelConfig {
        ModelConfig {
            vocab: 19,
            d_model: 8,
            n_heads: 2,
            n_layers: 2,
            d_ff: 16,
            max_seq: 4,
            n_experts: 4,
            moe_every: 2,
            gate: GateKind::Top1,
            capacity_factor: 64.0,
            aux_weight: 0.0,
            router_groups: 0,
            rope: false,
            tie_embeddings: false,
        }
    }

    fn batch(rank: usize, step: usize, n: usize, vocab: usize) -> (Vec<usize>, Vec<usize>) {
        let mut rng = Rng::for_rank(step as u64, rank);
        let tokens: Vec<usize> = (0..n).map(|_| rng.below(vocab)).collect();
        let targets: Vec<usize> = tokens.iter().map(|&t| (t + 3) % vocab).collect();
        (tokens, targets)
    }

    /// One rank at the end of [`train`].
    struct Trained {
        dense: Vec<f32>,
        experts: Vec<f32>,
        /// Per step: the outcome, the loss scale after it, and the replica
        /// divergence ([`check_replica_consistency`]) after it.
        steps: Vec<(StepOutcome, f32, f32)>,
        state_bytes: usize,
    }

    /// Train `steps` steps in `dtype` with the dense gradients crossing
    /// ranks as `sync`. `poison = Some((rank, step))` writes ∞ into the
    /// first expert gradient of `rank` just before its `step`'s update.
    fn train(
        nranks: usize,
        steps: usize,
        dtype: DType,
        sync: DenseSync,
        poison: Option<(usize, usize)>,
    ) -> Vec<Trained> {
        let model_cfg = cfg();
        run_ranks_map(nranks, move |c| {
            let mut model =
                DistTransformer::new(model_cfg, 31, c.rank(), nranks, A2aKind::Pairwise);
            let acfg = AdamConfig {
                lr: 1e-2,
                ..Default::default()
            };
            let mut opt = MixedPrecision::new(acfg, dtype);
            opt.quantize_model(&mut model);
            let mut log = Vec::new();
            for step in 0..steps {
                let (tokens, targets) = batch(c.rank(), step, 8, model_cfg.vocab);
                let logits = model.forward(&tokens, 2, 4, &c);
                let (_, mut dlogits) = cross_entropy(&logits, &targets);
                dlogits.scale(opt.loss_scale());
                model.backward(&dlogits, &c);
                if poison == Some((c.rank(), step)) {
                    let mut first = true;
                    model.visit_expert_params(&mut |p| {
                        if std::mem::take(&mut first) {
                            p.grad.as_mut_slice()[0] = f32::INFINITY;
                        }
                    });
                }
                let outcome = sync_and_step(&mut model, &mut opt, sync, &c);
                let divergence = check_replica_consistency(&mut model, &c);
                log.push((outcome, opt.loss_scale(), divergence));
            }
            let mut grads_left = 0.0f32;
            model.visit_params(&mut |p| grads_left += p.grad.sq_norm());
            assert_eq!(grads_left, 0.0, "a step consumes every gradient");
            let mut dense = Vec::new();
            model.visit_dense_params(&mut |p| dense.extend_from_slice(p.value.as_slice()));
            let mut experts = Vec::new();
            model.visit_expert_params(&mut |p| experts.extend_from_slice(p.value.as_slice()));
            Trained {
                dense,
                experts,
                steps: log,
                state_bytes: opt.state_bytes(),
            }
        })
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max)
    }

    #[test]
    fn zero_matches_replicated_adam() {
        // Same reduced gradients, same step, a different place to run it.
        // The band allows for reduction order; the ring reduce-scatter sums
        // in the all-reduce's order, so the runs measure 0 at every dtype.
        let nranks = 4;
        for dtype in DTYPES {
            let replicated = train(nranks, 5, dtype, DenseSync::Blocking(WireDType::F32), None);
            let zero = train(nranks, 5, dtype, DenseSync::Sharded, None);
            for (rank, (rep, z)) in replicated.iter().zip(&zero).enumerate() {
                let dense = max_diff(&rep.dense, &z.dense);
                assert!(
                    dense < 1e-4,
                    "{dtype:?} rank {rank}: dense diverged by {dense}"
                );
                let experts = max_diff(&rep.experts, &z.experts);
                assert!(
                    experts < 1e-4,
                    "{dtype:?} rank {rank}: experts diverged by {experts}"
                );
            }
        }
    }

    #[test]
    fn zero_replicas_stay_consistent() {
        // Every replica writes back the same gathered shards, so the dense
        // values agree exactly, at every precision and after every step.
        let nranks = 3;
        for dtype in DTYPES {
            let outs = train(nranks, 4, dtype, DenseSync::Sharded, None);
            for (rank, out) in outs.iter().enumerate() {
                assert_eq!(
                    max_diff(&outs[0].dense, &out.dense),
                    0.0,
                    "{dtype:?} rank {rank}"
                );
                for (step, &(outcome, _, divergence)) in out.steps.iter().enumerate() {
                    assert_eq!(outcome, StepOutcome::Applied, "{dtype:?} step {step}");
                    assert_eq!(divergence, 0.0, "{dtype:?} step {step}");
                }
            }
        }
    }

    #[test]
    fn dense_state_is_sharded() {
        let nranks = 4;
        let model_cfg = cfg();
        let outs = train(nranks, 1, DType::F32, DenseSync::Sharded, None);
        let dense_len = outs[0].dense.len();
        // The optimizer steps [shard, experts]; what is not the experts'
        // 12 B per scalar is the shard's.
        let dense_state: Vec<usize> = outs
            .iter()
            .map(|out| out.state_bytes - 12 * out.experts.len())
            .collect();
        assert!(outs.iter().all(|out| !out.experts.is_empty()));
        assert_eq!(model_cfg.n_experts % nranks, 0);
        // Across all ranks the state covers each dense scalar exactly once
        // (master + m + v = 12 bytes each).
        assert_eq!(dense_state.iter().sum::<usize>(), dense_len * 12);
        // And each rank holds roughly 1/R of it.
        for bytes in dense_state {
            let share = bytes as f64 / (dense_len * 12) as f64;
            assert!((share - 0.25).abs() < 0.05, "share {share}");
        }
    }

    #[test]
    fn one_rank_overflow_skips_every_replica_together() {
        // ∞ in one expert gradient on rank 1 at step 1: only rank 1 can see
        // it (expert gradients never cross ranks), yet both ranks must skip
        // that step, keep one loss scale, and stay exact replicas.
        for sync in [DenseSync::Blocking(WireDType::F32), DenseSync::Sharded] {
            let outs = train(2, 5, DType::F16, sync, Some((1, 1)));
            for step in 0..5 {
                let want = if step == 1 {
                    StepOutcome::SkippedOverflow
                } else {
                    StepOutcome::Applied
                };
                let (o0, scale0, div0) = outs[0].steps[step];
                let (o1, scale1, div1) = outs[1].steps[step];
                assert_eq!((o0, o1), (want, want), "{sync:?} step {step}");
                assert_eq!(scale0, scale1, "{sync:?} step {step}: loss scales split");
                assert_eq!((div0, div1), (0.0, 0.0), "{sync:?} step {step}");
            }
            assert!(
                outs[0].steps[1].1 < outs[0].steps[0].1,
                "{sync:?}: the skip shrinks the scale"
            );
        }
    }
}
