//! Gradient synchronization for MoDa parallelism.
//!
//! After each rank's local backward:
//!
//! * **dense gradients** (replicated parameters) are averaged with a ring
//!   all-reduce — standard data parallelism;
//! * **expert gradients** are *not* communicated (each expert lives on one
//!   rank only) but are rescaled by `1/R`, because each rank's loss is the
//!   mean over its `1/R`-sized micro-batch while an expert accumulates
//!   contributions from all ranks' tokens.
//!
//! Two dense paths exist:
//!
//! * [`sync_grads`] — flatten everything after backward, one monolithic
//!   blocking all-reduce (simple, zero overlap);
//! * [`backward_and_sync_overlapped`] — a `GradBucketer` rides the
//!   backward pass via `backward_with_grad_ready`, fills fixed-size
//!   buckets in reverse parameter-visit order, launches each bucket's
//!   ring all-reduce the moment it fills, and polls in-flight rings from
//!   inside the hook so communication overlaps the remaining backward
//!   compute. This is BaGuaLu's communication/computation-overlap strategy
//!   for the data-parallel dimension, realized functionally.
//!
//! With either path, an `R`-rank step is numerically equivalent to a
//! single-rank step over the concatenated global batch (up to all-reduce
//! summation order) — the property the integration tests pin down.

use crate::model_dist::DistTransformer;
use bagualu_comm::collectives::{
    allreduce_recursive_doubling, allreduce_wire, broadcast, bucket_tag, ReduceOp, RingAllreduce,
};
use bagualu_comm::payload::WireDType;
use bagualu_comm::shm::Communicator;
use bagualu_tensor::{reservoir, Tensor};
use bagualu_trace::{self as trace, names};

/// Synchronize gradients across the data-parallel group. Returns the number
/// of dense gradient scalars reduced (for communication-volume accounting).
pub fn sync_grads<C: Communicator>(model: &mut DistTransformer, comm: &C) -> usize {
    sync_grads_wire(model, comm, WireDType::F32)
}

/// [`sync_grads`] with an explicit wire format for the dense all-reduce:
/// gradients are rounded to `wire` per ring hop while the reduction itself
/// accumulates in `f32`. `WireDType::F32` is bit-identical to
/// [`sync_grads`].
pub fn sync_grads_wire<C: Communicator>(
    model: &mut DistTransformer,
    comm: &C,
    wire: WireDType,
) -> usize {
    let _span = trace::span(names::GRAD_SYNC);
    let r = comm.size() as f32;

    // Flatten dense grads in the deterministic visit order.
    let mut flat = Vec::new();
    model.visit_dense_params(&mut |p| flat.extend_from_slice(p.grad.as_slice()));
    let count = flat.len();

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
    count
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

impl SyncStats {
    /// Fraction of all-reduce progress hidden under backward, in `[0, 1]`.
    /// `0` when nothing could overlap (single rank, or no steps).
    pub fn overlap_fraction(&self) -> f64 {
        if self.ring_steps == 0 {
            0.0
        } else {
            self.ring_steps_overlapped as f64 / self.ring_steps as f64
        }
    }
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
        let bucket_elems = (bucket_bytes / wire.size_bytes()).max(1);
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

    /// Advance every in-flight ring without blocking; true when all done.
    fn poll(&mut self) -> bool {
        let mut all_done = true;
        for ring in self.rings.iter_mut() {
            if !ring.poll(self.comm) {
                all_done = false;
            }
        }
        all_done
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
/// [`sync_grads`], up to all-reduce summation order (buckets partition the
/// gradient stream differently than the monolithic flatten). Collective —
/// every rank must call it with the same `bucket_bytes`.
pub fn backward_and_sync_overlapped<C: Communicator>(
    model: &mut DistTransformer,
    dlogits: &Tensor,
    comm: &C,
    bucket_bytes: usize,
) -> SyncStats {
    backward_and_sync_overlapped_wire(model, dlogits, comm, bucket_bytes, WireDType::F32)
}

/// [`backward_and_sync_overlapped`] with an explicit wire format: every
/// bucket's ring packs each hop to `wire` (reductions still accumulate in
/// `f32`), and `bucket_bytes` budgets *wire* bytes — a 16-bit wire fits
/// twice the scalars per bucket. `WireDType::F32` is bit-identical to
/// [`backward_and_sync_overlapped`].
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
    while !bucketer.poll() {
        std::thread::yield_now();
    }

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

    // Scatter the reduced stream back in the exact ready order it was
    // gathered in; parameters may straddle bucket boundaries.
    let inv = 1.0 / r;
    let mut buckets: Vec<Vec<f32>> = bucketer
        .rings
        .into_iter()
        .map(|ring| ring.into_data())
        .collect();
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
