//! The distributed MoE layer: gate locally, exchange tokens with an
//! all-to-all, run the locally-resident experts, exchange results back.
//!
//! Expert placement is a policy, not an arithmetic convention: the layer
//! consults its [`ExpertPlacement`] for every owner/slot decision (see
//! [`crate::placement`] — round-robin, block-contiguous, or
//! supernode-aware). One plan-driven round trip
//! (`Exchange::round_trip`) carries every exchange: send per-rank parts,
//! dispatch all-to-all, gather each local slot's rows by their origin, run
//! a per-slot function on the slots that received rows, reply, combine
//! all-to-all. The training forward passes each expert's forward and learns
//! the plan from the expert ids it receives; the backward passes each
//! expert's backward and replays the cached plan, so each expert runs one
//! forward and one backward per step regardless of how many ranks fed it.
//! The served layer ([`ServedMoE`]) passes `ServedFfn::apply`. Only the
//! epilogues differ: a weighted combine forward, a scatter-add backward.

use crate::placement::ExpertPlacement;
use bagualu_comm::collectives::{alltoallv_hierarchical_wire, alltoallv_u32, alltoallv_wire};
use bagualu_comm::payload::WireDType;
use bagualu_comm::shm::Communicator;
use bagualu_model::ffn::{FeedForward, ServedFfn};
use bagualu_model::moe::gate::{Gate, Routing, ServedRouter};
use bagualu_model::param::{HasParams, Param};
use bagualu_tensor::Tensor;
use bagualu_trace::{self as trace, names};

/// Which all-to-all algorithm moves the tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum A2aKind {
    /// Naive pairwise exchange (the baseline).
    Pairwise,
    /// Two-phase supernode-aware exchange (the optimized algorithm);
    /// `supernode_size` ranks form one supernode.
    Hierarchical { supernode_size: usize },
}

impl A2aKind {
    /// Check the algorithm against a world size. Hierarchical exchanges
    /// need a supernode size in `1..=nranks` that divides `nranks`; a bad
    /// size used to surface as an opaque collective failure deep in the
    /// exchange, so reject it up front with a clear message.
    pub fn validate(&self, nranks: usize) -> Result<(), String> {
        assert!(nranks > 0, "a2a needs at least one rank");
        if let A2aKind::Hierarchical { supernode_size } = *self {
            if supernode_size == 0 {
                return Err("Hierarchical a2a: supernode_size must be >= 1".into());
            }
            if supernode_size > nranks {
                return Err(format!(
                    "Hierarchical a2a: supernode_size {supernode_size} exceeds world size {nranks}"
                ));
            }
            if !nranks.is_multiple_of(supernode_size) {
                return Err(format!(
                    "Hierarchical a2a: supernode_size {supernode_size} must divide world size {nranks}"
                ));
            }
        }
        Ok(())
    }

    /// Supernode size of [`Hierarchical`](A2aKind::Hierarchical), 0 for
    /// [`Pairwise`](A2aKind::Pairwise).
    pub fn supernode_size(&self) -> usize {
        match *self {
            A2aKind::Hierarchical { supernode_size } => supernode_size,
            A2aKind::Pairwise => 0,
        }
    }

    /// Run the selected all-to-all over per-peer `[rows, d]` staging
    /// matrices, packed to `wire` in flight (`WireDType::F32` is the
    /// uncompressed baseline). The matrices are tensors on both sides of the
    /// exchange, so their buffers come from and go back to the tensor
    /// reservoir — on an uncompressed wire the very buffer one rank staged
    /// is recycled by the rank that received it.
    fn run_wire<C: Communicator>(
        self,
        comm: &C,
        parts: Vec<Tensor>,
        wire: WireDType,
    ) -> Vec<Tensor> {
        let d = parts[0].cols();
        let parts = parts.into_iter().map(Tensor::into_vec).collect();
        let received = match self {
            A2aKind::Pairwise => alltoallv_wire(comm, parts, wire),
            A2aKind::Hierarchical { supernode_size } => {
                alltoallv_hierarchical_wire(comm, parts, supernode_size, wire)
            }
        };
        received
            .into_iter()
            .map(|v| {
                let rows = v.len() / d;
                Tensor::from_vec(v, &[rows, d])
            })
            .collect()
    }
}

/// Where each expert lives and how tokens travel to it: everything the
/// dispatch → expert → combine exchange reads besides the experts
/// themselves. The training layer and the served one run the same exchange
/// over it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Exchange {
    /// Global expert count.
    pub(crate) n_experts: usize,
    rank: usize,
    nranks: usize,
    a2a: A2aKind,
    /// Which rank owns which global expert (and at which local slot).
    pub(crate) placement: ExpertPlacement,
    /// Wire format for dispatch/combine token payloads (headers always
    /// travel as `u32` ids). `F32` by default; set for a whole model by
    /// `DistTransformer::set_wire_dtype`.
    pub(crate) wire: WireDType,
}

impl Exchange {
    /// Owner rank of a global expert (consults the placement policy).
    fn owner(&self, expert: usize) -> usize {
        self.placement.owner(expert, self.n_experts, self.nranks)
    }

    /// Local slot of a global expert on its owner (consults the placement
    /// policy).
    fn slot(&self, expert: usize) -> usize {
        self.placement.slot(expert, self.n_experts, self.nranks)
    }

    /// The round trip both passes make along one plan: send `parts[dest]`
    /// to each rank in the dispatch all-to-all, run `slot_fn(slot, rows)`
    /// once per local slot that received rows, over them in `origin` order,
    /// and return its output rows in the combine all-to-all. The forward
    /// sends each row's expert id as `headers` and learns `origin` (empty on
    /// entry, one list per slot) from the ids it receives; the backward
    /// sends no header and replays the forward's `origin`. Returns the
    /// replies, one matrix per destination rank, in send order.
    fn round_trip<C: Communicator>(
        &self,
        comm: &C,
        parts: Vec<Tensor>,
        headers: Option<Vec<Vec<u32>>>,
        origin: &mut [Vec<(usize, usize)>],
        mut slot_fn: impl FnMut(usize, &Tensor) -> Tensor,
    ) -> Vec<Tensor> {
        assert_eq!(comm.size(), self.nranks);
        let d = parts[0].cols();
        let (hdrs, datas) = {
            let _span = trace::span(names::A2A_DISPATCH);
            let hdrs = headers.map(|h| alltoallv_u32(comm, h));
            (hdrs, self.a2a.run_wire(comm, parts, self.wire))
        };
        for (src, hdr) in hdrs.iter().flatten().enumerate() {
            assert_eq!(
                datas[src].rows(),
                hdr.len(),
                "dispatch data/header mismatch"
            );
            for (pos, &e) in hdr.iter().enumerate() {
                let e = e as usize;
                assert_eq!(self.owner(e), self.rank, "token for expert {e} misrouted");
                origin[self.slot(e)].push((src, pos));
            }
        }

        // A slot that received no row is not run, forward or backward. An
        // idle slot's gradients therefore stay as they are, which is what
        // adding its zero gradients would leave: every GEMM sum starts at
        // +0.0, so no gradient element is -0.0.
        let mut reply: Vec<Tensor> = datas
            .iter()
            .map(|rows| Tensor::zeros(&[rows.rows(), d]))
            .collect();
        for (slot, orig) in origin.iter().enumerate().filter(|(_, o)| !o.is_empty()) {
            let mut rows = Tensor::zeros(&[orig.len(), d]);
            for (row, &(src, pos)) in orig.iter().enumerate() {
                rows.row_mut(row).copy_from_slice(datas[src].row(pos));
            }
            let out = slot_fn(slot, &rows);
            for (row, &(src, pos)) in orig.iter().enumerate() {
                reply[src].row_mut(pos).copy_from_slice(out.row(row));
            }
        }
        let _span = trace::span(names::A2A_COMBINE);
        self.a2a.run_wire(comm, reply, self.wire)
    }

    /// The forward exchange: send each assignment's row of `x` to the rank
    /// owning its expert, run this rank's `n_slots` expert slots through
    /// `expert(slot, rows)` ([`Exchange::round_trip`]), and sum the results
    /// per token under the combine weights. Returns the combined output and
    /// the backward cache describing the exchange.
    fn run<C: Communicator>(
        &self,
        x: &Tensor,
        routing: Routing,
        comm: &C,
        n_slots: usize,
        expert: impl FnMut(usize, &Tensor) -> Tensor,
    ) -> (Tensor, Cache) {
        let d = x.cols();
        let mut send_idx: Vec<Vec<usize>> = vec![Vec::new(); self.nranks];
        for (i, a) in routing.assignments.iter().enumerate() {
            send_idx[self.owner(a.expert)].push(i);
        }
        // Expert ids fit comfortably in 32 bits; a u32 header halves the
        // dispatch-metadata traffic relative to the old u64 channel.
        let headers = send_idx
            .iter()
            .map(|idxs| {
                idxs.iter()
                    .map(|&i| routing.assignments[i].expert as u32)
                    .collect()
            })
            .collect();
        let parts = stage(&send_idx, d, |i, row| {
            row.copy_from_slice(x.row(routing.assignments[i].token))
        });
        let mut origin = vec![Vec::new(); n_slots];
        let replies = self.round_trip(comm, parts, Some(headers), &mut origin, expert);

        // Weighted combine; each assignment's expert output is kept for the
        // backward's combine-weight gradient.
        let mut assign_out = Tensor::zeros(&[routing.assignments.len(), d]);
        let mut y = Tensor::zeros(x.shape());
        for (dest, idxs) in send_idx.iter().enumerate() {
            for (j, &ai) in idxs.iter().enumerate() {
                let a = routing.assignments[ai];
                let out_row = replies[dest].row(j);
                assign_out.row_mut(ai).copy_from_slice(out_row);
                for (o, &v) in y.row_mut(a.token).iter_mut().zip(out_row) {
                    *o += a.weight * v;
                }
            }
        }

        let cache = Cache {
            routing,
            send_idx,
            origin,
            assign_out,
            x_shape: x.shape().to_vec(),
        };
        (y, cache)
    }
}

/// Per destination rank, a `[rows, d]` staging matrix whose row `j` is what
/// `fill` writes for assignment `send_idx[dest][j]`.
fn stage(
    send_idx: &[Vec<usize>],
    d: usize,
    mut fill: impl FnMut(usize, &mut [f32]),
) -> Vec<Tensor> {
    send_idx
        .iter()
        .map(|idxs| {
            let mut buf = Tensor::zeros(&[idxs.len(), d]);
            for (row, &i) in idxs.iter().enumerate() {
                fill(i, buf.row_mut(row));
            }
            buf
        })
        .collect()
}

/// A mixture-of-experts layer whose experts are sharded across ranks.
#[derive(Debug, Clone)]
pub struct DistMoELayer {
    /// The (replicated, data-parallel) router.
    pub gate: Gate,
    /// Experts resident on this rank: slot `l` holds global expert
    /// `placement.local_experts(rank, ..)[l]`.
    pub(crate) local_experts: Vec<FeedForward>,
    /// Where every expert lives and how tokens reach it.
    pub(crate) exchange: Exchange,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    routing: Routing,
    /// Per destination rank: assignment indices, in send order.
    send_idx: Vec<Vec<usize>>,
    /// Per local expert slot: origin `(src_rank, position_in_src_batch)` of
    /// each row it processed, in row order.
    origin: Vec<Vec<(usize, usize)>>,
    /// Expert outputs as seen by this (source) rank, one row per assignment.
    assign_out: Tensor,
    x_shape: Vec<usize>,
}

impl DistMoELayer {
    /// Wrap a gate and this rank's expert shard. `local_experts[l]` must be
    /// the global expert `placement.local_experts(rank, n_experts, nranks)[l]`.
    pub(crate) fn new(
        gate: Gate,
        n_experts: usize,
        local_experts: Vec<FeedForward>,
        rank: usize,
        nranks: usize,
        a2a: A2aKind,
        placement: ExpertPlacement,
    ) -> DistMoELayer {
        assert_eq!(gate.n_experts(), n_experts);
        a2a.validate(nranks).expect("invalid a2a configuration");
        placement
            .validate(nranks)
            .expect("invalid expert placement");
        let expected = placement.local_count(rank, n_experts, nranks);
        assert_eq!(local_experts.len(), expected, "wrong expert shard size");
        DistMoELayer {
            gate,
            local_experts,
            exchange: Exchange {
                n_experts,
                rank,
                nranks,
                a2a,
                placement,
                wire: WireDType::F32,
            },
            cache: None,
        }
    }

    /// Routing statistics of the last forward (this rank's local view).
    pub fn last_routing(&self) -> Option<&Routing> {
        self.cache.as_ref().map(|c| &c.routing)
    }

    /// Auxiliary balance loss of the last forward.
    pub(crate) fn last_aux_loss(&self) -> f32 {
        self.cache
            .as_ref()
            .map(|c| c.routing.aux_loss)
            .unwrap_or(0.0)
    }

    /// Give the router and this rank's experts up to inference
    /// ([`Gate::freeze`], [`FeedForward::freeze`]); the backward cache goes
    /// with the layer.
    pub(crate) fn freeze(self) -> ServedMoE {
        ServedMoE {
            router: self.gate.freeze(),
            experts: self
                .local_experts
                .into_iter()
                .map(FeedForward::freeze)
                .collect(),
            exchange: self.exchange,
        }
    }

    /// Forward over this rank's `[n_local, d]` micro-batch. Collective:
    /// every rank must call it in the same program position.
    pub fn forward<C: Communicator>(&mut self, x: &Tensor, comm: &C) -> Tensor {
        let routing = self.gate.forward(x);
        let experts = &mut self.local_experts;
        let (y, cache) = self
            .exchange
            .run(x, routing, comm, experts.len(), |slot, xe| {
                experts[slot].forward(xe)
            });
        self.cache = Some(cache);
        y
    }

    /// Backward over this rank's `[n_local, d]` upstream gradient.
    /// Collective: the forward's round trip again, along the cached plan.
    pub fn backward<C: Communicator>(&mut self, dy: &Tensor, comm: &C) -> Tensor {
        let mut cache = self
            .cache
            .take()
            .expect("DistMoELayer::backward before forward");
        assert_eq!(dy.shape(), &cache.x_shape[..]);
        let routing = &cache.routing;

        // Combine-backward: dweights stay local; weighted dY rows travel to
        // the expert owners, as the forward's rows did, and each expert's
        // input gradient comes back the same way.
        let mut dweights = vec![0.0f32; routing.assignments.len()];
        let parts = stage(&cache.send_idx, dy.cols(), |ai, row| {
            let a = routing.assignments[ai];
            let dyr = dy.row(a.token);
            dweights[ai] = dyr
                .iter()
                .zip(cache.assign_out.row(ai))
                .map(|(g, v)| g * v)
                .sum();
            for (o, &g) in row.iter_mut().zip(dyr) {
                *o = a.weight * g;
            }
        });
        let experts = &mut self.local_experts;
        let dxs = self
            .exchange
            .round_trip(comm, parts, None, &mut cache.origin, |slot, dye| {
                experts[slot].backward(dye)
            });

        // Scatter input gradients back to tokens (weights already folded in
        // on the way out), then add the gate's path (local).
        let mut dx = Tensor::zeros(dy.shape());
        for (dest, idxs) in cache.send_idx.iter().enumerate() {
            for (j, &ai) in idxs.iter().enumerate() {
                let dst = dx.row_mut(routing.assignments[ai].token);
                for (o, &g) in dst.iter_mut().zip(dxs[dest].row(j)) {
                    *o += g;
                }
            }
        }
        dx.add_assign(&self.gate.backward(routing, &dweights));
        dx
    }

    /// Visit only the expert parameters (sharded — excluded from the dense
    /// all-reduce, rescaled instead).
    pub(crate) fn visit_expert_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for e in &mut self.local_experts {
            e.visit_params(f);
        }
    }

    /// Visit only the gate parameters (replicated — part of the dense
    /// all-reduce).
    pub(crate) fn visit_gate_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.gate.visit_params(f);
    }
}

impl HasParams for DistMoELayer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.gate.visit_params(f);
        for e in &mut self.local_experts {
            e.visit_params(f);
        }
    }
}

/// A [`DistMoELayer`] given up to inference (`DistMoELayer::freeze`):
/// the served router, this rank's served experts and the training layer's
/// exchange.
#[derive(Debug, Clone)]
pub struct ServedMoE {
    router: ServedRouter,
    experts: Vec<ServedFfn>,
    exchange: Exchange,
}

impl ServedMoE {
    /// Route droplessly ([`ServedRouter::route`]) and run the training
    /// layer's exchange with each expert's [`ServedFfn::apply`]: same
    /// placement, same wire format, same a2a algorithm and trace spans, so
    /// locality-biased placement cuts per-token decode bytes exactly as it
    /// cuts training bytes. Collective — every rank must call it in the
    /// same program position, even with an empty `[0, d]` batch (a rank
    /// with no active sequences still joins the exchange so its peers'
    /// tokens can reach the experts it owns).
    pub(crate) fn forward<C: Communicator>(&self, x: &Tensor, comm: &C) -> Tensor {
        let routing = self.router.route(x);
        let experts = &self.experts;
        let run = self
            .exchange
            .run(x, routing, comm, experts.len(), |slot, xe| {
                experts[slot].apply(xe)
            });
        run.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagualu_comm::shm::{CommFamily, World};
    use bagualu_model::moe::gate::GateKind;
    use bagualu_tensor::rng::Rng;

    /// All-to-all traffic is a function of the routing alone: an assignment
    /// whose expert lives on another rank crosses the wire four times per
    /// step — dispatch, combine and their two backward mirrors — as `d`
    /// wire elements each, plus one `u32` expert id; an assignment that
    /// stays home sends nothing. So a change that flips routing decisions
    /// (different inputs, a capacity drop, a last-bit change upstream of a
    /// near-tie) moves the byte count by exactly this much per flipped
    /// assignment, and by nothing else.
    #[test]
    fn a2a_bytes_are_fixed_per_cross_rank_assignment() {
        let (r, n_experts, d, n_local) = (4, 8, 16, 24);
        for (wire, seed) in [
            (WireDType::F32, 3u64),
            (WireDType::F16, 3),
            (WireDType::F16, 4),
        ] {
            let world = World::new(r);
            let crossed: usize = std::thread::scope(|s| {
                let ranks: Vec<_> = world
                    .comms()
                    .into_iter()
                    .map(|comm| {
                        s.spawn(move || {
                            let rank = comm.rank();
                            let placement = ExpertPlacement::RoundRobin;
                            // Capacity factor 1.0 with top-2: some
                            // assignments are dropped, as on `train_route`.
                            let gate = Gate::new(
                                "g",
                                d,
                                n_experts,
                                GateKind::Top2,
                                1.0,
                                0.01,
                                &mut Rng::seed_from(seed),
                            );
                            let mut rng = Rng::seed_from(seed * 100 + rank as u64);
                            let experts = placement
                                .local_experts(rank, n_experts, r)
                                .into_iter()
                                .map(|e| FeedForward::new(&format!("e{e}"), d, 2 * d, &mut rng))
                                .collect();
                            let mut layer = DistMoELayer::new(
                                gate,
                                n_experts,
                                experts,
                                rank,
                                r,
                                A2aKind::Pairwise,
                                placement,
                            );
                            layer.exchange.wire = wire;
                            let x = Tensor::randn(&[n_local, d], 1.0, &mut rng);
                            layer.forward(&x, &comm);
                            let cache = layer.cache.as_ref().unwrap();
                            assert!(cache.routing.dropped > 0, "rank {rank}: nothing dropped");
                            let crossed: usize = (0..r)
                                .filter(|&dest| dest != rank)
                                .map(|dest| cache.send_idx[dest].len())
                                .sum();
                            layer.backward(&Tensor::randn(&[n_local, d], 1.0, &mut rng), &comm);
                            crossed
                        })
                    })
                    .collect();
                ranks.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert!(crossed > 0);
            let per_assignment = 4 * d * wire.size_bytes() + 4;
            assert_eq!(
                world.stats().family(CommFamily::Alltoall).bytes,
                (crossed * per_assignment) as u64,
                "{wire:?} seed {seed}: {crossed} cross-rank assignments"
            );
        }
    }
}
