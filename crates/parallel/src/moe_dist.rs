//! The distributed MoE layer: gate locally, exchange tokens with an
//! all-to-all, run the locally-resident experts, exchange results back.
//!
//! Expert placement is a policy, not an arithmetic convention: the layer
//! consults its [`ExpertPlacement`] for every owner/slot decision (see
//! [`crate::placement`] — round-robin, block-contiguous, or
//! supernode-aware). The backward pass mirrors the forward exchanges
//! exactly (the dispatch plan is cached), so each expert runs one forward
//! and one backward per step regardless of how many ranks fed it.

use crate::placement::ExpertPlacement;
use bagualu_comm::collectives::{alltoallv_hierarchical_wire, alltoallv_u32, alltoallv_wire};
use bagualu_comm::payload::WireDType;
use bagualu_comm::shm::Communicator;
use bagualu_model::ffn::FeedForward;
use bagualu_model::moe::gate::{Gate, Routing};
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

/// A mixture-of-experts layer whose experts are sharded across ranks.
#[derive(Debug, Clone)]
pub struct DistMoELayer {
    /// The (replicated, data-parallel) router.
    pub gate: Gate,
    /// Global expert count.
    pub n_experts: usize,
    /// Experts resident on this rank: slot `l` holds global expert
    /// `placement.local_experts(rank, ..)[l]`.
    pub local_experts: Vec<FeedForward>,
    pub rank: usize,
    pub nranks: usize,
    pub a2a: A2aKind,
    /// Which rank owns which global expert (and at which local slot).
    pub placement: ExpertPlacement,
    /// Wire format for dispatch/combine token payloads (headers always
    /// travel as `u32` ids). `F32` by default; set via
    /// [`DistMoELayer::set_wire`] or `DistTransformer::set_wire_dtype`.
    pub wire: WireDType,
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
    /// Tokens received from each source rank in the forward dispatch.
    recv_counts: Vec<usize>,
    /// Expert outputs as seen by this (source) rank, one row per assignment.
    assign_out: Tensor,
    x_shape: Vec<usize>,
}

impl DistMoELayer {
    /// Wrap a gate and this rank's expert shard. `local_experts[l]` must be
    /// the global expert `placement.local_experts(rank, n_experts, nranks)[l]`.
    pub fn new(
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
            n_experts,
            local_experts,
            rank,
            nranks,
            a2a,
            placement,
            wire: WireDType::F32,
            cache: None,
        }
    }

    /// Select the wire format for this layer's dispatch/combine traffic.
    pub fn set_wire(&mut self, wire: WireDType) {
        self.wire = wire;
    }

    /// Owner rank of a global expert (consults the placement policy).
    pub fn owner(&self, expert: usize) -> usize {
        self.placement.owner(expert, self.n_experts, self.nranks)
    }

    /// Local slot of a global expert on its owner (consults the placement
    /// policy).
    pub fn slot(&self, expert: usize) -> usize {
        self.placement.slot(expert, self.n_experts, self.nranks)
    }

    /// Routing statistics of the last forward (this rank's local view).
    pub fn last_routing(&self) -> Option<&Routing> {
        self.cache.as_ref().map(|c| &c.routing)
    }

    /// Auxiliary balance loss of the last forward.
    pub fn last_aux_loss(&self) -> f32 {
        self.cache
            .as_ref()
            .map(|c| c.routing.aux_loss)
            .unwrap_or(0.0)
    }

    /// Forward over this rank's `[n_local, d]` micro-batch. Collective:
    /// every rank must call it in the same program position.
    pub fn forward<C: Communicator>(&mut self, x: &Tensor, comm: &C) -> Tensor {
        let routing = self.gate.forward(x);
        let (y, cache) = self.exchange(x, routing, comm);
        self.cache = Some(cache);
        y
    }

    /// Inference forward: route droplessly via [`Gate::route_infer`], run
    /// the exact dispatch/compute/combine exchange of
    /// [`forward`](Self::forward), and *discard* the backward cache. Collective —
    /// every rank must call it in the same program position, even with an
    /// empty `[0, d]` batch (a rank with no active sequences still joins
    /// the exchange so its peers' tokens can reach the experts it owns).
    ///
    /// Used by the serving decode path: same placement, same wire format,
    /// same a2a algorithm and trace spans as training, so locality-biased
    /// placement cuts per-token decode bytes exactly as it cuts training
    /// bytes. The gate cache, noise stream, and this layer's backward cache
    /// are untouched (the experts' small activation caches are overwritten,
    /// so do not interleave this between a training forward and backward).
    pub fn forward_infer<C: Communicator>(&mut self, x: &Tensor, comm: &C) -> Tensor {
        let routing = self.gate.route_infer(x);
        let saved = self.cache.take();
        let (y, _) = self.exchange(x, routing, comm);
        self.cache = saved;
        y
    }

    /// The collective dispatch → expert-compute → combine exchange shared
    /// by the training and inference forwards. Returns the combined output
    /// and the backward cache describing the exchange.
    fn exchange<C: Communicator>(
        &mut self,
        x: &Tensor,
        routing: Routing,
        comm: &C,
    ) -> (Tensor, Cache) {
        let d = x.cols();
        let r = comm.size();
        assert_eq!(r, self.nranks);

        // ---- Dispatch: bucket assignments by owner rank.
        let mut send_idx: Vec<Vec<usize>> = vec![Vec::new(); r];
        for (i, a) in routing.assignments.iter().enumerate() {
            send_idx[self.owner(a.expert)].push(i);
        }
        // Expert ids fit comfortably in 32 bits; a u32 header halves the
        // dispatch-metadata traffic relative to the old u64 channel.
        let hdr_parts: Vec<Vec<u32>> = send_idx
            .iter()
            .map(|idxs| {
                idxs.iter()
                    .map(|&i| routing.assignments[i].expert as u32)
                    .collect()
            })
            .collect();
        let data_parts: Vec<Tensor> = send_idx
            .iter()
            .map(|idxs| {
                let mut buf = Tensor::zeros(&[idxs.len(), d]);
                for (row, &i) in idxs.iter().enumerate() {
                    buf.row_mut(row)
                        .copy_from_slice(x.row(routing.assignments[i].token));
                }
                buf
            })
            .collect();
        let (hdrs, datas) = {
            let _span = trace::span(names::A2A_DISPATCH);
            let hdrs = alltoallv_u32(comm, hdr_parts);
            let datas = self.a2a.run_wire(comm, data_parts, self.wire);
            (hdrs, datas)
        };

        // ---- Group received tokens by local expert slot.
        let n_slots = self.local_experts.len();
        let mut origin: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n_slots];
        let mut recv_counts = vec![0usize; r];
        for src in 0..r {
            let hdr = &hdrs[src];
            assert_eq!(
                datas[src].rows(),
                hdr.len(),
                "dispatch data/header mismatch"
            );
            recv_counts[src] = hdr.len();
            for (pos, &e) in hdr.iter().enumerate() {
                let e = e as usize;
                assert_eq!(self.owner(e), self.rank, "token for expert {e} misrouted");
                origin[self.slot(e)].push((src, pos));
            }
        }

        // ---- Expert compute.
        let mut slot_outputs = Vec::with_capacity(n_slots);
        for (slot, orig) in origin.iter().enumerate() {
            let mut xe = Tensor::zeros(&[orig.len(), d]);
            for (row, &(src, pos)) in orig.iter().enumerate() {
                xe.row_mut(row).copy_from_slice(datas[src].row(pos));
            }
            slot_outputs.push(self.local_experts[slot].forward(&xe));
        }

        // ---- Combine: return results to their source ranks, in the
        // position order of the original dispatch.
        let mut reply: Vec<Tensor> = recv_counts
            .iter()
            .map(|&rows| Tensor::zeros(&[rows, d]))
            .collect();
        for (slot, orig) in origin.iter().enumerate() {
            for (row, &(src, pos)) in orig.iter().enumerate() {
                reply[src]
                    .row_mut(pos)
                    .copy_from_slice(slot_outputs[slot].row(row));
            }
        }
        let replies = {
            let _span = trace::span(names::A2A_COMBINE);
            self.a2a.run_wire(comm, reply, self.wire)
        };

        let n_assign = routing.assignments.len();
        let mut assign_out = Tensor::zeros(&[n_assign, d]);
        let mut y = Tensor::zeros(x.shape());
        for (dest, idxs) in send_idx.iter().enumerate() {
            for (j, &ai) in idxs.iter().enumerate() {
                let a = routing.assignments[ai];
                let out_row = replies[dest].row(j);
                assign_out.row_mut(ai).copy_from_slice(out_row);
                let dst = y.row_mut(a.token);
                for (o, &v) in dst.iter_mut().zip(out_row) {
                    *o += a.weight * v;
                }
            }
        }

        let cache = Cache {
            routing,
            send_idx,
            origin,
            recv_counts,
            assign_out,
            x_shape: x.shape().to_vec(),
        };
        (y, cache)
    }

    /// Backward over this rank's `[n_local, d]` upstream gradient.
    /// Collective, mirroring the forward exchanges.
    pub fn backward<C: Communicator>(&mut self, dy: &Tensor, comm: &C) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("DistMoELayer::backward before forward");
        let d = dy.cols();
        assert_eq!(dy.shape(), &cache.x_shape[..]);
        let routing = &cache.routing;

        // ---- Combine-backward: dweights stay local; dY rows travel to the
        // expert owners along the cached dispatch plan.
        let mut dweights = vec![0.0f32; routing.assignments.len()];
        let dsend: Vec<Tensor> = cache
            .send_idx
            .iter()
            .map(|idxs| {
                let mut buf = Tensor::zeros(&[idxs.len(), d]);
                for (row, &ai) in idxs.iter().enumerate() {
                    let a = routing.assignments[ai];
                    let dyr = dy.row(a.token);
                    dweights[ai] = dyr
                        .iter()
                        .zip(cache.assign_out.row(ai))
                        .map(|(g, v)| g * v)
                        .sum();
                    for (o, &g) in buf.row_mut(row).iter_mut().zip(dyr) {
                        *o = a.weight * g;
                    }
                }
                buf
            })
            .collect();
        let dys = {
            // Same direction as the forward dispatch: dY rows travel to the
            // expert owners.
            let _span = trace::span(names::A2A_DISPATCH);
            self.a2a.run_wire(comm, dsend, self.wire)
        };

        // ---- Expert backward, rows in forward order.
        let mut dreply: Vec<Tensor> = cache
            .recv_counts
            .iter()
            .map(|&rows| Tensor::zeros(&[rows, d]))
            .collect();
        for (slot, orig) in cache.origin.iter().enumerate() {
            let mut dye = Tensor::zeros(&[orig.len(), d]);
            for (row, &(src, pos)) in orig.iter().enumerate() {
                dye.row_mut(row).copy_from_slice(dys[src].row(pos));
            }
            let dxe = self.local_experts[slot].backward(&dye);
            for (row, &(src, pos)) in orig.iter().enumerate() {
                dreply[src].row_mut(pos).copy_from_slice(dxe.row(row));
            }
        }
        let dxs = {
            let _span = trace::span(names::A2A_COMBINE);
            self.a2a.run_wire(comm, dreply, self.wire)
        };

        // ---- Scatter input gradients back to tokens (weights already
        // folded in on the way out).
        let mut dx = Tensor::zeros(dy.shape());
        for (dest, idxs) in cache.send_idx.iter().enumerate() {
            for (j, &ai) in idxs.iter().enumerate() {
                let a = routing.assignments[ai];
                let src_row = dxs[dest].row(j);
                let dst = dx.row_mut(a.token);
                for (o, &g) in dst.iter_mut().zip(src_row) {
                    *o += g;
                }
            }
        }

        // ---- Gate path (local).
        let dx_gate = self.gate.backward(routing, &dweights);
        dx.add_assign(&dx_gate);
        dx
    }

    /// Visit only the expert parameters (sharded — excluded from the dense
    /// all-reduce, rescaled instead).
    pub fn visit_expert_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for e in &mut self.local_experts {
            e.visit_params(f);
        }
    }

    /// Visit only the gate parameters (replicated — part of the dense
    /// all-reduce).
    pub fn visit_gate_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
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
                            layer.set_wire(wire);
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
