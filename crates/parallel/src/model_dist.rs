//! The distributed transformer: replicated dense layers + sharded experts.
//!
//! A rank builds only what it owns. [`DistTransformer::new_placed`] walks
//! one seeded init stream in [`Transformer::new`]'s draw order — per block
//! the gate, experts `0..E` in global order, then attention; then `tok`,
//! `pos`, `head` — and draws the replicated dense layers and the experts the
//! placement gives this rank. An expert owned elsewhere still goes through
//! its own constructor, but inside [`Rng::with_fills`], which steps the
//! stream past its weights without evaluating or allocating them, and is
//! dropped. [`DistTransformer::new_for_restore`] skips *every* tensor:
//! names, shapes and gate noise seeds only, for a rank whose values come
//! from a checkpoint.
//!
//! What is pinned to what: [`DistTransformer::from_local_placed`] — shard a
//! fully materialised single-rank [`Transformer`] — is the oracle. The unit
//! tests below hold `new_placed` to it bitwise (every parameter name, shape
//! and value, every gate's noise stream) across placements, world sizes and
//! layer mixes, so a single-rank run and an `R`-rank run still start from
//! bit-identical weights, which the semantic-equivalence tests rely on.

use crate::moe_dist::{A2aKind, DistMoELayer};
use crate::placement::ExpertPlacement;
use bagualu_comm::shm::Communicator;
use bagualu_model::attention::MultiHeadAttention;
use bagualu_model::config::ModelConfig;
use bagualu_model::embedding::Embedding;
use bagualu_model::ffn::FeedForward;
use bagualu_model::layernorm::LayerNorm;
use bagualu_model::linear::Linear;
use bagualu_model::loss::cross_entropy;
use bagualu_model::moe::gate::Gate;
use bagualu_model::param::{HasParams, Param};
use bagualu_model::transformer::{BlockFfn, StepStats, Transformer};
use bagualu_tensor::rng::{Fills, Rng};
use bagualu_tensor::Tensor;

/// FFN of a distributed block.
#[derive(Debug, Clone)]
pub enum DistFfn {
    Dense(FeedForward),
    MoE(DistMoELayer),
}

/// One decoder block of the distributed model.
#[derive(Debug, Clone)]
pub struct DistBlock {
    pub ln1: LayerNorm,
    pub attn: MultiHeadAttention,
    pub ln2: LayerNorm,
    pub ffn: DistFfn,
}

impl DistBlock {
    pub fn forward<C: Communicator>(
        &mut self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        comm: &C,
    ) -> Tensor {
        let a = self.ln1.forward(x);
        let a = self.attn.forward(&a, batch, seq);
        let mut h = x.clone();
        h.add_assign(&a);

        let f = self.ln2.forward(&h);
        let f = match &mut self.ffn {
            DistFfn::Dense(ffn) => ffn.forward(&f),
            DistFfn::MoE(moe) => moe.forward(&f, comm),
        };
        let mut y = h;
        y.add_assign(&f);
        y
    }

    pub fn backward<C: Communicator>(&mut self, dy: &Tensor, comm: &C) -> Tensor {
        self.backward_with_grad_ready(dy, comm, &mut |_| {})
    }

    /// Backward that fires `on_ready` on each replicated parameter as soon
    /// as its gradient is final — the hook the overlapped bucketed
    /// all-reduce hangs off. Expert parameters are *not* announced (they
    /// are sharded, never all-reduced).
    pub fn backward_with_grad_ready<C: Communicator>(
        &mut self,
        dy: &Tensor,
        comm: &C,
        on_ready: &mut dyn FnMut(&mut Param),
    ) -> Tensor {
        let df = match &mut self.ffn {
            DistFfn::Dense(ffn) => {
                let d = ffn.backward(dy);
                ffn.visit_params(on_ready);
                d
            }
            DistFfn::MoE(moe) => {
                let d = moe.backward(dy, comm);
                moe.visit_gate_params(on_ready);
                d
            }
        };
        let mut dh = self.ln2.backward(&df);
        self.ln2.visit_params(on_ready);
        dh.add_assign(dy);

        let da = self.attn.backward(&dh);
        self.attn.visit_params(on_ready);
        let mut dx = self.ln1.backward(&da);
        self.ln1.visit_params(on_ready);
        dx.add_assign(&dh);
        dx
    }

    pub fn aux_loss(&self) -> f32 {
        match &self.ffn {
            DistFfn::Dense(_) => 0.0,
            DistFfn::MoE(moe) => moe.last_aux_loss(),
        }
    }
}

/// The MoDa-parallel transformer held by one rank.
#[derive(Debug, Clone)]
pub struct DistTransformer {
    pub cfg: ModelConfig,
    pub rank: usize,
    pub nranks: usize,
    pub tok: Embedding,
    pub pos: Embedding,
    pub blocks: Vec<DistBlock>,
    pub ln_f: LayerNorm,
    pub head: Linear,
}

impl DistTransformer {
    /// Shard a fully materialized local model with the default
    /// round-robin placement (see [`Self::from_local_placed`]).
    pub fn from_local(
        local: &Transformer,
        rank: usize,
        nranks: usize,
        a2a: A2aKind,
    ) -> DistTransformer {
        Self::from_local_placed(local, rank, nranks, a2a, ExpertPlacement::RoundRobin)
    }

    /// Shard a fully materialized local model: dense layers are cloned
    /// (replicated); each MoE block keeps the experts `placement` assigns
    /// to this rank, stored in slot order.
    pub fn from_local_placed(
        local: &Transformer,
        rank: usize,
        nranks: usize,
        a2a: A2aKind,
        placement: ExpertPlacement,
    ) -> DistTransformer {
        assert!(rank < nranks);
        placement
            .validate(nranks)
            .expect("invalid expert placement");
        let blocks = local
            .blocks
            .iter()
            .map(|b| {
                let ffn = match &b.ffn {
                    BlockFfn::Dense(f) => DistFfn::Dense(f.clone()),
                    BlockFfn::MoE(m) => {
                        let n_experts = m.n_experts();
                        let shard: Vec<FeedForward> = placement
                            .local_experts(rank, n_experts, nranks)
                            .into_iter()
                            .map(|e| m.experts[e].clone())
                            .collect();
                        DistFfn::MoE(DistMoELayer::new(
                            m.router
                                .as_flat()
                                .expect(
                                    "MoDa runtime requires the flat gate; the two-level \
                                         router is a single-rank feature",
                                )
                                .clone(),
                            n_experts,
                            shard,
                            rank,
                            nranks,
                            a2a,
                            placement,
                        ))
                    }
                };
                DistBlock {
                    ln1: b.ln1.clone(),
                    attn: b.attn.clone(),
                    ln2: b.ln2.clone(),
                    ffn,
                }
            })
            .collect();
        let mut dist = DistTransformer {
            cfg: local.cfg,
            rank,
            nranks,
            tok: local.tok.clone(),
            pos: local.pos.clone(),
            blocks,
            ln_f: local.ln_f.clone(),
            head: local.head.clone(),
        };
        // A freshly sharded model starts with clean gradient accumulators,
        // whatever state the source model was in.
        dist.zero_grad();
        dist
    }

    /// Build directly from a seed with round-robin placement (see
    /// [`Self::new_placed`]).
    pub fn new(
        cfg: ModelConfig,
        seed: u64,
        rank: usize,
        nranks: usize,
        a2a: A2aKind,
    ) -> DistTransformer {
        Self::new_placed(cfg, seed, rank, nranks, a2a, ExpertPlacement::RoundRobin)
    }

    /// Build this rank's shard directly from a seed: all ranks derive
    /// identical dense weights and consistent expert shards under the given
    /// placement, bit for bit what [`Self::from_local_placed`] cuts out of
    /// `Transformer::new(cfg, &mut Rng::seed_from(seed))`, without drawing
    /// the experts other ranks own.
    pub fn new_placed(
        cfg: ModelConfig,
        seed: u64,
        rank: usize,
        nranks: usize,
        a2a: A2aKind,
        placement: ExpertPlacement,
    ) -> DistTransformer {
        Self::build(cfg, &mut Rng::seed_from(seed), rank, nranks, a2a, placement)
    }

    /// [`Self::new_placed`] for a rank that is about to load a checkpoint:
    /// the same parameter names and shapes and the same gate noise seeds,
    /// but no weight is drawn — every value is zero until the load sets it.
    /// Sound only because the checkpoint loaders fail a load that leaves any
    /// parameter of the model unset; do not train or serve the result
    /// without one.
    pub fn new_for_restore(
        cfg: ModelConfig,
        seed: u64,
        rank: usize,
        nranks: usize,
        a2a: A2aKind,
        placement: ExpertPlacement,
    ) -> DistTransformer {
        Rng::seed_from(seed).with_fills(Fills::SkipToZeros, |rng| {
            Self::build(cfg, rng, rank, nranks, a2a, placement)
        })
    }

    /// One rank's shard off `rng`, in [`Transformer::new`]'s draw order (the
    /// statement order of `Transformer::new`, `Block::new` and
    /// `MoELayer::new`). Every layer goes through its own constructor, so
    /// the constructors stay the one definition of what a layer consumes;
    /// an expert owned elsewhere is constructed with its fills skipping to
    /// empty tensors and dropped. Gradient accumulators come zeroed from
    /// `Param::new`.
    fn build(
        cfg: ModelConfig,
        rng: &mut Rng,
        rank: usize,
        nranks: usize,
        a2a: A2aKind,
        placement: ExpertPlacement,
    ) -> DistTransformer {
        assert!(rank < nranks);
        placement
            .validate(nranks)
            .expect("invalid expert placement");
        assert_eq!(
            cfg.router_groups, 0,
            "MoDa runtime requires the flat gate; the two-level router is a single-rank feature"
        );
        let blocks = (0..cfg.n_layers)
            .map(|i| {
                let name = format!("blocks.{i}");
                let ffn = if cfg.is_moe_block(i) {
                    let gate = Gate::new(
                        &format!("{name}.moe.gate"),
                        cfg.d_model,
                        cfg.n_experts,
                        cfg.gate,
                        cfg.capacity_factor,
                        cfg.aux_weight,
                        rng,
                    );
                    let mut shard = Vec::new();
                    for e in 0..cfg.n_experts {
                        let mine = placement.owner(e, cfg.n_experts, nranks) == rank;
                        let fills = if mine {
                            Fills::Draw
                        } else {
                            Fills::SkipToEmpty
                        };
                        let expert = rng.with_fills(fills, |rng| {
                            FeedForward::new(
                                &format!("{name}.moe.expert{e}"),
                                cfg.d_model,
                                cfg.d_ff,
                                rng,
                            )
                        });
                        if mine {
                            shard.push(expert);
                        }
                    }
                    DistFfn::MoE(DistMoELayer::new(
                        gate,
                        cfg.n_experts,
                        shard,
                        rank,
                        nranks,
                        a2a,
                        placement,
                    ))
                } else {
                    DistFfn::Dense(FeedForward::new(
                        &format!("{name}.ffn"),
                        cfg.d_model,
                        cfg.d_ff,
                        rng,
                    ))
                };
                let mut attn =
                    MultiHeadAttention::new(&format!("{name}.attn"), cfg.d_model, cfg.n_heads, rng);
                if cfg.rope {
                    attn = attn.with_rope();
                }
                DistBlock {
                    ln1: LayerNorm::new(&format!("{name}.ln1"), cfg.d_model),
                    attn,
                    ln2: LayerNorm::new(&format!("{name}.ln2"), cfg.d_model),
                    ffn,
                }
            })
            .collect();
        DistTransformer {
            cfg,
            rank,
            nranks,
            tok: Embedding::new("tok", cfg.vocab, cfg.d_model, rng),
            pos: Embedding::new("pos", cfg.max_seq, cfg.d_model, rng),
            blocks,
            ln_f: LayerNorm::new("ln_f", cfg.d_model),
            head: Linear::new("head", cfg.d_model, cfg.vocab, rng),
        }
    }

    /// The expert placement every MoE block uses (round-robin when the
    /// model has no MoE blocks).
    pub fn placement(&self) -> ExpertPlacement {
        self.blocks
            .iter()
            .find_map(|b| match &b.ffn {
                DistFfn::MoE(m) => Some(m.placement),
                DistFfn::Dense(_) => None,
            })
            .unwrap_or(ExpertPlacement::RoundRobin)
    }

    /// Give every MoE block's gate a supernode-locality bias: selection
    /// scores of experts co-resident in this rank's supernode get a
    /// log-space bonus of `bias` (0 disables — bit-identical to no bias).
    /// The combine weights stay the clean probabilities, so the usual
    /// auxiliary balance loss still sees (and corrects) the skew.
    pub fn set_locality_bias(&mut self, bias: f32, supernode_size: usize) {
        let nranks = self.nranks;
        let rank = self.rank;
        for b in &mut self.blocks {
            if let DistFfn::MoE(moe) = &mut b.ffn {
                let mask = moe
                    .placement
                    .local_mask(rank, moe.n_experts, nranks, supernode_size);
                moe.gate.set_locality(bias, mask);
            }
        }
    }

    /// Select the wire format for every MoE block's dispatch/combine
    /// all-to-all traffic (the dense gradient wire is chosen separately at
    /// the sync call sites). `WireDType::F32` is the lossless default.
    pub fn set_wire_dtype(&mut self, wire: bagualu_comm::WireDType) {
        for b in &mut self.blocks {
            if let DistFfn::MoE(moe) = &mut b.ffn {
                moe.set_wire(wire);
            }
        }
    }

    /// Number of experts this rank owns per MoE block.
    pub fn local_experts_per_block(&self) -> usize {
        self.blocks
            .iter()
            .find_map(|b| match &b.ffn {
                DistFfn::MoE(m) => Some(m.local_experts.len()),
                DistFfn::Dense(_) => None,
            })
            .unwrap_or(0)
    }

    /// Forward over this rank's micro-batch. Collective.
    pub fn forward<C: Communicator>(
        &mut self,
        tokens: &[usize],
        batch: usize,
        seq: usize,
        comm: &C,
    ) -> Tensor {
        assert_eq!(tokens.len(), batch * seq);
        assert!(seq <= self.cfg.max_seq);
        let mut x = self.tok.forward(tokens);
        if !self.cfg.rope {
            let pos_ids: Vec<usize> = (0..batch * seq).map(|i| i % seq).collect();
            x.add_assign(&self.pos.forward(&pos_ids));
        }
        for b in &mut self.blocks {
            x = b.forward(&x, batch, seq, comm);
        }
        let x = self.ln_f.forward(&x);
        self.head.forward(&x)
    }

    /// Backward from `dlogits`. Collective.
    pub fn backward<C: Communicator>(&mut self, dlogits: &Tensor, comm: &C) {
        self.backward_with_grad_ready(dlogits, comm, &mut |_| {});
    }

    /// Backward that announces each replicated parameter to `on_ready` the
    /// moment its gradient is final, in reverse visit order (head first,
    /// embeddings last). [`Self::visit_dense_params_ready_order`] replays
    /// exactly this sequence, which is what lets the overlapped sync
    /// scatter reduced buckets back without bookkeeping per parameter.
    pub fn backward_with_grad_ready<C: Communicator>(
        &mut self,
        dlogits: &Tensor,
        comm: &C,
        on_ready: &mut dyn FnMut(&mut Param),
    ) {
        let dx = self.head.backward(dlogits);
        self.head.visit_params(on_ready);
        let mut dx = self.ln_f.backward(&dx);
        self.ln_f.visit_params(on_ready);
        for b in self.blocks.iter_mut().rev() {
            dx = b.backward_with_grad_ready(&dx, comm, on_ready);
        }
        self.tok.backward(&dx);
        self.tok.visit_params(on_ready);
        if !self.cfg.rope {
            self.pos.backward(&dx);
            self.pos.visit_params(on_ready);
        }
    }

    /// Sum of auxiliary balance losses (this rank's local view).
    pub fn aux_loss(&self) -> f32 {
        self.blocks.iter().map(|b| b.aux_loss()).sum()
    }

    /// One forward + loss + backward over this rank's micro-batch.
    /// Gradients are left unsynchronized — call
    /// [`crate::sync::sync_grads`] before the optimizer step.
    pub fn train_batch<C: Communicator>(
        &mut self,
        tokens: &[usize],
        targets: &[usize],
        batch: usize,
        seq: usize,
        comm: &C,
    ) -> StepStats {
        let logits = self.forward(tokens, batch, seq, comm);
        let (ce, dlogits) = cross_entropy(&logits, targets);
        let aux = self.aux_loss();
        self.backward(&dlogits, comm);
        StepStats {
            ce_loss: ce,
            aux_loss: aux,
            tokens: tokens.len(),
        }
    }

    /// Visit the replicated (dense) parameters only — the set the
    /// data-parallel all-reduce covers. Order is identical on every rank.
    pub fn visit_dense_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.tok.visit_params(f);
        if !self.cfg.rope {
            self.pos.visit_params(f);
        }
        for b in &mut self.blocks {
            b.ln1.visit_params(f);
            b.attn.visit_params(f);
            b.ln2.visit_params(f);
            match &mut b.ffn {
                DistFfn::Dense(ffn) => ffn.visit_params(f),
                DistFfn::MoE(moe) => moe.visit_gate_params(f),
            }
        }
        self.ln_f.visit_params(f);
        self.head.visit_params(f);
    }

    /// Visit the replicated parameters in **gradient-ready order** — the
    /// order [`Self::backward_with_grad_ready`] announces them (reverse of
    /// [`Self::visit_dense_params`] at the unit level). Identical on every
    /// rank.
    pub fn visit_dense_params_ready_order(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.head.visit_params(f);
        self.ln_f.visit_params(f);
        for b in self.blocks.iter_mut().rev() {
            match &mut b.ffn {
                DistFfn::Dense(ffn) => ffn.visit_params(f),
                DistFfn::MoE(moe) => moe.visit_gate_params(f),
            }
            b.ln2.visit_params(f);
            b.attn.visit_params(f);
            b.ln1.visit_params(f);
        }
        self.tok.visit_params(f);
        if !self.cfg.rope {
            self.pos.visit_params(f);
        }
    }

    /// Visit the sharded expert parameters only.
    pub fn visit_expert_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for b in &mut self.blocks {
            if let DistFfn::MoE(moe) = &mut b.ffn {
                moe.visit_expert_params(f);
            }
        }
    }
}

impl HasParams for DistTransformer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // Dense first, then experts — a deterministic global order.
        self.visit_dense_params(f);
        self.visit_expert_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagualu_model::moe::GateKind;
    use bagualu_trace::{names, TraceCollector};

    /// Odd sizes everywhere a draw count comes from: `9·E` gate weights with
    /// `E = 5`, 9 × 5 expert matrices, a 13 × 9 token table, 7 × 9
    /// positions. The Box–Muller spare is then live across gate → expert,
    /// expert → expert (owned or not) and block → embedding boundaries;
    /// [`layer_mixes`] adds the even cases. The noisy gate makes each gate's
    /// seed — drawn *after* skipped tensors — observable.
    fn odd_cfg(n_experts: usize, moe_every: usize) -> ModelConfig {
        ModelConfig {
            vocab: 13,
            d_model: 9,
            n_heads: 3,
            n_layers: 4,
            d_ff: 5,
            max_seq: 7,
            n_experts,
            moe_every,
            gate: GateKind::NoisyTop1,
            ..ModelConfig::tiny()
        }
    }

    /// Dense-only, MoE in every layer, MoE in every second layer; an even
    /// gate; even expert matrices entered with the odd gate's spare cached;
    /// and RoPE, whose even head size rules the odd counts out.
    fn layer_mixes() -> Vec<ModelConfig> {
        let even_experts = ModelConfig {
            d_ff: 6,
            ..odd_cfg(5, 1)
        };
        let rope = ModelConfig {
            d_model: 10,
            n_heads: 5,
            rope: true,
            ..odd_cfg(5, 2)
        };
        vec![
            odd_cfg(0, 1),
            odd_cfg(5, 1),
            odd_cfg(5, 2),
            odd_cfg(6, 1),
            even_experts,
            rope,
        ]
    }

    fn placements(nranks: usize) -> Vec<ExpertPlacement> {
        let mut out = vec![ExpertPlacement::RoundRobin, ExpertPlacement::Block];
        if nranks.is_multiple_of(2) {
            out.push(ExpertPlacement::Supernode { supernode_size: 2 });
        }
        if nranks >= 2 {
            out.push(ExpertPlacement::Shed { victim: nranks - 1 });
        }
        out
    }

    fn params(m: &mut DistTransformer) -> Vec<Param> {
        let mut out = Vec::new();
        m.visit_params(&mut |p| out.push(p.clone()));
        // RoPE takes `pos` out of the visit, not out of the draw order.
        if m.cfg.rope {
            out.push(m.pos.table.clone());
        }
        out
    }

    /// Where each gate's noise stream starts: all-zero inputs tie every
    /// logit, so the noisy gate's choices are its noise alone.
    fn first_noisy_routing(m: &mut DistTransformer) -> Vec<Vec<usize>> {
        let x = Tensor::zeros(&[32, m.cfg.d_model]);
        m.blocks
            .iter_mut()
            .filter_map(|b| match &mut b.ffn {
                DistFfn::MoE(moe) => Some(moe.gate.forward(&x)),
                DistFfn::Dense(_) => None,
            })
            .map(|routing| routing.assignments.iter().map(|a| a.expert).collect())
            .collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn shard_direct_construction_is_the_oracles_shard_bit_for_bit() {
        const SEED: u64 = 2024;
        for cfg in layer_mixes() {
            let local = Transformer::new(cfg, &mut Rng::seed_from(SEED));
            for nranks in 1..=4 {
                for placement in placements(nranks) {
                    for rank in 0..nranks {
                        let what = format!(
                            "{} experts every {}, rope {}, {placement}, rank {rank}/{nranks}",
                            cfg.n_experts, cfg.moe_every, cfg.rope
                        );
                        let a2a = A2aKind::Pairwise;
                        let mut oracle = DistTransformer::from_local_placed(
                            &local, rank, nranks, a2a, placement,
                        );
                        let mut direct =
                            DistTransformer::new_placed(cfg, SEED, rank, nranks, a2a, placement);
                        let (want, got) = (params(&mut oracle), params(&mut direct));
                        assert_eq!(want.len(), got.len(), "{what}");
                        for (w, g) in want.iter().zip(&got) {
                            assert_eq!(w.name, g.name, "{what}");
                            assert_eq!(w.value.shape(), g.value.shape(), "{what}: {}", w.name);
                            assert_eq!(bits(&w.value), bits(&g.value), "{what}: {}", w.name);
                            assert_eq!(g.grad, Tensor::zeros(g.value.shape()), "{what}");
                        }
                        assert_eq!(
                            first_noisy_routing(&mut oracle),
                            first_noisy_routing(&mut direct),
                            "{what}: gate noise seeds"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn restore_build_has_the_names_shapes_and_gate_seeds_and_draws_nothing() {
        const SEED: u64 = 77;
        let cfg = odd_cfg(5, 2);
        let (nranks, a2a) = (3, A2aKind::Pairwise);
        for placement in placements(nranks) {
            for rank in 0..nranks {
                let mut fresh =
                    DistTransformer::new_placed(cfg, SEED, rank, nranks, a2a, placement);
                let col = TraceCollector::new();
                let mut shell = {
                    let _lane = col.install(0);
                    DistTransformer::new_for_restore(cfg, SEED, rank, nranks, a2a, placement)
                };
                let (want, got) = (params(&mut fresh), params(&mut shell));
                assert_eq!(want.len(), got.len());
                let mut drawable = 0;
                for (w, g) in want.iter().zip(&got) {
                    assert_eq!(w.name, g.name);
                    assert_eq!(g.grad, Tensor::zeros(w.value.shape()), "{}", g.name);
                    // Biases and layer-norm parameters are constants, the
                    // same in both; everything drawn is zero in the shell.
                    if w.value.as_slice().iter().any(|&v| v != 0.0 && v != 1.0) {
                        assert_eq!(g.value, Tensor::zeros(w.value.shape()), "{}", g.name);
                        drawable += w.value.len() as u64;
                    } else {
                        assert_eq!(g.value, w.value, "{}", g.name);
                    }
                }
                assert_eq!(
                    first_noisy_routing(&mut fresh),
                    first_noisy_routing(&mut shell),
                    "{placement}, rank {rank}: gate noise seeds"
                );
                // Nothing drawn, and the stream stepped past the whole
                // model: what this rank owns plus the experts it does not.
                let trace = col.finish();
                assert_eq!(trace.counter_total(names::INIT_DRAWN_ELEMS), 0);
                let foreign = cfg.n_experts - placement.local_count(rank, cfg.n_experts, nranks);
                let per_expert = 2 * cfg.d_model * cfg.d_ff;
                assert_eq!(
                    trace.counter_total(names::INIT_SKIPPED_ELEMS),
                    drawable + (cfg.n_moe_blocks() * foreign * per_expert) as u64
                );
            }
        }
    }
}
