//! ZeRO-style sharded optimizer for the dense (replicated) parameters.
//!
//! Replicated data parallelism stores the full Adam state (master weight +
//! two moments = 16 B/param) on *every* rank. At brain scale that is tens
//! of replicated gigabytes per node (see experiment E7). This optimizer
//! shards it:
//!
//! 1. dense gradients are **reduce-scattered** (instead of all-reduced), so
//!    each rank receives only its `1/R` shard, already summed,
//! 2. the rank updates its shard of FP32 master weights with Adam,
//! 3. updated shard *values* are **all-gathered** and written back into the
//!    replicated working parameters.
//!
//! The update is numerically identical to replicated Adam (same reduced
//! gradients, same math, different location), which the tests pin down.
//! Expert parameters are untouched by the sharding — they are already
//! unique per rank — and are updated by a private full Adam after the
//! standard `1/R` rescale.

use crate::model_dist::DistTransformer;
use bagualu_comm::collectives::{allgather, reduce_scatter, ReduceOp};
use bagualu_comm::shm::Communicator;
use bagualu_model::param::{HasParams, Param};
use bagualu_optim::adam::{Adam, AdamConfig};

/// Adapter exposing only the expert parameters to an optimizer.
struct ExpertParams<'a>(&'a mut DistTransformer);

impl HasParams for ExpertParams<'_> {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.0.visit_expert_params(f);
    }
}

/// Sharded-state Adam over a [`DistTransformer`].
pub struct ZeroAdam {
    pub cfg: AdamConfig,
    t: i32,
    /// FP32 master copy of this rank's dense shard.
    master: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
    expert_adam: Adam,
}

fn bound(len: usize, n: usize, i: usize) -> usize {
    len * i / n
}

impl ZeroAdam {
    pub fn new(cfg: AdamConfig) -> ZeroAdam {
        ZeroAdam {
            cfg,
            t: 0,
            master: Vec::new(),
            m: Vec::new(),
            v: Vec::new(),
            expert_adam: Adam::new(cfg),
        }
    }

    /// Bytes of dense optimizer state this rank holds (after the first
    /// step): the sharding claim E7 quantifies.
    pub fn dense_state_bytes(&self) -> usize {
        (self.master.len() + self.m.len() + self.v.len()) * 4
    }

    /// Change the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
        self.expert_adam.set_lr(lr);
    }

    /// One optimizer step. Replaces `sync_grads_wire` + replicated step: call it
    /// directly after `backward` with *unsynchronized* gradients.
    /// Collective — every rank participates.
    pub fn step<C: Communicator>(&mut self, model: &mut DistTransformer, comm: &C) {
        let r = comm.size();
        let rank = comm.rank();

        // ---- Dense path: reduce-scatter the gradient, update own shard.
        let mut flat = Vec::new();
        model.visit_dense_params(&mut |p| flat.extend_from_slice(p.grad.as_slice()));
        let total_len = flat.len();
        let mut shard_grad = reduce_scatter(comm, flat, ReduceOp::Sum);
        let inv = 1.0 / r as f32;
        for g in &mut shard_grad {
            *g *= inv;
        }

        let lo = bound(total_len, r, rank);
        let hi = bound(total_len, r, rank + 1);
        if self.master.is_empty() && hi > lo {
            // Lazily capture the master shard from the current values.
            let mut values = Vec::with_capacity(total_len);
            model.visit_dense_params(&mut |p| values.extend_from_slice(p.value.as_slice()));
            self.master = values[lo..hi].to_vec();
            self.m = vec![0.0; hi - lo];
            self.v = vec![0.0; hi - lo];
        }
        assert_eq!(
            shard_grad.len(),
            self.master.len(),
            "shard size changed between steps"
        );

        self.t += 1;
        let c = self.cfg;
        let bc1 = 1.0 - c.beta1.powi(self.t);
        let bc2 = 1.0 - c.beta2.powi(self.t);
        for (j, &g) in shard_grad.iter().enumerate().take(self.master.len()) {
            self.m[j] = c.beta1 * self.m[j] + (1.0 - c.beta1) * g;
            self.v[j] = c.beta2 * self.v[j] + (1.0 - c.beta2) * g * g;
            let mhat = self.m[j] / bc1;
            let vhat = self.v[j] / bc2;
            self.master[j] -=
                c.lr * (mhat / (vhat.sqrt() + c.eps) + c.weight_decay * self.master[j]);
        }

        // ---- Publish: all-gather the updated shards and write back.
        let gathered = allgather(comm, self.master.clone());
        let full: Vec<f32> = gathered.into_iter().flatten().collect();
        assert_eq!(full.len(), total_len);
        let mut off = 0usize;
        model.visit_dense_params(&mut |p| {
            let n = p.value.len();
            p.value.as_mut_slice().copy_from_slice(&full[off..off + n]);
            off += n;
        });

        // ---- Expert path: local rescale + private Adam.
        model.visit_expert_params(&mut |p| p.grad.scale(inv));
        self.expert_adam.step(&mut ExpertParams(model));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moe_dist::A2aKind;
    use crate::sync::sync_grads_wire;
    use bagualu_comm::harness::run_ranks_map;
    use bagualu_comm::payload::WireDType;
    use bagualu_model::config::ModelConfig;
    use bagualu_model::loss::cross_entropy;
    use bagualu_model::moe::GateKind;
    use bagualu_tensor::rng::Rng;

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

    /// Train with the given strategy; return flattened dense params +
    /// each rank's expert params.
    fn train(nranks: usize, steps: usize, zero: bool) -> Vec<(Vec<f32>, Vec<f32>)> {
        let model_cfg = cfg();
        run_ranks_map(nranks, move |c| {
            let mut model =
                DistTransformer::new(model_cfg, 31, c.rank(), nranks, A2aKind::Pairwise);
            let acfg = AdamConfig {
                lr: 1e-2,
                ..Default::default()
            };
            let mut zopt = ZeroAdam::new(acfg);
            let mut full = Adam::new(acfg);
            for step in 0..steps {
                let (tokens, targets) = batch(c.rank(), step, 8, model_cfg.vocab);
                let logits = model.forward(&tokens, 2, 4, &c);
                let (_, dlogits) = cross_entropy(&logits, &targets);
                model.backward(&dlogits, &c);
                if zero {
                    zopt.step(&mut model, &c);
                } else {
                    sync_grads_wire(&mut model, &c, WireDType::F32);
                    full.step(&mut model);
                }
                model.zero_grad();
            }
            let mut dense = Vec::new();
            model.visit_dense_params(&mut |p| dense.extend_from_slice(p.value.as_slice()));
            let mut experts = Vec::new();
            model.visit_expert_params(&mut |p| experts.extend_from_slice(p.value.as_slice()));
            (dense, experts)
        })
    }

    #[test]
    fn zero_matches_replicated_adam() {
        let nranks = 4;
        let replicated = train(nranks, 5, false);
        let zero = train(nranks, 5, true);
        for rank in 0..nranks {
            let (rd, re) = &replicated[rank];
            let (zd, ze) = &zero[rank];
            let dense_max = rd
                .iter()
                .zip(zd)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(
                dense_max < 1e-4,
                "rank {rank}: dense diverged by {dense_max}"
            );
            let exp_max = re
                .iter()
                .zip(ze)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(exp_max < 1e-4, "rank {rank}: experts diverged by {exp_max}");
        }
    }

    #[test]
    fn zero_replicas_stay_consistent() {
        let nranks = 3;
        let outs = train(nranks, 4, true);
        for rank in 1..nranks {
            let max = outs[0]
                .0
                .iter()
                .zip(&outs[rank].0)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max < 1e-5, "rank {rank} dense replica diverged by {max}");
        }
    }

    #[test]
    fn dense_state_is_sharded() {
        let nranks = 4;
        let model_cfg = cfg();
        let states = run_ranks_map(nranks, move |c| {
            let mut model =
                DistTransformer::new(model_cfg, 31, c.rank(), nranks, A2aKind::Pairwise);
            let mut opt = ZeroAdam::new(AdamConfig::default());
            let (tokens, targets) = batch(c.rank(), 0, 8, model_cfg.vocab);
            let logits = model.forward(&tokens, 2, 4, &c);
            let (_, dlogits) = cross_entropy(&logits, &targets);
            model.backward(&dlogits, &c);
            opt.step(&mut model, &c);
            let mut dense_len = 0usize;
            model.visit_dense_params(&mut |p| dense_len += p.value.len());
            (opt.dense_state_bytes(), dense_len)
        });
        let total_state: usize = states.iter().map(|(b, _)| b).sum();
        let dense_len = states[0].1;
        // Across all ranks the state covers each dense scalar exactly once
        // (master + m + v = 12 bytes each).
        assert_eq!(total_state, dense_len * 12);
        // And each rank holds roughly 1/R of it.
        for (bytes, _) in &states {
            let share = *bytes as f64 / (dense_len * 12) as f64;
            assert!((share - 0.25).abs() < 0.05, "share {share}");
        }
    }
}
