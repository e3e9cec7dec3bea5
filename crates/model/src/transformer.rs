//! Decoder blocks and the full (possibly MoE) transformer.

use crate::attention::MultiHeadAttention;
use crate::config::ModelConfig;
use crate::embedding::Embedding;
use crate::ffn::FeedForward;
use crate::layernorm::LayerNorm;
use crate::linear::Linear;
use crate::loss::cross_entropy;
use crate::moe::MoELayer;
use crate::param::{HasParams, Param};
use bagualu_tensor::ops::{matmul, matmul_nt, matmul_tn, Activation};
use bagualu_tensor::rng::Rng;
use bagualu_tensor::Tensor;

/// The FFN of a block: dense or mixture-of-experts.
#[derive(Debug, Clone)]
pub enum BlockFfn {
    Dense(FeedForward),
    MoE(MoELayer),
}

/// One pre-norm decoder block: `x + Attn(LN(x))`, then `h + Ffn(LN(h))`.
#[derive(Debug, Clone)]
pub struct Block {
    pub ln1: LayerNorm,
    pub attn: MultiHeadAttention,
    pub ln2: LayerNorm,
    pub ffn: BlockFfn,
}

impl Block {
    pub(crate) fn new(name: &str, cfg: &ModelConfig, moe: bool, rng: &mut Rng) -> Block {
        let ffn = if moe {
            BlockFfn::MoE(if cfg.router_groups > 0 {
                MoELayer::new_two_level(
                    &format!("{name}.moe"),
                    cfg.d_model,
                    cfg.d_ff,
                    cfg.n_experts,
                    cfg.router_groups,
                    cfg.capacity_factor,
                    cfg.aux_weight,
                    rng,
                )
            } else {
                MoELayer::new(
                    &format!("{name}.moe"),
                    cfg.d_model,
                    cfg.d_ff,
                    cfg.n_experts,
                    cfg.gate,
                    cfg.capacity_factor,
                    cfg.aux_weight,
                    rng,
                )
            })
        } else {
            BlockFfn::Dense(FeedForward::new(
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
        Block {
            ln1: LayerNorm::new(&format!("{name}.ln1"), cfg.d_model),
            attn,
            ln2: LayerNorm::new(&format!("{name}.ln2"), cfg.d_model),
            ffn,
        }
    }

    pub(crate) fn forward(&mut self, x: &Tensor, batch: usize, seq: usize) -> Tensor {
        let a = self.ln1.forward(x);
        let a = self.attn.forward(&a, batch, seq);
        let mut h = x.clone();
        h.add_assign(&a);

        let f = self.ln2.forward(&h);
        let f = match &mut self.ffn {
            BlockFfn::Dense(ffn) => ffn.forward(&f),
            BlockFfn::MoE(moe) => moe.forward(&f),
        };
        let mut y = h;
        y.add_assign(&f);
        y
    }

    pub(crate) fn backward(&mut self, dy: &Tensor) -> Tensor {
        // FFN path.
        let df = match &mut self.ffn {
            BlockFfn::Dense(ffn) => ffn.backward(dy),
            BlockFfn::MoE(moe) => moe.backward(dy),
        };
        let mut dh = self.ln2.backward(&df);
        dh.add_assign(dy); // residual

        // Attention path.
        let da = self.attn.backward(&dh);
        let mut dx = self.ln1.backward(&da);
        dx.add_assign(&dh); // residual
        dx
    }

    /// Incremental (KV-cached) forward of one position. Inference-only.
    pub(crate) fn forward_incremental(
        &mut self,
        x: &Tensor,
        kv: &mut crate::attention::KvCache,
    ) -> Tensor {
        let a = self.ln1.forward(x);
        let a = self.attn.forward_incremental(&a, kv);
        let mut h = x.clone();
        h.add_assign(&a);
        let f = self.ln2.forward(&h);
        let f = match &mut self.ffn {
            BlockFfn::Dense(ffn) => ffn.forward(&f),
            BlockFfn::MoE(moe) => moe.forward(&f),
        };
        let mut y = h;
        y.add_assign(&f);
        y
    }

    /// Auxiliary balance loss of the last forward (0 for dense blocks).
    pub(crate) fn aux_loss(&self) -> f32 {
        match &self.ffn {
            BlockFfn::Dense(_) => 0.0,
            BlockFfn::MoE(moe) => moe.last_aux_loss(),
        }
    }
}

impl HasParams for Block {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit_params(f);
        self.attn.visit_params(f);
        self.ln2.visit_params(f);
        match &mut self.ffn {
            BlockFfn::Dense(ffn) => ffn.visit_params(f),
            BlockFfn::MoE(moe) => moe.visit_params(f),
        }
    }
}

/// Statistics returned by a training step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepStats {
    /// Mean cross-entropy over the batch.
    pub ce_loss: f32,
    /// Sum of auxiliary balance losses.
    pub aux_loss: f32,
    /// Tokens processed.
    pub tokens: usize,
}

/// A GPT-style decoder language model whose alternate blocks may carry MoE
/// FFNs, per the [`ModelConfig`].
#[derive(Debug, Clone)]
pub struct Transformer {
    pub cfg: ModelConfig,
    pub tok: Embedding,
    pub pos: Embedding,
    pub blocks: Vec<Block>,
    pub ln_f: LayerNorm,
    pub head: Linear,
    /// Final hidden states cached for the tied-head backward.
    tied_cache: Option<Tensor>,
}

impl Transformer {
    pub fn new(cfg: ModelConfig, rng: &mut Rng) -> Transformer {
        let blocks = (0..cfg.n_layers)
            .map(|i| Block::new(&format!("blocks.{i}"), &cfg, cfg.is_moe_block(i), rng))
            .collect();
        Transformer {
            tok: Embedding::new("tok", cfg.vocab, cfg.d_model, rng),
            pos: Embedding::new("pos", cfg.max_seq, cfg.d_model, rng),
            blocks,
            ln_f: LayerNorm::new("ln_f", cfg.d_model),
            head: Linear::new("head", cfg.d_model, cfg.vocab, rng),
            tied_cache: None,
            cfg,
        }
    }

    /// LM-head projection, honoring embedding tying.
    fn head_forward(&mut self, x: &Tensor) -> Tensor {
        if self.cfg.tie_embeddings {
            self.tied_cache = Some(x.clone());
            self.head_apply(x)
        } else {
            self.head.forward(x)
        }
    }

    /// [`head_forward`](Self::head_forward) without the backward cache:
    /// what generation calls.
    fn head_apply(&self, x: &Tensor) -> Tensor {
        if self.cfg.tie_embeddings {
            matmul_nt(x, &self.tok.table.value)
        } else {
            self.head.apply(x, Activation::Identity)
        }
    }

    /// Backward of the LM-head projection; returns dx and accumulates the
    /// weight gradient (into the embedding table when tied).
    fn head_backward(&mut self, dlogits: &Tensor) -> Tensor {
        if self.cfg.tie_embeddings {
            let x = self
                .tied_cache
                .take()
                .expect("tied head backward before forward");
            self.tok.table.grad.add_assign(&matmul_tn(dlogits, &x));
            matmul(dlogits, &self.tok.table.value)
        } else {
            self.head.backward(dlogits)
        }
    }

    /// Forward over `batch` sequences of length `seq` (tokens flattened
    /// batch-major). Returns `[batch·seq, vocab]` logits.
    pub fn forward(&mut self, tokens: &[usize], batch: usize, seq: usize) -> Tensor {
        assert_eq!(tokens.len(), batch * seq);
        assert!(seq <= self.cfg.max_seq, "sequence longer than max_seq");
        let mut x = self.tok.forward(tokens);
        if !self.cfg.rope {
            let pos_ids: Vec<usize> = (0..batch * seq).map(|i| i % seq).collect();
            x.add_assign(&self.pos.forward(&pos_ids));
        }
        for b in &mut self.blocks {
            x = b.forward(&x, batch, seq);
        }
        let x = self.ln_f.forward(&x);
        self.head_forward(&x)
    }

    /// Backward from `dlogits` all the way to the embeddings.
    pub(crate) fn backward(&mut self, dlogits: &Tensor) {
        let dx = self.head_backward(dlogits);
        let mut dx = self.ln_f.backward(&dx);
        for b in self.blocks.iter_mut().rev() {
            dx = b.backward(&dx);
        }
        // The same gradient feeds both embedding tables (the position
        // table does not exist in the graph under RoPE).
        self.tok.backward(&dx);
        if !self.cfg.rope {
            self.pos.backward(&dx);
        }
    }

    /// Sum of the auxiliary balance losses of the last forward pass.
    pub(crate) fn aux_loss(&self) -> f32 {
        self.blocks.iter().map(|b| b.aux_loss()).sum()
    }

    /// Greedy autoregressive generation: extend `prompt` by `n` tokens,
    /// re-running the forward pass over a sliding window of at most
    /// `max_seq` (no KV cache — this is the reference decoder, not an
    /// inference engine).
    pub fn generate(&mut self, prompt: &[usize], n: usize) -> Vec<usize> {
        assert!(!prompt.is_empty(), "generate needs a non-empty prompt");
        let mut seq: Vec<usize> = prompt.to_vec();
        for _ in 0..n {
            let window_start = seq.len().saturating_sub(self.cfg.max_seq);
            let window = &seq[window_start..];
            let logits = self.forward(window, 1, window.len());
            let next = logits.argmax_rows()[window.len() - 1];
            seq.push(next);
        }
        seq
    }

    /// Greedy generation with **KV caching**: each new token costs one
    /// incremental forward instead of re-running the whole window —
    /// `O(len)` attention per step instead of `O(len²)` recompute. The
    /// total length must fit in `max_seq` (absolute positions are cached).
    /// Produces exactly the same tokens as [`Transformer::generate`].
    pub fn generate_cached(&mut self, prompt: &[usize], n: usize) -> Vec<usize> {
        assert!(!prompt.is_empty(), "generate needs a non-empty prompt");
        assert!(
            prompt.len() + n <= self.cfg.max_seq,
            "KV-cached generation cannot exceed max_seq ({}); use generate() \
             for sliding-window decoding",
            self.cfg.max_seq
        );
        let mut caches: Vec<crate::attention::KvCache> = (0..self.blocks.len())
            .map(|_| crate::attention::KvCache::new(self.cfg.d_model))
            .collect();
        let total = prompt.len() + n;
        let mut seq = prompt.to_vec();
        // Feed positions 0..total-1; the logits at each position predict the
        // next token, which we append once past the prompt.
        for pos in 0..total - 1 {
            let token = seq[pos];
            let mut x = self.tok.forward(&[token]);
            if !self.cfg.rope {
                x.add_assign(&self.pos.forward(&[pos]));
            }
            for (b, kv) in self.blocks.iter_mut().zip(caches.iter_mut()) {
                x = b.forward_incremental(&x, kv);
            }
            let x = self.ln_f.forward(&x);
            let logits = self.head_apply(&x);
            if pos + 1 >= prompt.len() {
                seq.push(logits.argmax_rows()[0]);
            }
        }
        seq
    }

    /// One full forward + loss + backward (no optimizer step). Gradients
    /// accumulate into the parameters; caller zeroes them between steps.
    pub fn train_batch(
        &mut self,
        tokens: &[usize],
        targets: &[usize],
        batch: usize,
        seq: usize,
    ) -> StepStats {
        let logits = self.forward(tokens, batch, seq);
        let (ce, dlogits) = cross_entropy(&logits, targets);
        let aux = self.aux_loss();
        self.backward(&dlogits);
        StepStats {
            ce_loss: ce,
            aux_loss: aux,
            tokens: tokens.len(),
        }
    }
}

impl HasParams for Transformer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.tok.visit_params(f);
        if !self.cfg.rope {
            self.pos.visit_params(f);
        }
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.ln_f.visit_params(f);
        if !self.cfg.tie_embeddings {
            self.head.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mut rng = Rng::seed_from(81);
        let cfg = ModelConfig::tiny();
        let mut m = Transformer::new(cfg, &mut rng);
        let tokens: Vec<usize> = (0..2 * 8).map(|i| i % cfg.vocab).collect();
        let logits = m.forward(&tokens, 2, 8);
        assert_eq!(logits.shape(), &[16, cfg.vocab]);
        assert!(!logits.has_non_finite());
    }

    #[test]
    fn param_count_matches_config_formula() {
        let mut rng = Rng::seed_from(82);
        for cfg in [ModelConfig::tiny(), ModelConfig::tiny_dense()] {
            let mut m = Transformer::new(cfg, &mut rng);
            assert_eq!(
                m.num_params() as u128,
                cfg.count_params(),
                "formula vs real model for {cfg:?}"
            );
        }
    }

    #[test]
    fn loss_decreases_with_sgd() {
        // A few plain-SGD steps on a repeating pattern must reduce the loss —
        // the end-to-end backward is sound.
        let mut rng = Rng::seed_from(83);
        let cfg = ModelConfig::tiny();
        let mut m = Transformer::new(cfg, &mut rng);
        let tokens: Vec<usize> = (0..16).map(|i| (i * 7) % cfg.vocab).collect();
        let targets: Vec<usize> = (0..16).map(|i| (i * 7 + 7) % cfg.vocab).collect();

        let first = m.train_batch(&tokens, &targets, 2, 8);
        let lr = 0.5;
        for _ in 0..30 {
            m.visit_params(&mut |p| {
                let g = p.grad.clone();
                p.value.axpy(-lr, &g);
            });
            m.zero_grad();
            m.train_batch(&tokens, &targets, 2, 8);
        }
        let last = m.train_batch(&tokens, &targets, 2, 8);
        assert!(
            last.ce_loss < first.ce_loss * 0.8,
            "loss did not drop: {} -> {}",
            first.ce_loss,
            last.ce_loss
        );
    }

    #[test]
    fn moe_blocks_report_aux_loss() {
        let mut rng = Rng::seed_from(84);
        let mut m = Transformer::new(ModelConfig::tiny(), &mut rng);
        let tokens: Vec<usize> = (0..8).collect();
        m.forward(&tokens, 1, 8);
        assert!(m.aux_loss() > 0.0);

        let mut dense = Transformer::new(ModelConfig::tiny_dense(), &mut rng);
        dense.forward(&tokens, 1, 8);
        assert_eq!(dense.aux_loss(), 0.0);
    }

    #[test]
    fn gradients_flow_to_every_parameter_kind() {
        let mut rng = Rng::seed_from(85);
        let cfg = ModelConfig::tiny();
        let mut m = Transformer::new(cfg, &mut rng);
        let tokens: Vec<usize> = (0..16).map(|i| i % cfg.vocab).collect();
        let targets: Vec<usize> = (0..16).map(|i| (i + 1) % cfg.vocab).collect();
        m.train_batch(&tokens, &targets, 2, 8);
        let mut zero_grads = Vec::new();
        m.visit_params(&mut |p| {
            if p.grad.sq_norm() == 0.0 {
                zero_grads.push(p.name.clone());
            }
        });
        // Unused vocab rows and idle experts legitimately have zero grads;
        // everything structural must not.
        for name in &zero_grads {
            assert!(
                name.contains("expert"),
                "structural parameter {name} received no gradient"
            );
        }
    }

    #[test]
    fn tied_embeddings_train_and_count() {
        let mut rng = Rng::seed_from(94);
        let cfg = ModelConfig {
            tie_embeddings: true,
            ..ModelConfig::tiny()
        };
        let mut m = Transformer::new(cfg, &mut rng);
        let total = |s: StepStats| s.ce_loss + s.aux_loss;
        assert_eq!(m.num_params() as u128, cfg.count_params());
        // Tying removes the whole head: d·vocab + vocab parameters.
        assert_eq!(
            ModelConfig::tiny().count_params() - cfg.count_params(),
            (cfg.d_model * cfg.vocab + cfg.vocab) as u128
        );

        // Gradcheck through the tied head: perturb an embedding entry used
        // by both the input gather and the output projection.
        let tokens = vec![3usize, 7, 3, 1, 9, 2, 5, 0];
        let targets = vec![7usize, 3, 1, 9, 2, 5, 0, 4];
        m.train_batch(&tokens, &targets, 1, 8);
        let an = m.tok.table.grad.at(3, 2);
        let eps = 1e-3f32;
        let orig = m.tok.table.value.at(3, 2);
        m.zero_grad();
        m.tok.table.value.set(3, 2, orig + eps);
        let lp = total(m.train_batch(&tokens, &targets, 1, 8));
        m.tok.table.value.set(3, 2, orig - eps);
        m.zero_grad();
        let lm = total(m.train_batch(&tokens, &targets, 1, 8));
        m.tok.table.value.set(3, 2, orig);
        let fd = (lp - lm) / (2.0 * eps);
        assert!(
            (fd - an).abs() < 3e-2 * (1.0 + fd.abs()),
            "tied grad: fd={fd} an={an}"
        );

        // Training works end to end.
        m.zero_grad();
        let first = m.train_batch(&tokens, &targets, 1, 8);
        for _ in 0..40 {
            m.visit_params(&mut |p| {
                let g = p.grad.clone();
                p.value.axpy(-0.3, &g);
            });
            m.zero_grad();
            m.train_batch(&tokens, &targets, 1, 8);
        }
        let last = m.train_batch(&tokens, &targets, 1, 8);
        assert!(last.ce_loss < first.ce_loss * 0.5);
        // Cached generation honors tying too.
        assert_eq!(m.generate(&[3, 7], 4), m.generate_cached(&[3, 7], 4));
    }

    #[test]
    fn rope_model_trains_and_generates() {
        let mut rng = Rng::seed_from(93);
        let cfg = ModelConfig {
            rope: true,
            ..ModelConfig::tiny()
        };
        let mut m = Transformer::new(cfg, &mut rng);
        // The position table is out of the graph: param count excludes it.
        assert_eq!(m.num_params() as u128, cfg.count_params());
        assert_eq!(
            ModelConfig::tiny().count_params() - cfg.count_params(),
            (cfg.max_seq * cfg.d_model) as u128
        );
        let tokens: Vec<usize> = (0..16).map(|i| (i * 3) % cfg.vocab).collect();
        let targets: Vec<usize> = (0..16).map(|i| (i * 3 + 2) % cfg.vocab).collect();
        let first = m.train_batch(&tokens, &targets, 2, 8);
        for _ in 0..40 {
            m.visit_params(&mut |p| {
                let g = p.grad.clone();
                p.value.axpy(-0.3, &g);
            });
            m.zero_grad();
            m.train_batch(&tokens, &targets, 2, 8);
        }
        let last = m.train_batch(&tokens, &targets, 2, 8);
        assert!(
            last.ce_loss < first.ce_loss * 0.5,
            "{} -> {}",
            first.ce_loss,
            last.ce_loss
        );
        // Cached and recompute decoding agree under RoPE too.
        let a = m.generate(&[1, 2], 5);
        let b = m.generate_cached(&[1, 2], 5);
        assert_eq!(a, b);
    }

    #[test]
    fn two_level_router_model_trains() {
        let mut rng = Rng::seed_from(90);
        let cfg = ModelConfig {
            n_experts: 8,
            router_groups: 2,
            ..ModelConfig::tiny()
        };
        let mut m = Transformer::new(cfg, &mut rng);
        // Param-count formula covers the extra group projection.
        assert_eq!(m.num_params() as u128, cfg.count_params());
        let tokens: Vec<usize> = (0..16).map(|i| (i * 5) % cfg.vocab).collect();
        let targets: Vec<usize> = (0..16).map(|i| (i * 5 + 3) % cfg.vocab).collect();
        let first = m.train_batch(&tokens, &targets, 2, 8);
        for _ in 0..40 {
            m.visit_params(&mut |p| {
                let g = p.grad.clone();
                p.value.axpy(-0.3, &g);
            });
            m.zero_grad();
            m.train_batch(&tokens, &targets, 2, 8);
        }
        let last = m.train_batch(&tokens, &targets, 2, 8);
        assert!(
            last.ce_loss < first.ce_loss * 0.5,
            "two-level model failed to learn: {} -> {}",
            first.ce_loss,
            last.ce_loss
        );
        // The aux loss comes from the group stage.
        assert!(last.aux_loss > 0.0);
    }

    #[test]
    fn generate_extends_prompt_and_respects_window() {
        let mut rng = Rng::seed_from(87);
        let cfg = ModelConfig::tiny();
        let mut m = Transformer::new(cfg, &mut rng);
        let out = m.generate(&[1, 2, 3], 5);
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..3], &[1, 2, 3]);
        assert!(out.iter().all(|&t| t < cfg.vocab));
        // Prompts longer than max_seq still work via the sliding window.
        let long_prompt: Vec<usize> = (0..cfg.max_seq + 4).map(|i| i % cfg.vocab).collect();
        let out = m.generate(&long_prompt, 3);
        assert_eq!(out.len(), long_prompt.len() + 3);
    }

    #[test]
    fn cached_generation_matches_recompute_generation() {
        let mut rng = Rng::seed_from(91);
        let cfg = ModelConfig::tiny();
        let mut m = Transformer::new(cfg, &mut rng);
        for (prompt, n) in [(vec![1usize, 2, 3], 6usize), (vec![9], 4), (vec![5, 5], 0)] {
            let slow = m.generate(&prompt, n);
            let fast = m.generate_cached(&prompt, n);
            assert_eq!(slow, fast, "prompt {prompt:?} n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot exceed max_seq")]
    fn cached_generation_rejects_overlong_output() {
        let mut rng = Rng::seed_from(92);
        let cfg = ModelConfig::tiny();
        let mut m = Transformer::new(cfg, &mut rng);
        m.generate_cached(&[0], cfg.max_seq);
    }

    #[test]
    fn trained_model_generates_the_learned_pattern() {
        // Teach next(t) = (t + 1) mod vocab, then verify the decoder
        // predicts it and that greedy generation continues a sequence.
        let mut rng = Rng::seed_from(88);
        let cfg = ModelConfig::tiny();
        let mut m = Transformer::new(cfg, &mut rng);
        let mut data_rng = Rng::seed_from(89);
        for it in 0..400 {
            let tokens: Vec<usize> = (0..16).map(|_| data_rng.below(cfg.vocab)).collect();
            let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
            m.train_batch(&tokens, &targets, 2, 8);
            // Step decay keeps late training stable across init seeds.
            let lr = if it < 200 { 0.3 } else { 0.1 };
            m.visit_params(&mut |p| {
                let g = p.grad.clone();
                p.value.axpy(-lr, &g);
            });
            m.zero_grad();
        }
        // Per-position prediction accuracy on held-out data.
        let tokens: Vec<usize> = (0..16).map(|_| data_rng.below(cfg.vocab)).collect();
        let logits = m.forward(&tokens, 2, 8);
        let preds = logits.argmax_rows();
        let correct = preds
            .iter()
            .zip(&tokens)
            .filter(|(&p, &t)| p == (t + 1) % cfg.vocab)
            .count();
        assert!(
            correct >= 14,
            "only {correct}/16 next-token predictions correct"
        );
        // Greedy continuation from an in-distribution prompt mostly follows
        // the successor chain (compounding errors allowed at the tail).
        let out = m.generate(&[3, 4, 5, 6], 4);
        assert_eq!(&out[..4], &[3, 4, 5, 6]);
        let follow = out
            .windows(2)
            .filter(|w| w[1] == (w[0] + 1) % cfg.vocab)
            .count();
        assert!(follow >= 5, "chain broke early: {out:?}");
    }

    #[test]
    #[should_panic(expected = "longer than max_seq")]
    fn rejects_overlong_sequences() {
        let mut rng = Rng::seed_from(86);
        let cfg = ModelConfig::tiny();
        let mut m = Transformer::new(cfg, &mut rng);
        let tokens = vec![0usize; cfg.max_seq + 1];
        m.forward(&tokens, 1, cfg.max_seq + 1);
    }
}
