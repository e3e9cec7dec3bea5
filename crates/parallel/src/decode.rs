//! Batched expert-parallel decode: one continuous-batching step over a
//! [`DistTransformer`].
//!
//! Training runs `[batch·seq, d]` forwards; serving runs *decode steps*: a
//! batch of single positions, one per in-flight sequence, each attending to
//! its own KV history. [`decode_step`] is that forward: [`decode_hidden`],
//! the walk through the blocks, then [`logits`] over the rows the caller
//! samples from. Three properties make it the serving workhorse:
//!
//! * **Row-wise purity.** Embedding lookup, LayerNorm, the attention
//!   projections, the FFN/expert GEMMs, the LM head, and dropless inference
//!   routing (`Gate::route_infer`) are all per-row operations — each layer
//!   projects the whole batch in one QKV GEMM and one output GEMM, and row
//!   `i` of a GEMM has the bits of the one-row GEMM of row `i` — and the
//!   attention between them runs per row against that row's own history.
//!   Adding or removing rows (sequences joining or leaving the batch)
//!   therefore cannot change any other row's bits — the invariant that
//!   makes continuous batching safe.
//! * **Collective alignment.** Each call runs exactly one
//!   `DistMoELayer::forward_infer` per MoE block, whatever the local row
//!   count — ranks with *zero* active sequences pass an empty batch and
//!   still join every dispatch/combine exchange, so expert parallelism
//!   never deadlocks under skewed load.
//! * **Store independence.** KV history is read through the
//!   [`KvStore`] trait, so the growable [`KvCache`] and the paged
//!   block-pool store of `bagualu-serve` produce identical bits.
//!
//! The KV history of a whole batch is abstracted as a [`KvProvider`]:
//! `decode_step` asks it for the store of (sequence, layer) pairs as it
//! walks the blocks. [`VecKvBatch`] is the naive reference provider.

use crate::model_dist::{DistFfn, DistTransformer};
use bagualu_comm::shm::Communicator;
use bagualu_model::attention::{KvCache, KvStore};
use bagualu_tensor::ops::Activation;
use bagualu_tensor::Tensor;

/// Source of per-(sequence, layer) KV stores for a decode batch.
///
/// [`decode_hidden`] calls [`with_store`](Self::with_store) once per row per
/// block, passing the absolute position the row is about to occupy; the
/// provider must hand over a store currently holding exactly `pos`
/// positions (the attention kernel appends position `pos` to it).
pub trait KvProvider {
    /// Run `f` against the KV store of sequence `seq` at layer `layer`,
    /// which holds exactly `pos` cached positions.
    fn with_store(
        &mut self,
        seq: usize,
        layer: usize,
        pos: usize,
        f: &mut dyn FnMut(&mut dyn KvStore),
    );
}

/// The reference [`KvProvider`]: one growable [`KvCache`] per
/// (sequence, layer). Used by tests as the oracle the paged pool of
/// `bagualu-serve` is pinned against.
#[derive(Debug, Clone)]
pub struct VecKvBatch {
    d_model: usize,
    n_layers: usize,
    caches: Vec<Vec<KvCache>>,
}

impl VecKvBatch {
    /// An empty provider for sequences of a model with `n_layers` blocks of
    /// width `d_model`.
    pub fn new(d_model: usize, n_layers: usize) -> VecKvBatch {
        VecKvBatch {
            d_model,
            n_layers,
            caches: Vec::new(),
        }
    }

    /// Register a new sequence; returns its provider id.
    pub fn add_seq(&mut self) -> usize {
        self.caches.push(
            (0..self.n_layers)
                .map(|_| KvCache::new(self.d_model))
                .collect(),
        );
        self.caches.len() - 1
    }

    /// Cached positions of sequence `seq` (layer 0's view).
    pub fn seq_len(&self, seq: usize) -> usize {
        self.caches[seq][0].len()
    }
}

impl KvProvider for VecKvBatch {
    fn with_store(
        &mut self,
        seq: usize,
        layer: usize,
        pos: usize,
        f: &mut dyn FnMut(&mut dyn KvStore),
    ) {
        let store = &mut self.caches[seq][layer];
        assert_eq!(
            KvStore::len(store),
            pos,
            "sequence {seq} layer {layer}: store holds {} positions, row expects {pos}",
            KvStore::len(store)
        );
        f(store)
    }
}

/// One batched decode step over `tokens[i]` at absolute `positions[i]` for
/// provider sequence `seqs[i]`. Returns `[n, vocab]` logits, one row per
/// input row: [`logits`] of [`decode_hidden`]. Collective: every rank must
/// call it in the same program position each step, with `n = 0` when it has
/// no active rows.
pub fn decode_step<C: Communicator>(
    model: &mut DistTransformer,
    tokens: &[usize],
    positions: &[usize],
    seqs: &[usize],
    kv: &mut dyn KvProvider,
    comm: &C,
) -> Tensor {
    let hidden = decode_hidden(model, tokens, positions, seqs, kv, comm);
    logits(model, &hidden)
}

/// The walk through the blocks: `[n, d_model]` hidden states, one per input
/// row, before the final norm. Collective like [`decode_step`].
///
/// Rows are processed in order; a sequence may contribute several
/// *consecutive* rows at consecutive positions (chunked prefill), each
/// appended to its KV history before the next is read. The math per row is
/// exactly `Transformer::generate_cached`'s per-step math — LayerNorm, the
/// attention kernel, residuals, FFN — so single-rank decode through this
/// function is bit-identical to the local oracle, and (because f32 addition
/// of the ≤ 2 expert contributions per token is commutative) any rank count
/// produces the same bits as one rank.
pub fn decode_hidden<C: Communicator>(
    model: &mut DistTransformer,
    tokens: &[usize],
    positions: &[usize],
    seqs: &[usize],
    kv: &mut dyn KvProvider,
    comm: &C,
) -> Tensor {
    let n = tokens.len();
    assert_eq!(positions.len(), n, "one position per token row");
    assert_eq!(seqs.len(), n, "one sequence id per token row");
    for &p in positions {
        assert!(
            p < model.cfg.max_seq,
            "absolute position {p} exceeds max_seq {}",
            model.cfg.max_seq
        );
    }
    let d = model.cfg.d_model;

    let mut x = model.tok.forward(tokens);
    if !model.cfg.rope {
        x.add_assign(&model.pos.forward(positions));
    }
    for (li, b) in model.blocks.iter_mut().enumerate() {
        let a = b.ln1.forward(&x);
        // One QKV GEMM over the batch, then each row against its own KV
        // history, then one output GEMM.
        let mut qkv = b.attn.project_qkv(&a);
        let mut ctx = Tensor::zeros(&[n, d]);
        for i in 0..n {
            let (qkv_row, ctx_row) = (qkv.row_mut(i), ctx.row_mut(i));
            let attn = &mut b.attn;
            kv.with_store(seqs[i], li, positions[i], &mut |store| {
                attn.attend(qkv_row, store, ctx_row)
            });
        }
        let mut h = x;
        h.add_assign(&b.attn.project_out(&ctx));
        let f = b.ln2.forward(&h);
        let f = match &mut b.ffn {
            DistFfn::Dense(ffn) => ffn.forward(&f),
            DistFfn::MoE(moe) => moe.forward_infer(&f, comm),
        };
        x = h;
        x.add_assign(&f);
    }
    x
}

/// Final norm and LM head over `rows` of [`decode_hidden`] — all of them for
/// a decode step, each prompt's last for a prefill. Both are per-row, so a
/// row's logits do not depend on which rows are asked for with it. Local:
/// no communication.
pub fn logits(model: &mut DistTransformer, rows: &Tensor) -> Tensor {
    let xf = model.ln_f.forward(rows);
    model.head.apply(&xf, Activation::Identity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moe_dist::A2aKind;
    use bagualu_comm::harness::run_ranks_map;
    use bagualu_model::config::ModelConfig;
    use bagualu_model::transformer::Transformer;
    use bagualu_tensor::ops::{install_backend, ComputeBackend};
    use bagualu_tensor::rng::Rng;

    /// Greedy KV-cached generation driven through `decode_step`, one
    /// position per step.
    fn generate_via_decode_step<C: Communicator>(
        model: &mut DistTransformer,
        prompt: &[usize],
        n: usize,
        comm: &C,
    ) -> Vec<usize> {
        let mut kv = VecKvBatch::new(model.cfg.d_model, model.blocks.len());
        let s = kv.add_seq();
        let mut seq = prompt.to_vec();
        let total = prompt.len() + n;
        for pos in 0..total - 1 {
            let logits = decode_step(model, &[seq[pos]], &[pos], &[s], &mut kv, comm);
            if pos + 1 >= prompt.len() {
                seq.push(logits.argmax_rows()[0]);
            }
        }
        seq
    }

    #[test]
    fn single_rank_decode_matches_generate_cached() {
        let cfg = ModelConfig::tiny(); // Top2 MoE every other block
        let mut rng = Rng::seed_from(510);
        let mut local = Transformer::new(cfg, &mut rng);
        let expected = local.generate_cached(&[3, 7, 1], 8);

        let got = run_ranks_map(1, move |comm| {
            let mut rng = Rng::seed_from(510);
            let local = Transformer::new(cfg, &mut rng);
            let mut dist = DistTransformer::from_local(&local, 0, 1, A2aKind::Pairwise);
            generate_via_decode_step(&mut dist, &[3, 7, 1], 8, &comm)
        });
        assert_eq!(got[0], expected, "decode_step diverged from the oracle");
    }

    #[test]
    fn distributed_decode_matches_single_rank() {
        let cfg = ModelConfig::tiny();
        let prompt = [5usize, 2, 9];
        let single = run_ranks_map(1, move |comm| {
            let mut dist = DistTransformer::new(cfg, 511, 0, 1, A2aKind::Pairwise);
            generate_via_decode_step(&mut dist, &prompt, 8, &comm)
        });
        // 4 ranks: the sequence lives on rank 0; other ranks join every
        // step with empty batches.
        let multi = run_ranks_map(4, move |comm| {
            let rank = comm.rank();
            let mut dist = DistTransformer::new(
                cfg,
                511,
                rank,
                4,
                A2aKind::Hierarchical { supernode_size: 2 },
            );
            let mut kv = VecKvBatch::new(cfg.d_model, cfg.n_layers);
            let s = kv.add_seq();
            let mut seq = prompt.to_vec();
            let total = prompt.len() + 8;
            for pos in 0..total - 1 {
                let logits = if rank == 0 {
                    decode_step(&mut dist, &[seq[pos]], &[pos], &[s], &mut kv, &comm)
                } else {
                    decode_step(&mut dist, &[], &[], &[], &mut kv, &comm)
                };
                if rank == 0 && pos + 1 >= prompt.len() {
                    seq.push(logits.argmax_rows()[0]);
                }
            }
            seq
        });
        assert_eq!(multi[0], single[0], "distributed decode diverged");
    }

    #[test]
    fn batched_rows_are_bit_identical_to_solo_rows() {
        let cfg = ModelConfig::tiny();
        let prompts: [&[usize]; 3] = [&[1, 2, 3], &[9, 4], &[7, 7, 7, 7]];
        run_ranks_map(1, move |comm| {
            // Solo: each sequence decoded alone.
            let mut solo_logits: Vec<Vec<Vec<u32>>> = Vec::new();
            for p in prompts {
                let mut m = DistTransformer::new(cfg, 512, 0, 1, A2aKind::Pairwise);
                let mut kv = VecKvBatch::new(cfg.d_model, cfg.n_layers);
                let s = kv.add_seq();
                let mut rows = Vec::new();
                for (pos, &t) in p.iter().enumerate() {
                    let lg = decode_step(&mut m, &[t], &[pos], &[s], &mut kv, &comm);
                    rows.push(lg.as_slice().iter().map(|v| v.to_bits()).collect());
                }
                solo_logits.push(rows);
            }
            // Batched: all three advance together; shorter ones drop out of
            // the batch when exhausted (continuous-batching shape).
            let mut m = DistTransformer::new(cfg, 512, 0, 1, A2aKind::Pairwise);
            let mut kv = VecKvBatch::new(cfg.d_model, cfg.n_layers);
            let ids: Vec<usize> = prompts.iter().map(|_| kv.add_seq()).collect();
            let max_len = prompts.iter().map(|p| p.len()).max().unwrap();
            for pos in 0..max_len {
                let mut tokens = Vec::new();
                let mut positions = Vec::new();
                let mut seqs = Vec::new();
                let mut live = Vec::new();
                for (i, p) in prompts.iter().enumerate() {
                    if pos < p.len() {
                        tokens.push(p[pos]);
                        positions.push(pos);
                        seqs.push(ids[i]);
                        live.push(i);
                    }
                }
                let lg = decode_step(&mut m, &tokens, &positions, &seqs, &mut kv, &comm);
                for (row, &i) in live.iter().enumerate() {
                    let got: Vec<u32> = lg.row(row).iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        got, solo_logits[i][pos],
                        "sequence {i} position {pos}: batched bits diverged"
                    );
                }
            }
        });
    }

    /// `ModelConfig::tiny` is 32 wide, so none of its GEMMs reaches the
    /// 64-column panel of the AVX-512 kernel. At this width every
    /// projection does (where the host has one), the head with a ragged
    /// column edge besides.
    fn wide_cfg() -> ModelConfig {
        ModelConfig {
            d_model: 128,
            d_ff: 256,
            vocab: 96,
            ..ModelConfig::tiny()
        }
    }

    fn bits(logits: &Tensor) -> Vec<Vec<u32>> {
        (0..logits.rows())
            .map(|r| logits.row(r).iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// One `decode_step` per row, each sequence in a provider of its own
    /// order: the logits every batched shape must reproduce.
    fn one_call_per_row<C: Communicator>(
        model: &mut DistTransformer,
        prompts: &[Vec<usize>],
        comm: &C,
    ) -> Vec<Vec<Vec<u32>>> {
        let mut kv = VecKvBatch::new(model.cfg.d_model, model.blocks.len());
        prompts
            .iter()
            .map(|p| {
                let s = kv.add_seq();
                p.iter()
                    .enumerate()
                    .map(|(pos, &t)| {
                        bits(&decode_step(model, &[t], &[pos], &[s], &mut kv, comm)).remove(0)
                    })
                    .collect()
            })
            .collect()
    }

    /// Thirteen sequences cover, on both wide tiers, the single-tile
    /// unpacked GEMM (≤ 6 or ≤ 5 rows), full register tiles and every
    /// remainder height. Under `tiled:fma` this failed while remainder rows
    /// computed exactly and full tiles fused.
    #[test]
    fn wide_batched_rows_are_bit_identical_to_solo_rows_at_every_batch_size() {
        let cfg = wide_cfg();
        let steps = 3usize;
        let prompts: Vec<Vec<usize>> = (0..13)
            .map(|i| {
                (0..steps)
                    .map(|p| (7 * i + 3 * p + 1) % cfg.vocab)
                    .collect()
            })
            .collect();
        for backend in [ComputeBackend::Tiled, ComputeBackend::TiledFma] {
            let prompts = prompts.clone();
            run_ranks_map(1, move |comm| {
                let _backend = install_backend(backend.instantiate());
                let mut m = DistTransformer::new(cfg, 513, 0, 1, A2aKind::Pairwise);
                let solo = one_call_per_row(&mut m, &prompts, &comm);
                for rows in 1..=prompts.len() {
                    let mut kv = VecKvBatch::new(cfg.d_model, cfg.n_layers);
                    let seqs: Vec<usize> = (0..rows).map(|_| kv.add_seq()).collect();
                    for pos in 0..steps {
                        let tokens: Vec<usize> = prompts[..rows].iter().map(|p| p[pos]).collect();
                        let lg =
                            decode_step(&mut m, &tokens, &vec![pos; rows], &seqs, &mut kv, &comm);
                        for (i, got) in bits(&lg).into_iter().enumerate() {
                            assert_eq!(
                                got, solo[i][pos],
                                "{backend}: sequence {i} of {rows} at position {pos}"
                            );
                        }
                    }
                }
            });
        }
    }

    /// Chunked prefill: consecutive rows of one sequence in one call — each
    /// appended to the KV history before the next reads it — next to the
    /// rows of another sequence.
    #[test]
    fn wide_consecutive_rows_of_one_sequence_match_one_call_per_row() {
        let cfg = wide_cfg();
        let prompts = vec![vec![5usize, 17, 2, 90, 33, 8, 61], vec![44usize, 3, 3, 70]];
        run_ranks_map(1, move |comm| {
            let _backend = install_backend(ComputeBackend::Tiled.instantiate());
            let mut m = DistTransformer::new(cfg, 514, 0, 1, A2aKind::Pairwise);
            let solo = one_call_per_row(&mut m, &prompts, &comm);

            let mut kv = VecKvBatch::new(cfg.d_model, cfg.n_layers);
            let (mut tokens, mut positions, mut seqs) = (Vec::new(), Vec::new(), Vec::new());
            for p in &prompts {
                let s = kv.add_seq();
                for (pos, &t) in p.iter().enumerate() {
                    tokens.push(t);
                    positions.push(pos);
                    seqs.push(s);
                }
            }
            let lg = bits(&decode_step(
                &mut m, &tokens, &positions, &seqs, &mut kv, &comm,
            ));
            let want: Vec<Vec<u32>> = solo.into_iter().flatten().collect();
            assert_eq!(lg, want, "one call over both prompts diverged");
            assert_eq!((kv.seq_len(0), kv.seq_len(1)), (7, 4));
        });
    }

    /// A rank with no rows still projects, attends over and routes an empty
    /// batch, so it joins every dispatch/combine exchange and carries its
    /// experts for the rank that has them all.
    #[test]
    fn wide_rank_without_rows_joins_every_exchange() {
        let cfg = wide_cfg();
        let tokens = [[9usize, 40, 77], [12, 12, 5], [63, 1, 88]];
        let run = move |nranks: usize| {
            run_ranks_map(nranks, move |comm| {
                let _backend = install_backend(ComputeBackend::Tiled.instantiate());
                let rank = comm.rank();
                let mut m = DistTransformer::new(cfg, 515, rank, nranks, A2aKind::Pairwise);
                let mut kv = VecKvBatch::new(cfg.d_model, cfg.n_layers);
                let seqs: Vec<usize> = (0..3).map(|_| kv.add_seq()).collect();
                let mut out = Vec::new();
                for (pos, step) in tokens.iter().enumerate() {
                    let lg = if rank == 0 {
                        decode_step(&mut m, step, &[pos; 3], &seqs, &mut kv, &comm)
                    } else {
                        decode_step(&mut m, &[], &[], &[], &mut kv, &comm)
                    };
                    assert_eq!(lg.shape(), &[if rank == 0 { 3 } else { 0 }, cfg.vocab]);
                    out.push(bits(&lg));
                }
                out
            })
        };
        let single = run(1);
        let multi = run(2);
        assert_eq!(multi[0], single[0], "two ranks, one of them idle, diverged");
    }
}
