//! The continuous-batching engine: one rank's admission queue, in-flight
//! batch, and the unified prefill+decode step.
//!
//! # The step contract
//!
//! Every rank calls [`Engine::step`] in lockstep. A step is:
//!
//! 1. **Admit** — pop queued requests FIFO into the in-flight batch while
//!    there is batch room and the KV pool can reserve each request's
//!    worst-case block need. The first request that does not fit stays at
//!    the head of the queue (re-queued, never dropped) so admission is
//!    strictly FIFO.
//! 2. **Prefill phase** — one batched forward over the *full prompts* of
//!    everything admitted this step; each admitted sequence's first token
//!    is the argmax of its last prompt row, the only row of a prompt that
//!    goes through the final norm and the LM head.
//! 3. **Decode phase** — one batched forward advancing every in-flight
//!    sequence by exactly one token.
//! 4. **Detach** — finished sequences leave the batch immediately; their
//!    KV blocks return to the free list and their [`Response`] is queued
//!    for the caller. Nothing drains: remaining sequences keep decoding
//!    and freed blocks admit the next request at the next boundary.
//!
//! Both phases execute **unconditionally**, even with zero rows, because
//! the expert-parallel MoE layers inside are collectives: every rank must
//! make the same number of all-to-all calls. A rank with no local
//! requests steps with empty batches and carries its share of remote
//! experts.
//!
//! # Bit-identity
//!
//! Decoding is greedy argmax over `forward_infer` logits, and every
//! per-row operation in [`decode_hidden`] and [`logits`] is
//! row-independent (inference routing is dropless, so no capacity
//! coupling). A sequence therefore produces **bit-identical tokens** no
//! matter which sequences share its batch, when they arrive, or when they
//! finish — continuous batching is an invisible scheduling optimization.
//! The serving integration tests pin this against
//! `Transformer::generate_cached`.

use crate::kv::{KvBlockPool, SeqKv};
use crate::request::{Request, Response, SubmitError};
use bagualu_comm::collectives;
use bagualu_comm::Communicator;
use bagualu_model::attention::KvStore;
use bagualu_parallel::decode::KvProvider;
use bagualu_parallel::{decode_hidden, logits, DistTransformer};
use bagualu_tensor::Tensor;
use bagualu_trace::{self as trace, names};
use std::collections::VecDeque;
use std::time::Instant;

/// Engine sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Maximum in-flight sequences per rank.
    pub max_batch: usize,
    /// KV pool size in blocks.
    pub kv_blocks: usize,
    /// Positions per KV block.
    pub block_tokens: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            max_batch: 8,
            kv_blocks: 64,
            block_tokens: 4,
        }
    }
}

/// One in-flight sequence.
#[derive(Debug)]
struct Active {
    id: u64,
    /// Prompt followed by the tokens generated so far.
    tokens: Vec<usize>,
    prompt_len: usize,
    max_new: usize,
    kv: SeqKv,
    arrival: Instant,
    admitted: Instant,
    prefill_done: Option<Instant>,
}

impl Active {
    fn generated(&self) -> usize {
        self.tokens.len() - self.prompt_len
    }

    fn done(&self) -> bool {
        self.generated() >= self.max_new
    }
}

/// Bridges the in-flight batch's paged KV state to the
/// [`KvProvider`] interface [`decode_hidden`] consumes: sequence ids are
/// indices into the active batch, and each (row, layer) access opens an
/// ephemeral paged view at the row's position.
struct ActiveProvider<'a> {
    pool: &'a mut KvBlockPool,
    active: &'a [Active],
}

impl KvProvider for ActiveProvider<'_> {
    fn with_store(
        &mut self,
        seq: usize,
        layer: usize,
        pos: usize,
        f: &mut dyn FnMut(&mut dyn KvStore),
    ) {
        let mut store = self.pool.store(&self.active[seq].kv, layer, pos);
        f(&mut store)
    }
}

/// One rank's serving engine: queue, KV pool, in-flight batch, and the
/// distributed model replica (expert-parallel over the communicator passed
/// to [`Engine::step`]).
pub struct Engine {
    model: DistTransformer,
    pool: KvBlockPool,
    cfg: EngineConfig,
    queue: VecDeque<Request>,
    active: Vec<Active>,
    finished: Vec<Response>,
    steps: u64,
}

impl Engine {
    /// Wrap a distributed model replica with a fresh queue and KV pool. An
    /// engine's model never trains, so it is frozen here
    /// ([`DistTransformer::freeze`]): each weight is packed once, kept only
    /// as panels, and no gradient is kept — no GEMM of a served step packs.
    pub fn new(mut model: DistTransformer, cfg: EngineConfig) -> Engine {
        assert!(
            cfg.max_batch > 0,
            "engine needs room for at least one sequence"
        );
        model.freeze();
        let pool = KvBlockPool::new(
            cfg.kv_blocks,
            cfg.block_tokens,
            model.cfg.n_layers,
            model.cfg.d_model,
        );
        Engine {
            model,
            pool,
            cfg,
            queue: VecDeque::new(),
            active: Vec::new(),
            finished: Vec::new(),
            steps: 0,
        }
    }

    /// Queue a request, or reject it permanently if it can never run
    /// (empty prompt, zero budget, longer than `max_seq`, or a KV
    /// footprint larger than the whole pool). Transient pool pressure is
    /// *not* a submit error — the request waits in the queue.
    pub fn submit(&mut self, req: Request) -> Result<(), SubmitError> {
        if req.prompt.is_empty() {
            return Err(SubmitError::EmptyPrompt);
        }
        if req.max_new == 0 {
            return Err(SubmitError::NothingToGenerate);
        }
        let needed = req.prompt.len() + req.max_new;
        if needed > self.model.cfg.max_seq {
            return Err(SubmitError::ExceedsMaxSeq {
                needed,
                max_seq: self.model.cfg.max_seq,
            });
        }
        let blocks = self.pool.blocks_for(needed - 1);
        if blocks > self.pool.n_blocks() {
            return Err(SubmitError::ExceedsPool {
                needed: blocks,
                total: self.pool.n_blocks(),
            });
        }
        self.queue.push_back(req);
        Ok(())
    }

    /// Queued plus in-flight requests on this rank — the quantity ranks
    /// all-reduce to agree whether anyone still has work.
    pub fn local_work(&self) -> u64 {
        (self.queue.len() + self.active.len()) as u64
    }

    /// Engine steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Requests currently queued (not yet admitted).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Sequences currently in the in-flight batch.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// The KV pool (observability and tests).
    pub fn pool(&self) -> &KvBlockPool {
        &self.pool
    }

    /// Drain completed responses accumulated since the last call.
    pub fn take_finished(&mut self) -> Vec<Response> {
        std::mem::take(&mut self.finished)
    }

    /// One lockstep engine step: admit, prefill, decode, detach. Every
    /// rank of the communicator must call this the same number of times.
    pub fn step<C: Communicator>(&mut self, comm: &C) {
        self.steps += 1;

        // (1) Admission: FIFO while the batch and the pool have room. A
        // head-of-line request that does not fit blocks everything behind
        // it — skipping ahead would let small requests starve a large one.
        let mut newly: Vec<usize> = Vec::new();
        while self.active.len() < self.cfg.max_batch {
            let Some(req) = self.queue.front() else { break };
            let blocks_needed = self.pool.blocks_for(req.prompt.len() + req.max_new - 1);
            match self.pool.try_reserve(blocks_needed) {
                Ok(blocks) => {
                    let req = self.queue.pop_front().expect("front() just succeeded");
                    let now = Instant::now();
                    trace::count(
                        names::SERVE_QUEUE_WAIT_NS,
                        now.duration_since(req.arrival).as_nanos() as u64,
                    );
                    trace::count(names::SERVE_KV_BLOCKS_USED, blocks_needed as u64);
                    newly.push(self.active.len());
                    self.active.push(Active {
                        id: req.id,
                        prompt_len: req.prompt.len(),
                        tokens: req.prompt,
                        max_new: req.max_new,
                        kv: SeqKv::new(blocks),
                        arrival: req.arrival,
                        admitted: now,
                        prefill_done: None,
                    });
                }
                Err(_) => {
                    trace::count(names::SERVE_REQUEUED, 1);
                    break;
                }
            }
        }

        // (2) Prefill phase: every admitted prompt in full, multi-row per
        // sequence. Collective — runs even with zero rows.
        {
            let _g = trace::span(names::SERVE_PREFILL);
            let mut tokens = Vec::new();
            let mut positions = Vec::new();
            let mut seqs = Vec::new();
            for &i in &newly {
                let a = &self.active[i];
                for (p, &t) in a.tokens.iter().enumerate() {
                    tokens.push(t);
                    positions.push(p);
                    seqs.push(i);
                }
            }
            trace::count(names::SERVE_PREFILL_TOKENS, tokens.len() as u64);
            let hidden = self.phase_hidden(&tokens, &positions, &seqs, comm);
            // The last prompt row predicts the first generated token; the
            // norm and the head are per-row, so only those rows go through.
            let mut last = Tensor::zeros(&[newly.len(), hidden.cols()]);
            let mut end = 0usize;
            for (r, &i) in newly.iter().enumerate() {
                end += self.active[i].prompt_len;
                last.row_mut(r).copy_from_slice(hidden.row(end - 1));
            }
            let picks = logits(&mut self.model, &last).argmax_rows();
            let now = Instant::now();
            for (&i, pick) in newly.iter().zip(picks) {
                let a = &mut self.active[i];
                a.kv.len = a.prompt_len;
                a.tokens.push(pick);
                a.prefill_done = Some(now);
            }
        }

        // (3) Sequences with max_new == 1 are already done.
        self.detach();

        // (4) Decode phase: one row per in-flight sequence. Collective —
        // runs even with zero rows.
        {
            let _g = trace::span(names::SERVE_DECODE_STEP);
            let mut tokens = Vec::new();
            let mut positions = Vec::new();
            let mut seqs = Vec::new();
            for (i, a) in self.active.iter().enumerate() {
                tokens.push(*a.tokens.last().expect("prompts are non-empty"));
                positions.push(a.kv.len);
                seqs.push(i);
            }
            trace::count(names::SERVE_BATCH_OCCUPANCY, seqs.len() as u64);
            trace::count(names::SERVE_DECODE_TOKENS, seqs.len() as u64);
            let hidden = self.phase_hidden(&tokens, &positions, &seqs, comm);
            let picks = logits(&mut self.model, &hidden).argmax_rows();
            for (r, &i) in seqs.iter().enumerate() {
                let a = &mut self.active[i];
                a.kv.len += 1;
                a.tokens.push(picks[r]);
            }
        }

        // (5) Finished sequences exit without draining the batch.
        self.detach();
    }

    /// Drive steps until no rank has queued or in-flight work. Safe on any
    /// world size: the loop condition is an all-reduce, so every rank
    /// executes the same number of steps.
    pub fn run_to_completion<C: Communicator>(&mut self, comm: &C) {
        loop {
            let total = collectives::allreduce_u64(comm, vec![self.local_work()])[0];
            if total == 0 {
                break;
            }
            self.step(comm);
        }
    }

    /// One batched walk through the blocks of the shared decode path.
    fn phase_hidden<C: Communicator>(
        &mut self,
        tokens: &[usize],
        positions: &[usize],
        seqs: &[usize],
        comm: &C,
    ) -> Tensor {
        let Engine {
            model,
            pool,
            active,
            ..
        } = self;
        let mut provider = ActiveProvider { pool, active };
        decode_hidden(model, tokens, positions, seqs, &mut provider, comm)
    }

    /// Move finished sequences out of the batch, returning their blocks
    /// and recording their [`Response`]s. Order-preserving so remaining
    /// batch indices stay FIFO.
    fn detach(&mut self) {
        let now = Instant::now();
        let mut i = 0;
        while i < self.active.len() {
            if !self.active[i].done() {
                i += 1;
                continue;
            }
            let a = self.active.remove(i);
            trace::count(names::SERVE_KV_BLOCKS_FREE, a.kv.blocks.len() as u64);
            self.pool.release(a.kv.blocks);
            trace::count(names::SERVE_COMPLETED, 1);
            let prefill_done = a.prefill_done.expect("finished sequences were prefilled");
            self.finished.push(Response {
                id: a.id,
                tokens: a.tokens,
                prompt_len: a.prompt_len,
                queue_wait_ns: a.admitted.duration_since(a.arrival).as_nanos() as u64,
                prefill_ns: prefill_done.duration_since(a.admitted).as_nanos() as u64,
                decode_ns: now.duration_since(prefill_done).as_nanos() as u64,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagualu_comm::harness::run_ranks_map;
    use bagualu_model::config::ModelConfig;
    use bagualu_model::transformer::Transformer;
    use bagualu_parallel::A2aKind;
    use bagualu_tensor::rng::Rng;

    fn engine_cfg() -> EngineConfig {
        EngineConfig {
            max_batch: 4,
            kv_blocks: 32,
            block_tokens: 4,
        }
    }

    #[test]
    fn engine_matches_generate_cached() {
        // tiny() uses a deterministic Top2 gate, so inference routing in
        // the engine matches the single-model oracle exactly.
        let cfg = ModelConfig::tiny();
        let prompts: Vec<Vec<usize>> = vec![vec![3, 7, 1], vec![5], vec![2, 2, 9, 4]];
        let max_new = 6usize;

        let mut rng = Rng::seed_from(97);
        let mut oracle = Transformer::new(cfg, &mut rng);
        let want: Vec<Vec<usize>> = prompts
            .iter()
            .map(|p| oracle.generate_cached(p, max_new))
            .collect();

        let got = run_ranks_map(1, |comm| {
            let mut rng = Rng::seed_from(97);
            let local = Transformer::new(cfg, &mut rng);
            let model = DistTransformer::from_local(&local, 0, 1, A2aKind::Pairwise);
            let mut eng = Engine::new(model, engine_cfg());
            for (i, p) in prompts.iter().enumerate() {
                eng.submit(Request::new(i as u64, p.clone(), max_new))
                    .unwrap();
            }
            eng.run_to_completion(&comm);
            let mut done = eng.take_finished();
            done.sort_by_key(|r| r.id);
            assert_eq!(
                eng.pool().used_blocks(),
                0,
                "detach must release every block"
            );
            done.into_iter().map(|r| r.tokens).collect::<Vec<_>>()
        });
        assert_eq!(got[0], want, "continuous batching changed generated tokens");
    }

    #[test]
    fn submit_rejects_impossible_requests() {
        let cfg = ModelConfig::tiny();
        run_ranks_map(1, |comm| {
            let model = DistTransformer::new(cfg, 11, 0, 1, A2aKind::Pairwise);
            let mut eng = Engine::new(
                model,
                EngineConfig {
                    max_batch: 2,
                    kv_blocks: 2,
                    block_tokens: 2,
                },
            );
            assert_eq!(
                eng.submit(Request::new(0, vec![], 4)),
                Err(SubmitError::EmptyPrompt)
            );
            assert_eq!(
                eng.submit(Request::new(1, vec![3], 0)),
                Err(SubmitError::NothingToGenerate)
            );
            assert_eq!(
                eng.submit(Request::new(2, vec![1; 12], 8)),
                Err(SubmitError::ExceedsMaxSeq {
                    needed: 20,
                    max_seq: cfg.max_seq
                })
            );
            // 4 + 4 − 1 = 7 positions → 4 blocks of 2, but the pool holds 2.
            assert_eq!(
                eng.submit(Request::new(3, vec![1; 4], 4)),
                Err(SubmitError::ExceedsPool {
                    needed: 4,
                    total: 2
                })
            );
            // A feasible request still goes through and completes.
            eng.submit(Request::new(4, vec![3, 5], 2)).unwrap();
            eng.run_to_completion(&comm);
            assert_eq!(eng.take_finished().len(), 1);
        });
    }

    #[test]
    fn pool_exhaustion_requeues_and_eventually_completes() {
        let cfg = ModelConfig::tiny();
        run_ranks_map(1, |comm| {
            let model = DistTransformer::new(cfg, 23, 0, 1, A2aKind::Pairwise);
            // Pool fits exactly one request's worst case: 3 + 5 − 1 = 7
            // positions → 2 blocks of 4; give it 3 blocks so the second
            // request cannot co-reside but can follow.
            let mut eng = Engine::new(
                model,
                EngineConfig {
                    max_batch: 4,
                    kv_blocks: 3,
                    block_tokens: 4,
                },
            );
            let collector = bagualu_trace::TraceCollector::new();
            let guard = collector.install(0);
            for id in 0..3u64 {
                eng.submit(Request::new(id, vec![1 + id as usize, 7], 6))
                    .unwrap();
            }
            eng.run_to_completion(&comm);
            drop(guard);
            let trace = collector.finish();
            let done = eng.take_finished();
            assert_eq!(done.len(), 3, "re-queued requests must still complete");
            assert!(
                trace.counter_total(names::SERVE_REQUEUED) > 0,
                "this schedule must hit admission back-pressure"
            );
            assert_eq!(trace.counter_total(names::SERVE_COMPLETED), 3);
            assert_eq!(
                trace.counter_total(names::SERVE_KV_BLOCKS_USED),
                trace.counter_total(names::SERVE_KV_BLOCKS_FREE),
                "every reserved block must be freed"
            );
            assert_eq!(eng.pool().used_blocks(), 0);
        });
    }

    #[test]
    fn distributed_engine_matches_single_rank() {
        let cfg = ModelConfig::tiny();
        let prompts: Vec<Vec<usize>> = vec![vec![4, 9], vec![8, 1, 1]];
        let max_new = 5usize;

        let single = run_ranks_map(1, |comm| {
            let model = DistTransformer::new(cfg, 41, 0, 1, A2aKind::Pairwise);
            let mut eng = Engine::new(model, engine_cfg());
            for (i, p) in prompts.iter().enumerate() {
                eng.submit(Request::new(i as u64, p.clone(), max_new))
                    .unwrap();
            }
            eng.run_to_completion(&comm);
            let mut done = eng.take_finished();
            done.sort_by_key(|r| r.id);
            done.into_iter().map(|r| r.tokens).collect::<Vec<_>>()
        });

        let multi = run_ranks_map(4, |comm| {
            let rank = comm.rank();
            let model = DistTransformer::new(
                cfg,
                41,
                rank,
                4,
                A2aKind::Hierarchical { supernode_size: 2 },
            );
            let mut eng = Engine::new(model, engine_cfg());
            if rank == 0 {
                for (i, p) in prompts.iter().enumerate() {
                    eng.submit(Request::new(i as u64, p.clone(), max_new))
                        .unwrap();
                }
            }
            eng.run_to_completion(&comm);
            let mut done = eng.take_finished();
            done.sort_by_key(|r| r.id);
            done.into_iter().map(|r| r.tokens).collect::<Vec<_>>()
        });

        assert_eq!(multi[0], single[0], "expert-parallel decode diverged");
        for done in &multi[1..] {
            assert!(done.is_empty(), "only rank 0 held requests");
        }
    }

    /// A served step never packs. Traced on two ranks under the tiled
    /// backend, at a width where a multi-tile GEMM — a prefill of eight
    /// prompts, a decode batch of eight rows — would pack its weight, no
    /// `compute.pack.*` count lands inside a `serve.prefill` or
    /// `serve.decode_step` span; the one-time pack at engine start lands
    /// outside them.
    #[test]
    fn no_served_step_packs() {
        use bagualu_tensor::ops::{install_backend, ComputeBackend};
        use bagualu_trace::{EventKind, TraceCollector};

        let cfg = ModelConfig {
            d_model: 128,
            d_ff: 256,
            vocab: 96,
            ..ModelConfig::tiny()
        };
        let collector = TraceCollector::new();
        run_ranks_map(2, |comm| {
            let rank = comm.rank();
            let _backend = install_backend(ComputeBackend::Tiled.instantiate());
            let _lane = collector.install(rank);
            let model = DistTransformer::new(cfg, 31, rank, 2, A2aKind::Pairwise);
            let mut eng = Engine::new(
                model,
                EngineConfig {
                    max_batch: 8,
                    kv_blocks: 64,
                    block_tokens: 4,
                },
            );
            for i in 0..8 {
                let prompt = (0..5).map(|p| (7 * i + p + rank) % cfg.vocab).collect();
                eng.submit(Request::new(i as u64, prompt, 4)).unwrap();
            }
            eng.run_to_completion(&comm);
            assert_eq!(eng.take_finished().len(), 8);
        });
        let trace = collector.finish();
        let step = |name: &str| name == names::SERVE_PREFILL || name == names::SERVE_DECODE_STEP;
        let pack = |name: &str| name == names::COMPUTE_PACK_BYTES || name == names::COMPUTE_PACK_NS;
        for lane in &trace.ranks {
            assert_eq!(lane.dropped, 0, "lane {}: the ring wrapped", lane.lane);
            let (mut depth, mut inside, mut at_start) = (0usize, 0u64, 0u64);
            for e in &lane.events {
                match e.kind {
                    EventKind::Enter if step(e.name) => depth += 1,
                    EventKind::Exit if step(e.name) => depth -= 1,
                    EventKind::Count(v) if pack(e.name) && depth > 0 => inside += v,
                    EventKind::Count(v) if e.name == names::COMPUTE_PACK_BYTES => at_start += v,
                    _ => {}
                }
            }
            assert_eq!(inside, 0, "lane {}: packed inside a served step", lane.lane);
            assert!(
                at_start > 0,
                "lane {}: the engine packed nothing",
                lane.lane
            );
        }
    }

    /// The paged pool behind [`decode_step`] against the growable
    /// [`VecKvBatch`], at a width where the AVX-512 kernel runs and with
    /// blocks short enough that every sequence crosses several: ragged
    /// batches, bit-identical logits.
    #[test]
    fn paged_store_matches_the_growable_cache_through_decode_step() {
        use bagualu_parallel::{decode_step, VecKvBatch};
        use bagualu_tensor::ops::{install_backend, ComputeBackend};

        struct Paged {
            pool: KvBlockPool,
            seqs: Vec<SeqKv>,
        }
        impl KvProvider for Paged {
            fn with_store(
                &mut self,
                seq: usize,
                layer: usize,
                pos: usize,
                f: &mut dyn FnMut(&mut dyn KvStore),
            ) {
                f(&mut self.pool.store(&self.seqs[seq], layer, pos))
            }
        }

        let cfg = ModelConfig {
            d_model: 128,
            d_ff: 256,
            vocab: 96,
            ..ModelConfig::tiny()
        };
        let prompts: [&[usize]; 3] = [&[4, 90, 17, 17, 8, 52, 3], &[61, 2], &[33, 33, 70, 9, 5]];
        run_ranks_map(1, |comm| {
            let _backend = install_backend(ComputeBackend::Tiled.instantiate());
            let mut model = DistTransformer::new(cfg, 77, 0, 1, A2aKind::Pairwise);
            let mut pool = KvBlockPool::new(12, 3, cfg.n_layers, cfg.d_model);
            let mut paged = Paged {
                seqs: prompts
                    .iter()
                    .map(|p| SeqKv::new(pool.try_reserve(pool.blocks_for(p.len())).unwrap()))
                    .collect(),
                pool,
            };
            let mut grown = VecKvBatch::new(cfg.d_model, cfg.n_layers);
            for _ in prompts {
                grown.add_seq();
            }
            for pos in 0..prompts.iter().map(|p| p.len()).max().unwrap() {
                let live: Vec<usize> = (0..prompts.len())
                    .filter(|&i| pos < prompts[i].len())
                    .collect();
                let tokens: Vec<usize> = live.iter().map(|&i| prompts[i][pos]).collect();
                let positions = vec![pos; live.len()];
                let a = decode_step(&mut model, &tokens, &positions, &live, &mut paged, &comm);
                let b = decode_step(&mut model, &tokens, &positions, &live, &mut grown, &comm);
                let bits =
                    |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "position {pos}: stores diverged");
            }
        });
    }
}
