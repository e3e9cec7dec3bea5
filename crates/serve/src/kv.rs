//! Paged KV-cache allocation: fixed-size blocks, a free list, and
//! per-sequence block tables.
//!
//! A naive serving KV cache allocates `max_seq × n_layers × 2 × d` floats
//! per sequence up front; with continuous batching most of that is dead
//! space (short requests, sequences that finish early). The paged design
//! (vLLM-style) carves one shared arena into fixed-size **blocks** of
//! `block_tokens` positions each; a sequence holds an ordered **block
//! table** and grows into it position by position. Blocks return to the
//! free list the moment a sequence detaches, so peak memory tracks the
//! *live* token count, not `max_batch × max_seq`.
//!
//! One block spans **all layers** for its positions, so a sequence needs a
//! single table (not one per layer). The float layout inside a block is
//! `[token_in_block][layer][K | V]`, each K/V run being a contiguous
//! `[d_model]` slice — exactly the read granularity of
//! [`KvStore`], so a paged read is one
//! slice borrow, never a gather.
//!
//! Admission control lives here too: [`KvBlockPool::try_reserve`] either
//! hands over every block a request could ever need (its worst-case decode
//! length is known at admission) or fails with the typed
//! [`AdmissionError`] — the engine then re-queues the request. Reserving
//! up front means an admitted sequence can never die of allocation failure
//! mid-decode.

use bagualu_model::attention::KvStore;
use std::fmt;

/// Why a request could not be admitted. The request is *re-queued*, never
/// dropped — admission failure is back-pressure, not an error the client
/// sees (unless the request can never fit, which [`crate::Engine::submit`]
/// rejects up front).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmissionError {
    /// The pool's free list is shorter than the request's worst-case block
    /// need. Retry after an in-flight sequence detaches.
    OutOfKvBlocks {
        /// Blocks the request needs reserved.
        needed: usize,
        /// Blocks currently free.
        free: usize,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AdmissionError::OutOfKvBlocks { needed, free } => write!(
                f,
                "out of KV blocks: request needs {needed}, pool has {free} free"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A sequence's slice of the pool: its block table plus the number of
/// positions committed so far. Owned by the engine's per-sequence state;
/// the pool itself holds no per-sequence bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct SeqKv {
    /// Pool block indices, in position order (`blocks[p / block_tokens]`
    /// holds position `p`).
    pub(crate) blocks: Vec<usize>,
    /// Positions committed (appended by a completed engine phase).
    pub(crate) len: usize,
}

impl SeqKv {
    /// Wrap a freshly reserved block table.
    pub(crate) fn new(blocks: Vec<usize>) -> SeqKv {
        SeqKv { blocks, len: 0 }
    }

    /// Positions this table can hold.
    pub(crate) fn capacity(&self, block_tokens: usize) -> usize {
        self.blocks.len() * block_tokens
    }
}

/// The shared block arena plus its free list.
#[derive(Debug, Clone)]
pub struct KvBlockPool {
    d_model: usize,
    n_layers: usize,
    block_tokens: usize,
    n_blocks: usize,
    storage: Vec<f32>,
    /// LIFO free list — recently released (cache-warm) blocks are reused
    /// first.
    free: Vec<usize>,
}

impl KvBlockPool {
    /// An arena of `n_blocks` blocks of `block_tokens` positions each, for
    /// a model with `n_layers` attention layers of width `d_model`.
    pub(crate) fn new(
        n_blocks: usize,
        block_tokens: usize,
        n_layers: usize,
        d_model: usize,
    ) -> KvBlockPool {
        assert!(n_blocks > 0, "pool needs at least one block");
        assert!(block_tokens > 0, "blocks need at least one position");
        assert!(n_layers > 0 && d_model > 0);
        let block_floats = block_tokens * n_layers * 2 * d_model;
        KvBlockPool {
            d_model,
            n_layers,
            block_tokens,
            n_blocks,
            storage: vec![0.0; n_blocks * block_floats],
            // Popping from the back hands out block 0 first — determinism
            // the reuse tests pin.
            free: (0..n_blocks).rev().collect(),
        }
    }

    /// Total blocks in the arena.
    pub(crate) fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Blocks currently reserved by sequences.
    pub fn used_blocks(&self) -> usize {
        self.n_blocks - self.free.len()
    }

    /// Blocks needed to hold `positions` cached positions.
    pub(crate) fn blocks_for(&self, positions: usize) -> usize {
        positions.div_ceil(self.block_tokens).max(1)
    }

    /// Reserve `n` blocks, or fail with the typed admission error (the
    /// free list is untouched on failure — reservation is all-or-nothing).
    pub(crate) fn try_reserve(&mut self, n: usize) -> Result<Vec<usize>, AdmissionError> {
        if self.free.len() < n {
            return Err(AdmissionError::OutOfKvBlocks {
                needed: n,
                free: self.free.len(),
            });
        }
        Ok(self.free.split_off(self.free.len() - n))
    }

    /// Return a detached sequence's blocks to the free list.
    pub(crate) fn release(&mut self, blocks: Vec<usize>) {
        for b in blocks {
            debug_assert!(b < self.n_blocks);
            debug_assert!(!self.free.contains(&b), "double release of block {b}");
            self.free.push(b);
        }
    }

    /// Floats per block.
    fn block_floats(&self) -> usize {
        self.block_tokens * self.n_layers * 2 * self.d_model
    }

    /// Float offset of position `pos`, layer `layer` in a block table.
    fn offset(&self, blocks: &[usize], layer: usize, pos: usize) -> usize {
        let block = blocks[pos / self.block_tokens];
        block * self.block_floats()
            + ((pos % self.block_tokens) * self.n_layers + layer) * 2 * self.d_model
    }

    /// A [`KvStore`] view of `seq` at `layer`, currently holding exactly
    /// `len` positions. Views are ephemeral — the engine creates one per
    /// (row, layer) during an engine step's walk and commits lengths
    /// afterwards.
    pub(crate) fn store<'a>(
        &'a mut self,
        seq: &'a SeqKv,
        layer: usize,
        len: usize,
    ) -> PagedStore<'a> {
        assert!(layer < self.n_layers);
        assert!(
            len < seq.capacity(self.block_tokens),
            "KV view at {len} positions has no room to append (table holds {} blocks × {})",
            seq.blocks.len(),
            self.block_tokens
        );
        PagedStore {
            pool: self,
            blocks: &seq.blocks,
            layer,
            len,
        }
    }
}

/// An ephemeral [`KvStore`] over one (sequence, layer) pair of the pool.
/// Reads and the single append are bounds-checked against the sequence's
/// block table; bits read back exactly as written, so swapping this in for
/// the growable `KvCache` cannot change any attention output.
#[derive(Debug)]
pub(crate) struct PagedStore<'a> {
    pool: &'a mut KvBlockPool,
    blocks: &'a [usize],
    layer: usize,
    len: usize,
}

impl KvStore for PagedStore<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn append(&mut self, keys: &[f32], values: &[f32]) {
        let d = self.pool.d_model;
        assert_eq!(keys.len(), d);
        assert_eq!(values.len(), d);
        assert!(
            self.len < self.blocks.len() * self.pool.block_tokens,
            "append past the reserved block table"
        );
        let off = self.pool.offset(self.blocks, self.layer, self.len);
        self.pool.storage[off..off + d].copy_from_slice(keys);
        self.pool.storage[off + d..off + 2 * d].copy_from_slice(values);
        self.len += 1;
    }

    fn key(&self, pos: usize) -> &[f32] {
        assert!(pos < self.len, "read of unwritten position {pos}");
        let d = self.pool.d_model;
        let off = self.pool.offset(self.blocks, self.layer, pos);
        &self.pool.storage[off..off + d]
    }

    fn value(&self, pos: usize) -> &[f32] {
        assert!(pos < self.len, "read of unwritten position {pos}");
        let d = self.pool.d_model;
        let off = self.pool.offset(self.blocks, self.layer, pos);
        &self.pool.storage[off + d..off + 2 * d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagualu_model::attention::KvCache;
    use bagualu_tensor::rng::Rng;

    #[test]
    fn exhaustion_is_a_typed_error_and_reservation_is_atomic() {
        let mut pool = KvBlockPool::new(4, 2, 1, 4);
        let a = pool.try_reserve(3).unwrap();
        assert_eq!(pool.free.len(), 1);
        let err = pool.try_reserve(2).unwrap_err();
        assert_eq!(err, AdmissionError::OutOfKvBlocks { needed: 2, free: 1 });
        // Failure must not leak blocks.
        assert_eq!(pool.free.len(), 1);
        pool.release(a);
        assert_eq!(pool.free.len(), 4);
        assert!(pool.try_reserve(2).is_ok());
    }

    #[test]
    fn freed_blocks_are_reused_lifo() {
        let mut pool = KvBlockPool::new(4, 2, 1, 4);
        let first = pool.try_reserve(2).unwrap();
        assert_eq!(first, vec![1, 0], "split_off hands out the list tail");
        pool.release(first.clone());
        let again = pool.try_reserve(2).unwrap();
        // LIFO: the blocks just released come straight back (same order —
        // they were pushed 1 then 0 and popped off the tail).
        assert_eq!(again, first);
        assert_eq!(pool.used_blocks(), 2);
    }

    #[test]
    fn blocks_for_rounds_up() {
        let pool = KvBlockPool::new(8, 4, 2, 8);
        assert_eq!(pool.blocks_for(1), 1);
        assert_eq!(pool.blocks_for(4), 1);
        assert_eq!(pool.blocks_for(5), 2);
        assert_eq!(
            pool.blocks_for(0),
            1,
            "degenerate requests still hold a block"
        );
    }

    #[test]
    fn paged_store_reads_back_what_the_growable_cache_holds() {
        // Write the same random K/V stream through both stores, spanning
        // several block boundaries and two layers; every read must be
        // bit-identical.
        let (d, layers, bt) = (8usize, 2usize, 3usize);
        let mut rng = Rng::seed_from(91);
        let mut pool = KvBlockPool::new(6, bt, layers, d);
        let seq = SeqKv::new(pool.try_reserve(4).unwrap());
        let mut oracle: Vec<Vec<KvCache>> = vec![(0..layers).map(|_| KvCache::new(d)).collect()];

        let positions = 10; // spans 4 blocks of 3
        for pos in 0..positions {
            for (layer, cache) in oracle[0].iter_mut().enumerate() {
                let k: Vec<f32> = (0..d).map(|_| rng.normal()).collect();
                let v: Vec<f32> = (0..d).map(|_| rng.normal()).collect();
                let mut store = pool.store(&seq, layer, pos);
                store.append(&k, &v);
                cache.append(&k, &v);
            }
        }
        for pos in 0..positions {
            for (layer, cache) in oracle[0].iter().enumerate() {
                let store = pool.store(&seq, layer, positions);
                assert_eq!(store.key(pos), KvStore::key(cache, pos));
                assert_eq!(store.value(pos), KvStore::value(cache, pos));
            }
        }
    }

    #[test]
    #[should_panic(expected = "unwritten position")]
    fn reading_past_the_view_length_panics() {
        let mut pool = KvBlockPool::new(2, 2, 1, 4);
        let seq = SeqKv::new(pool.try_reserve(1).unwrap());
        let store = pool.store(&seq, 0, 1);
        let _ = store.key(1);
    }

    #[test]
    #[should_panic(expected = "no room to append")]
    fn views_at_full_capacity_are_rejected() {
        let mut pool = KvBlockPool::new(2, 2, 1, 4);
        let seq = SeqKv::new(pool.try_reserve(1).unwrap());
        let _ = pool.store(&seq, 0, 2); // table holds 2 positions; len 2 cannot append
    }
}
