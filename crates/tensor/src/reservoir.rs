//! The recycling reservoir under every large `f32` buffer of the step.
//!
//! A training step allocates and frees the same few dozen MiB-sized buffers
//! — activations, GEMM outputs, packed panels, all-to-all staging — once per
//! step. Handed to glibc, each of them is unmapped (or trimmed off the top
//! of the heap) on the way down the backward pass and page-faulted in again
//! on the way up the next forward pass. The reservoir keeps them mapped:
//! [`crate::Tensor`]'s `Drop` `give`s its buffer back,
//! the constructors `take` one, and a buffer that enters
//! or leaves a tensor by value ([`crate::Tensor::from_vec`] /
//! [`crate::Tensor::into_vec`]) is `adopt`ed into or
//! `release`d from the accounting. Code that moves
//! bare `Vec<f32>`s — the wire — [`lend`](Reservoir::lend)s and
//! [`recycle`](Reservoir::recycle)s, so a payload packed on one rank is
//! expanded into the buffer another rank just finished with.
//!
//! There is one reservoir per process ([`global`]), not one per thread: rank
//! threads are spawned per `Trainer::run` call, so a pool that died with its
//! thread would fault the whole working set in again on the first step of
//! every run, and a payload sent by one rank is dropped by another. Among
//! equally good buffers a thread still gets back the one it gave itself,
//! which is in its own cache.
//!
//! # The bound, and why there is nothing to set
//!
//! With `live` the bytes of buffers currently out (taken or adopted) and
//! `retained` the bytes on the free lists, the reservoir keeps
//!
//! ```text
//! live + retained ≤ high-water(live) · 9/8
//! ```
//!
//! at every return ([`Stats::bound_bytes`]): what it holds is set by what the
//! program itself once had in use, so there is no capacity to configure.
//! Whatever breaks the bound — a miss, which allocates, an adoption, a
//! recycled buffer — is followed by releasing retained buffers, the one that
//! has sat unused the longest first, until it holds again.
//!
//! The eighth on top is there because the forward and the backward pass do
//! not want the same sizes: held to the high-water mark exactly, every
//! backward-only size evicts a forward-only one and the next forward pass
//! evicts it back, for ever (measured: 3–5 MiB released and allocated again
//! per `train_route` step, and a *released* buffer goes to glibc's bins, not
//! to the kernel, so releasing and allocating again holds the memory
//! twice). The sizes a step needs in total exceed its high-water mark by
//! 0.3–4.5 % on the benchmark's workloads; an eighth — the slack a single
//! buffer is allowed over its request — covers that, and the reservoir only
//! grows into it on a miss. Releasing the *largest* buffer first, the
//! obvious policy, evicts exactly what the next pass needs (a 2 MiB logits
//! buffer for a 384 KiB panel, then two panels for the logits); the
//! longest-idle one is the one no pass has asked for. See DESIGN.md "Memory:
//! one reservoir" for the tables.

use bagualu_trace::{self as trace, names, HostUsage, TraceCollector};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Buffers with fewer elements than this (64 KiB of `f32`) never touch the
/// reservoir: they come from and go back to `malloc`, which serves them from
/// its bins without a system call, and decode-sized tensors never take the
/// lock. Measured (DESIGN.md): at 64 KiB every activation of `serve_decode`'s
/// decode loop stays out while every tensor `train_compute` was faulting
/// back in each step is in; 16 KiB moved nothing on `train_route`.
pub(crate) const CUTOFF_ELEMS: usize = (64 << 10) / std::mem::size_of::<f32>();

/// Capacity classes per octave: a class boundary every 1/8 of a power of
/// two, so a buffer is allocated at most 12.5 % larger than the request —
/// and slack past a buffer's length is never written, so it is never
/// resident. The same eighth is the reservoir's own slack over its
/// high-water mark ([`Stats::bound_bytes`]).
const CLASSES_PER_OCTAVE: usize = 8;

/// A tensor may be served by a retained buffer of up to this many times its
/// class before the request counts as a miss: one octave, which absorbs the
/// step-to-step drift of routed row counts without letting a long-lived
/// 64 KiB tensor pin a multi-MiB buffer.
const MAX_UPSIZE: usize = 2;

/// Every class boundary sits one cache line (16 floats) above its round
/// number, so a buffer that aligns a power-of-two payload to 64 bytes inside
/// itself — a packed panel — falls in its payload's class, not the next one,
/// and panels and tensors of one size recycle each other. Without it
/// `train_route` misses 18 % more bytes and peaks 5 MiB higher.
const HEADROOM: usize = 16;

/// The smallest class boundary that holds `n ≥ CUTOFF_ELEMS` elements.
fn class_ceil(n: usize) -> usize {
    let n = n - HEADROOM;
    let step = (1usize << n.ilog2()) / CLASSES_PER_OCTAVE;
    n.next_multiple_of(step) + HEADROOM
}

fn bytes(elems: usize) -> u64 {
    (elems * std::mem::size_of::<f32>()) as u64
}

/// A small integer naming the calling thread.
fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! { static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed); }
    // A tensor dropped while its thread's locals are being torn down gives
    // its buffer back as nobody's.
    TAG.try_with(|tag| *tag).unwrap_or(u64::MAX)
}

/// A snapshot of a reservoir's accounting, all in bytes of capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Out in tensors (or other takers) right now.
    pub live_bytes: u64,
    /// On the free lists right now.
    pub retained_bytes: u64,
    /// The most `live_bytes` has ever been.
    pub(crate) high_water_bytes: u64,
    /// The most `retained_bytes` has ever been.
    pub(crate) retained_peak_bytes: u64,
    /// Served from a free list.
    pub(crate) hit_bytes: u64,
    /// Served by a fresh allocation.
    pub(crate) miss_bytes: u64,
    /// Freed to the allocator to restore the bound.
    pub(crate) released_bytes: u64,
}

impl Stats {
    /// What `live_bytes + retained_bytes` may be at most: the high-water
    /// mark and an eighth (see the module docs).
    pub fn bound_bytes(&self) -> u64 {
        self.high_water_bytes + self.high_water_bytes / CLASSES_PER_OCTAVE as u64
    }
}

const ZERO: Stats = Stats {
    live_bytes: 0,
    retained_bytes: 0,
    high_water_bytes: 0,
    retained_peak_bytes: 0,
    hit_bytes: 0,
    miss_bytes: 0,
    released_bytes: 0,
};

/// A retained buffer, with when and by which thread it was put back.
struct Idle {
    /// The [`State::clock`] reading when it was put back.
    at: u64,
    /// The [`thread_tag`] of who put it back.
    by: u64,
    buf: Vec<f32>,
}

/// Which retained buffer a caller is after.
#[derive(Clone, Copy)]
enum Want {
    /// For a tensor of this many elements: the smallest buffer that holds
    /// them, up to [`MAX_UPSIZE`] times their class — the least slack.
    Fit(usize),
    /// For scratch of this many elements, handed straight back by its
    /// taker: the most recently used buffer of any size that holds them —
    /// the one still in cache, as the top of `malloc`'s heap would be.
    Hot(usize),
    /// To release: the buffer of any size that has sat unused the longest.
    Idlest,
}

struct State {
    /// Retained buffers, keyed by capacity (a class boundary for every
    /// buffer the reservoir allocated itself), pushed at the back: the front
    /// of a list is its longest-idle buffer. No entry is ever left empty.
    free: BTreeMap<usize, VecDeque<Idle>>,
    /// Counts buffers put back.
    clock: u64,
    stats: Stats,
    /// `stats` as of the last [`Reservoir::drain_counts`].
    drained: Stats,
}

impl State {
    fn retain(&mut self, buf: Vec<f32>) {
        let s = &mut self.stats;
        s.retained_bytes += bytes(buf.capacity());
        s.retained_peak_bytes = s.retained_peak_bytes.max(s.retained_bytes);
        self.clock += 1;
        self.free
            .entry(buf.capacity())
            .or_default()
            .push_back(Idle {
                at: self.clock,
                by: thread_tag(),
                buf,
            });
    }

    /// Remove the retained buffer `want` describes, if there is one.
    fn pop(&mut self, want: Want) -> Option<Vec<f32>> {
        let me = thread_tag();
        // The position in a list of the latest buffer this thread put back
        // (it is in this thread's cache, not the other rank's), else of the
        // latest anyone did.
        let latest = |list: &VecDeque<Idle>| {
            let mine = list.iter().rposition(|idle| idle.by == me);
            mine.unwrap_or(list.len() - 1)
        };
        let (capacity, index) = match want {
            Want::Fit(n) => {
                let roomiest = class_ceil(n).saturating_mul(MAX_UPSIZE);
                let mut window = self.free.range(n..=roomiest);
                let mine = window.clone().find_map(|(&capacity, list)| {
                    let index = list.iter().rposition(|idle| idle.by == me)?;
                    Some((capacity, index))
                });
                mine.or_else(|| {
                    let (&capacity, list) = window.next()?;
                    Some((capacity, list.len() - 1))
                })?
            }
            Want::Hot(n) => {
                let candidates = self.free.range(n..).map(|(&capacity, list)| {
                    let index = latest(list);
                    ((list[index].by == me, list[index].at), capacity, index)
                });
                let (_, capacity, index) = candidates.max_by_key(|&(recency, ..)| recency)?;
                (capacity, index)
            }
            Want::Idlest => {
                let lists = self.free.iter();
                let (&capacity, _) = lists.min_by_key(|(_, list)| list[0].at)?;
                (capacity, 0)
            }
        };
        let list = self.free.get_mut(&capacity).expect("list was just found");
        let idle = list.remove(index).expect("index was just found");
        if list.is_empty() {
            self.free.remove(&capacity);
        }
        self.stats.retained_bytes -= bytes(idle.buf.capacity());
        Some(idle.buf)
    }

    fn went_live(&mut self, capacity: usize) {
        let s = &mut self.stats;
        s.live_bytes += bytes(capacity);
        s.high_water_bytes = s.high_water_bytes.max(s.live_bytes);
    }

    fn went_out(&mut self, capacity: usize) {
        self.stats.live_bytes = self.stats.live_bytes.saturating_sub(bytes(capacity));
    }

    /// Restore the bound after a fresh allocation, an adoption or a recycled
    /// buffer broke it: release retained buffers, longest idle first. The
    /// caller drops them once it has let go of the lock.
    #[must_use]
    fn trim(&mut self) -> Vec<Vec<f32>> {
        let mut released = Vec::new();
        while self.stats.live_bytes + self.stats.retained_bytes > self.stats.bound_bytes() {
            let Some(buf) = self.pop(Want::Idlest) else {
                break;
            };
            self.stats.released_bytes += bytes(buf.capacity());
            released.push(buf);
        }
        released
    }
}

/// Size-classed free lists of `Vec<f32>` buffers, bounded by their user's
/// own high-water mark (see the module docs). The process has one,
/// [`global`]; tests build private ones.
pub struct Reservoir {
    state: Mutex<State>,
}

impl Default for Reservoir {
    fn default() -> Reservoir {
        Reservoir::new()
    }
}

impl Reservoir {
    /// An empty reservoir.
    pub(crate) const fn new() -> Reservoir {
        Reservoir {
            state: Mutex::new(State {
                free: BTreeMap::new(),
                clock: 0,
                stats: ZERO,
                drained: ZERO,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Every update leaves the lists and the sums consistent with each
        // other, and `give` runs inside `Drop`, which must not panic.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An empty buffer (`len() == 0`) with room for at least `n` elements,
    /// counted as live. Below [`CUTOFF_ELEMS`] it is a plain allocation the
    /// reservoir never sees again.
    pub(crate) fn take(&self, n: usize) -> Vec<f32> {
        self.take_as(n, Want::Fit, true)
    }

    /// [`take`](Self::take) for scratch that its taker hands straight back
    /// (a packed panel): served by whichever retained buffer of at least
    /// this size was used last, however large, because that one is still in
    /// cache and is not kept from anyone for long. Decode-shaped GEMMs, whose
    /// cost is the packing, run 7–14 % slower when every panel size cycles
    /// through a buffer of its own instead.
    pub(crate) fn take_scratch(&self, n: usize) -> Vec<f32> {
        self.take_as(n, Want::Hot, true)
    }

    /// `take` for a buffer that leaves as a bare `Vec` (a wire
    /// payload): not counted as live, so whoever ends up with it either
    /// builds a tensor around it or [`recycle`](Self::recycle)s it.
    pub fn lend(&self, n: usize) -> Vec<f32> {
        self.take_as(n, Want::Fit, false)
    }

    fn take_as(&self, n: usize, want: fn(usize) -> Want, live: bool) -> Vec<f32> {
        if n < CUTOFF_ELEMS {
            return Vec::with_capacity(n);
        }
        let mut st = self.lock();
        let hit = st.pop(want(n));
        let buf = match hit {
            Some(mut buf) => {
                buf.clear();
                st.stats.hit_bytes += bytes(buf.capacity());
                buf
            }
            None => {
                let buf = Vec::with_capacity(class_ceil(n));
                st.stats.miss_bytes += bytes(buf.capacity());
                buf
            }
        };
        if live {
            st.went_live(buf.capacity());
        }
        // Only a fresh, counted buffer adds to what the reservoir holds.
        let released = st.trim();
        drop(st);
        drop(released);
        buf
    }

    /// Hand a live buffer back: at or above the cutoff it leaves the live
    /// count and is retained for the next [`take`](Self::take); below, it is
    /// freed.
    pub(crate) fn give(&self, buf: Vec<f32>) {
        self.put_back(buf, true);
    }

    /// Retain a buffer nobody counts as live (it left a tensor by value, or
    /// was [`lend`](Self::lend)ed) instead of freeing it.
    pub fn recycle(&self, buf: Vec<f32>) {
        self.put_back(buf, false);
    }

    fn put_back(&self, buf: Vec<f32>, was_live: bool) {
        let capacity = buf.capacity();
        if capacity < CUTOFF_ELEMS {
            return;
        }
        let mut st = self.lock();
        if was_live {
            st.went_out(capacity);
        }
        st.retain(buf);
        let released = st.trim();
        drop(st);
        drop(released);
    }

    /// Count a buffer of this capacity, allocated elsewhere, as live from
    /// now on (a tensor was built around it).
    pub(crate) fn adopt(&self, capacity: usize) {
        if capacity >= CUTOFF_ELEMS {
            let mut st = self.lock();
            st.went_live(capacity);
            let released = st.trim();
            drop(st);
            drop(released);
        }
    }

    /// Stop counting a buffer of this capacity: it leaves by value (its
    /// tensor gave the `Vec` away).
    pub(crate) fn release(&self, capacity: usize) {
        if capacity >= CUTOFF_ELEMS {
            self.lock().went_out(capacity);
        }
    }

    /// The current accounting.
    pub fn stats(&self) -> Stats {
        self.lock().stats
    }

    /// Hit, miss and released bytes since the previous call, which are then
    /// forgotten (the other fields are the current values).
    pub fn drain_counts(&self) -> Stats {
        let mut st = self.lock();
        let (now, then) = (st.stats, st.drained);
        st.drained = now;
        Stats {
            hit_bytes: now.hit_bytes - then.hit_bytes,
            miss_bytes: now.miss_bytes - then.miss_bytes,
            released_bytes: now.released_bytes - then.released_bytes,
            ..now
        }
    }
}

static GLOBAL: Reservoir = Reservoir::new();

/// The process-wide reservoir every [`crate::Tensor`] draws on.
pub fn global() -> &'static Reservoir {
    &GLOBAL
}

/// The lane that carries every process-wide row of a run's trace: rank 0's.
const PROCESS_LANE: usize = 0;

/// Close a run's process-wide rows, which only its driver can record, once
/// every rank has finished: what the run cost the host since
/// `host_at_start` was read, and the reservoir's retained-peak gauge.
pub fn record_run(collector: &TraceCollector, host_at_start: Option<HostUsage>) {
    if let Some(start) = host_at_start {
        start.record_since(collector, PROCESS_LANE);
    }
    collector.record_count(
        PROCESS_LANE,
        names::MEM_RESERVOIR_RETAINED_PEAK_BYTES,
        GLOBAL.stats().retained_peak_bytes,
    );
}

/// Record what the process-wide reservoir did since the last call as the
/// `mem.reservoir.{hit,miss,released}_bytes` counters on the calling
/// thread's trace lane. The reservoir counts in its own fields under its
/// lock; this is the only place those counts reach the trace, so a run that
/// does not trace never pays for them.
pub fn publish() {
    let d = GLOBAL.drain_counts();
    trace::count(names::MEM_RESERVOIR_HIT_BYTES, d.hit_bytes);
    trace::count(names::MEM_RESERVOIR_MISS_BYTES, d.miss_bytes);
    trace::count(names::MEM_RESERVOIR_RELEASED_BYTES, d.released_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classes_are_an_eighth_of_an_octave_apart_and_hold_what_they_are_for() {
        let mut boundaries = std::collections::BTreeSet::new();
        for n in (CUTOFF_ELEMS..CUTOFF_ELEMS * 4).step_by(7) {
            let class = class_ceil(n);
            assert!(class >= n, "{class} cannot hold {n}");
            // At most an eighth over the request (plus the headroom line).
            assert!(class - HEADROOM <= n + n / CLASSES_PER_OCTAVE);
            assert_eq!(class_ceil(class), class, "a boundary is its own class");
            boundaries.insert(class);
        }
        // Two octaves, eight classes each, and the boundary they end on.
        assert_eq!(boundaries.len(), 2 * CLASSES_PER_OCTAVE + 1);
        // A power-of-two payload and the same payload aligned to a cache line
        // inside a slightly longer buffer share a class.
        assert_eq!(class_ceil(1 << 19), class_ceil((1 << 19) + HEADROOM));
    }

    #[test]
    fn a_tensor_fits_within_an_octave_and_scratch_takes_the_hottest() {
        let pool = Reservoir::new();
        let (small, large) = (CUTOFF_ELEMS, 8 * CUTOFF_ELEMS);
        let held = [pool.take(small), pool.take(large)];
        let large_at = held[1].as_ptr();
        held.into_iter().for_each(|buf| pool.give(buf));
        let before = pool.stats();
        // A tensor two octaves below the large buffer does not pin it …
        let fit = pool.take(2 * small);
        assert_ne!(fit.as_ptr(), large_at);
        assert_eq!(
            pool.stats().miss_bytes,
            before.miss_bytes + bytes(fit.capacity())
        );
        // … scratch of the same size borrows it, being the last one used.
        let scratch = pool.take_scratch(2 * small);
        assert_eq!(scratch.as_ptr(), large_at);
        assert_eq!(scratch.len(), 0);
    }

    #[test]
    fn the_longest_idle_buffer_is_released_first() {
        let pool = Reservoir::new();
        let n = 4 * CUTOFF_ELEMS;
        // High-water mark: eight buffers out at once.
        let held: Vec<_> = (0..8).map(|_| pool.take(n)).collect();
        let oldest = held[0].as_ptr();
        held.into_iter().for_each(|buf| pool.give(buf));
        // Bring a ninth and a tenth in from outside: 10/8 of the high-water
        // mark breaks the bound by one buffer.
        pool.recycle(Vec::with_capacity(n));
        assert_eq!(pool.stats().released_bytes, 0);
        pool.recycle(Vec::with_capacity(n));
        let s = pool.stats();
        assert_eq!(s.released_bytes, bytes(class_ceil(n)));
        assert!(s.live_bytes + s.retained_bytes <= s.bound_bytes());
        // What is left does not include the first one given back.
        let left: Vec<_> = (0..9).map(|_| pool.take(n)).collect();
        assert_eq!(pool.stats().miss_bytes, 8 * bytes(class_ceil(n)));
        assert!(left.iter().all(|buf| buf.as_ptr() != oldest));
    }

    #[test]
    fn a_buffer_outlives_the_thread_that_gave_it() {
        let pool = Reservoir::new();
        let n = 3 * CUTOFF_ELEMS;
        let given_at = std::thread::scope(|s| {
            let giver = s.spawn(|| {
                let buf = pool.take(n);
                let at = buf.as_ptr() as usize;
                pool.give(buf);
                at
            });
            giver.join().expect("giver")
        });
        // The giving thread is gone; another one takes what it left.
        let taken_at = std::thread::scope(|s| {
            let taker = s.spawn(|| {
                let buf = pool.take(n);
                buf.as_ptr() as usize
            });
            taker.join().expect("taker")
        });
        assert_eq!(taken_at, given_at);
        let s = pool.stats();
        assert_eq!(
            (s.hit_bytes, s.miss_bytes),
            (s.miss_bytes, bytes(class_ceil(n)))
        );
    }

    #[test]
    fn counts_drain_once() {
        let pool = Reservoir::new();
        pool.give(pool.take(CUTOFF_ELEMS));
        pool.give(pool.take(CUTOFF_ELEMS));
        let first = pool.drain_counts();
        assert_eq!(first.hit_bytes, first.miss_bytes);
        assert!(first.miss_bytes > 0);
        let second = pool.drain_counts();
        assert_eq!(
            (second.hit_bytes, second.miss_bytes, second.released_bytes),
            (0, 0, 0)
        );
        assert_eq!(second.retained_bytes, first.retained_bytes);
    }

    /// What the model below knows about a buffer it holds.
    struct Held {
        buf: Vec<f32>,
        /// Counted as live by the reservoir (taken or adopted), as opposed
        /// to lent, released or allocated outside.
        counted: bool,
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        // Random takes, gives, adoptions, releases, loans and recycles of
        // mixed sizes on a private reservoir: the bound holds after every
        // operation, the live count is exactly what the holder has counted,
        // a taken buffer is empty and large enough, and sizes below the
        // cutoff never enter.
        #[test]
        fn the_bound_holds_after_every_operation(
            ops in proptest::collection::vec((0u8..7, 0usize..40, 0usize..4096), 1..160),
        ) {
            let pool = Reservoir::new();
            let mut held: Vec<Held> = Vec::new();
            let mut high_water = 0u64;
            for (op, scale, odd) in ops {
                // A quarter of the sizes sit below the cutoff.
                let n = CUTOFF_ELEMS * scale / 10 + odd;
                let before = pool.stats();
                // Which held buffer an op that needs one acts on.
                let pick = |counted: bool| held.iter().position(|h| h.counted == counted);
                match op {
                    0..=2 => {
                        let (buf, counted) = match op {
                            0 => (pool.take(n), true),
                            1 => (pool.take_scratch(n), true),
                            _ => (pool.lend(n), false),
                        };
                        prop_assert_eq!(buf.len(), 0);
                        prop_assert!(buf.capacity() >= n);
                        if n < CUTOFF_ELEMS {
                            prop_assert_eq!(pool.stats(), before, "a small take left a trace");
                        }
                        held.push(Held { buf, counted });
                    }
                    3 => {
                        if let Some(i) = pick(true) {
                            let small = held[i].buf.capacity() < CUTOFF_ELEMS;
                            pool.give(held.swap_remove(i).buf);
                            prop_assert!(!small || pool.stats() == before);
                        }
                    }
                    4 => {
                        let buf: Vec<f32> = Vec::with_capacity(n);
                        pool.adopt(buf.capacity());
                        held.push(Held { buf, counted: true });
                    }
                    5 => {
                        if let Some(i) = pick(true) {
                            pool.release(held[i].buf.capacity());
                            held[i].counted = false;
                        }
                    }
                    _ => {
                        if let Some(i) = pick(false) {
                            pool.recycle(held.swap_remove(i).buf);
                        }
                    }
                }
                let s = pool.stats();
                let counted: u64 = held
                    .iter()
                    .filter(|h| h.counted && h.buf.capacity() >= CUTOFF_ELEMS)
                    .map(|h| bytes(h.buf.capacity()))
                    .sum();
                prop_assert_eq!(s.live_bytes, counted);
                high_water = high_water.max(counted);
                prop_assert_eq!(s.high_water_bytes, high_water);
                prop_assert!(
                    s.live_bytes + s.retained_bytes <= s.bound_bytes(),
                    "live {} + retained {} > bound {}",
                    s.live_bytes, s.retained_bytes, s.bound_bytes()
                );
                prop_assert!(s.retained_peak_bytes >= s.retained_bytes);
            }
            for h in held {
                if h.counted {
                    pool.give(h.buf);
                }
            }
            prop_assert_eq!(pool.stats().live_bytes, 0);
        }
    }
}
