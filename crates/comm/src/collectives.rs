//! Collective algorithms over any [`Communicator`], one entry point per
//! collective and one body per algorithm, implemented exactly as they would
//! be over MPI point-to-point. Tensor collectives take the [`WireDType`]
//! their chunks travel in.
//!
//! * binomial-tree broadcast,
//! * the ring ([`RingAllreduce`]): reduce-scatter then all-gather, the
//!   bandwidth-optimal all-reduce used for data-parallel gradient averaging,
//! * recursive doubling, the latency-optimal all-reduce (blocking or
//!   failure-aware),
//! * pairwise-exchange all-to-all(v) — the naive baseline,
//! * **hierarchical all-to-all(v)** — the two-phase, supernode-aware
//!   algorithm: bundle by destination local index inside the supernode,
//!   then exchange aggregated bundles between supernodes. This turns
//!   `Θ(n)` small cross-supernode messages per rank into `Θ(n/s)` large
//!   ones, which is the communication contribution this reproduction
//!   studies (experiments E2/E3).

use crate::fault::CommError;
use crate::payload::{Payload, WireDType};
use crate::shm::{Communicator, ShmComm};
use bagualu_tensor::reservoir;
use std::convert::Infallible;
use std::time::Duration;

/// Element-wise reduction applied by reduce collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise addition.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    /// `acc[i] = op(acc[i], other[i])`.
    pub(crate) fn apply(self, acc: &mut [f32], other: &[f32]) {
        assert_eq!(acc.len(), other.len());
        match self {
            ReduceOp::Sum => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a += b;
                }
            }
            ReduceOp::Max => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = a.max(*b);
                }
            }
            ReduceOp::Min => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = a.min(*b);
                }
            }
        }
    }
}

/// Reserved tags, one per collective family. The transport classifies
/// traffic by these for [`crate::shm::CommStats`].
pub(crate) mod tags {
    pub(crate) const TAG_BCAST: u64 = 101;
    pub(crate) const TAG_RING: u64 = 102;
    pub(crate) const TAG_AG: u64 = 103;
    pub(crate) const TAG_A2A: u64 = 104;
    pub(crate) const TAG_H1_HDR: u64 = 105;
    pub(crate) const TAG_H1_DAT: u64 = 106;
    pub(crate) const TAG_H2_HDR: u64 = 107;
    pub(crate) const TAG_H2_DAT: u64 = 108;
    pub(crate) const TAG_A2A_U64: u64 = 109;
    pub(crate) const TAG_RD: u64 = 110;
    pub(crate) const TAG_A2A_U32: u64 = 111;
    /// Tag range for concurrently in-flight bucketed all-reduces; bucket
    /// `i` uses `TAG_BUCKET_BASE + i`, so at most
    /// `TAG_BUCKET_END - TAG_BUCKET_BASE` buckets may be in flight.
    pub(crate) const TAG_BUCKET_BASE: u64 = 0x1000;
    pub(crate) const TAG_BUCKET_END: u64 = 0x2000;
}

use tags::*;

/// Chunk boundary `i` of a buffer of `len` split across `n` ranks.
#[inline]
fn bound(len: usize, n: usize, i: usize) -> usize {
    len * i / n
}

// ------------------------------------------------------------------ broadcast

/// Binomial-tree broadcast. `msg` must be `Some` exactly at `root`; every
/// rank returns the broadcast buffer.
pub fn broadcast<C: Communicator>(c: &C, root: usize, msg: Option<Vec<f32>>) -> Vec<f32> {
    let n = c.size();
    let rank = c.rank();
    assert_eq!(
        rank == root,
        msg.is_some(),
        "msg must be Some exactly at root"
    );
    if n == 1 {
        return msg.unwrap();
    }
    let vrank = (rank + n - root) % n;
    let real = |v: usize| (v + root) % n;

    let mut buf = msg;
    let mut mask = 1usize;
    if vrank != 0 {
        // Receive at the lowest set bit of vrank.
        while mask < n {
            if vrank & mask != 0 {
                buf = Some(c.recv(real(vrank - mask), TAG_BCAST).into_f32());
                break;
            }
            mask <<= 1;
        }
    } else {
        mask = n.next_power_of_two();
    }
    let buf = buf.expect("broadcast: no data received");
    // Relay to lower-order children.
    mask >>= 1;
    while mask > 0 {
        if vrank & mask == 0 && vrank + mask < n && vrank & (mask - 1) == 0 {
            c.send(real(vrank + mask), TAG_BCAST, buf.clone().into());
        }
        mask >>= 1;
    }
    buf
}

// ------------------------------------------------------------------ allreduce

/// An incrementally drivable ring all-reduce: reduce-scatter then
/// all-gather, `2(n-1)` steps, each moving `len/n` elements.
///
/// The classic blocking loop is restructured as a stepper so callers can
/// interleave useful work between steps: [`RingAllreduce::start_wire`]
/// launches step 0, [`RingAllreduce::poll`] advances through every step
/// whose message has already arrived (never blocking), and
/// `RingAllreduce::finish` blocks through the remaining steps. Several
/// steppers with distinct tags may be in flight on one communicator — the
/// basis of [`bucketed_allreduce_wire`] and the trainer's overlapped
/// gradient sync.
pub struct RingAllreduce<C: Communicator> {
    data: Vec<f32>,
    op: ReduceOp,
    tag: u64,
    /// Element format on the wire. Each hop packs the outgoing chunk and
    /// expands the incoming one; the reduction itself accumulates in `f32`
    /// (`data` never stores 16-bit values), so compression costs exactly
    /// one rounding per hop — the same behavior a compressing switch or
    /// NIC would exhibit.
    wire: WireDType,
    /// Steps completed so far, in `0..=total`.
    step: usize,
    /// `2(n-1)` for an all-reduce (`n-1` when [`reduce_scatter`] stops it
    /// after the first half), `0` for a single rank.
    total: usize,
    pending: Option<C::RecvReq>,
}

impl<C: Communicator> RingAllreduce<C> {
    /// Begin the all-reduce: sends this rank's first chunk and posts the
    /// receive for step 0. Single-rank groups complete immediately. Chunks
    /// are packed to `wire` before every send and expanded back to `f32` on
    /// receipt, halving bytes in flight for the 16-bit formats.
    pub fn start_wire(
        c: &C,
        data: Vec<f32>,
        op: ReduceOp,
        tag: u64,
        wire: WireDType,
    ) -> RingAllreduce<C> {
        let total = 2 * (c.size() - 1);
        let mut ring = RingAllreduce {
            data,
            op,
            tag,
            wire,
            step: 0,
            total,
            pending: None,
        };
        if total > 0 {
            ring.launch(c);
        }
        ring
    }

    /// All steps completed; `into_data` may be called.
    pub(crate) fn is_done(&self) -> bool {
        self.step == self.total
    }

    /// Steps completed so far.
    pub fn steps_done(&self) -> usize {
        self.step
    }

    /// Total steps this all-reduce runs (`2(n-1)`; 0 when single-rank).
    pub fn steps_total(&self) -> usize {
        self.total
    }

    /// Send the chunk for the current step and post its receive.
    fn launch(&mut self, c: &C) {
        let n = c.size();
        let rank = c.rank();
        let len = self.data.len();
        let right = (rank + 1) % n;
        let left = (rank + n - 1) % n;
        let s = self.step;
        // Steps 0..n-1 are the reduce-scatter, n-1..2(n-1) the all-gather;
        // both send one chunk rightward and receive one from the left.
        let cs = if s < n - 1 {
            (rank + 2 * n - 1 - s) % n
        } else {
            (rank + n - (s - (n - 1))) % n
        };
        let window = &self.data[bound(len, n, cs)..bound(len, n, cs + 1)];
        let mut chunk = reservoir::global().lend(window.len());
        chunk.extend_from_slice(window);
        c.send(right, self.tag, Payload::pack(self.wire, chunk));
        self.pending = Some(c.irecv(left, self.tag));
    }

    /// Fold the received chunk into `data` and advance the step counter.
    fn complete(&mut self, c: &C, got: Vec<f32>) {
        let n = c.size();
        let rank = c.rank();
        let len = self.data.len();
        let s = self.step;
        let (reduce, cr) = if s < n - 1 {
            (true, (rank + 2 * n - 2 - s) % n)
        } else {
            (false, (rank + 2 * n - (s - (n - 1)) - 1) % n)
        };
        let dst = &mut self.data[bound(len, n, cr)..bound(len, n, cr + 1)];
        if reduce {
            self.op.apply(dst, &got);
        } else {
            dst.copy_from_slice(&got);
        }
        reservoir::global().recycle(got);
        self.step += 1;
        if self.step < self.total {
            self.launch(c);
        }
    }

    /// Advance through every step whose message has already arrived.
    /// Returns `true` once the all-reduce is complete. Never blocks.
    pub fn poll(&mut self, c: &C) -> bool {
        while let Some(mut req) = self.pending.take() {
            if c.test(&mut req) {
                let got = c.wait(req).into_floats();
                self.complete(c, got);
            } else {
                self.pending = Some(req);
                break;
            }
        }
        self.is_done()
    }

    /// Block through the remaining steps and return the reduced buffer.
    pub(crate) fn finish(mut self, c: &C) -> Vec<f32> {
        while let Some(req) = self.pending.take() {
            let got = c.wait(req).into_floats();
            self.complete(c, got);
        }
        debug_assert!(self.is_done());
        self.data
    }

    /// Extract the result of a completed all-reduce.
    pub fn into_data(self) -> Vec<f32> {
        assert!(self.is_done(), "ring all-reduce still has steps pending");
        self.data
    }
}

/// Ring all-reduce, blocking. Thin wrapper over [`RingAllreduce`];
/// bandwidth-optimal, the data-parallel gradient path of the trainer. Each
/// of the `2(n-1)` hops rounds its chunk to `wire` in flight while the
/// reduction accumulates in `f32`.
pub fn allreduce_wire<C: Communicator>(
    c: &C,
    data: Vec<f32>,
    op: ReduceOp,
    wire: WireDType,
) -> Vec<f32> {
    RingAllreduce::start_wire(c, data, op, TAG_RING, wire).finish(c)
}

/// Tag for bucket index `i`, one per concurrently in-flight bucket. Panics
/// past the reserved range instead of wrapping: the transport matches
/// receives by post order per `(src, tag)`, so two rings in flight on one
/// tag could be handed each other's chunks.
pub fn bucket_tag(i: usize) -> u64 {
    let tag = TAG_BUCKET_BASE + i as u64;
    assert!(
        tag < TAG_BUCKET_END,
        "bucket {i} is past the {} in-flight bucket tags",
        TAG_BUCKET_END - TAG_BUCKET_BASE
    );
    tag
}

/// Reduce several independent buffers ("buckets") with concurrently
/// in-flight ring all-reduces, each on its own tag and packing each hop to
/// `wire`. Equivalent to calling [`allreduce_wire`] per bucket, but the
/// rings progress together so one slow chunk does not serialize the rest.
/// Returns reduced buckets in order.
pub fn bucketed_allreduce_wire<C: Communicator>(
    c: &C,
    buckets: Vec<Vec<f32>>,
    op: ReduceOp,
    wire: WireDType,
) -> Vec<Vec<f32>> {
    assert!(
        buckets.len() as u64 <= TAG_BUCKET_END - TAG_BUCKET_BASE,
        "bucketed all-reduce: {} buckets exceed the {} in-flight bucket tags",
        buckets.len(),
        TAG_BUCKET_END - TAG_BUCKET_BASE
    );
    let mut rings: Vec<RingAllreduce<C>> = buckets
        .into_iter()
        .enumerate()
        .map(|(i, b)| RingAllreduce::start_wire(c, b, op, bucket_tag(i), wire))
        .collect();
    // Round-robin until everything has drained; yield between sweeps so
    // peer rank threads get scheduled.
    loop {
        let mut all_done = true;
        for ring in rings.iter_mut() {
            if !ring.poll(c) {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        std::thread::yield_now();
    }
    rings.into_iter().map(|r| r.into_data()).collect()
}

/// Recursive-doubling all-reduce: `⌈log₂ n⌉` rounds in which partners
/// `vrank ⊕ 2^k` exchange *full* buffers and reduce. Latency-optimal
/// (`Θ(log n)·α` vs the ring's `Θ(n)·α`) at the price of `log n` full-buffer
/// transfers — the right algorithm for the small, frequent reductions
/// (loss scalars, overflow flags, metrics) that pepper a training step.
///
/// Non-power-of-two sizes use the standard fold: the first `2·rem` ranks
/// pair up so `r = 2^⌊log₂ n⌋` virtual ranks run the doubling, then results
/// are sent back to the folded ranks.
pub fn allreduce_recursive_doubling<C: Communicator>(
    c: &C,
    data: Vec<f32>,
    op: ReduceOp,
) -> Vec<f32> {
    let Ok(data) = recursive_doubling::<_, Infallible>(c, data, op, |from| {
        Ok(c.recv(from, TAG_RD).into_f32())
    });
    data
}

/// The one recursive-doubling body (fold → doubling → unfold) on `TAG_RD`,
/// over a receive whose error type the caller picks: `Infallible` for the
/// blocking path, [`CommError`] for the failure-aware one. The first error
/// aborts the collective.
fn recursive_doubling<C: Communicator, E>(
    c: &C,
    mut data: Vec<f32>,
    op: ReduceOp,
    recv: impl Fn(usize) -> Result<Vec<f32>, E>,
) -> Result<Vec<f32>, E> {
    let send = |to: usize, v: Vec<f32>| c.send(to, TAG_RD, v.into());
    let n = c.size();
    if n == 1 {
        return Ok(data);
    }
    let rank = c.rank();
    let r = n.next_power_of_two() >> if n.is_power_of_two() { 0 } else { 1 };
    let rem = n - r;

    // Fold phase: even ranks below 2·rem hand their contribution to the odd
    // neighbour and sit out.
    let vrank = if rank < 2 * rem {
        if rank.is_multiple_of(2) {
            send(rank + 1, data.clone());
            None
        } else {
            let got = recv(rank - 1)?;
            op.apply(&mut data, &got);
            Some(rank / 2)
        }
    } else {
        Some(rank - rem)
    };

    if let Some(v) = vrank {
        let real = |v: usize| if v < rem { 2 * v + 1 } else { v + rem };
        let mut mask = 1usize;
        while mask < r {
            let partner = real(v ^ mask);
            send(partner, data.clone());
            let got = recv(partner)?;
            op.apply(&mut data, &got);
            mask <<= 1;
        }
    }

    // Unfold: odd ranks send the final result back to their even partner.
    if rank < 2 * rem {
        if rank.is_multiple_of(2) {
            data = recv(rank + 1)?;
        } else {
            send(rank - 1, data.clone());
        }
    }
    Ok(data)
}

/// Ring reduce-scatter: every rank contributes `data` (same length on all
/// ranks); rank `r` returns the fully reduced chunk `r` (the `bound(len,n,r)`
/// to `bound(len,n,r+1)` range). This is the first `n-1` steps of
/// [`RingAllreduce`] on `TAG_RING`.
pub fn reduce_scatter<C: Communicator>(c: &C, data: Vec<f32>, op: ReduceOp) -> Vec<f32> {
    let (n, rank) = (c.size(), c.rank());
    let len = data.len();
    let mut ring = RingAllreduce::start_wire(c, data, op, TAG_RING, WireDType::F32);
    // Stop before the all-gather half: after step n-2, rank r holds chunk r
    // fully reduced. Only step 0 is in flight yet, so no later step launches.
    ring.total = n - 1;
    let data = ring.finish(c);
    data[bound(len, n, rank)..bound(len, n, rank + 1)].to_vec()
}

// ------------------------------------------------------------------ allgather

/// Ring all-gather of variable-length per-rank buffers. Returns one buffer
/// per rank, indexed by rank.
pub fn allgather<C: Communicator>(c: &C, local: Vec<f32>) -> Vec<Vec<f32>> {
    let n = c.size();
    let rank = c.rank();
    let mut out: Vec<Vec<f32>> = vec![Vec::new(); n];
    if n == 1 {
        out[0] = local;
        return out;
    }
    let right = (rank + 1) % n;
    let left = (rank + n - 1) % n;
    out[rank] = local;
    for s in 0..n - 1 {
        let gs = (rank + n - s) % n;
        let gr = (rank + 2 * n - s - 1) % n;
        c.send(right, TAG_AG, out[gs].clone().into());
        out[gr] = c.recv(left, TAG_AG).into_f32();
    }
    out
}

// ------------------------------------------------------------------ all-to-all

/// Pairwise-exchange all-to-all(v). `parts[d]` is the buffer for rank `d`
/// (lengths may differ). Returns the received buffers indexed by source.
/// Every sent part is packed to `wire` and expanded on receipt. The
/// self-part never touches the wire and is returned unrounded, as on a real
/// machine where local traffic stays in memory.
pub fn alltoallv_wire<C: Communicator>(
    c: &C,
    parts: Vec<Vec<f32>>,
    wire: WireDType,
) -> Vec<Vec<f32>> {
    pairwise_exchange(
        c,
        parts,
        TAG_A2A,
        |p| Payload::pack(wire, p),
        Payload::into_floats,
    )
}

/// The one pairwise-exchange body: at step `s` every rank sends to
/// `rank + s` and receives from `rank - s` (mod `n`), so each ordered pair
/// exchanges once. `pack`/`unpack` wrap one part for the wire.
fn pairwise_exchange<C: Communicator, T>(
    c: &C,
    mut parts: Vec<Vec<T>>,
    tag: u64,
    pack: impl Fn(Vec<T>) -> Payload,
    unpack: impl Fn(Payload) -> Vec<T>,
) -> Vec<Vec<T>> {
    let n = c.size();
    assert_eq!(parts.len(), n, "all-to-all: need one part per rank");
    let rank = c.rank();
    let mut out: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    out[rank] = std::mem::take(&mut parts[rank]);
    for s in 1..n {
        let to = (rank + s) % n;
        let from = (rank + n - s) % n;
        c.send(to, tag, pack(std::mem::take(&mut parts[to])));
        out[from] = unpack(c.recv(from, tag));
    }
    out
}

/// Hierarchical (two-phase, supernode-aware) all-to-all(v).
///
/// Ranks are grouped into supernodes of `supernode_size` consecutive ranks
/// (`n` must divide evenly). Phase 1 exchanges *bundles* inside the
/// supernode, aggregated by destination local index; phase 2 exchanges
/// aggregated bundles between supernodes among same-local-index ranks.
/// Every message reaches its destination in exactly two hops, and the
/// number of cross-supernode messages per rank drops from `n - s` to
/// `n/s - 1`.
///
/// Semantics are identical to [`alltoallv_wire`]: returns received buffers
/// indexed by source rank. Data bundles of *both* phases are packed to
/// `wire` per message, so a value that crosses supernodes is rounded twice
/// (once per hop) — exactly what compressing each physical transfer
/// implies; headers stay `u64` (they are counts, not tensors).
pub fn alltoallv_hierarchical_wire<C: Communicator>(
    c: &C,
    parts: Vec<Vec<f32>>,
    supernode_size: usize,
    wire: WireDType,
) -> Vec<Vec<f32>> {
    let n = c.size();
    let s = supernode_size;
    assert!(
        s > 0 && n.is_multiple_of(s),
        "hierarchical a2a: {n} ranks must divide into supernodes of {s}"
    );
    let big_s = n / s; // number of supernodes
    if big_s == 1 {
        return alltoallv_wire(c, parts, wire);
    }
    assert_eq!(parts.len(), n);
    let rank = c.rank();
    let g = rank / s; // my supernode
    let l = rank % s; // my local index

    // ---- Phase 1: intra-supernode exchange, bundled by destination local
    // index. To local peer j send concat(parts[t*s + j] for t in 0..S),
    // with a u64 header of the S lengths.
    for j in 0..s {
        let peer = g * s + j;
        let bundle = (0..big_s).map(|t| &parts[t * s + j]);
        let header: Vec<u64> = bundle.clone().map(|p| p.len() as u64).collect();
        let mut data = reservoir::global().lend(header.iter().sum::<u64>() as usize);
        bundle.for_each(|p| data.extend_from_slice(p));
        c.send(peer, TAG_H1_HDR, header.into());
        c.send(peer, TAG_H1_DAT, Payload::pack(wire, data));
    }
    parts
        .into_iter()
        .for_each(|v| reservoir::global().recycle(v));
    // Receive the bundle from every local peer (including self).
    let mut h1: Vec<Vec<u64>> = Vec::with_capacity(s);
    let mut d1: Vec<Vec<f32>> = Vec::with_capacity(s);
    for jp in 0..s {
        let peer = g * s + jp;
        h1.push(c.recv(peer, TAG_H1_HDR).into_u64());
        d1.push(c.recv(peer, TAG_H1_DAT).into_floats());
    }

    // ---- Phase 2: inter-supernode exchange among same-local-index ranks.
    // To supernode t (rank t*s + l) send, for each local source jp, the
    // chunk of d1[jp] destined to supernode t.
    // Precompute chunk offsets in d1[jp].
    let offsets: Vec<Vec<usize>> = h1
        .iter()
        .map(|h| {
            let mut off = Vec::with_capacity(big_s + 1);
            let mut acc = 0usize;
            off.push(0);
            for &x in h {
                acc += x as usize;
                off.push(acc);
            }
            off
        })
        .collect();
    for t in 0..big_s {
        let peer = t * s + l;
        let chunk = |jp: usize| &d1[jp][offsets[jp][t]..offsets[jp][t + 1]];
        let header: Vec<u64> = (0..s).map(|jp| chunk(jp).len() as u64).collect();
        let mut data = reservoir::global().lend(header.iter().sum::<u64>() as usize);
        (0..s).for_each(|jp| data.extend_from_slice(chunk(jp)));
        c.send(peer, TAG_H2_HDR, header.into());
        c.send(peer, TAG_H2_DAT, Payload::pack(wire, data));
    }
    d1.into_iter().for_each(|v| reservoir::global().recycle(v));
    // Receive one bundle per supernode; unpack by source local index.
    let mut out: Vec<Vec<f32>> = vec![Vec::new(); n];
    for t in 0..big_s {
        let peer = t * s + l;
        let header = c.recv(peer, TAG_H2_HDR).into_u64();
        let data = c.recv(peer, TAG_H2_DAT).into_floats();
        let mut off = 0usize;
        for (jp, &len) in header.iter().enumerate() {
            let len = len as usize;
            let mut part = reservoir::global().lend(len);
            part.extend_from_slice(&data[off..off + len]);
            out[t * s + jp] = part;
            off += len;
        }
        reservoir::global().recycle(data);
    }
    out
}

/// Pairwise-exchange all-to-all(v) of `u64` metadata (routing tables,
/// expert ids, counts). Same semantics as [`alltoallv_wire`].
pub(crate) fn alltoallv_u64<C: Communicator>(c: &C, parts: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    pairwise_exchange(c, parts, TAG_A2A_U64, Payload::from, Payload::into_u64)
}

/// Pairwise-exchange all-to-all(v) of `u32` metadata — the compact header
/// channel for expert assignments and other ids that fit 4 bytes, halving
/// header traffic vs `alltoallv_u64`. Same semantics as [`alltoallv_wire`].
pub fn alltoallv_u32<C: Communicator>(c: &C, parts: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    pairwise_exchange(c, parts, TAG_A2A_U32, Payload::from, Payload::into_u32)
}

/// Sum-reduce a small `u64` vector across all ranks (every rank gets the
/// exact integer totals — no f32 rounding at any count). Each rank
/// broadcasts its vector to every peer and sums what it receives, which is
/// fine for the short control vectors this exists for: the serving
/// scheduler's per-step consensus on `[active, queued, stop]` counts.
/// Saturating adds keep a hostile count from wrapping.
pub fn allreduce_u64<C: Communicator>(c: &C, data: Vec<u64>) -> Vec<u64> {
    let n = c.size();
    let parts: Vec<Vec<u64>> = (0..n).map(|_| data.clone()).collect();
    let got = alltoallv_u64(c, parts);
    let mut out = vec![0u64; data.len()];
    for part in got {
        assert_eq!(
            part.len(),
            out.len(),
            "allreduce_u64: ranks disagree on vector length"
        );
        for (o, v) in out.iter_mut().zip(part) {
            *o = o.saturating_add(v);
        }
    }
    out
}

// ------------------------------------------------- failure-aware collectives

/// Recursive-doubling all-reduce that **detects silent peers** instead of
/// hanging: every receive carries `timeout`, and a dead peer is returned
/// as [`CommError::PeerDead`] instead of unwinding the rank.
/// Latency-optimal, so it doubles as the per-step heartbeat of the
/// fault-tolerant trainer — a returned error is the signal to abandon the
/// step and recover from a checkpoint.
///
/// The failure mode is detection, not completion: once any receive errors
/// the collective gives up (other ranks either also error or already have
/// their result). Callers must treat an `Err` as "this communicator is
/// compromised" and tear the world down — exactly what the checkpoint
/// restart loop does.
pub fn allreduce_ft(
    c: &ShmComm,
    data: Vec<f32>,
    op: ReduceOp,
    timeout: Duration,
) -> Result<Vec<f32>, CommError> {
    recursive_doubling(c, data, op, |from| {
        Ok(c.recv_timeout(from, TAG_RD, timeout)?.into_f32())
    })
}

/// Failure-aware barrier: an [`allreduce_ft`] over one scalar. Unlike the
/// transport barrier it returns an error instead of unwinding, and it also
/// notices a rank that is alive but silent.
pub fn barrier_ft(c: &ShmComm, timeout: Duration) -> Result<(), CommError> {
    allreduce_ft(c, vec![1.0], ReduceOp::Sum, timeout).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_ranks, run_ranks_map};

    #[test]
    fn broadcast_from_every_root() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            for root in [0, n / 2, n - 1] {
                run_ranks(n, |c| {
                    let msg = (c.rank() == root).then(|| vec![3.5f32, -1.0, root as f32]);
                    let got = broadcast(&c, root, msg);
                    assert_eq!(got, vec![3.5, -1.0, root as f32], "n={n} root={root}");
                });
            }
        }
    }

    #[test]
    fn allreduce_sum_matches_reference() {
        for n in [1usize, 2, 3, 4, 7, 8] {
            let len = 23;
            run_ranks(n, |c| {
                let data: Vec<f32> = (0..len).map(|i| (c.rank() * len + i) as f32).collect();
                let out = allreduce_wire(&c, data, ReduceOp::Sum, WireDType::F32);
                for (i, &v) in out.iter().enumerate() {
                    let expect: f32 = (0..n).map(|r| (r * len + i) as f32).sum();
                    assert_eq!(v, expect, "n={n} i={i}");
                }
            });
        }
    }

    #[test]
    fn allreduce_max_and_min() {
        run_ranks(5, |c| {
            let data = vec![c.rank() as f32, -(c.rank() as f32)];
            let mx = allreduce_wire(&c, data.clone(), ReduceOp::Max, WireDType::F32);
            assert_eq!(mx, vec![4.0, 0.0]);
            let mn = allreduce_wire(&c, data, ReduceOp::Min, WireDType::F32);
            assert_eq!(mn, vec![0.0, -4.0]);
        });
    }

    #[test]
    fn recursive_doubling_matches_ring() {
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 11, 16] {
            let len = 17;
            run_ranks(n, |c| {
                let data: Vec<f32> = (0..len)
                    .map(|i| ((c.rank() * 13 + i * 3) % 7) as f32)
                    .collect();
                let ring = allreduce_wire(&c, data.clone(), ReduceOp::Sum, WireDType::F32);
                let rd = allreduce_recursive_doubling(&c, data, ReduceOp::Sum);
                for (a, b) in ring.iter().zip(&rd) {
                    assert!((a - b).abs() < 1e-4, "n={n}: {a} vs {b}");
                }
            });
        }
    }

    #[test]
    fn recursive_doubling_max() {
        run_ranks(6, |c| {
            let out = allreduce_recursive_doubling(&c, vec![c.rank() as f32], ReduceOp::Max);
            assert_eq!(out, vec![5.0]);
        });
    }

    #[test]
    fn allreduce_short_buffer() {
        // len < n: some chunks are empty; the ring must still work.
        run_ranks(8, |c| {
            let out = allreduce_wire(&c, vec![1.0f32, 2.0], ReduceOp::Sum, WireDType::F32);
            assert_eq!(out, vec![8.0, 16.0]);
        });
    }

    #[test]
    fn reduce_scatter_gives_each_rank_its_chunk() {
        let n = 4;
        let len = 8;
        let outs = run_ranks_map(n, |c| {
            let data: Vec<f32> = (0..len).map(|i| i as f32).collect();
            reduce_scatter(&c, data, ReduceOp::Sum)
        });
        for (r, out) in outs.iter().enumerate() {
            let lo = len * r / n;
            let hi = len * (r + 1) / n;
            let expect: Vec<f32> = (lo..hi).map(|i| (i * n) as f32).collect();
            assert_eq!(out, &expect, "rank {r}");
        }
    }

    #[test]
    fn allgather_variable_lengths() {
        run_ranks(5, |c| {
            let local = vec![c.rank() as f32; c.rank() + 1];
            let all = allgather(&c, local);
            for (r, buf) in all.iter().enumerate() {
                assert_eq!(buf, &vec![r as f32; r + 1]);
            }
        });
    }

    #[test]
    fn alltoallv_routes_correctly() {
        for n in [1usize, 2, 4, 6] {
            run_ranks(n, |c| {
                // parts[d] = [rank, d] so the receiver can verify both ends.
                let parts: Vec<Vec<f32>> =
                    (0..n).map(|d| vec![c.rank() as f32, d as f32]).collect();
                let got = alltoallv_wire(&c, parts, WireDType::F32);
                for (src, buf) in got.iter().enumerate() {
                    assert_eq!(buf, &vec![src as f32, c.rank() as f32]);
                }
            });
        }
    }

    #[test]
    fn alltoallv_with_empty_parts() {
        run_ranks(4, |c| {
            // Only send to rank 0.
            let parts: Vec<Vec<f32>> = (0..4)
                .map(|d| {
                    if d == 0 {
                        vec![c.rank() as f32]
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            let got = alltoallv_wire(&c, parts, WireDType::F32);
            if c.rank() == 0 {
                for (src, buf) in got.iter().enumerate() {
                    assert_eq!(buf, &vec![src as f32]);
                }
            } else {
                assert!(got.iter().all(|b| b.is_empty()));
            }
        });
    }

    #[test]
    fn hierarchical_matches_flat_alltoallv() {
        // 8 ranks in supernodes of 4, variable message sizes.
        let n = 8;
        run_ranks(n, |c| {
            let parts: Vec<Vec<f32>> = (0..n)
                .map(|d| {
                    let len = (c.rank() + d) % 3; // sizes 0..=2
                    vec![(c.rank() * 100 + d) as f32; len]
                })
                .collect();
            let flat = alltoallv_wire(&c, parts.clone(), WireDType::F32);
            let hier = alltoallv_hierarchical_wire(&c, parts, 4, WireDType::F32);
            assert_eq!(flat, hier, "rank {}", c.rank());
        });
    }

    #[test]
    fn hierarchical_single_supernode_degenerates() {
        run_ranks(4, |c| {
            let parts: Vec<Vec<f32>> = (0..4).map(|d| vec![d as f32]).collect();
            let got = alltoallv_hierarchical_wire(&c, parts, 4, WireDType::F32);
            for buf in got.iter() {
                assert_eq!(buf, &vec![c.rank() as f32]);
            }
        });
    }

    #[test]
    fn hierarchical_many_supernodes() {
        // 12 ranks, supernodes of 2 — exercises S > s.
        let n = 12;
        run_ranks(n, |c| {
            let parts: Vec<Vec<f32>> = (0..n).map(|d| vec![(c.rank() * n + d) as f32]).collect();
            let got = alltoallv_hierarchical_wire(&c, parts, 2, WireDType::F32);
            for (src, buf) in got.iter().enumerate() {
                assert_eq!(buf, &vec![(src * n + c.rank()) as f32]);
            }
        });
    }

    #[test]
    fn hierarchical_sends_fewer_cross_messages() {
        use crate::harness::run_ranks_ft;
        use crate::shm::World;
        let n = 16;
        let mk_parts =
            |rank: usize| -> Vec<Vec<f32>> { (0..n).map(|_| vec![rank as f32; 4]).collect() };
        let msgs = |hierarchical: bool| {
            let world = World::new(n);
            run_ranks_ft(&world, |c| {
                let parts = mk_parts(c.rank());
                Ok(if hierarchical {
                    alltoallv_hierarchical_wire(&c, parts, 4, WireDType::F32)
                } else {
                    alltoallv_wire(&c, parts, WireDType::F32)
                })
            });
            world.stats().total_msgs
        };
        let (flat_msgs, hier_msgs) = (msgs(false), msgs(true));
        // Flat: n*(n-1) = 240 payload messages. Hierarchical: n*(s + S) pairs
        // × 2 messages (header+data) = 16*8*2 = 256 — but only n*S = 64 of
        // those transfers cross supernodes vs n*(n-s) = 192 for flat.
        // The headline metric is cross-supernode *transfers*; message count
        // sanity-checks the implementation.
        assert_eq!(flat_msgs, (n * (n - 1)) as u64);
        assert_eq!(hier_msgs, (n * (4 + 4) * 2) as u64);
    }

    #[test]
    fn stepper_matches_blocking_allreduce() {
        for n in [1usize, 2, 3, 5, 8] {
            let len = 29;
            run_ranks(n, |c| {
                let data: Vec<f32> = (0..len).map(|i| ((c.rank() * 7 + i) % 11) as f32).collect();
                let blocking = allreduce_wire(&c, data.clone(), ReduceOp::Sum, WireDType::F32);
                // Drive the stepper purely through poll() to exercise the
                // incremental path end to end.
                let mut ring = RingAllreduce::start_wire(
                    &c,
                    data,
                    ReduceOp::Sum,
                    bucket_tag(0),
                    WireDType::F32,
                );
                assert_eq!(ring.steps_total(), if n > 1 { 2 * (n - 1) } else { 0 });
                while !ring.poll(&c) {
                    std::thread::yield_now();
                }
                assert_eq!(ring.steps_done(), ring.steps_total());
                assert_eq!(ring.into_data(), blocking, "n={n}");
            });
        }
    }

    #[test]
    fn bucketed_matches_per_bucket_allreduce() {
        for n in [1usize, 2, 4] {
            run_ranks(n, |c| {
                // Buckets of different lengths, incl. an empty one.
                let buckets: Vec<Vec<f32>> = [13usize, 0, 7, 64]
                    .iter()
                    .enumerate()
                    .map(|(b, &len)| {
                        (0..len)
                            .map(|i| (c.rank() * 31 + b * 5 + i) as f32)
                            .collect()
                    })
                    .collect();
                let expect: Vec<Vec<f32>> = buckets
                    .iter()
                    .map(|b| allreduce_wire(&c, b.clone(), ReduceOp::Sum, WireDType::F32))
                    .collect();
                let got = bucketed_allreduce_wire(&c, buckets, ReduceOp::Sum, WireDType::F32);
                assert_eq!(got, expect, "n={n}");
            });
        }
    }

    #[test]
    fn concurrent_rings_on_distinct_tags_do_not_cross_talk() {
        run_ranks(4, |c| {
            let a: Vec<f32> = vec![c.rank() as f32; 16];
            let b: Vec<f32> = vec![(c.rank() * 10) as f32; 16];
            let mut ra =
                RingAllreduce::start_wire(&c, a, ReduceOp::Sum, bucket_tag(0), WireDType::F32);
            let mut rb =
                RingAllreduce::start_wire(&c, b, ReduceOp::Sum, bucket_tag(1), WireDType::F32);
            loop {
                let da = ra.poll(&c);
                let db = rb.poll(&c);
                if da && db {
                    break;
                }
                std::thread::yield_now();
            }
            assert_eq!(ra.into_data(), vec![6.0; 16]);
            assert_eq!(rb.into_data(), vec![60.0; 16]);
        });
    }

    #[test]
    fn allreduce_u64_sums_exactly() {
        for n in [1usize, 2, 3, 4, 7] {
            run_ranks(n, |c| {
                let r = c.rank() as u64;
                // Values above 2^24 would lose bits through an f32 path.
                let out = allreduce_u64(&c, vec![r + 1, 1 << 40, 0]);
                assert_eq!(out[0], (n * (n + 1) / 2) as u64, "n={n}");
                assert_eq!(out[1], (n as u64) << 40);
                assert_eq!(out[2], 0);
            });
        }
    }

    #[test]
    fn reduce_op_apply() {
        let mut a = vec![1.0, 5.0, -2.0];
        ReduceOp::Sum.apply(&mut a, &[1.0, 1.0, 1.0]);
        assert_eq!(a, vec![2.0, 6.0, -1.0]);
        ReduceOp::Max.apply(&mut a, &[0.0, 10.0, 0.0]);
        assert_eq!(a, vec![2.0, 10.0, 0.0]);
        ReduceOp::Min.apply(&mut a, &[3.0, 3.0, 3.0]);
        assert_eq!(a, vec![2.0, 3.0, 0.0]);
    }

    #[test]
    fn ft_collectives_match_plain_ones_without_faults() {
        let t = Duration::from_secs(10);
        for n in [1usize, 2, 3, 4, 5, 7, 8, 11, 16] {
            run_ranks(n, |c| {
                // Non-integer data: only the same fold and summation order
                // reproduce the blocking result bit for bit.
                let data: Vec<f32> = (0..9)
                    .map(|i| (c.rank() as f32 + 1.0) / (i as f32 + 3.0))
                    .collect();
                let got = allreduce_ft(&c, data.clone(), ReduceOp::Sum, t)
                    .expect("no faults, must succeed");
                let want = allreduce_recursive_doubling(&c, data, ReduceOp::Sum);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "allreduce_ft n={n}");

                barrier_ft(&c, t).expect("barrier_ft");
            });
        }
    }

    #[test]
    #[should_panic(expected = "bucket 4096 is past the 4096 in-flight bucket tags")]
    fn bucket_tag_refuses_to_wrap() {
        assert_eq!(bucket_tag(4095), TAG_BUCKET_END - 1);
        bucket_tag(4096);
    }

    #[test]
    fn ft_allreduce_detects_a_crashed_rank() {
        use crate::harness::{run_ranks_ft, RankOutcome};
        use crate::shm::World;
        let world = World::new(4);
        let outcomes = run_ranks_ft(&world, |c| {
            if c.rank() == 2 {
                panic!("injected crash before the collective");
            }
            allreduce_ft(&c, vec![1.0; 4], ReduceOp::Sum, Duration::from_secs(5))
        });
        assert!(matches!(outcomes[2], RankOutcome::Crashed(_)));
        // Every survivor detects the failure (PeerDead directly, or a
        // timeout if its partner aborted mid-collective) — nobody hangs.
        for (r, o) in outcomes.iter().enumerate() {
            if r != 2 {
                assert!(
                    matches!(o, RankOutcome::TimedOut(_)),
                    "rank {r} should have detected the crash: {o:?}"
                );
            }
        }
    }

    #[test]
    fn alltoallv_u32_routes_correctly() {
        for n in [1usize, 2, 5] {
            run_ranks(n, |c| {
                let parts: Vec<Vec<u32>> =
                    (0..n).map(|d| vec![c.rank() as u32, d as u32]).collect();
                let got = alltoallv_u32(&c, parts);
                for (src, buf) in got.iter().enumerate() {
                    assert_eq!(buf, &vec![src as u32, c.rank() as u32]);
                }
            });
        }
    }

    #[test]
    fn compressed_allreduce_tracks_f32_within_rounding() {
        // Values in [-2, 2): bf16 carries an 8-bit significand, so each of
        // the ≤ 2(n-1)+1 roundings a summand can see contributes ≲ 2^-8
        // relative error.
        for n in [2usize, 3, 5, 8] {
            run_ranks(n, |c| {
                let data: Vec<f32> = (0..50)
                    .map(|i| ((c.rank() * 7 + i * 3) % 32) as f32 / 8.0 - 2.0)
                    .collect();
                let exact = allreduce_wire(&c, data.clone(), ReduceOp::Sum, WireDType::F32);
                for wire in [WireDType::F16, WireDType::BF16] {
                    let approx = allreduce_wire(&c, data.clone(), ReduceOp::Sum, wire);
                    let eps = match wire {
                        WireDType::F16 => f32::exp2(-11.0),
                        _ => f32::exp2(-8.0),
                    };
                    let hops = (2 * (n - 1) + 1) as f32;
                    for (e, a) in exact.iter().zip(&approx) {
                        let tol = hops * eps * (2.0 * n as f32) + 1e-6;
                        assert!(
                            (e - a).abs() <= tol,
                            "n={n} wire={wire}: exact={e} approx={a} tol={tol}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn hierarchical_wire_matches_single_round_trip_per_value_or_two() {
        // Every element routed through the compressed hierarchical a2a is
        // the result of at most two wire round trips of its original value
        // (phase 1 and phase 2); values already representable in bf16 must
        // come back bit-exact.
        let n = 8;
        run_ranks(n, |c| {
            // Values < 128 fit bf16's 8-bit significand exactly, so even
            // two per-hop roundings must return them unchanged.
            let parts: Vec<Vec<f32>> = (0..n)
                .map(|d| vec![(c.rank() * 16 + d) as f32; (c.rank() + d) % 3])
                .collect();
            let exact = alltoallv_wire(&c, parts.clone(), WireDType::F32);
            let wired = alltoallv_hierarchical_wire(&c, parts, 4, WireDType::BF16);
            for (src, (e, w)) in exact.iter().zip(&wired).enumerate() {
                assert_eq!(e.len(), w.len(), "src {src}");
                for (x, y) in e.iter().zip(w) {
                    assert_eq!(x, y, "src {src}");
                }
            }
        });
    }

    #[test]
    fn compressed_ring_halves_payload_bytes() {
        use crate::shm::World;
        let n = 4;
        let len = 64; // divisible by n → equal 16-element chunks
        for (wire, per_elem) in [(WireDType::F32, 4u64), (WireDType::BF16, 2u64)] {
            let world = World::new(n);
            let comms = world.comms();
            std::thread::scope(|s| {
                for c in comms {
                    s.spawn(move || {
                        let data = vec![c.rank() as f32; len];
                        allreduce_wire(&c, data, ReduceOp::Sum, wire);
                    });
                }
            });
            // 2(n-1) hops per rank, len/n elements per hop.
            let expect = (n as u64) * 2 * (n as u64 - 1) * (len as u64 / n as u64) * per_elem;
            assert_eq!(world.stats().total_bytes, expect, "wire={wire}");
        }
    }

    #[test]
    fn ft_allreduce_times_out_on_a_dropped_message() {
        use crate::fault::FaultPlan;
        use crate::harness::{run_ranks_ft, RankOutcome};
        use crate::shm::World;
        use std::sync::Arc;
        // Drop rank 1's first message: rank 0's receive must time out (or
        // see rank 1 abort), never hang.
        let rt = crate::fault::FaultRuntime::new(FaultPlan::new(3).drop_nth(1, 0), 2);
        let world = World::new_with_faults(2, Arc::new(rt));
        let outcomes = run_ranks_ft(&world, |c| {
            allreduce_ft(&c, vec![1.0], ReduceOp::Sum, Duration::from_millis(200))
        });
        assert!(
            outcomes
                .iter()
                .any(|o| matches!(o, RankOutcome::TimedOut(_))),
            "a dropped message must surface as a timeout: {outcomes:?}"
        );
        assert_eq!(world.fault_stats().expect("plan armed").dropped, 1);
    }
}
