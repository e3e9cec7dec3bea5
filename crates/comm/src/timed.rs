//! Virtual-time accounting over any communicator.
//!
//! Functional runs execute on OS threads whose wall-clock says nothing
//! about the target machine. [`TimedComm`] wraps a communicator and
//! charges every message the α–β cost it would have on a configured
//! topology (per-rank virtual clocks, receiver waits for sender), so a
//! *functional* training step also yields the *simulated* communication
//! time it would spend on the machine — per rank, per collective family.
//!
//! The α–β constants come in through [`LinkCost`], a trait the caller
//! implements (in practice from `bagualu_hw::NetworkParams`; this crate
//! stays independent of the hardware crate).

use crate::fault::{CommError, FtCommunicator};
use crate::payload::Payload;
use crate::shm::{CommStats, Communicator};
use parking_lot::Mutex;
use std::sync::Arc;

/// Cost of moving `bytes` between two ranks, seconds.
pub trait LinkCost: Send + Sync {
    /// Seconds charged for moving `bytes` from rank `from` to rank `to`.
    fn cost(&self, from: usize, to: usize, bytes: usize) -> f64;
}

/// Simple two-level α–β cost: ranks in the same `supernode_size` block use
/// the intra constants, others the inter constants.
#[derive(Debug, Clone, Copy)]
pub struct TwoLevelCost {
    /// Ranks per supernode block (intra-block links are the fast ones).
    pub(crate) supernode_size: usize,
    /// Intra-block latency, seconds.
    pub(crate) alpha_intra: f64,
    /// Intra-block inverse bandwidth, seconds per byte.
    pub(crate) beta_intra: f64,
    /// Inter-block latency, seconds.
    pub(crate) alpha_inter: f64,
    /// Inter-block inverse bandwidth, seconds per byte.
    pub(crate) beta_inter: f64,
}

impl TwoLevelCost {
    /// Constants mirroring `bagualu_hw::NetworkParams::sunway()`.
    pub fn sunway_like(supernode_size: usize) -> TwoLevelCost {
        TwoLevelCost {
            supernode_size,
            alpha_intra: 2.5e-6,
            beta_intra: 1.0 / 16.0e9,
            alpha_inter: 4.5e-6,
            beta_inter: 1.0 / 4.0e9,
        }
    }
}

impl LinkCost for TwoLevelCost {
    fn cost(&self, from: usize, to: usize, bytes: usize) -> f64 {
        if from == to {
            return 0.0;
        }
        let same = from / self.supernode_size == to / self.supernode_size;
        if same {
            self.alpha_intra + bytes as f64 * self.beta_intra
        } else {
            self.alpha_inter + bytes as f64 * self.beta_inter
        }
    }
}

/// Shared virtual clocks, one per rank.
struct Clocks {
    now: Mutex<Vec<f64>>,
}

/// A communicator that forwards to `inner` while accumulating virtual
/// communication time on per-rank clocks.
///
/// Timing rule (a standard LogP-style approximation): a message from `s`
/// to `r` arrives at `max(clock_s, clock_r) + cost(s, r, bytes)`; the
/// receive advances the receiver's clock to the arrival time. Sends are
/// asynchronous and do not advance the sender.
pub struct TimedComm<C: Communicator, L: LinkCost> {
    inner: C,
    cost: Arc<L>,
    clocks: Arc<Clocks>,
}

impl<C: Communicator, L: LinkCost> TimedComm<C, L> {
    /// Wrap a full set of communicators (one per rank) with shared clocks.
    pub fn wrap_all(comms: Vec<C>, cost: L) -> Vec<TimedComm<C, L>> {
        let n = comms.len();
        let clocks = Arc::new(Clocks {
            now: Mutex::new(vec![0.0; n]),
        });
        let cost = Arc::new(cost);
        comms
            .into_iter()
            .map(|inner| TimedComm {
                inner,
                cost: cost.clone(),
                clocks: clocks.clone(),
            })
            .collect()
    }

    /// Maximum virtual time across all ranks (the collective's makespan).
    pub fn virtual_makespan(&self) -> f64 {
        self.clocks.now.lock().iter().cloned().fold(0.0, f64::max)
    }
}

/// A pending receive on a [`TimedComm`]: the two inner requests (timing
/// header + payload) plus the virtual *post* time.
///
/// The timing rule makes overlap visible in simulated time: the message's
/// transfer is charged from `max(send_time, posted_at)` — the moment both
/// endpoints were ready — **not** from the receiver's clock at `wait`. A
/// receiver that posts several `irecv`s early and waits later therefore
/// pays the transfer costs concurrently (its clock advances to the max of
/// the arrivals), whereas back-to-back blocking `recv`s serialize them.
pub struct TimedRecv<R> {
    hdr: Option<R>,
    dat: Option<R>,
    src: usize,
    posted_at: f64,
    /// Parsed from the header once it lands.
    send_time: f64,
    bytes: usize,
    hdr_done: bool,
    /// Set once both inner requests have completed.
    arrival: Option<f64>,
    payload: Option<Payload>,
}

impl<C: Communicator, L: LinkCost> TimedComm<C, L> {
    /// Compute arrival and buffer the payload once both halves are in.
    fn complete_recv(&self, req: &mut TimedRecv<C::RecvReq>, payload: Payload) {
        let me = self.inner.rank();
        let ready = self.cost.cost(req.src, me, req.bytes);
        req.arrival = Some(req.send_time.max(req.posted_at) + ready);
        req.payload = Some(payload);
    }
}

impl<C: Communicator, L: LinkCost> Communicator for TimedComm<C, L> {
    type RecvReq = TimedRecv<C::RecvReq>;

    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, dst: usize, tag: u64, payload: Payload) {
        // Stamp the virtual send time into the message path: the receiver
        // will fold it in when it receives. We piggyback by advancing the
        // receiver-side bookkeeping at receive time instead, which needs the
        // sender's clock; capture it now into a side-channel message.
        let bytes = payload.wire_bytes();
        {
            let clocks = self.clocks.now.lock();
            let send_time = clocks[self.inner.rank()];
            drop(clocks);
            // Header carries (send_time_bits, bytes) for the timing fold.
            self.inner.send(
                dst,
                tag ^ TIME_TAG_XOR,
                vec![send_time.to_bits(), bytes as u64].into(),
            );
        }
        self.inner.send(dst, tag, payload);
    }

    fn recv(&self, src: usize, tag: u64) -> Payload {
        // Blocking receive ≡ wait(irecv(..)): posted_at equals the clock at
        // the call, reproducing the original `max(send_time, clock) + cost`
        // rule exactly.
        let req = self.irecv(src, tag);
        self.wait(req)
    }

    fn irecv(&self, src: usize, tag: u64) -> TimedRecv<C::RecvReq> {
        let posted_at = self.clocks.now.lock()[self.inner.rank()];
        TimedRecv {
            hdr: Some(self.inner.irecv(src, tag ^ TIME_TAG_XOR)),
            dat: Some(self.inner.irecv(src, tag)),
            src,
            posted_at,
            send_time: 0.0,
            bytes: 0,
            hdr_done: false,
            arrival: None,
            payload: None,
        }
    }

    fn test(&self, req: &mut TimedRecv<C::RecvReq>) -> bool {
        if req.payload.is_some() {
            return true;
        }
        if !req.hdr_done {
            let mut hdr = req.hdr.take().expect("header request present");
            if !self.inner.test(&mut hdr) {
                req.hdr = Some(hdr);
                return false;
            }
            let parsed = self.inner.wait(hdr).into_u64();
            req.send_time = f64::from_bits(parsed[0]);
            req.bytes = parsed[1] as usize;
            req.hdr_done = true;
        }
        let mut dat = req.dat.take().expect("payload request present");
        if !self.inner.test(&mut dat) {
            req.dat = Some(dat);
            return false;
        }
        let payload = self.inner.wait(dat);
        self.complete_recv(req, payload);
        true
    }

    fn wait(&self, mut req: TimedRecv<C::RecvReq>) -> Payload {
        if req.payload.is_none() {
            if !req.hdr_done {
                let parsed = self
                    .inner
                    .wait(req.hdr.take().expect("header request present"))
                    .into_u64();
                req.send_time = f64::from_bits(parsed[0]);
                req.bytes = parsed[1] as usize;
                req.hdr_done = true;
            }
            let payload = self
                .inner
                .wait(req.dat.take().expect("payload request present"));
            self.complete_recv(&mut req, payload);
        }
        let arrival = req.arrival.expect("completed request has an arrival time");
        let me = self.inner.rank();
        let mut clocks = self.clocks.now.lock();
        clocks[me] = clocks[me].max(arrival);
        req.payload.expect("completed request has a payload")
    }

    fn barrier(&self) {
        self.inner.barrier();
        // A barrier synchronizes virtual clocks to the slowest rank.
        let mut clocks = self.clocks.now.lock();
        let max = clocks.iter().cloned().fold(0.0, f64::max);
        clocks.iter_mut().for_each(|c| *c = max);
    }

    fn stats(&self) -> Option<CommStats> {
        self.inner.stats()
    }

    fn set_supernode_size(&self, supernode_size: usize) {
        // Byte accounting lives in the inner transport; the virtual-time
        // layer already charges intra- vs inter-supernode α/β through its
        // `TwoLevelCost` link model.
        self.inner.set_supernode_size(supernode_size);
    }

    fn send_occupancy_ns(&self) -> Option<u64> {
        self.inner.send_occupancy_ns()
    }
}

impl<C: FtCommunicator, L: LinkCost> FtCommunicator for TimedComm<C, L> {
    /// Deadline receive that still charges virtual time on success. The
    /// deadline is wall-clock (failure detection runs on the host), the
    /// charge on success is virtual (the modeled machine).
    fn recv_timeout(
        &self,
        src: usize,
        tag: u64,
        timeout: std::time::Duration,
    ) -> Result<Payload, CommError> {
        let posted_at = self.clocks.now.lock()[self.inner.rank()];
        let start = std::time::Instant::now();
        // Report the caller's logical tag in errors, not the header tag.
        let logical_tag = |e| match e {
            CommError::Timeout { src, waited_ms, .. } => CommError::Timeout {
                src,
                tag,
                waited_ms,
            },
            other => other,
        };
        let hdr = self
            .inner
            .recv_timeout(src, tag ^ TIME_TAG_XOR, timeout)
            .map_err(logical_tag)?
            .into_u64();
        let send_time = f64::from_bits(hdr[0]);
        let bytes = hdr[1] as usize;
        let remaining = timeout.saturating_sub(start.elapsed());
        let payload = self.inner.recv_timeout(src, tag, remaining)?;
        let me = self.inner.rank();
        let arrival = send_time.max(posted_at) + self.cost.cost(src, me, bytes);
        let mut clocks = self.clocks.now.lock();
        clocks[me] = clocks[me].max(arrival);
        Ok(payload)
    }

    fn try_send(&self, dst: usize, tag: u64, payload: Payload) -> Result<(), CommError> {
        if self.inner.is_dead(dst) {
            return Err(CommError::PeerDead { peer: dst });
        }
        self.send(dst, tag, payload);
        Ok(())
    }

    fn mark_self_dead(&self) {
        self.inner.mark_self_dead();
    }

    fn is_dead(&self, group_rank: usize) -> bool {
        self.inner.is_dead(group_rank)
    }
}

/// Tag-space split for the timing headers (flips a high bit that the
/// collectives' tag constants never use).
pub(crate) const TIME_TAG_XOR: u64 = 1 << 62;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{
        allreduce_wire, alltoallv_hierarchical_wire, alltoallv_wire, ReduceOp,
    };
    use crate::payload::WireDType;
    use crate::shm::World;

    impl<C: Communicator, L: LinkCost> TimedComm<C, L> {
        /// This rank's virtual communication time so far, seconds.
        fn virtual_time(&self) -> f64 {
            self.clocks.now.lock()[self.inner.rank()]
        }
    }

    fn run_timed<F, R>(n: usize, sn: usize, f: F) -> Vec<R>
    where
        F: Fn(&TimedComm<crate::shm::ShmComm, TwoLevelCost>) -> R + Send + Sync,
        R: Send,
    {
        let world = World::new(n);
        let comms = TimedComm::wrap_all(world.comms(), TwoLevelCost::sunway_like(sn));
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = comms.iter().map(|c| s.spawn(move || f(c))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn point_to_point_charges_alpha_beta() {
        let times = run_timed(2, 2, |c| {
            if c.rank() == 0 {
                c.send(1, 5, vec![0.0f32; 1000].into());
                0.0
            } else {
                c.recv(0, 5).into_f32();
                c.virtual_time()
            }
        });
        let cost = TwoLevelCost::sunway_like(2);
        let expect = cost.alpha_intra + 4000.0 * cost.beta_intra;
        assert!(
            (times[1] - expect).abs() < 1e-12,
            "{} vs {expect}",
            times[1]
        );
    }

    #[test]
    fn cross_supernode_costs_more() {
        let t_near = run_timed(4, 4, |c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![0.0f32; 1 << 12].into());
            } else if c.rank() == 1 {
                c.recv(0, 1);
                return c.virtual_time();
            }
            0.0
        })[1];
        let t_far = run_timed(4, 2, |c| {
            // supernodes of 2: rank 0 → rank 3 crosses.
            if c.rank() == 0 {
                c.send(3, 1, vec![0.0f32; 1 << 12].into());
            } else if c.rank() == 3 {
                c.recv(0, 1);
                return c.virtual_time();
            }
            0.0
        })[3];
        assert!(t_far > t_near * 2.0, "{t_far} vs {t_near}");
    }

    #[test]
    fn collectives_run_and_accumulate_makespan() {
        let makespans = run_timed(8, 4, |c| {
            let out = allreduce_wire(c, vec![c.rank() as f32; 64], ReduceOp::Sum, WireDType::F32);
            assert_eq!(out[0], 28.0);
            c.barrier();
            c.virtual_makespan()
        });
        // Every rank agrees after the barrier, and time passed.
        assert!(makespans[0] > 0.0);
        for m in &makespans {
            assert!((m - makespans[0]).abs() < 1e-15);
        }
    }

    #[test]
    fn hierarchical_a2a_beats_pairwise_in_virtual_time() {
        // At 16 ranks with tiny messages, fewer cross-supernode messages
        // must show up as less virtual time — the functional counterpart of
        // the E3 projection, measured on the real algorithms.
        let n = 16;
        let mk = |rank: usize| -> Vec<Vec<f32>> { (0..n).map(|_| vec![rank as f32; 8]).collect() };
        let flat = run_timed(n, 4, |c| {
            alltoallv_wire(c, mk(c.rank()), WireDType::F32);
            c.barrier();
            c.virtual_makespan()
        })[0];
        let hier = run_timed(n, 4, |c| {
            alltoallv_hierarchical_wire(c, mk(c.rank()), 4, WireDType::F32);
            c.barrier();
            c.virtual_makespan()
        })[0];
        assert!(
            hier < flat,
            "hierarchical {hier} should beat pairwise {flat} in virtual time"
        );
    }

    #[test]
    fn overlapped_irecvs_beat_sequential_recvs_in_virtual_time() {
        // Rank 2 receives one large message from each of ranks 0 and 1.
        // Blocking back-to-back receives serialize the two transfer costs;
        // posting both irecvs first lets the modeled transfers overlap, so
        // the clock advances to the max of the arrivals, not the sum.
        let serial = run_timed(3, 4, |c| {
            if c.rank() < 2 {
                c.send(2, 5, vec![0.0f32; 1 << 14].into());
                0.0
            } else {
                c.recv(0, 5);
                c.recv(1, 5);
                c.virtual_time()
            }
        })[2];
        let overlapped = run_timed(3, 4, |c| {
            if c.rank() < 2 {
                c.send(2, 5, vec![0.0f32; 1 << 14].into());
                0.0
            } else {
                let r0 = c.irecv(0, 5);
                let r1 = c.irecv(1, 5);
                c.wait(r0);
                c.wait(r1);
                c.virtual_time()
            }
        })[2];
        let cost = TwoLevelCost::sunway_like(4);
        let one = cost.alpha_intra + ((1usize << 16) as f64) * cost.beta_intra;
        assert!(
            (serial - 2.0 * one).abs() < 1e-12,
            "serial {serial} vs {}",
            2.0 * one
        );
        assert!(
            (overlapped - one).abs() < 1e-12,
            "overlapped {overlapped} should equal one transfer {one}"
        );
    }

    #[test]
    fn blocking_recv_equals_wait_of_irecv() {
        // The refactored recv must charge exactly the pre-refactor cost.
        let t = run_timed(2, 2, |c| {
            if c.rank() == 0 {
                c.send(1, 3, vec![0.0f32; 500].into());
                0.0
            } else {
                let req = c.irecv(0, 3);
                c.wait(req);
                c.virtual_time()
            }
        })[1];
        let cost = TwoLevelCost::sunway_like(2);
        let expect = cost.alpha_intra + 2000.0 * cost.beta_intra;
        assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
    }

    #[test]
    fn recv_timeout_charges_virtual_time_on_success() {
        use std::time::Duration;
        let times = run_timed(2, 2, |c| {
            if c.rank() == 0 {
                c.send(1, 5, vec![0.0f32; 1000].into());
                0.0
            } else {
                c.recv_timeout(0, 5, Duration::from_secs(10))
                    .expect("message was sent");
                c.virtual_time()
            }
        });
        let cost = TwoLevelCost::sunway_like(2);
        let expect = cost.alpha_intra + 4000.0 * cost.beta_intra;
        assert!(
            (times[1] - expect).abs() < 1e-12,
            "{} vs {expect}",
            times[1]
        );
    }

    #[test]
    fn recv_timeout_times_out_when_nothing_is_sent() {
        use std::time::Duration;
        run_timed(2, 2, |c| {
            if c.rank() == 1 {
                let err = c
                    .recv_timeout(0, 5, Duration::from_millis(50))
                    .expect_err("nothing was sent");
                assert!(matches!(err, CommError::Timeout { src: 0, tag: 5, .. }));
                // The failed wait must not advance the virtual clock.
                assert_eq!(c.virtual_time(), 0.0);
            }
        });
    }

    #[test]
    fn self_messages_are_free() {
        let t = run_timed(2, 2, |c| {
            c.send(c.rank(), 9, vec![0.0f32; 1 << 16].into());
            c.recv(c.rank(), 9);
            c.virtual_time()
        });
        assert_eq!(t[0], 0.0);
    }
}
