//! Shared-memory transport: mailboxes and communicators.
//!
//! One OS thread per rank. Point-to-point semantics mirror MPI:
//!
//! * `send` is asynchronous and never blocks (unbounded mailbox),
//! * `recv(src, tag)` blocks until a matching message arrives,
//! * `irecv(src, tag)` posts a *request* that [`Communicator::test`] can
//!   poll and [`Communicator::wait`] completes — the nonblocking layer the
//!   overlapped gradient sync is built on. `recv` ≡ `wait(irecv(..))`,
//! * messages between a fixed `(sender, tag)` pair are **non-overtaking**
//!   (FIFO per key), which is what makes tag reuse across consecutive
//!   collectives safe; requests waited in post order preserve this,
//! * a rank whose thread unwinds is **dead**: every receive from it that
//!   has no message left to claim, and every barrier, then unwinds with a
//!   [`CommError::PeerDead`] payload instead of blocking for good.

use crate::fault::{corrupt_payload, CommError, FaultRuntime, SendAction};
use crate::payload::Payload;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handle for an initiated send. Sends into the unbounded mailboxes are
/// eagerly buffered, so the handle is born complete; it exists so call
/// sites read like their MPI counterparts (`MPI_Isend` + `MPI_Wait`).
#[derive(Debug)]
#[must_use = "an isend request should be waited (or explicitly dropped)"]
pub struct SendRequest {
    _private: (),
}

impl SendRequest {
    pub(crate) fn completed() -> SendRequest {
        SendRequest { _private: () }
    }
}

/// Point-to-point communication within a group of ranks.
pub trait Communicator {
    /// In-flight receive handle produced by [`Communicator::irecv`].
    type RecvReq;

    /// This rank's index within the group.
    fn rank(&self) -> usize;
    /// Number of ranks in the group.
    fn size(&self) -> usize;
    /// Asynchronously send `payload` to group rank `dst` under `tag`.
    fn send(&self, dst: usize, tag: u64, payload: Payload);
    /// Block until a message from group rank `src` under `tag` arrives.
    /// Unwinds with a [`CommError::PeerDead`] payload once `src` is dead and
    /// none of its messages is left for this receive.
    fn recv(&self, src: usize, tag: u64) -> Payload;
    /// Block until every rank in the group has entered the barrier.
    /// Unwinds with a [`CommError::PeerDead`] payload once any rank is dead.
    fn barrier(&self);

    /// Initiate a send; the returned request is already complete (sends
    /// are eagerly buffered) but keeps call sites explicit about intent.
    fn isend(&self, dst: usize, tag: u64, payload: Payload) -> SendRequest {
        self.send(dst, tag, payload);
        SendRequest::completed()
    }

    /// Post a nonblocking receive for the next message from `src` under
    /// `tag`. Multiple requests on the same `(src, tag)` match arrivals in
    /// post order when waited in post order (FIFO is preserved).
    fn irecv(&self, src: usize, tag: u64) -> Self::RecvReq;

    /// Poll a request; returns `true` once the message has arrived (after
    /// which [`Communicator::wait`] returns without blocking). Completion
    /// latches: once `test` returns `true` it stays `true`. Unwinds like
    /// [`Communicator::recv`] when the request can never complete.
    fn test(&self, req: &mut Self::RecvReq) -> bool;

    /// Block until the request completes and return its payload. Unwinds
    /// like [`Communicator::recv`] on a dead source.
    fn wait(&self, req: Self::RecvReq) -> Payload;

    /// Wait on several requests, returning payloads in request order.
    fn wait_all(&self, reqs: Vec<Self::RecvReq>) -> Vec<Payload> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Traffic counters for the transport under this communicator, when
    /// the transport collects them (`None` otherwise).
    fn stats(&self) -> Option<CommStats> {
        None
    }

    /// Arm intra/inter-supernode accounting: `supernode_size` consecutive
    /// *world* ranks form one supernode, and every subsequent all-to-all
    /// send is attributed to [`CommStats::a2a_intra_bytes`] or
    /// [`CommStats::a2a_inter_bytes`] by whether source and destination
    /// share a supernode. `0` disables the split (the default). Transports
    /// without byte accounting ignore the call.
    fn set_supernode_size(&self, _supernode_size: usize) {}

    /// Cumulative wall-clock nanoseconds **this rank** has spent inside
    /// [`Communicator::send`], when the transport accounts for it (`None`
    /// otherwise). On `ShmComm` sends are nonblocking enqueues, so a healthy
    /// rank's occupancy is negligible — the counter only grows materially
    /// when the send path itself stalls (an injected [`crate::fault::FaultSpec::SlowRank`]
    /// window, or on a real transport a backed-up NIC queue). That asymmetry
    /// is exactly the straggler signal: recv-side waiting is symmetric
    /// across ranks under lockstep collectives, send-side occupancy is not.
    /// Collected only while a fault schedule is armed, so the fault-free
    /// hot path stays timer-free.
    fn send_occupancy_ns(&self) -> Option<u64> {
        None
    }
}

/// Collective families distinguished by [`CommStats`]. Classification is
/// by tag: every collective in this crate uses a reserved tag (or tag
/// range), so the transport can attribute traffic without plumbing labels
/// through every call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommFamily {
    /// Ring + recursive-doubling all-reduce, incl. bucketed gradient sync.
    Allreduce,
    /// Binomial-tree broadcast.
    Broadcast,
    /// All-gather.
    Gather,
    /// Pairwise and hierarchical all-to-all(v), tensors and integer metadata.
    Alltoall,
    /// Virtual-time headers posted by `TimedComm`.
    Timing,
    /// Application point-to-point traffic outside the reserved tag ranges.
    Other,
}

pub(crate) const N_FAMILIES: usize = 6;

impl CommFamily {
    pub(crate) const ALL: [CommFamily; N_FAMILIES] = [
        CommFamily::Allreduce,
        CommFamily::Broadcast,
        CommFamily::Gather,
        CommFamily::Alltoall,
        CommFamily::Timing,
        CommFamily::Other,
    ];

    fn index(self) -> usize {
        CommFamily::ALL.iter().position(|&f| f == self).unwrap()
    }

    /// Trace counter names for traffic *sent* under this family:
    /// `("comm.sent.<family>.bytes", "comm.sent.<family>.msgs")`. Static
    /// strings because the tracer stores `&'static str` names.
    pub fn sent_counter_names(self) -> (&'static str, &'static str) {
        match self {
            CommFamily::Allreduce => ("comm.sent.allreduce.bytes", "comm.sent.allreduce.msgs"),
            CommFamily::Broadcast => ("comm.sent.broadcast.bytes", "comm.sent.broadcast.msgs"),
            CommFamily::Gather => ("comm.sent.gather.bytes", "comm.sent.gather.msgs"),
            CommFamily::Alltoall => ("comm.sent.alltoall.bytes", "comm.sent.alltoall.msgs"),
            CommFamily::Timing => ("comm.sent.timing.bytes", "comm.sent.timing.msgs"),
            CommFamily::Other => ("comm.sent.other.bytes", "comm.sent.other.msgs"),
        }
    }

    /// Trace counter names for traffic *received* under this family:
    /// `("comm.recv.<family>.bytes", "comm.recv.<family>.msgs")`.
    pub fn recv_counter_names(self) -> (&'static str, &'static str) {
        match self {
            CommFamily::Allreduce => ("comm.recv.allreduce.bytes", "comm.recv.allreduce.msgs"),
            CommFamily::Broadcast => ("comm.recv.broadcast.bytes", "comm.recv.broadcast.msgs"),
            CommFamily::Gather => ("comm.recv.gather.bytes", "comm.recv.gather.msgs"),
            CommFamily::Alltoall => ("comm.recv.alltoall.bytes", "comm.recv.alltoall.msgs"),
            CommFamily::Timing => ("comm.recv.timing.bytes", "comm.recv.timing.msgs"),
            CommFamily::Other => ("comm.recv.other.bytes", "comm.recv.other.msgs"),
        }
    }

    /// Attribute a tag to a family (see the tag constants in
    /// `collectives.rs` and the reserved high bit in `timed.rs`).
    pub(crate) fn of_tag(tag: u64) -> CommFamily {
        use crate::collectives::tags;
        if tag & crate::timed::TIME_TAG_XOR != 0 {
            return CommFamily::Timing;
        }
        match tag {
            tags::TAG_BCAST => CommFamily::Broadcast,
            tags::TAG_RING | tags::TAG_RD => CommFamily::Allreduce,
            tags::TAG_AG => CommFamily::Gather,
            tags::TAG_A2A..=tags::TAG_A2A_U64 | tags::TAG_A2A_U32 => CommFamily::Alltoall,
            t if (tags::TAG_BUCKET_BASE..tags::TAG_BUCKET_END).contains(&t) => {
                CommFamily::Allreduce
            }
            _ => CommFamily::Other,
        }
    }
}

/// Per-family traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FamilyStats {
    /// Payload bytes sent under this family.
    pub bytes: u64,
    /// Messages sent under this family.
    pub msgs: u64,
}

/// A snapshot of transport traffic, total and per collective family.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommStats {
    /// Payload bytes sent, all families.
    pub total_bytes: u64,
    /// Messages sent, all families.
    pub total_msgs: u64,
    /// All-to-all payload bytes that stayed inside one supernode. Only
    /// collected after [`Communicator::set_supernode_size`] armed a nonzero
    /// supernode size; 0 otherwise.
    pub a2a_intra_bytes: u64,
    /// All-to-all payload bytes that crossed a supernode boundary (see
    /// [`CommStats::a2a_intra_bytes`]).
    pub a2a_inter_bytes: u64,
    families: [FamilyStats; N_FAMILIES],
}

impl CommStats {
    /// Counters for one collective family.
    pub fn family(&self, f: CommFamily) -> FamilyStats {
        self.families[f.index()]
    }

    /// Iterate `(family, counters)` pairs in a fixed order.
    pub fn families(&self) -> impl Iterator<Item = (CommFamily, FamilyStats)> + '_ {
        CommFamily::ALL.iter().map(|&f| (f, self.family(f)))
    }

    /// Measured fraction of all-to-all bytes that stayed inside a
    /// supernode. `None` until supernode accounting is armed and at least
    /// one all-to-all byte has been sent.
    pub fn a2a_local_fraction(&self) -> Option<f64> {
        let total = self.a2a_intra_bytes + self.a2a_inter_bytes;
        if total == 0 {
            None
        } else {
            Some(self.a2a_intra_bytes as f64 / total as f64)
        }
    }
}

/// Trace counter slicing sent payload bytes by *element format* (the
/// `comm.wire.*` axis, orthogonal to the per-family `comm.sent.*` axis).
fn wire_counter_name(payload: &Payload) -> &'static str {
    use bagualu_trace::names;
    match payload.wire_label() {
        "fp16" => names::WIRE_F16_BYTES,
        "bf16" => names::WIRE_BF16_BYTES,
        "u64" => names::WIRE_U64_BYTES,
        "u32" => names::WIRE_U32_BYTES,
        _ => names::WIRE_F32_BYTES,
    }
}

/// Record per-family and per-wire-dtype trace counters for one sent
/// message. No-op unless the calling thread currently records a trace lane
/// (one relaxed load).
fn trace_sent(tag: u64, payload: &Payload, bytes: u64) {
    if bagualu_trace::enabled() {
        let (b, m) = CommFamily::of_tag(tag).sent_counter_names();
        bagualu_trace::count(b, bytes);
        bagualu_trace::count(m, 1);
        bagualu_trace::count(wire_counter_name(payload), bytes);
    }
}

/// Record per-family trace counters for one received (claimed) message.
fn trace_recv(tag: u64, payload: &Payload) {
    if bagualu_trace::enabled() {
        let (b, m) = CommFamily::of_tag(tag).recv_counter_names();
        bagualu_trace::count(b, payload.wire_bytes() as u64);
        bagualu_trace::count(m, 1);
    }
}

/// Mailbox key: (sender's rank, tag).
type Key = (usize, u64);

/// One key's queued messages and its post-order matching state: requests
/// take a ticket at post time and may only claim a queued message when
/// every earlier ticket has claimed — MPI's posted-receive ordering, which
/// keeps FIFO intact even when requests are `test`ed out of order.
#[derive(Default)]
struct Channel {
    queue: VecDeque<Payload>,
    posted: u64,
    claimed: u64,
}

struct Mailbox {
    channels: Mutex<HashMap<Key, Channel>>,
    arrived: Condvar,
}

#[derive(Default)]
struct BarrierState {
    inner: Mutex<(usize, u64)>, // (arrived, generation)
    released: Condvar,
}

/// Lock-free per-family counters (indexed by `CommFamily::index`).
#[derive(Default)]
struct FamilyCounters {
    bytes: [AtomicU64; N_FAMILIES],
    msgs: [AtomicU64; N_FAMILIES],
}

struct Shared {
    boxes: Vec<Mailbox>,
    barrier: BarrierState,
    total_bytes: AtomicU64,
    total_msgs: AtomicU64,
    families: FamilyCounters,
    /// Supernode size for intra/inter all-to-all byte attribution
    /// (0 = split disabled).
    supernode_size: AtomicU64,
    /// All-to-all bytes between ranks of the same supernode.
    a2a_intra_bytes: AtomicU64,
    /// All-to-all bytes crossing a supernode boundary.
    a2a_inter_bytes: AtomicU64,
    /// Armed fault schedule, consulted on every send (None = no faults).
    faults: Option<Arc<FaultRuntime>>,
    /// Per-rank nanoseconds spent inside `send` (the straggler signal;
    /// accounted only while `faults` is armed).
    send_ns: Vec<AtomicU64>,
    /// Per-rank dead flags; set once a rank's thread unwinds or aborts,
    /// after which receives from it and barriers fail fast instead of
    /// hanging.
    dead: Vec<AtomicBool>,
}

impl Shared {
    fn snapshot_stats(&self) -> CommStats {
        let mut stats = CommStats {
            total_bytes: self.total_bytes.load(Ordering::Relaxed),
            total_msgs: self.total_msgs.load(Ordering::Relaxed),
            ..CommStats::default()
        };
        stats.a2a_intra_bytes = self.a2a_intra_bytes.load(Ordering::Relaxed);
        stats.a2a_inter_bytes = self.a2a_inter_bytes.load(Ordering::Relaxed);
        for (i, fam) in stats.families.iter_mut().enumerate() {
            fam.bytes = self.families.bytes[i].load(Ordering::Relaxed);
            fam.msgs = self.families.msgs[i].load(Ordering::Relaxed);
        }
        stats
    }

    /// Mark `rank` dead and wake every blocked receiver and barrier waiter,
    /// so their waits on it resolve to [`CommError::PeerDead`] promptly.
    fn mark_dead(&self, rank: usize) {
        self.dead[rank].store(true, Ordering::SeqCst);
        for mbox in &self.boxes {
            let _guard = mbox.channels.lock();
            mbox.arrived.notify_all();
        }
        let _guard = self.barrier.inner.lock();
        self.barrier.released.notify_all();
    }

    fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::SeqCst)
    }

    fn barrier(&self) {
        let b = &self.barrier;
        let mut g = b.inner.lock();
        let generation = g.1;
        g.0 += 1;
        if g.0 == self.boxes.len() {
            g.0 = 0;
            g.1 += 1;
            b.released.notify_all();
            return;
        }
        while g.1 == generation {
            if let Some(peer) = (0..self.dead.len()).find(|&r| self.is_dead(r)) {
                unwind(CommError::PeerDead { peer });
            }
            b.released.wait(&mut g);
        }
    }
}

/// The world: owns the shared mailboxes; hands out one [`ShmComm`] per rank.
pub struct World {
    shared: Arc<Shared>,
}

impl World {
    /// Create a world of `n` ranks.
    pub fn new(n: usize) -> World {
        World::build(n, None)
    }

    /// Create a world whose transport runs under an armed fault schedule.
    /// Pass the same `Arc<FaultRuntime>` to successive worlds of a
    /// checkpoint-restart loop so one-shot events fire exactly once across
    /// attempts.
    pub fn new_with_faults(n: usize, faults: Arc<FaultRuntime>) -> World {
        World::build(n, Some(faults))
    }

    fn build(n: usize, faults: Option<Arc<FaultRuntime>>) -> World {
        assert!(n > 0, "world must have at least one rank");
        let boxes = (0..n)
            .map(|_| Mailbox {
                channels: Mutex::new(HashMap::new()),
                arrived: Condvar::new(),
            })
            .collect();
        World {
            shared: Arc::new(Shared {
                boxes,
                barrier: BarrierState::default(),
                total_bytes: AtomicU64::new(0),
                total_msgs: AtomicU64::new(0),
                families: FamilyCounters::default(),
                supernode_size: AtomicU64::new(0),
                a2a_intra_bytes: AtomicU64::new(0),
                a2a_inter_bytes: AtomicU64::new(0),
                faults,
                send_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
                dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
            }),
        }
    }

    /// Mark `rank` dead (see [`ShmComm::mark_self_dead`]).
    pub(crate) fn mark_dead(&self, rank: usize) {
        self.shared.mark_dead(rank);
    }

    /// One communicator handle per rank, in rank order.
    pub fn comms(&self) -> Vec<ShmComm> {
        (0..self.shared.boxes.len())
            .map(|rank| ShmComm {
                shared: self.shared.clone(),
                rank,
            })
            .collect()
    }

    /// Traffic snapshot, total and per collective family.
    pub fn stats(&self) -> CommStats {
        self.shared.snapshot_stats()
    }
}

/// A rank's handle on the world. Dropping it while its thread unwinds
/// marks the rank dead, so a rank that panics anywhere — under the
/// harness or on a thread of the caller's own — never leaves its peers
/// blocked on it.
pub struct ShmComm {
    shared: Arc<Shared>,
    rank: usize,
}

impl Drop for ShmComm {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.mark_self_dead();
        }
    }
}

impl ShmComm {
    /// Like [`Communicator::recv`], but returns [`CommError::PeerDead`]
    /// instead of unwinding, and [`CommError::Timeout`] once `timeout` has
    /// passed without a message — the only way to notice a peer that is
    /// alive but silent (a dropped message, a stalled sender). A failed
    /// receive is retracted, so later receives on the same key are not
    /// queued behind it.
    pub fn recv_timeout(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Payload, CommError> {
        let req = self.irecv(src, tag);
        self.claim(&req, Some(timeout))
            .inspect_err(|_| self.cancel_recv(&req))
    }

    /// Mark this rank dead and wake every blocked receiver and barrier in
    /// the world. A rank that stops on purpose calls this; one that unwinds
    /// is marked as its `ShmComm` drops.
    pub fn mark_self_dead(&self) {
        self.shared.mark_dead(self.rank);
    }

    fn my_mailbox(&self) -> &Mailbox {
        &self.shared.boxes[self.rank]
    }

    /// Charge the elapsed time since `t0` (when accounting is armed) to
    /// this rank's send-occupancy counter.
    fn note_send_time(&self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.shared.send_ns[self.rank]
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// The one claim loop. Takes `req`'s message once it is `req`'s turn
    /// (its ticket is the oldest unclaimed on the key) and one is queued,
    /// waiting up to `timeout` (`None`: without limit) for it to arrive.
    /// `test`, `wait` and [`ShmComm::recv_timeout`] all claim through it.
    /// Queued messages drain first: the receive fails with
    /// [`CommError::PeerDead`] only once its source is dead and the message
    /// its ticket would claim is not queued.
    fn claim(&self, req: &ShmRecv, timeout: Option<Duration>) -> Result<Payload, CommError> {
        let mbox = self.my_mailbox();
        let (src, tag) = (req.src, req.tag);
        // A zero timeout is a poll: it reads no clock.
        let deadline = timeout.filter(|t| !t.is_zero()).map(|t| Instant::now() + t);
        let mut channels = mbox.channels.lock();
        loop {
            let ch = channels
                .get_mut(&(src, tag))
                .expect("a posted receive has a channel");
            if ch.claimed == req.ticket {
                if let Some(p) = ch.queue.pop_front() {
                    ch.claimed += 1;
                    // A claim may unblock a later-ticket waiter on the key.
                    mbox.arrived.notify_all();
                    drop(channels);
                    trace_recv(tag, &p);
                    return Ok(p);
                }
            }
            let ahead = req.ticket - ch.claimed;
            if ch.queue.len() as u64 <= ahead && self.shared.is_dead(src) {
                return Err(CommError::PeerDead { peer: src });
            }
            let Some(t) = timeout else {
                mbox.arrived.wait(&mut channels);
                continue;
            };
            let left = deadline.map_or(Duration::ZERO, |d| {
                d.saturating_duration_since(Instant::now())
            });
            if left.is_zero() {
                return Err(CommError::Timeout {
                    src,
                    tag,
                    waited_ms: t.as_millis() as u64,
                });
            }
            mbox.arrived.wait_for(&mut channels, left);
        }
    }

    /// Retract an abandoned (failed) receive so later receives on the same
    /// key are not blocked behind a ghost ticket. Receives are posted only
    /// by this rank's own thread, so an abandoned synchronous receive is
    /// always the newest ticket on its key.
    fn cancel_recv(&self, req: &ShmRecv) {
        let mut channels = self.my_mailbox().channels.lock();
        if let Some(ch) = channels.get_mut(&(req.src, req.tag)) {
            if ch.posted == req.ticket + 1 && ch.claimed <= req.ticket {
                ch.posted -= 1;
            }
        }
    }
}

/// Unwind with a [`CommError`] payload: a blocking operation that can
/// never complete. The panic hook stays quiet (a crash that caused it
/// reported itself), and the harness reports such a rank as
/// [`crate::RankOutcome::TimedOut`].
fn unwind(e: CommError) -> ! {
    std::panic::resume_unwind(Box::new(e))
}

/// A pending receive on a [`ShmComm`]. Holds the match key and post-order
/// ticket until completion, then buffers the payload for `wait`.
#[derive(Debug)]
pub struct ShmRecv {
    src: usize,
    tag: u64,
    /// Post-order position among requests on the same `(src, tag)`.
    ticket: u64,
    done: Option<Payload>,
}

impl Communicator for ShmComm {
    type RecvReq = ShmRecv;

    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.boxes.len()
    }

    fn send(&self, dst: usize, tag: u64, payload: Payload) {
        let mut payload = payload;
        // Send-occupancy accounting (the straggler signal) rides the fault
        // hook: only timed while a schedule is armed, so the fault-free hot
        // path takes no `Instant::now` calls.
        let t0 = self.shared.faults.as_ref().map(|_| Instant::now());
        if let Some(f) = &self.shared.faults {
            match f.on_send(self.rank) {
                SendAction::Deliver => {}
                // Dropped in flight: never enqueued, never counted as sent.
                SendAction::Drop => {
                    bagualu_trace::count(bagualu_trace::names::FAULT_DROPS, 1);
                    self.note_send_time(t0);
                    return;
                }
                // A stalled link: the sender blocks for the delay.
                SendAction::Delay(d) => std::thread::sleep(d),
                SendAction::Corrupt => {
                    bagualu_trace::count(bagualu_trace::names::FAULT_CORRUPTIONS, 1);
                    corrupt_payload(&mut payload);
                }
            }
        }
        let bytes = payload.wire_bytes() as u64;
        self.shared.total_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.shared.total_msgs.fetch_add(1, Ordering::Relaxed);
        let family = CommFamily::of_tag(tag);
        let fam = family.index();
        self.shared.families.bytes[fam].fetch_add(bytes, Ordering::Relaxed);
        self.shared.families.msgs[fam].fetch_add(1, Ordering::Relaxed);
        // Intra/inter-supernode split of all-to-all traffic.
        if family == CommFamily::Alltoall {
            let s = self.shared.supernode_size.load(Ordering::Relaxed) as usize;
            // `s == 0` means the split is disarmed; checked_div folds that
            // case into `None` without a separate zero guard.
            if let (Some(src_sn), Some(dst_sn)) = (self.rank.checked_div(s), dst.checked_div(s)) {
                let intra = src_sn == dst_sn;
                if intra {
                    self.shared
                        .a2a_intra_bytes
                        .fetch_add(bytes, Ordering::Relaxed);
                } else {
                    self.shared
                        .a2a_inter_bytes
                        .fetch_add(bytes, Ordering::Relaxed);
                }
                if bagualu_trace::enabled() {
                    let name = if intra {
                        bagualu_trace::names::A2A_INTRA_BYTES
                    } else {
                        bagualu_trace::names::A2A_INTER_BYTES
                    };
                    bagualu_trace::count(name, bytes);
                }
            }
        }
        trace_sent(tag, &payload, bytes);
        let mbox = &self.shared.boxes[dst];
        let mut channels = mbox.channels.lock();
        channels
            .entry((self.rank, tag))
            .or_default()
            .queue
            .push_back(payload);
        mbox.arrived.notify_all();
        drop(channels);
        self.note_send_time(t0);
    }

    fn recv(&self, src: usize, tag: u64) -> Payload {
        // Take a ticket like any other receive so blocking and nonblocking
        // receives on the same key share one post-order match sequence.
        let req = self.irecv(src, tag);
        self.wait(req)
    }

    fn irecv(&self, src: usize, tag: u64) -> ShmRecv {
        let mut channels = self.my_mailbox().channels.lock();
        let ch = channels.entry((src, tag)).or_default();
        let ticket = ch.posted;
        ch.posted += 1;
        ShmRecv {
            src,
            tag,
            ticket,
            done: None,
        }
    }

    fn test(&self, req: &mut ShmRecv) -> bool {
        if req.done.is_none() {
            match self.claim(req, Some(Duration::ZERO)) {
                Ok(p) => req.done = Some(p),
                Err(CommError::Timeout { .. }) => {}
                Err(e) => unwind(e),
            }
        }
        req.done.is_some()
    }

    fn wait(&self, req: ShmRecv) -> Payload {
        match req.done {
            Some(p) => p,
            None => self.claim(&req, None).unwrap_or_else(|e| unwind(e)),
        }
    }

    fn barrier(&self) {
        self.shared.barrier();
    }

    fn stats(&self) -> Option<CommStats> {
        Some(self.shared.snapshot_stats())
    }

    fn set_supernode_size(&self, supernode_size: usize) {
        self.shared
            .supernode_size
            .store(supernode_size as u64, Ordering::Relaxed);
    }

    fn send_occupancy_ns(&self) -> Option<u64> {
        self.shared
            .faults
            .as_ref()
            .map(|_| self.shared.send_ns[self.rank].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_ranks;

    impl SendRequest {
        /// Eager sends complete at initiation.
        fn is_complete(&self) -> bool {
            true
        }
    }

    impl World {
        /// Is `rank` marked dead?
        pub(crate) fn is_dead(&self, rank: usize) -> bool {
            self.shared.is_dead(rank)
        }

        /// Counters of faults injected so far, when a plan is armed.
        pub(crate) fn fault_stats(&self) -> Option<crate::FaultStats> {
            self.shared.faults.as_ref().map(|f| f.stats())
        }
    }

    #[test]
    fn ping_pong() {
        run_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 7, vec![1.0f32, 2.0].into());
                let back = c.recv(1, 8).into_f32();
                assert_eq!(back, vec![3.0]);
            } else {
                let msg = c.recv(0, 7).into_f32();
                assert_eq!(msg, vec![1.0, 2.0]);
                c.send(0, 8, vec![3.0f32].into());
            }
        });
    }

    #[test]
    fn messages_are_fifo_per_sender_tag() {
        run_ranks(2, |c| {
            if c.rank() == 0 {
                for i in 0..100 {
                    c.send(1, 1, vec![i as f32].into());
                }
            } else {
                for i in 0..100 {
                    assert_eq!(c.recv(0, 1).into_f32(), vec![i as f32]);
                }
            }
        });
    }

    #[test]
    fn tags_do_not_cross_talk() {
        run_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 2, vec![2.0f32].into());
                c.send(1, 1, vec![1.0f32].into());
            } else {
                // Receive in the opposite order of sending.
                assert_eq!(c.recv(0, 1).into_f32(), vec![1.0]);
                assert_eq!(c.recv(0, 2).into_f32(), vec![2.0]);
            }
        });
    }

    #[test]
    fn self_send_works() {
        run_ranks(1, |c| {
            c.send(0, 5, vec![42u64].into());
            assert_eq!(c.recv(0, 5).into_u64(), vec![42]);
        });
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run_ranks(8, |c| {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must observe all 8 increments.
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn barrier_is_reusable() {
        run_ranks(4, |c| {
            for _ in 0..50 {
                c.barrier();
            }
        });
    }

    #[test]
    fn isend_irecv_preserve_fifo_per_sender_tag() {
        // Non-overtaking: requests posted in order and waited in order see
        // messages in send order, even when sends race ahead and tests
        // interleave.
        run_ranks(2, |c| {
            if c.rank() == 0 {
                for i in 0..100 {
                    let req = c.isend(1, 1, vec![i as f32].into());
                    assert!(req.is_complete());
                }
            } else {
                let mut reqs: Vec<_> = (0..100).map(|_| c.irecv(0, 1)).collect();
                // Poll out of order: completion must not steal a message
                // out of FIFO position for the post-order wait below.
                for r in reqs.iter_mut().rev() {
                    c.test(r);
                }
                for (i, payload) in c.wait_all(reqs).into_iter().enumerate() {
                    assert_eq!(payload.into_f32(), vec![i as f32]);
                }
            }
        });
    }

    #[test]
    fn test_latches_and_wait_returns_buffered_payload() {
        run_ranks(2, |c| {
            if c.rank() == 0 {
                c.barrier();
                c.send(1, 4, vec![7.0f32].into());
            } else {
                let mut req = c.irecv(0, 4);
                // Nothing sent yet: must not complete.
                assert!(!c.test(&mut req));
                c.barrier();
                // Spin until arrival, then confirm the latch holds.
                while !c.test(&mut req) {
                    std::thread::yield_now();
                }
                assert!(c.test(&mut req));
                assert_eq!(c.wait(req).into_f32(), vec![7.0]);
            }
        });
    }

    #[test]
    fn stats_classify_families() {
        use crate::collectives::{allreduce_wire, broadcast, ReduceOp};
        use crate::payload::WireDType;
        let world = World::new(2);
        let comms = world.comms();
        std::thread::scope(|s| {
            for c in &comms {
                s.spawn(move || {
                    let msg = (c.rank() == 0).then(|| vec![1.0f32; 8]);
                    broadcast(c, 0, msg);
                    allreduce_wire(c, vec![c.rank() as f32; 16], ReduceOp::Sum, WireDType::F32);
                });
            }
        });
        let stats = world.stats();
        let bc = stats.family(CommFamily::Broadcast);
        let ar = stats.family(CommFamily::Allreduce);
        assert_eq!(bc.msgs, 1, "one broadcast relay at n=2");
        assert_eq!(bc.bytes, 32);
        // Ring at n=2: each rank sends 2 chunks of 8 floats.
        assert_eq!(ar.msgs, 4);
        assert_eq!(ar.bytes, 2 * 2 * 8 * 4);
        assert_eq!(stats.total_msgs, bc.msgs + ar.msgs);
        assert_eq!(stats.total_bytes, bc.bytes + ar.bytes);
        assert_eq!(stats.family(CommFamily::Alltoall), FamilyStats::default());
    }

    #[test]
    fn supernode_split_attributes_a2a_bytes() {
        use crate::collectives::alltoallv_wire;
        use crate::payload::WireDType;
        let world = World::new(4);
        let comms = world.comms();
        std::thread::scope(|s| {
            for c in &comms {
                s.spawn(move || {
                    // Supernodes of 2: ranks {0,1} and {2,3}.
                    c.set_supernode_size(2);
                    // One f32 to every rank. The self-part never touches
                    // the wire, so each rank has 1 intra and 2 inter wire
                    // destinations.
                    let parts: Vec<Vec<f32>> = (0..c.size()).map(|d| vec![d as f32]).collect();
                    alltoallv_wire(c, parts, WireDType::F32);
                });
            }
        });
        let stats = world.stats();
        assert_eq!(stats.a2a_intra_bytes, 4 * 4);
        assert_eq!(stats.a2a_inter_bytes, 4 * 2 * 4);
        assert_eq!(stats.a2a_local_fraction(), Some(1.0 / 3.0));
        assert_eq!(
            stats.a2a_intra_bytes + stats.a2a_inter_bytes,
            stats.family(CommFamily::Alltoall).bytes
        );
    }

    #[test]
    fn supernode_split_disabled_counts_nothing() {
        use crate::collectives::alltoallv_wire;
        use crate::payload::WireDType;
        let world = World::new(2);
        let comms = world.comms();
        std::thread::scope(|s| {
            for c in &comms {
                s.spawn(move || {
                    let parts: Vec<Vec<f32>> = (0..c.size()).map(|d| vec![d as f32]).collect();
                    alltoallv_wire(c, parts, WireDType::F32);
                });
            }
        });
        let stats = world.stats();
        assert!(stats.family(CommFamily::Alltoall).bytes > 0);
        assert_eq!(stats.a2a_intra_bytes, 0);
        assert_eq!(stats.a2a_inter_bytes, 0);
        assert_eq!(stats.a2a_local_fraction(), None);
    }

    #[test]
    fn world_counts_traffic() {
        let world = World::new(2);
        let comms = world.comms();
        std::thread::scope(|s| {
            let (c0, c1) = {
                let mut it = comms.into_iter();
                (it.next().unwrap(), it.next().unwrap())
            };
            s.spawn(move || c0.send(1, 1, vec![0.0f32; 256].into()));
            s.spawn(move || {
                c1.recv(0, 1);
            });
        });
        let stats = world.stats();
        assert_eq!((stats.total_bytes, stats.total_msgs), (1024, 1));
    }
}
