//! Deterministic fault injection and the error-carrying comm surface.
//!
//! At 96,000 nodes component failure during a run is the expected case, so
//! the transport must be testable *under* faults, not only without them.
//! This module provides:
//!
//! * [`FaultPlan`] — a declarative, seeded schedule of faults (rank crash
//!   at a training step, nth-message drop/delay/corruption, probabilistic
//!   drops). Plans are pure data; [`FaultRuntime`] is the live state that
//!   a [`crate::shm::World`] consults on every send. Every decision is
//!   deterministic given the plan (per-rank message counters and per-rank
//!   seeded RNG streams), so a failing schedule replays exactly.
//! * [`CommError`] — why a communication operation gave up instead of
//!   hanging: a receive that exceeded its deadline or a peer known to be
//!   dead.
//!
//! Detection semantics: a *crashed* rank is marked dead (as its
//! [`crate::ShmComm`] drops during the unwind, by the harness when its
//! closure returns an error, or by the rank itself before it stops), which
//! wakes every blocked receiver and barrier. A blocking receive, `wait`,
//! `test` or `barrier` that can then never complete unwinds with a
//! [`CommError::PeerDead`] payload; [`crate::ShmComm::recv_timeout`]
//! returns it. A *silent* fault (dropped message, stalled sender) is
//! detected only by `recv_timeout`'s deadline. Payload corruption is silent
//! at the transport level by design — it is caught downstream by the
//! checkpoint CRC or by divergence checks, mirroring how real networks
//! deliver bit flips past the NIC.

use crate::payload::Payload;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// One scheduled fault. `rank` is always a **world** rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// The rank panics at the start of training step `at_step`. The
    /// trainer (or any step-structured driver) polls
    /// [`FaultRuntime::should_crash`]; the transport itself has no step
    /// notion. Fires once, even across checkpoint-restart replays.
    Crash {
        /// World rank that crashes.
        rank: usize,
        /// Training step at whose start the crash fires.
        at_step: usize,
    },
    /// Silently discard the `nth` message sent by `from` (0-based over the
    /// rank's lifetime sends, timing headers included).
    DropNth {
        /// Sending world rank.
        from: usize,
        /// 0-based index among `from`'s lifetime sends.
        nth: u64,
    },
    /// Hold the `nth` message sent by `from` for `millis` before delivery
    /// (the sender blocks, modeling a stalled link).
    DelayNth {
        /// Sending world rank.
        from: usize,
        /// 0-based index among `from`'s lifetime sends.
        nth: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Flip one bit in the `nth` message sent by `from`.
    CorruptNth {
        /// Sending world rank.
        from: usize,
        /// 0-based index among `from`'s lifetime sends.
        nth: u64,
    },
    /// Drop each message sent by `from` independently with probability
    /// `prob`, decided by a per-rank seeded RNG stream.
    DropProb {
        /// Sending world rank.
        from: usize,
        /// Per-message drop probability in `[0, 1]`.
        prob: f64,
    },
    /// **Sustained degradation**: while the armed training step is in
    /// `[from_step, to_step)`, every message sent by `rank` is held for
    /// `delay_us` microseconds before delivery. Unlike [`FaultSpec::DelayNth`]
    /// this is not one-shot — it models a sick-but-alive rank (thermal
    /// throttling, a noisy neighbor, a degraded NIC), the dominant failure
    /// mode MegaScale reports on production clusters. The trainer publishes
    /// the step via [`FaultRuntime::set_step`]; before the first call the
    /// armed step is 0.
    SlowRank {
        /// World rank whose sends are slowed.
        rank: usize,
        /// First training step (inclusive) of the degradation window.
        from_step: usize,
        /// First training step past the degradation window (exclusive).
        to_step: usize,
        /// Per-message stall in microseconds.
        delay_us: u64,
    },
    /// **Sustained flaky link**: while the armed training step is in
    /// `[from_step, to_step)`, each message sent by `from` is dropped
    /// independently with probability `drop_prob`, drawn from the same
    /// per-rank seeded stream as [`FaultSpec::DropProb`]. Step-ranged so a
    /// link can degrade and then recover deterministically.
    FlakyLink {
        /// Sending world rank.
        from: usize,
        /// First training step (inclusive) of the flaky window.
        from_step: usize,
        /// First training step past the flaky window (exclusive).
        to_step: usize,
        /// Per-message drop probability in `[0, 1]` inside the window.
        drop_prob: f64,
    },
}

/// A deterministic, seeded schedule of faults. Pure data — clone it freely,
/// hand it to [`FaultRuntime::new`] to arm it against a world.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the probabilistic events' per-rank RNG streams.
    pub(crate) seed: u64,
    events: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan: no faults, zero overhead beyond a null check.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// An empty plan with a seed for later probabilistic events.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// True when the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Crash `rank` at the start of step `at_step` (fires once).
    pub fn crash(mut self, rank: usize, at_step: usize) -> FaultPlan {
        self.events.push(FaultSpec::Crash { rank, at_step });
        self
    }

    /// Drop the `nth` message `from` sends.
    pub fn drop_nth(mut self, from: usize, nth: u64) -> FaultPlan {
        self.events.push(FaultSpec::DropNth { from, nth });
        self
    }

    /// Delay the `nth` message `from` sends by `millis`.
    pub fn delay_nth(mut self, from: usize, nth: u64, millis: u64) -> FaultPlan {
        self.events.push(FaultSpec::DelayNth { from, nth, millis });
        self
    }

    /// Slow every send of `rank` by `delay_us` microseconds while the armed
    /// step is in `[from_step, to_step)`.
    pub fn slow_rank(
        mut self,
        rank: usize,
        from_step: usize,
        to_step: usize,
        delay_us: u64,
    ) -> FaultPlan {
        assert!(from_step < to_step, "empty slow-rank step range");
        self.events.push(FaultSpec::SlowRank {
            rank,
            from_step,
            to_step,
            delay_us,
        });
        self
    }
}

/// What the transport should do with a message about to be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendAction {
    Deliver,
    Drop,
    Delay(Duration),
    Corrupt,
}

/// Counters of faults actually injected, for reports and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages silently discarded in flight.
    pub dropped: u64,
    /// Messages held back by a one-shot [`FaultSpec::DelayNth`] delay.
    pub delayed: u64,
    /// Messages held back by a sustained [`FaultSpec::SlowRank`] window.
    /// Kept separate from `delayed` so tests can pin "the one-shot delay
    /// fired exactly once" independently of sustained degradation.
    pub(crate) slowed: u64,
    /// Messages that had a bit flipped.
    pub corrupted: u64,
    /// Crash events that actually fired (one-shot latches claimed).
    pub(crate) crashes_fired: u64,
}

/// Live state of an armed [`FaultPlan`]: per-rank send counters and RNG
/// streams, plus one-shot flags so an event fires exactly once even when a
/// checkpoint-restart loop replays the schedule across several worlds.
/// Share one runtime (via `Arc`) across all restart attempts of a run.
#[derive(Debug)]
pub struct FaultRuntime {
    plan: FaultPlan,
    /// One-shot latch per plan event, indexed like `plan.events`.
    fired: Vec<AtomicBool>,
    /// Lifetime messages sent, per world rank (headers included).
    send_seq: Vec<AtomicU64>,
    /// Per-rank xorshift state for probabilistic faults; seeded from
    /// `plan.seed` so decisions are independent of thread interleaving.
    rng: Vec<AtomicU64>,
    /// The training step the driver last armed via [`FaultRuntime::set_step`].
    /// Sustained (step-ranged) faults consult this; it only moves forward.
    step: AtomicU64,
    dropped: AtomicU64,
    delayed: AtomicU64,
    slowed: AtomicU64,
    corrupted: AtomicU64,
    crashes: AtomicU64,
}

impl FaultRuntime {
    /// Arm `plan` against a world of `nranks` ranks.
    pub fn new(plan: FaultPlan, nranks: usize) -> FaultRuntime {
        let fired = (0..plan.events.len())
            .map(|_| AtomicBool::new(false))
            .collect();
        let send_seq = (0..nranks).map(|_| AtomicU64::new(0)).collect();
        let rng = (0..nranks)
            .map(|r| {
                AtomicU64::new(splitmix(
                    plan.seed ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ))
            })
            .collect();
        FaultRuntime {
            plan,
            fired,
            send_seq,
            rng,
            step: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            slowed: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
        }
    }

    /// Publish the current training step so sustained (step-ranged) faults
    /// know whether they are inside their window. Monotonic (`fetch_max`):
    /// ranks advance at slightly different times around a step boundary, so
    /// the armed value is advisory *at* the boundary and exact inside it —
    /// sustained windows should be read as "±1 step at the edges" unless the
    /// test steps the runtime explicitly. Cheap enough to call every step.
    pub fn set_step(&self, step: usize) {
        self.step.fetch_max(step as u64, Ordering::Relaxed);
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            dropped: self.dropped.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            slowed: self.slowed.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            crashes_fired: self.crashes.load(Ordering::Relaxed),
        }
    }

    /// Should `rank` crash at the start of `step`? One-shot: the first call
    /// that matches a crash event claims it, so a restarted run replaying
    /// the same steps does not crash again on the same event.
    pub fn should_crash(&self, rank: usize, step: usize) -> bool {
        for (i, e) in self.plan.events.iter().enumerate() {
            if let FaultSpec::Crash { rank: r, at_step } = e {
                if *r == rank
                    && *at_step == step
                    && self.fired[i]
                        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    self.crashes.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
            }
        }
        false
    }

    /// Decide the fate of the next message sent by world rank `from`, and
    /// advance that rank's send counter. Called by the transport.
    pub(crate) fn on_send(&self, from: usize) -> SendAction {
        let nth = self.send_seq[from].fetch_add(1, Ordering::Relaxed);
        for (i, e) in self.plan.events.iter().enumerate() {
            let action = match *e {
                FaultSpec::DropNth { from: f, nth: n } if f == from && n == nth => {
                    Some(SendAction::Drop)
                }
                FaultSpec::DelayNth {
                    from: f,
                    nth: n,
                    millis,
                } if f == from && n == nth => {
                    Some(SendAction::Delay(Duration::from_millis(millis)))
                }
                FaultSpec::CorruptNth { from: f, nth: n } if f == from && n == nth => {
                    Some(SendAction::Corrupt)
                }
                _ => None,
            };
            if let Some(a) = action {
                if self.fired[i]
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    self.record(a);
                    return a;
                }
            }
        }
        // Probabilistic drops: not one-shot, drawn from the rank's stream.
        for e in &self.plan.events {
            if let FaultSpec::DropProb { from: f, prob } = *e {
                if f == from && self.next_unit(from) < prob {
                    self.record(SendAction::Drop);
                    return SendAction::Drop;
                }
            }
        }
        // Sustained (step-ranged) degradation: never one-shot. Checked last
        // so one-shot events keep their exact nth-message semantics even
        // inside a degradation window.
        let step = self.step.load(Ordering::Relaxed) as usize;
        for e in &self.plan.events {
            match *e {
                FaultSpec::FlakyLink {
                    from: f,
                    from_step,
                    to_step,
                    drop_prob,
                } if f == from
                    && (from_step..to_step).contains(&step)
                    && self.next_unit(from) < drop_prob =>
                {
                    self.record(SendAction::Drop);
                    return SendAction::Drop;
                }
                FaultSpec::SlowRank {
                    rank,
                    from_step,
                    to_step,
                    delay_us,
                } if rank == from && (from_step..to_step).contains(&step) => {
                    self.slowed.fetch_add(1, Ordering::Relaxed);
                    return SendAction::Delay(Duration::from_micros(delay_us));
                }
                _ => {}
            }
        }
        SendAction::Deliver
    }

    fn record(&self, a: SendAction) {
        match a {
            SendAction::Drop => self.dropped.fetch_add(1, Ordering::Relaxed),
            SendAction::Delay(_) => self.delayed.fetch_add(1, Ordering::Relaxed),
            SendAction::Corrupt => self.corrupted.fetch_add(1, Ordering::Relaxed),
            SendAction::Deliver => 0,
        };
    }

    /// Next uniform in [0, 1) from `rank`'s xorshift stream.
    fn next_unit(&self, rank: usize) -> f64 {
        let mut x = self.rng[rank].load(Ordering::Relaxed);
        loop {
            let mut y = x;
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            match self.rng[rank].compare_exchange_weak(x, y, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return (y >> 11) as f64 / (1u64 << 53) as f64,
                Err(cur) => x = cur,
            }
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1 // xorshift state must be nonzero
}

/// Flip one deterministic bit of a payload in place (the injected
/// "bit rot"). The bit index derives from the payload length so repeated
/// runs corrupt identically.
pub(crate) fn corrupt_payload(p: &mut Payload) {
    match p {
        Payload::F32(v) => {
            let bit = v.len() % 23;
            if let Some(x) = v.first_mut() {
                *x = f32::from_bits(x.to_bits() ^ (1 << bit));
            }
        }
        Payload::U64(v) => {
            let bit = v.len() % 63;
            if let Some(x) = v.first_mut() {
                *x ^= 1 << bit;
            }
        }
        Payload::Half(_, v) => {
            let bit = v.len() % 13;
            if let Some(x) = v.first_mut() {
                *x ^= 1 << bit;
            }
        }
        Payload::U32(v) => {
            let bit = v.len() % 31;
            if let Some(x) = v.first_mut() {
                *x ^= 1 << bit;
            }
        }
    }
}

/// Why a communication operation gave up: the error of
/// [`crate::ShmComm::recv_timeout`] and the failure-aware collectives, and
/// the panic payload of a blocking operation on a dead peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived within the deadline. The peer may be
    /// dead, stalled, or the message may have been dropped in flight.
    Timeout {
        /// Rank the receive was posted against.
        src: usize,
        /// Tag the receive was posted under.
        tag: u64,
        /// How long the receive waited before giving up, milliseconds.
        waited_ms: u64,
    },
    /// The peer is known dead (its thread panicked or aborted); no message
    /// can ever arrive from it.
    PeerDead {
        /// Rank of the dead peer.
        peer: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout {
                src,
                tag,
                waited_ms,
            } => write!(
                f,
                "receive from rank {src} (tag {tag}) timed out after {waited_ms} ms"
            ),
            CommError::PeerDead { peer } => write!(f, "peer rank {peer} is dead"),
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultPlan {
        /// Flip one bit in the `nth` message `from` sends.
        fn corrupt_nth(mut self, from: usize, nth: u64) -> FaultPlan {
            self.events.push(FaultSpec::CorruptNth { from, nth });
            self
        }

        /// Drop each of `from`'s messages with probability `prob`.
        fn drop_prob(mut self, from: usize, prob: f64) -> FaultPlan {
            assert!((0.0..=1.0).contains(&prob), "probability out of range");
            self.events.push(FaultSpec::DropProb { from, prob });
            self
        }

        /// Drop each of `from`'s messages with probability `drop_prob` while the
        /// armed step is in `[from_step, to_step)`.
        fn flaky_link(
            mut self,
            from: usize,
            from_step: usize,
            to_step: usize,
            drop_prob: f64,
        ) -> FaultPlan {
            assert!(from_step < to_step, "empty flaky-link step range");
            assert!((0.0..=1.0).contains(&drop_prob), "probability out of range");
            self.events.push(FaultSpec::FlakyLink {
                from,
                from_step,
                to_step,
                drop_prob,
            });
            self
        }
    }

    impl FaultRuntime {
        /// The last step armed via [`FaultRuntime::set_step`] (0 before any call).
        fn current_step(&self) -> usize {
            self.step.load(Ordering::Relaxed) as usize
        }
    }

    #[test]
    fn plan_builder_accumulates_events() {
        let p = FaultPlan::new(7)
            .crash(1, 10)
            .drop_nth(0, 3)
            .delay_nth(2, 5, 20)
            .corrupt_nth(1, 8)
            .drop_prob(0, 0.5);
        assert_eq!(p.events.len(), 5);
        assert!(!p.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn crash_fires_exactly_once() {
        let rt = FaultRuntime::new(FaultPlan::new(1).crash(2, 5), 4);
        assert!(!rt.should_crash(2, 4));
        assert!(!rt.should_crash(1, 5));
        assert!(rt.should_crash(2, 5));
        // Replaying the same step after restart must not crash again.
        assert!(!rt.should_crash(2, 5));
        assert_eq!(rt.stats().crashes_fired, 1);
    }

    #[test]
    fn nth_message_faults_hit_the_right_message() {
        let rt = FaultRuntime::new(FaultPlan::new(1).drop_nth(0, 2).corrupt_nth(1, 0), 2);
        assert_eq!(rt.on_send(0), SendAction::Deliver); // msg 0
        assert_eq!(rt.on_send(0), SendAction::Deliver); // msg 1
        assert_eq!(rt.on_send(0), SendAction::Drop); // msg 2
        assert_eq!(rt.on_send(0), SendAction::Deliver); // msg 3
        assert_eq!(rt.on_send(1), SendAction::Corrupt); // rank 1 msg 0
        assert_eq!(rt.on_send(1), SendAction::Deliver);
        let s = rt.stats();
        assert_eq!((s.dropped, s.corrupted, s.delayed), (1, 1, 0));
    }

    #[test]
    fn probabilistic_drops_are_deterministic_given_seed() {
        let decide = |seed: u64| -> Vec<bool> {
            let rt = FaultRuntime::new(FaultPlan::new(seed).drop_prob(0, 0.3), 1);
            (0..64).map(|_| rt.on_send(0) == SendAction::Drop).collect()
        };
        assert_eq!(decide(42), decide(42));
        assert_ne!(decide(42), decide(43));
        let hits = decide(42).iter().filter(|&&b| b).count();
        assert!(hits > 5 && hits < 40, "p=0.3 over 64 draws gave {hits}");
    }

    #[test]
    fn corrupt_changes_exactly_one_bit() {
        let mut p: Payload = vec![1.0f32, 2.0].into();
        corrupt_payload(&mut p);
        let v = p.into_f32();
        assert_ne!(v[0], 1.0);
        assert_eq!(v[1], 2.0);

        let mut p: Payload = vec![8u64].into();
        corrupt_payload(&mut p);
        assert_ne!(p.into_u64()[0], 8);
    }

    #[test]
    fn slow_rank_fires_only_inside_its_step_window() {
        let rt = FaultRuntime::new(FaultPlan::new(1).slow_rank(0, 3, 5, 250), 2);
        // Step 0 (never armed): outside the window.
        assert_eq!(rt.on_send(0), SendAction::Deliver);
        rt.set_step(3);
        assert_eq!(rt.on_send(0), SendAction::Delay(Duration::from_micros(250)));
        assert_eq!(rt.on_send(0), SendAction::Delay(Duration::from_micros(250)));
        // The other rank is healthy.
        assert_eq!(rt.on_send(1), SendAction::Deliver);
        rt.set_step(5); // exclusive upper bound: recovered
        assert_eq!(rt.on_send(0), SendAction::Deliver);
        let s = rt.stats();
        assert_eq!((s.slowed, s.delayed), (2, 0));
    }

    #[test]
    fn set_step_is_monotonic() {
        let rt = FaultRuntime::new(FaultPlan::none(), 1);
        rt.set_step(7);
        rt.set_step(3); // a lagging rank cannot move the window backwards
        assert_eq!(rt.current_step(), 7);
    }

    #[test]
    fn flaky_link_drops_only_inside_its_window_and_is_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let rt = FaultRuntime::new(FaultPlan::new(seed).flaky_link(0, 2, 4, 0.5), 1);
            let mut out = Vec::new();
            for step in 0..6 {
                rt.set_step(step);
                for _ in 0..16 {
                    out.push(rt.on_send(0) == SendAction::Drop);
                }
            }
            out
        };
        let a = run(9);
        assert_eq!(a, run(9), "same seed must replay exactly");
        assert!(!a[..32].iter().any(|&b| b), "no drops before the window");
        assert!(!a[64..].iter().any(|&b| b), "no drops after the window");
        let inside = a[32..64].iter().filter(|&&b| b).count();
        assert!(
            inside > 4 && inside < 28,
            "p=0.5 over 32 draws gave {inside}"
        );
    }

    #[test]
    fn one_shot_delay_wins_over_sustained_slowdown_without_double_count() {
        // A DelayNth aimed at a message inside a SlowRank window fires as
        // the one-shot (counted in `delayed`), not as a slowdown.
        let rt = FaultRuntime::new(
            FaultPlan::new(1).delay_nth(0, 0, 7).slow_rank(0, 0, 10, 1),
            1,
        );
        rt.set_step(1);
        assert_eq!(rt.on_send(0), SendAction::Delay(Duration::from_millis(7)));
        assert_eq!(rt.on_send(0), SendAction::Delay(Duration::from_micros(1)));
        let s = rt.stats();
        assert_eq!((s.delayed, s.slowed), (1, 1));
    }

    #[test]
    fn errors_format_usefully() {
        let e = CommError::Timeout {
            src: 3,
            tag: 7,
            waited_ms: 250,
        };
        assert!(e.to_string().contains("rank 3"));
        assert!(e.to_string().contains("250 ms"));
        assert!(CommError::PeerDead { peer: 1 }
            .to_string()
            .contains("rank 1"));
    }
}
