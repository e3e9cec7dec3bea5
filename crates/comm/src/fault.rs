//! Deterministic fault injection and the error-carrying comm surface.
//!
//! At 96,000 nodes component failure during a run is the expected case, so
//! the transport must be testable *under* faults, not only without them.
//! This module provides:
//!
//! * [`FaultPlan`] — a declarative schedule of faults (rank crash at a
//!   training step, a lost checkpoint shard, nth-message drop/delay, and a
//!   sustained per-send slowdown of one rank over a step range). Plans are
//!   pure data; [`FaultRuntime`] is the live state that a
//!   [`crate::shm::World`] consults on every send. Every decision is
//!   deterministic given the plan (per-rank message counters and the armed
//!   training step), so a failing schedule replays exactly.
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
//! detected only by `recv_timeout`'s deadline.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// One scheduled fault. `rank` is always a **world** rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// The rank panics at the start of training step `at_step`. The
    /// trainer (or any step-structured driver) polls [`FaultRuntime::fire`];
    /// the transport itself has no step notion. Fires once, even across
    /// checkpoint-restart replays.
    Crash {
        /// World rank that crashes.
        rank: usize,
        /// Training step at whose start the crash fires.
        at_step: usize,
    },
    /// Stage two of `rank`'s checkpoint shard for step `step` is lost: its
    /// staged bytes never reach the disk, as after a power loss or a kernel
    /// crash of the rank's node. The trainer polls [`FaultRuntime::fire`]
    /// when it hands the shard to its writer. Fires once, even across
    /// checkpoint-restart replays.
    LoseShard {
        /// World rank whose shard is lost.
        rank: usize,
        /// Checkpoint step of the lost shard.
        step: usize,
    },
    /// Silently discard the `nth` message sent by `from` (0-based over the
    /// rank's lifetime sends).
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
}

/// A deterministic schedule of faults. Pure data — clone it freely, hand
/// it to [`FaultRuntime::new`] to arm it against a world.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan: no faults, zero overhead beyond a null check.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
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

    /// Lose stage two of `rank`'s checkpoint shard for `step` (fires once).
    pub fn lose_shard(mut self, rank: usize, step: usize) -> FaultPlan {
        self.events.push(FaultSpec::LoseShard { rank, step });
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
}

/// Live state of an armed [`FaultPlan`]: per-rank send counters plus
/// one-shot flags so an event fires exactly once even when a
/// checkpoint-restart loop replays the schedule across several worlds.
/// Share one runtime (via `Arc`) across all restart attempts of a run.
#[derive(Debug)]
pub struct FaultRuntime {
    plan: FaultPlan,
    /// One-shot latch per plan event, indexed like `plan.events`.
    fired: Vec<AtomicBool>,
    /// Lifetime messages sent, per world rank.
    send_seq: Vec<AtomicU64>,
    /// The training step the driver last armed via [`FaultRuntime::set_step`].
    /// Sustained (step-ranged) faults consult this; it only moves forward.
    step: AtomicU64,
}

impl FaultRuntime {
    /// Arm `plan` against a world of `nranks` ranks.
    pub fn new(plan: FaultPlan, nranks: usize) -> FaultRuntime {
        let fired = (0..plan.events.len())
            .map(|_| AtomicBool::new(false))
            .collect();
        let send_seq = (0..nranks).map(|_| AtomicU64::new(0)).collect();
        FaultRuntime {
            plan,
            fired,
            send_seq,
            step: AtomicU64::new(0),
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

    /// Claim the one-shot step event `event` — a [`FaultSpec::Crash`] when
    /// its rank reaches the start of its step, a [`FaultSpec::LoseShard`]
    /// when its rank hands that checkpoint shard to its writer. True the
    /// first time a scheduled event is claimed; false for an event the plan
    /// does not hold and on every later call, so a restarted run replaying
    /// the same steps does not fault again on the same event. An
    /// nth-message event the transport has already applied reads as
    /// claimed too.
    pub fn fire(&self, event: FaultSpec) -> bool {
        self.plan.events.iter().zip(&self.fired).any(|(&e, fired)| {
            e == event
                && fired
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
        })
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
                _ => None,
            };
            if let Some(a) = action {
                if self.fired[i]
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    return a;
                }
            }
        }
        // Sustained (step-ranged) degradation: never one-shot. Checked last
        // so one-shot events keep their exact nth-message semantics even
        // inside a degradation window.
        let step = self.step.load(Ordering::Relaxed) as usize;
        for e in &self.plan.events {
            if let FaultSpec::SlowRank {
                rank,
                from_step,
                to_step,
                delay_us,
            } = *e
            {
                if rank == from && (from_step..to_step).contains(&step) {
                    return SendAction::Delay(Duration::from_micros(delay_us));
                }
            }
        }
        SendAction::Deliver
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

    impl FaultRuntime {
        /// The last step armed via [`FaultRuntime::set_step`] (0 before any call).
        fn current_step(&self) -> usize {
            self.step.load(Ordering::Relaxed) as usize
        }
    }

    #[test]
    fn plan_builder_accumulates_events() {
        let p = FaultPlan::none()
            .crash(1, 10)
            .lose_shard(1, 8)
            .drop_nth(0, 3)
            .delay_nth(2, 5, 20)
            .slow_rank(0, 1, 4, 250);
        assert_eq!(p.events.len(), 5);
        assert!(!p.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn crash_fires_exactly_once() {
        let crash = |rank, at_step| FaultSpec::Crash { rank, at_step };
        let rt = FaultRuntime::new(FaultPlan::none().crash(2, 5), 4);
        assert!(!rt.fire(crash(2, 4)));
        assert!(!rt.fire(crash(1, 5)));
        assert!(rt.fire(crash(2, 5)));
        // Replaying the same step after restart must not crash again.
        let replays = (0..3).filter(|_| rt.fire(crash(2, 5))).count();
        assert_eq!(replays, 0, "the crash fired once");
    }

    #[test]
    fn a_lost_shard_is_lost_exactly_once_and_is_no_crash() {
        let lose = |rank, step| FaultSpec::LoseShard { rank, step };
        let crash = FaultSpec::Crash {
            rank: 1,
            at_step: 8,
        };
        let rt = FaultRuntime::new(FaultPlan::none().crash(1, 8).lose_shard(1, 8), 2);
        assert!(!rt.fire(lose(0, 8)));
        assert!(!rt.fire(lose(1, 4)));
        assert!(rt.fire(lose(1, 8)));
        assert!(!rt.fire(lose(1, 8)), "replayed after the restore");
        // Losing the shard claimed no crash: the crash at the same rank
        // and step is still armed, and fires once.
        assert!(rt.fire(crash));
        assert!(!rt.fire(crash));
    }

    #[test]
    fn nth_message_faults_hit_the_right_message() {
        let rt = FaultRuntime::new(FaultPlan::none().drop_nth(0, 2).delay_nth(1, 0, 5), 2);
        let rank0: Vec<_> = (0..4).map(|_| rt.on_send(0)).collect();
        let rank1: Vec<_> = (0..2).map(|_| rt.on_send(1)).collect();
        use SendAction::{Delay, Deliver, Drop};
        assert_eq!(rank0, [Deliver, Deliver, Drop, Deliver], "msg 2 only");
        assert_eq!(rank1, [Delay(Duration::from_millis(5)), Deliver]);
        // Both one-shots are spent: the transport claimed their latches.
        assert!(!rt.fire(FaultSpec::DropNth { from: 0, nth: 2 }));
        assert!(!rt.fire(FaultSpec::DelayNth {
            from: 1,
            nth: 0,
            millis: 5
        }));
    }

    #[test]
    fn slow_rank_fires_only_inside_its_step_window() {
        let rt = FaultRuntime::new(FaultPlan::none().slow_rank(0, 3, 5, 250), 2);
        // Step 0 (never armed): outside the window.
        assert_eq!(rt.on_send(0), SendAction::Deliver);
        rt.set_step(3);
        assert_eq!(rt.on_send(0), SendAction::Delay(Duration::from_micros(250)));
        assert_eq!(rt.on_send(0), SendAction::Delay(Duration::from_micros(250)));
        // The other rank is healthy.
        assert_eq!(rt.on_send(1), SendAction::Deliver);
        rt.set_step(5); // exclusive upper bound: recovered
        assert_eq!(rt.on_send(0), SendAction::Deliver);
    }

    #[test]
    fn set_step_is_monotonic() {
        let rt = FaultRuntime::new(FaultPlan::none(), 1);
        rt.set_step(7);
        rt.set_step(3); // a lagging rank cannot move the window backwards
        assert_eq!(rt.current_step(), 7);
    }

    #[test]
    fn one_shot_delay_wins_over_sustained_slowdown_without_double_count() {
        // A DelayNth aimed at a message inside a SlowRank window fires as
        // the one-shot alone: that message stalls 7 ms, not 7 ms plus the
        // slowdown, and only the later messages are slowed.
        let delay = FaultSpec::DelayNth {
            from: 0,
            nth: 0,
            millis: 7,
        };
        let rt = FaultRuntime::new(
            FaultPlan::none().delay_nth(0, 0, 7).slow_rank(0, 0, 10, 1),
            1,
        );
        rt.set_step(1);
        let actions: Vec<_> = (0..3).map(|_| rt.on_send(0)).collect();
        let slowed = SendAction::Delay(Duration::from_micros(1));
        assert_eq!(
            actions,
            [SendAction::Delay(Duration::from_millis(7)), slowed, slowed]
        );
        assert!(!rt.fire(delay), "the one-shot is spent");
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
