//! Rank thread harness: spawn one thread per rank, join, propagate panics.
//!
//! A rank thread is born with its share of the cores as intra-op lanes
//! ([`par::rank_width`]: `max(1, cores / n)`), the way each BaGuaLu rank
//! owns one core group: kernels inside a rank fan out over that many lanes
//! and no further, so ranks never contend for each other's cores.
//!
//! A rank that fails is dead to its peers, so their waits on it end
//! instead of hanging. [`run_ranks_ft`] traps per-rank panics and comm
//! errors into [`RankOutcome`]s, and [`run_ranks_deadline`] is the
//! deadlock watchdog for tests — a mismatched-tag hang (a live peer that
//! never sends) fails within the deadline with a diagnostic instead of
//! stalling CI.

use crate::fault::CommError;
use crate::shm::{ShmComm, World};
use bagualu_tensor::par;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Run `f` on `n` ranks, one OS thread each. Panics in any rank are
/// propagated to the caller after all threads have been joined.
pub fn run_ranks<F>(n: usize, f: F)
where
    F: Fn(ShmComm) + Send + Sync,
{
    run_ranks_map(n, f);
}

/// Like [`run_ranks`] but collects one result per rank, in rank order.
pub fn run_ranks_map<F, R>(n: usize, f: F) -> Vec<R>
where
    F: Fn(ShmComm) -> R + Send + Sync,
    R: Send,
{
    run_world(&World::new(n), f)
}

/// [`run_ranks_ft`] over `world` with every rank's failure the caller's:
/// results in rank order, or, after all threads have been joined, the
/// first rank panic re-raised with its message. A crash is the root cause;
/// the [`CommError`]s it set off in its peers are reported only when no
/// rank crashed.
fn run_world<F, R>(world: &World, f: F) -> Vec<R>
where
    F: Fn(ShmComm) -> R + Send + Sync,
    R: Send,
{
    let mut results = Vec::new();
    let mut lost = None;
    for outcome in run_ranks_ft(world, |c| Ok(f(c))) {
        match outcome {
            RankOutcome::Ok(r) => results.push(r),
            RankOutcome::Crashed(msg) => panic!("{msg}"),
            RankOutcome::TimedOut(e) => lost = lost.or(Some(e)),
        }
    }
    if let Some(e) = lost {
        panic!("{e}");
    }
    results
}

/// How one rank of a fault-tolerant run ended.
#[derive(Debug)]
pub enum RankOutcome<R> {
    /// The rank's closure returned normally.
    Ok(R),
    /// The rank panicked (fault-injected crash or a bug); the payload is
    /// the panic message.
    Crashed(String),
    /// The rank aborted on a communication error — a deadline receive
    /// timed out or a peer was found dead — whether returned or unwound
    /// with.
    TimedOut(CommError),
}

impl<R> RankOutcome<R> {
    /// Did the rank's closure return normally?
    pub fn is_ok(&self) -> bool {
        matches!(self, RankOutcome::Ok(_))
    }

    /// The result of a successful rank, if any.
    pub fn ok(self) -> Option<R> {
        match self {
            RankOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }
}

/// Run `f` on every rank of `world`, trapping failures per rank instead of
/// propagating them. A rank that panics or returns `Err` is marked **dead**
/// in the world before its thread exits, which wakes every blocked
/// receiver: survivors' waits on it resolve with [`CommError::PeerDead`]
/// promptly instead of hanging or waiting out their full deadline.
/// Returns one [`RankOutcome`] per rank, in rank order.
pub fn run_ranks_ft<F, R>(world: &World, f: F) -> Vec<RankOutcome<R>>
where
    F: Fn(ShmComm) -> Result<R, CommError> + Send + Sync,
    R: Send,
{
    let comms = world.comms();
    let lanes = par::rank_width(comms.len());
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, c)| {
                s.spawn(move || {
                    let _lanes = par::scoped_width(lanes);
                    // A rank that unwinds was marked dead as its `ShmComm`
                    // dropped; one that returns an error is marked here,
                    // before any join.
                    match catch_unwind(AssertUnwindSafe(|| f(c))) {
                        Ok(Ok(r)) => RankOutcome::Ok(r),
                        Ok(Err(e)) => {
                            world.mark_dead(rank);
                            RankOutcome::TimedOut(e)
                        }
                        Err(payload) => match payload.downcast::<CommError>() {
                            Ok(e) => RankOutcome::TimedOut(*e),
                            Err(payload) => RankOutcome::Crashed(
                                payload
                                    .downcast_ref::<&str>()
                                    .map(|s| s.to_string())
                                    .or_else(|| payload.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "<non-string panic payload>".into()),
                            ),
                        },
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| unreachable!("rank closure is catch_unwind-wrapped"))
            })
            .collect()
    })
}

/// Watchdog wrapper for comm tests: run `f` on `n` ranks, but fail with a
/// diagnostic panic if the whole world has not finished within `deadline` —
/// a mismatched tag or a swallowed message then costs seconds, not a CI
/// job timeout. Rank panics propagate as usual when the run does finish.
///
/// On deadline expiry the stuck rank threads are leaked (they are blocked
/// on condvars and cannot be cancelled); the test process reaps them at
/// exit.
pub fn run_ranks_deadline<F>(n: usize, deadline: Duration, f: F)
where
    F: Fn(ShmComm) + Send + Sync + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(|| run_ranks(n, f)));
        let _ = tx.send(result);
    });
    match rx.recv_timeout(deadline) {
        Ok(Ok(())) => {}
        Ok(Err(panic)) => resume_unwind(panic),
        Err(_) => panic!(
            "deadlock watchdog: {n} ranks still running after {deadline:?} — \
             likely a mismatched (src, tag) pair, a missing send, or a \
             dropped message with no timeout on the receive"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shm::Communicator;

    #[test]
    fn map_returns_in_rank_order() {
        let out = run_ranks_map(6, |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    /// Rank threads split the cores `n` ways — on every `run_ranks*` entry
    /// point — and the spawning thread keeps its own width, also when a
    /// rank unwinds.
    #[test]
    fn rank_threads_get_their_share_of_the_cores() {
        let cores = par::available_cores();
        assert_eq!(
            par::current_num_threads(),
            cores,
            "an ordinary thread owns every core"
        );
        for n in [1, 2, 3, cores + 1] {
            let want = (cores / n).max(1);
            assert_eq!(
                run_ranks_map(n, |_| par::current_num_threads()),
                vec![want; n]
            );
            for outcome in run_ranks_ft(&World::new(n), |_| Ok(par::current_num_threads())) {
                assert!(matches!(outcome, RankOutcome::Ok(w) if w == want));
            }
        }
        let unwound = catch_unwind(|| run_ranks(2, |_| panic!("rank dies at its rank width")));
        assert!(unwound.is_err());
        assert_eq!(
            par::current_num_threads(),
            cores,
            "caller's width survives a rank panic"
        );

        // The share is of the cores, whatever width the caller runs at
        // itself; the caller's own width comes back untouched.
        let _mine = par::scoped_width(3 * cores);
        assert_eq!(
            run_ranks_map(3, |_| par::current_num_threads()),
            vec![(cores / 3).max(1); 3]
        );
        assert_eq!(par::current_num_threads(), 3 * cores);
    }

    #[test]
    #[should_panic(expected = "rank 2 exploded")]
    fn panics_propagate() {
        run_ranks(4, |c| {
            if c.rank() == 2 {
                panic!("rank 2 exploded");
            }
        });
    }

    #[test]
    fn ft_collects_outcomes_instead_of_propagating() {
        let world = World::new(3);
        let outcomes = run_ranks_ft(&world, |c| {
            match c.rank() {
                0 => Ok(c.rank()),
                1 => panic!("injected: rank 1 dies"),
                // Rank 2 waits on the dead rank 1 and must resolve, not hang.
                _ => c
                    .recv_timeout(1, 9, Duration::from_secs(5))
                    .map(|_| usize::MAX),
            }
        });
        assert!(matches!(outcomes[0], RankOutcome::Ok(0)));
        assert!(matches!(&outcomes[1], RankOutcome::Crashed(m) if m.contains("rank 1 dies")));
        assert!(matches!(
            &outcomes[2],
            RankOutcome::TimedOut(CommError::PeerDead { peer: 1 })
        ));
        assert!(world.is_dead(1));
        assert!(!world.is_dead(0));
    }

    #[test]
    fn deadline_passes_fast_runs_through() {
        run_ranks_deadline(4, Duration::from_secs(30), |c| {
            let peer = c.size() - 1 - c.rank();
            if peer != c.rank() {
                c.send(peer, 1, vec![c.rank() as u64].into());
                assert_eq!(c.recv(peer, 1).into_u64(), vec![peer as u64]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "deadlock watchdog")]
    fn deadline_catches_a_mismatched_tag_hang() {
        // Rank 1 receives on a tag nobody sends: a classic deadlock that
        // would stall CI forever without the watchdog.
        run_ranks_deadline(2, Duration::from_millis(300), |c| {
            if c.rank() == 0 {
                c.send(1, 7, vec![1.0f32].into());
            } else {
                c.recv(0, 8);
            }
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn deadline_still_propagates_rank_panics() {
        run_ranks_deadline(2, Duration::from_secs(30), |c| {
            if c.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn counted_reports_traffic() {
        let world = World::new(2);
        run_ranks_ft(&world, |c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![0u64; 4].into());
            } else {
                c.recv(0, 1);
            }
            Ok(())
        });
        let stats = world.stats();
        assert_eq!((stats.total_bytes, stats.total_msgs), (32, 1));
    }
}
