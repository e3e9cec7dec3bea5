//! A rank that dies ends every wait on it. For every world size, every
//! victim rank and every call of a fixed sequence that runs each collective
//! entry point once, the victim panics just before that call. Its live
//! peers must not block on it: each one's wait unwinds with
//! `CommError::PeerDead`, and the harness re-raises the victim's own panic
//! — the root cause — within the watchdog deadline.

use bagualu::comm::collectives::{
    allgather, allreduce_recursive_doubling, allreduce_u64, allreduce_wire,
    alltoallv_hierarchical_wire, alltoallv_u32, alltoallv_wire, broadcast, bucketed_allreduce_wire,
    reduce_scatter, ReduceOp,
};
use bagualu::comm::harness::run_ranks_deadline;
use bagualu::comm::{Communicator, ShmComm, WireDType};
use bagualu::trainer::{TrainConfig, Trainer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Far above what any case takes; a case that reaches it hung.
const WATCHDOG: Duration = Duration::from_secs(10);

/// The sequence: call `k` runs one collective entry point on small data.
const CALLS: usize = 11;

fn call(c: &ShmComm, k: usize) {
    let n = c.size();
    let mine = vec![c.rank() as f32 + 1.0; 2 * n];
    let parts = || {
        (0..n)
            .map(|d| vec![d as f32; 1 + d % 2])
            .collect::<Vec<_>>()
    };
    match k {
        0 => drop(broadcast(c, 0, (c.rank() == 0).then(|| mine.clone()))),
        1 => drop(allreduce_wire(c, mine, ReduceOp::Sum, WireDType::F32)),
        2 => drop(bucketed_allreduce_wire(
            c,
            vec![mine.clone(), mine],
            ReduceOp::Sum,
            WireDType::BF16,
        )),
        3 => drop(allreduce_recursive_doubling(c, mine, ReduceOp::Max)),
        4 => drop(reduce_scatter(c, mine, ReduceOp::Sum)),
        5 => drop(allgather(c, mine)),
        6 => drop(alltoallv_wire(c, parts(), WireDType::F16)),
        7 => {
            let supernode = if n == 4 { 2 } else { 1 };
            drop(alltoallv_hierarchical_wire(
                c,
                parts(),
                supernode,
                WireDType::F32,
            ))
        }
        8 => drop(alltoallv_u32(c, (0..n).map(|d| vec![d as u32]).collect())),
        9 => drop(allreduce_u64(c, vec![1, c.rank() as u64])),
        10 => c.barrier(),
        _ => unreachable!("the sequence has {CALLS} calls"),
    }
}

/// The message `f`'s panic carried, or `None` when it returned.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
    Some(
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string panic payload>".into()),
    )
}

#[test]
fn a_dead_rank_ends_every_collective_wait_on_it() {
    // The sequence itself completes on a healthy world.
    for n in [2, 3, 4] {
        run_ranks_deadline(n, WATCHDOG, |c| (0..CALLS).for_each(|k| call(&c, k)));
    }

    let mut failed = Vec::new();
    let mut cases = 0;
    for n in [2, 3, 4] {
        for victim in 0..n {
            for k in 0..CALLS {
                cases += 1;
                let want = format!("victim n={n} v={victim} k={k}");
                let got = panic_message(|| {
                    run_ranks_deadline(n, WATCHDOG, move |c| {
                        for j in 0..CALLS {
                            if c.rank() == victim && j == k {
                                panic!("victim n={n} v={victim} k={k}");
                            }
                            call(&c, j);
                        }
                    })
                });
                if got.as_deref() != Some(want.as_str()) {
                    failed.push(format!("{want}: {got:?}"));
                }
            }
        }
    }
    assert!(
        failed.is_empty(),
        "{} of {cases} cases did not end with the victim's panic:\n{}",
        failed.len(),
        failed.join("\n")
    );
}

#[test]
fn a_dead_rank_ends_a_training_peer() {
    let cfg = TrainConfig {
        nranks: 2,
        steps: 3,
        ..Default::default()
    };
    let got = panic_message(|| {
        run_ranks_deadline(2, WATCHDOG, move |c| {
            if c.rank() == 1 {
                panic!("rank 1 dies before training");
            }
            Trainer::new(cfg).run_rank(&c);
        })
    });
    assert_eq!(got.as_deref(), Some("rank 1 dies before training"));
}
