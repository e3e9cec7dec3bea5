//! Property-based tests of the collective algorithms: for arbitrary rank
//! counts, buffer lengths, and payload shapes, every algorithm must match
//! its mathematical definition, and the hierarchical all-to-all must be
//! semantically identical to the pairwise one.

use bagualu_comm::collectives::{
    allgather, allreduce_wire, alltoallv_hierarchical_wire, alltoallv_wire, broadcast,
    bucketed_allreduce_wire, reduce_scatter, ReduceOp,
};
use bagualu_comm::harness::{run_ranks, run_ranks_map};
use bagualu_comm::payload::WireDType;
use bagualu_comm::shm::Communicator;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn allreduce_sum_matches_definition(n in 1usize..9, len in 0usize..40, seed in 0u64..1000) {
        run_ranks(n, |c| {
            // Deterministic pseudo-data per (rank, index).
            let data: Vec<f32> = (0..len)
                .map(|i| ((c.rank() * 31 + i * 7 + seed as usize) % 13) as f32 - 6.0)
                .collect();
            let out = allreduce_wire(&c, data, ReduceOp::Sum, WireDType::F32);
            for (i, &v) in out.iter().enumerate() {
                let expect: f32 = (0..n)
                    .map(|r| ((r * 31 + i * 7 + seed as usize) % 13) as f32 - 6.0)
                    .sum();
                assert!((v - expect).abs() < 1e-4, "i={} v={} expect={}", i, v, expect);
            }
        });
    }

    #[test]
    fn allreduce_max_matches_definition(n in 1usize..9, len in 1usize..20) {
        run_ranks(n, |c| {
            let data: Vec<f32> = (0..len).map(|i| (c.rank() * len + i) as f32).collect();
            let out = allreduce_wire(&c, data, ReduceOp::Max, WireDType::F32);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, ((n - 1) * len + i) as f32);
            }
        });
    }

    #[test]
    fn hierarchical_alltoall_equals_pairwise(
        supernodes in 1usize..5,
        sn_size in 1usize..5,
        max_len in 1usize..6,
        seed in 0u64..1000,
    ) {
        let n = supernodes * sn_size;
        run_ranks(n, |c| {
            let parts: Vec<Vec<f32>> = (0..n)
                .map(|d| {
                    let len = (c.rank() + d + seed as usize) % max_len;
                    (0..len).map(|i| (c.rank() * 1000 + d * 10 + i) as f32).collect()
                })
                .collect();
            let flat = alltoallv_wire(&c, parts.clone(), WireDType::F32);
            let hier = alltoallv_hierarchical_wire(&c, parts, sn_size, WireDType::F32);
            assert_eq!(flat, hier);
        });
    }

    #[test]
    fn compressed_bucketed_allreduce_tracks_f32(
        n in 1usize..9,
        lens in proptest::collection::vec(0usize..40, 1..4),
        seed in 0u64..1000,
    ) {
        // For arbitrary rank counts and bucket shapes, the 16-bit wire must
        // reproduce the f32 result within per-hop rounding: values are
        // expanded to f32, accumulated, and re-rounded once per ring hop,
        // so the relative error is bounded by hops · ulp(dtype). bf16 keeps
        // 8 mantissa bits (2^-8 relative per rounding), f16 keeps 11.
        run_ranks(n, move |c| {
            let mk = |scale: f32| -> Vec<Vec<f32>> {
                lens.iter().enumerate().map(|(b, &len)| {
                    (0..len)
                        .map(|i| {
                            let v = ((c.rank() * 31 + b * 17 + i * 7 + seed as usize) % 23) as f32;
                            (v - 11.0) * scale
                        })
                        .collect()
                }).collect()
            };
            let exact = bucketed_allreduce_wire(&c, mk(0.25), ReduceOp::Sum, WireDType::F32);
            // The ring's reduce-scatter + all-gather rounds each value at
            // most 2(n-1) times; add slack for the final sum magnitude.
            for (wire, ulp) in [(WireDType::BF16, 1.0 / 256.0), (WireDType::F16, 1.0 / 2048.0)] {
                let got = bucketed_allreduce_wire(&c, mk(0.25), ReduceOp::Sum, wire);
                let tol_rel = 2.0 * n as f32 * ulp;
                for (be, bg) in exact.iter().zip(&got) {
                    assert_eq!(be.len(), bg.len());
                    for (&e, &g) in be.iter().zip(bg.iter()) {
                        let tol = (e.abs() * tol_rel).max(tol_rel);
                        assert!(
                            (e - g).abs() <= tol,
                            "{wire} wire drifted: exact={e} got={g} tol={tol} n={n}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn reduce_scatter_then_allgather_is_allreduce(
        n in 1usize..8,
        len in 1usize..50,
        seed in 0u64..1000,
    ) {
        run_ranks(n, |c| {
            // Small integers sum exactly in any order; the fractions match
            // bit for bit only if reduce-scatter sums in the ring's order.
            let ints: Vec<f32> = (0..len).map(|i| (c.rank() + i) as f32).collect();
            let fracs: Vec<f32> = (0..len)
                .map(|i| (c.rank() * len + i) as f32 / (seed as f32 + 3.0))
                .collect();
            for data in [ints, fracs] {
                let full = allreduce_wire(&c, data.clone(), ReduceOp::Sum, WireDType::F32);
                let chunk = reduce_scatter(&c, data, ReduceOp::Sum);
                let gathered = allgather(&c, chunk);
                let recomposed: Vec<f32> = gathered.into_iter().flatten().collect();
                assert_eq!(full, recomposed);
            }
        });
    }

    #[test]
    fn broadcast_reaches_everyone(n in 1usize..10, root_sel in 0usize..10, len in 0usize..30) {
        let root = root_sel % n;
        run_ranks(n, |c| {
            let msg = (c.rank() == root).then(|| (0..len).map(|i| i as f32 * 0.5).collect());
            let got = broadcast(&c, root, msg);
            assert_eq!(got.len(), len);
            for (i, &v) in got.iter().enumerate() {
                assert_eq!(v, i as f32 * 0.5);
            }
        });
    }
}

#[test]
fn alltoallv_total_volume_is_conserved() {
    // Whatever is sent is received, exactly once.
    let n = 6;
    let sums = run_ranks_map(n, |c| {
        let parts: Vec<Vec<f32>> = (0..n).map(|d| vec![1.0f32; (c.rank() + d) % 4]).collect();
        let sent: usize = parts.iter().map(|p| p.len()).sum();
        let got = alltoallv_wire(&c, parts, WireDType::F32);
        let received: usize = got.iter().map(|p| p.len()).sum();
        (sent, received)
    });
    let total_sent: usize = sums.iter().map(|(s, _)| s).sum();
    let total_recv: usize = sums.iter().map(|(_, r)| r).sum();
    assert_eq!(total_sent, total_recv);
}

/// The deadline harness passes well-behaved collective rounds straight
/// through — and would convert any future deadlock in them into a fast,
/// attributable failure instead of a hung test run.
#[test]
fn collective_round_completes_under_deadline_watchdog() {
    use bagualu_comm::harness::run_ranks_deadline;
    use std::time::Duration;

    run_ranks_deadline(4, Duration::from_secs(30), |c| {
        let summed = allreduce_wire(&c, vec![c.rank() as f32; 16], ReduceOp::Sum, WireDType::F32);
        assert!(summed.iter().all(|&v| v == 6.0));
        let rows = allgather(&c, vec![c.rank() as f32]);
        assert_eq!(rows, vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
    });
}
