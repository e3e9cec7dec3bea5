//! E16 — all-reduce algorithm selection by message size.
//!
//! A training step carries reductions at two extremes: gigabytes of dense
//! gradients (bandwidth-bound) and 4-byte control flags — loss scalars,
//! overflow votes — on the latency floor. No single algorithm wins both;
//! this table shows where each of ring, recursive doubling, and the
//! hierarchical composition takes over on the 96,000-node topology.

use crate::table::Table;
use bagualu::hw::MachineConfig;
use bagualu::net::cost::CollectiveCost;

fn fmt(t: f64) -> String {
    if t >= 1.0 {
        format!("{t:.2} s")
    } else if t >= 1e-3 {
        format!("{:.2} ms", t * 1e3)
    } else {
        format!("{:.1} us", t * 1e6)
    }
}

pub(crate) fn run() {
    println!("== E16: all-reduce algorithm selection, 96,000 nodes ==\n");
    let cc = CollectiveCost::new(MachineConfig::new_generation_sunway());
    let n = 96_000;
    let mut t = Table::new(&[
        "payload",
        "flat ring",
        "recursive doubling",
        "hierarchical",
        "winner",
    ]);
    for &(bytes, label) in &[
        (4usize, "4 B (flag)"),
        (4 * 1024, "4 KiB"),
        (1 << 20, "1 MiB"),
        (64 << 20, "64 MiB"),
        (4usize << 30, "4 GiB (grads)"),
    ] {
        let ring = cc.allreduce_ring(n, bytes);
        let rd = cc.allreduce_recursive_doubling(n, bytes);
        let hier = cc.allreduce_hierarchical(n, bytes);
        let winner = if rd <= ring && rd <= hier {
            "recursive doubling"
        } else if hier <= ring {
            "hierarchical"
        } else {
            "ring"
        };
        t.row(&[label.into(), fmt(ring), fmt(rd), fmt(hier), winner.into()]);
    }
    t.print();
    println!(
        "\nShape check: recursive doubling owns the latency floor (Θ(log n)·α ≈\n\
         80 µs vs the ring's 2n·α ≈ 0.9 s), the hierarchical composition owns the\n\
         bandwidth regime. The trainer uses exactly this split: doubling for\n\
         control scalars, hierarchical for gradients.\n"
    );
}
