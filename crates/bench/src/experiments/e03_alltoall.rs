//! E3 — all-to-all microbenchmark: pairwise vs hierarchical.
//!
//! Two parts:
//! * **functional**: wall-clock time of the real algorithms over 64 thread
//!   ranks (supernodes of 8), across message sizes;
//! * **projected**: α–β model times at 1k / 8k / 96k nodes, where the
//!   latency asymptotics actually separate the algorithms.

use crate::table::Table;
use bagualu::comm::collectives::{alltoallv_hierarchical_wire, alltoallv_wire};
use bagualu::comm::harness::run_ranks_map;
use bagualu::comm::WireDType;
use bagualu::hw::MachineConfig;
use bagualu::net::cost::CollectiveCost;
use std::time::Instant;

fn time_functional(nranks: usize, supernode: usize, floats_per_pair: usize, hier: bool) -> f64 {
    let reps = 5;
    let times = run_ranks_map(nranks, |c| {
        use bagualu::comm::shm::Communicator;
        let parts: Vec<Vec<f32>> = (0..nranks)
            .map(|d| vec![d as f32; floats_per_pair])
            .collect();
        // Warm up once, then time.
        let _ = if hier {
            alltoallv_hierarchical_wire(&c, parts.clone(), supernode, WireDType::F32)
        } else {
            alltoallv_wire(&c, parts.clone(), WireDType::F32)
        };
        c.barrier();
        let start = Instant::now();
        for _ in 0..reps {
            let _ = if hier {
                alltoallv_hierarchical_wire(&c, parts.clone(), supernode, WireDType::F32)
            } else {
                alltoallv_wire(&c, parts.clone(), WireDType::F32)
            };
        }
        c.barrier();
        start.elapsed().as_secs_f64() / reps as f64
    });
    times.iter().cloned().fold(0.0, f64::max)
}

pub(crate) fn run() {
    println!("== E3a: functional all-to-all, 64 thread-ranks, supernodes of 8 ==\n");
    let mut t = Table::new(&["floats/pair", "pairwise (ms)", "hierarchical (ms)", "ratio"]);
    for &n in &[64usize, 1024, 16384] {
        let flat = time_functional(64, 8, n, false);
        let hier = time_functional(64, 8, n, true);
        t.row(&[
            format!("{n}"),
            format!("{:.3}", flat * 1e3),
            format!("{:.3}", hier * 1e3),
            format!("{:.2}x", flat / hier),
        ]);
    }
    t.print();
    println!(
        "\n(Thread transport has no per-message wire latency, so the functional run\n\
         mainly validates semantics and volume; the latency advantage appears below.)\n"
    );

    println!("== E3b: projected all-to-all time on the Sunway topology ==\n");
    let mut t = Table::new(&["nodes", "bytes/pair", "pairwise", "hierarchical", "speedup"]);
    for &nodes in &[1024usize, 8192, 96_000] {
        let cc = CollectiveCost::new(MachineConfig::sunway_subset(nodes));
        for &bytes in &[64usize, 1024, 16 * 1024, 256 * 1024] {
            let flat = cc.alltoall_pairwise(nodes, bytes);
            let hier = cc.alltoall_hierarchical(nodes, bytes);
            t.row(&[
                format!("{nodes}"),
                format!("{bytes}"),
                format!("{:.3} ms", flat * 1e3),
                format!("{:.3} ms", hier * 1e3),
                format!("{:.1}x", flat / hier),
            ]);
        }
    }
    t.print();
    println!(
        "\nShape check: the hierarchical advantage grows with node count (latency\n\
         term Θ(n) → Θ(n/s + s)) and shrinks as per-pair payloads grow (it moves\n\
         every byte twice). The crossover matches the cost model in bagualu-net.\n"
    );
}
