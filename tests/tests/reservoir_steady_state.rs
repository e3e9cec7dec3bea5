//! The tensor reservoir's exact count: once a fixed-shape run has sized it, a
//! training step allocates nothing.
//!
//! One test in a file of its own, because the reservoir is process-wide and
//! `cargo test` runs the tests of one file as threads of one process: any
//! neighbour's tensors would show up in these counts. CI also runs this file
//! as a named step of its own.

use bagualu::trainer::{TrainConfig, Trainer};
use bagualu_model::config::ModelConfig;
use bagualu_tensor::ops::ComputeBackend;
use bagualu_tensor::reservoir;
use bagualu_trace::{names, EventKind, Trace};

const STEPS: usize = 4;

/// Dense only, so every size repeats exactly; 512 rows a rank, so the
/// activations run from 64 KiB (`[512, 32]`) to 512 KiB (`[512, 256]`
/// logits) and the step does go through the reservoir while every weight
/// stays below its cutoff; the tiled backend, so packed panels go through it
/// too. Not every shape settles: where the sizes a step needs in total
/// exceed 9/8 of its high-water mark (a one-layer model with a 64-wide
/// residual stream does), the reservoir keeps trading a few buffers per
/// step — see DESIGN.md "Memory: one reservoir".
fn fixed_shape(nranks: usize) -> TrainConfig {
    TrainConfig {
        model: ModelConfig {
            vocab: 256,
            d_model: 32,
            n_heads: 2,
            n_layers: 2,
            d_ff: 128,
            max_seq: 64,
            ..ModelConfig::tiny_dense()
        },
        nranks,
        batch_per_rank: 8,
        seq: 64,
        steps: STEPS,
        compute: ComputeBackend::Tiled,
        trace: true,
        ..TrainConfig::default()
    }
}

/// Reservoir miss bytes per publish on rank 0's lane, in the order they were
/// published: `[model build, step 0, step 1, …, end of run]`.
fn miss_bytes_per_publish(trace: &Trace) -> Vec<u64> {
    let lane = trace.lane(0).expect("rank 0 recorded");
    let misses = lane
        .events
        .iter()
        .filter(|e| e.name == names::MEM_RESERVOIR_MISS_BYTES);
    misses
        .map(|e| match e.kind {
            EventKind::Count(bytes) => bytes,
            _ => unreachable!("a counter name on a span event"),
        })
        .collect()
}

/// One `Trainer::run`: its misses per publish, and its loss curve.
fn run(cfg: TrainConfig) -> (Vec<u64>, Vec<f32>) {
    let report = Trainer::new(cfg).run();
    let trace = report.trace.expect("tracing was on");
    let misses = miss_bytes_per_publish(&trace);
    assert_eq!(misses.len(), STEPS + 2, "build, each step, end of run");
    assert!(trace.counter_total(names::MEM_RESERVOIR_HIT_BYTES) > 0);
    (misses, report.loss_curve)
}

#[test]
fn a_sized_reservoir_misses_nothing() {
    // One rank: what is taken when is program order alone, so the counts
    // are exact and repeat. The first step sizes the reservoir and the rest
    // of the run allocates nothing. The second run starts its first step
    // with the reservoir full, an order the first never saw, and adds one
    // last buffer. From then on nothing is allocated at all.
    let (first, first_loss) = run(fixed_shape(1));
    assert!(
        first[1] > 0,
        "the run never reached the reservoir: {first:?}"
    );
    assert_eq!(
        first[STEPS / 2 + 1..],
        [0; STEPS / 2 + 1],
        "a step past the second allocated: {first:?}"
    );
    let (second, second_loss) = run(fixed_shape(1));
    assert_eq!(first_loss, second_loss, "recycled storage changed numbers");
    assert!(
        10 * second.iter().sum::<u64>() <= first.iter().sum::<u64>(),
        "the second run allocated as if the first had not run: {second:?}"
    );
    assert_eq!(
        run(fixed_shape(1)).0,
        [0; STEPS + 2],
        "a third run allocated"
    );

    // Two ranks share the one reservoir, and which of them finds a given
    // buffer idle depends on how far apart they happen to be: a pairing of
    // demands that no earlier step saw can still turn up, so their count is
    // small rather than exact. Most later runs allocate nothing and none
    // comes near what the first one needed.
    let first_two: u64 = run(fixed_shape(2)).0.iter().sum();
    assert!(first_two > 0, "two ranks need more than one did");
    let mut later: Vec<u64> = (0..3).map(|_| run(fixed_shape(2)).0.iter().sum()).collect();
    later.sort_unstable();
    assert!(
        10 * later[1] <= first_two && 2 * later[2] <= first_two,
        "two-rank runs did not settle: {first_two} then {later:?}"
    );
    let s = reservoir::global().stats();
    assert_eq!(s.live_bytes, 0, "every tensor of every run was given back");
    assert!(s.retained_bytes <= s.bound_bytes());
}
