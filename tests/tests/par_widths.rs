//! The intra-op width is a performance setting, never a numerical one: a
//! 2-rank training run produces the same loss curve whether its rank
//! threads run at the width the harness derives (`cores / ranks`) or are
//! forced to fan every large kernel out over the whole pool.

use bagualu::comm::harness::run_ranks_map;
use bagualu::comm::Communicator;
use bagualu::model::config::ModelConfig;
use bagualu::tensor::par;
use bagualu::trace::{names, Trace, TraceCollector};
use bagualu::trainer::{TrainConfig, Trainer};

/// Big enough that the FFN and head GEMMs (128 tokens × 128 × 512
/// multiply-adds) clear `par::MIN_WORK` and fan out wherever a rank owns
/// more than one lane.
fn cfg() -> TrainConfig {
    TrainConfig {
        model: ModelConfig {
            vocab: 256,
            d_model: 128,
            n_heads: 4,
            d_ff: 512,
            max_seq: 32,
            ..ModelConfig::tiny()
        },
        nranks: 2,
        batch_per_rank: 4,
        seq: 32,
        steps: 3,
        seed: 5,
        trace: true,
        ..Default::default()
    }
}

/// `(dispatched, inline)` kernel calls over all ranks.
fn par_calls(trace: &Trace) -> (u64, u64) {
    (
        trace.counter_total(names::COMPUTE_PAR_DISPATCHED),
        trace.counter_total(names::COMPUTE_PAR_INLINE),
    )
}

#[test]
fn loss_curve_is_identical_at_harness_width_and_at_full_width() {
    let trainer = Trainer::new(cfg());

    let derived = trainer.run();
    let (fanned, inline) = par_calls(derived.trace.as_ref().expect("tracing was on"));
    assert!(inline > 0, "small kernels stay inline at any width");
    if par::rank_width(2) == 1 {
        assert_eq!(fanned, 0, "a one-lane rank never posts to the pool");
    }

    // The same two ranks, each widened inside its own thread to every core
    // (at least two lanes, so the fanned-out path runs on a one-core host
    // as well).
    let collector = TraceCollector::new();
    let forced = run_ranks_map(2, |c| {
        let _all = par::scoped_width(par::available_cores().max(2));
        let _lane = collector.install(c.rank());
        trainer.run_rank(&c)
    })
    .swap_remove(0);
    let (fanned, _) = par_calls(&collector.finish());
    assert!(fanned > 0, "full-width ranks fan the large GEMMs out");

    assert_eq!(derived.loss_curve, forced.loss_curve);
    assert_eq!(derived.aux_curve, forced.aux_curve);
}
