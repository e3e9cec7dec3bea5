//! The intra-op width is a performance setting, never a numerical one: a
//! 2-rank training run produces the same loss curve whether its rank
//! threads run at the width the harness derives (`cores / ranks`) or are
//! forced to fan every large kernel out over the whole pool.

use bagualu::model::config::ModelConfig;
use bagualu::tensor::par;
use bagualu::trace::names;
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

#[test]
fn loss_curve_is_identical_at_harness_width_and_at_full_width() {
    let dispatched = |r: &bagualu::trainer::TrainReport| {
        let trace = r.trace.as_ref().expect("tracing was on");
        (
            trace.counter_total(names::COMPUTE_PAR_DISPATCHED),
            trace.counter_total(names::COMPUTE_PAR_INLINE),
        )
    };

    let derived = Trainer::new(cfg()).run();
    let (fanned, inline) = dispatched(&derived);
    assert!(inline > 0, "small kernels stay inline at any width");
    if par::rank_width(2) == 1 {
        assert_eq!(fanned, 0, "a one-lane rank never posts to the pool");
    }

    // Rank threads split the *caller's* lanes, so a caller that owns twice
    // the pool hands each of its two ranks all of it (at least two lanes,
    // so the fanned-out path runs even on a one-core host).
    let forced = {
        let _all = par::scoped_width(2 * par::cores().max(2));
        Trainer::new(cfg()).run()
    };
    let (fanned, _) = dispatched(&forced);
    assert!(fanned > 0, "full-width ranks fan the large GEMMs out");

    assert_eq!(derived.loss_curve, forced.loss_curve);
    assert_eq!(derived.aux_curve, forced.aux_curve);
}
