//! Additional property-based coverage: tokenizer round trips, schedule
//! invariants, optimizer scaling behaviour, and link-cost sanity.

use bagualu::hw::NetworkParams;
use bagualu::model::param::{HasParams, Param};
use bagualu::optim::adam::{Adam, AdamConfig};
use bagualu::optim::schedule::LrSchedule;
use bagualu::tensor::Tensor;
use bagualu::tokenizer::Bpe;
use proptest::prelude::*;

struct One {
    p: Param,
}

impl HasParams for One {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn bpe_round_trips_arbitrary_ascii(text in "[ -~]{0,200}") {
        let bpe = Bpe::train("the quick brown fox the quick brown fox", 300);
        prop_assert_eq!(bpe.decode(&bpe.encode(&text)), text);
    }

    #[test]
    fn bpe_round_trips_arbitrary_unicode(text in "\\PC{0,80}") {
        let bpe = Bpe::train("héllo wörld héllo wörld", 280);
        prop_assert_eq!(bpe.decode(&bpe.encode(&text)), text);
    }

    #[test]
    fn bpe_never_exceeds_vocab(text in "[a-z ]{0,200}", vocab in 256usize..400) {
        let bpe = Bpe::train("aaaa bbbb aaaa bbbb ab ab ab", vocab);
        prop_assert!(bpe.vocab_size() <= vocab);
        for id in bpe.encode(&text) {
            prop_assert!(id < bpe.vocab_size());
        }
    }

    #[test]
    fn schedules_stay_within_bounds(
        peak in 1e-5f32..1.0,
        warmup in 0usize..100,
        extra in 1usize..1000,
        step in 0usize..2000,
    ) {
        let total = warmup + extra;
        let floor = peak * 0.1;
        for s in [
            LrSchedule::Constant(peak),
            LrSchedule::Warmup { peak, warmup },
            LrSchedule::WarmupCosine { peak, warmup, total, floor },
            LrSchedule::WarmupLinear { peak, warmup, total, floor },
        ] {
            let lr = s.at(step);
            prop_assert!(lr >= 0.0 && lr <= peak * (1.0 + 1e-6), "{s:?} at {step}: {lr}");
            prop_assert!(lr.is_finite());
        }
    }

    #[test]
    fn adam_is_scale_invariant_in_gradient_magnitude(scale in 0.5f32..100.0) {
        // Adam's update direction and (bias-corrected) magnitude are
        // invariant to a constant rescaling of all gradients.
        let mk = || One { p: Param::new("x", Tensor::from_vec(vec![2.0, -1.0], &[2])) };
        let run = |s: f32| {
            let mut m = mk();
            let mut opt = Adam::new(AdamConfig { lr: 0.01, ..Default::default() });
            for _ in 0..5 {
                let mut g = m.p.value.clone();
                g.scale(s);
                m.p.grad = g;
                opt.step(&mut m);
            }
            m.p.value.clone()
        };
        let a = run(1.0);
        let b = run(scale);
        prop_assert!(a.approx_eq(&b, 1e-3), "{:?} vs {:?}", a.as_slice(), b.as_slice());
    }

    #[test]
    fn link_cost_is_monotone_and_topology_aware(
        bytes1 in 0usize..1_000_000,
        bytes2 in 0usize..1_000_000,
    ) {
        // The α–β link model every collective cost in `bagualu-net` is built on.
        let net = NetworkParams::sunway();
        let (lo, hi) = if bytes1 <= bytes2 { (bytes1, bytes2) } else { (bytes2, bytes1) };
        // Monotone in bytes for both link classes.
        for same in [true, false] {
            prop_assert!(net.p2p_time(lo, same) <= net.p2p_time(hi, same));
        }
        // Cross-supernode at least as expensive as local for equal bytes.
        prop_assert!(net.p2p_time(hi, false) >= net.p2p_time(hi, true));
    }
}

#[test]
fn tied_and_untied_models_share_everything_but_the_head() {
    use bagualu::model::config::ModelConfig;
    use bagualu::model::transformer::Transformer;
    use bagualu::tensor::rng::Rng;
    let base = ModelConfig::tiny();
    let tied = ModelConfig {
        tie_embeddings: true,
        ..base
    };
    let mut a = Transformer::new(base, &mut Rng::seed_from(1));
    let mut b = Transformer::new(tied, &mut Rng::seed_from(1));
    let names = |m: &mut Transformer| {
        let mut v = Vec::new();
        m.visit_params(&mut |p| v.push(p.name.clone()));
        v
    };
    let na = names(&mut a);
    let nb = names(&mut b);
    assert!(na.iter().any(|n| n.starts_with("head")));
    assert!(!nb.iter().any(|n| n.starts_with("head")));
    let filtered: Vec<&String> = na.iter().filter(|n| !n.starts_with("head")).collect();
    assert_eq!(filtered.len(), nb.len());
}
