//! Every optimizer in the crate trains the same model on the same data —
//! the cross-cutting sanity matrix (Adam, AdamW, and
//! the mixed-precision wrapper in all three dtypes).

use bagualu::model::config::ModelConfig;
use bagualu::model::param::HasParams;
use bagualu::model::transformer::Transformer;
use bagualu::optim::adam::{Adam, AdamConfig};
use bagualu::optim::mixed::MixedPrecision;
use bagualu::tensor::rng::Rng;
use bagualu::tensor::DType;

const STEPS: usize = 60;

fn data(cfg: &ModelConfig) -> (Vec<usize>, Vec<usize>) {
    let tokens: Vec<usize> = (0..16).map(|i| (i * 7) % cfg.vocab).collect();
    let targets: Vec<usize> = tokens.iter().map(|&t| (t + 5) % cfg.vocab).collect();
    (tokens, targets)
}

/// Train with a per-step closure applying the optimizer; return
/// (first, last) loss.
fn train(mut step_fn: impl FnMut(&mut Transformer)) -> (f32, f32) {
    let cfg = ModelConfig::tiny();
    let mut rng = Rng::seed_from(321);
    let mut model = Transformer::new(cfg, &mut rng);
    let (tokens, targets) = data(&cfg);
    let first = model.train_batch(&tokens, &targets, 2, 8);
    for _ in 0..STEPS {
        step_fn(&mut model);
        model.zero_grad();
        model.train_batch(&tokens, &targets, 2, 8);
    }
    let last = model.train_batch(&tokens, &targets, 2, 8);
    (first.ce_loss, last.ce_loss)
}

fn assert_learned(name: &str, first: f32, last: f32) {
    assert!(
        last < first * 0.4 && last.is_finite(),
        "{name} failed to learn: {first} -> {last}"
    );
}

#[test]
fn adam_learns() {
    let mut opt = Adam::new(AdamConfig {
        lr: 1e-2,
        ..Default::default()
    });
    let (f, l) = train(|m| opt.step(m));
    assert_learned("adam", f, l);
}

#[test]
fn adamw_learns() {
    let mut opt = Adam::new(AdamConfig {
        lr: 1e-2,
        weight_decay: 0.01,
        ..Default::default()
    });
    let (f, l) = train(|m| opt.step(m));
    assert_learned("adamw", f, l);
}

#[test]
fn mixed_precision_learns_in_every_dtype() {
    for dtype in [DType::F32, DType::BF16, DType::F16] {
        let mut opt = MixedPrecision::new(
            AdamConfig {
                lr: 1e-2,
                ..Default::default()
            },
            dtype,
        );
        let cfg = ModelConfig::tiny();
        let mut rng = Rng::seed_from(321);
        let mut model = Transformer::new(cfg, &mut rng);
        opt.quantize_model(&mut model);
        let (tokens, targets) = data(&cfg);
        let first = model.train_batch(&tokens, &targets, 2, 8);
        for _ in 0..STEPS {
            // Scale the pending grads like the trainer does.
            let s = opt.loss_scale();
            model.visit_params(&mut |p| p.grad.scale(s));
            opt.step(&mut model);
            model.zero_grad();
            model.train_batch(&tokens, &targets, 2, 8);
        }
        let last = model.train_batch(&tokens, &targets, 2, 8);
        assert_learned(&format!("mixed-{dtype}"), first.ce_loss, last.ce_loss);
    }
}
