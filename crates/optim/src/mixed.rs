//! Mixed-precision training: FP32 master weights + half working weights.
//!
//! Protocol per step (caller side):
//!
//! 1. scale the loss gradient by [`MixedPrecision::loss_scale`] before
//!    `backward`,
//! 2. call [`MixedPrecision::step`] — it unscales gradients, skips the
//!    update on overflow (shrinking the scale), otherwise runs the FP32
//!    Adam update on the master weights and writes half-rounded copies back
//!    into the model (in FP32 the model's weights are the masters and
//!    nothing is copied),
//! 3. `zero_grad` and continue.
//!
//! The model's working parameters therefore always carry the configured
//! half format's rounding, reproducing the numerics of storing weights in
//! FP16/BF16 on the accelerator while the optimizer state stays FP32.

use crate::adam::{Adam, AdamConfig};
use crate::scaler::LossScaler;
use bagualu_model::param::HasParams;
use bagualu_tensor::{DType, Tensor};

/// What happened on a mixed-precision step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Gradients were finite; the update was applied.
    Applied,
    /// Non-finite gradients detected; the update was skipped and the loss
    /// scale reduced.
    SkippedOverflow,
}

/// FP32-master-weight optimizer wrapper.
pub struct MixedPrecision {
    pub dtype: DType,
    pub scaler: LossScaler,
    adam: Adam,
    /// FP32 master weights, one per parameter; stays empty for `DType::F32`.
    masters: Vec<Tensor>,
    /// Steps skipped due to overflow (telemetry for experiments).
    pub skipped_steps: u64,
    pub applied_steps: u64,
}

impl MixedPrecision {
    /// Wrap `cfg` for training in `dtype`. FP32 gets a disabled scaler;
    /// BF16 keeps scaling optional (its exponent range matches FP32) but
    /// defaults to disabled; FP16 gets the standard dynamic scaler.
    pub fn new(cfg: AdamConfig, dtype: DType) -> MixedPrecision {
        let scaler = match dtype {
            DType::F16 => LossScaler::default(),
            DType::F32 | DType::BF16 => LossScaler::disabled(),
        };
        MixedPrecision {
            dtype,
            scaler,
            adam: Adam::new(cfg),
            masters: Vec::new(),
            skipped_steps: 0,
            applied_steps: 0,
        }
    }

    /// Override the scaler (e.g. to demonstrate FP16 *without* scaling in
    /// the precision ablation).
    pub fn with_scaler(mut self, scaler: LossScaler) -> MixedPrecision {
        self.scaler = scaler;
        self
    }

    /// Multiplier the caller applies to the loss gradient before backward.
    pub fn loss_scale(&self) -> f32 {
        self.scaler.scale()
    }

    /// Change the inner optimizer's learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.adam.set_lr(lr);
    }

    /// Round the model's working weights through the half format. Call once
    /// after construction so the very first forward already sees the half
    /// numerics; `step` maintains the invariant afterwards.
    pub fn quantize_model(&mut self, model: &mut dyn HasParams) {
        let dt = self.dtype;
        model.visit_params(&mut |p| p.value.quantize(dt));
    }

    /// One optimizer step. Returns whether the update was applied.
    pub fn step(&mut self, model: &mut dyn HasParams) -> StepOutcome {
        // Unscale and overflow-check the gradients. Scaling by exactly 1.0
        // changes no bit, so an unscaled run skips that pass.
        let inv = 1.0 / self.scaler.scale();
        let mut overflow = false;
        model.visit_params(&mut |p| {
            if inv != 1.0 {
                p.grad.scale(inv);
            }
            if p.grad.has_non_finite() {
                overflow = true;
            }
        });

        if overflow {
            self.scaler.update(true);
            self.skipped_steps += 1;
            return StepOutcome::SkippedOverflow;
        }

        if self.dtype == DType::F32 {
            // The working weights *are* the master weights: rounding through
            // f32 is the identity, so there is no copy to keep.
            self.adam.step(model);
        } else {
            // Capture master weights on first use (from the *unquantized*
            // values if the caller hasn't quantized yet — idempotent either
            // way).
            if self.masters.is_empty() {
                model.visit_params(&mut |p| self.masters.push(p.value.clone()));
            }
            // Swap master weights in, run the FP32 update, swap the refreshed
            // masters back out and publish their half-rounded values in the
            // working buffers.
            let masters = &mut self.masters;
            let mut i = 0usize;
            model.visit_params(&mut |p| {
                std::mem::swap(&mut p.value, &mut masters[i]);
                i += 1;
            });
            self.adam.step(model);
            let dt = self.dtype;
            let mut i = 0usize;
            model.visit_params(&mut |p| {
                std::mem::swap(&mut p.value, &mut masters[i]);
                p.value
                    .as_mut_slice()
                    .copy_from_slice(masters[i].as_slice());
                p.value.quantize(dt);
                i += 1;
            });
        }

        self.scaler.update(false);
        self.applied_steps += 1;
        StepOutcome::Applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagualu_model::param::Param;

    struct One {
        p: Param,
    }

    impl HasParams for One {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.p);
        }
    }

    #[test]
    fn fp32_step_matches_plain_adam() {
        let cfg = AdamConfig {
            lr: 0.1,
            ..Default::default()
        };
        let mut a = One {
            p: Param::new("x", Tensor::from_vec(vec![1.0, -2.0], &[2])),
        };
        let mut b = One {
            p: Param::new("x", Tensor::from_vec(vec![1.0, -2.0], &[2])),
        };
        let mut plain = Adam::new(cfg);
        let mut mixed = MixedPrecision::new(cfg, DType::F32);
        for _ in 0..5 {
            a.p.grad = a.p.value.clone();
            plain.step(&mut a);
            b.p.grad = b.p.value.clone();
            assert_eq!(mixed.step(&mut b), StepOutcome::Applied);
        }
        assert!(a.p.value.approx_eq(&b.p.value, 0.0));
        assert!(
            mixed.masters.is_empty(),
            "f32 weights are their own masters"
        );
    }

    #[test]
    fn half_step_reuses_the_working_buffer() {
        let mut m = One {
            p: Param::new("x", Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3])),
        };
        let mut opt = MixedPrecision::new(AdamConfig::default(), DType::BF16);
        opt.quantize_model(&mut m);
        let working = m.p.value.as_slice().as_ptr();
        for _ in 0..3 {
            m.p.grad = Tensor::from_vec(vec![0.5, -0.5, 0.25], &[3]);
            assert_eq!(opt.step(&mut m), StepOutcome::Applied);
            assert_eq!(m.p.value.as_slice().as_ptr(), working);
            let mut rounded = opt.masters[0].clone();
            rounded.quantize(DType::BF16);
            assert_eq!(m.p.value.as_slice(), rounded.as_slice());
        }
    }

    #[test]
    fn overflow_skips_and_shrinks_scale() {
        let cfg = AdamConfig::default();
        let mut m = One {
            p: Param::new("x", Tensor::from_vec(vec![1.0], &[1])),
        };
        let mut opt = MixedPrecision::new(cfg, DType::F16);
        let s0 = opt.loss_scale();
        m.p.grad = Tensor::from_vec(vec![f32::INFINITY], &[1]);
        assert_eq!(opt.step(&mut m), StepOutcome::SkippedOverflow);
        assert_eq!(
            m.p.value.as_slice(),
            &[1.0],
            "value must not move on overflow"
        );
        assert!(opt.loss_scale() < s0);
        assert_eq!(opt.skipped_steps, 1);
    }

    #[test]
    fn working_weights_carry_half_rounding() {
        let cfg = AdamConfig {
            lr: 1e-4,
            ..Default::default()
        };
        let mut m = One {
            p: Param::new("x", Tensor::from_vec(vec![1.0 + 2.0f32.powi(-12)], &[1])),
        };
        let mut opt = MixedPrecision::new(cfg, DType::F16);
        opt.quantize_model(&mut m);
        // The working copy is rounded to an f16-representable value…
        assert_eq!(m.p.value.as_slice()[0], 1.0);
        m.p.grad = Tensor::from_vec(vec![0.0], &[1]);
        opt.step(&mut m);
        // …while the master kept the full value: with zero grad the master
        // is unchanged, and the published value is its rounding.
        assert_eq!(m.p.value.as_slice()[0], 1.0);
    }

    #[test]
    fn master_weights_accumulate_below_half_resolution() {
        // Updates of ~1e-4 are below BF16 resolution near 1.0 (2⁻⁸); without
        // master weights they would be lost entirely. With masters they
        // accumulate and eventually move the working weight.
        let cfg = AdamConfig {
            lr: 1e-4,
            ..Default::default()
        };
        let mut m = One {
            p: Param::new("x", Tensor::from_vec(vec![1.0], &[1])),
        };
        let mut opt = MixedPrecision::new(cfg, DType::BF16);
        opt.quantize_model(&mut m);
        for _ in 0..100 {
            m.p.grad = Tensor::from_vec(vec![1.0], &[1]); // constant push down
            opt.step(&mut m);
            m.p.zero_grad();
        }
        // 100 steps × ~1e-4 ≈ 0.01 of motion — visible even after rounding.
        assert!(
            m.p.value.as_slice()[0] < 0.9975,
            "x = {}",
            m.p.value.as_slice()[0]
        );
    }

    #[test]
    fn unscaling_restores_gradient_magnitude() {
        let cfg = AdamConfig {
            lr: 0.1,
            ..Default::default()
        };
        // Same problem, one run scaled ×1024, one unscaled: identical result.
        let mut a = One {
            p: Param::new("x", Tensor::from_vec(vec![4.0], &[1])),
        };
        let mut b = One {
            p: Param::new("x", Tensor::from_vec(vec![4.0], &[1])),
        };
        let mut oa = MixedPrecision::new(cfg, DType::F32);
        let mut ob = MixedPrecision::new(cfg, DType::F32).with_scaler(LossScaler::new(1024.0));
        for _ in 0..3 {
            a.p.grad = a.p.value.clone();
            oa.step(&mut a);
            let mut g = b.p.value.clone();
            g.scale(ob.loss_scale());
            b.p.grad = g;
            ob.step(&mut b);
        }
        assert!(a.p.value.approx_eq(&b.p.value, 1e-6));
    }
}
