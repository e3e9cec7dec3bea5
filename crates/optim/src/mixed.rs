//! Mixed-precision training: FP32 master weights + half working weights.
//!
//! Protocol per step (caller side):
//!
//! 1. scale the loss gradient by [`MixedPrecision::loss_scale`] before
//!    `backward`,
//! 2. call [`MixedPrecision::step`] (one rank) or
//!    [`MixedPrecision::step_agreed`] (a world of ranks). It consumes the
//!    gradients: it skips the update on overflow (shrinking the scale),
//!    otherwise unscales and clips each gradient and runs the FP32 Adam
//!    update on the master weights, writing half-rounded copies back into
//!    the model (in FP32 the model's weights are the masters and nothing is
//!    copied); either way every gradient is zero afterwards, ready for the
//!    next `backward`.
//!
//! A step reads every gradient once, for the norm and the overflow check,
//! settles with the other ranks whether to skip, and then visits each
//! parameter once: unscale and clip its gradient, update it, zero the
//! gradient, while it is still in cache. Nothing is applied before the
//! world has agreed, so replicas skip together and their loss scales never
//! split.
//!
//! The model's working parameters therefore always carry the configured
//! half format's rounding, reproducing the numerics of storing weights in
//! FP16/BF16 on the accelerator while the optimizer state stays FP32.

use crate::adam::{Adam, AdamConfig};
use crate::clip::{clip_scale, grad_sq_sum};
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
    pub(crate) dtype: DType,
    pub(crate) scaler: LossScaler,
    adam: Adam,
    /// Global gradient-norm clip applied inside [`MixedPrecision::step`]
    /// ([`MixedPrecision::with_clip`]; `None` = off).
    clip: Option<f32>,
    /// FP32 master weights, one per parameter; stays empty for `DType::F32`.
    masters: Vec<Tensor>,
    /// Steps skipped due to overflow (telemetry for experiments).
    pub skipped_steps: u64,
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
            clip: None,
            masters: Vec::new(),
            skipped_steps: 0,
        }
    }

    /// Override the scaler (e.g. to demonstrate FP16 *without* scaling in
    /// the precision ablation).
    pub fn with_scaler(mut self, scaler: LossScaler) -> MixedPrecision {
        self.scaler = scaler;
        self
    }

    /// Clip the global gradient norm to `max_norm` in every step, measured
    /// on the unscaled gradients so the threshold means the same at every
    /// loss scale: what `clip_grad_norm` on the
    /// unscaled gradients would do. Panics unless `max_norm` is finite and
    /// positive.
    pub fn with_clip(mut self, max_norm: f32) -> MixedPrecision {
        assert!(
            max_norm.is_finite() && max_norm > 0.0,
            "clip max_norm must be finite and > 0, got {max_norm}"
        );
        self.clip = Some(max_norm);
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

    /// FP32 state bytes from the first step on: 12 B per updated scalar —
    /// its master (the parameter itself in FP32) and Adam's two moments.
    pub fn state_bytes(&self) -> usize {
        12 * self.adam.moment_elems()
    }

    /// [`MixedPrecision::step_agreed`] for one rank: its verdict is final.
    pub fn step(&mut self, model: &mut dyn HasParams) -> StepOutcome {
        self.step_agreed(model, |overflow| overflow)
    }

    /// One optimizer step. The read pass finds whether this rank holds a
    /// non-finite gradient; `agree` turns that into the world's verdict
    /// (called once per step, so it may be a collective), and only then is
    /// anything unscaled, clipped or applied. Returns whether the update
    /// was applied; either way every gradient is zero afterwards.
    pub fn step_agreed(
        &mut self,
        model: &mut dyn HasParams,
        agree: impl FnOnce(bool) -> bool,
    ) -> StepOutcome {
        // The one read pass. A finite sum means every gradient is finite,
        // so the exact scan runs only when the sum is not.
        let sq = grad_sq_sum(model);
        if agree(!sq.is_finite() && has_non_finite_grad(model)) {
            model.zero_grad();
            self.scaler.update(true);
            self.skipped_steps += 1;
            return StepOutcome::SkippedOverflow;
        }

        // The norm of the unscaled gradients. For a power-of-two loss scale
        // — every scale the dynamic scaler takes — this is bit for bit what
        // `clip_grad_norm` measures on the unscaled gradients, barring
        // squares that under- or overflow in one form and not the other.
        let inv = 1.0 / self.scaler.scale();
        let norm = (sq.sqrt() * inv as f64) as f32;
        let clip = self.clip.and_then(|max_norm| clip_scale(norm, max_norm));
        let step = self.adam.next_step();
        let dt = self.dtype;
        if dt != DType::F32 && self.masters.is_empty() {
            // Capture master weights on first use (from the *unquantized*
            // values if the caller hasn't quantized yet — idempotent either
            // way).
            model.visit_params(&mut |p| self.masters.push(p.value.clone()));
        }
        let (adam, masters) = (&mut self.adam, &mut self.masters);
        let mut i = 0usize;
        model.visit_params(&mut |p| {
            // Unscale, then clip; multiplying by exactly 1.0 changes no bit,
            // so an unscaled, unclipped step skips the pass.
            if inv != 1.0 || clip.is_some() {
                let c = clip.unwrap_or(1.0);
                p.grad
                    .as_mut_slice()
                    .iter_mut()
                    .for_each(|g| *g = *g * inv * c);
            }
            if dt == DType::F32 {
                // The working weights *are* the master weights: rounding
                // through f32 is the identity, so there is no copy to keep.
                adam.update(i, &mut p.value, &p.grad, &step);
            } else {
                // Run the FP32 update on the master and publish its
                // half-rounded value in the working buffer.
                adam.update(i, &mut masters[i], &p.grad, &step);
                p.value
                    .as_mut_slice()
                    .copy_from_slice(masters[i].as_slice());
                p.value.quantize(dt);
            }
            p.zero_grad();
            i += 1;
        });

        self.scaler.update(false);
        StepOutcome::Applied
    }
}

/// Whether any gradient holds a NaN or an infinity: the exact scan behind a
/// non-finite squared norm, which an overflowing square alone also gives.
fn has_non_finite_grad(model: &mut dyn HasParams) -> bool {
    let mut found = false;
    model.visit_params(&mut |p| found = found || p.grad.has_non_finite());
    found
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
    fn a_world_verdict_of_overflow_skips_a_finite_step() {
        // This rank's gradients are finite, but another rank's were not:
        // the agreed verdict decides, and nothing is applied.
        let mut m = One {
            p: Param::new("x", Tensor::from_vec(vec![1.0, -2.0], &[2])),
        };
        let mut opt = MixedPrecision::new(AdamConfig::default(), DType::F16);
        let s0 = opt.loss_scale();
        m.p.grad = Tensor::from_vec(vec![0.5, 0.25], &[2]);
        let outcome = opt.step_agreed(&mut m, |overflow| {
            assert!(!overflow, "this rank's gradients are finite");
            true
        });
        assert_eq!(outcome, StepOutcome::SkippedOverflow);
        assert_eq!(m.p.value.as_slice(), &[1.0, -2.0]);
        assert_eq!(m.p.grad.as_slice(), &[0.0, 0.0]);
        assert!(opt.loss_scale() < s0);
        assert_eq!((opt.adam.steps(), opt.skipped_steps), (0, 1));
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

    struct Two {
        a: Param,
        b: Param,
    }

    impl HasParams for Two {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.a);
            f(&mut self.b);
        }
    }

    /// The step written out as separate passes over plain vectors: skip on
    /// a non-finite gradient; otherwise unscale, clip by the norm of the
    /// unscaled gradients (`clip_grad_norm`'s sum), Adam's element rule on
    /// the FP32 copy, half rounding of the working value.
    struct Oracle {
        cfg: AdamConfig,
        dtype: DType,
        clip: Option<f32>,
        t: i32,
        masters: Vec<Vec<f32>>,
        m: Vec<Vec<f32>>,
        v: Vec<Vec<f32>>,
    }

    impl Oracle {
        fn new(cfg: AdamConfig, dtype: DType, clip: Option<f32>, values: &[Vec<f32>]) -> Oracle {
            let zeros: Vec<Vec<f32>> = values.iter().map(|x| vec![0.0; x.len()]).collect();
            Oracle {
                cfg,
                dtype,
                clip,
                t: 0,
                masters: values.to_vec(),
                m: zeros.clone(),
                v: zeros,
            }
        }

        /// The working values after a step on the loss-scaled `grads`.
        fn step(&mut self, grads: &[Vec<f32>], scale: f32) -> Vec<Vec<f32>> {
            if grads.iter().flatten().all(|g| g.is_finite()) {
                let inv = 1.0 / scale;
                let mut g: Vec<Vec<f32>> = grads
                    .iter()
                    .map(|x| x.iter().map(|v| v * inv).collect())
                    .collect();
                let sq: f64 = g
                    .iter()
                    .map(|x| x.iter().map(|v| v * v).sum::<f32>() as f64)
                    .sum();
                let norm = sq.sqrt() as f32;
                if let Some(max_norm) = self.clip {
                    if norm.is_finite() && norm > max_norm {
                        let c = max_norm / norm;
                        g.iter_mut().flatten().for_each(|v| *v *= c);
                    }
                }
                self.t += 1;
                let c = self.cfg;
                let (bc1, bc2) = (1.0 - c.beta1.powi(self.t), 1.0 - c.beta2.powi(self.t));
                for (i, gi) in g.iter().enumerate() {
                    for (j, &gj) in gi.iter().enumerate() {
                        let (m, v) = (&mut self.m[i][j], &mut self.v[i][j]);
                        *m = c.beta1 * *m + (1.0 - c.beta1) * gj;
                        *v = c.beta2 * *v + (1.0 - c.beta2) * gj * gj;
                        let (mhat, vhat) = (*m / bc1, *v / bc2);
                        let w = &mut self.masters[i][j];
                        *w -= c.lr * (mhat / (vhat.sqrt() + c.eps) + c.weight_decay * *w);
                    }
                }
            }
            self.masters
                .iter()
                .map(|w| {
                    let mut t = Tensor::from_vec(w.clone(), &[w.len()]);
                    t.quantize(self.dtype);
                    t.into_vec()
                })
                .collect()
        }
    }

    /// Drive `MixedPrecision::step` and the oracle over the same loss-scaled
    /// gradients, asserting equal bits, zeroed gradients and the outcome.
    fn check_against_oracle(dtype: DType, scale: f32, clip: Option<f32>, grads: &[[Vec<f32>; 2]]) {
        let cfg = AdamConfig {
            lr: 0.01,
            weight_decay: 0.01,
            ..Default::default()
        };
        let values = vec![vec![0.5, -1.25, 2.0], vec![0.75, -0.3]];
        let mut model = Two {
            a: Param::new("a", Tensor::from_vec(values[0].clone(), &[3])),
            b: Param::new("b", Tensor::from_vec(values[1].clone(), &[2])),
        };
        let mut opt = MixedPrecision::new(cfg, dtype).with_scaler(LossScaler::new(scale));
        if let Some(max_norm) = clip {
            opt = opt.with_clip(max_norm);
        }
        let mut oracle = Oracle::new(cfg, dtype, clip, &values);
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (k, [ga, gb]) in grads.iter().enumerate() {
            let scale = opt.loss_scale();
            model.a.grad = Tensor::from_vec(ga.clone(), &[3]);
            model.b.grad = Tensor::from_vec(gb.clone(), &[2]);
            let finite = ga.iter().chain(gb).all(|g| g.is_finite());
            let steps = opt.adam.steps();
            let outcome = opt.step(&mut model);
            let want = oracle.step(&[ga.clone(), gb.clone()], scale);
            let ctx = format!("{dtype:?} scale {scale} clip {clip:?} step {k}");
            if finite {
                assert_eq!(outcome, StepOutcome::Applied, "{ctx}");
                assert_eq!(opt.adam.steps(), steps + 1, "{ctx}");
            } else {
                assert_eq!(outcome, StepOutcome::SkippedOverflow, "{ctx}");
                assert_eq!(opt.adam.steps(), steps, "{ctx}");
                assert!(opt.loss_scale() < scale, "{ctx}");
            }
            assert_eq!(bits(model.a.value.as_slice()), bits(&want[0]), "{ctx}");
            assert_eq!(bits(model.b.value.as_slice()), bits(&want[1]), "{ctx}");
            let grads = model
                .a
                .grad
                .as_slice()
                .iter()
                .chain(model.b.grad.as_slice());
            assert!(
                grads.copied().all(|g| g == 0.0),
                "{ctx}: a step consumes the gradients"
            );
        }
    }

    #[test]
    fn a_step_is_unscale_clip_adam_then_zero_bit_for_bit() {
        // Unscaled gradient norms ≈ 5.1, 0.055 and 4.3: a clip at 1 is
        // active on the first and third steps only, one at 100 never.
        let unscaled = [
            [vec![3.0, -4.0, 0.5], vec![1.0, -0.25]],
            [vec![0.03, -0.04, 0.01], vec![0.02, 0.001]],
            [vec![-2.5, 0.75, 1.5], vec![0.125, 3.0]],
        ];
        for (dtype, scale) in [
            (DType::F32, 1.0),
            (DType::F16, 65_536.0),
            (DType::F16, 1024.0),
            (DType::F16, 1.0),
        ] {
            let scaled: Vec<[Vec<f32>; 2]> = unscaled
                .iter()
                .map(|[a, b]| [a, b].map(|g| g.iter().map(|v| v * scale).collect()))
                .collect();
            for clip in [None, Some(1.0), Some(100.0)] {
                check_against_oracle(dtype, scale, clip, &scaled);
            }
        }
    }

    #[test]
    fn an_overflow_step_is_skipped_and_still_consumes_the_gradients() {
        // The middle step overflows: nothing moves, Adam's moments and step
        // count stay (the third step matches an oracle that never saw the
        // second), and the gradients are zero all the same.
        let grads = [
            [vec![1.0, -2.0, 0.5], vec![0.25, 4.0]],
            [vec![1.0, f32::INFINITY, 0.5], vec![f32::NAN, 4.0]],
            [vec![-3.0, 1.0, 0.5], vec![2.0, -1.0]],
        ]
        .map(|[a, b]| [a, b].map(|g| g.iter().map(|v| v * 1024.0).collect::<Vec<_>>()));
        check_against_oracle(DType::F16, 1024.0, Some(1.0), &grads);
        check_against_oracle(DType::F32, 1024.0, None, &grads);
    }

    #[test]
    fn finite_gradients_whose_squares_overflow_are_applied_unclipped() {
        // 1e20² overflows f32, so the norm is ∞ and nothing clips; every
        // gradient is finite, so the step is applied.
        let grads = [[vec![1e20, -1.0, 0.5], vec![2.0, 1e-3]]];
        for dtype in [DType::F32, DType::BF16] {
            check_against_oracle(dtype, 1.0, Some(1.0), &grads);
        }
    }

    #[test]
    #[should_panic(expected = "clip max_norm must be finite and > 0")]
    fn a_clip_that_cannot_clip_is_rejected() {
        let _ = MixedPrecision::new(AdamConfig::default(), DType::F32).with_clip(-1.0);
    }
}
