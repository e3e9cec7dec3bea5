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
//! A step makes two passes over the gradients. It first moves them out of
//! the parameters (O(1) each) and reads them once for the norm and the
//! overflow check: each gradient's sum of squares is its own sequential
//! `f32` chain, and equally long gradients run eight chains side by side
//! ([`Tensor::sq_norms`]). It then settles with the other ranks whether to
//! skip. If not, it visits each parameter once, in one call of the fused
//! row-op kernel: per element, unscale and clip the gradient, apply Adam
//! and write the gradient back as zero, and publish the half-rounded
//! working value block by block while it is still in cache; the zeroed
//! gradient is handed back to its parameter. Nothing is
//! applied before the world has agreed, so replicas skip together and
//! their loss scales never split.
//!
//! The model's working parameters therefore always carry the configured
//! half format's rounding, reproducing the numerics of storing weights in
//! FP16/BF16 on the accelerator while the optimizer state stays FP32.

use crate::adam::{Adam, AdamConfig};
use crate::clip::{clip_scale, grad_sq_sum, put_grads, take_grads};
use crate::scaler::LossScaler;
use bagualu_model::param::HasParams;
use bagualu_tensor::ops::AdamStep;
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
        let mut grads = take_grads(model);
        let sq = grad_sq_sum(&grads);
        if agree(!sq.is_finite() && grads.iter().any(Tensor::has_non_finite)) {
            grads.iter_mut().for_each(|g| g.fill(0.0));
            put_grads(model, grads);
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
        // Multiplying by exactly 1.0 changes no bit, so an unclipped step
        // is the same rule with a clip factor of 1.
        let step = AdamStep {
            unscale: inv,
            clip: clip.unwrap_or(1.0),
            ..self.adam.next_step()
        };
        let dt = self.dtype;
        if dt != DType::F32 && self.masters.is_empty() {
            // Capture master weights on first use (from the *unquantized*
            // values if the caller hasn't quantized yet — idempotent either
            // way).
            model.visit_params(&mut |p| self.masters.push(p.value.clone()));
        }
        let (adam, masters) = (&mut self.adam, &mut self.masters);
        let (mut i, mut grads) = (0usize, grads.into_iter());
        model.visit_params(&mut |p| {
            let mut grad = grads.next().expect("one gradient per parameter");
            if dt == DType::F32 {
                // The working weights *are* the master weights: rounding
                // through f32 is the identity, so there is no copy to keep.
                adam.update(i, &mut p.value, None, &mut grad, &step);
            } else {
                // Run the FP32 update on the master and publish its
                // half-rounded value in the working buffer.
                adam.update(
                    i,
                    &mut masters[i],
                    Some((&mut p.value, dt)),
                    &mut grad,
                    &step,
                );
            }
            p.grad = grad;
            i += 1;
        });

        self.scaler.update(false);
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

    /// A model of any number of parameters, visited in order.
    struct Many(Vec<Param>);

    impl HasParams for Many {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.0.iter_mut().for_each(f);
        }
    }

    /// The step written out as separate passes over plain vectors: skip on
    /// a non-finite gradient; otherwise unscale, take the norm of the
    /// unscaled gradients one tensor at a time (`clip_grad_norm`'s sum),
    /// clip, Adam's element rule on the FP32 copy, half rounding of the
    /// working value.
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
                let mut sq = 0.0f64;
                for x in &g {
                    sq += x.iter().map(|v| v * v).sum::<f32>() as f64;
                }
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
    /// gradients (one list per step, one vector per parameter), asserting
    /// equal bits, zeroed gradients and the outcome.
    fn check_against_oracle(dtype: DType, scale: f32, clip: Option<f32>, grads: &[Vec<Vec<f32>>]) {
        let cfg = AdamConfig {
            lr: 0.01,
            weight_decay: 0.01,
            ..Default::default()
        };
        let values: Vec<Vec<f32>> = grads[0]
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let at = |j: usize| 0.5 - 0.125 * ((3 * i + 5 * j) % 17) as f32;
                (0..g.len()).map(at).collect()
            })
            .collect();
        let mut model = Many(
            values
                .iter()
                .map(|x| Param::new("p", Tensor::from_vec(x.clone(), &[x.len()])))
                .collect(),
        );
        let mut opt = MixedPrecision::new(cfg, dtype).with_scaler(LossScaler::new(scale));
        if let Some(max_norm) = clip {
            opt = opt.with_clip(max_norm);
        }
        let mut oracle = Oracle::new(cfg, dtype, clip, &values);
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (k, step_grads) in grads.iter().enumerate() {
            let scale = opt.loss_scale();
            for (p, g) in model.0.iter_mut().zip(step_grads) {
                p.grad = Tensor::from_vec(g.clone(), &[g.len()]);
            }
            let finite = step_grads.iter().flatten().all(|g| g.is_finite());
            let steps = opt.adam.steps();
            let outcome = opt.step(&mut model);
            let want = oracle.step(step_grads, scale);
            let ctx = format!("{dtype:?} scale {scale} clip {clip:?} step {k}");
            if finite {
                assert_eq!(outcome, StepOutcome::Applied, "{ctx}");
                assert_eq!(opt.adam.steps(), steps + 1, "{ctx}");
            } else {
                assert_eq!(outcome, StepOutcome::SkippedOverflow, "{ctx}");
                assert_eq!(opt.adam.steps(), steps, "{ctx}");
                assert!(opt.loss_scale() < scale, "{ctx}");
            }
            for (i, (p, w)) in model.0.iter().zip(&want).enumerate() {
                assert_eq!(bits(p.value.as_slice()), bits(w), "{ctx} param {i}");
                assert_eq!(p.grad.shape(), &[w.len()], "{ctx} param {i}");
                assert!(
                    p.grad.as_slice().iter().all(|&g| g.to_bits() == 0),
                    "{ctx} param {i}: a step consumes the gradients"
                );
            }
        }
    }

    /// `steps` lists of loss-scaled random gradients, one per length in
    /// `lens`, each scaled by `unscaled` before the loss scale.
    fn random_grads(lens: &[usize], unscaled: &[f32], scale: f32, seed: u64) -> Vec<Vec<Vec<f32>>> {
        let mut rng = bagualu_tensor::rng::Rng::seed_from(seed);
        unscaled
            .iter()
            .map(|&s| {
                let mut step = Vec::new();
                for &n in lens {
                    let g = Tensor::randn(&[n], s, &mut rng);
                    step.push(g.as_slice().iter().map(|v| v * scale).collect());
                }
                step
            })
            .collect()
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
            let scaled: Vec<Vec<Vec<f32>>> = unscaled
                .iter()
                .map(|step| {
                    step.iter()
                        .map(|g| g.iter().map(|v| v * scale).collect())
                        .collect()
                })
                .collect();
            for clip in [None, Some(1.0), Some(100.0)] {
                check_against_oracle(dtype, scale, clip, &scaled);
            }
        }
    }

    #[test]
    fn every_dtype_clip_and_scale_matches_the_oracle_on_ragged_parameters() {
        // Fewer than eight parameters of ragged lengths, where every sum of
        // squares runs on its own; then nine of one length among ragged
        // ones, so one set of eight chains runs side by side over
        // parameters that are not adjacent in visit order and the ninth
        // runs alone.
        let few = [3usize, 1, 17, 2];
        let many = [5usize, 33, 5, 5, 1, 5, 5, 5, 33, 5, 5, 0, 5, 7];
        // Unscaled gradients of about 0.05 and 1 per element: a clip at 1
        // bites on the larger steps only, one at 100 never.
        let unscaled = [1.0, 0.05, 0.7];
        for (n, lens) in [few.as_slice(), many.as_slice()].iter().enumerate() {
            for dtype in [DType::F32, DType::F16, DType::BF16] {
                for scale in [1.0, 1024.0, 65_536.0] {
                    let grads = random_grads(lens, &unscaled, scale, 50 + n as u64);
                    for clip in [None, Some(1.0), Some(100.0)] {
                        check_against_oracle(dtype, scale, clip, &grads);
                    }
                }
            }
        }
    }

    #[test]
    fn an_overflow_step_is_skipped_and_still_consumes_the_gradients() {
        // The middle step overflows: nothing moves, Adam's moments and step
        // count stay (the third step matches an oracle that never saw the
        // second), and the gradients are zero all the same.
        let grads: Vec<Vec<Vec<f32>>> = [
            [vec![1.0, -2.0, 0.5], vec![0.25, 4.0]],
            [vec![1.0, f32::INFINITY, 0.5], vec![f32::NAN, 4.0]],
            [vec![-3.0, 1.0, 0.5], vec![2.0, -1.0]],
        ]
        .iter()
        .map(|step| {
            step.iter()
                .map(|g| g.iter().map(|v| v * 1024.0).collect())
                .collect()
        })
        .collect();
        check_against_oracle(DType::F16, 1024.0, Some(1.0), &grads);
        check_against_oracle(DType::F32, 1024.0, None, &grads);
    }

    #[test]
    fn finite_gradients_whose_squares_overflow_are_applied_unclipped() {
        // 1e20² overflows f32, so the norm is ∞ and nothing clips; every
        // gradient is finite, so the step is applied.
        let grads = [vec![vec![1e20, -1.0, 0.5], vec![2.0, 1e-3]]];
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
