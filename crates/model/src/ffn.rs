//! Position-wise feed-forward network — also the *expert* of an MoE layer.

use crate::linear::Linear;
use crate::param::{HasParams, Param};
use bagualu_tensor::ops::{gelu, gelu_backward, Activation};
use bagualu_tensor::rng::Rng;
use bagualu_tensor::Tensor;

/// `y = GELU(x·W₁ + b₁)·W₂ + b₂` with hidden width `d_ff`.
///
/// With [`FeedForward::with_recompute`] the `[n, d_ff]` hidden activation —
/// the dominant activation-memory term of a transformer — is *not* cached;
/// the backward pass recomputes it from the (4× smaller) input. This is the
/// activation-checkpointing trade the memory budget in `bagualu-hw` assumes:
/// backward replays one of the layer's six GEMMs (`fc1`; `fc2`'s product is
/// not needed, only its input) plus the GELU — ≈17% extra FFN FLOPs for a
/// 4× activation-memory reduction.
#[derive(Debug, Clone)]
pub struct FeedForward {
    pub fc1: Linear,
    pub fc2: Linear,
    /// Recompute the hidden activation in backward instead of caching it.
    pub recompute: bool,
    cache_h: Option<Tensor>, // pre-activation of fc1 (None when recomputing)
    cache_x: Option<Tensor>, // input (only kept when recomputing)
}

impl FeedForward {
    pub fn new(name: &str, d_model: usize, d_ff: usize, rng: &mut Rng) -> FeedForward {
        FeedForward {
            fc1: Linear::new(&format!("{name}.fc1"), d_model, d_ff, rng),
            fc2: Linear::new(&format!("{name}.fc2"), d_ff, d_model, rng),
            recompute: false,
            cache_h: None,
            cache_x: None,
        }
    }

    /// Enable activation recomputation (checkpointing) for this layer.
    pub fn with_recompute(mut self) -> FeedForward {
        self.recompute = true;
        self
    }

    pub fn d_model(&self) -> usize {
        self.fc1.d_in()
    }

    /// Bytes of activation cache held between forward and backward,
    /// including the inner linear layers' input caches.
    pub fn cached_activation_bytes(&self) -> usize {
        4 * (self.cache_h.as_ref().map(|t| t.len()).unwrap_or(0)
            + self.cache_x.as_ref().map(|t| t.len()).unwrap_or(0))
            + self.fc1.cached_bytes()
            + self.fc2.cached_bytes()
    }

    /// Forward over `[n, d_model]`. Accepts `n = 0` (an expert that received
    /// no tokens this step).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        if self.recompute {
            // Checkpointing: the hidden pre-activation is dropped anyway
            // (backward replays the segment unfused to rebuild it), so fuse
            // bias+GELU into the fc1 GEMM and never materialize it. The
            // fused epilogue is bit-identical to the unfused sequence on
            // every backend, so checkpointing still changes no numbers.
            let a = self.fc1.forward_act(x, Activation::Gelu);
            let y = self.fc2.forward(&a);
            self.cache_x = Some(x.clone());
            self.cache_h = None;
            self.fc1.clear_cache();
            self.fc2.clear_cache();
            y
        } else {
            let h = self.fc1.forward(x);
            let a = gelu(&h);
            let y = self.fc2.forward(&a);
            self.cache_h = Some(h);
            y
        }
    }

    /// Backward; returns `dx`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let h = match self.cache_h.take() {
            Some(h) => h,
            None => {
                // Recompute path: replay `fc1` and the activation to
                // repopulate every internal cache, then run the normal
                // backward. `fc2` only needs its input back, not its output.
                let x = self
                    .cache_x
                    .take()
                    .expect("FeedForward::backward before forward");
                let h = self.fc1.forward(&x);
                self.fc2.prime_cache(gelu(&h));
                h
            }
        };
        let da = self.fc2.backward(dy);
        let dh = gelu_backward(&da, &h);
        self.fc1.backward(&dh)
    }

    /// Scalar parameters of one expert of this shape — used by the
    /// brain-scale parameter counting.
    pub fn param_count(d_model: usize, d_ff: usize) -> u128 {
        (d_model as u128 * d_ff as u128 + d_ff as u128)
            + (d_ff as u128 * d_model as u128 + d_model as u128)
    }
}

impl HasParams for FeedForward {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        let mut rng = Rng::seed_from(41);
        let mut ffn = FeedForward::new("t", 8, 32, &mut rng);
        let x = Tensor::randn(&[5, 8], 1.0, &mut rng);
        let y = ffn.forward(&x);
        assert_eq!(y.shape(), &[5, 8]);
        let dx = ffn.backward(&y);
        assert_eq!(dx.shape(), &[5, 8]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut rng = Rng::seed_from(42);
        let mut ffn = FeedForward::new("t", 4, 8, &mut rng);
        let x = Tensor::zeros(&[0, 4]);
        let y = ffn.forward(&x);
        assert_eq!(y.shape(), &[0, 4]);
        let dx = ffn.backward(&y);
        assert_eq!(dx.shape(), &[0, 4]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(43);
        let mut ffn = FeedForward::new("t", 4, 12, &mut rng);
        let x = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let y = ffn.forward(&x);
        let dx = ffn.backward(&y); // loss = ½‖y‖²

        let eps = 1e-3f32;
        let loss = |f: &mut FeedForward, x: &Tensor| 0.5 * f.forward(x).sq_norm();
        for &(i, j) in &[(0usize, 0usize), (2, 3)] {
            let mut x2 = x.clone();
            x2.set(i, j, x.at(i, j) + eps);
            let lp = loss(&mut ffn, &x2);
            x2.set(i, j, x.at(i, j) - eps);
            let lm = loss(&mut ffn, &x2);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.at(i, j)).abs() < 3e-2 * (1.0 + fd.abs()),
                "x[{i},{j}]"
            );
        }
        // One fc1 weight.
        let orig = ffn.fc1.w.value.at(1, 5);
        ffn.fc1.w.value.set(1, 5, orig + eps);
        let lp = loss(&mut ffn, &x);
        ffn.fc1.w.value.set(1, 5, orig - eps);
        let lm = loss(&mut ffn, &x);
        ffn.fc1.w.value.set(1, 5, orig);
        let fd = (lp - lm) / (2.0 * eps);
        let an = ffn.fc1.w.grad.at(1, 5);
        assert!((fd - an).abs() < 3e-2 * (1.0 + fd.abs()), "fd={fd} an={an}");
    }

    #[test]
    fn recompute_produces_identical_gradients() {
        let mut rng = Rng::seed_from(45);
        let mut plain = FeedForward::new("t", 6, 24, &mut rng);
        let mut ckpt = plain.clone().with_recompute();
        let x = Tensor::randn(&[5, 6], 1.0, &mut rng);

        let y1 = plain.forward(&x);
        let y2 = ckpt.forward(&x);
        assert!(y1.approx_eq(&y2, 1e-6), "forward must be unaffected");

        let dx1 = plain.backward(&y1);
        let dx2 = ckpt.backward(&y2);
        assert!(dx1.approx_eq(&dx2, 1e-5));
        assert!(plain.fc1.w.grad.approx_eq(&ckpt.fc1.w.grad, 1e-5));
        assert!(plain.fc2.w.grad.approx_eq(&ckpt.fc2.w.grad, 1e-5));
    }

    #[test]
    fn recompute_caches_less_memory() {
        let mut rng = Rng::seed_from(46);
        let mut plain = FeedForward::new("t", 8, 64, &mut rng);
        let mut ckpt = plain.clone().with_recompute();
        let x = Tensor::randn(&[10, 8], 1.0, &mut rng);
        plain.forward(&x);
        ckpt.forward(&x);
        // Plain caches the [10, 64] hidden twice (pre-activation + fc2's
        // input) plus fc1's [10, 8] input; recompute holds only the [10, 8]
        // segment input.
        assert_eq!(plain.cached_activation_bytes(), 4 * (10 * 64 * 2 + 10 * 8));
        assert_eq!(ckpt.cached_activation_bytes(), 4 * 10 * 8);
    }

    #[test]
    fn param_count_formula() {
        let mut rng = Rng::seed_from(44);
        let mut ffn = FeedForward::new("t", 16, 64, &mut rng);
        assert_eq!(ffn.num_params() as u128, FeedForward::param_count(16, 64));
    }
}
