//! Position-wise feed-forward network — also the *expert* of an MoE layer.

use crate::linear::{Linear, PackedLinear};
use crate::param::{HasParams, Param};
use bagualu_tensor::ops::{gelu, gelu_backward, Activation};
use bagualu_tensor::rng::Rng;
use bagualu_tensor::Tensor;

/// `y = GELU(x·W₁ + b₁)·W₂ + b₂` with hidden width `d_ff`.
#[derive(Debug, Clone)]
pub struct FeedForward {
    pub(crate) fc1: Linear,
    pub(crate) fc2: Linear,
    cache_h: Option<Tensor>, // pre-activation of fc1
}

impl FeedForward {
    pub fn new(name: &str, d_model: usize, d_ff: usize, rng: &mut Rng) -> FeedForward {
        FeedForward {
            fc1: Linear::new(&format!("{name}.fc1"), d_model, d_ff, rng),
            fc2: Linear::new(&format!("{name}.fc2"), d_ff, d_model, rng),
            cache_h: None,
        }
    }

    /// Give both projections up to inference ([`Linear::freeze`]); the
    /// activation caches go with the layer.
    pub fn freeze(self) -> ServedFfn {
        ServedFfn {
            fc1: self.fc1.freeze(),
            fc2: self.fc2.freeze(),
        }
    }

    /// Forward over `[n, d_model]`. Accepts `n = 0` (an expert that received
    /// no tokens this step).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let h = self.fc1.forward(x);
        let a = gelu(&h);
        let y = self.fc2.forward(&a);
        self.cache_h = Some(h);
        y
    }

    /// Backward; returns `dx`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let h = self
            .cache_h
            .take()
            .expect("FeedForward::backward before forward");
        let da = self.fc2.backward(dy);
        let dh = gelu_backward(&da, &h);
        self.fc1.backward(&dh)
    }

    /// Scalar parameters of one expert of this shape — used by the
    /// brain-scale parameter counting.
    pub(crate) fn param_count(d_model: usize, d_ff: usize) -> u128 {
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

/// A [`FeedForward`] given up to inference ([`FeedForward::freeze`]): two
/// [`PackedLinear`]s and no cache.
#[derive(Debug, Clone)]
pub struct ServedFfn {
    fc1: PackedLinear,
    fc2: PackedLinear,
}

impl ServedFfn {
    /// The forward over `[n, d_model]` (`n = 0` allowed): bias and GELU
    /// fused into the `fc1` GEMM, then `fc2`. The fused epilogue is
    /// bit-identical to the unfused sequence, so these are
    /// [`FeedForward::forward`]'s bits.
    pub fn apply(&self, x: &Tensor) -> Tensor {
        let a = self.fc1.apply(x, Activation::Gelu);
        self.fc2.apply(&a, Activation::Identity)
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

    /// The served layer's `apply` is `forward`'s bits, with neither cache.
    #[test]
    fn apply_is_the_forward_without_the_caches() {
        let mut rng = Rng::seed_from(47);
        let mut ffn = FeedForward::new("t", 64, 96, &mut rng);
        let x = Tensor::randn(&[7, 64], 1.0, &mut rng);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let want = bits(&ffn.forward(&x));
        let served = ffn.freeze();
        assert_eq!(bits(&served.apply(&x)), want);
        assert_eq!(
            bits(&served.apply(&Tensor::zeros(&[0, 64]))),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn param_count_formula() {
        let mut rng = Rng::seed_from(44);
        let mut ffn = FeedForward::new("t", 16, 64, &mut rng);
        assert_eq!(ffn.num_params() as u128, FeedForward::param_count(16, 64));
    }
}
