//! Fully connected layer with cached-input backward.

use crate::param::{HasParams, Param};
use bagualu_tensor::ops::{matmul_bias_act, matmul_nt, matmul_tn, Activation};
use bagualu_tensor::rng::Rng;
use bagualu_tensor::Tensor;

/// `y = x·W + b` with `W: [in, out]`, `b: [out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub w: Param,
    pub b: Param,
    /// Input cached by `forward` for the weight-gradient GEMM.
    cache_x: Option<Tensor>,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(name: &str, d_in: usize, d_out: usize, rng: &mut Rng) -> Linear {
        Linear {
            w: Param::new(format!("{name}.w"), Tensor::xavier(d_in, d_out, rng)),
            b: Param::new(format!("{name}.b"), Tensor::zeros(&[d_out])),
            cache_x: None,
        }
    }

    pub fn d_in(&self) -> usize {
        self.w.value.rows()
    }

    pub fn d_out(&self) -> usize {
        self.w.value.cols()
    }

    /// Drop the cached forward input (activation checkpointing).
    pub fn clear_cache(&mut self) {
        self.cache_x = None;
    }

    /// Install `x` as the cached forward input without running the GEMM:
    /// for a caller that replays a segment only to rebuild what
    /// [`Linear::backward`] reads and has no use for the product.
    pub fn prime_cache(&mut self, x: Tensor) {
        assert_eq!(x.cols(), self.d_in());
        self.cache_x = Some(x);
    }

    /// Bytes currently held in the forward cache.
    pub fn cached_bytes(&self) -> usize {
        4 * self.cache_x.as_ref().map(|t| t.len()).unwrap_or(0)
    }

    /// `act(x·W + b)` over a `[n, d_in]` batch and nothing else: the GEMM
    /// with its fused epilogue, no backward cache. What inference calls.
    pub fn apply(&self, x: &Tensor, act: Activation) -> Tensor {
        assert_eq!(x.cols(), self.d_in());
        matmul_bias_act(x, &self.w.value, Some(self.b.value.as_slice()), act)
    }

    /// Forward over a `[n, d_in]` batch.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.forward_act(x, Activation::Identity)
    }

    /// [`apply`](Self::apply) plus the input cache [`Linear::backward`]
    /// reads: `act(x·W + b)` in one kernel pass, applying bias and
    /// activation while the output tile is still cache-resident on tiled
    /// backends.
    ///
    /// Only for callers that do not need the pre-activation in backward:
    /// [`Linear::backward`] expects `dy` with respect to the *pre*-activation
    /// output, so a caller fusing a non-identity `act` must backprop through
    /// the activation itself — which requires the pre-activation, which this
    /// path deliberately never materializes. The FFN uses it exactly where
    /// that holds: the recompute forward, whose backward replays unfused.
    pub fn forward_act(&mut self, x: &Tensor, act: Activation) -> Tensor {
        let y = self.apply(x, act);
        self.cache_x = Some(x.clone());
        y
    }

    /// Backward: accumulates `dW = xᵀ·dy`, `db = Σrows dy`; returns
    /// `dx = dy·Wᵀ`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self
            .cache_x
            .take()
            .expect("Linear::backward before forward");
        assert_eq!(dy.rows(), x.rows());
        assert_eq!(dy.cols(), self.d_out());
        self.w.grad.add_assign(&matmul_tn(&x, dy));
        // Bias gradient: column sums of dy.
        let db = self.b.grad.as_mut_slice();
        for row in dy.as_slice().chunks_exact(dy.cols()) {
            for (g, &v) in db.iter_mut().zip(row) {
                *g += v;
            }
        }
        matmul_nt(dy, &self.w.value)
    }
}

impl HasParams for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference check of the full layer gradient.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(11);
        let mut lin = Linear::new("t", 4, 3, &mut rng);
        let x = Tensor::randn(&[5, 4], 1.0, &mut rng);
        // Loss = sum(y²)/2 → dy = y.
        let y = lin.forward(&x);
        let dx = lin.backward(&y);

        let eps = 1e-3f32;
        let loss = |lin: &mut Linear, x: &Tensor| -> f32 {
            let y = lin.forward(x);
            0.5 * y.sq_norm()
        };

        // Check a few weight entries.
        for &(i, j) in &[(0usize, 0usize), (1, 2), (3, 1)] {
            let orig = lin.w.value.at(i, j);
            lin.w.value.set(i, j, orig + eps);
            let lp = loss(&mut lin, &x);
            lin.w.value.set(i, j, orig - eps);
            let lm = loss(&mut lin, &x);
            lin.w.value.set(i, j, orig);
            let fd = (lp - lm) / (2.0 * eps);
            let an = lin.w.grad.at(i, j);
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "w[{i},{j}]: fd={fd} an={an}"
            );
        }

        // Check an input entry.
        let mut x2 = x.clone();
        let orig = x2.at(2, 1);
        x2.set(2, 1, orig + eps);
        let lp = loss(&mut lin, &x2);
        x2.set(2, 1, orig - eps);
        let lm = loss(&mut lin, &x2);
        let fd = (lp - lm) / (2.0 * eps);
        assert!((fd - dx.at(2, 1)).abs() < 2e-2 * (1.0 + fd.abs()));
    }

    #[test]
    fn bias_gradient_is_row_sum() {
        let mut rng = Rng::seed_from(12);
        let mut lin = Linear::new("t", 2, 2, &mut rng);
        let x = Tensor::zeros(&[3, 2]);
        lin.forward(&x);
        let dy = Tensor::from_vec(vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0], &[3, 2]);
        lin.backward(&dy);
        assert_eq!(lin.b.grad.as_slice(), &[6.0, 60.0]);
    }

    #[test]
    fn gradients_accumulate_across_calls() {
        let mut rng = Rng::seed_from(13);
        let mut lin = Linear::new("t", 2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let dy = Tensor::ones(&[1, 2]);
        lin.forward(&x);
        lin.backward(&dy);
        let after_one = lin.w.grad.clone();
        lin.forward(&x);
        lin.backward(&dy);
        let mut doubled = after_one.clone();
        doubled.scale(2.0);
        assert!(lin.w.grad.approx_eq(&doubled, 1e-6));
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut rng = Rng::seed_from(14);
        let mut lin = Linear::new("t", 2, 2, &mut rng);
        lin.backward(&Tensor::zeros(&[1, 2]));
    }

    #[test]
    fn param_visit_order_is_stable() {
        let mut rng = Rng::seed_from(15);
        let mut lin = Linear::new("t", 3, 4, &mut rng);
        let mut names = Vec::new();
        lin.visit_params(&mut |p| names.push(p.name.clone()));
        assert_eq!(names, vec!["t.w", "t.b"]);
        assert_eq!(lin.num_params(), 3 * 4 + 4);
    }
}
