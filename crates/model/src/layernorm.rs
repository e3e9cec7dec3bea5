//! Layer normalization with hand-derived backward.
//!
//! The forward pass dispatches through the pluggable
//! [`RowOpsBackend`](bagualu_tensor::ops::RowOpsBackend) (reference or
//! vectorized tier, bit-identical to each other), which also records the
//! `compute.layernorm.{flops,ns}` trace counters. The backward stays here:
//! it is the model's hand-derived gradient, not a swappable kernel.

use crate::param::{HasParams, Param};
use bagualu_tensor::ops::{layernorm_rows, LayerNormOut};
use bagualu_tensor::Tensor;

/// Row-wise layer norm: `y = γ ⊙ (x − μ)/√(σ² + ε) + β`.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    pub(crate) gamma: Param,
    pub(crate) beta: Param,
    pub(crate) eps: f32,
    /// Cached `(x̂, 1/σ)` per row from the forward pass.
    cache: Option<(Tensor, Vec<f32>)>,
}

impl LayerNorm {
    pub fn new(name: &str, d: usize) -> LayerNorm {
        LayerNorm {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones(&[d])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros(&[d])),
            eps: 1e-5,
            cache: None,
        }
    }

    pub(crate) fn dim(&self) -> usize {
        self.gamma.value.len()
    }

    /// The forward over `[n, d]` without its cache, on the calling thread's
    /// row-op backend: `y` with the per-row `(x̂, 1/σ)` backward reads.
    pub(crate) fn apply(&self, x: &Tensor) -> LayerNormOut {
        normalize(x, &self.gamma.value, &self.beta.value, self.eps)
    }

    /// `apply`, caching what [`backward`](Self::backward)
    /// reads.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let out = self.apply(x);
        self.cache = Some((out.xhat, out.inv_sigma));
        out.y
    }

    /// Give the norm up to inference: `γ` and `β` kept as values, their
    /// gradients and the cache dropped.
    pub fn freeze(self) -> ServedNorm {
        ServedNorm {
            gamma: self.gamma.value,
            beta: self.beta.value,
            eps: self.eps,
        }
    }

    /// Backward: accumulates `dγ`, `dβ`; returns `dx`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (xhat, inv_sigma) = self
            .cache
            .take()
            .expect("LayerNorm::backward before forward");
        let d = self.dim();
        assert_eq!(dy.shape(), xhat.shape());
        let g = self.gamma.value.as_slice();

        // Parameter grads.
        {
            let dg = self.gamma.grad.as_mut_slice();
            let db = self.beta.grad.as_mut_slice();
            for (dyr, xr) in dy
                .as_slice()
                .chunks_exact(d)
                .zip(xhat.as_slice().chunks_exact(d))
            {
                for i in 0..d {
                    dg[i] += dyr[i] * xr[i];
                    db[i] += dyr[i];
                }
            }
        }

        // Input grad: dx = inv_σ · (dŷ − mean(dŷ) − x̂ · mean(dŷ ⊙ x̂)),
        // with dŷ = dy ⊙ γ.
        let mut dx = Tensor::zeros(dy.shape());
        for ((dxr, dyr), (xr, &inv)) in dx
            .as_mut_slice()
            .chunks_exact_mut(d)
            .zip(dy.as_slice().chunks_exact(d))
            .zip(xhat.as_slice().chunks_exact(d).zip(&inv_sigma))
        {
            let mut m1 = 0.0f32; // mean(dŷ)
            let mut m2 = 0.0f32; // mean(dŷ ⊙ x̂)
            for i in 0..d {
                let dyh = dyr[i] * g[i];
                m1 += dyh;
                m2 += dyh * xr[i];
            }
            m1 /= d as f32;
            m2 /= d as f32;
            for i in 0..d {
                let dyh = dyr[i] * g[i];
                dxr[i] = inv * (dyh - m1 - xr[i] * m2);
            }
        }
        dx
    }
}

impl HasParams for LayerNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

/// A [`LayerNorm`] given up to inference ([`LayerNorm::freeze`]).
#[derive(Debug, Clone)]
pub struct ServedNorm {
    gamma: Tensor,
    beta: Tensor,
    eps: f32,
}

impl ServedNorm {
    /// `LayerNorm::apply`'s `y`.
    pub fn apply(&self, x: &Tensor) -> Tensor {
        normalize(x, &self.gamma, &self.beta, self.eps).y
    }
}

/// The one layer-norm computation, over `[n, d]` rows.
fn normalize(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> LayerNormOut {
    assert_eq!(x.cols(), gamma.len());
    layernorm_rows(x, gamma.as_slice(), beta.as_slice(), eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagualu_tensor::rng::Rng;

    #[test]
    fn output_rows_are_normalized() {
        let mut rng = Rng::seed_from(21);
        let mut ln = LayerNorm::new("t", 16);
        let x = Tensor::randn(&[4, 16], 3.0, &mut rng);
        let y = ln.forward(&x);
        for i in 0..4 {
            let row = y.row(i);
            let mean = row.iter().sum::<f32>() / 16.0;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut rng = Rng::seed_from(22);
        let mut ln = LayerNorm::new("t", 4);
        ln.gamma.value = Tensor::from_vec(vec![2.0; 4], &[4]);
        ln.beta.value = Tensor::from_vec(vec![1.0; 4], &[4]);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let y = ln.forward(&x);
        for i in 0..2 {
            let mean = y.row(i).iter().sum::<f32>() / 4.0;
            assert!((mean - 1.0).abs() < 1e-4); // β shifts the mean
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(23);
        let mut ln = LayerNorm::new("t", 6);
        // Non-trivial γ so the backward exercises the γ term.
        ln.gamma.value = Tensor::randn(&[6], 1.0, &mut rng).map(|v| 1.0 + 0.2 * v);
        let x = Tensor::randn(&[3, 6], 1.5, &mut rng);

        let y = ln.forward(&x);
        let dx = ln.backward(&y); // loss = ½‖y‖²

        let eps = 1e-3f32;
        let loss = |ln: &mut LayerNorm, x: &Tensor| 0.5 * ln.forward(x).sq_norm();

        // Input gradient.
        for &(i, j) in &[(0usize, 0usize), (1, 3), (2, 5)] {
            let mut x2 = x.clone();
            x2.set(i, j, x.at(i, j) + eps);
            let lp = loss(&mut ln, &x2);
            x2.set(i, j, x.at(i, j) - eps);
            let lm = loss(&mut ln, &x2);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.at(i, j)).abs() < 2e-2 * (1.0 + fd.abs()),
                "x[{i},{j}]"
            );
        }

        // γ gradient.
        for j in [0usize, 4] {
            let orig = ln.gamma.value.as_slice()[j];
            ln.gamma.value.as_mut_slice()[j] = orig + eps;
            let lp = loss(&mut ln, &x);
            ln.gamma.value.as_mut_slice()[j] = orig - eps;
            let lm = loss(&mut ln, &x);
            ln.gamma.value.as_mut_slice()[j] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = ln.gamma.grad.as_slice()[j];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "gamma[{j}]: fd={fd} an={an}"
            );
        }
    }

    #[test]
    fn constant_rows_do_not_blow_up() {
        let mut ln = LayerNorm::new("t", 8);
        let x = Tensor::full(&[2, 8], 3.0);
        let y = ln.forward(&x);
        assert!(!y.has_non_finite());
        let dx = ln.backward(&Tensor::ones(&[2, 8]));
        assert!(!dx.has_non_finite());
    }
}
