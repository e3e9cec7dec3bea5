//! Fully connected layer with cached-input backward, and its inference
//! form.

use crate::param::{HasParams, Param};
use bagualu_tensor::ops::{
    matmul_bias_act, matmul_nt, matmul_packed, matmul_tn, Activation, PackedB,
};
use bagualu_tensor::rng::Rng;
use bagualu_tensor::Tensor;

/// `y = x·W + b` with `W: [in, out]`, `b: [out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub(crate) w: Param,
    pub(crate) b: Param,
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

    pub(crate) fn d_in(&self) -> usize {
        self.w.value.rows()
    }

    pub(crate) fn d_out(&self) -> usize {
        self.w.value.cols()
    }

    /// Give the layer up to inference: the weight is packed once into the
    /// panels every [`PackedLinear::apply`] reads and kept only in that
    /// form; both gradients and the forward cache go. Both gradients are
    /// dropped before the pack, so the panels can take a gradient's buffer
    /// back from the tensor reservoir.
    pub fn freeze(self) -> PackedLinear {
        let Linear { w, b, .. } = self;
        drop(b.grad);
        drop(w.grad);
        PackedLinear {
            w: PackedB::new(&w.value),
            b: b.value,
        }
    }

    /// `act(x·W + b)` over a `[n, d_in]` batch and nothing else: the GEMM
    /// with its fused epilogue, no backward cache.
    pub(crate) fn apply(&self, x: &Tensor, act: Activation) -> Tensor {
        assert_eq!(x.cols(), self.d_in());
        matmul_bias_act(x, &self.w.value, Some(self.b.value.as_slice()), act)
    }

    /// Forward over a `[n, d_in]` batch, caching the input
    /// [`Linear::backward`] reads.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = self.apply(x, Activation::Identity);
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

/// A [`Linear`] given up to inference ([`Linear::freeze`]): the weight as
/// the GEMM's packed panels, the bias as a value, and nothing a training
/// step reads. It has no forward cache, no backward and no parameters to
/// visit, so it cannot be trained or checkpointed.
#[derive(Debug, Clone)]
pub struct PackedLinear {
    w: PackedB,
    b: Tensor,
}

impl PackedLinear {
    pub(crate) fn d_in(&self) -> usize {
        self.w.rows()
    }

    /// `act(x·W + b)` over a `[n, d_in]` batch, over the packed panels at
    /// every row count: the bits of `Linear::apply` before the freeze.
    pub fn apply(&self, x: &Tensor, act: Activation) -> Tensor {
        assert_eq!(x.cols(), self.d_in());
        matmul_packed(x, &self.w, Some(self.b.as_slice()), act)
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

    /// Frozen, a layer keeps its weight only as panels and `apply` gives
    /// the bits it gave before.
    #[test]
    fn frozen_apply_keeps_the_bits_and_drops_the_training_state() {
        let mut rng = Rng::seed_from(16);
        let mut lin = Linear::new("t", 70, 130, &mut rng);
        lin.b.value = Tensor::randn(&[130], 1.0, &mut rng);
        let x = Tensor::randn(&[9, 70], 1.0, &mut rng);
        let bits = |y: Tensor| -> Vec<u32> { y.as_slice().iter().map(|v| v.to_bits()).collect() };
        let before = bits(lin.apply(&x, Activation::Gelu));
        let packed = lin.freeze();
        assert_eq!(packed.d_in(), 70);
        assert_eq!(bits(packed.apply(&x, Activation::Gelu)), before);
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
