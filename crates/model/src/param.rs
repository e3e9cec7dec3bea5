//! Trainable parameters: value + gradient accumulator.

use bagualu_tensor::Tensor;

/// One trainable tensor with its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// Stable name for checkpointing and debugging (e.g. `blocks.3.attn.wqkv`).
    pub name: String,
    pub value: Tensor,
    pub grad: Tensor,
}

impl Param {
    /// Wrap an initialized tensor; the gradient starts at zero.
    pub fn new(name: impl Into<String>, value: Tensor) -> Param {
        let grad = Tensor::zeros(value.shape());
        Param {
            name: name.into(),
            value,
            grad,
        }
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.len()
    }

    /// Reset the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}

/// Anything that exposes its parameters to an optimizer, in a stable order.
pub trait HasParams {
    /// Visit every parameter mutably. Order must be deterministic — the
    /// data-parallel gradient all-reduce flattens gradients in this order
    /// on every rank.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Total trainable scalars.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }

    /// Zero every gradient accumulator.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Flatten all gradients into one buffer (deterministic order).
    fn flat_grads(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.extend_from_slice(p.grad.as_slice()));
        out
    }

    /// Overwrite all gradients from a flat buffer (inverse of
    /// [`HasParams::flat_grads`]). Panics if the length does not match.
    fn load_flat_grads(&mut self, flat: &[f32]) {
        let mut off = 0usize;
        self.visit_params(&mut |p| {
            let n = p.grad.len();
            p.grad.as_mut_slice().copy_from_slice(&flat[off..off + n]);
            off += n;
        });
        assert_eq!(off, flat.len(), "flat gradient length mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn two() -> Two {
        Two {
            a: Param::new("a", Tensor::from_vec(vec![1.0, 2.0], &[2])),
            b: Param::new("b", Tensor::from_vec(vec![3.0], &[1])),
        }
    }

    #[test]
    fn numel_and_zero_grad() {
        let mut t = two();
        assert_eq!(t.num_params(), 3);
        t.a.grad.fill(5.0);
        t.zero_grad();
        assert_eq!(t.a.grad.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn flat_grads_round_trip() {
        let mut t = two();
        t.a.grad = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        t.b.grad = Tensor::from_vec(vec![3.0], &[1]);
        let flat = t.flat_grads();
        assert_eq!(flat, vec![1.0, 2.0, 3.0]);
        t.zero_grad();
        t.load_flat_grads(&flat);
        assert_eq!(t.flat_grads(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn load_flat_grads_checks_length() {
        two().load_flat_grads(&[1.0, 2.0, 3.0, 4.0]);
    }
}
