//! Adam / AdamW with bias correction.
//!
//! A parameter's whole update is one call of the fused row-op kernel
//! [`adam_update`] (reference or vectorized tier, bit-identical to each
//! other): in one pass over the parameter it unscales and clips each
//! gradient element, applies the rule, publishes a half-rounded working
//! copy when the value is a master weight, and zeroes the gradient. The
//! kernel also records the `compute.adam.{flops,ns}` trace counters. Mixed
//! precision delegates to this optimizer, and replicated and ZeRO-sharded
//! training both step through mixed precision, so the routing covers every
//! training mode.

use bagualu_model::param::HasParams;
use bagualu_tensor::ops::{adam_update, AdamStep};
use bagualu_tensor::{DType, Tensor};

/// Adam hyperparameters. `weight_decay` is decoupled (AdamW-style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> AdamConfig {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Adam with first/second-moment state and bias correction. Holds ~8 bytes
/// of FP32 state per parameter — exactly the footprint the memory budget in
/// `bagualu-hw` charges (plus the 4-byte master weight when wrapped by
/// mixed precision).
pub struct Adam {
    pub(crate) cfg: AdamConfig,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: i32,
}

impl Adam {
    pub fn new(cfg: AdamConfig) -> Adam {
        Adam {
            cfg,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Change the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }

    /// Elements of every parameter updated so far.
    pub(crate) fn moment_elems(&self) -> usize {
        self.m.iter().map(Tensor::len).sum()
    }

    /// Apply one update from the accumulated gradients, on the calling
    /// thread's row-op backend, consuming them: every gradient is zero
    /// afterwards.
    pub fn step(&mut self, model: &mut dyn HasParams) {
        let step = self.next_step();
        let mut i = 0usize;
        model.visit_params(&mut |p| {
            self.update(i, &mut p.value, None, &mut p.grad, &step);
            i += 1;
        });
    }

    /// Count one step and return its element rule, with gradients taken as
    /// they are (unscale and clip factors 1); [`Adam::update`] then applies
    /// it to each parameter in visit order.
    pub(crate) fn next_step(&mut self) -> AdamStep {
        self.t += 1;
        let c = self.cfg;
        AdamStep {
            lr: c.lr,
            beta1: c.beta1,
            beta2: c.beta2,
            eps: c.eps,
            weight_decay: c.weight_decay,
            bc1: 1.0 - c.beta1.powi(self.t),
            bc2: 1.0 - c.beta2.powi(self.t),
            unscale: 1.0,
            clip: 1.0,
        }
    }

    /// Update parameter `i` from `grad` and zero `grad`. `value` is the FP32
    /// copy the rule moves: the parameter's own value, or its master weight,
    /// whose rounding is then published into `working`. The first step
    /// creates the parameter's moments.
    pub(crate) fn update(
        &mut self,
        i: usize,
        value: &mut Tensor,
        working: Option<(&mut Tensor, DType)>,
        grad: &mut Tensor,
        step: &AdamStep,
    ) {
        if self.m.len() == i {
            self.m.push(Tensor::zeros(value.shape()));
            self.v.push(Tensor::zeros(value.shape()));
        }
        assert_eq!(
            self.m[i].shape(),
            value.shape(),
            "parameter {i} changed shape"
        );
        adam_update(
            value.as_mut_slice(),
            working.map(|(w, dt)| (w.as_mut_slice(), dt)),
            grad.as_mut_slice(),
            self.m[i].as_mut_slice(),
            self.v[i].as_mut_slice(),
            step,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagualu_model::param::Param;

    impl Adam {
        /// Current step count.
        pub(crate) fn steps(&self) -> i32 {
            self.t
        }
    }

    struct One {
        p: Param,
    }

    impl HasParams for One {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.p);
        }
    }

    #[test]
    fn descends_a_quadratic() {
        let mut m = One {
            p: Param::new("x", Tensor::from_vec(vec![3.0, -2.0, 1.0], &[3])),
        };
        let mut opt = Adam::new(AdamConfig {
            lr: 0.1,
            ..Default::default()
        });
        for _ in 0..200 {
            m.p.grad = m.p.value.clone(); // L = ½‖x‖²
            opt.step(&mut m);
        }
        assert!(m.p.value.norm() < 0.05, "norm {}", m.p.value.norm());
        assert_eq!(opt.steps(), 200);
    }

    #[test]
    fn first_step_moves_by_about_lr() {
        // With bias correction, the very first Adam step is ≈ lr·sign(g).
        let mut m = One {
            p: Param::new("x", Tensor::from_vec(vec![5.0], &[1])),
        };
        let mut opt = Adam::new(AdamConfig {
            lr: 0.01,
            ..Default::default()
        });
        m.p.grad = Tensor::from_vec(vec![100.0], &[1]);
        opt.step(&mut m);
        assert!((m.p.value.as_slice()[0] - (5.0 - 0.01)).abs() < 1e-4);
        assert_eq!(m.p.grad.as_slice(), &[0.0], "a step consumes the gradient");
    }

    #[test]
    fn adamw_decay_is_decoupled() {
        // With zero gradient, AdamW still decays weights; Adam-with-L2 would
        // not move (grad = 0 ⇒ m = v = 0 ⇒ update = decay only).
        let mut m = One {
            p: Param::new("x", Tensor::from_vec(vec![2.0], &[1])),
        };
        let mut opt = Adam::new(AdamConfig {
            lr: 0.1,
            weight_decay: 0.1,
            ..Default::default()
        });
        opt.step(&mut m);
        let x = m.p.value.as_slice()[0];
        assert!((x - (2.0 - 0.1 * 0.1 * 2.0)).abs() < 1e-6, "x = {x}");
    }

    #[test]
    fn adapts_per_coordinate_scale() {
        // Two coordinates with gradients of very different magnitude should
        // move at comparable speed under Adam.
        let mut m = One {
            p: Param::new("x", Tensor::from_vec(vec![1.0, 1.0], &[2])),
        };
        let mut opt = Adam::new(AdamConfig {
            lr: 0.01,
            ..Default::default()
        });
        for _ in 0..10 {
            m.p.grad = Tensor::from_vec(
                vec![
                    1000.0 * m.p.value.as_slice()[0],
                    0.001 * m.p.value.as_slice()[1],
                ],
                &[2],
            );
            opt.step(&mut m);
        }
        let x = m.p.value.as_slice();
        let moved0 = 1.0 - x[0];
        let moved1 = 1.0 - x[1];
        assert!(moved0 > 0.0 && moved1 > 0.0);
        assert!((moved0 / moved1) < 2.0, "moves {moved0} vs {moved1}");
    }
}
