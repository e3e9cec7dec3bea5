//! Global gradient-norm clipping, and the gradient read that the
//! optimizer step shares with it.
//!
//! The norm is rank-local: on a distributed model it covers the replicated
//! dense gradients and this rank's experts only, with no all-reduce.

use bagualu_model::param::HasParams;
use bagualu_tensor::Tensor;

/// Scale all gradients so the global L2 norm does not exceed `max_norm`.
/// Returns the pre-clip norm. Non-finite norms leave gradients untouched
/// (the loss scaler handles that case by skipping the step).
pub fn clip_grad_norm(model: &mut dyn HasParams, max_norm: f32) -> f32 {
    let mut grads = take_grads(model);
    let norm = grad_sq_sum(&grads).sqrt() as f32;
    if let Some(scale) = clip_scale(norm, max_norm) {
        grads.iter_mut().for_each(|g| g.scale(scale));
    }
    put_grads(model, grads);
    norm
}

/// Move every gradient out of `model`, in visit order, leaving an empty
/// tensor in its place: O(1) per parameter, so that the gradients can be
/// read several at a time. The caller hands each one back.
pub(crate) fn take_grads(model: &mut dyn HasParams) -> Vec<Tensor> {
    let mut grads = Vec::new();
    model.visit_params(&mut |p| grads.push(std::mem::take(&mut p.grad)));
    grads
}

/// Hand [`take_grads`]' gradients back to their parameters.
pub(crate) fn put_grads(model: &mut dyn HasParams, grads: Vec<Tensor>) {
    let mut grads = grads.into_iter();
    model.visit_params(&mut |p| p.grad = grads.next().expect("one gradient per parameter"));
}

/// The squared global gradient norm: each gradient's `sq_norm`, summed in
/// `f64` in visit order. The per-gradient sums come from
/// [`Tensor::sq_norms`], which runs the chains of equally long gradients
/// side by side with the bits of one at a time. The one read pass of both
/// [`clip_grad_norm`] and [`MixedPrecision::step`](crate::MixedPrecision::step).
/// It is finite exactly when every gradient is finite and no tensor's sum
/// of squares overflows `f32`.
pub(crate) fn grad_sq_sum(grads: &[Tensor]) -> f64 {
    Tensor::sq_norms(grads)
        .into_iter()
        .fold(0.0f64, |sq, s| sq + s as f64)
}

/// The factor that brings a gradient of norm `norm` down to `max_norm`, or
/// `None` when it is already within it or the norm is not finite.
pub(crate) fn clip_scale(norm: f32, max_norm: f32) -> Option<f32> {
    (norm.is_finite() && norm > max_norm).then(|| max_norm / norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagualu_model::param::Param;
    use bagualu_tensor::Tensor;

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

    fn with_grads(ga: Vec<f32>, gb: Vec<f32>) -> Two {
        let mut t = Two {
            a: Param::new("a", Tensor::zeros(&[ga.len()])),
            b: Param::new("b", Tensor::zeros(&[gb.len()])),
        };
        let (la, lb) = (ga.len(), gb.len());
        t.a.grad = Tensor::from_vec(ga, &[la]);
        t.b.grad = Tensor::from_vec(gb, &[lb]);
        t
    }

    #[test]
    fn clips_to_max_norm() {
        let mut t = with_grads(vec![3.0], vec![4.0]); // norm 5
        let pre = clip_grad_norm(&mut t, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let post = (t.a.grad.sq_norm() + t.b.grad.sq_norm()).sqrt();
        assert!((post - 1.0).abs() < 1e-5);
        // Direction is preserved.
        assert!((t.a.grad.as_slice()[0] / t.b.grad.as_slice()[0] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn small_gradients_untouched() {
        let mut t = with_grads(vec![0.1], vec![0.2]);
        clip_grad_norm(&mut t, 10.0);
        assert_eq!(t.a.grad.as_slice(), &[0.1]);
        assert_eq!(t.b.grad.as_slice(), &[0.2]);
    }

    #[test]
    fn non_finite_norm_leaves_grads_alone() {
        let mut t = with_grads(vec![f32::INFINITY], vec![1.0]);
        let pre = clip_grad_norm(&mut t, 1.0);
        assert!(!pre.is_finite());
        assert_eq!(t.b.grad.as_slice(), &[1.0]);
    }
}
