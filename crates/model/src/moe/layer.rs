//! Single-rank MoE layer: gate → dispatch → experts → combine.
//!
//! This is the semantic reference: the distributed expert-parallel layer in
//! `bagualu-parallel` performs exactly this computation with the dispatch
//! and combine crossing an all-to-all. Tokens dropped by capacity limiting
//! contribute zero here and ride the transformer block's residual.

use crate::ffn::FeedForward;
use crate::moe::gate::{Gate, GateKind, Routing};
use crate::moe::router::{Router, TwoLevelGate};
use crate::param::{HasParams, Param};
use bagualu_tensor::rng::Rng;
use bagualu_tensor::Tensor;

/// A mixture-of-experts FFN layer with all experts resident locally.
#[derive(Debug, Clone)]
pub struct MoELayer {
    pub router: Router,
    pub experts: Vec<FeedForward>,
    cache: Option<MoECache>,
}

#[derive(Debug, Clone)]
struct MoECache {
    routing: Routing,
    /// Per expert: indices into `routing.assignments` of the tokens it got.
    per_expert: Vec<Vec<usize>>,
    /// Per expert: its output rows (aligned with `per_expert`).
    outputs: Vec<Tensor>,
    dy_shape: Vec<usize>,
}

impl MoELayer {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        d_model: usize,
        d_ff: usize,
        n_experts: usize,
        kind: GateKind,
        capacity_factor: f32,
        aux_weight: f32,
        rng: &mut Rng,
    ) -> MoELayer {
        MoELayer {
            router: Router::Flat(Gate::new(
                &format!("{name}.gate"),
                d_model,
                n_experts,
                kind,
                capacity_factor,
                aux_weight,
                rng,
            )),
            experts: (0..n_experts)
                .map(|e| FeedForward::new(&format!("{name}.expert{e}"), d_model, d_ff, rng))
                .collect(),
            cache: None,
        }
    }

    /// Build with the two-level hierarchical router (`groups` must divide
    /// `n_experts`). Single-rank only — the distributed runtime requires a
    /// flat gate.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new_two_level(
        name: &str,
        d_model: usize,
        d_ff: usize,
        n_experts: usize,
        groups: usize,
        capacity_factor: f32,
        aux_weight: f32,
        rng: &mut Rng,
    ) -> MoELayer {
        MoELayer {
            router: Router::TwoLevel(TwoLevelGate::new(
                &format!("{name}.gate"),
                d_model,
                n_experts,
                groups,
                capacity_factor,
                aux_weight,
                rng,
            )),
            experts: (0..n_experts)
                .map(|e| FeedForward::new(&format!("{name}.expert{e}"), d_model, d_ff, rng))
                .collect(),
            cache: None,
        }
    }

    pub fn n_experts(&self) -> usize {
        self.experts.len()
    }

    /// Auxiliary balance loss of the most recent forward pass.
    pub(crate) fn last_aux_loss(&self) -> f32 {
        self.cache
            .as_ref()
            .map(|c| c.routing.aux_loss)
            .unwrap_or(0.0)
    }

    /// Routing statistics of the most recent forward pass.
    pub fn last_routing(&self) -> Option<&Routing> {
        self.cache.as_ref().map(|c| &c.routing)
    }

    /// Forward over `[n, d]`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let d = x.cols();
        let routing = self.router.forward(x);
        let e = self.n_experts();

        // Dispatch: gather each expert's tokens.
        let mut per_expert: Vec<Vec<usize>> = vec![Vec::new(); e];
        for (i, a) in routing.assignments.iter().enumerate() {
            per_expert[a.expert].push(i);
        }

        let mut y = Tensor::zeros(x.shape());
        let mut outputs = Vec::with_capacity(e);
        for (ex, idxs) in per_expert.iter().enumerate() {
            let mut xe = Tensor::zeros(&[idxs.len(), d]);
            for (row, &ai) in idxs.iter().enumerate() {
                xe.row_mut(row)
                    .copy_from_slice(x.row(routing.assignments[ai].token));
            }
            let ye = self.experts[ex].forward(&xe);
            // Combine: y[token] += weight · expert_out.
            for (row, &ai) in idxs.iter().enumerate() {
                let a = routing.assignments[ai];
                let dst = y.row_mut(a.token);
                for (o, &v) in dst.iter_mut().zip(ye.row(row)) {
                    *o += a.weight * v;
                }
            }
            outputs.push(ye);
        }

        self.cache = Some(MoECache {
            routing,
            per_expert,
            outputs,
            dy_shape: x.shape().to_vec(),
        });
        y
    }

    /// Backward; returns `dx` (expert path + gate path combined).
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("MoELayer::backward before forward");
        assert_eq!(dy.shape(), &cache.dy_shape[..]);
        let d = dy.cols();
        let routing = &cache.routing;

        // Combine-weight gradients: dw = ⟨dy_token, expert_out_row⟩.
        let mut dweights = vec![0.0f32; routing.assignments.len()];
        let mut dx = Tensor::zeros(dy.shape());

        for (ex, idxs) in cache.per_expert.iter().enumerate() {
            if idxs.is_empty() {
                // The expert still participates in backward with an empty
                // batch so its cached state is consumed.
                let empty = Tensor::zeros(&[0, d]);
                self.experts[ex].backward(&empty);
                continue;
            }
            let ye = &cache.outputs[ex];
            // dY_e[row] = weight · dy[token]; dweight = ⟨dy[token], Y_e[row]⟩.
            let mut dye = Tensor::zeros(&[idxs.len(), d]);
            for (row, &ai) in idxs.iter().enumerate() {
                let a = routing.assignments[ai];
                let dyr = dy.row(a.token);
                dweights[ai] = dyr.iter().zip(ye.row(row)).map(|(g, v)| g * v).sum();
                let dst = dye.row_mut(row);
                for (o, &g) in dst.iter_mut().zip(dyr) {
                    *o = a.weight * g;
                }
            }
            // dye already carries the combine weight, so the expert's input
            // gradient is added back unscaled.
            let dxe = self.experts[ex].backward(&dye);
            for (row, &ai) in idxs.iter().enumerate() {
                let a = routing.assignments[ai];
                let dst = dx.row_mut(a.token);
                for (o, &g) in dst.iter_mut().zip(dxe.row(row)) {
                    *o += g;
                }
            }
        }

        // Gate path.
        let dx_gate = self.router.backward(routing, &dweights);
        dx.add_assign(&dx_gate);
        dx
    }
}

impl HasParams for MoELayer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.router.visit_params(f);
        for e in &mut self.experts {
            e.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_gate(m: &mut MoELayer) -> &mut Gate {
        match &mut m.router {
            Router::Flat(g) => g,
            Router::TwoLevel(_) => panic!("layer uses the two-level router"),
        }
    }

    fn layer(kind: GateKind, e: usize, cf: f32) -> MoELayer {
        let mut rng = Rng::seed_from(71);
        MoELayer::new("m", 8, 16, e, kind, cf, 0.0, &mut rng)
    }

    #[test]
    fn forward_shape_and_determinism() {
        let mut rng = Rng::seed_from(72);
        let mut m = layer(GateKind::Top2, 4, 2.0);
        let x = Tensor::randn(&[10, 8], 1.0, &mut rng);
        let y1 = m.forward(&x);
        let y2 = m.forward(&x);
        assert_eq!(y1.shape(), &[10, 8]);
        assert!(y1.approx_eq(&y2, 0.0));
    }

    #[test]
    fn single_expert_equals_weighted_ffn() {
        // With one expert, the gate prob is exactly 1, so the MoE layer must
        // equal that expert's FFN output.
        let mut rng = Rng::seed_from(73);
        let mut m = layer(GateKind::Top1, 1, 8.0);
        let x = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let y = m.forward(&x);
        let expect = m.experts[0].forward(&x);
        assert!(y.approx_eq(&expect, 1e-5));
    }

    #[test]
    fn dropped_tokens_produce_zero_output() {
        let mut m = layer(GateKind::Top1, 2, 1.0);
        // Skew the gate to expert 0 so late tokens get dropped.
        flat_gate(&mut m).wg.value = Tensor::zeros(&[8, 2]);
        for i in 0..8 {
            flat_gate(&mut m).wg.value.set(i, 0, 4.0);
        }
        let x = Tensor::ones(&[8, 8]);
        let y = m.forward(&x);
        let r = m.last_routing().unwrap().clone();
        assert!(r.dropped > 0);
        // Tokens beyond capacity: output row must be all zeros.
        let assigned: std::collections::HashSet<usize> =
            r.assignments.iter().map(|a| a.token).collect();
        for t in 0..8 {
            let all_zero = y.row(t).iter().all(|&v| v == 0.0);
            assert_eq!(all_zero, !assigned.contains(&t), "token {t}");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(75);
        let mut m = layer(GateKind::Top1, 3, 8.0);
        let x = Tensor::randn(&[5, 8], 1.0, &mut rng);
        let y = m.forward(&x);
        let dx = m.backward(&y); // loss = ½‖y‖²

        let eps = 1e-3f32;
        let loss = |m: &mut MoELayer, x: &Tensor| 0.5 * m.forward(x).sq_norm();

        // Input entries (includes gate path). The loss is discontinuous
        // where a perturbation flips the routing argmax, so only check
        // entries whose ±eps perturbations leave the routing unchanged —
        // the analytic gradient is defined for fixed routing.
        let routing_of = |m: &mut MoELayer, x: &Tensor| -> Vec<usize> {
            m.forward(x);
            m.last_routing()
                .unwrap()
                .assignments
                .iter()
                .map(|a| a.expert)
                .collect()
        };
        let base_routing = routing_of(&mut m, &x);
        let mut checked = 0;
        for i in 0..5 {
            for j in 0..8 {
                let mut x2 = x.clone();
                x2.set(i, j, x.at(i, j) + eps);
                if routing_of(&mut m, &x2) != base_routing {
                    continue;
                }
                let lp = loss(&mut m, &x2);
                x2.set(i, j, x.at(i, j) - eps);
                if routing_of(&mut m, &x2) != base_routing {
                    continue;
                }
                let lm = loss(&mut m, &x2);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - dx.at(i, j)).abs() < 5e-2 * (1.0 + fd.abs()),
                    "x[{i},{j}]: fd={fd} an={}",
                    dx.at(i, j)
                );
                checked += 1;
            }
        }
        assert!(
            checked > 20,
            "too few differentiable entries checked: {checked}"
        );

        // An expert weight (find one that received tokens).
        let busy = (0..3).find(|&e| {
            m.forward(&x) == m.forward(&x) && {
                let r = m.last_routing().unwrap();
                r.load[e] > 0
            }
        });
        let e = busy.expect("some expert must be busy");
        m.zero_grad();
        let y = m.forward(&x);
        m.backward(&y);
        let orig = m.experts[e].fc1.w.value.at(0, 0);
        m.experts[e].fc1.w.value.set(0, 0, orig + eps);
        let lp = loss(&mut m, &x);
        m.experts[e].fc1.w.value.set(0, 0, orig - eps);
        let lm = loss(&mut m, &x);
        m.experts[e].fc1.w.value.set(0, 0, orig);
        let fd = (lp - lm) / (2.0 * eps);
        let an = m.experts[e].fc1.w.grad.at(0, 0);
        assert!(
            (fd - an).abs() < 5e-2 * (1.0 + fd.abs()),
            "expert w: fd={fd} an={an}"
        );

        // Gate weight.
        let orig = flat_gate(&mut m).wg.value.at(1, 1);
        m.zero_grad();
        let y = m.forward(&x);
        m.backward(&y);
        flat_gate(&mut m).wg.value.set(1, 1, orig + eps);
        let lp = loss(&mut m, &x);
        flat_gate(&mut m).wg.value.set(1, 1, orig - eps);
        let lm = loss(&mut m, &x);
        flat_gate(&mut m).wg.value.set(1, 1, orig);
        let fd = (lp - lm) / (2.0 * eps);
        let an = flat_gate(&mut m).wg.grad.at(1, 1);
        assert!(
            (fd - an).abs() < 5e-2 * (1.0 + fd.abs()),
            "gate wg: fd={fd} an={an}"
        );
    }

    #[test]
    fn param_visit_covers_gate_and_experts() {
        let mut m = layer(GateKind::Top1, 3, 1.0);
        let mut names = Vec::new();
        m.visit_params(&mut |p| names.push(p.name.clone()));
        assert!(names[0].contains("gate"));
        // gate + 3 experts × 2 linears × 2 params.
        assert_eq!(names.len(), 1 + 3 * 4);
    }

    #[test]
    fn top2_output_uses_both_experts() {
        let mut rng = Rng::seed_from(76);
        let mut m1 = layer(GateKind::Top1, 4, 8.0);
        let mut m2 = layer(GateKind::Top2, 4, 8.0);
        // Same weights.
        flat_gate(&mut m2).wg.value = flat_gate(&mut m1).wg.value.clone();
        for (a, b) in m2.experts.iter_mut().zip(&m1.experts) {
            a.fc1.w.value = b.fc1.w.value.clone();
            a.fc1.b.value = b.fc1.b.value.clone();
            a.fc2.w.value = b.fc2.w.value.clone();
            a.fc2.b.value = b.fc2.b.value.clone();
        }
        let x = Tensor::randn(&[8, 8], 1.0, &mut rng);
        let y1 = m1.forward(&x);
        let y2 = m2.forward(&x);
        // Top-2 includes top-1's contribution plus the runner-up's — outputs
        // must differ.
        assert!(!y1.approx_eq(&y2, 1e-4));
    }
}
