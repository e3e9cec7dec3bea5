//! Two-level hierarchical router, and the [`Router`] abstraction.
//!
//! A flat gate computes `d_model × n_experts` logits per token; at 108,000
//! experts that projection alone dominates per-token FLOPs (see experiment
//! E9). The **two-level gate** routes in two stages — softmax over `G`
//! groups, then softmax over the `E/G` experts of the chosen group — for
//! `d·(G + E/G)` work per token, minimized at `G = √E` (a 164× reduction at
//! 108k experts). The combine weight is the product of the two stage
//! probabilities, and both stages are differentiable through the chosen
//! path (selection itself is, as always, treated as constant). Admission,
//! the group-level aux loss and the group softmax backward are the flat
//! gate's (`Routing::admit`, `gate::switch_aux`,
//! `gate::softmax_aux_backward`); only the two-stage selection and the
//! sparse expert-stage backward are this module's own.

use crate::moe::gate::{argmax, softmax_aux_backward, switch_aux, Gate, Routing};
use crate::param::{HasParams, Param};
use bagualu_tensor::ops::{matmul, matmul_nt, matmul_tn, softmax_row, softmax_rows_inplace};
use bagualu_tensor::rng::Rng;
use bagualu_tensor::Tensor;

/// Two-stage router: groups, then experts within the chosen group.
#[derive(Debug, Clone)]
pub struct TwoLevelGate {
    /// Group projection `[d, G]`.
    wg_group: Param,
    /// Expert projection `[d, E]` — only the chosen group's `E/G` columns
    /// are evaluated per token.
    wg_expert: Param,
    pub(crate) groups: usize,
    pub(crate) capacity_factor: f32,
    pub(crate) aux_weight: f32,
    cache: Option<TwoLevelCache>,
}

#[derive(Debug, Clone)]
struct TwoLevelCache {
    x: Tensor,
    /// Group softmax over the full batch.
    group_probs: Tensor,
    /// Per token: chosen group and the within-group softmax row.
    chosen: Vec<(usize, Vec<f32>)>,
    /// Group-level first-choice fractions (for the aux loss).
    frac: Vec<f32>,
}

impl TwoLevelGate {
    pub(crate) fn new(
        name: &str,
        d_model: usize,
        n_experts: usize,
        groups: usize,
        capacity_factor: f32,
        aux_weight: f32,
        rng: &mut Rng,
    ) -> TwoLevelGate {
        assert!(
            groups > 0 && n_experts.is_multiple_of(groups),
            "groups must divide experts"
        );
        TwoLevelGate {
            wg_group: Param::new(
                format!("{name}.wg_group"),
                Tensor::xavier(d_model, groups, rng),
            ),
            wg_expert: Param::new(
                format!("{name}.wg_expert"),
                Tensor::xavier(d_model, n_experts, rng),
            ),
            groups,
            capacity_factor,
            aux_weight,
            cache: None,
        }
    }

    pub(crate) fn n_experts(&self) -> usize {
        self.wg_expert.value.cols()
    }

    fn experts_per_group(&self) -> usize {
        self.n_experts() / self.groups
    }

    /// Per-expert capacity for `n` tokens (top-1 semantics: k = 1).
    pub(crate) fn capacity(&self, n: usize) -> usize {
        let e = self.n_experts();
        ((self.capacity_factor as f64 * n as f64 / e as f64).ceil() as usize).max(1)
    }

    /// Per-token routing FLOPs of this gate (vs `2·d·E` for a flat gate).
    pub fn flops_per_token(d_model: usize, n_experts: usize, groups: usize) -> f64 {
        2.0 * d_model as f64 * (groups as f64 + n_experts as f64 / groups as f64)
    }

    /// Route a `[n, d]` batch: both stages pick by `argmax`, and the
    /// chosen expert is [admitted](Routing::admit) like a flat gate's.
    pub(crate) fn forward(&mut self, x: &Tensor) -> Routing {
        let n = x.rows();
        let d = x.cols();
        let epg = self.experts_per_group();
        let mut group_probs = matmul(x, &self.wg_group.value);
        softmax_rows_inplace(&mut group_probs, &mut []);
        let mut routing = Routing::open(self.n_experts(), self.capacity(n), n);
        let mut group_first = vec![0usize; self.groups];
        let mut chosen = Vec::with_capacity(n);

        for t in 0..n {
            // Stage 1: pick the group.
            let grow = group_probs.row(t);
            let (g, _) = argmax(grow);
            group_first[g] += 1;
            // Stage 2: logits over only the chosen group's experts.
            let xrow = x.row(t);
            let mut logits = vec![0.0f32; epg];
            for (j, l) in logits.iter_mut().enumerate() {
                let col = g * epg + j;
                let mut s = 0.0f32;
                for (k, &xk) in xrow.iter().enumerate().take(d) {
                    s += xk * self.wg_expert.value.at(k, col);
                }
                *l = s;
            }
            softmax_row(&mut logits);
            let (j, _) = argmax(&logits);
            let expert = g * epg + j;
            routing.raw_load[expert] += 1;
            routing.admit(t, expert, grow[g] * logits[j]);
            chosen.push((g, logits));
        }

        // Group-level switch aux loss.
        let (aux_loss, frac) = switch_aux(&group_probs, &group_first, self.aux_weight);
        routing.aux_loss = aux_loss;
        self.cache = Some(TwoLevelCache {
            x: x.clone(),
            group_probs,
            chosen,
            frac,
        });
        routing
    }

    /// Backward: `dweights[i] = ∂L/∂assignments[i].weight`. Returns the
    /// gate's `dx` contribution and accumulates both projections' grads.
    pub(crate) fn backward(&mut self, routing: &Routing, dweights: &[f32]) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("TwoLevelGate::backward before forward");
        let n = cache.x.rows();
        let d = cache.x.cols();
        let epg = self.experts_per_group();
        assert_eq!(dweights.len(), routing.assignments.len());

        // Stage gradients per token.
        let mut dgroup_probs = Tensor::zeros(&[n, self.groups]);
        // Within-group prob gradient, sparse per token.
        let mut dexpert_probs: Vec<Option<(usize, Vec<f32>)>> = vec![None; n];
        for (a, &dw) in routing.assignments.iter().zip(dweights) {
            let (g, probs) = &cache.chosen[a.token];
            let j = a.expert - g * epg;
            // weight = pg · pe.
            let cur = dgroup_probs.at(a.token, *g);
            dgroup_probs.set(a.token, *g, cur + dw * probs[j]);
            let pg = cache.group_probs.at(a.token, *g);
            let mut dpe = vec![0.0f32; epg];
            dpe[j] = dw * pg;
            dexpert_probs[a.token] = Some((*g, dpe));
        }

        // Group softmax and aux-loss backward → dlogits_group.
        let dlogits_group = softmax_aux_backward(
            dgroup_probs,
            &cache.group_probs,
            &cache.frac,
            self.aux_weight,
        );
        self.wg_group
            .grad
            .add_assign(&matmul_tn(&cache.x, &dlogits_group));
        let mut dx = matmul_nt(&dlogits_group, &self.wg_group.value);

        // Expert-stage backward, token by token (sparse columns).
        for (t, slot) in dexpert_probs.iter().enumerate().take(n) {
            let Some((g, dpe)) = slot else { continue };
            let probs = &cache.chosen[t].1;
            let dot: f32 = dpe.iter().zip(probs).map(|(a, b)| a * b).sum();
            let xrow = cache.x.row(t).to_vec();
            let dxrow = dx.row_mut(t);
            for (j, (&dp, &p)) in dpe.iter().zip(probs).enumerate() {
                let dl = p * (dp - dot); // softmax backward
                if dl == 0.0 {
                    continue;
                }
                let col = g * epg + j;
                for k in 0..d {
                    // dWe[k, col] += x[t,k]·dl ; dx[t,k] += We[k,col]·dl.
                    let cur = self.wg_expert.grad.at(k, col);
                    self.wg_expert.grad.set(k, col, cur + xrow[k] * dl);
                    dxrow[k] += self.wg_expert.value.at(k, col) * dl;
                }
            }
        }
        dx
    }
}

impl HasParams for TwoLevelGate {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wg_group);
        f(&mut self.wg_expert);
    }
}

/// A routing policy: the flat gate or the two-level gate, behind one API.
#[derive(Debug, Clone)]
pub enum Router {
    Flat(Gate),
    TwoLevel(TwoLevelGate),
}

impl Router {
    pub(crate) fn forward(&mut self, x: &Tensor) -> Routing {
        match self {
            Router::Flat(g) => g.forward(x),
            Router::TwoLevel(g) => g.forward(x),
        }
    }

    pub(crate) fn backward(&mut self, routing: &Routing, dweights: &[f32]) -> Tensor {
        match self {
            Router::Flat(g) => g.backward(routing, dweights),
            Router::TwoLevel(g) => g.backward(routing, dweights),
        }
    }

    /// The flat gate, if this router is flat (the distributed runtime
    /// currently requires it).
    pub fn as_flat(&self) -> Option<&Gate> {
        match self {
            Router::Flat(g) => Some(g),
            Router::TwoLevel(_) => None,
        }
    }
}

impl HasParams for Router {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            Router::Flat(g) => g.visit_params(f),
            Router::TwoLevel(g) => g.visit_params(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(e: usize, groups: usize) -> TwoLevelGate {
        let mut rng = Rng::seed_from(91);
        TwoLevelGate::new("t", 8, e, groups, 8.0, 0.0, &mut rng)
    }

    #[test]
    fn routes_every_token_within_chosen_group() {
        let mut rng = Rng::seed_from(92);
        let mut g = gate(16, 4);
        let x = Tensor::randn(&[24, 8], 1.0, &mut rng);
        let r = g.forward(&x);
        assert_eq!(r.assignments.len(), 24);
        for a in &r.assignments {
            assert!(a.expert < 16);
            assert!(a.weight > 0.0 && a.weight <= 1.0);
        }
    }

    #[test]
    fn weight_is_product_of_stage_probs() {
        // With one group, pg = 1 and the weight is the within-group prob.
        let mut rng = Rng::seed_from(93);
        let mut g = gate(4, 1);
        let x = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let r = g.forward(&x);
        let sum_check: f32 = r.assignments.iter().map(|a| a.weight).sum();
        assert!(sum_check > 0.0);
        for a in &r.assignments {
            assert!(a.weight <= 1.0);
        }
    }

    #[test]
    fn flops_advantage_at_scale() {
        let flat = 2.0 * 4096.0 * 108_000.0;
        let two = TwoLevelGate::flops_per_token(4096, 108_000, 329); // ≈ √E
        assert!(flat / two > 100.0, "ratio {}", flat / two);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(94);
        let mut g = gate(6, 2);
        let x = Tensor::randn(&[5, 8], 1.0, &mut rng);

        // Toy loss: ½ Σ w².
        let r = g.forward(&x);
        let dweights: Vec<f32> = r.assignments.iter().map(|a| a.weight).collect();
        let dx = g.backward(&r, &dweights);

        let loss = |g: &mut TwoLevelGate, x: &Tensor| -> f32 {
            let r = g.forward(x);
            0.5 * r
                .assignments
                .iter()
                .map(|a| a.weight * a.weight)
                .sum::<f32>()
        };
        let routing_sig = |g: &mut TwoLevelGate, x: &Tensor| -> Vec<usize> {
            g.forward(x).assignments.iter().map(|a| a.expert).collect()
        };
        let base_sig = routing_sig(&mut g, &x);
        let eps = 1e-3f32;

        // Input entries (skip where routing flips — non-differentiable).
        let mut checked = 0;
        for i in 0..5 {
            for j in 0..8 {
                let mut x2 = x.clone();
                x2.set(i, j, x.at(i, j) + eps);
                if routing_sig(&mut g, &x2) != base_sig {
                    continue;
                }
                let lp = loss(&mut g, &x2);
                x2.set(i, j, x.at(i, j) - eps);
                if routing_sig(&mut g, &x2) != base_sig {
                    continue;
                }
                let lm = loss(&mut g, &x2);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - dx.at(i, j)).abs() < 5e-2 * (1.0 + fd.abs()),
                    "x[{i},{j}]: fd={fd} an={}",
                    dx.at(i, j)
                );
                checked += 1;
            }
        }
        assert!(checked > 15, "too few entries checked: {checked}");

        // One weight from each projection.
        g.zero_grad();
        let r = g.forward(&x);
        let dweights: Vec<f32> = r.assignments.iter().map(|a| a.weight).collect();
        g.backward(&r, &dweights);
        for (pick, which) in [(true, "group"), (false, "expert")] {
            let (i, j) = (2usize, 1usize);
            let orig = if pick {
                g.wg_group.value.at(i, j)
            } else {
                g.wg_expert.value.at(i, j)
            };
            let setv = |g: &mut TwoLevelGate, v: f32| {
                if pick {
                    g.wg_group.value.set(i, j, v)
                } else {
                    g.wg_expert.value.set(i, j, v)
                }
            };
            setv(&mut g, orig + eps);
            if routing_sig(&mut g, &x) != base_sig {
                setv(&mut g, orig);
                continue;
            }
            let lp = loss(&mut g, &x);
            setv(&mut g, orig - eps);
            let lm = loss(&mut g, &x);
            setv(&mut g, orig);
            let fd = (lp - lm) / (2.0 * eps);
            let an = if pick {
                g.wg_group.grad.at(i, j)
            } else {
                g.wg_expert.grad.at(i, j)
            };
            assert!(
                (fd - an).abs() < 5e-2 * (1.0 + fd.abs()),
                "{which}: fd={fd} an={an}"
            );
        }
    }

    #[test]
    fn capacity_is_enforced() {
        let mut g = gate(4, 2);
        g.capacity_factor = 1.0;
        // Identical tokens: all want the same expert.
        let x = Tensor::ones(&[8, 8]);
        let r = g.forward(&x);
        assert_eq!(r.capacity, 2);
        assert!(r.dropped > 0);
        assert!(r.load.iter().all(|&l| l <= 2));
    }

    #[test]
    #[should_panic(expected = "groups must divide")]
    fn groups_must_divide_experts() {
        let mut rng = Rng::seed_from(95);
        TwoLevelGate::new("t", 8, 10, 3, 1.0, 0.0, &mut rng);
    }

    #[test]
    fn router_enum_dispatches() {
        let mut rng = Rng::seed_from(96);
        let x = Tensor::randn(&[4, 8], 1.0, &mut rng);
        let mut flat = Router::Flat(Gate::new(
            "f",
            8,
            4,
            crate::moe::gate::GateKind::Top1,
            8.0,
            0.0,
            &mut rng,
        ));
        let mut two = Router::TwoLevel(gate(4, 2));
        assert!(flat.as_flat().is_some());
        assert!(two.as_flat().is_none());
        let r1 = flat.forward(&x);
        let r2 = two.forward(&x);
        assert_eq!(r1.assignments.len(), 4);
        assert_eq!(r2.assignments.len(), 4);
    }
}
