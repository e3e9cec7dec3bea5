//! The MoE router: expert selection, capacity limiting, balance loss.
//!
//! Every router decides in one place. `decide` is the flat routing core:
//! first choices by `argmax` or `top2` on the selection scores, then
//! admission against a capacity (`Routing::admit`, with the load, raw-load
//! and drop bookkeeping) — [`Gate::forward`] runs it at the training
//! capacity, [`ServedRouter::route`] at `usize::MAX`. The two-level gate
//! (`moe::router`) picks its own first choices and admits them through the
//! same `Routing::admit`. `switch_aux` and `softmax_aux_backward` are
//! the auxiliary balance loss and its backward for both.

use crate::param::{HasParams, Param};
use bagualu_tensor::ops::{
    ln, matmul, matmul_nt, matmul_packed, matmul_tn, softmax_rows_inplace, Activation, PackedB,
};
use bagualu_tensor::rng::Rng;
use bagualu_tensor::Tensor;

/// Expert-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// Switch-style: each token goes to its single highest-probability
    /// expert.
    Top1,
    /// GShard-style: each token goes to its two highest-probability experts.
    Top2,
    /// Balance-aware greedy: each token goes to its highest-probability
    /// expert *among those still under capacity* — trades routing fidelity
    /// for a balanced dispatch, eliminating drops whenever `cf ≥ 1`.
    Balanced,
    /// Noisy top-1: Gaussian jitter (scale `Gate::noise_std`) is added to
    /// the logits before selection, spreading near-tie tokens across
    /// experts; the combine weight is the *clean* router probability.
    NoisyTop1,
}

impl GateKind {
    /// Experts chosen per token.
    pub fn k(self) -> usize {
        match self {
            GateKind::Top1 | GateKind::Balanced | GateKind::NoisyTop1 => 1,
            GateKind::Top2 => 2,
        }
    }
}

impl std::fmt::Display for GateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GateKind::Top1 => "top1",
            GateKind::Top2 => "top2",
            GateKind::Balanced => "balanced",
            GateKind::NoisyTop1 => "noisy",
        })
    }
}

impl std::str::FromStr for GateKind {
    type Err = String;

    /// `top1 | top2 | balanced | noisy`, the inverse of
    /// [`Display`](std::fmt::Display) (the CLI's historical spellings).
    fn from_str(s: &str) -> Result<GateKind, String> {
        match s {
            "top1" => Ok(GateKind::Top1),
            "top2" => Ok(GateKind::Top2),
            "balanced" => Ok(GateKind::Balanced),
            "noisy" => Ok(GateKind::NoisyTop1),
            other => Err(format!(
                "unknown gate: {other} (want top1 | top2 | balanced | noisy)"
            )),
        }
    }
}

/// One token→expert assignment with its combine weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    pub token: usize,
    pub expert: usize,
    /// Combine weight (the router probability of the chosen expert).
    pub weight: f32,
}

/// The dispatch plan produced by a gate forward pass.
#[derive(Debug, Clone)]
pub struct Routing {
    /// Surviving (post-capacity) assignments, in token order.
    pub assignments: Vec<Assignment>,
    /// Post-capacity tokens per expert.
    pub load: Vec<usize>,
    /// Pre-capacity first-choice counts per expert (for balance metrics).
    pub raw_load: Vec<usize>,
    /// Assignments discarded because their expert was full.
    pub dropped: usize,
    /// Per-expert capacity that was applied.
    pub capacity: usize,
    /// Switch-style auxiliary balance loss (already weighted).
    pub aux_loss: f32,
}

impl Routing {
    /// An empty plan over `e` experts, each admitting `capacity` tokens
    /// (`usize::MAX` when serving), with room for `hint` assignments.
    pub(super) fn open(e: usize, capacity: usize, hint: usize) -> Routing {
        Routing {
            assignments: Vec::with_capacity(hint),
            load: vec![0; e],
            raw_load: vec![0; e],
            dropped: 0,
            capacity,
            aux_loss: 0.0,
        }
    }

    /// Admission, the one place a router keeps or drops an assignment:
    /// `token → expert` is kept while the expert is under capacity and
    /// counted as a drop once it is full.
    pub(super) fn admit(&mut self, token: usize, expert: usize, weight: f32) {
        if self.load[expert] < self.capacity {
            self.load[expert] += 1;
            self.assignments.push(Assignment {
                token,
                expert,
                weight,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Max-over-mean load imbalance (1.0 = perfectly balanced). Empty loads
    /// return 1.0.
    pub fn imbalance(&self) -> f64 {
        let total: usize = self.load.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.load.len() as f64;
        let max = *self.load.iter().max().unwrap() as f64;
        max / mean
    }

    /// Fraction of pre-capacity assignments that were dropped.
    pub fn drop_rate(&self) -> f64 {
        let kept = self.assignments.len();
        let total = kept + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }
}

/// The router network.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Routing weights `[d_model, n_experts]`.
    pub(crate) wg: Param,
    pub(crate) kind: GateKind,
    /// Capacity factor `cf`: per-expert capacity is `ceil(cf·n·k/E)`.
    pub(crate) capacity_factor: f32,
    /// Weight of the auxiliary balance loss added to the training loss.
    pub(crate) aux_weight: f32,
    /// Logit jitter scale for [`GateKind::NoisyTop1`].
    noise_std: f32,
    /// Private noise stream (deterministic per construction seed).
    noise_rng: Rng,
    /// Log-space selection bonus granted to experts flagged local in
    /// [`Gate::set_locality`] (0 = disabled; selection then reads the raw
    /// probabilities, bit-identical to a gate without the feature).
    locality_bias: f32,
    /// Per-expert locality flags (empty until [`Gate::set_locality`]).
    locality: Vec<bool>,
    cache: Option<GateCache>,
}

#[derive(Debug, Clone)]
struct GateCache {
    x: Tensor,
    probs: Tensor,
    /// First-choice fraction per expert (fᵉ in the switch loss).
    frac: Vec<f32>,
}

impl Gate {
    pub fn new(
        name: &str,
        d_model: usize,
        n_experts: usize,
        kind: GateKind,
        capacity_factor: f32,
        aux_weight: f32,
        rng: &mut Rng,
    ) -> Gate {
        assert!(n_experts > 0);
        assert!(capacity_factor > 0.0);
        Gate {
            wg: Param::new(
                format!("{name}.wg"),
                Tensor::xavier(d_model, n_experts, rng),
            ),
            kind,
            capacity_factor,
            aux_weight,
            noise_std: 1.0,
            noise_rng: Rng::seed_from(rng.next_u64()),
            locality_bias: 0.0,
            locality: Vec::new(),
            cache: None,
        }
    }

    /// Give the router up to inference: `wg` packed once into the GEMM's
    /// panels, its gradient dropped first (as in `crate::Linear::freeze`),
    /// and the locality bonus built once. The noise stream and the backward
    /// cache go with the gate.
    pub fn freeze(self) -> ServedRouter {
        let bonus = self.locality_bonus();
        let Param { value, grad, .. } = self.wg;
        drop(grad);
        ServedRouter {
            wg: PackedB::new(&value),
            kind: self.kind,
            bonus,
        }
    }

    /// Per-expert selection bonus; `None` when the locality bias is off.
    fn locality_bonus(&self) -> Option<Vec<f32>> {
        (self.locality_bias != 0.0).then(|| {
            self.locality
                .iter()
                .map(|&l| if l { self.locality_bias } else { 0.0 })
                .collect()
        })
    }

    /// Bias expert *selection* toward the experts flagged in `mask` (e.g.
    /// those resident in the caller's supernode): their selection score
    /// gets a log-space bonus of `bias`, so a local expert wins whenever
    /// its router probability is within a factor `exp(bias)` of the best
    /// remote one. Combine weights remain the *clean* router probabilities
    /// (the [`GateKind::NoisyTop1`] convention), and the auxiliary balance
    /// loss keeps operating on the biased selection counts — turning up
    /// `aux_weight` therefore counteracts any imbalance the bias causes.
    /// `bias = 0` disables the feature exactly.
    pub fn set_locality(&mut self, bias: f32, mask: Vec<bool>) {
        assert!(bias >= 0.0, "locality bias must be >= 0, got {bias}");
        if bias != 0.0 {
            assert_eq!(
                mask.len(),
                self.n_experts(),
                "locality mask must cover every expert"
            );
        }
        self.locality_bias = bias;
        self.locality = mask;
    }

    pub fn n_experts(&self) -> usize {
        self.wg.value.cols()
    }

    /// Capacity for `n` tokens.
    pub(crate) fn capacity(&self, n: usize) -> usize {
        let e = self.n_experts();
        ((self.capacity_factor as f64 * n as f64 * self.kind.k() as f64 / e as f64).ceil() as usize)
            .max(1)
    }

    /// Route a batch `[n, d]`; returns the dispatch plan.
    pub fn forward(&mut self, x: &Tensor) -> Routing {
        let mut probs = matmul(x, &self.wg.value);
        softmax_rows_inplace(&mut probs, &mut []);
        let capacity = self.capacity(x.rows());
        let bonus = self.locality_bonus();
        // Selection noise is a constant of the backward pass (standard
        // noisy top-k practice).
        let noise =
            (self.kind == GateKind::NoisyTop1).then_some((self.noise_std, &mut self.noise_rng));
        let mut routing = decide(self.kind, &probs, capacity, noise, bonus.as_deref());
        let (aux_loss, frac) = switch_aux(&probs, &routing.raw_load, self.aux_weight);
        routing.aux_loss = aux_loss;
        self.cache = Some(GateCache {
            x: x.clone(),
            probs,
            frac,
        });
        routing
    }

    /// Backward. `dweights[i]` is `∂L/∂assignments[i].weight` — supplied by
    /// the MoE layer as `⟨dy_token, expert_out⟩`. Adds the auxiliary-loss
    /// gradient, pushes everything through the softmax and the routing
    /// projection, accumulates `dWg`, and returns the gate's contribution
    /// to `dx`.
    pub fn backward(&mut self, routing: &Routing, dweights: &[f32]) -> Tensor {
        let cache = self.cache.take().expect("Gate::backward before forward");
        assert_eq!(dweights.len(), routing.assignments.len());
        let mut dprobs = Tensor::zeros(cache.probs.shape());
        for (a, &g) in routing.assignments.iter().zip(dweights) {
            dprobs.row_mut(a.token)[a.expert] += g;
        }
        let dlogits = softmax_aux_backward(dprobs, &cache.probs, &cache.frac, self.aux_weight);
        self.wg.grad.add_assign(&matmul_tn(&cache.x, &dlogits));
        matmul_nt(&dlogits, &self.wg.value)
    }
}

impl HasParams for Gate {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wg);
    }
}

/// A [`Gate`] given up to inference ([`Gate::freeze`]): the routing weights
/// as the GEMM's packed panels, the policy, and the locality bonus.
#[derive(Debug, Clone)]
pub struct ServedRouter {
    wg: PackedB,
    kind: GateKind,
    bonus: Option<Vec<f32>>,
}

impl ServedRouter {
    /// Route a batch `[n, d]` droplessly and deterministically.
    ///
    /// Differences from the training-path [`Gate::forward`]:
    /// - **No capacity, no drops.** Capacity limiting makes a token's fate
    ///   depend on the rest of the batch (and on arrival order within it),
    ///   which would break the serving invariant that continuous-batched
    ///   decode is bit-identical to sequential decode. Dropless routing is
    ///   per-row pure, so batching cannot change any token's experts.
    ///   Without capacity, [`GateKind::Balanced`]'s greedy pick is the
    ///   top-1 pick.
    /// - **No noise.** [`GateKind::NoisyTop1`] jitter is a training-time
    ///   exploration device; at decode time the gate uses its deterministic
    ///   mean (plain top-1 on the clean probabilities).
    ///
    /// Locality bias still applies (selection on biased scores, clean
    /// combine weights), because the serving path wants the same
    /// intra-supernode traffic shaping as training. `Routing::capacity` is
    /// reported as `usize::MAX` (none applied) and `aux_loss` as 0.
    pub fn route(&self, x: &Tensor) -> Routing {
        let mut probs = matmul_packed(x, &self.wg, None, Activation::Identity);
        softmax_rows_inplace(&mut probs, &mut []);
        let kind = match self.kind {
            GateKind::Top2 => GateKind::Top2,
            _ => GateKind::Top1,
        };
        decide(kind, &probs, usize::MAX, None, self.bonus.as_deref())
    }
}

/// The routing decision of every flat router ([`Gate::forward`],
/// [`ServedRouter::route`]) over softmax `probs` `[n, E]`.
///
/// A token's first choice is picked on its selection scores by [`argmax`],
/// or [`top2`] for [`GateKind::Top2`]; ties go to the first index. The
/// scores are the raw probability row when there is neither `noise` nor
/// `bonus`, and otherwise `ln p`, plus `σ·z` with one `normal()` draw per
/// expert in expert order, plus the expert's bonus. Working in log space
/// makes the bonus a *multiplicative* tolerance (bonus `B` ⇒ a flagged
/// expert wins while within `exp(B)×` of the best) and matches logit-space
/// jitter. The first choice is counted in `raw_load` (the balance
/// statistics), and every choice is [admitted](Routing::admit) against
/// `capacity` at its clean probability — except that
/// [`GateKind::Balanced`] sends the token to its best-scoring expert with
/// room, and drops it only when every expert is full.
fn decide(
    kind: GateKind,
    probs: &Tensor,
    capacity: usize,
    mut noise: Option<(f32, &mut Rng)>,
    bonus: Option<&[f32]>,
) -> Routing {
    let (n, e) = (probs.rows(), probs.cols());
    let mut routing = Routing::open(e, capacity, n * kind.k());
    let mut scored = Vec::with_capacity(e);
    for t in 0..n {
        let row = probs.row(t);
        let sel: &[f32] = if noise.is_none() && bonus.is_none() {
            row
        } else {
            scored.clear();
            for (ex, &p) in row.iter().enumerate() {
                let mut s = ln(p.max(1e-30));
                if let Some((std, rng)) = noise.as_mut() {
                    s += *std * rng.normal();
                }
                if let Some(b) = bonus {
                    s += b[ex];
                }
                scored.push(s);
            }
            &scored
        };
        let (first, second) = match kind {
            GateKind::Top2 => {
                let (e1, e2) = top2(sel);
                (e1, Some(e2))
            }
            _ => (argmax(sel).0, None),
        };
        routing.raw_load[first] += 1;
        if kind != GateKind::Balanced {
            routing.admit(t, first, row[first]);
            if let Some(ex) = second {
                routing.admit(t, ex, row[ex]);
            }
            continue;
        }
        let mut chosen = None;
        let mut best = f32::NEG_INFINITY;
        for (ex, &s) in sel.iter().enumerate() {
            if routing.load[ex] < capacity && s > best {
                best = s;
                chosen = Some(ex);
            }
        }
        match chosen {
            Some(ex) => routing.admit(t, ex, row[ex]),
            None => routing.dropped += 1, // only possible when cf·n·k < n
        }
    }
    routing
}

/// The switch-style auxiliary balance loss of one router stage over its
/// softmax `probs` `[n, E]`: `weight · E · Σₑ fₑ · P̄ₑ`, where `fₑ =
/// first[e] / n` is the first-choice fraction and `P̄ₑ` the mean
/// probability. Returns the loss and `f`, which the backward
/// ([`softmax_aux_backward`]) treats as a constant. The flat gate runs it
/// over its experts, the two-level gate over its groups.
pub(super) fn switch_aux(probs: &Tensor, first: &[usize], weight: f32) -> (f32, Vec<f32>) {
    let (n, e) = (probs.rows(), probs.cols());
    let frac: Vec<f32> = first
        .iter()
        .map(|&c| if n == 0 { 0.0 } else { c as f32 / n as f32 })
        .collect();
    let mut aux = 0.0f32;
    if n > 0 {
        for (ex, f) in frac.iter().enumerate() {
            let mean_p: f32 = (0..n).map(|t| probs.at(t, ex)).sum::<f32>() / n as f32;
            aux += f * mean_p;
        }
        aux *= e as f32 * weight;
    }
    (aux, frac)
}

/// Backward through one router stage's softmax and its [`switch_aux`]
/// loss: adds `∂aux/∂p[t,e] = weight · E · fₑ / n` to `dprobs` (`fₑ` is a
/// constant of the argmax, per the switch formulation), then maps each row
/// through `dl = p ⊙ (dp − ⟨dp, p⟩)`. Returns `∂L/∂logits`.
pub(super) fn softmax_aux_backward(
    mut dprobs: Tensor,
    probs: &Tensor,
    frac: &[f32],
    weight: f32,
) -> Tensor {
    let (n, e) = (probs.rows(), probs.cols());
    let scale = weight * e as f32 / n.max(1) as f32;
    for t in 0..n {
        let prow = probs.row(t);
        let drow = dprobs.row_mut(t);
        if weight != 0.0 {
            for (d, &f) in drow.iter_mut().zip(frac) {
                *d += scale * f;
            }
        }
        let dot: f32 = drow.iter().zip(prow).map(|(a, b)| a * b).sum();
        for (dj, &pj) in drow.iter_mut().zip(prow) {
            *dj = pj * (*dj - dot);
        }
    }
    dprobs
}

/// Index and value of the row maximum (first of ties).
pub(super) fn argmax(row: &[f32]) -> (usize, &f32) {
    let mut bi = 0;
    for i in 1..row.len() {
        if row[i] > row[bi] {
            bi = i;
        }
    }
    (bi, &row[bi])
}

/// Indices of the two largest entries (first of ties), `len ≥ 2`.
fn top2(row: &[f32]) -> (usize, usize) {
    assert!(row.len() >= 2, "top2 needs at least two experts");
    let (mut a, mut b) = if row[0] >= row[1] { (0, 1) } else { (1, 0) };
    for (i, &v) in row.iter().enumerate().skip(2) {
        if v > row[a] {
            b = a;
            a = i;
        } else if v > row[b] {
            b = i;
        }
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ServedRouter {
        fn n_experts(&self) -> usize {
            self.wg.cols()
        }
    }

    fn gate(kind: GateKind, e: usize, cf: f32) -> Gate {
        let mut rng = Rng::seed_from(61);
        Gate::new("g", 8, e, kind, cf, 0.01, &mut rng)
    }

    #[test]
    fn top1_assigns_every_token_under_loose_capacity() {
        let mut rng = Rng::seed_from(62);
        let mut g = gate(GateKind::Top1, 4, 8.0);
        let x = Tensor::randn(&[16, 8], 1.0, &mut rng);
        let r = g.forward(&x);
        assert_eq!(r.assignments.len(), 16);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.load.iter().sum::<usize>(), 16);
        // Every weight is a probability.
        for a in &r.assignments {
            assert!(a.weight > 0.0 && a.weight <= 1.0);
        }
    }

    #[test]
    fn top2_assigns_two_experts_per_token() {
        let mut rng = Rng::seed_from(63);
        let mut g = gate(GateKind::Top2, 6, 8.0);
        let x = Tensor::randn(&[10, 8], 1.0, &mut rng);
        let r = g.forward(&x);
        assert_eq!(r.assignments.len(), 20);
        // The two experts of a token differ.
        for t in 0..10 {
            let pair: Vec<_> = r.assignments.iter().filter(|a| a.token == t).collect();
            assert_eq!(pair.len(), 2);
            assert_ne!(pair[0].expert, pair[1].expert);
            // Chosen in descending probability order.
            assert!(pair[0].weight >= pair[1].weight);
        }
    }

    #[test]
    fn capacity_limits_and_drops() {
        let mut g = gate(GateKind::Top1, 4, 1.0);
        // Force every token towards expert 0 by biasing the router weights.
        g.wg.value = Tensor::zeros(&[8, 4]);
        for i in 0..8 {
            g.wg.value.set(i, 0, 5.0);
        }
        let x = Tensor::ones(&[12, 8]);
        let r = g.forward(&x);
        // capacity = ceil(1.0 · 12 / 4) = 3 → 3 kept, 9 dropped.
        assert_eq!(r.capacity, 3);
        assert_eq!(r.load[0], 3);
        assert_eq!(r.dropped, 9);
        assert!(r.drop_rate() > 0.7);
    }

    #[test]
    fn balanced_gate_never_drops_with_cf_1() {
        let mut rng = Rng::seed_from(65);
        let mut g = gate(GateKind::Balanced, 4, 1.0);
        // Same skewed router as above.
        g.wg.value = Tensor::zeros(&[8, 4]);
        for i in 0..8 {
            g.wg.value.set(i, 0, 5.0);
        }
        let x = Tensor::randn(&[12, 8], 0.1, &mut rng).map(|v| v + 1.0);
        let r = g.forward(&x);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.assignments.len(), 12);
        // Load is perfectly balanced at capacity.
        assert!(r.load.iter().all(|&l| l <= r.capacity));
        assert!((r.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn aux_loss_is_higher_when_skewed() {
        let mut rng = Rng::seed_from(66);
        let x = Tensor::randn(&[32, 8], 1.0, &mut rng);
        // Balanced router.
        let mut g1 = gate(GateKind::Top1, 4, 8.0);
        let r1 = g1.forward(&x);
        // Skewed router.
        let mut g2 = gate(GateKind::Top1, 4, 8.0);
        g2.wg.value = Tensor::zeros(&[8, 4]);
        for i in 0..8 {
            g2.wg.value.set(i, 0, 5.0);
        }
        let r2 = g2.forward(&x);
        assert!(
            r2.aux_loss > r1.aux_loss,
            "{} vs {}",
            r2.aux_loss,
            r1.aux_loss
        );
    }

    #[test]
    fn gate_gradient_matches_finite_differences() {
        let mut rng = Rng::seed_from(67);
        let mut g = Gate::new("g", 6, 3, GateKind::Top1, 8.0, 0.0, &mut rng);
        let x = Tensor::randn(&[5, 6], 1.0, &mut rng);

        // Toy loss: L = Σ weightᵢ² / 2 over assignments → dweightᵢ = weightᵢ.
        let r = g.forward(&x);
        let dweights: Vec<f32> = r.assignments.iter().map(|a| a.weight).collect();
        let dx = g.backward(&r, &dweights);

        let loss = |g: &mut Gate, x: &Tensor| -> f32 {
            let r = g.forward(&x.clone());
            0.5 * r
                .assignments
                .iter()
                .map(|a| a.weight * a.weight)
                .sum::<f32>()
        };
        let eps = 1e-3f32;
        // Wg entry. (Perturbations small enough not to flip the argmax.)
        let orig = g.wg.value.at(2, 1);
        g.wg.value.set(2, 1, orig + eps);
        let lp = loss(&mut g, &x);
        g.wg.value.set(2, 1, orig - eps);
        let lm = loss(&mut g, &x);
        g.wg.value.set(2, 1, orig);
        let fd = (lp - lm) / (2.0 * eps);
        let an = g.wg.grad.at(2, 1);
        assert!(
            (fd - an).abs() < 3e-2 * (1.0 + fd.abs()),
            "wg: fd={fd} an={an}"
        );

        // Input entry.
        let mut x2 = x.clone();
        let o = x2.at(1, 3);
        x2.set(1, 3, o + eps);
        let lp = loss(&mut g, &x2);
        x2.set(1, 3, o - eps);
        let lm = loss(&mut g, &x2);
        let fd = (lp - lm) / (2.0 * eps);
        assert!(
            (fd - dx.at(1, 3)).abs() < 3e-2 * (1.0 + fd.abs()),
            "x: fd={fd} an={}",
            dx.at(1, 3)
        );
    }

    #[test]
    fn top2_helper() {
        assert_eq!(top2(&[0.1, 0.5, 0.4]), (1, 2));
        assert_eq!(top2(&[0.9, 0.05, 0.05]), (0, 1));
        assert_eq!(top2(&[0.25, 0.25, 0.5, 0.0]), (2, 0));
    }

    #[test]
    fn noisy_top1_spreads_near_ties() {
        // All tokens identical ⇒ plain top-1 sends everything to one expert;
        // noisy top-1 must spread them.
        let x = Tensor::ones(&[256, 8]);
        let mut plain = gate(GateKind::Top1, 4, 8.0);
        plain.wg.value = Tensor::zeros(&[8, 4]); // uniform logits: pure tie
        let rp = plain.forward(&x);
        assert_eq!(rp.raw_load.iter().filter(|&&c| c > 0).count(), 1);

        let mut noisy = gate(GateKind::NoisyTop1, 4, 8.0);
        noisy.wg.value = Tensor::zeros(&[8, 4]);
        let rn = noisy.forward(&x);
        let used = rn.raw_load.iter().filter(|&&c| c > 0).count();
        assert_eq!(used, 4, "noise must break the tie across all experts");
        assert!(rn.imbalance() < 1.5, "imbalance {}", rn.imbalance());
        // Weights are still the clean probabilities (uniform = 0.25 here).
        for a in &rn.assignments {
            assert!((a.weight - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn noisy_top1_is_deterministic_per_seed() {
        let x = Tensor::ones(&[32, 8]);
        let route = |seed: u64| {
            let mut rng = Rng::seed_from(seed);
            let mut g = Gate::new("g", 8, 4, GateKind::NoisyTop1, 8.0, 0.0, &mut rng);
            g.forward(&x)
                .assignments
                .iter()
                .map(|a| a.expert)
                .collect::<Vec<_>>()
        };
        assert_eq!(route(5), route(5));
        assert_ne!(route(5), route(6));
    }

    #[test]
    fn capacity_formula() {
        let g = gate(GateKind::Top1, 8, 1.25);
        assert_eq!(g.capacity(64), 10); // ceil(1.25·64/8)
        let g2 = gate(GateKind::Top2, 8, 1.0);
        assert_eq!(g2.capacity(64), 16); // ceil(1.0·64·2/8)
        assert!(g.capacity(0) >= 1);
    }

    #[test]
    fn locality_bias_tiebreaks_toward_local_experts() {
        // Near-uniform router: a modest bias must pull selection toward the
        // flagged experts, and the combine weights must stay the clean
        // probabilities.
        let mut rng = Rng::seed_from(68);
        let x = Tensor::randn(&[64, 8], 0.05, &mut rng);
        let local_frac = |r: &Routing| {
            let local = r.assignments.iter().filter(|a| a.expert < 2).count() as f64;
            local / r.assignments.len() as f64
        };
        let mut plain = gate(GateKind::Top1, 4, 8.0);
        let rp = plain.forward(&x);
        let mut biased = gate(GateKind::Top1, 4, 8.0);
        biased.set_locality(2.0, vec![true, true, false, false]);
        let rb = biased.forward(&x);
        assert!(
            local_frac(&rb) > local_frac(&rp),
            "bias did not raise local fraction: {} vs {}",
            local_frac(&rb),
            local_frac(&rp)
        );
        for a in &rb.assignments {
            let p = {
                let mut probs = matmul(&x, &biased.wg.value);
                softmax_rows_inplace(&mut probs, &mut []);
                probs.at(a.token, a.expert)
            };
            assert_eq!(a.weight, p, "combine weight must be the clean prob");
        }
    }

    #[test]
    fn zero_locality_bias_is_bit_identical() {
        let mut rng = Rng::seed_from(69);
        let x = Tensor::randn(&[32, 8], 1.0, &mut rng);
        for kind in [
            GateKind::Top1,
            GateKind::Top2,
            GateKind::Balanced,
            GateKind::NoisyTop1,
        ] {
            let mut plain = gate(kind, 4, 2.0);
            let mut zeroed = gate(kind, 4, 2.0);
            zeroed.set_locality(0.0, Vec::new());
            let rp = plain.forward(&x);
            let rz = zeroed.forward(&x);
            assert_eq!(rp.assignments, rz.assignments, "{kind:?}");
            assert_eq!(rp.aux_loss.to_bits(), rz.aux_loss.to_bits(), "{kind:?}");
        }
    }

    #[test]
    fn locality_bias_backward_still_matches_finite_differences() {
        // The bias only perturbs selection (a constant of the backward
        // pass); gradients through the clean-probability weights must stay
        // correct.
        let mut rng = Rng::seed_from(70);
        let mut g = Gate::new("g", 6, 4, GateKind::Top1, 8.0, 0.0, &mut rng);
        g.set_locality(1.0, vec![true, false, true, false]);
        let x = Tensor::randn(&[5, 6], 1.0, &mut rng);
        let r = g.forward(&x);
        let dweights: Vec<f32> = r.assignments.iter().map(|a| a.weight).collect();
        g.backward(&r, &dweights);

        let loss = |g: &mut Gate, x: &Tensor| -> f32 {
            let r = g.forward(&x.clone());
            0.5 * r
                .assignments
                .iter()
                .map(|a| a.weight * a.weight)
                .sum::<f32>()
        };
        let eps = 1e-3f32;
        let orig = g.wg.value.at(1, 2);
        g.wg.value.set(1, 2, orig + eps);
        let lp = loss(&mut g, &x);
        g.wg.value.set(1, 2, orig - eps);
        let lm = loss(&mut g, &x);
        g.wg.value.set(1, 2, orig);
        let fd = (lp - lm) / (2.0 * eps);
        let an = g.wg.grad.at(1, 2);
        assert!(
            (fd - an).abs() < 3e-2 * (1.0 + fd.abs()),
            "wg: fd={fd} an={an}"
        );
    }

    /// The served router is dropless and per-row pure, and where the
    /// training gate keeps every assignment (loose capacity, no noise) it
    /// routes to the same experts with the same weight bits.
    #[test]
    fn route_infer_is_per_row_pure_and_dropless() {
        let mut rng = Rng::seed_from(71);
        let x = Tensor::randn(&[12, 8], 1.0, &mut rng);
        let plan = |r: &Routing| -> Vec<(usize, usize, u32)> {
            let a = r.assignments.iter();
            a.map(|a| (a.token, a.expert, a.weight.to_bits())).collect()
        };
        for kind in [
            GateKind::Top1,
            GateKind::Top2,
            GateKind::Balanced,
            GateKind::NoisyTop1,
        ] {
            // Tight capacity: the training path would drop; inference not.
            let g = gate(kind, 4, 0.25).freeze();
            assert_eq!(g.n_experts(), 4);
            let full = g.route(&x);
            assert_eq!(full.dropped, 0, "{kind:?}");
            assert_eq!(full.assignments.len(), 12 * kind.k(), "{kind:?}");
            assert_eq!(full.aux_loss, 0.0);
            if kind != GateKind::NoisyTop1 {
                let mut loose = gate(kind, 4, 8.0);
                assert_eq!(plan(&loose.forward(&x)), plan(&full), "{kind:?}");
            }
            // Row-wise purity: routing each token alone gives the same
            // expert and the bit-identical weight.
            for t in 0..12 {
                let solo = g.route(&x.slice_rows(t, t + 1));
                let batch: Vec<_> = full.assignments.iter().filter(|a| a.token == t).collect();
                assert_eq!(solo.assignments.len(), batch.len());
                for (s, b) in solo.assignments.iter().zip(&batch) {
                    assert_eq!(s.expert, b.expert, "{kind:?} token {t}");
                    assert_eq!(s.weight.to_bits(), b.weight.to_bits(), "{kind:?} token {t}");
                }
            }
        }
    }

    #[test]
    fn route_infer_honors_locality_bias() {
        let mut rng = Rng::seed_from(72);
        let x = Tensor::randn(&[64, 8], 0.05, &mut rng);
        let local_frac = |r: &Routing| {
            let local = r.assignments.iter().filter(|a| a.expert < 2).count() as f64;
            local / r.assignments.len() as f64
        };
        let plain = gate(GateKind::Top1, 4, 8.0).freeze();
        let mut biased = gate(GateKind::Top1, 4, 8.0);
        biased.set_locality(2.0, vec![true, true, false, false]);
        let biased = biased.freeze();
        assert!(local_frac(&biased.route(&x)) > local_frac(&plain.route(&x)));
    }

    /// FNV-1a over 32-bit words: a routing plan or a gradient reduced to
    /// one number, so a pin names every bit without listing it.
    struct Bits(u64);

    impl Bits {
        fn word(&mut self, w: u32) {
            self.0 = (self.0 ^ w as u64).wrapping_mul(0x0100_0000_01b3);
        }

        fn routing(&mut self, r: &Routing) {
            for a in &r.assignments {
                self.word(a.token as u32);
                self.word(a.expert as u32);
                self.word(a.weight.to_bits());
            }
            for &c in r.load.iter().chain(&r.raw_load) {
                self.word(c as u32);
            }
            self.word(r.dropped as u32);
            self.word(r.capacity as u32);
            self.word(r.aux_loss.to_bits());
        }

        fn tensor(&mut self, t: &Tensor) {
            t.as_slice().iter().for_each(|v| self.word(v.to_bits()));
        }
    }

    /// The bits every router produces on one seeded batch, at a capacity
    /// tight enough that each training policy drops: two training forwards
    /// (the noise stream moves on between them) and the backward of the
    /// second for every [`GateKind`] with the locality bias off and on, the
    /// served router for the same eight gates, and the two-level gate's
    /// forward and backward. Recorded when the routers came to share one
    /// core; re-recorded once, when every softmax moved onto the shared row
    /// kernel (in-crate `exp`, lane sums) and the selection scores' `ln`
    /// onto the in-crate `ln`.
    #[test]
    fn routing_bits_are_pinned() {
        use crate::moe::router::TwoLevelGate;
        const PINS: [(&str, u64); 17] = [
            ("top1", 14527782827155877461),
            ("top1 biased", 14819070559953057521),
            ("top2", 16824213150631983301),
            ("top2 biased", 1670693597231213407),
            ("balanced", 1696440858719218375),
            ("balanced biased", 3543962498973491702),
            ("noisy", 4818777301089518485),
            ("noisy biased", 5623196140457203322),
            ("served top1", 6981823067813870833),
            ("served top1 biased", 16264782711663681703),
            ("served top2", 10239351741484257258),
            ("served top2 biased", 15066974203091460888),
            ("served balanced", 6981823067813870833),
            ("served balanced biased", 16264782711663681703),
            ("served noisy", 6981823067813870833),
            ("served noisy biased", 16264782711663681703),
            ("two-level", 6357909486455974676),
        ];
        let mut rng = Rng::seed_from(82);
        let x = Tensor::randn(&[40, 8], 1.0, &mut rng);
        let x2 = Tensor::randn(&[40, 8], 1.0, &mut rng);
        let dweights = |r: &Routing| -> Vec<f32> {
            let a = r.assignments.iter().enumerate();
            a.map(|(i, a)| a.weight - 0.25 * (i % 3) as f32).collect()
        };
        let kinds = [
            GateKind::Top1,
            GateKind::Top2,
            GateKind::Balanced,
            GateKind::NoisyTop1,
        ];
        let build = |kind: GateKind, biased: bool| {
            let mut g = Gate::new("p", 8, 6, kind, 0.8, 0.05, &mut Rng::seed_from(80));
            if biased {
                g.set_locality(1.5, vec![true, true, false, false, true, false]);
            }
            g
        };
        let mut got = Vec::new();
        for kind in kinds {
            for biased in [false, true] {
                let mut g = build(kind, biased);
                let mut h = Bits(0xcbf2_9ce4_8422_2325);
                let r1 = g.forward(&x);
                assert!(r1.dropped > 0, "{kind:?}: nothing dropped");
                h.routing(&r1);
                let r2 = g.forward(&x2);
                h.routing(&r2);
                h.tensor(&g.backward(&r2, &dweights(&r2)));
                h.tensor(&g.wg.grad);
                got.push(h.0);
            }
        }
        for kind in kinds {
            for biased in [false, true] {
                let mut h = Bits(0xcbf2_9ce4_8422_2325);
                h.routing(&build(kind, biased).freeze().route(&x));
                got.push(h.0);
            }
        }
        let mut g = TwoLevelGate::new("t", 8, 12, 3, 0.8, 0.05, &mut Rng::seed_from(83));
        let mut h = Bits(0xcbf2_9ce4_8422_2325);
        let r = g.forward(&x);
        assert!(r.dropped > 0, "two-level: nothing dropped");
        h.routing(&r);
        h.tensor(&g.backward(&r, &dweights(&r)));
        g.visit_params(&mut |p| h.tensor(&p.grad));
        got.push(h.0);

        let want: Vec<u64> = PINS.iter().map(|p| p.1).collect();
        assert_eq!(
            got,
            want,
            "routing bits moved: {:#?}",
            PINS.iter()
                .zip(&got)
                .map(|(p, g)| (p.0, *g))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_batch_routes_nothing() {
        let mut g = gate(GateKind::Top1, 4, 1.0);
        let r = g.forward(&Tensor::zeros(&[0, 8]));
        assert!(r.assignments.is_empty());
        assert_eq!(r.aux_loss, 0.0);
        assert_eq!(r.imbalance(), 1.0);
    }
}
