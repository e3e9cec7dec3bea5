//! Mixture-of-experts: gating, dispatch, and the MoE layer.
//!
//! The MoE layer is the heart of brain-scale training: parameter count
//! scales with the number of experts while per-token FLOPs stay constant,
//! because each token is routed to only one or two expert FFNs. The pieces:
//!
//! * [`Gate`] — the router: a linear projection to per-expert logits, a
//!   softmax, and a selection policy ([`GateKind`]) with **capacity
//!   limiting** (an expert accepts at most `ceil(cf·n·k/E)` tokens; the
//!   rest are dropped and ride the residual connection). The gate is fully
//!   differentiable through the combine weights and carries the switch-style
//!   auxiliary load-balancing loss. [`Gate::freeze`] gives it up to
//!   inference as a [`ServedRouter`], which routes droplessly.
//! * [`Routing`] — the dispatch plan a gate produces: token→expert
//!   assignments with combine weights, per-expert loads, drop counts, and
//!   balance statistics. This is also exactly what the expert-parallel
//!   runtime serializes into the all-to-all.
//! * [`MoELayer`] — single-rank reference MoE layer (all experts local),
//!   used for convergence experiments and as the semantic baseline the
//!   distributed implementation in `bagualu-parallel` must match.

pub mod gate;
pub(crate) mod layer;
pub(crate) mod router;

pub use gate::{Assignment, Gate, GateKind, Routing, ServedRouter};
pub use layer::MoELayer;
pub use router::TwoLevelGate;
