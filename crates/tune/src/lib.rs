//! `bagualu-tune` — cost-model-driven auto-tuning over the `RunConfig`
//! space (the ROADMAP's "close the loop" axis; see `docs/TUNING.md`).
//!
//! Humans stop picking the knobs. The tuner:
//!
//! 1. **enumerates** the knob space ([`space::SearchSpace`]) — wire dtype,
//!    all-to-all topology, expert placement + locality bias, overlap
//!    bucket size — as concrete `RunConfig` candidates, each one already
//!    validated (contradictory combinations never reach the objective);
//! 2. **scores** each candidate with the one step model,
//!    `bagualu::perfmodel::project` (the α–β collective and roofline
//!    model behind the scaling experiments), at a target machine scale,
//!    folding in the Young/Daly checkpoint waste
//!    (`bagualu::perfmodel::checkpoint_waste_fraction` — the same math E27
//!    plots) to get **one modeled step time** ([`objective::ModeledCost`]);
//! 3. annotates every candidate with its **distance from the
//!    data-movement roofline** (how far modeled time sits above the
//!    bandwidth-bound floor) and the **scale at which it goes comm-bound**
//!    (the node count where exposed communication overtakes compute);
//! 4. **validates the top-K** with short measured runs of the real
//!    trainer, and picks the winner on *measured* step time
//!    ([`tuner::tune`]);
//! 5. emits the winner as a reproducible TOML — `bagualu train --config`
//!    on that file is bit-identical to passing the same knobs by hand,
//!    because both paths construct the identical `RunConfig`.
//!
//! Experiment E29 (`bagualu-bench`) reports the modeled-vs-measured
//! ranking fidelity and gates the tuned-vs-default win in CI.

pub mod objective;
pub mod space;
pub(crate) mod tuner;

pub use objective::CostEnv;
pub use space::{Candidate, SearchSpace};
pub use tuner::{tune, TuneOptions};
