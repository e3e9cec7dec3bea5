//! Network substrate: discrete-event simulation and collective cost models.
//!
//! Two complementary tools replace the Sunway interconnect we cannot run on:
//!
//! * [`simnet`] — a message-level **discrete-event simulator**. Every node
//!   has an injection and an ejection port, every supernode a tapered uplink
//!   and downlink; messages serialize on those resources, so incast,
//!   uplink congestion, and phase structure emerge rather than being
//!   hand-asserted. Used for microbenchmark-scale experiments (hundreds to
//!   thousands of endpoints).
//! * [`cost`] — **closed-form α–β models** of the collectives (ring/tree
//!   all-reduce, pairwise and hierarchical all-to-all, hierarchical
//!   all-reduce) on the two-level topology. Used to project the same
//!   algorithms to the full 96,000-node machine, where even event-level
//!   simulation is too slow.
//!
//! Both consume the topology constants from [`bagualu_hw::MachineConfig`].

pub mod cost;
pub(crate) mod event;
pub mod simnet;
