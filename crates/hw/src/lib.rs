//! Machine model of the New Generation Sunway supercomputer.
//!
//! The original BaGuaLu system ran on hardware we cannot access: ~96,000
//! nodes of SW26010-Pro processors (6 core groups per node, each one
//! management processing element plus 64 compute processing elements —
//! 390 cores per node, over 37 million cores machine-wide), connected by a
//! two-level network (full-bisection *supernodes* of 256 nodes under a
//! tapered fat tree).
//!
//! This crate substitutes a *parameterized analytical model* of that
//! machine: peak arithmetic rates per precision, memory capacity and
//! bandwidth, and the link-level constants the network simulator and the
//! collective cost models in `bagualu-net` consume. All constants are
//! documented approximations of publicly known figures; every experiment
//! that uses them reports *shape* (scaling curves, crossovers), not absolute
//! reproduction of testbed numbers.

pub mod cpesim;
pub(crate) mod machine;
pub(crate) mod memory;
pub(crate) mod power;
pub(crate) mod processor;
pub(crate) mod roofline;

pub use machine::{MachineConfig, NetworkParams};
pub use memory::MemoryBudget;
pub use power::PowerModel;
pub use processor::{Precision, ProcessorSpec};
pub use roofline::Roofline;
