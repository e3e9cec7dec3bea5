//! Experiment implementations for the BaGuaLu reproduction.
//!
//! Each `e*` module regenerates one table/figure of the (reconstructed)
//! evaluation; the `reproduce` binary dispatches to them. See DESIGN.md for
//! the experiment index and EXPERIMENTS.md for recorded outputs.

pub mod experiments;
pub(crate) mod table;
