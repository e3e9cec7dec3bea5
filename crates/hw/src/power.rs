//! Machine power model and training-energy accounting.
//!
//! The New Generation Sunway draws tens of megawatts; at that scale
//! *energy per token* is as real a metric as tokens per second, and
//! communication-bound steps burn power while the vector units idle. The
//! model is deliberately simple: per-node power interpolates between an
//! idle floor and a full-compute ceiling with compute utilization, plus a
//! constant network/infrastructure share.

/// Per-node power parameters, watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Static node power (DRAM refresh, MPEs, leakage).
    pub(crate) node_idle_w: f64,
    /// Additional dynamic power at 100% CPE compute utilization.
    pub(crate) node_compute_w: f64,
    /// Per-node share of the interconnect + cooling overhead.
    pub(crate) infra_w: f64,
}

impl PowerModel {
    /// Documented-approximation Sunway constants: ~35 MW machine power at
    /// full load over 96,000 nodes ⇒ ≈365 W/node, split as 140 W idle +
    /// 170 W dynamic compute + 55 W interconnect/cooling share.
    pub fn sunway() -> PowerModel {
        PowerModel {
            node_idle_w: 140.0,
            node_compute_w: 170.0,
            infra_w: 55.0,
        }
    }

    /// Node power at a given compute utilization ∈ [0, 1].
    pub(crate) fn node_power(&self, compute_util: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&compute_util),
            "utilization out of range"
        );
        self.node_idle_w + self.node_compute_w * compute_util + self.infra_w
    }

    /// Whole-machine power at a given utilization, watts.
    pub fn machine_power(&self, nodes: usize, compute_util: f64) -> f64 {
        self.node_power(compute_util) * nodes as f64
    }

    /// Energy for one training step, joules.
    pub(crate) fn step_energy(&self, nodes: usize, step_time: f64, compute_util: f64) -> f64 {
        self.machine_power(nodes, compute_util) * step_time
    }

    /// Energy per token, joules, for a step processing `tokens`.
    pub fn energy_per_token(
        &self,
        nodes: usize,
        step_time: f64,
        compute_util: f64,
        tokens: f64,
    ) -> f64 {
        assert!(tokens > 0.0);
        self.step_energy(nodes, step_time, compute_util) / tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_machine_is_tens_of_megawatts() {
        let p = PowerModel::sunway();
        let mw = p.machine_power(96_000, 1.0) / 1e6;
        assert!((30.0..40.0).contains(&mw), "machine power {mw} MW");
    }

    #[test]
    fn idle_power_is_substantial() {
        // Communication-bound steps still burn most of the power budget —
        // the economic argument for fixing the collectives.
        let p = PowerModel::sunway();
        let idle = p.machine_power(96_000, 0.0);
        let busy = p.machine_power(96_000, 1.0);
        assert!(idle / busy > 0.5, "idle share {}", idle / busy);
    }

    #[test]
    fn energy_scales_with_time_and_nodes() {
        let p = PowerModel::sunway();
        assert!(p.step_energy(2000, 1.0, 0.5) > p.step_energy(1000, 1.0, 0.5));
        assert!((p.step_energy(1000, 2.0, 0.5) / p.step_energy(1000, 1.0, 0.5) - 2.0).abs() < 1e-9);
        let e = p.energy_per_token(1000, 1.0, 0.5, 1e6);
        assert!(e > 0.0);
    }

    #[test]
    #[should_panic(expected = "utilization out of range")]
    fn rejects_bad_utilization() {
        PowerModel::sunway().node_power(1.5);
    }
}
