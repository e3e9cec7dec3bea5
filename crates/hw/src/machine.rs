//! Whole-machine configuration: nodes, supernodes, and network constants.

use crate::processor::{Precision, ProcessorSpec};

/// Link-level constants of the two-level Sunway interconnect.
///
/// Inside a *supernode* (256 nodes) the network provides full bisection;
/// between supernodes the fat tree is tapered, so the per-node share of
/// cross-supernode bandwidth is lower and the latency higher. These four
/// numbers drive every collective cost model in `bagualu-net`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// Per-node injection bandwidth for intra-supernode traffic, bytes/s.
    pub intra_bw: f64,
    /// Per-node share of inter-supernode bandwidth, bytes/s (taper applied).
    pub inter_bw: f64,
    /// One-way latency between nodes in the same supernode, seconds.
    pub(crate) intra_lat: f64,
    /// One-way latency between nodes in different supernodes, seconds.
    pub(crate) inter_lat: f64,
    /// Fixed per-message software overhead (MPI stack), seconds.
    pub sw_overhead: f64,
}

impl NetworkParams {
    /// Documented-approximation defaults for the New Generation Sunway:
    /// 16 GB/s injection inside a supernode, 4:1 taper between supernodes,
    /// microsecond-scale latencies.
    pub fn sunway() -> NetworkParams {
        NetworkParams {
            intra_bw: 16.0e9,
            inter_bw: 4.0e9,
            intra_lat: 1.5e-6,
            inter_lat: 3.5e-6,
            sw_overhead: 1.0e-6,
        }
    }

    /// Latency between two nodes given whether they share a supernode.
    pub fn latency(&self, same_supernode: bool) -> f64 {
        self.sw_overhead
            + if same_supernode {
                self.intra_lat
            } else {
                self.inter_lat
            }
    }

    /// Point-to-point time for `bytes` between two nodes (α–β model).
    pub fn p2p_time(&self, bytes: usize, same_supernode: bool) -> f64 {
        let bw = if same_supernode {
            self.intra_bw
        } else {
            self.inter_bw
        };
        self.latency(same_supernode) + bytes as f64 / bw
    }
}

/// A full machine: `nodes` × [`ProcessorSpec`], grouped into supernodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    pub nodes: usize,
    /// Nodes per supernode (256 on the New Generation Sunway).
    pub supernode_size: usize,
    pub processor: ProcessorSpec,
    pub network: NetworkParams,
    /// Sustained fraction of peak a tuned GEMM achieves (kernel efficiency).
    pub gemm_efficiency: f64,
}

impl MachineConfig {
    /// The full New Generation Sunway: 96,000 nodes in supernodes of 256.
    pub fn new_generation_sunway() -> MachineConfig {
        MachineConfig {
            nodes: 96_000,
            supernode_size: 256,
            processor: ProcessorSpec::sw26010_pro(),
            network: NetworkParams::sunway(),
            gemm_efficiency: 0.60,
        }
    }

    /// A scaled-down machine with the same per-node specs and topology rules.
    pub fn sunway_subset(nodes: usize) -> MachineConfig {
        MachineConfig {
            nodes,
            ..MachineConfig::new_generation_sunway()
        }
    }

    /// Total hardware cores in the machine.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.processor.cores()
    }

    /// Number of supernodes (last one may be partial).
    pub fn supernodes(&self) -> usize {
        self.nodes.div_ceil(self.supernode_size)
    }

    /// Supernode index of a node.
    pub fn supernode_of(&self, node: usize) -> usize {
        node / self.supernode_size
    }

    /// Whether two nodes share a supernode.
    pub fn same_supernode(&self, a: usize, b: usize) -> bool {
        self.supernode_of(a) == self.supernode_of(b)
    }

    /// Machine-wide peak rate at a precision, FLOP/s.
    pub fn peak(&self, p: Precision) -> f64 {
        self.processor.peak(p) * self.nodes as f64
    }

    /// Machine-wide sustained GEMM rate at a precision, FLOP/s.
    pub fn sustained(&self, p: Precision) -> f64 {
        self.peak(p) * self.gemm_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_machine_has_over_37m_cores() {
        let m = MachineConfig::new_generation_sunway();
        assert_eq!(m.total_cores(), 37_440_000);
        assert!(m.total_cores() > 37_000_000);
    }

    #[test]
    fn supernode_mapping() {
        let m = MachineConfig::new_generation_sunway();
        assert_eq!(m.supernodes(), 375);
        assert_eq!(m.supernode_of(0), 0);
        assert_eq!(m.supernode_of(255), 0);
        assert_eq!(m.supernode_of(256), 1);
        assert!(m.same_supernode(0, 255));
        assert!(!m.same_supernode(255, 256));
    }

    #[test]
    fn half_precision_peak_near_exaflops() {
        let m = MachineConfig::new_generation_sunway();
        // 9.2 TF/CG × 6 × 96k = 5.3 EF peak; sustained headline ~1 EF is a
        // fraction of that once communication is charged (see perf model).
        assert!(m.peak(Precision::Half) > 1.0e18);
    }

    #[test]
    fn p2p_time_respects_taper() {
        let n = NetworkParams::sunway();
        let near = n.p2p_time(1 << 20, true);
        let far = n.p2p_time(1 << 20, false);
        assert!(
            far > near * 2.0,
            "inter-supernode must be slower: {near} vs {far}"
        );
        // Latency dominates tiny messages.
        assert!(n.p2p_time(8, true) < 4.0e-6);
    }

    #[test]
    fn subset_machines_scale_linearly() {
        let a = MachineConfig::sunway_subset(1000);
        let b = MachineConfig::sunway_subset(2000);
        assert!((b.peak(Precision::FP32) / a.peak(Precision::FP32) - 2.0).abs() < 1e-9);
        assert_eq!(a.nodes * a.processor.core_groups, 6000);
    }
}
