//! Closed-form α–β cost models for collectives on the two-level topology.
//!
//! These models let the experiments project collective algorithms to the
//! full 96,000-node machine. They charge each algorithm its textbook step
//! structure with the topology-correct constants: intra-supernode steps use
//! `(α_intra, intra_bw)`, cross-supernode steps `(α_inter, inter_bw)`.
//!
//! The key asymmetry BaGuaLu exploits: a **pairwise all-to-all** over `P`
//! nodes pays `Θ(P)` cross-supernode latencies per node, while the
//! **hierarchical all-to-all** pays only `Θ(S + s)` (supernode count plus
//! supernode size) at the price of moving each byte up to three times.
//!
//! Every model here is affine in `bytes`: `t = Σ steps·α + bytes·β_eff`.
//! Wire compression (`WireDType::{F16, BF16}`) halves `bytes` and therefore
//! exactly halves the β term while leaving the α term untouched — the
//! complement of the hierarchical algorithms, which attack α. Experiments
//! feed these models *wire* bytes (`payload.wire_bytes()`), so projections
//! pick up compression with no model changes.

use bagualu_hw::MachineConfig;

/// Cost evaluator bound to a machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct CollectiveCost {
    pub(crate) machine: MachineConfig,
}

impl CollectiveCost {
    pub fn new(machine: MachineConfig) -> CollectiveCost {
        CollectiveCost { machine }
    }

    /// Supernode size `s` clamped to the node count.
    fn s(&self) -> f64 {
        self.machine.supernode_size.min(self.machine.nodes) as f64
    }

    fn alpha_intra(&self) -> f64 {
        self.machine.network.latency(true)
    }

    fn alpha_inter(&self) -> f64 {
        self.machine.network.latency(false)
    }

    // ------------------------------------------------------------ broadcast

    // ------------------------------------------------------------ allreduce

    /// Flat ring all-reduce of `bytes` over `n` ranks
    /// (reduce-scatter + all-gather, `2(n-1)` steps of `bytes/n`).
    pub fn allreduce_ring(&self, n: usize, bytes: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let chunk = bytes as f64 / n as f64;
        // A rank-ordered ring crosses supernode boundaries on ~S of its n
        // links; each *step* is gated by its slowest concurrent link, which
        // is a cross link whenever the ring spans supernodes.
        let (alpha, bw) = if n as f64 > self.s() {
            (self.alpha_inter(), self.machine.network.inter_bw)
        } else {
            (self.alpha_intra(), self.machine.network.intra_bw)
        };
        2.0 * (n as f64 - 1.0) * (alpha + chunk / bw)
    }

    /// Recursive-doubling all-reduce: `⌈log₂ n⌉` rounds of full-buffer
    /// exchange. Latency-optimal; bandwidth-suboptimal by a factor
    /// `log₂(n)·n/(2(n−1))`. The algorithm of choice for the small scalar
    /// reductions on a training step's control path.
    pub fn allreduce_recursive_doubling(&self, n: usize, bytes: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let rounds = (n as f64).log2().ceil();
        // Doubling partners are distance 2^k apart — beyond the first few
        // rounds they live in other supernodes.
        let (alpha, bw) = if n as f64 > self.s() {
            (self.alpha_inter(), self.machine.network.inter_bw)
        } else {
            (self.alpha_intra(), self.machine.network.intra_bw)
        };
        let extra = if n.is_power_of_two() { 0.0 } else { 2.0 }; // fold/unfold
        (rounds + extra) * (alpha + bytes as f64 / bw)
    }

    /// Hierarchical all-reduce: reduce-scatter inside the supernode, ring
    /// all-reduce of the local shard across supernodes, all-gather inside.
    pub fn allreduce_hierarchical(&self, n: usize, bytes: usize) -> f64 {
        let s = self.s().min(n as f64);
        let local_steps = s - 1.0;
        let chunk_local = bytes as f64 / s;
        let t_local =
            2.0 * local_steps * (self.alpha_intra() + chunk_local / self.machine.network.intra_bw);

        let sn = (n as f64 / s).ceil();
        if sn <= 1.0 {
            return t_local;
        }
        // Each of the s local ranks owns a shard of bytes/s and runs a ring
        // over S supernode peers concurrently.
        let shard = bytes as f64 / s;
        let t_cross =
            2.0 * (sn - 1.0) * (self.alpha_inter() + shard / sn / self.machine.network.inter_bw);
        t_local + t_cross
    }

    // ------------------------------------------------------------ all-to-all

    /// Pairwise-exchange all-to-all: every one of `n` ranks sends
    /// `bytes_per_pair` to every other rank, one partner per round.
    pub fn alltoall_pairwise(&self, n: usize, bytes_per_pair: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let b = bytes_per_pair as f64;
        let s = self.s();
        // Of the n-1 partners, (s-1) share the supernode, the rest do not.
        let local_partners = (s - 1.0).min(n as f64 - 1.0);
        let remote_partners = (n as f64 - 1.0) - local_partners;
        local_partners * (self.alpha_intra() + b / self.machine.network.intra_bw)
            + remote_partners * (self.alpha_inter() + b / self.machine.network.inter_bw)
    }

    /// Hierarchical (two-phase, aggregating) all-to-all, matching the
    /// algorithm implemented in `bagualu_comm::alltoallv_hierarchical_wire`:
    ///
    /// 1. intra-supernode exchange bundling messages by destination local
    ///    index — `s-1` rounds of `S·b`,
    /// 2. inter-supernode exchange of aggregated bundles between same-index
    ///    ranks — `S-1` rounds of `s·b`.
    ///
    /// Every message reaches its destination in exactly two hops; per-rank
    /// cross-supernode latency drops from `Θ(n)·α_inter` to `Θ(S)·α_inter`,
    /// at the price of moving each byte twice.
    pub fn alltoall_hierarchical(&self, n: usize, bytes_per_pair: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let b = bytes_per_pair as f64;
        let s = self.s().min(n as f64);
        let sn = (n as f64 / s).ceil();
        if sn <= 1.0 {
            // Degenerates to the flat algorithm inside one supernode.
            return self.alltoall_pairwise(n, bytes_per_pair);
        }
        let t_intra_phase =
            (s - 1.0) * (self.alpha_intra() + sn * b / self.machine.network.intra_bw);
        let t_inter_phase =
            (sn - 1.0) * (self.alpha_inter() + s * b / self.machine.network.inter_bw);
        t_intra_phase + t_inter_phase
    }

    /// Two-level all-to-all with **expert-placement locality**: a fraction
    /// `local_frac` of each rank's total payload `bytes_per_rank` is
    /// destined to experts inside its own supernode (delivered directly),
    /// and the rest crosses supernodes through the aggregated phase.
    ///
    /// Round-robin placement gives `local_frac ≈ s/n`; topology-aware
    /// placement/gating raises it, shrinking the expensive inter-supernode
    /// phase. Backs the placement ablation (experiment E25).
    pub fn alltoall_with_locality(&self, n: usize, bytes_per_rank: usize, local_frac: f64) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        assert!((0.0..=1.0).contains(&local_frac));
        let s = self.s().min(n as f64);
        let sn = (n as f64 / s).ceil();
        let v = bytes_per_rank as f64;
        // Intra-supernode: direct delivery of the local fraction.
        let local_peers = (s - 1.0).max(1.0);
        let t_local = (s - 1.0)
            * (self.alpha_intra() + local_frac * v / local_peers / self.machine.network.intra_bw);
        if sn <= 1.0 {
            return t_local;
        }
        // Inter-supernode: the remaining volume in aggregated bundles.
        let t_cross = (sn - 1.0)
            * (self.alpha_inter()
                + (1.0 - local_frac) * v / (sn - 1.0) / self.machine.network.inter_bw);
        t_local + t_cross
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc(nodes: usize) -> CollectiveCost {
        CollectiveCost::new(MachineConfig::sunway_subset(nodes))
    }

    #[test]
    fn trivial_sizes_cost_nothing() {
        let c = cc(1024);
        assert_eq!(c.allreduce_ring(1, 1 << 20), 0.0);
        assert_eq!(c.alltoall_pairwise(0, 1024), 0.0);
        assert_eq!(c.alltoall_hierarchical(1, 1024), 0.0);
    }

    #[test]
    fn hierarchical_a2a_wins_at_scale_for_small_messages() {
        let c = cc(96_000);
        let b = 256; // small per-pair payload — the latency-dominated regime
                     // MoE dispatch actually sits in at 96k ranks
        let flat = c.alltoall_pairwise(96_000, b);
        let hier = c.alltoall_hierarchical(96_000, b);
        assert!(
            hier < flat / 10.0,
            "hierarchical must dominate at scale: flat={flat:.3}s hier={hier:.3}s"
        );
    }

    #[test]
    fn pairwise_a2a_wins_inside_one_supernode() {
        let c = cc(64);
        let flat = c.alltoall_pairwise(64, 1 << 20);
        let hier = c.alltoall_hierarchical(64, 1 << 20);
        // Single supernode: hierarchical degenerates to pairwise.
        assert_eq!(flat, hier);
    }

    #[test]
    fn a2a_crossover_exists_in_message_size() {
        // At full machine scale, very large per-pair payloads erode the
        // hierarchical advantage (3× volume), while small payloads favour it
        // enormously. Verify the ratio moves in the right direction.
        let c = cc(96_000);
        let r_small = c.alltoall_hierarchical(96_000, 256) / c.alltoall_pairwise(96_000, 256);
        let r_large =
            c.alltoall_hierarchical(96_000, 1 << 20) / c.alltoall_pairwise(96_000, 1 << 20);
        assert!(
            r_small < r_large,
            "advantage should shrink as messages grow"
        );
        assert!(r_small < 0.05);
    }

    #[test]
    fn hierarchical_allreduce_beats_flat_ring_at_scale() {
        let c = cc(96_000);
        let bytes = 256 << 20; // 256 MiB of gradients
        let flat = c.allreduce_ring(96_000, bytes);
        let hier = c.allreduce_hierarchical(96_000, bytes);
        assert!(hier < flat, "flat={flat:.3}s hier={hier:.3}s");
    }

    #[test]
    fn costs_scale_monotonically_with_bytes_and_ranks() {
        let c = cc(4096);
        assert!(c.alltoall_pairwise(4096, 2048) > c.alltoall_pairwise(4096, 1024));
        assert!(c.alltoall_pairwise(4096, 1024) > c.alltoall_pairwise(2048, 1024));
        assert!(c.allreduce_ring(4096, 2 << 20) > c.allreduce_ring(4096, 1 << 20));
        assert!(c.allreduce_hierarchical(4096, 2 << 20) > c.allreduce_hierarchical(4096, 1 << 20));
    }

    #[test]
    fn recursive_doubling_wins_for_tiny_buffers_loses_for_big() {
        let c = cc(96_000);
        // 4-byte flag: log(n) α beats 2(n-1) α by orders of magnitude.
        assert!(c.allreduce_recursive_doubling(96_000, 4) < c.allreduce_ring(96_000, 4) / 100.0);
        assert!(c.allreduce_recursive_doubling(96_000, 4) < c.allreduce_hierarchical(96_000, 4));
        // 1 GiB of gradients: full-buffer rounds are hopeless.
        let big = 1 << 30;
        assert!(
            c.allreduce_recursive_doubling(96_000, big) > c.allreduce_hierarchical(96_000, big)
        );
    }

    #[test]
    fn locality_reduces_alltoall_time() {
        let c = cc(96_000);
        let v = 32 << 20; // 32 MiB per rank total
        let baseline = c.alltoall_with_locality(96_000, v, 256.0 / 96_000.0);
        let local = c.alltoall_with_locality(96_000, v, 0.75);
        assert!(
            local < baseline,
            "locality must help: {local} vs {baseline}"
        );
        // Fully local traffic never touches the tapered links.
        let all_local = c.alltoall_with_locality(96_000, v, 1.0);
        assert!(all_local < local);
    }

    #[test]
    fn halving_bytes_halves_the_beta_term_only() {
        // 16-bit wire compression halves `bytes`. Because every model is
        // affine in bytes, the bandwidth (β) term must halve exactly while
        // the latency (α) term — the cost at bytes = 0 — stays fixed.
        let c = cc(96_000);
        let n = 96_000;
        let b = 64 << 20;
        let models: [(&str, &dyn Fn(usize) -> f64); 4] = [
            ("ring", &|bytes| c.allreduce_ring(n, bytes)),
            ("hier_ar", &|bytes| c.allreduce_hierarchical(n, bytes)),
            ("pairwise", &|bytes| c.alltoall_pairwise(n, bytes)),
            ("hier_a2a", &|bytes| c.alltoall_hierarchical(n, bytes)),
        ];
        for (name, t) in models {
            let alpha = t(0);
            let beta_full = t(b) - alpha;
            let beta_half = t(b / 2) - alpha;
            assert!(beta_full > 0.0, "{name}: β term must be positive");
            let ratio = beta_half / beta_full;
            assert!(
                (ratio - 0.5).abs() < 1e-9,
                "{name}: β must halve exactly, got ratio {ratio}"
            );
            // α unchanged by construction; the end-to-end speedup is
            // strictly less than 2× whenever α > 0.
            let speedup = t(b) / t(b / 2);
            assert!(speedup > 1.0 && speedup < 2.0, "{name}: speedup {speedup}");
        }
    }
}
