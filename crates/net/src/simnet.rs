//! Message-level discrete-event network simulator.
//!
//! Resources modelled per the two-level Sunway topology:
//!
//! * one **injection** and one **ejection** port per node (bandwidth =
//!   intra-supernode injection bandwidth),
//! * one **uplink** and one **downlink** per supernode with *aggregate*
//!   bandwidth `supernode_size × inter_bw` — the 4:1 taper expressed as a
//!   shared resource, so cross-supernode congestion emerges when many nodes
//!   transmit at once.
//!
//! A message claims every resource on its path at a common start time (the
//! fluid single-claim approximation), holds each for `bytes / bw(resource)`,
//! and completes after the path latency plus its bottleneck serialization
//! time. Incast (many→one) therefore serializes on the destination's
//! ejection port, and bulk cross-supernode traffic on the uplink — the two
//! effects the hierarchical all-to-all is designed around.

use crate::event::EventQueue;
use bagualu_hw::MachineConfig;

/// One point-to-point transfer to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Message {
    /// Source node id.
    pub src: usize,
    /// Destination node id.
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Earliest start time (seconds) — models dependency on a prior phase.
    pub release: f64,
}

/// Per-message result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Time the message started moving.
    pub(crate) start: f64,
    /// Time the last byte arrived.
    pub finish: f64,
}

/// The simulator. One instance is single-use per `run` call batch; resource
/// state persists across calls so phases can be chained.
pub struct SimNet {
    machine: MachineConfig,
    /// Next free time of each node's injection port.
    inj_free: Vec<f64>,
    /// Next free time of each node's ejection port.
    ej_free: Vec<f64>,
    /// Next free time of each supernode's uplink.
    up_free: Vec<f64>,
    /// Next free time of each supernode's downlink.
    down_free: Vec<f64>,
    /// Accumulated busy time per supernode uplink (utilization accounting).
    up_busy: Vec<f64>,
    /// Accumulated busy time across all injection ports.
    inj_busy: f64,
}

impl SimNet {
    /// Build a simulator for `machine`.
    pub fn new(machine: MachineConfig) -> SimNet {
        let sn = machine.supernodes();
        SimNet {
            machine,
            inj_free: vec![0.0; machine.nodes],
            ej_free: vec![0.0; machine.nodes],
            up_free: vec![0.0; sn],
            down_free: vec![0.0; sn],
            up_busy: vec![0.0; sn],
            inj_busy: 0.0,
        }
    }

    /// Aggregate uplink/downlink bandwidth of one supernode, bytes/s.
    fn trunk_bw(&self) -> f64 {
        self.machine.supernode_size as f64 * self.machine.network.inter_bw
    }

    /// Simulate a batch of messages; returns one [`Completion`] per message
    /// in input order. Messages are admitted in `(release, index)` order,
    /// which keeps the simulation deterministic.
    pub fn run(&mut self, messages: &[Message]) -> Vec<Completion> {
        let mut queue = EventQueue::new();
        for (i, m) in messages.iter().enumerate() {
            assert!(
                m.src < self.machine.nodes && m.dst < self.machine.nodes,
                "node out of range"
            );
            queue.schedule(m.release, i);
        }

        let net = self.machine.network;
        let node_bw = net.intra_bw;
        let trunk = self.trunk_bw();
        let mut out = vec![
            Completion {
                start: 0.0,
                finish: 0.0
            };
            messages.len()
        ];

        while let Some((t, i)) = queue.pop() {
            let m = &messages[i];
            if m.src == m.dst {
                // Loopback: free, instantaneous beyond software overhead.
                out[i] = Completion {
                    start: t,
                    finish: t + net.sw_overhead,
                };
                continue;
            }
            let bytes = m.bytes as f64;
            let cross = !self.machine.same_supernode(m.src, m.dst);
            let (ssn, dsn) = (
                self.machine.supernode_of(m.src),
                self.machine.supernode_of(m.dst),
            );

            // Claim every resource on the path at a common start time.
            let mut start = t.max(self.inj_free[m.src]).max(self.ej_free[m.dst]);
            if cross {
                start = start.max(self.up_free[ssn]).max(self.down_free[dsn]);
            }

            let t_node = bytes / node_bw;
            self.inj_free[m.src] = start + t_node;
            self.ej_free[m.dst] = start + t_node;
            self.inj_busy += t_node;
            let mut bottleneck = t_node;
            if cross {
                let t_trunk = bytes / trunk;
                self.up_free[ssn] = start + t_trunk;
                self.down_free[dsn] = start + t_trunk;
                self.up_busy[ssn] += t_trunk;
                bottleneck = bottleneck.max(t_trunk);
            }

            let finish = start + net.latency(!cross) + bottleneck;
            out[i] = Completion { start, finish };
        }
        out
    }

    /// Convenience: simulate and return the makespan (max finish time).
    pub fn makespan(&mut self, messages: &[Message]) -> f64 {
        self.run(messages).iter().fold(0.0, |a, c| a.max(c.finish))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(nodes: usize) -> MachineConfig {
        MachineConfig::sunway_subset(nodes)
    }

    #[test]
    fn single_intra_message_is_alpha_beta() {
        let m = machine(8);
        let mut net = SimNet::new(m);
        let bytes = 1 << 20;
        let c = net.run(&[Message {
            src: 0,
            dst: 1,
            bytes,
            release: 0.0,
        }]);
        let expect = m.network.latency(true) + bytes as f64 / m.network.intra_bw;
        assert!((c[0].finish - expect).abs() < 1e-12);
    }

    #[test]
    fn incast_serializes_on_ejection_port() {
        let m = machine(9);
        let mut net = SimNet::new(m);
        let bytes = 1 << 20;
        // 8 senders, 1 receiver.
        let msgs: Vec<Message> = (1..9)
            .map(|s| Message {
                src: s,
                dst: 0,
                bytes,
                release: 0.0,
            })
            .collect();
        let makespan = net.makespan(&msgs);
        let one = m.network.latency(true) + bytes as f64 / m.network.intra_bw;
        // Must take ~8× a single transfer, not ~1×.
        assert!(makespan > 7.0 * (bytes as f64 / m.network.intra_bw));
        assert!(makespan < 9.0 * one);
    }

    #[test]
    fn disjoint_pairs_run_in_parallel() {
        let m = machine(8);
        let mut net = SimNet::new(m);
        let bytes = 1 << 20;
        let msgs: Vec<Message> = (0..4)
            .map(|i| Message {
                src: 2 * i,
                dst: 2 * i + 1,
                bytes,
                release: 0.0,
            })
            .collect();
        let makespan = net.makespan(&msgs);
        let one = m.network.latency(true) + bytes as f64 / m.network.intra_bw;
        assert!(
            (makespan - one).abs() < 1e-9,
            "parallel pairs should not serialize"
        );
    }

    #[test]
    fn cross_supernode_traffic_saturates_trunk() {
        // 2 supernodes of 256: all 256 nodes of SN0 send to their partner in
        // SN1 simultaneously → uplink aggregate limits throughput.
        let m = machine(512);
        let mut net = SimNet::new(m);
        let bytes = 4 << 20;
        let msgs: Vec<Message> = (0..256)
            .map(|i| Message {
                src: i,
                dst: 256 + i,
                bytes,
                release: 0.0,
            })
            .collect();
        let makespan = net.makespan(&msgs);
        // Aggregate trunk moves 256×4 MiB at 256×inter_bw → bytes/inter_bw
        // per node effectively.
        let expect = bytes as f64 / m.network.inter_bw;
        assert!(
            makespan > 0.8 * expect,
            "makespan {makespan} vs trunk-bound {expect}"
        );
        // And far slower than if every node had full injection bandwidth.
        assert!(makespan > 2.0 * (bytes as f64 / m.network.intra_bw));
    }

    #[test]
    fn single_cross_message_is_not_trunk_bound() {
        let m = machine(512);
        let mut net = SimNet::new(m);
        let bytes = 4 << 20;
        let c = net.run(&[Message {
            src: 0,
            dst: 300,
            bytes,
            release: 0.0,
        }]);
        // Alone on the trunk, the node port is the bottleneck.
        let expect = m.network.latency(false) + bytes as f64 / m.network.intra_bw;
        assert!((c[0].finish - expect).abs() < 1e-9);
    }

    #[test]
    fn release_times_are_respected() {
        let m = machine(4);
        let mut net = SimNet::new(m);
        let c = net.run(&[Message {
            src: 0,
            dst: 1,
            bytes: 1024,
            release: 1.0,
        }]);
        assert!(c[0].start >= 1.0);
    }

    #[test]
    fn loopback_is_free() {
        let m = machine(4);
        let mut net = SimNet::new(m);
        let c = net.run(&[Message {
            src: 2,
            dst: 2,
            bytes: 1 << 30,
            release: 0.0,
        }]);
        assert!(c[0].finish < 1e-5);
    }
}
