//! The tuning objective: one modeled step time per [`RunConfig`].
//!
//! `perf_input` maps a candidate onto a `PerfInput`, and
//! `bagualu::perfmodel::project`, the one step model, prices it.
//! [`model_cost`] adds the Young/Daly checkpoint waste (E27's math), the
//! distance from the data-movement roofline and the comm-bound scale.

use bagualu::perfmodel::{checkpoint_waste_fraction, project, A2aAlgo, PerfInput, Projection};
use bagualu::runconfig::RunConfig;
use bagualu::tensor::ComputeBackend;
use bagualu_hw::{MachineConfig, Precision};
use bagualu_parallel::ExpertPlacement;

/// The machine scale a candidate is scored at, plus the run-shape
/// constants no knob controls.
#[derive(Debug, Clone, Copy)]
pub struct CostEnv {
    /// Machine the model projects onto (one rank per node).
    pub(crate) machine: MachineConfig,
    /// Micro-batch tokens per node per step.
    pub(crate) tokens_per_node: usize,
    /// Mean time between failures, seconds. `None` disables the
    /// checkpoint-waste term even for ft-enabled configs.
    pub(crate) mtbf_s: Option<f64>,
    /// Cost of writing one checkpoint, seconds (Young/Daly's δ).
    pub(crate) ckpt_cost_s: f64,
}

impl CostEnv {
    /// Sunway-subset environment at a node count, with BaGuaLu-like
    /// defaults: 2048 tokens/node, no failures modeled.
    pub fn sunway(nodes: usize) -> CostEnv {
        CostEnv {
            machine: MachineConfig::sunway_subset(nodes),
            tokens_per_node: 2048,
            mtbf_s: None,
            ckpt_cost_s: 1.0,
        }
    }
}

/// Modeled per-step cost of one candidate, seconds. The first three
/// fields are the projection's compute, all-to-all and all-reduce.
#[derive(Debug, Clone, Copy)]
pub struct ModeledCost {
    pub compute_s: f64,
    pub a2a_s: f64,
    pub allreduce_s: f64,
    /// Young/Daly waste fraction (0 without fault tolerance or MTBF).
    pub(crate) ckpt_waste_frac: f64,
    /// The objective: the projected step time `· (1 + waste)`.
    pub step_s: f64,
    /// `step_s` over the roofline floor: compute at peak or wire bytes at
    /// injection bandwidth, whichever is larger — no schedule beats it.
    pub roofline_distance: f64,
    /// Smallest power-of-two node count (up to 131,072) at which exposed
    /// communication overtakes compute.
    pub comm_bound_nodes: Option<usize>,
}

/// The projection input a candidate describes at `env`'s scale.
pub(crate) fn perf_input(rc: &RunConfig, env: &CostEnv) -> Result<PerfInput, String> {
    let nodes = env.machine.nodes;
    let wire_bytes = rc.comm.wire_dtype.size_bytes() as f64;
    let a2a = match rc.placement.policy {
        // A gate locality bias keeps a fraction of dispatch traffic inside
        // the supernode that saturates from the unbiased s/n toward 1.
        ExpertPlacement::Supernode { .. } if rc.placement.locality_bias > 0.0 => {
            let baseline = env.machine.supernode_size.min(nodes) as f64 / nodes as f64;
            let bias = rc.placement.locality_bias as f64;
            A2aAlgo::Locality {
                kept: 1.0 - (1.0 - baseline) * (-bias / 2.0).exp(),
            }
        }
        _ if rc.comm.hierarchical => A2aAlgo::Hierarchical,
        _ => A2aAlgo::Pairwise,
    };
    Ok(PerfInput {
        model: rc.model_config()?,
        machine: env.machine,
        tokens_per_node: env.tokens_per_node,
        precision: match rc.compute.backend {
            ComputeBackend::Half(_) => Precision::Half,
            _ => Precision::FP32,
        },
        a2a,
        a2a_bytes: wire_bytes,
        hierarchical_allreduce: rc.comm.hierarchical,
        imbalance: 1.0,
        grad_bytes: wire_bytes,
        // The trainer reads the bucket size only on its overlapped path;
        // a blocking (or ZeRO) sync is one all-reduce.
        bucket_bytes: (rc.comm.overlap && !rc.train.zero).then_some(rc.comm.bucket_kib << 10),
        two_level_gate: false,
    })
}

fn project_at(rc: &RunConfig, env: &CostEnv) -> Result<(PerfInput, Projection), String> {
    let input = perf_input(rc, env)?;
    Ok((input, project(&input).map_err(|e| e.to_string())?))
}

/// Score one candidate: the projected step time with the checkpoint waste
/// folded in, plus roofline and scale-crossover diagnostics. Fails on a
/// config that names an unknown preset or that the model cannot price.
pub fn model_cost(rc: &RunConfig, env: &CostEnv) -> Result<ModeledCost, String> {
    let (input, p) = project_at(rc, env)?;
    let compute_s = p.breakdown.compute();
    let ckpt_waste_frac = match env.mtbf_s {
        Some(mtbf) if rc.ft.enabled && rc.ft.ckpt_every > 0 => {
            let tau = rc.ft.ckpt_every as f64 * p.step_time;
            checkpoint_waste_fraction(env.ckpt_cost_s, tau, mtbf)
        }
        _ => 0.0,
    };
    let step_s = p.step_time * (1.0 + ckpt_waste_frac);

    let peak = env.machine.processor.peak(input.precision);
    let floor = (p.node_flops / peak).max(p.node_wire_bytes / env.machine.network.intra_bw);

    // Compute per node is scale-invariant and collectives only get more
    // expensive with scale, so the first crossing is the crossing.
    let mut comm_bound_nodes = None;
    for shift in 1..=17 {
        let machine = MachineConfig {
            nodes: 1 << shift,
            ..env.machine
        };
        let (_, at) = project_at(rc, &CostEnv { machine, ..*env })?;
        if at.exposed_comm() >= at.breakdown.compute() {
            comm_bound_nodes = Some(1 << shift);
            break;
        }
    }

    Ok(ModeledCost {
        compute_s,
        a2a_s: p.breakdown.a2a,
        allreduce_s: p.breakdown.allreduce,
        ckpt_waste_frac,
        step_s,
        roofline_distance: step_s / floor,
        comm_bound_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagualu_comm::WireDType;

    fn env() -> CostEnv {
        CostEnv::sunway(4096)
    }

    fn cost(rc: &RunConfig, env: &CostEnv) -> ModeledCost {
        model_cost(rc, env).unwrap()
    }

    fn exposed_comm(rc: &RunConfig, env: &CostEnv) -> f64 {
        project_at(rc, env).unwrap().1.exposed_comm()
    }

    /// The satellite invariant: halving the wire bytes (16-bit wire
    /// instead of 32-bit) must never *increase* modeled communication
    /// time — total or exposed — across topology/overlap combinations.
    #[test]
    fn halving_wire_bytes_never_increases_modeled_comm_time() {
        for hier in [false, true] {
            for overlap in [false, true] {
                for bucket_kib in [64, 1024, 1 << 20] {
                    let mut rc = RunConfig::default();
                    rc.comm.hierarchical = hier;
                    rc.comm.overlap = overlap;
                    rc.comm.bucket_kib = bucket_kib;
                    rc.comm.wire_dtype = WireDType::F32;
                    let (full, full_exposed) = (cost(&rc, &env()), exposed_comm(&rc, &env()));
                    rc.comm.wire_dtype = WireDType::F16;
                    let (half, half_exposed) = (cost(&rc, &env()), exposed_comm(&rc, &env()));
                    let tag = format!("hier={hier} overlap={overlap} bucket={bucket_kib}KiB");
                    assert!(
                        half.a2a_s + half.allreduce_s <= full.a2a_s + full.allreduce_s + 1e-15,
                        "{tag}: total comm grew"
                    );
                    assert!(
                        half_exposed <= full_exposed + 1e-15,
                        "{tag}: exposed comm grew ({full_exposed} -> {half_exposed})"
                    );
                    assert!(half.step_s <= full.step_s + 1e-15, "{tag}: step grew");
                }
            }
        }
    }

    #[test]
    fn hierarchical_a2a_wins_at_scale() {
        let mut flat = RunConfig::default();
        flat.comm.overlap = false;
        let mut hier = flat.clone();
        hier.comm.hierarchical = true;
        let e = CostEnv::sunway(96_000);
        let cf = cost(&flat, &e);
        let ch = cost(&hier, &e);
        assert!(
            ch.a2a_s < cf.a2a_s,
            "hier {} vs flat {}",
            ch.a2a_s,
            cf.a2a_s
        );
        assert!(ch.step_s < cf.step_s);
    }

    #[test]
    fn a_blocking_sync_is_one_allreduce_and_overlap_hides_all_but_the_last_bucket() {
        let mut serial = RunConfig::default();
        serial.comm.overlap = false;
        // The trainer never reads the bucket size on the blocking path.
        serial.comm.bucket_kib = 1;
        let cs = cost(&serial, &env());
        serial.comm.bucket_kib = 4096;
        assert_eq!(cost(&serial, &env()).step_s, cs.step_s);
        assert_eq!(exposed_comm(&serial, &env()), cs.a2a_s + cs.allreduce_s);
        // Tiny buckets: the tiny preset's dense gradients fit in one
        // default 1 MiB bucket, and a single bucket has nothing to hide
        // behind — shrink the bucket so the pipeline exists.
        let mut overlapped = serial.clone();
        overlapped.comm.overlap = true;
        overlapped.comm.bucket_kib = 1;
        let co = cost(&overlapped, &env());
        assert_eq!(cs.a2a_s, co.a2a_s);
        // Every bucket pays its α, and all but the last one hide.
        assert!(co.allreduce_s > cs.allreduce_s);
        assert!(exposed_comm(&overlapped, &env()) < co.a2a_s + co.allreduce_s);
    }

    #[test]
    fn locality_bias_shrinks_the_a2a() {
        // Supernode placement + bias must beat plain hierarchical a2a at a
        // multi-supernode scale (E25's modeled table, through the tuner's lens).
        let mut hier = RunConfig::default();
        hier.train.ranks = 4;
        hier.comm.hierarchical = true;
        hier.comm.supernode_size = 2;
        let mut biased = hier.clone();
        biased.placement.policy = ExpertPlacement::Supernode { supernode_size: 2 };
        biased.placement.locality_bias = 2.0;
        let e = CostEnv::sunway(96_000);
        let c0 = cost(&hier, &e);
        let c1 = cost(&biased, &e);
        assert!(c1.a2a_s < c0.a2a_s, "biased {} vs {}", c1.a2a_s, c0.a2a_s);
        // More bias keeps more traffic local, monotonically.
        let mut more = biased.clone();
        more.placement.locality_bias = 4.0;
        assert!(cost(&more, &e).a2a_s < c1.a2a_s);
    }

    #[test]
    fn checkpoint_waste_costs_time() {
        let mut rc = RunConfig::default();
        rc.ft.enabled = true;
        rc.ft.ckpt_every = 10;
        let mut e = env();
        let off = cost(&rc, &e);
        assert_eq!(off.ckpt_waste_frac, 0.0);
        e.mtbf_s = Some(3600.0);
        let on = cost(&rc, &e);
        assert!(on.ckpt_waste_frac > 0.0);
        assert!(on.step_s > off.step_s);
    }

    #[test]
    fn diagnostics_are_sane() {
        let c = cost(&RunConfig::default(), &env());
        assert!(c.roofline_distance >= 1.0 && c.roofline_distance.is_finite());
        assert!(c.step_s >= c.compute_s);
        // A flat pairwise a2a at tiny per-pair payloads is α-dominated and
        // must go comm-bound somewhere below the full machine.
        assert!(c.comm_bound_nodes.is_some());
        // Hierarchical + compression pushes the crossover out (or off the
        // scanned range entirely).
        let mut tuned = RunConfig::default();
        tuned.comm.hierarchical = true;
        tuned.comm.wire_dtype = WireDType::F16;
        let ct = cost(&tuned, &env());
        match (c.comm_bound_nodes, ct.comm_bound_nodes) {
            (Some(flat_n), Some(tuned_n)) => assert!(tuned_n >= flat_n),
            (Some(_), None) => {}
            other => panic!("unexpected crossover pair {other:?}"),
        }
    }

    #[test]
    fn single_node_has_no_communication() {
        let (rc, env) = (RunConfig::default(), CostEnv::sunway(1));
        let c = cost(&rc, &env);
        assert_eq!(c.a2a_s, 0.0);
        assert_eq!(c.allreduce_s, 0.0);
        assert_eq!(exposed_comm(&rc, &env), 0.0);
    }

    #[test]
    fn unpriceable_configs_are_errors_not_panics() {
        let mut rc = RunConfig::default();
        rc.model.preset = "frobnicate".into();
        assert!(model_cost(&rc, &env())
            .unwrap_err()
            .contains("unknown preset"));
        let e = model_cost(&RunConfig::default(), &CostEnv::sunway(0)).unwrap_err();
        assert!(e.contains("at least 1 node"), "{e}");
    }
}
