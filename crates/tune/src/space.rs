//! The knob space the tuner searches.
//!
//! A [`SearchSpace`] is a small grid over the communication-side knobs —
//! the ones the cost model can rank without running anything: wire dtype,
//! all-to-all topology, expert placement + gate locality bias, overlap,
//! and all-reduce bucket size. Model-shape and optimizer knobs (`[model]`,
//! `[train]`) are *not* axes: they change what is being trained, not how
//! fast, so the tuner holds them fixed at the base config's values.
//!
//! [`SearchSpace::enumerate`] takes the cartesian product, overlays each
//! combination on the base [`RunConfig`], drops everything
//! [`RunConfig::validate`] rejects (contradictory combinations never reach
//! the objective), and dedups configs that resolve identically.

use bagualu::runconfig::RunConfig;
use bagualu_comm::WireDType;
use bagualu_parallel::ExpertPlacement;

/// One point on the placement axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementChoice {
    /// Expert `e` on rank `e mod R` — the topology-blind baseline.
    RoundRobin,
    /// Contiguous expert blocks per rank.
    Block,
    /// Supernode-pinned experts (at the comm layer's resolved supernode
    /// size) with the given gate locality bias. Only meaningful with the
    /// hierarchical all-to-all — non-hierarchical combinations are
    /// filtered out.
    Supernode { locality_bias: f32 },
}

/// The axes of the search grid.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    pub wire_dtypes: Vec<WireDType>,
    pub hierarchical: Vec<bool>,
    pub placements: Vec<PlacementChoice>,
    pub overlap: Vec<bool>,
    pub bucket_kibs: Vec<usize>,
}

impl Default for SearchSpace {
    /// The standard grid: every wire format, both a2a topologies, the
    /// three placement stories (blind, pinned, pinned+biased), overlap
    /// on/off, and three bucket sizes bracketing the default.
    fn default() -> SearchSpace {
        SearchSpace {
            wire_dtypes: vec![WireDType::F32, WireDType::F16, WireDType::BF16],
            hierarchical: vec![false, true],
            placements: vec![
                PlacementChoice::RoundRobin,
                PlacementChoice::Supernode { locality_bias: 0.0 },
                PlacementChoice::Supernode { locality_bias: 2.0 },
            ],
            overlap: vec![true, false],
            bucket_kibs: vec![256, 1024, 4096],
        }
    }
}

/// One validated point of the space: a complete [`RunConfig`] plus a
/// human-readable name for ranking tables.
#[derive(Debug, Clone)]
pub struct Candidate {
    pub name: String,
    pub rc: RunConfig,
}

impl SearchSpace {
    /// Number of raw grid points (before validity filtering and dedup).
    /// The bucket axis only multiplies the overlapped points.
    pub fn grid_points(&self) -> usize {
        let sync: usize = self
            .overlap
            .iter()
            .map(|&on| if on { self.bucket_kibs.len() } else { 1 })
            .sum();
        self.wire_dtypes.len() * self.hierarchical.len() * self.placements.len() * sync
    }

    /// Overlay every grid combination on `base`, keeping only configs
    /// that validate, deduplicated. The base config itself is always the
    /// first candidate (named `default`) so rankings and measured
    /// comparisons have their baseline in-band.
    pub fn enumerate(&self, base: &RunConfig) -> Vec<Candidate> {
        let mut out: Vec<Candidate> = Vec::new();
        let mut push = |name: String, rc: RunConfig| {
            if rc.validate().is_ok() && !out.iter().any(|c| c.rc == rc) {
                out.push(Candidate { name, rc });
            }
        };
        push("default".into(), base.clone());
        for &wire in &self.wire_dtypes {
            for &hier in &self.hierarchical {
                for &place in &self.placements {
                    for &overlap in &self.overlap {
                        // The trainer reads the bucket size only on its
                        // overlapped path, so a blocking sync keeps the
                        // base's instead of fanning out into relabelled
                        // copies of one run.
                        let buckets = if overlap && !base.train.zero {
                            &self.bucket_kibs[..]
                        } else {
                            std::slice::from_ref(&base.comm.bucket_kib)
                        };
                        for &bucket_kib in buckets {
                            let mut rc = base.clone();
                            rc.comm.wire_dtype = wire;
                            rc.comm.hierarchical = hier;
                            if !hier {
                                rc.comm.supernode_size = 0;
                            }
                            rc.comm.overlap = overlap;
                            rc.comm.bucket_kib = bucket_kib;
                            let place_name = match place {
                                PlacementChoice::RoundRobin => {
                                    rc.placement.policy = ExpertPlacement::RoundRobin;
                                    rc.placement.locality_bias = 0.0;
                                    "rr".to_string()
                                }
                                PlacementChoice::Block => {
                                    rc.placement.policy = ExpertPlacement::Block;
                                    rc.placement.locality_bias = 0.0;
                                    "block".to_string()
                                }
                                PlacementChoice::Supernode { locality_bias } => {
                                    if !hier {
                                        continue; // needs the two-level a2a
                                    }
                                    rc.placement.policy =
                                        ExpertPlacement::Supernode { supernode_size: 0 };
                                    rc.placement.locality_bias = locality_bias;
                                    if locality_bias > 0.0 {
                                        format!("sn+bias{locality_bias}")
                                    } else {
                                        "sn".to_string()
                                    }
                                }
                            };
                            let a2a = if hier { "hier" } else { "pairwise" };
                            let sync = if overlap {
                                format!("overlap=on bucket={bucket_kib}KiB")
                            } else {
                                "overlap=off".to_string()
                            };
                            let name = format!("wire={wire} a2a={a2a} place={place_name} {sync}");
                            push(name, rc);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_space_enumerates_valid_deduped_candidates() {
        let space = SearchSpace::default();
        let base = RunConfig::default();
        let cands = space.enumerate(&base);
        assert_eq!(cands[0].name, "default");
        assert_eq!(cands[0].rc, base);
        // Everything validates; no duplicates.
        for (i, c) in cands.iter().enumerate() {
            c.rc.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", c.name));
            for later in &cands[i + 1..] {
                assert_ne!(c.rc, later.rc, "{} duplicates {}", c.name, later.name);
            }
        }
        // Supernode placement only ever appears with the hierarchical a2a.
        for c in &cands {
            if matches!(c.rc.placement.policy, ExpertPlacement::Supernode { .. }) {
                assert!(c.rc.comm.hierarchical, "{}", c.name);
            }
        }
        // The filter bites (grid minus invalid combos minus dups), but a
        // healthy majority of the grid survives.
        assert!(cands.len() > space.grid_points() / 3, "{}", cands.len());
        assert!(cands.len() <= space.grid_points() + 1);
    }

    #[test]
    fn no_two_candidates_train_the_same_run() {
        let cands = SearchSpace::default().enumerate(&RunConfig::default());
        let runs: Vec<_> = cands
            .iter()
            .map(|c| {
                let mut cfg = c.rc.to_train_config().unwrap();
                // The blocking sync never reads the bucket size.
                if !cfg.overlap || cfg.zero_optimizer {
                    cfg.bucket_bytes = 0;
                }
                cfg
            })
            .collect();
        for (i, a) in runs.iter().enumerate() {
            for (j, b) in runs.iter().enumerate().skip(i + 1) {
                assert_ne!(
                    a, b,
                    "{} and {} train one run",
                    cands[i].name, cands[j].name
                );
            }
        }
        // 3 wires × (1 pairwise + 3 hierarchical placements) × (3 overlapped
        // buckets + 1 blocking sync).
        assert_eq!(cands.len(), 48);
    }

    #[test]
    fn base_knobs_outside_the_axes_are_preserved() {
        let mut base = RunConfig::default();
        base.train.ranks = 4;
        base.train.steps = 123;
        base.model.experts = 8;
        for c in SearchSpace::default().enumerate(&base) {
            assert_eq!(c.rc.train.ranks, 4, "{}", c.name);
            assert_eq!(c.rc.train.steps, 123, "{}", c.name);
            assert_eq!(c.rc.model.experts, 8, "{}", c.name);
        }
    }

    #[test]
    fn an_invalid_base_still_yields_valid_grid_points() {
        // A base that itself fails validation (an elastic resize with the
        // fault-tolerant driver off is contradictory) is skipped, but its
        // overlays can still be valid ... here they are not (the
        // contradiction is outside the axes), so enumerate returns nothing
        // rather than junk.
        let mut base = RunConfig::default();
        base.ft.elastic = true;
        assert!(base.validate().is_err());
        assert!(SearchSpace::default().enumerate(&base).is_empty());
    }
}
