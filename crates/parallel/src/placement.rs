//! Expert placement: which rank owns which expert, as a first-class policy.
//!
//! The MoDa runtime shards the expert pool across ranks. *Where* each global
//! expert lives decides how much of the dispatch/combine all-to-all stays
//! inside a supernode (cheap links) versus crossing the global fabric —
//! `net::cost::alltoall_with_locality` and experiment E25 model exactly this
//! trade. [`ExpertPlacement`] makes the mapping a single consultable policy
//! so no call site hard-codes `e mod R` arithmetic:
//!
//! - [`ExpertPlacement::RoundRobin`] — expert `e` on rank `e mod R`, local
//!   slot `e div R`. The historical default; bit-identical to the
//!   pre-placement runtime.
//! - [`ExpertPlacement::Block`] — balanced contiguous ranges: rank `r` owns
//!   experts `[r·E/R, (r+1)·E/R)` (floor bounds, so uneven pools stay within
//!   one expert of balanced). Keeps related experts (e.g. per-domain blocks)
//!   on one rank.
//! - [`ExpertPlacement::Supernode`] — supernode-aware: consecutive expert
//!   blocks are pinned to supernodes of `supernode_size` ranks, and within a
//!   supernode its block round-robins across the member ranks. Tokens routed
//!   to "nearby" experts then travel intra-supernode, which is what the
//!   locality-biased gate (see `bagualu-model`'s `Gate::set_locality`)
//!   exploits.
//!
//! Every policy is a *bijection* between global experts and `(rank, slot)`
//! pairs with the same per-rank shard size (`E/R` when divisible), so
//! policies can be swapped without touching shard-allocation logic. The
//! trainer persists the policy in checkpoints; restoring under a different
//! policy is a hard error (the shards on disk would silently belong to the
//! wrong experts otherwise).

use std::fmt;
use std::str::FromStr;

/// Policy mapping global experts to owning ranks and local slots.
///
/// See the [module docs](self) for the semantics of each variant. All
/// methods are pure functions of `(policy, n_experts, nranks)`; the policy
/// carries no per-run state and is `Copy` so it can live in `TrainConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExpertPlacement {
    /// Expert `e` on rank `e mod R`, slot `e div R` (historical default).
    #[default]
    RoundRobin,
    /// Rank `r` owns the contiguous range `[r·E/R, (r+1)·E/R)`.
    Block,
    /// Contiguous expert blocks pinned per supernode of `supernode_size`
    /// ranks; round-robin across member ranks within each supernode.
    Supernode {
        /// Ranks per supernode; must be in `1..=nranks` and divide `nranks`.
        supernode_size: usize,
    },
    /// Straggler-relief placement: round-robin, except the `victim` rank
    /// keeps only the first half of its round-robin shard and sheds the
    /// rest, spread round-robin across the other ranks. The degradation
    /// layer switches a run to this policy (at a checkpoint boundary) when
    /// the online straggler detector flags `victim`, halving the sick
    /// rank's expert compute while every expert stays owned exactly once.
    /// Deliberately *unbalanced* — the only policy that is — so
    /// [`ExpertPlacement::local_count`] must be consulted instead of `E/R`.
    Shed {
        /// Rank whose expert load is halved; must be `< nranks`.
        victim: usize,
    },
}

impl ExpertPlacement {
    /// Check the policy against a world size. Returns a descriptive error
    /// for unusable parameters (zero supernode, supernode larger than the
    /// world, non-dividing supernode size).
    pub fn validate(&self, nranks: usize) -> Result<(), String> {
        assert!(nranks > 0, "placement needs at least one rank");
        if let ExpertPlacement::Supernode { supernode_size } = *self {
            if supernode_size == 0 {
                return Err("Supernode placement: supernode_size must be >= 1".into());
            }
            if supernode_size > nranks {
                return Err(format!(
                    "Supernode placement: supernode_size {supernode_size} exceeds world size {nranks}"
                ));
            }
            if !nranks.is_multiple_of(supernode_size) {
                return Err(format!(
                    "Supernode placement: supernode_size {supernode_size} must divide world size {nranks}"
                ));
            }
        }
        if let ExpertPlacement::Shed { victim } = *self {
            if nranks < 2 {
                return Err("Shed placement: needs at least 2 ranks to shed load onto".into());
            }
            if victim >= nranks {
                return Err(format!(
                    "Shed placement: victim rank {victim} is outside the world of {nranks}"
                ));
            }
        }
        Ok(())
    }

    /// Rank that owns global expert `expert`.
    pub(crate) fn owner(&self, expert: usize, n_experts: usize, nranks: usize) -> usize {
        debug_assert!(expert < n_experts, "expert {expert} out of {n_experts}");
        match *self {
            ExpertPlacement::RoundRobin => expert % nranks,
            ExpertPlacement::Block => {
                // Inverse of the floor-bound ranges: the owner is the
                // largest r with r*E/R <= expert, i.e. floor((e*R + R - 1)/E)
                // clamped — computed directly to avoid a scan.
                let mut r = (expert * nranks + nranks - 1) / n_experts.max(1);
                r = r.min(nranks - 1);
                // Floor rounding can land near the boundary; walk to the
                // unique range containing `expert` (≤ 1 step when shards are
                // even, a few when some shards are empty).
                while expert < Self::block_start(r, n_experts, nranks) {
                    r -= 1;
                }
                while expert >= Self::block_start(r + 1, n_experts, nranks) {
                    r += 1;
                }
                r
            }
            ExpertPlacement::Supernode { supernode_size } => {
                // Supernode g owns the contiguous block that Block placement
                // would give to a "world" of nranks/supernode_size super-ranks;
                // within the block, experts round-robin over g's member ranks.
                let groups = nranks / supernode_size;
                let group = ExpertPlacement::Block.owner(expert, n_experts, groups);
                let within = expert - Self::block_start(group, n_experts, groups);
                group * supernode_size + within % supernode_size
            }
            ExpertPlacement::Shed { victim } => {
                let o = expert % nranks;
                if o != victim {
                    return o;
                }
                let rr_slot = expert / nranks;
                let keep = Self::shed_keep(victim, n_experts, nranks);
                if rr_slot < keep {
                    victim
                } else {
                    // Shed experts spread round-robin over the other R−1
                    // ranks, starting just past the victim so no single
                    // neighbor absorbs the whole load.
                    let s = rr_slot - keep;
                    (victim + 1 + s % (nranks - 1)) % nranks
                }
            }
        }
    }

    /// Local slot of global expert `expert` on its owning rank. Slots are
    /// dense: the owner's experts occupy slots `0..local_count(owner)` in
    /// ascending global-id order.
    pub(crate) fn slot(&self, expert: usize, n_experts: usize, nranks: usize) -> usize {
        debug_assert!(expert < n_experts, "expert {expert} out of {n_experts}");
        match *self {
            ExpertPlacement::RoundRobin => expert / nranks,
            ExpertPlacement::Block => {
                let r = self.owner(expert, n_experts, nranks);
                expert - Self::block_start(r, n_experts, nranks)
            }
            ExpertPlacement::Supernode { supernode_size } => {
                let groups = nranks / supernode_size;
                let group = ExpertPlacement::Block.owner(expert, n_experts, groups);
                let within = expert - Self::block_start(group, n_experts, groups);
                within / supernode_size
            }
            ExpertPlacement::Shed { .. } => {
                // Slots are dense in ascending global-id order; with the
                // shed redirection there is no closed form, so count the
                // same-owner experts below (E is small; this is cold path).
                let o = self.owner(expert, n_experts, nranks);
                (0..expert)
                    .filter(|&e| self.owner(e, n_experts, nranks) == o)
                    .count()
            }
        }
    }

    /// Global ids of the experts rank `rank` owns, in slot order (the slot
    /// of `local_experts(..)[i]` is `i`).
    pub(crate) fn local_experts(&self, rank: usize, n_experts: usize, nranks: usize) -> Vec<usize> {
        let mut out: Vec<usize> = (0..n_experts)
            .filter(|&e| self.owner(e, n_experts, nranks) == rank)
            .collect();
        // All policies assign slots in ascending global-id order, so the
        // filtered ascending list is already slot-ordered; assert it.
        debug_assert!(out
            .iter()
            .enumerate()
            .all(|(i, &e)| self.slot(e, n_experts, nranks) == i));
        out.shrink_to_fit();
        out
    }

    /// Number of experts rank `rank` owns.
    pub fn local_count(&self, rank: usize, n_experts: usize, nranks: usize) -> usize {
        match *self {
            ExpertPlacement::RoundRobin => {
                n_experts / nranks + usize::from(rank < n_experts % nranks)
            }
            _ => self.local_experts(rank, n_experts, nranks).len(),
        }
    }

    /// Supernode-locality mask: `mask[e]` is true when expert `e` lives in
    /// the same supernode (of `supernode_size` ranks) as `rank`. With
    /// `supernode_size == 0` (locality accounting disabled) every expert is
    /// considered remote.
    pub(crate) fn local_mask(
        &self,
        rank: usize,
        n_experts: usize,
        nranks: usize,
        supernode_size: usize,
    ) -> Vec<bool> {
        if supernode_size == 0 {
            return vec![false; n_experts];
        }
        (0..n_experts)
            .map(|e| self.owner(e, n_experts, nranks) / supernode_size == rank / supernode_size)
            .collect()
    }

    /// First expert of rank `r`'s contiguous block under [`Block`]
    /// (`ExpertPlacement::Block`) semantics: `r·E/R` with floor rounding.
    fn block_start(r: usize, n_experts: usize, nranks: usize) -> usize {
        r * n_experts / nranks
    }

    /// How many of its round-robin experts a [`Shed`](ExpertPlacement::Shed)
    /// victim keeps: half of its round-robin shard, floor-rounded.
    fn shed_keep(victim: usize, n_experts: usize, nranks: usize) -> usize {
        let rr = n_experts / nranks + usize::from(victim < n_experts % nranks);
        rr / 2
    }

    /// Short identifier used by the CLI, `Display`, and the checkpoint
    /// placement record (`0`/`1`/`2`/`3` policy ids).
    pub fn policy_id(&self) -> u32 {
        match self {
            ExpertPlacement::RoundRobin => 0,
            ExpertPlacement::Block => 1,
            ExpertPlacement::Supernode { .. } => 2,
            ExpertPlacement::Shed { .. } => 3,
        }
    }

    /// The supernode size carried by [`ExpertPlacement::Supernode`],
    /// 0 for the other policies.
    pub fn supernode_size(&self) -> usize {
        match *self {
            ExpertPlacement::Supernode { supernode_size } => supernode_size,
            _ => 0,
        }
    }

    /// The policy's scalar parameter as persisted in the checkpoint
    /// placement record: the supernode size for
    /// [`Supernode`](ExpertPlacement::Supernode), the victim rank for
    /// [`Shed`](ExpertPlacement::Shed), 0 otherwise. Inverse of
    /// [`from_policy_id`](Self::from_policy_id)'s second argument.
    pub fn param(&self) -> usize {
        match *self {
            ExpertPlacement::Supernode { supernode_size } => supernode_size,
            ExpertPlacement::Shed { victim } => victim,
            _ => 0,
        }
    }

    /// Reconstruct a policy from its checkpoint record fields (inverse of
    /// [`policy_id`](Self::policy_id) + [`param`](Self::param)).
    pub fn from_policy_id(id: u32, param: usize) -> Result<ExpertPlacement, String> {
        match id {
            0 => Ok(ExpertPlacement::RoundRobin),
            1 => Ok(ExpertPlacement::Block),
            2 => Ok(ExpertPlacement::Supernode {
                supernode_size: param,
            }),
            3 => Ok(ExpertPlacement::Shed { victim: param }),
            other => Err(format!("unknown placement policy id {other}")),
        }
    }
}

impl fmt::Display for ExpertPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ExpertPlacement::RoundRobin => write!(f, "roundrobin"),
            ExpertPlacement::Block => write!(f, "block"),
            ExpertPlacement::Supernode { supernode_size } => {
                write!(f, "supernode:{supernode_size}")
            }
            ExpertPlacement::Shed { victim } => write!(f, "shed:{victim}"),
        }
    }
}

impl FromStr for ExpertPlacement {
    type Err = String;

    /// Parse `roundrobin`, `block`, `supernode` (size inferred later from
    /// the topology) or `supernode:<s>`.
    fn from_str(s: &str) -> Result<ExpertPlacement, String> {
        match s {
            "roundrobin" | "round-robin" | "rr" => Ok(ExpertPlacement::RoundRobin),
            "block" => Ok(ExpertPlacement::Block),
            "supernode" => Ok(ExpertPlacement::Supernode { supernode_size: 0 }),
            other => {
                if let Some(sz) = other.strip_prefix("supernode:") {
                    let supernode_size: usize = sz
                        .parse()
                        .map_err(|_| format!("bad supernode size {sz:?}"))?;
                    Ok(ExpertPlacement::Supernode { supernode_size })
                } else if let Some(v) = other.strip_prefix("shed:") {
                    let victim: usize = v.parse().map_err(|_| format!("bad shed victim {v:?}"))?;
                    Ok(ExpertPlacement::Shed { victim })
                } else {
                    Err(format!(
                        "unknown placement {other:?} (want roundrobin|block|supernode[:S]|shed:V)"
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policies(nranks: usize) -> Vec<ExpertPlacement> {
        let mut out = vec![ExpertPlacement::RoundRobin, ExpertPlacement::Block];
        for s in 1..=nranks {
            if nranks.is_multiple_of(s) {
                out.push(ExpertPlacement::Supernode { supernode_size: s });
            }
        }
        out
    }

    #[test]
    fn every_policy_is_a_balanced_bijection() {
        for nranks in [1, 2, 3, 4, 6, 8] {
            for n_experts in [nranks, 2 * nranks, 4 * nranks, 7 * nranks] {
                for p in policies(nranks) {
                    p.validate(nranks).unwrap();
                    let mut seen = vec![false; n_experts];
                    for r in 0..nranks {
                        let locals = p.local_experts(r, n_experts, nranks);
                        assert_eq!(locals.len(), n_experts / nranks, "{p} r={r}");
                        assert_eq!(locals.len(), p.local_count(r, n_experts, nranks));
                        for (i, &e) in locals.iter().enumerate() {
                            assert_eq!(p.owner(e, n_experts, nranks), r, "{p} e={e}");
                            assert_eq!(p.slot(e, n_experts, nranks), i, "{p} e={e}");
                            assert!(!seen[e], "{p}: expert {e} owned twice");
                            seen[e] = true;
                        }
                    }
                    assert!(seen.iter().all(|&s| s), "{p}: some expert unowned");
                }
            }
        }
    }

    #[test]
    fn round_robin_matches_historical_arithmetic() {
        let p = ExpertPlacement::RoundRobin;
        for (e, n, r) in [(0, 8, 4), (5, 8, 4), (7, 8, 4), (11, 12, 3)] {
            assert_eq!(p.owner(e, n, r), e % r);
            assert_eq!(p.slot(e, n, r), e / r);
        }
    }

    #[test]
    fn block_is_contiguous_per_rank() {
        let p = ExpertPlacement::Block;
        for (n_experts, nranks) in [(8, 4), (12, 3), (16, 8), (9, 3)] {
            for r in 0..nranks {
                let locals = p.local_experts(r, n_experts, nranks);
                for w in locals.windows(2) {
                    assert_eq!(w[1], w[0] + 1, "block shard not contiguous");
                }
            }
        }
    }

    #[test]
    fn supernode_blocks_stay_inside_one_supernode() {
        // Each contiguous expert block must map entirely to one supernode,
        // so a locality-biased gate can keep traffic inside it.
        let s = 2;
        let (n_experts, nranks) = (16, 8);
        let p = ExpertPlacement::Supernode { supernode_size: s };
        let per_group = n_experts / (nranks / s);
        for e in 0..n_experts {
            let group = p.owner(e, n_experts, nranks) / s;
            assert_eq!(group, e / per_group, "expert {e} in wrong supernode");
        }
    }

    #[test]
    fn supernode_of_world_size_equals_round_robin_grouping() {
        // One supernode spanning the whole world: block = everything,
        // round-robin within = plain round-robin.
        let p = ExpertPlacement::Supernode { supernode_size: 4 };
        for e in 0..16 {
            assert_eq!(
                p.owner(e, 16, 4),
                ExpertPlacement::RoundRobin.owner(e, 16, 4)
            );
        }
    }

    #[test]
    fn local_mask_marks_own_supernode_only() {
        let p = ExpertPlacement::Supernode { supernode_size: 2 };
        let (n_experts, nranks) = (8, 4);
        let mask = p.local_mask(0, n_experts, nranks, 2);
        for (e, &m) in mask.iter().enumerate() {
            assert_eq!(m, p.owner(e, n_experts, nranks) / 2 == 0);
        }
        assert!(mask.iter().any(|&m| m) && mask.iter().any(|&m| !m));
        // Disabled accounting: all remote.
        assert!(p.local_mask(0, n_experts, nranks, 0).iter().all(|&m| !m));
    }

    #[test]
    fn shed_is_a_bijection_that_halves_the_victims_load() {
        for nranks in [2, 3, 4, 8] {
            for n_experts in [nranks, 2 * nranks, 4 * nranks, 7 * nranks] {
                for victim in 0..nranks {
                    let p = ExpertPlacement::Shed { victim };
                    p.validate(nranks).unwrap();
                    let rr = ExpertPlacement::RoundRobin;
                    let mut seen = vec![false; n_experts];
                    let mut total = 0;
                    for r in 0..nranks {
                        let locals = p.local_experts(r, n_experts, nranks);
                        assert_eq!(locals.len(), p.local_count(r, n_experts, nranks));
                        total += locals.len();
                        for (i, &e) in locals.iter().enumerate() {
                            assert_eq!(p.owner(e, n_experts, nranks), r, "{p} e={e}");
                            assert_eq!(p.slot(e, n_experts, nranks), i, "{p} e={e}");
                            assert!(!seen[e], "{p}: expert {e} owned twice");
                            seen[e] = true;
                        }
                    }
                    assert_eq!(total, n_experts);
                    assert!(seen.iter().all(|&s| s), "{p}: some expert unowned");
                    // The victim keeps exactly half (floor) of its
                    // round-robin shard; everyone else keeps at least
                    // their round-robin shard.
                    let rr_v = rr.local_count(victim, n_experts, nranks);
                    assert_eq!(p.local_count(victim, n_experts, nranks), rr_v / 2);
                    for r in (0..nranks).filter(|&r| r != victim) {
                        assert!(
                            p.local_count(r, n_experts, nranks)
                                >= rr.local_count(r, n_experts, nranks)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shed_keeps_non_victim_ownership_unchanged() {
        // Only experts round-robin-owned by the victim move; every other
        // expert stays exactly where round-robin put it, so migration
        // traffic is bounded by the victim's shard.
        let (n_experts, nranks, victim) = (16, 4, 2);
        let p = ExpertPlacement::Shed { victim };
        for e in 0..n_experts {
            if e % nranks != victim {
                assert_eq!(p.owner(e, n_experts, nranks), e % nranks);
            } else {
                assert_ne!(
                    p.owner(e, n_experts, nranks) == victim,
                    e / nranks >= ExpertPlacement::shed_keep(victim, n_experts, nranks)
                );
            }
        }
    }

    #[test]
    fn shed_spreads_load_across_all_other_ranks() {
        // 8 shed experts over 3 receiving ranks: no receiver absorbs more
        // than ceil(8/3) = 3 extra experts.
        let (n_experts, nranks, victim) = (32, 4, 1);
        let p = ExpertPlacement::Shed { victim };
        let rr = ExpertPlacement::RoundRobin;
        for r in (0..nranks).filter(|&r| r != victim) {
            let extra = p.local_count(r, n_experts, nranks) - rr.local_count(r, n_experts, nranks);
            assert!(extra <= 3, "rank {r} absorbed {extra} experts");
        }
    }

    #[test]
    fn validate_rejects_bad_shed() {
        let p = ExpertPlacement::Shed { victim: 4 };
        assert!(p.validate(4).unwrap_err().contains("outside the world"));
        let p = ExpertPlacement::Shed { victim: 0 };
        assert!(p.validate(1).unwrap_err().contains("at least 2 ranks"));
        assert!(p.validate(2).is_ok());
    }

    #[test]
    fn shed_round_trips_through_id_and_string() {
        let p = ExpertPlacement::Shed { victim: 3 };
        assert_eq!(p.to_string(), "shed:3");
        assert_eq!("shed:3".parse::<ExpertPlacement>().unwrap(), p);
        assert_eq!(
            ExpertPlacement::from_policy_id(p.policy_id(), p.param()).unwrap(),
            p
        );
        assert!("shed:x".parse::<ExpertPlacement>().is_err());
    }

    #[test]
    fn validate_rejects_bad_supernodes() {
        let zero = ExpertPlacement::Supernode { supernode_size: 0 };
        assert!(zero.validate(4).unwrap_err().contains(">= 1"));
        let big = ExpertPlacement::Supernode { supernode_size: 8 };
        assert!(big.validate(4).unwrap_err().contains("exceeds world size"));
        let odd = ExpertPlacement::Supernode { supernode_size: 3 };
        assert!(odd.validate(4).unwrap_err().contains("must divide"));
        assert!(ExpertPlacement::RoundRobin.validate(1).is_ok());
    }

    #[test]
    fn parse_and_display_round_trip() {
        for p in [
            ExpertPlacement::RoundRobin,
            ExpertPlacement::Block,
            ExpertPlacement::Supernode { supernode_size: 4 },
        ] {
            assert_eq!(p.to_string().parse::<ExpertPlacement>().unwrap(), p);
            let rt = ExpertPlacement::from_policy_id(p.policy_id(), p.supernode_size()).unwrap();
            assert_eq!(rt, p);
        }
        assert_eq!(
            "supernode".parse::<ExpertPlacement>().unwrap(),
            ExpertPlacement::Supernode { supernode_size: 0 }
        );
        assert!("diagonal".parse::<ExpertPlacement>().is_err());
        assert!(ExpertPlacement::from_policy_id(9, 0).is_err());
    }
}
