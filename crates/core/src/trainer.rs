//! The multi-rank functional trainer: one driver and one per-rank loop
//! behind every entry point, an [`FtConfig`] the only switch between
//! [`Trainer::run`] and [`Trainer::run_ft`]. The driver runs attempts, one
//! OS thread per rank, each holding a [`DistTransformer`] shard and its own
//! mixed-precision optimizer; it splices the curves every attempt returns
//! and assembles the report once. Per step, each rank:
//!
//! 1. generates its deterministic micro-batch,
//! 2. forward → cross-entropy → loss-scaled backward,
//! 3. [`sync_and_step`]: the run's [`DenseSync`] (all-reduce, optionally
//!    16-bit on the wire, or ZeRO's reduce-scatter), then one mixed-precision
//!    Adam step with the optional clip inside it, its overflow skip agreed
//!    *before* anything is applied so replicas stay in lockstep. The step
//!    consumes the gradients.
//!
//! With an [`FtConfig`] each rank also heartbeats before every step,
//! checkpoints every `ckpt_every` steps and watches for stragglers, and the
//! driver restarts a failed attempt (on a shrunk world, when elastic) and
//! re-places a straggler's experts. Without one there is one attempt.
//!
//! A checkpoint has two stages. Stage one runs on the rank between two
//! steps: its shard is encoded and written into the kernel's page cache.
//! Stage two — fsync, rename, directory fsync — runs on a writer thread
//! while the rank computes the next step, and is joined at the heartbeat
//! after it; once every rank is through that heartbeat, rank 0 names the
//! step in `MANIFEST`.

use crate::checkpoint::{self, PlacementMeta};
use crate::data::{SyntheticLM, TokenDistribution};
use crate::runconfig::RunConfig;
use bagualu_comm::collectives::{allreduce_recursive_doubling, barrier_ft, ReduceOp};
use bagualu_comm::fault::{FaultPlan, FaultRuntime, FaultSpec};
use bagualu_comm::harness::{run_ranks_ft, RankOutcome};
use bagualu_comm::payload::WireDType;
use bagualu_comm::shm::{CommStats, Communicator, ShmComm, World};
use bagualu_model::config::ModelConfig;
use bagualu_model::loss::cross_entropy;
use bagualu_optim::adam::AdamConfig;
use bagualu_optim::mixed::MixedPrecision;
use bagualu_parallel::model_dist::DistTransformer;
use bagualu_parallel::moe_dist::A2aKind;
use bagualu_parallel::placement::ExpertPlacement;
use bagualu_parallel::sync::{backward_and_sync_overlapped_wire, sync_and_step, DenseSync};
use bagualu_tensor::ops::{install_backend, install_row_ops, ComputeBackend};
use bagualu_tensor::reservoir;
use bagualu_tensor::DType;
use bagualu_trace::{
    self as trace, names, HostUsage, StragglerDetector, Trace, TraceCollector, DRIVER_LANE,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Full training-run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    pub model: ModelConfig,
    /// Data/expert-parallel width (threads).
    pub nranks: usize,
    /// Sequences per rank per step.
    pub batch_per_rank: usize,
    /// Sequence length.
    pub seq: usize,
    pub steps: usize,
    pub lr: f32,
    /// Working precision of parameters (FP32 disables scaling).
    pub dtype: DType,
    pub a2a: A2aKind,
    /// Global gradient-norm clip (None = off).
    pub clip: Option<f32>,
    pub seed: u64,
    pub data: TokenDistribution,
    /// Force the loss scale to 1 even for FP16 — the precision ablation
    /// uses this to demonstrate why scaling is necessary.
    pub disable_loss_scaling: bool,
    /// Shard the dense optimizer state ZeRO-style ([`DenseSync::Sharded`])
    /// instead of replicating it. Any `dtype`; requires `clip == None` (the
    /// step sees one shard of the dense gradients, not their global norm).
    pub zero_optimizer: bool,
    /// Evaluate on held-out data every `eval_every` steps (None = never).
    pub eval_every: Option<usize>,
    /// Overlap dense gradient all-reduce with backward compute by bucketing
    /// gradients as they become ready (ignored under `zero_optimizer`,
    /// whose reduce-scatter replaces the dense all-reduce entirely).
    pub overlap: bool,
    /// Bucket size for the overlapped gradient sync, bytes of f32 payload.
    pub bucket_bytes: usize,
    /// Record a structured per-rank trace (spans + counters) of the run;
    /// the merged [`Trace`] lands in [`TrainReport::trace`].
    pub trace: bool,
    /// Element format for comm-bound tensor traffic (dense gradient
    /// all-reduce, MoE dispatch/combine all-to-alls): 16-bit wires halve
    /// bytes in flight at one rounding per hop, while every reduction still
    /// accumulates in `f32`. Control-path scalars and the ZeRO
    /// reduce-scatter stay uncompressed. `F32` (the default) is lossless.
    pub wire: WireDType,
    /// Expert↔rank mapping policy. `Supernode { supernode_size: 0 }`
    /// infers the size from a [`A2aKind::Hierarchical`] all-to-all (and is
    /// rejected under [`A2aKind::Pairwise`], which has no supernodes to
    /// infer from). The default, round-robin, is bit-identical to the
    /// pre-placement trainer.
    pub placement: ExpertPlacement,
    /// GEMM backend every rank installs for its compute: `Reference` (the
    /// oracle, and the bit-identical default), `Tiled` (same bits, faster),
    /// or `Half(dtype)` (native 16-bit storage-and-compute with f32
    /// accumulation — the end-to-end mixed-precision story, bounded by the
    /// same tolerance band as 16-bit wires). Installed per rank thread, so
    /// concurrent trainers with different backends never interfere.
    pub compute: ComputeBackend,
    /// Log-space gate-selection bonus for experts resident in the caller's
    /// supernode (0 = off, the bit-identical default). Only meaningful when
    /// a supernode size is known — from the placement or from a
    /// hierarchical a2a; with neither the bias is a no-op. Balance is
    /// preserved through the usual auxiliary loss, which operates on the
    /// biased selection counts (raise `model.aux_weight` to push back
    /// harder against the skew).
    pub locality_bias: f32,
}

impl TrainConfig {
    /// The placement policy with `Supernode { supernode_size: 0 }` resolved
    /// against the all-to-all topology. Panics when resolution is
    /// impossible (supernode placement without a size under a pairwise
    /// a2a).
    pub fn resolved_placement(&self) -> ExpertPlacement {
        match self.placement {
            ExpertPlacement::Supernode { supernode_size: 0 } => {
                let s = self.a2a.supernode_size();
                assert!(
                    s > 0,
                    "supernode placement needs an explicit size (supernode:<s>) or a \
                     hierarchical a2a to infer one from"
                );
                ExpertPlacement::Supernode { supernode_size: s }
            }
            p => p,
        }
    }

    /// Every rule a training run must satisfy, each error with the fix
    /// spelled out: [`validate_run`](Self::validate_run)'s, and every rank
    /// hosting the same number of experts. [`Trainer::new`] panics with the
    /// message; [`RunConfig::validate`](crate::runconfig::RunConfig::validate)
    /// returns it for the config a file builds.
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.validate_run()?;
        let (experts, n) = (self.model.n_experts, self.nranks);
        ensure!(
            experts == 0 || experts.is_multiple_of(n),
            "expert count {experts} must divide evenly over {n} ranks (every rank hosts the \
             same number of experts)"
        );
        Ok(())
    }

    /// The rules of every run of this model on this world, trained or
    /// served. Serving checks only these: it places any expert count its
    /// placement can place.
    pub(crate) fn validate_run(&self) -> Result<(), String> {
        let (n, steps, batch, seq) = (self.nranks, self.steps, self.batch_per_rank, self.seq);
        ensure!(
            n > 0 && steps > 0 && batch > 0 && seq > 0,
            "ranks, steps, batch and seq must all be >= 1 (got {n}, {steps}, {batch}, {seq})"
        );
        let max_seq = self.model.max_seq;
        ensure!(
            seq <= max_seq,
            "seq {seq} is longer than the model's context (max_seq {max_seq}); lower seq to \
             at most {max_seq}, or pick a preset with a longer context"
        );
        ensure!(
            self.lr.is_finite() && self.lr > 0.0,
            "learning rate must be finite and > 0, got {}",
            self.lr
        );
        if let TokenDistribution::Zipf(s) = self.data {
            ensure!(
                s.is_finite() && s >= 0.0,
                "data skew must be finite and >= 0 (0 = uniform), got {s}"
            );
        }
        ensure!(
            !self.zero_optimizer || self.clip.is_none(),
            "the zero optimizer sees one shard of the dense gradients, not their global norm, \
             so it cannot clip — set clip to None, or drop zero"
        );
        ensure!(
            self.model.router_groups == 0,
            "the distributed trainer requires the flat gate (two-level routing is a \
             single-rank feature; see MoELayer::new_two_level)"
        );
        if let Some(max_norm) = self.clip {
            ensure!(
                max_norm.is_finite() && max_norm > 0.0,
                "clip must be finite and > 0, got {max_norm}"
            );
        }
        self.a2a
            .validate(n)
            .map_err(|e| format!("invalid a2a configuration: {e}"))?;
        ensure!(
            self.placement != (ExpertPlacement::Supernode { supernode_size: 0 })
                || self.a2a.supernode_size() > 0,
            "supernode placement needs an explicit size (supernode:S) or a hierarchical a2a \
             to infer one from"
        );
        self.resolved_placement()
            .validate(n)
            .map_err(|e| format!("invalid expert placement: {e}"))?;
        ensure!(
            self.locality_bias.is_finite() && self.locality_bias >= 0.0,
            "locality bias must be finite and >= 0, got {}",
            self.locality_bias
        );
        self.compute
            .validate()
            .map_err(|e| format!("invalid compute backend: {e}"))?;
        ensure!(self.bucket_bytes > 0, "the overlap bucket cannot be empty");
        Ok(())
    }

    /// How this run's dense gradients cross ranks.
    pub(crate) fn dense_sync(&self) -> DenseSync {
        if self.zero_optimizer {
            DenseSync::Sharded
        } else if self.overlap {
            DenseSync::Overlapped
        } else {
            DenseSync::Blocking(self.wire)
        }
    }

    /// Supernode size used for locality accounting and the gate bias: the
    /// placement's own, else the hierarchical a2a's, else 0 (disabled).
    pub fn effective_supernode_size(&self) -> usize {
        let s = self.resolved_placement().supernode_size();
        if s > 0 {
            s
        } else {
            self.a2a.supernode_size()
        }
    }
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            model: ModelConfig::tiny(),
            nranks: 2,
            batch_per_rank: 2,
            seq: 8,
            steps: 10,
            lr: 1e-2,
            dtype: DType::F32,
            a2a: A2aKind::Pairwise,
            clip: Some(1.0),
            seed: 42,
            data: TokenDistribution::Uniform,
            disable_loss_scaling: false,
            zero_optimizer: false,
            eval_every: None,
            overlap: true,
            bucket_bytes: 1 << 20,
            trace: false,
            wire: WireDType::F32,
            placement: ExpertPlacement::RoundRobin,
            compute: ComputeBackend::Reference,
            locality_bias: 0.0,
        }
    }
}

/// What a training run reports.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean cross-entropy per step, averaged over ranks.
    pub loss_curve: Vec<f32>,
    /// Mean auxiliary balance loss per step.
    pub aux_curve: Vec<f32>,
    /// Mean max/mean expert-load imbalance per step (1.0 = balanced), from
    /// the first MoE block.
    pub imbalance_curve: Vec<f64>,
    /// Mean token drop rate per step.
    pub drop_curve: Vec<f64>,
    /// End-to-end training throughput.
    pub tokens_per_sec: f64,
    /// Steps skipped by the loss scaler (summed over ranks / ranks).
    pub skipped_steps: u64,
    /// Global tokens this call trained on: each step it ran counted once,
    /// at the world size that step last ran on.
    pub total_tokens: usize,
    /// Held-out `(step, loss)` evaluations (empty unless `eval_every` set).
    pub eval_curve: Vec<(usize, f32)>,
    /// Measured fraction of ring all-reduce steps that completed while
    /// backward compute was still running, aggregated over all ranks and
    /// steps. `None` when the overlapped sync path did not run (overlap
    /// disabled, or ZeRO); `Some(0.0)` when it ran but nothing could hide
    /// (e.g. single rank — a ring of one has no steps).
    pub overlap_fraction: Option<f64>,
    /// The merged per-rank trace, when [`TrainConfig::trace`] was set.
    pub trace: Option<Arc<Trace>>,
    /// Transport traffic totals, per collective family, when the
    /// communicator collects them.
    pub comm_stats: Option<CommStats>,
    /// Times the run restarted from a checkpoint after a failure
    /// (always 0 under [`Trainer::run`]).
    pub restarts: usize,
    /// Steps that had to be re-executed because they post-dated the last
    /// consistent checkpoint when a failure struck (summed over restarts).
    pub lost_steps: usize,
    /// Wall-clock seconds consumed by attempts that ended in a failure —
    /// detection, plus any re-executed work those attempts performed.
    pub recovery_time_s: f64,
    /// Elastic world resizes: crashes survived by continuing on a shrunk
    /// world instead of restoring at full width (always 0 unless
    /// [`FtConfig::elastic`] was set).
    pub resizes: usize,
    /// Expert-load migrations executed after an online straggler flag
    /// (always 0 unless [`FtConfig::straggler_factor`] was set).
    pub migrations: usize,
    /// The expert placement the run used (the *resolved* policy — a
    /// `supernode` request with inferred size reports the concrete size).
    pub placement: ExpertPlacement,
}

impl TrainReport {
    /// Last entry of the loss curve (NaN when no steps ran).
    pub fn final_loss(&self) -> f32 {
        *self.loss_curve.last().unwrap_or(&f32::NAN)
    }

    /// Per-step metrics as CSV (`step,loss,aux,imbalance,drop_rate`),
    /// for plotting outside the harness.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("step,loss,aux_loss,imbalance,drop_rate\n");
        for i in 0..self.loss_curve.len() {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                i,
                self.loss_curve[i],
                self.aux_curve[i],
                self.imbalance_curve[i],
                self.drop_curve[i]
            ));
        }
        out
    }
}

/// Fault-tolerance configuration for [`Trainer::run_ft`].
///
/// Kept separate from [`TrainConfig`] (which stays `Copy`): this carries a
/// fault schedule and a checkpoint directory.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Deterministic fault schedule injected into the transport.
    pub plan: FaultPlan,
    /// Checkpoint directory: `step<N>/rank<r>.bglu` shards plus a
    /// `MANIFEST` naming the latest complete step.
    pub ckpt_dir: PathBuf,
    /// Checkpoint every this many steps (0 = never).
    pub ckpt_every: usize,
    /// Give up (panic) after this many restarts.
    pub max_restarts: usize,
    /// How long a rank waits at a step-boundary heartbeat before declaring
    /// its peers dead.
    pub heartbeat_ms: u64,
    /// Start from this step, restoring `ckpt_dir`'s checkpoint for it
    /// (0 = fresh start).
    pub resume_step: usize,
    /// Online straggler detection: flag a rank whose windowed mean
    /// send-occupancy exceeds `factor ×` the median across ranks (see
    /// `bagualu_trace::StragglerDetector`), then shed half its expert load
    /// at the next checkpoint boundary. `None` (the default) disables
    /// detection entirely — no extra collective per step.
    pub straggler_factor: Option<f64>,
    /// Consecutive steps averaged by the straggler detector before it may
    /// flag (≥ 1); larger windows trade detection latency for immunity to
    /// one-step spikes.
    pub straggler_window: usize,
    /// **Elastic world resize**: when a rank crashes, continue on R−1 ranks
    /// — re-place the lost experts across the survivors and re-shard
    /// optimizer state — instead of restoring at full width. Restore from
    /// the last checkpoint still happens (the shrunk world resumes from it,
    /// re-sharding the R-rank shard set), it just stops being the only
    /// path. Off by default: the historical restore-at-full-width behavior
    /// is unchanged unless asked for.
    pub elastic: bool,
}

impl FtConfig {
    pub fn new(ckpt_dir: impl Into<PathBuf>) -> FtConfig {
        FtConfig {
            plan: FaultPlan::none(),
            ckpt_dir: ckpt_dir.into(),
            ckpt_every: 5,
            max_restarts: 3,
            heartbeat_ms: 1000,
            resume_step: 0,
            straggler_factor: None,
            straggler_window: 3,
            elastic: false,
        }
    }
}

/// Orchestrates a full run over `nranks` threads.
pub struct Trainer {
    pub(crate) cfg: TrainConfig,
}

/// The run a [`RunConfig`] describes — what `bagualu train --config` runs —
/// untraced: [`RunConfig::validate`], then
/// [`RunConfig::to_train_config`]. The error is the first rule the config
/// breaks, with its fix spelled out.
impl TryFrom<&RunConfig> for Trainer {
    type Error = String;

    fn try_from(rc: &RunConfig) -> Result<Trainer, String> {
        rc.validate()?;
        Ok(Trainer {
            cfg: rc.to_train_config()?,
        })
    }
}

impl Trainer {
    /// Panics with `TrainConfig::validate`'s message on a config it
    /// rejects.
    pub fn new(cfg: TrainConfig) -> Trainer {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        Trainer { cfg }
    }

    /// The validated config this trainer runs.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Record a structured trace of the run ([`TrainConfig::trace`]) or
    /// not: an observation of the run, so a trainer built from a
    /// [`RunConfig`], which does not describe one, can still ask for it.
    pub fn with_trace(mut self, trace: bool) -> Trainer {
        self.cfg.trace = trace;
        self
    }

    /// Run to completion and aggregate the report (rank 0's copy of what
    /// the ranks pool). The driver of [`Trainer::run_ft`] without an
    /// [`FtConfig`]: no heartbeat, no checkpoint, no straggler detection
    /// and no restart, so a rank panic reaches the caller with its message.
    pub fn run(&self) -> TrainReport {
        self.drive(None, None)
    }

    /// One rank's share of [`Trainer::run`], for a caller that owns the
    /// rank threads itself: runs every step over `comm` and returns this
    /// rank's report, without the trace that `run` collects (the caller
    /// installs the lane). A peer that dies unwinds this rank with a
    /// [`bagualu_comm::CommError::PeerDead`] payload.
    pub fn run_rank(&self, comm: &ShmComm) -> TrainReport {
        self.drive(None, Some(comm))
    }

    /// Run with fault injection and checkpoint/restart recovery.
    ///
    /// Each rank heartbeats at every step boundary ([`barrier_ft`]) and
    /// checkpoints its shard every `ft.ckpt_every` steps: it writes the
    /// shard into the kernel and hands the fsyncs to a writer thread, which
    /// it joins at the next step's heartbeat. Once every shard of step `s`
    /// is durable, rank 0 publishes a `MANIFEST` naming `s` (atomically, so
    /// a failure mid-checkpoint leaves the previous consistent set in
    /// charge). When a rank crashes, survivors detect it within
    /// `ft.heartbeat_ms`, and the world is torn down. The driver then waits
    /// for every writer still running — a crashed rank's shard is already
    /// in the kernel — and names the newest step whose every shard is
    /// durable, so a crash at a checkpoint step still restores that step; a
    /// shard that never became durable leaves the previous step in charge.
    /// A fresh world restores the manifest step and resumes — with a fresh
    /// optimizer (Adam moments are not checkpointed; the run is
    /// bit-identical to a fault-free run started from the restored step,
    /// which is what the tests pin down).
    ///
    /// With an empty [`FaultPlan`] and `ckpt_every: 0` this computes
    /// exactly what [`Trainer::run`] computes, plus the heartbeats.
    pub fn run_ft(&self, ft: &FtConfig) -> TrainReport {
        self.drive(Some(ft), None)
    }

    /// The one driver (see the module docs): runs attempts until one
    /// completes, one thread per rank, or only the caller's `own` rank.
    fn drive(&self, ft: Option<&FtConfig>, own: Option<&ShmComm>) -> TrainReport {
        let cfg = self.cfg;
        let start = Instant::now();
        // The transport is armed only when it has work to do: events to
        // inject, or send occupancy to time for the straggler detector. An
        // unarmed send takes no `Instant::now`. The runtime is shared across
        // attempts: one-shot events (a crash at step N) stay consumed on the
        // re-execution of N, and after an elastic shrink a crash scheduled
        // for a rank id that no longer exists simply never fires.
        let faults = ft
            .filter(|ft| !ft.plan.is_empty() || ft.straggler_factor.is_some())
            .map(|ft| Arc::new(FaultRuntime::new(ft.plan.clone(), cfg.nranks)));
        // One collector for the whole run: lanes from successive restart
        // attempts append to the same per-rank timeline.
        let collector = (cfg.trace && own.is_none()).then(TraceCollector::new);
        let host = collector.as_ref().and_then(|_| HostUsage::now());
        let count = |name| {
            if let Some(col) = &collector {
                col.record_count(DRIVER_LANE, name, 1);
            }
        };
        // Every step's metrics, spliced from the attempts that ran it (a
        // re-executed step keeps its last run's), and the ranks it last ran
        // on (0 for a step before `resume_step`, never run here).
        let mut loss = vec![f32::NAN; cfg.steps];
        let mut aux = vec![f32::NAN; cfg.steps];
        let mut imb = vec![f64::NAN; cfg.steps];
        let mut dropr = vec![f64::NAN; cfg.steps];
        let mut eval = std::collections::BTreeMap::new();
        let mut ranks = vec![0; cfg.steps];
        let (mut restarts, mut lost_steps, mut resizes, mut migrations) = (0, 0, 0, 0);
        let mut recovery_time_s = 0.0;
        // The attempt's configuration (see `rank_loop`).
        let mut cur = cfg;
        let mut start_step = ft.map_or(0, |ft| ft.resume_step);

        loop {
            let meta = PlacementMeta {
                placement: cur.resolved_placement(),
                n_experts: cur.model.n_experts,
                nranks: cur.nranks,
            };
            let ft_at = ft.map(|ft| FtAttempt {
                ft,
                faults: faults.as_deref(),
                restore: preflight(ft, start_step, meta, migrations + resizes > 0),
                meta,
                // Straggler migration is a one-shot per run and only defined
                // from a round-robin layout (Shed is itself the migrated state).
                straggler_factor: ft.straggler_factor.filter(|_| {
                    migrations == 0
                        && cur.nranks >= 2
                        && meta.placement == ExpertPlacement::RoundRobin
                }),
                writers: (0..cur.nranks).map(|_| Mutex::default()).collect(),
                manifest: Mutex::default(),
            });
            let attempt_start = Instant::now();
            let attempt_t0_ns = collector.as_ref().map(|c| c.now_ns());
            let outcomes = match own {
                Some(comm) => vec![RankOutcome::Ok(rank_loop(
                    cur,
                    start_step,
                    ft_at.as_ref(),
                    comm,
                ))],
                None => {
                    let world = match &faults {
                        Some(faults) => World::new_with_faults(cur.nranks, Arc::clone(faults)),
                        None => World::new(cur.nranks),
                    };
                    run_ranks_ft(&world, |c| {
                        let _lane = collector.as_ref().map(|col| col.install(c.rank()));
                        Ok(rank_loop(cur, start_step, ft_at.as_ref(), &c))
                    })
                }
            };

            // Every writer the attempt started is joined before the driver
            // reads MANIFEST or reports: see `FtAttempt::drain`.
            if let Some(attempt) = &ft_at {
                attempt.drain();
            }
            let mut totals = None;
            let mut failed = false;
            let mut migrate_to = None;
            let mut through = start_step;
            for outcome in outcomes {
                match outcome {
                    RankOutcome::Ok((seg, end)) => {
                        let ran_to = start_step + seg.loss.len();
                        through = through.max(ran_to);
                        splice(start_step, &seg.loss, &mut loss);
                        splice(start_step, &seg.aux, &mut aux);
                        splice(start_step, &seg.imbalance, &mut imb);
                        splice(start_step, &seg.drop, &mut dropr);
                        ranks[start_step..ran_to].fill(cur.nranks);
                        eval.extend(seg.eval);
                        match end {
                            End::Completed(t) => {
                                totals.get_or_insert(t);
                            }
                            End::Aborted => failed = true,
                            End::Migrated { at, victim } => migrate_to = Some((at, victim)),
                        }
                    }
                    // Without an FtConfig nothing restarts.
                    RankOutcome::Crashed(msg) if ft.is_none() => panic!("{msg}"),
                    // A genuine panic (not an injected crash): recover from
                    // it like any other failure, up to max_restarts.
                    RankOutcome::Crashed(_) | RankOutcome::TimedOut(_) => failed = true,
                }
            }

            if let Some(totals) = totals {
                assert!(!failed, "ranks disagreed on completion");
                let elapsed = start.elapsed().as_secs_f64();
                // Each step once, at the width it last ran on.
                let total_tokens = ranks.iter().sum::<usize>() * cfg.batch_per_rank * cfg.seq;
                return TrainReport {
                    loss_curve: loss,
                    aux_curve: aux,
                    imbalance_curve: imb,
                    drop_curve: dropr,
                    tokens_per_sec: total_tokens as f64 / elapsed,
                    skipped_steps: totals.skipped_steps,
                    total_tokens,
                    eval_curve: eval.into_iter().collect(),
                    overlap_fraction: totals.overlap_fraction,
                    trace: collector.map(|c| finish_trace(c, host)),
                    comm_stats: totals.comm_stats,
                    restarts,
                    lost_steps,
                    recovery_time_s,
                    resizes,
                    migrations,
                    placement: meta.placement,
                };
            }
            let ft = ft.expect("only an attempt under an FtConfig stops early");

            if let (Some((at, victim)), false) = (migrate_to, failed) {
                // Planned degradation, not a failure: every rank agreed (the
                // detector's verdict is a pure function of all-reduced
                // samples) and a checkpoint for `at` is already published.
                // Shift to the Shed layout and continue from that step —
                // no restart counted, no recovery time charged.
                migrations += 1;
                count(names::STRAGGLER_MIGRATIONS);
                cur.placement = ExpertPlacement::Shed { victim };
                start_step = at;
                continue;
            }

            // The failed attempt, recorded on the driver lane: its whole
            // wall time is recovery (detection + re-executed work).
            if let Some(col) = &collector {
                col.record_span(
                    DRIVER_LANE,
                    names::RECOVERY,
                    attempt_t0_ns.unwrap(),
                    col.now_ns(),
                );
            }
            count(names::RESTARTS);
            recovery_time_s += attempt_start.elapsed().as_secs_f64();
            restarts += 1;
            assert!(
                restarts <= ft.max_restarts,
                "giving up after {restarts} restarts (failure at step {through}, \
                 max_restarts={})",
                ft.max_restarts
            );
            // "No manifest yet" legitimately means restart from the resume
            // step; an *unreadable or unparsable* manifest means the
            // checkpoint state cannot be trusted and guessing would silently
            // miscount lost work — that is a hard error.
            let restored = match read_manifest(&ft.ckpt_dir) {
                Ok(Some(step)) => step,
                Ok(None) => ft.resume_step,
                Err(e) => panic!(
                    "checkpoint manifest in {:?} is unreadable: {e}. Refusing to guess a \
                     restore step; repair or remove the MANIFEST file.",
                    ft.ckpt_dir
                ),
            };
            lost_steps += through.saturating_sub(restored);
            start_step = restored;
            if ft.elastic && cur.nranks > 1 {
                // Degrade, don't die: drop the crashed rank and continue on
                // the survivors. The next attempt re-shards the full-width
                // checkpoint across R−1 ranks; ZeRO state re-shards itself
                // (optimizer moments are rebuilt from the restored master
                // weights, exactly as on any restore).
                cur.nranks -= 1;
                resizes += 1;
                count(names::FT_RESIZES);
                // A Shed victim was named in the old world; fold back to the
                // configured layout for the shrunk one.
                if matches!(cur.placement, ExpertPlacement::Shed { .. }) {
                    cur.placement = ExpertPlacement::RoundRobin;
                }
                cur.resolved_placement()
                    .validate(cur.nranks)
                    .unwrap_or_else(|e| {
                        panic!("elastic resize to {} ranks is impossible: {e}", cur.nranks)
                    });
            }
        }
    }
}

/// How an attempt restores model state, decided by [`preflight`].
#[derive(Debug, Clone, Copy)]
enum Restore {
    /// The checkpoint's layout matches this attempt exactly: each rank
    /// loads its own shard (the historical, bit-pinned path).
    Strict,
    /// The checkpoint was written under a different layout (different world
    /// size after an elastic resize, or a different placement after a
    /// migration): each rank reads all `from_nranks` shard files and pulls
    /// out the parameters its new layout owns. Sound because expert
    /// parameters are named by *global* expert id and dense parameters are
    /// identical replicas in every shard.
    Reshard {
        /// World size the shard set on disk was written for.
        from_nranks: usize,
    },
}

/// Pre-flight the restore of an attempt starting at `start_step` under
/// layout `current` on rank 0's shard: a mismatched restore is a
/// configuration error, not a transient fault, so it must be a hard error
/// here rather than a crash the restart loop retries into "giving up after
/// N restarts". So is a step with no checkpoint behind it, whether the step
/// came from `resume_step` or from the MANIFEST. Cross-layout restore (an
/// R-rank shard set onto R−1 ranks, or a round-robin set onto a Shed
/// layout) is only authorized by the degradation features — `elastic`, or
/// a run already `degraded` — so a plain run keeps the strict gate.
fn preflight(
    ft: &FtConfig,
    start_step: usize,
    current: PlacementMeta,
    degraded: bool,
) -> Option<Restore> {
    if start_step == 0 {
        return None;
    }
    let allow_reshard = ft.elastic || degraded;
    let shard0 = ft
        .ckpt_dir
        .join(format!("step{start_step}"))
        .join("rank0.bglu");
    let saved = checkpoint::read_placement(&shard0).unwrap_or_else(|e| {
        panic!("cannot resume from step {start_step}: checkpoint shard {shard0:?}: {e}")
    });
    Some(match saved {
        Some(meta) if meta == current => Restore::Strict,
        Some(meta) if allow_reshard && meta.n_experts == current.n_experts => Restore::Reshard {
            from_nranks: meta.nranks,
        },
        Some(meta) if allow_reshard => panic!(
            "cannot re-shard checkpoint {shard0:?}: it holds {} experts but this run has {}",
            meta.n_experts, current.n_experts
        ),
        _ => {
            placement_gate(saved, &shard0, current, 0);
            Restore::Strict
        }
    })
}

/// Close a run's trace: the process-wide rows only the driver can record
/// ([`reservoir::record_run`]), then the merge.
fn finish_trace(collector: TraceCollector, host_at_start: Option<HostUsage>) -> Arc<Trace> {
    reservoir::record_run(&collector, host_at_start);
    Arc::new(collector.finish())
}

/// The tensor reservoir is process-wide, so one lane speaks for it: rank 0
/// publishes what every thread did since the last call (see
/// [`names::MEM_RESERVOIR_HIT_BYTES`]). One relaxed load when not tracing.
fn publish_reservoir<C: Communicator>(comm: &C) {
    if comm.rank() == 0 && trace::enabled() {
        reservoir::publish();
    }
}

/// Everything one rank needs to execute training steps, built so that an
/// attempt can restore a checkpoint into it and resume from any step.
struct RankState {
    cfg: TrainConfig,
    model: DistTransformer,
    opt: MixedPrecision,
    task: SyntheticLM,
    seg: Segment,
    ring_steps: u64,
    ring_steps_overlapped: u64,
}

impl RankState {
    /// `restoring`: the caller loads a checkpoint into the model before its
    /// first step, so no weight is drawn (see
    /// [`DistTransformer::new_for_restore`]).
    fn new<C: Communicator>(cfg: TrainConfig, comm: &C, restoring: bool) -> RankState {
        if comm.rank() == 0 && trace::enabled() {
            // Whatever the reservoir did before this run is not this run's.
            reservoir::global().drain_counts();
        }
        let build = if restoring {
            DistTransformer::new_for_restore
        } else {
            DistTransformer::new_placed
        };
        let mut model = {
            let _span = trace::span(names::MODEL_BUILD);
            build(
                cfg.model,
                cfg.seed,
                comm.rank(),
                comm.size(),
                cfg.a2a,
                cfg.resolved_placement(),
            )
        };
        model.set_wire_dtype(cfg.wire);
        // Arm intra/inter-supernode byte accounting and the locality-biased
        // gate whenever a supernode size is known (from the placement or
        // the hierarchical a2a).
        let sn = cfg.effective_supernode_size();
        if sn > 0 {
            comm.set_supernode_size(sn);
        }
        if cfg.locality_bias != 0.0 {
            model.set_locality_bias(cfg.locality_bias, sn);
        }
        let adam = AdamConfig {
            lr: cfg.lr,
            ..Default::default()
        };
        let mut opt = MixedPrecision::new(adam, cfg.dtype);
        if cfg.disable_loss_scaling {
            opt = opt.with_scaler(bagualu_optim::scaler::LossScaler::disabled());
        }
        if let Some(max_norm) = cfg.clip {
            opt = opt.with_clip(max_norm);
        }
        opt.quantize_model(&mut model);
        let task = SyntheticLM::new(cfg.model.vocab, cfg.data, cfg.seed);
        publish_reservoir(comm);
        RankState {
            cfg,
            model,
            opt,
            task,
            seg: Segment::default(),
            ring_steps: 0,
            ring_steps_overlapped: 0,
        }
    }

    /// Execute training step `step`: forward, backward, gradient sync,
    /// optimizer update, cross-rank metric aggregation, optional eval.
    fn step<C: Communicator>(&mut self, step: usize, comm: &C) {
        let _step_span = trace::span(names::STEP);
        let cfg = self.cfg;
        let sync = cfg.dense_sync();

        let (tokens, targets) = self
            .task
            .batch(cfg.batch_per_rank, cfg.seq, comm.rank(), step);
        let logits = {
            let _span = trace::span(names::FORWARD);
            self.model
                .forward(&tokens, cfg.batch_per_rank, cfg.seq, comm)
        };
        let (ce, mut dlogits) = cross_entropy(&logits, &targets);
        let aux = self.model.aux_loss();
        // Routing statistics must be read here: backward consumes the MoE
        // layer caches that hold them.
        let (imb, dropr) = routing_stats(&self.model);
        dlogits.scale(self.opt.loss_scale());
        if sync == DenseSync::Overlapped {
            let s = backward_and_sync_overlapped_wire(
                &mut self.model,
                &dlogits,
                comm,
                cfg.bucket_bytes,
                cfg.wire,
            );
            self.ring_steps += s.ring_steps as u64;
            self.ring_steps_overlapped += s.ring_steps_overlapped as u64;
        } else {
            let _span = trace::span(names::BACKWARD);
            self.model.backward(&dlogits, comm);
        }

        // Sync or scatter, the step every rank agreed to apply or skip
        // (clip via `with_clip`), then the gather under ZeRO.
        sync_and_step(&mut self.model, &mut self.opt, sync, comm);

        // Aggregate the step metrics across ranks.
        // Control-path scalars ride the latency-optimal collective (E16).
        let stats = allreduce_recursive_doubling(
            comm,
            vec![ce, aux, imb as f32, dropr as f32],
            ReduceOp::Sum,
        );
        let r = comm.size() as f32;
        self.seg.loss.push(stats[0] / r);
        self.seg.aux.push(stats[1] / r);
        self.seg.imbalance.push((stats[2] / r) as f64);
        self.seg.drop.push((stats[3] / r) as f64);

        // Held-out evaluation (forward only, no gradient contamination:
        // grads were just zeroed and the backward pass is never run).
        if let Some(every) = cfg.eval_every {
            if step.is_multiple_of(every) || step + 1 == cfg.steps {
                let _span = trace::span(names::EVAL);
                // Step indices far outside the training stream.
                let (tokens, targets) =
                    self.task
                        .batch(cfg.batch_per_rank, cfg.seq, comm.rank(), (1 << 20) + step);
                let logits = self
                    .model
                    .forward(&tokens, cfg.batch_per_rank, cfg.seq, comm);
                let (eval_ce, _) = cross_entropy(&logits, &targets);
                let agg = allreduce_recursive_doubling(comm, vec![eval_ce], ReduceOp::Sum);
                self.seg.eval.push((step, agg[0] / r));
            }
        }
        publish_reservoir(comm);
    }

    /// Pool run-wide counters and close the segment as completed. Uses
    /// blocking collectives, so call only when every rank reached the end.
    fn finish<C: Communicator>(self, comm: &C) -> (Segment, End) {
        let cfg = self.cfg;
        // Pool the overlap counters globally so the fraction reflects the
        // whole job, not just rank 0's slice of the rings.
        let pooled = allreduce_recursive_doubling(
            comm,
            vec![self.ring_steps_overlapped as f32, self.ring_steps as f32],
            ReduceOp::Sum,
        );
        // Divide in f64: the f32 sums are exact (small integer counts), so
        // this matches the trace-derived u64 ratio bit for bit.
        let overlap_fraction = if cfg.dense_sync() == DenseSync::Overlapped {
            Some(if pooled[1] > 0.0 {
                pooled[0] as f64 / pooled[1] as f64
            } else {
                0.0
            })
        } else {
            None
        };

        // Snapshot transport counters after every rank has gone quiet, so
        // the totals are stable and identical in meaning across ranks.
        comm.barrier();
        let comm_stats = comm.stats();
        publish_reservoir(comm);

        let totals = Totals {
            skipped_steps: self.opt.skipped_steps,
            overlap_fraction,
            comm_stats,
        };
        (self.seg, End::Completed(totals))
    }
}

/// What an attempt under an [`FtConfig`] adds to every rank's loop.
struct FtAttempt<'a> {
    ft: &'a FtConfig,
    /// The fault schedule, when the world is armed.
    faults: Option<&'a FaultRuntime>,
    restore: Option<Restore>,
    /// The attempt's layout, gated on restore and recorded in every shard.
    meta: PlacementMeta,
    /// [`FtConfig::straggler_factor`], when this attempt may migrate.
    straggler_factor: Option<f64>,
    /// Each rank's checkpoint writer, indexed by rank.
    writers: Vec<Mutex<WriterSlot>>,
    /// Rank 0's `MANIFEST` writer, while it runs.
    manifest: Mutex<Option<Writer>>,
}

/// A writer thread: it returns the nanoseconds its stage two took.
type Writer = JoinHandle<io::Result<u64>>;

/// Why locking a writer slot cannot fail: nothing panics while holding one.
const UNPOISONED: &str = "no thread panics while holding a checkpoint writer slot";

/// One rank's checkpoint writer in an attempt: stage two of its latest
/// shard, while it runs, and the last step whose shard it made durable.
#[derive(Default)]
struct WriterSlot {
    in_flight: Option<InFlight>,
    durable: Option<usize>,
}

/// Stage two of one shard, running on its writer thread.
struct InFlight {
    step: usize,
    path: PathBuf,
    writer: Writer,
}

/// Wait for `writer` and return what it returned; a panic on the writer
/// thread is raised again in the caller.
fn join(writer: Writer) -> io::Result<u64> {
    let _span = trace::span(names::CKPT_COMMIT_WAIT);
    writer
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

impl FtAttempt<'_> {
    /// Load the checkpoint for `start_step` into `st`, if the attempt
    /// restores one.
    fn restore<C: Communicator>(&self, st: &mut RankState, start_step: usize, comm: &C) {
        let Some(restore) = self.restore else {
            return;
        };
        let dir = self.ft.ckpt_dir.join(format!("step{start_step}"));
        let loaded = match restore {
            Restore::Strict => {
                let path = dir.join(format!("rank{}.bglu", comm.rank()));
                // One pass over the shard yields both the placement record
                // to gate on and the parameters.
                checkpoint::load_params_gated(&path, &mut st.model, |saved| {
                    placement_gate(saved, &path, self.meta, comm.rank())
                })
            }
            Restore::Reshard { from_nranks } => {
                // Cross-layout restore: read every shard of the old world
                // and pull out what this rank's new layout owns (the driver
                // already gated compatibility on rank 0's shard).
                let paths: Vec<PathBuf> = (0..from_nranks)
                    .map(|r| dir.join(format!("rank{r}.bglu")))
                    .collect();
                checkpoint::load_params_from_files(&paths, &mut st.model)
            }
        };
        loaded.unwrap_or_else(|e| {
            panic!(
                "rank {} of {}: cannot restore step-{start_step} checkpoint ({restore:?}): {e}",
                comm.rank(),
                comm.size()
            )
        });
        // Restore the working-precision invariant (no-op for f32); the
        // optimizer captures master weights lazily at its first step, so
        // they come from these restored values.
        st.opt.quantize_model(&mut st.model);
    }

    /// Publish `step` to the fault runtime, fire a crash injected for this
    /// rank at it, and heartbeat, committing a checkpoint taken before an
    /// earlier step. False when the rank must stop: it crashed, or a peer
    /// stopped responding.
    fn before_step(&self, step: usize, comm: &ShmComm) -> bool {
        if let Some(faults) = self.faults {
            // Sustained (step-ranged) degradation windows open and close on
            // the published step.
            faults.set_step(step);
            // Injected fail-stop crash: the rank flags itself dead and goes
            // silent. Peers observe exactly what a real crash looks like —
            // no more messages — while the harness still collects the
            // metric segment this rank had already agreed on. Its writer
            // thread, like a crashed process's page cache, lives on.
            let crash = FaultSpec::Crash {
                rank: comm.rank(),
                at_step: step,
            };
            if faults.fire(crash) {
                comm.mark_self_dead();
                return false;
            }
        }
        self.commit(comm, |at| at < step)
    }

    /// Heartbeat ([`barrier_ft`]): detects dead peers within
    /// `heartbeat_ms`. On failure, flag self dead too so detection
    /// cascades instead of every survivor waiting out its own full timeout.
    fn heartbeat(&self, comm: &ShmComm) -> bool {
        barrier_ft(comm, Duration::from_millis(self.ft.heartbeat_ms.max(1)))
            .inspect_err(|_| comm.mark_self_dead())
            .is_ok()
    }

    /// A heartbeat that commits: join this rank's writer first when `due`
    /// accepts the step it is writing, and once every rank is through the
    /// heartbeat — every rank has the same step in flight, so all joined —
    /// rank 0 has that step named in `MANIFEST`, by a writer thread of its
    /// own. False when a peer stopped responding.
    fn commit(&self, comm: &ShmComm, due: impl FnOnce(usize) -> bool) -> bool {
        let durable = self.join_writer(comm.rank(), due);
        if !self.heartbeat(comm) {
            return false;
        }
        if let (Some(at), 0) = (durable, comm.rank()) {
            self.publish_manifest(at);
        }
        true
    }

    /// Name step `at` in `MANIFEST` on a writer thread, after the previous
    /// manifest writer has finished, so manifests land in step order.
    fn publish_manifest(&self, at: usize) {
        let previous = self.manifest.lock().expect(UNPOISONED).take();
        if let Some(previous) = previous {
            let ns = join(previous).unwrap_or_else(|e| panic!("cannot publish MANIFEST: {e}"));
            trace::count(names::CKPT_FSYNC_NS, ns);
        }
        let dir = self.ft.ckpt_dir.clone();
        let writer = std::thread::Builder::new()
            .name("ckpt-manifest".into())
            .spawn(move || checkpoint::publish_manifest(&dir, at))
            .expect("spawn the MANIFEST writer thread");
        *self.manifest.lock().expect(UNPOISONED) = Some(writer);
    }

    /// Whether `rank` has a shard in stage two.
    fn in_flight(&self, rank: usize) -> bool {
        self.writers[rank]
            .lock()
            .expect(UNPOISONED)
            .in_flight
            .is_some()
    }

    /// Wait for `rank`'s writer if `due` accepts the step it is writing, and
    /// return that step once its shard is durable. A failed stage two
    /// crashes the rank: the shard never became durable, so the previous
    /// step stays the one a restore uses.
    fn join_writer(&self, rank: usize, due: impl FnOnce(usize) -> bool) -> Option<usize> {
        let InFlight { step, path, writer } = {
            let mut slot = self.writers[rank].lock().expect(UNPOISONED);
            if !slot.in_flight.as_ref().is_some_and(|f| due(f.step)) {
                return None;
            }
            slot.in_flight.take()?
        };
        let ns = join(writer).unwrap_or_else(|e| panic!("cannot write checkpoint {path:?}: {e}"));
        trace::count(names::CKPT_FSYNC_NS, ns);
        self.writers[rank].lock().expect(UNPOISONED).durable = Some(step);
        Some(step)
    }

    /// Stage one of this rank's shard of the checkpoint for step `at`: encode
    /// it and `write` it into the kernel, then hand stage two to a writer
    /// thread, joined by the commit at the next step boundary. A checkpoint
    /// still in flight (`ckpt_every` 1) is committed first, so a rank has at
    /// most one. False when a peer died meanwhile.
    fn checkpoint(&self, st: &mut RankState, at: usize, comm: &ShmComm) -> bool {
        let rank = comm.rank();
        if self.in_flight(rank) && !self.commit(comm, |_| true) {
            return false;
        }
        let _span = trace::span(names::CHECKPOINT);
        let dir = self.ft.ckpt_dir.join(format!("step{at}"));
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create checkpoint dir {dir:?}: {e}"));
        let path = dir.join(format!("rank{rank}.bglu"));
        let staged = checkpoint::stage_params_with_meta(&path, &mut st.model, self.meta)
            .unwrap_or_else(|e| panic!("cannot write checkpoint {path:?}: {e}"));
        let lost = self
            .faults
            .is_some_and(|f| f.fire(FaultSpec::LoseShard { rank, step: at }));
        let writer = std::thread::Builder::new()
            .name(format!("ckpt-writer-{rank}"))
            .spawn(move || {
                if lost {
                    staged.discard();
                    return Err(io::Error::other("stage two lost (injected fault)"));
                }
                staged.publish()
            })
            .expect("spawn a checkpoint writer thread");
        self.writers[rank].lock().expect(UNPOISONED).in_flight = Some(InFlight {
            step: at,
            path,
            writer,
        });
        true
    }

    /// After an attempt: wait for every writer still running — the
    /// `MANIFEST` writer first, then the shards' (a crashed rank's staged
    /// shard is in the kernel and still reaches the disk) — and, where the
    /// ranks did not get to it, name in `MANIFEST` the newest step whose
    /// every shard finished stage two. A rank's durable steps are a prefix
    /// of the attempt's checkpoint steps (it starts a stage two only after
    /// joining the last), so the oldest of the ranks' newest durable steps
    /// is durable on every rank. A failed `MANIFEST` writer left the
    /// previous manifest in place, which the commit below supersedes.
    fn drain(&self) {
        let manifest = self.manifest.lock().expect(UNPOISONED).take();
        if let Some(writer) = manifest {
            let _ = writer.join();
        }
        let newest: Option<Vec<usize>> = self
            .writers
            .iter()
            .map(|slot| {
                let mut slot = slot.lock().expect(UNPOISONED);
                if let Some(InFlight { step, writer, .. }) = slot.in_flight.take() {
                    if let Ok(Ok(_)) = writer.join() {
                        slot.durable = Some(step);
                    }
                }
                slot.durable
            })
            .collect();
        let Some(at) = newest.and_then(|steps| steps.into_iter().min()) else {
            return;
        };
        // An unreadable manifest is left for the driver's hard error.
        if matches!(read_manifest(&self.ft.ckpt_dir), Ok(m) if m < Some(at)) {
            checkpoint::publish_manifest(&self.ft.ckpt_dir, at)
                .expect("publish checkpoint manifest");
        }
    }
}

/// The metrics of the steps one rank completed in an attempt, starting at
/// the attempt's start step. They are all-reduced, so every rank's segment
/// is a prefix of the same curves and the driver can splice any of them.
#[derive(Default)]
struct Segment {
    loss: Vec<f32>,
    aux: Vec<f32>,
    imbalance: Vec<f64>,
    drop: Vec<f64>,
    eval: Vec<(usize, f32)>,
}

/// How one rank's attempt ended.
enum End {
    /// Ran through step `cfg.steps - 1` and pooled the run's totals.
    Completed(Totals),
    /// Stopped early — an injected crash on this rank, or a failed
    /// heartbeat because some peer stopped responding.
    Aborted,
    /// Stopped deliberately at the published checkpoint for step `at` so
    /// the driver can re-place expert load away from the flagged straggler
    /// `victim` and continue. Every rank returns the same verdict — the
    /// straggler detector is deterministic over all-reduced samples.
    Migrated {
        /// Checkpoint step (already published) the migrated run resumes at.
        at: usize,
        /// The flagged straggler whose expert load is shed.
        victim: usize,
    },
}

/// What a rank that ran the last step reports besides its curves.
struct Totals {
    skipped_steps: u64,
    overlap_fraction: Option<f64>,
    comm_stats: Option<CommStats>,
}

/// Placement gate for checkpoint restore: a shard written under a different
/// expert↔rank mapping would load each expert's weights into whatever expert
/// now occupies the same slot — fail loudly instead. Called by the driver
/// (with rank 0's shard, so the mismatch surfaces as a hard error rather
/// than a retried crash) and by every rank on its own shard. `saved` is the
/// placement record read from `path` (`None`: the shard predates them).
fn placement_gate(saved: Option<PlacementMeta>, path: &Path, current: PlacementMeta, rank: usize) {
    match saved {
        Some(meta) if meta != current => panic!(
            "rank {rank}: placement mismatch — checkpoint {path:?} was written under \
             placement '{}' ({} experts on {} ranks), but this run uses '{}' \
             ({} experts on {} ranks). Restoring would silently assign experts to \
             the wrong ranks; restart with the original placement or re-shard the \
             checkpoint explicitly.",
            meta.placement,
            meta.n_experts,
            meta.nranks,
            current.placement,
            current.n_experts,
            current.nranks,
        ),
        None if current.placement != ExpertPlacement::RoundRobin => panic!(
            "rank {rank}: placement mismatch — checkpoint {path:?} predates placement \
             metadata (implicitly round-robin), but this run uses '{}'. Restoring \
             would silently assign experts to the wrong ranks.",
            current.placement,
        ),
        _ => {}
    }
}

/// The one per-rank loop: install this rank's compute backends, build (and
/// under an [`FtConfig`], restore) its state, and run steps
/// `start_step..steps` — under an `FtConfig` with a heartbeat before each
/// step, a checkpoint every `ckpt_every` steps and straggler detection.
/// `cfg` is the attempt's: after an elastic resize or a straggler migration
/// it differs from the run's in `nranks`/`placement`.
fn rank_loop(
    cfg: TrainConfig,
    start_step: usize,
    ft: Option<&FtAttempt>,
    comm: &ShmComm,
) -> (Segment, End) {
    // Scope the configured compute backends to this rank's thread: every
    // matmul below — model forward/backward, eval, optimizer-adjacent
    // GEMMs — dispatches to the GEMM backend, and every softmax/layer-norm/
    // Adam pass to the paired row-op tier; nothing outside this rank is
    // affected. Restart attempts run on fresh threads, so each attempt
    // re-installs them.
    let _backend = install_backend(cfg.compute.instantiate());
    let _row_ops = install_row_ops(cfg.compute.instantiate_row_ops());
    let mut st = RankState::new(cfg, comm, ft.is_some_and(|ft| ft.restore.is_some()));
    if let Some(ft) = ft {
        ft.restore(&mut st, start_step, comm);
    }

    // Online straggler detection: every rank contributes its send-occupancy
    // delta (one-hot, summed by the all-reduce), so every rank sees the
    // same per-rank samples and the detector — a pure function of them —
    // reaches the same verdict everywhere with no extra coordination.
    let mut detector = ft.and_then(|ft| {
        let window = ft.ft.straggler_window.max(1);
        (ft.straggler_factor).map(|f| StragglerDetector::new(comm.size(), f, window))
    });
    let mut last_occupancy = comm.send_occupancy_ns().unwrap_or(0);
    let mut pending_victim: Option<usize> = None;

    for step in start_step..cfg.steps {
        if ft.is_some_and(|ft| !ft.before_step(step, comm)) {
            return (st.seg, End::Aborted);
        }
        st.step(step, comm);

        if let Some(det) = detector.as_mut() {
            let occ = comm.send_occupancy_ns().unwrap_or(0);
            let delta = occ.saturating_sub(last_occupancy);
            last_occupancy = occ;
            let mut one_hot = vec![0.0f32; comm.size()];
            one_hot[comm.rank()] = delta as f32;
            let pooled = allreduce_recursive_doubling(comm, one_hot, ReduceOp::Sum);
            let samples: Vec<f64> = pooled.iter().map(|&s| s as f64).collect();
            if pending_victim.is_none() {
                if let Some(victim) = det.observe(&samples) {
                    pending_victim = Some(victim);
                    // One count per flag *event*: every rank reached this
                    // verdict, so only rank 0 records it.
                    if comm.rank() == 0 {
                        trace::count(names::STRAGGLER_FLAGGED, 1);
                    }
                }
            }
        }

        let next_step = step + 1;
        if let Some(ft) =
            ft.filter(|ft| next_step.is_multiple_of(ft.ft.ckpt_every) && next_step < cfg.steps)
        {
            if !ft.checkpoint(&mut st, next_step, comm) {
                return (st.seg, End::Aborted);
            }
            // Migration is amortized to checkpoint boundaries: once the
            // shard set for `next_step` is durable and the manifest
            // published, the re-placed world can restore from it
            // consistently.
            if let Some(victim) = pending_victim {
                if !ft.commit(comm, |_| true) {
                    return (st.seg, End::Aborted);
                }
                return (
                    st.seg,
                    End::Migrated {
                        at: next_step,
                        victim,
                    },
                );
            }
        }
    }
    // A checkpoint taken before the last step has no next boundary.
    if ft.is_some_and(|ft| ft.in_flight(comm.rank()) && !ft.commit(comm, |_| true)) {
        return (st.seg, End::Aborted);
    }
    st.finish(comm)
}

/// Copy a curve segment computed from step `at` into the global curve.
fn splice<T: Copy>(at: usize, src: &[T], dst: &mut [T]) {
    dst[at..at + src.len()].copy_from_slice(src);
}

/// Read the latest published checkpoint step. The two failure shapes are
/// deliberately distinct: `Ok(None)` means no manifest exists yet (a clean
/// first crash before any checkpoint — resume from the configured step),
/// while `Err` means a manifest *exists* but cannot be read or parsed.
/// Silently falling back on the latter would quietly replay from the wrong
/// step; the driver escalates it to a hard error instead.
fn read_manifest(dir: &Path) -> std::io::Result<Option<usize>> {
    let text = match std::fs::read_to_string(dir.join("MANIFEST")) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let step = text
        .split_whitespace()
        .next()
        .and_then(|tok| tok.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("manifest does not name a step: {text:?}"),
            )
        })?;
    Ok(Some(step))
}

/// Pull imbalance/drop statistics from the first MoE block's last routing.
fn routing_stats(model: &DistTransformer) -> (f64, f64) {
    use bagualu_parallel::model_dist::DistFfn;
    for b in &model.blocks {
        if let DistFfn::MoE(moe) = &b.ffn {
            if let Some(r) = moe.last_routing() {
                return (r.imbalance(), r.drop_rate());
            }
        }
    }
    (1.0, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagualu_model::param::HasParams;

    #[test]
    fn trains_and_learns_on_synthetic_task() {
        let cfg = TrainConfig {
            steps: 40,
            lr: 2e-2,
            ..Default::default()
        };
        let report = Trainer::new(cfg).run();
        assert_eq!(report.loss_curve.len(), 40);
        let first = report.loss_curve[0];
        let last = report.final_loss();
        assert!(last < first * 0.8, "no learning: {first} -> {last}");
        assert!(report.tokens_per_sec > 0.0);
        assert_eq!(report.total_tokens, 2 * 2 * 8 * 40);
    }

    #[test]
    fn single_rank_matches_multi_rank_loss_curve() {
        // Same global batch split across ranks: curves must match closely
        // (not exactly — summation order differs in the all-reduce).
        let base = TrainConfig {
            steps: 6,
            batch_per_rank: 4,
            nranks: 1,
            ..Default::default()
        };
        let r1 = Trainer::new(base).run();
        let r2 = Trainer::new(TrainConfig {
            nranks: 2,
            batch_per_rank: 2,
            ..base
        })
        .run();
        // Different ranks draw different data, so only the trend is
        // comparable; check both learn and stay finite.
        assert!(r1.loss_curve.iter().all(|l| l.is_finite()));
        assert!(r2.loss_curve.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn mixed_precision_trains() {
        let cfg = TrainConfig {
            steps: 20,
            dtype: DType::BF16,
            ..Default::default()
        };
        let report = Trainer::new(cfg).run();
        assert!(report.final_loss().is_finite());
        assert!(report.final_loss() < report.loss_curve[0]);
    }

    #[test]
    fn compressed_wire_trains_close_to_f32() {
        // The bf16 wire rounds every hop of the gradient rings and the MoE
        // all-to-alls; training must still converge, and the final loss must
        // stay within 1% of the uncompressed run (E24 pins the same bound
        // with eval loss at larger scale).
        let base = TrainConfig {
            steps: 40,
            lr: 2e-2,
            nranks: 4,
            ..Default::default()
        };
        let exact = Trainer::new(base).run();
        for wire in [WireDType::BF16, WireDType::F16] {
            let compressed = Trainer::new(TrainConfig { wire, ..base }).run();
            let (a, b) = (exact.final_loss(), compressed.final_loss());
            // Near the convergence floor (~0.08 here) per-hop rounding
            // jitters the trajectory like a different summation order
            // would, so the bound is 1% relative with an absolute floor;
            // E24 pins the strict <1% relative bound at a higher loss.
            assert!(
                (a - b).abs() <= (0.01 * a.abs()).max(0.02),
                "{wire} wire degraded final loss: f32={a} vs {b}"
            );
        }
    }

    #[test]
    fn f32_wire_is_bit_identical_to_default() {
        // WireDType::F32 must share the exact code path (pack is a no-op
        // wrap), so the loss curves agree bit for bit.
        let base = TrainConfig {
            steps: 10,
            ..Default::default()
        };
        let a = Trainer::new(base).run();
        let b = Trainer::new(TrainConfig {
            wire: WireDType::F32,
            ..base
        })
        .run();
        assert_eq!(a.loss_curve, b.loss_curve);
    }

    #[test]
    fn hierarchical_a2a_trains() {
        let cfg = TrainConfig {
            nranks: 4,
            steps: 8,
            a2a: A2aKind::Hierarchical { supernode_size: 2 },
            ..Default::default()
        };
        let report = Trainer::new(cfg).run();
        assert!(report.final_loss().is_finite());
    }

    #[test]
    fn skewed_data_raises_imbalance() {
        // Enough steps/tokens that the comparison reflects the distributions
        // rather than per-seed routing noise in the first few steps.
        let base = TrainConfig {
            steps: 16,
            batch_per_rank: 4,
            ..Default::default()
        };
        let uniform = Trainer::new(TrainConfig {
            data: TokenDistribution::Uniform,
            ..base
        })
        .run();
        let burst = Trainer::new(TrainConfig {
            data: TokenDistribution::Burst,
            ..base
        })
        .run();
        let u: f64 = uniform.imbalance_curve.iter().sum::<f64>() / 16.0;
        let b: f64 = burst.imbalance_curve.iter().sum::<f64>() / 16.0;
        assert!(b >= u, "burst should be at least as imbalanced: {b} vs {u}");
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn rejects_indivisible_expert_count() {
        Trainer::new(TrainConfig {
            nranks: 3,
            ..Default::default()
        });
    }

    #[test]
    fn rejects_a_clip_that_cannot_clip() {
        // −1 would scale every gradient by −1/norm (gradient ascent), 0
        // would zero them all, and NaN would never clip.
        for max_norm in [-1.0, 0.0, f32::NAN] {
            let built = std::panic::catch_unwind(|| {
                Trainer::new(TrainConfig {
                    clip: Some(max_norm),
                    ..Default::default()
                })
            });
            let msg = *built
                .err()
                .unwrap_or_else(|| panic!("clip {max_norm} was accepted"))
                .downcast::<String>()
                .unwrap();
            assert!(msg.contains("clip must be finite and > 0"), "{msg}");
        }
    }

    #[test]
    fn zero_optimizer_matches_replicated_training() {
        for dtype in [DType::F32, DType::F16, DType::BF16] {
            let base = TrainConfig {
                steps: 12,
                clip: None,
                dtype,
                ..Default::default()
            };
            let rep = Trainer::new(base).run();
            let zero = Trainer::new(TrainConfig {
                zero_optimizer: true,
                ..base
            })
            .run();
            for (a, b) in rep.loss_curve.iter().zip(&zero.loss_curve) {
                assert!(
                    (a - b).abs() < 1e-3,
                    "{dtype:?}: ZeRO changed training: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn eval_curve_tracks_held_out_loss() {
        let cfg = TrainConfig {
            steps: 41,
            eval_every: Some(10),
            ..Default::default()
        };
        let r = Trainer::new(cfg).run();
        // Evals at 0, 10, 20, 30, 40 (last step included).
        let steps: Vec<usize> = r.eval_curve.iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![0, 10, 20, 30, 40]);
        let first = r.eval_curve[0].1;
        let last = r.eval_curve.last().unwrap().1;
        assert!(
            last < first,
            "held-out loss did not improve: {first} -> {last}"
        );
        // Held-out data is the same mapping, so eval ≈ train loss late on.
        assert!((last - r.final_loss()).abs() < 1.0);
    }

    #[test]
    fn overlapped_sync_matches_blocking_sync() {
        // Bucketed overlapped all-reduce vs. monolithic blocking all-reduce:
        // same training trajectory up to summation order. A small bucket
        // forces many buckets per step so the overlap machinery is actually
        // exercised.
        let base = TrainConfig {
            steps: 8,
            overlap: false,
            ..Default::default()
        };
        let blocking = Trainer::new(base).run();
        let overlapped = Trainer::new(TrainConfig {
            overlap: true,
            bucket_bytes: 1 << 10,
            ..base
        })
        .run();
        for (a, b) in blocking.loss_curve.iter().zip(&overlapped.loss_curve) {
            assert!((a - b).abs() < 1e-3, "overlap changed training: {a} vs {b}");
        }
        assert_eq!(blocking.overlap_fraction, None, "overlap off → no fraction");
        let of = overlapped
            .overlap_fraction
            .expect("overlap on → measured fraction");
        assert!(of > 0.0, "no measured overlap at 2 ranks: {of}");
        assert!(of <= 1.0);
        // The shared-memory transport counts traffic per collective family.
        let stats = overlapped.comm_stats.expect("ShmComm collects stats");
        use bagualu_comm::CommFamily;
        assert!(stats.family(CommFamily::Allreduce).bytes > 0);
        assert!(stats.total_bytes >= stats.family(CommFamily::Allreduce).bytes);
    }

    #[test]
    fn trace_derived_overlap_matches_timer_derived_exactly() {
        // The report's fraction is pooled by an f32 sum-allreduce of small
        // integer counts (exact) and divided in f64; the trace derives the
        // same integers from per-rank counters. The two must agree to 1e-9
        // (in fact bit for bit).
        let cfg = TrainConfig {
            steps: 6,
            bucket_bytes: 1 << 10, // many buckets: exercise the machinery
            trace: true,
            ..Default::default()
        };
        let r = Trainer::new(cfg).run();
        let trace = r.trace.as_ref().expect("trace requested");
        let from_trace = trace.overlap_fraction().expect("ring steps recorded");
        let from_timer = r.overlap_fraction.expect("overlap enabled");
        assert!(
            (from_trace - from_timer).abs() < 1e-9,
            "trace-derived {from_trace} vs timer-derived {from_timer}"
        );
    }

    #[test]
    fn trace_records_step_phases_and_comm_counters() {
        let cfg = TrainConfig {
            steps: 4,
            eval_every: Some(2),
            trace: true,
            ..Default::default()
        };
        let r = Trainer::new(cfg).run();
        let trace = r.trace.as_ref().expect("trace requested");
        assert_eq!(trace.ranks.len(), cfg.nranks);
        for rank in 0..cfg.nranks {
            let lane = trace.lane(rank).expect("lane per rank");
            lane.check_balanced().expect("span stack balanced");
            assert_eq!(lane.span_count(names::STEP), cfg.steps as u64);
            // Training forwards only; eval forwards live inside EVAL spans.
            assert_eq!(lane.span_count(names::FORWARD), cfg.steps as u64);
            assert_eq!(lane.span_count(names::EVAL), 3, "evals at steps 0, 2, 3");
            assert_eq!(lane.span_count(names::GRAD_SYNC), cfg.steps as u64);
            assert!(lane.span_total_ns(names::STEP) >= lane.span_total_ns(names::FORWARD));
        }
        // Transport counters mirror CommStats exactly: every send the
        // transport counted was recorded by the sending rank's lane.
        let stats = r.comm_stats.expect("ShmComm collects stats");
        for (family, fam_stats) in stats.families() {
            let (bytes_name, msgs_name) = family.sent_counter_names();
            assert_eq!(
                trace.counter_total(bytes_name),
                fam_stats.bytes,
                "family {family:?} bytes"
            );
            assert_eq!(
                trace.counter_total(msgs_name),
                fam_stats.msgs,
                "family {family:?} msgs"
            );
            // Everything sent was received (the run drained all queues).
            let (rbytes, rmsgs) = family.recv_counter_names();
            assert_eq!(trace.counter_total(rbytes), fam_stats.bytes);
            assert_eq!(trace.counter_total(rmsgs), fam_stats.msgs);
        }
        let by_family = trace.sent_bytes_by_family();
        let total: u64 = by_family.iter().map(|(_, b)| b).sum();
        assert_eq!(total, stats.total_bytes);
        // The export is loadable (structurally valid) end to end.
        bagualu_trace::chrome::validate_chrome_json(&trace.to_chrome_json())
            .expect("chrome export valid");
        assert_eq!(trace.total_dropped(), 0, "default capacity must not wrap");
    }

    #[test]
    fn ft_trace_records_checkpoints_and_recovery() {
        let cfg = TrainConfig {
            steps: 10,
            ..Default::default()
        };
        let dir = ft_tmpdir("trace");
        let r = Trainer::new(TrainConfig { trace: true, ..cfg }).run_ft(&crash_1_at_6(&dir));
        assert_eq!(r.restarts, 1);
        let trace = r.trace.as_ref().expect("trace requested");
        // Driver lane: one recovery span, one restart counted.
        let driver = trace.lane(DRIVER_LANE).expect("driver lane recorded");
        assert_eq!(driver.span_count(names::RECOVERY), 1);
        assert_eq!(driver.counter_total(names::RESTARTS), 1);
        assert!(driver.span_total_ns(names::RECOVERY) > 0);
        // Rank lanes span both attempts and stay balanced; checkpoints
        // were recorded (steps 4 and 8 on each attempt's surviving ranks).
        for rank in 0..cfg.nranks {
            let lane = trace.lane(rank).expect("rank lane");
            lane.check_balanced()
                .expect("balanced across restart attempts");
            assert!(lane.span_count(names::CHECKPOINT) >= 2);
            // The span's breakdown: each save recorded its stages, and the
            // restart restored from disk.
            for counter in [
                names::CKPT_ENCODE_CRC_NS,
                names::CKPT_WRITE_NS,
                names::CKPT_FSYNC_NS,
                names::CKPT_BYTES_WRITTEN,
                names::CKPT_BYTES_READ,
            ] {
                assert!(lane.counter_total(counter) > 0, "rank {rank}: {counter}");
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Rank 1 crashes at step 6; checkpoints every 4 steps into `dir`.
    fn crash_1_at_6(dir: &Path) -> FtConfig {
        FtConfig {
            plan: FaultPlan::none().crash(1, 6),
            ckpt_every: 4,
            heartbeat_ms: 200,
            ..FtConfig::new(dir)
        }
    }

    /// A fault-free `run_ft` of `cfg` into `dir`: a checkpoint every
    /// `ckpt_every` steps (0: none), starting at `resume_step`.
    fn ft_run(cfg: TrainConfig, dir: &Path, ckpt_every: usize, resume_step: usize) -> TrainReport {
        Trainer::new(cfg).run_ft(&FtConfig {
            ckpt_every,
            resume_step,
            ..FtConfig::new(dir)
        })
    }

    fn ft_tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("bagualu-ft-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn ft_run_with_empty_plan_matches_plain_run() {
        let cfg = TrainConfig {
            steps: 8,
            ..Default::default()
        };
        let plain = Trainer::new(cfg).run();
        let dir = ft_tmpdir("noop");
        let fault_free = ft_run(cfg, &dir, 0, 0);
        assert_eq!(fault_free.restarts, 0);
        assert_eq!(fault_free.lost_steps, 0);
        assert_eq!(plain.loss_curve, fault_free.loss_curve);
        assert_eq!(plain.eval_curve, fault_free.eval_curve);
        assert_eq!(plain.aux_curve, fault_free.aux_curve);
        assert_eq!(plain.imbalance_curve, fault_free.imbalance_curve);
        assert_eq!(plain.drop_curve, fault_free.drop_curve);
        assert_eq!(plain.total_tokens, fault_free.total_tokens);
        assert_eq!(plain.overlap_fraction, fault_free.overlap_fraction);
        assert_eq!(plain.skipped_steps, fault_free.skipped_steps);
        assert_eq!(plain.placement, fault_free.placement);

        // `run` sends no heartbeat; `run_ft` sends one `barrier_ft` per step
        // (at 2 ranks, one recursive-doubling exchange: 2 messages). The
        // heartbeat rides the metric all-reduces' tag, so compare totals.
        let world = World::new(cfg.nranks);
        run_ranks_ft(&world, |c| barrier_ft(&c, Duration::from_secs(5)));
        let hb = world.stats();
        let (hb_bytes, hb_msgs) = (hb.total_bytes, hb.total_msgs);
        assert_eq!(hb_msgs, 2);
        let steps = cfg.steps as u64;
        let (p, f) = (plain.comm_stats.unwrap(), fault_free.comm_stats.unwrap());
        assert_eq!(f.total_msgs, p.total_msgs + steps * hb_msgs);
        assert_eq!(f.total_bytes, p.total_bytes + steps * hb_bytes);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn the_next_steps_heartbeat_commits_each_checkpoint() {
        // A checkpoint's writer is joined, and its step committed, at the
        // heartbeat before the step after it: no heartbeat of its own.
        // Only a checkpoint with no such heartbeat left — the next save
        // comes first (`ckpt_every` 1), or the run ends — adds one.
        let cfg = TrainConfig {
            steps: 6,
            ..Default::default()
        };
        let plain = Trainer::new(cfg).run();
        let world = World::new(cfg.nranks);
        run_ranks_ft(&world, |c| barrier_ft(&c, Duration::from_secs(5)));
        let hb_msgs = world.stats().total_msgs;
        let bits =
            |r: &TrainReport| -> Vec<u32> { r.loss_curve.iter().map(|l| l.to_bits()).collect() };
        // (ckpt_every, extra heartbeats, step MANIFEST names at the end)
        for (every, extra, last) in [(4, 0, 4), (5, 1, 5), (1, 5, 5)] {
            let dir = ft_tmpdir(&format!("commit-{every}"));
            let r = ft_run(cfg, &dir, every, 0);
            assert_eq!(bits(&r), bits(&plain), "ckpt_every {every}");
            let (p, f) = (plain.comm_stats.unwrap(), r.comm_stats.unwrap());
            let heartbeats = cfg.steps as u64 + extra;
            assert_eq!(
                f.total_msgs,
                p.total_msgs + heartbeats * hb_msgs,
                "ckpt_every {every}"
            );
            assert_eq!(read_manifest(&dir).unwrap(), Some(last));
            for step in (every..cfg.steps).step_by(every) {
                for rank in 0..cfg.nranks {
                    let shard = dir
                        .join(format!("step{step}"))
                        .join(format!("rank{rank}.bglu"));
                    assert!(shard.exists(), "{shard:?}");
                    assert!(!shard.with_extension("bglu.tmp").exists());
                }
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn resumed_run_counts_only_the_steps_it_ran() {
        let cfg = TrainConfig {
            steps: 6,
            ..Default::default()
        };
        let dir = ft_tmpdir("tokens-resume");
        ft_run(cfg, &dir, 4, 0);
        // Steps 4 and 5, on 2 ranks.
        let (b, s) = (cfg.batch_per_rank, cfg.seq);
        assert_eq!(ft_run(cfg, &dir, 0, 4).total_tokens, 2 * 2 * b * s);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn elastic_run_counts_each_step_at_the_width_it_last_ran_on() {
        let (n, k) = (8, 4);
        let cfg = TrainConfig {
            steps: n,
            ..Default::default()
        };
        let dir = ft_tmpdir("tokens-elastic");
        // Rank 1 dies at step 6, after the step-4 checkpoint: steps 0..4
        // ran last on 2 ranks, steps 4..8 (4 and 5 re-executed) on 1.
        let r = Trainer::new(cfg).run_ft(&FtConfig {
            elastic: true,
            ..crash_1_at_6(&dir)
        });
        assert_eq!((r.restarts, r.resizes, r.lost_steps), (1, 1, 2));
        let (b, s) = (cfg.batch_per_rank, cfg.seq);
        assert_eq!(r.total_tokens, k * 2 * b * s + (n - k) * b * s);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn crash_recovers_from_checkpoint_and_matches_reference() {
        let cfg = TrainConfig {
            steps: 10,
            ..Default::default()
        };
        let dir = ft_tmpdir("crash");

        // Rank 1 crashes at step 6; checkpoints land at steps 4 and 8.
        let faulted = Trainer::new(cfg).run_ft(&crash_1_at_6(&dir));
        assert_eq!(faulted.restarts, 1, "one crash → one restart");
        assert_eq!(faulted.lost_steps, 2, "crash at 6, restored from 4");
        assert!(faulted.recovery_time_s > 0.0);
        assert_eq!(faulted.loss_curve.len(), 10);
        assert!(faulted.loss_curve.iter().all(|l| l.is_finite()));

        // Reference: a fault-free run resumed from the same step-4
        // checkpoint must produce bit-identical steps 4..10 — recovery adds
        // nothing beyond what restart-from-checkpoint itself does.
        let reference = ft_run(cfg, &dir, 0, 4);
        assert_eq!(reference.restarts, 0);
        assert_eq!(faulted.loss_curve[4..], reference.loss_curve[4..]);
        assert_eq!(faulted.final_loss(), reference.final_loss());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn crash_before_any_checkpoint_restarts_from_scratch() {
        let cfg = TrainConfig {
            steps: 6,
            ..Default::default()
        };
        let dir = ft_tmpdir("scratch");
        let ft = FtConfig {
            plan: FaultPlan::none().crash(0, 2),
            ckpt_every: 0, // never checkpoint: recovery = full re-run
            heartbeat_ms: 200,
            ..FtConfig::new(&dir)
        };
        let r = Trainer::new(cfg).run_ft(&ft);
        assert_eq!(r.restarts, 1);
        assert_eq!(r.lost_steps, 2, "steps 0 and 1 were re-executed");
        // The re-run from scratch is deterministic, so the curve matches a
        // plain fault-free run exactly.
        let plain = Trainer::new(cfg).run();
        assert_eq!(r.loss_curve, plain.loss_curve);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[should_panic(expected = "giving up after")]
    fn repeated_crashes_exhaust_max_restarts() {
        let cfg = TrainConfig {
            steps: 6,
            ..Default::default()
        };
        let dir = ft_tmpdir("giveup");
        let ft = FtConfig {
            plan: FaultPlan::none().crash(0, 1).crash(0, 2).crash(0, 3),
            ckpt_every: 0,
            max_restarts: 2,
            heartbeat_ms: 200,
            ..FtConfig::new(&dir)
        };
        Trainer::new(cfg).run_ft(&ft);
    }

    /// Loss bits of `TrainConfig { steps: 8, nranks: 4, ..Default }` under
    /// the default round-robin placement — the one absolute pin; every
    /// other bit-identity test compares two runs of the same build. First
    /// captured on the commit *before* the placement refactor, which moved
    /// the round-robin expert↔rank arithmetic behind [`ExpertPlacement`]
    /// without changing a single operation on the default path.
    /// Re-recorded once, when GELU's `tanh` moved from the host's libm
    /// (whose bits Rust leaves unspecified) to the in-crate
    /// `tensor::ops::elementwise::tanh`: the loss moved by at most 2 in the
    /// last place (`0x40700852` → `0x40700850` at step 8), the aux loss by
    /// at most 10. Re-recorded once more when Box–Muller moved from the
    /// host's f64 `ln`/`sin`/`cos` to the in-crate `tensor::math`, which
    /// moved 36 % of the initial weights by at most 3 in the last place
    /// (4.8e-7 absolute): the loss moved by at most 1 in the last place
    /// (`0x40700850` → `0x40700851` at step 8), the aux loss by at most 14.
    /// Re-recorded a third time when NT became NN on Bᵀ, summing each
    /// element's products in ascending `k` instead of four interleaved
    /// chains: the loss moved by at most 2 in the last place (`0x40700851`
    /// → `0x40700852` at step 8), the aux loss by at most 4. Re-recorded a
    /// fourth time when every softmax moved from libm's `expf` to the
    /// in-crate `tensor::math::exp` (sums in lanes by element index, results
    /// below 2⁻¹²⁶ flushed to `+0`): the loss moved by at most 2 in the last
    /// place (step 8 unchanged at `0x40700852`), the aux loss by at most 9.
    /// Causal attention's fused kernels moved no bit.
    const PIN_LOSS_BITS: [u32; 8] = [
        0x408e3732, 0x408c4066, 0x408da96f, 0x4083e0bc, 0x408334ec, 0x407d9cee, 0x4075d911,
        0x40700852,
    ];
    /// Aux-loss bits of the same run (see [`PIN_LOSS_BITS`]).
    const PIN_AUX_BITS: [u32; 8] = [
        0x3cb2accb, 0x3c7c26ba, 0x3c90ffe6, 0x3c9d6abd, 0x3c6a33fa, 0x3c59533b, 0x3c41c2c6,
        0x3c609b29,
    ];

    /// Final loss of `TrainConfig::default()` (2 ranks, 10 steps) at the
    /// last commit whose GELU called libm's `tanhf` (glibc 2.36).
    const LIBM_GELU_DEFAULT_FINAL_LOSS: f32 = 4.135935;

    #[test]
    fn in_crate_tanh_lands_within_a_tenth_of_a_percent_of_the_libm_run() {
        let loss = Trainer::new(TrainConfig::default()).run().final_loss();
        let rel = (loss - LIBM_GELU_DEFAULT_FINAL_LOSS).abs() / LIBM_GELU_DEFAULT_FINAL_LOSS;
        assert!(
            rel < 1e-3,
            "final loss {loss} vs {LIBM_GELU_DEFAULT_FINAL_LOSS}"
        );
    }

    #[test]
    fn round_robin_training_is_pinned_bit_identical_to_pre_refactor() {
        let r = Trainer::new(TrainConfig {
            steps: 8,
            nranks: 4,
            ..Default::default()
        })
        .run();
        assert_eq!(r.placement, ExpertPlacement::RoundRobin);
        let loss: Vec<u32> = r.loss_curve.iter().map(|l| l.to_bits()).collect();
        let aux: Vec<u32> = r.aux_curve.iter().map(|l| l.to_bits()).collect();
        assert_eq!(loss, PIN_LOSS_BITS, "loss curve drifted from the pin");
        assert_eq!(aux, PIN_AUX_BITS, "aux curve drifted from the pin");
    }

    #[test]
    fn placement_policies_reproduce_the_round_robin_curves() {
        // Placement is pure data movement: every expert still sees exactly
        // the same rows in the same (source rank, position) order no matter
        // which rank hosts it, so all three policies must land on the
        // pinned round-robin bits exactly.
        for placement in [
            ExpertPlacement::Block,
            ExpertPlacement::Supernode { supernode_size: 2 },
        ] {
            let r = Trainer::new(TrainConfig {
                steps: 8,
                nranks: 4,
                placement,
                ..Default::default()
            })
            .run();
            assert_eq!(r.placement, placement);
            let loss: Vec<u32> = r.loss_curve.iter().map(|l| l.to_bits()).collect();
            let aux: Vec<u32> = r.aux_curve.iter().map(|l| l.to_bits()).collect();
            assert_eq!(loss, PIN_LOSS_BITS, "{placement}: loss curve differs");
            assert_eq!(aux, PIN_AUX_BITS, "{placement}: aux curve differs");
        }
    }

    #[test]
    fn tiled_compute_reproduces_the_pinned_curves() {
        // The tiled backend reorders *which* element is computed when,
        // never the additions within one element — so an entire training
        // run must land on the same pre-refactor bits as Reference.
        let r = Trainer::new(TrainConfig {
            steps: 8,
            nranks: 4,
            compute: ComputeBackend::Tiled,
            ..Default::default()
        })
        .run();
        let loss: Vec<u32> = r.loss_curve.iter().map(|l| l.to_bits()).collect();
        let aux: Vec<u32> = r.aux_curve.iter().map(|l| l.to_bits()).collect();
        assert_eq!(loss, PIN_LOSS_BITS, "tiled: loss curve differs");
        assert_eq!(aux, PIN_AUX_BITS, "tiled: aux curve differs");
    }

    #[test]
    fn half_compute_bf16_trains_within_the_mixed_precision_band() {
        // End-to-end 16-bit *compute*: every GEMM operand is stored and
        // multiplied in bf16 with f32 accumulation. Same acceptance band as
        // the 16-bit wire (E24): converge, and land within 1% relative /
        // 0.02 absolute of the f32 run's final loss — read where the curve
        // has flattened, as the mean of the last 8 of 60 steps (0.016 vs
        // 0.019, gap 0.003). At step 40 the loss still falls tenfold per
        // ten steps, so a single-step gap there (0.020) is the distance
        // between two points on a steep slope and follows the last bits of
        // GELU, not the precision of the GEMMs.
        let base = TrainConfig {
            steps: 60,
            lr: 2e-2,
            nranks: 4,
            ..Default::default()
        };
        let exact = Trainer::new(base).run();
        let half = Trainer::new(TrainConfig {
            compute: ComputeBackend::Half(DType::BF16),
            ..base
        })
        .run();
        assert!(half.final_loss() < half.loss_curve[0], "did not converge");
        let tail = |r: &TrainReport| r.loss_curve[52..].iter().sum::<f32>() / 8.0;
        let (a, b) = (tail(&exact), tail(&half));
        assert!(
            (a - b).abs() <= (0.01 * a.abs()).max(0.02),
            "bf16 compute degraded final loss: f32={a} vs {b}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid compute backend")]
    fn half_f32_compute_is_rejected_at_construction() {
        Trainer::new(TrainConfig {
            compute: ComputeBackend::Half(DType::F32),
            ..Default::default()
        });
    }

    #[test]
    fn supernode_placement_size_is_inferred_from_hierarchical_a2a() {
        let r = Trainer::new(TrainConfig {
            steps: 4,
            nranks: 4,
            a2a: A2aKind::Hierarchical { supernode_size: 2 },
            placement: ExpertPlacement::Supernode { supernode_size: 0 },
            ..Default::default()
        })
        .run();
        assert_eq!(
            r.placement,
            ExpertPlacement::Supernode { supernode_size: 2 }
        );
        assert!(r.final_loss().is_finite());
    }

    #[test]
    #[should_panic(expected = "needs an explicit size")]
    fn supernode_placement_without_a_size_source_is_rejected() {
        Trainer::new(TrainConfig {
            nranks: 4,
            placement: ExpertPlacement::Supernode { supernode_size: 0 },
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "invalid a2a configuration")]
    fn zero_supernode_a2a_is_rejected_at_construction() {
        Trainer::new(TrainConfig {
            nranks: 4,
            a2a: A2aKind::Hierarchical { supernode_size: 0 },
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "exceeds world size")]
    fn oversized_supernode_placement_is_rejected() {
        Trainer::new(TrainConfig {
            nranks: 2,
            placement: ExpertPlacement::Supernode { supernode_size: 4 },
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn non_dividing_supernode_placement_is_rejected() {
        Trainer::new(TrainConfig {
            nranks: 4,
            placement: ExpertPlacement::Supernode { supernode_size: 3 },
            ..Default::default()
        });
    }

    #[test]
    fn locality_bias_raises_the_measured_intra_supernode_fraction() {
        // With a supernode-aware placement the gate's locality bonus should
        // steer tokens toward experts hosted inside the sender's supernode,
        // raising the measured share of a2a bytes that stay local. The
        // pairwise transport keeps the wire classification equal to the
        // logical token locality.
        let base = TrainConfig {
            steps: 8,
            nranks: 4,
            placement: ExpertPlacement::Supernode { supernode_size: 2 },
            ..Default::default()
        };
        let unbiased = Trainer::new(base).run();
        let biased = Trainer::new(TrainConfig {
            locality_bias: 8.0,
            ..base
        })
        .run();
        assert!(biased.final_loss().is_finite());
        let f0 = unbiased
            .comm_stats
            .as_ref()
            .and_then(|s| s.a2a_local_fraction())
            .expect("supernode accounting armed");
        let f1 = biased
            .comm_stats
            .as_ref()
            .and_then(|s| s.a2a_local_fraction())
            .expect("supernode accounting armed");
        assert!(
            f1 > f0,
            "locality bias did not raise the local fraction: {f1} vs {f0}"
        );
    }

    #[test]
    #[should_panic(expected = "placement mismatch")]
    fn resuming_under_a_different_placement_is_a_hard_error() {
        let dir = ft_tmpdir("placement-mismatch");
        let cfg = TrainConfig {
            steps: 8,
            ..Default::default()
        };
        // Write a step-4 checkpoint under the default round-robin mapping…
        ft_run(cfg, &dir, 4, 0);
        // …then try to resume it under block placement. The experts would
        // land on the wrong ranks, so this must die loudly instead.
        let block = TrainConfig {
            placement: ExpertPlacement::Block,
            ..cfg
        };
        let _ = ft_run(block, &dir, 0, 4);
    }

    #[test]
    fn resume_reads_each_ranks_shard_exactly_once() {
        // Placement gate and parameter load share one pass, and the driver's
        // pre-flight on rank 0's shard is a header walk off the rank lanes:
        // what a restoring rank pulls from disk is its shard, once. And what
        // it draws from the init stream is nothing — while a fresh rank draws
        // exactly the weights it owns and steps past the rest of the model.
        let dir = ft_tmpdir("read-once");
        let cfg = TrainConfig {
            steps: 6,
            trace: true,
            ..Default::default()
        };
        let fresh = ft_run(cfg, &dir, 4, 0);
        let resumed = ft_run(cfg, &dir, 0, 4);
        // Drawn weights are the matrices; biases and norms are constants.
        fn weights(m: &mut dyn HasParams) -> u64 {
            let mut n = 0;
            m.visit_params(&mut |p| n += if p.value.ndim() == 2 { p.numel() } else { 0 });
            n as u64
        }
        let full = weights(&mut bagualu_model::transformer::Transformer::new(
            cfg.model,
            &mut bagualu_tensor::rng::Rng::seed_from(cfg.seed),
        ));
        let (fresh, resumed) = (fresh.trace.unwrap(), resumed.trace.unwrap());
        for rank in 0..cfg.nranks {
            let shard = dir.join("step4").join(format!("rank{rank}.bglu"));
            let lane = resumed.lane(rank).expect("rank lane");
            assert_eq!(
                lane.counter_total(names::CKPT_BYTES_READ),
                std::fs::metadata(&shard).unwrap().len(),
                "rank {rank}"
            );
            assert_eq!(lane.span_count(names::MODEL_BUILD), 1);
            assert_eq!(lane.counter_total(names::INIT_DRAWN_ELEMS), 0);
            assert_eq!(lane.counter_total(names::INIT_SKIPPED_ELEMS), full);

            let lane = fresh.lane(rank).expect("rank lane");
            let owned = weights(&mut DistTransformer::new_placed(
                cfg.model,
                cfg.seed,
                rank,
                cfg.nranks,
                cfg.a2a,
                cfg.resolved_placement(),
            ));
            assert!(owned < full, "rank {rank} owns the whole model");
            assert_eq!(lane.span_count(names::MODEL_BUILD), 1);
            assert_eq!(lane.counter_total(names::INIT_DRAWN_ELEMS), owned);
            assert_eq!(lane.counter_total(names::INIT_SKIPPED_ELEMS), full - owned);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[should_panic(expected = "cannot resume from step 4")]
    fn resuming_from_a_step_with_no_checkpoint_is_a_hard_error_not_a_retried_crash() {
        // Every rank would fail its load, the driver would count that as a
        // crash, find no manifest, fall back to `resume_step` again, and die
        // `max_restarts` full attempts later with "giving up after …".
        let dir = ft_tmpdir("resume-missing");
        let cfg = TrainConfig {
            steps: 6,
            ..Default::default()
        };
        let _ = ft_run(cfg, &dir, 0, 4);
    }

    #[test]
    #[should_panic(expected = "cannot resume from step 4")]
    fn a_manifest_naming_a_step_with_no_shards_is_a_hard_error() {
        // The same error when the step comes from the MANIFEST: the run
        // crashes, the driver reads "4", and step4/ was never written.
        let dir = ft_tmpdir("manifest-missing-shards");
        std::fs::write(dir.join("MANIFEST"), "4\n").unwrap();
        let cfg = TrainConfig {
            steps: 6,
            ..Default::default()
        };
        let _ = Trainer::new(cfg).run_ft(&FtConfig {
            plan: FaultPlan::none().crash(0, 2),
            ckpt_every: 0,
            heartbeat_ms: 200,
            ..FtConfig::new(&dir)
        });
    }

    #[test]
    fn noisy_gate_recovery_matches_a_run_resumed_from_the_same_checkpoint() {
        // `crash_recovers_from_checkpoint_and_matches_reference` with a gate
        // whose routing depends on its private noise stream. That stream's
        // seed is drawn from the init stream *after* tensors a restoring
        // rank never evaluates, and is not in the checkpoint: both restores
        // must re-derive it, and the same one.
        let cfg = TrainConfig {
            steps: 10,
            model: ModelConfig {
                gate: bagualu_model::moe::GateKind::NoisyTop1,
                ..ModelConfig::tiny()
            },
            ..Default::default()
        };
        let dir = ft_tmpdir("crash-noisy");
        let faulted = Trainer::new(cfg).run_ft(&crash_1_at_6(&dir));
        assert_eq!(faulted.restarts, 1);
        let reference = ft_run(cfg, &dir, 0, 4);
        assert_eq!(reference.restarts, 0);
        assert_eq!(faulted.loss_curve[4..], reference.loss_curve[4..]);
        assert_eq!(faulted.aux_curve[4..], reference.aux_curve[4..]);
        assert_eq!(faulted.drop_curve[4..], reference.drop_curve[4..]);
        // The noise is live: the same run routed by a plain top-1 gate
        // lands elsewhere.
        let top1 = Trainer::new(TrainConfig {
            model: ModelConfig {
                gate: bagualu_model::moe::GateKind::Top1,
                ..cfg.model
            },
            ..cfg
        })
        .run();
        assert_ne!(top1.loss_curve[..4], faulted.loss_curve[..4]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[should_panic(expected = "unreadable")]
    fn garbled_manifest_is_a_hard_error_not_a_silent_fallback() {
        // "No manifest yet" is a legitimate state (restart from scratch);
        // a manifest that exists but cannot be parsed is not — silently
        // falling back would replay from the wrong step.
        let dir = ft_tmpdir("garbled-manifest");
        std::fs::write(dir.join("MANIFEST"), "not-a-step\n").unwrap();
        let cfg = TrainConfig {
            steps: 6,
            ..Default::default()
        };
        let _ = Trainer::new(cfg).run_ft(&FtConfig {
            plan: FaultPlan::none().crash(0, 2),
            ckpt_every: 0,
            heartbeat_ms: 200,
            ..FtConfig::new(&dir)
        });
    }

    #[test]
    fn elastic_resize_continues_on_survivors_pinned_to_a_fresh_shrunk_run() {
        // A crash under `elastic` shrinks the world to the survivors
        // instead of restoring at full width. The shrunk continuation must
        // be bit-identical to a fresh (R−1)-rank run restored from the very
        // same checkpoint — elasticity adds nothing beyond the re-shard.
        for zero in [false, true] {
            let dir = ft_tmpdir(if zero { "elastic-zero" } else { "elastic" });
            let cfg = TrainConfig {
                steps: 12,
                nranks: 3,
                model: ModelConfig {
                    n_experts: 6,
                    ..ModelConfig::tiny()
                },
                zero_optimizer: zero,
                clip: if zero { None } else { Some(1.0) },
                ..Default::default()
            };
            let r = Trainer::new(TrainConfig { trace: true, ..cfg }).run_ft(&FtConfig {
                plan: FaultPlan::none().crash(2, 6),
                ckpt_every: 4,
                heartbeat_ms: 200,
                elastic: true,
                ..FtConfig::new(&dir)
            });
            assert_eq!(r.restarts, 1, "one crash → one restart");
            assert_eq!(r.resizes, 1, "the restart shrank the world");
            assert_eq!(r.lost_steps, 2, "crash at 6, restored from 4");
            assert_eq!(r.loss_curve.len(), 12);
            assert!(r.loss_curve.iter().all(|l| l.is_finite()));
            let driver = r
                .trace
                .as_ref()
                .unwrap()
                .lane(DRIVER_LANE)
                .expect("driver lane");
            assert_eq!(driver.counter_total(names::FT_RESIZES), 1);
            assert_eq!(driver.counter_total(names::RESTARTS), 1);

            // A re-sharding survivor reads what it installs — every shard's
            // dense replica and the experts it now owns — not the old world.
            let old_world: u64 = (0..3)
                .map(|r| dir.join("step4").join(format!("rank{r}.bglu")))
                .map(|shard| std::fs::metadata(shard).unwrap().len())
                .sum();
            for survivor in 0..2 {
                let lane = r.trace.as_ref().unwrap().lane(survivor).unwrap();
                let read = lane.counter_total(names::CKPT_BYTES_READ);
                assert!(
                    read > 0 && read < old_world,
                    "zero={zero}: survivor {survivor} read {read} of {old_world} shard bytes"
                );
            }

            // The shrunk world checkpoints under its own layout: step 8's
            // record must say "6 experts on 2 ranks", not echo the old world.
            let meta = crate::checkpoint::read_placement(dir.join("step8").join("rank0.bglu"))
                .unwrap()
                .expect("placement record present");
            assert_eq!(meta.nranks, 2);
            assert_eq!(meta.n_experts, 6);

            // Reference: fresh 2-rank run restored from the same step-4
            // checkpoint (elastic authorizes the cross-width re-shard).
            let fresh = Trainer::new(TrainConfig { nranks: 2, ..cfg }).run_ft(&FtConfig {
                ckpt_every: 0,
                resume_step: 4,
                elastic: true,
                ..FtConfig::new(&dir)
            });
            assert_eq!(fresh.restarts, 0);
            assert_eq!(
                r.loss_curve[4..],
                fresh.loss_curve[4..],
                "zero={zero}: shrunk continuation diverged from the fresh 2-rank run"
            );
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn straggler_migration_sheds_expert_load_and_preserves_semantics() {
        // Rank 1 is slowed for the whole run; the detector flags it from
        // the all-reduced send-occupancy deltas, and at the next checkpoint
        // boundary the driver re-places experts under `Shed { victim: 1 }`.
        //
        // `clip: None` because the gradient norm is rank-local: each rank
        // sums the squares of the replicated dense gradients and of the
        // experts *it* holds, with no all-reduce. Re-placing experts
        // changes which expert gradients each rank's norm covers, so with
        // clipping on, placement would not be pure data movement (ROADMAP
        // item 1 makes the norm global).
        let dir = ft_tmpdir("straggler");
        let cfg = TrainConfig {
            steps: 12,
            clip: None,
            ..Default::default()
        };
        let r = Trainer::new(TrainConfig { trace: true, ..cfg }).run_ft(&FtConfig {
            plan: FaultPlan::none().slow_rank(1, 0, 12, 500),
            ckpt_every: 4,
            heartbeat_ms: 500,
            straggler_factor: Some(1.5),
            straggler_window: 2,
            ..FtConfig::new(&dir)
        });
        assert_eq!(r.migrations, 1, "one flag → one migration");
        assert_eq!(r.restarts, 0, "migration is planned, not a failure");
        assert_eq!(r.lost_steps, 0);
        assert_eq!(r.placement, ExpertPlacement::Shed { victim: 1 });

        // The flagged rank's expert load measurably dropped (4 experts on
        // 2 ranks: round-robin hosts 2 on rank 1, Shed keeps 1 there).
        let e = cfg.model.n_experts;
        let before = ExpertPlacement::RoundRobin.local_count(1, e, cfg.nranks);
        let after = r.placement.local_count(1, e, cfg.nranks);
        assert!(
            after < before,
            "victim still hosts {after} of {e} experts (was {before})"
        );

        // Counters: the flag event once (rank 0's lane), the migration once
        // (driver lane), and no elastic resize happened.
        let trace = r.trace.as_ref().unwrap();
        assert_eq!(
            trace
                .lane(0)
                .unwrap()
                .counter_total(names::STRAGGLER_FLAGGED),
            1
        );
        let driver = trace.lane(DRIVER_LANE).expect("driver lane");
        assert_eq!(driver.counter_total(names::STRAGGLER_MIGRATIONS), 1);
        assert_eq!(driver.counter_total(names::FT_RESIZES), 0);

        // The post-migration checkpoint's placement record is consistent
        // with the new layout.
        let meta = crate::checkpoint::read_placement(dir.join("step8").join("rank0.bglu"))
            .unwrap()
            .expect("placement record present");
        assert_eq!(meta.placement, ExpertPlacement::Shed { victim: 1 });
        assert_eq!(meta.nranks, cfg.nranks);

        // Degradation is semantics-invisible. Steps 0..4 ran round-robin
        // with the detector's extra all-reduce and the injected slowdown:
        // bit-identical to a plain run. Steps 4.. ran the Shed layout from
        // the restored checkpoint: bit-identical to a fault-free run
        // resumed from the same checkpoint (placement is pure data
        // movement; the optimizer restarts lazily on any restore).
        let plain = Trainer::new(cfg).run();
        assert_eq!(r.loss_curve[..4], plain.loss_curve[..4]);
        let reference = ft_run(cfg, &dir, 0, 4);
        assert_eq!(
            r.loss_curve[4..],
            reference.loss_curve[4..],
            "migration changed the training computation"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
