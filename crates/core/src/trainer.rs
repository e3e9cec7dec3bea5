//! The multi-rank functional trainer.
//!
//! One OS thread per rank, each holding a [`DistTransformer`] shard and its
//! own mixed-precision optimizer. Per step, each rank:
//!
//! 1. generates its deterministic micro-batch,
//! 2. forward → cross-entropy → loss-scaled backward,
//! 3. [`sync_grads_wire`] (dense all-reduce average + expert rescale,
//!    optionally compressed to 16 bits on the wire),
//! 4. optional global gradient-norm clip,
//! 5. mixed-precision Adam step (skipped coherently on overflow — the
//!    overflow flag is all-reduced so every replica stays in lockstep).

use crate::data::{SyntheticLM, TokenDistribution};
use crate::runconfig::RunConfig;
use bagualu_comm::collectives::{allreduce_recursive_doubling, barrier_ft, ReduceOp};
use bagualu_comm::fault::{FaultPlan, FaultRuntime, FtCommunicator};
use bagualu_comm::harness::{run_ranks_ft, run_ranks_map, RankOutcome};
use bagualu_comm::payload::WireDType;
use bagualu_comm::shm::{CommStats, Communicator, World};
use bagualu_model::config::ModelConfig;
use bagualu_model::loss::cross_entropy;
use bagualu_model::param::HasParams;
use bagualu_optim::adam::AdamConfig;
use bagualu_optim::clip::clip_grad_norm;
use bagualu_optim::mixed::{MixedPrecision, StepOutcome};
use bagualu_optim::schedule::LrSchedule;
use bagualu_parallel::model_dist::DistTransformer;
use bagualu_parallel::moe_dist::A2aKind;
use bagualu_parallel::placement::ExpertPlacement;
use bagualu_parallel::sync::{backward_and_sync_overlapped_wire, sync_grads_wire};
use bagualu_tensor::ops::{install_backend, install_row_ops, ComputeBackend};
use bagualu_tensor::reservoir;
use bagualu_tensor::DType;
use bagualu_trace::{self as trace, names, HostUsage, Trace, TraceCollector, DRIVER_LANE};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
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
    /// Learning-rate schedule; overrides `lr` when set.
    pub schedule: Option<LrSchedule>,
    /// Micro-batches accumulated per optimizer step (≥ 1).
    pub grad_accum: usize,
    /// Use the ZeRO-style sharded dense optimizer instead of replicated
    /// Adam. Requires `dtype == F32` and `clip == None` (sharded clipping
    /// and sharded loss scaling are not implemented).
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
            schedule: None,
            grad_accum: 1,
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
    /// Global tokens processed.
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
    /// The wire format the run's tensor traffic used
    /// (echoes [`TrainConfig::wire`], so reports are self-describing).
    pub wire: WireDType,
    /// The expert placement the run used (the *resolved* policy — a
    /// `supernode` request with inferred size reports the concrete size).
    pub placement: ExpertPlacement,
    /// The GEMM backend the run's ranks computed with
    /// (echoes [`TrainConfig::compute`]).
    pub compute: ComputeBackend,
    /// The full serializable description of the run
    /// ([`RunConfig::reconstruct`]ed from the configs it ran with), so a
    /// report alone is enough to reproduce its run:
    /// `report.run_config.unwrap().to_toml()` feeds straight back into
    /// `bagualu train --config`. `None` when the run used a library-only
    /// feature the config schema does not describe (custom model, LR
    /// schedule, gradient accumulation, …).
    pub run_config: Option<RunConfig>,
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
    pub cfg: TrainConfig,
}

impl Trainer {
    pub fn new(cfg: TrainConfig) -> Trainer {
        assert!(cfg.nranks > 0 && cfg.steps > 0);
        assert!(
            cfg.model.n_experts == 0 || cfg.model.n_experts.is_multiple_of(cfg.nranks),
            "expert count {} must divide evenly over {} ranks",
            cfg.model.n_experts,
            cfg.nranks
        );
        if cfg.zero_optimizer {
            assert!(
                cfg.dtype == DType::F32 && cfg.clip.is_none(),
                "zero_optimizer requires fp32 and no clipping"
            );
        }
        assert_eq!(
            cfg.model.router_groups, 0,
            "the distributed trainer requires the flat gate (two-level routing \
             is a single-rank feature; see MoELayer::new_two_level)"
        );
        cfg.a2a
            .validate(cfg.nranks)
            .expect("invalid a2a configuration");
        cfg.resolved_placement()
            .validate(cfg.nranks)
            .expect("invalid expert placement");
        assert!(
            cfg.locality_bias >= 0.0,
            "locality bias must be >= 0, got {}",
            cfg.locality_bias
        );
        cfg.compute.validate().expect("invalid compute backend");
        Trainer { cfg }
    }

    /// Run to completion and aggregate the report (identical on every rank;
    /// rank 0's copy is returned).
    pub fn run(&self) -> TrainReport {
        let cfg = self.cfg;
        let start = Instant::now();
        let collector = cfg.trace.then(TraceCollector::new);
        let host = collector.as_ref().and_then(|_| HostUsage::now());
        let col = collector.clone();
        let mut reports = run_ranks_map(cfg.nranks, move |c| {
            let _lane = col.as_ref().map(|col| col.install(c.rank()));
            rank_main(cfg, &c)
        });
        let report = reports.swap_remove(0);
        let elapsed = start.elapsed().as_secs_f64();
        TrainReport {
            tokens_per_sec: report.total_tokens as f64 / elapsed,
            trace: collector.map(|c| finish_trace(c, host)),
            ..report
        }
    }

    /// One rank's share of [`Trainer::run`], for a caller that owns the
    /// rank threads itself (its own harness, a wrapped communicator): runs
    /// every step over `comm` and returns this rank's report, without the
    /// wall-clock throughput and the trace that `run` fills in.
    pub fn run_rank<C: Communicator>(&self, comm: &C) -> TrainReport {
        rank_main(self.cfg, comm)
    }

    /// Run with fault injection and checkpoint/restart recovery.
    ///
    /// Each rank heartbeats at every step boundary ([`barrier_ft`]) and
    /// checkpoints its shard every `ft.ckpt_every` steps; rank 0 then
    /// publishes a `MANIFEST` naming the step (atomically, so a failure
    /// mid-checkpoint leaves the previous consistent set in charge). When a
    /// rank crashes, survivors detect it within `ft.heartbeat_ms`, the
    /// world is torn down, and a fresh world restores the last manifest
    /// step and resumes — with a fresh optimizer (Adam moments are not
    /// checkpointed; the run is bit-identical to a fault-free run started
    /// from the restored step, which is what the tests pin down).
    ///
    /// With an empty [`FaultPlan`] and `ckpt_every: 0` this computes
    /// exactly what [`Trainer::run`] computes, plus the heartbeats.
    pub fn run_ft(&self, ft: &FtConfig) -> TrainReport {
        let cfg = self.cfg;
        let start = Instant::now();
        let faults = Arc::new(FaultRuntime::new(ft.plan.clone(), cfg.nranks));
        // One collector for the whole run: lanes from successive restart
        // attempts append to the same per-rank timeline.
        let collector = cfg.trace.then(TraceCollector::new);
        let host = collector.as_ref().and_then(|_| HostUsage::now());

        let mut loss = vec![f32::NAN; cfg.steps];
        let mut aux = vec![f32::NAN; cfg.steps];
        let mut imb = vec![f64::NAN; cfg.steps];
        let mut dropr = vec![f64::NAN; cfg.steps];
        let mut eval: std::collections::BTreeMap<usize, f32> = Default::default();
        let mut restarts = 0usize;
        let mut lost_steps = 0usize;
        let mut recovery_time_s = 0.0f64;
        let mut resizes = 0usize;
        let mut migrations = 0usize;
        let mut world_size = cfg.nranks;
        let mut placement = cfg.placement;
        let mut start_step = ft.resume_step;

        loop {
            let cur_cfg = TrainConfig {
                nranks: world_size,
                placement,
                ..cfg
            };
            // Straggler migration is a one-shot per run and only defined
            // from a round-robin layout (Shed is itself the migrated state).
            let allow_migration = ft.straggler_factor.is_some()
                && migrations == 0
                && world_size >= 2
                && cur_cfg.resolved_placement() == ExpertPlacement::RoundRobin;
            // Cross-layout restore (an R-rank shard set onto R−1 ranks, or a
            // round-robin set onto a Shed layout) is only authorized by the
            // degradation features; a plain run keeps the strict gate.
            let allow_reshard = ft.elastic || migrations > 0 || resizes > 0;
            // Pre-flight the restore on rank 0's shard: a mismatched restore
            // is a configuration error, not a transient fault, so it must be
            // a hard error here rather than a crash the restart loop retries
            // into "giving up after N restarts".
            let restore = if start_step == 0 {
                Restore::Fresh
            } else {
                let shard0 = ft
                    .ckpt_dir
                    .join(format!("step{start_step}"))
                    .join("rank0.bglu");
                let current = crate::checkpoint::PlacementMeta {
                    placement: cur_cfg.resolved_placement(),
                    n_experts: cfg.model.n_experts,
                    nranks: world_size,
                };
                // So is a step with no checkpoint behind it, whether the
                // step came from `resume_step` or from the MANIFEST.
                let saved = crate::checkpoint::read_placement(&shard0).unwrap_or_else(|e| {
                    panic!("cannot resume from step {start_step}: checkpoint shard {shard0:?}: {e}")
                });
                match saved {
                    Some(meta) if meta == current => Restore::Strict,
                    Some(meta) if allow_reshard && meta.n_experts == current.n_experts => {
                        Restore::Reshard {
                            from_nranks: meta.nranks,
                        }
                    }
                    Some(meta) if allow_reshard => panic!(
                        "cannot re-shard checkpoint {shard0:?}: it holds {} experts but \
                         this run has {}",
                        meta.n_experts, current.n_experts
                    ),
                    _ => {
                        placement_gate(saved, &shard0, current, 0);
                        Restore::Strict
                    }
                }
            };
            let attempt_start = Instant::now();
            let attempt_t0_ns = collector.as_ref().map(|c| c.now_ns());
            // The fault runtime is shared across attempts: one-shot events
            // (a crash at step N) stay consumed on the re-execution of N,
            // and after an elastic shrink a crash scheduled for a rank id
            // that no longer exists simply never fires.
            let world = World::new_with_faults(world_size, Arc::clone(&faults));
            let ftc = ft.clone();
            let frt = Arc::clone(&faults);
            let col = collector.clone();
            let outcomes = run_ranks_ft(&world, move |c| {
                let _lane = col.as_ref().map(|col| col.install(c.rank()));
                rank_main_ft(
                    cur_cfg,
                    &ftc,
                    start_step,
                    restore,
                    allow_migration,
                    &frt,
                    &c,
                )
            });

            let mut completed: Option<TrainReport> = None;
            let mut failed = false;
            let mut migrate_to: Option<(usize, usize)> = None;
            let mut through = start_step;
            for o in outcomes {
                match o {
                    RankOutcome::Ok(Attempt::Completed(r)) => completed = Some(*r),
                    RankOutcome::Ok(Attempt::Aborted(seg)) => {
                        failed = true;
                        through = through.max(seg.through);
                        splice(start_step, &seg.loss, &mut loss);
                        splice(start_step, &seg.aux, &mut aux);
                        splice(start_step, &seg.imbalance, &mut imb);
                        splice(start_step, &seg.drop, &mut dropr);
                        eval.extend(seg.eval.iter().copied());
                    }
                    RankOutcome::Ok(Attempt::Migrated { at, victim, seg }) => {
                        migrate_to = Some((at, victim));
                        through = through.max(seg.through);
                        splice(start_step, &seg.loss, &mut loss);
                        splice(start_step, &seg.aux, &mut aux);
                        splice(start_step, &seg.imbalance, &mut imb);
                        splice(start_step, &seg.drop, &mut dropr);
                        eval.extend(seg.eval.iter().copied());
                    }
                    // A genuine panic (not an injected crash): recover from
                    // it like any other failure, up to max_restarts.
                    RankOutcome::Crashed(_) | RankOutcome::TimedOut(_) => failed = true,
                }
            }

            if let Some(report) = completed {
                assert!(!failed, "ranks disagreed on completion");
                splice(start_step, &report.loss_curve, &mut loss);
                splice(start_step, &report.aux_curve, &mut aux);
                splice(start_step, &report.imbalance_curve, &mut imb);
                splice(start_step, &report.drop_curve, &mut dropr);
                eval.extend(report.eval_curve.iter().copied());
                let elapsed = start.elapsed().as_secs_f64();
                return TrainReport {
                    loss_curve: loss,
                    aux_curve: aux,
                    imbalance_curve: imb,
                    drop_curve: dropr,
                    eval_curve: eval.into_iter().collect(),
                    tokens_per_sec: report.total_tokens as f64 / elapsed,
                    restarts,
                    lost_steps,
                    recovery_time_s,
                    resizes,
                    migrations,
                    trace: collector.map(|c| finish_trace(c, host)),
                    // The report's own reconstruction has no [ft] section
                    // (finish() cannot see it); re-stamp with it included.
                    run_config: RunConfig::reconstruct(&cfg, Some(ft)),
                    ..report
                };
            }

            if let (Some((at, victim)), false) = (migrate_to, failed) {
                // Planned degradation, not a failure: every rank agreed (the
                // detector's verdict is a pure function of all-reduced
                // samples) and a checkpoint for `at` is already published.
                // Shift to the Shed layout and continue from that step —
                // no restart counted, no recovery time charged.
                migrations += 1;
                if let Some(col) = &collector {
                    col.record_count(DRIVER_LANE, names::STRAGGLER_MIGRATIONS, 1);
                }
                placement = ExpertPlacement::Shed { victim };
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
                col.record_count(DRIVER_LANE, names::RESTARTS, 1);
            }
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
            if ft.elastic && world_size > 1 {
                // Degrade, don't die: drop the crashed rank and continue on
                // the survivors. The next attempt re-shards the full-width
                // checkpoint across R−1 ranks; ZeRO state re-shards itself
                // (optimizer moments are rebuilt from the restored master
                // weights, exactly as on any restore).
                world_size -= 1;
                resizes += 1;
                if let Some(col) = &collector {
                    col.record_count(DRIVER_LANE, names::FT_RESIZES, 1);
                }
                // A Shed victim was named in the old world; fold back to the
                // configured layout for the shrunk one.
                if matches!(placement, ExpertPlacement::Shed { .. }) {
                    placement = ExpertPlacement::RoundRobin;
                }
                let shrunk = TrainConfig {
                    nranks: world_size,
                    placement,
                    ..cfg
                };
                shrunk
                    .resolved_placement()
                    .validate(world_size)
                    .unwrap_or_else(|e| {
                        panic!("elastic resize to {world_size} ranks is impossible: {e}")
                    });
            }
        }
    }
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

/// Everything one rank needs to execute training steps, factored out of
/// `rank_main` so the fault-tolerant driver can restore a checkpoint into
/// it and resume from an arbitrary step.
struct RankState {
    cfg: TrainConfig,
    model: DistTransformer,
    opt: MixedPrecision,
    zopt: bagualu_parallel::zero::ZeroAdam,
    task: SyntheticLM,
    loss_curve: Vec<f32>,
    aux_curve: Vec<f32>,
    imbalance_curve: Vec<f64>,
    drop_curve: Vec<f64>,
    eval_curve: Vec<(usize, f32)>,
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
        let mut opt = MixedPrecision::new(
            AdamConfig {
                lr: cfg.lr,
                ..Default::default()
            },
            cfg.dtype,
        );
        if cfg.disable_loss_scaling {
            opt = opt.with_scaler(bagualu_optim::scaler::LossScaler::disabled());
        }
        let zopt = bagualu_parallel::zero::ZeroAdam::new(AdamConfig {
            lr: cfg.lr,
            ..Default::default()
        });
        opt.quantize_model(&mut model);
        let task = SyntheticLM::new(cfg.model.vocab, cfg.data, cfg.seed);
        publish_reservoir(comm);
        RankState {
            cfg,
            model,
            opt,
            zopt,
            task,
            loss_curve: Vec::with_capacity(cfg.steps),
            aux_curve: Vec::with_capacity(cfg.steps),
            imbalance_curve: Vec::with_capacity(cfg.steps),
            drop_curve: Vec::with_capacity(cfg.steps),
            eval_curve: Vec::new(),
            ring_steps: 0,
            ring_steps_overlapped: 0,
        }
    }

    /// Execute training step `step`: micro-batches, gradient sync,
    /// optimizer update, cross-rank metric aggregation, optional eval.
    fn step<C: Communicator>(&mut self, step: usize, comm: &C) {
        let _step_span = trace::span(names::STEP);
        let cfg = self.cfg;
        let accum = cfg.grad_accum.max(1);
        // Overlapped sync replaces backward + sync_grads on the *last*
        // micro-batch only: earlier micro-batches still accumulate, so their
        // dense gradients are not final and must not be reduced yet.
        let use_overlap = cfg.overlap && !cfg.zero_optimizer;

        if let Some(schedule) = cfg.schedule {
            self.opt.set_lr(schedule.at(step));
            self.zopt.set_lr(schedule.at(step));
        }

        // Accumulate gradients over `accum` micro-batches before syncing.
        let mut ce = 0.0f32;
        let mut aux = 0.0f32;
        let mut imb = 1.0f64;
        let mut dropr = 0.0f64;
        for micro in 0..accum {
            let (tokens, targets) = self.task.batch(
                cfg.batch_per_rank,
                cfg.seq,
                comm.rank(),
                step * accum + micro,
            );
            let logits = {
                let _span = trace::span(names::FORWARD);
                self.model
                    .forward(&tokens, cfg.batch_per_rank, cfg.seq, comm)
            };
            let (micro_ce, mut dlogits) = cross_entropy(&logits, &targets);
            ce += micro_ce / accum as f32;
            aux += self.model.aux_loss() / accum as f32;
            // Routing statistics must be read here: backward consumes the
            // MoE layer caches that hold them.
            let (i, d) = routing_stats(&self.model);
            imb = i;
            dropr = d;
            dlogits.scale(self.opt.loss_scale() / accum as f32);
            if use_overlap && micro + 1 == accum {
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
        }

        if cfg.zero_optimizer {
            // ZeRO path: reduce-scatter + sharded update + all-gather,
            // replacing both the grad sync and the replicated step.
            let _span = trace::span(names::OPTIMIZER);
            self.zopt.step(&mut self.model, comm);
        } else {
            if !use_overlap {
                sync_grads_wire(&mut self.model, comm, cfg.wire);
            }
            let _span = trace::span(names::OPTIMIZER);
            if let Some(max_norm) = cfg.clip {
                // Unscale before measuring the norm so clipping thresholds
                // mean the same thing at every loss scale (at scale 1.0 both
                // passes would multiply by exactly 1.0 and are skipped).
                let scale = self.opt.loss_scale();
                if scale != 1.0 {
                    self.model.visit_params(&mut |p| p.grad.scale(1.0 / scale));
                }
                clip_grad_norm(&mut self.model, max_norm);
                if scale != 1.0 {
                    self.model.visit_params(&mut |p| p.grad.scale(scale));
                }
            }
            let outcome = self.opt.step(&mut self.model);
            // Keep replicas in lockstep: if any rank overflowed, all did —
            // the gradients are identical post-allreduce for dense params,
            // and expert overflow is local; force agreement by reducing the
            // flag.
            let flag = if outcome == StepOutcome::SkippedOverflow {
                1.0
            } else {
                0.0
            };
            let agreed = allreduce_recursive_doubling(comm, vec![flag], ReduceOp::Max);
            debug_assert!(agreed[0] == flag || cfg.dtype != DType::F32);
        }
        self.model.zero_grad();

        // Aggregate the step metrics across ranks.
        // Control-path scalars ride the latency-optimal collective (E16).
        let stats = allreduce_recursive_doubling(
            comm,
            vec![ce, aux, imb as f32, dropr as f32],
            ReduceOp::Sum,
        );
        let r = comm.size() as f32;
        self.loss_curve.push(stats[0] / r);
        self.aux_curve.push(stats[1] / r);
        self.imbalance_curve.push((stats[2] / r) as f64);
        self.drop_curve.push((stats[3] / r) as f64);

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
                self.eval_curve.push((step, agg[0] / r));
            }
        }
        publish_reservoir(comm);
    }

    /// Pool run-wide counters and assemble the report. Uses blocking
    /// collectives, so call only when every rank reached the end.
    fn finish<C: Communicator>(self, comm: &C) -> TrainReport {
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
        let overlap_fraction = if cfg.overlap && !cfg.zero_optimizer {
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

        let total_tokens =
            cfg.nranks * cfg.batch_per_rank * cfg.seq * cfg.steps * cfg.grad_accum.max(1);
        TrainReport {
            loss_curve: self.loss_curve,
            aux_curve: self.aux_curve,
            imbalance_curve: self.imbalance_curve,
            drop_curve: self.drop_curve,
            tokens_per_sec: 0.0, // filled in by Trainer::run
            skipped_steps: self.opt.skipped_steps,
            total_tokens,
            eval_curve: self.eval_curve,
            overlap_fraction,
            comm_stats,
            restarts: 0,
            lost_steps: 0,
            recovery_time_s: 0.0,
            resizes: 0,
            migrations: 0,
            trace: None, // filled in by Trainer::run / run_ft
            wire: cfg.wire,
            placement: cfg.resolved_placement(),
            compute: cfg.compute,
            run_config: RunConfig::reconstruct(&cfg, None),
        }
    }
}

fn rank_main<C: Communicator>(cfg: TrainConfig, comm: &C) -> TrainReport {
    // Scope the configured compute backends to this rank's thread: every
    // matmul below — model forward/backward, eval, optimizer-adjacent
    // GEMMs — dispatches to the GEMM backend, and every softmax/layer-norm/
    // Adam pass to the paired row-op tier; nothing outside this rank is
    // affected.
    let _backend = install_backend(cfg.compute.instantiate());
    let _row_ops = install_row_ops(cfg.compute.instantiate_row_ops());
    let mut st = RankState::new(cfg, comm, false);
    for step in 0..cfg.steps {
        st.step(step, comm);
    }
    st.finish(comm)
}

/// What one rank's restart attempt produced.
enum Attempt {
    /// Ran through step `cfg.steps - 1`.
    Completed(Box<TrainReport>),
    /// Stopped early — an injected crash on this rank, or a failed
    /// heartbeat because some peer stopped responding.
    Aborted(Segment),
    /// Stopped deliberately at the published checkpoint for step `at` so
    /// the driver can re-place expert load away from the flagged straggler
    /// `victim` and continue. Every rank returns the same verdict — the
    /// straggler detector is deterministic over all-reduced samples.
    Migrated {
        /// Checkpoint step (already published) the migrated run resumes at.
        at: usize,
        /// The flagged straggler whose expert load is shed.
        victim: usize,
        /// Metrics for the steps this attempt did complete.
        seg: Segment,
    },
}

/// How a restart attempt restores model state, decided by the driver (which
/// also pre-flights it against rank 0's shard so misconfiguration is a hard
/// error, not a retried crash).
#[derive(Debug, Clone, Copy)]
enum Restore {
    /// `start_step == 0`: nothing to restore.
    Fresh,
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

/// Metrics for the steps an aborted attempt did complete, starting at the
/// attempt's start step. Identical on every rank (they are all-reduced), so
/// the driver can splice any one rank's segment into the global curves.
struct Segment {
    /// First step that did NOT execute.
    through: usize,
    loss: Vec<f32>,
    aux: Vec<f32>,
    imbalance: Vec<f64>,
    drop: Vec<f64>,
    eval: Vec<(usize, f32)>,
}

/// Placement gate for checkpoint restore: a shard written under a different
/// expert↔rank mapping would load each expert's weights into whatever expert
/// now occupies the same slot — fail loudly instead. Called by the driver
/// (with rank 0's shard, so the mismatch surfaces as a hard error rather
/// than a retried crash) and by every rank on its own shard. `saved` is the
/// placement record read from `path` (`None`: the shard predates them).
fn placement_gate(
    saved: Option<crate::checkpoint::PlacementMeta>,
    path: &Path,
    current: crate::checkpoint::PlacementMeta,
    rank: usize,
) {
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

fn segment(st: RankState, through: usize) -> Segment {
    Segment {
        through,
        loss: st.loss_curve,
        aux: st.aux_curve,
        imbalance: st.imbalance_curve,
        drop: st.drop_curve,
        eval: st.eval_curve,
    }
}

fn abort(st: RankState, through: usize) -> Attempt {
    Attempt::Aborted(segment(st, through))
}

/// The fault-tolerant per-rank loop: heartbeat → step → periodic
/// checkpoint, resuming from `start_step` when restarted. `cfg` is the
/// *current* attempt's configuration — after an elastic resize or a
/// straggler migration it differs from the run's original config in
/// `nranks`/`placement`.
fn rank_main_ft<C: FtCommunicator>(
    cfg: TrainConfig,
    ft: &FtConfig,
    start_step: usize,
    restore: Restore,
    allow_migration: bool,
    faults: &FaultRuntime,
    comm: &C,
) -> Result<Attempt, bagualu_comm::fault::CommError> {
    let hb = Duration::from_millis(ft.heartbeat_ms.max(1));
    // Same per-rank backend scopes as `rank_main`; restart attempts run on
    // fresh threads, so each attempt re-installs them.
    let _backend = install_backend(cfg.compute.instantiate());
    let _row_ops = install_row_ops(cfg.compute.instantiate_row_ops());
    let mut st = RankState::new(cfg, comm, !matches!(restore, Restore::Fresh));
    let placement_meta = crate::checkpoint::PlacementMeta {
        placement: cfg.resolved_placement(),
        n_experts: cfg.model.n_experts,
        nranks: comm.size(),
    };
    // Embedded once per shard so every checkpoint is self-describing
    // (`None` — and no record — when the schema cannot express this run).
    let run_config = RunConfig::reconstruct(&cfg, Some(ft));
    match restore {
        Restore::Fresh => {}
        Restore::Strict => {
            let path = ft
                .ckpt_dir
                .join(format!("step{start_step}"))
                .join(format!("rank{}.bglu", comm.rank()));
            // One pass over the shard yields both the placement record to
            // gate on and the parameters.
            crate::checkpoint::load_params_gated(&path, &mut st.model, |saved| {
                placement_gate(saved, &path, placement_meta, comm.rank())
            })
            .unwrap_or_else(|e| {
                panic!(
                    "rank {}: cannot restore step-{start_step} checkpoint: {e}",
                    comm.rank()
                )
            });
            // Restore the working-precision invariant (no-op for f32); the
            // optimizer captures master weights lazily at its first step, so
            // they come from these restored values.
            st.opt.quantize_model(&mut st.model);
        }
        Restore::Reshard { from_nranks } => {
            // Cross-layout restore: read every shard of the old world and
            // pull out what this rank's new layout owns (the driver already
            // gated compatibility on rank 0's shard).
            let dir = ft.ckpt_dir.join(format!("step{start_step}"));
            let paths: Vec<PathBuf> = (0..from_nranks)
                .map(|r| dir.join(format!("rank{r}.bglu")))
                .collect();
            crate::checkpoint::load_params_from_files(&paths, &mut st.model).unwrap_or_else(|e| {
                panic!(
                    "rank {}: cannot re-shard step-{start_step} checkpoint \
                         ({from_nranks} shards onto {} ranks): {e}",
                    comm.rank(),
                    comm.size()
                )
            });
            st.opt.quantize_model(&mut st.model);
        }
    }

    // Online straggler detection: every rank contributes its send-occupancy
    // delta (one-hot, summed by the all-reduce), so every rank sees the
    // same per-rank samples and the detector — a pure function of them —
    // reaches the same verdict everywhere with no extra coordination.
    let mut detector = (allow_migration && comm.size() >= 2)
        .then(|| {
            ft.straggler_factor.map(|f| {
                bagualu_trace::StragglerDetector::new(comm.size(), f, ft.straggler_window.max(1))
            })
        })
        .flatten();
    let mut last_occupancy = comm.send_occupancy_ns().unwrap_or(0);
    let mut pending_victim: Option<usize> = None;

    for step in start_step..cfg.steps {
        // Publish the step to the fault runtime so sustained (step-ranged)
        // degradation windows open and close on schedule.
        faults.set_step(step);
        // Injected fail-stop crash: the rank flags itself dead and goes
        // silent. Peers observe exactly what a real crash looks like —
        // no more messages — while the harness still collects the metric
        // segment this rank had already agreed on.
        if faults.should_crash(comm.rank(), step) {
            comm.mark_self_dead();
            return Ok(abort(st, step));
        }
        // Step-boundary heartbeat: detects dead peers within `hb`. On
        // failure, flag self dead too so detection cascades instead of
        // every survivor waiting out its own full timeout.
        if barrier_ft(comm, hb).is_err() {
            comm.mark_self_dead();
            return Ok(abort(st, step));
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

        if ft.ckpt_every > 0 && (step + 1) % ft.ckpt_every == 0 && step + 1 < cfg.steps {
            let _span = trace::span(names::CHECKPOINT);
            let next_step = step + 1;
            let dir = ft.ckpt_dir.join(format!("step{next_step}"));
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| panic!("cannot create checkpoint dir {dir:?}: {e}"));
            let path = dir.join(format!("rank{}.bglu", comm.rank()));
            crate::checkpoint::save_params_with_meta(
                &path,
                &mut st.model,
                placement_meta,
                run_config.as_ref(),
            )
            .unwrap_or_else(|e| panic!("cannot write checkpoint {path:?}: {e}"));
            // All shards must be durable before the manifest advances;
            // then rank 0 publishes the step atomically.
            if barrier_ft(comm, hb).is_err() {
                comm.mark_self_dead();
                return Ok(abort(st, next_step));
            }
            if comm.rank() == 0 {
                write_manifest(&ft.ckpt_dir, next_step);
            }
            // Migration is amortized to checkpoint boundaries: the shard
            // set for `next_step` is complete and the manifest published,
            // so the re-placed world can restore from it consistently.
            if let Some(victim) = pending_victim {
                return Ok(Attempt::Migrated {
                    at: next_step,
                    victim,
                    seg: segment(st, next_step),
                });
            }
        }
    }
    Ok(Attempt::Completed(Box::new(st.finish(comm))))
}

/// Copy a curve segment computed from step `at` into the global curve.
fn splice<T: Copy>(at: usize, src: &[T], dst: &mut [T]) {
    for (i, &v) in src.iter().enumerate() {
        if at + i < dst.len() {
            dst[at + i] = v;
        }
    }
}

/// Publish `MANIFEST` naming the latest complete checkpoint step: staged,
/// fsynced, renamed and the directory fsynced, so readers never see a
/// partial manifest and a power loss never leaves one that names a step
/// whose shards were not durable first.
fn write_manifest(dir: &Path, step: usize) {
    crate::checkpoint::publish_atomic(&dir.join("MANIFEST"), |f| {
        f.write_all(format!("{step}\n").as_bytes())
    })
    .expect("publish checkpoint manifest");
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
            assert_eq!(compressed.wire, wire);
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
    fn zero_optimizer_matches_replicated_training() {
        let base = TrainConfig {
            steps: 12,
            clip: None,
            ..Default::default()
        };
        let rep = Trainer::new(base).run();
        let zero = Trainer::new(TrainConfig {
            zero_optimizer: true,
            ..base
        })
        .run();
        for (a, b) in rep.loss_curve.iter().zip(&zero.loss_curve) {
            assert!((a - b).abs() < 1e-3, "ZeRO changed training: {a} vs {b}");
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
    fn grad_accumulation_processes_more_tokens_and_learns() {
        let cfg = TrainConfig {
            steps: 15,
            grad_accum: 3,
            ..Default::default()
        };
        let r = Trainer::new(cfg).run();
        assert_eq!(r.total_tokens, 2 * 2 * 8 * 15 * 3);
        assert!(r.final_loss() < r.loss_curve[0]);
        assert!(r.loss_curve.iter().all(|l| l.is_finite()));
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
    fn overlap_with_grad_accum_stays_correct() {
        // Only the last micro-batch may sync; earlier ones must accumulate.
        let base = TrainConfig {
            steps: 8,
            grad_accum: 3,
            overlap: false,
            ..Default::default()
        };
        let blocking = Trainer::new(base).run();
        let overlapped = Trainer::new(TrainConfig {
            overlap: true,
            bucket_bytes: 1 << 12,
            ..base
        })
        .run();
        for (a, b) in blocking.loss_curve.iter().zip(&overlapped.loss_curve) {
            assert!((a - b).abs() < 1e-3, "accum+overlap diverged: {a} vs {b}");
        }
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
        let ft = FtConfig {
            plan: FaultPlan::new(7).crash(1, 6),
            ckpt_every: 4,
            heartbeat_ms: 200,
            ..FtConfig::new(&dir)
        };
        let r = Trainer::new(TrainConfig { trace: true, ..cfg }).run_ft(&ft);
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
        let ft = FtConfig {
            ckpt_every: 0,
            ..FtConfig::new(&dir)
        };
        let fault_free = Trainer::new(cfg).run_ft(&ft);
        assert_eq!(fault_free.restarts, 0);
        assert_eq!(fault_free.lost_steps, 0);
        assert_eq!(plain.loss_curve, fault_free.loss_curve);
        assert_eq!(plain.eval_curve, fault_free.eval_curve);
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
        let ft = FtConfig {
            plan: FaultPlan::new(7).crash(1, 6),
            ckpt_every: 4,
            heartbeat_ms: 200,
            ..FtConfig::new(&dir)
        };
        let faulted = Trainer::new(cfg).run_ft(&ft);
        assert_eq!(faulted.restarts, 1, "one crash → one restart");
        assert_eq!(faulted.lost_steps, 2, "crash at 6, restored from 4");
        assert!(faulted.recovery_time_s > 0.0);
        assert_eq!(faulted.loss_curve.len(), 10);
        assert!(faulted.loss_curve.iter().all(|l| l.is_finite()));

        // Reference: a fault-free run resumed from the same step-4
        // checkpoint must produce bit-identical steps 4..10 — recovery adds
        // nothing beyond what restart-from-checkpoint itself does.
        let reference = Trainer::new(cfg).run_ft(&FtConfig {
            ckpt_every: 0,
            resume_step: 4,
            ..FtConfig::new(&dir)
        });
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
            plan: FaultPlan::new(3).crash(0, 2),
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
            plan: FaultPlan::new(5).crash(0, 1).crash(0, 2).crash(0, 3),
            ckpt_every: 0,
            max_restarts: 2,
            heartbeat_ms: 200,
            ..FtConfig::new(&dir)
        };
        Trainer::new(cfg).run_ft(&ft);
    }

    #[test]
    fn schedule_is_applied() {
        use bagualu_optim::schedule::LrSchedule;
        // With a zero-lr constant schedule nothing can learn…
        let frozen = Trainer::new(TrainConfig {
            steps: 10,
            schedule: Some(LrSchedule::Constant(0.0)),
            ..Default::default()
        })
        .run();
        // Batches differ per step, so the loss fluctuates — but with frozen
        // weights it must stay near the random-init level ln(vocab) ≈ 4.16.
        assert!(
            frozen.loss_curve.iter().all(|&l| l > 3.5),
            "frozen model learned: {:?}",
            frozen.loss_curve
        );
        // …while a warmup-cosine schedule trains normally.
        let trained = Trainer::new(TrainConfig {
            steps: 40,
            schedule: Some(LrSchedule::WarmupCosine {
                peak: 2e-2,
                warmup: 5,
                total: 40,
                floor: 1e-3,
            }),
            ..Default::default()
        })
        .run();
        assert!(trained.final_loss() < trained.loss_curve[0] * 0.8);
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
    /// at most 10.
    const PIN_LOSS_BITS: [u32; 8] = [
        0x408e3732, 0x408c4066, 0x408da970, 0x4083e0bb, 0x408334eb, 0x407d9cef, 0x4075d912,
        0x40700850,
    ];
    /// Aux-loss bits of the same run (see [`PIN_LOSS_BITS`]).
    const PIN_AUX_BITS: [u32; 8] = [
        0x3cb2accb, 0x3c7c26ba, 0x3c90ffec, 0x3c9d6ac5, 0x3c6a33fa, 0x3c595323, 0x3c41c2c3,
        0x3c609b36,
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
        assert_eq!(r.compute, ComputeBackend::Tiled);
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
        assert_eq!(half.compute, ComputeBackend::Half(DType::BF16));
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
        Trainer::new(cfg).run_ft(&FtConfig {
            ckpt_every: 4,
            ..FtConfig::new(&dir)
        });
        // …then try to resume it under block placement. The experts would
        // land on the wrong ranks, so this must die loudly instead.
        let _ = Trainer::new(TrainConfig {
            placement: ExpertPlacement::Block,
            ..cfg
        })
        .run_ft(&FtConfig {
            ckpt_every: 0,
            resume_step: 4,
            ..FtConfig::new(&dir)
        });
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
        let fresh = Trainer::new(cfg).run_ft(&FtConfig {
            ckpt_every: 4,
            ..FtConfig::new(&dir)
        });
        let resumed = Trainer::new(cfg).run_ft(&FtConfig {
            ckpt_every: 0,
            resume_step: 4,
            ..FtConfig::new(&dir)
        });
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
        let _ = Trainer::new(cfg).run_ft(&FtConfig {
            ckpt_every: 0,
            resume_step: 4,
            ..FtConfig::new(&dir)
        });
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
            plan: FaultPlan::new(3).crash(0, 2),
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
        let faulted = Trainer::new(cfg).run_ft(&FtConfig {
            plan: FaultPlan::new(7).crash(1, 6),
            ckpt_every: 4,
            heartbeat_ms: 200,
            ..FtConfig::new(&dir)
        });
        assert_eq!(faulted.restarts, 1);
        let reference = Trainer::new(cfg).run_ft(&FtConfig {
            ckpt_every: 0,
            resume_step: 4,
            ..FtConfig::new(&dir)
        });
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
            plan: FaultPlan::new(3).crash(0, 2),
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
                plan: FaultPlan::new(11).crash(2, 6),
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
        // `clip: None` because global grad-norm clipping sums squared
        // gradients per *rank* before the all-reduce: an unbalanced layout
        // regroups that sum, which is a reassociation at rounding level —
        // the one place placement is not pure data movement.
        let dir = ft_tmpdir("straggler");
        let cfg = TrainConfig {
            steps: 12,
            clip: None,
            ..Default::default()
        };
        let r = Trainer::new(TrainConfig { trace: true, ..cfg }).run_ft(&FtConfig {
            plan: FaultPlan::new(17).slow_rank(1, 0, 12, 500),
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
        let reference = Trainer::new(cfg).run_ft(&FtConfig {
            ckpt_every: 0,
            resume_step: 4,
            ..FtConfig::new(&dir)
        });
        assert_eq!(
            r.loss_curve[4..],
            reference.loss_curve[4..],
            "migration changed the training computation"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
