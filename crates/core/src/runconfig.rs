//! The unified, serializable description of a run: [`RunConfig`].
//!
//! Every knob the stack exposes — model preset and gate, world size, wire
//! dtype, placement policy, locality bias, compute backend, overlap bucket
//! size, checkpoint interval, supernode size, serving engine limits — lives
//! here as one versioned, TOML-(de)serializable struct. It is the single
//! source of truth the rest of the system is constructed *from*:
//!
//! * the CLI parses flags **into** a `RunConfig` (and `--config FILE` /
//!   `--dump-config` read and write the TOML form),
//! * [`TrainConfig`], [`FtConfig`] and the serving [`EngineConfig`] are
//!   built **from** it ([`to_train_config`](RunConfig::to_train_config),
//!   [`to_ft_config`](RunConfig::to_ft_config),
//!   [`to_engine_config`](RunConfig::to_engine_config)),
//! * [`TrainReport`](crate::trainer::TrainReport) and checkpoints embed it
//!   (the `__runconfig__` record), so any run is reproducible from one
//!   file,
//! * the auto-tuner (`bagualu-tune`) searches the space of `RunConfig`s
//!   and emits its winner as a TOML that feeds straight back into
//!   `bagualu train --config`.
//!
//! The TOML dialect is the small subset the hand-rolled reader/writer here
//! agree on (no external dependency): `[section]` tables, `key = value`
//! lines with string / integer / float / boolean values, `#` comments.
//! Unknown sections or keys are **errors** — a typo must never silently
//! fall back to a default — and contradictory settings are rejected by
//! [`validate`](RunConfig::validate) with the fix spelled out.

use crate::data::TokenDistribution;
use crate::trainer::{FtConfig, TrainConfig};
use bagualu_comm::payload::WireDType;
use bagualu_model::config::ModelConfig;
use bagualu_model::moe::GateKind;
use bagualu_parallel::moe_dist::A2aKind;
use bagualu_parallel::ExpertPlacement;
use bagualu_serve::{EngineConfig, ServerOptions};
use bagualu_tensor::ops::ComputeBackend;
use bagualu_tensor::DType;
use std::fmt::Write as _;

/// The config-schema version this build reads and writes.
pub const RUN_CONFIG_VERSION: u32 = 1;

/// Resolve a model preset name (`tiny | 1.93t | 14.5t | 174t`).
pub fn preset(name: &str) -> Result<ModelConfig, String> {
    match name {
        "tiny" => Ok(ModelConfig::tiny()),
        "1.93t" => Ok(ModelConfig::bagualu_1_93t()),
        "14.5t" => Ok(ModelConfig::bagualu_14_5t()),
        "174t" => Ok(ModelConfig::bagualu_174t()),
        other => Err(format!(
            "unknown preset: {other} (tiny | 1.93t | 14.5t | 174t)"
        )),
    }
}

/// `[model]` — which model the run trains or serves.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSection {
    /// Architecture preset the remaining fields override.
    pub preset: String,
    /// Global expert count (overrides the preset's).
    pub experts: usize,
    /// Gating policy.
    pub gate: GateKind,
}

/// `[train]` — workload shape and optimizer basics.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSection {
    /// Data/expert-parallel width (threads).
    pub ranks: usize,
    /// Optimizer steps.
    pub steps: usize,
    /// Sequences per rank per step.
    pub batch: usize,
    /// Sequence length.
    pub seq: usize,
    /// Learning rate.
    pub lr: f32,
    /// Working precision of parameters.
    pub dtype: DType,
    /// Master RNG seed (data, init, fault schedules).
    pub seed: u64,
    /// Zipf skew of the token stream (0 = uniform).
    pub skew: f64,
    /// ZeRO-style sharded dense optimizer (requires fp32, disables clip).
    pub zero: bool,
}

/// `[comm]` — everything about bytes in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct CommSection {
    /// Element format for tensor traffic on the wire.
    pub wire_dtype: WireDType,
    /// Two-phase hierarchical all-to-all (vs pairwise).
    pub hierarchical: bool,
    /// Supernode size for the hierarchical a2a; 0 = infer `ranks/2`.
    pub supernode_size: usize,
    /// Overlap the dense gradient all-reduce with backward compute.
    pub overlap: bool,
    /// Overlap bucket size, KiB of wire payload.
    pub bucket_kib: usize,
}

/// `[placement]` — expert↔rank mapping and the gate's locality bias.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementSection {
    /// Placement policy (`roundrobin | block | supernode[:S] | shed:V`).
    pub policy: ExpertPlacement,
    /// Log-space gate bonus toward intra-supernode experts (0 = off).
    pub locality_bias: f32,
}

/// `[compute]` — the GEMM/row-op kernel tier every rank installs.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeSection {
    /// Backend (`reference | tiled | tiled:fma | half[:fp16|:bf16]`).
    pub backend: ComputeBackend,
}

/// `[ft]` — checkpointing, recovery, and degradation policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FtSection {
    /// Run through the fault-tolerant driver (checkpoints + recovery).
    pub enabled: bool,
    /// Checkpoint directory ("" = a per-process temp directory).
    pub ckpt_dir: String,
    /// Checkpoint every this many steps.
    pub ckpt_every: usize,
    /// Give up after this many restarts.
    pub max_restarts: usize,
    /// Continue on R−1 ranks after a crash instead of full restore.
    pub elastic: bool,
    /// Straggler flag threshold (× median send occupancy); 0 = off.
    pub straggler_factor: f64,
    /// Samples averaged before the straggler detector may flag.
    pub straggler_window: usize,
}

/// `[serve]` — the inference engine's admission and memory limits.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSection {
    /// Maximum in-flight sequences per rank.
    pub max_batch: usize,
    /// KV pool size in blocks.
    pub kv_blocks: usize,
    /// Positions per KV block.
    pub block_tokens: usize,
}

/// The full, versioned description of a run. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Schema version ([`RUN_CONFIG_VERSION`]).
    pub version: u32,
    /// `[model]`.
    pub model: ModelSection,
    /// `[train]`.
    pub train: TrainSection,
    /// `[comm]`.
    pub comm: CommSection,
    /// `[placement]`.
    pub placement: PlacementSection,
    /// `[compute]`.
    pub compute: ComputeSection,
    /// `[ft]`.
    pub ft: FtSection,
    /// `[serve]`.
    pub serve: ServeSection,
}

impl Default for RunConfig {
    /// The all-defaults run — also the single source of the CLI's flag
    /// defaults (the CLI derives every default from this value; a test pins
    /// the two can never drift). Note `compute` defaults to the fast tiled
    /// kernels (bit-identical to the reference oracle), matching the CLI,
    /// while the *library* [`TrainConfig::default`] stays on `Reference`.
    fn default() -> RunConfig {
        RunConfig {
            version: RUN_CONFIG_VERSION,
            model: ModelSection {
                preset: "tiny".into(),
                experts: 4,
                gate: GateKind::Top2,
            },
            train: TrainSection {
                ranks: 2,
                steps: 50,
                batch: 2,
                seq: 8,
                lr: 1e-2,
                dtype: DType::F32,
                seed: 42,
                skew: 0.0,
                zero: false,
            },
            comm: CommSection {
                wire_dtype: WireDType::F32,
                hierarchical: false,
                supernode_size: 0,
                overlap: true,
                bucket_kib: 1024,
            },
            placement: PlacementSection {
                policy: ExpertPlacement::RoundRobin,
                locality_bias: 0.0,
            },
            compute: ComputeSection {
                backend: ComputeBackend::Tiled,
            },
            ft: FtSection {
                enabled: false,
                ckpt_dir: String::new(),
                ckpt_every: 10,
                max_restarts: 3,
                elastic: false,
                straggler_factor: 0.0,
                straggler_window: 3,
            },
            serve: ServeSection {
                max_batch: 8,
                kv_blocks: 64,
                block_tokens: 4,
            },
        }
    }
}

impl RunConfig {
    /// The all-to-all topology this config names (supernode size 0 infers
    /// `ranks/2`, the CLI's historical `--hierarchical` behavior).
    pub fn a2a(&self) -> A2aKind {
        if self.comm.hierarchical {
            A2aKind::Hierarchical {
                supernode_size: if self.comm.supernode_size == 0 {
                    self.train.ranks.max(2) / 2
                } else {
                    self.comm.supernode_size
                },
            }
        } else {
            A2aKind::Pairwise
        }
    }

    /// Cross-knob validation: reject contradictory or meaningless settings
    /// with the fix spelled out. Individual field formats are validated at
    /// parse time; this checks the combinations.
    pub fn validate(&self) -> Result<(), String> {
        if self.version != RUN_CONFIG_VERSION {
            return Err(format!(
                "unsupported config version {} (this build reads version {RUN_CONFIG_VERSION})",
                self.version
            ));
        }
        preset(&self.model.preset)?;
        if self.train.ranks == 0 {
            return Err("train.ranks must be >= 1".into());
        }
        if self.train.steps == 0 || self.train.batch == 0 || self.train.seq == 0 {
            return Err("train.steps, train.batch, and train.seq must all be >= 1".into());
        }
        if self.train.lr.is_nan() || self.train.lr <= 0.0 {
            return Err(format!("train.lr must be positive, got {}", self.train.lr));
        }
        if self.train.skew < 0.0 {
            return Err(format!(
                "train.skew must be >= 0 (0 = uniform), got {}",
                self.train.skew
            ));
        }
        if self.model.experts > 0 && !self.model.experts.is_multiple_of(self.train.ranks) {
            return Err(format!(
                "model.experts = {} must divide evenly over train.ranks = {} \
                 (every rank hosts the same number of experts)",
                self.model.experts, self.train.ranks
            ));
        }
        if self.train.zero && self.train.dtype != DType::F32 {
            return Err(format!(
                "train.zero shards an fp32 optimizer; it cannot run with train.dtype = \
                 \"{}\" — set dtype = \"fp32\" or drop zero",
                self.train.dtype
            ));
        }
        if self.comm.supernode_size > 0 && !self.comm.hierarchical {
            return Err(
                "comm.supernode_size only shapes the hierarchical all-to-all; set \
                 comm.hierarchical = true or drop it (a supernode *placement* carries \
                 its own size as placement.policy = \"supernode:S\")"
                    .into(),
            );
        }
        if self.placement.policy == (ExpertPlacement::Supernode { supernode_size: 0 })
            && !self.comm.hierarchical
        {
            return Err(
                "placement.policy = \"supernode\" needs an explicit size (\"supernode:S\") \
                 unless comm.hierarchical = true gives it a topology to infer one from"
                    .into(),
            );
        }
        self.a2a()
            .validate(self.train.ranks)
            .map_err(|e| format!("comm: {e}"))?;
        self.resolved_placement()
            .validate(self.train.ranks)
            .map_err(|e| format!("placement.policy: {e}"))?;
        if self.placement.locality_bias.is_nan() || self.placement.locality_bias < 0.0 {
            return Err(format!(
                "placement.locality_bias must be >= 0, got {}",
                self.placement.locality_bias
            ));
        }
        self.compute
            .backend
            .validate()
            .map_err(|e| format!("compute.backend: {e}"))?;
        if self.comm.bucket_kib == 0 {
            return Err("comm.bucket_kib must be >= 1 (the overlap bucket cannot be empty)".into());
        }
        // [ft]: knobs that only mean something under the recovery driver
        // must not be set while it is off — a config that silently ignores
        // half its keys is worse than an error.
        if !self.ft.enabled {
            if self.ft.elastic {
                return Err(
                    "ft.elastic = true but ft.enabled = false — the elastic resize only \
                     exists inside the fault-tolerant driver; set ft.enabled = true or \
                     drop elastic"
                        .into(),
                );
            }
            if self.ft.straggler_factor != 0.0 {
                return Err(
                    "ft.straggler_factor is set but ft.enabled = false — straggler \
                     detection runs inside the fault-tolerant driver; set ft.enabled = \
                     true or drop it"
                        .into(),
                );
            }
        } else {
            if self.ft.elastic && !self.compute.backend.bit_identical() {
                return Err(format!(
                    "ft.elastic verifies its resume against a fresh shrunk run bit for \
                     bit, but compute.backend = \"{}\" only promises a tolerance band; \
                     use \"tiled\" (same kernels, bit-identical) or drop elastic",
                    self.compute.backend
                ));
            }
            if self.ft.elastic && self.train.ranks < 2 {
                return Err(
                    "ft.elastic needs train.ranks >= 2: a 1-rank world has no survivors \
                     to continue on"
                        .into(),
                );
            }
            if self.ft.ckpt_every == 0 && (self.ft.elastic || self.ft.straggler_factor != 0.0) {
                return Err(
                    "ft.ckpt_every = 0 disables checkpoints, but ft.elastic re-shards \
                     from the last checkpoint and straggler migration re-places experts \
                     at checkpoint boundaries; give ckpt_every a positive interval"
                        .into(),
                );
            }
            if self.ft.straggler_factor != 0.0 && self.ft.straggler_factor <= 1.0 {
                return Err(format!(
                    "ft.straggler_factor {} would flag healthy ranks on noise alone; it \
                     must exceed 1.0 (e.g. 1.5), or be 0 to disable detection",
                    self.ft.straggler_factor
                ));
            }
            if self.ft.straggler_window == 0 {
                return Err("ft.straggler_window must be >= 1".into());
            }
        }
        if self.serve.max_batch == 0 || self.serve.kv_blocks == 0 || self.serve.block_tokens == 0 {
            return Err(
                "serve.max_batch, serve.kv_blocks, and serve.block_tokens must all be >= 1".into(),
            );
        }
        Ok(())
    }

    /// The placement policy with inferred supernode sizes resolved (mirrors
    /// [`TrainConfig::resolved_placement`], but total — unresolvable
    /// configs are caught by [`validate`](Self::validate) instead of
    /// panicking).
    pub fn resolved_placement(&self) -> ExpertPlacement {
        match self.placement.policy {
            ExpertPlacement::Supernode { supernode_size: 0 } => ExpertPlacement::Supernode {
                supernode_size: self.a2a().supernode_size(),
            },
            p => p,
        }
    }

    /// Build the trainer's config. Fails on anything
    /// [`validate`](Self::validate) rejects. The `trace` flag (an
    /// observation artifact, not a run description) starts `false`; callers
    /// that want a trace set it on the result.
    pub fn to_train_config(&self) -> Result<TrainConfig, String> {
        self.validate()?;
        let model = ModelConfig {
            n_experts: self.model.experts,
            gate: self.model.gate,
            ..preset(&self.model.preset)?
        };
        Ok(TrainConfig {
            model,
            nranks: self.train.ranks,
            batch_per_rank: self.train.batch,
            seq: self.train.seq,
            steps: self.train.steps,
            lr: self.train.lr,
            dtype: self.train.dtype,
            a2a: self.a2a(),
            clip: if self.train.zero { None } else { Some(1.0) },
            seed: self.train.seed,
            data: if self.train.skew > 0.0 {
                TokenDistribution::Zipf(self.train.skew)
            } else {
                TokenDistribution::Uniform
            },
            zero_optimizer: self.train.zero,
            overlap: self.comm.overlap,
            bucket_bytes: self.comm.bucket_kib << 10,
            wire: self.comm.wire_dtype,
            placement: self.placement.policy,
            compute: self.compute.backend,
            locality_bias: self.placement.locality_bias,
            ..TrainConfig::default()
        })
    }

    /// Build the recovery driver's config, or `None` when `ft.enabled`
    /// is off. An empty `ckpt_dir` maps to a per-process temp directory
    /// (matching the CLI's historical behavior); the fault *schedule* is
    /// injection tooling, not a run description, so it stays
    /// [`FaultPlan::none`](bagualu_comm::FaultPlan::none) here.
    pub fn to_ft_config(&self) -> Option<FtConfig> {
        if !self.ft.enabled {
            return None;
        }
        let dir = if self.ft.ckpt_dir.is_empty() {
            std::env::temp_dir().join(format!("bagualu-run-ckpt-{}", std::process::id()))
        } else {
            std::path::PathBuf::from(&self.ft.ckpt_dir)
        };
        Some(FtConfig {
            ckpt_every: self.ft.ckpt_every,
            max_restarts: self.ft.max_restarts,
            elastic: self.ft.elastic,
            straggler_factor: (self.ft.straggler_factor != 0.0).then_some(self.ft.straggler_factor),
            straggler_window: self.ft.straggler_window,
            ..FtConfig::new(dir)
        })
    }

    /// Build the serving engine's per-rank limits.
    pub fn to_engine_config(&self) -> EngineConfig {
        EngineConfig {
            max_batch: self.serve.max_batch,
            kv_blocks: self.serve.kv_blocks,
            block_tokens: self.serve.block_tokens,
        }
    }

    /// Build the serving server options (`ranks` comes from `[train]` —
    /// one world size per run).
    pub fn to_server_options(&self, trace: bool) -> ServerOptions {
        ServerOptions {
            nranks: self.train.ranks,
            engine: self.to_engine_config(),
            trace,
        }
    }

    /// Recover the `RunConfig` a [`TrainConfig`] (plus optional
    /// [`FtConfig`]) was built from — the inverse of
    /// [`to_train_config`](Self::to_train_config), used to stamp reports
    /// and checkpoints so they are self-describing.
    ///
    /// Returns `None` when `cfg` uses a library-only feature the config
    /// schema does not describe (a custom model that matches no preset, LR
    /// schedules, gradient accumulation, periodic eval, disabled loss
    /// scaling, or a clip policy other than the standard `zero ⇒ none,
    /// else 1.0`). For every config the schema *can* express,
    /// `reconstruct(rc.to_train_config()?, …)` round-trips back to the
    /// same `TrainConfig`.
    pub fn reconstruct(cfg: &TrainConfig, ft: Option<&FtConfig>) -> Option<RunConfig> {
        let mut preset_name = None;
        for name in ["tiny", "1.93t", "14.5t", "174t"] {
            let candidate = ModelConfig {
                n_experts: cfg.model.n_experts,
                gate: cfg.model.gate,
                ..preset(name).expect("known preset")
            };
            if candidate == cfg.model {
                preset_name = Some(name);
                break;
            }
        }
        let preset_name = preset_name?;
        let skew = match cfg.data {
            TokenDistribution::Uniform => 0.0,
            // Zipf(0) is spelled `Uniform` by the schema; a literal
            // `Zipf(0.0)` (or Burst, the adversarial stress stream) is a
            // library-only shape.
            TokenDistribution::Zipf(s) if s > 0.0 => s,
            TokenDistribution::Zipf(_) | TokenDistribution::Burst => return None,
        };
        let expected_clip = if cfg.zero_optimizer { None } else { Some(1.0) };
        if cfg.clip != expected_clip
            || cfg.schedule.is_some()
            || cfg.grad_accum != 1
            || cfg.eval_every.is_some()
            || cfg.disable_loss_scaling
        {
            return None;
        }
        if !cfg.bucket_bytes.is_multiple_of(1 << 10) || cfg.bucket_bytes == 0 {
            return None;
        }
        let (hierarchical, supernode_size) = match cfg.a2a {
            A2aKind::Pairwise => (false, 0),
            A2aKind::Hierarchical { supernode_size } => (true, supernode_size),
        };
        let mut rc = RunConfig {
            version: RUN_CONFIG_VERSION,
            model: ModelSection {
                preset: preset_name.into(),
                experts: cfg.model.n_experts,
                gate: cfg.model.gate,
            },
            train: TrainSection {
                ranks: cfg.nranks,
                steps: cfg.steps,
                batch: cfg.batch_per_rank,
                seq: cfg.seq,
                lr: cfg.lr,
                dtype: cfg.dtype,
                seed: cfg.seed,
                skew,
                zero: cfg.zero_optimizer,
            },
            comm: CommSection {
                wire_dtype: cfg.wire,
                hierarchical,
                supernode_size,
                overlap: cfg.overlap,
                bucket_kib: cfg.bucket_bytes >> 10,
            },
            placement: PlacementSection {
                policy: cfg.placement,
                locality_bias: cfg.locality_bias,
            },
            compute: ComputeSection {
                backend: cfg.compute,
            },
            ..RunConfig::default()
        };
        if let Some(ft) = ft {
            rc.ft = FtSection {
                enabled: true,
                ckpt_dir: ft.ckpt_dir.display().to_string(),
                ckpt_every: ft.ckpt_every,
                max_restarts: ft.max_restarts,
                elastic: ft.elastic,
                straggler_factor: ft.straggler_factor.unwrap_or(0.0),
                straggler_window: ft.straggler_window,
            };
        }
        Some(rc)
    }

    // ---------------------------------------------------------------- TOML

    /// Serialize to the canonical TOML form.
    /// [`from_toml`](Self::from_toml) parses it back to an equal value.
    pub fn to_toml(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# bagualu run configuration (docs/TUNING.md)");
        let _ = writeln!(s, "# reproduce with: bagualu train --config <this file>");
        let _ = writeln!(s, "version = {}", self.version);
        let _ = writeln!(s, "\n[model]");
        let _ = writeln!(s, "preset = \"{}\"", self.model.preset);
        let _ = writeln!(s, "experts = {}", self.model.experts);
        let _ = writeln!(s, "gate = \"{}\"", self.model.gate);
        let _ = writeln!(s, "\n[train]");
        let _ = writeln!(s, "ranks = {}", self.train.ranks);
        let _ = writeln!(s, "steps = {}", self.train.steps);
        let _ = writeln!(s, "batch = {}", self.train.batch);
        let _ = writeln!(s, "seq = {}", self.train.seq);
        let _ = writeln!(s, "lr = {:?}", self.train.lr);
        let _ = writeln!(s, "dtype = \"{}\"", self.train.dtype);
        let _ = writeln!(s, "seed = {}", self.train.seed);
        let _ = writeln!(s, "skew = {:?}", self.train.skew);
        let _ = writeln!(s, "zero = {}", self.train.zero);
        let _ = writeln!(s, "\n[comm]");
        let _ = writeln!(s, "wire_dtype = \"{}\"", self.comm.wire_dtype);
        let _ = writeln!(s, "hierarchical = {}", self.comm.hierarchical);
        let _ = writeln!(s, "supernode_size = {}", self.comm.supernode_size);
        let _ = writeln!(s, "overlap = {}", self.comm.overlap);
        let _ = writeln!(s, "bucket_kib = {}", self.comm.bucket_kib);
        let _ = writeln!(s, "\n[placement]");
        let _ = writeln!(s, "policy = \"{}\"", self.placement.policy);
        let _ = writeln!(s, "locality_bias = {:?}", self.placement.locality_bias);
        let _ = writeln!(s, "\n[compute]");
        let _ = writeln!(s, "backend = \"{}\"", self.compute.backend);
        let _ = writeln!(s, "\n[ft]");
        let _ = writeln!(s, "enabled = {}", self.ft.enabled);
        let _ = writeln!(s, "ckpt_dir = \"{}\"", self.ft.ckpt_dir);
        let _ = writeln!(s, "ckpt_every = {}", self.ft.ckpt_every);
        let _ = writeln!(s, "max_restarts = {}", self.ft.max_restarts);
        let _ = writeln!(s, "elastic = {}", self.ft.elastic);
        let _ = writeln!(s, "straggler_factor = {:?}", self.ft.straggler_factor);
        let _ = writeln!(s, "straggler_window = {}", self.ft.straggler_window);
        let _ = writeln!(s, "\n[serve]");
        let _ = writeln!(s, "max_batch = {}", self.serve.max_batch);
        let _ = writeln!(s, "kv_blocks = {}", self.serve.kv_blocks);
        let _ = writeln!(s, "block_tokens = {}", self.serve.block_tokens);
        s
    }

    /// Parse the TOML form. Every error names the offending line and key
    /// and lists what would have been accepted; unknown sections and keys
    /// are hard errors, never silent defaults. Absent keys keep their
    /// [`default`](RunConfig::default) value, so a partial file is a valid
    /// override set. The parsed value is also
    /// [`validate`](Self::validate)d.
    pub fn from_toml(text: &str) -> Result<RunConfig, String> {
        let mut rc = RunConfig::default();
        let mut section = String::new();
        let mut seen: Vec<String> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {line_no}: malformed section header: {raw}"))?
                    .trim();
                if !SECTIONS.contains(&name) {
                    return Err(format!(
                        "line {line_no}: unknown section [{name}] (valid sections: {})",
                        SECTIONS.join(", ")
                    ));
                }
                section = name.to_string();
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                format!("line {line_no}: expected `key = value` or `[section]`, got: {raw}")
            })?;
            let key = key.trim();
            let val = parse_value(value.trim())
                .map_err(|e| format!("line {line_no}: value for {key}: {e}"))?;
            let path = if section.is_empty() {
                key.to_string()
            } else {
                format!("{section}.{key}")
            };
            if seen.contains(&path) {
                return Err(format!("line {line_no}: duplicate key {path}"));
            }
            seen.push(path);
            rc.apply(&section, key, &val, line_no)?;
        }
        rc.validate()?;
        Ok(rc)
    }

    /// Set one `section.key` from a parsed value.
    fn apply(&mut self, section: &str, key: &str, val: &Val, line: usize) -> Result<(), String> {
        let unknown = |valid: &[&str]| {
            format!(
                "line {line}: unknown key '{key}' in {} (valid keys: {})",
                if section.is_empty() {
                    "the top level".to_string()
                } else {
                    format!("[{section}]")
                },
                valid.join(", ")
            )
        };
        let at = |e: String| format!("line {line}: {section}.{key}: {e}");
        match section {
            "" => match key {
                "version" => self.version = val.as_u64(line, key)? as u32,
                _ => return Err(unknown(&["version"])),
            },
            "model" => match key {
                "preset" => {
                    let p = val.as_str(line, key)?;
                    preset(&p).map_err(at)?;
                    self.model.preset = p;
                }
                "experts" => self.model.experts = val.as_usize(line, key)?,
                "gate" => self.model.gate = val.as_str(line, key)?.parse().map_err(at)?,
                _ => return Err(unknown(&["preset", "experts", "gate"])),
            },
            "train" => match key {
                "ranks" => self.train.ranks = val.as_usize(line, key)?,
                "steps" => self.train.steps = val.as_usize(line, key)?,
                "batch" => self.train.batch = val.as_usize(line, key)?,
                "seq" => self.train.seq = val.as_usize(line, key)?,
                "lr" => self.train.lr = val.as_f64(line, key)? as f32,
                "dtype" => self.train.dtype = val.as_str(line, key)?.parse().map_err(at)?,
                "seed" => self.train.seed = val.as_u64(line, key)?,
                "skew" => self.train.skew = val.as_f64(line, key)?,
                "zero" => self.train.zero = val.as_bool(line, key)?,
                _ => {
                    return Err(unknown(&[
                        "ranks", "steps", "batch", "seq", "lr", "dtype", "seed", "skew", "zero",
                    ]))
                }
            },
            "comm" => match key {
                "wire_dtype" => {
                    self.comm.wire_dtype = val.as_str(line, key)?.parse().map_err(at)?
                }
                "hierarchical" => self.comm.hierarchical = val.as_bool(line, key)?,
                "supernode_size" => self.comm.supernode_size = val.as_usize(line, key)?,
                "overlap" => self.comm.overlap = val.as_bool(line, key)?,
                "bucket_kib" => self.comm.bucket_kib = val.as_usize(line, key)?,
                _ => {
                    return Err(unknown(&[
                        "wire_dtype",
                        "hierarchical",
                        "supernode_size",
                        "overlap",
                        "bucket_kib",
                    ]))
                }
            },
            "placement" => match key {
                "policy" => self.placement.policy = val.as_str(line, key)?.parse().map_err(at)?,
                "locality_bias" => self.placement.locality_bias = val.as_f64(line, key)? as f32,
                _ => return Err(unknown(&["policy", "locality_bias"])),
            },
            "compute" => match key {
                "backend" => self.compute.backend = val.as_str(line, key)?.parse().map_err(at)?,
                _ => return Err(unknown(&["backend"])),
            },
            "ft" => match key {
                "enabled" => self.ft.enabled = val.as_bool(line, key)?,
                "ckpt_dir" => self.ft.ckpt_dir = val.as_str(line, key)?,
                "ckpt_every" => self.ft.ckpt_every = val.as_usize(line, key)?,
                "max_restarts" => self.ft.max_restarts = val.as_usize(line, key)?,
                "elastic" => self.ft.elastic = val.as_bool(line, key)?,
                "straggler_factor" => self.ft.straggler_factor = val.as_f64(line, key)?,
                "straggler_window" => self.ft.straggler_window = val.as_usize(line, key)?,
                _ => {
                    return Err(unknown(&[
                        "enabled",
                        "ckpt_dir",
                        "ckpt_every",
                        "max_restarts",
                        "elastic",
                        "straggler_factor",
                        "straggler_window",
                    ]))
                }
            },
            "serve" => match key {
                "max_batch" => self.serve.max_batch = val.as_usize(line, key)?,
                "kv_blocks" => self.serve.kv_blocks = val.as_usize(line, key)?,
                "block_tokens" => self.serve.block_tokens = val.as_usize(line, key)?,
                _ => return Err(unknown(&["max_batch", "kv_blocks", "block_tokens"])),
            },
            other => unreachable!("section [{other}] passed the header check"),
        }
        Ok(())
    }
}

const SECTIONS: [&str; 7] = [
    "model",
    "train",
    "comm",
    "placement",
    "compute",
    "ft",
    "serve",
];

/// A scalar value from the TOML subset.
enum Val {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl Val {
    fn type_name(&self) -> &'static str {
        match self {
            Val::Str(_) => "a string",
            Val::Int(_) => "an integer",
            Val::Float(_) => "a float",
            Val::Bool(_) => "a boolean",
        }
    }

    fn as_str(&self, line: usize, key: &str) -> Result<String, String> {
        match self {
            Val::Str(s) => Ok(s.clone()),
            v => Err(format!(
                "line {line}: {key} wants a quoted string, got {}",
                v.type_name()
            )),
        }
    }

    fn as_bool(&self, line: usize, key: &str) -> Result<bool, String> {
        match self {
            Val::Bool(b) => Ok(*b),
            v => Err(format!(
                "line {line}: {key} wants true or false, got {}",
                v.type_name()
            )),
        }
    }

    fn as_u64(&self, line: usize, key: &str) -> Result<u64, String> {
        match self {
            Val::Int(i) if *i >= 0 => Ok(*i as u64),
            Val::Int(i) => Err(format!("line {line}: {key} must be >= 0, got {i}")),
            v => Err(format!(
                "line {line}: {key} wants an integer, got {}",
                v.type_name()
            )),
        }
    }

    fn as_usize(&self, line: usize, key: &str) -> Result<usize, String> {
        Ok(self.as_u64(line, key)? as usize)
    }

    fn as_f64(&self, line: usize, key: &str) -> Result<f64, String> {
        match self {
            Val::Float(f) => Ok(*f),
            Val::Int(i) => Ok(*i as f64),
            v => Err(format!(
                "line {line}: {key} wants a number, got {}",
                v.type_name()
            )),
        }
    }
}

/// Drop a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(s: &str) -> Result<Val, String> {
    if let Some(rest) = s.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string: {s}"))?;
        if inner.contains('"') {
            return Err(format!("embedded quotes are not supported: {s}"));
        }
        return Ok(Val::Str(inner.to_string()));
    }
    match s {
        "true" => return Ok(Val::Bool(true)),
        "false" => return Ok(Val::Bool(false)),
        "" => return Err("empty value".into()),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        return Ok(Val::Int(i));
    }
    if let Ok(f) = s.parse::<f64>() {
        return Ok(Val::Float(f));
    }
    Err(format!(
        "cannot parse {s:?} (want a quoted string, integer, float, or true/false)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates_and_round_trips() {
        let rc = RunConfig::default();
        rc.validate().expect("default config is valid");
        let parsed = RunConfig::from_toml(&rc.to_toml()).expect("canonical TOML parses");
        assert_eq!(parsed, rc);
    }

    #[test]
    fn non_default_round_trips_exactly() {
        let rc = RunConfig {
            model: ModelSection {
                preset: "tiny".into(),
                experts: 8,
                gate: GateKind::Balanced,
            },
            train: TrainSection {
                ranks: 4,
                steps: 17,
                batch: 3,
                seq: 16,
                lr: 3.5e-3,
                dtype: DType::BF16,
                seed: 777,
                skew: 1.1,
                zero: false,
            },
            comm: CommSection {
                wire_dtype: WireDType::BF16,
                hierarchical: true,
                supernode_size: 2,
                overlap: false,
                bucket_kib: 64,
            },
            placement: PlacementSection {
                policy: ExpertPlacement::Supernode { supernode_size: 2 },
                locality_bias: 2.5,
            },
            compute: ComputeSection {
                backend: ComputeBackend::Half(DType::BF16),
            },
            ft: FtSection {
                enabled: true,
                ckpt_dir: "/tmp/ck".into(),
                ckpt_every: 4,
                max_restarts: 7,
                elastic: true,
                straggler_factor: 1.5,
                straggler_window: 2,
            },
            ..RunConfig::default()
        };
        rc.validate().expect("valid");
        let parsed = RunConfig::from_toml(&rc.to_toml()).expect("parses");
        assert_eq!(parsed, rc);
    }

    #[test]
    fn unknown_keys_and_sections_are_actionable_errors() {
        let e = RunConfig::from_toml("[train]\nstepz = 5\n").unwrap_err();
        assert!(
            e.contains("unknown key 'stepz'") && e.contains("steps"),
            "{e}"
        );
        let e = RunConfig::from_toml("[tarin]\nsteps = 5\n").unwrap_err();
        assert!(
            e.contains("unknown section [tarin]") && e.contains("train"),
            "{e}"
        );
        let e = RunConfig::from_toml("steps = 5\n").unwrap_err();
        assert!(e.contains("top level"), "{e}");
        let e = RunConfig::from_toml("[train]\nsteps = 5\nsteps = 6\n").unwrap_err();
        assert!(e.contains("duplicate key train.steps"), "{e}");
    }

    #[test]
    fn type_and_value_errors_name_the_line() {
        let e = RunConfig::from_toml("[train]\nsteps = \"many\"\n").unwrap_err();
        assert!(e.contains("line 2") && e.contains("integer"), "{e}");
        let e = RunConfig::from_toml("[train]\ndtype = \"fp12\"\n").unwrap_err();
        assert!(e.contains("fp12"), "{e}");
        let e = RunConfig::from_toml("[comm]\nbucket_kib = -1\n").unwrap_err();
        assert!(e.contains(">= 0"), "{e}");
    }

    #[test]
    fn contradictory_settings_are_rejected_with_fixes() {
        let mut rc = RunConfig::default();
        rc.ft.elastic = true; // without ft.enabled
        let e = rc.validate().unwrap_err();
        assert!(e.contains("ft.enabled"), "{e}");

        let mut rc = RunConfig::default();
        rc.comm.supernode_size = 2; // without hierarchical
        let e = rc.validate().unwrap_err();
        assert!(e.contains("hierarchical"), "{e}");

        let mut rc = RunConfig::default();
        rc.train.zero = true;
        rc.train.dtype = DType::BF16;
        let e = rc.validate().unwrap_err();
        assert!(e.contains("fp32"), "{e}");

        let mut rc = RunConfig::default();
        rc.ft.enabled = true;
        rc.ft.elastic = true;
        rc.ft.ckpt_every = 0;
        let e = rc.validate().unwrap_err();
        assert!(e.contains("ckpt_every"), "{e}");

        let mut rc = RunConfig::default();
        rc.model.experts = 6;
        rc.train.ranks = 4;
        let e = rc.validate().unwrap_err();
        assert!(e.contains("divide evenly"), "{e}");

        let mut rc = RunConfig::default();
        rc.ft.enabled = true;
        rc.ft.elastic = true;
        rc.compute.backend = ComputeBackend::TiledFma;
        let e = rc.validate().unwrap_err();
        assert!(e.contains("bit"), "{e}");
    }

    #[test]
    fn version_gate() {
        let e = RunConfig::from_toml("version = 99\n").unwrap_err();
        assert!(e.contains("version 99"), "{e}");
    }

    #[test]
    fn partial_file_overrides_defaults_only() {
        let rc = RunConfig::from_toml("[train]\nsteps = 7\n").unwrap();
        assert_eq!(rc.train.steps, 7);
        assert_eq!(rc.train.ranks, RunConfig::default().train.ranks);
        assert_eq!(
            rc,
            RunConfig {
                train: TrainSection {
                    steps: 7,
                    ..RunConfig::default().train
                },
                ..RunConfig::default()
            }
        );
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let rc = RunConfig::from_toml(
            "# header\nversion = 1  # inline\n\n[train]   \n  steps = 9 # why not\n",
        )
        .unwrap();
        assert_eq!(rc.train.steps, 9);
    }

    #[test]
    fn to_train_config_then_reconstruct_is_identity() {
        let mut rc = RunConfig::default();
        rc.train.ranks = 4;
        rc.model.experts = 8;
        rc.comm.wire_dtype = WireDType::F16;
        rc.comm.hierarchical = true;
        rc.comm.supernode_size = 2;
        rc.placement.policy = ExpertPlacement::Supernode { supernode_size: 2 };
        rc.placement.locality_bias = 1.5;
        let cfg = rc.to_train_config().expect("valid");
        let back = RunConfig::reconstruct(&cfg, None).expect("expressible");
        assert_eq!(back.to_train_config().expect("valid"), cfg);
        assert_eq!(back, rc);
    }

    #[test]
    fn reconstruct_refuses_library_only_features() {
        let mut cfg = RunConfig::default().to_train_config().unwrap();
        cfg.grad_accum = 2;
        assert!(RunConfig::reconstruct(&cfg, None).is_none());
        let mut cfg = RunConfig::default().to_train_config().unwrap();
        cfg.clip = Some(2.0);
        assert!(RunConfig::reconstruct(&cfg, None).is_none());
        let mut cfg = RunConfig::default().to_train_config().unwrap();
        cfg.model.d_model += 1; // matches no preset
        assert!(RunConfig::reconstruct(&cfg, None).is_none());
    }

    #[test]
    fn ft_round_trips_through_reconstruct() {
        let rc = RunConfig {
            ft: FtSection {
                enabled: true,
                ckpt_dir: "/tmp/x".into(),
                ckpt_every: 5,
                max_restarts: 2,
                elastic: true,
                straggler_factor: 2.0,
                straggler_window: 4,
            },
            ..RunConfig::default()
        };
        let cfg = rc.to_train_config().expect("valid");
        let ft = rc.to_ft_config().expect("enabled");
        let back = RunConfig::reconstruct(&cfg, Some(&ft)).expect("expressible");
        assert_eq!(back, rc);
    }

    #[test]
    fn serve_section_maps_to_engine_config() {
        let mut rc = RunConfig::default();
        rc.serve.max_batch = 3;
        rc.serve.kv_blocks = 17;
        let e = rc.to_engine_config();
        assert_eq!((e.max_batch, e.kv_blocks, e.block_tokens), (3, 17, 4));
        assert_eq!(rc.to_server_options(true).nranks, rc.train.ranks);
    }
}
