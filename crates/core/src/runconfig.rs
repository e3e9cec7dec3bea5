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
//!   [`to_ft_config`](RunConfig::to_ft_config); `[serve]` *is* an
//!   [`EngineConfig`]). The mapping is one-way: nothing converts a
//!   `TrainConfig` back, and checkpoints carry parameters and their
//!   placement, not the config,
//! * the auto-tuner (`bagualu-tune`) searches the space of `RunConfig`s
//!   and emits its winner as a TOML that feeds straight back into
//!   `bagualu train --config`.
//!
//! Each key is declared once, as a row of [`KEYS`]: its section and name,
//! its command-line flag, the subcommands that take the flag, and a get/set
//! pair through the field type's own `Display`/`FromStr`. The TOML writer,
//! the TOML reader and the CLI's flag overlay are loops over that table.
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
pub(crate) const RUN_CONFIG_VERSION: u32 = 1;

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
    pub(crate) gate: GateKind,
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
    pub(crate) dtype: DType,
    /// Master RNG seed (data, init, fault schedules, served prompts).
    pub seed: u64,
    /// Zipf skew of the token stream (0 = uniform).
    pub skew: f64,
    /// ZeRO-style sharded dense optimizer (any dtype; disables clip).
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
    pub(crate) max_restarts: usize,
    /// Continue on R−1 ranks after a crash instead of full restore.
    pub elastic: bool,
    /// Straggler flag threshold (× median send occupancy); 0 = off.
    pub straggler_factor: f64,
    /// Samples averaged before the straggler detector may flag.
    pub(crate) straggler_window: usize,
}

/// The full, versioned description of a run. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Schema version ([`RUN_CONFIG_VERSION`]).
    pub(crate) version: u32,
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
    /// `[serve]`: the inference engine's admission and memory limits.
    pub serve: EngineConfig,
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
            serve: EngineConfig::default(),
        }
    }
}

// ------------------------------------------------------------ the key table

/// How a key's value is spelled in TOML; the reader checks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A quoted string (also every enum-valued knob).
    Str,
    /// A non-negative integer.
    Int,
    /// A finite number (an integer literal is accepted).
    Float,
    /// `true` or `false`.
    Bool,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Str => "a string",
            Kind::Int => "an integer",
            Kind::Float => "a float",
            Kind::Bool => "a boolean",
        }
    }
}

/// A key's command-line spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// No flag: the key is set from a file (or, for `ft.enabled`, by the
    /// recovery-side flags).
    None,
    /// `--name VALUE`, read like the TOML value.
    Value(&'static str),
    /// A bare `--name` sets the key to `true`.
    Switch(&'static str),
    /// A bare `--name` sets the key to `false` (`--no-overlap`).
    Off(&'static str),
}

impl Flag {
    /// The flag's name without the leading `--`.
    pub fn name(self) -> Option<&'static str> {
        match self {
            Flag::None => None,
            Flag::Value(f) | Flag::Switch(f) | Flag::Off(f) => Some(f),
        }
    }
}

/// One schema key: where it lives, how the CLI spells it, and how to read
/// and write it. See [`KEYS`].
pub struct Key {
    /// The `[section]` (`""` for the top level).
    pub section: &'static str,
    /// The key within its section.
    pub name: &'static str,
    /// The value's TOML kind.
    pub kind: Kind,
    /// The command-line flag.
    pub flag: Flag,
    /// Whether `bagualu train` (and `tune`) take the flag.
    pub(crate) train: bool,
    /// Whether `bagualu serve` takes the flag.
    pub(crate) serve: bool,
    /// The value in a config, as its TOML literal (unquoted), through the
    /// field type's `Display` (`Debug` for floats, which keeps the `.0`).
    pub(crate) get: fn(&RunConfig) -> String,
    /// Parse a literal through the field type's `FromStr` into a config.
    /// Floats must be finite; integers must fit the field.
    pub set: fn(&mut RunConfig, &str) -> Result<(), String>,
}

impl Key {
    /// `section.name`, or `name` at the top level.
    pub(crate) fn path(&self) -> String {
        if self.section.is_empty() {
            self.name.to_string()
        } else {
            format!("{}.{}", self.section, self.name)
        }
    }

    /// Whether the subcommand takes this key's flag (`serve`, or `train`
    /// and `tune`).
    pub fn takes(&self, serve: bool) -> bool {
        if serve {
            self.serve
        } else {
            self.train
        }
    }
}

/// A field type the table reads and writes.
trait Scalar: std::str::FromStr<Err: std::fmt::Display> + std::fmt::Display {
    const KIND: Kind;

    fn read(text: &str) -> Result<Self, String> {
        text.parse().map_err(|e| format!("{e}"))
    }

    fn write(&self) -> String {
        self.to_string()
    }
}

macro_rules! scalar {
    ($kind:ident: $($t:ty),+) => {
        $(impl Scalar for $t {
            const KIND: Kind = Kind::$kind;
        })+
    };
}

scalar!(Int: u32, u64, usize);
scalar!(Bool: bool);
scalar!(Str: String, GateKind, DType, WireDType, ExpertPlacement, ComputeBackend);

macro_rules! float_scalar {
    ($($t:ty),+) => {
        $(impl Scalar for $t {
            const KIND: Kind = Kind::Float;

            fn read(text: &str) -> Result<Self, String> {
                match text.parse::<$t>() {
                    Ok(v) if !v.is_finite() => Err("not a finite number".into()),
                    parsed => parsed.map_err(|e| format!("{e}")),
                }
            }

            fn write(&self) -> String {
                format!("{self:?}")
            }
        })+
    };
}

float_scalar!(f32, f64);

const fn kind_of<T: Scalar>(_: fn(&RunConfig) -> &T) -> Kind {
    T::KIND
}

/// One [`Key`] row: `key!(section.name)` has no flag,
/// `key!(section.name, Flag::…, train | serve | both)` has one.
macro_rules! key {
    (@on train) => { (true, false) };
    (@on serve) => { (false, true) };
    (@on both) => { (true, true) };
    ($($path:ident).+) => { key!(@row Flag::None, (false, false), $($path).+) };
    ($($path:ident).+, $flag:expr, $on:ident) => { key!(@row $flag, key!(@on $on), $($path).+) };
    (@row $flag:expr, $on:expr, $($path:ident).+) => {
        Key {
            section: key!(@section $($path).+),
            name: key!(@name $($path).+),
            kind: kind_of(|rc| &rc.$($path).+),
            flag: $flag,
            train: $on.0,
            serve: $on.1,
            get: |rc| Scalar::write(&rc.$($path).+),
            set: |rc, text| {
                rc.$($path).+ = Scalar::read(text)?;
                Ok(())
            },
        }
    };
    (@section $name:ident) => { "" };
    (@section $section:ident . $name:ident) => { stringify!($section) };
    (@name $name:ident) => { stringify!($name) };
    (@name $section:ident . $name:ident) => { stringify!($name) };
}

/// Every schema key, in file order. `to_toml`, `from_toml` and the CLI's
/// flags (`crates/cli/src/config.rs`) are loops over this table;
/// docs/TUNING.md lists it (a test pins the two).
pub const KEYS: &[Key] = &[
    key!(version),
    key!(model.preset, Flag::Value("preset"), train),
    key!(model.experts, Flag::Value("experts"), both),
    key!(model.gate, Flag::Value("gate"), train),
    key!(train.ranks, Flag::Value("ranks"), both),
    key!(train.steps, Flag::Value("steps"), train),
    key!(train.batch, Flag::Value("batch"), train),
    key!(train.seq, Flag::Value("seq"), train),
    key!(train.lr, Flag::Value("lr"), train),
    key!(train.dtype, Flag::Value("dtype"), train),
    key!(train.seed, Flag::Value("seed"), both),
    key!(train.skew, Flag::Value("skew"), train),
    key!(train.zero, Flag::Switch("zero"), train),
    key!(comm.wire_dtype, Flag::Value("wire-dtype"), train),
    key!(comm.hierarchical, Flag::Switch("hierarchical"), both),
    key!(comm.supernode_size, Flag::Value("supernode-size"), both),
    key!(comm.overlap, Flag::Off("no-overlap"), train),
    key!(comm.bucket_kib, Flag::Value("bucket-kib"), train),
    key!(placement.policy, Flag::Value("placement"), both),
    key!(placement.locality_bias, Flag::Value("locality-bias"), both),
    key!(compute.backend, Flag::Value("compute-backend"), train),
    key!(ft.enabled),
    key!(ft.ckpt_dir, Flag::Value("ckpt-dir"), train),
    key!(ft.ckpt_every, Flag::Value("ckpt-every"), train),
    key!(ft.max_restarts, Flag::Value("max-restarts"), train),
    key!(ft.elastic, Flag::Switch("elastic"), train),
    key!(ft.straggler_factor, Flag::Value("straggler-factor"), train),
    key!(ft.straggler_window, Flag::Value("straggler-window"), train),
    key!(serve.max_batch, Flag::Value("max-batch"), serve),
    key!(serve.kv_blocks, Flag::Value("kv-blocks"), serve),
    key!(serve.block_tokens, Flag::Value("block-tokens"), serve),
];

impl RunConfig {
    /// The all-to-all topology this config names (supernode size 0 infers
    /// `ranks/2`, the CLI's historical `--hierarchical` behavior).
    pub(crate) fn a2a(&self) -> A2aKind {
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

    /// Reject what the trainer cannot run, with the fix spelled out: what
    /// [`to_train_config`](Self::to_train_config) rejects, and the rules of
    /// `TrainConfig::validate` that only training has (every rank hosts the
    /// same number of experts). `train` and `tune` check this; `serve` does
    /// not train and converts with `to_train_config` alone.
    pub fn validate(&self) -> Result<(), String> {
        self.to_train_config()?.validate()
    }

    /// The rules about the file: its version and preset, keys that only
    /// mean something next to another (`supernode_size`, the `[ft]` knobs),
    /// and `[serve]`.
    fn validate_file(&self) -> Result<(), String> {
        ensure!(
            self.version == RUN_CONFIG_VERSION,
            "unsupported config version {} (this build reads version {RUN_CONFIG_VERSION})",
            self.version
        );
        ensure!(
            self.comm.supernode_size == 0 || self.comm.hierarchical,
            "comm.supernode_size only shapes the hierarchical all-to-all; set \
             comm.hierarchical = true or drop it (a supernode *placement* carries its own \
             size as placement.policy = \"supernode:S\")"
        );
        // [ft]: knobs that only mean something under the recovery driver
        // must not be set while it is off — a config that silently ignores
        // half its keys is worse than an error.
        let ft = &self.ft;
        ensure!(
            ft.enabled || !ft.elastic,
            "ft.elastic = true but ft.enabled = false — the elastic resize only exists \
             inside the fault-tolerant driver; set ft.enabled = true or drop elastic"
        );
        ensure!(
            ft.enabled || ft.straggler_factor == 0.0,
            "ft.straggler_factor is set but ft.enabled = false — straggler detection runs \
             inside the fault-tolerant driver; set ft.enabled = true or drop it"
        );
        ensure!(
            !ft.elastic || self.compute.backend.bit_identical(),
            "ft.elastic verifies its resume against a fresh shrunk run bit for bit, but \
             compute.backend = \"{}\" only promises a tolerance band; use \"tiled\" (same \
             kernels, bit-identical) or drop elastic",
            self.compute.backend
        );
        ensure!(
            !ft.elastic || self.train.ranks >= 2,
            "ft.elastic needs train.ranks >= 2: a 1-rank world has no survivors to continue on"
        );
        ensure!(
            ft.ckpt_every > 0 || !(ft.elastic || ft.straggler_factor != 0.0),
            "ft.ckpt_every = 0 disables checkpoints, but ft.elastic re-shards from the last \
             checkpoint and straggler migration re-places experts at checkpoint boundaries; \
             give ckpt_every a positive interval"
        );
        ensure!(
            ft.straggler_factor == 0.0
                || (ft.straggler_factor > 1.0 && ft.straggler_factor.is_finite()),
            "ft.straggler_factor {} would flag healthy ranks on noise alone; it must exceed \
             1.0 (e.g. 1.5), or be 0 to disable detection",
            ft.straggler_factor
        );
        ensure!(
            !ft.enabled || ft.straggler_window > 0,
            "ft.straggler_window must be >= 1"
        );
        let serve = &self.serve;
        ensure!(
            serve.max_batch > 0 && serve.kv_blocks > 0 && serve.block_tokens > 0,
            "serve.max_batch, serve.kv_blocks, and serve.block_tokens must all be >= 1"
        );
        Ok(())
    }

    /// The model this config describes: the `[model]` preset with its
    /// expert count and gate overridden. The one place a preset name
    /// becomes a [`ModelConfig`].
    pub fn model_config(&self) -> Result<ModelConfig, String> {
        Ok(ModelConfig {
            n_experts: self.model.experts,
            gate: self.model.gate,
            ..preset(&self.model.preset)?
        })
    }

    /// Build the run's config: the model, world, topology and placement
    /// every command reads. Fails on a contradictory file or on anything
    /// `TrainConfig::validate_run` rejects, the rules of every run; a
    /// config for the trainer is [`validate`](Self::validate)d first. The
    /// `trace` flag (an observation artifact, not a run description) starts
    /// `false`; callers that want a trace set it on the result.
    pub fn to_train_config(&self) -> Result<TrainConfig, String> {
        self.validate_file()?;
        let cfg = TrainConfig {
            model: self.model_config()?,
            nranks: self.train.ranks,
            batch_per_rank: self.train.batch,
            seq: self.train.seq,
            steps: self.train.steps,
            lr: self.train.lr,
            dtype: self.train.dtype,
            a2a: self.a2a(),
            clip: if self.train.zero { None } else { Some(1.0) },
            seed: self.train.seed,
            data: if self.train.skew == 0.0 {
                TokenDistribution::Uniform
            } else {
                TokenDistribution::Zipf(self.train.skew)
            },
            zero_optimizer: self.train.zero,
            overlap: self.comm.overlap,
            bucket_bytes: self.comm.bucket_kib.checked_mul(1 << 10).ok_or_else(|| {
                format!(
                    "comm.bucket_kib = {} does not fit in a byte count",
                    self.comm.bucket_kib
                )
            })?,
            wire: self.comm.wire_dtype,
            placement: self.placement.policy,
            compute: self.compute.backend,
            locality_bias: self.placement.locality_bias,
            ..TrainConfig::default()
        };
        cfg.validate_run()?;
        Ok(cfg)
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

    /// Build the serving server options (`ranks` comes from `[train]` —
    /// one world size per run).
    pub fn to_server_options(&self, trace: bool) -> ServerOptions {
        ServerOptions {
            nranks: self.train.ranks,
            engine: self.serve,
            trace,
        }
    }

    // ---------------------------------------------------------------- TOML

    /// Serialize to the canonical TOML form, one line per [`KEYS`] row.
    /// [`from_toml`](Self::from_toml) parses it back to an equal value.
    pub fn to_toml(&self) -> String {
        let mut s = String::from(
            "# bagualu run configuration (docs/TUNING.md)\n\
             # reproduce with: bagualu train --config <this file>\n",
        );
        let mut section = "";
        for key in KEYS {
            if key.section != section {
                section = key.section;
                let _ = writeln!(s, "\n[{section}]");
            }
            let value = (key.get)(self);
            let _ = match key.kind {
                Kind::Str => writeln!(s, "{} = \"{value}\"", key.name),
                _ => writeln!(s, "{} = {value}", key.name),
            };
        }
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
        let mut section = "";
        let mut seen: Vec<String> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {line_no}: malformed section header: {raw}"))?
                    .trim();
                // KEYS lists each section's rows together.
                let mut sections: Vec<&'static str> = KEYS.iter().map(|k| k.section).collect();
                sections.dedup();
                sections.retain(|s| !s.is_empty());
                let Some(&found) = sections.iter().find(|&&s| s == name) else {
                    return Err(format!(
                        "line {line_no}: unknown section [{name}] (valid sections: {})",
                        sections.join(", ")
                    ));
                };
                section = found;
                continue;
            }
            let (name, value) = line.split_once('=').ok_or_else(|| {
                format!("line {line_no}: expected `key = value` or `[section]`, got: {raw}")
            })?;
            let name = name.trim();
            let (kind, value) = parse_value(value.trim())
                .map_err(|e| format!("line {line_no}: value for {name}: {e}"))?;
            let Some(key) = KEYS.iter().find(|k| k.section == section && k.name == name) else {
                let valid: Vec<&str> = KEYS
                    .iter()
                    .filter(|k| k.section == section)
                    .map(|k| k.name)
                    .collect();
                return Err(format!(
                    "line {line_no}: unknown key '{name}' in {} (valid keys: {})",
                    if section.is_empty() {
                        "the top level".to_string()
                    } else {
                        format!("[{section}]")
                    },
                    valid.join(", ")
                ));
            };
            let path = key.path();
            ensure!(
                !seen.contains(&path),
                "line {line_no}: duplicate key {path}"
            );
            ensure!(
                kind == key.kind || (key.kind, kind) == (Kind::Float, Kind::Int),
                "line {line_no}: {path} wants {}, got {}",
                key.kind.name(),
                kind.name()
            );
            ensure!(
                key.kind != Kind::Int || !value.starts_with('-'),
                "line {line_no}: {path} must be >= 0, got {value}"
            );
            (key.set)(&mut rc, value)
                .map_err(|e| format!("line {line_no}: {path} = {value}: {e}"))?;
            seen.push(path);
        }
        rc.validate()?;
        Ok(rc)
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

/// A scalar from the TOML subset: its kind and its text (unquoted).
fn parse_value(s: &str) -> Result<(Kind, &str), String> {
    if let Some(rest) = s.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string: {s}"))?;
        if inner.contains('"') {
            return Err(format!("embedded quotes are not supported: {s}"));
        }
        return Ok((Kind::Str, inner));
    }
    match s {
        "true" | "false" => Ok((Kind::Bool, s)),
        "" => Err("empty value".into()),
        _ if s.parse::<i64>().is_ok() => Ok((Kind::Int, s)),
        _ if s.parse::<f64>().is_ok() => Ok((Kind::Float, s)),
        _ => Err(format!(
            "cannot parse {s:?} (want a quoted string, integer, float, or true/false)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_validates_and_round_trips() {
        let rc = RunConfig::default();
        rc.validate().expect("default config is valid");
        let parsed = RunConfig::from_toml(&rc.to_toml()).expect("canonical TOML parses");
        assert_eq!(parsed, rc);
    }

    #[test]
    fn zero_at_half_precision_validates_and_round_trips() {
        // The sharded step is the same mixed-precision step, loss scaling
        // included, so ZeRO composes with every dtype.
        for dtype in [DType::F16, DType::BF16] {
            let mut rc = RunConfig::default();
            rc.train.zero = true;
            rc.train.dtype = dtype;
            rc.to_train_config()
                .expect("zero at half precision is valid");
            assert_eq!(RunConfig::from_toml(&rc.to_toml()).unwrap(), rc);
        }
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
        rc.ft.straggler_factor = 1.5; // without ft.enabled
        let e = rc.validate().unwrap_err();
        assert!(e.contains("ft.straggler_factor"), "{e}");

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

        let mut rc = RunConfig::default();
        rc.train.seq = 100; // the tiny preset's max_seq is 16
        let e = rc.validate().unwrap_err();
        assert!(e.contains("max_seq 16") && e.contains("lower seq"), "{e}");
    }

    #[test]
    fn non_finite_floats_are_rejected_naming_the_key() {
        for (text, key) in [
            ("[train]\nskew = nan\n", "train.skew"),
            ("[train]\nlr = 1e39\n", "train.lr"),
            (
                "[placement]\nlocality_bias = inf\n",
                "placement.locality_bias",
            ),
            (
                "[ft]\nenabled = true\nstraggler_factor = inf\n",
                "ft.straggler_factor",
            ),
        ] {
            let e = RunConfig::from_toml(text).unwrap_err();
            assert!(e.contains(key) && e.contains("finite"), "{text}: {e}");
        }
    }

    #[test]
    fn integers_must_fit_their_field() {
        // 2^32 + 1 would wrap to version 1.
        let e = RunConfig::from_toml("version = 4294967297\n").unwrap_err();
        assert!(e.contains("version") && e.contains("4294967297"), "{e}");
        // 2^54 KiB is 2^64 bytes, which would wrap to an empty bucket.
        let e = RunConfig::from_toml("[comm]\nbucket_kib = 18014398509481984\n").unwrap_err();
        assert!(e.contains("bucket_kib"), "{e}");
        let mut rc = RunConfig::default();
        rc.comm.bucket_kib = 1 << 54;
        assert!(rc.to_train_config().is_err());
    }

    /// docs/TUNING.md's key ↔ flag table lists exactly the rows of
    /// [`KEYS`], in order, with their flags and subcommands.
    #[test]
    fn the_documented_key_table_is_the_code_table() {
        let doc = include_str!("../../../docs/TUNING.md");
        let rows: Vec<Vec<&str>> = doc
            .lines()
            .filter(|l| l.starts_with("| `"))
            .map(|l| l.trim_matches('|').split(" | ").map(str::trim).collect())
            .collect();
        assert_eq!(rows.len(), KEYS.len(), "one documented row per key");
        for (row, key) in rows.iter().zip(KEYS) {
            assert_eq!(row[0], format!("`{}`", key.path()));
            let flag = row[1]
                .strip_prefix("`--")
                .map(|f| f.split([' ', '`']).next().unwrap());
            assert_eq!(flag, key.flag.name(), "{}", key.path());
            let taken = (row[2].contains("train"), row[2].contains("serve"));
            assert_eq!(taken, (key.train, key.serve), "{}", key.path());
        }
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
    fn serve_section_maps_to_engine_config() {
        let mut rc = RunConfig::default();
        rc.serve.max_batch = 3;
        rc.serve.kv_blocks = 17;
        let opts = rc.to_server_options(true);
        let want = EngineConfig {
            max_batch: 3,
            kv_blocks: 17,
            block_tokens: 4,
        };
        assert_eq!(opts.engine, want);
        assert_eq!(opts.nranks, rc.train.ranks);
        // The schema's `[serve]` defaults are the engine's.
        assert_eq!(RunConfig::default().serve, EngineConfig::default());
    }

    /// Every key but `version` reaches a config the run is built from: set
    /// to a valid non-default value, next to the companion keys it needs,
    /// it changes `to_train_config`, `to_ft_config` or `serve` against the
    /// companions alone (the defaults, for a key without companions).
    #[test]
    fn every_key_changes_the_config_it_feeds() {
        /// `(key path, TOML literal)` rows.
        type Rows = &'static [(&'static str, &'static str)];
        const FT_ON: Rows = &[("ft.enabled", "true")];
        let cases: &[(&str, &str, Rows)] = &[
            ("model.preset", "\"1.93t\"", &[]),
            ("model.experts", "8", &[]),
            ("model.gate", "\"balanced\"", &[]),
            ("train.ranks", "4", &[]),
            ("train.steps", "7", &[]),
            ("train.batch", "3", &[]),
            ("train.seq", "16", &[]),
            ("train.lr", "0.5", &[]),
            ("train.dtype", "\"bf16\"", &[]),
            ("train.seed", "7", &[]),
            ("train.skew", "1.1", &[]),
            ("train.zero", "true", &[]),
            ("comm.wire_dtype", "\"bf16\"", &[]),
            ("comm.hierarchical", "true", &[]),
            ("comm.supernode_size", "2", &[("comm.hierarchical", "true")]),
            ("comm.overlap", "false", &[]),
            ("comm.bucket_kib", "64", &[]),
            ("placement.policy", "\"block\"", &[]),
            ("placement.locality_bias", "1.5", &[]),
            ("compute.backend", "\"reference\"", &[]),
            ("ft.enabled", "true", &[]),
            ("ft.ckpt_dir", "\"/ckpt\"", FT_ON),
            ("ft.ckpt_every", "4", FT_ON),
            ("ft.max_restarts", "7", FT_ON),
            ("ft.elastic", "true", FT_ON),
            ("ft.straggler_factor", "1.5", FT_ON),
            ("ft.straggler_window", "5", FT_ON),
            ("serve.max_batch", "3", &[]),
            ("serve.kv_blocks", "17", &[]),
            ("serve.block_tokens", "8", &[]),
        ];
        let toml = |rows: &[(&str, &str)]| -> String {
            let mut text = String::new();
            for (path, value) in rows {
                let (section, name) = path.split_once('.').unwrap();
                let _ = writeln!(text, "[{section}]\n{name} = {value}");
            }
            text
        };
        let built = |text: &str| -> String {
            let rc = RunConfig::from_toml(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let train = rc.to_train_config().unwrap();
            format!("{train:?} {:?} {:?}", rc.to_ft_config(), rc.serve)
        };
        for key in KEYS.iter().filter(|k| k.name != "version") {
            let path = key.path();
            let Some(&(_, value, companions)) = cases.iter().find(|c| c.0 == path) else {
                panic!("{path} has no case here");
            };
            let mut rows = companions.to_vec();
            rows.push((&path, value));
            assert_ne!(
                built(&toml(&rows)),
                built(&toml(companions)),
                "{path} = {value} changes nothing"
            );
        }
    }

    /// Literals at the edges of every field type: zero, the largest u64,
    /// one past u32, huge and tiny floats, empty strings, and placements
    /// naming absurd ranks and supernodes.
    const EXTREME_LITERALS: &[&str] = &[
        "0",
        "-1",
        "18446744073709551615",
        "18446744073709551616",
        "4294967297",
        "18014398509481984",
        "1e308",
        "-1e308",
        "1e-320",
        "0.0",
        "nan",
        "true",
        "\"\"",
        "\"shed:18446744073709551615\"",
        "\"shed:0\"",
        "\"supernode:18446744073709551615\"",
        "\"supernode:0\"",
        "\"supernode\"",
        "\"half:fp16\"",
        "\"fp16\"",
        "\"174t\"",
    ];

    /// Headers a row can land under: the top level and every section.
    const SECTIONS: &[&str] = &[
        "",
        "model",
        "train",
        "comm",
        "placement",
        "compute",
        "ft",
        "serve",
    ];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

        // Any mix of schema keys set to extreme literals, each under its
        // own section or a random one (top level included), parses to a
        // config or to an error — never to a panic.
        #[test]
        fn from_toml_never_panics_on_extreme_literals(
            rows in proptest::collection::vec(
                (0..KEYS.len(), 0..EXTREME_LITERALS.len(), 0..SECTIONS.len() * 2),
                1..8,
            ),
        ) {
            let mut text = String::new();
            for (key, literal, section) in rows {
                let key = &KEYS[key];
                // Half the draws keep the key's own section.
                let section = SECTIONS.get(section).copied().unwrap_or(key.section);
                if !section.is_empty() {
                    text.push_str(&format!("[{section}]\n"));
                }
                text.push_str(&format!("{} = {}\n", key.name, EXTREME_LITERALS[literal]));
            }
            let parsed = std::panic::catch_unwind(|| RunConfig::from_toml(&text));
            prop_assert!(parsed.is_ok(), "from_toml panicked on:\n{text}");
        }
    }
}
