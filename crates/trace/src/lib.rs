//! Per-rank structured tracing for the BaGuaLu reproduction.
//!
//! Every scaling table ultimately answers "where does the step time go";
//! this crate is the single source of truth for that question. It provides
//! **nestable spans** (`forward`, `backward`, `grad_sync`, `a2a_dispatch`,
//! `a2a_combine`, `checkpoint`, `recovery`, …) and **monotonic counters**
//! (bytes/messages per collective family, ring-allreduce progress, fault
//! drops, restarts), recorded into a fixed-capacity **per-rank ring
//! buffer** with negligible overhead when tracing is disabled (one relaxed
//! atomic load per call site).
//!
//! Key types and data flow:
//!
//! * [`TraceCollector`] — created by the driver (one per training run);
//!   each rank thread calls [`TraceCollector::install`] so the thread-local
//!   [`span`]/[`count`] free functions record into that rank's lane,
//! * [`span`] — RAII guard marking a nested phase; [`count`] — add to a
//!   named monotonic counter,
//! * [`Trace`] — the merged result ([`TraceCollector::finish`]): per-rank
//!   event logs plus analysis helpers ([`Trace::counter_total`],
//!   [`Trace::span_total_ns`], [`Trace::overlap_fraction`]),
//! * `host` — page faults and kernel time of the whole process per run,
//!   the cost no span inside the program can see,
//! * [`chrome`] — export as Chrome trace-event JSON (loadable in
//!   `chrome://tracing` / Perfetto) and as a per-rank text summary table.
//!
//! Upstream, `bagualu-comm` counts transport traffic, `bagualu-parallel`
//! marks the MoE all-to-all and the overlapped gradient sync, and the
//! `bagualu` trainer marks step phases and recovery; downstream, the CLI's
//! `--trace` flag and experiment E23 consume the export. See
//! `docs/OBSERVABILITY.md` for the span/counter taxonomy.

#![warn(missing_docs)]

pub mod chrome;
pub(crate) mod host;
pub mod names;
pub(crate) mod ring;
pub(crate) mod straggler;
pub(crate) mod trace;
pub(crate) mod tracer;

pub use host::HostUsage;
pub use straggler::StragglerDetector;
pub use trace::{Event, EventKind, RankTrace, Trace};
pub use tracer::{count, enabled, span, InstallGuard, SpanGuard, TraceCollector, DRIVER_LANE};
