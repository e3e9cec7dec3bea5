//! Rank-to-rank communication substrate.
//!
//! The original system runs one MPI process per SW26010-Pro core group. We
//! substitute a **shared-memory communicator**: every rank is an OS thread,
//! point-to-point messages go through per-rank mailboxes (mutex + condvar,
//! per the project's atomics-and-locks guide), and the collective
//! *algorithms* — ring reduce-scatter/all-gather, binomial trees, pairwise
//! and hierarchical all-to-all — are implemented on top of plain
//! send/receive exactly as they would be over MPI point-to-point. The
//! algorithms are therefore the object of study; only the transport is
//! substituted.
//!
//! Layers:
//!
//! * [`payload`] — typed message payloads (`f32` tensors, integer
//!   metadata) plus the [`WireDType`] knob that compresses tensor traffic
//!   to 16-bit FP16/BF16 elements in flight,
//! * [`shm`] — the mailbox transport: one [`World`] of ranks, one
//!   [`ShmComm`] per rank, eager sends, and one claim loop behind every
//!   receive (blocking, or posted with `irecv` and completed by
//!   `test`/`wait`), which ends once the source is dead (the rank unwinds
//!   with [`CommError::PeerDead`]) or, for [`ShmComm::recv_timeout`], once
//!   its deadline passes,
//! * [`collectives`] — the collective algorithms, generic over any
//!   [`Communicator`]: one entry point per collective, each algorithm
//!   written once, tensor collectives taking the [`WireDType`] they travel
//!   in (`WireDType::F32` is lossless). The ring all-reduce
//!   (`allreduce_wire`, the `RingAllreduce` stepper,
//!   `bucketed_allreduce_wire`) and its first half `reduce_scatter`;
//!   `allgather`; binomial `broadcast`; recursive doubling, blocking
//!   (`allreduce_recursive_doubling`) and failure-aware over a [`ShmComm`]
//!   ([`allreduce_ft`], `barrier_ft`); pairwise (`alltoallv_wire`,
//!   `alltoallv_u64`, `alltoallv_u32`) and hierarchical
//!   (`alltoallv_hierarchical_wire`) all-to-all; and
//!   [`collectives::allreduce_u64`] for exact integer control vectors,
//! * [`harness`] — `run_ranks`, which spawns one thread per rank and joins
//!   them, re-raising the panic of the rank that crashed first, and
//!   [`harness::run_ranks_ft`], which collects per-rank
//!   [`harness::RankOutcome`]s instead,
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]: a crash, a
//!   lost checkpoint shard, an nth-message drop or delay, a slow rank) and
//!   [`CommError`], what a wait on a dead or silent peer ends with instead
//!   of a hang.
//!
//! Observability: the transport reports per-family traffic through
//! [`CommStats`] and, when a `bagualu-trace` collector is installed on the
//! calling thread, mirrors every send/receive into per-family trace
//! counters (`comm.sent.<family>.*` / `comm.recv.<family>.*`) and counts
//! injected message drops (`fault.drops`). See `docs/OBSERVABILITY.md` at
//! the repo root.

#![warn(missing_docs)]

pub mod collectives;
pub mod fault;
pub mod harness;
pub mod payload;
pub mod shm;

pub use collectives::{allreduce_ft, ReduceOp};
pub use fault::{CommError, FaultPlan, FaultRuntime, FaultSpec};
pub use harness::{run_ranks, run_ranks_deadline, run_ranks_ft, RankOutcome};
pub use payload::WireDType;
pub use shm::{CommFamily, CommStats, Communicator, FamilyStats, ShmComm, ShmRecv, World};
