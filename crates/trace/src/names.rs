//! Canonical span and counter names.
//!
//! Instrumentation sites across the workspace use these constants so that
//! analysis code (experiment E23, the pinned agreement tests) never has to
//! guess at strings. The taxonomy is documented in `docs/OBSERVABILITY.md`.

/// One full training step (outermost per-step span).
pub const STEP: &str = "step";
/// Forward pass of one micro-batch (includes the loss computation).
pub const FORWARD: &str = "forward";
/// Backward pass of one micro-batch. Under the overlapped gradient sync
/// this span also hosts the in-flight ring polling; the time spent driving
/// rings inside it is reported by [`OVERLAP_POLL_NS`].
pub const BACKWARD: &str = "backward";
/// Exposed dense-gradient synchronization: the monolithic blocking
/// all-reduce, or the tail drain of the bucketed overlapped sync.
pub const GRAD_SYNC: &str = "grad_sync";
/// MoE token dispatch all-to-all (forward: tokens out; backward: dY out).
pub const A2A_DISPATCH: &str = "a2a_dispatch";
/// MoE result combine all-to-all (forward: expert outputs back; backward:
/// dX back).
pub const A2A_COMBINE: &str = "a2a_combine";
/// Optimizer update (replicated mixed-precision Adam or sharded ZeRO step,
/// including the ZeRO reduce-scatter/all-gather).
pub const OPTIMIZER: &str = "optimizer";
/// Held-out evaluation forward pass.
pub const EVAL: &str = "eval";
/// Stage one of one checkpoint shard: encoding it, its record CRCs and the
/// `write` calls that hand it to the kernel. Stage two (fsync, rename,
/// directory fsync) runs on a writer thread; see [`CKPT_COMMIT_WAIT`].
pub const CHECKPOINT: &str = "checkpoint";
/// A rank waiting at a step boundary on its checkpoint writer thread (the
/// join of stage two) and, on rank 0, on the previous `MANIFEST` writer
/// before it starts the next.
pub const CKPT_COMMIT_WAIT: &str = "ckpt.commit_wait";
/// One failed attempt in the fault-tolerant driver: detection plus the
/// teardown of the attempt (recorded on [`crate::DRIVER_LANE`]).
pub const RECOVERY: &str = "recovery";

/// Ring all-reduce steps launched by the bucketed overlapped sync.
pub const RING_STEPS: &str = "sync.ring_steps";
/// Ring all-reduce steps that completed while backward compute was still
/// running — the measured communication/computation overlap.
pub const RING_STEPS_OVERLAPPED: &str = "sync.ring_steps_overlapped";
/// Nanoseconds spent polling in-flight rings from inside the backward pass
/// (the wall-clock footprint of the *hidden* communication).
pub const OVERLAP_POLL_NS: &str = "sync.overlap_poll_ns";
/// Payload bytes sent with 4-byte `f32` elements. The `comm.wire.*`
/// counters slice the same sent bytes as the `comm.sent.<family>.*`
/// counters, but by element format instead of collective family — the
/// observable for wire-compression experiments (E24). They deliberately do
/// **not** share the `comm.sent.` prefix, which `sent_bytes_by_family`
/// pattern-matches.
pub const WIRE_F32_BYTES: &str = "comm.wire.fp32.bytes";
/// Payload bytes sent with 2-byte FP16 elements (see [`WIRE_F32_BYTES`]).
pub const WIRE_F16_BYTES: &str = "comm.wire.fp16.bytes";
/// Payload bytes sent with 2-byte BF16 elements (see [`WIRE_F32_BYTES`]).
pub const WIRE_BF16_BYTES: &str = "comm.wire.bf16.bytes";
/// Payload bytes sent as 8-byte `u64` metadata (see [`WIRE_F32_BYTES`]).
pub const WIRE_U64_BYTES: &str = "comm.wire.u64.bytes";
/// Payload bytes sent as 4-byte `u32` metadata (see [`WIRE_F32_BYTES`]).
pub const WIRE_U32_BYTES: &str = "comm.wire.u32.bytes";

/// All-to-all payload bytes whose source and destination ranks share a
/// supernode. Sliced out of the `comm.sent.alltoall.bytes` total by the
/// transport once a supernode size is armed
/// (`Communicator::set_supernode_size`); the measured counterpart of the
/// locality fraction that `net::cost::alltoall_with_locality` models and
/// that supernode-aware expert placement (E25) raises. Like `comm.wire.*`,
/// these deliberately avoid the `comm.sent.` prefix, which
/// `sent_bytes_by_family` pattern-matches.
pub const A2A_INTRA_BYTES: &str = "comm.a2a.intra.bytes";
/// All-to-all payload bytes crossing a supernode boundary (see
/// [`A2A_INTRA_BYTES`]).
pub const A2A_INTER_BYTES: &str = "comm.a2a.inter.bytes";

/// Multiply-add operations (counted as 2·m·k·n per GEMM) executed by the
/// matmul kernels, whichever backend is installed. Together with
/// [`COMPUTE_MATMUL_NS`] this yields achieved GFLOP/s, the observable for
/// the kernel-floor experiments (E26) and E23's honest compute
/// attribution.
pub const COMPUTE_MATMUL_FLOPS: &str = "compute.matmul.flops";
/// Wall-clock nanoseconds spent inside matmul kernels, including any fused
/// bias+activation epilogue (see [`COMPUTE_MATMUL_FLOPS`]).
pub const COMPUTE_MATMUL_NS: &str = "compute.matmul.ns";
/// Tiled NN GEMM calls that skipped the pack: all of A's rows fit one
/// register tile, so the micro-kernels read row-major B in place (decode
/// projections, lightly loaded experts).
pub const COMPUTE_MATMUL_UNPACKED: &str = "compute.matmul.unpacked";
/// Bytes of packed-B panels written by the tiled GEMMs (NN and NT). A
/// weight packed on every call is what a weight-stationary panel cache
/// would save; this is its number.
pub const COMPUTE_PACK_BYTES: &str = "compute.pack.bytes";
/// Wall-clock nanoseconds spent packing (see [`COMPUTE_PACK_BYTES`]);
/// inside the same calls' [`COMPUTE_MATMUL_NS`].
pub const COMPUTE_PACK_NS: &str = "compute.pack.ns";

/// Nominal FLOPs executed by the row-wise softmax family (softmax and
/// log-softmax: 5 per element — compare, subtract, exp, sum, scale),
/// whichever row-op backend is installed. Nominal counts keep achieved
/// rates comparable across PRs; `exp` is of course many hardware ops.
pub const COMPUTE_SOFTMAX_FLOPS: &str = "compute.softmax.flops";
/// Wall-clock nanoseconds inside the softmax kernels (see
/// [`COMPUTE_SOFTMAX_FLOPS`]).
pub const COMPUTE_SOFTMAX_NS: &str = "compute.softmax.ns";
/// Elements passed through GELU or its derivative: the standalone forward
/// and backward kernels and the fused GEMM epilogue alike. With
/// [`COMPUTE_GELU_NS`] this is the activation's cost per element, the row
/// that was invisible inside the FFN and expert spans while it cost more
/// than the GEMMs around it.
pub const COMPUTE_GELU_ELEMS: &str = "compute.gelu.elems";
/// Lane nanoseconds inside the GELU kernels (see [`COMPUTE_GELU_ELEMS`]):
/// the time of every slice-kernel call, summed over the intra-op lanes
/// that ran them — not the caller's wall clock, which a fused epilogue
/// interleaved with its GEMM does not have — so `ns ÷ elems` reads the
/// same at any width, standalone or fused. A fused epilogue's share covers
/// the activation only (not the bias add) and also sits inside that
/// call's wall-clock [`COMPUTE_MATMUL_NS`].
pub const COMPUTE_GELU_NS: &str = "compute.gelu.ns";
/// Nominal FLOPs executed by layer-norm forward (8 per element: two
/// reduction adds, centered square, normalize, scale, shift).
pub const COMPUTE_LAYERNORM_FLOPS: &str = "compute.layernorm.flops";
/// Wall-clock nanoseconds inside layer-norm forward (see
/// [`COMPUTE_LAYERNORM_FLOPS`]).
pub const COMPUTE_LAYERNORM_NS: &str = "compute.layernorm.ns";
/// Nominal FLOPs executed by the fused optimizer update (14 per element:
/// unscale and clip, two moment lerps, two bias corrections, sqrt, divide,
/// decay, apply).
pub const COMPUTE_ADAM_FLOPS: &str = "compute.adam.flops";
/// Wall-clock nanoseconds inside the fused optimizer update, which also
/// publishes a master weight's half-rounded copy and zeroes the gradient
/// (see [`COMPUTE_ADAM_FLOPS`]).
pub const COMPUTE_ADAM_NS: &str = "compute.adam.ns";

/// Kernel calls (GEMM, row op, or pack) that fanned out over the intra-op
/// pool: estimated work at or above the parallel cutoff on a thread whose
/// width is at least 2. Next to the `compute.*.ns` counters this says how
/// many of a lane's kernel calls left the calling thread.
pub const COMPUTE_PAR_DISPATCHED: &str = "compute.par.dispatched";
/// Kernel calls that ran inline on the calling thread (see
/// [`COMPUTE_PAR_DISPATCHED`]).
pub const COMPUTE_PAR_INLINE: &str = "compute.par.inline";

/// Constructing one rank's model shard in the trainer: drawing what the rank
/// owns, skipping the init stream past what it does not (see
/// [`INIT_DRAWN_ELEMS`]).
pub const MODEL_BUILD: &str = "model.build";
/// Weight elements the random tensor initializers (`Tensor::randn`,
/// `xavier`, `uniform`) drew. A freshly started rank draws exactly the
/// randomly initialized weights it owns; a rank about to restore a
/// checkpoint draws none.
pub const INIT_DRAWN_ELEMS: &str = "init.drawn_elems";
/// Weight elements the initializers stepped the init stream past without
/// evaluating (another rank's experts, or everything on a restoring rank).
/// `drawn + skipped` is the whole model's randomly initialized element
/// count, the same on every rank.
pub const INIT_SKIPPED_ELEMS: &str = "init.skipped_elems";

/// Bytes of buffer capacity the process-wide tensor reservoir
/// (`bagualu_tensor::reservoir`) served from its free lists. The three
/// `mem.reservoir.*_bytes` counters are process-wide, so they are published
/// on one lane only — rank 0's, once after the model is built, once per
/// step and once at the end of a run — and each event carries what happened
/// on every thread since the previous one.
pub const MEM_RESERVOIR_HIT_BYTES: &str = "mem.reservoir.hit_bytes";
/// Bytes the reservoir had to allocate afresh (see
/// [`MEM_RESERVOIR_HIT_BYTES`]). After the first step of a fixed-shape run
/// this stays 0: the step allocates nothing.
pub const MEM_RESERVOIR_MISS_BYTES: &str = "mem.reservoir.miss_bytes";
/// Bytes the reservoir freed to the allocator to stay within the program's
/// own high-water mark (see [`MEM_RESERVOIR_HIT_BYTES`]).
pub const MEM_RESERVOIR_RELEASED_BYTES: &str = "mem.reservoir.released_bytes";
/// Gauge: the most the reservoir has held on its free lists since the
/// process started, bytes. Recorded once per run, by the driver, after the
/// last rank has finished (rank 0's lane).
pub const MEM_RESERVOIR_RETAINED_PEAK_BYTES: &str = "mem.reservoir.retained_peak_bytes";
/// Minor page faults the whole process took during the run
/// (`/proc/self/stat` field 10, end minus start; recorded by the driver on
/// rank 0's lane, which carries every process-wide row). A buffer
/// handed back to the allocator and mapped again shows up here and in
/// [`HOST_SYS_MS`], and nowhere in a kernel's own time.
pub const HOST_MINOR_FAULTS: &str = "host.minor_faults";
/// Milliseconds of system (kernel) CPU time the whole process spent during
/// the run (`/proc/self/stat` field 15 at the kernel's 100 ticks a second;
/// rank 0's lane, like [`HOST_MINOR_FAULTS`]).
pub const HOST_SYS_MS: &str = "host.sys_ms";

/// Nanoseconds a checkpoint save spent encoding records into its staging
/// buffer and folding them into record CRCs (the streaming pass minus
/// [`CKPT_WRITE_NS`]). Recorded per file, inside the
/// [`CHECKPOINT`] span when the trainer saves.
pub const CKPT_ENCODE_CRC_NS: &str = "ckpt.encode_crc_ns";
/// Nanoseconds a checkpoint save spent in `write` calls on the staging file.
pub const CKPT_WRITE_NS: &str = "ckpt.write_ns";
/// Nanoseconds spent making a checkpoint file durable: fsync of the staging
/// file, the rename, and the fsync of its directory (shards and `MANIFEST`).
/// A shard's stage two runs on a writer thread; its time is counted on the
/// rank's lane when the rank joins the writer.
pub const CKPT_FSYNC_NS: &str = "ckpt.fsync_ns";
/// Bytes written to checkpoint shards.
pub const CKPT_BYTES_WRITTEN: &str = "ckpt.bytes_written";
/// Nanoseconds checkpoint readers spent in `read` calls (restore and
/// metadata walks).
pub const CKPT_READ_NS: &str = "ckpt.read_ns";
/// Bytes checkpoint readers pulled from their files. A rank that restores
/// reads its shard exactly once, so this equals the shard's length.
pub const CKPT_BYTES_READ: &str = "ckpt.bytes_read";

/// Messages dropped in flight by fault injection.
pub const FAULT_DROPS: &str = "fault.drops";
/// Restarts performed by the fault-tolerant driver (driver lane).
pub const RESTARTS: &str = "ft.restarts";
/// Elastic world resizes performed by the fault-tolerant driver: attempts
/// continued on R−1 ranks after a crash instead of restoring at full width
/// (driver lane).
pub const FT_RESIZES: &str = "ft.resizes";
/// Straggler flag events raised by the online [`crate::StragglerDetector`]
/// — one per detection, recorded on rank 0's lane (every rank reaches the
/// same verdict from the same all-reduced samples; counting once keeps the
/// total equal to the number of events, not events × ranks).
pub const STRAGGLER_FLAGGED: &str = "straggler.flagged";
/// Expert-load migrations executed in response to a straggler flag,
/// amortized at checkpoint boundaries (driver lane).
pub const STRAGGLER_MIGRATIONS: &str = "straggler.migrations";

/// Nested inside [`SERVE_DECODE_STEP`] on the engine steps whose walk
/// carries prompt rows: the full prompts of the requests admitted at this
/// step boundary ride the same walk as the decode rows.
pub const SERVE_PREFILL: &str = "serve.prefill";
/// The one walk through the blocks of a serving engine step: the prompts
/// admitted at this boundary plus one row for every older in-flight
/// sequence, each sequence gaining one token (collective, so it runs even
/// when empty). The span count is the step count.
pub const SERVE_DECODE_STEP: &str = "serve.decode_step";
/// Nanoseconds requests spent queued before admission (arrival →
/// admission), summed over admitted requests.
pub const SERVE_QUEUE_WAIT_NS: &str = "serve.queue.wait_ns";
/// Prompt rows in the engine steps' walks.
pub const SERVE_PREFILL_TOKENS: &str = "serve.prefill.tokens";
/// Decode rows in the engine steps' walks: one per sequence admitted at an
/// earlier step.
pub const SERVE_DECODE_TOKENS: &str = "serve.decode.tokens";
/// Sum over engine steps of the sequences in the walk; divided by
/// the [`SERVE_DECODE_STEP`] span count this is the mean batch occupancy,
/// the utilization continuous batching exists to raise.
pub const SERVE_BATCH_OCCUPANCY: &str = "serve.batch.occupancy";
/// KV-cache blocks reserved at admission (monotonic; current usage is
/// `used − freed`).
pub const SERVE_KV_BLOCKS_USED: &str = "serve.kv.blocks.used";
/// KV-cache blocks returned to the free list when a sequence detached
/// (monotonic; see [`SERVE_KV_BLOCKS_USED`]).
pub const SERVE_KV_BLOCKS_FREE: &str = "serve.kv.blocks.free";
/// Admission attempts bounced by KV-block exhaustion — the request stays
/// queued (re-queued, never dropped) and retries at a later step boundary.
pub const SERVE_REQUEUED: &str = "serve.requests.requeued";
/// Requests fully decoded and handed back to the caller.
pub const SERVE_COMPLETED: &str = "serve.requests.completed";
