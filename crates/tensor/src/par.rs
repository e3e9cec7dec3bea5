//! The intra-op runtime as the kernels see it: how many lanes the calling
//! thread owns, and when a kernel call is worth fanning out over them.
//!
//! BaGuaLu gives every MPI rank one core group — an MPE plus 64 CPEs that
//! are started once and never shared with another rank. The analogue here
//! is a resident worker pool (the `vendor/rayon` shim, started once per
//! process) plus a per-thread **width**: a thread that nobody configured
//! owns every core, and a thread that hosts one of `n` ranks owns
//! [`rank_width`]`(n)` = `max(1, cores / n)` lanes, set where rank threads
//! are born (`comm::harness::run_ranks*`, `serve::run`). Two ranks on two cores
//! therefore run every kernel inline instead of fighting over the cores
//! with each other's workers. There is no flag for any of this: the width
//! follows from the core count and the rank count.
//!
//! Every parallel site in this crate asks `dispatch` with its estimated
//! work and then chunks its output through `par_chunks_mut`. Chunking only
//! decides *which lane* computes an output element, never the order of
//! additions inside one, so results are bit-identical at every width.

use bagualu_trace::{self as trace, names};
use rayon::prelude::*;

pub use rayon::{available_cores, current_num_threads, scoped_width, WidthGuard};

/// The width each of `nranks` rank threads gets: an equal share of the
/// cores, at least one lane.
pub fn rank_width(nranks: usize) -> usize {
    (available_cores() / nranks.max(1)).max(1)
}

/// One line for `train`/`serve` to print: what `nranks` rank threads run at.
pub fn describe_layout(nranks: usize) -> String {
    format!(
        "intra-op width {} = {} cores / {} ranks, pool of {} workers",
        rank_width(nranks),
        available_cores(),
        nranks,
        rayon::pool_workers()
    )
}

/// Estimated work per element of the row ops and the wire packers, in GEMM
/// multiply-adds (a GEMM's own work is its `m·n·k`). Two classes only, both
/// powers of two rounded down so the cutoff errs towards staying inline;
/// see [`MIN_WORK`] for which measurements stand behind them.
pub mod work {
    /// One element of a pass bound by a transcendental — a softmax /
    /// log-softmax `exp`, a GELU `tanh` or its derivative: ≈ 2–3 ns against
    /// the ≈ 0.04 ns of a tiled multiply-add.
    pub const EXP_ELEM: u64 = 64;
    /// One element of a streaming pass — layer norm, Adam, f32 ↔ f16/bf16
    /// conversion: ≈ 0.5–2 ns, memory-bound.
    pub const STREAM_ELEM: u64 = 16;
}

/// Calls estimated below this much work run inline at any width: ≈ 150 µs
/// of tiled GEMM on one core of the 2-core reference box, several times
/// the 4–90 µs that waking a parked worker costs there. One definition for
/// every backend and op.
///
/// What is measured on each side of it (2 cores, `reproduce e26` and the
/// scratch probes quoted in ROADMAP.md ledger (a)):
///
/// | class | inline side | dispatched side |
/// |---|---|---|
/// | GEMM | 64×32×64 NT (2^17): 5.7 µs inline | 512³ (2^27): E26 gate `nn_reference_dispatched_over_inline` |
/// | [`work::EXP_ELEM`] | 64×64 softmax (2^18): 12.6 µs inline | 256×2048 softmax (2^25): E26 gate `rowops_vectorized_over_reference`; 256×1024 GELU (2^24): E26 gate `gelu_over_libm` |
/// | [`work::STREAM_ELEM`] | not measured | Adam 1 M (2^24): same gate; layer norm 256×2048 (2^23): E26 table row |
///
/// Nothing times a call *at* the cutoff, and the pack path has no timed row
/// on either side, so "a dispatched call is never slower than the inline
/// one" is the sizing intent, gated only at the shapes above. The allocator
/// state that used to break it for a tiled GEMM — a freshly mapped output
/// whose every page faulted on first touch, under whichever lane touched it
/// — is gone: outputs and packed panels at or above 64 KiB are recycled
/// through [`crate::reservoir`] and stay mapped. Both sides are pinned
/// bit-identical at several widths in `tests/tests/matmul_backends.rs` and
/// `tests/tests/rowops_backends.rs`.
pub const MIN_WORK: u64 = 1 << 22;

/// Work one claimed chunk should carry where the call site is free to
/// choose (row ops, the reference GEMMs): ≈ 10 µs, so the chunk cursor is
/// noise, while a call at the cutoff still splits 16 ways.
const TASK_WORK: u64 = MIN_WORK / 16;

/// Should a kernel call with this much estimated work fan out? True when
/// it clears [`MIN_WORK`] and the calling thread owns more than one lane.
/// Records `compute.par.{dispatched,inline}` when tracing.
pub(crate) fn dispatch(work: u64) -> bool {
    let fan_out = work >= MIN_WORK && current_num_threads() > 1;
    if trace::enabled() {
        let name = if fan_out {
            names::COMPUTE_PAR_DISPATCHED
        } else {
            names::COMPUTE_PAR_INLINE
        };
        trace::count(name, 1);
    }
    fan_out
}

/// Run `body(index, chunk)` over `out` in chunks of `chunk` elements: on
/// the calling thread's lanes when [`dispatch`]`(work)` says so, otherwise
/// in order on the calling thread.
pub(crate) fn for_each_chunk<T: Send>(
    out: &mut [T],
    chunk: usize,
    work: u64,
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    if dispatch(work) {
        out.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(i, c)| body(i, c));
    } else {
        out.chunks_mut(chunk)
            .enumerate()
            .for_each(|(i, c)| body(i, c));
    }
}

/// Rows per claimed chunk so that one chunk carries about [`TASK_WORK`],
/// given one row's work.
pub(crate) fn rows_per_task(row_work: u64) -> usize {
    (TASK_WORK / row_work.max(1)).max(1) as usize
}

/// Rows of a GEMM's output per claimed chunk: [`rows_per_task`], but never
/// finer than [`MIN_GEMM_ROWS`] of the `m` rows there are. Lanes that claim
/// single interleaved rows of `C` write into each other's cache lines and
/// pages, and a 512³ reference GEMM dispatched that way ran at 0.6–0.8× the
/// inline call on 2 cores — measured when `C` was also freshly mapped and
/// every first touch a page fault; a recycled `C` ([`crate::reservoir`])
/// takes the faults away but not the sharing. In contiguous blocks it runs
/// at ≈ 1.9× (E26 gate `nn_reference_dispatched_over_inline`).
pub(crate) fn gemm_rows_per_task(m: usize, row_work: u64) -> usize {
    rows_per_task(row_work).max(MIN_GEMM_ROWS.min(m))
}

/// The tiled backend's `MC`, and the reference TN kernel's minimum panel.
const MIN_GEMM_ROWS: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_width_is_an_equal_share_of_the_cores() {
        let cores = available_cores();
        // Whatever the calling thread's own width is.
        let _w = scoped_width(3 * cores);
        assert_eq!(rank_width(1), cores);
        assert_eq!(rank_width(2), (cores / 2).max(1));
        assert_eq!(rank_width(cores), 1);
        assert_eq!(rank_width(64 * cores), 1, "never below one lane");
        assert_eq!(rank_width(0), cores, "zero ranks reads as one");
    }

    #[test]
    fn dispatch_needs_both_the_work_and_the_lanes() {
        {
            let _w = scoped_width(1);
            assert!(!dispatch(u64::MAX));
        }
        let _w = scoped_width(2);
        assert!(!dispatch(MIN_WORK - 1));
        assert!(dispatch(MIN_WORK));
    }

    #[test]
    fn tasks_carry_task_work_and_at_least_one_row() {
        assert_eq!(rows_per_task(TASK_WORK), 1);
        assert_eq!(rows_per_task(TASK_WORK * 9), 1);
        assert_eq!(rows_per_task(TASK_WORK / 8), 8);
        assert_eq!(rows_per_task(0), TASK_WORK as usize);
        // GEMM outputs: contiguous blocks, as many rows as there are at most.
        assert_eq!(gemm_rows_per_task(512, TASK_WORK), MIN_GEMM_ROWS);
        assert_eq!(gemm_rows_per_task(10, TASK_WORK), 10);
        assert_eq!(gemm_rows_per_task(4096, TASK_WORK / 128), 128);
    }
}
