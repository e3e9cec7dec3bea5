//! The intra-op runtime as the kernels see it: how many lanes the calling
//! thread owns, and when a kernel call is worth fanning out over them.
//!
//! BaGuaLu gives every MPI rank one core group — an MPE plus 64 CPEs that
//! are started once and never shared with another rank. The analogue here
//! is a resident worker pool (the `vendor/rayon` shim, started once per
//! process) plus a per-thread **width**: a thread that nobody configured
//! owns every core, and a thread that hosts one of `n` ranks owns
//! [`rank_width`]`(n)` of its parent's lanes, set where rank threads are
//! born (`comm::harness::run_ranks*`, `serve::run`). Two ranks on two cores
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

pub use rayon::{scoped_width, WidthGuard};

/// Cores available to this process (read once).
pub fn cores() -> usize {
    rayon::available_cores()
}

/// Intra-op lanes the calling thread owns, itself included.
pub fn width() -> usize {
    rayon::current_num_threads()
}

/// The width each of `nranks` rank threads spawned *by the calling thread*
/// gets: an equal share of the caller's lanes, at least one.
pub fn rank_width(nranks: usize) -> usize {
    (width() / nranks.max(1)).max(1)
}

/// One line for `train`/`serve` to print: what `nranks` rank threads
/// spawned from the calling thread will run at.
pub fn describe_layout(nranks: usize) -> String {
    format!(
        "intra-op width {} = {} cores / {} ranks, pool of {} workers",
        rank_width(nranks),
        cores(),
        nranks,
        rayon::pool_workers()
    )
}

/// Estimated work per unit of each op class, in the time of one tiled-GEMM
/// multiply-add (≈ 0.04 ns on the reference box): what `BENCH_kernels.json`
/// measures per element, rounded down to a power of two so the cutoff errs
/// towards staying inline.
pub mod work {
    /// One multiply-add of a GEMM (`m·n·k` of them), priced at the fastest
    /// backend so no backend fans out work that its speed makes small.
    pub const GEMM_MAC: u64 = 1;
    /// One softmax / log-softmax element (an `exp`, ≈ 3 ns).
    pub const SOFTMAX_ELEM: u64 = 64;
    /// One layer-norm element (three passes over the row, ≈ 2 ns).
    pub const LAYERNORM_ELEM: u64 = 32;
    /// One Adam element (four streams, a sqrt and two divides, ≈ 1 ns).
    pub const ADAM_ELEM: u64 = 16;
    /// One f32 ↔ f16/bf16 conversion (≈ 0.5–2 ns).
    pub const PACK_ELEM: u64 = 8;
}

/// Calls estimated below this much work run inline at any width: ≈ 150 µs
/// on one core, several times what waking a parked worker costs, so a
/// dispatched call is never slower than the inline one would have been.
/// One definition for every backend and op; both sides of it are pinned
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
    let fan_out = work >= MIN_WORK && width() > 1;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_width_is_an_equal_share_of_the_callers_lanes() {
        let _w = scoped_width(8);
        assert_eq!(rank_width(1), 8);
        assert_eq!(rank_width(2), 4);
        assert_eq!(rank_width(3), 2);
        assert_eq!(rank_width(8), 1);
        assert_eq!(rank_width(64), 1, "never below one lane");
        assert_eq!(rank_width(0), 8, "zero ranks reads as one");
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
    }
}
