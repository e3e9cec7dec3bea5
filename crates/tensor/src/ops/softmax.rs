//! The one softmax of the workspace, and its tensor-level dispatchers.
//!
//! Every probability in the system comes out of [`softmax_row_body`]: the
//! row ops' softmax and log-softmax (the loss, the gates, the served
//! router), the causal attention kernels of [`crate::ops::attention`],
//! serving's decode attention and the two-level gate's group softmax (the
//! last two through [`softmax_row`]). It runs on the repository's own
//! [`exp`](crate::math::exp) and its log-sum-exp on
//! [`ln`](crate::math::ln), so no softmax bit comes from the host's libm.
//!
//! A row is max-subtracted, exponentiated and scaled by `1 / Σ`. The sum
//! goes to sixteen lanes **by element index** — element `j` into lane
//! `j mod 16`, each lane in ascending `j` from `+0.0` — and the lanes are
//! then added in lane order. Element `j` always lands in the same lane, so
//! a row's bits do not depend on the vector width; and `exp(−∞) = +0`
//! adds nothing to a lane, so a row followed by masked `−∞` entries has the
//! bits of the row alone (a causal prefix is its masked full row). Rows of
//! at most sixteen elements have at most one element per lane, so a plain
//! sequential sum is the same sum: they take that path, which keeps the
//! 4-wide router rows as cheap as a scalar loop.
//!
//! The tensor-level free functions resolve the calling thread's
//! [`RowOpsBackend`](crate::ops::rowops::RowOpsBackend), record the
//! `compute.softmax.{flops,ns}` trace counters when tracing is enabled,
//! and delegate; both row-op tiers run [`softmax_block`] (the vectorized
//! one over blocks of rows on the intra-op lanes).

use crate::lanes::{lanes_fn, Lanes};
use crate::math::{exp, ln};
use crate::ops::rowops::{current_row_ops, traced_rowop, SOFTMAX_FLOPS_PER_ELEM};
use crate::tensor::Tensor;
use bagualu_trace::names;

/// Lanes of the sum, and the longest row that takes the sequential path.
const LANES: usize = 16;

/// `exp` of every element in place, sixteen at a time.
#[inline(always)]
fn exp_in_place(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for c in &mut chunks {
        for v in c {
            *v = exp(*v);
        }
    }
    for v in chunks.into_remainder() {
        *v = exp(*v);
    }
}

/// Rows the lane path runs side by side, so that their cross-lane
/// reductions — each a chain of dependent operations — overlap.
const ROWS: usize = 4;

/// The lane path of [`softmax_row_body`] on up to [`ROWS`] rows at once
/// (unused slots are empty rows), each of any length: `exp(x − max)` per
/// element, summed into lanes by element index, the lanes then added in
/// lane order. Returns each row's max and sum.
#[inline(always)]
fn softmax_lanes_rows(mut rows: [&mut [f32]; ROWS]) -> [(f32, f32); ROWS] {
    // The max, lane-wise and then pairwise across lanes. A select, not
    // `f32::max`: the two agree on every input (a NaN element is skipped
    // by both), and the select is one vector instruction. A max is exact,
    // so the order of the selects decides nothing but, between `+0` and
    // `−0`, which zero is subtracted: no difference to any `exp` or sum.
    let mut max = [f32::NEG_INFINITY; ROWS];
    for (row, max) in rows.iter().zip(&mut max) {
        let mut m = [f32::NEG_INFINITY; LANES];
        let mut chunks = row.chunks_exact(LANES);
        for c in &mut chunks {
            for l in 0..LANES {
                m[l] = if c[l] > m[l] { c[l] } else { m[l] };
            }
        }
        for (l, &v) in chunks.remainder().iter().enumerate() {
            m[l] = if v > m[l] { v } else { m[l] };
        }
        let mut w = LANES / 2;
        while w > 0 {
            for l in 0..w {
                m[l] = if m[l + w] > m[l] { m[l + w] } else { m[l] };
            }
            w /= 2;
        }
        *max = m[0];
    }
    let mut acc = [[0.0f32; LANES]; ROWS];
    for ((row, acc), &max) in rows.iter_mut().zip(&mut acc).zip(&max) {
        let mut chunks = row.chunks_exact_mut(LANES);
        for c in &mut chunks {
            for l in 0..LANES {
                let e = exp(c[l] - max);
                c[l] = e;
                acc[l] += e;
            }
        }
        for (l, v) in chunks.into_remainder().iter_mut().enumerate() {
            let e = exp(*v - max);
            *v = e;
            acc[l] += e;
        }
    }
    let mut sum = [0.0f32; ROWS];
    for (sum, acc) in sum.iter_mut().zip(&acc) {
        *sum = acc[0];
    }
    for l in 1..LANES {
        for (sum, acc) in sum.iter_mut().zip(&acc) {
            *sum += acc[l];
        }
    }
    for (row, &sum) in rows.iter_mut().zip(&sum) {
        scale_row(row, sum);
    }
    [0, 1, 2, 3].map(|r| (max[r], sum[r]))
}

/// [`softmax_lanes_rows`] on one row.
#[inline(always)]
fn softmax_lanes(row: &mut [f32]) -> (f32, f32) {
    softmax_lanes_rows([row, &mut [], &mut [], &mut []])[0]
}

/// The max of a short row, subtracted from it in place: the first step of
/// [`softmax_short`], split off so that a block of short rows can take
/// all its exponentials in one vector pass ([`softmax_block`]).
#[inline(always)]
fn subtract_max(row: &mut [f32]) -> f32 {
    let mut max = f32::NEG_INFINITY;
    for &v in row.iter() {
        max = if v > max { v } else { max };
    }
    for v in row.iter_mut() {
        *v -= max;
    }
    max
}

/// The last step of [`softmax_short`]: the exponentials summed in element
/// order, then scaled by `1 / Σ`.
#[inline(always)]
fn sum_and_scale(row: &mut [f32]) -> f32 {
    let mut sum = 0.0f32;
    for &e in row.iter() {
        sum += e;
    }
    scale_row(row, sum);
    sum
}

/// The sequential path of [`softmax_row_body`]: at most one element per
/// lane, so summing in element order is the lane path's sum.
#[inline(always)]
fn softmax_short(row: &mut [f32]) -> (f32, f32) {
    let max = subtract_max(row);
    for v in row.iter_mut() {
        *v = exp(*v);
    }
    (max, sum_and_scale(row))
}

#[inline(always)]
fn scale_row(row: &mut [f32], sum: f32) {
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Softmax of one row in place, returning the row's max and its sum of
/// exponentials (`ln Σ + max` is its log-sum-exp). Inlined into every
/// kernel that runs it, so it is compiled at that kernel's tier.
#[inline(always)]
fn softmax_row_body(row: &mut [f32]) -> (f32, f32) {
    if row.len() <= LANES {
        softmax_short(row)
    } else {
        softmax_lanes(row)
    }
}

/// [`softmax_row_body`] on the prefix `row[..n]`, and `+0` in `row[n..]`,
/// for up to four `(row, n)` at once: the bits of each row masked to its
/// full length with `−∞` after `n`. The masked lanes of the 16-lane chunk
/// that holds element `n − 1` are set to `−∞` and run with it, so the
/// chunk runs whole; chunks past it are only zeroed.
#[inline(always)]
pub(crate) fn softmax_prefixes(rows: [(&mut [f32], usize); ROWS]) {
    let rows = rows.map(|(row, n)| {
        let end = n.next_multiple_of(LANES).min(row.len());
        row[n..end].fill(f32::NEG_INFINITY);
        let (live, rest) = row.split_at_mut(end);
        rest.fill(0.0);
        live
    });
    softmax_lanes_rows(rows);
}

/// Rows of a block of short rows whose exponentials one pass takes.
const SHORT_GROUP: usize = 64;

lanes_fn! {
    /// [`softmax_row_body`] over every `cols`-wide row of `x`, writing each
    /// row's log-sum-exp to its slot of `lse` unless `lse` is empty. Shared
    /// by both row-op tiers (rows are independent, so the vectorized tier
    /// runs it per block of rows). Short rows run [`softmax_short`] in three
    /// passes over groups of rows, so that the exponentials of the whole
    /// group — the router's four- and sixteen-wide rows — run on full
    /// vectors; every element sees the same operations either way.
    pub(crate) fn softmax_block(x: &mut [f32], cols: usize, lse: &mut [f32]) {
        if cols > LANES {
            for (b, block) in x.chunks_mut(ROWS * cols).enumerate() {
                let mut rows = block.chunks_exact_mut(cols);
                let rows = [(); ROWS].map(|_| rows.next().unwrap_or_default());
                for (r, (max, sum)) in softmax_lanes_rows(rows).into_iter().enumerate() {
                    if let Some(l) = lse.get_mut(b * ROWS + r).filter(|_| r * cols < block.len()) {
                        *l = ln(sum) + max;
                    }
                }
            }
            return;
        }
        let mut maxes = [0.0f32; SHORT_GROUP];
        for (g, group) in x.chunks_mut(SHORT_GROUP * cols).enumerate() {
            let rows = group.chunks_exact_mut(cols);
            for (max, row) in maxes.iter_mut().zip(rows) {
                *max = subtract_max(row);
            }
            exp_in_place(group);
            for (r, row) in group.chunks_exact_mut(cols).enumerate() {
                let sum = sum_and_scale(row);
                if let Some(l) = lse.get_mut(g * SHORT_GROUP + r) {
                    *l = ln(sum) + maxes[r];
                }
            }
        }
    }
}

lanes_fn! {
    fn softmax_one(row: &mut [f32]) {
        softmax_row_body(row);
    }
}

/// Softmax of one row in place, on the calling thread and at the widest
/// tier this host runs: the bits of a row of [`softmax_rows_inplace`].
/// For callers that hold one row at a time (decode attention, the
/// two-level gate's second stage); not traced.
pub fn softmax_row(row: &mut [f32]) {
    softmax_one(Lanes::host(), row);
}

/// Row-wise softmax of a 2-D tensor, in place, on the calling thread's
/// row-op backend. Uses the max-subtraction trick so
/// half-precision-scale logits cannot overflow the exponentials. `lse` is
/// empty, or one slot per row that receives the row's log-sum-exp from the
/// same pass (`x − lse` is the log-softmax a cross-entropy loss reads;
/// see [`RowOpsBackend::softmax_rows_inplace`](crate::ops::rowops::RowOpsBackend::softmax_rows_inplace)).
pub fn softmax_rows_inplace(x: &mut Tensor, lse: &mut [f32]) {
    let flops = SOFTMAX_FLOPS_PER_ELEM * x.len() as u64;
    traced_rowop(
        names::COMPUTE_SOFTMAX_NS,
        names::COMPUTE_SOFTMAX_FLOPS,
        flops,
        || current_row_ops().softmax_rows_inplace(x, lse),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn softmax_rows(x: &Tensor) -> Tensor {
        let mut out = x.clone();
        softmax_rows_inplace(&mut out, &mut []);
        out
    }

    #[test]
    fn rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = softmax_rows(&x);
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let y = Tensor::from_vec(vec![101.0, 102.0, 103.0], &[1, 3]);
        assert!(softmax_rows(&x).approx_eq(&softmax_rows(&y), 1e-6));
    }

    #[test]
    fn stable_under_huge_logits() {
        let x = Tensor::from_vec(vec![1e4, 1e4 + 1.0], &[1, 2]);
        let s = softmax_rows(&x);
        assert!(!s.has_non_finite());
        assert!((s.at(0, 0) + s.at(0, 1) - 1.0).abs() < 1e-6);
        assert!(s.at(0, 1) > s.at(0, 0));
    }

    #[test]
    fn log_softmax_matches_ln_of_softmax() {
        let x = Tensor::from_vec(vec![0.3, -1.2, 2.5, 0.0], &[2, 2]);
        let mut s = x.clone();
        let mut lse = vec![0.0; 2];
        softmax_rows_inplace(&mut s, &mut lse);
        for i in 0..x.len() {
            let log_softmax = x.as_slice()[i] - lse[i / 2];
            assert!((log_softmax - s.as_slice()[i].ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn uniform_logits_give_uniform_probs() {
        let x = Tensor::zeros(&[1, 4]);
        let s = softmax_rows(&x);
        for &p in s.as_slice() {
            assert!((p - 0.25).abs() < 1e-6);
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The portable tier, and the wide one where this host has it.
    fn tiers() -> Vec<Lanes> {
        let host = Lanes::host();
        if host.is_wide() {
            vec![Lanes::PORTABLE, host]
        } else {
            vec![Lanes::PORTABLE]
        }
    }

    #[test]
    fn short_rows_have_the_bits_of_the_lane_path() {
        let mut rng = Rng::seed_from(71);
        for len in 1..=LANES {
            for scale in [0.1f32, 3.0, 40.0] {
                let x = Tensor::randn(&[len], scale, &mut rng);
                let (mut short, mut lanes) = (x.as_slice().to_vec(), x.as_slice().to_vec());
                let (ms, ss) = softmax_short(&mut short);
                let (ml, sl) = softmax_lanes(&mut lanes);
                assert_eq!(bits(&short), bits(&lanes), "row of {len}");
                assert_eq!((ms.to_bits(), ss.to_bits()), (ml.to_bits(), sl.to_bits()));
            }
        }
    }

    #[test]
    fn a_prefix_has_the_bits_of_its_masked_full_row() {
        // The causal rows of attention: the first `i + 1` scores alone, and
        // the same scores followed by `−∞` up to the full length.
        let mut rng = Rng::seed_from(72);
        for full in [1usize, 5, 16, 17, 31, 32, 33, 64, 70, 200] {
            let x = Tensor::randn(&[full], 2.5, &mut rng);
            for (lanes, len) in tiers()
                .into_iter()
                .flat_map(|l| (1..=full).map(move |n| (l, n)))
            {
                let mut prefix = x.as_slice()[..len].to_vec();
                let mut masked = x.as_slice().to_vec();
                masked[len..].fill(f32::NEG_INFINITY);
                let (mut lp, mut lm) = ([0.0f32], [0.0f32]);
                softmax_block(lanes, &mut prefix, len, &mut lp);
                softmax_block(lanes, &mut masked, full, &mut lm);
                assert_eq!(bits(&prefix), bits(&masked[..len]), "{len} of {full}");
                assert!(
                    masked[len..].iter().all(|p| p.to_bits() == 0),
                    "masked lanes are +0"
                );
                assert_eq!(
                    lp[0].to_bits(),
                    lm[0].to_bits(),
                    "log-sum-exp {len} of {full}"
                );
            }
        }
    }

    #[test]
    fn both_tiers_and_the_row_entry_point_agree() {
        let mut rng = Rng::seed_from(73);
        for cols in [1usize, 3, 4, 15, 16, 17, 33, 100, 1024] {
            let x = Tensor::randn(&[3, cols], 4.0, &mut rng);
            let mut want = x.as_slice().to_vec();
            let mut lse_want = [0.0f32; 3];
            softmax_block(Lanes::PORTABLE, &mut want, cols, &mut lse_want);
            for lanes in tiers() {
                let mut got = x.as_slice().to_vec();
                let mut lse = [0.0f32; 3];
                softmax_block(lanes, &mut got, cols, &mut lse);
                assert_eq!(bits(&got), bits(&want), "{lanes:?} {cols}");
                assert_eq!(bits(&lse), bits(&lse_want), "{lanes:?} {cols}");
            }
            let mut rows = x.as_slice().to_vec();
            rows.chunks_exact_mut(cols).for_each(softmax_row);
            assert_eq!(bits(&rows), bits(&want), "softmax_row {cols}");
        }
    }

    #[test]
    fn special_rows() {
        // A NaN is skipped by the max and poisons only the sum it joins.
        // Its log-sum-exp is NaN on both paths, not a finite value.
        for row in [&[1.0f32, f32::NAN, 2.0][..], &[0.5; 40]] {
            let mut row = row.to_vec();
            row[1] = f32::NAN;
            let mut lse = [0.0f32];
            let cols = row.len();
            softmax_block(Lanes::host(), &mut row, cols, &mut lse);
            assert!(row.iter().all(|p| p.is_nan()));
            assert!(lse[0].is_nan(), "log-sum-exp of a NaN row: {}", lse[0]);
        }
        // Logits far apart: the small ones flush to +0, not to subnormals.
        let mut row = [0.0f32, -100.0, -1e30, f32::NEG_INFINITY];
        softmax_row(&mut row);
        assert_eq!(bits(&row), bits(&[1.0, 0.0, 0.0, 0.0]));
    }
}
