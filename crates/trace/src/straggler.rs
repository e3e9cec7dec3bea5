//! Online straggler detection from per-rank timing samples.
//!
//! At BaGuaLu's target scale a rank that has slowed down — thermal
//! throttling, a degraded NIC, a noisy neighbor — is far more common than
//! a rank that has died, and under lockstep collectives one sick rank sets
//! the pace for all of them. The [`StragglerDetector`] consumes one timing
//! sample per rank per step (the trainer feeds it the all-reduced
//! send-occupancy deltas from `Communicator::send_occupancy_ns`) and flags
//! a rank whose windowed mean exceeds a robust, median-based threshold.
//!
//! The detector is **pure and deterministic**: its verdict is a function of
//! the samples fed to it, nothing else. Every rank feeds it the same
//! all-reduced sample vectors, so every rank reaches the same verdict on
//! the same step with no extra coordination — the same trick the
//! collectives themselves rely on.
//!
//! Why a median and not a mean: with one straggler among R ranks the mean
//! is dragged toward the straggler, shrinking the very gap being tested.
//! The median of per-rank windowed means is unaffected by a minority of
//! sick ranks (up to ⌊(R−1)/2⌋ of them), so the threshold
//! `factor × median` stays anchored to healthy behavior.

use std::collections::VecDeque;

/// Robust median-based straggler detector over per-rank timing samples.
///
/// Feed it one `f64` sample per rank per step via
/// [`StragglerDetector::observe`]; it answers with the flagged rank once a
/// rank's windowed mean exceeds `factor ×` the median of all ranks'
/// windowed means (and an absolute floor, so idle noise can't trip it).
#[derive(Debug, Clone)]
pub struct StragglerDetector {
    factor: f64,
    window: usize,
    min_signal: f64,
    /// Rolling window of the last `window` samples, per rank.
    recent: Vec<VecDeque<f64>>,
    steps_seen: usize,
}

impl StragglerDetector {
    /// A detector for `nranks` ranks flagging a rank whose windowed mean
    /// exceeds `factor` × the median windowed mean, averaged over `window`
    /// consecutive samples.
    ///
    /// `factor` must be > 1 (a factor ≤ 1 would flag a healthy rank on
    /// noise alone) and `window` ≥ 1. The absolute floor defaults to
    /// 50 µs per sample; tune it with
    /// `StragglerDetector::with_min_signal_ns`.
    pub fn new(nranks: usize, factor: f64, window: usize) -> StragglerDetector {
        assert!(factor > 1.0, "straggler factor must exceed 1.0");
        assert!(window >= 1, "window must hold at least one sample");
        StragglerDetector {
            factor,
            window,
            min_signal: 50_000.0,
            recent: (0..nranks)
                .map(|_| VecDeque::with_capacity(window))
                .collect(),
            steps_seen: 0,
        }
    }

    /// Feed one sample per rank (nanoseconds, or any common unit) and get
    /// the flagged rank, if any. Returns `None` until `window` samples have
    /// accumulated; with several ranks over threshold the worst one is
    /// flagged. Deterministic: same sample history, same verdict.
    pub fn observe(&mut self, sample_per_rank: &[f64]) -> Option<usize> {
        assert_eq!(
            sample_per_rank.len(),
            self.recent.len(),
            "sample vector must have one entry per rank"
        );
        for (win, &s) in self.recent.iter_mut().zip(sample_per_rank) {
            if win.len() == self.window {
                win.pop_front();
            }
            win.push_back(s);
        }
        self.steps_seen += 1;
        if self.steps_seen < self.window || self.recent.len() < 2 {
            return None;
        }
        let means: Vec<f64> = self
            .recent
            .iter()
            .map(|w| w.iter().sum::<f64>() / w.len() as f64)
            .collect();
        let med = median(&means);
        let threshold = (self.factor * med).max(self.min_signal);
        means
            .iter()
            .enumerate()
            .filter(|(_, &m)| m > threshold)
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("timing samples are finite"))
            .map(|(r, _)| r)
    }
}

/// Median of a non-empty slice (mean of the two middle elements when even).
fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StragglerDetector {
        /// Replace the absolute floor (nanoseconds): a rank is only flagged
        /// when its windowed mean also exceeds this, so near-zero healthy
        /// timings with incidental jitter never produce a flag.
        fn with_min_signal_ns(mut self, ns: f64) -> StragglerDetector {
            self.min_signal = ns;
            self
        }
    }

    #[test]
    fn healthy_ranks_are_never_flagged() {
        let mut d = StragglerDetector::new(4, 2.0, 3);
        for step in 0..20 {
            let jitter = (step % 3) as f64 * 1e5;
            let v = vec![1e6 + jitter, 1.1e6, 0.9e6, 1e6 - jitter];
            assert_eq!(d.observe(&v), None, "flagged at step {step}");
        }
    }

    #[test]
    fn sustained_outlier_is_flagged_after_the_window_fills() {
        let mut d = StragglerDetector::new(4, 2.0, 3);
        let sick = vec![1e6, 5e6, 1e6, 1e6];
        assert_eq!(d.observe(&sick), None, "one sample is not a pattern");
        assert_eq!(d.observe(&sick), None);
        assert_eq!(d.observe(&sick), Some(1), "window full: flag rank 1");
    }

    #[test]
    fn a_single_spike_fades_out_of_the_window() {
        let mut d = StragglerDetector::new(4, 3.0, 4);
        let healthy = vec![1e6; 4];
        let spike = vec![1e6, 1e6, 40e6, 1e6];
        for _ in 0..4 {
            d.observe(&healthy);
        }
        // One spike inside a window of healthy samples: mean is 10.75e6 vs
        // threshold 3e6 — flags while the spike is in the window...
        assert_eq!(d.observe(&spike), Some(2));
        // ...and clears once healthy samples push it out.
        let mut verdicts = Vec::new();
        for _ in 0..4 {
            verdicts.push(d.observe(&healthy));
        }
        assert_eq!(verdicts.last(), Some(&None), "spike aged out, no flag");
    }

    #[test]
    fn absolute_floor_suppresses_idle_noise() {
        // All ranks near zero: relative ratios are huge but meaningless.
        let mut d = StragglerDetector::new(4, 2.0, 2);
        for _ in 0..10 {
            assert_eq!(d.observe(&[10.0, 500.0, 12.0, 9.0]), None);
        }
    }

    #[test]
    fn worst_offender_wins_when_several_exceed() {
        let mut d = StragglerDetector::new(5, 1.5, 1).with_min_signal_ns(0.0);
        assert_eq!(d.observe(&[1e6, 4e6, 9e6, 1e6, 1e6]), Some(2));
    }

    #[test]
    fn median_resists_a_minority_of_sick_ranks() {
        // 2 sick ranks out of 5: median stays at the healthy level.
        let mut d = StragglerDetector::new(5, 2.0, 1).with_min_signal_ns(0.0);
        assert_eq!(d.observe(&[1e6, 8e6, 9e6, 1e6, 1e6]), Some(2));
    }

    #[test]
    fn single_rank_never_flags_and_two_ranks_wait_for_a_full_window() {
        let mut solo = StragglerDetector::new(1, 2.0, 1);
        assert_eq!(solo.observe(&[9e9]), None);

        // With 2 ranks the median is the midpoint of healthy and sick, so
        // the workable factor range is tighter than at R >= 3.
        let mut d = StragglerDetector::new(2, 1.5, 2).with_min_signal_ns(0.0);
        assert_eq!(d.observe(&[1e6, 9e6]), None, "window must fill");
        assert_eq!(d.observe(&[1e6, 9e6]), Some(1));
    }

    #[test]
    fn deterministic_across_replays() {
        let run = || {
            let mut d = StragglerDetector::new(3, 2.0, 2);
            (0..8)
                .map(|i| d.observe(&[1e6, 1e6 + i as f64 * 2e6, 1e6]))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
