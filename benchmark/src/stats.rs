//! Order statistics for timing samples: median, quartiles, a percentile by
//! linear interpolation, and the rule that picks the highest percentile a
//! sample count supports.

/// Percentile `p` (0–100) of `xs` by linear interpolation between closest
/// ranks. Panics on an empty sample — a metric with no samples is a bug in
/// the workload, not a value to report.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` computes them (the exclusive method), so
/// `compare` and the acceptance rule read the same spread from one sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let n = v.len();
    let q = |i: usize| {
        // Position i·(n+1)/4 on a 1-based axis, clamped to the sample.
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (q(1), q(3))
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it in a sample of `n` — the percentile a report may quote.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // In per mille, so that "ten beyond" is exact integer arithmetic.
    [(999, 99.9), (990, 99.0), (900, 90.0)]
        .into_iter()
        .find(|(per_mille, _)| n * (1000 - per_mille) >= 10_000)
        .map_or(50.0, |(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!((percentile(&xs, 90.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_picker_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }
}
