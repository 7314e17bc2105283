//! Order statistics used by every report: percentiles of op samples and
//! the quartile spread the acceptance rule is stated in.

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending-sorted slice, nearest
/// rank: the smallest sample with at least `q` of the samples at or
/// below it. Empty input yields 0.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that still has at least `beyond` samples
/// above it, as a quantile in [0.5, 1). With too few samples it falls
/// back to the median.
pub fn highest_supported_quantile(n: usize, beyond: usize) -> f64 {
    if n <= 2 * beyond {
        return 0.5;
    }
    (n - beyond) as f64 / n as f64
}

/// Median of unsorted floats (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is the estimator
/// the acceptance rule names. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// (max − min) as a share of the median.
pub fn range_share(values: &[f64]) -> f64 {
    let m = median(values);
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    if m == 0.0 {
        0.0
    } else {
        (max - min) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50);
        assert_eq!(quantile_sorted(&s, 0.9), 90);
        assert_eq!(quantile_sorted(&s, 0.99), 99);
        assert_eq!(quantile_sorted(&s, 1.0), 100);
        assert_eq!(quantile_sorted(&s, 0.0), 1);
        assert_eq!(quantile_sorted(&[7], 0.9), 7);
        assert_eq!(quantile_sorted(&[], 0.9), 0);
    }

    #[test]
    fn highest_quantile_keeps_ten_beyond() {
        assert_eq!(highest_supported_quantile(1000, 10), 0.99);
        assert_eq!(highest_supported_quantile(100, 10), 0.9);
        assert_eq!(highest_supported_quantile(15, 10), 0.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((range_share(&v) - 9.0 / 5.5).abs() < 1e-12);
    }
}
