//! Order statistics for the benchmark's own numbers.
//!
//! Host times are reported as medians with quartiles; simulated latencies
//! as exact nearest-rank percentiles over every sample (no histogram
//! buckets, so two commits compare to the cycle).

/// Summary of one host-time metric over the measured units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Median of `values` (mean of the two middle samples for even counts).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no sample is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method), so the spread printed here is the spread the
/// driver will compute. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Median, quartiles, minimum and count of `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let [q1, median, q3] = quartiles(values);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    Summary { n: values.len(), min, q1, median, q3 }
}

/// Exact nearest-rank percentile of `samples` (`p` in `0..=1`); 0 for no
/// samples. Reorders the slice.
pub fn percentile<T: Ord + Copy + Default>(samples: &mut [T], p: f64) -> T {
    if samples.is_empty() {
        return T::default();
    }
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

/// Arithmetic mean; 0 for no samples.
pub fn mean_u64(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of positive values; 0 for no samples.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), [15.0, 30.0, 45.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 0.50), 50);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        assert_eq!(percentile::<u64>(&mut [], 0.99), 0);
        let mut one = [42u32];
        assert_eq!(percentile(&mut one, 0.99), 42);
    }

    #[test]
    fn summary_and_means() {
        let s = summarize(&[4.0, 2.0, 8.0, 6.0]);
        assert_eq!((s.n, s.min, s.median), (4, 2.0, 5.0));
        assert_eq!(mean_u64(&[1, 2, 3]), 2.0);
        assert_eq!(mean_u64(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
