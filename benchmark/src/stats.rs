//! The estimators the benchmark reports with. Each one exists because
//! of a measured property of the noise on a small shared box (see the
//! README's "noise findings"): fixed single-threaded work is bimodal,
//! so the *fastest* repetition of a small unit is the only statistic
//! that repeats; histogram buckets quantise, so percentiles are taken
//! over raw samples.

/// Exact nearest-rank quantile of an ascending-sorted sample:
/// the smallest value with at least `q` of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample — there is nothing to report.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile ladder tails are reported from.
const LADDER: [(&str, f64); 6] = [
    ("p50", 0.5),
    ("p90", 0.9),
    ("p95", 0.95),
    ("p99", 0.99),
    ("p99.9", 0.999),
    ("p99.99", 0.9999),
];

/// The highest ladder percentile that still has at least ten samples
/// beyond it in a sample of `n` — the tail a sample of that size can
/// support. `None` when even the median cannot (`n < 20`).
pub fn highest_supported_percentile(n: usize) -> Option<(&'static str, f64)> {
    LADDER
        .iter()
        .rev()
        .find(|(_, q)| n as f64 * (1.0 - q) >= 10.0 - 1e-9)
        .copied()
}

/// Repeated timings of fixed-work units: `samples[u]` holds every
/// timing (in nanoseconds) of unit `u`.
#[derive(Debug, Clone, Default)]
pub struct UnitTimes {
    samples: Vec<Vec<u64>>,
}

impl UnitTimes {
    /// Room for `units` distinct units, no timings yet.
    pub fn new(units: usize) -> Self {
        UnitTimes {
            samples: vec![Vec::new(); units],
        }
    }

    /// Record one timing of `unit`.
    pub fn record(&mut self, unit: usize, ns: u64) {
        self.samples[unit].push(ns);
    }

    /// Fastest timing of each unit (0 for a unit never timed).
    pub fn fastest(&self) -> Vec<u64> {
        self.samples
            .iter()
            .map(|s| s.iter().copied().min().unwrap_or(0))
            .collect()
    }

    /// Σ over units of the fastest timing: the noise-free estimate of
    /// one pass over all units.
    pub fn sum_fastest(&self) -> u64 {
        self.fastest().iter().sum()
    }

    /// Complete passes recorded (the least-timed unit's count).
    pub fn passes(&self) -> usize {
        self.samples.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Wall time of each complete pass: Σ over units of that pass's
    /// timing. Shows the spread the fastest-per-unit estimator removes.
    pub fn pass_times(&self) -> Vec<u64> {
        (0..self.passes())
            .map(|p| self.samples.iter().map(|s| s[p]).sum())
            .collect()
    }
}

/// Mean of the fastest tenth (at least one) of `samples`, the probe
/// estimator: robust like a minimum, less granular than one.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn fastest_decile_mean(samples: &[u64]) -> f64 {
    assert!(!samples.is_empty(), "fastest decile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let keep = (sorted.len() / 10).max(1);
    sorted[..keep].iter().sum::<u64>() as f64 / keep as f64
}

/// Median of an unsorted sample (mean of the middle two when even).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let (_, q2, _) = quartiles(values);
    q2
}

/// `(q1, median, q3)` by the exclusive method — the values Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance check computes spreads from.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100);
        assert_eq!(quantile_sorted(&sorted, 0.0), 1);
        assert_eq!(quantile_sorted(&[7u32], 0.99), 7);
        // No interpolation: the answer is always a sample.
        assert_eq!(quantile_sorted(&[10u32, 20, 1000], 0.5), 20);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20).unwrap().0, "p50");
        assert_eq!(highest_supported_percentile(110).unwrap().0, "p90");
        assert_eq!(highest_supported_percentile(999).unwrap().0, "p95");
        assert_eq!(highest_supported_percentile(1_000).unwrap().0, "p99");
        assert_eq!(highest_supported_percentile(9_999).unwrap().0, "p99");
        assert_eq!(highest_supported_percentile(10_000).unwrap().0, "p99.9");
        assert_eq!(highest_supported_percentile(150_000).unwrap().0, "p99.99");
    }

    #[test]
    fn sum_of_fastest_ignores_slow_repetitions() {
        let mut t = UnitTimes::new(2);
        for (a, b) in [(100, 40), (70, 90), (300, 41)] {
            t.record(0, a);
            t.record(1, b);
        }
        assert_eq!(t.fastest(), vec![70, 40]);
        assert_eq!(t.sum_fastest(), 110);
        assert_eq!(t.passes(), 3);
        assert_eq!(t.pass_times(), vec![140, 160, 341]);
        // A half-finished pass is not a pass.
        t.record(0, 1);
        assert_eq!(t.passes(), 3);
        assert_eq!(t.sum_fastest(), 41);
    }

    #[test]
    fn fastest_decile_mean_keeps_a_tenth() {
        let samples: Vec<u64> = (1..=200).rev().collect();
        assert_eq!(fastest_decile_mean(&samples), 10.5);
        assert_eq!(fastest_decile_mean(&[9, 3, 5]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
    }
}
