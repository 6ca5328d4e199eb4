//! Exact latency histograms: one count per recorded value.

use std::collections::BTreeMap;

use crate::time::SimDuration;

/// A histogram of `u64` values (typically nanoseconds) that keeps one count
/// per distinct value, so every percentile is an exact order statistic.
///
/// Recording is O(log distinct values); percentile queries walk the
/// distinct values in order.
///
/// ```
/// use clio_sim::stats::Histogram;
/// let mut h = Histogram::new();
/// for v in [100, 200, 300, 400, 1000] { h.record(v); }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.percentile(50.0), 300);
/// assert_eq!(h.max(), 1000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    count: u64,
    sum: u128,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.count += 1;
        self.sum += value as u128;
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        self.counts.keys().next().copied().unwrap_or(0)
    }

    /// Largest recorded value (0 if empty).
    pub fn max(&self) -> u64 {
        self.counts.keys().next_back().copied().unwrap_or(0)
    }

    /// Arithmetic mean of recorded values (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at or below which `p` percent of recordings fall
    /// (`p` in `[0, 100]`): the recorded value of rank `ceil(p/100 × n)`,
    /// at least rank 1. Returns 0 if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (&value, &c) in &self.counts {
            seen += c;
            if seen >= rank {
                return value;
            }
        }
        self.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_monotonic() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x % 1_000_000);
        }
        let mut last = 0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v >= last, "p{p} = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn median_of_uniform_block() {
        let mut h = Histogram::new();
        for v in 0..10_000u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 4_999);
        let mean = h.mean();
        assert!((mean - 4999.5).abs() < 1.0);
    }

    #[test]
    fn median_is_the_recorded_value() {
        // A log bucket would report the 2,450 ns reads as its upper bound.
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(2_450);
        }
        h.record(3_000);
        assert_eq!(h.percentile(50.0), 2_450);
        assert_eq!(h.percentile(100.0), 3_000);
        assert_eq!((h.min(), h.max()), (2_450, 3_000));
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
