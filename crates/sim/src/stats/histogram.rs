//! Log-bucketed histograms for latency recording.

use std::fmt;

use crate::time::SimDuration;

/// Number of linear sub-buckets per power-of-two octave. 32 sub-buckets give
/// a worst-case relative error of ~3%, plenty for reproducing latency plots.
const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = 5;

/// A log-linear histogram of `u64` values (typically nanoseconds).
///
/// Values up to `SUB_BUCKETS` (32) are recorded exactly; larger values land in
/// one of 32 linear sub-buckets within their power-of-two octave (HdrHistogram
/// style). Recording is O(1); percentile queries are O(buckets).
///
/// ```
/// use clio_sim::stats::Histogram;
/// let mut h = Histogram::new();
/// for v in [100, 200, 300, 400, 1000] { h.record(v); }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(50.0) >= 300);
/// assert!(h.max() >= 1000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros(); // >= SUB_BITS
    let shift = octave - SUB_BITS;
    let sub = (value >> shift) - SUB_BUCKETS; // 0..SUB_BUCKETS
    (((octave - SUB_BITS + 1) as u64 * SUB_BUCKETS) + sub) as usize
}

/// Upper bound (inclusive) of the values mapped to `index`.
fn bucket_upper(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let group = (index / SUB_BUCKETS) - 1;
    let sub = index % SUB_BUCKETS;
    ((SUB_BUCKETS + sub + 1) << group) - 1
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
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
        self.min
    }

    /// Largest recorded value (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
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
    /// (`p` in `[0, 100]`). Returns an upper bound of the containing bucket,
    /// clamped to the observed maximum. Returns 0 if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// A compact summary (count/mean/p50/p99/max) for reporting.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_ns: self.mean(),
            p50_ns: self.percentile(50.0),
            p90_ns: self.percentile(90.0),
            p99_ns: self.percentile(99.0),
            max_ns: self.max,
        }
    }
}

/// A point-in-time latency summary produced by [`Histogram::summary`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean in nanoseconds.
    pub mean_ns: f64,
    /// Median in nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile in nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile in nanoseconds.
    pub p99_ns: u64,
    /// Maximum in nanoseconds.
    pub max_ns: u64,
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2}us p50={:.2}us p90={:.2}us p99={:.2}us max={:.2}us",
            self.count,
            self.mean_ns / 1e3,
            self.p50_ns as f64 / 1e3,
            self.p90_ns as f64 / 1e3,
            self.p99_ns as f64 / 1e3,
            self.max_ns as f64 / 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.percentile(100.0), 31);
        assert_eq!(h.count(), 32);
    }

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        for v in [1u64, 31, 32, 33, 100, 999, 1_000, 123_456, 10_000_000, u32::MAX as u64] {
            let ub = bucket_upper(bucket_index(v));
            assert!(ub >= v, "upper bound below value: {v} -> {ub}");
            assert!((ub - v) as f64 <= (v as f64) * 0.05 + 1.0, "error too large: {v} -> {ub}");
        }
    }

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
        let p50 = h.percentile(50.0);
        assert!((p50 as f64 - 5000.0).abs() < 300.0, "p50={p50}");
        let mean = h.mean();
        assert!((mean - 4999.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn summary_display_formats() {
        let mut h = Histogram::new();
        h.record(2_500);
        let s = h.summary().to_string();
        assert!(s.contains("p50="), "{s}");
    }
}
