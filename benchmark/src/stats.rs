//! Exact latency populations and the aggregation rules of the benchmark.
//!
//! Virtual time is integer nanoseconds, so a latency population is held as
//! exact per-value counts (no log buckets: `clio_sim::stats::Histogram`
//! reports a 2450 ns read as 2495 ns, a step wider than the 0.5 % bounds
//! on the virtual metrics). Memory is bounded by the number of distinct
//! values, not by how many ops a faster simulator completes in the run.

use std::collections::BTreeMap;

/// Exact counts of integer-nanosecond latencies.
#[derive(Debug, Clone, Default)]
pub struct Population {
    counts: BTreeMap<u64, u64>,
    n: u64,
}

impl Population {
    /// Folds one round's raw samples in (sorts `samples` in place).
    pub fn absorb(&mut self, samples: &mut [u64]) {
        samples.sort_unstable();
        for run in samples.chunk_by(|a, b| a == b) {
            *self.counts.entry(run[0]).or_insert(0) += run.len() as u64;
        }
        self.n += samples.len() as u64;
    }

    /// Folds another population in.
    pub fn merge(&mut self, other: &Population) {
        for (&v, &c) in &other.counts {
            *self.counts.entry(v).or_insert(0) += c;
        }
        self.n += other.n;
    }

    /// Samples held.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// The exact order statistic at quantile `q` in `(0, 1]`: the smallest
    /// value with at least `ceil(q * n)` samples at or below it.
    pub fn order_stat(&self, q: f64) -> Option<u64> {
        self.locate(q).map(|(v, _, _)| v)
    }

    /// The quantile as reported: the exact order statistic `v`, placed
    /// inside its 1 ns clock tick `[v - 0.5, v + 0.5)` by the rank's
    /// position among the samples that share `v`. It never differs from
    /// the order statistic by more than 0.5 ns, and it moves continuously
    /// as mass shifts around the quantile instead of jumping a whole tick.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.locate(q).map(|(v, below, here)| {
            let rank = q * self.n as f64;
            v as f64 - 0.5 + ((rank - below as f64) / here as f64).clamp(0.0, 1.0)
        })
    }

    /// `(value, samples below it, samples equal to it)` at quantile `q`.
    fn locate(&self, q: f64) -> Option<(u64, u64, u64)> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0;
        for (&v, &c) in &self.counts {
            if below + c >= rank {
                return Some((v, below, c));
            }
            below += c;
        }
        unreachable!("rank {rank} is within the {} samples held", self.n)
    }

    /// Samples strictly greater than `v`.
    pub fn count_above(&self, v: u64) -> u64 {
        self.counts.range(v + 1..).map(|(_, &c)| c).sum()
    }

    /// The highest "p99…" percentile that still has at least ten samples
    /// beyond it, as a quantile in `[0.9, 1)`; `None` under 100 samples.
    pub fn deepest_tail(&self) -> Option<f64> {
        let mut q = None;
        let mut beyond = 0.1;
        while self.n as f64 * beyond >= 10.0 {
            q = Some(1.0 - beyond);
            beyond /= 10.0;
        }
        q
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 { values[mid] } else { (values[mid - 1] + values[mid]) / 2.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(samples: &[u64]) -> Population {
        let mut p = Population::default();
        p.absorb(&mut samples.to_vec());
        p
    }

    #[test]
    fn order_statistics_are_exact() {
        let p = pop(&[2450, 2450, 2450, 2600, 9000, 2451, 2449, 2450, 2450, 2450]);
        assert_eq!(p.len(), 10);
        assert_eq!(p.order_stat(0.5), Some(2450));
        assert_eq!(p.order_stat(0.9), Some(2600));
        assert_eq!(p.order_stat(1.0), Some(9000));
        assert_eq!(p.order_stat(0.01), Some(2449));
        assert_eq!(Population::default().order_stat(0.5), None);
    }

    #[test]
    fn reported_quantile_stays_within_half_a_tick() {
        let p = pop(&[10, 10, 10, 10, 20, 20, 30, 30, 30, 30]);
        for q in [0.1, 0.25, 0.5, 0.75, 0.99] {
            let exact = p.order_stat(q).unwrap() as f64;
            let shown = p.quantile(q).unwrap();
            assert!((shown - exact).abs() <= 0.5, "q={q}: {shown} vs {exact}");
        }
        // Rank 5 of 10 is the first of the two 20s: half-way into the tick.
        assert_eq!(p.quantile(0.5), Some(20.0));
        // A single-valued population reports the value itself at the median.
        assert_eq!(pop(&[7; 100]).quantile(0.5), Some(7.0));
    }

    #[test]
    fn absorb_and_merge_pool_rounds() {
        let mut a = pop(&[1, 2, 3]);
        a.absorb(&mut [3, 4]);
        let mut b = pop(&[5]);
        b.merge(&a);
        assert_eq!(b.len(), 6);
        assert_eq!(b.order_stat(0.5), Some(3));
        assert_eq!((b.count_above(3), b.count_above(0), b.count_above(5)), (2, 6, 0));
    }

    #[test]
    fn tail_depth_follows_sample_count() {
        assert_eq!(pop(&[1; 99]).deepest_tail(), None);
        assert_eq!(pop(&[1; 100]).deepest_tail(), Some(0.9));
        assert_eq!(pop(&[1; 1000]).deepest_tail(), Some(0.99));
        let big = pop(&vec![1; 20_000]);
        assert!((big.deepest_tail().unwrap() - 0.999).abs() < 1e-12);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
