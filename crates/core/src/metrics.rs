//! Measurement helpers shared by client programs and benchmarks.

use clio_sim::stats::{Histogram, LatencySummary, RateMeter};
use clio_sim::{SimDuration, SimTime};

/// Collects per-operation latency plus goodput over a measurement window,
/// with warm-up exclusion — the standard recorder for every figure bench.
#[derive(Debug, Clone)]
pub struct OpRecorder {
    hist: Histogram,
    meter: RateMeter,
    warmup_until: SimTime,
    errors: u64,
}

impl OpRecorder {
    /// A recorder discarding samples before `warmup_until`.
    pub fn new(warmup_until: SimTime) -> Self {
        OpRecorder {
            hist: Histogram::new(),
            meter: RateMeter::new(warmup_until),
            warmup_until,
            errors: 0,
        }
    }

    /// Records a successful op of `payload_bytes` finishing at `completed`
    /// with the given latency.
    pub fn record(&mut self, completed: SimTime, latency: SimDuration, payload_bytes: u64) {
        if completed < self.warmup_until {
            return;
        }
        self.hist.record_duration(latency);
        self.meter.record(completed, payload_bytes);
    }

    /// Records a failed op finishing at `completed`. Pre-warm-up failures
    /// are discarded under the same window as [`record`](Self::record), so
    /// error rates and op counts describe the same measurement interval.
    pub fn record_error(&mut self, completed: SimTime) {
        if completed < self.warmup_until {
            return;
        }
        self.errors += 1;
    }

    /// Failed operations seen.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// The latency histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Latency summary (mean/percentiles).
    pub fn latency(&self) -> LatencySummary {
        self.hist.summary()
    }

    /// Goodput in Gbps over the measured window.
    pub fn goodput_gbps(&self) -> f64 {
        self.meter.goodput_gbps()
    }

    /// Million operations per second over the measured window.
    pub fn miops(&self) -> f64 {
        self.meter.miops()
    }

    /// Operations measured (post warm-up).
    pub fn ops(&self) -> u64 {
        self.meter.ops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_is_excluded() {
        let warm = SimTime::from_nanos(1000);
        let mut r = OpRecorder::new(warm);
        r.record(SimTime::from_nanos(500), SimDuration::from_nanos(10), 100);
        assert_eq!(r.ops(), 0, "warm-up sample discarded");
        r.record(SimTime::from_nanos(1500), SimDuration::from_nanos(10), 100);
        assert_eq!(r.ops(), 1);
        assert_eq!(r.latency().count, 1);
    }

    #[test]
    fn errors_counted_separately() {
        let mut r = OpRecorder::new(SimTime::ZERO);
        r.record_error(SimTime::from_nanos(1));
        assert_eq!(r.errors(), 1);
        assert_eq!(r.ops(), 0);
    }

    #[test]
    fn errors_respect_the_warmup_window() {
        let warm = SimTime::from_nanos(1000);
        let mut r = OpRecorder::new(warm);
        r.record_error(SimTime::from_nanos(500));
        assert_eq!(r.errors(), 0, "pre-warm-up error discarded like samples");
        r.record_error(SimTime::from_nanos(1500));
        assert_eq!(r.errors(), 1);
    }
}
