//! Measurement helpers shared by client programs and benchmarks.

use clio_sim::stats::Histogram;
use clio_sim::{Bandwidth, SimDuration, SimTime};

/// Collects per-operation latency plus goodput over a measurement window,
/// with warm-up exclusion — the standard recorder for every figure bench.
#[derive(Debug, Clone)]
pub struct OpRecorder {
    hist: Histogram,
    /// Payload bytes of the measured ops.
    bytes: u64,
    /// Ops measured.
    ops: u64,
    /// Completion time of the latest measured op (the window runs from
    /// `warmup_until` to here).
    last_event: SimTime,
    warmup_until: SimTime,
    errors: u64,
}

impl OpRecorder {
    /// A recorder discarding samples before `warmup_until`.
    pub fn new(warmup_until: SimTime) -> Self {
        OpRecorder {
            hist: Histogram::new(),
            bytes: 0,
            ops: 0,
            last_event: warmup_until,
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
        self.bytes += payload_bytes;
        self.ops += 1;
        self.last_event = self.last_event.max(completed);
    }

    /// The measured window: end of warm-up to the last measured completion.
    fn window(&self) -> SimDuration {
        self.last_event.since(self.warmup_until)
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

    /// The latency histogram of the measured ops.
    pub fn latency(&self) -> &Histogram {
        &self.hist
    }

    /// Goodput in Gbps over the measured window.
    pub fn goodput_gbps(&self) -> f64 {
        Bandwidth::from_transfer(self.bytes, self.window()) / 1e9
    }

    /// Operations measured (post warm-up).
    pub fn ops(&self) -> u64 {
        self.ops
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
        assert_eq!(r.latency().count(), 1);
    }

    #[test]
    fn recorder_computes_goodput() {
        let t0 = SimTime::ZERO;
        let mut r = OpRecorder::new(t0);
        let lat = SimDuration::from_nanos(10);
        r.record(t0 + SimDuration::from_micros(1), lat, 1250);
        r.record(t0 + SimDuration::from_micros(2), lat, 1250);
        // 2500 B over 2 us = 10 Gbps.
        assert!((r.goodput_gbps() - 10.0).abs() < 0.01, "{}", r.goodput_gbps());
        assert_eq!(r.ops(), 2);
    }

    #[test]
    fn window_starts_where_warmup_ends() {
        let warm = SimTime::ZERO + SimDuration::from_secs(1);
        let mut r = OpRecorder::new(warm);
        let lat = SimDuration::from_nanos(10);
        r.record(SimTime::ZERO + SimDuration::from_millis(500), lat, 1 << 30);
        // 125 MB in the second after warm-up = 1 Gbps; the warm-up bytes
        // and the warm-up second count for nothing.
        r.record(warm + SimDuration::from_secs(1), lat, 125_000_000);
        assert!((r.goodput_gbps() - 1.0).abs() < 0.01, "{}", r.goodput_gbps());
    }

    #[test]
    fn empty_recorder_reports_zero() {
        let r = OpRecorder::new(SimTime::ZERO);
        assert_eq!(r.goodput_gbps(), 0.0);
        assert_eq!(r.ops(), 0);
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
