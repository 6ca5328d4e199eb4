//! CN-managed congestion and incast control (paper §4.4).
//!
//! One delay-based AIMD window per `(CN, MN)` pair bounds outstanding
//! requests toward that MN; an incast window per CN bounds the *expected
//! response bytes* in flight, exploiting the fact that the CN knows each
//! request's response size in advance. Like Swift, the congestion window may
//! fall below one request, in which case sends are paced — a window of 0.1
//! means one request per 10 target-RTTs.

use clio_sim::{SimDuration, SimTime};

use crate::config::CLibConfig;

/// Delay-based AIMD congestion window toward one memory node.
#[derive(Debug, Clone)]
pub struct CongestionWindow {
    cwnd: f64,
    outstanding: u64,
    next_paced_send: SimTime,
    last_decrease: SimTime,
    /// EWMA-smoothed RTT of data-plane responses (TCP-style α = 1/8), in
    /// nanoseconds; `None` until the first sample. Feeds the RTT-derived
    /// doorbell budget (hold ≤ srtt/4).
    srtt_ns: Option<f64>,
    cfg: CwndParams,
}

#[derive(Debug, Clone, Copy)]
struct CwndParams {
    max: f64,
    min: f64,
}

impl CongestionWindow {
    /// A window with the library's parameters.
    pub fn new(cfg: &CLibConfig) -> Self {
        CongestionWindow {
            cwnd: cfg.cwnd_init,
            outstanding: 0,
            next_paced_send: SimTime::ZERO,
            last_decrease: SimTime::ZERO,
            srtt_ns: None,
            cfg: CwndParams { max: cfg.cwnd_max, min: cfg.cwnd_min },
        }
    }

    /// The current window, in requests.
    pub fn window(&self) -> f64 {
        self.cwnd
    }

    /// Requests currently in flight to this MN.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// The smoothed RTT of data-plane responses toward this MN (EWMA,
    /// α = 1/8), or `None` before the first sample. The transport derives
    /// its doorbell latency budget from this.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt_ns.map(|ns| SimDuration::from_nanos(ns as u64))
    }

    /// Whether a new request may be sent at `now`; if so, the in-flight
    /// count is taken immediately.
    pub fn try_acquire(&mut self, now: SimTime) -> bool {
        if self.cwnd >= 1.0 {
            if (self.outstanding as f64) < self.cwnd {
                self.outstanding += 1;
                return true;
            }
            return false;
        }
        // Sub-1 window: at most one in flight, paced.
        if self.outstanding == 0 && now >= self.next_paced_send {
            self.outstanding += 1;
            return true;
        }
        false
    }

    /// Earliest time a paced (sub-1 window) send becomes possible; callers
    /// can schedule a re-try then rather than polling.
    pub fn next_opportunity(&self, now: SimTime) -> SimTime {
        if self.cwnd >= 1.0 {
            now
        } else {
            now.max(self.next_paced_send)
        }
    }

    /// Records a response and its measured RTT (delay-based AIMD). The
    /// target delay scales with the operation's transfer size, as in Swift's
    /// per-byte target scaling: a 64 KB transfer legitimately takes several
    /// serialization times longer than a 16 B one.
    pub fn on_response_sized(&mut self, now: SimTime, rtt: SimDuration, bytes: u64) {
        self.outstanding = self.outstanding.saturating_sub(1);
        let sample = rtt.as_nanos() as f64;
        self.srtt_ns = Some(match self.srtt_ns {
            Some(srtt) => srtt + (sample - srtt) / 8.0,
            None => sample,
        });
        let target = CLibConfig::TARGET_RTT + SimDuration::from_nanos(bytes * 10);
        if rtt <= target {
            // Additive increase: +ai per window's worth of ACKs.
            self.cwnd = (self.cwnd + CLibConfig::CWND_AI / self.cwnd.max(1.0)).min(self.cfg.max);
        } else {
            self.decrease(now);
        }
        self.update_pacing(now);
    }

    /// Records a response for a small (sub-MTU) operation.
    pub fn on_response(&mut self, now: SimTime, rtt: SimDuration) {
        self.on_response_sized(now, rtt, 0);
    }

    /// Records a retransmission timeout — strong congestion signal.
    pub fn on_timeout(&mut self, now: SimTime) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.decrease(now);
        self.update_pacing(now);
    }

    /// Congestion signal without releasing the in-flight slot (a retry of
    /// the same logical request keeps its slot).
    pub fn on_congestion(&mut self, now: SimTime) {
        self.decrease(now);
        self.update_pacing(now);
    }

    /// Releases a slot without signal (e.g. request failed remotely).
    pub fn on_release(&mut self) {
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    fn decrease(&mut self, now: SimTime) {
        // At most one multiplicative decrease per target RTT, so a burst of
        // delayed ACKs does not collapse the window to the floor.
        if now.since(self.last_decrease) >= CLibConfig::TARGET_RTT {
            self.cwnd = (self.cwnd * CLibConfig::CWND_MD).max(self.cfg.min);
            self.last_decrease = now;
        }
    }

    fn update_pacing(&mut self, now: SimTime) {
        if self.cwnd < 1.0 {
            let gap = CLibConfig::TARGET_RTT.mul_f64(1.0 / self.cwnd);
            self.next_paced_send = now + gap;
        }
    }
}

/// Incast window: bounds the total expected response bytes in flight to a CN.
#[derive(Debug, Clone, Copy)]
pub struct IncastWindow {
    limit: u64,
    in_flight: u64,
}

impl IncastWindow {
    /// A window admitting `limit` bytes of expected responses.
    pub fn new(limit: u64) -> Self {
        IncastWindow { limit, in_flight: 0 }
    }

    /// Expected response bytes currently outstanding.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Tries to reserve `bytes` of expected response; single requests larger
    /// than the whole window are admitted alone (they must be sendable).
    pub fn try_acquire(&mut self, bytes: u64) -> bool {
        if self.in_flight + bytes <= self.limit || (self.in_flight == 0 && bytes > self.limit) {
            self.in_flight += bytes;
            true
        } else {
            false
        }
    }

    /// Releases `bytes` when the response arrives (or the request dies).
    pub fn release(&mut self, bytes: u64) {
        self.in_flight = self.in_flight.saturating_sub(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }
    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    fn cwnd() -> CongestionWindow {
        CongestionWindow::new(&CLibConfig { cwnd_init: 2.0, ..CLibConfig::default() })
    }

    #[test]
    fn admits_up_to_window() {
        let mut w = cwnd();
        assert!(w.try_acquire(t(0)));
        assert!(w.try_acquire(t(0)));
        assert!(!w.try_acquire(t(0)), "window of 2 is full");
        w.on_response(t(10), d(5));
        assert!(w.try_acquire(t(10)));
    }

    #[test]
    fn grows_on_fast_rtts_shrinks_on_slow() {
        let mut w = cwnd();
        let before = w.window();
        assert!(w.try_acquire(t(0)));
        w.on_response(t(5), d(5)); // below 12 us target
        assert!(w.window() > before);
        let grown = w.window();
        assert!(w.try_acquire(t(20)));
        w.on_response(t(40), d(40)); // way above target
        assert!(w.window() < grown);
    }

    #[test]
    fn decrease_rate_limited_per_rtt() {
        let mut w = cwnd();
        assert!(w.try_acquire(t(100)));
        assert!(w.try_acquire(t(100)));
        // Burst of late ACKs at the same instant: only one decrease.
        w.on_response(t(100), d(100));
        let after_first = w.window();
        w.on_response(t(100), d(100));
        assert_eq!(w.window(), after_first);
    }

    #[test]
    fn window_falls_below_one_and_paces() {
        let mut w = cwnd();
        // Hammer timeouts until sub-1.
        for i in 0..20u64 {
            let now = t(100 + i * 20);
            if w.try_acquire(now) {
                w.on_timeout(now + d(15));
            }
        }
        assert!(w.window() < 1.0, "window {}", w.window());
        let now = t(100_000);
        // After the pacing gap, exactly one send is admitted.
        let when = w.next_opportunity(now);
        assert!(w.try_acquire(when.max(now)) || w.try_acquire(w.next_opportunity(now)));
        assert!(!w.try_acquire(w.next_opportunity(now)), "only one in flight when sub-1");
    }

    #[test]
    fn srtt_tracks_responses() {
        let mut w = cwnd();
        assert_eq!(w.srtt(), None, "no sample before the first response");
        assert!(w.try_acquire(t(0)));
        w.on_response(t(8), d(8));
        assert_eq!(w.srtt(), Some(d(8)), "first sample seeds the EWMA");
        assert!(w.try_acquire(t(20)));
        w.on_response(t(36), d(16));
        // EWMA with alpha = 1/8: 8 + (16 - 8)/8 = 9 us.
        assert_eq!(w.srtt(), Some(d(9)));
    }

    #[test]
    fn incast_window_bounds_bytes() {
        let mut iw = IncastWindow::new(1000);
        assert!(iw.try_acquire(600));
        assert!(!iw.try_acquire(600), "would exceed the window");
        iw.release(600);
        assert!(iw.try_acquire(600));
        assert_eq!(iw.in_flight(), 600);
    }

    #[test]
    fn oversized_single_response_still_admitted() {
        let mut iw = IncastWindow::new(1000);
        assert!(iw.try_acquire(5000), "a single huge read must not deadlock");
        assert!(!iw.try_acquire(1));
        iw.release(5000);
        assert!(iw.try_acquire(1));
    }

    #[test]
    fn window_never_exceeds_max_or_floor() {
        let mut w = CongestionWindow::new(&CLibConfig {
            cwnd_init: 4.0,
            cwnd_max: 8.0,
            cwnd_min: 0.5,
            ..CLibConfig::default()
        });
        for i in 0..1000u64 {
            if w.try_acquire(t(i * 10)) {
                w.on_response(t(i * 10 + 1), d(1));
            }
        }
        assert!(w.window() <= 8.0);
        for i in 0..1000u64 {
            let now = t(100_000 + i * 100);
            if w.try_acquire(now) {
                w.on_timeout(now + d(50));
            }
        }
        assert!(w.window() >= 0.5);
    }
}
