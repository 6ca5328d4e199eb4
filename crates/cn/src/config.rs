//! CLib configuration and calibration constants.

use clio_sim::SimDuration;

/// Tunables of the CN-side library.
///
/// The software overheads reproduce the paper's measured ~250 ns total CLib
/// cost per operation (§7.1 "Close look at CBoard components"); transport
/// parameters follow §4.4–4.5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CLibConfig {
    /// Software cost to build and post a request (ordering check, header
    /// build, doorbell).
    pub send_overhead: SimDuration,
    /// Software cost to receive and deliver a completion. Known gap: it is
    /// added only to `XferDone::rtt`, which nothing above the transport
    /// reads — `Completion::completed_at` is the delivery instant, so no
    /// reported latency includes these 100 ns of the paper's ~250 ns CLib
    /// cost (ROADMAP "Known gaps"; charging it moves every pinned latency).
    pub recv_overhead: SimDuration,
    /// Retry timeout: a request unanswered for this long is retried with a
    /// fresh id (§4.5 T4). Must match the MN's dedup-buffer sizing.
    pub request_timeout: SimDuration,
    /// Retries before the request fails back to the application.
    pub max_retries: u32,
    /// Backoff before re-issuing a request refused with `Conflict` (its
    /// region is mid-migration).
    pub conflict_backoff: SimDuration,
    /// Retries allowed for `Conflict` refusals (migration takes ~1 s/GB, so
    /// this budget is generous and the backoff grows).
    pub max_conflict_retries: u32,
    /// Spin interval between lock acquisition attempts.
    pub lock_backoff: SimDuration,
    /// Initial congestion window (requests) per MN.
    pub cwnd_init: f64,
    /// Maximum congestion window (requests) per MN.
    pub cwnd_max: f64,
    /// Minimum congestion window; may fall below one packet (§4.4 incast).
    pub cwnd_min: f64,
    /// Additive increase per acknowledged request (divided by cwnd).
    pub cwnd_ai: f64,
    /// Multiplicative decrease factor on congestion.
    pub cwnd_md: f64,
    /// RTT above which the window decreases (delay-based signal, like
    /// Swift's target delay).
    pub target_rtt: SimDuration,
    /// Incast window: maximum outstanding expected response bytes per CN.
    pub iwnd_bytes: u64,
    /// Maximum small requests coalesced into one wire frame toward an MN
    /// (doorbell coalescing), under the link MTU. `1` disables batching
    /// entirely — no doorbell, no hold — and restores the
    /// one-frame-per-request wire behavior (the escape hatch that keeps
    /// pre-batching figures reproducible). Above `1` the doorbell's hold is
    /// not configured but measured: see [`clio_net::Doorbell`] for the rule
    /// and [`Self::DOORBELL_DERIVED_CAP`] for its one CN-side constant.
    pub batch_max_ops: u32,
    /// Consecutive attempt-level timeouts toward one MN before its circuit
    /// breaker trips and further ops to it fail fast with
    /// `ClioError::Unreachable` instead of each burning the full retry
    /// budget. `0` disables the breaker (the paper-faithful default: Clio's
    /// prototype always retries to exhaustion; the chaos layer turns the
    /// breaker on explicitly).
    pub breaker_threshold: u32,
    /// How long an open breaker waits before moving to half-open and
    /// letting one probe op through (a seeded jitter of up to 1/4 of this
    /// is added so recovering CNs do not probe in lockstep).
    pub breaker_probe_backoff: SimDuration,
}

impl CLibConfig {
    /// Hard cap on the doorbell's latency budget (`srtt / 4` toward the MN,
    /// zero before the first RTT sample): even on a pathologically slow
    /// fabric the doorbell never holds a request longer than this (a third
    /// of the default 12 µs target RTT).
    pub const DOORBELL_DERIVED_CAP: SimDuration = SimDuration::from_micros(4);

    /// Paper-calibrated defaults.
    pub fn prototype() -> Self {
        CLibConfig {
            send_overhead: SimDuration::from_nanos(150),
            recv_overhead: SimDuration::from_nanos(100),
            request_timeout: SimDuration::from_micros(50),
            max_retries: 3,
            conflict_backoff: SimDuration::from_micros(100),
            max_conflict_retries: 100_000,
            lock_backoff: SimDuration::from_micros(2),
            cwnd_init: 16.0,
            cwnd_max: 256.0,
            cwnd_min: 0.01,
            cwnd_ai: 1.0,
            cwnd_md: 0.5,
            target_rtt: SimDuration::from_micros(12),
            iwnd_bytes: 512 << 10,
            batch_max_ops: 16,
            breaker_threshold: 0,
            breaker_probe_backoff: SimDuration::from_micros(200),
        }
    }

    /// Paper-calibrated defaults with batching disabled (one frame per
    /// request, the pre-batching wire behavior).
    pub fn prototype_unbatched() -> Self {
        CLibConfig { batch_max_ops: 1, ..Self::prototype() }
    }
}

impl Default for CLibConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = CLibConfig::default();
        assert!(c.cwnd_min < 1.0, "window must be able to fall below one packet");
        assert!(c.cwnd_init <= c.cwnd_max);
        assert!(c.max_retries > 0);
        assert!(c.request_timeout > c.target_rtt);
        assert!(c.batch_max_ops > 1, "batching is on by default");
        assert!(CLibConfig::DOORBELL_DERIVED_CAP < c.target_rtt, "cap stays well under the RTT");
        assert_eq!(CLibConfig::prototype_unbatched().batch_max_ops, 1);
        assert_eq!(c.breaker_threshold, 0, "breaker is opt-in; prototype retries to exhaustion");
        assert!(c.breaker_probe_backoff > c.request_timeout, "probe waits out the timeout");
    }
}
