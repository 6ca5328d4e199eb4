//! CLib configuration and calibration constants.

use clio_sim::SimDuration;

/// Tunables of the CN-side library; transport parameters follow §4.4–4.5.
///
/// Values nothing varies are associated constants instead: the per-op
/// software cost (§7.1 "Close look at CBoard components"), the AIMD
/// parameters and the retry backoffs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CLibConfig {
    /// Retry timeout: a request unanswered for this long is retried with a
    /// fresh id (§4.5 T4). Must match the MN's dedup-buffer sizing.
    pub request_timeout: SimDuration,
    /// Retries before the request fails back to the application.
    pub max_retries: u32,
    /// Retries allowed for `Conflict` refusals (migration takes ~1 s/GB, so
    /// this budget is generous and the backoff grows).
    pub max_conflict_retries: u32,
    /// Initial congestion window (requests) per MN.
    pub cwnd_init: f64,
    /// Maximum congestion window (requests) per MN.
    pub cwnd_max: f64,
    /// Minimum congestion window; may fall below one packet (§4.4 incast).
    pub cwnd_min: f64,
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
}

impl CLibConfig {
    /// Software cost to build and post a request (ordering check, header
    /// build, doorbell): 150 ns of the paper's ~250 ns CLib cost per op
    /// (§7.1). The other ~100 ns, receiving and delivering a completion,
    /// is not modelled (ROADMAP "Known gaps").
    pub const SEND_OVERHEAD: SimDuration = SimDuration::from_nanos(150);

    /// Backoff before re-issuing a request refused with `Conflict` (its
    /// region is mid-migration, §4.7); the `n`-th re-issue waits
    /// `CONFLICT_BACKOFF × (1 + min(n, 16))`.
    pub const CONFLICT_BACKOFF: SimDuration = SimDuration::from_micros(100);

    /// Spin interval between lock acquisition attempts (§4.5 T3).
    pub const LOCK_BACKOFF: SimDuration = SimDuration::from_micros(2);

    /// Additive increase per acknowledged request (divided by cwnd, §4.4).
    pub const CWND_AI: f64 = 1.0;

    /// Multiplicative decrease factor on congestion (§4.4).
    pub const CWND_MD: f64 = 0.5;

    /// RTT above which the window decreases (delay-based signal, like
    /// Swift's target delay, §4.4).
    pub const TARGET_RTT: SimDuration = SimDuration::from_micros(12);

    /// Hard cap on the doorbell's latency budget (`srtt / 4` toward the MN,
    /// zero before the first RTT sample): even on a pathologically slow
    /// fabric the doorbell never holds a request longer than this (a third
    /// of [`Self::TARGET_RTT`]).
    pub const DOORBELL_DERIVED_CAP: SimDuration = SimDuration::from_micros(4);

    /// Paper-calibrated defaults.
    pub fn prototype() -> Self {
        CLibConfig {
            request_timeout: SimDuration::from_micros(50),
            max_retries: 3,
            max_conflict_retries: 100_000,
            cwnd_init: 16.0,
            cwnd_max: 256.0,
            cwnd_min: 0.01,
            iwnd_bytes: 512 << 10,
            batch_max_ops: 16,
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
        assert!(c.request_timeout > CLibConfig::TARGET_RTT);
        assert!(c.batch_max_ops > 1, "batching is on by default");
        assert!(
            CLibConfig::DOORBELL_DERIVED_CAP < CLibConfig::TARGET_RTT,
            "cap stays well under the RTT"
        );
        assert_eq!(CLibConfig::prototype_unbatched().batch_max_ops, 1);
    }
}
