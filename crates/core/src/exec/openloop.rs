//! Seeded open-loop arrival schedules.
//!
//! Closed-loop clients issue the next op when the previous one returns,
//! so offered load collapses to match service rate and queueing never
//! shows up in the numbers. An open-loop client issues on its *own*
//! schedule — requests keep arriving whether or not earlier ones
//! finished — which is how latency-vs-offered-load curves (fig. 7/18
//! style) must be driven. [`ArrivalGen`] produces such schedules
//! deterministically: same process + same seed ⇒ the same gap sequence,
//! independent of anything the simulation does with the ops.
//!
//! Typical generator task:
//!
//! ```ignore
//! let mut gen = ArrivalGen::new(ArrivalProcess::poisson(200_000.0), seed);
//! let mut at = h.now();
//! while at < deadline {
//!     at = at + gen.next_gap();
//!     h.sleep(at.since(h.now())).await;
//!     let h2 = h.clone();
//!     h.spawn(async move { h2.rread(va, 64).arriving_at(at).await; });
//! }
//! ```

use clio_sim::dist::ExpInterarrival;
use clio_sim::{SimDuration, SimRng, SimTime};

/// The process generating inter-arrival gaps: Poisson arrivals, i.e.
/// exponential gaps with a given mean rate.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalProcess {
    /// Offered load, in ops per second of virtual time.
    rate_per_sec: f64,
}

impl ArrivalProcess {
    /// Poisson arrivals at `rate_per_sec` ops/s.
    pub fn poisson(rate_per_sec: f64) -> Self {
        ArrivalProcess { rate_per_sec }
    }
}

/// A deterministic arrival-schedule generator (seeded; every instance
/// with the same `(process, seed)` yields the same sequence).
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    exp: ExpInterarrival,
    rng: SimRng,
}

impl ArrivalGen {
    /// Builds a generator for `process` from `seed`.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        ArrivalGen { exp: ExpInterarrival::from_rate(process.rate_per_sec), rng: SimRng::new(seed) }
    }

    /// The next inter-arrival gap.
    pub fn next_gap(&mut self) -> SimDuration {
        self.exp.sample(&mut self.rng)
    }

    /// Advances `from` by the next gap: the next absolute arrival.
    pub fn next_arrival(&mut self, from: SimTime) -> SimTime {
        SimTime::from_nanos(from.as_nanos().saturating_add(self.next_gap().as_nanos()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_gaps_are_seed_deterministic_and_mean_reverting() {
        let mk = || ArrivalGen::new(ArrivalProcess::poisson(1_000_000.0), 42);
        let (mut a, mut b) = (mk(), mk());
        let gaps: Vec<SimDuration> = (0..10_000).map(|_| a.next_gap()).collect();
        let again: Vec<SimDuration> = (0..10_000).map(|_| b.next_gap()).collect();
        assert_eq!(gaps, again, "same (process, seed) must replay identically");
        let mean_ns = gaps.iter().map(|g| g.as_nanos() as f64).sum::<f64>() / gaps.len() as f64;
        // 1 Mops/s ⇒ 1000 ns mean gap; 10k samples keep us within ~5%.
        assert!((mean_ns - 1000.0).abs() < 50.0, "mean gap {mean_ns} ns off target");
    }

    /// The exact gap stream behind `openloop_tasks` and every open-loop
    /// figure: a change to how a generator draws its gaps must not move it.
    #[test]
    fn the_gap_stream_is_pinned() {
        let mut g = ArrivalGen::new(ArrivalProcess::poisson(7.5e6), 42);
        let gaps: Vec<u64> = (0..16).map(|_| g.next_gap().as_nanos()).collect();
        assert_eq!(
            gaps,
            [170, 142, 435, 19, 202, 30, 144, 64, 211, 94, 89, 87, 54, 212, 302, 93],
            "first 16 gaps of poisson(7.5e6), seed 42"
        );
        let from = SimTime::from_nanos(1_000);
        assert_eq!(g.clone().next_arrival(from), from + g.next_gap());
    }
}
