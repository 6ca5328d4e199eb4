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

/// The stochastic process generating inter-arrival gaps.
#[derive(Debug, Clone, Copy)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential gaps with the given mean rate.
    Poisson {
        /// Offered load, in ops per second of virtual time.
        rate_per_sec: f64,
    },
    /// Uniform gaps in `[min, max]`.
    Uniform {
        /// Shortest gap.
        min: SimDuration,
        /// Longest gap.
        max: SimDuration,
    },
    /// A fixed gap (deterministic arrivals, paced like a rate limiter).
    Constant {
        /// The gap.
        gap: SimDuration,
    },
}

impl ArrivalProcess {
    /// Poisson arrivals at `rate_per_sec` ops/s.
    pub fn poisson(rate_per_sec: f64) -> Self {
        ArrivalProcess::Poisson { rate_per_sec }
    }

    /// The mean offered rate, in ops per second.
    pub fn mean_rate_per_sec(&self) -> f64 {
        let mean_gap = match self {
            ArrivalProcess::Poisson { rate_per_sec } => return *rate_per_sec,
            ArrivalProcess::Uniform { min, max } => (min.as_secs_f64() + max.as_secs_f64()) / 2.0,
            ArrivalProcess::Constant { gap } => gap.as_secs_f64(),
        };
        if mean_gap > 0.0 {
            1.0 / mean_gap
        } else {
            f64::INFINITY
        }
    }
}

/// A deterministic arrival-schedule generator (seeded; every instance
/// with the same `(process, seed)` yields the same sequence).
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    exp: Option<ExpInterarrival>,
    rng: SimRng,
}

impl ArrivalGen {
    /// Builds a generator for `process` from `seed`.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        let exp = match process {
            ArrivalProcess::Poisson { rate_per_sec } => {
                Some(ExpInterarrival::from_rate(rate_per_sec))
            }
            _ => None,
        };
        ArrivalGen { process, exp, rng: SimRng::new(seed) }
    }

    /// The next inter-arrival gap.
    pub fn next_gap(&mut self) -> SimDuration {
        match self.process {
            ArrivalProcess::Poisson { .. } => {
                self.exp.as_ref().expect("poisson generator").sample(&mut self.rng)
            }
            ArrivalProcess::Uniform { min, max } => {
                if max <= min {
                    min
                } else {
                    SimDuration::from_nanos(self.rng.range_u64(min.as_nanos(), max.as_nanos() + 1))
                }
            }
            ArrivalProcess::Constant { gap } => gap,
        }
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

    #[test]
    fn uniform_gaps_stay_in_bounds() {
        let (min, max) = (SimDuration::from_nanos(100), SimDuration::from_nanos(200));
        let mut g = ArrivalGen::new(ArrivalProcess::Uniform { min, max }, 7);
        for _ in 0..1000 {
            let gap = g.next_gap();
            assert!(gap >= min && gap <= max, "gap {gap:?} out of bounds");
        }
    }

    #[test]
    fn constant_process_is_a_rate_limiter() {
        let gap = SimDuration::from_micros(5);
        let mut g = ArrivalGen::new(ArrivalProcess::Constant { gap }, 0);
        let t = g.next_arrival(SimTime::ZERO);
        assert_eq!(t, SimTime::from_nanos(5_000));
        assert_eq!(g.next_gap(), gap);
        assert!(g.process.mean_rate_per_sec() > 199_999.0);
    }
}
