//! Clover — passive disaggregated (key-value) memory (paper §2.3, citation 75).
//!
//! Clover's memory nodes have **no processing power**: clients manage
//! everything through one-sided RDMA. Reads traverse the client-cached
//! index then fetch data (1 RTT in the common case); writes must first
//! write the data block, then atomically link it into the metadata chain —
//! **at least 2 RTTs** — to provide consistency without MN-side logic
//! (Figure 11's "Clover requires ≥ 2 RTTs for write"). CN-side management
//! also burns client CPU cycles, which Figure 21's energy accounting
//! captures.

use clio_sim::{SimDuration, SimRng, SimTime};

use crate::rdma::{RdmaNic, RnicParams, Verb};
use crate::NETWORK_ONE_WAY;

/// Latency model of a Clover deployment (client library + passive MN).
#[derive(Debug)]
pub struct CloverModel {
    nic: RdmaNic,
}

impl CloverModel {
    /// Client-side cycles spent managing metadata per op (the value is the
    /// reproduction's, as is [`Self::READ_INDEX_MISSES`]).
    pub const CLIENT_OVERHEAD: SimDuration = SimDuration::from_nanos(350);

    /// Average extra index hops per read when the cache is cold/contended.
    pub const READ_INDEX_MISSES: f64 = 0.15;

    /// A Clover instance over the given RNIC generation.
    pub fn new(params: RnicParams) -> Self {
        CloverModel { nic: RdmaNic::new(params, true) }
    }

    fn rtt(&mut self, rng: &mut SimRng, now: SimTime, verb: Verb, key: u64, bytes: u64) -> SimTime {
        let end = self.nic.execute(rng, now + NETWORK_ONE_WAY, verb, 1, key % 64, key, bytes, 64);
        end + NETWORK_ONE_WAY
    }

    /// A get: index lookup (usually cached) + data fetch.
    pub fn get(&mut self, rng: &mut SimRng, now: SimTime, key: u64, value_bytes: u64) -> SimTime {
        let mut t = now + Self::CLIENT_OVERHEAD;
        if rng.chance(Self::READ_INDEX_MISSES) {
            // Chase one extra chain pointer.
            t = self.rtt(rng, t, Verb::Read, key, 64);
        }
        self.rtt(rng, t, Verb::Read, key, value_bytes)
    }

    /// A put: write the new block, then link it with an atomic — 2 RTTs
    /// minimum.
    pub fn put(&mut self, rng: &mut SimRng, now: SimTime, key: u64, value_bytes: u64) -> SimTime {
        let t = now + Self::CLIENT_OVERHEAD;
        let t = self.rtt(rng, t, Verb::Write, key, value_bytes);
        // Metadata link: small atomic write to the chain.
        self.rtt(rng, t + Self::CLIENT_OVERHEAD, Verb::Write, key ^ 0xFFFF, 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_cost_at_least_two_rtts() {
        let mut m = CloverModel::new(RnicParams::connectx3());
        let mut rng = SimRng::new(4);
        // Warm up.
        let t0 = SimTime::ZERO;
        m.get(&mut rng, t0, 1, 64);
        m.put(&mut rng, t0, 1, 64);
        let mut get_total = SimDuration::ZERO;
        let mut put_total = SimDuration::ZERO;
        let mut t = SimTime::from_nanos(1_000_000);
        for i in 0..50 {
            let e = m.get(&mut rng, t, i % 4, 64);
            get_total += e.since(t);
            t = e + SimDuration::from_micros(5);
            let e = m.put(&mut rng, t, i % 4, 64);
            put_total += e.since(t);
            t = e + SimDuration::from_micros(5);
        }
        assert!(
            put_total > get_total.mul_f64(1.5),
            "puts must be ≥~2x gets: {put_total} vs {get_total}"
        );
    }
}
