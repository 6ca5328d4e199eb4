//! LegoOS — a software memory node (paper §2.2, citation 64).
//!
//! LegoOS's mComponent performs the same VA→PA translation as Clio but in
//! **software**: a thread pool picks incoming requests off the RDMA stack
//! and walks a hash table per access. That software step is the bottleneck
//! the paper measures: roughly 2× Clio's latency for small requests and a
//! 77 Gbps throughput ceiling vs. Clio's 110+ (§7.1).

use clio_sim::resource::{SerialResource, ServerPool};
use clio_sim::{Bandwidth, SimDuration, SimRng, SimTime};

use crate::{host_jitter, NETWORK_ONE_WAY};

/// The LegoOS memory-node model.
#[derive(Debug)]
pub struct LegoOsModel {
    workers: ServerPool,
    line: SerialResource,
}

impl LegoOsModel {
    /// NIC processing per message. This and the other values but the
    /// ceiling are the reproduction's, set so a small access takes about
    /// twice Clio's latency (§7.1).
    pub const NIC_OVERHEAD: SimDuration = SimDuration::from_nanos(400);

    /// Software translation + dispatch cost per request.
    pub const SW_TRANSLATION: SimDuration = SimDuration::from_nanos(1500);

    /// Worker threads in the memory node.
    pub const WORKERS: usize = 8;

    /// Per-byte memory copy bandwidth in software.
    pub const COPY_BANDWIDTH: Bandwidth = Bandwidth::from_gigabytes_per_sec(12);

    /// Aggregate throughput ceiling (§7.1: 77 Gbps peak).
    pub const THROUGHPUT_CEILING: Bandwidth = Bandwidth::from_gbps(77);

    /// Host jitter probability.
    pub const JITTER_PROB: f64 = 0.002;

    /// Host jitter scale.
    pub const JITTER_SCALE: SimDuration = SimDuration::from_micros(150);

    /// An idle memory node.
    pub fn new() -> Self {
        LegoOsModel { workers: ServerPool::new(Self::WORKERS), line: SerialResource::new() }
    }

    /// One remote memory access of `bytes`; returns completion time.
    pub fn access(&mut self, rng: &mut SimRng, now: SimTime, bytes: u64) -> SimTime {
        // The 77 Gbps ceiling: all traffic serializes through the software
        // receive path.
        let line = self.line.reserve(now, Self::THROUGHPUT_CEILING.transfer_time(bytes.max(64)));
        let at_node = line.end + NETWORK_ONE_WAY + Self::NIC_OVERHEAD;
        let service = Self::SW_TRANSLATION + Self::COPY_BANDWIDTH.transfer_time(bytes);
        let served = self.workers.reserve(at_node, service);
        let done = served.end + Self::NIC_OVERHEAD + NETWORK_ONE_WAY;
        done + host_jitter(rng, Self::JITTER_PROB, Self::JITTER_SCALE)
    }
}

impl Default for LegoOsModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dominated_by_software_translation() {
        let mut m = LegoOsModel::new();
        let mut rng = SimRng::new(7);
        let t0 = SimTime::ZERO;
        let lat = m.access(&mut rng, t0, 16).since(t0);
        // ~2 one-way nets + NIC + sw translation: several microseconds.
        assert!(
            lat >= SimDuration::from_micros(3) && lat <= SimDuration::from_micros(8),
            "LegoOS 16B latency {lat}"
        );
    }

    #[test]
    fn throughput_ceiling_holds() {
        let mut m = LegoOsModel::new();
        let mut rng = SimRng::new(7);
        let t0 = SimTime::ZERO;
        let mut done = t0;
        let bytes_each = 64 << 10;
        let n = 200u64;
        for _ in 0..n {
            done = done.max(m.access(&mut rng, t0, bytes_each));
        }
        let gbps = (n * bytes_each * 8) as f64 / done.since(t0).as_secs_f64() / 1e9;
        assert!(gbps <= 78.0, "goodput {gbps:.1} exceeds the ceiling");
        assert!(gbps > 60.0, "goodput {gbps:.1} far below the ceiling");
    }
}
