//! LegoOS — a software memory node (paper §2.2, citation 64).
//!
//! LegoOS's mComponent performs the same VA→PA translation as Clio but in
//! **software**: a thread pool picks incoming requests off the RDMA stack
//! and walks a hash table per access. That software step is the bottleneck
//! the paper measures: roughly 2× Clio's latency for small requests and a
//! 77 Gbps throughput ceiling vs. Clio's 110+ (§7.1).

use clio_sim::resource::ServerPool;
use clio_sim::{Bandwidth, SimDuration, SimRng, SimTime};

/// Parameters of the LegoOS memory-node model.
#[derive(Debug, Clone)]
pub struct LegoOsParams {
    /// One-way network latency (RDMA-based transport).
    pub network_one_way: SimDuration,
    /// NIC processing per message.
    pub nic_overhead: SimDuration,
    /// Software translation + dispatch cost per request.
    pub sw_translation: SimDuration,
    /// Worker threads in the memory node.
    pub workers: usize,
    /// Per-byte memory copy bandwidth in software.
    pub copy_bandwidth: Bandwidth,
    /// Aggregate throughput ceiling (§7.1: 77 Gbps peak).
    pub throughput_ceiling: Bandwidth,
    /// Host jitter probability.
    pub jitter_prob: f64,
    /// Host jitter scale.
    pub jitter_scale: SimDuration,
}

impl Default for LegoOsParams {
    fn default() -> Self {
        LegoOsParams {
            network_one_way: SimDuration::from_nanos(600),
            nic_overhead: SimDuration::from_nanos(400),
            sw_translation: SimDuration::from_nanos(1500),
            workers: 8,
            copy_bandwidth: Bandwidth::from_gigabytes_per_sec(12),
            throughput_ceiling: Bandwidth::from_gbps(77),
            jitter_prob: 0.002,
            jitter_scale: SimDuration::from_micros(150),
        }
    }
}

/// The LegoOS memory-node model.
#[derive(Debug)]
pub struct LegoOsModel {
    params: LegoOsParams,
    workers: ServerPool,
    line: clio_sim::resource::SerialResource,
    ops: u64,
}

impl LegoOsModel {
    /// Builds a memory node with the given parameters.
    pub fn new(params: LegoOsParams) -> Self {
        LegoOsModel {
            workers: ServerPool::new(params.workers),
            line: clio_sim::resource::SerialResource::new(),
            params,
            ops: 0,
        }
    }

    /// Default-parameter model.
    pub fn default_model() -> Self {
        Self::new(LegoOsParams::default())
    }

    /// Operations served.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// One remote memory access of `bytes`; returns completion time.
    pub fn access(&mut self, rng: &mut SimRng, now: SimTime, bytes: u64) -> SimTime {
        self.ops += 1;
        let p = &self.params;
        // The 77 Gbps ceiling: all traffic serializes through the software
        // receive path.
        let line = self.line.reserve(now, p.throughput_ceiling.transfer_time(bytes.max(64)));
        let at_node = line.end + p.network_one_way + p.nic_overhead;
        let service = p.sw_translation + p.copy_bandwidth.transfer_time(bytes);
        let served = self.workers.reserve(at_node, service);
        let mut done = served.end + p.nic_overhead + p.network_one_way;
        if rng.chance(p.jitter_prob) {
            done += p.jitter_scale.mul_f64(0.2 + rng.f64() * 1.8);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dominated_by_software_translation() {
        let mut m = LegoOsModel::default_model();
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
        let mut m = LegoOsModel::default_model();
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
