//! HERD — RPC-style key-value serving over RDMA (paper citation 36), plus the
//! BlueField SmartNIC variant (paper §7's HERD-BF).
//!
//! HERD clients write requests into server memory with unreliable-connected
//! RDMA writes; server CPU cores busy-poll the request region, execute the
//! operation, and answer with an unreliable datagram send. Latency is one
//! network RTT plus CPU service (and queueing under load). On BlueField,
//! the "server" is the SmartNIC's ARM complex: every request crosses from
//! the NIC chip to the ARM chip and back, which the paper measures as the
//! dominant cost (§7.1: "HERD-BF's latency is much higher ... due to the
//! slow communication between BlueField's ConnectX-5 chip and ARM processor
//! chip").

use clio_sim::resource::ServerPool;
use clio_sim::{Bandwidth, SimDuration, SimRng, SimTime};

use crate::{host_jitter, NETWORK_ONE_WAY};

/// What the HERD deployments differ in; what they share is a
/// [`HerdModel`] constant.
#[derive(Debug, Clone)]
pub struct HerdParams {
    /// CPU service time per KV operation.
    pub cpu_service: SimDuration,
    /// Polling cores serving requests.
    pub cores: usize,
    /// Extra chip-to-chip crossing each way (BlueField only).
    pub crossing: SimDuration,
    /// Host jitter probability (GC, scheduler, ...).
    pub jitter_prob: f64,
    /// Host jitter scale.
    pub jitter_scale: SimDuration,
}

impl HerdParams {
    /// HERD on a Xeon server (paper's HERD bars).
    pub fn on_cpu() -> Self {
        HerdParams {
            cpu_service: SimDuration::from_nanos(400),
            cores: 8,
            crossing: SimDuration::ZERO,
            jitter_prob: 0.002,
            jitter_scale: SimDuration::from_micros(200),
        }
    }

    /// HERD on the BlueField SmartNIC (paper's HERD-BF bars): slower ARM
    /// cores and a costly NIC-chip ↔ ARM-chip crossing in each direction.
    pub fn on_bluefield() -> Self {
        HerdParams {
            cpu_service: SimDuration::from_micros(1),
            cores: 4,
            crossing: SimDuration::from_nanos(2300),
            jitter_prob: 0.004,
            jitter_scale: SimDuration::from_micros(400),
        }
    }
}

/// The HERD server model.
#[derive(Debug)]
pub struct HerdModel {
    params: HerdParams,
    cpu: ServerPool,
}

impl HerdModel {
    /// NIC processing per packet (the value is the reproduction's).
    pub const NIC_OVERHEAD: SimDuration = SimDuration::from_nanos(500);

    /// Link bandwidth (a 40 Gbps ConnectX NIC, as for RDMA).
    pub const BANDWIDTH: Bandwidth = Bandwidth::from_gbps(40);

    /// Builds a server with the given parameters.
    pub fn new(params: HerdParams) -> Self {
        HerdModel { cpu: ServerPool::new(params.cores), params }
    }

    /// One KV request (`bytes` of payload in the larger direction);
    /// returns completion time.
    pub fn request(&mut self, rng: &mut SimRng, now: SimTime, bytes: u64) -> SimTime {
        let p = &self.params;
        let transfer = Self::BANDWIDTH.transfer_time(bytes);
        // Request path: wire + NIC (+ crossing onto the ARM for BF).
        let at_cpu = now + NETWORK_ONE_WAY + Self::NIC_OVERHEAD + p.crossing + transfer;
        let served = self.cpu.reserve(at_cpu, p.cpu_service);
        // Response path.
        let done = served.end + p.crossing + Self::NIC_OVERHEAD + NETWORK_ONE_WAY;
        done + host_jitter(rng, p.jitter_prob, p.jitter_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bluefield_is_much_slower_than_cpu() {
        let mut cpu = HerdModel::new(HerdParams::on_cpu());
        let mut bf = HerdModel::new(HerdParams::on_bluefield());
        let mut rng = SimRng::new(2);
        let t0 = SimTime::ZERO;
        let cpu_lat = cpu.request(&mut rng, t0, 1024).since(t0);
        let bf_lat = bf.request(&mut rng, t0, 1024).since(t0);
        assert!(bf_lat > cpu_lat * 2, "BF must be >2x slower: {bf_lat} vs {cpu_lat}");
        assert!(cpu_lat < SimDuration::from_micros(5), "HERD ~RPC latency: {cpu_lat}");
        assert!(bf_lat > SimDuration::from_micros(4), "BF crossing dominates: {bf_lat}");
    }

    #[test]
    fn cpu_queueing_under_load() {
        let mut m = HerdModel::new(HerdParams { cores: 1, ..HerdParams::on_cpu() });
        let mut rng = SimRng::new(3);
        let t0 = SimTime::ZERO;
        let first = m.request(&mut rng, t0, 64);
        let mut last = first;
        for _ in 0..50 {
            last = m.request(&mut rng, t0, 64);
        }
        assert!(last > first, "single core must queue 51 simultaneous requests");
    }
}
