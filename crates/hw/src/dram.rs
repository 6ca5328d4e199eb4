//! Off-chip DRAM timing model.
//!
//! The board's DRAM sits behind a memory controller; the model charges a
//! fixed access latency per command plus bus occupancy proportional to the
//! transferred bytes. The command bus serializes (FCFS) so concurrent
//! requests contend, but fixed latencies overlap — matching a pipelined
//! controller. Page-table bucket fetches and data accesses share this one
//! resource, which is exactly why the paper bounds translation to *one*
//! access (§4.2).

use clio_sim::resource::{Reservation, SerialResource};
use clio_sim::{Bandwidth, SimDuration, SimTime};

/// The DRAM behind one CBoard's memory controller.
#[derive(Debug, Clone)]
pub struct DramModel {
    latency: SimDuration,
    bandwidth: Bandwidth,
    bus: SerialResource,
}

impl DramModel {
    /// A DRAM with `latency` per access and `bandwidth` sustained transfer
    /// rate.
    pub fn new(latency: SimDuration, bandwidth: Bandwidth) -> Self {
        DramModel { latency, bandwidth, bus: SerialResource::new() }
    }

    /// Reserves one access moving `bytes` (read or write — the model is
    /// symmetric). Returns when the access starts and completes: the bus is
    /// held for `bytes / bandwidth`, and the fixed latency that follows
    /// overlaps later accesses.
    #[inline]
    pub fn access(&mut self, now: SimTime, bytes: u64) -> Reservation {
        let r = self.bus.reserve(now, self.bandwidth.transfer_time(bytes));
        Reservation { start: r.start, end: r.end + self.latency }
    }

    /// A page-table bucket fetch: one fixed-size burst (64 B covers a
    /// K=4-slot bucket).
    pub fn fetch_bucket(&mut self, now: SimTime) -> Reservation {
        self.access(now, 64)
    }

    /// The fixed per-access latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    #[test]
    fn single_access_costs_latency_plus_transfer() {
        // 16 GB/s, 150 ns latency; 64 B moves in 4 ns.
        let mut d =
            DramModel::new(SimDuration::from_nanos(150), Bandwidth::from_gigabytes_per_sec(16));
        let r = d.access(ns(0), 64);
        assert_eq!(r.start, ns(0));
        assert_eq!(r.end, ns(154));
    }

    #[test]
    fn bus_contention_serializes_transfers() {
        let mut d =
            DramModel::new(SimDuration::from_nanos(100), Bandwidth::from_gigabytes_per_sec(1));
        let a = d.access(ns(0), 1000); // 1 us on the bus
        let b = d.fetch_bucket(ns(0));
        assert_eq!(a.end, ns(1100));
        assert_eq!(b.start, ns(1000), "bucket fetch waits for the bus");
        assert_eq!(b.end, ns(1164)); // 64 ns transfer + 100 ns latency
    }
}
