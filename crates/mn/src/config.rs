//! Memory-node configuration.

use clio_hw::CBoardHwConfig;
use clio_sim::{Bandwidth, SimDuration};

/// Parameters of the slow-path ARM SoC (paper §5).
///
/// The prototype's FPGA↔ARM interconnect has high bandwidth but ~40 µs
/// round-trip delay; shadow metadata in ARM-local DRAM keeps most slow-path
/// work off that interconnect, so a single crossing per operation remains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmConfig {
    /// One-way FPGA↔ARM crossing latency (request posting + response ring).
    pub crossing_delay: SimDuration,
    /// Worker threads handling slow-path operations (one more core busy
    /// polls the RX ring, per §5).
    pub workers: usize,
    /// Fixed software cost of a VA allocation (tree search, bookkeeping).
    pub valloc_base: SimDuration,
    /// Added cost per page of a VA allocation (hash + shadow-table check).
    pub valloc_per_page: SimDuration,
    /// Added cost per allocation retry (re-search + re-check, §4.2).
    pub valloc_retry_cost: SimDuration,
    /// Fixed software cost of freeing a range.
    pub free_base: SimDuration,
    /// Added cost per freed page (PTE removal + TLB shootdown message).
    pub free_per_page: SimDuration,
    /// Fixed cost of an explicit physical-allocation request.
    pub palloc_base: SimDuration,
    /// Added cost per physical page reserved.
    pub palloc_per_page: SimDuration,
    /// Maximum candidate ranges the VA allocator tries before reporting
    /// virtual-memory exhaustion.
    pub valloc_retry_limit: u32,
}

impl Default for ArmConfig {
    fn default() -> Self {
        ArmConfig {
            crossing_delay: SimDuration::from_micros(20),
            workers: 2,
            valloc_base: SimDuration::from_micros(2),
            valloc_per_page: SimDuration::from_nanos(400),
            valloc_retry_cost: SimDuration::from_micros(3),
            free_base: SimDuration::from_micros(2),
            free_per_page: SimDuration::from_nanos(200),
            palloc_base: SimDuration::from_micros(3),
            palloc_per_page: SimDuration::from_nanos(45),
            valloc_retry_limit: 512,
        }
    }
}

/// Full configuration of one CBoard device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CBoardConfig {
    /// The fast-path silicon.
    pub hw: CBoardHwConfig,
    /// The slow-path SoC.
    pub arm: ArmConfig,
    /// Network port rate (the prototype's SFP+ ports are 10 Gbps).
    pub port_rate: Bandwidth,
    /// Retry timeout the CNs use; the board keeps multi-packet write state
    /// for a small multiple of this before discarding it.
    pub request_timeout: SimDuration,
    /// The `(base, span)` slice of the remote address space this MN's VA
    /// allocator manages. When a RAS spans multiple MNs, the global
    /// controller hands each node a disjoint slice (§4.7). `None` = the
    /// whole space (single-MN deployments).
    pub va_window: Option<(u64, u64)>,
    /// Maximum small responses coalesced into one `BatchResp` wire frame
    /// toward a CN, under the link MTU (the board's egress counterpart of
    /// the CN's request batching). `1` disables response batching: every
    /// response pays its own frame at exactly its own completion time — no
    /// hold, no reach-ahead — the pre-batching wire behavior. Above `1` the
    /// egress doorbell's budget (how long a response may be held, and how
    /// far ahead a frame may reach for members) is not configured but
    /// measured per destination: see [`clio_net::Doorbell`] for the rule
    /// and [`Self::EGRESS_DERIVED_CAP`] for its one MN-side constant.
    pub resp_batch_max_ops: u32,
}

impl CBoardConfig {
    /// Hard cap on the egress doorbell's latency budget toward one CN (a
    /// quarter of the srtt that CN echoes in its request headers, else of
    /// the board-measured request turnaround; zero before the first
    /// sample): response coalescing never costs a response more than this.
    pub const EGRESS_DERIVED_CAP: SimDuration = SimDuration::from_micros(2);

    /// The paper's prototype board.
    pub fn prototype() -> Self {
        CBoardConfig {
            hw: CBoardHwConfig::prototype(),
            arm: ArmConfig::default(),
            port_rate: Bandwidth::from_gbps(10),
            request_timeout: SimDuration::from_micros(50),
            va_window: None,
            resp_batch_max_ops: 16,
        }
    }

    /// Small configuration for tests (4 KB pages, little memory).
    pub fn test_small() -> Self {
        CBoardConfig { hw: CBoardHwConfig::test_small(), ..Self::prototype() }
    }

    /// Prototype board with response batching disabled (one frame per
    /// response, the pre-batching wire behavior).
    pub fn prototype_unbatched() -> Self {
        CBoardConfig { resp_batch_max_ops: 1, ..Self::prototype() }
    }
}

impl Default for CBoardConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = CBoardConfig::prototype();
        c.hw.validate();
        assert!(c.arm.workers > 0);
        assert!(c.port_rate.as_bps() > 0);
        let t = CBoardConfig::test_small();
        t.hw.validate();
        assert!(t.hw.phys_mem_bytes < c.hw.phys_mem_bytes);
        assert!(c.resp_batch_max_ops > 1, "response batching is on by default");
        assert!(!CBoardConfig::EGRESS_DERIVED_CAP.is_zero());
        assert_eq!(CBoardConfig::prototype_unbatched().resp_batch_max_ops, 1);
    }
}
