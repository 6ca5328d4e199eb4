//! Memory-node configuration.

use clio_hw::CBoardHwConfig;
use clio_sim::Bandwidth;

/// Full configuration of one CBoard device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CBoardConfig {
    /// The fast-path silicon.
    pub hw: CBoardHwConfig,
    /// Network port rate (the prototype's SFP+ ports are 10 Gbps).
    pub port_rate: Bandwidth,
    /// The `(base, span)` slice of the remote address space this MN's VA
    /// allocator manages. When a RAS spans multiple MNs, the global
    /// controller hands each node a disjoint slice (§4.7). `None` = the
    /// whole space (single-MN deployments).
    pub va_window: Option<(u64, u64)>,
    /// Maximum small responses coalesced into one `BatchResp` wire frame
    /// toward a CN, under the link MTU (the board's egress counterpart of
    /// the CN's request batching). A response is never held for company:
    /// it leaves as soon as it is ready and the port is free, together with
    /// the responses to the same CN that became ready while the port was
    /// busy, and a `Batch` frame's responses leave together. `1` disables
    /// response batching: every response pays its own frame — the
    /// pre-batching wire behavior.
    pub resp_batch_max_ops: u32,
}

impl CBoardConfig {
    /// The paper's prototype board.
    pub fn prototype() -> Self {
        CBoardConfig {
            hw: CBoardHwConfig::prototype(),
            port_rate: Bandwidth::from_gbps(10),
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
        assert!(c.port_rate.as_bps() > 0);
        let t = CBoardConfig::test_small();
        t.hw.validate();
        assert!(t.hw.phys_mem_bytes < c.hw.phys_mem_bytes);
        assert!(c.resp_batch_max_ops > 1, "response batching is on by default");
        assert_eq!(CBoardConfig::prototype_unbatched().resp_batch_max_ops, 1);
    }
}
