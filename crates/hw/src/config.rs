//! CBoard hardware configuration and calibration constants.

use clio_sim::{Bandwidth, Cycles, Frequency, SimDuration};

/// Hardware parameters of one CBoard.
///
/// Defaults model the paper's prototype (§5): a Xilinx ZCU106 with the fast
/// path at 250 MHz over a 512-bit datapath (II = 1 ⇒ 128 Gbps ceiling), 2 GB
/// of on-board DDR4 behind a board memory controller, and 4 MB huge pages.
/// [`CBoardHwConfig::asic`] rescales the clock to the paper's 2 GHz ASIC
/// projection (Figure 6). The datapath width and the pipeline's cycle
/// counts are the same on both, so they are associated constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CBoardHwConfig {
    /// Fast-path clock.
    pub clock: Frequency,
    /// Physical memory size in bytes.
    pub phys_mem_bytes: u64,
    /// Page size in bytes (power of two; paper default 4 MB).
    pub page_size: u64,
    /// Page-table slots per bucket (K); one DRAM access fetches a bucket.
    pub pt_slots_per_bucket: usize,
    /// Total page-table slots as a multiple of physical pages (the paper
    /// provisions 2× to absorb hash collisions at allocation time).
    pub pt_slack: usize,
    /// TLB capacity in entries.
    pub tlb_entries: usize,
    /// Async free-page buffer capacity (pre-allocated PAs, §4.3).
    pub async_buffer_pages: usize,
    /// Dedup buffer capacity in bytes (3 × TIMEOUT × bandwidth, §4.5 T4).
    pub dedup_buffer_bytes: usize,
    /// Off-chip DRAM: fixed access latency through the board controller.
    pub dram_latency: SimDuration,
    /// Off-chip DRAM: sustained bandwidth.
    pub dram_bandwidth: Bandwidth,
    /// On-board interconnect (AXI) crossing latency, charged once per
    /// DRAM-touching request direction (the `InterConn` bar of Figure 14).
    pub interconnect_latency: SimDuration,
    /// MAC + PHY ingress or egress latency (vendor IP).
    pub mac_phy_latency: SimDuration,
    /// Fixed occupancy of the request DMA engine per read request. The
    /// prototype's third-party DMA IP is **not pipelined** (§7.1, Figure 9),
    /// which is why small reads trail small writes in on-board goodput.
    pub dma_read_overhead: SimDuration,
    /// DMA engine streaming bandwidth (its occupancy is
    /// `overhead + bytes / bandwidth` per read request).
    pub dma_bandwidth: Bandwidth,
}

impl CBoardHwConfig {
    /// Datapath width in bytes (the 512-bit datapath); one flit is admitted
    /// per cycle (II = 1).
    pub const FLIT_BYTES: u64 = 64;

    /// Bytes of state recorded per dedup entry.
    pub const DEDUP_ENTRY_BYTES: usize = 32;

    /// Pipeline cycles: packet parse + match-and-action dispatch.
    pub const PARSE_CYCLES: Cycles = Cycles(6);

    /// Pipeline cycles: TLB lookup + permission check (hit path).
    pub const TLB_LOOKUP_CYCLES: Cycles = Cycles(2);

    /// Pipeline cycles: page-fault handling (fetch pre-allocated PA,
    /// establish PTE) — the paper's constant three cycles (§4.3).
    pub const PAGE_FAULT_CYCLES: Cycles = Cycles(3);

    /// Pipeline cycles: response generation.
    pub const RESPONSE_CYCLES: Cycles = Cycles(4);

    /// The paper's FPGA prototype parameters.
    pub fn prototype() -> Self {
        CBoardHwConfig {
            clock: Frequency::from_mhz(250),
            phys_mem_bytes: 2 << 30,
            page_size: 4 << 20,
            pt_slots_per_bucket: 4,
            pt_slack: 2,
            tlb_entries: 4096,
            async_buffer_pages: 64,
            dedup_buffer_bytes: 30 << 10,
            dram_latency: SimDuration::from_nanos(150),
            dram_bandwidth: Bandwidth::from_gigabytes_per_sec(16),
            interconnect_latency: SimDuration::from_nanos(60),
            mac_phy_latency: SimDuration::from_nanos(100),
            dma_read_overhead: SimDuration::from_nanos(15),
            dma_bandwidth: Bandwidth::from_gigabytes_per_sec(32),
        }
    }

    /// The paper's ASIC projection (Figure 6): 2 GHz pipeline, a server-class
    /// memory controller, faster vendor IP.
    pub fn asic() -> Self {
        CBoardHwConfig {
            clock: Frequency::from_ghz(2),
            dram_latency: SimDuration::from_nanos(60),
            dram_bandwidth: Bandwidth::from_gigabytes_per_sec(25),
            interconnect_latency: SimDuration::from_nanos(8),
            mac_phy_latency: SimDuration::from_nanos(25),
            dma_read_overhead: SimDuration::from_nanos(2),
            dma_bandwidth: Bandwidth::from_gigabytes_per_sec(64),
            ..Self::prototype()
        }
    }

    /// A small configuration for unit/integration tests: 4 KB pages and a
    /// few MB of memory keep the backing store tiny while exercising every
    /// code path (including faults and TLB misses).
    pub fn test_small() -> Self {
        CBoardHwConfig {
            phys_mem_bytes: 8 << 20,
            page_size: 4 << 10,
            tlb_entries: 64,
            async_buffer_pages: 8,
            ..Self::prototype()
        }
    }

    /// Number of physical pages.
    pub fn phys_pages(&self) -> u64 {
        self.phys_mem_bytes / self.page_size
    }

    /// Total page-table slots (pages × slack).
    pub fn pt_total_slots(&self) -> usize {
        (self.phys_pages() as usize) * self.pt_slack
    }

    /// Number of page-table buckets.
    pub fn pt_buckets(&self) -> usize {
        (self.pt_total_slots() / self.pt_slots_per_bucket).max(1)
    }

    /// Virtual page number of `va`.
    pub fn vpn(&self, va: u64) -> u64 {
        va / self.page_size
    }

    /// Duration of one pipeline flit (the II=1 admission interval).
    pub fn flit_time(&self) -> SimDuration {
        self.clock.cycles(Cycles(1))
    }

    /// Flits occupied by a `bytes`-byte unit on the datapath.
    pub fn flits(&self, bytes: u64) -> u64 {
        bytes.div_ceil(Self::FLIT_BYTES).max(1)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the page size is not a power of two, memory is not
    /// page-aligned, or capacities are zero.
    pub fn validate(&self) {
        assert!(self.page_size.is_power_of_two(), "page size must be a power of two");
        assert!(self.phys_mem_bytes.is_multiple_of(self.page_size), "memory must be page-aligned");
        assert!(self.phys_pages() > 0, "no physical pages");
        assert!(self.pt_slots_per_bucket > 0, "bucket must hold at least one slot");
        assert!(self.pt_slack >= 1, "page table cannot have fewer slots than pages");
        assert!(self.tlb_entries > 0, "TLB must have capacity");
        assert!(self.async_buffer_pages > 0, "async buffer must have capacity");
    }
}

impl Default for CBoardHwConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_dimensions() {
        let c = CBoardHwConfig::prototype();
        c.validate();
        assert_eq!(c.phys_pages(), 512); // 2 GB / 4 MB
        assert_eq!(c.pt_total_slots(), 1024);
        assert_eq!(c.pt_buckets(), 256);
        assert_eq!(c.flit_time().as_nanos(), 4);
        // II=1 ceiling: 64 B / 4 ns = 128 Gbps.
        let gbps: f64 = 64.0 * 8.0 / 4e-9 / 1e9;
        assert!((gbps - 128.0).abs() < 0.01);
    }

    #[test]
    fn asic_is_faster() {
        let p = CBoardHwConfig::prototype();
        let a = CBoardHwConfig::asic();
        a.validate();
        assert!(a.flit_time() < p.flit_time());
        assert!(a.dram_latency < p.dram_latency);
    }

    #[test]
    fn va_helpers() {
        let c = CBoardHwConfig::test_small();
        assert_eq!(c.vpn(0), 0);
        assert_eq!(c.vpn(4096), 1);
        assert_eq!(c.flits(1), 1);
        assert_eq!(c.flits(64), 1);
        assert_eq!(c.flits(65), 2);
        assert_eq!(c.flits(0), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_page_size_rejected() {
        let mut c = CBoardHwConfig::test_small();
        c.page_size = 3000;
        c.validate();
    }
}
