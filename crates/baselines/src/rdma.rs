//! The RDMA NIC model (paper §2.2's scalability analysis).
//!
//! An RNIC keeps three kinds of state that all live in a small on-NIC cache
//! backed by host memory across PCIe:
//!
//! * **QP contexts** — one per connection; reliable RDMA needs at least one
//!   QP per client process (Figure 4),
//! * **page-table entries** — host-VA translations (Figure 5 "PTE"),
//! * **memory-region metadata** — lkey/rkey state, at least one MR per
//!   protection domain (Figure 5 "MR"; Figure 16's cliff).
//!
//! A miss in any cache adds a PCIe round trip to host memory; a page fault
//! interrupts the host OS and costs ~16.8 **ms** (§2.2/§4.3). Registration
//! pins pages, costing milliseconds for large MRs (Figure 12). RNICs also
//! refuse more than 2^18 MRs outright (§7.1). This module models each
//! mechanism with real LRU caches so the figures' cliffs appear at the
//! right scale, not by curve fitting.

use clio_hw::tlb::{Tlb, TlbEntry};
use clio_proto::{Perm, Pid};
use clio_sim::resource::SerialResource;
use clio_sim::{Bandwidth, SimDuration, SimRng, SimTime};

/// Parameters of one RNIC generation.
#[derive(Debug, Clone)]
pub struct RnicParams {
    /// Marketing name for table output.
    pub name: &'static str,
    /// Base one-way NIC processing for a read (no misses).
    pub base_read: SimDuration,
    /// Base one-way NIC processing for a write.
    pub base_write: SimDuration,
    /// QP-context cache capacity (connections).
    pub qp_cache: usize,
    /// PTE cache capacity.
    pub pte_cache: usize,
    /// MR metadata cache capacity.
    pub mr_cache: usize,
    /// PCIe round trip for fetching evicted state from host memory.
    pub pcie_round_trip: SimDuration,
    /// Extra host-memory pressure per additional thrashing client (the
    /// slow linear climb of Figure 4 beyond the cache cliff).
    pub thrash_slope: SimDuration,
    /// Page-fault cost: NIC interrupt + host OS handling (§2.2: 16.8 ms).
    pub page_fault: SimDuration,
    /// Hard MR limit (≈2^18; registration beyond this fails).
    pub max_mrs: u64,
    /// Link bandwidth.
    pub bandwidth: Bandwidth,
    /// Probability an op hits host-side interference (tail events).
    pub jitter_prob: f64,
    /// Scale of host-interference delay when it hits.
    pub jitter_scale: SimDuration,
    /// MR registration: fixed software cost.
    pub mr_reg_base: SimDuration,
    /// MR registration: per-2 MB-huge-page pinning cost.
    pub mr_reg_per_page: SimDuration,
    /// Fraction of registration cost paid by deregistration.
    pub mr_dereg_factor: f64,
    /// On-demand-paging registration per-page cost (no pinning).
    pub mr_reg_per_page_odp: SimDuration,
}

impl RnicParams {
    /// The local testbed's ConnectX-3 (40 Gbps).
    pub fn connectx3() -> Self {
        RnicParams {
            name: "CX3",
            base_read: SimDuration::from_nanos(800),
            base_write: SimDuration::from_nanos(650),
            qp_cache: 256,
            pte_cache: 256, // degrades beyond 2^8 (§7.1 Figure 5, local cluster)
            mr_cache: 128,
            pcie_round_trip: SimDuration::from_nanos(900),
            thrash_slope: SimDuration::from_nanos(3600),
            page_fault: SimDuration::from_millis(16) + SimDuration::from_micros(800),
            max_mrs: 1 << 18,
            bandwidth: Bandwidth::from_gbps(40),
            jitter_prob: 0.0015,
            jitter_scale: SimDuration::from_micros(300),
            mr_reg_base: SimDuration::from_micros(35),
            mr_reg_per_page: SimDuration::from_nanos(5200),
            mr_dereg_factor: 0.75,
            mr_reg_per_page_odp: SimDuration::from_nanos(700),
        }
    }

    /// CloudLab's ConnectX-5 (bigger caches, same cliffs later — §7.1).
    pub fn connectx5() -> Self {
        RnicParams {
            name: "CX5",
            base_read: SimDuration::from_nanos(700),
            base_write: SimDuration::from_nanos(550),
            qp_cache: 512,
            pte_cache: 4096, // degrades beyond 2^12 on CloudLab
            mr_cache: 3000,
            thrash_slope: SimDuration::from_nanos(2600),
            ..Self::connectx3()
        }
    }
}

/// Per-operation latency attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RdmaCost {
    /// NIC processing + serialization + queueing.
    pub nic: SimDuration,
    /// PCIe crossings for QP/PTE/MR cache misses.
    pub cache_misses: SimDuration,
    /// Host OS page-fault handling.
    pub page_fault: SimDuration,
    /// Host interference (tail events).
    pub jitter: SimDuration,
}

impl RdmaCost {
    /// Total service time at the NIC/host.
    pub fn total(&self) -> SimDuration {
        self.nic + self.cache_misses + self.page_fault + self.jitter
    }
}

/// Which verb is being executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// One-sided RDMA read.
    Read,
    /// One-sided RDMA write.
    Write,
}

/// The RNIC of a server-based memory node.
#[derive(Debug)]
pub struct RdmaNic {
    params: RnicParams,
    qp_cache: Tlb,
    pte_cache: Tlb,
    mr_cache: Tlb,
    registered_mrs: u64,
    faulted_pages: clio_sim::IdSet<(Pid, u64)>,
    pin_pages: bool,
    engine: SerialResource,
    stats: RdmaStats,
}

/// Counters for harness reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RdmaStats {
    /// Operations served.
    pub ops: u64,
    /// QP-context cache misses.
    pub qp_misses: u64,
    /// PTE cache misses.
    pub pte_misses: u64,
    /// MR cache misses.
    pub mr_misses: u64,
    /// Page faults taken.
    pub page_faults: u64,
}

impl RdmaNic {
    /// A NIC with the given generation parameters. `pin_pages` reflects the
    /// common deployment practice (§2.2): pinned MRs never fault but waste
    /// memory; unpinned (ODP) MRs fault on first touch.
    pub fn new(params: RnicParams, pin_pages: bool) -> Self {
        RdmaNic {
            qp_cache: Tlb::new(params.qp_cache),
            pte_cache: Tlb::new(params.pte_cache),
            mr_cache: Tlb::new(params.mr_cache),
            registered_mrs: 0,
            faulted_pages: clio_sim::IdSet::default(),
            pin_pages,
            engine: SerialResource::new(),
            params,
            stats: RdmaStats::default(),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &RnicParams {
        &self.params
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RdmaStats {
        self.stats
    }

    /// Registers an MR of `bytes`, returning the registration latency.
    ///
    /// # Errors
    ///
    /// Fails (like real RNICs, §7.1) beyond the MR limit.
    pub fn register_mr(&mut self, bytes: u64) -> Result<SimDuration, &'static str> {
        if self.registered_mrs >= self.params.max_mrs {
            return Err("RNIC out of memory-region resources");
        }
        self.registered_mrs += 1;
        let pages = bytes.div_ceil(2 << 20); // huge pages, the common practice
        let per_page = if self.pin_pages {
            self.params.mr_reg_per_page
        } else {
            self.params.mr_reg_per_page_odp
        };
        Ok(self.params.mr_reg_base + per_page * pages)
    }

    /// Deregisters an MR, returning the latency.
    pub fn deregister_mr(&mut self, bytes: u64) -> SimDuration {
        self.registered_mrs = self.registered_mrs.saturating_sub(1);
        let pages = bytes.div_ceil(2 << 20);
        let per_page = if self.pin_pages {
            self.params.mr_reg_per_page
        } else {
            self.params.mr_reg_per_page_odp
        };
        (self.params.mr_reg_base + per_page * pages).mul_f64(self.params.mr_dereg_factor)
    }

    /// Number of currently registered MRs.
    pub fn registered_mrs(&self) -> u64 {
        self.registered_mrs
    }

    /// Executes one verb and returns `(completion_time, cost)`.
    ///
    /// `qp` identifies the issuing connection, `mr` the target region, and
    /// `vpn` the page touched. `active_qps` is the number of live
    /// connections (drives host-side thrash pressure beyond the cache
    /// cliff).
    #[allow(clippy::too_many_arguments)] // mirrors the verb descriptor
    pub fn execute(
        &mut self,
        rng: &mut SimRng,
        now: SimTime,
        verb: Verb,
        qp: u64,
        mr: u64,
        vpn: u64,
        bytes: u64,
        active_qps: u64,
    ) -> (SimTime, RdmaCost) {
        let mut cost = RdmaCost::default();
        self.stats.ops += 1;
        let entry = TlbEntry { ppn: 0, perm: Perm::RW };

        if self.qp_cache.lookup(Pid(0), qp).is_none() {
            self.stats.qp_misses += 1;
            self.qp_cache.insert(Pid(0), qp, entry);
            cost.cache_misses += self.params.pcie_round_trip;
            // Host-side context pressure grows with the live-connection
            // count (the linear climb of Figure 4).
            let over = active_qps.saturating_sub(self.params.qp_cache as u64);
            if over > 0 {
                cost.cache_misses += self.params.thrash_slope.mul_f64(over as f64 / 1000.0);
            }
        }
        if self.mr_cache.lookup(Pid(1), mr).is_none() {
            self.stats.mr_misses += 1;
            self.mr_cache.insert(Pid(1), mr, entry);
            // MR metadata validation is two dependent host reads — and with
            // the MR state evicted, the NIC must re-validate the rkey for
            // every wire chunk of the transfer, stalling the DMA pipeline
            // (this is what makes Figure 16's large transfers collapse once
            // per-client MRs overflow the cache).
            cost.cache_misses += self.params.pcie_round_trip * 2;
            cost.cache_misses +=
                self.params.pcie_round_trip * bytes.div_ceil(512).saturating_sub(1);
        }
        if self.pte_cache.lookup(Pid(2), vpn).is_none() {
            self.stats.pte_misses += 1;
            self.pte_cache.insert(Pid(2), vpn, entry);
            cost.cache_misses += self.params.pcie_round_trip;
        }
        if !self.pin_pages && self.faulted_pages.insert((Pid(2), vpn)) {
            self.stats.page_faults += 1;
            cost.page_fault = self.params.page_fault;
        }

        let base = match verb {
            Verb::Read => self.params.base_read,
            Verb::Write => self.params.base_write,
        };
        let service = base + self.params.bandwidth.transfer_time(bytes);
        let r = self.engine.reserve(now, service + cost.cache_misses + cost.page_fault);
        cost.nic = service + r.queue_wait(now);

        if rng.chance(self.params.jitter_prob) {
            cost.jitter = self.params.jitter_scale.mul_f64(0.2 + rng.f64() * 1.8);
        }
        (r.end + cost.jitter, cost)
    }

    /// Pre-faults a page (what pinned registration does at setup time).
    pub fn prefault(&mut self, vpn: u64) {
        self.faulted_pages.insert((Pid(2), vpn));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nic() -> (RdmaNic, SimRng) {
        (RdmaNic::new(RnicParams::connectx3(), true), SimRng::new(9))
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn warm_path_is_microsecond_scale() {
        let (mut nic, mut rng) = nic();
        // Warm all caches, then measure after the engine drains.
        nic.execute(&mut rng, t0(), Verb::Read, 1, 1, 1, 16, 1);
        let later = SimTime::from_nanos(100_000);
        let (_, cost) = nic.execute(&mut rng, later, Verb::Read, 1, 1, 1, 16, 1);
        assert_eq!(cost.cache_misses, SimDuration::ZERO);
        assert!(cost.total() < SimDuration::from_micros(2), "warm cost {:?}", cost.total());
    }

    #[test]
    fn qp_thrash_beyond_cache() {
        let (mut nic, mut rng) = nic();
        let n = 1000u64;
        // Round-robin over 1000 QPs with a 256-entry cache: every access
        // misses after warm-up.
        for round in 0..3 {
            for qp in 0..n {
                let (_, c) = nic.execute(&mut rng, t0(), Verb::Read, qp, 1, 1, 16, n);
                if round > 0 {
                    assert!(c.cache_misses > SimDuration::ZERO, "qp {qp} should miss");
                }
            }
        }
        let few_qp_cost = {
            let (mut fresh, mut rng2) = self::nic();
            fresh.execute(&mut rng2, t0(), Verb::Read, 1, 1, 1, 16, 1);
            let (_, c) = fresh.execute(&mut rng2, t0(), Verb::Read, 1, 1, 1, 16, 1);
            c.total()
        };
        let (_, thrashed) = nic.execute(&mut rng, t0(), Verb::Read, 5, 1, 1, 16, n);
        assert!(
            thrashed.total() > few_qp_cost + SimDuration::from_micros(2),
            "expected multi-us penalty: {:?} vs {:?}",
            thrashed.total(),
            few_qp_cost
        );
    }

    #[test]
    fn page_fault_costs_milliseconds_without_pinning() {
        let mut nic = RdmaNic::new(RnicParams::connectx3(), false);
        let mut rng = SimRng::new(1);
        let (_, c) = nic.execute(&mut rng, t0(), Verb::Write, 1, 1, 42, 16, 1);
        assert!(c.page_fault >= SimDuration::from_millis(16));
        // Second touch: no fault.
        let (_, c2) = nic.execute(&mut rng, t0(), Verb::Write, 1, 1, 42, 16, 1);
        assert_eq!(c2.page_fault, SimDuration::ZERO);
        assert_eq!(nic.stats().page_faults, 1);
    }

    #[test]
    fn mr_limit_enforced() {
        let mut params = RnicParams::connectx3();
        params.max_mrs = 2;
        let mut nic = RdmaNic::new(params, true);
        assert!(nic.register_mr(4096).is_ok());
        assert!(nic.register_mr(4096).is_ok());
        assert!(nic.register_mr(4096).is_err(), "third MR must fail");
        nic.deregister_mr(4096);
        assert!(nic.register_mr(4096).is_ok());
    }

    #[test]
    fn registration_cost_scales_with_size() {
        let (mut nic, _) = nic();
        let small = nic.register_mr(4 << 20).expect("reg");
        let large = nic.register_mr(1424 << 20).expect("reg");
        assert!(large > small * 20, "pinning must scale: {small} vs {large}");
        assert!(large > SimDuration::from_millis(3), "1424 MB reg should be ms-scale: {large}");
        // ODP is much cheaper.
        let mut odp = RdmaNic::new(RnicParams::connectx3(), false);
        let odp_large = odp.register_mr(1424 << 20).expect("reg");
        assert!(odp_large < large / 4);
    }

    #[test]
    fn serial_engine_queues_concurrent_ops() {
        let (mut nic, mut rng) = nic();
        nic.execute(&mut rng, t0(), Verb::Read, 1, 1, 1, 16, 1);
        let (end_a, _) = nic.execute(&mut rng, t0(), Verb::Read, 1, 1, 1, 1 << 20, 1);
        let (end_b, _) = nic.execute(&mut rng, t0(), Verb::Read, 1, 1, 1, 16, 1);
        assert!(end_b > end_a, "second op queues behind the 1 MB transfer");
    }

    #[test]
    fn writes_slightly_faster_than_reads() {
        let p = RnicParams::connectx3();
        assert!(p.base_write < p.base_read);
        let p5 = RnicParams::connectx5();
        assert!(p5.base_read < p.base_read, "newer NIC is faster");
    }
}
