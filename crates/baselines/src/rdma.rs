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

use crate::host_jitter;

/// What differs between the two RNIC generations; everything they share is
/// an [`RdmaNic`] constant.
#[derive(Debug, Clone)]
pub struct RnicParams {
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
    /// Extra host-memory pressure per additional thrashing client (the
    /// slow linear climb of Figure 4 beyond the cache cliff).
    pub thrash_slope: SimDuration,
}

impl RnicParams {
    /// The local testbed's ConnectX-3 (40 Gbps).
    pub fn connectx3() -> Self {
        RnicParams {
            base_read: SimDuration::from_nanos(800),
            base_write: SimDuration::from_nanos(650),
            qp_cache: 256,
            pte_cache: 256, // degrades beyond 2^8 (§7.1 Figure 5, local cluster)
            mr_cache: 128,
            thrash_slope: SimDuration::from_nanos(3600),
        }
    }

    /// CloudLab's ConnectX-5 (bigger caches, same cliffs later — §7.1).
    pub fn connectx5() -> Self {
        RnicParams {
            base_read: SimDuration::from_nanos(700),
            base_write: SimDuration::from_nanos(550),
            qp_cache: 512,
            pte_cache: 4096, // degrades beyond 2^12 on CloudLab
            mr_cache: 3000,
            thrash_slope: SimDuration::from_nanos(2600),
        }
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
}

impl RdmaNic {
    /// PCIe round trip for fetching evicted state from host memory (§2.2's
    /// cache-miss mechanism; the value is the reproduction's).
    pub const PCIE_ROUND_TRIP: SimDuration = SimDuration::from_nanos(900);

    /// Page-fault cost: NIC interrupt + host OS handling (§2.2: 16.8 ms).
    pub const PAGE_FAULT: SimDuration = SimDuration::from_micros(16_800);

    /// Hard MR limit: registration beyond 2^18 MRs fails (§7.1).
    pub const MAX_MRS: u64 = 1 << 18;

    /// Link bandwidth (the 40 Gbps ConnectX-3 of §7's environment).
    pub const BANDWIDTH: Bandwidth = Bandwidth::from_gbps(40);

    /// Probability an op hits host-side interference: the tail of Figure 7
    /// (the value is the reproduction's).
    pub const JITTER_PROB: f64 = 0.0015;

    /// Scale of host-interference delay when it hits (as for
    /// [`Self::JITTER_PROB`]).
    pub const JITTER_SCALE: SimDuration = SimDuration::from_micros(300);

    /// MR registration: fixed software cost (Figure 12; the registration
    /// costs' values are the reproduction's).
    pub const MR_REG_BASE: SimDuration = SimDuration::from_micros(35);

    /// MR registration: per-2 MB-huge-page pinning cost.
    pub const MR_REG_PER_PAGE: SimDuration = SimDuration::from_nanos(5200);

    /// Fraction of registration cost paid by deregistration.
    pub const MR_DEREG_FACTOR: f64 = 0.75;

    /// On-demand-paging registration per-page cost (no pinning).
    pub const MR_REG_PER_PAGE_ODP: SimDuration = SimDuration::from_nanos(700);

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
        }
    }

    /// Registration cost of an MR of `bytes`: a fixed cost plus a per-page
    /// one, pinned or on-demand, over 2 MB huge pages (the common practice).
    fn registration_cost(&self, bytes: u64) -> SimDuration {
        let pages = bytes.div_ceil(2 << 20);
        let per_page =
            if self.pin_pages { Self::MR_REG_PER_PAGE } else { Self::MR_REG_PER_PAGE_ODP };
        Self::MR_REG_BASE + per_page * pages
    }

    /// Registers an MR of `bytes`, returning the registration latency.
    ///
    /// # Errors
    ///
    /// Fails (like real RNICs, §7.1) beyond the MR limit.
    pub fn register_mr(&mut self, bytes: u64) -> Result<SimDuration, &'static str> {
        if self.registered_mrs >= Self::MAX_MRS {
            return Err("RNIC out of memory-region resources");
        }
        self.registered_mrs += 1;
        Ok(self.registration_cost(bytes))
    }

    /// Deregisters an MR, returning the latency.
    pub fn deregister_mr(&mut self, bytes: u64) -> SimDuration {
        self.registered_mrs = self.registered_mrs.saturating_sub(1);
        self.registration_cost(bytes).mul_f64(Self::MR_DEREG_FACTOR)
    }

    /// Executes one verb arriving at `now` and returns its completion time.
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
    ) -> SimTime {
        let entry = TlbEntry { ppn: 0, perm: Perm::RW };
        // PCIe crossings for QP/PTE/MR cache misses.
        let mut misses = SimDuration::ZERO;

        if self.qp_cache.lookup(Pid(0), qp).is_none() {
            self.qp_cache.insert(Pid(0), qp, entry);
            misses += Self::PCIE_ROUND_TRIP;
            // Host-side context pressure grows with the live-connection
            // count (the linear climb of Figure 4).
            let over = active_qps.saturating_sub(self.params.qp_cache as u64);
            if over > 0 {
                misses += self.params.thrash_slope.mul_f64(over as f64 / 1000.0);
            }
        }
        if self.mr_cache.lookup(Pid(1), mr).is_none() {
            self.mr_cache.insert(Pid(1), mr, entry);
            // MR metadata validation is two dependent host reads — and with
            // the MR state evicted, the NIC must re-validate the rkey for
            // every wire chunk of the transfer, stalling the DMA pipeline
            // (this is what makes Figure 16's large transfers collapse once
            // per-client MRs overflow the cache).
            misses += Self::PCIE_ROUND_TRIP * 2;
            misses += Self::PCIE_ROUND_TRIP * bytes.div_ceil(512).saturating_sub(1);
        }
        if self.pte_cache.lookup(Pid(2), vpn).is_none() {
            self.pte_cache.insert(Pid(2), vpn, entry);
            misses += Self::PCIE_ROUND_TRIP;
        }
        let page_fault = if !self.pin_pages && self.faulted_pages.insert((Pid(2), vpn)) {
            Self::PAGE_FAULT
        } else {
            SimDuration::ZERO
        };

        let base = match verb {
            Verb::Read => self.params.base_read,
            Verb::Write => self.params.base_write,
        };
        let service = base + Self::BANDWIDTH.transfer_time(bytes);
        let r = self.engine.reserve(now, service + misses + page_fault);
        r.end + host_jitter(rng, Self::JITTER_PROB, Self::JITTER_SCALE)
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

    /// Issues verbs one at a time, each at the previous one's completion,
    /// so the serial engine never queues and a latency is the verb's own
    /// service, cache misses and page fault (plus any host jitter).
    struct Probe {
        nic: RdmaNic,
        rng: SimRng,
        at: SimTime,
    }

    impl Probe {
        fn new(pin_pages: bool) -> Self {
            Probe {
                nic: RdmaNic::new(RnicParams::connectx3(), pin_pages),
                rng: SimRng::new(9),
                at: t0(),
            }
        }

        fn latency(&mut self, verb: Verb, qp: u64, vpn: u64, active_qps: u64) -> SimDuration {
            let done = self.nic.execute(&mut self.rng, self.at, verb, qp, 1, vpn, 16, active_qps);
            let latency = done.since(self.at);
            self.at = done;
            latency
        }
    }

    /// A verb that misses no cache and draws no jitter.
    fn warm_read() -> SimDuration {
        RnicParams::connectx3().base_read + RdmaNic::BANDWIDTH.transfer_time(16)
    }

    #[test]
    fn warm_path_is_microsecond_scale() {
        let mut probe = Probe::new(true);
        // Warm all caches, then measure.
        probe.latency(Verb::Read, 1, 1, 1);
        let warm = probe.latency(Verb::Read, 1, 1, 1);
        assert_eq!(warm, warm_read(), "a warm verb misses no cache");
        assert!(warm < SimDuration::from_micros(2), "warm latency {warm}");
    }

    #[test]
    fn qp_thrash_beyond_cache() {
        let mut probe = Probe::new(true);
        let n = 1000u64;
        // Round-robin over 1000 QPs with a 256-entry cache: every access
        // misses after warm-up.
        for round in 0..3 {
            for qp in 0..n {
                let latency = probe.latency(Verb::Read, qp, 1, n);
                if round > 0 {
                    assert!(
                        latency >= warm_read() + RdmaNic::PCIE_ROUND_TRIP,
                        "qp {qp} should miss"
                    );
                }
            }
        }
        let few_qp_latency = {
            let mut fresh = Probe::new(true);
            fresh.latency(Verb::Read, 1, 1, 1);
            fresh.latency(Verb::Read, 1, 1, 1)
        };
        let thrashed = probe.latency(Verb::Read, 5, 1, n);
        assert!(
            thrashed > few_qp_latency + SimDuration::from_micros(2),
            "expected multi-us penalty: {thrashed} vs {few_qp_latency}"
        );
    }

    #[test]
    fn page_fault_costs_milliseconds_without_pinning() {
        let mut probe = Probe::new(false);
        let first = probe.latency(Verb::Write, 1, 42, 1);
        assert!(first >= SimDuration::from_millis(16), "first touch faults: {first}");
        // Second touch: no fault.
        let second = probe.latency(Verb::Write, 1, 42, 1);
        assert!(second < RdmaNic::PAGE_FAULT, "second touch faulted: {second}");
    }

    #[test]
    fn mr_limit_enforced() {
        let (mut nic, _) = nic();
        for _ in 0..RdmaNic::MAX_MRS {
            assert!(nic.register_mr(4096).is_ok());
        }
        assert!(nic.register_mr(4096).is_err(), "MR 2^18 + 1 must fail");
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
        let end_a = nic.execute(&mut rng, t0(), Verb::Read, 1, 1, 1, 1 << 20, 1);
        let end_b = nic.execute(&mut rng, t0(), Verb::Read, 1, 1, 1, 16, 1);
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
