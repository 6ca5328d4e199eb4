//! The fast-path virtual-memory unit (paper §4.2–4.3, Figure 3).
//!
//! One pipeline stage performs, for every data access: TLB lookup,
//! permission check, page-table walk on a miss (**exactly one** DRAM bucket
//! fetch), and hardware page-fault handling on an invalid PTE (**exactly
//! three cycles**, pulling a pre-allocated physical page from the async
//! buffer). Both the functional outcome and the stage timing are returned
//! explicitly.

use std::rc::Rc;

use clio_proto::{Perm, Pid, Status};
use clio_sim::{Cycles, SimDuration, SimTime};

use crate::asyncbuf::AsyncPageBuffer;
use crate::config::CBoardHwConfig;
use crate::dram::DramModel;
use crate::pagetable::{HashPageTable, PageTableError, Pte};
use crate::tlb::{Tlb, TlbEntry};

/// Timing of one translation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslateTiming {
    /// Whether the TLB served the translation.
    pub tlb_hit: bool,
    /// Time spent on the DRAM bucket fetch (zero on a TLB hit). Includes
    /// queueing for the DRAM bus.
    pub pt_fetch: SimDuration,
    /// Whether the hardware page-fault handler ran.
    pub page_fault: bool,
    /// Pipeline cycles consumed (TLB lookup + fault handling).
    pub cycles: Cycles,
}

/// Outcome of a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Physical page number serving the access.
    pub ppn: u64,
    /// If the page was faulted in just now, the PPN that was assigned (the
    /// caller zeroes it / accounts it as newly used).
    pub faulted: Option<u64>,
}

clio_trace::counters! {
    /// Aggregate VM-unit statistics.
    pub struct VmStats: "vm" {
        /// Successful translations.
        translations,
        /// Page faults taken (first-touch allocations).
        page_faults,
        /// Accesses to unmapped addresses.
        invalid,
        /// Permission violations.
        perm_denied,
        /// Faults that found the async buffer empty (ARM refill fell behind).
        fault_stalls,
    }
}

/// TLB + page table + fault handler, assembled.
#[derive(Debug, Clone)]
pub struct VmUnit {
    tlb: Tlb,
    pt: HashPageTable,
    /// Written only by a page fault and the ARM's refill: shared between
    /// clones of the unit until one side writes it (`Rc::make_mut`).
    async_buf: Rc<AsyncPageBuffer>,
    stats: VmStats,
}

impl VmUnit {
    /// Builds the unit from board configuration.
    pub fn new(cfg: &CBoardHwConfig) -> Self {
        cfg.validate();
        VmUnit {
            tlb: Tlb::new(cfg.tlb_entries),
            pt: HashPageTable::new(cfg.pt_buckets(), cfg.pt_slots_per_bucket),
            async_buf: Rc::new(AsyncPageBuffer::new(cfg.async_buffer_pages)),
            stats: VmStats::default(),
        }
    }

    /// Translates `(pid, vpn)` for an access needing `access` permission.
    ///
    /// On success the TLB is refreshed/filled; a fault marks the PTE valid
    /// with a pre-allocated physical page (§4.3's constant-time handler).
    ///
    /// # Errors
    ///
    /// * [`Status::InvalidAddr`] — no PTE for the page,
    /// * [`Status::PermDenied`] — mapping lacks the requested rights,
    /// * [`Status::OutOfPhysicalMemory`] — fault with an empty async buffer
    ///   (the caller may stall and retry after a refill).
    pub fn translate(
        &mut self,
        now: SimTime,
        dram: &mut DramModel,
        pid: Pid,
        vpn: u64,
        access: Perm,
    ) -> (Result<Translation, Status>, TranslateTiming) {
        let mut timing =
            TranslateTiming { cycles: CBoardHwConfig::TLB_LOOKUP_CYCLES, ..Default::default() };

        if let Some(hit) = self.tlb.lookup(pid, vpn) {
            timing.tlb_hit = true;
            if !hit.perm.allows(access) {
                self.stats.perm_denied += 1;
                return (Err(Status::PermDenied), timing);
            }
            self.stats.translations += 1;
            return (Ok(Translation { ppn: hit.ppn, faulted: None }), timing);
        }

        // TLB miss: exactly one DRAM access fetches the whole bucket.
        let fetch = dram.fetch_bucket(now);
        timing.pt_fetch = fetch.end.since(now);

        let Some(pte) = self.pt.lookup(pid, vpn).copied() else {
            self.stats.invalid += 1;
            return (Err(Status::InvalidAddr), timing);
        };
        if !pte.perm.allows(access) {
            self.stats.perm_denied += 1;
            return (Err(Status::PermDenied), timing);
        }

        let (ppn, faulted) = if pte.valid {
            (pte.ppn, None)
        } else {
            // Hardware page fault: pop a pre-allocated physical page.
            timing.page_fault = true;
            timing.cycles += CBoardHwConfig::PAGE_FAULT_CYCLES;
            let Some(new_ppn) = Rc::make_mut(&mut self.async_buf).pop() else {
                self.stats.fault_stalls += 1;
                return (Err(Status::OutOfPhysicalMemory), timing);
            };
            self.stats.page_faults += 1;
            let e = self.pt.lookup_mut(pid, vpn).expect("pte just found");
            e.valid = true;
            e.ppn = new_ppn;
            (new_ppn, Some(new_ppn))
        };

        // Fill the TLB (performed in parallel with resuming the request, so
        // no extra time is charged — §4.3).
        self.tlb.insert(pid, vpn, TlbEntry { ppn, perm: pte.perm });
        self.stats.translations += 1;
        (Ok(Translation { ppn, faulted }), timing)
    }

    /// Slow-path hook: installs a (typically invalid) PTE after VA
    /// allocation or migration. This table is the node's only PTE store:
    /// the ARM's shadow of it is modelled by the slow path's costs
    /// (`clio_mn`), not by a second copy.
    ///
    /// # Errors
    ///
    /// Propagates [`PageTableError`] on overflow/duplicate — overflow should
    /// never happen because the allocator pre-checks.
    pub fn install_pte(&mut self, pte: Pte) -> Result<(), PageTableError> {
        self.pt.insert(pte)
    }

    /// Slow-path hook: removes a mapping and invalidates its TLB entry.
    /// Returns the removed PTE.
    pub fn remove_pte(&mut self, pid: Pid, vpn: u64) -> Option<Pte> {
        self.tlb.invalidate(pid, vpn);
        self.pt.remove(pid, vpn)
    }

    /// Read access to the page table (the slow path's overflow checks,
    /// migration, tests).
    pub fn page_table(&self) -> &HashPageTable {
        &self.pt
    }

    /// The async free-page buffer (the ARM refill loop drives this).
    pub fn async_buffer_mut(&mut self) -> &mut AsyncPageBuffer {
        Rc::make_mut(&mut self.async_buf)
    }

    /// The async free-page buffer, read-only.
    pub fn async_buffer(&self) -> &AsyncPageBuffer {
        &self.async_buf
    }

    /// The TLB (tests and harnesses inspect hit rates).
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// Unit statistics.
    pub fn stats(&self) -> VmStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (VmUnit, DramModel, CBoardHwConfig) {
        let cfg = CBoardHwConfig::test_small();
        let vm = VmUnit::new(&cfg);
        let dram = DramModel::new(cfg.dram_latency, cfg.dram_bandwidth);
        (vm, dram, cfg)
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    fn install(vm: &mut VmUnit, pid: u64, vpn: u64, perm: Perm) {
        vm.install_pte(Pte { pid: Pid(pid), vpn, ppn: 0, perm, valid: false }).expect("install");
    }

    #[test]
    fn unmapped_address_is_invalid() {
        let (mut vm, mut dram, _) = setup();
        let (r, t) = vm.translate(t0(), &mut dram, Pid(1), 7, Perm::READ);
        assert_eq!(r, Err(Status::InvalidAddr));
        assert!(!t.tlb_hit);
        assert!(t.pt_fetch > SimDuration::ZERO, "walked the table");
        assert_eq!(vm.stats().invalid, 1);
    }

    #[test]
    fn first_touch_faults_then_hits_tlb() {
        let (mut vm, mut dram, _) = setup();
        vm.async_buffer_mut().push(42);
        install(&mut vm, 1, 7, Perm::RW);

        let (r, t) = vm.translate(t0(), &mut dram, Pid(1), 7, Perm::WRITE);
        let tr = r.expect("faulted in");
        assert_eq!(tr.ppn, 42);
        assert_eq!(tr.faulted, Some(42));
        assert!(t.page_fault && !t.tlb_hit);
        assert_eq!(t.cycles, Cycles(2 + 3)); // lookup + 3-cycle fault

        // Second access: TLB hit, no fault, no DRAM.
        let (r2, t2) = vm.translate(t0(), &mut dram, Pid(1), 7, Perm::READ);
        assert_eq!(r2.expect("hit").faulted, None);
        assert!(t2.tlb_hit && !t2.page_fault);
        assert_eq!(t2.pt_fetch, SimDuration::ZERO);
        assert_eq!(vm.stats().page_faults, 1);
    }

    #[test]
    fn permission_checked_on_both_paths() {
        let (mut vm, mut dram, _) = setup();
        vm.async_buffer_mut().push(1);
        install(&mut vm, 1, 3, Perm::READ);
        // Miss path: write to read-only.
        let (r, _) = vm.translate(t0(), &mut dram, Pid(1), 3, Perm::WRITE);
        assert_eq!(r, Err(Status::PermDenied));
        // Fault it in with a read, then check the hit path too.
        let (r, _) = vm.translate(t0(), &mut dram, Pid(1), 3, Perm::READ);
        assert!(r.is_ok());
        let (r, t) = vm.translate(t0(), &mut dram, Pid(1), 3, Perm::WRITE);
        assert_eq!(r, Err(Status::PermDenied));
        assert!(t.tlb_hit);
        assert_eq!(vm.stats().perm_denied, 2);
    }

    #[test]
    fn empty_async_buffer_stalls_fault() {
        let (mut vm, mut dram, _) = setup();
        install(&mut vm, 1, 9, Perm::RW);
        let (r, t) = vm.translate(t0(), &mut dram, Pid(1), 9, Perm::READ);
        assert_eq!(r, Err(Status::OutOfPhysicalMemory));
        assert!(t.page_fault);
        assert_eq!(vm.stats().fault_stalls, 1);
        // After a refill the same access succeeds.
        vm.async_buffer_mut().push(5);
        let (r, _) = vm.translate(t0(), &mut dram, Pid(1), 9, Perm::READ);
        assert_eq!(r.expect("served").ppn, 5);
    }

    #[test]
    fn remove_pte_invalidates_tlb() {
        let (mut vm, mut dram, _) = setup();
        vm.async_buffer_mut().push(3);
        install(&mut vm, 1, 4, Perm::RW);
        vm.translate(t0(), &mut dram, Pid(1), 4, Perm::READ).0.expect("fault in");
        let removed = vm.remove_pte(Pid(1), 4).expect("was mapped");
        assert!(removed.valid);
        let (r, t) = vm.translate(t0(), &mut dram, Pid(1), 4, Perm::READ);
        assert_eq!(r, Err(Status::InvalidAddr));
        assert!(!t.tlb_hit, "stale TLB entry must not serve");
    }

    #[test]
    fn pids_are_isolated() {
        let (mut vm, mut dram, _) = setup();
        vm.async_buffer_mut().push(1);
        install(&mut vm, 1, 5, Perm::RW);
        vm.translate(t0(), &mut dram, Pid(1), 5, Perm::READ).0.expect("ok");
        let (r, _) = vm.translate(t0(), &mut dram, Pid(2), 5, Perm::READ);
        assert_eq!(r, Err(Status::InvalidAddr), "pid 2 cannot see pid 1's page");
    }
}
