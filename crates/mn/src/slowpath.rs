//! The slow-path ARM software (paper §3.2, §5).
//!
//! All metadata operations — address-space creation, VA allocation/free,
//! physical-page reservation — run here, off the performance-critical path.
//! The model is faithful to the prototype's structure:
//!
//! * the prototype's ARM keeps a **shadow page table** in its local DRAM so
//!   overflow checks never cross the slow FPGA↔ARM interconnect (§5). The
//!   model charges that saving through the service-time constants and keeps
//!   one table: [`SlowPath`] checks and edits the board's own
//!   [`VmUnit`] page table, which the fast path walks;
//! * operations are served by a small worker pool behind a polling core,
//! * each operation reports an explicit software **service time** derived
//!   from the [`SlowPath`] constants; the board adds interconnect crossings
//!   and queueing.

use clio_hw::pagetable::Pte;
use clio_hw::silicon::Silicon;
use clio_hw::vm::VmUnit;
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
    /// Software service time on the ARM.
    pub service: SimDuration,
}

/// Outcome of a slow-path free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeOutcome {
    /// The freed range.
    pub range: VaRange,
    /// Software service time on the ARM.
    pub service: SimDuration,
}

/// The ARM-side software state.
///
/// Its associated constants model the prototype's ARM SoC (§5). The
/// FPGA↔ARM interconnect has high bandwidth but ~40 µs round-trip delay;
/// shadow metadata in ARM-local DRAM keeps most slow-path work off that
/// interconnect, so a single crossing per operation remains.
#[derive(Debug, Clone)]
pub struct SlowPath {
    valloc: VaAllocator,
    palloc: PhysAllocator,
    workers: ServerPool,
    page_size: u64,
}

impl SlowPath {
    /// One-way FPGA↔ARM crossing latency (request posting + response ring).
    pub const CROSSING_DELAY: SimDuration = SimDuration::from_micros(20);
    /// Worker threads handling slow-path operations (one more core busy
    /// polls the RX ring, per §5).
    pub const WORKERS: usize = 2;
    /// Fixed software cost of a VA allocation (tree search, bookkeeping).
    pub const VALLOC_BASE: SimDuration = SimDuration::from_micros(2);
    /// Added cost per page of a VA allocation (hash + shadow-table check).
    pub const VALLOC_PER_PAGE: SimDuration = SimDuration::from_nanos(400);
    /// Added cost per allocation retry (re-search + re-check, §4.2).
    pub const VALLOC_RETRY_COST: SimDuration = SimDuration::from_micros(3);
    /// Fixed software cost of freeing a range.
    pub const FREE_BASE: SimDuration = SimDuration::from_micros(2);
    /// Added cost per freed page (PTE removal + TLB shootdown message).
    pub const FREE_PER_PAGE: SimDuration = SimDuration::from_nanos(200);
    /// Fixed cost of an explicit physical-allocation request.
    pub const PALLOC_BASE: SimDuration = SimDuration::from_micros(3);
    /// Added cost per physical page reserved.
    pub const PALLOC_PER_PAGE: SimDuration = SimDuration::from_nanos(45);
    /// Maximum candidate ranges the VA allocator tries before reporting
    /// virtual-memory exhaustion.
    pub const VALLOC_RETRY_LIMIT: u32 = 512;

    /// Builds the slow path for a board configuration.
    pub fn new(cfg: &CBoardConfig) -> Self {
        let valloc = match cfg.va_window {
            Some((base, span)) => {
                VaAllocator::with_window(cfg.hw.page_size, Self::VALLOC_RETRY_LIMIT, base, span)
            }
            None => VaAllocator::new(cfg.hw.page_size, Self::VALLOC_RETRY_LIMIT),
        };
        SlowPath {
            valloc,
            palloc: PhysAllocator::new(cfg.hw.phys_pages()),
            workers: ServerPool::new(Self::WORKERS),
            page_size: cfg.hw.page_size,
        }
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

    /// Creates a process address space (idempotent).
    pub fn create_as(&mut self, pid: Pid) -> SimDuration {
        self.valloc.create_pid(pid);
        Self::VALLOC_BASE
    }

    /// True if `pid` has an address space on this node.
    pub fn has_pid(&self, pid: Pid) -> bool {
        self.valloc.has_pid(pid)
    }

    /// Allocates virtual memory with overflow avoidance against `vm`'s page
    /// table, and installs the range's pages there as invalid PTEs (each
    /// faults its physical page in on first touch).
    ///
    /// # Errors
    ///
    /// Propagates the allocator's status (unknown PID, VA exhaustion).
    pub fn alloc(
        &mut self,
        vm: &mut VmUnit,
        pid: Pid,
        size: u64,
        perm: Perm,
        fixed_va: Option<u64>,
    ) -> Result<AllocOutcome, (Status, SimDuration)> {
        match self.valloc.alloc(vm.page_table(), pid, size, perm, fixed_va) {
            Ok(a) => {
                for vpn in self.valloc.vpns(a.range) {
                    let pte = Pte { pid, vpn, ppn: 0, perm, valid: false };
                    vm.install_pte(pte).expect("allocator pre-checked bucket capacity");
                }
                let service = Self::VALLOC_BASE
                    + Self::VALLOC_PER_PAGE * (a.range.len / self.page_size)
                    + Self::VALLOC_RETRY_COST * a.retries as u64;
                Ok(AllocOutcome { range: a.range, retries: a.retries, service })
            }
            Err(status) => {
                // A failed allocation burned the full retry budget.
                let service =
                    Self::VALLOC_BASE + Self::VALLOC_RETRY_COST * Self::VALLOC_RETRY_LIMIT as u64;
                Err((status, service))
            }
        }
    }

    /// Removes `pid`'s PTEs of `vpns` from `vm` and hands the physical
    /// pages behind the valid ones back to the allocator, in `vpns` order.
    pub(crate) fn unmap(&mut self, vm: &mut VmUnit, pid: Pid, vpns: impl IntoIterator<Item = u64>) {
        let removed = vpns.into_iter().filter_map(|vpn| vm.remove_pte(pid, vpn));
        self.palloc.free_many(removed.filter(|pte| pte.valid).map(|pte| pte.ppn));
    }

    /// Frees a range and unmaps its pages from `vm`.
    ///
    /// # Errors
    ///
    /// `Status::InvalidAddr` if `va` does not start an allocated range.
    pub fn free(
        &mut self,
        vm: &mut VmUnit,
        pid: Pid,
        va: u64,
    ) -> Result<FreeOutcome, (Status, SimDuration)> {
        match self.valloc.free(pid, va) {
            Ok(range) => {
                self.unmap(vm, pid, self.valloc.vpns(range));
                let service = Self::FREE_BASE + Self::FREE_PER_PAGE * (range.len / self.page_size);
                Ok(FreeOutcome { range, service })
            }
            Err(status) => Err((status, Self::FREE_BASE)),
        }
    }

    /// Tears down a whole address space, unmapping every range's pages from
    /// `vm` in address order.
    pub fn destroy_as(&mut self, vm: &mut VmUnit, pid: Pid) -> SimDuration {
        let mut pages = 0;
        for range in self.valloc.destroy_pid(pid) {
            self.unmap(vm, pid, self.valloc.vpns(range));
            pages += range.len / self.page_size;
        }
        Self::FREE_BASE + Self::FREE_PER_PAGE * pages
    }

    /// Pre-reserves physical pages to refill the fast path's async buffer.
    /// Functionally instant for the fast path (the ARM runs it in the
    /// background, §4.3); the returned service time is what the ARM core
    /// spends.
    fn refill_pages(&mut self, demand: usize) -> (Vec<u64>, SimDuration) {
        let pages = self.palloc.alloc_many(demand);
        let service = Self::PALLOC_BASE + Self::PALLOC_PER_PAGE * pages.len() as u64;
        (pages, service)
    }

    /// Tops the fault handler's free-page buffer up from the allocator:
    /// the board does it after every request and on a fault stall, an
    /// offload after its allocations and on a stall of its own.
    pub fn refill_async_buffer(&mut self, silicon: &mut Silicon) {
        let demand = silicon.vm().async_buffer().refill_demand();
        if demand > 0 {
            let (pages, _service) = self.refill_pages(demand);
            for p in pages {
                silicon.vm_mut().async_buffer_mut().push(p);
            }
        }
    }

    /// Explicit physical allocation of a whole range (the paper's
    /// `Clio-Alloc-Phys` line in Figure 12): backs every not-yet-valid page
    /// of `[va, va+len)` in `vm`'s page table with a physical page of its
    /// own, in address order. Returns the service time.
    ///
    /// # Errors
    ///
    /// `Status::InvalidAddr` if a page of the range is unmapped, and
    /// `Status::OutOfPhysicalMemory` if the node cannot back the whole
    /// range; either way nothing changes.
    pub fn alloc_phys(
        &mut self,
        vm: &mut VmUnit,
        pid: Pid,
        va: u64,
        len: u64,
    ) -> Result<SimDuration, (Status, SimDuration)> {
        let page = self.page_size;
        let mut holes = Vec::new();
        for vpn in va / page..=(va + len.max(1) - 1) / page {
            match vm.page_table().lookup(pid, vpn) {
                Some(pte) if !pte.valid => holes.push(*pte),
                Some(_) => {} // already backed
                None => return Err((Status::InvalidAddr, Self::PALLOC_BASE)),
            }
        }
        if holes.len() as u64 > self.palloc.free_pages() {
            return Err((Status::OutOfPhysicalMemory, Self::PALLOC_BASE));
        }
        for pte in &holes {
            let ppn = self.palloc.alloc().expect("free pages counted above");
            // The PTE goes back into the slot it left, now valid.
            vm.remove_pte(pid, pte.vpn);
            vm.install_pte(Pte { ppn, valid: true, ..*pte }).expect("its own slot is free");
        }
        Ok(Self::PALLOC_BASE + Self::PALLOC_PER_PAGE * holes.len() as u64)
    }

    /// Registers a migrated-in range with the VA allocator so future frees
    /// work. The range must land at its original address (RAS addresses are
    /// stable across migration, §4.7); its PTEs are installed in the
    /// board's table page by page as data streams in.
    ///
    /// # Errors
    ///
    /// [`Status::Conflict`] if the exact placement is impossible on this
    /// node (`vm`'s hash table cannot absorb the pages).
    pub fn adopt_range(&mut self, vm: &VmUnit, pid: Pid, range: VaRange) -> Result<(), Status> {
        // The pages must fit this node's hash table before we accept.
        let vpns = self.valloc.vpns(range).map(|v| (pid, v));
        if !vm.page_table().can_insert_all(vpns) {
            return Err(Status::Conflict);
        }
        self.valloc.adopt(pid, range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slow path and the board page table it edits.
    fn slow() -> (SlowPath, VmUnit) {
        let cfg = CBoardConfig::test_small();
        (SlowPath::new(&cfg), VmUnit::new(&cfg.hw))
    }

    #[test]
    fn create_alloc_free_cycle() {
        let (mut s, mut vm) = slow();
        s.create_as(Pid(1));
        assert!(s.has_pid(Pid(1)));
        let a = s.alloc(&mut vm, Pid(1), 10_000, Perm::RW, None).expect("alloc");
        assert_eq!(a.range.len, 3 * 4096); // 10 KB over 4 KB pages
        assert!(a.service >= SimDuration::from_micros(2));
        assert_eq!(vm.page_table().len(), 3);
        assert!(vm.page_table().iter().all(|pte| !pte.valid && pte.perm == Perm::RW));
        let f = s.free(&mut vm, Pid(1), a.range.start).expect("free");
        assert_eq!(f.service, SlowPath::FREE_BASE + SlowPath::FREE_PER_PAGE * 3);
        assert_eq!(vm.page_table().len(), 0);
    }

    #[test]
    fn alloc_unknown_pid_fails_with_service_time() {
        let (mut s, mut vm) = slow();
        let (status, service) = s.alloc(&mut vm, Pid(7), 100, Perm::RW, None).unwrap_err();
        assert_eq!(status, Status::InvalidAddr);
        assert!(service > SimDuration::ZERO);
    }

    #[test]
    fn refill_respects_physical_supply() {
        let (mut s, _) = slow();
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
        let (mut s, mut vm) = slow();
        s.create_as(Pid(1));
        let a = s.alloc(&mut vm, Pid(1), 3 * 4096, Perm::RW, None).expect("alloc");
        let (va, len) = (a.range.start, a.range.len);
        let service = s.alloc_phys(&mut vm, Pid(1), va, len).expect("phys");
        assert_eq!(service, SlowPath::PALLOC_BASE + SlowPath::PALLOC_PER_PAGE * 3);
        assert!(vm.page_table().iter().all(|pte| pte.valid), "the board's table is backed");
        assert_eq!(s.palloc().used_pages(), 3);
        // Second call is a no-op (already valid).
        let again = s.alloc_phys(&mut vm, Pid(1), va, len).expect("phys");
        assert_eq!(again, SlowPath::PALLOC_BASE);
        // Unmapped range fails.
        let err = s.alloc_phys(&mut vm, Pid(1), 1 << 40, 4096).unwrap_err().0;
        assert_eq!(err, Status::InvalidAddr);
    }

    /// A page the fast path faulted in is valid in the one table, so an
    /// explicit physical allocation leaves it with its frame.
    #[test]
    fn alloc_phys_skips_pages_the_fast_path_faulted_in() {
        let cfg = CBoardConfig::test_small();
        let (mut s, mut silicon) = (SlowPath::new(&cfg), Silicon::new(cfg.hw.clone()));
        s.create_as(Pid(1));
        let a = s.alloc(silicon.vm_mut(), Pid(1), 2 * 4096, Perm::RW, None).expect("alloc");
        s.refill_async_buffer(&mut silicon);
        let now = clio_sim::SimTime::ZERO;
        silicon.write(now, Pid(1), a.range.start, b"x").0.expect("fault in");
        let faulted = *silicon.vm().page_table().lookup(Pid(1), a.range.start / 4096).expect("pte");
        let service = s.alloc_phys(silicon.vm_mut(), Pid(1), a.range.start, a.range.len);
        assert_eq!(service, Ok(SlowPath::PALLOC_BASE + SlowPath::PALLOC_PER_PAGE));
        let table = silicon.vm().page_table();
        assert_eq!(table.lookup(Pid(1), a.range.start / 4096), Some(&faulted));
    }

    #[test]
    fn alloc_phys_rolls_back_on_oom() {
        let (mut s, mut vm) = slow();
        s.create_as(Pid(1));
        let total = s.palloc().total_pages();
        // Allocate VA for more pages than physical memory.
        let a = s
            .alloc(&mut vm, Pid(1), (total + 8) * 4096, Perm::RW, None)
            .expect("over-commit is allowed");
        let free_before = s.palloc().free_pages();
        let err = s.alloc_phys(&mut vm, Pid(1), a.range.start, a.range.len).unwrap_err().0;
        assert_eq!(err, Status::OutOfPhysicalMemory);
        assert_eq!(s.palloc().free_pages(), free_before, "rollback complete");
        assert!(vm.page_table().iter().all(|pte| !pte.valid), "no page was backed");
    }

    /// Teardown removes every PTE of the process and returns the pages
    /// behind the valid ones.
    #[test]
    fn destroy_as_clears_the_page_table() {
        let (mut s, mut vm) = slow();
        s.create_as(Pid(2));
        let a = s.alloc(&mut vm, Pid(2), 8192, Perm::RW, None).expect("alloc");
        s.alloc(&mut vm, Pid(2), 4096, Perm::READ, None).expect("alloc");
        s.alloc_phys(&mut vm, Pid(2), a.range.start, 4096).expect("phys");
        assert_eq!(s.palloc().used_pages(), 1);
        let service = s.destroy_as(&mut vm, Pid(2));
        assert_eq!(service, SlowPath::FREE_BASE + SlowPath::FREE_PER_PAGE * 3);
        assert!(vm.page_table().is_empty());
        assert_eq!(s.palloc().used_pages(), 0);
        assert!(!s.has_pid(Pid(2)));
    }

    #[test]
    fn failed_alloc_charges_retry_budget() {
        let (mut s, mut vm) = slow();
        s.create_as(Pid(1));
        // An unknown PID fails before any search, yet is charged the full
        // retry budget like an exhausted one.
        let (_, service) = s.alloc(&mut vm, Pid(9), 4096, Perm::RW, None).unwrap_err();
        let budget = SlowPath::VALLOC_RETRY_COST * SlowPath::VALLOC_RETRY_LIMIT as u64;
        assert_eq!(service, SlowPath::VALLOC_BASE + budget);
    }
}
