//! The slow-path virtual-address allocator (paper §4.2).
//!
//! Works like a `vma`-tree allocator with one Clio-specific twist: before
//! committing to a candidate VA range it checks — against the board's
//! **page table** — that inserting every page of the range would not
//! overflow any hash bucket. If it would, the allocator slides to another
//! candidate and retries. This trades bounded allocation-time retries
//! (measured by Figure 13) for a fast path whose translation never chains
//! or overflows. The prototype's ARM runs the check on a shadow of the
//! table in its local DRAM; the model charges that by the slow path's
//! service times and reads the one table the fast path walks.
//!
//! Every process's ranges live in one [`RangeMap`], as CLib's router and
//! the migration records do.

use std::collections::BTreeMap;

use clio_hw::pagetable::HashPageTable;
use clio_proto::{Perm, Pid, RangeMap, Status};

/// The lowest VA handed out (keeps 0 unmapped, like a null guard page).
pub const VA_BASE: u64 = 1 << 20;
/// Default size of the VA window an allocator manages. A full RAS is 48-bit
/// (paper §3.1); when a RAS spans multiple MNs, the global controller gives
/// each MN a disjoint slice of it (§4.7's two-level management).
pub const VA_SPACE: u64 = 1 << 46;

/// One allocated range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaRange {
    /// Start address (page aligned).
    pub start: u64,
    /// Length in bytes (page aligned).
    pub len: u64,
    /// Permissions.
    pub perm: Perm,
}

/// Result of a successful allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VaAllocation {
    /// The range assigned.
    pub range: VaRange,
    /// Overflow-avoidance retries performed (Figure 13's metric).
    pub retries: u32,
}

/// The VA allocator for every process on one MN.
#[derive(Debug, Clone)]
pub struct VaAllocator {
    page_size: u64,
    retry_limit: u32,
    base: u64,
    limit: u64,
    /// Every process's allocated ranges (page aligned), with their
    /// permission.
    ranges: RangeMap<Perm>,
    /// Each process's rotating search cursor, which spreads allocations
    /// across the window. A process has an address space iff it has one.
    cursors: BTreeMap<Pid, u64>,
}

impl VaAllocator {
    /// Creates an allocator for `page_size`-byte pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two.
    pub fn new(page_size: u64, retry_limit: u32) -> Self {
        Self::with_window(page_size, retry_limit, VA_BASE, VA_SPACE)
    }

    /// Creates an allocator managing only `[base, base + span)` — the slice
    /// of the RAS the controller assigned to this MN.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two or the window is empty.
    pub fn with_window(page_size: u64, retry_limit: u32, base: u64, span: u64) -> Self {
        assert!(page_size.is_power_of_two(), "page size must be a power of two");
        assert!(span >= page_size, "window must hold at least one page");
        let base = base.max(VA_BASE).next_multiple_of(page_size);
        VaAllocator {
            page_size,
            retry_limit,
            base,
            limit: base + span,
            ranges: RangeMap::default(),
            cursors: BTreeMap::new(),
        }
    }

    /// Registers a process address space (idempotent).
    pub fn create_pid(&mut self, pid: Pid) {
        self.cursors.entry(pid).or_default();
    }

    /// True if the process has an address space.
    pub fn has_pid(&self, pid: Pid) -> bool {
        self.cursors.contains_key(&pid)
    }

    /// Removes a process, returning all its ranges in address order (for
    /// PTE teardown).
    pub fn destroy_pid(&mut self, pid: Pid) -> Vec<VaRange> {
        self.cursors.remove(&pid);
        let all = self.ranges.starting_in(pid, 0, u64::MAX);
        let ranges: Vec<VaRange> =
            all.map(|(start, len, &perm)| VaRange { start, len, perm }).collect();
        for r in &ranges {
            self.ranges.remove(pid, r.start);
        }
        ranges
    }

    /// The end of a range of `pid` that overlaps `[start, start + len)`:
    /// the one holding `start`, else the first that starts inside.
    fn overlap_end(&self, pid: Pid, start: u64, len: u64) -> Option<u64> {
        let inside = || self.ranges.starting_in(pid, start, start + len - 1).next();
        self.ranges.get(pid, start).or_else(inside).map(|(s, l, _)| s + l)
    }

    /// First free gap of `len` bytes of `pid` at or after `from` (page
    /// aligned), within the window.
    fn find_gap(&self, pid: Pid, from: u64, len: u64) -> Option<u64> {
        let mut candidate = from.max(self.base).next_multiple_of(self.page_size);
        loop {
            if candidate + len > self.limit {
                return None;
            }
            match self.overlap_end(pid, candidate, len) {
                None => return Some(candidate),
                Some(end) => candidate = end.next_multiple_of(self.page_size),
            }
        }
    }

    /// Allocates `size` bytes for `pid`, avoiding page-table overflow.
    ///
    /// `table` is the board's page table, which the caller fills with the
    /// range's pages. If `fixed_va` is given it is tried first (and, per
    /// §4.2's limitation, silently abandoned for a fresh range if it cannot
    /// be inserted).
    ///
    /// # Errors
    ///
    /// * [`Status::InvalidAddr`] if `pid` has no address space,
    /// * [`Status::OutOfVirtualMemory`] if no insertable range was found
    ///   within the retry limit.
    pub fn alloc(
        &mut self,
        table: &HashPageTable,
        pid: Pid,
        size: u64,
        perm: Perm,
        fixed_va: Option<u64>,
    ) -> Result<VaAllocation, Status> {
        let page = self.page_size;
        let len = size.max(1).next_multiple_of(page);
        let pages = len / page;
        let cursor = *self.cursors.get(&pid).ok_or(Status::InvalidAddr)?;

        let fits = |start: u64, this: &Self| -> bool {
            let vpns = (0..pages).map(|i| (pid, start / page + i));
            this.overlap_end(pid, start, len).is_none() && table.can_insert_all(vpns)
        };

        // Fixed placement first, if requested.
        if let Some(va) = fixed_va {
            let va = va / page * page;
            if va >= self.base && va + len <= self.limit && fits(va, self) {
                self.ranges.insert(pid, va, len, perm);
                return Ok(VaAllocation { range: VaRange { start: va, len, perm }, retries: 0 });
            }
            // Fall through: find a new range (paper §4.2 "Limitation").
        }

        let mut retries = 0u32;
        let mut from = cursor.max(self.base);
        let mut wrapped = false;
        loop {
            let Some(start) = self.find_gap(pid, from, len) else {
                // Wrapped? Try once from the base before giving up.
                if !wrapped {
                    wrapped = true;
                    from = self.base;
                    continue;
                }
                return Err(Status::OutOfVirtualMemory);
            };
            if fits(start, self) {
                self.ranges.insert(pid, start, len, perm);
                self.cursors.insert(pid, start + len);
                return Ok(VaAllocation { range: VaRange { start, len, perm }, retries });
            }
            retries += 1;
            if retries > self.retry_limit {
                return Err(Status::OutOfVirtualMemory);
            }
            // Slide one page and retry — different pages, different buckets.
            from = start + page;
        }
    }

    /// Adopts a pre-validated range verbatim (migration ingest): the range
    /// may live anywhere in the RAS — outside this node's allocation window
    /// — because its address is fixed by its previous owner.
    ///
    /// # Errors
    ///
    /// [`Status::Conflict`] if the range overlaps an existing allocation of
    /// `pid`.
    pub fn adopt(&mut self, pid: Pid, range: VaRange) -> Result<(), Status> {
        self.create_pid(pid);
        if self.overlap_end(pid, range.start, range.len).is_some() {
            return Err(Status::Conflict);
        }
        self.ranges.insert(pid, range.start, range.len, range.perm);
        Ok(())
    }

    /// Frees the exact range previously returned for `(pid, va)`.
    ///
    /// # Errors
    ///
    /// [`Status::InvalidAddr`] if `va` is not the start of an allocated
    /// range of `pid`.
    pub fn free(&mut self, pid: Pid, va: u64) -> Result<VaRange, Status> {
        let (len, perm) = self.ranges.remove(pid, va).ok_or(Status::InvalidAddr)?;
        Ok(VaRange { start: va, len, perm })
    }

    /// VPNs covered by a range.
    pub fn vpns(&self, range: VaRange) -> impl Iterator<Item = u64> {
        let page = self.page_size;
        range.start / page..(range.start + range.len) / page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (VaAllocator, HashPageTable) {
        // 16 buckets x 4 slots = 64 slots.
        (VaAllocator::new(4096, 64), HashPageTable::new(16, 4))
    }

    fn sync_insert(table: &mut HashPageTable, pid: Pid, a: &VaAllocator, r: VaRange) {
        for vpn in a.vpns(r) {
            table
                .insert(clio_hw::pagetable::Pte { pid, vpn, ppn: 0, perm: r.perm, valid: false })
                .expect("pre-checked insert");
        }
    }

    #[test]
    fn alloc_rounds_to_pages_and_does_not_overlap() {
        let (mut va, table) = small();
        va.create_pid(Pid(1));
        let a = va.alloc(&table, Pid(1), 100, Perm::RW, None).expect("alloc");
        assert_eq!(a.range.len, 4096);
        assert_eq!(a.range.start % 4096, 0);
        let b = va.alloc(&table, Pid(1), 8192, Perm::RW, None).expect("alloc");
        let (a, b) = (a.range, b.range);
        assert!(a.start + a.len <= b.start || b.start + b.len <= a.start, "{a:?} vs {b:?}");
    }

    #[test]
    fn unknown_pid_rejected() {
        let (mut va, table) = small();
        assert_eq!(va.alloc(&table, Pid(9), 1, Perm::RW, None), Err(Status::InvalidAddr));
        assert_eq!(va.free(Pid(9), VA_BASE), Err(Status::InvalidAddr));
    }

    #[test]
    fn free_then_realloc_reuses_space() {
        let (mut va, table) = small();
        va.create_pid(Pid(1));
        let a = va.alloc(&table, Pid(1), 4096, Perm::RW, None).unwrap().range;
        va.free(Pid(1), a.start).expect("free");
        // Freeing twice fails.
        assert_eq!(va.free(Pid(1), a.start), Err(Status::InvalidAddr));
    }

    #[test]
    fn fixed_va_honored_when_free() {
        let (mut va, table) = small();
        va.create_pid(Pid(1));
        let want = VA_BASE + 16 * 4096;
        let got = va.alloc(&table, Pid(1), 4096, Perm::RW, Some(want)).unwrap();
        assert_eq!(got.range.start, want);
        // Same fixed VA again: falls back to another range, not an error.
        let again = va.alloc(&table, Pid(1), 4096, Perm::RW, Some(want)).unwrap();
        assert_ne!(again.range.start, want);
    }

    #[test]
    fn overflow_forces_retries_and_respects_the_table() {
        // Tiny table: 2 buckets x 1 slot. After two pages are present,
        // nothing else fits and allocation must fail after retrying.
        let mut table = HashPageTable::new(2, 1);
        let mut va = VaAllocator::new(4096, 16);
        va.create_pid(Pid(1));
        let a = va.alloc(&table, Pid(1), 4096, Perm::RW, None).expect("first");
        sync_insert(&mut table, Pid(1), &va, a.range);
        let b = va.alloc(&table, Pid(1), 4096, Perm::RW, None).expect("second");
        sync_insert(&mut table, Pid(1), &va, b.range);
        let err = va.alloc(&table, Pid(1), 4096, Perm::RW, None).unwrap_err();
        assert_eq!(err, Status::OutOfVirtualMemory);
    }

    #[test]
    fn retries_grow_with_table_pressure() {
        // 64-slot table; fill it gradually and watch retries appear.
        let mut table = HashPageTable::new(16, 4);
        let mut va = VaAllocator::new(4096, 1024);
        va.create_pid(Pid(1));
        let mut retries_low = 0;
        let mut retries_high = 0;
        for i in 0..56 {
            let a = va.alloc(&table, Pid(1), 4096, Perm::RW, None).expect("alloc");
            sync_insert(&mut table, Pid(1), &va, a.range);
            if i < 28 {
                retries_low += a.retries;
            } else {
                retries_high += a.retries;
            }
        }
        assert!(
            retries_high >= retries_low,
            "retries should not decrease with pressure: {retries_low} -> {retries_high}"
        );
    }

    #[test]
    fn destroy_pid_returns_ranges() {
        let (mut va, table) = small();
        va.create_pid(Pid(1));
        va.alloc(&table, Pid(1), 4096, Perm::RW, None).unwrap();
        va.alloc(&table, Pid(1), 4096, Perm::RW, None).unwrap();
        let ranges = va.destroy_pid(Pid(1));
        assert_eq!(ranges.len(), 2);
        assert!(!va.has_pid(Pid(1)));
    }
}
