//! The overflow-free, flat hash page table (paper §4.2).
//!
//! One single table holds the PTEs of **all** processes; its size is fixed by
//! the MN's physical memory (pages × slack), never by client count — this is
//! how Clio meets requirement R2. Each bucket has `K` slots and is fetched in
//! one DRAM access, so translation latency is bounded by exactly one DRAM
//! round trip on a TLB miss.
//!
//! Overflow never happens at **access** time because the slow-path VA
//! allocator refuses to hand out ranges whose pages would overflow a bucket
//! (see `clio_mn::valloc`); [`HashPageTable::can_insert_all`] is the check it
//! uses.
//!
//! A clone shares its buckets with the table it was taken from until one
//! side changes an entry (`insert`, `remove` or `lookup_mut` make them
//! unique), so copying a board does not copy its page tables; lookups and
//! TLB-miss walks stay read-only.

use std::rc::Rc;

use clio_proto::{Perm, Pid};
use clio_sim::IdMap;

use crate::hash::bucket_of;

/// One page-table entry.
///
/// `valid == false` means the VA range is allocated but no physical page has
/// been assigned yet — touching it triggers the hardware page-fault handler
/// (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Owning process (protection domain).
    pub pid: Pid,
    /// Virtual page number.
    pub vpn: u64,
    /// Physical page number (meaningful only when `valid`).
    pub ppn: u64,
    /// Access permissions for the page.
    pub perm: Perm,
    /// Whether a physical page is attached.
    pub valid: bool,
}

/// Why an insertion failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageTableError {
    /// The target bucket's `K` slots are all occupied. The VA allocator
    /// treats this as "pick different VAs and retry".
    BucketOverflow {
        /// The bucket that was full.
        bucket: usize,
    },
    /// The `(pid, vpn)` pair is already present.
    Duplicate,
}

impl std::fmt::Display for PageTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageTableError::BucketOverflow { bucket } => {
                write!(f, "hash bucket {bucket} overflow")
            }
            PageTableError::Duplicate => write!(f, "duplicate page-table entry"),
        }
    }
}

impl std::error::Error for PageTableError {}

/// The flat hash page table.
#[derive(Debug, Clone)]
pub struct HashPageTable {
    /// Each inner `Vec` holds at most `slots_per_bucket` entries; shared
    /// with clones until written.
    buckets: Rc<Vec<Vec<Pte>>>,
    slots_per_bucket: usize,
    occupied: usize,
}

impl HashPageTable {
    /// Creates a table with `buckets` buckets of `slots_per_bucket` slots.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(buckets: usize, slots_per_bucket: usize) -> Self {
        assert!(buckets > 0 && slots_per_bucket > 0, "degenerate page table");
        HashPageTable { buckets: Rc::new(vec![Vec::new(); buckets]), slots_per_bucket, occupied: 0 }
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Slots per bucket (K).
    pub fn slots_per_bucket(&self) -> usize {
        self.slots_per_bucket
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.buckets.len() * self.slots_per_bucket
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// The bucket index `(pid, vpn)` maps to.
    pub fn bucket_index(&self, pid: Pid, vpn: u64) -> usize {
        bucket_of(pid, vpn, self.buckets.len())
    }

    /// Looks up the PTE for `(pid, vpn)`. One DRAM access in hardware.
    pub fn lookup(&self, pid: Pid, vpn: u64) -> Option<&Pte> {
        self.buckets[self.bucket_index(pid, vpn)].iter().find(|p| p.pid == pid && p.vpn == vpn)
    }

    /// The slot of `(pid, vpn)`: its bucket and its position there.
    fn position(&self, pid: Pid, vpn: u64) -> (usize, Option<usize>) {
        let b = self.bucket_index(pid, vpn);
        (b, self.buckets[b].iter().position(|p| p.pid == pid && p.vpn == vpn))
    }

    /// Mutable lookup (fast path marks entries valid on page faults).
    pub fn lookup_mut(&mut self, pid: Pid, vpn: u64) -> Option<&mut Pte> {
        let (b, Some(i)) = self.position(pid, vpn) else { return None };
        Some(&mut Rc::make_mut(&mut self.buckets)[b][i])
    }

    /// Inserts a new PTE.
    ///
    /// # Errors
    ///
    /// [`PageTableError::BucketOverflow`] if the bucket is full,
    /// [`PageTableError::Duplicate`] if the mapping already exists.
    pub fn insert(&mut self, pte: Pte) -> Result<(), PageTableError> {
        let (b, found) = self.position(pte.pid, pte.vpn);
        if found.is_some() {
            return Err(PageTableError::Duplicate);
        }
        if self.buckets[b].len() >= self.slots_per_bucket {
            return Err(PageTableError::BucketOverflow { bucket: b });
        }
        Rc::make_mut(&mut self.buckets)[b].push(pte);
        self.occupied += 1;
        Ok(())
    }

    /// Removes and returns the PTE for `(pid, vpn)`.
    pub fn remove(&mut self, pid: Pid, vpn: u64) -> Option<Pte> {
        let (b, Some(i)) = self.position(pid, vpn) else { return None };
        self.occupied -= 1;
        Some(Rc::make_mut(&mut self.buckets)[b].swap_remove(i))
    }

    /// The allocation-time overflow check (§4.2): would inserting all of
    /// `pages` (in addition to current contents) overflow any bucket?
    ///
    /// Counts per-bucket demand across the whole candidate set, so a range
    /// whose own pages collide with each other is also rejected.
    pub fn can_insert_all<I>(&self, pages: I) -> bool
    where
        I: IntoIterator<Item = (Pid, u64)>,
    {
        let mut demand: IdMap<usize, usize> = IdMap::default();
        for (pid, vpn) in pages {
            if self.lookup(pid, vpn).is_some() {
                return false; // already mapped: allocator must not reuse it
            }
            *demand.entry(self.bucket_index(pid, vpn)).or_insert(0) += 1;
        }
        demand.into_iter().all(|(b, extra)| self.buckets[b].len() + extra <= self.slots_per_bucket)
    }

    /// Iterates all entries of a process (used by `DestroyAs` and
    /// migration).
    pub fn iter_pid(&self, pid: Pid) -> impl Iterator<Item = &Pte> + '_ {
        self.buckets.iter().flatten().filter(move |p| p.pid == pid)
    }

    /// Iterates every stored entry.
    pub fn iter(&self) -> impl Iterator<Item = &Pte> + '_ {
        self.buckets.iter().flatten()
    }

    /// Fraction of slots occupied.
    pub fn load_factor(&self) -> f64 {
        self.occupied as f64 / self.capacity() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pte(pid: u64, vpn: u64) -> Pte {
        Pte { pid: Pid(pid), vpn, ppn: 0, perm: Perm::RW, valid: false }
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut pt = HashPageTable::new(64, 4);
        for vpn in 0..50 {
            pt.insert(pte(1, vpn)).expect("insert");
        }
        assert_eq!(pt.len(), 50);
        for vpn in 0..50 {
            let e = pt.lookup(Pid(1), vpn).expect("present");
            assert_eq!(e.vpn, vpn);
        }
        assert!(pt.lookup(Pid(2), 0).is_none());
        assert_eq!(pt.remove(Pid(1), 25).map(|e| e.vpn), Some(25));
        assert!(pt.lookup(Pid(1), 25).is_none());
        assert_eq!(pt.len(), 49);
        assert!(pt.remove(Pid(1), 25).is_none());
    }

    #[test]
    fn duplicate_rejected() {
        let mut pt = HashPageTable::new(8, 4);
        pt.insert(pte(1, 1)).unwrap();
        assert_eq!(pt.insert(pte(1, 1)), Err(PageTableError::Duplicate));
    }

    #[test]
    fn bucket_overflow_reported() {
        // Single bucket: everything collides by construction.
        let mut pt = HashPageTable::new(1, 2);
        pt.insert(pte(1, 0)).unwrap();
        pt.insert(pte(1, 1)).unwrap();
        assert!(matches!(pt.insert(pte(1, 2)), Err(PageTableError::BucketOverflow { bucket: 0 })));
        assert_eq!(pt.len(), 2);
    }

    #[test]
    fn can_insert_all_counts_internal_collisions() {
        let pt = HashPageTable::new(1, 2);
        assert!(pt.can_insert_all([(Pid(1), 0), (Pid(1), 1)]));
        assert!(!pt.can_insert_all([(Pid(1), 0), (Pid(1), 1), (Pid(1), 2)]));
    }

    #[test]
    fn can_insert_all_rejects_existing_mappings() {
        let mut pt = HashPageTable::new(16, 4);
        pt.insert(pte(1, 7)).unwrap();
        assert!(!pt.can_insert_all([(Pid(1), 7)]));
        assert!(pt.can_insert_all([(Pid(2), 7)]), "other pid is fine");
    }

    #[test]
    fn per_pid_iteration_and_isolation() {
        let mut pt = HashPageTable::new(64, 4);
        for vpn in 0..10 {
            pt.insert(pte(1, vpn)).unwrap();
            pt.insert(pte(2, vpn)).unwrap();
        }
        assert_eq!(pt.iter_pid(Pid(1)).count(), 10);
        assert_eq!(pt.iter_pid(Pid(2)).count(), 10);
        assert_eq!(pt.iter().count(), 20);
        // Same VPN under different PIDs are distinct entries.
        assert!(pt.lookup(Pid(1), 3).is_some());
        assert!(pt.lookup(Pid(2), 3).is_some());
    }

    #[test]
    fn lookup_mut_allows_fault_fill() {
        let mut pt = HashPageTable::new(16, 4);
        pt.insert(pte(1, 5)).unwrap();
        {
            let e = pt.lookup_mut(Pid(1), 5).unwrap();
            e.valid = true;
            e.ppn = 99;
        }
        let e = pt.lookup(Pid(1), 5).unwrap();
        assert!(e.valid);
        assert_eq!(e.ppn, 99);
    }

    #[test]
    fn a_clone_shares_no_entry_it_changes() {
        let mut parent = HashPageTable::new(16, 4);
        for vpn in 0..8 {
            parent.insert(pte(1, vpn)).unwrap();
        }
        let entries = |pt: &HashPageTable| {
            let mut all: Vec<Pte> = pt.iter().copied().collect();
            all.sort_by_key(|p| (p.pid, p.vpn));
            (all, pt.len())
        };
        type Change = fn(&mut HashPageTable);
        let changes: [(&str, Change); 3] = [
            ("insert", |pt| pt.insert(pte(2, 3)).unwrap()),
            ("remove", |pt| assert!(pt.remove(Pid(1), 5).is_some())),
            ("lookup_mut", |pt| pt.lookup_mut(Pid(1), 2).unwrap().valid = true),
        ];
        for (name, change) in changes {
            // The clone changes an entry: the original keeps its entries.
            let before = entries(&parent);
            let mut child = parent.clone();
            change(&mut child);
            assert_ne!(entries(&child), before, "{name} changed nothing");
            assert_eq!(entries(&parent), before, "{name} in a clone reached the original");
            // The original changes an entry: the clone keeps its entries.
            let mut original = parent.clone();
            let copy = original.clone();
            change(&mut original);
            assert_eq!(entries(&copy), before, "{name} in the original reached a clone");
        }
    }

    #[test]
    fn capacity_is_fixed_and_load_factor_tracks() {
        let mut pt = HashPageTable::new(128, 4);
        assert_eq!(pt.capacity(), 512);
        assert!(pt.is_empty());
        for vpn in 0..256 {
            // Spread across pids to avoid unlucky collisions mattering.
            let _ = pt.insert(pte(vpn % 7, vpn));
        }
        assert!(pt.load_factor() > 0.4 && pt.load_factor() <= 0.5);
    }
}
