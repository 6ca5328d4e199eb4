//! The on-chip TLB: fixed capacity, content-addressable, LRU replacement
//! (paper §4.2).
//!
//! The TLB is shared by all processes (entries are keyed by `(PID, VPN)`),
//! which is also why the paper's discussion of side channels (§8) calls out
//! TLB sharing. Lookup is O(1); the LRU list is an intrusive doubly-linked
//! list over a slab, so misses and evictions are O(1) too — the model can
//! sustain the millions of lookups the scalability figures need.

use clio_proto::{Perm, Pid};
use clio_sim::IdMap;

/// A cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Physical page number.
    pub ppn: u64,
    /// Page permissions (checked in the same cycle as the lookup).
    pub perm: Perm,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    key: (Pid, u64),
    entry: TlbEntry,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// Fixed-capacity LRU TLB.
#[derive(Debug, Clone)]
pub struct Tlb {
    map: IdMap<(Pid, u64), usize>,
    slab: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with room for `capacity` translations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB must have capacity");
        Tlb {
            map: IdMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached translations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the TLB is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hit count since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since creation.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `(pid, vpn)`, refreshing recency on a hit. Records hit/miss
    /// statistics.
    pub fn lookup(&mut self, pid: Pid, vpn: u64) -> Option<TlbEntry> {
        match self.map.get(&(pid, vpn)).copied() {
            Some(idx) => {
                self.hits += 1;
                self.unlink(idx);
                self.push_front(idx);
                Some(self.slab[idx].entry)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Checks presence without perturbing recency or statistics.
    pub fn peek(&self, pid: Pid, vpn: u64) -> Option<TlbEntry> {
        self.map.get(&(pid, vpn)).map(|&idx| self.slab[idx].entry)
    }

    /// Inserts (or updates) a translation, evicting the LRU entry when full.
    /// Returns the evicted key, if any.
    pub fn insert(&mut self, pid: Pid, vpn: u64, entry: TlbEntry) -> Option<(Pid, u64)> {
        if let Some(&idx) = self.map.get(&(pid, vpn)) {
            self.slab[idx].entry = entry;
            self.unlink(idx);
            self.push_front(idx);
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            let key = self.slab[lru].key;
            self.map.remove(&key);
            self.free.push(lru);
            evicted = Some(key);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Node { key: (pid, vpn), entry, prev: NIL, next: NIL };
                i
            }
            None => {
                self.slab.push(Node { key: (pid, vpn), entry, prev: NIL, next: NIL });
                self.slab.len() - 1
            }
        };
        self.map.insert((pid, vpn), idx);
        self.push_front(idx);
        evicted
    }

    /// Drops the translation for `(pid, vpn)` if cached (PTE update/free).
    pub fn invalidate(&mut self, pid: Pid, vpn: u64) -> bool {
        match self.map.remove(&(pid, vpn)) {
            Some(idx) => {
                self.unlink(idx);
                self.free.push(idx);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(ppn: u64) -> TlbEntry {
        TlbEntry { ppn, perm: Perm::RW }
    }

    #[test]
    fn hit_after_insert() {
        let mut t = Tlb::new(4);
        assert!(t.lookup(Pid(1), 10).is_none());
        t.insert(Pid(1), 10, e(5));
        assert_eq!(t.lookup(Pid(1), 10), Some(e(5)));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = Tlb::new(3);
        t.insert(Pid(1), 1, e(1));
        t.insert(Pid(1), 2, e(2));
        t.insert(Pid(1), 3, e(3));
        // Touch 1 so 2 becomes LRU.
        assert!(t.lookup(Pid(1), 1).is_some());
        let evicted = t.insert(Pid(1), 4, e(4));
        assert_eq!(evicted, Some((Pid(1), 2)));
        assert!(t.peek(Pid(1), 2).is_none());
        assert!(t.peek(Pid(1), 1).is_some());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn update_refreshes_entry_and_recency() {
        let mut t = Tlb::new(2);
        t.insert(Pid(1), 1, e(1));
        t.insert(Pid(1), 2, e(2));
        t.insert(Pid(1), 1, e(99)); // update, now 2 is LRU
        let evicted = t.insert(Pid(1), 3, e(3));
        assert_eq!(evicted, Some((Pid(1), 2)));
        assert_eq!(t.peek(Pid(1), 1), Some(e(99)));
    }

    #[test]
    fn invalidate_single_and_pid() {
        let mut t = Tlb::new(8);
        for vpn in 0..4 {
            t.insert(Pid(1), vpn, e(vpn));
            t.insert(Pid(2), vpn, e(vpn));
        }
        assert!(t.invalidate(Pid(1), 2));
        assert!(!t.invalidate(Pid(1), 2));
        assert_eq!(t.len(), 7);
        assert!(t.invalidate(Pid(2), 0));
        assert_eq!(t.len(), 6);
        assert!(t.peek(Pid(2), 0).is_none());
        assert!(t.peek(Pid(1), 0).is_some(), "an invalidate leaves other pids' entries");
    }

    #[test]
    fn reuses_slots_after_invalidate() {
        let mut t = Tlb::new(2);
        t.insert(Pid(1), 1, e(1));
        t.invalidate(Pid(1), 1);
        t.insert(Pid(1), 2, e(2));
        t.insert(Pid(1), 3, e(3));
        assert_eq!(t.len(), 2);
        // Slab did not grow beyond capacity.
        assert!(t.slab.len() <= 2);
    }

    #[test]
    fn capacity_one_works() {
        let mut t = Tlb::new(1);
        t.insert(Pid(1), 1, e(1));
        assert_eq!(t.insert(Pid(1), 2, e(2)), Some((Pid(1), 1)));
        assert_eq!(t.lookup(Pid(1), 2), Some(e(2)));
    }

    /// Reference-model check: the intrusive LRU behaves exactly like a naive
    /// recency-list implementation across a long mixed workload.
    #[test]
    fn matches_reference_lru_model() {
        use std::collections::VecDeque;
        let cap = 8;
        let mut t = Tlb::new(cap);
        let mut model: VecDeque<(Pid, u64)> = VecDeque::new(); // front = MRU
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let vpn = (x >> 33) % 24;
            let pid = Pid(x % 2);
            let model_hit = model.contains(&(pid, vpn));
            let real = t.lookup(pid, vpn);
            assert_eq!(real.is_some(), model_hit, "divergence at ({pid},{vpn})");
            if model_hit {
                let pos = model.iter().position(|k| *k == (pid, vpn)).expect("contains");
                model.remove(pos);
                model.push_front((pid, vpn));
            } else {
                t.insert(pid, vpn, e(vpn));
                if model.len() == cap {
                    model.pop_back();
                }
                model.push_front((pid, vpn));
            }
        }
    }
}
