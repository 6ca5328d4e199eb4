//! The retry-dedup buffer (paper §4.5, technique T4).
//!
//! A retried request must not execute twice: a slow (not lost) original could
//! arrive after another client's write and a blind re-execution of the retry
//! would undo it. The MN therefore remembers the request ids of recently
//! executed non-idempotent operations (writes and atomics) plus the results
//! of atomics, for long enough to cover the retry window.
//!
//! The buffer is sized `3 × TIMEOUT × bandwidth` (30 KB in the paper's
//! setting): it can "remember" an operation long enough for two retries, and
//! crucially its size depends only on link bandwidth and the timeout — not
//! on the number of clients — preserving MN statelessness in the scalability
//! sense.

use std::collections::VecDeque;

use clio_proto::ReqId;
use clio_sim::IdMap;

/// What the MN remembers about an executed non-idempotent request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupRecord {
    /// A write: the retry is acknowledged without re-writing.
    Write,
    /// An atomic: the cached old-value is re-sent as the retry's response.
    Atomic {
        /// The value the original execution returned.
        old: u64,
    },
}

/// FIFO dedup buffer with O(1) lookup.
#[derive(Debug, Clone)]
pub struct DedupBuffer {
    order: VecDeque<ReqId>,
    records: IdMap<ReqId, DedupRecord>,
    capacity_entries: usize,
    hits: u64,
}

impl DedupBuffer {
    /// A buffer of `capacity_bytes / entry_bytes` entries (the paper's
    /// sizing rule).
    ///
    /// # Panics
    ///
    /// Panics if the resulting capacity is zero.
    pub fn with_byte_budget(capacity_bytes: usize, entry_bytes: usize) -> Self {
        assert!(entry_bytes > 0, "entry size must be non-zero");
        Self::new(capacity_bytes / entry_bytes)
    }

    /// A buffer of exactly `capacity_entries` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_entries == 0`.
    pub fn new(capacity_entries: usize) -> Self {
        assert!(capacity_entries > 0, "dedup buffer must have capacity");
        DedupBuffer { order: VecDeque::new(), records: IdMap::default(), capacity_entries, hits: 0 }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity_entries
    }

    /// Entries currently remembered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Times a retry matched a remembered execution.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Records that `req_id` (a write or atomic) has executed, evicting the
    /// oldest record if full. Re-recording an id refreshes its record but
    /// not its eviction position (ids are unique in practice).
    pub fn record(&mut self, req_id: ReqId, record: DedupRecord) {
        if self.records.insert(req_id, record).is_some() {
            return;
        }
        self.order.push_back(req_id);
        if self.order.len() > self.capacity_entries {
            let evicted = self.order.pop_front().expect("non-empty");
            self.records.remove(&evicted);
        }
    }

    /// Forgets every remembered execution (a board power-cycle: the dedup
    /// buffer is volatile SRAM and does not survive a crash). The hit
    /// counter is preserved — it is harness observability, not board state.
    pub fn clear(&mut self) {
        self.order.clear();
        self.records.clear();
    }

    /// Checks whether the original of a retry already executed; counts a hit
    /// if so. The fast path calls this with the retry's `retry_of` id.
    pub fn check(&mut self, original: ReqId) -> Option<DedupRecord> {
        let rec = self.records.get(&original).copied();
        if rec.is_some() {
            self.hits += 1;
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remembers_and_hits() {
        let mut d = DedupBuffer::new(4);
        d.record(ReqId(1), DedupRecord::Write);
        d.record(ReqId(2), DedupRecord::Atomic { old: 7 });
        assert_eq!(d.check(ReqId(1)), Some(DedupRecord::Write));
        assert_eq!(d.check(ReqId(2)), Some(DedupRecord::Atomic { old: 7 }));
        assert_eq!(d.check(ReqId(3)), None);
        assert_eq!(d.hits(), 2);
    }

    #[test]
    fn evicts_fifo_at_capacity() {
        let mut d = DedupBuffer::new(2);
        d.record(ReqId(1), DedupRecord::Write);
        d.record(ReqId(2), DedupRecord::Write);
        d.record(ReqId(3), DedupRecord::Write);
        assert_eq!(d.len(), 2);
        assert_eq!(d.check(ReqId(1)), None, "oldest evicted");
        assert!(d.check(ReqId(2)).is_some());
        assert!(d.check(ReqId(3)).is_some());
    }

    #[test]
    fn byte_budget_matches_paper_sizing() {
        // 30 KB at 32 B/entry = 960 entries (§4.5: 3 × TIMEOUT × bandwidth).
        let d = DedupBuffer::with_byte_budget(30 << 10, 32);
        assert_eq!(d.capacity(), 960);
        assert!(d.is_empty());
    }

    #[test]
    fn clear_forgets_records_keeps_hits() {
        let mut d = DedupBuffer::new(4);
        d.record(ReqId(1), DedupRecord::Write);
        assert!(d.check(ReqId(1)).is_some());
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.check(ReqId(1)), None, "crash forgets executions");
        assert_eq!(d.hits(), 1, "observability counter survives");
        d.record(ReqId(2), DedupRecord::Write);
        assert_eq!(d.len(), 1, "buffer usable after clear");
    }

    #[test]
    fn duplicate_record_refreshes_value() {
        let mut d = DedupBuffer::new(2);
        d.record(ReqId(1), DedupRecord::Atomic { old: 1 });
        d.record(ReqId(1), DedupRecord::Atomic { old: 2 });
        assert_eq!(d.len(), 1);
        assert_eq!(d.check(ReqId(1)), Some(DedupRecord::Atomic { old: 2 }));
    }
}
