//! The retry-dedup buffer (paper §4.5, technique T4).
//!
//! A retried request must not execute twice: a slow (not lost) original could
//! arrive after another client's write and a blind re-execution of the retry
//! would undo it. The MN therefore remembers the request ids of recently
//! executed non-idempotent operations (writes, atomics, the slow path's
//! allocs and frees, and offload calls their module declares mutating)
//! plus the results of atomics, allocs and offload calls, for long enough
//! to cover the retry window. A record takes one
//! [`CBoardHwConfig::DEDUP_ENTRY_BYTES`] slot, and an offload reply one
//! more per started slot of its bytes.
//!
//! The buffer is sized `3 × TIMEOUT × bandwidth` (30 KB in the paper's
//! setting): it can "remember" an operation long enough for two retries, and
//! crucially its size depends only on link bandwidth and the timeout — not
//! on the number of clients — preserving MN statelessness in the scalability
//! sense.

use std::collections::VecDeque;

use bytes::Bytes;
use clio_proto::{ReqId, Status};
use clio_sim::IdMap;

use crate::config::CBoardHwConfig;

/// What the MN remembers about an executed non-idempotent request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DedupRecord {
    /// A write or a free: the retry is acknowledged without re-executing.
    Write,
    /// An atomic: the cached old-value is re-sent as the retry's response.
    Atomic {
        /// The value the original execution returned.
        old: u64,
    },
    /// An alloc: the range's address is re-sent, and no second range is
    /// allocated.
    Alloc {
        /// The start of the range the original execution allocated.
        va: u64,
    },
    /// A mutating offload call: its reply is re-sent, and the module does
    /// not run again.
    Offload {
        /// The status the call answered with.
        status: Status,
        /// The reply bytes the call answered with.
        data: Bytes,
    },
}

impl DedupRecord {
    /// Buffer slots the record takes: one, plus one per started
    /// [`CBoardHwConfig::DEDUP_ENTRY_BYTES`] of a cached offload reply.
    fn slots(&self) -> usize {
        match self {
            DedupRecord::Offload { data, .. } => {
                1 + data.len().div_ceil(CBoardHwConfig::DEDUP_ENTRY_BYTES)
            }
            _ => 1,
        }
    }
}

/// FIFO dedup buffer with O(1) lookup.
#[derive(Debug, Clone)]
pub struct DedupBuffer {
    order: VecDeque<ReqId>,
    records: IdMap<ReqId, DedupRecord>,
    capacity_entries: usize,
    /// Slots the remembered records take ([`DedupRecord::slots`]).
    used: usize,
    hits: u64,
}

impl DedupBuffer {
    /// A buffer of `capacity_bytes` over
    /// [`CBoardHwConfig::DEDUP_ENTRY_BYTES`] entries (the paper's sizing
    /// rule).
    ///
    /// # Panics
    ///
    /// Panics if the resulting capacity is zero.
    pub fn with_byte_budget(capacity_bytes: usize) -> Self {
        Self::new(capacity_bytes / CBoardHwConfig::DEDUP_ENTRY_BYTES)
    }

    /// A buffer of exactly `capacity_entries` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_entries == 0`.
    pub fn new(capacity_entries: usize) -> Self {
        assert!(capacity_entries > 0, "dedup buffer must have capacity");
        DedupBuffer {
            order: VecDeque::new(),
            records: IdMap::default(),
            capacity_entries,
            used: 0,
            hits: 0,
        }
    }

    /// Capacity in slots: one per plain record.
    pub fn capacity(&self) -> usize {
        self.capacity_entries
    }

    /// Records currently remembered.
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

    /// Records that `req_id` (a non-idempotent op) has executed, evicting the
    /// oldest records until the slots fit. Re-recording an id refreshes its
    /// record but not its eviction position (ids are unique in practice). A
    /// record larger than the whole buffer evicts everything, itself too.
    pub fn record(&mut self, req_id: ReqId, record: DedupRecord) {
        self.used += record.slots();
        match self.records.insert(req_id, record) {
            Some(old) => self.used -= old.slots(),
            None => self.order.push_back(req_id),
        }
        while self.used > self.capacity_entries {
            let evicted = self.order.pop_front().expect("slots are used");
            self.used -= self.records.remove(&evicted).expect("ordered ids are recorded").slots();
        }
    }

    /// Forgets every remembered execution (a board power-cycle: the dedup
    /// buffer is volatile SRAM and does not survive a crash). The hit
    /// counter is preserved — it is harness observability, not board state.
    pub fn clear(&mut self) {
        self.order.clear();
        self.records.clear();
        self.used = 0;
    }

    /// Checks whether the original of a retry already executed; counts a hit
    /// if so. The fast path calls this with the retry's `retry_of` id.
    pub fn check(&mut self, original: ReqId) -> Option<DedupRecord> {
        let rec = self.records.get(&original).cloned();
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
        let d = DedupBuffer::with_byte_budget(30 << 10);
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

    /// An offload reply is charged at its length: a 40 B reply takes one
    /// slot for the record and two for its bytes, so it evicts the oldest
    /// plain records to fit, and refreshing it with a shorter reply gives
    /// slots back.
    #[test]
    fn an_offload_reply_takes_slots_for_its_bytes() {
        let mut d = DedupBuffer::new(4);
        for id in 1..=4 {
            d.record(ReqId(id), DedupRecord::Write);
        }
        let reply = |n: usize| DedupRecord::Offload { status: Status::Ok, data: vec![7; n].into() };
        d.record(ReqId(5), reply(40));
        assert_eq!(d.len(), 2, "three plain records made room for three slots");
        assert_eq!(d.check(ReqId(3)), None);
        assert_eq!(d.check(ReqId(4)), Some(DedupRecord::Write));
        assert_eq!(d.check(ReqId(5)), Some(reply(40)));
        d.record(ReqId(5), reply(0));
        d.record(ReqId(6), DedupRecord::Write);
        d.record(ReqId(7), DedupRecord::Write);
        assert_eq!(d.len(), 4, "the shorter reply takes one slot");
        d.record(ReqId(8), reply(1000));
        assert!(d.is_empty(), "a reply larger than the buffer is not remembered");
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
