//! MTU-bounded packing of small packets into batch frames, in both
//! directions: [`BatchBuilder`] packs requests into [`ClioPacket::Batch`]
//! (CN → MN), [`RespBatchBuilder`] packs responses into
//! [`ClioPacket::BatchResp`] (MN → CN), and [`NackBatchBuilder`] packs the
//! link-layer NACKs of one corrupted batch frame into
//! [`ClioPacket::BatchNack`] (MN → CN, the error-path mirror).
//!
//! Clio's asynchronous API (§4.5 T1) keeps many small requests in flight;
//! sent one per frame, a 16–64 B operation pays ~38 B of Ethernet overhead
//! plus a full Clio header of framing per op — and its reply pays the same
//! again on the board's 10 Gbps egress port. Both builders pack several
//! same-destination single-packet entries into one wire frame under three
//! budgets: the link MTU (always), a caller-chosen byte budget, and a
//! caller-chosen op-count budget. Every entry keeps its own header
//! ([`ReqHeader`] / [`RespHeader`]), so retries, deduplication, completion
//! matching and window accounting stay per logical request.

use crate::codec::{request_wire_len, response_wire_len, BATCH_OVERHEAD_BYTES, NACK_ENTRY_BYTES};
use crate::mtu::MTU_BYTES;
use crate::packet::{ClioPacket, ReqHeader, RequestBody, RespHeader, ResponseBody};
use crate::types::ReqId;

/// Accumulates request entries into an MTU-bounded batch frame.
///
/// `take` yields a plain [`ClioPacket::Request`] when only one entry
/// accumulated, so a lone request's wire image is byte-identical to the
/// unbatched protocol and batching is a pure overlay.
#[derive(Debug, Clone)]
pub struct BatchBuilder {
    entries: Vec<(ReqHeader, RequestBody)>,
    wire: usize,
    max_ops: usize,
    max_bytes: usize,
}

impl BatchBuilder {
    /// A builder admitting at most `max_ops` entries and at most
    /// `max_bytes` of encoded batch frame (clamped to the MTU; values below
    /// the smallest possible frame effectively disable multi-op batches).
    pub fn new(max_ops: usize, max_bytes: usize) -> Self {
        BatchBuilder {
            entries: Vec::new(),
            wire: BATCH_OVERHEAD_BYTES,
            max_ops: max_ops.max(1),
            max_bytes: max_bytes.min(MTU_BYTES),
        }
    }

    /// Entries accumulated so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Encoded size of the batch frame built so far (tag + count + entries).
    pub fn wire_len(&self) -> usize {
        self.wire
    }

    /// Whether a request whose standalone encoding is `entry_wire` bytes
    /// ([`request_wire_len`]) can join the current batch without busting the
    /// op, byte, or MTU budget.
    pub fn fits(&self, entry_wire: usize) -> bool {
        self.entries.len() < self.max_ops && self.wire + entry_wire <= self.max_bytes
    }

    /// Appends an entry. Callers must check [`fits`](Self::fits) first.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the entry busts a budget.
    pub fn push(&mut self, header: ReqHeader, body: RequestBody) {
        let entry = request_wire_len(&body);
        debug_assert!(self.fits(entry), "entry of {entry} B pushed into a full batch");
        self.wire += entry;
        self.entries.push((header, body));
    }

    /// Takes the accumulated frame, leaving the builder empty for reuse.
    /// Returns `None` when nothing accumulated; a single entry degenerates
    /// to a plain [`ClioPacket::Request`] (no batch overhead on the wire).
    pub fn take(&mut self) -> Option<ClioPacket> {
        self.wire = BATCH_OVERHEAD_BYTES;
        match self.entries.len() {
            0 => None,
            1 => {
                let (header, body) = self.entries.pop().expect("one entry");
                Some(ClioPacket::Request { header, body })
            }
            _ => Some(ClioPacket::Batch { requests: std::mem::take(&mut self.entries) }),
        }
    }
}

/// Accumulates response entries into an MTU-bounded batch frame — the
/// egress mirror of [`BatchBuilder`], used by the board's per-destination
/// egress queue.
///
/// `take` yields a plain [`ClioPacket::Response`] when only one entry
/// accumulated, so a lone response's wire image is byte-identical to the
/// unbatched protocol and response batching is a pure overlay.
#[derive(Debug, Clone)]
pub struct RespBatchBuilder {
    entries: Vec<(RespHeader, ResponseBody)>,
    wire: usize,
    max_ops: usize,
    max_bytes: usize,
}

impl RespBatchBuilder {
    /// A builder admitting at most `max_ops` entries and at most
    /// `max_bytes` of encoded batch frame (clamped to the MTU).
    pub fn new(max_ops: usize, max_bytes: usize) -> Self {
        RespBatchBuilder {
            entries: Vec::new(),
            wire: BATCH_OVERHEAD_BYTES,
            max_ops: max_ops.max(1),
            max_bytes: max_bytes.min(MTU_BYTES),
        }
    }

    /// Entries accumulated so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Encoded size of the batch frame built so far (tag + count + entries).
    pub fn wire_len(&self) -> usize {
        self.wire
    }

    /// Whether a response whose standalone encoding is `entry_wire` bytes
    /// ([`response_wire_len`]) can join the current batch without busting
    /// the op, byte, or MTU budget.
    pub fn fits(&self, entry_wire: usize) -> bool {
        self.entries.len() < self.max_ops && self.wire + entry_wire <= self.max_bytes
    }

    /// Appends an entry. Callers must check [`fits`](Self::fits) first.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the entry busts a budget.
    pub fn push(&mut self, header: RespHeader, body: ResponseBody) {
        let entry = response_wire_len(&body);
        debug_assert!(self.fits(entry), "response of {entry} B pushed into a full batch");
        self.wire += entry;
        self.entries.push((header, body));
    }

    /// Takes the accumulated frame, leaving the builder empty for reuse.
    /// Returns `None` when nothing accumulated; a single entry degenerates
    /// to a plain [`ClioPacket::Response`] (no batch overhead on the wire).
    pub fn take(&mut self) -> Option<ClioPacket> {
        self.wire = BATCH_OVERHEAD_BYTES;
        match self.entries.len() {
            0 => None,
            1 => {
                let (header, body) = self.entries.pop().expect("one entry");
                Some(ClioPacket::Response { header, body })
            }
            _ => Some(ClioPacket::BatchResp { responses: std::mem::take(&mut self.entries) }),
        }
    }
}

/// Accumulates request ids into an MTU-bounded [`ClioPacket::BatchNack`]
/// frame — the error-path mirror of [`RespBatchBuilder`], used by the board
/// when a corrupted batch frame must NACK every entry it carried.
///
/// `take` yields a plain [`ClioPacket::Nack`] when only one id accumulated,
/// so a lone NACK's wire image is byte-identical to the unbatched protocol
/// and NACK coalescing is a pure overlay.
#[derive(Debug, Clone)]
pub struct NackBatchBuilder {
    req_ids: Vec<ReqId>,
    max_ops: usize,
    max_bytes: usize,
}

impl NackBatchBuilder {
    /// A builder admitting at most `max_ops` ids and at most `max_bytes` of
    /// encoded batch frame (clamped to the MTU).
    pub fn new(max_ops: usize, max_bytes: usize) -> Self {
        NackBatchBuilder {
            req_ids: Vec::new(),
            max_ops: max_ops.max(1),
            max_bytes: max_bytes.min(MTU_BYTES),
        }
    }

    /// Ids accumulated so far.
    pub fn len(&self) -> usize {
        self.req_ids.len()
    }

    /// True when no id has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.req_ids.is_empty()
    }

    /// Encoded size of the batch frame built so far (tag + count + ids).
    pub fn wire_len(&self) -> usize {
        BATCH_OVERHEAD_BYTES + self.req_ids.len() * NACK_ENTRY_BYTES
    }

    /// Whether another id can join the current batch without busting the
    /// op, byte, or MTU budget.
    pub fn fits(&self) -> bool {
        self.req_ids.len() < self.max_ops && self.wire_len() + NACK_ENTRY_BYTES <= self.max_bytes
    }

    /// Appends an id. Callers must check [`fits`](Self::fits) first.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the id busts a budget.
    pub fn push(&mut self, req_id: ReqId) {
        debug_assert!(self.fits(), "NACK id pushed into a full batch");
        self.req_ids.push(req_id);
    }

    /// Takes the accumulated frame, leaving the builder empty for reuse.
    /// Returns `None` when nothing accumulated; a single id degenerates to a
    /// plain [`ClioPacket::Nack`] (no batch overhead on the wire).
    pub fn take(&mut self) -> Option<ClioPacket> {
        match self.req_ids.len() {
            0 => None,
            1 => {
                let req_id = self.req_ids.pop().expect("one id");
                Some(ClioPacket::Nack { req_id })
            }
            _ => Some(ClioPacket::BatchNack { req_ids: std::mem::take(&mut self.req_ids) }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::wire_len;
    use crate::types::{Pid, Status};

    fn read_entry(id: u64) -> (ReqHeader, RequestBody) {
        (ReqHeader::single(ReqId(id), Pid(1)), RequestBody::Read { va: id * 64, len: 32 })
    }

    #[test]
    fn op_budget_enforced() {
        let mut b = BatchBuilder::new(2, MTU_BYTES);
        for id in 0..2 {
            let (h, body) = read_entry(id);
            assert!(b.fits(request_wire_len(&body)));
            b.push(h, body);
        }
        let (_, body) = read_entry(2);
        assert!(!b.fits(request_wire_len(&body)), "third op exceeds max_ops=2");
    }

    #[test]
    fn byte_budget_and_mtu_enforced() {
        let (_, body) = read_entry(0);
        let entry = request_wire_len(&body);
        // Budget for exactly two entries.
        let mut b = BatchBuilder::new(64, BATCH_OVERHEAD_BYTES + 2 * entry);
        let (h0, b0) = read_entry(0);
        let (h1, b1) = read_entry(1);
        b.push(h0, b0);
        b.push(h1, b1);
        assert!(!b.fits(entry));
        // A byte budget above the MTU is clamped to the MTU.
        let clamped = BatchBuilder::new(64, 1 << 20);
        assert!(!clamped.fits(MTU_BYTES + 1));
    }

    #[test]
    fn single_entry_degenerates_to_plain_request() {
        let mut b = BatchBuilder::new(16, MTU_BYTES);
        let (h, body) = read_entry(7);
        b.push(h, body.clone());
        let pkt = b.take().expect("one entry");
        assert_eq!(pkt, ClioPacket::Request { header: h, body });
        assert!(b.take().is_none(), "builder resets after take");
    }

    #[test]
    fn multi_entry_batch_wire_len_tracked_exactly() {
        let mut b = BatchBuilder::new(16, MTU_BYTES);
        for id in 0..5 {
            let (h, body) = read_entry(id);
            b.push(h, body);
        }
        let predicted = b.wire_len();
        let pkt = b.take().expect("batch");
        assert!(matches!(pkt, ClioPacket::Batch { ref requests } if requests.len() == 5));
        assert_eq!(wire_len(&pkt), predicted);
    }

    fn resp_entry(id: u64, n: usize) -> (RespHeader, ResponseBody) {
        (
            RespHeader::single(ReqId(id), Status::Ok),
            ResponseBody::DataFrag { offset: 0, data: vec![0u8; n].into() },
        )
    }

    #[test]
    fn resp_builder_enforces_budgets_and_degenerates() {
        let mut b = RespBatchBuilder::new(2, MTU_BYTES);
        let (h0, b0) = resp_entry(1, 16);
        let entry = response_wire_len(&b0);
        assert!(b.fits(entry));
        b.push(h0, b0.clone());
        let pkt = b.take().expect("one entry");
        assert_eq!(pkt, ClioPacket::Response { header: h0, body: b0 });
        assert!(b.take().is_none(), "builder resets after take");
        // Op budget.
        for id in 0..2 {
            let (h, body) = resp_entry(id, 16);
            b.push(h, body);
        }
        assert!(!b.fits(entry), "third entry exceeds max_ops=2");
        // Byte budget clamps to the MTU.
        let clamped = RespBatchBuilder::new(64, 1 << 20);
        assert!(!clamped.fits(MTU_BYTES + 1));
    }

    #[test]
    fn nack_builder_budgets_and_degeneration() {
        let mut b = NackBatchBuilder::new(2, MTU_BYTES);
        assert!(b.is_empty() && b.take().is_none());
        b.push(ReqId(1));
        let pkt = b.take().expect("one id");
        assert_eq!(pkt, ClioPacket::Nack { req_id: ReqId(1) }, "lone NACK stays plain");
        // Op budget.
        b.push(ReqId(1));
        b.push(ReqId(2));
        assert!(!b.fits(), "third id exceeds max_ops=2");
        let predicted = b.wire_len();
        let pkt = b.take().expect("batch");
        assert!(matches!(pkt, ClioPacket::BatchNack { ref req_ids } if req_ids.len() == 2));
        assert_eq!(wire_len(&pkt), predicted);
        assert!(b.is_empty(), "builder resets after take");
        // Byte budget: room for exactly three ids.
        let tight = NackBatchBuilder::new(64, BATCH_OVERHEAD_BYTES + 3 * NACK_ENTRY_BYTES);
        let mut tight = tight;
        for id in 0..3 {
            assert!(tight.fits());
            tight.push(ReqId(id));
        }
        assert!(!tight.fits(), "fourth id exceeds the byte budget");
    }

    #[test]
    fn multi_entry_resp_batch_wire_len_tracked_exactly() {
        let mut b = RespBatchBuilder::new(16, MTU_BYTES);
        for id in 0..5 {
            let (h, body) = resp_entry(id, 32);
            b.push(h, body);
        }
        let predicted = b.wire_len();
        let pkt = b.take().expect("batch");
        assert!(matches!(pkt, ClioPacket::BatchResp { ref responses } if responses.len() == 5));
        assert_eq!(wire_len(&pkt), predicted);
    }
}
