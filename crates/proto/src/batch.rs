//! MTU-bounded packing of small packets into batch frames. One
//! [`Packer`] serves all three directions through the [`BatchEntry`] it is
//! instantiated over: `(ReqHeader, RequestBody)` entries pack into
//! [`ClioPacket::Batch`] (CN → MN; the [`BatchBuilder`] alias),
//! `(RespHeader, ResponseBody)` entries into [`ClioPacket::BatchResp`]
//! (MN → CN), and the [`ReqId`]s of one corrupted batch frame into
//! [`ClioPacket::BatchNack`] (MN → CN, the error path).
//!
//! Clio's asynchronous API (§4.5 T1) keeps many small requests in flight;
//! sent one per frame, a 16–64 B operation pays ~38 B of Ethernet overhead
//! plus a full Clio header of framing per op — and its reply pays the same
//! again on the board's 10 Gbps egress port. The packer puts several
//! same-destination single-packet entries into one wire frame under three
//! budgets: the link MTU (always), a caller-chosen byte budget, and a
//! caller-chosen op-count budget. Every entry keeps its own header
//! ([`ReqHeader`] / [`RespHeader`]), so retries, deduplication, completion
//! matching and window accounting stay per logical request. An entry drops
//! only its packet tag, which the frame's tag implies: a `Batch` holds only
//! requests and a `BatchResp` only responses, so an entry costs its
//! standalone packet minus 1 B, and a lone entry leaves as its plain
//! packet, byte for byte.

use crate::codec::{request_entry_len, response_entry_len, BATCH_OVERHEAD_BYTES, NACK_ENTRY_BYTES};
use crate::mtu::MTU_BYTES;
use crate::packet::{ClioPacket, ReqHeader, RequestBody, RespHeader, ResponseBody};
use crate::types::ReqId;

/// One kind of entry a [`Packer`] coalesces: what it costs inside a batch
/// frame, the plain packet it travels as alone, and the frame several of
/// them share.
pub trait BatchEntry: Sized {
    /// Encoded bytes this entry adds to a batch frame.
    fn wire_len(&self) -> usize;
    /// The plain packet a lone entry travels as.
    fn lone(self) -> ClioPacket;
    /// The batch frame carrying `entries` (two or more).
    fn frame(entries: Vec<Self>) -> ClioPacket;
}

impl BatchEntry for (ReqHeader, RequestBody) {
    fn wire_len(&self) -> usize {
        request_entry_len(&self.0, &self.1)
    }
    fn lone(self) -> ClioPacket {
        ClioPacket::Request { header: self.0, body: self.1 }
    }
    fn frame(requests: Vec<Self>) -> ClioPacket {
        ClioPacket::Batch { requests }
    }
}

impl BatchEntry for (RespHeader, ResponseBody) {
    fn wire_len(&self) -> usize {
        response_entry_len(&self.0, &self.1)
    }
    fn lone(self) -> ClioPacket {
        ClioPacket::Response { header: self.0, body: self.1 }
    }
    fn frame(responses: Vec<Self>) -> ClioPacket {
        ClioPacket::BatchResp { responses }
    }
}

impl BatchEntry for ReqId {
    fn wire_len(&self) -> usize {
        NACK_ENTRY_BYTES
    }
    fn lone(self) -> ClioPacket {
        ClioPacket::Nack { req_id: self }
    }
    fn frame(req_ids: Vec<Self>) -> ClioPacket {
        ClioPacket::BatchNack { req_ids }
    }
}

/// Accumulates entries into an MTU-bounded batch frame.
///
/// `take` yields the entry's plain packet when only one accumulated, so a
/// lone entry's wire image is byte-identical to the unbatched protocol and
/// batching is a pure overlay.
#[derive(Debug, Clone)]
pub struct Packer<E> {
    entries: Vec<E>,
    wire: usize,
    max_ops: usize,
    max_bytes: usize,
}

/// The request packer (CN → MN).
pub type BatchBuilder = Packer<(ReqHeader, RequestBody)>;

impl<E: BatchEntry> Packer<E> {
    /// A packer admitting at most `max_ops` entries and at most
    /// `max_bytes` of encoded batch frame (clamped to the MTU; values below
    /// the smallest possible frame effectively disable multi-op batches).
    pub fn new(max_ops: usize, max_bytes: usize) -> Self {
        Packer {
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

    /// Whether an entry adding `entry_wire` bytes ([`BatchEntry::wire_len`])
    /// can join the current batch without busting the op, byte, or MTU
    /// budget.
    pub fn fits(&self, entry_wire: usize) -> bool {
        self.entries.len() < self.max_ops && self.wire + entry_wire <= self.max_bytes
    }

    fn add(&mut self, entry: E) {
        let wire = entry.wire_len();
        debug_assert!(self.fits(wire), "entry of {wire} B pushed into a full batch");
        self.wire += wire;
        self.entries.push(entry);
    }

    /// Takes the accumulated frame, leaving the packer empty for reuse.
    /// Returns `None` when nothing accumulated; a single entry degenerates
    /// to its plain packet (no batch overhead on the wire).
    pub fn take(&mut self) -> Option<ClioPacket> {
        self.wire = BATCH_OVERHEAD_BYTES;
        match self.entries.len() {
            0 => None,
            1 => self.entries.pop().map(E::lone),
            _ => Some(E::frame(std::mem::take(&mut self.entries))),
        }
    }
}

impl<H, B> Packer<(H, B)>
where
    (H, B): BatchEntry,
{
    /// Appends an entry. Callers must check [`fits`](Self::fits) first.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the entry busts a budget.
    pub fn push(&mut self, header: H, body: B) {
        self.add((header, body));
    }
}

impl Packer<ReqId> {
    /// Appends a NACKed id. Callers must check [`fits`](Self::fits) first.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the id busts a budget.
    pub fn push(&mut self, req_id: ReqId) {
        self.add(req_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::wire_len;
    use crate::types::{Pid, Status};

    /// A read whose header carries `retry_of` for odd ids, so entries
    /// differ in size.
    fn read_entry(id: u64) -> (ReqHeader, RequestBody) {
        let header = ReqHeader {
            retry_of: (id % 2 == 1).then(|| ReqId(id - 1)),
            ..ReqHeader::single(ReqId(id), Pid(1))
        };
        (header, RequestBody::Read { va: id * 64, len: 32 })
    }

    fn resp_entry(id: u64, n: usize) -> (RespHeader, ResponseBody) {
        (
            RespHeader::single(ReqId(id), Status::Ok),
            ResponseBody::DataFrag { offset: 0, data: vec![0u8; n].into() },
        )
    }

    /// The op budget refuses the entry after `max_ops`, the byte budget the
    /// entry after the last that fits, and a byte budget above the MTU is
    /// clamped to it — whatever the entry type.
    fn enforces_budgets<E: BatchEntry>(entry: impl Fn(u64) -> E) {
        let wire = |id| entry(id).wire_len();
        let mut ops = Packer::new(2, MTU_BYTES);
        for id in 0..2 {
            assert!(ops.fits(wire(id)));
            ops.add(entry(id));
        }
        assert!(!ops.fits(wire(2)), "third entry exceeds max_ops=2");
        let mut bytes = Packer::new(64, BATCH_OVERHEAD_BYTES + (0..3).map(wire).sum::<usize>());
        for id in 0..3 {
            assert!(bytes.fits(wire(id)));
            bytes.add(entry(id));
        }
        assert!(!bytes.fits(wire(3)), "fourth entry exceeds the byte budget");
        let clamped = Packer::<E>::new(64, 1 << 20);
        assert!(!clamped.fits(MTU_BYTES + 1));
    }

    /// A lone entry leaves as its plain packet; several leave as one frame
    /// whose encoded size the packer tracked exactly; `take` resets.
    fn degenerates_and_tracks_wire_len<E: BatchEntry>(entry: impl Fn(u64) -> E) -> ClioPacket {
        let mut p = Packer::new(16, MTU_BYTES);
        assert!(p.is_empty() && p.take().is_none());
        p.add(entry(7));
        assert_eq!(p.take().expect("one entry"), entry(7).lone(), "lone entry stays plain");
        assert!(p.take().is_none(), "packer resets after take");
        for id in 0..5 {
            p.add(entry(id));
        }
        assert_eq!(p.len(), 5);
        let predicted = p.wire_len();
        let pkt = p.take().expect("batch");
        assert_eq!(wire_len(&pkt), predicted);
        assert!(p.is_empty(), "packer resets after take");
        pkt
    }

    #[test]
    fn op_budget_enforced() {
        let mut b = BatchBuilder::new(2, MTU_BYTES);
        for id in 0..2 {
            let (h, body) = read_entry(id);
            assert!(b.fits(request_entry_len(&h, &body)));
            b.push(h, body);
        }
        let (h, body) = read_entry(2);
        assert!(!b.fits(request_entry_len(&h, &body)), "third op exceeds max_ops=2");
    }

    #[test]
    fn byte_budget_and_mtu_enforced() {
        enforces_budgets(read_entry);
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
        let pkt = degenerates_and_tracks_wire_len(read_entry);
        assert!(matches!(pkt, ClioPacket::Batch { ref requests } if requests.len() == 5));
    }

    #[test]
    fn resp_builder_enforces_budgets_and_degenerates() {
        enforces_budgets(|id| resp_entry(id, 16));
        let mut b = Packer::<(RespHeader, ResponseBody)>::new(2, MTU_BYTES);
        let (h, body) = resp_entry(1, 16);
        b.push(h, body.clone());
        assert_eq!(b.take().expect("one entry"), ClioPacket::Response { header: h, body });
    }

    #[test]
    fn nack_builder_budgets_and_degeneration() {
        enforces_budgets(ReqId);
        let pkt = degenerates_and_tracks_wire_len(ReqId);
        assert!(matches!(pkt, ClioPacket::BatchNack { ref req_ids } if req_ids.len() == 5));
        let mut b = Packer::<ReqId>::new(2, MTU_BYTES);
        b.push(ReqId(1));
        assert_eq!(b.take(), Some(ClioPacket::Nack { req_id: ReqId(1) }), "lone NACK stays plain");
    }

    #[test]
    fn multi_entry_resp_batch_wire_len_tracked_exactly() {
        let pkt = degenerates_and_tracks_wire_len(|id| resp_entry(id, 32));
        assert!(matches!(pkt, ClioPacket::BatchResp { ref responses } if responses.len() == 5));
    }
}
