//! Packet layouts: headers, request bodies and response bodies.

use bytes::Bytes;
use clio_trace::TraceCtx;

use crate::types::{Perm, Pid, ReqId, Status};

/// The Clio header attached to every request packet (§4.5 T1).
///
/// `pkt_index`/`pkt_count` describe the packet's position within a
/// multi-packet request (only writes exceed one packet); the MN uses the
/// count — not ordering — to know when a request is complete, so packets may
/// arrive in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqHeader {
    /// This packet's request id.
    pub req_id: ReqId,
    /// For retries: the id of the timed-out request this one replaces.
    pub retry_of: Option<ReqId>,
    /// Requesting process (protection domain).
    pub pid: Pid,
    /// Index of this packet within the request (0-based).
    pub pkt_index: u16,
    /// Total packets in the request.
    pub pkt_count: u16,
    /// Observability trace context. Models metadata carried in reserved
    /// header bits: it crosses the wire with the request but costs **zero**
    /// modeled bytes and is not serialized by the codec.
    pub trace: Option<TraceCtx>,
    /// The CN's smoothed RTT toward this MN, in nanoseconds, echoed so the
    /// MN's egress doorbell budget can derive from the same signal as the
    /// CN's request doorbell (5 encoded bytes; see `codec`).
    pub srtt_echo_ns: Option<u32>,
}

impl ReqHeader {
    /// Header for a single-packet request.
    pub fn single(req_id: ReqId, pid: Pid) -> Self {
        ReqHeader {
            req_id,
            retry_of: None,
            pid,
            pkt_index: 0,
            pkt_count: 1,
            trace: None,
            srtt_echo_ns: None,
        }
    }

    /// Marks this header as a retry of `orig`.
    pub fn retrying(mut self, orig: ReqId) -> Self {
        self.retry_of = Some(orig);
        self
    }
}

/// The header of every response packet. Responses double as ACKs (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RespHeader {
    /// The request this response answers.
    pub req_id: ReqId,
    /// Outcome.
    pub status: Status,
    /// Index of this packet within the response (only reads exceed one).
    pub pkt_index: u16,
    /// Total packets in the response.
    pub pkt_count: u16,
}

impl RespHeader {
    /// Header for a single-packet response.
    pub fn single(req_id: ReqId, status: Status) -> Self {
        RespHeader { req_id, status, pkt_index: 0, pkt_count: 1 }
    }
}

/// The operation carried by a request packet.
///
/// Atomics ([`RequestBody::AtomicTas`], [`AtomicStore`], [`AtomicCas`],
/// [`AtomicFaa`]) operate on 8-byte words and are serialized by the MN's
/// synchronization unit; Clio's `rlock`/`runlock` are built from `AtomicTas`
/// and `AtomicStore` (§4.5 T3).
///
/// [`AtomicStore`]: RequestBody::AtomicStore
/// [`AtomicCas`]: RequestBody::AtomicCas
/// [`AtomicFaa`]: RequestBody::AtomicFaa
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RequestBody {
    /// Read `len` bytes starting at `va`.
    Read {
        /// Start virtual address.
        va: u64,
        /// Bytes to read.
        len: u32,
    },
    /// One fragment of a (possibly multi-packet) write. `va` is the absolute
    /// target of **this fragment**, so fragments are order-independent.
    WriteFrag {
        /// Absolute virtual address this fragment writes.
        va: u64,
        /// Fragment payload.
        data: Bytes,
    },
    /// Allocate `size` bytes of virtual address space (slow path).
    Alloc {
        /// Requested size in bytes.
        size: u64,
        /// Permissions for the new range.
        perm: Perm,
        /// Optional fixed placement request (may be refused — §4.2
        /// "Limitation").
        fixed_va: Option<u64>,
    },
    /// Free a previously allocated range (slow path).
    Free {
        /// Start of the range.
        va: u64,
        /// Length of the range.
        size: u64,
    },
    /// Test-and-set the 8-byte word at `va` to 1; returns the old value.
    AtomicTas {
        /// Word address.
        va: u64,
    },
    /// Atomically store `value` into the 8-byte word at `va`.
    AtomicStore {
        /// Word address.
        va: u64,
        /// Value to store.
        value: u64,
    },
    /// Compare-and-swap on the 8-byte word at `va`; returns the old value.
    AtomicCas {
        /// Word address.
        va: u64,
        /// Expected current value.
        expected: u64,
        /// Replacement value.
        new: u64,
    },
    /// Fetch-and-add on the 8-byte word at `va`; returns the old value.
    AtomicFaa {
        /// Word address.
        va: u64,
        /// Addend (wrapping).
        delta: u64,
    },
    /// Block subsequent requests from this PID until all its in-flight
    /// requests complete (`rfence`, §4.5 T3).
    Fence,
    /// Create the remote address space for a new PID (slow path).
    CreateAs,
    /// Tear down a PID's address space and release its memory (slow path).
    DestroyAs,
    /// Invoke a computation offload on the extend path (§4.6).
    OffloadCall {
        /// Which installed offload to run.
        offload: u16,
        /// Offload-defined operation code.
        opcode: u16,
        /// Offload-defined argument bytes.
        arg: Bytes,
    },
}

impl RequestBody {
    /// True if the MN treats this as non-idempotent and must deduplicate
    /// retries through the dedup buffer (writes and atomics, §4.5 T4).
    pub fn is_non_idempotent(&self) -> bool {
        matches!(
            self,
            RequestBody::WriteFrag { .. }
                | RequestBody::AtomicTas { .. }
                | RequestBody::AtomicStore { .. }
                | RequestBody::AtomicCas { .. }
                | RequestBody::AtomicFaa { .. }
        )
    }

    /// True if the request is dispatched to the software slow path
    /// (metadata operations, §3.2).
    pub fn is_slow_path(&self) -> bool {
        matches!(
            self,
            RequestBody::Alloc { .. }
                | RequestBody::Free { .. }
                | RequestBody::CreateAs
                | RequestBody::DestroyAs
        )
    }

    /// True if the request is dispatched to the extend path.
    pub fn is_extend_path(&self) -> bool {
        matches!(self, RequestBody::OffloadCall { .. })
    }

    /// Payload bytes carried by this body (data for writes/offload args).
    pub fn payload_len(&self) -> usize {
        match self {
            RequestBody::WriteFrag { data, .. } => data.len(),
            RequestBody::OffloadCall { arg, .. } => arg.len(),
            _ => 0,
        }
    }
}

/// The payload of a response packet.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ResponseBody {
    /// One fragment of read data; `offset` is relative to the request's
    /// start address.
    DataFrag {
        /// Offset of this fragment within the read.
        offset: u32,
        /// Fragment bytes.
        data: Bytes,
    },
    /// Completion with no payload (writes, frees, fences, stores).
    Done,
    /// Result of an allocation: the assigned virtual address.
    Alloced {
        /// Start of the allocated range.
        va: u64,
    },
    /// Result of an atomic: the previous value of the word.
    AtomicOld {
        /// Value before the atomic applied.
        old: u64,
    },
    /// Offload-defined result bytes.
    OffloadReply {
        /// Result payload.
        data: Bytes,
    },
}

impl ResponseBody {
    /// Payload bytes carried by this body.
    pub fn payload_len(&self) -> usize {
        match self {
            ResponseBody::DataFrag { data, .. } => data.len(),
            ResponseBody::OffloadReply { data } => data.len(),
            _ => 0,
        }
    }
}

/// Any packet that crosses the wire between a CN and an MN.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ClioPacket {
    /// CN → MN request.
    Request {
        /// Per-packet Clio header.
        header: ReqHeader,
        /// Operation.
        body: RequestBody,
    },
    /// CN → MN batch: several small single-packet requests coalesced into
    /// one wire frame to amortize per-frame Ethernet overhead (§4.5 T1's
    /// async API makes such bursts common). Every entry keeps its own
    /// [`ReqHeader`] — its request id, `retry_of`, and pid — so the MN
    /// executes, deduplicates, and answers each entry exactly as if it had
    /// arrived alone; only the framing is shared.
    Batch {
        /// The coalesced requests, executed by the MN in order.
        requests: Vec<(ReqHeader, RequestBody)>,
    },
    /// MN → CN response (doubles as the ACK).
    Response {
        /// Response header.
        header: RespHeader,
        /// Result payload.
        body: ResponseBody,
    },
    /// MN → CN batch: several small single-packet responses coalesced into
    /// one wire frame — the egress mirror of [`Batch`](Self::Batch). The
    /// board's per-destination egress queue packs responses that complete
    /// within one doorbell hold; every entry keeps its own [`RespHeader`]
    /// (request id, status), so the CN transport completes, retries, and
    /// accounts for each entry exactly as if it had arrived alone.
    BatchResp {
        /// The coalesced responses.
        responses: Vec<(RespHeader, ResponseBody)>,
    },
    /// MN → CN link-layer NACK: the named request had a corrupted packet and
    /// should be retried immediately (§4.4).
    Nack {
        /// The corrupted request.
        req_id: ReqId,
    },
    /// MN → CN batched link-layer NACK: one corrupted [`Batch`](Self::Batch)
    /// frame NACKs **all** of its entries in a single frame, so the error
    /// path stays as frame-efficient as the fast path — a corrupted
    /// 16-entry batch costs one recovery frame, not sixteen. The CN
    /// transport unbatches at ingress and retries each entry exactly as if
    /// its NACK had arrived alone (and the resulting same-cause retries
    /// re-coalesce through the retry doorbell).
    BatchNack {
        /// The corrupted requests, in batch order.
        req_ids: Vec<ReqId>,
    },
}

impl ClioPacket {
    /// The request id this packet concerns. For a [`Batch`](Self::Batch),
    /// [`BatchResp`](Self::BatchResp) or [`BatchNack`](Self::BatchNack) this
    /// is the first entry's id (batches are never empty on the wire).
    pub fn req_id(&self) -> ReqId {
        match self {
            ClioPacket::Request { header, .. } => header.req_id,
            ClioPacket::Batch { requests } => {
                requests.first().map(|(h, _)| h.req_id).unwrap_or(ReqId(0))
            }
            ClioPacket::Response { header, .. } => header.req_id,
            ClioPacket::BatchResp { responses } => {
                responses.first().map(|(h, _)| h.req_id).unwrap_or(ReqId(0))
            }
            ClioPacket::Nack { req_id } => *req_id,
            ClioPacket::BatchNack { req_ids } => req_ids.first().copied().unwrap_or(ReqId(0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_classification() {
        assert!(RequestBody::Alloc { size: 1, perm: Perm::RW, fixed_va: None }.is_slow_path());
        assert!(RequestBody::Free { va: 0, size: 1 }.is_slow_path());
        assert!(RequestBody::CreateAs.is_slow_path());
        assert!(!RequestBody::Read { va: 0, len: 1 }.is_slow_path());
        assert!(
            RequestBody::OffloadCall { offload: 0, opcode: 0, arg: Bytes::new() }.is_extend_path()
        );
        assert!(!RequestBody::Fence.is_extend_path());
    }

    #[test]
    fn non_idempotent_ops_flagged() {
        assert!(
            RequestBody::WriteFrag { va: 0, data: Bytes::from_static(b"x") }.is_non_idempotent()
        );
        assert!(RequestBody::AtomicTas { va: 0 }.is_non_idempotent());
        assert!(RequestBody::AtomicCas { va: 0, expected: 0, new: 1 }.is_non_idempotent());
        assert!(RequestBody::AtomicFaa { va: 0, delta: 1 }.is_non_idempotent());
        assert!(RequestBody::AtomicStore { va: 0, value: 0 }.is_non_idempotent());
        assert!(!RequestBody::Read { va: 0, len: 8 }.is_non_idempotent());
        assert!(!RequestBody::Fence.is_non_idempotent());
    }

    #[test]
    fn header_builders() {
        let h = ReqHeader::single(ReqId(1), Pid(2)).retrying(ReqId(0));
        assert_eq!(h.retry_of, Some(ReqId(0)));
        assert_eq!((h.pkt_index, h.pkt_count), (0, 1));
        let r = RespHeader::single(ReqId(1), Status::Ok);
        assert!(r.status.is_ok());
    }

    #[test]
    fn req_id_extraction() {
        let p = ClioPacket::Nack { req_id: ReqId(42) };
        assert_eq!(p.req_id(), ReqId(42));
        let b = ClioPacket::BatchNack { req_ids: vec![ReqId(9), ReqId(10)] };
        assert_eq!(b.req_id(), ReqId(9));
    }

    #[test]
    fn payload_lengths() {
        assert_eq!(
            RequestBody::WriteFrag { va: 0, data: Bytes::from_static(b"abcd") }.payload_len(),
            4
        );
        assert_eq!(RequestBody::Read { va: 0, len: 100 }.payload_len(), 0);
        assert_eq!(
            ResponseBody::DataFrag { offset: 0, data: Bytes::from_static(b"ab") }.payload_len(),
            2
        );
        assert_eq!(ResponseBody::Done.payload_len(), 0);
    }
}
