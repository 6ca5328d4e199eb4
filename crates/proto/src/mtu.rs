//! MTU splitting and response reassembly (paper §4.5 T1).
//!
//! Requests or responses larger than the link MTU are split into independent
//! link-layer packets at the CN. Each write fragment carries the absolute
//! virtual address it targets, so the memory node can execute fragments in
//! any order; read-response fragments carry their offset, and CLib reassembles
//! them with [`Reassembler`] before delivering data to the application.

use bytes::{Bytes, BytesMut};

use crate::codec;
use crate::packet::{ClioPacket, ReqHeader, RequestBody, RespHeader, ResponseBody};
use crate::types::{Pid, ReqId, Status};

/// Link MTU: the maximum encoded Clio packet size, in bytes.
pub const MTU_BYTES: usize = 1500;

/// Per-frame Ethernet overhead charged by the timing model on top of the
/// encoded packet: preamble (8) + MAC header (14) + FCS (4) + inter-frame
/// gap (12).
pub const ETH_OVERHEAD_BYTES: usize = 38;

/// Encoded bytes of packet tag + request header.
pub const CLIO_REQ_HEADER_BYTES: usize = codec::REQ_HEADER_LEN;

/// Encoded bytes of packet tag + response header.
pub const CLIO_RESP_HEADER_BYTES: usize = codec::RESP_HEADER_LEN;

/// Encoded overhead of a `WriteFrag` body besides its payload.
const WRITE_FRAG_BODY_OVERHEAD: usize = 1 + 8 + 4; // tag + va + len
/// Encoded overhead of a `DataFrag` body besides its payload.
const DATA_FRAG_BODY_OVERHEAD: usize = 1 + 4 + 4; // tag + offset + len

/// Maximum write payload per packet.
pub const MAX_WRITE_FRAG_PAYLOAD: usize =
    MTU_BYTES - CLIO_REQ_HEADER_BYTES - WRITE_FRAG_BODY_OVERHEAD;

/// Maximum read-response payload per packet.
pub const MAX_READ_FRAG_PAYLOAD: usize =
    MTU_BYTES - CLIO_RESP_HEADER_BYTES - DATA_FRAG_BODY_OVERHEAD;

/// Splits a write of `data` at `va` into MTU-sized request packets.
///
/// Every fragment repeats the request id and carries its own absolute target
/// address; `pkt_count` tells the MN how many fragments make up the request.
/// Zero-length writes produce a single empty fragment so the request still
/// gets a response.
pub fn split_write(
    req_id: ReqId,
    retry_of: Option<ReqId>,
    pid: Pid,
    va: u64,
    data: Bytes,
) -> Vec<ClioPacket> {
    let count = data.len().div_ceil(MAX_WRITE_FRAG_PAYLOAD).max(1);
    assert!(count <= u16::MAX as usize, "write too large to fragment: {} bytes", data.len());
    let mut pkts = Vec::with_capacity(count);
    for i in 0..count {
        let lo = i * MAX_WRITE_FRAG_PAYLOAD;
        let hi = ((i + 1) * MAX_WRITE_FRAG_PAYLOAD).min(data.len());
        pkts.push(ClioPacket::Request {
            header: ReqHeader {
                req_id,
                retry_of,
                pid,
                pkt_index: i as u16,
                pkt_count: count as u16,
                trace: None,
                srtt_echo_ns: None,
            },
            body: RequestBody::WriteFrag { va: va + lo as u64, data: data.slice(lo..hi) },
        });
    }
    pkts
}

/// Splits read-response `data` into MTU-sized response packets.
pub fn split_read_response(req_id: ReqId, status: Status, data: Bytes) -> Vec<ClioPacket> {
    read_response_fragments(req_id, status, data).collect()
}

/// The MTU-sized response packets of read-response `data`, in offset order,
/// produced one at a time (the board queues each for egress as it comes, so
/// a single-fragment read builds no list).
pub fn read_response_fragments(
    req_id: ReqId,
    status: Status,
    data: Bytes,
) -> impl ExactSizeIterator<Item = ClioPacket> {
    let count = data.len().div_ceil(MAX_READ_FRAG_PAYLOAD).max(1);
    assert!(count <= u16::MAX as usize, "response too large to fragment");
    (0..count).map(move |i| {
        let lo = i * MAX_READ_FRAG_PAYLOAD;
        let hi = ((i + 1) * MAX_READ_FRAG_PAYLOAD).min(data.len());
        ClioPacket::Response {
            header: RespHeader { req_id, status, pkt_index: i as u16, pkt_count: count as u16 },
            body: ResponseBody::DataFrag { offset: lo as u32, data: data.slice(lo..hi) },
        }
    })
}

#[derive(Debug, Clone, Default)]
struct Partial {
    expected: u16,
    got: Vec<Option<(u32, Bytes)>>,
    received: u16,
}

/// Reassembles multi-packet read responses at the CN (§4.5 T1).
///
/// Fragments may arrive in any order and duplicates are ignored. When the
/// last fragment of a request arrives, [`accept`](Reassembler::accept)
/// returns the full contiguous payload.
#[derive(Debug, Clone, Default)]
pub struct Reassembler {
    /// Sorted by request id. A CN's ids only grow, so new partials append
    /// and lookups are a binary search over the few reads in flight — no
    /// hashing on the per-fragment path.
    partials: Vec<(ReqId, Partial)>,
}

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one response fragment. Returns the complete payload once all
    /// `pkt_count` fragments of the request have arrived.
    pub fn accept(&mut self, header: RespHeader, offset: u32, data: Bytes) -> Option<Bytes> {
        if header.pkt_count <= 1 {
            return Some(data);
        }
        let at = match self.partials.binary_search_by_key(&header.req_id, |(id, _)| *id) {
            Ok(at) => at,
            Err(at) => {
                let fresh = Partial {
                    expected: header.pkt_count,
                    got: vec![None; header.pkt_count as usize],
                    received: 0,
                };
                self.partials.insert(at, (header.req_id, fresh));
                at
            }
        };
        let p = &mut self.partials[at].1;
        let idx = header.pkt_index as usize;
        if idx >= p.got.len() || p.got[idx].is_some() {
            return None; // duplicate or malformed index: ignore
        }
        p.got[idx] = Some((offset, data));
        p.received += 1;
        if p.received < p.expected {
            return None;
        }
        let (_, p) = self.partials.remove(at);
        let mut frags: Vec<(u32, Bytes)> =
            p.got.into_iter().map(|f| f.expect("all fragments received")).collect();
        frags.sort_by_key(|(off, _)| *off);
        let total: usize = frags.iter().map(|(_, d)| d.len()).sum();
        let mut out = BytesMut::with_capacity(total);
        for (_, d) in frags {
            out.extend_from_slice(&d);
        }
        Some(out.freeze())
    }

    /// Drops any partial state for `req_id` (e.g. when the request times out
    /// and is retried under a new id).
    pub fn forget(&mut self, req_id: ReqId) {
        if let Ok(at) = self.partials.binary_search_by_key(&req_id, |(id, _)| *id) {
            self.partials.remove(at);
        }
    }

    /// Number of requests with outstanding partial fragments.
    pub fn pending(&self) -> usize {
        self.partials.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode, wire_len};

    fn payload(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn fragments_fit_in_mtu() {
        let data = payload(1_000_000);
        for pkt in split_write(ReqId(1), None, Pid(1), 0x1000, data.clone()) {
            assert!(wire_len(&pkt) <= MTU_BYTES, "{} > MTU", wire_len(&pkt));
            assert_eq!(encode(&pkt).len(), wire_len(&pkt));
        }
        for pkt in split_read_response(ReqId(1), Status::Ok, data) {
            assert!(wire_len(&pkt) <= MTU_BYTES);
        }
    }

    #[test]
    fn small_write_is_single_packet() {
        let pkts = split_write(ReqId(1), None, Pid(1), 0, payload(100));
        assert_eq!(pkts.len(), 1);
        let ClioPacket::Request { header, .. } = &pkts[0] else { panic!() };
        assert_eq!((header.pkt_index, header.pkt_count), (0, 1));
    }

    #[test]
    fn empty_write_still_produces_a_packet() {
        let pkts = split_write(ReqId(1), None, Pid(1), 0, Bytes::new());
        assert_eq!(pkts.len(), 1);
    }

    #[test]
    fn write_fragments_carry_absolute_addresses() {
        let data = payload(MAX_WRITE_FRAG_PAYLOAD * 2 + 17);
        let pkts = split_write(ReqId(9), None, Pid(1), 0x4000, data.clone());
        assert_eq!(pkts.len(), 3);
        let mut reconstructed = vec![0u8; data.len()];
        for pkt in &pkts {
            let ClioPacket::Request { header, body: RequestBody::WriteFrag { va, data: d } } = pkt
            else {
                panic!("expected write frag")
            };
            assert_eq!(header.req_id, ReqId(9));
            assert_eq!(header.pkt_count, 3);
            let off = (*va - 0x4000) as usize;
            reconstructed[off..off + d.len()].copy_from_slice(d);
        }
        assert_eq!(&reconstructed[..], &data[..]);
    }

    #[test]
    fn reassembly_in_any_order() {
        let data = payload(MAX_READ_FRAG_PAYLOAD * 3 + 5);
        let mut pkts = split_read_response(ReqId(3), Status::Ok, data.clone());
        pkts.reverse(); // worst-case arrival order
        let mut r = Reassembler::new();
        let mut out = None;
        for pkt in pkts {
            let ClioPacket::Response { header, body: ResponseBody::DataFrag { offset, data } } =
                pkt
            else {
                panic!("expected data frag")
            };
            let res = r.accept(header, offset, data);
            assert!(out.is_none() || res.is_none(), "completed twice");
            if res.is_some() {
                out = res;
            }
        }
        assert_eq!(out.expect("completed"), data);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn duplicates_ignored() {
        let data = payload(MAX_READ_FRAG_PAYLOAD + 1);
        let pkts = split_read_response(ReqId(3), Status::Ok, data.clone());
        assert_eq!(pkts.len(), 2);
        let frag = |i: usize| {
            let ClioPacket::Response { header, body: ResponseBody::DataFrag { offset, data } } =
                pkts[i].clone()
            else {
                panic!()
            };
            (header, offset, data)
        };
        let mut r = Reassembler::new();
        let (h0, o0, d0) = frag(0);
        assert!(r.accept(h0, o0, d0.clone()).is_none());
        assert!(r.accept(h0, o0, d0).is_none(), "duplicate must not complete");
        let (h1, o1, d1) = frag(1);
        assert_eq!(r.accept(h1, o1, d1).expect("complete"), data);
    }

    #[test]
    fn single_packet_response_passes_through() {
        let mut r = Reassembler::new();
        let h = RespHeader::single(ReqId(1), Status::Ok);
        let out = r.accept(h, 0, payload(10));
        assert_eq!(out.unwrap().len(), 10);
    }

    #[test]
    fn forget_discards_partial_state() {
        let data = payload(MAX_READ_FRAG_PAYLOAD + 1);
        let pkts = split_read_response(ReqId(3), Status::Ok, data);
        let ClioPacket::Response { header, body: ResponseBody::DataFrag { offset, data } } =
            pkts[0].clone()
        else {
            panic!()
        };
        let mut r = Reassembler::new();
        r.accept(header, offset, data);
        assert_eq!(r.pending(), 1);
        r.forget(ReqId(3));
        assert_eq!(r.pending(), 0);
    }
}
