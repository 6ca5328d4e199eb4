//! Byte-level encoding of [`ClioPacket`]s.
//!
//! The encoding has no varints, so packet sizes are predictable: the timing
//! model can compute a packet's wire footprint with [`wire_len`] without
//! materializing bytes, and tests assert the two always agree.
//!
//! A field the receiver can infer costs no bytes. A request header's flags
//! byte says whether `retry_of` follows and whether the request spans
//! several packets; only then do its packet index and count follow
//! ([`req_header_len`]). A response's status byte has a top bit that marks
//! "not one packet at offset 0"; only then do the packet index and count,
//! and a `DataFrag`'s offset, follow ([`response_len`]). Fragment lengths
//! are u16, since the MTU bounds them, and a batch entry drops its packet
//! tag, since the batch frame's own tag implies it.

use bytes::{BufMut, Bytes, BytesMut};

use crate::packet::{ClioPacket, ReqHeader, RequestBody, RespHeader, ResponseBody};
use crate::types::{Perm, Pid, ReqId, Status};

/// Errors produced by [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the packet was complete.
    Truncated,
    /// An unknown packet or body tag was encountered.
    BadTag(u8),
    /// An unknown status code was encountered.
    BadStatus(u8),
    /// Trailing bytes followed a complete packet.
    TrailingBytes(usize),
    /// A batch packet declared zero entries.
    EmptyBatch,
    /// A request header set a flag bit the codec does not know.
    BadFlags(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "packet truncated"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::BadStatus(s) => write!(f, "unknown status code {s}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after packet"),
            CodecError::EmptyBatch => write!(f, "batch packet with zero entries"),
            CodecError::BadFlags(b) => write!(f, "unknown request header flags {b:#04x}"),
        }
    }
}

impl std::error::Error for CodecError {}

const TAG_REQUEST: u8 = 0;
const TAG_RESPONSE: u8 = 1;
const TAG_NACK: u8 = 2;
const TAG_BATCH: u8 = 3;
const TAG_BATCH_RESP: u8 = 4;
const TAG_BATCH_NACK: u8 = 5;

const BODY_READ: u8 = 0;
const BODY_WRITE_FRAG: u8 = 1;
const BODY_ALLOC: u8 = 2;
const BODY_FREE: u8 = 3;
const BODY_TAS: u8 = 4;
const BODY_STORE: u8 = 5;
const BODY_CAS: u8 = 6;
const BODY_FAA: u8 = 7;
const BODY_FENCE: u8 = 8;
const BODY_CREATE_AS: u8 = 9;
const BODY_DESTROY_AS: u8 = 10;
const BODY_OFFLOAD: u8 = 11;

const RESP_DATA_FRAG: u8 = 0;
const RESP_DONE: u8 = 1;
const RESP_ALLOCED: u8 = 2;
const RESP_ATOMIC_OLD: u8 = 3;
const RESP_OFFLOAD: u8 = 4;

/// Header flag: an 8-byte [`ReqHeader::retry_of`] follows the pid (and
/// the packet index and count, when those travel).
const FLAG_RETRY: u8 = 1 << 0;
/// Header flag: the request spans several packets, so the packet index
/// and count (2 B each) follow the pid. Without it they read 0 of 1.
const FLAG_MULTI: u8 = 1 << 1;

/// Status-byte bit of a response that is not one packet at offset 0: the
/// packet index and count follow the status, and a `DataFrag` carries its
/// offset. Status codes use only the low seven bits.
const STATUS_MULTI: u8 = 1 << 7;

/// Encoded size of the packet tag plus a request header with neither
/// option: tag, request id, flags and pid.
const REQ_HEADER_BASE: usize = 1 + 8 + 1 + 8;

/// Encoded size of a header's packet index and count, which travel only
/// when the packet is not the whole request (or response).
const PKT_FIELDS_LEN: usize = 2 + 2;

/// Encoded size of the packet tag plus the largest request header: a
/// retried fragment's (4 B of packet index and count, 8 B of `retry_of`).
/// MTU fragment sizing uses it, so a fragment still fits when re-sent as a
/// retry. The header's trace context contributes nothing: it models
/// reserved header bits and never costs modeled wire bytes.
pub const REQ_HEADER_LEN: usize = REQ_HEADER_BASE + PKT_FIELDS_LEN + 8;
/// Encoded size of the packet tag plus the largest response header: a
/// fragment's, which carries its packet index and count. A lone response's
/// header costs 4 B less ([`response_len`]).
pub const RESP_HEADER_LEN: usize = 1 + 8 + 1 + PKT_FIELDS_LEN;
/// Fixed framing cost of a batch packet (packet tag + u16 entry count),
/// shared by request batches and response batches. Each entry then costs
/// what the same packet would cost standalone minus its 1 B packet tag,
/// which the frame's tag implies ([`request_entry_len`]: 17 B of header
/// for a first attempt, 25 B for a retry; [`response_entry_len`]: 9 B of
/// header), so batching `n` small packets saves `(n - 1)` per-frame
/// Ethernet overheads and `n` tags at the price of these 3 bytes.
pub const BATCH_OVERHEAD_BYTES: usize = 1 + 2;
/// Encoded size of a standalone NACK (packet tag + request id). A
/// batched-NACK entry costs [`NACK_ENTRY_BYTES`]; the id travels without the
/// per-entry tag byte because a NACK *is* just an id.
pub const NACK_WIRE_LEN: usize = 1 + 8;
/// Encoded size of one [`ClioPacket::BatchNack`] entry (a bare request id).
pub const NACK_ENTRY_BYTES: usize = 8;

/// Bytes a batch entry saves against its standalone packet: the packet
/// tag, which the batch frame's tag implies.
const ENTRY_TAG_LEN: usize = 1;

/// Whether `h` names anything but packet 0 of a one-packet request.
fn req_multi(h: &ReqHeader) -> bool {
    (h.pkt_index, h.pkt_count) != (0, 1)
}

/// Whether a response must say where it sits: anything but packet 0 of a
/// one-packet response, or a `DataFrag` at a non-zero offset.
fn resp_multi(h: &RespHeader, body: &ResponseBody) -> bool {
    (h.pkt_index, h.pkt_count) != (0, 1)
        || matches!(body, ResponseBody::DataFrag { offset, .. } if *offset != 0)
}

/// Writes a request header (tag excluded): request id, flags, pid, then
/// the packet index and count and `retry_of` if their flags are set.
fn put_req_header(buf: &mut BytesMut, h: &ReqHeader) {
    let multi = req_multi(h);
    buf.put_u64_le(h.req_id.0);
    let flags = if h.retry_of.is_some() { FLAG_RETRY } else { 0 };
    buf.put_u8(flags | if multi { FLAG_MULTI } else { 0 });
    buf.put_u64_le(h.pid.0);
    if multi {
        buf.put_u16_le(h.pkt_index);
        buf.put_u16_le(h.pkt_count);
    }
    if let Some(r) = h.retry_of {
        buf.put_u64_le(r.0);
    }
    // `h.trace` is deliberately not encoded (zero modeled wire bytes).
}

/// Writes offload bytes behind their u32 length.
fn put_bytes(buf: &mut BytesMut, b: &Bytes) {
    buf.put_u32_le(b.len() as u32);
    buf.put_slice(b);
}

/// Writes fragment bytes behind their u16 length: the MTU bounds a
/// fragment, so no valid one needs more.
fn put_frag(buf: &mut BytesMut, b: &Bytes) {
    buf.put_u16_le(u16::try_from(b.len()).expect("a fragment fits in one packet"));
    buf.put_slice(b);
}

fn put_request(buf: &mut BytesMut, header: &ReqHeader, body: &RequestBody) {
    put_req_header(buf, header);
    match body {
        RequestBody::Read { va, len } => {
            buf.put_u8(BODY_READ);
            buf.put_u64_le(*va);
            buf.put_u32_le(*len);
        }
        RequestBody::WriteFrag { va, data } => {
            buf.put_u8(BODY_WRITE_FRAG);
            buf.put_u64_le(*va);
            put_frag(buf, data);
        }
        RequestBody::Alloc { size, perm, fixed_va } => {
            buf.put_u8(BODY_ALLOC);
            buf.put_u64_le(*size);
            buf.put_u8(perm.bits());
            match fixed_va {
                Some(va) => {
                    buf.put_u8(1);
                    buf.put_u64_le(*va);
                }
                None => {
                    buf.put_u8(0);
                    buf.put_u64_le(0);
                }
            }
        }
        RequestBody::Free { va, size } => {
            buf.put_u8(BODY_FREE);
            buf.put_u64_le(*va);
            buf.put_u64_le(*size);
        }
        RequestBody::AtomicTas { va } => {
            buf.put_u8(BODY_TAS);
            buf.put_u64_le(*va);
        }
        RequestBody::AtomicStore { va, value } => {
            buf.put_u8(BODY_STORE);
            buf.put_u64_le(*va);
            buf.put_u64_le(*value);
        }
        RequestBody::AtomicCas { va, expected, new } => {
            buf.put_u8(BODY_CAS);
            buf.put_u64_le(*va);
            buf.put_u64_le(*expected);
            buf.put_u64_le(*new);
        }
        RequestBody::AtomicFaa { va, delta } => {
            buf.put_u8(BODY_FAA);
            buf.put_u64_le(*va);
            buf.put_u64_le(*delta);
        }
        RequestBody::Fence => buf.put_u8(BODY_FENCE),
        RequestBody::CreateAs => buf.put_u8(BODY_CREATE_AS),
        RequestBody::DestroyAs => buf.put_u8(BODY_DESTROY_AS),
        RequestBody::OffloadCall { offload, opcode, arg } => {
            buf.put_u8(BODY_OFFLOAD);
            buf.put_u16_le(*offload);
            buf.put_u16_le(*opcode);
            put_bytes(buf, arg);
        }
    }
}

/// Writes a response (tag excluded): request id, status, the packet index
/// and count when [`resp_multi`], then the body.
fn put_response(buf: &mut BytesMut, header: &RespHeader, body: &ResponseBody) {
    let multi = resp_multi(header, body);
    buf.put_u64_le(header.req_id.0);
    buf.put_u8(header.status.to_wire() | if multi { STATUS_MULTI } else { 0 });
    if multi {
        buf.put_u16_le(header.pkt_index);
        buf.put_u16_le(header.pkt_count);
    }
    match body {
        ResponseBody::DataFrag { offset, data } => {
            buf.put_u8(RESP_DATA_FRAG);
            if multi {
                buf.put_u32_le(*offset);
            }
            put_frag(buf, data);
        }
        ResponseBody::Done => buf.put_u8(RESP_DONE),
        ResponseBody::Alloced { va } => {
            buf.put_u8(RESP_ALLOCED);
            buf.put_u64_le(*va);
        }
        ResponseBody::AtomicOld { old } => {
            buf.put_u8(RESP_ATOMIC_OLD);
            buf.put_u64_le(*old);
        }
        ResponseBody::OffloadReply { data } => {
            buf.put_u8(RESP_OFFLOAD);
            put_bytes(buf, data);
        }
    }
}

/// Serializes a packet to its wire bytes.
pub fn encode(pkt: &ClioPacket) -> Bytes {
    let mut buf = BytesMut::with_capacity(wire_len(pkt));
    match pkt {
        ClioPacket::Request { header, body } => {
            buf.put_u8(TAG_REQUEST);
            put_request(&mut buf, header, body);
        }
        ClioPacket::Batch { requests } => {
            debug_assert!(!requests.is_empty(), "batches must carry at least one request");
            buf.put_u8(TAG_BATCH);
            buf.put_u16_le(requests.len() as u16);
            // Each entry is an embedded request packet without its tag,
            // so an entry's encoded size is exactly `request_entry_len`
            // and unbatching reuses the request parser.
            for (header, body) in requests {
                put_request(&mut buf, header, body);
            }
        }
        ClioPacket::Response { header, body } => {
            buf.put_u8(TAG_RESPONSE);
            put_response(&mut buf, header, body);
        }
        ClioPacket::BatchResp { responses } => {
            debug_assert!(!responses.is_empty(), "batches must carry at least one response");
            buf.put_u8(TAG_BATCH_RESP);
            buf.put_u16_le(responses.len() as u16);
            // As with request batches, each entry is an embedded response
            // packet without its tag (`response_entry_len`).
            for (header, body) in responses {
                put_response(&mut buf, header, body);
            }
        }
        ClioPacket::Nack { req_id } => {
            buf.put_u8(TAG_NACK);
            buf.put_u64_le(req_id.0);
        }
        ClioPacket::BatchNack { req_ids } => {
            debug_assert!(!req_ids.is_empty(), "batches must carry at least one NACK");
            buf.put_u8(TAG_BATCH_NACK);
            buf.put_u16_le(req_ids.len() as u16);
            // Entries are bare ids (no embedded tag): a NACK carries nothing
            // but the request id, so `NACK_ENTRY_BYTES` is the whole entry.
            for id in req_ids {
                buf.put_u64_le(id.0);
            }
        }
    }
    buf.freeze()
}

/// The exact encoded size of the packet tag plus header `h`: a `retry_of`
/// it does not carry costs nothing, and neither do the packet index and
/// count of a one-packet request.
pub fn req_header_len(h: &ReqHeader) -> usize {
    REQ_HEADER_BASE + PKT_FIELDS_LEN * req_multi(h) as usize + 8 * h.retry_of.is_some() as usize
}

/// The exact encoded size of one request (header + body) framed as a
/// standalone [`ClioPacket::Request`].
pub fn request_len(header: &ReqHeader, body: &RequestBody) -> usize {
    req_header_len(header) + req_body_len(body)
}

/// The exact encoded size of one request as a [`ClioPacket::Batch`]
/// entry: [`request_len`] without the packet tag. Callers pack batches
/// against the MTU with it.
pub fn request_entry_len(header: &ReqHeader, body: &RequestBody) -> usize {
    request_len(header, body) - ENTRY_TAG_LEN
}

/// The encoded size of one request with the largest header
/// ([`REQ_HEADER_LEN`]): no request with `body` costs more on the wire.
pub fn request_wire_len(body: &RequestBody) -> usize {
    REQ_HEADER_LEN + req_body_len(body)
}

/// The encoded size of a request body, its tag included.
fn req_body_len(body: &RequestBody) -> usize {
    1 + match body {
        RequestBody::Read { .. } => 12,
        RequestBody::WriteFrag { data, .. } => 8 + 2 + data.len(),
        RequestBody::Alloc { .. } => 8 + 1 + 1 + 8,
        RequestBody::Free { .. } => 16,
        RequestBody::AtomicTas { .. } => 8,
        RequestBody::AtomicStore { .. } => 16,
        RequestBody::AtomicCas { .. } => 24,
        RequestBody::AtomicFaa { .. } => 16,
        RequestBody::Fence | RequestBody::CreateAs | RequestBody::DestroyAs => 0,
        RequestBody::OffloadCall { arg, .. } => 2 + 2 + 4 + arg.len(),
    }
}

/// The exact encoded size of one response (header + body) framed as a
/// standalone [`ClioPacket::Response`]: a lone response at offset 0 pays
/// neither the packet index and count nor a `DataFrag` offset.
pub fn response_len(header: &RespHeader, body: &ResponseBody) -> usize {
    let multi = resp_multi(header, body);
    RESP_HEADER_LEN - PKT_FIELDS_LEN * !multi as usize
        + 1
        + match body {
            ResponseBody::DataFrag { data, .. } => 4 * multi as usize + 2 + data.len(),
            ResponseBody::Done => 0,
            ResponseBody::Alloced { .. } => 8,
            ResponseBody::AtomicOld { .. } => 8,
            ResponseBody::OffloadReply { data } => 4 + data.len(),
        }
}

/// The exact encoded size of one response as a [`ClioPacket::BatchResp`]
/// entry: [`response_len`] without the packet tag. The board's egress
/// queue packs response batches against the MTU with it.
pub fn response_entry_len(header: &RespHeader, body: &ResponseBody) -> usize {
    response_len(header, body) - ENTRY_TAG_LEN
}

/// The exact number of bytes [`encode`] will produce, computed analytically
/// (used by the timing model on every packet send).
pub fn wire_len(pkt: &ClioPacket) -> usize {
    match pkt {
        ClioPacket::Request { header, body } => request_len(header, body),
        ClioPacket::Batch { requests } => {
            BATCH_OVERHEAD_BYTES
                + requests.iter().map(|(h, body)| request_entry_len(h, body)).sum::<usize>()
        }
        ClioPacket::Response { header, body } => response_len(header, body),
        ClioPacket::BatchResp { responses } => {
            BATCH_OVERHEAD_BYTES
                + responses.iter().map(|(h, body)| response_entry_len(h, body)).sum::<usize>()
        }
        ClioPacket::Nack { .. } => NACK_WIRE_LEN,
        ClioPacket::BatchNack { req_ids } => {
            BATCH_OVERHEAD_BYTES + req_ids.len() * NACK_ENTRY_BYTES
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn bytes(&mut self) -> Result<Bytes, CodecError> {
        let len = self.u32()? as usize;
        Ok(Bytes::copy_from_slice(self.take(len)?))
    }
    fn frag(&mut self) -> Result<Bytes, CodecError> {
        let len = self.u16()? as usize;
        Ok(Bytes::copy_from_slice(self.take(len)?))
    }
}

/// Parses one request (header + body) from `r`: the packet tag is
/// consumed already, or absent in a batch entry.
fn read_request(r: &mut Reader<'_>) -> Result<(ReqHeader, RequestBody), CodecError> {
    let req_id = ReqId(r.u64()?);
    let flags = r.u8()?;
    if flags & !(FLAG_RETRY | FLAG_MULTI) != 0 {
        return Err(CodecError::BadFlags(flags));
    }
    let pid = Pid(r.u64()?);
    let (pkt_index, pkt_count) =
        if flags & FLAG_MULTI != 0 { (r.u16()?, r.u16()?) } else { (0, 1) };
    let retry_of = if flags & FLAG_RETRY != 0 { Some(ReqId(r.u64()?)) } else { None };
    let header = ReqHeader { req_id, retry_of, pid, pkt_index, pkt_count, trace: None };
    let body = match r.u8()? {
        BODY_READ => RequestBody::Read { va: r.u64()?, len: r.u32()? },
        BODY_WRITE_FRAG => RequestBody::WriteFrag { va: r.u64()?, data: r.frag()? },
        BODY_ALLOC => {
            let size = r.u64()?;
            let perm = Perm::from_bits(r.u8()?);
            let has_fixed = r.u8()? != 0;
            let fixed_raw = r.u64()?;
            RequestBody::Alloc { size, perm, fixed_va: has_fixed.then_some(fixed_raw) }
        }
        BODY_FREE => RequestBody::Free { va: r.u64()?, size: r.u64()? },
        BODY_TAS => RequestBody::AtomicTas { va: r.u64()? },
        BODY_STORE => RequestBody::AtomicStore { va: r.u64()?, value: r.u64()? },
        BODY_CAS => RequestBody::AtomicCas { va: r.u64()?, expected: r.u64()?, new: r.u64()? },
        BODY_FAA => RequestBody::AtomicFaa { va: r.u64()?, delta: r.u64()? },
        BODY_FENCE => RequestBody::Fence,
        BODY_CREATE_AS => RequestBody::CreateAs,
        BODY_DESTROY_AS => RequestBody::DestroyAs,
        BODY_OFFLOAD => {
            RequestBody::OffloadCall { offload: r.u16()?, opcode: r.u16()?, arg: r.bytes()? }
        }
        t => return Err(CodecError::BadTag(t)),
    };
    Ok((header, body))
}

/// Parses one response (header + body) from `r`: the packet tag is
/// consumed already, or absent in a batch entry.
fn read_response(r: &mut Reader<'_>) -> Result<(RespHeader, ResponseBody), CodecError> {
    let req_id = ReqId(r.u64()?);
    let status_raw = r.u8()?;
    let multi = status_raw & STATUS_MULTI != 0;
    let status_code = status_raw & !STATUS_MULTI;
    let status = Status::from_wire(status_code).ok_or(CodecError::BadStatus(status_code))?;
    let (pkt_index, pkt_count) = if multi { (r.u16()?, r.u16()?) } else { (0, 1) };
    let header = RespHeader { req_id, status, pkt_index, pkt_count };
    let body = match r.u8()? {
        RESP_DATA_FRAG => {
            let offset = if multi { r.u32()? } else { 0 };
            ResponseBody::DataFrag { offset, data: r.frag()? }
        }
        RESP_DONE => ResponseBody::Done,
        RESP_ALLOCED => ResponseBody::Alloced { va: r.u64()? },
        RESP_ATOMIC_OLD => ResponseBody::AtomicOld { old: r.u64()? },
        RESP_OFFLOAD => ResponseBody::OffloadReply { data: r.bytes()? },
        t => return Err(CodecError::BadTag(t)),
    };
    Ok((header, body))
}

/// Parses a packet from wire bytes.
///
/// # Errors
///
/// Returns a [`CodecError`] for truncated input, unknown tags/status codes,
/// empty batches, or trailing garbage.
pub fn decode(bytes: &[u8]) -> Result<ClioPacket, CodecError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let pkt = match r.u8()? {
        TAG_REQUEST => {
            let (header, body) = read_request(&mut r)?;
            ClioPacket::Request { header, body }
        }
        TAG_BATCH => {
            let count = r.u16()? as usize;
            if count == 0 {
                return Err(CodecError::EmptyBatch);
            }
            let mut requests = Vec::with_capacity(count);
            for _ in 0..count {
                requests.push(read_request(&mut r)?);
            }
            ClioPacket::Batch { requests }
        }
        TAG_RESPONSE => {
            let (header, body) = read_response(&mut r)?;
            ClioPacket::Response { header, body }
        }
        TAG_BATCH_RESP => {
            let count = r.u16()? as usize;
            if count == 0 {
                return Err(CodecError::EmptyBatch);
            }
            let mut responses = Vec::with_capacity(count);
            for _ in 0..count {
                responses.push(read_response(&mut r)?);
            }
            ClioPacket::BatchResp { responses }
        }
        TAG_NACK => ClioPacket::Nack { req_id: ReqId(r.u64()?) },
        TAG_BATCH_NACK => {
            let count = r.u16()? as usize;
            if count == 0 {
                return Err(CodecError::EmptyBatch);
            }
            let mut req_ids = Vec::with_capacity(count);
            for _ in 0..count {
                req_ids.push(ReqId(r.u64()?));
            }
            ClioPacket::BatchNack { req_ids }
        }
        t => return Err(CodecError::BadTag(t)),
    };
    if r.pos != bytes.len() {
        return Err(CodecError::TrailingBytes(bytes.len() - r.pos));
    }
    Ok(pkt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(pkt: ClioPacket) {
        let bytes = encode(&pkt);
        assert_eq!(bytes.len(), wire_len(&pkt), "wire_len mismatch for {pkt:?}");
        assert_eq!(decode(&bytes).expect("decode"), pkt);
    }

    #[test]
    fn all_request_bodies_roundtrip() {
        let hdr = ReqHeader {
            req_id: ReqId(0xDEAD),
            retry_of: Some(ReqId(0xBEEF)),
            pid: Pid(12),
            pkt_index: 3,
            pkt_count: 9,
            trace: None,
        };
        let bodies = vec![
            RequestBody::Read { va: 0x4000_0000, len: 4096 },
            RequestBody::WriteFrag { va: 0x1234, data: Bytes::from_static(b"hello world") },
            RequestBody::Alloc { size: 1 << 22, perm: Perm::RW, fixed_va: Some(0x8000) },
            RequestBody::Alloc { size: 64, perm: Perm::READ, fixed_va: None },
            RequestBody::Free { va: 0x8000, size: 1 << 22 },
            RequestBody::AtomicTas { va: 0x10 },
            RequestBody::AtomicStore { va: 0x10, value: 0 },
            RequestBody::AtomicCas { va: 0x10, expected: 1, new: 2 },
            RequestBody::AtomicFaa { va: 0x10, delta: u64::MAX },
            RequestBody::Fence,
            RequestBody::CreateAs,
            RequestBody::DestroyAs,
            RequestBody::OffloadCall { offload: 2, opcode: 7, arg: Bytes::from_static(b"arg") },
        ];
        for body in bodies {
            roundtrip(ClioPacket::Request { header: hdr, body });
        }
    }

    #[test]
    fn all_response_bodies_roundtrip() {
        let hdr = RespHeader { req_id: ReqId(5), status: Status::Ok, pkt_index: 0, pkt_count: 2 };
        let bodies = vec![
            ResponseBody::DataFrag { offset: 1024, data: Bytes::from_static(b"data") },
            ResponseBody::Done,
            ResponseBody::Alloced { va: 0xAA55 },
            ResponseBody::AtomicOld { old: 7 },
            ResponseBody::OffloadReply { data: Bytes::from_static(b"ret") },
        ];
        for body in bodies {
            roundtrip(ClioPacket::Response { header: hdr, body });
        }
    }

    #[test]
    fn error_statuses_roundtrip() {
        for status in [Status::InvalidAddr, Status::PermDenied, Status::Moved] {
            roundtrip(ClioPacket::Response {
                header: RespHeader::single(ReqId(1), status),
                body: ResponseBody::Done,
            });
        }
    }

    #[test]
    fn nack_roundtrips() {
        roundtrip(ClioPacket::Nack { req_id: ReqId(u64::MAX) });
    }

    #[test]
    fn batch_nack_roundtrips_and_costs_entries_exactly() {
        let pkt = ClioPacket::BatchNack { req_ids: (1..=16).map(ReqId).collect() };
        roundtrip(pkt.clone());
        assert_eq!(wire_len(&pkt), BATCH_OVERHEAD_BYTES + 16 * NACK_ENTRY_BYTES);
        // A coalesced 16-entry NACK frame is far cheaper than 16 standalone
        // NACK frames' payloads, before even counting Ethernet overheads.
        assert!(wire_len(&pkt) < 16 * NACK_WIRE_LEN);
    }

    #[test]
    fn empty_batch_nack_rejected() {
        // tag + count 0.
        assert_eq!(decode(&[5, 0, 0]), Err(CodecError::EmptyBatch));
    }

    #[test]
    fn batch_roundtrips() {
        let requests = vec![
            (ReqHeader::single(ReqId(1), Pid(3)), RequestBody::Read { va: 0x1000, len: 64 }),
            (
                ReqHeader::single(ReqId(2), Pid(3)).retrying(ReqId(1)),
                RequestBody::WriteFrag { va: 0x2000, data: Bytes::from_static(b"payload") },
            ),
            (ReqHeader::single(ReqId(3), Pid(4)), RequestBody::AtomicFaa { va: 0x10, delta: 2 }),
        ];
        roundtrip(ClioPacket::Batch { requests });
    }

    /// A first attempt, a retry and a retried fragment: each costs its own
    /// header's size alone, and 1 B less (its tag) inside a batch; the
    /// largest header is [`REQ_HEADER_LEN`].
    #[test]
    fn batch_entry_costs_its_standalone_request_minus_the_tag() {
        let first = ReqHeader::single(ReqId(9), Pid(1));
        let retry = first.retrying(ReqId(8));
        let fragment = ReqHeader { pkt_index: 1, pkt_count: 2, ..retry };
        let headers = [first, retry, fragment];
        assert_eq!(headers.map(|h| req_header_len(&h)), [18, 26, 30]);
        assert_eq!(REQ_HEADER_LEN, 30);

        let body = RequestBody::Read { va: 0x4000, len: 16 };
        let mut entries = 0;
        for header in headers {
            let single = wire_len(&ClioPacket::Request { header, body: body.clone() });
            assert_eq!(single, req_header_len(&header) + 13, "a 16 B read's body is 13 B");
            assert_eq!(single, request_len(&header, &body));
            assert_eq!(request_entry_len(&header, &body), single - 1);
            entries += single - 1;
        }
        assert_eq!(request_wire_len(&body), REQ_HEADER_LEN + 13, "the largest header's size");
        let batch = ClioPacket::Batch { requests: headers.map(|h| (h, body.clone())).to_vec() };
        assert_eq!(encode(&batch).len(), BATCH_OVERHEAD_BYTES + entries);
        assert_eq!(wire_len(&batch), BATCH_OVERHEAD_BYTES + entries);
    }

    /// A first attempt's 64 B write as a batch entry: 17 B of header (no
    /// tag, no packet index or count), 11 B of body framing (tag, va, u16
    /// length), 64 B of data. Alone it is 93 B.
    #[test]
    fn a_first_attempt_64_byte_write_entry_costs_92_bytes() {
        let header = ReqHeader::single(ReqId(1), Pid(1));
        let body = RequestBody::WriteFrag { va: 0x1000, data: Bytes::from(vec![7; 64]) };
        assert_eq!(request_entry_len(&header, &body), 92);
        let pkt = ClioPacket::Request { header, body };
        assert_eq!(encode(&pkt).len(), 93);
    }

    /// A write split at the largest fragment still fits the MTU exactly
    /// when re-sent as a retry of a multi-packet write.
    #[test]
    fn a_maximal_write_fragment_retried_fills_the_mtu() {
        assert_eq!(crate::MAX_WRITE_FRAG_PAYLOAD, 1459);
        let data = Bytes::from(vec![3; crate::MAX_WRITE_FRAG_PAYLOAD + 1]);
        let pkts = crate::split_write(ReqId(2), Some(ReqId(1)), Pid(1), 0x1000, data);
        let [full, _] = &pkts[..] else { panic!("two fragments") };
        assert_eq!(encode(full).len(), crate::MTU_BYTES);
        assert_eq!(wire_len(full), crate::MTU_BYTES);
    }

    /// A request header's flags byte (after the tag and the request id)
    /// with a bit the codec does not know fails to decode, alone or as a
    /// batch entry.
    #[test]
    fn an_unknown_header_flag_bit_fails_to_decode() {
        let header = ReqHeader::single(ReqId(1), Pid(1));
        let body = RequestBody::Read { va: 0, len: 8 };
        let mut bytes = encode(&ClioPacket::Request { header, body: body.clone() }).to_vec();
        assert_eq!(bytes[9], 0, "a first single-packet attempt sets no flag");
        for bit in 2..8 {
            bytes[9] = 1 << bit;
            assert_eq!(decode(&bytes), Err(CodecError::BadFlags(1 << bit)));
        }
        let batch = ClioPacket::Batch { requests: vec![(header, body.clone()), (header, body)] };
        let mut bytes = encode(&batch).to_vec();
        // Bit 2, like every bit but `FLAG_RETRY` and `FLAG_MULTI`, is
        // unknown; the entry's flags byte follows its request id.
        bytes[3 + 8] = FLAG_RETRY | 1 << 2;
        assert_eq!(decode(&bytes), Err(CodecError::BadFlags(0x05)));
        assert!(CodecError::BadFlags(0x83).to_string().contains("0x83"));
    }

    /// Packet index and count travel only when the packet is not the
    /// whole request or response, and a `DataFrag` offset only then: a
    /// lone 64 B read reply is 77 B (76 B as a batch entry), a `Done` 11 B
    /// (10 B), and a fragment header is [`RESP_HEADER_LEN`].
    #[test]
    fn inferable_fields_cost_no_bytes() {
        let lone = RespHeader::single(ReqId(4), Status::Ok);
        let data = ResponseBody::DataFrag { offset: 0, data: Bytes::from(vec![1; 64]) };
        assert_eq!(response_len(&lone, &data), 77);
        assert_eq!(response_entry_len(&lone, &data), 76);
        assert_eq!(response_len(&lone, &ResponseBody::Done), 11);
        assert_eq!(response_entry_len(&lone, &ResponseBody::Done), 10);
        let bytes = encode(&ClioPacket::Response { header: lone, body: ResponseBody::Done });
        assert_eq!(bytes[9], Status::Ok.to_wire(), "no multi bit on a lone response");
        let frag = RespHeader { pkt_index: 1, pkt_count: 2, ..lone };
        let at = ResponseBody::DataFrag { offset: 1479, data: Bytes::from(vec![1; 64]) };
        assert_eq!(response_len(&frag, &at), RESP_HEADER_LEN + 1 + 4 + 2 + 64);
        // A lone fragment at a non-zero offset says where it sits.
        assert_eq!(response_len(&lone, &at), RESP_HEADER_LEN + 1 + 4 + 2 + 64);
        roundtrip(ClioPacket::Response { header: lone, body: at });
        let multi = ReqHeader { pkt_index: 0, pkt_count: 3, ..ReqHeader::single(ReqId(1), Pid(1)) };
        let bytes = encode(&ClioPacket::Request { header: multi, body: RequestBody::Fence });
        assert_eq!(bytes[9], FLAG_MULTI);
        assert_eq!(bytes.len(), req_header_len(&multi) + 1);
    }

    #[test]
    fn batch_resp_roundtrips() {
        let responses = vec![
            (
                RespHeader::single(ReqId(1), Status::Ok),
                ResponseBody::DataFrag { offset: 0, data: Bytes::from_static(b"abcd") },
            ),
            (RespHeader::single(ReqId(2), Status::Ok), ResponseBody::Done),
            (RespHeader::single(ReqId(3), Status::PermDenied), ResponseBody::Done),
            (RespHeader::single(ReqId(4), Status::Ok), ResponseBody::AtomicOld { old: 9 }),
        ];
        roundtrip(ClioPacket::BatchResp { responses });
    }

    #[test]
    fn batch_resp_entry_costs_its_standalone_response_minus_the_tag() {
        let header = RespHeader::single(ReqId(9), Status::Ok);
        let body = ResponseBody::DataFrag { offset: 0, data: Bytes::from_static(b"xy") };
        let single = wire_len(&ClioPacket::Response { header, body: body.clone() });
        assert_eq!(single, response_len(&header, &body));
        assert_eq!(response_entry_len(&header, &body), single - 1);
        let batch = ClioPacket::BatchResp {
            responses: vec![(header, body.clone()), (header, body.clone()), (header, body)],
        };
        assert_eq!(wire_len(&batch), BATCH_OVERHEAD_BYTES + 3 * (single - 1));
    }

    #[test]
    fn empty_batch_rejected() {
        // tag + count 0, for both batch directions.
        assert_eq!(decode(&[3, 0, 0]), Err(CodecError::EmptyBatch));
        assert_eq!(decode(&[4, 0, 0]), Err(CodecError::EmptyBatch));
        assert!(CodecError::EmptyBatch.to_string().contains("zero"));
    }

    #[test]
    fn batch_resp_with_bad_entry_tag_rejected() {
        let pkt = ClioPacket::BatchResp {
            responses: vec![(RespHeader::single(ReqId(1), Status::Ok), ResponseBody::Done)],
        };
        let mut bytes = encode(&pkt).to_vec();
        // The entry carries no packet tag: its body tag follows the frame's
        // tag and count (3 B), the request id and the status.
        assert_eq!(bytes[3 + 8 + 1], RESP_DONE);
        bytes[3 + 8 + 1] = 99;
        assert_eq!(decode(&bytes), Err(CodecError::BadTag(99)));
    }

    #[test]
    fn batch_with_bad_entry_tag_rejected() {
        let pkt = ClioPacket::Batch {
            requests: vec![(
                ReqHeader::single(ReqId(1), Pid(1)),
                RequestBody::Read { va: 0, len: 8 },
            )],
        };
        let mut bytes = encode(&pkt).to_vec();
        // The entry carries no packet tag: its body tag follows the frame's
        // tag and count (3 B), the request id, the flags and the pid.
        assert_eq!(bytes[3 + 8 + 1 + 8], BODY_READ);
        bytes[3 + 8 + 1 + 8] = 99;
        assert_eq!(decode(&bytes), Err(CodecError::BadTag(99)));
    }

    #[test]
    fn truncated_input_errors() {
        let pkt = ClioPacket::Request {
            header: ReqHeader::single(ReqId(1), Pid(1)),
            body: RequestBody::Read { va: 0, len: 64 },
        };
        let bytes = encode(&pkt);
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut]), Err(CodecError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let pkt = ClioPacket::Nack { req_id: ReqId(1) };
        let mut bytes = encode(&pkt).to_vec();
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn bad_tags_rejected() {
        assert_eq!(decode(&[99]), Err(CodecError::BadTag(99)));
        let mut resp = encode(&ClioPacket::Response {
            header: RespHeader::single(ReqId(1), Status::Ok),
            body: ResponseBody::Done,
        })
        .to_vec();
        resp[9] = 77; // status byte
        assert_eq!(decode(&resp), Err(CodecError::BadStatus(77)));
    }

    #[test]
    fn error_display() {
        assert!(CodecError::Truncated.to_string().contains("truncated"));
        assert!(CodecError::BadTag(3).to_string().contains('3'));
    }
}
