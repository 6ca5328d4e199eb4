//! The client operation: one record from [`CLib::submit`] to the wire.
//!
//! An [`Op`] names *what* to do. CLib orders it and the transport keeps it
//! as its retransmission state (§4.4 "maintain transport logic, state, and
//! data buffers only at CNs"): a lost or NACKed request is rebuilt from the
//! op under a fresh id. Every per-kind rule either layer applies lives
//! here, beside the op: its span, its name, its packets, its window and
//! timeout costs, and whether a retry needs the MN's dedup buffer.
//!
//! [`CLib::submit`]: crate::CLib::submit

use bytes::Bytes;
use clio_proto::{
    split_write, ClioPacket, Perm, Pid, ReqHeader, ReqId, RequestBody, MAX_WRITE_FRAG_PAYLOAD,
};
use clio_sim::SimDuration;

/// A client operation — the one enumeration of Clio's call set (§3.1). It
/// names *what* to do; who asks (thread, pid), which memory node serves it
/// and when it arrived are arguments of [`CLib::submit`](crate::CLib::submit),
/// the same for every kind.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// `rread`: read `len` bytes at `va`.
    Read {
        /// Start address.
        va: u64,
        /// Bytes to read.
        len: u32,
    },
    /// `rwrite`: write `data` at `va` (split over MTU packets on build).
    Write {
        /// Start address.
        va: u64,
        /// Payload.
        data: Bytes,
    },
    /// `ralloc`: allocate remote virtual memory.
    Alloc {
        /// Bytes requested.
        size: u64,
        /// Permissions.
        perm: Perm,
    },
    /// `rfree`.
    Free {
        /// Range start.
        va: u64,
        /// Range length.
        size: u64,
    },
    /// `rlock`: spin until the 8-byte word at `va` transitions 0 → 1.
    Lock {
        /// Lock word address.
        va: u64,
    },
    /// `runlock`: store 0 into the lock word.
    Unlock {
        /// Lock word address.
        va: u64,
    },
    /// Fetch-and-add.
    Faa {
        /// Word address.
        va: u64,
        /// Addend.
        delta: u64,
    },
    /// Compare-and-swap.
    Cas {
        /// Word address.
        va: u64,
        /// Expected value.
        expected: u64,
        /// Replacement value.
        new: u64,
    },
    /// `rfence`: local barrier plus MN-side fence.
    Fence,
    /// `rrelease`: local barrier only — completes when every earlier op of
    /// the thread has completed. CLib finishes it itself: it never reaches
    /// the transport.
    Release,
    /// Extend-path offload call.
    Offload {
        /// Installed offload id.
        offload: u16,
        /// Offload opcode.
        opcode: u16,
        /// Argument bytes.
        arg: Bytes,
    },
}

impl Op {
    /// The `(va, len)` span the op addresses, if it addresses memory:
    /// what dependency tracking orders and what the cluster layer routes
    /// by. A lock word or atomic cell is 8 bytes.
    pub fn span(&self) -> Option<(u64, u64)> {
        match self {
            Op::Read { va, len } => Some((*va, u64::from(*len))),
            Op::Write { va, data } => Some((*va, data.len() as u64)),
            Op::Free { va, size } => Some((*va, *size)),
            Op::Lock { va } | Op::Unlock { va } | Op::Faa { va, .. } | Op::Cas { va, .. } => {
                Some((*va, 8))
            }
            _ => None,
        }
    }

    /// The op's kind name: its trace label, and what a
    /// [`ClioError::TimedOut`](crate::ClioError::TimedOut) names.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Read { .. } => "read",
            Op::Write { .. } => "write",
            Op::Alloc { .. } => "alloc",
            Op::Free { .. } => "free",
            Op::Lock { .. } => "lock",
            Op::Unlock { .. } => "unlock",
            Op::Faa { .. } => "faa",
            Op::Cas { .. } => "cas",
            Op::Fence => "fence",
            Op::Release => "release",
            Op::Offload { .. } => "offload",
        }
    }

    /// The request's body when it travels as one packet: everything except
    /// a write larger than one MTU fragment. A lock is a test-and-set, an
    /// unlock a store of 0 (§4.5 T3).
    ///
    /// # Panics
    ///
    /// Panics on [`Op::Release`], which has no request.
    pub(crate) fn single_body(&self) -> Option<RequestBody> {
        Some(match self {
            Op::Read { va, len } => RequestBody::Read { va: *va, len: *len },
            Op::Write { va, data } if data.len() <= MAX_WRITE_FRAG_PAYLOAD => {
                RequestBody::WriteFrag { va: *va, data: data.clone() }
            }
            Op::Write { .. } => return None,
            // The MN places every allocation: no client names a fixed VA.
            Op::Alloc { size, perm } => {
                RequestBody::Alloc { size: *size, perm: *perm, fixed_va: None }
            }
            Op::Free { va, size } => RequestBody::Free { va: *va, size: *size },
            Op::Lock { va } => RequestBody::AtomicTas { va: *va },
            Op::Unlock { va } => RequestBody::AtomicStore { va: *va, value: 0 },
            Op::Faa { va, delta } => RequestBody::AtomicFaa { va: *va, delta: *delta },
            Op::Cas { va, expected, new } => {
                RequestBody::AtomicCas { va: *va, expected: *expected, new: *new }
            }
            Op::Fence => RequestBody::Fence,
            Op::Offload { offload, opcode, arg } => {
                RequestBody::OffloadCall { offload: *offload, opcode: *opcode, arg: arg.clone() }
            }
            Op::Release => unreachable!("a release is a local barrier: it never reaches the wire"),
        })
    }

    /// Builds the request's packets into `out` (cleared first). Trace and
    /// srtt echo are stamped post-build by the transport.
    pub(crate) fn build(
        &self,
        req_id: ReqId,
        retry_of: Option<ReqId>,
        pid: Pid,
        out: &mut Vec<ClioPacket>,
    ) {
        out.clear();
        match (self.single_body(), self) {
            (Some(body), _) => {
                let header = ReqHeader { retry_of, ..ReqHeader::single(req_id, pid) };
                out.push(ClioPacket::Request { header, body });
            }
            (None, Op::Write { va, data }) => {
                out.extend(split_write(req_id, retry_of, pid, *va, data.clone()));
            }
            (None, _) => unreachable!("only large writes span packets"),
        }
    }

    /// Expected response payload bytes (drives the incast window).
    pub(crate) fn expected_response_bytes(&self) -> u64 {
        match self {
            Op::Read { len, .. } => *len as u64 + 64,
            Op::Offload { .. } => 256,
            _ => 64,
        }
    }

    /// Request payload bytes (large writes take long to even transmit).
    pub(crate) fn payload_bytes(&self) -> u64 {
        match self {
            Op::Write { data, .. } => data.len() as u64,
            Op::Offload { arg, .. } => arg.len() as u64,
            _ => 0,
        }
    }

    /// The retry timeout: the base (multiplied for slow-path ops) plus a
    /// conservative 20 ns/byte (≈0.4 Gbps) allowance for the bytes this
    /// request moves in either direction, so multi-MTU transfers are not
    /// spuriously retried even under congestion (the congestion window's
    /// per-byte target of 10 ns/byte keeps queueing below this).
    pub(crate) fn timeout(&self, base: SimDuration) -> SimDuration {
        let transfer =
            SimDuration::from_nanos((self.payload_bytes() + self.expected_response_bytes()) * 20);
        base * self.timeout_multiplier() + transfer
    }

    /// Slow-path and extend-path operations inherently take tens of
    /// microseconds to milliseconds (ARM crossing, software service,
    /// offload chains), so their retry timers are much longer than the
    /// fast-path timeout that sizes the dedup buffer.
    fn timeout_multiplier(&self) -> u64 {
        match self {
            Op::Alloc { .. } | Op::Free { .. } => 100,
            Op::Offload { .. } => 400,
            Op::Fence => 20,
            _ => 1,
        }
    }

    /// True if a retry must carry `retry_of` for MN-side deduplication:
    /// writes, atomics, allocs, frees and offload calls, the requests the
    /// MN may deduplicate (a call only if its module declares the opcode
    /// mutating, which the CN cannot see).
    pub(crate) fn is_non_idempotent(&self) -> bool {
        matches!(
            self,
            Op::Write { .. }
                | Op::Lock { .. }
                | Op::Unlock { .. }
                | Op::Faa { .. }
                | Op::Cas { .. }
                | Op::Alloc { .. }
                | Op::Free { .. }
                | Op::Offload { .. }
        )
    }

    /// True for requests eligible to share a batch frame: data-plane
    /// operations that encode as exactly one packet. Slow-path, fence, and
    /// extend-path requests always travel alone.
    pub(crate) fn is_batchable(&self) -> bool {
        match self {
            Op::Read { .. }
            | Op::Lock { .. }
            | Op::Unlock { .. }
            | Op::Faa { .. }
            | Op::Cas { .. } => true,
            Op::Write { data, .. } => data.len() <= MAX_WRITE_FRAG_PAYLOAD,
            _ => false,
        }
    }

    /// True for data-plane operations whose RTT is a valid congestion
    /// signal. Slow-path and extend-path operations embed ARM/software
    /// service time in their RTTs, so they must not drive the delay-based
    /// window (they still consume and release window slots).
    pub(crate) fn is_congestion_signal(&self) -> bool {
        !matches!(self, Op::Alloc { .. } | Op::Free { .. } | Op::Offload { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One op of every kind that reaches the wire, plus a write one byte
    /// larger than an MTU fragment.
    fn wire_ops() -> Vec<Op> {
        vec![
            Op::Read { va: 0x1000, len: 64 },
            Op::Write { va: 0x2000, data: Bytes::from(vec![7u8; 64]) },
            Op::Write { va: 0x3000, data: Bytes::from(vec![9u8; MAX_WRITE_FRAG_PAYLOAD + 1]) },
            Op::Alloc { size: 8192, perm: Perm::RW },
            Op::Free { va: 0x4000, size: 8192 },
            Op::Lock { va: 0x5000 },
            Op::Unlock { va: 0x5000 },
            Op::Faa { va: 0x6000, delta: 3 },
            Op::Cas { va: 0x6008, expected: 1, new: 2 },
            Op::Fence,
            Op::Offload { offload: 1, opcode: 2, arg: Bytes::from_static(b"argument") },
        ]
    }

    fn bodies(op: &Op) -> Vec<RequestBody> {
        let mut out = Vec::new();
        op.build(ReqId(10), Some(ReqId(9)), Pid(1), &mut out);
        out.into_iter()
            .map(|pkt| match pkt {
                ClioPacket::Request { body, .. } => body,
                other => panic!("{} built a {other:?}", op.kind()),
            })
            .collect()
    }

    /// The CN decides whether a retry carries `retry_of`; the MN decides
    /// from each packet's body whether to deduplicate it. The two rules
    /// must agree, or a retried write re-executes (or a read is held in the
    /// dedup buffer for nothing).
    #[test]
    fn retry_of_rule_matches_the_mn_dedup_rule_on_every_packet() {
        for op in wire_ops() {
            for body in bodies(&op) {
                assert_eq!(
                    op.is_non_idempotent(),
                    body.is_non_idempotent(),
                    "{} builds {body:?}",
                    op.kind()
                );
            }
        }
    }

    /// CLib re-routes an op answered `Moved` by its span; the MN refuses a
    /// packet by the address its body names. An op has a span exactly when
    /// every packet it builds names an address, and each address lies in
    /// the span: an op the MN can refuse is an op CLib can re-route.
    #[test]
    fn span_rule_matches_the_mn_refusal_rule_on_every_packet() {
        for op in wire_ops() {
            let vas: Vec<Option<u64>> = bodies(&op).iter().map(RequestBody::va).collect();
            let named = vas.iter().all(Option::is_some);
            assert_eq!(op.span().is_some(), named, "{} builds {vas:?}", op.kind());
            if let Some((start, len)) = op.span() {
                for va in vas.into_iter().flatten() {
                    assert!((start..start + len).contains(&va), "{} names {va:#x}", op.kind());
                }
            }
        }
    }

    #[test]
    fn a_batchable_op_builds_exactly_one_request() {
        for op in wire_ops() {
            if op.is_batchable() {
                assert_eq!(bodies(&op).len(), 1, "{} is batchable", op.kind());
                assert!(op.single_body().is_some(), "{} is batchable", op.kind());
            }
        }
        let large = &wire_ops()[2];
        assert!(!large.is_batchable() && bodies(large).len() > 1, "a large write spans packets");
    }

    #[test]
    fn payload_bytes_are_what_the_built_bodies_carry() {
        for op in wire_ops() {
            let carried: usize = bodies(&op).iter().map(RequestBody::payload_len).sum();
            assert_eq!(op.payload_bytes(), carried as u64, "{}", op.kind());
        }
    }

    #[test]
    fn every_kind_has_its_own_name() {
        let mut ops = wire_ops();
        ops.remove(2); // the second write
        ops.push(Op::Release);
        let mut kinds: Vec<&str> = ops.iter().map(Op::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), ops.len(), "{kinds:?}");
    }
}
