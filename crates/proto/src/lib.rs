//! # clio-proto — the Clio wire protocol
//!
//! Defines everything CLib (compute-node side) and CBoard (memory-node side)
//! agree on: identifiers, permissions, request/response packet layouts, the
//! per-packet Clio header, a byte-level codec, and the MTU
//! splitting/reassembly rules (paper §4.4–4.5).
//!
//! Design notes mirrored from the paper:
//!
//! * The transport is **connectionless**: every packet carries a fresh
//!   request id ([`ReqId`]) and, for retried requests, the id of the request
//!   it replaces (`retry_of`), so the memory node can deduplicate
//!   non-idempotent operations without per-client state (§4.5 T4).
//! * Each link-layer packet is **self-describing**: a fragment of a large
//!   write carries the absolute virtual address it targets, so the MN can
//!   execute fragments in any arrival order (§4.5 T1).
//! * Responses double as ACKs; there are no transport-level ACKs at all, and
//!   the only MN-generated control packets are link-layer NACKs for
//!   corrupted frames (§4.4) — a single [`Nack`], or one [`BatchNack`]
//!   covering every entry of a corrupted batch frame.
//! * Small same-destination packets may be **coalesced** in both
//!   directions: requests into one [`Batch`] frame, responses into one
//!   [`BatchResp`] frame, and the NACKs of one corrupted batch into a
//!   [`BatchNack`] frame — all by the one [`Packer`], generic over its
//!   [`BatchEntry`] ([`BatchBuilder`] names the request instance), under
//!   MTU/op/byte budgets. Every entry keeps its own header, so execution,
//!   dedup, completion matching and window accounting remain per logical
//!   request.
//!
//! [`Batch`]: ClioPacket::Batch
//! [`BatchResp`]: ClioPacket::BatchResp
//! [`BatchNack`]: ClioPacket::BatchNack
//!
//! ```
//! use clio_proto::{ClioPacket, ReqHeader, ReqId, Pid, RequestBody, codec};
//!
//! let pkt = ClioPacket::Request {
//!     header: ReqHeader::single(ReqId(7), Pid(3)),
//!     body: RequestBody::Read { va: 0x1000, len: 64 },
//! };
//! let bytes = codec::encode(&pkt);
//! assert_eq!(codec::decode(&bytes).unwrap(), pkt);
//! ```
//!
//! [`Nack`]: ClioPacket::Nack

mod batch;
pub mod codec;
mod mtu;
mod packet;
mod types;

pub use batch::{BatchBuilder, BatchEntry, Packer};
pub use mtu::{
    read_response_fragments, split_read_response, split_write, Reassembler, CLIO_REQ_HEADER_BYTES,
    CLIO_RESP_HEADER_BYTES, ETH_OVERHEAD_BYTES, MAX_READ_FRAG_PAYLOAD, MAX_WRITE_FRAG_PAYLOAD,
    MTU_BYTES,
};
pub use packet::{ClioPacket, ReqHeader, RequestBody, RespHeader, ResponseBody};
pub use types::{Perm, Pid, ReqId, Status};
