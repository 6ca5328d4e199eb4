//! # clio-cn — CLib, Clio's compute-node library
//!
//! The CN-side half of Clio's asymmetric design (paper §4.4–4.5): **all**
//! transport state — request ids, retry buffers, timeouts, congestion and
//! incast windows, packet reassembly, dependency ordering — lives here, so
//! the memory node can stay connectionless and (almost) stateless.
//!
//! One [`Op`] record carries a request through every layer, top to bottom
//! (§5 "CLib Implementation"):
//!
//! * [`clib::CLib`] — the user-facing request layer: per-thread dependency
//!   checking and ordering of address-conflicting requests (WAW/RAW/WAR at
//!   page granularity, release semantics, fences), lock spinning,
//! * [`transport`] — the connectionless reliable transport: request-response
//!   matching, whole-request retry with fresh ids, NACK handling, timeout
//!   management,
//! * [`congestion`] — delay-based AIMD congestion window (which may fall
//!   below one packet, §4.4) plus the incast window bounding expected
//!   response bytes,
//! * the NIC driver underneath is `clio-net`'s [`NicPort`] (kernel-bypass,
//!   zero-copy — modeled as direct frame injection).
//!
//! [`NicPort`]: clio_net::NicPort

pub mod clib;
pub mod config;
pub mod congestion;
pub mod error;
pub mod op;
pub mod ordering;
pub mod transport;

pub use clib::{CLib, Completion, ThreadId};
pub use config::CLibConfig;
pub use error::ClioError;
pub use op::Op;
pub use transport::{CompletionValue, McMutation, OpToken};
