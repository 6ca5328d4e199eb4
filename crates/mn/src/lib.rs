//! # clio-mn — the Clio memory node (CBoard)
//!
//! Assembles `clio-hw`'s silicon into the complete network-attached memory
//! node of paper §3.2/Figure 3:
//!
//! * [`board`] — the CBoard actor: MAC ingress, match-and-action dispatch
//!   into the **fast path** (hardware data accesses), the **slow path**
//!   (ARM software metadata operations) and the **extend path** (computation
//!   offloads); retry deduplication; fences; multi-packet write tracking,
//! * [`valloc`] — the slow-path VA allocator with allocation-time
//!   hash-overflow avoidance (§4.2) — the mechanism behind Figure 13,
//! * [`palloc`] — the physical-page allocator and async-buffer refill,
//! * [`slowpath`] — the ARM software model: edits the board's one page
//!   table, service-time accounting (which charges the ARM's shadow of
//!   that table), FPGA↔ARM crossing delays (§5),
//! * [`extend`] — the offload framework: offloads get their own PID and the
//!   same virtual-memory API as CN applications (§4.6),
//! * [`migrate`] — MN→MN region migration for over-committed nodes (§4.7).

pub mod board;
pub mod config;
pub mod extend;
pub mod migrate;
pub mod palloc;
pub mod slowpath;
pub mod valloc;

pub use board::CBoard;
pub use config::CBoardConfig;
pub use extend::{Offload, OffloadEnv, OffloadReply};
