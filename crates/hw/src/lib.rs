//! # clio-hw — the CBoard "silicon": Clio's hardware fast path
//!
//! Functional **and** timing model of everything the paper builds in
//! FPGA/ASIC on the memory node (paper §4, Figure 3):
//!
//! * [`pagetable`] — the overflow-free, hash-based page table: all processes
//!   share one flat table sized by physical memory; every lookup costs at
//!   most **one DRAM access** (§4.2),
//! * [`tlb`] — the on-chip CAM TLB with LRU replacement,
//! * [`asyncbuf`] — the async buffer of pre-allocated physical pages that
//!   lets the hardware page-fault handler finish in **3 cycles** (§4.3),
//! * [`dedup`] — the retry-dedup buffer bounding MN state to
//!   `3 × TIMEOUT × bandwidth` (§4.5 T4),
//! * [`dram`] — the off-chip DRAM latency/bandwidth model,
//! * [`memory`] — the physical byte store (lazily materialized),
//! * [`vm`] — the virtual-memory unit combining TLB, page-table walk,
//!   permission check and fault handling in one pipeline stage,
//! * [`silicon`] — the assembled fast-path datapath: an II=1 pipeline gate,
//!   the DMA engine, and whole-request read/write/atomic operations with
//!   per-stage latency breakdowns (these breakdowns *are* Figure 14), timed
//!   from the pipeline gate through response generation. The MAC/PHY
//!   crossings around them are charged by `clio_mn`'s board, which knows
//!   how each request was framed.
//!
//! Everything here is deterministic: each operation returns both its result
//! and an explicit [`silicon::AccessTiming`], in keeping with the paper's
//! design principle of a smooth, performance-deterministic pipeline
//! (Challenge 3, Principles 4–5).

pub mod asyncbuf;
pub mod config;
pub mod dedup;
pub mod dram;
pub mod hash;
pub mod memory;
pub mod pagetable;
pub mod silicon;
pub mod tlb;
pub mod vm;

pub use config::CBoardHwConfig;
pub use silicon::{AccessTiming, Breakdown, Silicon};
