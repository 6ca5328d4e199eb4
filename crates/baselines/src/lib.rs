//! # clio-baselines — every system the paper compares Clio against
//!
//! Behavioral models of the comparison points in §7, built on the same
//! simulation substrate so the evaluation isolates memory-node architecture:
//!
//! * [`rdma`] — the RNIC model (ConnectX-3 / ConnectX-5 parameter sets):
//!   QP-context, PTE and MR caches with PCIe-crossing miss penalties, host
//!   interrupt page faults (16.8 ms), MR registration/pinning costs, the
//!   2^18 MR limit, and host-jitter tails. These cache cliffs are the
//!   documented causes of Figures 4–6 and 12,
//! * [`clover`] — passive disaggregated memory (PDM): no MN processing, so
//!   writes take ≥ 2 network round trips (§2.3, Figures 11/18),
//! * [`herd`] — RPC-over-RDMA key-value serving on server CPUs, plus the
//!   BlueField SmartNIC variant with its NIC-chip↔ARM crossing (Figures
//!   10/11/18),
//! * [`legoos`] — a software virtual-memory memory node (thread pool + hash
//!   lookup per request, 77 Gbps ceiling — §2.2, §7.1),
//! * [`energy`] — power/energy accounting behind Figure 21.
//!
//! Each model exposes per-operation completion times driven by explicit
//! cache and queue state, so scalability figures emerge from the modeled
//! *mechanisms* (cache thrash, host crossings), not fitted curves. A model
//! keeps as a settable parameter only what a figure varies — what the two
//! RNIC generations ([`RnicParams`]) or the HERD deployments
//! ([`herd::HerdParams`]) differ in; every other calibration value is an
//! associated `const` with its paper source (PAPER.md's calibration table).

use clio_sim::{SimDuration, SimRng};

pub mod clover;
pub mod energy;
pub mod herd;
pub mod legoos;
pub mod rdma;

pub use rdma::{RdmaNic, RnicParams};

/// One-way network latency between a compute node and a baseline's memory
/// server, shared by the HERD, LegoOS and Clover models (the value is the
/// reproduction's).
pub(crate) const NETWORK_ONE_WAY: SimDuration = SimDuration::from_nanos(600);

/// Host interference (GC, scheduler, interrupts) on a server-based
/// baseline: with probability `prob`, a delay of `scale × (0.2 + U × 1.8)`
/// for `U` uniform in [0, 1); otherwise none.
pub(crate) fn host_jitter(rng: &mut SimRng, prob: f64, scale: SimDuration) -> SimDuration {
    if rng.chance(prob) {
        scale.mul_f64(0.2 + rng.f64() * 1.8)
    } else {
        SimDuration::ZERO
    }
}
