//! # clio-net — simulated Ethernet fabric
//!
//! Models the datacenter network Clio runs over (paper §3.2): compute nodes
//! and CBoards hang off a top-of-rack switch through full-duplex links with
//! per-port bandwidth, propagation delay and store-and-forward queueing.
//!
//! The model captures the effects Clio's transport design responds to:
//!
//! * **serialization + queueing** — each port is a FCFS resource at its line
//!   rate, so incast and congestion show up as growing egress queues and RTT
//!   inflation (which CLib's delay-based congestion control measures),
//! * **loss, corruption, reordering** — a per-port [`FaultInjector`] drops or
//!   corrupts frames probabilistically and can add random jitter, which
//!   reorders deliveries (exercising Clio's request-level retry/ordering),
//! * **lossless operation** — the paper's testbed uses PFC lossless
//!   Ethernet, so every egress queue is unbounded: a burst waits, it is
//!   never dropped.
//!
//! For exhaustive (rather than sampled) fault exploration, [`VirtualWire`]
//! replaces the stochastic injector with an explorer-chosen schedule: it
//! captures every in-flight frame, and an external scheduler (the `clio_mc`
//! bounded model checker) decides each delivery, reorder, corruption, drop
//! or duplication as an explicit, replayable choice.
//!
//! ## Determinism and seeding
//!
//! Every probabilistic draw a [`FaultInjector`] makes (`loss_prob`,
//! `corrupt_prob`, jitter) comes from the simulation's single seeded
//! SplitMix64 stream (`clio_sim::SimRng`), consumed in event-dispatch
//! order: the switch draws exactly when a frame is forwarded, never at
//! configuration time. Two runs with the same `Simulation::new(seed)` and
//! the same message sequence therefore make identical draws and produce
//! identical frame timelines and run digests. Longer-lived faults —
//! link flaps, delay spikes, board crash/restart cycles — are scripted
//! rather than drawn: a [`ChaosSchedule`] is generated up-front from its
//! own seed and installed as pre-posted messages, so the whole fault
//! timeline replays exactly (same seed ⇒ same digest).
//!
//! CLib's request path puts a [`Doorbell`] in front of its [`NicPort`]:
//! the one load-adaptive rule for holding small packets so they share a
//! frame. The CBoard's egress holds nothing; it sends when its port is
//! free ([`NicPort::free_at`]).
//!
//! Frames carry a type-erased payload ([`clio_sim::Message`]) plus an
//! explicit wire size, so upper layers (clio-proto packets, RDMA verbs, ...)
//! share one fabric.

mod chaos;
mod doorbell;
mod frame;
mod nic;
mod switch;
mod topology;
mod wire;

pub use chaos::{BoardPower, ChaosAction, ChaosSchedule, LinkCommand, StormConfig};
pub use doorbell::{Doorbell, Ewma};
pub use frame::{Frame, Mac};
pub use nic::NicPort;
pub use switch::{FaultInjector, PortStats, Switch, SwitchConfig};
pub use topology::{Network, NetworkConfig};
pub use wire::{CapturedFrame, VirtualWire};
