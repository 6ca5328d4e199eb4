//! # clio-sim — deterministic discrete-event simulation substrate
//!
//! This crate is the foundation every other `clio-*` crate builds on. It
//! provides:
//!
//! * a virtual clock with nanosecond resolution ([`SimTime`], [`SimDuration`])
//!   plus hardware-oriented unit helpers ([`Frequency`], [`Bandwidth`],
//!   [`Cycles`]),
//! * a deterministic event queue and actor runtime ([`Simulation`], [`Actor`],
//!   [`Ctx`]) with FIFO tie-breaking for simultaneous events,
//! * seeded random-number generation ([`SimRng`]) and workload distributions
//!   ([`dist`]),
//! * resource-reservation primitives used to model pipelines, DMA engines and
//!   thread pools ([`resource`]),
//! * deterministic integer-keyed tables ([`IdMap`], [`IdSet`]) for simulator
//!   state ([`table`]),
//! * a statistics toolkit: latency histograms with exact percentiles, and
//!   time series ([`stats`]).
//!
//! Everything is single-threaded and deterministic: running the same
//! simulation with the same seed produces the identical event sequence, which
//! [`Simulation::digest`] can attest.
//!
//! ```
//! use clio_sim::{Simulation, Actor, Ctx, Message, SimDuration};
//!
//! struct Ping { peer: Option<clio_sim::ActorId>, count: u32 }
//! impl Actor for Ping {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
//!         let n: u32 = *msg.downcast_ref().expect("u32 message");
//!         self.count = n;
//!         if let (Some(peer), true) = (self.peer, n < 3) {
//!             ctx.send(peer, SimDuration::from_micros(1), Message::new(n + 1));
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let a = sim.add_actor(Ping { peer: None, count: 0 });
//! let b = sim.add_actor(Ping { peer: Some(a), count: 0 });
//! sim.actor_mut::<Ping>(a).peer = Some(b);
//! sim.post(a, Message::new(0u32));
//! sim.run_until_idle();
//! assert_eq!(sim.now(), clio_sim::SimTime::ZERO + SimDuration::from_micros(3));
//! ```

pub mod dist;
mod engine;
mod message;
pub mod resource;
mod rng;
pub mod stats;
pub mod table;
mod time;

pub use engine::{Actor, ActorId, Ctx, EventId, Simulation};
pub use message::Message;
pub use rng::SimRng;
pub use table::{IdMap, IdSet};
pub use time::{Bandwidth, Cycles, Frequency, SimDuration, SimTime};
