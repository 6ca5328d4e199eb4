//! # clio-mc — bounded model checker for the Clio transport
//!
//! Converts "we sampled it" into "we searched it": where the proptests
//! drive the CN transport and MN CBoard through *random* fault
//! interleavings, this crate drives the **real** production state machines
//! through **every** network-event interleaving up to a bounded depth and
//! fault budget, checking the transport's documented invariants (see the
//! `# Invariants` sections of [`clio_cn::transport`] and
//! `clio_mn::board`) at every reachable state.
//!
//! The pieces:
//!
//! * [`harness`] — a two-op CN↔MN scenario over a
//!   [`VirtualWire`](clio_net::VirtualWire): the stochastic fault injector
//!   replaced by an explorer-chosen schedule,
//! * [`explorer`] — depth-first search over [`McAction`] schedules
//!   (deliver / reorder / corrupt / drop / duplicate / fire-timer), with
//!   state-fingerprint pruning and per-state invariant checks; each search
//!   node forks the live simulation of its parent ([`Scenario::fork`]), so
//!   the search costs one copy and one action per node,
//! * counterexamples — a failing search returns the exact [`Violation`]
//!   schedule, replayable with [`replay`] as a deterministic regression
//!   test,
//! * a `mc_smoke` binary running the CI-sized bounded exploration.
//!
//! A quick search of the real transport:
//!
//! ```
//! use clio_mc::{explore, McConfig};
//!
//! let report = explore(&McConfig { max_depth: 4, fault_budget: 1, ..McConfig::default() });
//! assert!(report.violation.is_none(), "{}", report.violation.unwrap());
//! ```
//!
//! And proof the checker has teeth — a planted window leak is caught with
//! a replayable schedule:
//!
//! ```
//! use clio_cn::transport::McMutation;
//! use clio_mc::{explore, McConfig};
//!
//! let cfg = McConfig {
//!     max_depth: 5,
//!     fault_budget: 2,
//!     mutation: McMutation::LeakWindowOnNack,
//!     max_retries: 1,
//!     ..McConfig::default()
//! };
//! let report = explore(&cfg);
//! assert!(report.violation.is_some());
//! ```

pub mod explorer;
pub mod harness;

pub use explorer::{
    baseline_outcome, explore, replay, Choice, McAction, McConfig, McReport, Run, Violation,
};
pub use harness::{Framing, McCnHost, Outcome, Scenario};
