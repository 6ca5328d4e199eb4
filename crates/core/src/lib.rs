//! # clio-core — the assembled Clio system
//!
//! Everything above the individual components: this crate builds whole
//! deployments (compute nodes + CBoards + ToR switch + global controller)
//! and offers one way to program against them — **async tasks** on a
//! deterministic cooperative executor ([`exec`]). Client code reads like
//! the paper's Figure 1 (`ralloc`/`rread`/`rwrite`/`rlock`/...) with an
//! `.await` where the paper blocks: remote ops are futures, each completion
//! wakes exactly the task that awaits it, and thousands of client
//! processes cost no OS threads. The
//! [`exec::openloop`] generator drives open-loop offered load.
//!
//! The [`Controller`] implements the paper's two-level distributed virtual
//! memory management (§4.7): it places allocations across MNs (each MN owns
//! a disjoint slice of the 48-bit RAS), tracks where every allocated range
//! lives, relocates regions away from memory-pressured nodes, and answers
//! CN routing queries after migrations.

pub mod cluster;
pub mod controller;
pub mod exec;
pub mod metrics;
pub mod node;

pub use cluster::{Cluster, ClusterConfig};
pub use controller::Controller;
pub use exec::{ExecDriver, OpFuture, ProcHandle};
pub use node::ComputeNode;

/// An awaited op's completion, under the name `benchmark/` imports.
pub use clio_cn::Completion as AppCompletion;
