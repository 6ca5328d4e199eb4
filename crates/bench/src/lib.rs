//! # clio-bench — the paper's evaluation, regenerated
//!
//! One harness per table/figure of the paper's §7 (see DESIGN.md's
//! per-experiment index). Every figure is a `harness = false` bench target,
//! so `cargo bench --workspace` reprints the whole evaluation; the
//! `figures` binary runs them selectively. Shared machinery lives here:
//!
//! * [`drivers`] — reusable load-generating client programs, as async
//!   tasks (closed-loop and windowed load generators, KV/YCSB clients),
//! * [`setup`] — cluster construction shortcuts and direct-install helpers
//!   (PTE aliasing for the Figure 5 stress test),
//! * [`report`] — paper-style table printing.

pub mod drivers;
pub mod report;
pub mod setup;

pub use report::FigureReport;
