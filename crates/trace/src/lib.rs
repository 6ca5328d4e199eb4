//! # clio-trace — cross-layer operation tracing and unified metrics
//!
//! Observability substrate for the Clio reproduction (paper Figure 14's
//! per-stage latency breakdown, generalized). Three pieces:
//!
//! * **Stage spans**: every traced operation carries a
//!   [`TraceCtx`] from CN submit to CN completion; each layer *stitches*
//!   typed [`Stage`] spans onto the op's single timeline through a
//!   [`Tracer`]. Stitching tiles the timeline exactly — span `i+1` starts
//!   where span `i` ended — so the sum of stage durations provably equals
//!   the op's end-to-end latency ([`check_trace`] verifies this on every
//!   trace).
//! * **Metrics registry** ([`metrics`]): a component's counters are plain
//!   fields declared once ([`counters!`]); the registry is a borrowing view
//!   that walks them, with gauges computed from live state.
//! * **Perfetto export** ([`export`]): any set of finished traces renders
//!   as Chrome trace-event JSON loadable in `ui.perfetto.dev` — one track
//!   per actor, one slice per stage, retries linked as flows.
//!
//! Tracing is sampling-aware ([`Tracer::enabled`] takes a 1-in-N rate) and
//! free when disabled: a disabled [`Tracer`] is a `None` and every call is
//! an early-returning no-op; trace contexts never serialize to modeled
//! wire bytes.

pub mod export;
pub mod metrics;
mod span;
mod tracer;

pub use span::{check_trace, OpTrace, RetryLink, Span, Stage, TraceCtx, Track};
pub use tracer::{TraceEvent, Tracer};
