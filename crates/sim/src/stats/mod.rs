//! Measurement toolkit: latency histograms and time series.

mod histogram;
mod series;

pub use histogram::{Histogram, LatencySummary};
pub use series::{render_table, Series};
