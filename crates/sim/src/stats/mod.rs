//! Measurement toolkit: exact latency histograms and time series.

mod histogram;
mod series;

pub use histogram::Histogram;
pub use series::{render_table, Series};
