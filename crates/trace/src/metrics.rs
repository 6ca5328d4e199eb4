//! Unified metrics: shared-handle counters/gauges/histograms and the
//! [`Registry`] that snapshots and resets them all uniformly.
//!
//! Components own the handles (cheap `Rc` clones) and bump them inline;
//! registering a handle under a name gives the registry shared access for
//! [`Registry::snapshot`] and [`Registry::reset`]. Because registry and
//! component address the *same* cell, there is no snapshot/reset drift: a
//! reset is immediately visible to the component, and a snapshot always
//! reflects the component's latest increments.
//!
//! `clone()` on a handle therefore *shares* the cell. A copy of a component
//! that must count on its own (a forked simulation) takes `detached()`
//! handles instead: new cells holding the current values.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use clio_sim::stats::{Histogram, LatencySummary};
use clio_sim::SimDuration;

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Zeroes the counter (shared across all clones).
    pub fn reset(&self) {
        self.0.set(0);
    }

    /// A counter of its own holding the current value: unlike `clone()`,
    /// shares nothing with `self`.
    pub fn detached(&self) -> Self {
        Counter(Rc::new(Cell::new(self.get())))
    }
}

/// A last-writer-wins gauge handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Rc<Cell<u64>>);

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the current value.
    pub fn set(&self, v: u64) {
        self.0.set(v);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Zeroes the gauge (shared across all clones).
    pub fn reset(&self) {
        self.0.set(0);
    }

    /// A gauge of its own holding the current value: unlike `clone()`,
    /// shares nothing with `self`.
    pub fn detached(&self) -> Self {
        Gauge(Rc::new(Cell::new(self.get())))
    }
}

/// A shared-handle latency histogram.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Rc<RefCell<Histogram>>);

impl HistogramHandle {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value (typically nanoseconds).
    pub fn record(&self, v: u64) {
        self.0.borrow_mut().record(v);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: SimDuration) {
        self.0.borrow_mut().record_duration(d);
    }

    /// A point-in-time summary.
    pub fn summary(&self) -> LatencySummary {
        self.0.borrow().summary()
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.0.borrow().count()
    }

    /// Clears all samples (shared across all clones).
    pub fn reset(&self) {
        *self.0.borrow_mut() = Histogram::new();
    }

    /// A histogram of its own holding the current samples: unlike
    /// `clone()`, shares nothing with `self`.
    pub fn detached(&self) -> Self {
        HistogramHandle(Rc::new(RefCell::new(self.0.borrow().clone())))
    }
}

/// A name-keyed collection of metric handles with a single snapshot/reset
/// surface. Names are dot-separated by convention (`cn0.transport.retries`).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, HistogramHandle>,
}

/// A plain-data copy of every registered metric at one instant.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, LatencySummary>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a counter handle under `name` (re-registering a name
    /// replaces the old handle).
    pub fn register_counter(&mut self, name: impl Into<String>, c: Counter) {
        self.counters.insert(name.into(), c);
    }

    /// Registers a gauge handle under `name`.
    pub fn register_gauge(&mut self, name: impl Into<String>, g: Gauge) {
        self.gauges.insert(name.into(), g);
    }

    /// Registers a histogram handle under `name`.
    pub fn register_histogram(&mut self, name: impl Into<String>, h: HistogramHandle) {
        self.histograms.insert(name.into(), h);
    }

    /// A registered counter's current value (`None` if unknown).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).map(Counter::get)
    }

    /// A registered gauge's current value (`None` if unknown).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).map(Gauge::get)
    }

    /// Copies every metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: self.histograms.iter().map(|(k, v)| (k.clone(), v.summary())).collect(),
        }
    }

    /// Zeroes **every** registered metric — counters, gauges, and
    /// histograms alike — through the shared handles, so components see the
    /// reset immediately and no metric is left carrying pre-reset state.
    pub fn reset(&self) {
        self.counters.values().for_each(Counter::reset);
        self.gauges.values().for_each(Gauge::reset);
        self.histograms.values().for_each(HistogramHandle::reset);
    }

    /// Number of registered metrics (all kinds).
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_with_registry() {
        let mut reg = Registry::new();
        let c = Counter::new();
        let g = Gauge::new();
        let h = HistogramHandle::new();
        reg.register_counter("cn0.retries", c.clone());
        reg.register_gauge("mn0.srtt_echo_ns", g.clone());
        reg.register_histogram("cn0.rtt", h.clone());
        c.add(3);
        g.set(1200);
        h.record(500);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["cn0.retries"], 3);
        assert_eq!(snap.gauges["mn0.srtt_echo_ns"], 1200);
        assert_eq!(snap.histograms["cn0.rtt"].count, 1);
        assert_eq!(reg.counter("cn0.retries"), Some(3));
        assert_eq!(reg.counter("nope"), None);
    }

    #[test]
    fn reset_zeroes_every_metric_uniformly() {
        // Regression for the stats-reset drift: every metric kind must
        // observe one reset, through the same shared cells the component
        // increments.
        let mut reg = Registry::new();
        let c = Counter::new();
        let g = Gauge::new();
        let h = HistogramHandle::new();
        reg.register_counter("a", c.clone());
        reg.register_gauge("b", g.clone());
        reg.register_histogram("c", h.clone());
        c.inc();
        g.set(7);
        h.record(9);
        reg.reset();
        // The registry sees zeroes...
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a"], 0);
        assert_eq!(snap.gauges["b"], 0);
        assert_eq!(snap.histograms["c"].count, 0);
        // ...and so do the component-held handles (same cells).
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
        // Post-reset increments are visible again.
        c.inc();
        assert_eq!(reg.counter("a"), Some(1));
    }

    #[test]
    fn detached_handles_keep_the_value_and_share_nothing() {
        let (c, g, h) = (Counter::new(), Gauge::new(), HistogramHandle::new());
        c.add(3);
        g.set(7);
        h.record(9);
        let (c2, g2, h2) = (c.detached(), g.detached(), h.detached());
        c2.inc();
        g2.set(8);
        h2.record(10);
        assert_eq!((c.get(), g.get(), h.count()), (3, 7, 1));
        assert_eq!((c2.get(), g2.get(), h2.count()), (4, 8, 2));
    }

    #[test]
    fn registry_len_counts_all_kinds() {
        let mut reg = Registry::new();
        assert!(reg.is_empty());
        reg.register_counter("a", Counter::new());
        reg.register_gauge("b", Gauge::new());
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
    }
}
