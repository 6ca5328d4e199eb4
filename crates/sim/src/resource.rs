//! Time-reservation primitives for modeling contended hardware resources.
//!
//! These helpers answer "when will this unit of work start and finish, given
//! everything already queued on the resource?" without materializing per-item
//! events — the caller schedules a single completion event at the returned
//! finish time. All reservations are in arrival order (FCFS), which matches
//! the in-order hardware queues they model.

use crate::time::{SimDuration, SimTime};

/// A window of reserved time on a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the work begins service.
    pub start: SimTime,
    /// When the work completes.
    pub end: SimTime,
}

/// A single-server FCFS resource (e.g. a non-pipelined DMA engine, an atomic
/// unit, a memory-controller command bus).
///
/// ```
/// use clio_sim::{SimTime, SimDuration, resource::SerialResource};
/// let mut dma = SerialResource::new();
/// let t0 = SimTime::ZERO;
/// let a = dma.reserve(t0, SimDuration::from_nanos(100));
/// let b = dma.reserve(t0, SimDuration::from_nanos(50));
/// assert_eq!(a.end.as_nanos(), 100);
/// assert_eq!(b.start.as_nanos(), 100); // queued behind `a`
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialResource {
    free_at: SimTime,
}

impl SerialResource {
    /// A resource that is free immediately.
    pub fn new() -> Self {
        Self::default()
    }

    /// When the work reserved so far ends.
    #[inline]
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Reserves `service` time for work arriving at `now`.
    #[inline]
    pub fn reserve(&mut self, now: SimTime, service: SimDuration) -> Reservation {
        let start = now.max(self.free_at);
        let end = start + service;
        self.free_at = end;
        Reservation { start, end }
    }
}

/// A throughput gate that admits one item per fixed interval — models a fully
/// pipelined hardware unit with initiation interval (II) expressed in time.
///
/// Unlike [`SerialResource`], the gate only spaces *starts*; each item's own
/// latency is added by the caller. This is how Clio's II=1 fast path sustains
/// line rate while each request still takes many cycles end to end.
#[derive(Debug, Clone, Copy)]
pub struct PipelineGate {
    interval: SimDuration,
    next_free: SimTime,
}

impl PipelineGate {
    /// A gate admitting one item every `interval`.
    pub fn new(interval: SimDuration) -> Self {
        PipelineGate { interval, next_free: SimTime::ZERO }
    }

    /// Admission time for an item of `units` intervals arriving at `now`
    /// (e.g. a request occupying `units` flits admits the next request only
    /// `units * interval` later).
    #[inline]
    pub fn admit(&mut self, now: SimTime, units: u64) -> SimTime {
        let start = now.max(self.next_free);
        self.next_free = start + self.interval * units.max(1);
        start
    }

    /// The per-unit admission interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }
}

/// A pool of `k` identical FCFS servers (e.g. worker threads on the slow-path
/// ARM, or RPC handler cores in the HERD baseline). Work is assigned to the
/// earliest-available server.
#[derive(Debug, Clone)]
pub struct ServerPool {
    free_at: Vec<SimTime>,
}

impl ServerPool {
    /// A pool with `servers` servers, all immediately free.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "server pool must have at least one server");
        ServerPool { free_at: vec![SimTime::ZERO; servers] }
    }

    /// Reserves `service` time on the earliest-free server for work arriving
    /// at `now`.
    pub fn reserve(&mut self, now: SimTime, service: SimDuration) -> Reservation {
        // Deterministic: pick the lowest-index earliest-free server.
        let (idx, _) =
            self.free_at.iter().enumerate().min_by_key(|(i, t)| (**t, *i)).expect("non-empty pool");
        let start = now.max(self.free_at[idx]);
        let end = start + service;
        self.free_at[idx] = end;
        Reservation { start, end }
    }

    /// The number of servers in the pool.
    pub fn len(&self) -> usize {
        self.free_at.len()
    }

    /// Always false: pools have at least one server.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }
    fn d(v: u64) -> SimDuration {
        SimDuration::from_nanos(v)
    }

    #[test]
    fn serial_resource_queues_fcfs() {
        let mut r = SerialResource::new();
        let a = r.reserve(ns(0), d(10));
        let b = r.reserve(ns(0), d(10));
        let c = r.reserve(ns(50), d(10));
        assert_eq!((a.start, a.end), (ns(0), ns(10)));
        assert_eq!((b.start, b.end), (ns(10), ns(20)));
        // Idle gap before c: starts on arrival.
        assert_eq!((c.start, c.end), (ns(50), ns(60)));
    }

    #[test]
    fn pipeline_gate_spaces_starts_only() {
        let mut g = PipelineGate::new(d(4));
        // A 2-flit request admits the next one 8 ns later.
        assert_eq!(g.admit(ns(0), 2), ns(0));
        assert_eq!(g.admit(ns(0), 1), ns(8));
        assert_eq!(g.admit(ns(0), 1), ns(12));
        // After an idle period the gate is immediately available.
        assert_eq!(g.admit(ns(100), 1), ns(100));
    }

    #[test]
    fn pipeline_gate_zero_units_counts_as_one() {
        let mut g = PipelineGate::new(d(4));
        assert_eq!(g.admit(ns(0), 0), ns(0));
        assert_eq!(g.admit(ns(0), 1), ns(4));
    }

    #[test]
    fn server_pool_balances_work() {
        let mut p = ServerPool::new(2);
        let a = p.reserve(ns(0), d(10));
        let b = p.reserve(ns(0), d(10));
        let c = p.reserve(ns(0), d(10));
        assert_eq!(a.start, ns(0));
        assert_eq!(b.start, ns(0)); // second server
        assert_eq!(c.start, ns(10)); // queues behind the earliest
        assert_eq!(p.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_rejected() {
        let _ = ServerPool::new(0);
    }
}
