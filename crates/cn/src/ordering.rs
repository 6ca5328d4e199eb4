//! Intra-thread request ordering (paper §4.5, technique T2).
//!
//! CLib — not the memory node — guarantees that no two *dependent*
//! (WAW/RAW/WAR) asynchronous requests are outstanding at once. Dependencies
//! are tracked at **page granularity**: every new request's virtual pages
//! are matched against in-flight (and queued) requests; conflicting requests
//! wait. `rrelease`/`rfence` insert a full barrier. Tracking by page keeps
//! the table small at the cost of occasional false dependencies (§4.5
//! discusses this trade-off).

use std::collections::VecDeque;
use std::hash::Hash;
use std::ops::RangeInclusive;

use clio_sim::IdMap;

/// Whether an operation reads or mutates its pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// Reads only — concurrent reads never conflict.
    Read,
    /// Writes/atomics/metadata — conflicts with everything overlapping.
    Write,
}

/// One tracked operation. An access touches a contiguous page range, so
/// the range *is* the page list — no per-op allocation.
#[derive(Debug, Clone, Copy)]
enum Tracked {
    /// Conflicts with everything.
    Barrier,
    /// Reads or mutates the pages `first..=last`.
    Access { class: AccessClass, first: u64, last: u64 },
}

impl Tracked {
    fn conflicts_with(&self, other: &Tracked) -> bool {
        use Tracked::Access;
        match (self, other) {
            (
                Access { class: a, first: f1, last: l1 },
                Access { class: b, first: f2, last: l2 },
            ) => (*a == AccessClass::Write || *b == AccessClass::Write) && f1 <= l2 && f2 <= l1,
            _ => true,
        }
    }
}

/// How many tracked ops use one page, split by whether they are in flight
/// or still waiting in the pending queue.
#[derive(Debug, Default, Clone, Copy)]
struct PageUse {
    fly_readers: u32,
    fly_writers: u32,
    wait_readers: u32,
    wait_writers: u32,
}

impl PageUse {
    fn slot(&mut self, class: AccessClass, inflight: bool) -> &mut u32 {
        match (class, inflight) {
            (AccessClass::Read, true) => &mut self.fly_readers,
            (AccessClass::Write, true) => &mut self.fly_writers,
            (AccessClass::Read, false) => &mut self.wait_readers,
            (AccessClass::Write, false) => &mut self.wait_writers,
        }
    }

    /// Whether an access of `class` conflicts with the ops counted here —
    /// in flight only, or waiting ones too.
    fn blocks(&self, class: AccessClass, with_waiting: bool) -> bool {
        let (mut readers, mut writers) = (self.fly_readers, self.fly_writers);
        if with_waiting {
            readers += self.wait_readers;
            writers += self.wait_writers;
        }
        match class {
            AccessClass::Read => writers > 0,
            AccessClass::Write => readers + writers > 0,
        }
    }

    fn is_unused(&self) -> bool {
        self.fly_readers + self.fly_writers + self.wait_readers + self.wait_writers == 0
    }
}

/// Per-thread dependency tracker.
///
/// `T` is the caller's operation token type (kept opaque). Submissions
/// either dispatch immediately or join a FIFO pending queue; completions
/// release queued operations in program order (a pending op never jumps an
/// earlier conflicting one).
///
/// Tracked ops are indexed by page, so admitting an op costs O(pages it
/// touches) however many ops are in flight — every task of an executor
/// shares one thread id, so "in flight" is the whole process's window.
#[derive(Debug, Clone)]
pub struct DependencyTracker<T> {
    inflight: IdMap<T, Tracked>,
    pending: VecDeque<(T, Tracked)>,
    /// Page → use counts over every tracked op (in flight and pending).
    pages: IdMap<u64, PageUse>,
    /// Barriers in flight / waiting.
    fly_barriers: usize,
    wait_barriers: usize,
}

impl<T: Copy + Eq + Hash> DependencyTracker<T> {
    /// An empty tracker.
    pub fn new() -> Self {
        DependencyTracker {
            inflight: IdMap::default(),
            pending: VecDeque::new(),
            pages: IdMap::default(),
            fly_barriers: 0,
            wait_barriers: 0,
        }
    }

    /// Number of dispatched-but-incomplete operations.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Number of operations waiting on dependencies.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is in flight or queued (barrier condition).
    pub fn is_drained(&self) -> bool {
        self.inflight.is_empty() && self.pending.is_empty()
    }

    /// Submits an operation touching the pages `vpns`. Returns `true` if it
    /// may be sent now; otherwise it is queued and will be released by
    /// [`complete`](Self::complete).
    pub fn submit(&mut self, token: T, class: AccessClass, vpns: RangeInclusive<u64>) -> bool {
        let (first, last) = vpns.into_inner();
        self.submit_inner(token, Tracked::Access { class, first, last })
    }

    /// Submits a barrier (`rrelease`/`rfence`): it waits for everything
    /// before it, and everything after waits for it.
    pub fn submit_barrier(&mut self, token: T) -> bool {
        self.submit_inner(token, Tracked::Barrier)
    }

    /// Whether `t` conflicts with an op in flight (or, `with_waiting`, with
    /// any tracked op).
    fn blocked(&self, t: &Tracked, with_waiting: bool) -> bool {
        let (waiting, wait_barriers) =
            if with_waiting { (self.pending.len(), self.wait_barriers) } else { (0, 0) };
        match *t {
            Tracked::Barrier => self.inflight.len() + waiting > 0,
            Tracked::Access { class, first, last } => {
                self.fly_barriers + wait_barriers > 0
                    || (first..=last)
                        .any(|p| self.pages.get(&p).is_some_and(|u| u.blocks(class, with_waiting)))
            }
        }
    }

    /// Moves `t`'s page/barrier counts by one: `add` or remove, on the
    /// in-flight or the waiting side.
    fn count(&mut self, t: &Tracked, inflight: bool, add: bool) {
        match *t {
            Tracked::Barrier => {
                let n = if inflight { &mut self.fly_barriers } else { &mut self.wait_barriers };
                *n = if add { *n + 1 } else { *n - 1 };
            }
            Tracked::Access { class, first, last } => {
                for p in first..=last {
                    let used = self.pages.entry(p).or_default();
                    let n = used.slot(class, inflight);
                    *n = if add { *n + 1 } else { *n - 1 };
                    if !add && used.is_unused() {
                        self.pages.remove(&p);
                    }
                }
            }
        }
    }

    fn submit_inner(&mut self, token: T, t: Tracked) -> bool {
        let dispatch = !self.blocked(&t, true);
        self.count(&t, dispatch, true);
        if dispatch {
            self.inflight.insert(token, t);
        } else {
            self.pending.push_back((token, t));
        }
        dispatch
    }

    /// Marks a dispatched operation complete and returns the tokens of
    /// queued operations that become dispatchable, in program order.
    pub fn complete(&mut self, token: T) -> Vec<T> {
        if let Some(t) = self.inflight.remove(&token) {
            self.count(&t, true, false);
        }
        let mut released = Vec::new();
        // Promote, front to back, every pending op whose conflicts have
        // cleared: nothing in flight and nothing queued ahead of it
        // conflicts, preserving FIFO among conflicting ops.
        let mut i = 0;
        while i < self.pending.len() {
            let candidate = self.pending[i].1;
            let blocked = self.blocked(&candidate, false)
                || self.pending.iter().take(i).any(|(_, o)| o.conflicts_with(&candidate));
            if blocked {
                i += 1;
                continue;
            }
            let (token, t) = self.pending.remove(i).expect("index in range");
            self.count(&t, false, false);
            self.count(&t, true, true);
            released.push(token);
            self.inflight.insert(token, t);
            // Releasing one op can unblock none of the earlier ones (it only
            // adds to what is in flight), so the scan resumes at index `i`.
        }
        released
    }
}

impl<T: Copy + Eq + Hash> Default for DependencyTracker<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AccessClass::{Read, Write};

    #[test]
    fn independent_ops_fly_together() {
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Write, 1..=1));
        assert!(d.submit(2, Write, 2..=2));
        assert!(d.submit(3, Read, 3..=3));
        assert_eq!(d.inflight_len(), 3);
    }

    #[test]
    fn reads_to_same_page_do_not_conflict() {
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Read, 7..=7));
        assert!(d.submit(2, Read, 7..=7));
    }

    #[test]
    fn waw_raw_war_block() {
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Write, 7..=7));
        assert!(!d.submit(2, Write, 7..=7), "WAW");
        assert!(!d.submit(3, Read, 7..=7), "RAW");
        let released = d.complete(1);
        assert_eq!(released, vec![2], "only the WAW write releases first");
        let released = d.complete(2);
        assert_eq!(released, vec![3]);
        // WAR: read in flight blocks a write.
        assert!(d.submit(4, Read, 9..=9));
        assert!(!d.submit(5, Write, 9..=9), "WAR");
        d.complete(3);
        assert_eq!(d.complete(4), vec![5]);
    }

    #[test]
    fn program_order_preserved_among_conflicting_ops() {
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Write, 1..=1));
        assert!(!d.submit(2, Write, 1..=1));
        assert!(!d.submit(3, Write, 1..=1));
        // Completing 1 must release 2 (not 3).
        assert_eq!(d.complete(1), vec![2]);
        assert_eq!(d.complete(2), vec![3]);
    }

    #[test]
    fn barrier_waits_for_everything_and_blocks_everything() {
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Read, 1..=1));
        assert!(d.submit(2, Write, 2..=2));
        assert!(!d.submit_barrier(10), "barrier waits for in-flight ops");
        assert!(!d.submit(3, Read, 99..=99), "ops after a barrier wait for it");
        d.complete(1);
        let rel = d.complete(2);
        assert_eq!(rel, vec![10], "barrier dispatches once drained");
        let rel = d.complete(10);
        assert_eq!(rel, vec![3]);
        assert!(d.is_drained() || d.inflight_len() == 1);
    }

    #[test]
    fn multi_page_ops_conflict_on_any_shared_page() {
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Write, 1..=3));
        assert!(!d.submit(2, Read, 3..=4), "overlap on page 3");
        assert!(d.submit(3, Read, 4..=5));
    }

    #[test]
    fn false_sharing_at_page_granularity() {
        // Two writes to different addresses on the SAME page conflict —
        // the documented false-dependency trade-off.
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Write, 7..=7));
        assert!(!d.submit(2, Write, 7..=7));
    }

    #[test]
    fn independent_op_overtakes_blocked_queue() {
        // Release ordering allows non-dependent ops to proceed even while a
        // dependent chain is queued.
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Write, 1..=1));
        assert!(!d.submit(2, Write, 1..=1), "dependent: queued");
        assert!(d.submit(3, Write, 2..=2), "independent: dispatches immediately");
        assert_eq!(d.inflight_len(), 2);
        assert_eq!(d.pending_len(), 1);
    }
}
