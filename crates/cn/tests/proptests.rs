//! Property tests: the dependency tracker never violates the paper's
//! ordering rules (§4.5 T2) under arbitrary schedules, and its page-indexed
//! admission decides exactly what a linear scan over every tracked op would.

use std::collections::VecDeque;

use clio_cn::ordering::{AccessClass, DependencyTracker};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct Access {
    write: bool,
    vpn: u64,
}

fn arb_op() -> impl Strategy<Value = Access> {
    (any::<bool>(), 0u64..6).prop_map(|(write, vpn)| Access { write, vpn })
}

fn conflicts(a: &Access, b: &Access) -> bool {
    a.vpn == b.vpn && (a.write || b.write)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Submit a random op sequence, completing in-flight ops at random
    /// points. Invariants:
    /// 1. no two conflicting ops are ever in flight together,
    /// 2. every op eventually dispatches,
    /// 3. conflicting ops dispatch in program order.
    #[test]
    fn no_conflicting_ops_in_flight(
        ops in proptest::collection::vec(arb_op(), 1..60),
        completions in proptest::collection::vec(any::<prop::sample::Index>(), 0..200),
    ) {
        let mut tracker: DependencyTracker<u32> = DependencyTracker::new();
        let mut inflight: Vec<u32> = Vec::new();
        let mut dispatched_order: Vec<u32> = Vec::new();
        let specs: Vec<Access> = ops.clone();
        let mut completion_iter = completions.into_iter();

        let check_inflight = |inflight: &[u32], specs: &[Access]| {
            for (i, &a) in inflight.iter().enumerate() {
                for &b in &inflight[i + 1..] {
                    assert!(
                        !conflicts(&specs[a as usize], &specs[b as usize]),
                        "ops {a} and {b} conflict but are both in flight"
                    );
                }
            }
        };

        for (token, op) in specs.iter().enumerate() {
            let token = token as u32;
            let class = if op.write { AccessClass::Write } else { AccessClass::Read };
            if tracker.submit(token, class, op.vpn..=op.vpn) {
                inflight.push(token);
                dispatched_order.push(token);
            }
            check_inflight(&inflight, &specs);

            // Randomly complete one in-flight op.
            if let Some(idx) = completion_iter.next() {
                if !inflight.is_empty() {
                    let victim = inflight.remove(idx.index(inflight.len()));
                    for released in tracker.complete(victim) {
                        inflight.push(released);
                        dispatched_order.push(released);
                    }
                    check_inflight(&inflight, &specs);
                }
            }
        }

        // Drain everything.
        let mut guard = 0;
        while !inflight.is_empty() {
            let victim = inflight.remove(0);
            for released in tracker.complete(victim) {
                inflight.push(released);
                dispatched_order.push(released);
            }
            check_inflight(&inflight, &specs);
            guard += 1;
            prop_assert!(guard < 10_000, "drain did not terminate");
        }
        prop_assert!(tracker.is_drained(), "tracker retains state after drain");
        prop_assert_eq!(dispatched_order.len(), specs.len(), "an op never dispatched");

        // Conflicting pairs dispatched in program order.
        for (pos_a, &a) in dispatched_order.iter().enumerate() {
            for &b in &dispatched_order[pos_a + 1..] {
                if conflicts(&specs[a as usize], &specs[b as usize]) {
                    // b dispatched after a; program order must agree.
                    // (Equal tokens impossible.)
                    if b < a {
                        // A later-dispatched op with an earlier token would
                        // mean reordering of a conflicting pair... unless
                        // they never overlapped in the pending queue. The
                        // tracker releases strictly in program order among
                        // conflicting ops, so this must not happen.
                        prop_assert!(
                            false,
                            "conflicting ops {b} and {a} dispatched out of program order"
                        );
                    }
                }
            }
        }
    }
}

/// The reference model: the tracker as it was before ops were indexed by
/// page — every submit scans all in-flight and pending ops, every complete
/// re-scans the pending queue. Kept only here, as the oracle.
#[derive(Default)]
struct LinearTracker {
    inflight: Vec<(u32, RefOp)>,
    pending: VecDeque<(u32, RefOp)>,
}

#[derive(Debug, Clone, Copy)]
struct RefOp {
    write: bool,
    first: u64,
    last: u64,
    barrier: bool,
}

impl RefOp {
    fn conflicts_with(&self, o: &RefOp) -> bool {
        if self.barrier || o.barrier {
            return true;
        }
        (self.write || o.write) && (self.first..=self.last).any(|p| (o.first..=o.last).contains(&p))
    }
}

impl LinearTracker {
    fn submit(&mut self, token: u32, op: RefOp) -> bool {
        let conflicts =
            self.inflight.iter().chain(self.pending.iter()).any(|(_, o)| o.conflicts_with(&op));
        if conflicts {
            self.pending.push_back((token, op));
        } else {
            self.inflight.push((token, op));
        }
        !conflicts
    }

    fn complete(&mut self, token: u32) -> Vec<u32> {
        if let Some(idx) = self.inflight.iter().position(|(t, _)| *t == token) {
            self.inflight.swap_remove(idx);
        }
        let mut released = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            let cand = self.pending[i].1;
            let blocked = self.inflight.iter().any(|(_, o)| o.conflicts_with(&cand))
                || self.pending.iter().take(i).any(|(_, o)| o.conflicts_with(&cand));
            if blocked {
                i += 1;
                continue;
            }
            let entry = self.pending.remove(i).expect("index in range");
            released.push(entry.0);
            self.inflight.push(entry);
        }
        released
    }
}

fn arb_ref_op() -> impl Strategy<Value = RefOp> {
    // One op in eight is a barrier; data ops span one to three of six pages.
    (0u8..8, any::<bool>(), 0u64..6, 0u64..3).prop_map(|(kind, write, first, extra)| RefOp {
        write,
        first,
        last: first + extra,
        barrier: kind == 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random read/write/barrier sequences with completions at random
    /// points: the page-indexed tracker and the linear reference must make
    /// the same dispatch/hold decision on every submit and release the same
    /// tokens in the same order on every complete.
    #[test]
    fn page_index_matches_linear_reference(
        ops in proptest::collection::vec(arb_ref_op(), 1..80),
        completions in proptest::collection::vec(any::<prop::sample::Index>(), 0..240),
    ) {
        let mut tracker: DependencyTracker<u32> = DependencyTracker::new();
        let mut reference = LinearTracker::default();
        let mut inflight: Vec<u32> = Vec::new();
        let mut completion_iter = completions.into_iter();
        let complete_one = |tracker: &mut DependencyTracker<u32>,
                                reference: &mut LinearTracker,
                                inflight: &mut Vec<u32>,
                                at: usize| {
            let victim = inflight.remove(at);
            let released = tracker.complete(victim);
            assert_eq!(released, reference.complete(victim), "release order after {victim}");
            inflight.extend(released);
        };
        for (token, op) in ops.iter().enumerate() {
            let token = token as u32;
            let dispatched = if op.barrier {
                tracker.submit_barrier(token)
            } else {
                let class = if op.write { AccessClass::Write } else { AccessClass::Read };
                tracker.submit(token, class, op.first..=op.last)
            };
            prop_assert_eq!(dispatched, reference.submit(token, *op), "admission of op {}", token);
            if dispatched {
                inflight.push(token);
            }
            // Complete up to two in-flight ops between submissions.
            for _ in 0..2 {
                if let (Some(idx), false) = (completion_iter.next(), inflight.is_empty()) {
                    let at = idx.index(inflight.len());
                    complete_one(&mut tracker, &mut reference, &mut inflight, at);
                }
            }
            prop_assert_eq!(tracker.inflight_len(), reference.inflight.len());
            prop_assert_eq!(tracker.pending_len(), reference.pending.len());
        }
        while !inflight.is_empty() {
            complete_one(&mut tracker, &mut reference, &mut inflight, 0);
        }
        prop_assert!(tracker.is_drained(), "tracker retains state after drain");
    }
}
