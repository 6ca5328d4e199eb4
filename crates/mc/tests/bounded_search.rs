//! Integration tests for the bounded model checker itself.
//!
//! Three things have to hold before the smoke run's "no violations" means
//! anything:
//!
//! 1. a bounded search of the real transport is clean AND covers exactly
//!    the pinned search tree,
//! 2. each of the four fault types can be injected and survived on a
//!    deterministic schedule,
//! 3. the checker has teeth — a planted transport bug is caught, and the
//!    counterexample it prints replays to the same violation.

use clio_cn::transport::McMutation;
use clio_mc::{explore, replay, McAction, McConfig};

use McAction::{Corrupt, Deliver, Drop, Duplicate, FireTimer};

/// Runs a search that must be exhaustive and clean, and returns its
/// `(nodes, distinct_states, quiescent_runs)`.
fn counts(cfg: &McConfig) -> (u64, usize, u64) {
    let report = explore(cfg);
    assert!(!report.truncated, "search hit the node cap; not exhaustive");
    if let Some(v) = report.violation {
        panic!("{v}");
    }
    (report.nodes, report.distinct_states, report.quiescent_runs)
}

// The search tree, pinned exactly: `(nodes, distinct states, quiescent
// runs)` of four bounded searches of the real transport. Any change to how
// a node is reached (fork), fingerprinted (`Run::state_hash`,
// `Transport::fingerprint`, `CBoard::fingerprint`) or pruned alters at
// least one of these numbers and fails here by name; a change that is
// meant to alter the tree re-pins them and says why.

#[test]
fn pinned_depth_5_two_faults() {
    let cfg = McConfig { max_depth: 5, ..McConfig::default() };
    assert_eq!(counts(&cfg), (9_105, 5_971, 2));
}

#[test]
fn pinned_depth_7_two_faults() {
    let cfg = McConfig { max_depth: 7, ..McConfig::default() };
    assert_eq!(counts(&cfg), (136_792, 84_166, 8));
}

/// One board power-blip in the budget: every schedule interleaving a
/// crash/restart with the two-op exchange must keep all invariants —
/// window accounting and id freshness at every settled state, single
/// completion and drained windows at quiescence — with the outcome held to
/// the relaxed at-least-once spec (the dedup buffer is volatile, so a
/// post-crash retry may re-execute the FAA once per blip, never more).
///
/// The state hash folds the memory the final checks judge, so two visits
/// that differ only in how often a crash let the FAA re-execute are
/// distinct states and neither prunes the other.
#[test]
fn pinned_depth_6_one_crash() {
    let cfg = McConfig { max_depth: 6, crash_budget: 1, ..McConfig::default() };
    let with_crash = counts(&cfg);
    assert_eq!(with_crash, (59_103, 34_559, 13));
    // The crash budget genuinely widens the search.
    let without = counts(&McConfig { crash_budget: 0, ..cfg });
    assert!(with_crash.1 > without.1, "crash budget added no states ({without:?})");
}

#[test]
fn pinned_two_boards_depth_6() {
    let cfg = McConfig { max_depth: 6, mns: 2, ..McConfig::default() };
    assert_eq!(counts(&cfg), (141_995, 85_830, 6));
}

/// Every fault type on one deterministic schedule: the batch is
/// duplicated, the duplicate dropped, the response corrupted (forcing the
/// timeout/retry path), and the retry's response delivered late. The
/// transport must still converge to the fault-free outcome.
#[test]
fn all_four_fault_types_on_one_schedule_stay_clean() {
    let schedule = [
        Duplicate(0), // clone the Batch frame -> two copies in flight
        Drop(1),      // drop the clone
        Deliver(0),   // deliver the original Batch
        Corrupt(0),   // corrupt the BatchResp on delivery -> CN discards
        FireTimer,    // both ops time out and retry
        Deliver(0),
        Deliver(0),
        Deliver(0),
        Deliver(0),
    ];
    let cfg = McConfig { fault_budget: 3, max_depth: schedule.len(), ..McConfig::default() };
    if let Err(v) = replay(&cfg, &schedule) {
        panic!("{v}");
    }
}

/// Delivering the duplicate instead of dropping it exercises the MN-side
/// dedup path for a frame that was never retried at all.
#[test]
fn delivered_duplicate_batch_is_deduplicated() {
    let schedule = [Duplicate(0), Deliver(0), Deliver(0), Deliver(0), Deliver(0)];
    let cfg = McConfig { fault_budget: 1, max_depth: schedule.len(), ..McConfig::default() };
    if let Err(v) = replay(&cfg, &schedule) {
        panic!("{v}");
    }
}

/// The self-test that gives the clean result meaning: a transport with a
/// planted window leak (skipping `Transport::release` when a NACK exhausts
/// the retry budget) must be caught, and the printed counterexample must
/// replay to a violation under the same configuration.
#[test]
fn planted_window_leak_is_caught_and_replays() {
    let cfg = McConfig {
        max_depth: 5,
        fault_budget: 2,
        mutation: McMutation::LeakWindowOnNack,
        max_retries: 1,
        ..McConfig::default()
    };
    let report = explore(&cfg);
    let v = report.violation.expect("planted window leak must be caught");
    assert!(v.message.contains("leaked"), "expected a window-leak violation, got: {}", v.message);
    let replayed = replay(&cfg, &v.schedule).expect_err("counterexample must replay");
    assert_eq!(replayed.message, v.message, "replay diverged from the search");
}

/// A deterministic crash schedule pinning the at-least-once relaxation:
/// the batch executes, its response is dropped, the board power-blips
/// (dedup buffer lost), and the timeout-driven retry re-executes the FAA.
/// The run must stay violation-free — the re-execution is within the
/// volatile-dedup spec — and reach quiescence.
#[test]
fn crash_after_execution_reexecutes_faa_within_spec() {
    let schedule = [
        Deliver(0),           // deliver the Batch: both ops execute
        Drop(0),              // drop the BatchResp -> CN never hears back
        McAction::CrashBoard, // power-blip: dedup buffer now cold
        FireTimer,            // retry both ops
        Deliver(0),           // deliver the retry batch -> FAA re-executes
        Deliver(0),           // deliver its response
        Deliver(0),
        Deliver(0),
    ];
    let cfg = McConfig {
        fault_budget: 1,
        crash_budget: 1,
        max_depth: schedule.len(),
        ..McConfig::default()
    };
    if let Err(v) = replay(&cfg, &schedule) {
        panic!("{v}");
    }
}

/// Two memory boards behind the shared wire, one read per board: the
/// bounded search must keep every invariant per board — window accounting
/// per destination, dedup on whichever board the fault lands on, strict
/// observational equivalence at quiescence — while frames to the two
/// boards interleave in every order the bounds allow.
#[test]
fn two_mn_bounded_search_is_clean() {
    let cfg = McConfig { mns: 2, max_depth: 5, fault_budget: 1, ..McConfig::default() };
    let two = counts(&cfg);
    assert!(two.2 > 0, "no two-MN schedule reached quiescence");
    // The second board genuinely widens the search at identical bounds:
    // the single-MN scenario coalesces both ops into one frame, the
    // two-MN one keeps a frame in flight per destination.
    let single = counts(&McConfig { mns: 1, ..cfg });
    assert!(two.1 > single.1, "second board added no states ({two:?} vs {single:?})");
}

/// Deterministic two-MN dedup check: duplicate each board's request frame
/// and deliver both copies — each board must dedup its own duplicate
/// independently, and the run must converge to the fault-free outcome.
#[test]
fn two_mn_duplicates_are_deduplicated_per_board() {
    // At the first decision point the wire holds one request frame per
    // board (capture order: board 0, board 1). Duplicate both, then drain
    // everything in capture order; dedup on each board must absorb the
    // clones.
    // Four requests (two originals + two clones) and a response per
    // delivered request (dedup answers a duplicate from its cache): eight
    // deliveries drain the wire.
    let schedule = [
        Duplicate(0), // clone board 0's request
        Duplicate(1), // clone board 1's request
        Deliver(0),
        Deliver(0),
        Deliver(0),
        Deliver(0),
        Deliver(0),
        Deliver(0),
        Deliver(0),
        Deliver(0),
    ];
    let cfg =
        McConfig { mns: 2, fault_budget: 2, max_depth: schedule.len(), ..McConfig::default() };
    if let Err(v) = replay(&cfg, &schedule) {
        panic!("{v}");
    }
}

/// Sanity on the bounds themselves: a zero-fault search is a plain
/// delivery-order exploration and must stay clean even at larger depth.
#[test]
fn fault_free_delivery_orders_are_clean() {
    let cfg = McConfig { max_depth: 8, fault_budget: 0, ..McConfig::default() };
    counts(&cfg);
}
