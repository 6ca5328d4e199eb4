//! Counterexamples found by the `clio_mc` bounded model checker, promoted
//! to deterministic regression tests.
//!
//! Each schedule below was printed by the checker as a minimal replayable
//! counterexample. Replaying one drives the *real* `Transport` and
//! `CBoard` through the exact interleaving that exposed the bug, then
//! re-checks every invariant — so a reintroduced bug fails here in
//! milliseconds instead of minutes of search.

use clio_cn::transport::McMutation;
use clio_mc::{replay, McAction, McConfig};

use McAction::{Corrupt, Deliver, FireTimer};

/// The checker's first real find: `retry_of` used to name the immediately
/// preceding attempt instead of the chain's first id. Under this schedule
/// the batched read+faa executes, the `BatchResp` is corrupted (so the CN
/// sees nothing and both ops time out), and the faa's first retry is
/// corrupted on its way to the MN — so the MN NACKs an id it never
/// recorded. The second retry then pointed `retry_of` at that unseen
/// first retry, the dedup lookup missed, and the fetch-and-add executed
/// TWICE (`faa_cell` ended at seed + 2×delta, and the client saw the
/// second `Old` value).
///
/// Fixed by chaining every retry to `Outstanding::origin`. This replay
/// must now be clean.
#[test]
fn lost_intermediate_retry_does_not_reexecute_an_atomic() {
    let schedule = [
        Deliver(0), // Batch[read, faa] reaches the MN; both execute
        Corrupt(0), // BatchResp corrupted -> CN discards it
        FireTimer,  // both ops time out; retries go out
        Corrupt(0), // faa retry corrupted -> MN NACKs an unseen id
        Deliver(0), // read retry -> executes (idempotent)
        Deliver(0), // NACK -> CN issues second faa retry
        Deliver(0), // read response completes the read
        Deliver(0), // second faa retry -> MUST dedup-replay, not re-execute
        Deliver(0), // replayed faa response completes the faa
    ];
    let cfg = McConfig { max_depth: schedule.len(), ..McConfig::default() };
    if let Err(v) = replay(&cfg, &schedule) {
        panic!("retry-chain dedup regression: {v}");
    }
}

/// The checker's planted-bug self-test, pinned: with the
/// `LeakWindowOnNack` mutation (skip `Transport::release` when a NACK
/// exhausts the retry budget) this schedule leaks the failed op's incast
/// window slots. It must still fire — and the identical schedule against
/// the unmutated transport must be clean — or the checker has lost its
/// teeth.
#[test]
fn window_leak_counterexample_fires_only_with_the_planted_bug() {
    let schedule = [
        Deliver(0), // Batch[read, faa] executes on the MN
        Corrupt(0), // BatchResp corrupted -> CN discards it
        FireTimer,  // both ops time out; retries (the only retry) go out
        Corrupt(0), // faa retry corrupted -> MN NACKs
        Deliver(1), // NACK exhausts max_retries=1 -> windows must release
    ];
    let mutated = McConfig {
        max_depth: schedule.len(),
        mutation: McMutation::LeakWindowOnNack,
        max_retries: 1,
        ..McConfig::default()
    };
    let v = replay(&mutated, &schedule).expect_err("planted leak must fire");
    assert!(v.message.contains("leaked"), "unexpected violation: {}", v.message);

    let clean = McConfig { mutation: McMutation::None, ..mutated };
    if let Err(v) = replay(&clean, &schedule) {
        panic!("schedule must be clean without the planted bug: {v}");
    }
}
