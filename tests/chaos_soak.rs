//! Tier-2 chaos soak: the full cluster under a seeded crash/flap storm.
//!
//! Eight CNs run an open mix of reads, writes, and deadline-bounded ops
//! against two memory nodes while a [`ChaosSchedule::storm`] power-blips
//! both boards and flaps both board links. The soak asserts the failure
//! model end to end:
//!
//! * **Termination** — every submitted op completes with success or a
//!   typed error (`TimedOut` / `Unreachable` / `DeadlineExceeded`); no op
//!   hangs, every client task runs to its end.
//! * **Conservation** — when the cluster goes idle, every CN transport's
//!   window accounting has drained to zero and the runtime gauges are
//!   clean: chaos may fail ops, never leak slots.
//! * **Durability** — a write acknowledged before a crash is readable,
//!   byte-identical, after the board restarts: committed DRAM survives a
//!   power cycle, only volatile state is lost.
//! * **Determinism** — the same seed yields the identical run digest and
//!   identical observable tallies, twice. Chaos draws no runtime
//!   randomness.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use clio::cn::{ClioError, CompletionValue};
use clio::net::{ChaosSchedule, StormConfig};
use clio::proto::{Perm, Pid};
use clio::sim::SimDuration;
use clio::system::{Cluster, ClusterConfig};

const CNS: usize = 8;
const MNS: usize = 2;
const STORM_OPS: usize = 16;
const DURABLE_LEN: usize = 512;

/// Observable tallies of one soak run, shared by all client tasks.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Tally {
    submitted: u64,
    ok: u64,
    timed_out: u64,
    unreachable: u64,
    deadline_exceeded: u64,
    /// Per-CN flag set by the task's last statement.
    finished: Vec<bool>,
}

impl Tally {
    fn failed(&self) -> u64 {
        self.timed_out + self.unreachable + self.deadline_exceeded
    }
    fn terminated(&self) -> u64 {
        self.ok + self.failed()
    }
    fn count(&mut self, result: &Result<CompletionValue, ClioError>) {
        self.submitted += 1;
        match result {
            Ok(_) => self.ok += 1,
            Err(ClioError::TimedOut { .. }) => self.timed_out += 1,
            Err(ClioError::Unreachable { .. }) => self.unreachable += 1,
            Err(ClioError::DeadlineExceeded) => self.deadline_exceeded += 1,
            Err(other) => panic!("soak op failed with an unexpected error: {other:?}"),
        }
    }
}

fn durable_pattern(cn: usize) -> Bytes {
    Bytes::from(vec![0x40 + cn as u8; DURABLE_LEN])
}

/// Builds, storms, and drains one soak run; returns the cluster (idle) and
/// the tallies.
fn soak(seed: u64) -> (Cluster, ChaosSchedule, Rc<RefCell<Tally>>) {
    let mut cfg = ClusterConfig::test_small();
    cfg.seed = seed;
    cfg.cns = CNS;
    cfg.mns = MNS;
    let mut cluster = Cluster::build(&cfg);

    // Two board power cycles and four link flaps (plus delay spikes),
    // spread over the first 2 ms, hitting both MNs and both board links.
    let mn_macs = cluster.mn_macs().to_vec();
    let storm = ChaosSchedule::storm(seed ^ 0xC4A0, &mn_macs, &mn_macs, StormConfig::default());
    assert!(storm.crashes() >= 2, "storm must power-cycle boards");
    assert!(storm.flaps() >= 4, "storm must flap links");
    cluster.apply_chaos(&storm);

    let tally = Rc::new(RefCell::new(Tally { finished: vec![false; CNS], ..Tally::default() }));
    for cn in 0..CNS {
        let t = tally.clone();
        cluster.spawn(cn, Pid(10 + cn as u64), move |h| async move {
            // Allocation rides the slow path; under chaos it may time out,
            // so insist until it lands (the storm is finite).
            let va = loop {
                let c = h.ralloc(64 << 10, Perm::RW).await;
                t.borrow_mut().count(&c.result);
                if let Ok(CompletionValue::Va(va)) = c.result {
                    break va;
                }
            };
            // Durable write: retried until acknowledged, so by the time the
            // loop exits the bytes are committed on some board.
            loop {
                let c = h.rwrite(va, durable_pattern(cn)).await;
                t.borrow_mut().count(&c.result);
                if c.result.is_ok() {
                    break;
                }
            }
            // Storm traffic: reads and writes paced across the storm
            // window, every third op under a deadline tight enough to beat
            // the retry budget when its board is down.
            for i in 0..STORM_OPS {
                h.sleep(SimDuration::from_micros(120)).await;
                let off = 4096 + (i as u64 % 8) * 4096;
                let c = match i % 3 {
                    0 => {
                        h.with_deadline(h.rread(va + off, 256), SimDuration::from_micros(80)).await
                    }
                    1 => h.rwrite(va + off, Bytes::from(vec![i as u8; 128])).await,
                    _ => h.rread(va + off, 128).await,
                };
                t.borrow_mut().count(&c.result);
            }
            // Durability: after the storm has passed, the committed bytes
            // must read back intact — a restart lost only volatile state.
            h.sleep(SimDuration::from_millis(3)).await;
            loop {
                let c = h.rread(va, DURABLE_LEN as u32).await;
                t.borrow_mut().count(&c.result);
                match c.result {
                    Ok(CompletionValue::Data(d)) => {
                        assert_eq!(
                            d,
                            durable_pattern(cn),
                            "cn{cn}: committed write did not survive the board restart"
                        );
                        break;
                    }
                    Ok(other) => panic!("read returned {other:?}"),
                    Err(_) => continue,
                }
            }
            t.borrow_mut().finished[cn] = true;
        });
    }
    cluster.start();
    cluster.run_until_idle();
    (cluster, storm, tally)
}

#[test]
fn chaos_soak_terminates_conserves_and_preserves_committed_writes() {
    let (cluster, storm, tally) = soak(0x50AC);
    let t = tally.borrow();

    // Termination: every task ran to the end, every op completed.
    for (cn, done) in t.finished.iter().enumerate() {
        assert!(done, "cn{cn}'s task never finished");
    }
    assert_eq!(t.submitted, t.terminated(), "an op vanished without completing");
    assert!(
        t.failed() > 0,
        "the storm failed no ops at all — chaos never bit (schedule: {storm:?})"
    );
    assert!(t.ok as usize >= CNS * (STORM_OPS / 2), "too few ops succeeded: {t:?}");

    // Conservation: all window accounting drained on every CN.
    for cn in 0..CNS {
        let transport = cluster.cn(cn).clib().transport();
        transport.check_invariants().unwrap_or_else(|e| panic!("cn{cn}: {e}"));
        assert_eq!(transport.in_flight(), 0, "cn{cn}: outstanding not drained");
        assert_eq!(transport.queued(), 0, "cn{cn}: send queue not drained");
        assert_eq!(cluster.cn(cn).clib().in_flight(), 0, "cn{cn}: an op never completed");
        assert_eq!(transport.incast_in_flight(), 0, "cn{cn}: incast bytes leaked");
        let snap = cluster.registry().snapshot();
        assert_eq!(snap.gauges[&format!("cn{cn}.runtime.inflight")], 0, "cn{cn} inflight");
        assert_eq!(snap.gauges[&format!("cn{cn}.runtime.parked")], 0, "cn{cn} parked");
    }

    // The storm really happened: every scheduled crash restarted a board,
    // and the boards are back up at idle.
    let restarts: u64 = (0..MNS).map(|i| cluster.mn(i).stats().board_restarts).sum();
    assert_eq!(restarts as usize, storm.crashes(), "crash/restart pairs must all land");
    for i in 0..MNS {
        assert!(cluster.mn(i).alive(), "mn{i} left powered off after the storm");
    }
}

#[test]
fn chaos_soak_is_digest_stable_across_reruns() {
    let (a, _, ta) = soak(0xD1CE);
    let (b, _, tb) = soak(0xD1CE);
    assert_eq!(a.sim.digest(), b.sim.digest(), "same seed must replay to the same digest");
    assert_eq!(a.sim.events_dispatched(), b.sim.events_dispatched(), "event counts diverged");
    assert_eq!(*ta.borrow(), *tb.borrow(), "observable tallies diverged");
    // And a different seed genuinely reshuffles the run.
    let (c, _, _) = soak(0xD1CF);
    assert_ne!(a.sim.digest(), c.sim.digest(), "different seeds should differ");
}
