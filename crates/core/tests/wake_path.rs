//! One completion wake: a completed op costs its task exactly one poll.
//!
//! The executor wakes a task when — and only when — an op's result is in
//! its slot, so polls track completed ops one for one. A second wake
//! anywhere on the completion path (a layer below waking before the result
//! is deliverable, a batch response waking every task it carries) shows up
//! here as polls ≈ 2 × ops.
//!
//! A wake is a task index, so a task may await only its own executor's
//! futures; one that waits on anything else panics, naming that rule.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use bytes::Bytes;
use clio_core::{Cluster, ClusterConfig};
use clio_proto::{Perm, Pid};
use clio_sim::SimDuration;

/// Counts every poll of the future it wraps.
struct CountPolls<F> {
    inner: Pin<Box<F>>,
    polls: Rc<Cell<u64>>,
}

fn count_polls<F: Future>(polls: &Rc<Cell<u64>>, inner: F) -> CountPolls<F> {
    CountPolls { inner: Box::pin(inner), polls: polls.clone() }
}

impl<F: Future> Future for CountPolls<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.polls.set(self.polls.get() + 1);
        self.inner.as_mut().poll(cx)
    }
}

#[test]
fn sequential_reads_cost_one_poll_each() {
    const READS: u64 = 1_000;
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    let polls = Rc::new(Cell::new(0));
    cluster.block_on(0, Pid(1), |h| {
        count_polls(&polls, async move {
            let va = h.ralloc(4096, Perm::RW).await.va();
            h.rwrite(va, Bytes::from_static(&[5u8; 16])).await.result.expect("seed");
            for _ in 0..READS {
                assert_eq!(h.rread(va, 16).await.data().len(), 16);
            }
        })
    });
    // First poll + alloc + seed write + one per read.
    assert!(polls.get() <= READS + 3, "{} polls for {READS} sequential reads", polls.get());
}

#[test]
fn closed_loop_of_64_tasks_costs_one_poll_per_op() {
    const TASKS: u64 = 64;
    const READS_PER_TASK: u64 = 50;
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    let polls = Rc::new(Cell::new(0));
    let counter = polls.clone();
    cluster.block_on(0, Pid(1), |h| async move {
        let va = h.ralloc(TASKS * 4096, Perm::RW).await.va();
        for t in 0..TASKS {
            let h2 = h.clone();
            // One page per task: the window's reads batch into shared
            // response frames, each of which completes many tasks' ops.
            h.spawn(count_polls(&counter, async move {
                for _ in 0..READS_PER_TASK {
                    h2.rread(va + t * 4096, 64).await.result.expect("read");
                }
            }));
        }
        h.rrelease().await;
    });
    let ops = TASKS * READS_PER_TASK;
    // One first poll per task + one per completed op.
    assert!(polls.get() <= ops + TASKS, "{} polls for {ops} ops on {TASKS} tasks", polls.get());
}

/// A deadline whose op completes first leaves no wake behind: its sleep's
/// timer still fires, but its record went with the dropped sleep, so the
/// task is not polled for it.
#[test]
fn a_deadline_that_loses_its_race_leaves_no_wake_behind() {
    const READS: u64 = 100;
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    let polls = Rc::new(Cell::new(0));
    cluster.block_on(0, Pid(1), |h| {
        count_polls(&polls, async move {
            let va = h.ralloc(4096, Perm::RW).await.va();
            for _ in 0..READS {
                let read = h.rread(va, 16);
                let c = h.with_deadline(read, SimDuration::from_micros(500)).await;
                c.result.expect("the read beats its deadline");
            }
            // Every deadline's timer fires during this sleep.
            h.sleep(SimDuration::from_millis(2)).await;
        })
    });
    // First poll + alloc + one per read + the sleep.
    assert!(polls.get() <= READS + 3, "{} polls for {READS} deadlined reads", polls.get());
}

/// A future that keeps the context's waker to wake its task later, as a
/// foreign runtime's would.
struct KeepsTheWaker(Option<Waker>);

impl Future for KeepsTheWaker {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.0 = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[test]
#[should_panic(expected = "a task may await only its own executor's futures")]
fn a_task_awaiting_a_foreign_future_panics_with_the_await_rule() {
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    cluster.block_on(0, Pid(1), |_h| KeepsTheWaker(None));
}
