//! Allocation and event budget of the op fast path: steady-state heap
//! allocations per completed op, counted by a wrapping
//! `#[global_allocator]`, and simulator events dispatched per completed
//! op must stay under the ceilings below so neither can silently regress.
//! The closed-loop alloc ceilings are the measured use rounded up, plus one
//! (8.36 → 10 lone, 4.20 → 6 batched); the open-loop one is the measured
//! use rounded up (7.67 → 8), so the per-task waker the executor once
//! allocated (8.83) cannot come back. Event counts are exact on any host,
//! so their ceilings are the measured value rounded up to the hundredth
//! (6.0000 → 6.00 lone, 0.4687 → 0.47 batched, 2.5247 → 2.53 open loop).
//! The measured window starts and ends at an op completion, so it counts
//! whole ops: a lone op dispatches exactly six events.
//! Lower a ceiling whenever a change removes an allocation or an event.
//! The alloc counter is per thread, so the tests do not see each other (or
//! the harness).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use clio_core::{Cluster, ClusterConfig, ProcHandle};
use clio_proto::{Perm, Pid};
use clio_sim::{SimDuration, SimRng};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is bumping a const-initialised,
// destructor-free thread-local counter, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PAGE: u64 = 4096;

/// Steady-state cost per completed op of the load `program` spawns on one
/// CN against one MN: heap allocations and dispatched simulator events. It
/// gets the process handle, a completed-op counter to bump and a flag
/// telling it to stop.
fn per_op<F, Fut>(label: &str, program: F) -> PerOp
where
    F: FnOnce(ProcHandle, Rc<Cell<u64>>, Rc<Cell<bool>>) -> Fut,
    Fut: Future<Output = ()> + 'static,
{
    let mut cfg = ClusterConfig::test_small();
    cfg.board.hw.phys_mem_bytes = 64 << 20;
    let mut cluster = Cluster::build(&cfg);
    let (ops, stop) = (Rc::new(Cell::new(0u64)), Rc::new(Cell::new(false)));
    let (done, stopped) = (ops.clone(), stop.clone());
    cluster.spawn(0, Pid(7), move |h| program(h, done, stopped));
    cluster.start();
    // Warm-up: page faults, TLB fills, table and scratch-buffer growth.
    cluster.run_for(SimDuration::from_millis(2));
    step_to_completion(&mut cluster, &ops);
    let (ops0, events0) = (ops.get(), cluster.sim.events_dispatched());
    let allocs0 = ALLOCS.with(Cell::get);
    cluster.run_for(SimDuration::from_millis(4));
    step_to_completion(&mut cluster, &ops);
    let (measured, allocs) = (ops.get() - ops0, ALLOCS.with(Cell::get) - allocs0);
    let events = cluster.sim.events_dispatched() - events0;
    stop.set(true);
    cluster.run_until_idle();
    assert!(measured > 1000, "only {measured} ops in the measured window");
    let cost =
        PerOp { allocs: allocs as f64 / measured as f64, events: events as f64 / measured as f64 };
    println!(
        "{label}: {:.2} allocs/op, {:.4} events/op over {measured} ops",
        cost.allocs, cost.events
    );
    cost
}

/// Steps `cluster` one event at a time until the completed-op counter
/// moves, so the measured window starts and ends at an op completion and
/// counts whole ops' events: a window cut at fixed instants would count
/// the events of ops caught partway at either edge.
fn step_to_completion(cluster: &mut Cluster, ops: &Cell<u64>) {
    let before = ops.get();
    while ops.get() == before {
        assert!(cluster.sim.step(), "the load went idle");
    }
}

/// What one op cost in the measured window.
struct PerOp {
    allocs: f64,
    events: f64,
}

impl PerOp {
    /// Asserts both of `path`'s ceilings.
    fn within(&self, path: &str, allocs: f64, events: f64) {
        let PerOp { allocs: a, events: e } = *self;
        assert!(a <= allocs, "{a:.2} allocs/op on the {path} path (budget {allocs})");
        assert!(e <= events, "{e:.4} events/op on the {path} path (ceiling {events})");
    }
}

/// Where the next `len`-byte op of `task` goes, somewhere in its four
/// pages, and whether it reads (2 reads : 1 write).
fn pick(rng: &mut SimRng, base: u64, task: u64, len: u64) -> (u64, bool) {
    let va = base + (task * 4 + rng.range_u64(0, 4)) * PAGE + rng.range_u64(0, 32) * len;
    (va, rng.range_u64(0, 3) < 2)
}

/// Issues one op `pick` chose and counts it done.
async fn one_op(h: &ProcHandle, (va, read): (u64, bool), payload: Bytes, done: &Cell<u64>) {
    let c =
        if read { h.rread(va, payload.len() as u32).await } else { h.rwrite(va, payload).await };
    assert!(c.result.is_ok());
    done.set(done.get() + 1);
}

/// `tasks` closed-loop tasks issuing `len`-byte ops.
fn closed_loop_per_op(tasks: u64, len: u64) -> PerOp {
    let label = format!("{tasks} task(s) x {len} B");
    per_op(&label, move |h, done, stopped| async move {
        let payload = Bytes::from(vec![0xA5u8; len as usize]);
        let base = h.ralloc(tasks * 4 * PAGE, Perm::RW).await.va();
        let mut seeds = SimRng::new(1);
        for t in 0..tasks {
            let (h2, done, stopped, payload) =
                (h.clone(), done.clone(), stopped.clone(), payload.clone());
            let mut rng = seeds.fork();
            h.spawn(async move {
                while !stopped.get() {
                    one_op(&h2, pick(&mut rng, base, t, len), payload.clone(), &done).await;
                }
            });
        }
    })
}

#[test]
fn single_task_16b_loop_stays_within_budget() {
    closed_loop_per_op(1, 16).within("lone-op", 10.0, 6.00);
}

#[test]
fn batched_64_task_64b_loop_stays_within_budget() {
    closed_loop_per_op(64, 64).within("batched", 6.0, 0.47);
}

/// Open loop: a generator sleeps 200 ns and spawns one task per 64 B op,
/// so every op pays a task's spawn, first poll and retirement.
#[test]
fn open_loop_task_per_64b_op_stays_within_budget() {
    let cost = per_op("open loop, a task per 64 B op", |h, done, stopped| async move {
        let payload = Bytes::from(vec![0xA5u8; 64]);
        let base = h.ralloc(64 * 4 * PAGE, Perm::RW).await.va();
        let mut rng = SimRng::new(1);
        for n in 0.. {
            if stopped.get() {
                break;
            }
            h.sleep(SimDuration::from_nanos(200)).await;
            // Spread over 64 tasks' pages, as the batched case is.
            let op = pick(&mut rng, base, n % 64, 64);
            let (h2, done, payload) = (h.clone(), done.clone(), payload.clone());
            h.spawn(async move { one_op(&h2, op, payload, &done).await });
        }
    });
    cost.within("open-loop", 8.0, 2.53);
}
