//! Allocation budget of the op fast path: steady-state heap allocations per
//! completed op, counted by a wrapping `#[global_allocator]`, must stay
//! under the ceilings below so the budget cannot silently regress. Each
//! ceiling is the measured use rounded up, plus one (9.37 → 11 lone, 4.67 →
//! 6 batched); lower it whenever a change removes an allocation. The
//! counter is per thread, so the two tests do not see each other (or the
//! harness).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use clio_core::{Cluster, ClusterConfig};
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

/// Steady-state allocations per op of `tasks` closed-loop tasks issuing
/// `len`-byte ops (2 reads : 1 write) on one CN against one MN.
fn allocs_per_op(tasks: u64, len: u64) -> f64 {
    let mut cfg = ClusterConfig::test_small();
    cfg.board.hw.phys_mem_bytes = 64 << 20;
    let mut cluster = Cluster::build(&cfg);
    let (ops, stop) = (Rc::new(Cell::new(0u64)), Rc::new(Cell::new(false)));
    let (done, stopped) = (ops.clone(), stop.clone());
    let payload = Bytes::from(vec![0xA5u8; len as usize]);
    cluster.spawn(0, Pid(7), move |h| async move {
        let base = h.ralloc(tasks * 4 * PAGE, Perm::RW).await.va();
        let mut seeds = SimRng::new(1);
        for t in 0..tasks {
            let (h2, done, stopped, payload) =
                (h.clone(), done.clone(), stopped.clone(), payload.clone());
            let mut rng = seeds.fork();
            h.spawn(async move {
                while !stopped.get() {
                    let va =
                        base + (t * 4 + rng.range_u64(0, 4)) * PAGE + rng.range_u64(0, 32) * len;
                    let c = if rng.range_u64(0, 3) < 2 {
                        h2.rread(va, len as u32).await
                    } else {
                        h2.rwrite(va, payload.clone()).await
                    };
                    assert!(c.result.is_ok());
                    done.set(done.get() + 1);
                }
            });
        }
    });
    cluster.start();
    // Warm-up: page faults, TLB fills, table and scratch-buffer growth.
    cluster.run_for(SimDuration::from_millis(2));
    let (ops0, allocs0) = (ops.get(), ALLOCS.with(Cell::get));
    cluster.run_for(SimDuration::from_millis(4));
    let (measured, allocs) = (ops.get() - ops0, ALLOCS.with(Cell::get) - allocs0);
    stop.set(true);
    cluster.run_until_idle();
    assert!(measured > 1000, "only {measured} ops in the measured window");
    let per_op = allocs as f64 / measured as f64;
    println!("{tasks} task(s) x {len} B: {per_op:.2} allocs/op over {measured} ops");
    per_op
}

#[test]
fn single_task_16b_loop_stays_within_budget() {
    let per_op = allocs_per_op(1, 16);
    assert!(per_op <= 11.0, "{per_op:.2} allocs/op on the lone-op path (budget 11)");
}

#[test]
fn batched_64_task_64b_loop_stays_within_budget() {
    let per_op = allocs_per_op(64, 64);
    assert!(per_op <= 6.0, "{per_op:.2} allocs/op on the batched path (budget 6)");
}
