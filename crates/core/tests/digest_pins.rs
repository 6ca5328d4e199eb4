//! Behaviour pins for simulator-performance work: three small clusters
//! shaped like the benchmark's workloads, and one two-MN cluster that
//! takes the routing, fence and migration paths they never reach, each
//! pinned to the exact `Simulation::digest`, `events_dispatched`,
//! `events_scheduled`, `events_cancelled` and sorted completion-latency
//! vector the engine produced before any hot-path optimisation (the
//! two-MN one: before the compute node's op tables moved into CLib, its
//! digest and latencies re-pinned when an op re-issued after a `Conflict`
//! began to join its send queue at the tail, as every submission does; all
//! four re-pinned when a request header stopped encoding its absent
//! options, which made a first attempt's header 9 bytes shorter, and again
//! when the board's egress stopped holding responses for company and the
//! request header lost its 4-byte srtt echo). A
//! host-side speed-up or a refactor must
//! leave every constant below untouched; a change that moves one has changed
//! the modeled system, not just the simulator. The one exception is a
//! change to the digest's *definition*: it moves only the digests, and the
//! event counts and latency vectors carry the proof across it. The
//! scheduled and cancelled counts are fixed by what the actors ask of the
//! queue, not by how the queue keeps its events, so a new queue proves with
//! them that it was asked for exactly what the old one was.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use clio_cn::CLibConfig;
use clio_core::{Cluster, ClusterConfig, ProcHandle};
use clio_mn::CBoardConfig;
use clio_net::FaultInjector;
use clio_proto::{Perm, Pid};
use clio_sim::{SimDuration, SimRng};

const PAGE: u64 = 4096;

/// One pinned scenario's shape.
#[derive(Clone, Copy)]
struct Shape {
    seed: u64,
    cns: usize,
    tasks_per_cn: u64,
    ops_per_task: u64,
    /// Smallest and largest op size, drawn in 8 B steps.
    op_bytes: (u64, u64),
    pages_per_task: u64,
    faults: Option<FaultInjector>,
    max_retries: u32,
}

/// What a scenario is pinned to: digest, events dispatched, scheduled and
/// cancelled, and the sorted latency vector as (count, sum, FNV-1a over the
/// sorted nanosecond values).
type Pin = (u64, u64, u64, u64, usize, u64, u64);

async fn task(h: ProcHandle, shape: Shape, base: u64, mut rng: SimRng, lat: Rc<RefCell<Vec<u64>>>) {
    let (lo, hi) = shape.op_bytes;
    for _ in 0..shape.ops_per_task {
        let len = lo + 8 * rng.range_u64(0, (hi - lo) / 8 + 1);
        let page = rng.range_u64(0, shape.pages_per_task);
        let va = base + page * PAGE + rng.range_u64(0, PAGE / hi) * hi;
        let c = if rng.range_u64(0, 3) < 2 {
            h.rread(va, len as u32).await
        } else {
            h.rwrite(va, Bytes::from(vec![rng.u64() as u8; len as usize])).await
        };
        assert!(c.result.is_ok(), "pinned op failed: {:?}", c.result);
        lat.borrow_mut().push(c.latency().as_nanos());
    }
}

fn run(shape: Shape) -> Pin {
    let mut cfg = ClusterConfig::testbed();
    cfg.seed = shape.seed;
    cfg.cns = shape.cns;
    cfg.mns = 1;
    cfg.clib = CLibConfig { max_retries: shape.max_retries, ..CLibConfig::prototype() };
    cfg.board = CBoardConfig::test_small();
    cfg.board.hw.phys_mem_bytes = 64 << 20;
    let mut cluster = Cluster::build(&cfg);
    if let Some(faults) = shape.faults {
        let mn = cluster.mn_macs()[0];
        cluster.net.set_faults(&mut cluster.sim, mn, faults);
    }
    let lat = Rc::new(RefCell::new(Vec::new()));
    let mut rng = SimRng::new(shape.seed);
    for cn in 0..shape.cns {
        let (mut rng, lat) = (rng.fork(), lat.clone());
        cluster.spawn(cn, Pid(100 + cn as u64), move |h| async move {
            let bytes = shape.tasks_per_cn * shape.pages_per_task * PAGE;
            let base = h.ralloc(bytes, Perm::RW).await.va();
            for t in 0..shape.tasks_per_cn {
                let task_base = base + t * shape.pages_per_task * PAGE;
                h.spawn(task(h.clone(), shape, task_base, rng.fork(), lat.clone()));
            }
        });
    }
    cluster.start();
    cluster.run_until_idle();
    let pin = pin(&cluster, &lat.borrow());
    pin
}

/// `sync_small`'s shape: one task, window 1, 8–24 B ops, lone frames.
const SYNC: Shape = Shape {
    seed: 7,
    cns: 1,
    tasks_per_cn: 1,
    ops_per_task: 400,
    op_bytes: (8, 24),
    pages_per_task: 64,
    faults: None,
    max_retries: 3,
};

/// `async_small`'s shape: 2 CNs × 64 tasks of 64 B ops, both doorbells
/// coalescing.
const BATCHED: Shape = Shape {
    seed: 11,
    cns: 2,
    tasks_per_cn: 64,
    ops_per_task: 24,
    op_bytes: (64, 64),
    pages_per_task: 4,
    faults: None,
    max_retries: 3,
};

/// `offpath_mix`'s shape: 4 CNs, 3 % corrupted and 0.2 % lost frames toward
/// the MN, so NACKs, timeouts, retry doorbells and timer churn are pinned.
const LOSSY: Shape = Shape {
    seed: 13,
    cns: 4,
    tasks_per_cn: 16,
    ops_per_task: 40,
    op_bytes: (256, 256),
    pages_per_task: 8,
    faults: Some(FaultInjector {
        loss_prob: 0.002,
        corrupt_prob: 0.03,
        jitter: SimDuration::ZERO,
        corrupt_next: 0,
    }),
    max_retries: 8,
};

/// Two MNs, the paths no single-MN shape reaches: placement on both boards,
/// a pressure migration whose old owner answers reads `Moved` until the
/// route update lands, a two-MN `rfence`, and an `ralloc` cancelled while
/// the controller places it. Returns the pin and mn0's `Moved` count.
fn run_two_mn() -> (Pin, u64) {
    const CHUNK: u64 = 2 << 10;
    const VICTIM: u64 = 16 << 10;
    let mut cfg = ClusterConfig::test_small();
    (cfg.cns, cfg.mns, cfg.seed) = (2, 2, 17);
    // 2048 pages per board: touching ~103 of mn0's crosses the bar.
    cfg.pressure_threshold = 0.05;
    let mut cluster = Cluster::build(&cfg);
    let lat = Rc::new(RefCell::new(Vec::new()));
    let record = |lat: &Rc<RefCell<Vec<u64>>>, c: &clio_core::AppCompletion| {
        lat.borrow_mut().push(c.latency().as_nanos());
    };

    let l = lat.clone();
    cluster.spawn(0, Pid(100), move |h| async move {
        // Most-free-bytes placement: victim -> mn0, pad -> mn1, filler ->
        // mn0. The victim is mn0's oldest range, so it is what migrates.
        let victim = h.ralloc(VICTIM, Perm::RW).await.va();
        let pad = h.ralloc(1 << 20, Perm::RW).await;
        let filler = h.ralloc(512 << 10, Perm::RW).await.va();
        record(&l, &pad);
        for c in 0..VICTIM / CHUNK {
            let w = h.rwrite(victim + c * CHUNK, Bytes::from(vec![c as u8; CHUNK as usize]));
            assert!(w.await.result.is_ok());
        }
        // Readers keep the victim busy through the migration, so some of
        // their reads reach the old owner after it gave the range up.
        let stop = Rc::new(std::cell::Cell::new(false));
        for r in 0..4u64 {
            let (h2, l2, stop) = (h.clone(), l.clone(), stop.clone());
            h.spawn(async move {
                let mut i = r;
                while !stop.get() {
                    let c = h2.rread(victim + (i % 8) * CHUNK + 64 * r, 64).await;
                    assert_eq!(c.data()[0], (i % 8) as u8, "victim chunk {} moved", i % 8);
                    record(&l2, &c);
                    i += 1;
                }
            });
        }
        for page in 0..128u64 {
            let w = h.rwrite(filler + page * PAGE, Bytes::from_static(b"touch!!!")).await;
            record(&l, &w);
        }
        h.sleep(SimDuration::from_micros(200)).await;
        stop.set(true);
        let fence = h.rfence().await;
        assert!(fence.result.is_ok(), "fence failed: {:?}", fence.result);
        record(&l, &fence);
    });

    let l = lat.clone();
    cluster.spawn(1, Pid(101), move |h| async move {
        let cancelled = h.with_deadline(h.ralloc(2 * PAGE, Perm::RW), SimDuration::from_micros(1));
        let cancelled = cancelled.await;
        assert_eq!(cancelled.result, Err(clio_cn::ClioError::DeadlineExceeded));
        record(&l, &cancelled);
        let va = h.ralloc(2 * PAGE, Perm::RW).await.va();
        for i in 0..16u64 {
            record(&l, &h.rwrite(va + i * 512, Bytes::from(vec![i as u8; 64])).await);
        }
        let fence = h.rfence().await;
        assert!(fence.result.is_ok(), "fence failed: {:?}", fence.result);
        record(&l, &fence);
    });
    cluster.start();
    cluster.run_until_idle();
    let migrations = ["started", "completed"]
        .map(|n| cluster.registry().counter(&format!("controller.migration.{n}")));
    assert_eq!(migrations, [Some(1), Some(1)], "one committed migration");
    let ctrl = cluster.controller();
    for &mn in cluster.mn_macs() {
        assert!(ctrl.placed_bytes_of(mn) > 0, "nothing placed on {mn}");
    }
    let moved = cluster.registry().counter("mn0.board.moved").expect("board counter");
    let pin = pin(&cluster, &lat.borrow());
    (pin, moved)
}

/// The pin of a finished run whose completion latencies are `lat`.
fn pin(cluster: &Cluster, lat: &[u64]) -> Pin {
    let mut lat = lat.to_vec();
    lat.sort_unstable();
    let fnv = lat.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        v.to_le_bytes().iter().fold(h, |h, b| (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3))
    });
    let sim = &cluster.sim;
    let events = (sim.events_dispatched(), sim.events_scheduled(), sim.events_cancelled());
    (sim.digest(), events.0, events.1, events.2, lat.len(), lat.iter().sum(), fnv)
}

#[test]
fn two_mn_migration_fence_and_cancelled_placement_is_pinned() {
    let (pin, moved) = run_two_mn();
    assert!(moved > 0, "no read reached the old owner after the migration");
    assert_eq!(pin, (17983358271165921960, 1590, 2369, 779, 744, 3250862, 1568926728245429859));
}

#[test]
fn sync_single_task_is_pinned() {
    assert_eq!(run(SYNC), (527774018057023146, 2411, 2812, 401, 400, 968588, 8250635721733160757));
}

#[test]
fn batched_two_cn_is_pinned() {
    assert_eq!(
        run(BATCHED),
        (6719850822556438106, 4137, 10253, 6116, 3072, 87485231, 3341508402522260424)
    );
}

#[test]
fn lossy_four_cn_is_pinned() {
    assert_eq!(
        run(LOSSY),
        (4447535874729358826, 2440, 5195, 2755, 2560, 33183804, 7999041631954744347)
    );
}
