//! Behaviour pins for simulator-performance work: three small clusters
//! shaped like the benchmark's workloads, each pinned to the exact
//! `Simulation::digest`, `events_dispatched` and sorted completion-latency
//! vector the engine produced before any hot-path optimisation. A host-side
//! speed-up must leave every constant below untouched; a change that moves
//! one has changed the modeled system, not just the simulator. The one
//! exception is a change to the digest's *definition*: it moves only the
//! digests, and the event counts and latency vectors carry the proof across
//! it.

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

/// What a scenario is pinned to: digest, events dispatched, and the sorted
/// latency vector as (count, sum, FNV-1a over the sorted nanosecond values).
type Pin = (u64, u64, usize, u64, u64);

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
    let mut lat = lat.borrow().clone();
    lat.sort_unstable();
    let fnv = lat.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        v.to_le_bytes().iter().fold(h, |h, b| (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3))
    });
    (cluster.sim.digest(), cluster.sim.events_dispatched(), lat.len(), lat.iter().sum(), fnv)
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

#[test]
fn sync_single_task_is_pinned() {
    assert_eq!(run(SYNC), (16857651724633293400, 2411, 400, 978820, 17676053580367467073));
}

#[test]
fn batched_two_cn_is_pinned() {
    assert_eq!(run(BATCHED), (2614134489005982570, 2429, 3072, 88192770, 5499410146114811135));
}

#[test]
fn lossy_four_cn_is_pinned() {
    assert_eq!(run(LOSSY), (4036829522390880348, 2519, 2560, 33323420, 15032253356085892095));
}
