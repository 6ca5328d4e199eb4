//! Tier-2 multi-MN scenarios: a sharded address space across two memory
//! boards with the controller as the allocation/routing authority.
//!
//! The first test drives pressure-triggered live migration under traffic:
//! a CN inflates one board's physical utilization past the cluster's
//! pressure threshold, the controller picks the coldest range on that
//! board and moves it to the roomier one mid-traffic, and every observable
//! invariant must hold — reads of the moving range stay byte-identical
//! throughout, every CN's routing cache converges on the new owner, window
//! accounting drains to zero, and the controller's per-MN `placed_bytes`
//! balances exactly against the live ranges it tracks.
//!
//! The second is the CI smoke: a 4 CN x 2 MN burst with one forced
//! migration must produce byte-identical results to a single-MN run of the
//! same workload, and the whole run must be digest-stable.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use clio::mn::migrate::MigrateCommand;
use clio::net::Mac;
use clio::proto::{Perm, Pid};
use clio::sim::{Message, SimDuration, SimTime};
use clio::system::node::PokeDriver;
use clio::system::{Cluster, ClusterConfig};

const PAGE: u64 = 4 << 10;
const CHUNK: u64 = 2 << 10;

/// `(label, pid, va, len)` of every completed allocation.
type RangeLog = Rc<RefCell<Vec<(&'static str, Pid, u64, u64)>>>;
/// `(cn, bytes read back)` per task.
type ReadLog = Rc<RefCell<Vec<(usize, Vec<u8>)>>>;
/// `(cn, task, op index, completion time in ns)` per completed op.
type OpLog = Rc<RefCell<Vec<(usize, u64, u64, u64)>>>;

/// Writes `len` bytes at `va` as 2 KiB chunks, chunk `c` filled with
/// `fill(c)`.
async fn write_pattern(
    p: &clio::system::exec::ProcHandle,
    va: u64,
    len: u64,
    fill: impl Fn(u64) -> u8,
) {
    for c in 0..len / CHUNK {
        p.rwrite(va + c * CHUNK, Bytes::from(vec![fill(c); CHUNK as usize])).await;
    }
}

/// Reads the same chunks back and asserts every byte.
async fn verify_pattern(
    p: &clio::system::exec::ProcHandle,
    va: u64,
    len: u64,
    fill: impl Fn(u64) -> u8,
) {
    for c in 0..len / CHUNK {
        let got = p.rread(va + c * CHUNK, CHUNK as u32).await;
        assert!(
            got.data().iter().all(|&b| b == fill(c)),
            "chunk {c} at {:#x} corrupted",
            va + c * CHUNK
        );
    }
}

/// 4 CNs x 2 MNs with live migration triggered by memory pressure while
/// reads of the migrating range are in flight.
///
/// Placement determinism (policy: most free physical bytes, ties to the
/// first-registered board) pins the layout: the 16 KiB victim lands on
/// mn0, the untouched 1 MiB pad on mn1, the 512 KiB filler back on mn0,
/// and the three peer ranges on mn0. Touching all 128 filler pages pushes
/// mn0's utilization past the 5% threshold (2048-page board), so the
/// controller migrates mn0's least-recently-allocated range — the victim —
/// to mn1 while its owner keeps re-reading it.
#[test]
fn pressure_triggered_migration_keeps_reads_correct_under_traffic() {
    const VICTIM_LEN: u64 = 16 << 10;
    const PAD_LEN: u64 = 1 << 20;
    const FILLER_LEN: u64 = 512 << 10;
    const PEER_LEN: u64 = 16 << 10;

    let mut cfg = ClusterConfig::test_small();
    cfg.cns = 4;
    cfg.mns = 2;
    // 2048 x 4 KiB pages per board: ~103 touched pages cross the bar.
    cfg.pressure_threshold = 0.05;
    let mut cluster = Cluster::build(&cfg);
    let mn_macs = cluster.mn_macs().to_vec();

    let ranges: RangeLog = Rc::new(RefCell::new(vec![]));
    let verified = Rc::new(Cell::new(0u32));

    let victim_fill = |c: u64| 0xB0 ^ c as u8;
    let (r0, v0) = (ranges.clone(), verified.clone());
    cluster.spawn(0, Pid(100), move |p| async move {
        // All three placements back-to-back, before any (slow) writes and
        // before the peers wake, so the free-memory policy is pinned:
        // victim -> mn0 (tie to the first board), pad -> mn1 (most free),
        // filler -> mn0, and the later peer ranges -> mn0. The victim is
        // the oldest range on mn0, so it is the migration victim.
        let victim = p.ralloc(VICTIM_LEN, Perm::RW).await.va();
        let pad = p.ralloc(PAD_LEN, Perm::RW).await.va();
        let filler = p.ralloc(FILLER_LEN, Perm::RW).await.va();
        r0.borrow_mut().push(("victim", Pid(100), victim, VICTIM_LEN));
        r0.borrow_mut().push(("pad", Pid(100), pad, PAD_LEN));
        r0.borrow_mut().push(("filler", Pid(100), filler, FILLER_LEN));

        write_pattern(&p, victim, VICTIM_LEN, victim_fill).await;
        verify_pattern(&p, victim, VICTIM_LEN, victim_fill).await;
        v0.set(v0.get() + 1);

        // Fault in every filler page; utilization crosses the threshold
        // partway through and the controller starts migrating the victim.
        // Re-reading the victim between touch groups lands accesses inside
        // the migration window: mid-flight they are refused with Conflict
        // and retried by CLib, post-move they re-route to the new owner;
        // the bytes must never change.
        let pages = FILLER_LEN / PAGE;
        for group in 0..8 {
            for page in (group * pages / 8)..((group + 1) * pages / 8) {
                p.rwrite(filler + page * PAGE, Bytes::from_static(b"touch!!!")).await;
            }
            verify_pattern(&p, victim, VICTIM_LEN, victim_fill).await;
            v0.set(v0.get() + 1);
        }
        for _ in 0..4 {
            p.sleep(SimDuration::from_micros(25)).await;
            verify_pattern(&p, victim, VICTIM_LEN, victim_fill).await;
            v0.set(v0.get() + 1);
        }
    });

    for cn in 1..4usize {
        let (r, v) = (ranges.clone(), verified.clone());
        let pid = Pid(100 + cn as u64);
        let fill = move |c: u64| (0x40 + cn as u8) ^ c as u8;
        cluster.spawn(cn, pid, move |p| async move {
            // Start after cn0's three placements so the layout is fixed.
            p.sleep(SimDuration::from_micros(60)).await;
            let va = p.ralloc(PEER_LEN, Perm::RW).await.va();
            write_pattern(&p, va, PEER_LEN, fill).await;
            r.borrow_mut().push(("peer", pid, va, PEER_LEN));
            verify_pattern(&p, va, PEER_LEN, fill).await;
            v.set(v.get() + 1);
            for _ in 0..6 {
                p.sleep(SimDuration::from_micros(30)).await;
                verify_pattern(&p, va, PEER_LEN, fill).await;
                v.set(v.get() + 1);
            }
        });
    }

    cluster.start();
    cluster.run_until_idle();

    // Every read of every range verified, with no op left in flight.
    assert_eq!(verified.get(), 13 + 3 * 7, "a verification pass went missing");
    for cn in 0..4 {
        assert_eq!(cluster.cn(cn).clib().in_flight(), 0, "cn{cn} window did not drain");
    }

    // Exactly one migration: mn0 reported pressure once (the latch holds
    // while it stays above threshold) and the victim moved to mn1, which
    // stays far below the bar.
    let ctrl = cluster.controller();
    assert_eq!(ctrl.migration_stats(), (1, 1), "expected one committed migration");

    let ranges = ranges.borrow();
    assert_eq!(ranges.len(), 6, "an allocation never completed");
    let find = |label: &str| *ranges.iter().find(|(l, ..)| *l == label).expect(label);
    let (_, vpid, vva, vlen) = find("victim");
    let (_, fpid, fva, _) = find("filler");
    assert_eq!(ctrl.owner_of(vpid, vva), Some(mn_macs[1]), "victim must land on mn1");
    assert_eq!(ctrl.owner_of(fpid, fva), Some(mn_macs[0]), "filler must stay on mn0");

    // The RouteUpdate broadcast converged every CN's routing cache on the
    // new owner — including CNs that never touched the victim.
    for cn in 0..4 {
        assert_eq!(
            cluster.cn(cn).route_of(vpid, vva, vlen),
            Some(mn_macs[1]),
            "cn{cn} still routes the victim to the old owner"
        );
    }

    // Placement accounting balances exactly: each MN's placed_bytes equals
    // the sizes of the live ranges the controller currently maps to it.
    let mut expected = [0u64; 2];
    for &(_, pid, va, len) in ranges.iter() {
        let owner = ctrl.owner_of(pid, va).expect("live range has an owner");
        let i = mn_macs.iter().position(|&m| m == owner).expect("owner is a cluster MN");
        expected[i] += len;
    }
    for (i, &mac) in mn_macs.iter().enumerate() {
        assert_eq!(
            ctrl.placed_bytes_of(mac),
            expected[i],
            "mn{i} placed_bytes out of balance with tracked ranges"
        );
    }
}

/// CI smoke: 4 CNs burst against 2 MNs, one range is forcibly migrated
/// between the write and read phases, and the reads must be byte-identical
/// to the same workload on a single MN. Rerunning the sharded config with
/// the same seed must reproduce the run digest exactly.
#[test]
fn multi_mn_smoke_matches_single_mn_baseline_and_is_digest_stable() {
    const LEN: u64 = 16 << 10;

    let run = |mns: usize, migrate: bool| {
        let mut cfg = ClusterConfig::test_small();
        cfg.cns = 4;
        cfg.mns = mns;
        cfg.seed = 0xBEEF;
        let mut cluster = Cluster::build(&cfg);
        let mn_macs = cluster.mn_macs().to_vec();

        let vas: Rc<RefCell<Vec<(usize, Pid, u64)>>> = Rc::new(RefCell::new(vec![]));
        let results: ReadLog = Rc::new(RefCell::new(vec![]));
        for cn in 0..4usize {
            let pid = Pid(300 + cn as u64);
            let fill = move |c: u64| (0x10 * (cn as u8 + 1)).wrapping_add(c as u8);
            let (vas, results) = (vas.clone(), results.clone());
            cluster.spawn(cn, pid, move |p| async move {
                let va = p.ralloc(LEN, Perm::RW).await.va();
                write_pattern(&p, va, LEN, fill).await;
                vas.borrow_mut().push((cn, pid, va));
                p.next_poke().await;
                let mut data = Vec::with_capacity(LEN as usize);
                for c in 0..LEN / CHUNK {
                    data.extend_from_slice(p.rread(va + c * CHUNK, CHUNK as u32).await.data());
                }
                results.borrow_mut().push((cn, data));
            });
        }
        cluster.start();
        cluster.run_until_idle();

        let moved: Option<(Pid, u64, Mac)> = if migrate {
            // Force cn0's range to the other board between the phases.
            let &(_, pid, va) = vas.borrow().iter().find(|(cn, ..)| *cn == 0).expect("cn0 alloc");
            let src = cluster.controller().owner_of(pid, va).expect("owned");
            let src_idx = mn_macs.iter().position(|&m| m == src).expect("cluster MN");
            let dst = mn_macs[1 - src_idx];
            let cmd = MigrateCommand { pid, start: va, len: LEN, dst };
            let board = cluster.mn_ids()[src_idx];
            cluster.sim.post(board, Message::new(cmd));
            cluster.run_until_idle();
            Some((pid, va, dst))
        } else {
            None
        };

        let cn_ids: Vec<_> = cluster.cn_ids().to_vec();
        for id in cn_ids {
            cluster.sim.post(id, Message::new(PokeDriver { driver: 0 }));
        }
        cluster.run_until_idle();

        if let Some((pid, va, dst)) = moved {
            assert_eq!(cluster.controller().owner_of(pid, va), Some(dst));
            for cn in 0..4 {
                assert_eq!(cluster.cn(cn).route_of(pid, va, LEN), Some(dst));
            }
            assert_eq!(cluster.controller().migration_stats().1, 1);
        }
        for cn in 0..4 {
            assert_eq!(cluster.cn(cn).clib().in_flight(), 0, "cn{cn} window did not drain");
        }

        let mut data = results.borrow().clone();
        assert_eq!(data.len(), 4, "a read phase never completed");
        data.sort_by_key(|(cn, _)| *cn);
        let data: Vec<Vec<u8>> = data.into_iter().map(|(_, d)| d).collect();
        (data, cluster.sim.digest(), cluster.sim.events_dispatched())
    };

    let (baseline, _, _) = run(1, false);
    let (sharded, digest_a, events_a) = run(2, true);
    let (_, digest_b, events_b) = run(2, true);

    // The expected bytes, independently of either run.
    for (cn, data) in baseline.iter().enumerate() {
        for (c, chunk) in data.chunks(CHUNK as usize).enumerate() {
            let want = (0x10 * (cn as u8 + 1)).wrapping_add(c as u8);
            assert!(chunk.iter().all(|&b| b == want), "baseline cn{cn} chunk {c} wrong");
        }
    }
    assert_eq!(sharded, baseline, "sharded reads diverge from the single-MN baseline");
    assert_eq!((digest_a, events_a), (digest_b, events_b), "sharded run is not digest-stable");
}

/// Determinism across table layouts: with two MNs a completion re-kicks
/// both send queues, and the order the kicks arm their same-instant `Pump`
/// timers decides NIC serialization order. That order must come from the
/// simulation (MAC order), not from how a hash table happens to lay out its
/// keys, so eight builds of the smoke cluster in one process — each with
/// freshly constructed tables — must agree on the digest, the event count
/// and every op's completion time.
#[test]
fn multi_mn_schedule_is_identical_across_eight_builds_in_one_process() {
    const RANGES: u64 = 4;
    const LEN: u64 = 16 << 10;
    const TASKS: u64 = 8;
    const OPS: u64 = 12;

    let run = || {
        let mut cfg = ClusterConfig::test_small();
        cfg.cns = 4;
        cfg.mns = 2;
        cfg.seed = 0xBEEF;
        let mut cluster = Cluster::build(&cfg);
        let log: OpLog = Rc::new(RefCell::new(vec![]));
        let bases: Rc<RefCell<Vec<(usize, Pid, u64)>>> = Rc::new(RefCell::new(vec![]));
        for cn in 0..4usize {
            let pid = Pid(300 + cn as u64);
            let (log, bases) = (log.clone(), bases.clone());
            cluster.spawn(cn, pid, move |p| async move {
                // One CN allocates at a time, so the most-free-bytes
                // placement alternates each CN's ranges between the boards;
                // all four then start their traffic at the same instant.
                p.sleep(SimDuration::from_millis(5 * cn as u64)).await;
                let mut vas = Vec::new();
                for _ in 0..RANGES {
                    let va = p.ralloc(LEN, Perm::RW).await.va();
                    bases.borrow_mut().push((cn, pid, va));
                    vas.push(va);
                }
                p.sleep(SimTime::from_nanos(30_000_000).since(p.now())).await;
                // Concurrent tasks striding over every range, so each CN
                // keeps requests queued toward both boards at once.
                for task in 0..TASKS {
                    let (p2, log, vas) = (p.clone(), log.clone(), vas.clone());
                    p.spawn(async move {
                        for i in 0..OPS {
                            let va = vas[((task + i) % RANGES) as usize] + task * 1024;
                            let c = if (task + i) % 3 == 0 {
                                p2.rwrite(va, Bytes::from(vec![task as u8; 256])).await
                            } else {
                                p2.rread(va, 256).await
                            };
                            assert!(c.result.is_ok(), "cn{cn} task {task} op {i}: {:?}", c.result);
                            log.borrow_mut().push((cn, task, i, c.completed_at.as_nanos()));
                        }
                    });
                }
            });
        }
        cluster.start();
        cluster.run_until_idle();
        // The scenario only bites if a CN really talks to both boards.
        let spread = (0..4).all(|cn| {
            let mut owners: Vec<Mac> = bases
                .borrow()
                .iter()
                .filter(|(c, ..)| *c == cn)
                .map(|&(_, pid, va)| cluster.cn(cn).route_of(pid, va, LEN).expect("routable"))
                .collect();
            owners.sort_unstable();
            owners.dedup();
            owners.len() == 2
        });
        assert!(spread, "some CN's ranges sit on one board only");
        let mut log = log.borrow().clone();
        log.sort_unstable();
        assert_eq!(log.len() as u64, 4 * TASKS * OPS);
        (cluster.sim.digest(), cluster.sim.events_dispatched(), log)
    };

    let (digest, events, log) = run();
    for build in 1..8 {
        let (d, e, l) = run();
        assert_eq!((d, e), (digest, events), "build {build}: digest/event count diverged");
        let moved = l.iter().zip(&log).find(|(a, b)| a != b);
        assert_eq!(moved, None, "build {build}: first diverging (cn, task, op, completed_at)");
    }
}

/// An `rfence` fences every MN, one leg after another (each leg is a
/// barrier on the same CLib thread, so they run in `mn_macs` order). A
/// fence that missed a board did not fence: the first failed leg's error
/// is what the task sees, not whatever the last leg happened to report.
///
/// Regression: the node discarded every leg's completion but the last,
/// *including its `Err`* — with mn0 unreachable and mn1 healthy the fence
/// reported `Ok(Done)`.
#[test]
fn rfence_reports_the_leg_that_failed_not_the_one_that_landed_last() {
    use clio::cn::{ClioError, CompletionValue};
    use clio::net::{ChaosAction, ChaosSchedule};

    let mut cfg = ClusterConfig::test_small();
    cfg.mns = 2;
    cfg.clib.breaker_threshold = 1;
    cfg.clib.breaker_probe_backoff = SimDuration::from_millis(50);
    let mut cluster = Cluster::build(&cfg);
    let (mn0, mn1) = (cluster.mn_macs()[0], cluster.mn_macs()[1]);
    cluster.apply_chaos(
        &ChaosSchedule::new().at(SimDuration::from_micros(200), ChaosAction::LinkDown(mn0)),
    );

    let pid = Pid(1);
    let (vas, reads, fence) = cluster.block_on(0, pid, |h| async move {
        // Most-free-bytes placement: the first page lands on mn0, and once
        // it is touched the second lands on mn1.
        let mut vas = Vec::new();
        for fill in [0xA0u8, 0xB1] {
            let va = h.ralloc(PAGE, Perm::RW).await.va();
            h.rwrite(va, Bytes::from(vec![fill; PAGE as usize])).await;
            vas.push(va);
        }
        h.sleep(SimTime::from_nanos(400_000).since(h.now())).await;
        let reads = vec![h.rread(vas[0], 8).await.result, h.rread(vas[1], 8).await.result];
        (vas, reads, h.rfence().await.result)
    });

    let owners: Vec<_> = vas.iter().map(|&va| cluster.cn(0).route_of(pid, va, PAGE)).collect();
    assert_eq!(owners, [Some(mn0), Some(mn1)], "one page on each board");
    assert_eq!(reads[0], Err(ClioError::Unreachable { mn: mn0 }), "mn0 is cut off");
    assert_eq!(reads[1], Ok(CompletionValue::Data(Bytes::from(vec![0xB1; 8]))), "mn1 serves");
    assert_eq!(fence, Err(ClioError::Unreachable { mn: mn0 }), "mn0 was never fenced");
}

/// Σ `placed_bytes` over the cluster's MNs.
fn placed_total(cluster: &Cluster) -> u64 {
    let ctrl = cluster.controller();
    cluster.mn_macs().iter().map(|&mac| ctrl.placed_bytes_of(mac)).sum()
}

/// The controller charges an MN's `placed_bytes` when it places an alloc.
/// One the board then refuses holds no range, so its charge comes back:
/// Σ `placed_bytes` equals the live allocations, and the next placement
/// still goes by free memory (a tie, so to mn0).
///
/// Regression: the charge stayed. A failed `ralloc(1 << 60)` left mn0
/// charged 2^60 bytes, and every later placement avoided mn0.
#[test]
fn a_failed_ralloc_gives_back_its_placement_charge() {
    use clio::cn::ClioError;
    use clio::proto::Status;

    let mut cfg = ClusterConfig::test_small();
    cfg.mns = 2;
    let mut cluster = Cluster::build(&cfg);
    let (failed, va) = cluster.block_on(0, Pid(1), |h| async move {
        let failed = h.ralloc(1 << 60, Perm::RW).await.result;
        (failed, h.ralloc(2 * PAGE, Perm::RW).await.va())
    });
    cluster.run_until_idle();

    assert_eq!(failed, Err(ClioError::Remote(Status::OutOfVirtualMemory)));
    assert_eq!(placed_total(&cluster), 2 * PAGE, "only the live allocation is charged");
    let mn0 = cluster.mn_macs()[0];
    assert_eq!(cluster.cn(0).route_of(Pid(1), va, 2 * PAGE), Some(mn0), "placement skewed");
}

/// An `ralloc` whose deadline expires while the controller places it is
/// cancelled before it reaches a board: the placement reply that arrives
/// afterwards gives the charge back.
#[test]
fn an_ralloc_cancelled_during_placement_gives_back_its_charge() {
    use clio::cn::ClioError;

    let mut cfg = ClusterConfig::test_small();
    cfg.mns = 2;
    let mut cluster = Cluster::build(&cfg);
    let result = cluster.block_on(0, Pid(1), |h| async move {
        h.ralloc(2 * PAGE, Perm::RW).with_deadline(SimDuration::from_micros(1)).await.result
    });
    cluster.run_until_idle();

    assert_eq!(result, Err(ClioError::DeadlineExceeded));
    assert_eq!(placed_total(&cluster), 0, "a cancelled placement stays charged");
}
