//! Full-system integration: clusters programmed with async tasks —
//! cross-CN sharing, multi-MN placement and pressure-triggered migration.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use clio_core::{Cluster, ClusterConfig, ProcHandle};
use clio_proto::{Perm, Pid};
use clio_sim::SimDuration;

/// Allocates, writes `pattern`, reads it back and checks it; returns the
/// read's latency.
async fn write_read(h: ProcHandle, pattern: Vec<u8>) -> SimDuration {
    let va = h.ralloc(pattern.len() as u64, Perm::RW).await.va();
    let c = h.rwrite(va, Bytes::from(pattern.clone())).await;
    assert!(c.result.is_ok(), "write failed: {:?}", c.result);
    let c = h.rread(va, pattern.len() as u32).await;
    assert_eq!(&c.data()[..], &pattern[..]);
    c.latency()
}

#[test]
fn task_roundtrip_on_small_cluster() {
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    let lat = cluster.block_on(0, Pid(1), |h| write_read(h, vec![7u8; 3000]));
    assert!(lat < SimDuration::from_micros(20), "3 KB read latency {lat}");
}

#[test]
fn many_processes_on_many_cns_and_mns() {
    let mut cfg = ClusterConfig::test_small();
    cfg.cns = 3;
    cfg.mns = 2;
    let mut cluster = Cluster::build(&cfg);
    let verified = Rc::new(Cell::new(0u64));
    for i in 0..12u64 {
        let verified = verified.clone();
        cluster.spawn((i % 3) as usize, Pid(100 + i), move |h| async move {
            write_read(h, vec![i as u8; 512]).await;
            verified.set(verified.get() + 1);
        });
    }
    cluster.start();
    cluster.run_until_idle();
    assert_eq!(verified.get(), 12, "every client must verify its data");
    // Placement used both MNs (the controller balances by free memory).
    let used0 = cluster.mn(0).slow_path().palloc().used_pages();
    let used1 = cluster.mn(1).slow_path().palloc().used_pages();
    assert!(used0 > 0 && used1 > 0, "placement ignored one MN: {used0}/{used1}");
}

#[test]
fn figure1_style_program() {
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    // The paper's Figure 1, nearly verbatim: the two async writes are
    // spawned (issue) and `rrelease` is the poll for both.
    cluster.block_on(0, Pid(42), |h| async move {
        let remote_addr = h.ralloc(4096, Perm::RW).await.va();
        let lock = h.ralloc(4096, Perm::RW).await.va();

        h.rlock(lock).await.result.expect("rlock");
        for (off, text) in [(0, &b"hello "[..]), (6, &b"world"[..])] {
            let h2 = h.clone();
            h.spawn(async move {
                h2.rwrite(remote_addr + off, Bytes::from_static(text))
                    .await
                    .result
                    .expect("rwrite");
            });
        }
        h.runlock(lock).await.result.expect("runlock");
        h.rrelease().await.result.expect("rrelease");

        let back = h.rread(remote_addr, 11).await;
        assert_eq!(&back.data()[..], b"hello world");

        h.sleep(SimDuration::from_micros(50)).await;
        h.rfree(remote_addr, 4096).await.result.expect("rfree");
    });
}

#[test]
fn two_threads_share_a_lock() {
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    // Two threads of one process (same pid, one RAS) increment a counter
    // under a remote lock. The first allocates and publishes the addresses
    // host-side (like argv in the paper).
    let addrs = Rc::new(Cell::new(None));
    let publish = addrs.clone();
    cluster.spawn(0, Pid(7), |h| async move {
        let counter = h.ralloc(4096, Perm::RW).await.va();
        let lock = counter + 8;
        publish.set(Some((counter, lock)));
        for _ in 0..5 {
            h.rlock(lock).await.result.expect("lock");
            h.rfaa(counter, 1).await.result.expect("faa");
            h.runlock(lock).await.result.expect("unlock");
        }
    });
    let seen = cluster.block_on(0, Pid(7), |h| async move {
        let (counter, lock) = loop {
            match addrs.get() {
                Some(a) => break a,
                None => h.sleep(SimDuration::from_micros(1)).await,
            }
        };
        for _ in 0..5 {
            h.rlock(lock).await.result.expect("lock");
            h.rfaa(counter, 1).await.result.expect("faa");
            h.runlock(lock).await.result.expect("unlock");
        }
        // We may read the counter before the other thread's last
        // increment, so only our own 5 are certain.
        h.rfaa(counter, 0).await.result.expect("read")
    });
    match seen {
        clio_cn::CompletionValue::Old(v) => assert!((5..=10).contains(&v), "lost updates: {v}"),
        other => panic!("faa returned {other:?}"),
    }
}

/// A fetch-and-add whose word crosses a page boundary is refused: the two
/// pages' frames need not be adjacent, so the board cannot apply it as one
/// word. Neither page is touched.
#[test]
fn an_atomic_across_a_page_boundary_is_refused() {
    use clio_cn::ClioError;
    use clio_proto::Status;

    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    let page = cluster.mn(0).silicon().config().page_size;
    let (faa, bytes) = cluster.block_on(0, Pid(7), |h| async move {
        let va = h.ralloc(2 * page, Perm::RW).await.va();
        let page_start = va + page - va % page;
        let faa = h.rfaa(page_start - 4, 1).await.result;
        (faa, h.rread(page_start - 8, 16).await.data().to_vec())
    });
    assert_eq!(faa, Err(ClioError::Remote(Status::InvalidAddr)));
    assert_eq!(&bytes[..], &[0; 16]);
}

#[test]
fn pressure_triggers_transparent_migration() {
    // Tiny MNs: the first fills up and must shed a region to the second.
    let mut cfg = ClusterConfig::test_small();
    cfg.mns = 2;
    cfg.board.hw.phys_mem_bytes = 16 * cfg.board.hw.page_size; // 16 pages
    cfg.board.hw.pt_slack = 8;
    cfg.board.hw.async_buffer_pages = 2;
    cfg.pressure_threshold = 0.5;
    let mut cluster = Cluster::build(&cfg);
    cluster.block_on(0, Pid(9), |h| async move {
        // Two ranges; touching the second drives utilization over 50%,
        // so the controller migrates the first (coldest) range away.
        let a = h.ralloc(4 * 4096, Perm::RW).await.va();
        let b = h.ralloc(8 * 4096, Perm::RW).await.va();
        h.rwrite(a, Bytes::from_static(b"range-a data")).await.result.expect("write a");
        for i in 0..8u64 {
            h.rwrite(b + i * 4096, Bytes::from(vec![i as u8; 64])).await.result.expect("write b");
        }
        // Give the migration time to run, then access the moved range:
        // CLib re-routes it transparently after a Moved refusal.
        h.sleep(SimDuration::from_millis(50)).await;
        let back = h.rread(a, 12).await;
        assert_eq!(&back.data()[..], b"range-a data");
    });
    let counter = |n| cluster.registry().counter(&format!("controller.migration.{n}"));
    let (started, completed) = (counter("started"), counter("completed"));
    assert!(started >= Some(1), "no migration started");
    assert_eq!(started, completed, "migrations must complete");
}

/// `n` sequential reads after an alloc and a seed write (for scalability
/// sanity: many processes at once).
async fn closed_loop(h: ProcHandle, n: u32) {
    let va = h.ralloc(4096, Perm::RW).await.va();
    h.rwrite(va, Bytes::from_static(&[1u8; 64])).await.result.expect("seed");
    for _ in 0..n {
        assert!(h.rread(va, 64).await.result.is_ok());
    }
}

#[test]
fn hundred_concurrent_processes() {
    let mut cfg = ClusterConfig::test_small();
    cfg.cns = 2;
    let mut cluster = Cluster::build(&cfg);
    let done = Rc::new(Cell::new(0u32));
    for i in 0..100u64 {
        let done = done.clone();
        cluster.spawn((i % 2) as usize, Pid(1000 + i), move |h| async move {
            closed_loop(h, 20).await;
            done.set(done.get() + 1);
        });
    }
    cluster.start();
    cluster.run_until_idle();
    assert_eq!(done.get(), 100, "every process must finish");
}

#[test]
fn deterministic_across_runs() {
    let digest = |seed: u64| {
        let mut cfg = ClusterConfig::test_small();
        cfg.seed = seed;
        let mut cluster = Cluster::build(&cfg);
        for i in 0..10u64 {
            cluster.spawn(0, Pid(i), |h| closed_loop(h, 5));
        }
        cluster.start();
        cluster.run_until_idle();
        (cluster.sim.digest(), cluster.sim.events_dispatched(), cluster.now())
    };
    assert_eq!(digest(1), digest(1), "same seed must replay identically");
}

/// Slow-path retries are deduplicated like data-path ones: with a fifth of
/// the frames toward the CN lost, an `ralloc` or `rfree` whose response is
/// lost is retried, and the retry must be answered from the board's
/// record instead of running again — a second alloc would leak a range the
/// CN never hears of, a second free would report `InvalidAddr` for a range
/// the first attempt freed. Three rounds of 100 one-page `ralloc`s, each
/// round's ranges counted in the board's page table at a fixed instant,
/// then freed: 300 `rfree`s in all.
#[test]
fn slow_path_retries_after_lost_responses_run_once() {
    use clio_cn::ClioError;
    use clio_net::FaultInjector;
    use clio_proto::Status;
    use clio_sim::SimTime;

    const PID: Pid = Pid(9);
    /// Round `r`'s allocs are done and counted before `r + 1` of these.
    const ROUND: SimDuration = SimDuration::from_secs(1);
    let mut cfg = ClusterConfig::test_small();
    (cfg.cns, cfg.mns, cfg.seed) = (1, 1, 3);
    // Four lost responses in a row exhaust the default budget, and an
    // alloc that times out may rightly leave its range behind: give every
    // op enough attempts that all of them succeed.
    cfg.clib.max_retries = 8;
    let mut cluster = Cluster::build(&cfg);
    let cn_mac = cluster.cn(0).mac();
    let lossy = FaultInjector { loss_prob: 0.2, ..FaultInjector::none() };
    cluster.net.set_faults(&mut cluster.sim, cn_mac, lossy);
    let allocated = Rc::new(Cell::new(0));
    let invalid = Rc::new(Cell::new(0));
    let (a, i) = (allocated.clone(), invalid.clone());
    cluster.spawn(0, PID, move |h| async move {
        for round in 1..=3 {
            let mut vas = Vec::new();
            for _ in 0..100 {
                vas.push(h.ralloc(4096, Perm::RW).await.va());
                a.set(a.get() + 1);
            }
            h.sleep((SimTime::ZERO + ROUND * round).since(h.now())).await;
            for va in vas {
                let c = h.rfree(va, 4096).await;
                if c.result == Err(ClioError::Remote(Status::InvalidAddr)) {
                    i.set(i.get() + 1);
                }
            }
        }
    });
    cluster.start();
    for round in 1..=3 {
        let counted_at = SimTime::ZERO + ROUND * round - SimDuration::from_nanos(1);
        cluster.run_for(counted_at.since(cluster.now()));
        assert_eq!(allocated.get(), 100 * round, "round {round}: allocs still running");
        let ranges = cluster.mn(0).slow_path().shadow().iter_pid(PID).count();
        assert_eq!(ranges, 100, "round {round}: 100 rallocs left {ranges} one-page ranges");
    }
    cluster.run_until_idle();
    assert_eq!(invalid.get(), 0, "rfrees of live ranges reported InvalidAddr");
    assert_eq!(cluster.mn(0).slow_path().shadow().iter_pid(PID).count(), 0, "a range leaked");
    let retried = cluster.cn(0).clib().transport().stats().retries;
    assert!(retried > 0, "the loss never forced a retry");
}

/// Fast-path atomics run at most once under sustained loss: with the
/// paper's 30 KiB dedup buffer (§4.5 T4), a retried FAA whose response was
/// lost is answered from the buffer instead of adding again. 64 tasks each
/// add 1 fifty times to a counter on a page of their own while a fifth of
/// the frames toward the CN are lost; every FAA is acknowledged and the
/// counters sum to exactly the 3,200 FAAs.
#[test]
fn fast_path_faas_under_sustained_loss_run_once() {
    use clio_net::FaultInjector;

    const TASKS: u64 = 64;
    const FAAS: u64 = 50;
    let mut cfg = ClusterConfig::test_small();
    (cfg.cns, cfg.mns, cfg.seed) = (1, 1, 3);
    cfg.clib.max_retries = 8;
    let mut cluster = Cluster::build(&cfg);
    let cn_mac = cluster.cn(0).mac();
    let lossy = FaultInjector { loss_prob: 0.2, ..FaultInjector::none() };
    cluster.net.set_faults(&mut cluster.sim, cn_mac, lossy);
    let acked = Rc::new(Cell::new(0));
    let sum = Rc::new(Cell::new(0));
    for _ in 0..TASKS {
        let (acked, sum) = (acked.clone(), sum.clone());
        cluster.spawn(0, Pid(9), move |h| async move {
            let va = h.ralloc(4096, Perm::RW).await.va();
            for _ in 0..FAAS {
                if h.rfaa(va, 1).await.result.is_ok() {
                    acked.set(acked.get() + 1);
                }
            }
            let counter = h.rread(va, 8).await;
            sum.set(sum.get() + u64::from_le_bytes(counter.data()[..].try_into().expect("8 B")));
        });
    }
    cluster.start();
    cluster.run_until_idle();
    assert_eq!(acked.get(), TASKS * FAAS, "every FAA is acknowledged");
    assert_eq!(sum.get(), TASKS * FAAS, "a retried FAA added twice");
    let retried = cluster.cn(0).clib().transport().stats().retries;
    assert!(retried > 0, "the loss never forced a retry");
}
