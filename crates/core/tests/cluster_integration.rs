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
fn scatter_gather_vectors() {
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    cluster.block_on(0, Pid(42), |h| async move {
        let va = h.ralloc(16 << 10, Perm::RW).await.va();
        // Scatter/gather write: one explicit vector, one submission.
        let writes = (0..16u64).map(|i| (va + i * 1024, Bytes::from(vec![i as u8 + 1; 64])));
        for w in h.rwrite_v(writes.collect()) {
            w.await.result.expect("rwrite_v");
        }
        // Scatter/gather read hands back one future per entry, in request
        // order; entries complete independently.
        let reads: Vec<(u64, u32)> = (0..16u64).map(|i| (va + i * 1024, 64)).collect();
        let futs = h.rread_v(reads.clone());
        assert_eq!(futs.len(), 16);
        for (i, f) in futs.into_iter().enumerate() {
            let c = f.await;
            assert!(c.data().iter().all(|&b| b == i as u8 + 1), "entry {i} wrong data");
        }
        // Issue a vector, do something else, collect it with `rrelease`.
        let abandoned = h.rread_v(reads.clone());
        h.rrelease().await.result.expect("rrelease");
        for f in abandoned {
            f.await.result.expect("completed before the release did");
        }
        // Single-entry and empty vectors degenerate cleanly.
        assert_eq!(h.rread_v(reads[..1].to_vec()).len(), 1);
        assert!(h.rread_v(Vec::new()).is_empty());
        assert!(h.rwrite_v(Vec::new()).is_empty());
    });
    // The vector reached the wire coalesced: the CN transport shipped
    // multi-request frames.
    assert!(cluster.cn(0).clib().batched_ops() >= 16, "vector ops did not batch");
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
        // the node re-routes transparently after the Moved refusal.
        h.sleep(SimDuration::from_millis(50)).await;
        let back = h.rread(a, 12).await;
        assert_eq!(&back.data()[..], b"range-a data");
    });
    let (started, completed) = cluster.controller().migration_stats();
    assert!(started >= 1, "no migration started");
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
