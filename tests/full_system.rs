//! Whole-system integration tests through the facade crate: every layer
//! (CLib → transport → fabric → CBoard → offloads → controller) in one
//! process, exercised the way a downstream user would.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use clio::apps::kv::{partition_of, ClioKv, KvRequest, KvResponse};
use clio::mn::CBoardConfig;
use clio::proto::{Perm, Pid, Status};
use clio::sim::{SimDuration, SimTime};
use clio::system::{Cluster, ClusterConfig};

#[test]
fn api_roundtrip_with_locks_and_async() {
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    cluster.block_on(0, Pid(1), |h| async move {
        let buf = h.ralloc(16 << 10, Perm::RW).await.va();
        let lock = h.ralloc(8, Perm::RW).await.va();

        h.rlock(lock).await.result.expect("rlock");
        // Four async writes: spawn is the issue, `rrelease` the poll.
        for i in 0..4u64 {
            let h2 = h.clone();
            h.spawn(async move {
                let data = Bytes::from(vec![i as u8 + 1; 128]);
                h2.rwrite(buf + i * 4096, data).await.result.expect("rwrite");
            });
        }
        h.runlock(lock).await.result.expect("runlock");
        h.rrelease().await.result.expect("rrelease");
        h.rfence().await.result.expect("rfence");

        for i in 0..4u64 {
            let back = h.rread(buf + i * 4096, 128).await;
            assert!(back.data().iter().all(|&b| b == i as u8 + 1));
        }
        h.rfree(buf, 16 << 10).await.result.expect("rfree");
        assert!(h.rread(buf, 8).await.result.is_err(), "freed memory must not read");
    });
}

#[test]
fn kv_store_across_partitioned_mns() {
    let mut cfg = ClusterConfig::test_small();
    cfg.mns = 3;
    let mut cluster = Cluster::build(&cfg);
    for mn in 0..3 {
        cluster.install_offload(mn, 1, Pid(9000 + mn as u64), Box::new(ClioKv::new(512)));
    }
    let macs = cluster.mn_macs().to_vec();
    let hits = cluster.block_on(0, Pid(5), |h| async move {
        let call = |req: KvRequest| {
            let (KvRequest::Put { key, .. } | KvRequest::Get { key } | KvRequest::Delete { key }) =
                &req;
            let mn = macs[partition_of(key, macs.len())];
            h.roffload(mn, 1, req.opcode(), req.encode())
        };
        for i in 0..60 {
            let (key, value) = (format!("k{i:03}").into_bytes(), format!("v{i:03}").into_bytes());
            let c = call(KvRequest::Put { key, value }).await;
            assert!(c.result.is_ok(), "kv put failed: {:?}", c.result);
        }
        let mut hits = 0;
        for i in 0..60 {
            let c = call(KvRequest::Get { key: format!("k{i:03}").into_bytes() }).await;
            let expect = Bytes::from(format!("v{i:03}").into_bytes());
            assert_eq!(KvResponse::decode(Status::Ok, c.data().clone()), KvResponse::Value(expect));
            hits += 1;
        }
        hits
    });
    assert_eq!(hits, 60, "all keys must be found across partitions");
    // Every MN served some traffic.
    for mn in 0..3 {
        assert!(cluster.mn(mn).stats().offload_calls > 0, "mn{mn} idle");
    }
}

#[test]
fn lossy_network_preserves_correctness_end_to_end() {
    let mut cfg = ClusterConfig::test_small();
    cfg.board = CBoardConfig::test_small();
    let mut cluster = Cluster::build(&cfg);
    // 10% loss + 5% corruption toward the MN, from the first frame on.
    let mn_mac = cluster.mn_macs()[0];
    cluster.net.set_faults(
        &mut cluster.sim,
        mn_mac,
        clio::net::FaultInjector {
            loss_prob: 0.10,
            corrupt_prob: 0.05,
            jitter: SimDuration::from_micros(30),
            ..clio::net::FaultInjector::none()
        },
    );
    cluster.block_on(0, Pid(3), |h| async move {
        let buf = h.ralloc(64 << 10, Perm::RW).await.va();
        for i in 0..40u64 {
            let c = h.rwrite(buf + i * 512, Bytes::from(vec![i as u8; 512])).await;
            c.result.expect("write survives loss");
        }
        for i in 0..40u64 {
            let c = h.rread(buf + i * 512, 512).await;
            let b = c.result.as_ref().map(|_| c.data()).expect("read survives loss");
            assert!(b.iter().all(|&x| x == i as u8), "data corrupted at {i}");
        }
    });
    let retries = cluster.cn(0).clib().transport().stats().retries;
    assert!(retries > 0, "faults should have caused retries (got {retries})");
}

/// Tier-2 scenario: incast corruption storm. 8 CNs fire 64 small reads
/// each at one MN and every batch frame of the first wave is corrupted
/// (deterministically, via `corrupt_next`). Recovery must complete with
/// the same data as a clean run, and the error path must stay coalesced:
/// NACKs ship as `BatchNack` frames and retries re-batch, so NACK and
/// retry frame counts stay within 2 × ceil(n / batch_max_ops) per
/// direction.
#[test]
fn incast_corruption_storm_recovers_with_coalesced_frames() {
    const CNS: usize = 8;
    const READS: u64 = 64;
    const OP: u64 = 64; // bytes per read; 64 x 64 B = one 4 KiB page
    /// The instant every CN fires its burst; phase 1 drains well before.
    const FIRE: SimTime = SimTime::from_nanos(1_000_000);

    /// Allocates + initializes a page, then sleeps until [`FIRE`] to fire
    /// its 64-read burst (spawned at one instant, collected with
    /// `rrelease`). Leaves the data each read brought back at the read's
    /// index in `out`.
    async fn incast_reader(h: clio::system::ProcHandle, out: Rc<RefCell<Vec<Bytes>>>) {
        let va = h.ralloc(READS * OP, Perm::RW).await.va();
        let pattern: Vec<u8> = (0..READS * OP).map(|i| (i / OP) as u8).collect();
        h.rwrite(va, Bytes::from(pattern)).await.result.expect("pattern write");
        h.sleep(FIRE.since(h.now())).await;
        out.borrow_mut().resize(READS as usize, Bytes::new());
        for i in 0..READS {
            let (h2, out) = (h.clone(), out.clone());
            h.spawn(async move {
                let data = h2.rread(va + i * OP, OP as u32).await.data().clone();
                out.borrow_mut()[i as usize] = data;
            });
        }
        h.rrelease().await;
    }

    let run_storm = |corrupt: bool| {
        let mut cfg = ClusterConfig::test_small();
        cfg.cns = CNS;
        cfg.board = CBoardConfig::test_small();
        // Window wide enough that the whole burst ships at once: the frame
        // counts then measure framing policy, not the congestion window.
        cfg.clib.cwnd_init = 128.0;
        cfg.clib.cwnd_max = 256.0;
        let mut cluster = Cluster::build(&cfg);
        let outs: Vec<Rc<RefCell<Vec<Bytes>>>> = (0..CNS).map(|_| Rc::default()).collect();
        for (cn, out) in outs.iter().enumerate() {
            let out = out.clone();
            cluster.spawn(cn, Pid(100 + cn as u64), |h| incast_reader(h, out));
        }
        // Phase 1 (fault-free): allocations + pattern writes drain, and
        // nothing but the readers' wake-ups is left before the burst.
        cluster.start();
        cluster.run_for(FIRE.since(cluster.now()) - SimDuration::from_nanos(1));
        assert_eq!(cluster.sim.peek_next_event_time(), Some(FIRE), "phase 1 still running");

        let mn_mac = cluster.mn_macs()[0];
        let stats0 = cluster.mn(0).stats();
        let retry_frames = |cluster: &Cluster| -> u64 {
            (0..CNS).map(|i| cluster.cn(i).clib().transport().stats().retry_frames).sum()
        };
        let retries0 = retry_frames(&cluster);
        if corrupt {
            // Corrupt exactly the first wave: 8 CNs x ceil(64/16) frames.
            let frames = CNS as u32 * (READS as u32).div_ceil(cfg.clib.batch_max_ops);
            cluster.net.set_faults(
                &mut cluster.sim,
                mn_mac,
                clio::net::FaultInjector {
                    corrupt_next: frames,
                    ..clio::net::FaultInjector::none()
                },
            );
        }
        // Phase 2: every CN fires its burst at the same instant (incast).
        cluster.run_until_idle();

        let mut per_cn: Vec<Vec<Bytes>> = Vec::new();
        let mut per_cn_rx_frames: Vec<u64> = Vec::new();
        for (cn, out) in outs.iter().enumerate() {
            let data = out.borrow().clone();
            assert_eq!(data.len() as u64, READS, "cn{cn}: the burst never fired");
            assert!(data.iter().all(|d| d.len() as u64 == OP), "cn{cn}: a read never completed");
            per_cn.push(data);
            // Frames delivered to this CN (responses + NACKs), per port.
            let mac = cluster.cn(cn).mac();
            per_cn_rx_frames.push(cluster.net.port_stats(&cluster.sim, mac).tx_frames);
        }
        let stats = cluster.mn(0).stats();
        (
            per_cn,
            stats.rx_frames - stats0.rx_frames,
            stats.nacks - stats0.nacks,
            stats.nack_frames - stats0.nack_frames,
            retry_frames(&cluster) - retries0,
            per_cn_rx_frames,
        )
    };

    let (clean_data, clean_rx, clean_nacks, _, _, clean_cn_rx) = run_storm(false);
    let (storm_data, storm_rx, storm_nacks, storm_nack_frames, storm_retry_frames, storm_cn_rx) =
        run_storm(true);

    // Recovery is complete and observationally clean.
    assert_eq!(clean_nacks, 0, "clean run must not NACK");
    assert_eq!(storm_data, clean_data, "storm results diverge from the clean run");
    for (cn, data) in storm_data.iter().enumerate() {
        for (i, d) in data.iter().enumerate() {
            assert!(
                d.iter().all(|&b| b == i as u8),
                "cn{cn} read {i} returned corrupted data after recovery"
            );
        }
    }

    // Frame-efficiency bars: ceil(64/16) = 4 frames per CN per wave.
    let ceil_frames = READS.div_ceil(16);
    assert_eq!(clean_rx, CNS as u64 * ceil_frames, "clean bursts batch fully");
    assert_eq!(storm_nacks, CNS as u64 * READS, "every entry of every corrupted frame NACKed");
    assert!(
        storm_nack_frames <= CNS as u64 * 2 * ceil_frames,
        "NACKs must coalesce: {storm_nack_frames} frames for {CNS} CNs (bound {})",
        CNS as u64 * 2 * ceil_frames
    );
    assert!(
        storm_retry_frames <= CNS as u64 * 2 * ceil_frames,
        "retries must coalesce: {storm_retry_frames} frames (bound {})",
        CNS as u64 * 2 * ceil_frames
    );
    assert!(
        storm_rx <= 2 * clean_rx,
        "request direction doubled at worst: {storm_rx} vs clean {clean_rx}"
    );
    // Per-CN response direction: the storm adds at most the coalesced NACK
    // frames on top of what the clean run delivered to that CN's port.
    for cn in 0..CNS {
        assert!(
            storm_cn_rx[cn] <= clean_cn_rx[cn] + 2 * ceil_frames,
            "cn{cn}: {} frames delivered during the storm vs {} clean (NACK bound {})",
            storm_cn_rx[cn],
            clean_cn_rx[cn],
            2 * ceil_frames
        );
    }
}

#[test]
fn deterministic_full_cluster_replay() {
    let run = || {
        let mut cfg = ClusterConfig::test_small();
        cfg.mns = 2;
        cfg.seed = 77;
        let mut cluster = Cluster::build(&cfg);
        for i in 0..6u64 {
            cluster.spawn(0, Pid(i), |h| async move {
                let va = h.ralloc(8192, Perm::RW).await.va();
                for left in (0..30u32).rev() {
                    if left.is_multiple_of(2) {
                        h.rread(va, 64).await;
                    } else {
                        h.rwrite(va, Bytes::from(vec![1u8; 64])).await;
                    }
                }
            });
        }
        cluster.start();
        cluster.run_until_idle();
        (cluster.sim.digest(), cluster.sim.events_dispatched())
    };
    assert_eq!(run(), run());
}
