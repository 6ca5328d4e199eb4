//! Figure 16: Image compression — per-client runtime vs client count.
//!
//! Each client is its own process (its photos must be protected from other
//! clients, §6), reads originals from remote memory, compresses at the CN,
//! and writes results back. Clio's per-process protection is free —
//! runtime stays flat. RDMA needs one MR per client; past the RNIC's MR
//! cache the runtime climbs (Figure 16's cliff).

use std::cell::Cell;
use std::rc::Rc;

use clio_apps::image::{compress_cpu_time, rle_compress, synth_image, IMAGE_BYTES};
use clio_baselines::rdma::{RdmaNic, RnicParams, Verb};
use clio_bench::FigureReport;
use clio_core::ClusterConfig;
use clio_mn::CBoardConfig;
use clio_sim::stats::Series;
use clio_sim::{SimRng, SimTime};

const CLIENTS: &[u64] = &[1, 50, 100, 200, 400, 600, 800];
const IMAGES_PER_CLIENT: u64 = 8;

/// Clio path: measured with real client processes on the cluster, one async
/// task each (`examples/image_service.rs` runs the same workload with real
/// pixels).
fn clio_runtime(clients: u64) -> f64 {
    // Per-client work is independent; contention is at the MN ports. Use 4
    // MNs as in the testbed and divide clients across 4 CNs.
    let mut cfg = ClusterConfig::testbed();
    cfg.cns = 4;
    cfg.mns = 4;
    cfg.board = CBoardConfig::test_small();
    cfg.board.hw.phys_mem_bytes = 64 << 20;
    cfg.seed = 160 + clients;
    let mut cluster = clio_core::Cluster::build(&cfg);

    // Each client's (start, finish) times, filled in by its task.
    let spans: Vec<Rc<Cell<(SimTime, SimTime)>>> = (0..clients).map(|_| Rc::default()).collect();
    for (cid, span) in spans.iter().enumerate() {
        let span = span.clone();
        cluster.spawn(cid % 4, clio_proto::Pid(10_000 + cid as u64), move |h| async move {
            let started = h.now();
            let va = h.ralloc(2 * IMAGE_BYTES as u64, clio_proto::Perm::RW).await.va();
            for _ in 0..IMAGES_PER_CLIENT {
                let c = h.rread(va, IMAGE_BYTES as u32).await;
                if let Err(e) = &c.result {
                    panic!("image read failed at {}: {e}", c.completed_at);
                }
                // "Compress" the fetched image, charging CPU time.
                let packed = bytes::Bytes::from(rle_compress(c.data()));
                h.sleep(compress_cpu_time(IMAGE_BYTES)).await;
                h.rwrite(va + IMAGE_BYTES as u64, packed).await;
            }
            span.set((started, h.now()));
        });
    }
    cluster.start();
    cluster.run_until_idle();
    let mut total = 0f64;
    for (cid, span) in spans.iter().enumerate() {
        let (started, finished) = span.get();
        assert!(finished > started, "client {cid} unfinished");
        total += finished.since(started).as_secs_f64();
    }
    total / clients as f64
}

/// RDMA path: one MR per client on the shared server RNICs (4 MNs, as in
/// the testbed). Clients run concurrently; ops are issued to each NIC in
/// arrival order via an event heap, so the NIC model's FCFS engine sees a
/// chronological stream. MR-cache thrash inflates per-op service beyond the
/// cache size, saturating the NICs and stretching per-client runtime.
fn rdma_runtime(clients: u64) -> f64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    const NICS: u64 = 4;
    let mut nics: Vec<RdmaNic> =
        (0..NICS).map(|_| RdmaNic::new(RnicParams::connectx3(), true)).collect();
    let mut rng = SimRng::new(4);
    // (when, client, images_done, is_write)
    let mut heap: BinaryHeap<Reverse<(SimTime, u64, u64, bool)>> = BinaryHeap::new();
    for c in 0..clients {
        heap.push(Reverse((SimTime::ZERO, c, 0, false)));
    }
    let mut finish = vec![SimTime::ZERO; clients as usize];
    while let Some(Reverse((t, c, img, is_write))) = heap.pop() {
        let nic = &mut nics[(c % NICS) as usize];
        let per_nic_clients = clients.div_ceil(NICS);
        if is_write {
            let (done, _) = nic.execute(
                &mut rng,
                t,
                Verb::Write,
                c,
                c,
                c + 100_000,
                IMAGE_BYTES as u64 / 4,
                per_nic_clients,
            );
            if img + 1 < IMAGES_PER_CLIENT {
                heap.push(Reverse((done, c, img + 1, false)));
            } else {
                finish[c as usize] = done;
            }
        } else {
            let (done, _) =
                nic.execute(&mut rng, t, Verb::Read, c, c, c, IMAGE_BYTES as u64, per_nic_clients);
            let compute_done = done + compress_cpu_time(IMAGE_BYTES);
            heap.push(Reverse((compute_done, c, img, true)));
        }
    }
    finish.iter().map(|t| t.as_secs_f64()).sum::<f64>() / clients as f64
}

fn main() {
    // Sanity: the codec really compresses the synthetic photos.
    let mut rng = SimRng::new(1);
    let img = synth_image(&mut rng);
    assert!(rle_compress(&img).len() < img.len() / 2);

    let mut report = FigureReport::new(
        "fig16",
        "Image compression: mean per-client runtime (s) vs concurrent clients",
        "clients",
    );
    let mut clio = Series::new("Clio");
    let mut rdma = Series::new("RDMA");
    for &c in CLIENTS {
        clio.push(c as f64, clio_runtime(c));
        rdma.push(c as f64, rdma_runtime(c));
    }
    report.push_series(clio);
    report.push_series(rdma);
    report.note("paper: Clio flat; RDMA climbs once per-client MRs overflow the RNIC cache");
    report.note("scaled: 8 images/client (paper: 1000) — per-client runtime shape is unchanged");
    report.print();
}
