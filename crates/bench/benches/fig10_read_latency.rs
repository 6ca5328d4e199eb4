//! Figure 10: Read latency vs request size across systems.
//!
//! Clio (measured end-to-end on the simulated testbed) against Clover
//! (passive memory), native RDMA, HERD, HERD-on-BlueField and LegoOS
//! (software MN). Paper shape: Clio ≈ HERD ≈ RDMA; LegoOS ~2× Clio at
//! small sizes; HERD-BF far above everything.

use clio_baselines::clover::CloverModel;
use clio_baselines::herd::{HerdModel, HerdParams};
use clio_baselines::legoos::LegoOsModel;
use clio_baselines::rdma::{RdmaNic, RnicParams, Verb};
use clio_bench::drivers::{AccessMix, RangeLoad};
use clio_bench::setup::{alias_ptes, bench_cluster};
use clio_bench::FigureReport;
use clio_proto::Pid;
use clio_sim::stats::{Histogram, Series};
use clio_sim::{SimDuration, SimRng, SimTime};

const SIZES: &[u32] = &[4, 16, 64, 256, 1024, 4096];
const OPS: u64 = 500;

/// Median over a sampled latency model (tail jitter belongs in Figure 7,
/// not in these median-latency curves).
fn median_of(mut sample: impl FnMut(SimTime) -> SimTime) -> f64 {
    let mut h = Histogram::new();
    let mut now = SimTime::ZERO;
    for _ in 0..OPS {
        let done = sample(now);
        h.record(done.since(now).as_nanos());
        now = done + SimDuration::from_micros(5);
    }
    h.percentile(50.0) as f64 / 1000.0
}

/// Median Clio read/write latency (us) for one op size, the statistic
/// every baseline reports.
pub fn clio_latency(size: u32, mix: AccessMix) -> f64 {
    let mut cluster = bench_cluster(1, 1, 90 + size as u64);
    let va = alias_ptes(&mut cluster, 0, Pid(4), 8);
    let load = RangeLoad { base: va, pages: 4, page_size: 4096, size, mix, ops: OPS, random: None };
    let rec = load.spawn(&mut cluster, 0, Pid(4));
    cluster.start();
    cluster.run_until_idle();
    let median_ns = rec.borrow().latency().percentile(50.0);
    median_ns as f64 / 1000.0
}

/// Median one-sided RDMA verb latency (us) on a CX3 RNIC.
pub fn rdma_latency(size: u32, verb: Verb) -> f64 {
    let mut nic = RdmaNic::new(RnicParams::connectx3(), true);
    let mut rng = SimRng::new(2);
    let wire = SimDuration::from_nanos(1200);
    median_of(|now| {
        let done = nic.execute(&mut rng, now, verb, 1, 1, 1, size as u64, 4);
        done + wire
    })
}

/// Median Clover read/write latency (us) for one op size.
pub fn clover_latency(size: u32, write: bool) -> f64 {
    let mut m = CloverModel::new(RnicParams::connectx3());
    let mut rng = SimRng::new(3);
    let mut i = 0u64;
    median_of(|now| {
        i += 1;
        if write {
            m.put(&mut rng, now, i % 4, size as u64)
        } else {
            m.get(&mut rng, now, i % 4, size as u64)
        }
    })
}

/// Median HERD RPC latency (us), CPU or BlueField server.
pub fn herd_latency(size: u32, bluefield: bool) -> f64 {
    let params = if bluefield { HerdParams::on_bluefield() } else { HerdParams::on_cpu() };
    let mut m = HerdModel::new(params);
    let mut rng = SimRng::new(4);
    median_of(|now| m.request(&mut rng, now, size as u64))
}

/// Median LegoOS remote-access latency (us) for one op size.
pub fn legoos_latency(size: u32) -> f64 {
    let mut m = LegoOsModel::new();
    let mut rng = SimRng::new(5);
    median_of(|now| m.access(&mut rng, now, size as u64))
}

fn main() {
    let mut report =
        FigureReport::new("fig10", "Read latency (us) vs request size", "request bytes");
    let mut clio = Series::new("Clio");
    let mut clover = Series::new("Clover");
    let mut rdma = Series::new("RDMA");
    let mut herd_bf = Series::new("HERD-BF");
    let mut herd = Series::new("HERD");
    let mut lego = Series::new("LegoOS");
    for &sz in SIZES {
        clio.push(sz as f64, clio_latency(sz, AccessMix::Reads));
        clover.push(sz as f64, clover_latency(sz, false));
        rdma.push(sz as f64, rdma_latency(sz, Verb::Read));
        herd_bf.push(sz as f64, herd_latency(sz, true));
        herd.push(sz as f64, herd_latency(sz, false));
        lego.push(sz as f64, legoos_latency(sz));
    }
    report.push_series(clio);
    report.push_series(clover);
    report.push_series(rdma);
    report.push_series(herd_bf);
    report.push_series(herd);
    report.push_series(lego);
    report.note("paper: Clio ~ HERD ~ RDMA; LegoOS ~2x Clio at small sizes; HERD-BF worst");
    report.print();
}
