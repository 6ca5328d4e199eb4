//! Figure 5: PTE and MR Scalability.
//!
//! 16 B read latency while the number of mapped pages (PTEs) or memory
//! regions (MRs) grows 2^0 → 2^22. Clio shows two flat levels — TLB hit
//! below the TLB size, TLB miss (exactly one DRAM access) above — and never
//! fails. RDMA degrades once PTEs/MRs overflow the RNIC caches and **fails
//! beyond 2^18 MRs**. Following the paper's methodology, Clio's huge VA
//! span is aliased onto a small physical memory.

use clio_baselines::rdma::{RdmaNic, RnicParams, Verb};
use clio_bench::drivers::{AccessMix, RangeLoad};
use clio_bench::setup::alias_ptes;
use clio_bench::FigureReport;
use clio_core::{Cluster, ClusterConfig};
use clio_mn::CBoardConfig;
use clio_proto::Pid;
use clio_sim::stats::Series;
use clio_sim::{SimDuration, SimRng, SimTime};

const POINTS: &[u32] = &[0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22];
const OPS: u64 = 300;

/// A cluster whose page table can hold 2^22 PTEs (the paper maps up to
/// 4 TB of VA), with the prototype's small TLB (its hit/miss step sits at
/// 2^4 entries in Figure 5).
fn fig5_cluster(seed: u64) -> Cluster {
    let mut cfg = ClusterConfig::testbed();
    cfg.cns = 1;
    cfg.mns = 1;
    cfg.seed = seed;
    cfg.board = CBoardConfig::test_small();
    cfg.board.hw.phys_mem_bytes = 2 << 30; // 512 Ki pages of 4 KiB
    cfg.board.hw.pt_slack = 16; // 8 Mi slots: room for 2^22 PTEs
    cfg.board.hw.tlb_entries = 16;
    Cluster::build(&cfg)
}

fn clio_point(log2_ptes: u32) -> f64 {
    let n = 1u64 << log2_ptes;
    let mut cluster = fig5_cluster(50_000 + log2_ptes as u64);
    let pid = Pid(77);
    let base_va = alias_ptes(&mut cluster, 0, pid, n);
    let load = RangeLoad {
        base: base_va,
        pages: n,
        page_size: 4096,
        size: 16,
        mix: AccessMix::Reads,
        ops: OPS,
        random: Some(3),
    };
    let rec = load.spawn(&mut cluster, 0, pid);
    cluster.start();
    cluster.run_until_idle();
    let mean_ns = rec.borrow().latency().mean_ns;
    mean_ns / 1000.0
}

/// RDMA with N PTEs (one big MR) or N MRs (metadata-cache pressure).
fn rdma_point(params: RnicParams, log2: u32, sweep_mrs: bool) -> Option<f64> {
    let n = 1u64 << log2;
    if sweep_mrs && n > params.max_mrs {
        return None; // paper: "RDMA fails to run beyond 2^18 MRs"
    }
    let mut nic = RdmaNic::new(params, true);
    let mut rng = SimRng::new(5);
    let wire = SimDuration::from_nanos(1200);
    let mut now = SimTime::ZERO;
    let mut total = SimDuration::ZERO;
    let mut cnt = 0u64;
    for i in 0..OPS {
        let x = rng.range_u64(0, n);
        let (mr, vpn) = if sweep_mrs { (x, x) } else { (0, x) };
        let (done, _) = nic.execute(&mut rng, now, Verb::Read, 1, mr, vpn, 16, 4);
        if i > 20 {
            total += done.since(now) + wire;
            cnt += 1;
        }
        now = done + SimDuration::from_micros(10);
    }
    Some(total.as_nanos() as f64 / cnt as f64 / 1000.0)
}

fn main() {
    let mut report = FigureReport::new(
        "fig05",
        "PTE and MR Scalability — 16 B read latency (us) vs 2^k entries",
        "log2(entries)",
    );
    let mut clio = Series::new("Clio");
    let mut pte3 = Series::new("RDMA-PTE(CX3)");
    let mut mr3 = Series::new("RDMA-MR(CX3)");
    let mut pte5 = Series::new("RDMA-PTE-CX5");
    let mut mr5 = Series::new("RDMA-MR-CX5");
    for &k in POINTS {
        clio.push(k as f64, clio_point(k));
        if let Some(v) = rdma_point(RnicParams::connectx3(), k, false) {
            pte3.push(k as f64, v);
        }
        if let Some(v) = rdma_point(RnicParams::connectx3(), k, true) {
            mr3.push(k as f64, v);
        }
        if let Some(v) = rdma_point(RnicParams::connectx5(), k, false) {
            pte5.push(k as f64, v);
        }
        if let Some(v) = rdma_point(RnicParams::connectx5(), k, true) {
            mr5.push(k as f64, v);
        }
    }
    report.push_series(clio);
    report.push_series(pte3);
    report.push_series(mr3);
    report.push_series(pte5);
    report.push_series(mr5);
    report.note("RDMA MR rows end at 2^18: registration fails (paper §7.1)");
    report
        .note("Clio: flat TLB-hit level below 2^4 entries; flat one-DRAM-access miss level above");
    report.note("Clio VA span aliased onto small physical memory, as in the paper");
    report.print();
}
