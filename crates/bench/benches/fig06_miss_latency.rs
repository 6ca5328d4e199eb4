//! Figure 6: Comparison of TLB miss and page fault.
//!
//! 16 B read/write latency under four conditions: TLB hit, TLB miss,
//! first-access page fault (Clio) / MR miss and page fault (RDMA), plus the
//! paper's Clio-ASIC projection. The paper's headline: an RDMA page fault
//! costs 16.8 **ms** (host interrupt), while Clio's costs three hardware
//! cycles on top of a TLB miss.

use clio_baselines::rdma::{RdmaNic, RnicParams, Verb};
use clio_bench::drivers::{AccessMix, RangeLoad};
use clio_bench::setup::alias_ptes;
use clio_bench::FigureReport;
use clio_core::metrics::OpRecorder;
use clio_core::{Cluster, ClusterConfig};
use clio_hw::CBoardHwConfig;
use clio_mn::CBoardConfig;
use clio_proto::{Perm, Pid};
use clio_sim::stats::Series;
use clio_sim::{SimDuration, SimRng, SimTime};

const OPS: u64 = 200;

fn cluster_with(hw: CBoardHwConfig, tlb: usize, seed: u64) -> Cluster {
    let mut cfg = ClusterConfig::testbed();
    cfg.cns = 1;
    cfg.mns = 1;
    cfg.seed = seed;
    // The ASIC projection drives the target 100 Gbps port (§2.1 R3); the
    // FPGA prototype has 10 Gbps SFP+ ports (§5).
    let port = if hw.clock == clio_sim::Frequency::from_ghz(2) {
        clio_sim::Bandwidth::from_gbps(100)
    } else {
        clio_sim::Bandwidth::from_gbps(10)
    };
    cfg.board = CBoardConfig { hw, port_rate: port, ..CBoardConfig::test_small() };
    cfg.board.hw.phys_mem_bytes = 256 << 20;
    cfg.board.hw.page_size = 4096;
    cfg.board.hw.pt_slack = 4;
    cfg.board.hw.tlb_entries = tlb;
    cfg.board.hw.async_buffer_pages = 4096;
    Cluster::build(&cfg)
}

/// Measured Clio latency for one scenario.
fn clio_case(hw: CBoardHwConfig, write: bool, scenario: &str) -> f64 {
    let mix = if write { AccessMix::Writes } else { AccessMix::Reads };
    match scenario {
        "hit" => {
            // Repeated access to one pre-faulted page.
            let mut c = cluster_with(hw, 4096, 61);
            let va = alias_ptes(&mut c, 0, Pid(5), 4);
            let load = RangeLoad {
                base: va,
                pages: 1,
                page_size: 4096,
                size: 16,
                mix,
                ops: OPS,
                random: None,
            };
            let rec = load.spawn(&mut c, 0, Pid(5));
            c.start();
            c.run_until_idle();
            let mean_ns = rec.borrow().latency().mean();
            mean_ns / 1000.0
        }
        "miss" => {
            // Random over many valid pages with a tiny TLB: always misses.
            let mut c = cluster_with(hw, 1, 62);
            let va = alias_ptes(&mut c, 0, Pid(5), 4096);
            let (pages, random) = (4096, Some(2));
            let load =
                RangeLoad { base: va, pages, page_size: 4096, size: 16, mix, ops: OPS, random };
            let rec = load.spawn(&mut c, 0, Pid(5));
            c.start();
            c.run_until_idle();
            let mean_ns = rec.borrow().latency().mean();
            mean_ns / 1000.0
        }
        "pgfault" => {
            // First touch of freshly allocated pages: every op faults.
            let mut c = cluster_with(hw, 4096, 63);
            let rec = c.block_on(0, Pid(5), move |h| async move {
                let mut rec = OpRecorder::new(SimTime::ZERO);
                let base = h.ralloc(OPS * 4096, Perm::RW).await.va();
                for page in 0..OPS {
                    let va = base + page * 4096;
                    let c = if write {
                        h.rwrite(va, bytes::Bytes::from_static(&[7u8; 16])).await
                    } else {
                        h.rread(va, 16).await
                    };
                    if page > 4 {
                        rec.record(c.completed_at, c.latency(), 16);
                    }
                }
                rec
            });
            rec.latency().mean() / 1000.0
        }
        other => unreachable!("unknown scenario {other}"),
    }
}

fn rdma_case(write: bool, scenario: &str) -> f64 {
    let verb = if write { Verb::Write } else { Verb::Read };
    let pin = scenario != "pgfault";
    let mut nic = RdmaNic::new(RnicParams::connectx3(), pin);
    let mut rng = SimRng::new(8);
    let wire = SimDuration::from_nanos(1200);
    let mut now = SimTime::ZERO;
    let mut total = SimDuration::ZERO;
    for i in 0..OPS {
        let (qp, mr, vpn) = match scenario {
            "hit" => (1, 1, 1),
            "miss" => (1, 1, 1000 + i),    // new PTE every op
            "mr-miss" => (1, 1000 + i, 1), // new MR every op
            "pgfault" => (1, 1, 5000 + i), // unpinned first touch
            other => unreachable!("unknown scenario {other}"),
        };
        // Warm the fixed ids once.
        if i == 0 {
            nic.execute(&mut rng, now, verb, 1, 1, 1, 16, 4);
        }
        let done = nic.execute(&mut rng, now, verb, qp, mr, vpn, 16, 4);
        total += done.since(now) + wire;
        now = done + SimDuration::from_micros(5);
    }
    total.as_nanos() as f64 / OPS as f64 / 1000.0
}

fn main() {
    let mut report = FigureReport::new(
        "fig06",
        "TLB miss / page fault latency, 16 B ops (us; x = 0 read, 1 write)",
        "read0/write1",
    );
    let cases: &[(&str, &str)] =
        &[("Clio-TLB-hit", "hit"), ("Clio-TLB-miss", "miss"), ("Clio-pgfault", "pgfault")];
    for (name, scenario) in cases {
        let mut s = Series::new(*name);
        s.push(0.0, clio_case(CBoardHwConfig::prototype(), false, scenario));
        s.push(1.0, clio_case(CBoardHwConfig::prototype(), true, scenario));
        report.push_series(s);
    }
    let mut asic = Series::new("Clio-ASIC");
    asic.push(0.0, clio_case(CBoardHwConfig::asic(), false, "hit"));
    asic.push(1.0, clio_case(CBoardHwConfig::asic(), true, "hit"));
    report.push_series(asic);
    for (name, scenario) in [
        ("RDMA-TLB-hit", "hit"),
        ("RDMA-TLB-miss", "miss"),
        ("RDMA-MR-miss", "mr-miss"),
        ("RDMA-pgfault", "pgfault"),
    ] {
        let mut s = Series::new(name);
        s.push(0.0, rdma_case(false, scenario));
        s.push(1.0, rdma_case(true, scenario));
        report.push_series(s);
    }
    report.note("RDMA-pgfault is in MILLIseconds (paper: 16.8 ms) — ~14100x a no-fault access");
    report.note("Clio-pgfault ~= Clio-TLB-miss + 3 cycles: faults are constant-time in hardware");
    report.print();
}
