//! Figure 14: Latency breakdown at CBoard.
//!
//! Where the nanoseconds go for 4 B and 1 KB reads/writes — derived from
//! **recorded op traces**: each case drives a traced 1 CN × 1 MN cluster
//! and aggregates the per-stage spans `clio_trace` stitched along the real
//! fast path (doorbell, NIC serialization, wire, MAC, TLB/page-table walk,
//! DRAM, egress hold, completion). Because spans tile each op's timeline
//! exactly (checked per trace), the rows provably sum to the measured
//! end-to-end latency — the same accounting the paper's Figure 14
//! instruments in hardware, plus the queueing the hardware counters miss.

use clio_bench::drivers::{AccessMix, MemLoad};
use clio_bench::FigureReport;
use clio_core::{Cluster, ClusterConfig};
use clio_mn::CBoardConfig;
use clio_proto::Pid;
use clio_sim::stats::Series;
use clio_trace::{check_trace, OpTrace, Stage};

const OPS: u64 = 32;
const SPAN_PAGES: u64 = 8;

const ROWS: [&str; 9] = [
    "WireDelay",
    "InterConn",
    "TLBHit",
    "TLBMiss",
    "DDRAccess",
    "Pipeline",
    "CnHost",
    "Queueing",
    "Other",
];

/// Maps a recorded stage onto a figure row. Every stage maps somewhere, so
/// the rows partition the op's timeline and their sum equals the e2e
/// latency exactly.
fn row_of(stage: Stage) -> usize {
    match stage {
        Stage::NicSerialize | Stage::Wire => 0,
        Stage::Interconnect => 1,
        Stage::Tlb | Stage::IngressMac => 2,
        Stage::PtWalk => 3,
        Stage::Dram | Stage::Dma => 4,
        Stage::Parse | Stage::PipelineWait => 5,
        Stage::Pack | Stage::Complete => 6,
        s if s.is_queueing() => 7,
        _ => 8,
    }
}

/// Runs one case on a traced single-CN/single-MN cluster and returns the
/// measured ops' traces (warm-up alloc/page-touch ops excluded).
fn run_case(size: u32, write: bool, force_miss: bool) -> Vec<OpTrace> {
    let mut cfg = ClusterConfig::testbed();
    cfg.cns = 1;
    cfg.mns = 1;
    cfg.seed = 0xF14;
    cfg.board = CBoardConfig::test_small();
    cfg.board.hw.phys_mem_bytes = 64 << 20;
    // A 1-entry TLB plus a page-cycling load makes every access miss.
    cfg.board.hw.tlb_entries = if force_miss { 1 } else { 4096 };
    cfg.trace_sample_every = Some(1);
    let page = cfg.board.hw.page_size;
    let mut cluster = Cluster::build(&cfg);
    let mix = if write { AccessMix::Writes } else { AccessMix::Reads };
    MemLoad::new(size, mix, OPS, 1, SPAN_PAGES, page).spawn(&mut cluster, 0, Pid(1));
    cluster.start();
    cluster.run_until_idle();
    let label = if write { "write" } else { "read" };
    let mut traces: Vec<OpTrace> =
        cluster.take_traces().into_iter().filter(|t| t.label == label).collect();
    traces.sort_by_key(|t| t.begin);
    // The load's warm-up (page-touch writes) precedes the measured
    // window; keep only the last OPS ops of the case's kind.
    traces.split_off(traces.len().saturating_sub(OPS as usize))
}

fn main() {
    let mut report = FigureReport::new(
        "fig14",
        "CBoard latency breakdown (mean ns per component, from recorded op spans)",
        "case",
    );
    // Cases: 0=R-4B, 1=R-1KB, 2=W-4B, 3=W-1KB (hit); 4..5 with misses.
    let cases: Vec<(&str, u32, bool, bool)> = vec![
        ("R-4B", 4, false, false),
        ("R-1KB", 1024, false, false),
        ("W-4B", 4, true, false),
        ("W-1KB", 1024, true, false),
        ("R-4B-miss", 4, false, true),
        ("W-1KB-miss", 1024, true, true),
    ];
    let mut series: Vec<Series> = ROWS.iter().map(|r| Series::new(*r)).collect();
    for (i, (name, size, write, miss)) in cases.iter().enumerate() {
        let traces = run_case(*size, *write, *miss);
        assert!(!traces.is_empty(), "case {name} produced no traces");
        let mut rows = [0u64; ROWS.len()];
        let mut e2e_total = 0u64;
        for t in &traces {
            check_trace(t).expect("spans must tile the op exactly");
            e2e_total += t.e2e().as_nanos();
            for s in &t.spans {
                rows[row_of(s.stage)] += s.duration().as_nanos();
            }
        }
        let row_total: u64 = rows.iter().sum();
        assert_eq!(
            row_total, e2e_total,
            "case {name}: stage rows must sum to end-to-end latency exactly"
        );
        let n = traces.len() as f64;
        for (r, s) in rows.iter().zip(series.iter_mut()) {
            s.push(i as f64, *r as f64 / n);
        }
        println!("case {i} = {name} ({} traced ops)", traces.len());
    }
    for s in series {
        report.push_series(s);
    }
    report.note(
        "rows are derived from clio_trace op spans; sum(rows) == e2e latency exactly (asserted)",
    );
    report.note(
        "paper: DDR access + wire dominate, especially for 1 KB; TLB miss adds one DRAM read",
    );
    report.note("TLBHit row includes MAC ingress; Queueing aggregates doorbell/egress/fence holds");
    report.print();
}
