//! Figure 20: Select-Aggregate-Shuffle runtime vs select ratio.
//!
//! A DataFrame query (`select field_a < t`, `avg(field_b)`, CN-side
//! histogram) at decreasing selectivity. Clio runs select+avg as MN
//! offloads and ships only matching rows; the RDMA baseline reads the whole
//! table to the CN and computes there with a faster CPU. At high
//! selectivity the CPU wins; at low selectivity Clio's reduced data
//! movement wins — the paper's crossover.

use clio_apps::dataframe::{
    avg_local, encode_avg, encode_select, histogram, select_local, synth_table, ClioDf, DfOpcode,
    ROW_BYTES,
};
use clio_bench::setup::bench_cluster;
use clio_bench::FigureReport;
use clio_sim::stats::Series;
use clio_sim::{Bandwidth, SimRng, SimTime};

const RATIOS: &[u32] = &[80, 40, 20, 10, 5, 2];
const ROWS: u64 = 200_000; // 1.6 MB table
const QUERIES: u64 = 40;

/// CN CPU scan rate (a Xeon core; §7.2: "CPU computation is faster than
/// our FPGA implementation for these operations").
const CPU_SCAN: u64 = 4; // GB/s
/// CN CPU histogram rate over selected rows.
const CPU_HIST: u64 = 6; // GB/s

fn clio_runtime(ratio: u32) -> f64 {
    let mut cluster = bench_cluster(1, 1, 200 + ratio as u64);
    cluster.install_offload_shared(0, 4, Box::new(ClioDf::new()));
    let mn = cluster.mn_macs()[0];
    let table = bytes::Bytes::from(synth_table(ROWS, 42));
    let total = cluster.block_on(0, clio_proto::Pid(500), move |h| async move {
        let ok = |step: &str, c: clio_cn::Completion| {
            if let Err(e) = &c.result {
                panic!("dataframe {step} failed at {}: {e}", c.completed_at);
            }
            c
        };
        let size = 2 * ROWS * ROW_BYTES + (4 << 20);
        let in_va = ok("alloc", h.ralloc(size, clio_proto::Perm::RW).await).va();
        let out_va = in_va + ROWS * ROW_BYTES;
        // Table upload (setup), then the measured queries.
        ok("upload", h.rwrite(in_va, table).await);
        let started = h.now();
        for _ in 0..QUERIES {
            // Select at the MN -> aggregate at the MN -> fetch the selected
            // rows -> CN-side histogram (charged as compute time).
            let select = encode_select(in_va, ROWS, ratio, out_va);
            let c = ok("select", h.roffload(mn, 4, DfOpcode::Select as u16, select).await);
            let matched = u64::from_le_bytes(c.data()[..8].try_into().expect("8 B"));
            let avg = encode_avg(out_va, matched);
            ok("avg", h.roffload(mn, 4, DfOpcode::Avg as u16, avg).await);
            let rows = ok("fetch", h.rread(out_va, (matched * ROW_BYTES) as u32).await);
            let _ = histogram(rows.data());
            let cpu =
                Bandwidth::from_gigabytes_per_sec(CPU_HIST).transfer_time(matched * ROW_BYTES);
            h.sleep(cpu).await;
        }
        h.now().since(started)
    });
    total.as_secs_f64()
}

/// RDMA baseline: fetch the whole table per query, compute at the CN.
fn rdma_runtime(ratio: u32) -> f64 {
    let table = synth_table(ROWS, 42);
    let bytes = table.len() as u64;
    let mut rng = SimRng::new(9);
    let mut nic =
        clio_baselines::rdma::RdmaNic::new(clio_baselines::rdma::RnicParams::connectx3(), true);
    let mut now = SimTime::ZERO;
    let t0 = now;
    for _ in 0..QUERIES {
        // One big read (the NIC model serializes the transfer)...
        let done = nic.execute(&mut rng, now, clio_baselines::rdma::Verb::Read, 1, 1, 1, bytes, 4);
        // ...then CPU select + avg + histogram.
        let selected = select_local(&table, ratio);
        let _ = avg_local(&selected);
        let _ = histogram(&selected);
        let scan = Bandwidth::from_gigabytes_per_sec(CPU_SCAN).transfer_time(bytes);
        let hist = Bandwidth::from_gigabytes_per_sec(CPU_HIST).transfer_time(selected.len() as u64);
        now = done + scan + hist;
    }
    now.since(t0).as_secs_f64()
}

fn main() {
    let mut report = FigureReport::new(
        "fig20",
        "Select-Aggregate-Shuffle runtime (s) vs select ratio (%)",
        "select %",
    );
    let mut clio = Series::new("Clio");
    let mut rdma = Series::new("RDMA");
    for &r in RATIOS {
        clio.push(r as f64, clio_runtime(r));
        rdma.push(r as f64, rdma_runtime(r));
    }
    report.push_series(clio);
    report.push_series(rdma);
    report.note("paper: RDMA wins at high select ratios (CPU faster than FPGA); Clio wins at low ratios (moves only matching rows)");
    report.print();
}
