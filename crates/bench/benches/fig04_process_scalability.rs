//! Figure 4: Process (Connection) Scalability.
//!
//! Latency of 16 B reads as the number of client processes grows from 1 to
//! 1000. Clio is connectionless, so it stays flat; RDMA cycles QP contexts
//! through the RNIC cache and climbs once the process count passes the
//! cache (CX5's larger cache pushes the cliff out). Offered load is held
//! light and constant (the experiment measures *state* scalability, not
//! saturation).

use clio_baselines::rdma::{RdmaNic, RnicParams, Verb};
use clio_bench::drivers::{spawn_recorded, AccessMix, MemLoad};
use clio_bench::setup::bench_cluster;
use clio_bench::FigureReport;
use clio_proto::Pid;
use clio_sim::stats::Series;
use clio_sim::{SimDuration, SimRng, SimTime};

const PROCS: &[u64] = &[1, 50, 100, 200, 400, 600, 800, 1000];
const OPS_PER_PROC: u64 = 12;

fn clio_point(procs: u64) -> f64 {
    let mut cluster = bench_cluster(1, 1, 40_000 + procs);
    let page = 4096;
    let mut recs = Vec::new();
    for p in 0..procs {
        let mut d = MemLoad::new(16, AccessMix::Reads, OPS_PER_PROC, 1, 1, page);
        // Constant light aggregate load: ~N x 20us think, with the starts
        // 20us apart so the N processes take turns (like the RDMA series'
        // one op every 20us) instead of firing in one burst per period.
        d.think = SimDuration::from_micros(procs * 20);
        let start = SimDuration::from_micros(p * 20);
        recs.push(spawn_recorded(&mut cluster, 0, Pid(1000 + p), move |h, rec| async move {
            h.sleep(start).await;
            d.run(h, rec).await;
        }));
    }
    cluster.start();
    cluster.run_until_idle();
    let mut total = 0f64;
    let mut n = 0u64;
    for rec in recs {
        let rec = rec.borrow();
        let lat = rec.latency();
        total += lat.mean() * lat.count() as f64;
        n += lat.count();
    }
    total / n.max(1) as f64 / 1000.0 // us
}

fn rdma_point(params: RnicParams, procs: u64) -> f64 {
    let mut nic = RdmaNic::new(params, true);
    let mut rng = SimRng::new(9);
    let wire = SimDuration::from_nanos(1200); // two one-way hops
    let mut now = SimTime::ZERO;
    let mut total = SimDuration::ZERO;
    let mut n = 0u64;
    // Warm round, then measured rounds cycling through all QPs.
    for round in 0..4u64 {
        for qp in 0..procs {
            let done = nic.execute(&mut rng, now, Verb::Read, qp, qp % 8, qp, 16, procs);
            let lat = done.since(now) + wire;
            now = done + SimDuration::from_micros(20);
            if round > 0 {
                total += lat;
                n += 1;
            }
        }
    }
    total.as_nanos() as f64 / n as f64 / 1000.0
}

fn main() {
    let mut report = FigureReport::new(
        "fig04",
        "Process (Connection) Scalability — 16 B read latency (us)",
        "processes",
    );
    let mut clio = Series::new("Clio-Read");
    let mut cx3 = Series::new("RDMA-Read(CX3)");
    let mut cx5 = Series::new("RDMA-Read-CX5");
    for &p in PROCS {
        clio.push(p as f64, clio_point(p));
        cx3.push(p as f64, rdma_point(RnicParams::connectx3(), p));
        cx5.push(p as f64, rdma_point(RnicParams::connectx5(), p));
    }
    report.push_series(clio);
    report.push_series(cx3);
    report.push_series(cx5);
    report.note("paper: Clio flat (~2.5us), RDMA climbs to ~6us by 1000 processes");
    report.note("Clio is connectionless; per-process state never touches the MN");
    report.print();
}
