//! Figure 7: Latency CDF of 16 B reads/writes (no page faults).
//!
//! Clio's deterministic hardware pipeline yields an almost-vertical CDF;
//! RDMA's host-side interference produces the long tail the paper plots
//! (its p99 stretches several times the median).

use std::cell::RefCell;
use std::rc::Rc;

use clio_baselines::rdma::{RdmaNic, RnicParams, Verb};
use clio_bench::drivers::{AccessMix, RangeLoad};
use clio_bench::setup::{alias_ptes, bench_cluster};
use clio_bench::FigureReport;
use clio_core::exec::openloop::{ArrivalGen, ArrivalProcess};
use clio_proto::Pid;
use clio_sim::stats::{Histogram, Series};
use clio_sim::{SimDuration, SimRng, SimTime};

const OPS: u64 = 30_000;

fn clio_hist(mix: AccessMix) -> Histogram {
    let mut cluster = bench_cluster(1, 1, 70);
    let va = alias_ptes(&mut cluster, 0, Pid(3), 64);
    let load = RangeLoad {
        base: va,
        pages: 64,
        page_size: 4096,
        size: 16,
        mix,
        ops: OPS,
        random: Some(4),
    };
    let rec = load.spawn(&mut cluster, 0, Pid(3));
    cluster.start();
    cluster.run_until_idle();
    let hist = rec.borrow().histogram().clone();
    hist
}

/// Open-loop variant: 16 B reads arrive as a Poisson process at
/// `rate_per_sec` regardless of completions (async tasks on the executor),
/// so the CDF includes real submission queueing instead of the closed
/// loop's completion-throttled view.
fn clio_openloop_hist(rate_per_sec: f64) -> Histogram {
    let mut cluster = bench_cluster(1, 1, 70);
    let va = alias_ptes(&mut cluster, 0, Pid(3), 64);
    let hist: Rc<RefCell<Histogram>> = Rc::new(RefCell::new(Histogram::new()));
    let out = hist.clone();
    cluster.spawn(0, Pid(3), move |h| async move {
        let mut arrivals = ArrivalGen::new(ArrivalProcess::poisson(rate_per_sec), 70);
        for i in 0..OPS {
            h.sleep(arrivals.next_gap()).await;
            let (h2, out) = (h.clone(), out.clone());
            h.spawn(async move {
                let c = h2.rread(va + (i % 64) * 4096, 16).await;
                c.result.as_ref().expect("open-loop read failed");
                out.borrow_mut().record(c.latency().as_nanos());
            });
        }
    });
    cluster.start();
    cluster.run_until_idle();
    let hist = hist.borrow().clone();
    hist
}

fn rdma_hist(verb: Verb) -> Histogram {
    let mut nic = RdmaNic::new(RnicParams::connectx3(), true);
    let mut rng = SimRng::new(12);
    let wire = SimDuration::from_nanos(1200);
    let mut h = Histogram::new();
    let mut now = SimTime::ZERO;
    for _ in 0..OPS {
        let (done, _) = nic.execute(&mut rng, now, verb, 1, 1, 1, 16, 8);
        h.record((done.since(now) + wire).as_nanos());
        now = done + SimDuration::from_micros(3);
    }
    h
}

fn cdf_series(name: &str, h: &Histogram) -> Series {
    let mut s = Series::new(name);
    for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
        s.push(p, h.percentile(p) as f64 / 1000.0);
    }
    s
}

fn main() {
    let mut report = FigureReport::new(
        "fig07",
        "Latency CDF, 16 B (latency in us at each percentile)",
        "percentile",
    );
    report.push_series(cdf_series("Clio-Read-16B", &clio_hist(AccessMix::Reads)));
    report.push_series(cdf_series("Clio-Write-16B", &clio_hist(AccessMix::Writes)));
    report.push_series(cdf_series("RDMA-Read-16B", &rdma_hist(Verb::Read)));
    report.push_series(cdf_series("RDMA-Write-16B", &rdma_hist(Verb::Write)));
    report.push_series(cdf_series("Clio-Read-16B-open-1Mops", &clio_openloop_hist(1e6)));
    report.note("paper: Clio ~2.5us median / 3.2us p99; RDMA's tail runs far past its median");
    report.note("open-loop series: Poisson arrivals at 1 Mops/s, latency includes queueing");
    report.print();
}
