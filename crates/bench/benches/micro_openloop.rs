//! Open-loop client-runtime microbenchmark.
//!
//! Closed-loop drivers (a fixed window of outstanding ops) measure service
//! latency but hide queueing: offered load is throttled by completions. The
//! open-loop generator severs that feedback — arrivals follow a Poisson
//! process at a configured offered rate whether or not earlier ops have
//! completed — so the measured latency includes the submission queueing the
//! paper's goodput figures imply. Every arrival spawns one async task on
//! the deterministic executor, and nothing bounds the backlog above the
//! transport's windows.
//!
//! The full sweep reports p50/p99 latency and the peak outstanding backlog
//! across offered rates, from far-below to far-above the single-CN service
//! capacity.
//!
//! `--smoke` runs the CI regression gate: one CN absorbs a 24k-op burst
//! offered at 2 Gops/s and must (a) sustain at least 10,000 concurrent
//! outstanding ops, (b) complete every op and report p50/p99, and (c)
//! produce the identical simulation digest across two runs — the
//! executor's cooperative schedule is deterministic even with tens of
//! thousands of live tasks.

use std::cell::RefCell;
use std::rc::Rc;

use clio_bench::setup::{alias_ptes, bench_cluster};
use clio_bench::FigureReport;
use clio_core::exec::openloop::{ArrivalGen, ArrivalProcess};
use clio_core::ExecDriver;
use clio_proto::Pid;
use clio_sim::stats::{Histogram, Series};

const SMOKE_OPS: u64 = 24_000;
const SMOKE_RATE: f64 = 2_000_000_000.0;

struct RunOut {
    hist: Histogram,
    peak_outstanding: u64,
    digest: u64,
}

/// One open-loop run: 16 B reads over a 64-page aliased region on one CN,
/// arrivals Poisson at `rate_per_sec`.
fn run(seed: u64, ops: u64, rate_per_sec: f64) -> RunOut {
    let mut cluster = bench_cluster(1, 1, seed);
    let va = alias_ptes(&mut cluster, 0, Pid(3), 64);
    let hist: Rc<RefCell<Histogram>> = Rc::new(RefCell::new(Histogram::new()));
    let out = hist.clone();
    let idx = cluster.spawn(0, Pid(3), move |h| async move {
        let mut arrivals = ArrivalGen::new(ArrivalProcess::poisson(rate_per_sec), seed);
        for i in 0..ops {
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
    let d: &ExecDriver = cluster.cn(0).driver(idx);
    let peak_outstanding = d.peak_inflight();
    let digest = cluster.sim.digest();
    let hist = hist.borrow().clone();
    RunOut { hist, peak_outstanding, digest }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut report = FigureReport::new(
        "micro_openloop",
        "Open-loop offered load: latency and backlog vs arrival rate (one CN)",
        "offered Mops/s",
    );

    if smoke {
        let a = run(7, SMOKE_OPS, SMOKE_RATE);
        let b = run(7, SMOKE_OPS, SMOKE_RATE);
        assert_eq!(
            a.digest, b.digest,
            "open-loop run is not deterministic: digests differ across identical runs"
        );
        assert_eq!(a.hist.count(), SMOKE_OPS, "not every offered op completed");
        assert!(
            a.peak_outstanding >= 10_000,
            "runtime sustained only {} concurrent outstanding ops (gate: 10,000)",
            a.peak_outstanding
        );
        report.metric("smoke p50 latency (us)", a.hist.percentile(50.0) as f64 / 1000.0);
        report.metric("smoke p99 latency (us)", a.hist.percentile(99.0) as f64 / 1000.0);
        report.metric("smoke peak outstanding ops", a.peak_outstanding as f64);
        report.metric("smoke completed ops", a.hist.count() as f64);
        report.note("smoke mode: overload burst gate (>=10k outstanding, digest-stable)");
    } else {
        let mut p50 = Series::new("p50 (us)");
        let mut p99 = Series::new("p99 (us)");
        let mut peak = Series::new("peak outstanding");
        for rate in [1e6, 5e6, 2e7, 1e8, 1e9] {
            let r = run(7, 30_000, rate);
            let x = rate / 1e6;
            p50.push(x, r.hist.percentile(50.0) as f64 / 1000.0);
            p99.push(x, r.hist.percentile(99.0) as f64 / 1000.0);
            peak.push(x, r.peak_outstanding as f64);
        }
        report.push_series(p50);
        report.push_series(p99);
        report.push_series(peak);
        report.note(
            "below capacity the CDF matches closed-loop; past it the backlog absorbs the excess",
        );
    }
    report.print();
}
