//! Figure 18: Key-value store YCSB latency.
//!
//! Mean operation latency for YCSB A/B/C on Clio-KV (measured end-to-end),
//! Clover (client-managed passive memory), HERD and HERD-on-BlueField.
//! Paper: Clio-KV best; Clover suffers on write-heavy A (≥2 RTT writes);
//! HERD-BF worst across the board.

use std::cell::RefCell;
use std::rc::Rc;

use clio_apps::kv::{partition_of, ClioKv, KvRequest};
use clio_apps::ycsb::{YcsbGenerator, YcsbMix, YcsbOp};
use clio_baselines::clover::CloverModel;
use clio_baselines::herd::{HerdModel, HerdParams};
use clio_baselines::rdma::RnicParams;
use clio_bench::drivers::KvLoad;
use clio_bench::setup::bench_cluster;
use clio_bench::FigureReport;
use clio_core::exec::openloop::{ArrivalGen, ArrivalProcess};
use clio_proto::Pid;
use clio_sim::stats::Series;
use clio_sim::{SimDuration, SimRng, SimTime};

const OPS: u64 = 1500;
const VALUE: usize = 1024;

/// Mean Clio KV op latency (us) under one YCSB mix.
pub fn clio_kv(mix: YcsbMix) -> f64 {
    let mut cluster = bench_cluster(2, 1, 180);
    cluster.install_offload(0, 1, Pid(9000), Box::new(ClioKv::new(4096)));
    let mut recs = Vec::new();
    for cn in 0..2 {
        let gen = YcsbGenerator::new(mix, 5_000, VALUE, 33 + cn as u64);
        let load = KvLoad { gen, preload: 50, ops: OPS / 2, window: 4, offload_id: 1 };
        recs.push(load.spawn(&mut cluster, cn, Pid(300 + cn as u64)));
    }
    cluster.start();
    cluster.run_until_idle();
    let mut mean = 0f64;
    for rec in recs {
        mean += rec.borrow().latency().mean() / 2.0;
    }
    mean / 1000.0
}

fn req_key(req: &KvRequest) -> &[u8] {
    match req {
        KvRequest::Put { key, .. } | KvRequest::Get { key } | KvRequest::Delete { key } => key,
    }
}

/// Open-loop Clio-KV variant: YCSB ops arrive as a Poisson process at
/// `rate_per_sec` per CN (async tasks on the executor, one offload call
/// each), so the mean includes submission queueing the closed-loop window
/// hides. Returns mean latency in us.
pub fn clio_kv_openloop(mix: YcsbMix, rate_per_sec: f64) -> f64 {
    let mut cluster = bench_cluster(2, 1, 181);
    cluster.install_offload(0, 1, Pid(9000), Box::new(ClioKv::new(4096)));
    let macs = cluster.mn_macs().to_vec();
    let hists: Vec<Rc<RefCell<clio_sim::stats::Histogram>>> =
        (0..2).map(|_| Rc::new(RefCell::new(clio_sim::stats::Histogram::new()))).collect();
    for (cn, hist) in hists.iter().enumerate() {
        let out = hist.clone();
        let macs = macs.clone();
        cluster.spawn(cn, Pid(300 + cn as u64), move |h| async move {
            let mut gen = YcsbGenerator::new(mix, 5_000, VALUE, 33 + cn as u64);
            // Preload sequentially (same records the closed-loop load preloads).
            for key in 0..5_000u64 {
                let req = KvRequest::Put {
                    key: format!("user{key:012}").into_bytes(),
                    value: gen.value_for(key, 0),
                };
                let mn = macs[partition_of(req_key(&req), macs.len())];
                h.roffload(mn, 1, req.opcode(), req.encode()).await.result.unwrap();
            }
            let mut arrivals =
                ArrivalGen::new(ArrivalProcess::poisson(rate_per_sec), 181 + cn as u64);
            for _ in 0..OPS / 2 {
                h.sleep(arrivals.next_gap()).await;
                let req = match gen.next_op() {
                    YcsbOp::Get { key } => {
                        KvRequest::Get { key: format!("user{key:012}").into_bytes() }
                    }
                    YcsbOp::Set { key, value } => {
                        KvRequest::Put { key: format!("user{key:012}").into_bytes(), value }
                    }
                };
                let mn = macs[partition_of(req_key(&req), macs.len())];
                let (h2, out) = (h.clone(), out.clone());
                h.spawn(async move {
                    let c = h2.roffload(mn, 1, req.opcode(), req.encode()).await;
                    c.result.as_ref().expect("kv op failed");
                    out.borrow_mut().record(c.latency().as_nanos());
                });
            }
        });
    }
    cluster.start();
    cluster.run_until_idle();
    let mut mean = 0f64;
    for h in &hists {
        mean += h.borrow().mean() / 2.0;
    }
    mean / 1000.0
}

/// 16 closed-loop clients (the paper's 2 CNs x 8 threads), per-op latency.
fn closed_loop(mut op: impl FnMut(SimTime, u64) -> SimTime) -> f64 {
    const CLIENTS: usize = 16;
    let mut next = [SimTime::ZERO; CLIENTS];
    let mut total = SimDuration::ZERO;
    let mut n = 0u64;
    for round in 0..(OPS / CLIENTS as u64) {
        for (c, t) in next.iter_mut().enumerate() {
            let issued = *t;
            let done = op(issued, round * CLIENTS as u64 + c as u64);
            total += done.since(issued);
            *t = done;
            n += 1;
        }
    }
    total.as_nanos() as f64 / n as f64 / 1000.0
}

/// Mean Clover KV op latency (us) under one YCSB mix.
pub fn clover(mix: YcsbMix) -> f64 {
    let mut m = CloverModel::new(RnicParams::connectx3());
    let mut gen = YcsbGenerator::new(mix, 5_000, VALUE, 5);
    let mut rng = SimRng::new(6);
    closed_loop(|now, _| match gen.next_op() {
        YcsbOp::Get { key } => m.get(&mut rng, now, key, VALUE as u64),
        YcsbOp::Set { key, .. } => m.put(&mut rng, now, key, VALUE as u64),
    })
}

/// Mean HERD KV op latency (us) under one YCSB mix.
pub fn herd(mix: YcsbMix, bluefield: bool) -> f64 {
    // A full KV op on the server (index walk + value copy) costs more than
    // the bare RPC of Figures 10/11; the paper's HERD testbed dedicates a
    // few polling cores.
    let params = if bluefield {
        HerdParams::on_bluefield()
    } else {
        HerdParams { cpu_service: SimDuration::from_nanos(1800), cores: 4, ..HerdParams::on_cpu() }
    };
    let mut m = HerdModel::new(params);
    let mut gen = YcsbGenerator::new(mix, 5_000, VALUE, 5);
    let mut rng = SimRng::new(7);
    closed_loop(|now, _| {
        let _ = gen.next_op();
        m.request(&mut rng, now, VALUE as u64)
    })
}

fn main() {
    let mut report = FigureReport::new(
        "fig18",
        "Key-value YCSB latency (us), workloads A/B/C (x = 0:A, 1:B, 2:C)",
        "workload",
    );
    let mixes = [YcsbMix::A, YcsbMix::B, YcsbMix::C];
    let mut clio_s = Series::new("Clio");
    let mut clio_open_s = Series::new("Clio-open-100kops");
    let mut clover_s = Series::new("Clover");
    let mut herd_s = Series::new("HERD");
    let mut bf_s = Series::new("HERD-BF");
    for (i, mix) in mixes.iter().enumerate() {
        clio_s.push(i as f64, clio_kv(*mix));
        clio_open_s.push(i as f64, clio_kv_openloop(*mix, 1e5));
        clover_s.push(i as f64, clover(*mix));
        herd_s.push(i as f64, herd(*mix, false));
        bf_s.push(i as f64, herd(*mix, true));
    }
    report.push_series(clio_s);
    report.push_series(clio_open_s);
    report.push_series(clover_s);
    report.push_series(herd_s);
    report.push_series(bf_s);
    report.note("paper: Clio-KV best; Clover degrades on write-heavy A; HERD-BF worst");
    report
        .note("open-loop series: Poisson arrivals at 100 kops/s per CN, latency includes queueing");
    report.print();
}
