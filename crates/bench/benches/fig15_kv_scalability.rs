//! Figure 15: Clio-KV throughput scalability against memory nodes.
//!
//! YCSB A/B/C over Clio-KV offloads partitioned across 1–4 MNs (2 CNs × 8
//! client threads, as in the paper). Throughput scales with MNs until the
//! client side saturates.

use clio_apps::kv::ClioKv;
use clio_apps::ycsb::{YcsbGenerator, YcsbMix};
use clio_bench::drivers::KvLoad;
use clio_bench::setup::bench_cluster;
use clio_bench::FigureReport;
use clio_proto::Pid;
use clio_sim::stats::Series;

const OPS_PER_DRIVER: u64 = 800;
const DRIVERS_PER_CN: u64 = 8;
const CNS: usize = 2;

fn run(mix: YcsbMix, mns: usize) -> f64 {
    let mut cluster = bench_cluster(CNS, mns, 150 + mns as u64);
    for (i, _) in (0..mns).enumerate() {
        cluster.install_offload(i, 1, Pid(9_000 + i as u64), Box::new(ClioKv::new(4096)));
    }
    let mut recs = Vec::new();
    for cn in 0..CNS {
        for t in 0..DRIVERS_PER_CN {
            let seed = (cn as u64) * 100 + t;
            // Smaller values than the paper's 1 KB keep the bench quick but
            // preserve the scaling shape.
            let gen = YcsbGenerator::new(mix, 10_000, 256, seed);
            let load = KvLoad { gen, preload: 60, ops: OPS_PER_DRIVER, window: 4, offload_id: 1 };
            recs.push(load.spawn(&mut cluster, cn, Pid(100 + seed)));
        }
    }
    cluster.start();
    cluster.run_until_idle();
    let mut ops = 0u64;
    let mut end = 0f64;
    for rec in recs {
        let rec = rec.borrow();
        assert_eq!(rec.ops() + rec.errors(), OPS_PER_DRIVER, "client did not finish");
        ops += rec.ops();
    }
    end = end.max(cluster.now().as_secs_f64());
    ops as f64 / end / 1e6
}

fn main() {
    let mut report = FigureReport::new(
        "fig15",
        "Clio-KV throughput (MIOPS) vs number of MNs — YCSB A/B/C",
        "MNs",
    );
    for mix in [YcsbMix::A, YcsbMix::B, YcsbMix::C] {
        let mut s = Series::new(format!("Workload-{}", mix.name()));
        for mns in 1..=4usize {
            s.push(mns as f64, run(mix, mns));
        }
        report.push_series(s);
    }
    report.note("paper: throughput grows with MNs and saturates at the CNs' capacity");
    report.print();
}
