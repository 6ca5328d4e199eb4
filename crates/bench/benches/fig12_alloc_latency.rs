//! Figure 12: Allocation/free latency vs size.
//!
//! Clio's slow-path VA allocation and free (measured end-to-end through the
//! cluster), its explicit physical allocation, and RDMA memory-region
//! (de)registration with and without on-demand paging. Paper shape: Clio
//! VA allocation is far cheaper than RDMA registration (no pinning), and
//! physical allocation stays under ~20 µs.

use clio_baselines::rdma::{RdmaNic, RnicParams};
use clio_bench::FigureReport;
use clio_core::{Cluster, ClusterConfig};
use clio_mn::CBoardConfig;
use clio_proto::{Perm, Pid};
use clio_sim::stats::Series;
use clio_sim::SimDuration;

const SIZES_MB: &[u64] = &[4, 16, 64, 256, 512, 1424];

/// Allocates and frees ranges of `size_mb`; mean latency of each, in ms.
fn clio_alloc_free(size_mb: u64) -> (f64, f64) {
    // Paper-faithful 4 MB pages; enough physical memory to hold the range.
    let mut cfg = ClusterConfig::testbed();
    cfg.cns = 1;
    cfg.mns = 1;
    cfg.seed = 120 + size_mb;
    cfg.board = CBoardConfig::prototype();
    let mut cluster = Cluster::build(&cfg);
    let (size, rounds) = (size_mb << 20, 6);
    let (alloc_total, free_total) = cluster.block_on(0, Pid(9), move |h| async move {
        let mut totals = (SimDuration::ZERO, SimDuration::ZERO);
        for _ in 0..rounds {
            let c = h.ralloc(size, Perm::RW).await;
            totals.0 += c.latency();
            let c = h.rfree(c.va(), size).await;
            assert!(c.result.is_ok(), "free failed: {:?}", c.result);
            totals.1 += c.latency();
        }
        totals
    });
    (
        alloc_total.as_nanos() as f64 / rounds as f64 / 1e6, // ms
        free_total.as_nanos() as f64 / rounds as f64 / 1e6,
    )
}

/// Clio's explicit physical allocation (slow-path service measured directly
/// plus the ARM crossing, as the paper instruments it).
fn clio_alloc_phys(size_mb: u64) -> f64 {
    let cfg = CBoardConfig::prototype();
    let mut slow = clio_mn::slowpath::SlowPath::new(&cfg);
    slow.create_as(Pid(1));
    let out = slow.alloc(Pid(1), size_mb << 20, Perm::RW, None).expect("alloc");
    let (_, service) = slow.alloc_phys(Pid(1), out.range.start, out.range.len).expect("phys");
    (service + cfg.arm.crossing_delay * 2).as_nanos() as f64 / 1e6
}

fn rdma_reg(size_mb: u64, odp: bool) -> (f64, f64) {
    let mut nic = RdmaNic::new(RnicParams::connectx3(), !odp);
    let reg = nic.register_mr(size_mb << 20).expect("register");
    let dereg = nic.deregister_mr(size_mb << 20);
    (reg.as_nanos() as f64 / 1e6, dereg.as_nanos() as f64 / 1e6)
}

fn main() {
    let mut report = FigureReport::new("fig12", "Alloc/Free latency (ms) vs size (MB)", "size MB");
    let mut clio_alloc = Series::new("Clio-Alloc");
    let mut clio_free = Series::new("Clio-Free");
    let mut clio_phys = Series::new("Clio-Alloc-Phys");
    let mut reg = Series::new("RDMA-Reg");
    let mut dereg = Series::new("RDMA-Dereg");
    let mut reg_odp = Series::new("RDMA-Reg-ODP");
    let mut dereg_odp = Series::new("RDMA-Dereg-ODP");
    for &mb in SIZES_MB {
        let (a, f) = clio_alloc_free(mb);
        clio_alloc.push(mb as f64, a);
        clio_free.push(mb as f64, f);
        clio_phys.push(mb as f64, clio_alloc_phys(mb));
        let (r, d) = rdma_reg(mb, false);
        reg.push(mb as f64, r);
        dereg.push(mb as f64, d);
        let (r, d) = rdma_reg(mb, true);
        reg_odp.push(mb as f64, r);
        dereg_odp.push(mb as f64, d);
    }
    report.push_series(clio_alloc);
    report.push_series(clio_free);
    report.push_series(clio_phys);
    report.push_series(reg);
    report.push_series(dereg);
    report.push_series(reg_odp);
    report.push_series(dereg_odp);
    report.note("paper: Clio VA alloc much faster than RDMA MR registration; PA alloc < 20us");
    report.print();
}
