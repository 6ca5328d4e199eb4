//! Figure 13: VA-allocation retry rate vs physical-memory utilization.
//!
//! The cost of the overflow-free page-table design (§4.2): as the table
//! fills, the allocator must occasionally slide its candidate range to
//! avoid overflowing a hash bucket. Paper shape: **zero retries below 50 %
//! utilization**, rising to tens of retries near full, ordered by
//! allocation size (1 / 10 / 100 pages).
//!
//! Methodology: the prototype's geometry (2 GB, 4 MB pages, 2× slack,
//! K = 4), filled by 64 tenant processes with interleaved allocations —
//! MNs are shared by many clients (R2), which is where cross-process bucket
//! pileups come from.

use clio_bench::FigureReport;
use clio_hw::pagetable::HashPageTable;
use clio_hw::CBoardHwConfig;
use clio_mn::valloc::VaAllocator;
use clio_proto::{Perm, Pid};
use clio_sim::stats::Series;

const PROBE_SIZES: &[u64] = &[1, 10, 100];
const UTIL_POINTS: &[f64] = &[0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.97];

fn main() {
    let cfg = CBoardHwConfig::prototype();
    let page = cfg.page_size;
    let phys_pages = cfg.phys_pages(); // 512 pages of 4 MB

    let mut report = FigureReport::new(
        "fig13",
        "VA-allocation retries vs physical utilization (prototype geometry)",
        "util %",
    );
    let mut series: Vec<Series> =
        PROBE_SIZES.iter().map(|p| Series::new(format!("{p} page(s)"))).collect();

    for (si, &probe_pages) in PROBE_SIZES.iter().enumerate() {
        let mut table = HashPageTable::new(cfg.pt_buckets(), cfg.pt_slots_per_bucket);
        let mut va = VaAllocator::new(page, 4096);
        const TENANTS: u64 = 64;
        for t in 0..TENANTS {
            va.create_pid(Pid(t));
        }
        let mut filled_pages = 0u64;
        let mut tenant = 0u64;
        for &target in UTIL_POINTS {
            // Fill to the target utilization with small interleaved allocs.
            while (filled_pages as f64) < target * phys_pages as f64 {
                let pid = Pid(tenant % TENANTS);
                tenant += 1;
                let pages = 1 + tenant % 3;
                match va.alloc(&table, pid, pages * page, Perm::RW, None) {
                    Ok(a) => {
                        for vpn in a.range.start / page..(a.range.start + a.range.len) / page {
                            table
                                .insert(clio_hw::pagetable::Pte {
                                    pid,
                                    vpn,
                                    ppn: 0,
                                    perm: Perm::RW,
                                    valid: false,
                                })
                                .expect("pre-checked");
                        }
                        filled_pages += pages;
                    }
                    Err(_) => break,
                }
            }
            // Probe: average retries over trial allocations (freed after).
            let mut retries = 0u64;
            let mut trials = 0u64;
            for t in 0..24u64 {
                let pid = Pid(t % TENANTS);
                if let Ok(a) = va.alloc(&table, pid, probe_pages * page, Perm::RW, None) {
                    retries += a.retries as u64;
                    trials += 1;
                    let _ = va.free(pid, a.range.start);
                }
            }
            let avg = if trials == 0 { 60.0 } else { retries as f64 / trials as f64 };
            series[si].push(target * 100.0, avg.min(60.0));
        }
    }
    for s in series {
        report.push_series(s);
    }
    report.note("paper: no retries below half utilization; up to ~60 near full");
    report.note("larger allocations need longer collision-free bucket windows, so they retry more");
    report.print();
}
