//! Cluster construction shortcuts and direct-install helpers for benches.

use clio_cn::CLibConfig;
use clio_core::{Cluster, ClusterConfig};
use clio_hw::pagetable::Pte;
use clio_mn::{CBoard, CBoardConfig};
use clio_proto::{Perm, Pid};

/// The paper's prototype-scale cluster, shrunk to `cns`×`mns` nodes, with a
/// 4 KB bench page size (so spans in pages stay host-memory-friendly).
pub fn bench_cluster(cns: usize, mns: usize, seed: u64) -> Cluster {
    bench_cluster_clib(cns, mns, seed, CLibConfig::prototype())
}

/// Like [`bench_cluster`] but with an explicit CLib configuration, so
/// figures can pin transport knobs (e.g. `batch_max_ops = 1`, a budget of
/// one through the same doorbell, reproduces the pre-batching wire
/// behavior; larger windows expose batching headroom).
pub fn bench_cluster_clib(cns: usize, mns: usize, seed: u64, clib: CLibConfig) -> Cluster {
    bench_cluster_tuned(cns, mns, seed, clib, |_| {})
}

/// Like [`bench_cluster_clib`] but also lets the caller tune the board
/// configuration (e.g. disable the MN's response batching to reproduce the
/// pre-batching egress wire behavior).
pub fn bench_cluster_tuned(
    cns: usize,
    mns: usize,
    seed: u64,
    clib: CLibConfig,
    tune_board: impl FnOnce(&mut CBoardConfig),
) -> Cluster {
    let mut cfg = ClusterConfig::testbed();
    cfg.cns = cns;
    cfg.mns = mns;
    cfg.seed = seed;
    cfg.clib = clib;
    cfg.board = CBoardConfig::test_small();
    // Give benches headroom: 64 MB per node, generous page table.
    cfg.board.hw.phys_mem_bytes = 64 << 20;
    cfg.board.hw.tlb_entries = 4096;
    tune_board(&mut cfg.board);
    Cluster::build(&cfg)
}

/// Directly installs `n` valid PTEs for `pid` on memory node `mn`,
/// aliasing all of them onto the node's first few physical pages — the
/// paper's Figure 5 methodology ("we map a large range of VAs to a small
/// physical memory space ... the number of PTEs and the amount of
/// processing needed are the same for CBoard as if it had a real 4 TB
/// physical memory").
///
/// Returns the base VA of the mapped range.
pub fn alias_ptes(cluster: &mut Cluster, mn: usize, pid: Pid, n: u64) -> u64 {
    let mn_id = cluster.mn_ids()[mn];
    let board = cluster.sim.actor_mut::<CBoard>(mn_id);
    let page = board.silicon().config().page_size;
    let phys_pages = board.silicon().config().phys_pages();
    // Inside the first MN's RAS slice but far from normal allocations
    // (VA = 2^24 pages x 4 KiB = 64 GiB base).
    let base_vpn = 1u64 << 24;
    let silicon = board.silicon_mut();
    for i in 0..n {
        silicon
            .vm_mut()
            .install_pte(Pte {
                pid,
                vpn: base_vpn + i,
                ppn: i % phys_pages.min(16),
                perm: Perm::RW,
                valid: true,
            })
            .expect("page table sized for the sweep");
    }
    base_vpn * page
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_cluster_builds() {
        let c = bench_cluster(1, 1, 7);
        assert_eq!(c.cn_ids().len(), 1);
        assert_eq!(c.mn_ids().len(), 1);
    }

    #[test]
    fn alias_ptes_installs_valid_mappings() {
        let mut c = bench_cluster(1, 1, 7);
        let va = alias_ptes(&mut c, 0, Pid(42), 100);
        let board = c.mn(0);
        let page = board.silicon().config().page_size;
        let pte =
            board.silicon().vm().page_table().lookup(Pid(42), va / page + 99).expect("installed");
        assert!(pte.valid);
    }
}
