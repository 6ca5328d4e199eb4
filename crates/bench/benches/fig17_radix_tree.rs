//! Figure 17: Radix-tree search latency vs tree size.
//!
//! Clio searches with one pointer-chase offload call **per level**; RDMA
//! needs one network round trip **per node** walked. Larger trees mean
//! longer per-level lists and more levels, so RDMA's gap widens (and its
//! PTE footprint grows).

use clio_apps::radix::{build_tree, encode_chase, search_digits, PointerChase, NODE_BYTES};
use clio_baselines::rdma::{RdmaNic, RnicParams, Verb};
use clio_bench::setup::bench_cluster;
use clio_bench::FigureReport;
use clio_mn::CBoard;
use clio_proto::Pid;
use clio_sim::stats::Series;
use clio_sim::{SimDuration, SimRng, SimTime};

const ENTRIES: &[u64] = &[10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000];
const FANOUT: u64 = 16;
const SEARCHES: u64 = 60;

fn clio_latency(entries: u64) -> f64 {
    let mut cluster = bench_cluster(1, 1, 170);
    cluster.install_offload(0, 2, Pid(9100), Box::new(PointerChase::new()));
    // Build the tree directly in the offload's space (setup, not measured):
    // install PTEs + bytes via the test-path accessors.
    let (root, levels) = {
        let mn = cluster.mn_ids()[0];
        let board = cluster.sim.actor_mut::<CBoard>(mn);
        let total_nodes = entries * 2 + 64; // internal + leaves, generous
        let bytes = total_nodes * NODE_BYTES;
        let page = board.silicon().config().page_size;
        let pages = bytes.div_ceil(page) + 1;
        // Allocate backing physical pages and valid PTEs for the build.
        let base_vpn = 1u64 << 24;
        for i in 0..pages {
            let ppn = i % board.silicon().config().phys_pages();
            board
                .silicon_mut()
                .vm_mut()
                .install_pte(clio_hw::pagetable::Pte {
                    pid: Pid(9100),
                    vpn: base_vpn + i,
                    ppn,
                    perm: clio_proto::Perm::RW,
                    valid: true,
                })
                .expect("install");
        }
        let base_va = base_vpn * page;
        let (writes, heads, levels) = build_tree(base_va, entries, FANOUT);
        for (va, data) in writes {
            let vpn = va / page;
            let pte =
                board.silicon().vm().page_table().lookup(Pid(9100), vpn).copied().expect("pte");
            let pa = pte.ppn * page + va % page;
            board.silicon_mut().mem_mut().write(pa, &data);
        }
        (heads[0], levels)
    };

    let mn = cluster.mn_macs()[0];
    let total = cluster.block_on(0, Pid(9100), move |h| async move {
        let mut rng = SimRng::new(7);
        let mut total = SimDuration::ZERO;
        for _ in 0..SEARCHES {
            let key = rng.range_u64(0, entries);
            let started = h.now();
            // One pointer-chase offload call per level, each starting at
            // the list head the previous level returned.
            let mut head = root;
            for digit in search_digits(key, FANOUT, levels) {
                let c = h.roffload(mn, 2, 0, encode_chase(head, digit)).await;
                head = u64::from_le_bytes(c.data()[..8].try_into().expect("8 B"));
                assert!(head != 0, "key must exist");
            }
            total += h.now().since(started);
        }
        total
    });
    total.as_nanos() as f64 / SEARCHES as f64 / 1000.0
}

/// RDMA walks node-by-node: one read RTT per visited node.
fn rdma_latency(entries: u64) -> f64 {
    let mut nic = RdmaNic::new(RnicParams::connectx3(), true);
    let mut rng = SimRng::new(8);
    let levels = {
        let mut l = 1u32;
        while FANOUT.pow(l) < entries {
            l += 1;
        }
        l
    };
    let wire = SimDuration::from_nanos(1200);
    let mut now = SimTime::ZERO;
    let mut total = SimDuration::ZERO;
    for s in 0..SEARCHES {
        let t0 = now;
        for level in 0..levels {
            // Average half the fanout's list nodes walked per level.
            let hops = 1 + rng.range_u64(0, FANOUT);
            for h in 0..hops {
                let vpn = (s * 131 + level as u64 * 17 + h) % (entries / 8 + 1);
                let done = nic.execute(&mut rng, now, Verb::Read, 1, 1, vpn, NODE_BYTES, 4);
                now = done + wire;
            }
        }
        total += now.since(t0);
    }
    total.as_nanos() as f64 / SEARCHES as f64 / 1000.0
}

fn main() {
    let mut report =
        FigureReport::new("fig17", "Radix-tree search latency (us) vs tree entries", "entries");
    let mut clio = Series::new("Clio");
    let mut rdma = Series::new("RDMA");
    for &n in ENTRIES {
        clio.push(n as f64, clio_latency(n));
        rdma.push(n as f64, rdma_latency(n));
    }
    report.push_series(clio);
    report.push_series(rdma);
    report.note("paper: Clio needs one RTT per level (pointer-chase offload); RDMA one per node");
    report.print();
}
