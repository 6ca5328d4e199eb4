//! The radix-tree index with its pointer-chasing offload (paper §6): the
//! tree lives in ordinary remote memory; a search calls the extend-path
//! `PointerChase` offload once per level instead of paying one network round
//! trip per node.
//!
//! Run with: `cargo run --release --example pointer_chase`

use bytes::Bytes;
use clio_apps::radix::{build_tree, encode_chase, search_digits, PointerChase, NODE_BYTES};
use clio_core::{Cluster, ClusterConfig};
use clio_proto::{Perm, Pid};

const ENTRIES: u64 = 4000;
const FANOUT: u64 = 16;
const OFFLOAD_ID: u16 = 2;

fn main() {
    let mut cfg = ClusterConfig::test_small();
    cfg.board.hw.phys_mem_bytes = 64 << 20;
    let mut cluster = Cluster::build(&cfg);
    // The offload shares the caller's address space, so the tree the client
    // builds with plain rwrites is directly visible to it.
    cluster.install_offload_shared(0, OFFLOAD_ID, Box::new(PointerChase::new()));
    let mn = cluster.mn_macs()[0];

    cluster.block_on(0, Pid(7), |h| async move {
        // Build the tree in remote memory with ordinary writes.
        let nodes = ENTRIES * 2 + FANOUT;
        let base = h.ralloc(nodes * NODE_BYTES + 4096, Perm::RW).await.va();
        let (writes, heads, levels) = build_tree(base, ENTRIES, FANOUT);
        println!("built a {levels}-level radix tree: {} nodes", writes.len());
        for (va, bytes) in writes {
            h.rwrite(va, Bytes::from(bytes)).await.result.expect("write node");
        }

        // One offload call per level; `None` when a level comes back null.
        let search = |key: u64| {
            let (h, root) = (h.clone(), heads[0]);
            async move {
                let mut head = root;
                for d in search_digits(key, FANOUT, levels) {
                    let reply = h.roffload(mn, OFFLOAD_ID, 0, encode_chase(head, d)).await;
                    head = u64::from_le_bytes(reply.data()[..8].try_into().expect("8 B"));
                    if head == 0 {
                        return None;
                    }
                }
                Some(head - 1) // leaves store key + 1
            }
        };

        for key in [0u64, 1, 17, 1023, ENTRIES - 1] {
            let found = search(key).await.unwrap_or_else(|| panic!("key {key} must exist"));
            println!("search({key}) -> {found} in {levels} offload calls");
            assert_eq!(found, key);
        }

        // A key that does not exist (but is within the tree's digit space)
        // comes back null at some level.
        assert_eq!(search(ENTRIES + 5).await, None, "missing key must not be found");
        println!("search({}) -> not found (as expected)", ENTRIES + 5);
    });

    println!("done at {}", cluster.now());
}
