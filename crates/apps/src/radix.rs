//! The radix-tree index with pointer-chasing offload (paper §6).
//!
//! The tree's nodes live in ordinary Clio remote memory (one big `ralloc`ed
//! region), with the nodes of each level linked into lists. A search walks
//! one level at a time; instead of one network round trip **per node**, the
//! CN calls the [`PointerChase`] extend-path offload once **per level**: the
//! offload follows `next` pointers at DRAM speed, compares each node's key,
//! and returns the matching node's value (the child-level list head) or
//! null — the exact functionality the paper implements in 150 lines of
//! SpinalHDL.
//!
//! Node layout (24 B): `[key u64][value u64][next u64]`.

use bytes::{BufMut, Bytes, BytesMut};
use clio_mn::{Offload, OffloadEnv, OffloadReply};
use clio_proto::Status;
use clio_sim::Cycles;

/// Size of one tree node on the wire.
pub const NODE_BYTES: u64 = 24;

/// Serializes a node.
pub fn encode_node(key: u64, value: u64, next: u64) -> [u8; 24] {
    let mut out = [0u8; 24];
    out[0..8].copy_from_slice(&key.to_le_bytes());
    out[8..16].copy_from_slice(&value.to_le_bytes());
    out[16..24].copy_from_slice(&next.to_le_bytes());
    out
}

/// The pointer-chasing offload: walk a linked list, compare keys, return
/// the value of the first match (or 0).
#[derive(Debug, Clone, Default)]
pub struct PointerChase {
    chases: u64,
    nodes_walked: u64,
}

impl PointerChase {
    /// A fresh chaser.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(calls, total nodes visited)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.chases, self.nodes_walked)
    }
}

/// Encodes a chase argument: list head + target key.
pub fn encode_chase(head_va: u64, key: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(16);
    b.put_u64_le(head_va);
    b.put_u64_le(key);
    b.freeze()
}

impl Offload for PointerChase {
    fn clone_box(&self) -> Box<dyn Offload> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        "pointer-chase"
    }

    /// A chase only reads the tree.
    fn mutates(&self, _opcode: u16) -> bool {
        false
    }

    fn on_call(&mut self, env: &mut OffloadEnv<'_>, _opcode: u16, arg: Bytes) -> OffloadReply {
        if arg.len() < 16 {
            return OffloadReply::err(Status::Unsupported);
        }
        self.chases += 1;
        let mut node = u64::from_le_bytes(arg[0..8].try_into().expect("8 B"));
        let key = u64::from_le_bytes(arg[8..16].try_into().expect("8 B"));
        let mut hops = 0u64;
        while node != 0 {
            self.nodes_walked += 1;
            hops += 1;
            if hops > 1_000_000 {
                return OffloadReply::err(Status::Unsupported); // cycle guard
            }
            let raw = match env.read(node, NODE_BYTES as u32) {
                Ok(r) => r,
                Err(s) => return OffloadReply::err(s),
            };
            env.compute(Cycles(2)); // key comparison
            let nkey = u64::from_le_bytes(raw[0..8].try_into().expect("8 B"));
            if nkey == key {
                let value = &raw[8..16];
                return OffloadReply::ok(Bytes::copy_from_slice(value));
            }
            node = u64::from_le_bytes(raw[16..24].try_into().expect("8 B"));
        }
        OffloadReply::ok(Bytes::copy_from_slice(&0u64.to_le_bytes()))
    }
}

/// CN-side radix-tree builder: computes the node placement for a tree of
/// `entries` keys with the given `fanout`, as writes into a contiguous
/// remote region starting at `base_va`.
///
/// Returns `(writes, heads, levels)`: the writes to issue (`(va, bytes)`),
/// the root list's head address (one entry), and the tree's depth. Keys are
/// `0..entries`; a search for key `k` chases the root list for digit 0 of
/// `k` (see [`search_digits`]), then the returned child list, and so on.
/// The value stored at the leaf level is `k + 1` (non-zero).
#[allow(clippy::type_complexity)]
pub fn build_tree(base_va: u64, entries: u64, fanout: u64) -> (Vec<(u64, Vec<u8>)>, Vec<u64>, u32) {
    assert!(fanout >= 2, "radix fanout must be at least 2");
    let mut levels = 1u32;
    while fanout.pow(levels) < entries {
        levels += 1;
    }
    let mut writes = Vec::new();
    let mut cursor = base_va;
    let mut alloc_node = |key: u64, value: u64, next: u64| -> u64 {
        let va = cursor;
        cursor += NODE_BYTES;
        writes.push((va, encode_node(key, value, next).to_vec()));
        va
    };

    // Build bottom-up: each level's lists are children of the level above.
    // Level `levels-1` (leaves): for each prefix, a list of up to `fanout`
    // leaf nodes. We materialize only the lists reachable for keys
    // 0..entries.

    // Recursive helper materializing the list for a given prefix at `depth`.
    // Returns the list head VA.
    #[allow(clippy::too_many_arguments)]
    fn build_list(
        prefix: u64,
        depth: u32,
        levels: u32,
        fanout: u64,
        entries: u64,
        alloc: &mut dyn FnMut(u64, u64, u64) -> u64,
    ) -> u64 {
        // Which digit values exist at this depth under `prefix`?
        let mut head = 0u64;
        for digit in (0..fanout).rev() {
            let child_prefix = prefix * fanout + digit;
            // Lowest key with this prefix at this depth:
            let span = fanout.pow(levels - depth - 1);
            let lo = child_prefix * span;
            if lo >= entries {
                continue;
            }
            let value = if depth + 1 == levels {
                lo + 1 // leaf: the key's value (key + 1, non-zero)
            } else {
                build_list(child_prefix, depth + 1, levels, fanout, entries, alloc)
            };
            head = alloc(digit, value, head);
        }
        head
    }

    let root = build_list(0, 0, levels, fanout, entries, &mut alloc_node);
    (writes, vec![root], levels)
}

/// Computes the per-level digits to chase for key `k` (most significant
/// first).
pub fn search_digits(k: u64, fanout: u64, levels: u32) -> Vec<u64> {
    let mut d = vec![0u64; levels as usize];
    let mut k = k;
    for i in (0..levels as usize).rev() {
        d[i] = k % fanout;
        k /= fanout;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_hw::silicon::Silicon;
    use clio_mn::migrate::Migrations;
    use clio_mn::slowpath::SlowPath;
    use clio_mn::CBoardConfig;
    use clio_proto::{Perm, Pid};
    use clio_sim::SimTime;

    struct Harness {
        silicon: Silicon,
        slow: SlowPath,
        migrations: Migrations,
        chase: PointerChase,
        now: SimTime,
        pid: Pid,
    }

    impl Harness {
        fn new() -> Self {
            let cfg = CBoardConfig::test_small();
            let mut silicon = Silicon::new(cfg.hw.clone());
            let mut slow = SlowPath::new(&cfg);
            slow.create_as(Pid(9002));
            slow.refill_async_buffer(&mut silicon);
            Harness {
                silicon,
                slow,
                migrations: Migrations::default(),
                chase: PointerChase::new(),
                now: SimTime::ZERO,
                pid: Pid(9002),
            }
        }

        /// Builds the tree inside the offload's own space (tests don't need
        /// the network path).
        fn build(&mut self, entries: u64, fanout: u64) -> (u64, u32) {
            let mut env = OffloadEnv::new(
                &mut self.silicon,
                &mut self.slow,
                &self.migrations,
                self.pid,
                self.now,
            );
            let total = entries * fanout * NODE_BYTES * 4; // generous
            let base = env.alloc(total, Perm::RW).expect("alloc");
            let (writes, heads, levels) = build_tree(base, entries, fanout);
            for (va, bytes) in writes {
                env.write(va, &bytes).expect("write node");
            }
            self.now = env.now();
            self.refill();
            (heads[0], levels)
        }

        fn refill(&mut self) {
            self.slow.refill_async_buffer(&mut self.silicon);
        }

        fn search(&mut self, root: u64, key: u64, fanout: u64, levels: u32) -> Option<u64> {
            let digits = search_digits(key, fanout, levels);
            let mut head = root;
            for d in digits {
                let mut env = OffloadEnv::new(
                    &mut self.silicon,
                    &mut self.slow,
                    &self.migrations,
                    self.pid,
                    self.now,
                );
                let reply = self.chase.on_call(&mut env, 0, encode_chase(head, d));
                self.now = env.now();
                self.refill();
                if reply.status != Status::Ok {
                    return None;
                }
                head = u64::from_le_bytes(reply.data[..8].try_into().expect("8 B"));
                if head == 0 {
                    return None;
                }
            }
            Some(head - 1) // leaf stores key + 1
        }
    }

    #[test]
    fn search_finds_every_key() {
        let mut h = Harness::new();
        let (root, levels) = h.build(64, 4);
        for k in 0..64u64 {
            assert_eq!(h.search(root, k, 4, levels), Some(k), "key {k}");
        }
    }

    #[test]
    fn missing_keys_return_none() {
        let mut h = Harness::new();
        let (root, levels) = h.build(10, 4);
        // Keys 10..16 share the tree shape but have no leaves.
        assert_eq!(h.search(root, 13, 4, levels), None);
    }

    #[test]
    fn chase_walks_multiple_nodes_per_level() {
        let mut h = Harness::new();
        let (root, levels) = h.build(256, 16);
        h.search(root, 255, 16, levels).expect("found");
        let (calls, walked) = h.chase.stats();
        assert_eq!(calls, levels as u64);
        assert!(walked > calls, "lists longer than one node were walked");
    }

    #[test]
    fn digits_roundtrip() {
        // key 27 in fanout 4, 3 levels: 27 = 1*16 + 2*4 + 3.
        assert_eq!(search_digits(27, 4, 3), vec![1, 2, 3]);
        assert_eq!(search_digits(0, 4, 3), vec![0, 0, 0]);
    }

    #[test]
    fn node_encoding() {
        let n = encode_node(1, 2, 3);
        assert_eq!(u64::from_le_bytes(n[0..8].try_into().unwrap()), 1);
        assert_eq!(u64::from_le_bytes(n[8..16].try_into().unwrap()), 2);
        assert_eq!(u64::from_le_bytes(n[16..24].try_into().unwrap()), 3);
    }
}
