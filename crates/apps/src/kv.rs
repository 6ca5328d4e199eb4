//! Clio-KV: the key-value store offload (paper §6).
//!
//! Runs **at the memory node** on the extend path, in its own remote address
//! space, exactly as the paper describes: a chained hash table whose buckets
//! hold slots of seven `(fingerprint, value-address)` entries; key-value
//! records live at separate addresses in the same space. Every metadata and
//! data access goes through the offload's virtual-memory interface (so it is
//! translated, permission-checked and timed by the fast-path model).
//!
//! A thin CN-side codec ([`KvRequest`]/[`KvResponse`]) frames operations
//! into offload calls, and [`partition_of`] implements the CN-side load
//! balancer that shards keys across MNs (§6: "another CN-side load balancer
//! is used to partition key-value pairs into different MNs").

use bytes::{BufMut, Bytes, BytesMut};
use clio_mn::{Offload, OffloadEnv, OffloadReply};
use clio_proto::{Perm, Status};
use clio_sim::Cycles;

/// Entries per hash slot (paper: "Each slot contains the virtual addresses
/// of seven key-value pairs").
const SLOT_ENTRIES: usize = 7;
/// Slot layout: next_va (8) + count (8) + entries (fp 8 + va 8 each).
const SLOT_BYTES: u64 = 16 + (SLOT_ENTRIES as u64) * 16;

/// Operation codes of the offload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOpcode {
    /// Insert or update.
    Put = 0,
    /// Look up.
    Get = 1,
    /// Remove.
    Delete = 2,
}

/// A CN-side request to Clio-KV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvRequest {
    /// Insert or update `key`.
    Put {
        /// The key bytes.
        key: Vec<u8>,
        /// The value bytes.
        value: Vec<u8>,
    },
    /// Fetch `key`'s value.
    Get {
        /// The key bytes.
        key: Vec<u8>,
    },
    /// Remove `key`.
    Delete {
        /// The key bytes.
        key: Vec<u8>,
    },
}

impl KvRequest {
    /// The offload opcode for this request.
    pub fn opcode(&self) -> u16 {
        match self {
            KvRequest::Put { .. } => KvOpcode::Put as u16,
            KvRequest::Get { .. } => KvOpcode::Get as u16,
            KvRequest::Delete { .. } => KvOpcode::Delete as u16,
        }
    }

    /// Encodes the argument bytes for the offload call.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            KvRequest::Put { key, value } => {
                b.put_u16_le(key.len() as u16);
                b.put_slice(key);
                b.put_slice(value);
            }
            KvRequest::Get { key } | KvRequest::Delete { key } => {
                b.put_u16_le(key.len() as u16);
                b.put_slice(key);
            }
        }
        b.freeze()
    }
}

/// A decoded Clio-KV reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResponse {
    /// Operation succeeded with no payload (put/delete).
    Ok,
    /// Get found the key.
    Value(Bytes),
    /// Key absent.
    NotFound,
}

impl KvResponse {
    /// Decodes an offload reply.
    pub fn decode(status: Status, data: Bytes) -> Self {
        match status {
            Status::Ok if data.is_empty() => KvResponse::Ok,
            Status::Ok => KvResponse::Value(data),
            _ => KvResponse::NotFound,
        }
    }
}

/// CN-side partitioner: which MN serves `key` (§6's load balancer).
pub fn partition_of(key: &[u8], mns: usize) -> usize {
    assert!(mns > 0, "no partitions");
    (hash_key(key) % mns as u64) as usize
}

fn hash_key(key: &[u8]) -> u64 {
    // FNV-1a, finished with a splitmix avalanche.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Fingerprint stored beside each value address (1 byte in one u64 lane).
fn fingerprint(key: &[u8]) -> u64 {
    (hash_key(key) >> 56) | 1 // never zero, so 0 marks an empty entry lane
}

/// The Clio-KV offload module.
///
/// Memory layout (all in the offload's own RAS):
///
/// ```text
/// buckets:  [bucket_0 .. bucket_N-1]      each 8 B = VA of first slot (0 = empty)
/// slot:     [next_va u64][count u64][ (fp u64, va u64) x 7 ]
/// record:   [key_len u32][val_len u32][key bytes][value bytes]
/// ```
///
/// Records and slots are bump-allocated from arena chunks `ralloc`ed on
/// demand — mirroring how the paper's implementation calls `ralloc` for new
/// slots and data.
#[derive(Debug, Clone)]
pub struct ClioKv {
    buckets: u64,
    table_va: u64,
    arena_va: u64,
    arena_used: u64,
    arena_cap: u64,
    arena_chunk: u64,
    puts: u64,
    gets: u64,
    deletes: u64,
}

impl ClioKv {
    /// A store with `buckets` hash buckets (lazily initialized on first
    /// call).
    pub fn new(buckets: u64) -> Self {
        ClioKv {
            buckets,
            table_va: 0,
            arena_va: 0,
            arena_used: 0,
            arena_cap: 0,
            arena_chunk: 1 << 20,
            puts: 0,
            gets: 0,
            deletes: 0,
        }
    }

    /// `(puts, gets, deletes)` served.
    pub fn op_counts(&self) -> (u64, u64, u64) {
        (self.puts, self.gets, self.deletes)
    }

    fn ensure_init(&mut self, env: &mut OffloadEnv<'_>) -> Result<(), Status> {
        if self.table_va == 0 {
            self.table_va = env.alloc(self.buckets * 8, Perm::RW)?;
        }
        Ok(())
    }

    fn arena_alloc(&mut self, env: &mut OffloadEnv<'_>, bytes: u64) -> Result<u64, Status> {
        let bytes = bytes.next_multiple_of(8);
        if self.arena_va == 0 || self.arena_used + bytes > self.arena_cap {
            let chunk = self.arena_chunk.max(bytes);
            self.arena_va = env.alloc(chunk, Perm::RW)?;
            self.arena_cap = chunk;
            self.arena_used = 0;
        }
        let va = self.arena_va + self.arena_used;
        self.arena_used += bytes;
        Ok(va)
    }

    fn bucket_va(&self, key: &[u8]) -> u64 {
        self.table_va + (hash_key(key) % self.buckets) * 8
    }

    fn write_record(
        &mut self,
        env: &mut OffloadEnv<'_>,
        key: &[u8],
        value: &[u8],
    ) -> Result<u64, Status> {
        let va = self.arena_alloc(env, 8 + key.len() as u64 + value.len() as u64)?;
        let mut rec = BytesMut::with_capacity(8 + key.len() + value.len());
        rec.put_u32_le(key.len() as u32);
        rec.put_u32_le(value.len() as u32);
        rec.put_slice(key);
        rec.put_slice(value);
        env.write(va, &rec)?;
        Ok(va)
    }

    fn read_record(&self, env: &mut OffloadEnv<'_>, va: u64) -> Result<(Vec<u8>, Bytes), Status> {
        let hdr = env.read(va, 8)?;
        let key_len = u32::from_le_bytes(hdr[0..4].try_into().expect("4 B"));
        let val_len = u32::from_le_bytes(hdr[4..8].try_into().expect("4 B"));
        let body = env.read(va + 8, key_len + val_len)?;
        let key = body[..key_len as usize].to_vec();
        let value = body.slice(key_len as usize..);
        Ok((key, value))
    }

    /// Walks the slot chain of `key`'s bucket. Returns
    /// `(slot_va, entry_idx)` of the matching entry, plus the last slot of
    /// the chain (for appends).
    #[allow(clippy::type_complexity)]
    fn find(
        &mut self,
        env: &mut OffloadEnv<'_>,
        key: &[u8],
    ) -> Result<(Option<(u64, usize)>, Option<u64>), Status> {
        let fp = fingerprint(key);
        let mut slot_va = env.read_u64(self.bucket_va(key))?;
        let mut last = None;
        while slot_va != 0 {
            last = Some(slot_va);
            let slot = env.read(slot_va, SLOT_BYTES as u32)?;
            let count = u64::from_le_bytes(slot[8..16].try_into().expect("8 B")) as usize;
            for i in 0..count.min(SLOT_ENTRIES) {
                let off = 16 + i * 16;
                let efp = u64::from_le_bytes(slot[off..off + 8].try_into().expect("8 B"));
                if efp != fp {
                    continue;
                }
                env.compute(Cycles(4)); // fingerprint comparison
                let eva = u64::from_le_bytes(slot[off + 8..off + 16].try_into().expect("8 B"));
                let (rkey, _) = self.read_record(env, eva)?;
                if rkey == key {
                    return Ok((Some((slot_va, i)), last));
                }
            }
            slot_va = u64::from_le_bytes(slot[0..8].try_into().expect("8 B"));
        }
        Ok((None, last))
    }

    fn put(&mut self, env: &mut OffloadEnv<'_>, key: &[u8], value: &[u8]) -> OffloadReply {
        self.puts += 1;
        let result = (|| -> Result<(), Status> {
            let record_va = self.write_record(env, key, value)?;
            let fp = fingerprint(key);
            match self.find(env, key)? {
                (Some((slot_va, idx)), _) => {
                    // Update in place: point the entry at the new record.
                    env.write_u64(slot_va + 16 + idx as u64 * 16 + 8, record_va)?;
                }
                (None, Some(s)) => {
                    // Append to the last slot, or chain a fresh one.
                    let count = env.read_u64(s + 8)?;
                    if (count as usize) < SLOT_ENTRIES {
                        let off = 16 + count * 16;
                        env.write_u64(s + off, fp)?;
                        env.write_u64(s + off + 8, record_va)?;
                        env.write_u64(s + 8, count + 1)?;
                    } else {
                        let fresh = self.new_slot(env, fp, record_va)?;
                        env.write_u64(s, fresh)?; // link
                    }
                }
                (None, None) => {
                    let fresh = self.new_slot(env, fp, record_va)?;
                    env.write_u64(self.bucket_va(key), fresh)?;
                }
            }
            Ok(())
        })();
        match result {
            Ok(()) => OffloadReply::ok(Bytes::new()),
            Err(s) => OffloadReply::err(s),
        }
    }

    fn new_slot(&mut self, env: &mut OffloadEnv<'_>, fp: u64, va: u64) -> Result<u64, Status> {
        let slot_va = self.arena_alloc(env, SLOT_BYTES)?;
        let mut slot = BytesMut::zeroed(SLOT_BYTES as usize);
        slot[8..16].copy_from_slice(&1u64.to_le_bytes());
        slot[16..24].copy_from_slice(&fp.to_le_bytes());
        slot[24..32].copy_from_slice(&va.to_le_bytes());
        env.write(slot_va, &slot)?;
        Ok(slot_va)
    }

    fn get(&mut self, env: &mut OffloadEnv<'_>, key: &[u8]) -> OffloadReply {
        self.gets += 1;
        match self.find(env, key) {
            Ok((Some((slot_va, idx)), _)) => {
                let eva = match env.read_u64(slot_va + 16 + idx as u64 * 16 + 8) {
                    Ok(v) => v,
                    Err(s) => return OffloadReply::err(s),
                };
                match self.read_record(env, eva) {
                    Ok((_, value)) => OffloadReply::ok(value),
                    Err(s) => OffloadReply::err(s),
                }
            }
            Ok((None, _)) => OffloadReply::err(Status::InvalidAddr),
            Err(s) => OffloadReply::err(s),
        }
    }

    fn delete(&mut self, env: &mut OffloadEnv<'_>, key: &[u8]) -> OffloadReply {
        self.deletes += 1;
        match self.find(env, key) {
            Ok((Some((slot_va, idx)), _)) => {
                let res = (|| -> Result<(), Status> {
                    // Swap the last entry of this slot into the hole.
                    let count = env.read_u64(slot_va + 8)?;
                    let last = count.saturating_sub(1);
                    if last as usize != idx {
                        let src = slot_va + 16 + last * 16;
                        let fp = env.read_u64(src)?;
                        let va = env.read_u64(src + 8)?;
                        let dst = slot_va + 16 + idx as u64 * 16;
                        env.write_u64(dst, fp)?;
                        env.write_u64(dst + 8, va)?;
                    }
                    env.write_u64(slot_va + 8, last)?;
                    Ok(())
                })();
                match res {
                    Ok(()) => OffloadReply::ok(Bytes::new()),
                    Err(s) => OffloadReply::err(s),
                }
            }
            Ok((None, _)) => OffloadReply::err(Status::InvalidAddr),
            Err(s) => OffloadReply::err(s),
        }
    }
}

impl Offload for ClioKv {
    fn clone_box(&self) -> Box<dyn Offload> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        "clio-kv"
    }

    fn on_call(&mut self, env: &mut OffloadEnv<'_>, opcode: u16, arg: Bytes) -> OffloadReply {
        if self.ensure_init(env).is_err() {
            return OffloadReply::err(Status::OutOfVirtualMemory);
        }
        if arg.len() < 2 {
            return OffloadReply::err(Status::Unsupported);
        }
        let key_len = u16::from_le_bytes(arg[0..2].try_into().expect("2 B")) as usize;
        if arg.len() < 2 + key_len {
            return OffloadReply::err(Status::Unsupported);
        }
        let key = arg[2..2 + key_len].to_vec();
        // Hash computation on the FPGA.
        env.compute(Cycles(16));
        match opcode {
            x if x == KvOpcode::Put as u16 => {
                let value = arg[2 + key_len..].to_vec();
                self.put(env, &key, &value)
            }
            x if x == KvOpcode::Get as u16 => self.get(env, &key),
            x if x == KvOpcode::Delete as u16 => self.delete(env, &key),
            _ => OffloadReply::err(Status::Unsupported),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_hw::silicon::Silicon;
    use clio_mn::slowpath::SlowPath;
    use clio_mn::CBoardConfig;
    use clio_proto::Pid;
    use clio_sim::SimTime;

    struct Harness {
        silicon: Silicon,
        slow: SlowPath,
        kv: ClioKv,
        now: SimTime,
    }

    impl Harness {
        fn new() -> Self {
            let cfg = CBoardConfig::test_small();
            let mut silicon = Silicon::new(cfg.hw.clone());
            let mut slow = SlowPath::new(&cfg);
            slow.create_as(Pid(9000));
            let demand = silicon.vm().async_buffer().refill_demand();
            let (pages, _) = slow.refill_pages(demand);
            for p in pages {
                silicon.vm_mut().async_buffer_mut().push(p);
            }
            Harness { silicon, slow, kv: ClioKv::new(256), now: SimTime::ZERO }
        }

        fn call(&mut self, req: &KvRequest) -> KvResponse {
            let mut env = OffloadEnv::new(&mut self.silicon, &mut self.slow, Pid(9000), self.now);
            let reply = self.kv.on_call(&mut env, req.opcode(), req.encode());
            // Keep the fault buffer happy and advance time.
            self.now = env.now();
            let demand = self.silicon.vm().async_buffer().refill_demand();
            let (pages, _) = self.slow.refill_pages(demand);
            for p in pages {
                self.silicon.vm_mut().async_buffer_mut().push(p);
            }
            KvResponse::decode(reply.status, reply.data)
        }

        fn put(&mut self, k: &[u8], v: &[u8]) -> KvResponse {
            self.call(&KvRequest::Put { key: k.to_vec(), value: v.to_vec() })
        }
        fn get(&mut self, k: &[u8]) -> KvResponse {
            self.call(&KvRequest::Get { key: k.to_vec() })
        }
        fn del(&mut self, k: &[u8]) -> KvResponse {
            self.call(&KvRequest::Delete { key: k.to_vec() })
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let mut h = Harness::new();
        assert_eq!(h.put(b"alpha", b"1111"), KvResponse::Ok);
        assert_eq!(h.get(b"alpha"), KvResponse::Value(Bytes::from_static(b"1111")));
        assert_eq!(h.get(b"beta"), KvResponse::NotFound);
    }

    #[test]
    fn update_replaces_value() {
        let mut h = Harness::new();
        h.put(b"k", b"old");
        h.put(b"k", b"newer-value");
        assert_eq!(h.get(b"k"), KvResponse::Value(Bytes::from_static(b"newer-value")));
    }

    #[test]
    fn delete_removes() {
        let mut h = Harness::new();
        h.put(b"k1", b"v1");
        h.put(b"k2", b"v2");
        assert_eq!(h.del(b"k1"), KvResponse::Ok);
        assert_eq!(h.get(b"k1"), KvResponse::NotFound);
        assert_eq!(h.get(b"k2"), KvResponse::Value(Bytes::from_static(b"v2")));
        assert_eq!(h.del(b"k1"), KvResponse::NotFound);
    }

    #[test]
    fn many_keys_chain_through_slots() {
        // Few buckets force slot chaining.
        let mut h = Harness::new();
        h.kv = ClioKv::new(4);
        for i in 0..200u32 {
            let k = format!("key-{i}");
            let v = format!("value-{i}");
            assert_eq!(h.put(k.as_bytes(), v.as_bytes()), KvResponse::Ok, "{k}");
        }
        for i in 0..200u32 {
            let k = format!("key-{i}");
            let v = format!("value-{i}");
            assert_eq!(h.get(k.as_bytes()), KvResponse::Value(Bytes::from(v.into_bytes())), "{k}");
        }
        let (p, g, _) = h.kv.op_counts();
        assert_eq!((p, g), (200, 200));
    }

    #[test]
    fn ops_take_device_time() {
        let mut h = Harness::new();
        h.put(b"k", b"v");
        let before = h.now;
        h.get(b"k");
        let elapsed = h.now.since(before);
        // A get is a few DRAM accesses: hundreds of ns to a few µs.
        assert!(elapsed.as_nanos() > 300 && elapsed.as_nanos() < 20_000, "get took {elapsed}");
    }

    #[test]
    fn partitioner_is_stable_and_balanced() {
        assert_eq!(partition_of(b"abc", 4), partition_of(b"abc", 4));
        let mut counts = [0usize; 4];
        for i in 0..4000u32 {
            counts[partition_of(format!("key-{i}").as_bytes(), 4)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "unbalanced partitions: {counts:?}");
        }
    }

    #[test]
    fn request_encoding_roundtrips() {
        let r = KvRequest::Put { key: b"k".to_vec(), value: b"v".to_vec() };
        let enc = r.encode();
        assert_eq!(enc.len(), 2 + 1 + 1);
        assert_eq!(KvResponse::decode(Status::Ok, Bytes::new()), KvResponse::Ok);
        assert_eq!(KvResponse::decode(Status::InvalidAddr, Bytes::new()), KvResponse::NotFound);
    }
}
