//! Clio-MV: the multi-version object store offload (paper §6).
//!
//! Users create objects, append new versions, and read any version (or the
//! latest). Per the paper, versions of each object live in an array (so
//! reading any version costs the same — Figure 19's flat lines), an id map
//! holds per-object array addresses, and a free list recycles object ids.
//! Per-object access is sequentially consistent because the offload executes
//! one call at a time in arrival order (§6: the fast/slow paths' sequential
//! delivery is sufficient).

use bytes::{BufMut, Bytes, BytesMut};
use clio_mn::{Offload, OffloadEnv, OffloadReply};
use clio_proto::{Perm, Status};
use clio_sim::Cycles;

/// Operation codes of the offload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MvOpcode {
    /// Create a new object; returns its id (u64).
    Create = 0,
    /// Append a version; arg = id (u64) + value bytes; returns the version.
    Append = 1,
    /// Read version `v`; arg = id + version (u64::MAX = latest).
    Read = 2,
    /// Delete an object; arg = id.
    Delete = 3,
}

/// Fixed per-object version capacity (paper's arrays are preallocated).
const MAX_VERSIONS: u64 = 64;

/// Clio-MV offload state.
#[derive(Debug, Clone)]
pub struct ClioMv {
    value_size: u64,
    max_objects: u64,
    /// VA of the id map: per object `(array_va u64, latest u64)`; 0 = free.
    map_va: u64,
    free_list: Vec<u64>,
    next_unused: u64,
}

impl ClioMv {
    /// A store for up to `max_objects` objects of `value_size`-byte
    /// versions.
    pub fn new(max_objects: u64, value_size: u64) -> Self {
        ClioMv { value_size, max_objects, map_va: 0, free_list: Vec::new(), next_unused: 0 }
    }

    fn ensure_init(&mut self, env: &mut OffloadEnv<'_>) -> Result<(), Status> {
        if self.map_va == 0 {
            self.map_va = env.alloc(self.max_objects * 16, Perm::RW)?;
        }
        Ok(())
    }

    fn create(&mut self, env: &mut OffloadEnv<'_>) -> OffloadReply {
        let id = match self.free_list.pop() {
            Some(id) => id,
            None => {
                if self.next_unused >= self.max_objects {
                    return OffloadReply::err(Status::OutOfVirtualMemory);
                }
                let id = self.next_unused;
                self.next_unused += 1;
                id
            }
        };
        let arr = match env.alloc(MAX_VERSIONS * self.value_size, Perm::RW) {
            Ok(va) => va,
            Err(s) => return OffloadReply::err(s),
        };
        let r = env
            .write_u64(self.map_va + id * 16, arr)
            .and_then(|()| env.write_u64(self.map_va + id * 16 + 8, 0));
        match r {
            Ok(()) => {
                let mut b = BytesMut::new();
                b.put_u64_le(id);
                OffloadReply::ok(b.freeze())
            }
            Err(s) => OffloadReply::err(s),
        }
    }

    fn object(&self, env: &mut OffloadEnv<'_>, id: u64) -> Result<(u64, u64), Status> {
        if id >= self.max_objects {
            return Err(Status::InvalidAddr);
        }
        let arr = env.read_u64(self.map_va + id * 16)?;
        if arr == 0 {
            return Err(Status::InvalidAddr);
        }
        let latest = env.read_u64(self.map_va + id * 16 + 8)?;
        Ok((arr, latest))
    }

    fn append(&mut self, env: &mut OffloadEnv<'_>, id: u64, value: &[u8]) -> OffloadReply {
        let r = (|| -> Result<u64, Status> {
            let (arr, latest) = self.object(env, id)?;
            let version = latest + 1;
            if version > MAX_VERSIONS {
                return Err(Status::OutOfVirtualMemory);
            }
            let mut val = value.to_vec();
            val.resize(self.value_size as usize, 0);
            env.write(arr + (version - 1) * self.value_size, &val)?;
            env.write_u64(self.map_va + id * 16 + 8, version)?;
            Ok(version)
        })();
        match r {
            Ok(v) => {
                let mut b = BytesMut::new();
                b.put_u64_le(v);
                OffloadReply::ok(b.freeze())
            }
            Err(s) => OffloadReply::err(s),
        }
    }

    fn read(&mut self, env: &mut OffloadEnv<'_>, id: u64, version: u64) -> OffloadReply {
        let r = (|| -> Result<Bytes, Status> {
            let (arr, latest) = self.object(env, id)?;
            let version = if version == u64::MAX { latest } else { version };
            if version == 0 || version > latest {
                return Err(Status::InvalidAddr);
            }
            env.read(arr + (version - 1) * self.value_size, self.value_size as u32)
        })();
        match r {
            Ok(data) => OffloadReply::ok(data),
            Err(s) => OffloadReply::err(s),
        }
    }

    fn delete(&mut self, env: &mut OffloadEnv<'_>, id: u64) -> OffloadReply {
        let r = (|| -> Result<(), Status> {
            self.object(env, id)?; // existence check
            env.write_u64(self.map_va + id * 16, 0)?;
            env.write_u64(self.map_va + id * 16 + 8, 0)?;
            self.free_list.push(id);
            Ok(())
        })();
        match r {
            Ok(()) => OffloadReply::ok(Bytes::new()),
            Err(s) => OffloadReply::err(s),
        }
    }
}

impl Offload for ClioMv {
    fn clone_box(&self) -> Box<dyn Offload> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        "clio-mv"
    }

    /// Only `Read` leaves the store as it found it.
    fn mutates(&self, opcode: u16) -> bool {
        opcode != MvOpcode::Read as u16
    }

    fn on_call(&mut self, env: &mut OffloadEnv<'_>, opcode: u16, arg: Bytes) -> OffloadReply {
        if self.ensure_init(env).is_err() {
            return OffloadReply::err(Status::OutOfVirtualMemory);
        }
        env.compute(Cycles(8));
        let u64_at = |off: usize| -> Option<u64> {
            arg.get(off..off + 8).map(|s| u64::from_le_bytes(s.try_into().expect("8 B")))
        };
        match opcode {
            x if x == MvOpcode::Create as u16 => self.create(env),
            x if x == MvOpcode::Append as u16 => match u64_at(0) {
                Some(id) => self.append(env, id, &arg[8..]),
                None => OffloadReply::err(Status::Unsupported),
            },
            x if x == MvOpcode::Read as u16 => match (u64_at(0), u64_at(8)) {
                (Some(id), Some(v)) => self.read(env, id, v),
                _ => OffloadReply::err(Status::Unsupported),
            },
            x if x == MvOpcode::Delete as u16 => match u64_at(0) {
                Some(id) => self.delete(env, id),
                None => OffloadReply::err(Status::Unsupported),
            },
            _ => OffloadReply::err(Status::Unsupported),
        }
    }
}

/// Encodes an append argument.
pub fn encode_append(id: u64, value: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(8 + value.len());
    b.put_u64_le(id);
    b.put_slice(value);
    b.freeze()
}

/// Encodes a read argument (`u64::MAX` = latest version).
pub fn encode_read(id: u64, version: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(16);
    b.put_u64_le(id);
    b.put_u64_le(version);
    b.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_hw::silicon::Silicon;
    use clio_mn::migrate::Migrations;
    use clio_mn::slowpath::SlowPath;
    use clio_mn::CBoardConfig;
    use clio_proto::Pid;
    use clio_sim::SimTime;

    struct Harness {
        silicon: Silicon,
        slow: SlowPath,
        migrations: Migrations,
        mv: ClioMv,
        now: SimTime,
    }

    impl Harness {
        fn new() -> Self {
            let cfg = CBoardConfig::test_small();
            let mut silicon = Silicon::new(cfg.hw.clone());
            let mut slow = SlowPath::new(&cfg);
            slow.create_as(Pid(9001));
            slow.refill_async_buffer(&mut silicon);
            Harness {
                silicon,
                slow,
                migrations: Migrations::default(),
                mv: ClioMv::new(64, 16),
                now: SimTime::ZERO,
            }
        }

        fn call(&mut self, opcode: MvOpcode, arg: Bytes) -> OffloadReply {
            let mut env = OffloadEnv::new(
                &mut self.silicon,
                &mut self.slow,
                &self.migrations,
                Pid(9001),
                self.now,
            );
            let r = self.mv.on_call(&mut env, opcode as u16, arg);
            self.now = env.now();
            self.slow.refill_async_buffer(&mut self.silicon);
            r
        }

        fn create(&mut self) -> u64 {
            let r = self.call(MvOpcode::Create, Bytes::new());
            assert_eq!(r.status, Status::Ok);
            u64::from_le_bytes(r.data[..8].try_into().unwrap())
        }
    }

    #[test]
    fn create_append_read_versions() {
        let mut h = Harness::new();
        let id = h.create();
        let v1 = h.call(MvOpcode::Append, encode_append(id, b"version-one!"));
        assert_eq!(v1.status, Status::Ok);
        let v2 = h.call(MvOpcode::Append, encode_append(id, b"version-two!"));
        assert_eq!(u64::from_le_bytes(v2.data[..8].try_into().unwrap()), 2);

        let r1 = h.call(MvOpcode::Read, encode_read(id, 1));
        assert_eq!(&r1.data[..12], b"version-one!");
        let r2 = h.call(MvOpcode::Read, encode_read(id, 2));
        assert_eq!(&r2.data[..12], b"version-two!");
        let latest = h.call(MvOpcode::Read, encode_read(id, u64::MAX));
        assert_eq!(&latest.data[..12], b"version-two!");
    }

    #[test]
    fn invalid_reads_fail() {
        let mut h = Harness::new();
        let id = h.create();
        assert_eq!(h.call(MvOpcode::Read, encode_read(id, 1)).status, Status::InvalidAddr);
        h.call(MvOpcode::Append, encode_append(id, b"x"));
        assert_eq!(h.call(MvOpcode::Read, encode_read(id, 2)).status, Status::InvalidAddr);
        assert_eq!(h.call(MvOpcode::Read, encode_read(999, 1)).status, Status::InvalidAddr);
    }

    #[test]
    fn delete_recycles_ids() {
        let mut h = Harness::new();
        let a = h.create();
        assert_eq!(
            h.call(MvOpcode::Delete, Bytes::copy_from_slice(&a.to_le_bytes())).status,
            Status::Ok
        );
        assert_eq!(h.call(MvOpcode::Read, encode_read(a, 1)).status, Status::InvalidAddr);
        let b = h.create();
        assert_eq!(b, a, "freed id is reused");
    }

    #[test]
    fn objects_are_independent() {
        let mut h = Harness::new();
        let a = h.create();
        let b = h.create();
        h.call(MvOpcode::Append, encode_append(a, b"aaaa"));
        h.call(MvOpcode::Append, encode_append(b, b"bbbb"));
        let ra = h.call(MvOpcode::Read, encode_read(a, u64::MAX));
        let rb = h.call(MvOpcode::Read, encode_read(b, u64::MAX));
        assert_eq!(&ra.data[..4], b"aaaa");
        assert_eq!(&rb.data[..4], b"bbbb");
    }

    #[test]
    fn reading_any_version_costs_the_same() {
        let mut h = Harness::new();
        let id = h.create();
        for i in 0..10u8 {
            h.call(MvOpcode::Append, encode_append(id, &[i; 16]));
        }
        let t0 = h.now;
        h.call(MvOpcode::Read, encode_read(id, 1));
        let d_old = h.now.since(t0);
        let t1 = h.now;
        h.call(MvOpcode::Read, encode_read(id, 10));
        let d_new = h.now.since(t1);
        let diff = d_old.as_nanos().abs_diff(d_new.as_nanos());
        assert!(diff < 200, "array-based versions: {d_old} vs {d_new}");
    }
}
