//! Clio-DF: the split CN/MN data-analytics pipeline (paper §6).
//!
//! A DataFrame-style query — `select` rows matching a predicate, `avg` a
//! field over them, then a CN-side `histogram` — where `select` and
//! `aggregate` run as MN offloads (shipping only matching rows over the
//! network) while `shuffle`/`histogram` stay at the CN. Figure 20 sweeps
//! the select ratio: at high selectivity the CPU's faster compute wins; at
//! low selectivity Clio's reduced data movement wins.
//!
//! Row layout (8 B): `[field_a u32][field_b u32]`.

use bytes::{BufMut, Bytes, BytesMut};
use clio_mn::{Offload, OffloadEnv, OffloadReply};
use clio_proto::Status;
use clio_sim::{Cycles, SimRng};

/// Bytes per table row.
pub const ROW_BYTES: u64 = 8;

/// Offload opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DfOpcode {
    /// Select rows with `field_a < threshold` from `[in_va, in_va+rows)`
    /// into `out_va`; returns the match count (u64).
    Select = 0,
    /// Average `field_b` over `[va, va+rows)`; returns the mean ×1000 (u64).
    Avg = 1,
}

/// Generates a deterministic table whose `field_a` is uniform in
/// `[0, 100)` — so a threshold of `t` selects ~`t` percent — and whose
/// `field_b` is a "score".
pub fn synth_table(rows: u64, seed: u64) -> Vec<u8> {
    let mut rng = SimRng::new(seed);
    let mut out = BytesMut::with_capacity((rows * ROW_BYTES) as usize);
    for _ in 0..rows {
        out.put_u32_le((rng.u64() % 100) as u32);
        out.put_u32_le((rng.u64() % 1000) as u32);
    }
    out.freeze().to_vec()
}

/// Encodes a select argument.
pub fn encode_select(in_va: u64, rows: u64, threshold: u32, out_va: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(28);
    b.put_u64_le(in_va);
    b.put_u64_le(rows);
    b.put_u32_le(threshold);
    b.put_u64_le(out_va);
    b.freeze()
}

/// Encodes an avg argument.
pub fn encode_avg(va: u64, rows: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(16);
    b.put_u64_le(va);
    b.put_u64_le(rows);
    b.freeze()
}

/// CN-side histogram over selected rows' `field_b` (10 buckets of 100).
pub fn histogram(rows: &[u8]) -> [u64; 10] {
    let mut h = [0u64; 10];
    for row in rows.chunks_exact(ROW_BYTES as usize) {
        let b = u32::from_le_bytes(row[4..8].try_into().expect("4 B"));
        h[(b as usize / 100).min(9)] += 1;
    }
    h
}

/// CN-side reference implementations (the RDMA baseline computes these
/// locally after fetching the whole table).
pub fn select_local(table: &[u8], threshold: u32) -> Vec<u8> {
    let mut out = Vec::new();
    for row in table.chunks_exact(ROW_BYTES as usize) {
        let a = u32::from_le_bytes(row[0..4].try_into().expect("4 B"));
        if a < threshold {
            out.extend_from_slice(row);
        }
    }
    out
}

/// CN-side mean of `field_b` (×1000, truncated), matching the offload.
pub fn avg_local(rows: &[u8]) -> u64 {
    let mut sum = 0u64;
    let mut n = 0u64;
    for row in rows.chunks_exact(ROW_BYTES as usize) {
        sum += u32::from_le_bytes(row[4..8].try_into().expect("4 B")) as u64;
        n += 1;
    }
    (sum * 1000).checked_div(n).unwrap_or(0)
}

/// The select/aggregate offload module. The FPGA scans at one row per
/// cycle-ish (charged via `compute`), reading and writing through the
/// translated fast path in bursts.
#[derive(Debug, Clone, Default)]
pub struct ClioDf;

/// Rows processed per DRAM burst by the offload.
const BURST_ROWS: u64 = 512;

impl ClioDf {
    /// A fresh module.
    pub fn new() -> Self {
        ClioDf
    }

    fn select(
        &mut self,
        env: &mut OffloadEnv<'_>,
        in_va: u64,
        rows: u64,
        threshold: u32,
        out_va: u64,
    ) -> OffloadReply {
        let mut matched = 0u64;
        let mut out_cursor = out_va;
        let mut row = 0u64;
        while row < rows {
            let burst = BURST_ROWS.min(rows - row);
            let raw = match env.read(in_va + row * ROW_BYTES, (burst * ROW_BYTES) as u32) {
                Ok(r) => r,
                Err(s) => return OffloadReply::err(s),
            };
            // One comparison per row: ~1 cycle each on the 512-bit path.
            env.compute(Cycles(burst / 8 + 1));
            let mut keep = BytesMut::new();
            for r in raw.chunks_exact(ROW_BYTES as usize) {
                let a = u32::from_le_bytes(r[0..4].try_into().expect("4 B"));
                if a < threshold {
                    keep.put_slice(r);
                }
            }
            if !keep.is_empty() {
                if let Err(s) = env.write(out_cursor, &keep) {
                    return OffloadReply::err(s);
                }
                matched += keep.len() as u64 / ROW_BYTES;
                out_cursor += keep.len() as u64;
            }
            row += burst;
        }
        OffloadReply::ok(Bytes::copy_from_slice(&matched.to_le_bytes()))
    }

    fn avg(&mut self, env: &mut OffloadEnv<'_>, va: u64, rows: u64) -> OffloadReply {
        let mut sum = 0u64;
        let mut row = 0u64;
        while row < rows {
            let burst = BURST_ROWS.min(rows - row);
            let raw = match env.read(va + row * ROW_BYTES, (burst * ROW_BYTES) as u32) {
                Ok(r) => r,
                Err(s) => return OffloadReply::err(s),
            };
            env.compute(Cycles(burst / 8 + 1));
            for r in raw.chunks_exact(ROW_BYTES as usize) {
                sum += u32::from_le_bytes(r[4..8].try_into().expect("4 B")) as u64;
            }
            row += burst;
        }
        let mean = (sum * 1000).checked_div(rows).unwrap_or(0);
        OffloadReply::ok(Bytes::copy_from_slice(&mean.to_le_bytes()))
    }
}

impl Offload for ClioDf {
    fn clone_box(&self) -> Box<dyn Offload> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        "clio-df"
    }

    /// `Avg` only reads; `Select` writes its output column.
    fn mutates(&self, opcode: u16) -> bool {
        opcode != DfOpcode::Avg as u16
    }

    fn on_call(&mut self, env: &mut OffloadEnv<'_>, opcode: u16, arg: Bytes) -> OffloadReply {
        let u64_at = |off: usize| -> Option<u64> {
            arg.get(off..off + 8).map(|s| u64::from_le_bytes(s.try_into().expect("8 B")))
        };
        match opcode {
            x if x == DfOpcode::Select as u16 => {
                let (Some(in_va), Some(rows), Some(out_va)) = (u64_at(0), u64_at(8), u64_at(20))
                else {
                    return OffloadReply::err(Status::Unsupported);
                };
                let Some(thr) =
                    arg.get(16..20).map(|s| u32::from_le_bytes(s.try_into().expect("4 B")))
                else {
                    return OffloadReply::err(Status::Unsupported);
                };
                self.select(env, in_va, rows, thr, out_va)
            }
            x if x == DfOpcode::Avg as u16 => {
                let (Some(va), Some(rows)) = (u64_at(0), u64_at(8)) else {
                    return OffloadReply::err(Status::Unsupported);
                };
                self.avg(env, va, rows)
            }
            _ => OffloadReply::err(Status::Unsupported),
        }
    }
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
        df: ClioDf,
        now: SimTime,
    }

    impl Harness {
        fn new() -> Self {
            let mut cfg = CBoardConfig::test_small();
            cfg.hw.phys_mem_bytes = 64 << 20;
            let mut silicon = Silicon::new(cfg.hw.clone());
            let mut slow = SlowPath::new(&cfg);
            slow.create_as(Pid(9003));
            slow.refill_async_buffer(&mut silicon);
            Harness {
                silicon,
                slow,
                migrations: Migrations::default(),
                df: ClioDf::new(),
                now: SimTime::ZERO,
            }
        }

        fn env(&mut self) -> OffloadEnv<'_> {
            OffloadEnv::new(
                &mut self.silicon,
                &mut self.slow,
                &self.migrations,
                Pid(9003),
                self.now,
            )
        }

        fn refill(&mut self) {
            self.slow.refill_async_buffer(&mut self.silicon);
        }
    }

    #[test]
    fn select_and_avg_match_local_reference() {
        let mut h = Harness::new();
        let table = synth_table(4000, 11);
        let (in_va, out_va) = {
            let mut env = h.env();
            let in_va = env.alloc(table.len() as u64, Perm::RW).expect("alloc");
            let out_va = env.alloc(table.len() as u64, Perm::RW).expect("alloc");
            env.write(in_va, &table).expect("upload");
            h.now = env.now();
            (in_va, out_va)
        };
        h.refill();

        let threshold = 20; // ~20% selectivity
        let reply = {
            let mut env =
                OffloadEnv::new(&mut h.silicon, &mut h.slow, &h.migrations, Pid(9003), h.now);
            let r = h.df.on_call(
                &mut env,
                DfOpcode::Select as u16,
                encode_select(in_va, 4000, threshold, out_va),
            );
            h.now = env.now();
            r
        };
        h.refill();
        assert_eq!(reply.status, Status::Ok);
        let matched = u64::from_le_bytes(reply.data[..8].try_into().unwrap());
        let expect = select_local(&table, threshold);
        assert_eq!(matched, expect.len() as u64 / ROW_BYTES);

        // Aggregate over the selected rows at the MN.
        let reply = {
            let mut env =
                OffloadEnv::new(&mut h.silicon, &mut h.slow, &h.migrations, Pid(9003), h.now);
            let r = h.df.on_call(&mut env, DfOpcode::Avg as u16, encode_avg(out_va, matched));
            h.now = env.now();
            r
        };
        let mean = u64::from_le_bytes(reply.data[..8].try_into().unwrap());
        assert_eq!(mean, avg_local(&expect));

        // Read the selected rows back and histogram at the "CN".
        let selected = {
            let mut env =
                OffloadEnv::new(&mut h.silicon, &mut h.slow, &h.migrations, Pid(9003), h.now);
            env.read(out_va, (matched * ROW_BYTES) as u32).expect("read back")
        };
        assert_eq!(histogram(&selected), histogram(&expect));
    }

    #[test]
    fn selectivity_tracks_threshold() {
        let table = synth_table(10_000, 3);
        for thr in [2u32, 20, 80] {
            let sel = select_local(&table, thr);
            let frac = sel.len() as f64 / table.len() as f64;
            assert!((frac - thr as f64 / 100.0).abs() < 0.03, "threshold {thr}: got {frac}");
        }
    }

    #[test]
    fn empty_and_full_selections() {
        let table = synth_table(100, 9);
        assert!(select_local(&table, 0).is_empty());
        assert_eq!(select_local(&table, 100).len(), table.len());
        assert_eq!(avg_local(&[]), 0);
    }
}
