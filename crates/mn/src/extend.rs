//! The extend path: computation offloading at the memory node (paper §4.6).
//!
//! Offloads are modules deployed on the CBoard's FPGA (or ARM) that expose
//! application-level operations to CNs. Clio's key design point is that an
//! offload gets **its own PID and remote address space** and uses the *same*
//! virtual-memory interface as CN applications — allocation via the slow
//! path, loads/stores through the fast path's translated, permission-checked
//! pipeline. That is what made Clio-KV/Clio-MV "closer to traditional
//! multi-threaded software programming" to build.
//!
//! [`OffloadEnv`] is that interface. It also keeps a running *time cursor*:
//! each memory access advances it by the silicon's reported latency plus any
//! offload compute cycles, so a call's response carries a faithful
//! completion time. An access is on-chip, behind the match-and-action
//! table, so it crosses no MAC/PHY, whoever built the environment.
//!
//! Each access is admitted like a request: the board's [`Migrations`]
//! refuses one to a range migrating away (`Conflict`) or gone (`Moved`),
//! and the access fails with that status, which a module returns as its
//! call's. CLib re-issues a call refused `Conflict` part-way as a new
//! request, so the module runs it again whole; a `Moved` call fails, as an
//! offload names no range for CLib to re-route.
//!
//! A call is at most once across lost replies when its module declares
//! the opcode mutating ([`Offload::mutates`], every opcode by default):
//! the board records its reply in the dedup buffer like a write's and
//! re-sends it to a retry instead of running the module again. The record
//! is volatile, as every dedup record is: a retry that arrives after a
//! board restart runs the call again.

use bytes::Bytes;
use clio_hw::silicon::{AccessTiming, AtomicOp, Silicon};
use clio_proto::{Perm, Pid, Status};
use clio_sim::{Cycles, SimDuration, SimTime};

use crate::migrate::Migrations;
use crate::slowpath::SlowPath;

/// The reply an offload call produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffloadReply {
    /// Result status.
    pub status: Status,
    /// Result payload (offload-defined encoding).
    pub data: Bytes,
}

impl OffloadReply {
    /// A successful reply carrying `data`.
    pub fn ok(data: Bytes) -> Self {
        OffloadReply { status: Status::Ok, data }
    }

    /// An error reply.
    pub fn err(status: Status) -> Self {
        OffloadReply { status, data: Bytes::new() }
    }
}

/// A computation module installed on the extend path.
///
/// Implementations live in `clio-apps` (pointer chasing, Clio-KV, Clio-MV,
/// Clio-DF operators). `on_call` runs to completion within the simulation
/// step; all elapsed device time is captured by the environment's time
/// cursor.
pub trait Offload: 'static {
    /// Short name for traces.
    fn name(&self) -> &str;

    /// Handles one offload invocation.
    fn on_call(&mut self, env: &mut OffloadEnv<'_>, opcode: u16, arg: Bytes) -> OffloadReply;

    /// Whether a call with `opcode` changes state, so that a retry after a
    /// lost reply must get the recorded reply rather than run again. Every
    /// opcode does unless the module says otherwise; a read-only opcode
    /// returns false and is re-run, which costs no dedup slots.
    fn mutates(&self, opcode: u16) -> bool {
        let _ = opcode;
        true
    }

    /// A boxed copy of the module and its state, so that cloning a
    /// [`CBoard`](crate::CBoard) copies what is installed on it. For a
    /// `Clone` module: `Box::new(self.clone())`.
    fn clone_box(&self) -> Box<dyn Offload>;
}

impl Clone for Box<dyn Offload> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

/// The virtual-memory and timing interface an offload executes against.
pub struct OffloadEnv<'a> {
    silicon: &'a mut Silicon,
    slow: &'a mut SlowPath,
    migrations: &'a Migrations,
    pid: Pid,
    cursor: SimTime,
    fpga_cycle_time: SimDuration,
}

impl<'a> OffloadEnv<'a> {
    /// Assembles the environment for one call. `migrations` is the board's,
    /// which admits every access; `start` is when the request leaves the
    /// MAT for the extend path.
    pub fn new(
        silicon: &'a mut Silicon,
        slow: &'a mut SlowPath,
        migrations: &'a Migrations,
        pid: Pid,
        start: SimTime,
    ) -> Self {
        let fpga_cycle_time = silicon.config().flit_time();
        OffloadEnv { silicon, slow, migrations, pid, cursor: start, fpga_cycle_time }
    }

    /// The offload's own PID (protection domain).
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current device time, advanced by every operation.
    pub fn now(&self) -> SimTime {
        self.cursor
    }

    /// Charges `c` FPGA compute cycles (comparisons, hashing, ...).
    pub fn compute(&mut self, c: Cycles) {
        self.cursor += SimDuration::from_nanos(self.fpga_cycle_time.as_nanos().saturating_mul(c.0));
    }

    /// Admits an access to `va` and runs it at the cursor. A fault that
    /// drains the async free-page buffer triggers an inline refill and one
    /// retry, like the board's stall-and-refill path.
    fn access<T>(
        &mut self,
        va: u64,
        mut run: impl FnMut(&mut Silicon, SimTime) -> (Result<T, Status>, AccessTiming),
    ) -> Result<T, Status> {
        self.migrations.refusal(self.pid, va).map_or(Ok(()), Err)?;
        let (res, t) = run(self.silicon, self.cursor);
        self.cursor = t.done;
        if res.as_ref().err() != Some(&Status::OutOfPhysicalMemory) {
            return res;
        }
        self.slow.refill_async_buffer(self.silicon);
        let (res, t) = run(self.silicon, self.cursor);
        self.cursor = t.done;
        res
    }

    /// Reads remote memory through the fast path.
    ///
    /// # Errors
    ///
    /// Propagates migration refusals and translation/permission failures.
    pub fn read(&mut self, va: u64, len: u32) -> Result<Bytes, Status> {
        let pid = self.pid;
        self.access(va, |silicon, at| silicon.read(at, pid, va, len))
    }

    /// Writes remote memory through the fast path.
    ///
    /// # Errors
    ///
    /// Propagates migration refusals and translation/permission failures.
    pub fn write(&mut self, va: u64, data: &[u8]) -> Result<(), Status> {
        let pid = self.pid;
        self.access(va, |silicon, at| silicon.write(at, pid, va, data))
    }

    /// Executes an atomic through the synchronization unit (no stall retry,
    /// as on the board).
    ///
    /// # Errors
    ///
    /// Propagates migration refusals and translation/permission failures.
    pub fn atomic(&mut self, va: u64, op: AtomicOp) -> Result<u64, Status> {
        self.migrations.refusal(self.pid, va).map_or(Ok(()), Err)?;
        let (res, t) = self.silicon.atomic(self.cursor, self.pid, va, op);
        self.cursor = t.done;
        res
    }

    /// Reads the 8-byte word at `va`.
    ///
    /// # Errors
    ///
    /// Propagates translation/permission failures.
    pub fn read_u64(&mut self, va: u64) -> Result<u64, Status> {
        let b = self.read(va, 8)?;
        Ok(u64::from_le_bytes(b[..8].try_into().expect("8 bytes")))
    }

    /// Writes the 8-byte word at `va`.
    ///
    /// # Errors
    ///
    /// Propagates translation/permission failures.
    pub fn write_u64(&mut self, va: u64, value: u64) -> Result<(), Status> {
        self.write(va, &value.to_le_bytes())
    }

    /// Allocates virtual memory in the offload's address space (slow path;
    /// the crossing + software time advances the cursor).
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn alloc(&mut self, size: u64, perm: Perm) -> Result<u64, Status> {
        let crossing = SlowPath::CROSSING_DELAY;
        match self.slow.alloc(self.silicon.vm_mut(), self.pid, size, perm, None) {
            Ok(out) => {
                self.cursor = self.cursor + crossing + out.service + crossing;
                self.slow.refill_async_buffer(self.silicon);
                Ok(out.range.start)
            }
            Err((status, service)) => {
                self.cursor = self.cursor + crossing + service + crossing;
                Err(status)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CBoardConfig;

    struct Env {
        silicon: Silicon,
        slow: SlowPath,
        migrations: Migrations,
    }

    impl Env {
        fn env(&mut self) -> OffloadEnv<'_> {
            OffloadEnv::new(
                &mut self.silicon,
                &mut self.slow,
                &self.migrations,
                Pid(900),
                SimTime::ZERO,
            )
        }
    }

    fn setup() -> Env {
        let cfg = CBoardConfig::test_small();
        let mut silicon = Silicon::new(cfg.hw.clone());
        let mut slow = SlowPath::new(&cfg);
        slow.create_as(Pid(900));
        slow.refill_async_buffer(&mut silicon);
        Env { silicon, slow, migrations: Migrations::default() }
    }

    #[test]
    fn offload_allocates_and_accesses_its_own_space() {
        let mut e = setup();
        let mut env = e.env();
        let va = env.alloc(8192, Perm::RW).expect("alloc");
        assert!(env.now() > SimTime::ZERO, "slow-path time charged");
        env.write(va, b"offload data").expect("write");
        assert_eq!(&env.read(va, 12).expect("read")[..], b"offload data");
        env.write_u64(va + 100, 77).expect("w64");
        assert_eq!(env.read_u64(va + 100).expect("r64"), 77);
    }

    #[test]
    fn time_cursor_monotonically_advances() {
        let mut e = setup();
        let mut env = e.env();
        let va = env.alloc(4096, Perm::RW).expect("alloc");
        let t0 = env.now();
        env.write(va, &[0u8; 64]).expect("write");
        let t1 = env.now();
        assert!(t1 > t0);
        env.compute(Cycles(100));
        let t2 = env.now();
        assert_eq!(t2.since(t1), SimDuration::from_nanos(400)); // 100 cycles @ 250 MHz
    }

    #[test]
    fn offload_cannot_touch_other_address_spaces() {
        let mut e = setup();
        // A "client" pid maps a page.
        e.slow.create_as(Pid(1));
        let out = e.slow.alloc(e.silicon.vm_mut(), Pid(1), 4096, Perm::RW, None).expect("alloc");
        let client_va = out.range.start;
        let mut env = e.env();
        assert_eq!(env.read(client_va, 8).unwrap_err(), Status::InvalidAddr);
    }

    #[test]
    fn atomics_work_in_offload_space() {
        let mut e = setup();
        let mut env = e.env();
        let va = env.alloc(4096, Perm::RW).expect("alloc");
        assert_eq!(env.atomic(va, AtomicOp::Faa(5)).expect("faa"), 0);
        assert_eq!(env.atomic(va, AtomicOp::Faa(1)).expect("faa"), 5);
    }
}
