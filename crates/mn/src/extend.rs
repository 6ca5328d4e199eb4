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
//! completion time.

use bytes::Bytes;
use clio_hw::silicon::{AtomicOp, Silicon};
use clio_proto::{Perm, Pid, Status};
use clio_sim::{Cycles, SimDuration, SimTime};

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
    pid: Pid,
    cursor: SimTime,
    fpga_cycle_time: SimDuration,
}

impl<'a> OffloadEnv<'a> {
    /// Assembles the environment for one call. `start` is when the request
    /// leaves the MAT for the extend path.
    pub fn new(silicon: &'a mut Silicon, slow: &'a mut SlowPath, pid: Pid, start: SimTime) -> Self {
        let fpga_cycle_time = silicon.config().flit_time();
        OffloadEnv { silicon, slow, pid, cursor: start, fpga_cycle_time }
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
        self.cursor += Cursor::cycles(self.fpga_cycle_time, c);
    }

    /// Reads remote memory through the fast path. A fault that drains the
    /// async free-page buffer triggers an inline refill and one retry, like
    /// the board's stall-and-refill path.
    ///
    /// # Errors
    ///
    /// Propagates translation/permission failures.
    pub fn read(&mut self, va: u64, len: u32) -> Result<Bytes, Status> {
        let (res, t) = self.silicon.read(self.cursor, self.pid, va, len);
        self.cursor = t.done;
        if res.as_ref().err() == Some(&Status::OutOfPhysicalMemory) {
            self.refill_async_buffer();
            let (res2, t2) = self.silicon.read(self.cursor, self.pid, va, len);
            self.cursor = t2.done;
            return res2;
        }
        res
    }

    /// Writes remote memory through the fast path (with the same
    /// fault-stall refill as [`read`](Self::read)).
    ///
    /// # Errors
    ///
    /// Propagates translation/permission failures.
    pub fn write(&mut self, va: u64, data: &[u8]) -> Result<(), Status> {
        let (res, t) = self.silicon.write(self.cursor, self.pid, va, data);
        self.cursor = t.done;
        if res.as_ref().err() == Some(&Status::OutOfPhysicalMemory) {
            self.refill_async_buffer();
            let (res2, t2) = self.silicon.write(self.cursor, self.pid, va, data);
            self.cursor = t2.done;
            return res2;
        }
        res
    }

    /// Executes an atomic through the synchronization unit.
    ///
    /// # Errors
    ///
    /// Propagates translation/permission failures.
    pub fn atomic(&mut self, va: u64, op: AtomicOp) -> Result<u64, Status> {
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
        let crossing = self.slow.crossing_delay();
        match self.slow.alloc(self.pid, size, perm, None) {
            Ok(out) => {
                for pte in &out.ptes {
                    self.silicon
                        .vm_mut()
                        .install_pte(*pte)
                        .expect("allocator pre-checked bucket space");
                }
                self.cursor = self.cursor + crossing + out.service + crossing;
                self.refill_async_buffer();
                Ok(out.range.start)
            }
            Err((status, service)) => {
                self.cursor = self.cursor + crossing + service + crossing;
                Err(status)
            }
        }
    }

    /// Keeps the fault handler's free-page buffer topped up (the board does
    /// the same after every request).
    fn refill_async_buffer(&mut self) {
        let demand = self.silicon.vm().async_buffer().refill_demand();
        if demand > 0 {
            let (pages, _service) = self.slow.refill_pages(demand);
            for p in pages {
                self.silicon.vm_mut().async_buffer_mut().push(p);
            }
        }
    }
}

/// Tiny helper so `compute` stays branch-free.
struct Cursor;
impl Cursor {
    fn cycles(cycle: SimDuration, c: Cycles) -> SimDuration {
        SimDuration::from_nanos(cycle.as_nanos().saturating_mul(c.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CBoardConfig;

    struct Env {
        silicon: Silicon,
        slow: SlowPath,
    }

    fn setup() -> Env {
        let cfg = CBoardConfig::test_small();
        let mut silicon = Silicon::new(cfg.hw.clone());
        let mut slow = SlowPath::new(&cfg);
        slow.create_as(Pid(900));
        // Prime the async buffer.
        let demand = silicon.vm().async_buffer().refill_demand();
        let (pages, _) = slow.refill_pages(demand);
        for p in pages {
            silicon.vm_mut().async_buffer_mut().push(p);
        }
        Env { silicon, slow }
    }

    #[test]
    fn offload_allocates_and_accesses_its_own_space() {
        let mut e = setup();
        let mut env = OffloadEnv::new(&mut e.silicon, &mut e.slow, Pid(900), SimTime::ZERO);
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
        let mut env = OffloadEnv::new(&mut e.silicon, &mut e.slow, Pid(900), SimTime::ZERO);
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
        let out = e.slow.alloc(Pid(1), 4096, Perm::RW, None).expect("client alloc");
        for pte in &out.ptes {
            e.silicon.vm_mut().install_pte(*pte).expect("install");
        }
        let client_va = out.range.start;
        let mut env = OffloadEnv::new(&mut e.silicon, &mut e.slow, Pid(900), SimTime::ZERO);
        assert_eq!(env.read(client_va, 8).unwrap_err(), Status::InvalidAddr);
    }

    #[test]
    fn atomics_work_in_offload_space() {
        let mut e = setup();
        let mut env = OffloadEnv::new(&mut e.silicon, &mut e.slow, Pid(900), SimTime::ZERO);
        let va = env.alloc(4096, Perm::RW).expect("alloc");
        assert_eq!(env.atomic(va, AtomicOp::Faa(5)).expect("faa"), 0);
        assert_eq!(env.atomic(va, AtomicOp::Faa(1)).expect("faa"), 5);
    }
}
