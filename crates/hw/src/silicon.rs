//! The assembled CBoard fast-path datapath.
//!
//! [`Silicon`] bundles the VM unit, physical memory, DRAM, the II=1 pipeline
//! admission gate, the DMA engine and the atomic-serialization unit, and
//! executes whole fast-path operations: every call returns the functional
//! result **and** an [`AccessTiming`] whose [`Breakdown`] mirrors the bars of
//! the paper's Figure 14 (TLB hit/miss time, DDR access, on-board
//! interconnect, etc.).
//!
//! Timing model (paper §5): `Silicon` times the datapath from the pipeline
//! gate through response generation. A request is admitted by the gate —
//! one 64 B flit per 250 MHz cycle, i.e. the 128 Gbps II=1 ceiling — then
//! flows through fixed-cycle parse/translate/respond stages, with DRAM and
//! the (non-pipelined) read-DMA engine as shared FCFS resources. `read`,
//! `write` and `atomic` take the instant the request reaches the gate and
//! return when the response is generated. The MAC/PHY crossings are not
//! charged here: only the board knows how a request was framed, so
//! `clio_mn`'s `CBoard` adds each access's ingress and egress crossings
//! around the call, and an offload's accesses, on-chip behind the
//! match-and-action table, pay none.

use std::ops::Range;

use bytes::{Bytes, BytesMut};
use clio_proto::{Perm, Pid, Status};
use clio_sim::resource::{PipelineGate, SerialResource};
use clio_sim::{Cycles, SimDuration, SimTime};
use clio_trace::metrics::{Metrics, Visit};
use clio_trace::Stage;

use crate::config::CBoardHwConfig;
use crate::dedup::DedupBuffer;
use crate::dram::DramModel;
use crate::memory::PhysMemory;
use crate::vm::VmUnit;

/// An atomic operation on one 8-byte word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// Test-and-set to 1; returns the old value (Clio's `rlock`).
    Tas,
    /// Unconditional store; returns the old value (Clio's `runlock`).
    Store(u64),
    /// Compare-and-swap; returns the old value.
    Cas {
        /// Expected current value.
        expected: u64,
        /// Replacement if matched.
        new: u64,
    },
    /// Fetch-and-add (wrapping); returns the old value.
    Faa(u64),
}

/// Per-stage time attribution for one request (Figure 14's bars).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// MAC + PHY crossings, ingress and egress. `Silicon` leaves this
    /// zero; the board adds the crossings its framing rule charges.
    pub mac_phy: SimDuration,
    /// Waiting for pipeline admission (II backpressure).
    pub admission_wait: SimDuration,
    /// Parse + MAT dispatch + response-generation cycles.
    pub pipeline_cycles: SimDuration,
    /// TLB lookup (and fault-handler) cycles.
    pub tlb: SimDuration,
    /// Page-table bucket fetches from DRAM (TLB-miss cost).
    pub pt_dram: SimDuration,
    /// On-board interconnect crossings.
    pub interconnect: SimDuration,
    /// Data movement to/from DRAM (including bus queueing).
    pub data_dram: SimDuration,
    /// Read-DMA engine wait + occupancy.
    pub dma: SimDuration,
}

impl Breakdown {
    /// Sum of all components (= time spent on the board).
    pub fn total(&self) -> SimDuration {
        self.mac_phy
            + self.admission_wait
            + self.pipeline_cycles
            + self.tlb
            + self.pt_dram
            + self.interconnect
            + self.data_dram
            + self.dma
    }

    /// The breakdown as typed trace stages, in the canonical stitch order
    /// used by the observability layer. Components sum to [`total`]
    /// (zero-width components are skipped by the tracer), so tiling these
    /// onto an op's timeline reproduces the board-resident latency exactly.
    ///
    /// [`total`]: Breakdown::total
    pub fn stage_components(&self) -> [(Stage, SimDuration); 8] {
        [
            (Stage::IngressMac, self.mac_phy),
            (Stage::PipelineWait, self.admission_wait),
            (Stage::Parse, self.pipeline_cycles),
            (Stage::Tlb, self.tlb),
            (Stage::PtWalk, self.pt_dram),
            (Stage::Interconnect, self.interconnect),
            (Stage::Dram, self.data_dram),
            (Stage::Dma, self.dma),
        ]
    }
}

/// When a request entered and left the board, with its stage attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessTiming {
    /// When the request reached the pipeline gate, as `Silicon` times it;
    /// the board moves it back to the arrival at the MAC when it charges an
    /// ingress crossing.
    pub arrived: SimTime,
    /// Completion: the response generated (past the egress MAC once the
    /// board has charged an egress crossing).
    pub done: SimTime,
    /// Stage attribution.
    pub breakdown: Breakdown,
    /// Whether the access page-faulted.
    pub page_fault: bool,
    /// Whether every touched page hit the TLB.
    pub all_tlb_hits: bool,
}

impl AccessTiming {
    /// Board-resident latency.
    pub fn latency(&self) -> SimDuration {
        self.done.since(self.arrived)
    }
}

clio_trace::counters! {
    /// Fast-path request counters.
    pub struct SiliconStats: "silicon" {
        /// Fast-path read requests served.
        reads,
        /// Fast-path write fragments served.
        writes,
        /// Atomics served.
        atomics,
        /// Payload bytes read.
        read_bytes,
        /// Payload bytes written.
        write_bytes,
    }
}

/// The CBoard datapath: functional state plus shared timing resources.
#[derive(Debug, Clone)]
pub struct Silicon {
    cfg: CBoardHwConfig,
    vm: VmUnit,
    mem: PhysMemory,
    dram: DramModel,
    gate: PipelineGate,
    dma: SerialResource,
    atomic_unit: SerialResource,
    dedup: DedupBuffer,
    /// The `(physical address, length)` segments of the access being
    /// executed, refilled by [`Silicon::translate_range`] (one buffer,
    /// reused across accesses).
    segs: Vec<(u64, u64)>,
    stats: SiliconStats,
}

/// `silicon.*`, the VM unit's `vm.*` and the TLB's `tlb.hits` /
/// `tlb.misses`.
impl Metrics for Silicon {
    fn counters(&self, f: &mut Visit<'_>) {
        self.stats.each(f);
        self.vm.stats().each(f);
        f("tlb.hits", self.vm.tlb().hits());
        f("tlb.misses", self.vm.tlb().misses());
    }
}

impl Silicon {
    /// Builds a board from its hardware configuration.
    pub fn new(cfg: CBoardHwConfig) -> Self {
        cfg.validate();
        Silicon {
            vm: VmUnit::new(&cfg),
            mem: PhysMemory::new(),
            dram: DramModel::new(cfg.dram_latency, cfg.dram_bandwidth),
            gate: PipelineGate::new(cfg.flit_time()),
            dma: SerialResource::new(),
            atomic_unit: SerialResource::new(),
            dedup: DedupBuffer::with_byte_budget(cfg.dedup_buffer_bytes),
            segs: Vec::new(),
            stats: SiliconStats::default(),
            cfg,
        }
    }

    /// The board's configuration.
    pub fn config(&self) -> &CBoardHwConfig {
        &self.cfg
    }

    /// The VM unit (slow path installs PTEs and refills the async buffer
    /// through this).
    pub fn vm_mut(&mut self) -> &mut VmUnit {
        &mut self.vm
    }

    /// The VM unit, read-only.
    pub fn vm(&self) -> &VmUnit {
        &self.vm
    }

    /// The retry-dedup buffer.
    pub fn dedup_mut(&mut self) -> &mut DedupBuffer {
        &mut self.dedup
    }

    /// The retry-dedup buffer, read-only.
    pub fn dedup(&self) -> &DedupBuffer {
        &self.dedup
    }

    /// Raw physical memory (offloads and migration use physical access).
    pub fn mem_mut(&mut self) -> &mut PhysMemory {
        &mut self.mem
    }

    /// Raw physical memory, read-only.
    pub fn mem(&self) -> &PhysMemory {
        &self.mem
    }

    /// Request counters.
    pub fn stats(&self) -> SiliconStats {
        self.stats
    }

    fn cycles(&self, c: Cycles) -> SimDuration {
        self.cfg.clock.cycles(c)
    }

    /// The one scaffold of every fast-path access, issued at the pipeline
    /// gate at `now`. The front end admits the request (a read request is
    /// one flit; a write or atomic carries its payload) and parses it;
    /// every page `[va, va + len)` touches is translated into `self.segs`;
    /// `execute` moves the data and returns the result and when it
    /// finished; the back end generates the response. A failed
    /// translation skips `execute`, and the response is generated from
    /// the translate stage's entry.
    fn access<T>(
        &mut self,
        now: SimTime,
        pid: Pid,
        va: u64,
        len: u64,
        perm: Perm,
        execute: impl FnOnce(&mut Self, SimTime, &mut Breakdown) -> (T, SimTime),
    ) -> (Result<T, Status>, AccessTiming) {
        let mut timing = AccessTiming {
            arrived: now,
            done: now,
            breakdown: Breakdown::default(),
            page_fault: false,
            all_tlb_hits: true,
        };
        let request_bytes = if perm == Perm::READ { 0 } else { len };
        let admitted = self.gate.admit(now, self.cfg.flits(request_bytes));
        timing.breakdown.admission_wait = admitted.since(now);
        timing.breakdown.pipeline_cycles = self.cycles(CBoardHwConfig::PARSE_CYCLES);
        let translating = admitted + timing.breakdown.pipeline_cycles;
        let (result, t) = match self.translate_range(translating, pid, va, len, perm, &mut timing) {
            Ok(t) => {
                let (value, t) = execute(self, t, &mut timing.breakdown);
                (Ok(value), t)
            }
            Err(status) => (Err(status), translating),
        };
        let respond = self.cycles(CBoardHwConfig::RESPONSE_CYCLES);
        timing.breakdown.pipeline_cycles += respond;
        timing.done = t + respond;
        (result, timing)
    }

    /// Translates every page a `[va, va+len)` access touches from `t`,
    /// accumulating its cost into `timing`. Leaves the access's
    /// `(physical_address, length)` segments in `self.segs` and returns the
    /// time after translation. The walks' TLB and page-table costs enter
    /// the breakdown only once every page has translated: a failed access
    /// answers from the translate stage's entry, so it is charged none of
    /// them. An atomic (`perm` [`Perm::RW`]) is one word's
    /// read-modify-write, so a word that crosses a page is refused before
    /// either page is translated.
    fn translate_range(
        &mut self,
        mut t: SimTime,
        pid: Pid,
        va: u64,
        len: u64,
        perm: Perm,
        timing: &mut AccessTiming,
    ) -> Result<SimTime, Status> {
        let page = self.cfg.page_size;
        let end = va.checked_add(len).ok_or(Status::InvalidAddr)?;
        if perm == Perm::RW && va % page > page - len {
            return Err(Status::InvalidAddr);
        }
        self.segs.clear();
        let (mut tlb, mut pt_dram) = (SimDuration::ZERO, SimDuration::ZERO);
        let mut addr = va;
        loop {
            let vpn = addr / page;
            let (res, walk) = self.vm.translate(t, &mut self.dram, pid, vpn, perm);
            tlb += self.cycles(walk.cycles);
            pt_dram += walk.pt_fetch;
            t = t + self.cycles(walk.cycles) + walk.pt_fetch;
            timing.page_fault |= walk.page_fault;
            timing.all_tlb_hits &= walk.tlb_hit;
            let tr = res?;
            if let Some(new_ppn) = tr.faulted {
                // Fresh page: contents must read as zero.
                self.mem.zero_range(new_ppn * page, page);
            }
            let seg_len = (page - addr % page).min(end - addr);
            self.segs.push((tr.ppn * page + addr % page, seg_len));
            addr += seg_len;
            if addr >= end {
                break;
            }
        }
        timing.breakdown.tlb += tlb;
        timing.breakdown.pt_dram += pt_dram;
        Ok(t)
    }

    /// Streams the translated segments through DRAM, every access issued
    /// at `t`; `copy` moves each segment's bytes, given its physical
    /// address and its byte range within the access. Returns when the last
    /// DRAM access ends.
    fn stream(
        &mut self,
        t: SimTime,
        mut copy: impl FnMut(&mut PhysMemory, u64, Range<usize>),
    ) -> SimTime {
        let mut done = t;
        let mut off = 0;
        for &(pa, len) in &self.segs {
            done = done.max(self.dram.access(t, len).end);
            copy(&mut self.mem, pa, off..off + len as usize);
            off += len as usize;
        }
        done
    }

    /// Fast-path read: translate, fetch from DRAM via the DMA engine, and
    /// form the response.
    pub fn read(
        &mut self,
        now: SimTime,
        pid: Pid,
        va: u64,
        len: u32,
    ) -> (Result<Bytes, Status>, AccessTiming) {
        self.access(now, pid, va, len.into(), Perm::READ, |s, t, b| {
            // One interconnect crossing to issue, one for data return.
            b.interconnect += s.cfg.interconnect_latency * 2;
            let t = t + s.cfg.interconnect_latency;
            let mut data = BytesMut::zeroed(len as usize);
            let dram_done = s.stream(t, |mem, pa, range| mem.read_into(pa, &mut data[range]));
            b.data_dram += dram_done.since(t);
            // The non-pipelined DMA engine serializes response payloads.
            let occupancy = s.cfg.dma_read_overhead + s.cfg.dma_bandwidth.transfer_time(len.into());
            let dma = s.dma.reserve(dram_done, occupancy);
            b.dma += dma.end.since(dram_done);
            s.stats.reads += 1;
            s.stats.read_bytes += u64::from(len);
            (data.freeze(), dma.end + s.cfg.interconnect_latency)
        })
    }

    /// Fast-path write of one fragment: translate and stream to DRAM.
    pub fn write(
        &mut self,
        now: SimTime,
        pid: Pid,
        va: u64,
        data: &[u8],
    ) -> (Result<(), Status>, AccessTiming) {
        let len = data.len() as u64;
        self.access(now, pid, va, len, Perm::WRITE, |s, t, b| {
            b.interconnect += s.cfg.interconnect_latency;
            let t = t + s.cfg.interconnect_latency;
            let dram_done = s.stream(t, |mem, pa, range| mem.write(pa, &data[range]));
            b.data_dram += dram_done.since(t);
            s.stats.writes += 1;
            s.stats.write_bytes += len;
            ((), dram_done)
        })
    }

    /// An atomic on the 8-byte word at `va`, serialized by the
    /// synchronization unit (§4.5 T3). Returns the word's previous value.
    /// A word that crosses a page is refused `InvalidAddr`; an unaligned
    /// word inside one page is served.
    pub fn atomic(
        &mut self,
        now: SimTime,
        pid: Pid,
        va: u64,
        op: AtomicOp,
    ) -> (Result<u64, Status>, AccessTiming) {
        self.access(now, pid, va, 8, Perm::RW, |s, t, b| {
            let (pa, _) = s.segs[0];
            // The atomic unit blocks later atomics until this completes:
            // a read-modify-write of one DRAM word.
            let unit = s.atomic_unit.reserve(t, s.dram.latency() * 2);
            b.data_dram += unit.end.since(t);
            b.interconnect += s.cfg.interconnect_latency;
            let old = s.mem.read_u64(pa);
            let new = match op {
                AtomicOp::Tas => 1,
                AtomicOp::Store(v) => v,
                AtomicOp::Cas { expected, new } => {
                    if old == expected {
                        new
                    } else {
                        old
                    }
                }
                AtomicOp::Faa(d) => old.wrapping_add(d),
            };
            s.mem.write_u64(pa, new);
            s.stats.atomics += 1;
            (old, unit.end + s.cfg.interconnect_latency)
        })
    }

    /// Physical-address read for offloads/migration (no translation; charged
    /// as DRAM accesses only).
    pub fn read_phys(&mut self, now: SimTime, pa: u64, len: usize) -> (Bytes, SimTime) {
        let r = self.dram.access(now, len as u64);
        (self.mem.read(pa, len), r.end)
    }

    /// Physical-address write for offloads/migration.
    pub fn write_phys(&mut self, now: SimTime, pa: u64, data: &[u8]) -> SimTime {
        let r = self.dram.access(now, data.len() as u64);
        self.mem.write(pa, data);
        r.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagetable::Pte;

    fn board() -> Silicon {
        let mut s = Silicon::new(CBoardHwConfig::test_small());
        // Give the fault handler pages 1..=8.
        for ppn in 1..=8 {
            s.vm_mut().async_buffer_mut().push(ppn);
        }
        s
    }

    fn map(s: &mut Silicon, pid: u64, vpn: u64, perm: Perm) {
        s.vm_mut()
            .install_pte(Pte { pid: Pid(pid), vpn, ppn: 0, perm, valid: false })
            .expect("install");
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn write_then_read_roundtrips_data() {
        let mut s = board();
        map(&mut s, 1, 0, Perm::RW);
        let (w, wt) = s.write(t0(), Pid(1), 100, b"disaggregate me");
        w.expect("write ok");
        assert!(wt.page_fault, "first touch faults");
        let (r, rt) = s.read(wt.done, Pid(1), 100, 15);
        assert_eq!(&r.expect("read ok")[..], b"disaggregate me");
        assert!(!rt.page_fault);
        assert!(rt.all_tlb_hits, "second access hits TLB");
        assert!(rt.done > rt.arrived);
    }

    #[test]
    fn read_of_untouched_page_faults_and_returns_zeroes() {
        let mut s = board();
        map(&mut s, 1, 0, Perm::RW);
        let (r, t) = s.read(t0(), Pid(1), 0, 64);
        assert!(r.expect("ok").iter().all(|&b| b == 0));
        assert!(t.page_fault);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut s = board();
        map(&mut s, 1, 0, Perm::RW);
        map(&mut s, 1, 1, Perm::RW);
        let page = s.config().page_size;
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let start = page - 100;
        s.write(t0(), Pid(1), start, &data).0.expect("write");
        let (r, _) = s.read(t0() + SimDuration::from_micros(10), Pid(1), start, 200);
        assert_eq!(&r.expect("read")[..], &data[..]);
    }

    #[test]
    fn unmapped_and_denied_accesses_fail() {
        let mut s = board();
        map(&mut s, 1, 0, Perm::READ);
        let (r, _) = s.read(t0(), Pid(1), 1 << 30, 8);
        assert_eq!(r.unwrap_err(), Status::InvalidAddr);
        let (w, _) = s.write(t0(), Pid(1), 0, b"x");
        assert_eq!(w.unwrap_err(), Status::PermDenied);
        // Errors still produce a response (timing exists).
    }

    #[test]
    fn tlb_miss_costs_one_dram_access() {
        let mut s = board();
        map(&mut s, 1, 0, Perm::RW);
        // Fault in and warm the TLB.
        s.write(t0(), Pid(1), 0, b"warm").0.expect("warm");
        let (_, hit) = s.read(SimTime::from_nanos(100_000), Pid(1), 0, 16);
        assert!(hit.all_tlb_hits);
        assert_eq!(hit.breakdown.pt_dram, SimDuration::ZERO);
        // Evict by filling the TLB with other pages? Cheaper: new pid page.
        map(&mut s, 1, 100, Perm::RW);
        let (_, miss) = s.read(SimTime::from_nanos(200_000), Pid(1), 100 * 4096, 16);
        assert!(!miss.all_tlb_hits);
        assert!(miss.breakdown.pt_dram >= s.config().dram_latency);
        assert!(miss.latency() > hit.latency(), "miss strictly slower");
    }

    #[test]
    fn page_fault_cost_is_three_cycles_not_milliseconds() {
        // A 1-entry TLB lets us force a miss on an already-valid page.
        let mut s = Silicon::new(CBoardHwConfig { tlb_entries: 1, ..CBoardHwConfig::test_small() });
        for ppn in 1..=4 {
            s.vm_mut().async_buffer_mut().push(ppn);
        }
        map(&mut s, 1, 0, Perm::RW);
        map(&mut s, 1, 1, Perm::RW);
        map(&mut s, 1, 2, Perm::RW);
        // Fault pages 0 and 1 in; page 1's access evicts page 0 from the TLB.
        s.write(t0(), Pid(1), 0, b"a").0.expect("fault 0");
        s.write(t0(), Pid(1), 4096, b"b").0.expect("fault 1");
        // TLB miss on a valid page (no fault).
        let (_, miss) = s.read(SimTime::from_nanos(100_000), Pid(1), 0, 16);
        assert!(!miss.all_tlb_hits && !miss.page_fault);
        // TLB miss + page fault on page 2.
        let (_, fault) = s.read(SimTime::from_nanos(200_000), Pid(1), 2 * 4096, 16);
        assert!(fault.page_fault);
        // Fault latency exceeds plain miss by ONLY the 3-cycle handler.
        let extra = fault.latency().as_nanos() as i64 - miss.latency().as_nanos() as i64;
        let three_cycles = s.config().clock.cycles(Cycles(3)).as_nanos() as i64;
        assert!(
            (extra - three_cycles).abs() <= 2,
            "fault extra cost {extra}ns != 3 cycles ({three_cycles}ns)"
        );
    }

    #[test]
    fn atomics_serialize_and_apply() {
        let mut s = board();
        map(&mut s, 1, 0, Perm::RW);
        let (old, _) = s.atomic(t0(), Pid(1), 0, AtomicOp::Tas);
        assert_eq!(old.expect("tas"), 0);
        let (old, _) = s.atomic(t0(), Pid(1), 0, AtomicOp::Tas);
        assert_eq!(old.expect("tas"), 1, "lock already held");
        let (old, _) = s.atomic(t0(), Pid(1), 0, AtomicOp::Store(0));
        assert_eq!(old.expect("store"), 1);
        let (old, _) = s.atomic(t0(), Pid(1), 0, AtomicOp::Faa(5));
        assert_eq!(old.expect("faa"), 0);
        let (old, _) = s.atomic(t0(), Pid(1), 0, AtomicOp::Cas { expected: 5, new: 9 });
        assert_eq!(old.expect("cas"), 5);
        let (old, _) = s.atomic(t0(), Pid(1), 0, AtomicOp::Faa(0));
        assert_eq!(old.expect("read back"), 9, "cas stored the new value");
        let (old, _) = s.atomic(t0(), Pid(1), 0, AtomicOp::Cas { expected: 5, new: 1 });
        assert_eq!(old.expect("cas"), 9, "failed cas leaves the value");
        s.atomic(t0(), Pid(1), 0, AtomicOp::Store(0)).0.expect("reset");

        // Two atomics at the same instant: the second's completion is pushed
        // behind the first by the atomic unit.
        let (_, a) = s.atomic(t0(), Pid(1), 0, AtomicOp::Faa(1));
        let (_, b) = s.atomic(t0(), Pid(1), 0, AtomicOp::Faa(1));
        assert!(b.done > a.done);
    }

    /// A word that crosses a page spans two physical frames, which need
    /// not be adjacent: the atomic is refused before either page is
    /// translated, rather than writing past the first frame into whatever
    /// follows it.
    #[test]
    fn an_atomic_word_that_crosses_a_page_is_refused() {
        let mut s = board();
        let page = s.config().page_size;
        for (pid, vpn, ppn) in [(1, 0, 5), (1, 1, 2), (2, 0, 6)] {
            let pte = Pte { pid: Pid(pid), vpn, ppn, perm: Perm::RW, valid: true };
            s.vm_mut().install_pte(pte).expect("install");
        }
        let (res, _) = s.atomic(t0(), Pid(1), page - 4, AtomicOp::Faa(u64::MAX >> 8));
        assert_eq!(res, Err(Status::InvalidAddr));
        assert_eq!(s.read(t0(), Pid(2), 0, 8).0.expect("pid 2").as_ref(), [0; 8]);
        assert_eq!(s.read(t0(), Pid(1), page - 4, 8).0.expect("pid 1").as_ref(), [0; 8]);

        // Neither page of an unfaulted pair faults in.
        map(&mut s, 3, 0, Perm::RW);
        map(&mut s, 3, 1, Perm::RW);
        let translations = s.vm().stats().translations;
        let (res, t) = s.atomic(t0(), Pid(3), 2 * page - 1, AtomicOp::Tas);
        assert_eq!(res, Err(Status::InvalidAddr));
        assert!(!t.page_fault);
        assert_eq!(s.vm().stats().translations, translations);

        // An unaligned word inside one page is still served.
        assert_eq!(s.atomic(t0(), Pid(1), page - 8, AtomicOp::Faa(7)).0, Ok(0));
        assert_eq!(s.atomic(t0(), Pid(1), 3, AtomicOp::Faa(1)).0, Ok(0));
        assert_eq!(s.read(t0(), Pid(1), page - 8, 8).0.expect("r").as_ref(), 7u64.to_le_bytes());
    }

    #[test]
    fn pipeline_gate_enforces_ii_one() {
        let mut s = board();
        map(&mut s, 1, 0, Perm::RW);
        s.write(t0(), Pid(1), 0, b"warm").0.expect("warm");
        // Two 1-flit reads arriving together: admission spaced by 1 flit.
        let t = SimTime::from_nanos(50_000);
        let (_, a) = s.read(t, Pid(1), 0, 16);
        let (_, b) = s.read(t, Pid(1), 0, 16);
        let spacing = b.done.since(a.done);
        assert!(spacing >= s.config().flit_time(), "requests must be spaced by at least one flit");
        assert_eq!(b.breakdown.admission_wait, s.config().flit_time());
    }

    #[test]
    fn faulted_page_reads_zero_even_after_recycling() {
        let mut s = board();
        map(&mut s, 1, 0, Perm::RW);
        // Dirty physical page 1 via physical write, then fault it in.
        let page = s.config().page_size;
        s.write_phys(t0(), page, b"stale garbage");
        let (r, t) = s.read(t0(), Pid(1), 0, 13);
        assert!(t.page_fault);
        assert!(r.expect("ok").iter().all(|&b| b == 0), "faulted page must be zeroed");
    }

    #[test]
    fn stage_components_tile_the_breakdown_exactly() {
        let mut s = board();
        map(&mut s, 1, 0, Perm::RW);
        for (label, t) in [
            ("write", s.write(t0(), Pid(1), 0, b"abcd").1),
            ("read", s.read(SimTime::from_nanos(50_000), Pid(1), 0, 4).1),
            ("atomic", s.atomic(SimTime::from_nanos(100_000), Pid(1), 8, AtomicOp::Faa(1)).1),
            // A failed translation answers from the translate stage's
            // entry, and its walk is not charged.
            ("unmapped read", s.read(SimTime::from_nanos(150_000), Pid(1), 1 << 30, 4).1),
        ] {
            let sum: SimDuration = t.breakdown.stage_components().iter().map(|&(_, d)| d).sum();
            assert_eq!(sum, t.breakdown.total(), "{label}: components must sum to total");
            assert_eq!(
                t.breakdown.total(),
                t.latency(),
                "{label}: breakdown must account for the full board-resident latency"
            );
        }
    }

    #[test]
    fn walk_sees_live_counters() {
        let mut s = board();
        map(&mut s, 1, 0, Perm::RW);
        s.write(t0(), Pid(1), 0, b"abcd").0.expect("w");
        s.read(t0(), Pid(1), 0, 4).0.expect("r");
        let mut seen = std::collections::BTreeMap::new();
        s.counters(&mut |name, v| assert!(seen.insert(name, v).is_none(), "{name} twice"));
        assert_eq!(seen["silicon.writes"], 1);
        assert_eq!(seen["silicon.read_bytes"], 4);
        assert_eq!(seen["vm.translations"], s.vm().stats().translations);
        assert_eq!(seen["tlb.hits"] + seen["tlb.misses"], 2);
    }

    #[test]
    fn a_clone_counts_and_stores_on_its_own() {
        let mut s = board();
        map(&mut s, 1, 0, Perm::RW);
        s.write(t0(), Pid(1), 0, b"abcd").0.expect("w");
        let mut copy = s.clone();
        copy.write(t0(), Pid(1), 0, b"wxyz").0.expect("w");
        assert_eq!((s.stats().writes, copy.stats().writes), (1, 2));
        assert_eq!(s.read(t0(), Pid(1), 0, 4).0.expect("r").as_ref(), b"abcd");
        assert_eq!(copy.read(t0(), Pid(1), 0, 4).0.expect("r").as_ref(), b"wxyz");
    }

    #[test]
    fn stats_accumulate() {
        let mut s = board();
        map(&mut s, 1, 0, Perm::RW);
        s.write(t0(), Pid(1), 0, b"abcd").0.expect("w");
        s.read(t0(), Pid(1), 0, 4).0.expect("r");
        s.atomic(t0(), Pid(1), 8, AtomicOp::Faa(1)).0.expect("a");
        let st = s.stats();
        assert_eq!((st.reads, st.writes, st.atomics), (1, 1, 1));
        assert_eq!(st.read_bytes, 4);
        assert_eq!(st.write_bytes, 4);
    }
}
