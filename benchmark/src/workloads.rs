//! The data-path workloads: cluster shape, client tasks, the host-side
//! shadow every read is checked against, and the round loop.
//!
//! A run is a sequence of *rounds* of fixed virtual length. What a round
//! contains is a function of the seed alone; how many rounds fit into the
//! measured wall-clock time is the only thing the host's speed decides.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use clio_cn::{CLibConfig, ClioError, CompletionValue};
use clio_core::exec::openloop::{ArrivalGen, ArrivalProcess};
use clio_core::{AppCompletion, Cluster, ClusterConfig, ProcHandle};
use clio_mn::CBoardConfig;
use clio_net::FaultInjector;
use clio_proto::{Perm, Pid};
use clio_sim::{SimDuration, SimRng, SimTime};

use clio_trace::OpTrace;

use crate::layers::StageSums;
use crate::stats::Population;

/// Page size of the benchmark cluster (the repo's bench geometry).
pub const PAGE: u64 = 4096;
/// TLB entries of the benchmark board.
pub const TLB_ENTRIES: usize = 4096;

/// How clients offer load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// `tasks_per_cn` tasks per CN, each issuing its next op when the
    /// previous one completes. `shared` tasks pick pages from the whole CN
    /// region; otherwise each task owns a private slice of it.
    Closed { tasks_per_cn: u64, shared: bool },
    /// Poisson arrivals at `rate_per_cn` ops per virtual second per CN, one
    /// task per arrival, latency timed from the due instant.
    Open { rate_per_cn: f64 },
}

/// How a client chooses between reading and writing.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// Each op is a read with probability `reads / (reads + 1)`.
    Drawn { reads: u64 },
    /// Each task alternates read, write, read, … like a copy loop, so both
    /// directions of the MN's full-duplex port stay loaded.
    Alternating,
}

/// One workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub cns: usize,
    pub load: Load,
    /// Smallest and largest op size; sizes are drawn uniformly in 8 B steps.
    pub op_bytes: (u64, u64),
    pub mix: Mix,
    pub pages_per_cn: u64,
    pub faults: Option<FaultInjector>,
    pub max_retries: u32,
    /// Virtual length of one round.
    pub round: SimDuration,
}

/// Rounds run before measuring, so TLB, srtt/doorbell EWMAs and allocators
/// are settled.
const WARMUP_ROUNDS: u32 = 8;

/// The five data-path workloads (`README.md` records why each was chosen).
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "sync_small",
        cns: 1,
        load: Load::Closed { tasks_per_cn: 1, shared: false },
        op_bytes: (8, 24),
        mix: Mix::Drawn { reads: 2 },
        pages_per_cn: 64,
        faults: None,
        max_retries: 3,
        round: SimDuration::from_micros(20_000),
    },
    Spec {
        name: "async_small",
        cns: 2,
        load: Load::Closed { tasks_per_cn: 64, shared: false },
        op_bytes: (64, 64),
        mix: Mix::Drawn { reads: 2 },
        pages_per_cn: 2048,
        faults: None,
        max_retries: 3,
        round: SimDuration::from_micros(1_000),
    },
    Spec {
        name: "large_rw",
        cns: 2,
        load: Load::Closed { tasks_per_cn: 16, shared: false },
        op_bytes: (3968, 4096),
        mix: Mix::Alternating,
        pages_per_cn: 1024,
        faults: None,
        max_retries: 3,
        round: SimDuration::from_micros(15_000),
    },
    Spec {
        name: "offpath_mix",
        cns: 4,
        load: Load::Closed { tasks_per_cn: 16, shared: true },
        op_bytes: (256, 256),
        mix: Mix::Drawn { reads: 2 },
        pages_per_cn: 2 * TLB_ENTRIES as u64 / 4,
        faults: Some(FaultInjector {
            loss_prob: 0.002,
            corrupt_prob: 0.03,
            jitter: SimDuration::ZERO,
            corrupt_next: 0,
        }),
        max_retries: 8,
        round: SimDuration::from_micros(4_000),
    },
    Spec {
        name: "openloop_tasks",
        cns: 2,
        load: Load::Open { rate_per_cn: 7.5e6 },
        op_bytes: (64, 64),
        mix: Mix::Drawn { reads: 2 },
        pages_per_cn: 2048,
        faults: None,
        max_retries: 3,
        round: SimDuration::from_micros(1_000),
    },
];

/// What the client tasks record. Shared by every task of a run (the
/// simulation is one thread; tasks only run inside it).
#[derive(Debug, Default)]
pub struct Recorder {
    round_reads: Vec<u64>,
    round_writes: Vec<u64>,
    /// Read latencies of the measured rounds, ns.
    pub reads: Population,
    /// Write latencies of the measured rounds, ns.
    pub writes: Population,
    /// Payload bytes of successful ops (headers and retransmissions are
    /// not payload).
    pub payload_bytes: u64,
    /// Ops that finished, successfully or not.
    pub finished: u64,
    /// Ops that ended in an error, by error type.
    pub failed: BTreeMap<&'static str, u64>,
    /// Reads whose data disagreed with the shadow.
    pub mismatches: u64,
    /// Tasks the benchmark spawned.
    pub spawned: u64,
    /// Largest delay between an arrival's due instant and the instant its
    /// task was spawned.
    pub max_arrival_lag: SimDuration,
    /// CNs whose region is allocated and populated.
    ready_cns: usize,
}

impl Recorder {
    fn complete(&mut self, is_read: bool, c: &AppCompletion, payload: u64) {
        self.finished += 1;
        match &c.result {
            Ok(_) => {
                let ns = c.latency().as_nanos();
                if is_read { &mut self.round_reads } else { &mut self.round_writes }.push(ns);
                self.payload_bytes += payload;
            }
            Err(e) => *self.failed.entry(error_kind(e)).or_insert(0) += 1,
        }
    }

    /// Ops that ended in an error.
    pub fn failed_total(&self) -> u64 {
        self.failed.values().sum()
    }

    /// Moves the round's samples into the pooled populations.
    fn end_round(&mut self) {
        self.reads.absorb(&mut self.round_reads);
        self.writes.absorb(&mut self.round_writes);
        self.round_reads.clear();
        self.round_writes.clear();
    }
}

fn error_kind(e: &ClioError) -> &'static str {
    match e {
        ClioError::Remote(_) => "remote",
        ClioError::TimedOut { .. } => "timed_out",
        ClioError::Unreachable { .. } => "unreachable",
        ClioError::DeadlineExceeded => "deadline_exceeded",
        ClioError::Moved => "moved",
        ClioError::SpansOwners { .. } => "spans_owners",
        ClioError::InvalidHandle => "invalid_handle",
    }
}

/// Every 8-byte word the benchmark writes names its own position (word
/// index in the CN's region, high 40 bits) and the write that produced it
/// (nonce, low 24 bits). A read that lands on the wrong address, returns a
/// stale version, or mixes two writes cannot pass.
fn stamp(word: u64, nonce: u64) -> u64 {
    (word << 24) | (nonce & 0xFF_FFFF)
}

fn payload(first_word: u64, words: u64, nonce: u64) -> Bytes {
    let mut buf = Vec::with_capacity(words as usize * 8);
    for w in first_word..first_word + words {
        buf.extend_from_slice(&stamp(w, nonce).to_le_bytes());
    }
    Bytes::from(buf)
}

/// Whether `data` is what `shadow` (one stamp per 8 bytes) says the read
/// must return; with `exact` off only each word's position half is compared.
fn matches_shadow(data: &[u8], shadow: &[u64], exact: bool) -> bool {
    let mask = if exact { u64::MAX } else { !0xFF_FFFF };
    data.len() == shadow.len() * 8
        && data.chunks_exact(8).zip(shadow).all(|(got, want)| {
            let got = u64::from_le_bytes(got.try_into().expect("8-byte chunk"));
            got & mask == want & mask
        })
}

/// One CN's region and the state its tasks share.
struct CnCtx {
    spec: Spec,
    base: u64,
    /// Word-for-word copy of what the region must hold. Exact for private
    /// pages and unique slots; with shared pages concurrent writers race,
    /// so only the position half of each word is checked.
    shadow: RefCell<Vec<u64>>,
    rec: Rc<RefCell<Recorder>>,
    stop: Rc<Cell<bool>>,
}

impl CnCtx {
    fn exact(&self) -> bool {
        !matches!(self.spec.load, Load::Closed { shared: true, .. })
    }

    /// Issues one read or write at `offset` into the region, checks what a
    /// read returns against the shadow, and records the outcome. `turn`
    /// counts the caller's ops.
    async fn one_op(
        &self,
        h: &ProcHandle,
        rng: &mut SimRng,
        offset: u64,
        turn: u64,
        due: Option<SimTime>,
    ) {
        let (lo, hi) = self.spec.op_bytes;
        let len = lo + 8 * rng.range_u64(0, (hi - lo) / 8 + 1);
        let (first, words) = (offset / 8, len / 8);
        let is_read = match self.spec.mix {
            Mix::Drawn { reads } => rng.range_u64(0, reads + 1) < reads,
            Mix::Alternating => turn.is_multiple_of(2),
        };
        let va = self.base + offset;
        let nonce = rng.u64();
        let mut op = if is_read {
            h.rread(va, len as u32)
        } else {
            h.rwrite(va, payload(first, words, nonce))
        };
        if let Some(due) = due {
            op = op.arriving_at(due);
        }
        let c = op.await;
        let mut rec = self.rec.borrow_mut();
        rec.complete(is_read, &c, len);
        let range = first as usize..(first + words) as usize;
        match (&c.result, is_read) {
            (Ok(CompletionValue::Data(data)), true) => {
                let shadow = self.shadow.borrow();
                let ok = matches_shadow(data, &shadow[range], self.exact());
                rec.mismatches += u64::from(!ok);
            }
            (Ok(_), true) => rec.mismatches += 1,
            (Ok(_), false) => {
                let mut shadow = self.shadow.borrow_mut();
                for (w, cell) in (first..).zip(&mut shadow[range]) {
                    *cell = stamp(w, nonce);
                }
            }
            (Err(_), _) => {}
        }
    }
}

/// The root task of one CN: allocate, populate every page through the
/// write (page-fault) path, then offer the workload's load until stopped.
async fn cn_main(
    h: ProcHandle,
    spec: Spec,
    mut rng: SimRng,
    rec: Rc<RefCell<Recorder>>,
    stop: Rc<Cell<bool>>,
) {
    let bytes = spec.pages_per_cn * PAGE;
    let base = h.ralloc(bytes, Perm::RW).await.va();
    let words_per_page = PAGE / 8;
    for page in 0..spec.pages_per_cn {
        let c =
            h.rwrite(base + page * PAGE, payload(page * words_per_page, words_per_page, 0)).await;
        assert!(c.result.is_ok(), "populating page {page} failed: {:?}", c.result);
    }
    let shadow = (0..bytes / 8).map(|w| stamp(w, 0)).collect();
    let ctx = Rc::new(CnCtx { spec, base, shadow: RefCell::new(shadow), rec, stop });
    ctx.rec.borrow_mut().ready_cns += 1;

    let slot = spec.op_bytes.1;
    let slots_per_page = PAGE / slot;
    match spec.load {
        Load::Closed { tasks_per_cn, shared } => {
            let pages_per_task =
                if shared { spec.pages_per_cn } else { spec.pages_per_cn / tasks_per_cn };
            for task in 0..tasks_per_cn {
                let first_page = if shared { 0 } else { task * pages_per_task };
                let (h2, ctx, mut rng) = (h.clone(), ctx.clone(), rng.fork());
                ctx.rec.borrow_mut().spawned += 1;
                h.spawn(async move {
                    for turn in task.. {
                        if ctx.stop.get() {
                            break;
                        }
                        let page = first_page + rng.range_u64(0, pages_per_task);
                        let offset = page * PAGE + rng.range_u64(0, slots_per_page) * slot;
                        ctx.one_op(&h2, &mut rng, offset, turn, None).await;
                    }
                });
            }
        }
        Load::Open { rate_per_cn } => {
            // Arrival k goes to page k mod pages, and to the next slot of the
            // page on every lap: no two ops in flight share a slot, so the
            // shadow stays exact, or a page, so CLib's page-granular ordering
            // (which would serialize them) stays out of the measured tail.
            let mut arrivals = ArrivalGen::new(ArrivalProcess::poisson(rate_per_cn), rng.u64());
            let mut due = h.now();
            for k in 0u64.. {
                due = arrivals.next_arrival(due);
                h.sleep(due.since(h.now())).await;
                if ctx.stop.get() {
                    break;
                }
                let (h2, ctx, mut rng) = (h.clone(), ctx.clone(), rng.fork());
                {
                    let mut rec = ctx.rec.borrow_mut();
                    rec.spawned += 1;
                    rec.max_arrival_lag = rec.max_arrival_lag.max(h.now().since(due));
                }
                let (page, lap) = (k % spec.pages_per_cn, k / spec.pages_per_cn);
                let offset = page * PAGE + lap % slots_per_page * slot;
                h.spawn(async move { ctx.one_op(&h2, &mut rng, offset, k, Some(due)).await });
            }
        }
    }
}

/// One finished round.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Wall-clock time the simulator took for it.
    pub host: Duration,
    /// Ops that finished in it.
    pub ops: u64,
    /// Engine events it dispatched.
    pub events: u64,
}

/// A cluster with its clients running.
pub struct Instance {
    pub spec: Spec,
    pub cluster: Cluster,
    pub rec: Rc<RefCell<Recorder>>,
    stop: Rc<Cell<bool>>,
    /// Executor driver index on each CN.
    pub drivers: Vec<usize>,
    /// Per-stage virtual time of the sampled ops (traced instances only).
    pub stages: StageSums,
    /// The first sampled traces of the measured rounds, for export.
    pub kept_traces: Vec<OpTrace>,
    /// Most submitters found parked on any CN at a round boundary.
    pub peak_parked: u64,
}

/// Sampled traces kept for the Perfetto export.
const KEPT_TRACES: usize = 2_000;

impl Instance {
    /// Builds the cluster, allocates and populates every CN's region and
    /// runs the warm-up rounds, so TLB, srtt/doorbell EWMAs and allocators
    /// are settled. `trace_every` turns on span sampling.
    pub fn set_up(spec: Spec, seed: u64, trace_every: Option<u64>) -> Instance {
        let mut cfg = ClusterConfig::testbed();
        cfg.seed = seed;
        cfg.cns = spec.cns;
        cfg.mns = 1;
        cfg.clib = CLibConfig { max_retries: spec.max_retries, ..CLibConfig::prototype() };
        cfg.board = CBoardConfig::test_small();
        cfg.board.hw.phys_mem_bytes = 64 << 20;
        cfg.board.hw.tlb_entries = TLB_ENTRIES;
        cfg.trace_sample_every = trace_every;
        let mut cluster = Cluster::build(&cfg);
        if let Some(faults) = spec.faults {
            let mn = cluster.mn_macs()[0];
            cluster.net.set_faults(&mut cluster.sim, mn, faults);
        }

        let rec = Rc::new(RefCell::new(Recorder::default()));
        let stop = Rc::new(Cell::new(false));
        let mut rng = SimRng::new(seed);
        let drivers = (0..spec.cns)
            .map(|cn| {
                let (rng, rec, stop) = (rng.fork(), rec.clone(), stop.clone());
                cluster.spawn(cn, Pid(100 + cn as u64), move |h| cn_main(h, spec, rng, rec, stop))
            })
            .collect();
        cluster.start();

        let mut me = Instance {
            spec,
            cluster,
            rec,
            stop,
            drivers,
            stages: StageSums::default(),
            kept_traces: Vec::new(),
            peak_parked: 0,
        };
        while me.rec.borrow().ready_cns < spec.cns {
            me.cluster.run_for(spec.round);
        }
        for _ in 0..WARMUP_ROUNDS {
            me.cluster.run_for(spec.round);
        }
        let fresh = Recorder { ready_cns: spec.cns, ..Recorder::default() };
        let warm_up = std::mem::replace(&mut *me.rec.borrow_mut(), fresh);
        assert_eq!(
            warm_up.failed_total() + warm_up.mismatches,
            0,
            "warm-up failed: {:?}",
            warm_up.failed
        );
        me.cluster.take_traces();
        me
    }

    /// Runs one round and pools what the clients recorded in it.
    pub fn run_round(&mut self) -> Round {
        let finished_before = self.rec.borrow().finished;
        let events_before = self.cluster.sim.events_dispatched();
        let started = Instant::now();
        self.cluster.run_for(self.spec.round);
        let host = started.elapsed();
        let ops = {
            let mut rec = self.rec.borrow_mut();
            rec.end_round();
            rec.finished - finished_before
        };
        let traces = self.cluster.take_traces();
        self.stages.absorb(&traces);
        let room = KEPT_TRACES - self.kept_traces.len();
        self.kept_traces.extend(traces.into_iter().take(room));
        for cn in 0..self.spec.cns {
            let parked = self.cluster.registry().gauge(&format!("cn{cn}.runtime.parked"));
            self.peak_parked = self.peak_parked.max(parked.expect("runtime gauges are registered"));
        }
        Round { host, ops, events: self.cluster.sim.events_dispatched() - events_before }
    }

    /// Stops the clients and runs the simulation dry, so every task ends
    /// and the executor's tasks (which hold handles to it) are freed.
    pub fn shut_down(mut self) {
        self.stop.set(true);
        self.cluster.run_until_idle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_check_catches_stale_misplaced_and_short_reads() {
        let shadow: Vec<u64> = (40..44).map(|w| stamp(w, 7)).collect();
        assert!(matches_shadow(&payload(40, 4, 7), &shadow, true));
        // A stale version passes only the position check.
        assert!(!matches_shadow(&payload(40, 4, 6), &shadow, true));
        assert!(matches_shadow(&payload(40, 4, 6), &shadow, false));
        // Data of another address fails both, as does a short read.
        assert!(!matches_shadow(&payload(41, 4, 7), &shadow, false));
        assert!(!matches_shadow(&payload(40, 3, 7), &shadow, true));
    }

    /// Two set-ups from one seed run the same simulation; another seed does
    /// not. (Debug builds are slow: the smallest workload, two rounds.)
    #[test]
    fn a_seed_fixes_the_run() {
        let run = |seed| {
            let mut inst = Instance::set_up(SPECS[0], seed, None);
            let ops: u64 = (0..2).map(|_| inst.run_round().ops).sum();
            let digest = inst.cluster.sim.digest();
            let rec = inst.rec.borrow();
            assert_eq!((rec.mismatches, rec.failed_total()), (0, 0));
            assert_eq!((rec.reads.len() + rec.writes.len(), rec.finished), (ops, ops));
            (digest, ops, rec.payload_bytes)
        };
        let (first, again, other) = (run(11), run(11), run(12));
        assert_eq!(first, again);
        assert_ne!(first, other);
    }
}
