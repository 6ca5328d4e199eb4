//! Reusable load-generating client programs: async tasks over
//! [`ProcHandle`], spawned onto a cluster as one process each.
//!
//! A closed-loop window of W is W tasks sharing one op counter and one
//! [`OpRecorder`]; think time is `h.sleep`; alloc → warm → measure is
//! straight-line code. Every follow-up op is issued in the same sim event
//! as the completion that triggers it.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use clio_cn::Completion;
use clio_core::metrics::OpRecorder;
use clio_core::{Cluster, ProcHandle};
use clio_proto::{Perm, Pid};
use clio_sim::{SimDuration, SimRng, SimTime};

use clio_apps::kv::{partition_of, KvRequest};
use clio_apps::ycsb::{YcsbGenerator, YcsbOp};

/// A load's results, shared between its tasks and the bench that reads
/// them after the run.
pub type Recorder = Rc<RefCell<OpRecorder>>;

/// Spawns `program` as process `pid` on compute node `cn`, handing it a
/// fresh recorder to fill; returns that recorder.
pub fn spawn_recorded<Fut: Future<Output = ()> + 'static>(
    cluster: &mut Cluster,
    cn: usize,
    pid: Pid,
    program: impl FnOnce(ProcHandle, Recorder) -> Fut,
) -> Recorder {
    let rec = Rc::new(RefCell::new(OpRecorder::new(SimTime::ZERO)));
    cluster.spawn(cn, pid, |h| program(h, rec.clone()));
    rec
}

/// Files one completion of `bytes` payload under `rec`.
pub fn record(rec: &Recorder, c: &Completion, bytes: u64) {
    match &c.result {
        Ok(_) => rec.borrow_mut().record(c.completed_at, c.latency(), bytes),
        Err(_) => rec.borrow_mut().record_error(c.completed_at),
    }
}

/// The union of `recs`' measured windows: from the earliest end of warm-up
/// to the latest measured completion. Loads running side by side divide
/// their summed measured work by it.
pub fn measured_window(recs: &[Recorder]) -> SimDuration {
    let (mut from, mut to) = (SimTime::MAX, SimTime::ZERO);
    for rec in recs {
        let (start, end) = rec.borrow().window_bounds();
        (from, to) = (from.min(start), to.max(end));
    }
    to.since(from)
}

/// Allocates `pages` pages, warms each (fault + TLB) with a 1-byte write,
/// and restarts `rec`'s measurement window at the end of the warm-up.
pub async fn alloc_warm(h: &ProcHandle, pages: u64, page_size: u64, rec: &Recorder) -> u64 {
    let va = h.ralloc(pages * page_size, Perm::RW).await.va();
    for page in 0..pages {
        h.rwrite(va + page * page_size, Bytes::from_static(&[0u8])).await;
    }
    *rec.borrow_mut() = OpRecorder::new(h.now());
    va
}

/// What a memory-access load does per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMix {
    /// Only reads.
    Reads,
    /// Only writes.
    Writes,
}

/// A closed-loop (optionally windowed) read/write load generator.
///
/// Allocates `span_pages` of remote memory, warms every page, then runs
/// `ops` operations of `size` bytes round-robin over the pages with
/// `window` outstanding (1 = synchronous).
#[derive(Debug, Clone, Copy)]
pub struct MemLoad {
    /// Operation size in bytes.
    pub size: u32,
    /// Access mix.
    pub mix: AccessMix,
    /// Operations to run after warm-up.
    pub ops: u64,
    /// Outstanding window (1 = sync; >1 = the paper's async API).
    pub window: u32,
    /// Pages of remote memory to use.
    pub span_pages: u64,
    /// Page size (for span math).
    pub page_size: u64,
    /// Think time inserted before each op (models light offered load).
    pub think: SimDuration,
}

impl MemLoad {
    /// A load with the given shape and no think time.
    pub fn new(
        size: u32,
        mix: AccessMix,
        ops: u64,
        window: u32,
        span_pages: u64,
        page_size: u64,
    ) -> Self {
        MemLoad { size, mix, ops, window, span_pages, page_size, think: SimDuration::ZERO }
    }

    /// Claims the next op of the stream all window tasks share (`issued`
    /// counts the claims): its target in the region at `va` and, for a
    /// write, its payload. `None` once all `ops` are claimed.
    fn next_op(&self, va: u64, issued: &Cell<u64>) -> Option<(u64, Option<Bytes>)> {
        let i = issued.get();
        if i >= self.ops {
            return None;
        }
        issued.set(i + 1);
        // Keep the op inside one page.
        let max_off = self.page_size.saturating_sub(self.size as u64).max(1);
        let at = va + i % self.span_pages * self.page_size + i * 64 % max_off;
        let write = self.mix == AccessMix::Writes;
        Some((at, write.then(|| Bytes::from(vec![(i + 1) as u8; self.size as usize]))))
    }

    /// Spawns the load as process `pid` on compute node `cn`.
    pub fn spawn(self, cluster: &mut Cluster, cn: usize, pid: Pid) -> Recorder {
        spawn_recorded(cluster, cn, pid, move |h, rec| self.run(h, rec))
    }

    /// The load's program: allocates and warms its pages, then spawns the
    /// window's tasks on `h`, filing their ops under `rec`.
    pub async fn run(self, h: ProcHandle, rec: Recorder) {
        let va = alloc_warm(&h, self.span_pages, self.page_size, &rec).await;
        let issued = Rc::new(Cell::new(0));
        for _ in 0..u64::from(self.window).min(self.ops) {
            h.spawn(self.window_task(h.clone(), va, issued.clone(), rec.clone()));
        }
    }

    /// One slot of the window: keeps claiming and issuing the stream's
    /// next op until it runs dry.
    async fn window_task(self, h: ProcHandle, va: u64, issued: Rc<Cell<u64>>, rec: Recorder) {
        while issued.get() < self.ops {
            if !self.think.is_zero() {
                h.sleep(self.think).await;
            }
            let Some((at, data)) = self.next_op(va, &issued) else { break };
            let fut = match data {
                Some(data) => h.rwrite(at, data),
                None => h.rread(at, self.size),
            };
            record(&rec, &fut.await, self.size as u64);
        }
    }
}

/// A YCSB client over the Clio-KV offload, partitioned across MNs.
pub struct KvLoad {
    /// The operation stream.
    pub gen: YcsbGenerator,
    /// Keys to pre-load (sequentially, so every MN partition gets its
    /// records) before measuring.
    pub preload: u64,
    /// Operations to run.
    pub ops: u64,
    /// Outstanding window.
    pub window: u32,
    /// Offload id on every MN.
    pub offload_id: u16,
}

impl KvLoad {
    /// Spawns the load as process `pid` on compute node `cn`.
    pub fn spawn(self, cluster: &mut Cluster, cn: usize, pid: Pid) -> Recorder {
        let macs = cluster.mn_macs().to_vec();
        let KvLoad { gen, preload, ops, window, offload_id } = self;
        let value_size = gen.value_size() as u64;
        spawn_recorded(cluster, cn, pid, move |h, rec| async move {
            let key_of = |key: u64| format!("user{key:012}").into_bytes();
            let call = move |h: &ProcHandle, req: KvRequest| {
                let (KvRequest::Put { key, .. }
                | KvRequest::Get { key }
                | KvRequest::Delete { key }) = &req;
                let mn = macs[partition_of(key, macs.len())];
                h.roffload(mn, offload_id, req.opcode(), req.encode())
            };
            for key in 0..preload {
                let value = gen.value_for(key, 0);
                call(&h, KvRequest::Put { key: key_of(key), value }).await;
            }
            *rec.borrow_mut() = OpRecorder::new(h.now());
            // The window's tasks share the op stream and its budget.
            let stream = Rc::new(RefCell::new((gen, ops)));
            for _ in 0..u64::from(window.max(1)).min(ops) {
                let (h2, stream, rec, call) =
                    (h.clone(), stream.clone(), rec.clone(), call.clone());
                h.spawn(async move {
                    loop {
                        let req = {
                            let (gen, left) = &mut *stream.borrow_mut();
                            if *left == 0 {
                                break;
                            }
                            *left -= 1;
                            match gen.next_op() {
                                YcsbOp::Get { key } => KvRequest::Get { key: key_of(key) },
                                YcsbOp::Set { key, value } => {
                                    KvRequest::Put { key: key_of(key), value }
                                }
                            }
                        };
                        record(&rec, &call(&h2, req).await, value_size);
                    }
                });
            }
        })
    }
}

/// A synchronous load reading/writing a **pre-existing** remote range (used
/// by sweeps that install state directly, e.g. the Figure 5 PTE-aliasing
/// methodology). The first tenth of the ops (at least 4) is warm-up,
/// excluded from the results.
#[derive(Debug, Clone, Copy)]
pub struct RangeLoad {
    /// Base VA of the range (must already be mapped for the load's pid).
    pub base: u64,
    /// Pages in the range.
    pub pages: u64,
    /// Page size.
    pub page_size: u64,
    /// Operation size.
    pub size: u32,
    /// Access mix.
    pub mix: AccessMix,
    /// Operations to run.
    pub ops: u64,
    /// `Some(seed)`: uniform-random page selection from that seed; `None`:
    /// round-robin.
    pub random: Option<u64>,
}

impl RangeLoad {
    /// Spawns the load as process `pid` on compute node `cn`.
    pub fn spawn(self, cluster: &mut Cluster, cn: usize, pid: Pid) -> Recorder {
        let RangeLoad { base, pages, page_size, size, mix, ops, random } = self;
        let warmup = (ops / 10).clamp(4, ops);
        spawn_recorded(cluster, cn, pid, move |h, rec| async move {
            let mut rng = random.map(SimRng::new);
            for i in 0..ops {
                let page = rng.as_mut().map_or(i % pages, |rng| rng.range_u64(0, pages));
                let va = base + page * page_size;
                let c = match mix {
                    AccessMix::Reads => h.rread(va, size).await,
                    AccessMix::Writes => {
                        h.rwrite(va, Bytes::from(vec![i as u8; size as usize])).await
                    }
                };
                assert!(c.result.is_ok(), "range op failed: {:?}", c.result);
                if i >= warmup {
                    rec.borrow_mut().record(c.completed_at, c.latency(), size as u64);
                }
            }
        })
    }
}
