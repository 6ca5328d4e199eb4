//! Reusable load-generating client programs: async tasks over
//! [`ProcHandle`], spawned onto a cluster as one process each.
//!
//! A closed-loop window of W is W tasks sharing one op counter and one
//! [`OpRecorder`]; think time is `h.sleep`; alloc → warm → measure is
//! straight-line code. Every follow-up op is issued in the same sim event
//! as the completion that triggers it.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use clio_core::metrics::OpRecorder;
use clio_core::{AppCompletion, Cluster, OpFuture, ProcHandle};
use clio_proto::{Perm, Pid};
use clio_sim::{SimDuration, SimRng, SimTime};

use clio_apps::kv::{partition_of, KvRequest};
use clio_apps::ycsb::{YcsbGenerator, YcsbOp};

/// A load's results, shared between its tasks and the bench that reads
/// them after the run.
pub type Recorder = Rc<RefCell<OpRecorder>>;

fn recorder() -> Recorder {
    Rc::new(RefCell::new(OpRecorder::new(SimTime::ZERO)))
}

/// Files one completion of `bytes` payload under `rec`.
fn record(rec: &Recorder, c: &AppCompletion, bytes: u64) {
    match &c.result {
        Ok(_) => rec.borrow_mut().record(c.completed_at, c.latency(), bytes),
        Err(_) => rec.borrow_mut().record_error(c.completed_at),
    }
}

/// Allocates `pages` pages, warms each (fault + TLB) with a 1-byte write,
/// and restarts `rec`'s measurement window at the end of the warm-up.
async fn alloc_warm(h: &ProcHandle, pages: u64, page_size: u64, rec: &Recorder) -> u64 {
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
    /// Read/write alternating.
    Alternate,
}

/// A closed-loop (optionally windowed) read/write load generator.
///
/// Allocates `span_pages` of remote memory, warms every page, then runs
/// `ops` operations of `size` bytes with `window` outstanding (1 =
/// synchronous), optionally uniform-random over the span, with optional
/// per-op think time.
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
    /// Uniform-random page selection (vs. round-robin).
    pub random: bool,
    /// Seed of the page-selection stream.
    pub seed: u64,
    /// Think time inserted before each op (models light offered load).
    pub think: SimDuration,
    /// Refill the window through the scatter/gather API (`rread_v`/
    /// `rwrite_v`) instead of per-op submissions.
    pub scatter_gather: bool,
}

/// The op stream one [`MemLoad`]'s window tasks draw from, in issue order —
/// the single source of truth for both submit paths, so the scalar and
/// scatter/gather series measure the same workload.
struct MemOps {
    load: MemLoad,
    va: u64,
    issued: u64,
    rng: SimRng,
}

impl MemOps {
    /// The next operation's target and (for a write) payload; `None` once
    /// all `ops` are issued.
    fn next(&mut self) -> Option<(u64, Option<Bytes>)> {
        let MemLoad { size, mix, ops, span_pages, page_size, random, .. } = self.load;
        if self.issued >= ops {
            return None;
        }
        let page =
            if random { self.rng.range_u64(0, span_pages) } else { self.issued % span_pages };
        // Keep the op inside one page.
        let max_off = page_size.saturating_sub(size as u64).max(1);
        let va = self.va + page * page_size + self.issued * 64 % max_off;
        self.issued += 1;
        let write = match mix {
            AccessMix::Reads => false,
            AccessMix::Writes => true,
            AccessMix::Alternate => self.issued.is_multiple_of(2),
        };
        Some((va, write.then(|| Bytes::from(vec![self.issued as u8; size as usize]))))
    }
}

impl MemLoad {
    /// A load with the given shape; measurement starts after warm-up.
    #[allow(clippy::too_many_arguments)] // a config surface, built once per bench
    pub fn new(
        size: u32,
        mix: AccessMix,
        ops: u64,
        window: u32,
        span_pages: u64,
        page_size: u64,
        random: bool,
        seed: u64,
    ) -> Self {
        MemLoad {
            size,
            mix,
            ops,
            window: window.max(1),
            span_pages: span_pages.max(1),
            page_size,
            random,
            seed,
            think: SimDuration::ZERO,
            scatter_gather: false,
        }
    }

    /// Switches the load to the explicit scatter/gather submit path.
    pub fn with_scatter_gather(mut self) -> Self {
        self.scatter_gather = true;
        self
    }

    /// Spawns the load as process `pid` on compute node `cn`.
    pub fn spawn(self, cluster: &mut Cluster, cn: usize, pid: Pid) -> Recorder {
        let rec = recorder();
        let out = rec.clone();
        cluster.spawn(cn, pid, move |h| async move {
            let va = alloc_warm(&h, self.span_pages, self.page_size, &out).await;
            let ops = Rc::new(RefCell::new(MemOps {
                load: self,
                va,
                issued: 0,
                rng: SimRng::new(self.seed),
            }));
            let window = u64::from(self.window).min(self.ops);
            // The first window: one W-entry vector per op kind in
            // scatter/gather mode, W independent submissions otherwise.
            let mut first: Vec<Option<OpFuture>> = (0..window).map(|_| None).collect();
            if self.scatter_gather {
                let (mut reads, mut writes) = (Vec::new(), Vec::new());
                for _ in 0..window {
                    match ops.borrow_mut().next().expect("window <= ops") {
                        (va, Some(data)) => writes.push((va, data)),
                        (va, None) => reads.push((va, self.size)),
                    }
                }
                first = h.rread_v(reads).into_iter().chain(h.rwrite_v(writes)).map(Some).collect();
            }
            for fut in first {
                h.spawn(Self::window_task(h.clone(), ops.clone(), out.clone(), fut));
            }
        });
        rec
    }

    /// One slot of the window: completes `first` (if handed one), then
    /// keeps issuing the stream's next op until it runs dry.
    async fn window_task(
        h: ProcHandle,
        ops: Rc<RefCell<MemOps>>,
        rec: Recorder,
        mut first: Option<OpFuture>,
    ) {
        let MemLoad { size, think, scatter_gather, .. } = ops.borrow().load;
        loop {
            let fut = match first.take() {
                Some(fut) => fut,
                None => {
                    if ops.borrow().issued >= ops.borrow().load.ops {
                        break;
                    }
                    if !think.is_zero() {
                        h.sleep(think).await;
                    }
                    let Some((va, data)) = ops.borrow_mut().next() else { break };
                    match (data, scatter_gather) {
                        (Some(data), false) => h.rwrite(va, data),
                        (None, false) => h.rread(va, size),
                        (Some(data), true) => h.rwrite_v(vec![(va, data)]).remove(0),
                        (None, true) => h.rread_v(vec![(va, size)]).remove(0),
                    }
                }
            };
            record(&rec, &fut.await, size as u64);
        }
    }
}

/// An open-loop burst generator: issues `burst` small async reads at one
/// instant (the paper's issue-then-poll pattern), waits for all of them,
/// then fires the next burst. Because every request of a burst is submitted
/// at the same virtual instant, this is the natural showcase for the
/// transport's doorbell-coalesced request batching.
#[derive(Debug, Clone, Copy)]
pub struct BurstLoad {
    /// Operation size in bytes.
    pub size: u32,
    /// Requests per burst.
    pub burst: u64,
    /// Bursts to run after warm-up.
    pub bursts: u64,
    /// Pages of remote memory spanned (each burst walks distinct pages).
    pub span_pages: u64,
    /// Page size.
    pub page_size: u64,
    /// Submit each burst as one explicit `rread_v` vector (the
    /// scatter/gather API) instead of per-op async submissions.
    pub scatter_gather: bool,
}

impl BurstLoad {
    /// A load firing `bursts` bursts of `burst` reads of `size` bytes.
    pub fn new(size: u32, burst: u64, bursts: u64, span_pages: u64, page_size: u64) -> Self {
        let burst = burst.max(1);
        BurstLoad {
            size,
            burst,
            bursts,
            span_pages: span_pages.max(burst),
            page_size,
            scatter_gather: false,
        }
    }

    /// Switches the load to the explicit scatter/gather submit path.
    pub fn with_scatter_gather(mut self) -> Self {
        self.scatter_gather = true;
        self
    }

    /// Spawns the load as process `pid` on compute node `cn`.
    pub fn spawn(self, cluster: &mut Cluster, cn: usize, pid: Pid) -> Recorder {
        let rec = recorder();
        let out = rec.clone();
        let BurstLoad { size, burst, bursts, span_pages, page_size, scatter_gather } = self;
        cluster.spawn(cn, pid, move |h| async move {
            let va = alloc_warm(&h, span_pages, page_size, &out).await;
            for b in 0..bursts {
                // Distinct pages inside one burst: no intra-burst
                // dependencies, so the whole burst dispatches (and
                // coalesces) at one instant.
                let reads =
                    (0..burst).map(|i| (va + (b * burst + i) % span_pages * page_size, size));
                if scatter_gather {
                    for fut in h.rread_v(reads.collect()) {
                        record(&out, &fut.await, size as u64);
                    }
                } else {
                    for (va, len) in reads {
                        let (h2, out) = (h.clone(), out.clone());
                        h.spawn(async move { record(&out, &h2.rread(va, len).await, len as u64) });
                    }
                    h.rrelease().await;
                }
            }
        });
        rec
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
        let rec = recorder();
        let out = rec.clone();
        let macs = cluster.mn_macs().to_vec();
        let KvLoad { gen, preload, ops, window, offload_id } = self;
        let value_size = gen.value_size() as u64;
        cluster.spawn(cn, pid, move |h| async move {
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
            *out.borrow_mut() = OpRecorder::new(h.now());
            let left = Rc::new(RefCell::new((gen, ops)));
            for _ in 0..u64::from(window.max(1)).min(ops) {
                let (h2, left, out, call) = (h.clone(), left.clone(), out.clone(), call.clone());
                h.spawn(async move {
                    loop {
                        let op = {
                            let (gen, left) = &mut *left.borrow_mut();
                            if *left == 0 {
                                break;
                            }
                            *left -= 1;
                            gen.next_op()
                        };
                        let req = match op {
                            YcsbOp::Get { key } => KvRequest::Get { key: key_of(key) },
                            YcsbOp::Set { key, value } => {
                                KvRequest::Put { key: key_of(key), value }
                            }
                        };
                        record(&out, &call(&h2, req).await, value_size);
                    }
                });
            }
        });
        rec
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
    /// Random page selection.
    pub random: bool,
    /// Seed of the page-selection stream.
    pub seed: u64,
}

impl RangeLoad {
    /// A synchronous load over `[base, base + pages * page_size)`.
    #[allow(clippy::too_many_arguments)] // bench config surface
    pub fn new(
        base: u64,
        pages: u64,
        page_size: u64,
        size: u32,
        mix: AccessMix,
        ops: u64,
        random: bool,
        seed: u64,
    ) -> Self {
        RangeLoad { base, pages, page_size, size, mix, ops, random, seed }
    }

    /// Spawns the load as process `pid` on compute node `cn`.
    pub fn spawn(self, cluster: &mut Cluster, cn: usize, pid: Pid) -> Recorder {
        let rec = recorder();
        let out = rec.clone();
        let RangeLoad { base, pages, page_size, size, mix, ops, random, seed } = self;
        let (pages, warmup) = (pages.max(1), (ops / 10).clamp(4, ops));
        cluster.spawn(cn, pid, move |h| async move {
            let mut rng = SimRng::new(seed);
            for i in 0..ops {
                let page = if random { rng.range_u64(0, pages) } else { i % pages };
                let va = base + page * page_size;
                let write = match mix {
                    AccessMix::Reads => false,
                    AccessMix::Writes => true,
                    AccessMix::Alternate => i % 2 == 1,
                };
                let c = if write {
                    h.rwrite(va, Bytes::from(vec![i as u8; size as usize])).await
                } else {
                    h.rread(va, size).await
                };
                assert!(c.result.is_ok(), "range op failed: {:?}", c.result);
                if i >= warmup {
                    out.borrow_mut().record(c.completed_at, c.latency(), size as u64);
                }
            }
        });
        rec
    }
}
