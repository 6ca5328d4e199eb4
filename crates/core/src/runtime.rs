//! The blocking client runtime: paper-style application code on OS threads.
//!
//! The paper's Figure 1 programs Clio with blocking calls (`ralloc`,
//! `rread`, `rlock`, ...). This module reproduces that programming model as
//! a thin compatibility shim over the async executor ([`crate::exec`]):
//! each spawned process runs on a real OS thread holding a
//! [`RemoteProcess`] handle; its calls are forwarded to a *servicer task*
//! on the hosting compute node's [`ExecDriver`], which awaits the matching
//! [`OpFuture`]s and sends results back. Thread "compute" between calls
//! takes zero virtual time unless modeled explicitly with
//! [`RemoteProcess::compute`].
//!
//! Async-handle hygiene: results of `*_async` calls are retained only
//! until polled, and `rrelease`/process exit drop every result the
//! application abandoned — a process issuing a million never-polled ops
//! no longer accumulates a million completions. Polling a handle that
//! belongs to another process (or was dropped by a release) returns
//! [`ClioError::InvalidHandle`] instead of stalling forever.
//!
//! Determinism: the runtime services bridge threads in index order and one
//! command at a time, so a given program + seed always produces the same
//! virtual-time schedule.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;

use bytes::Bytes;
use clio_cn::{ClioError, CompletionValue};
use clio_net::Mac;
use clio_proto::{Perm, Pid};
use clio_sim::{IdMap, Message, SimDuration};

use crate::cluster::{Cluster, ClusterConfig};
use crate::exec::{ExecDriver, OpFuture, ProcHandle};
use crate::node::{ComputeNode, PokeDriver};

/// Distinguishes every spawned process instance, so a handle leaked across
/// processes is recognized instead of colliding on per-process seq numbers.
static NEXT_OWNER: AtomicU64 = AtomicU64::new(1);

/// A handle to one asynchronous operation issued by a [`RemoteProcess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AsyncHandle {
    seq: u64,
    owner: u64,
}

/// Calls a bridge thread can queue.
#[derive(Debug, Clone)]
enum CallSpec {
    Alloc {
        size: u64,
        perm: Perm,
    },
    Free {
        va: u64,
        size: u64,
    },
    Read {
        va: u64,
        len: u32,
    },
    Write {
        va: u64,
        data: Bytes,
    },
    /// Scatter/gather read: one call, one completion per entry.
    ReadV {
        ops: Vec<(u64, u32)>,
    },
    /// Scatter/gather write: one call, one completion per entry.
    WriteV {
        ops: Vec<(u64, Bytes)>,
    },
    Lock {
        va: u64,
    },
    Unlock {
        va: u64,
    },
    Faa {
        va: u64,
        delta: u64,
    },
    Cas {
        va: u64,
        expected: u64,
        new: u64,
    },
    Fence,
    Release,
    Offload {
        mn_index: usize,
        offload: u16,
        opcode: u16,
        arg: Bytes,
    },
    Sleep {
        dur: SimDuration,
    },
}

impl CallSpec {
    /// How many completion sequence numbers this call consumes (vector
    /// calls reserve one consecutive seq per entry).
    fn seq_span(&self) -> u64 {
        match self {
            CallSpec::ReadV { ops } => ops.len() as u64,
            CallSpec::WriteV { ops } => ops.len() as u64,
            _ => 1,
        }
    }
}

#[derive(Debug)]
enum Cmd {
    Call { seq: u64, call: CallSpec, sync: bool },
    Poll { seqs: Vec<u64> },
    Finish,
}

#[derive(Debug)]
enum Resp {
    Token(u64),
    One(Result<CompletionValue, ClioError>),
    Many(Vec<Result<CompletionValue, ClioError>>),
}

/// One async call's retained result on the sim side of the bridge.
enum SeqSlot {
    /// Outstanding; a blocked `rpoll` may have left a waker.
    Pending { waker: Option<Waker> },
    /// Completed, awaiting its (first and only) poll.
    Ready(Result<CompletionValue, ClioError>),
}

/// Per-bridge result store, owned by the servicer task and read by the
/// harness after the run (leak accounting).
#[derive(Default)]
struct ShimState {
    slots: IdMap<u64, SeqSlot>,
    high_water: usize,
}

impl ShimState {
    fn reserve(&mut self, seq: u64) {
        self.slots.insert(seq, SeqSlot::Pending { waker: None });
        self.high_water = self.high_water.max(self.slots.len());
    }

    fn fill(&mut self, seq: u64, result: Result<CompletionValue, ClioError>) {
        if let Some(slot) = self.slots.get_mut(&seq) {
            if let SeqSlot::Pending { waker } = slot {
                let waker = waker.take();
                *slot = SeqSlot::Ready(result);
                if let Some(w) = waker {
                    w.wake();
                }
            }
        }
    }

    fn peek(&self, seq: u64) -> Result<CompletionValue, ClioError> {
        match self.slots.get(&seq) {
            Some(SeqSlot::Ready(r)) => r.clone(),
            _ => Err(ClioError::InvalidHandle),
        }
    }

    fn consume(&mut self, seq: u64) {
        if matches!(self.slots.get(&seq), Some(SeqSlot::Ready(_))) {
            self.slots.remove(&seq);
        }
    }

    /// Drops every completed-but-never-polled result (`rrelease` / process
    /// exit): abandoned handles must not accumulate for the process's life.
    fn purge_completed(&mut self) {
        self.slots.retain(|_, s| matches!(s, SeqSlot::Pending { .. }));
    }
}

/// Resolves once `seq` is no longer pending (completed, or unknown —
/// the latter surfaces as `InvalidHandle` when the result is read).
struct SeqWait {
    state: Rc<RefCell<ShimState>>,
    seq: u64,
}

impl Future for SeqWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut st = self.state.borrow_mut();
        match st.slots.get_mut(&self.seq) {
            Some(SeqSlot::Pending { waker }) => {
                *waker = Some(cx.waker().clone());
                Poll::Pending
            }
            _ => Poll::Ready(()),
        }
    }
}

/// Builds the executor future matching a scalar call.
fn scalar_future(h: &ProcHandle, macs: &[Mac], call: CallSpec) -> OpFuture {
    match call {
        CallSpec::Alloc { size, perm } => h.ralloc(size, perm),
        CallSpec::Free { va, size } => h.rfree(va, size),
        CallSpec::Read { va, len } => h.rread(va, len),
        CallSpec::Write { va, data } => h.rwrite(va, data),
        CallSpec::Lock { va } => h.rlock(va),
        CallSpec::Unlock { va } => h.runlock(va),
        CallSpec::Faa { va, delta } => h.rfaa(va, delta),
        CallSpec::Cas { va, expected, new } => h.rcas(va, expected, new),
        CallSpec::Fence => h.rfence(),
        CallSpec::Release => h.rrelease(),
        CallSpec::Offload { mn_index, offload, opcode, arg } => {
            h.roffload(macs[mn_index], offload, opcode, arg)
        }
        CallSpec::ReadV { .. } | CallSpec::WriteV { .. } | CallSpec::Sleep { .. } => {
            unreachable!("vector and sleep calls are routed before scalar_future")
        }
    }
}

/// The per-bridge servicer task: pops thread commands off the inbox (or
/// parks on the next doorbell poke), awaits the matching executor futures,
/// and pushes responses for the pump to deliver. Sync calls are awaited
/// inline — exactly the rendezvous the blocking API promises; async calls
/// fan out into sub-tasks that fill [`SeqSlot`]s for later `rpoll`.
async fn servicer(
    h: ProcHandle,
    macs: Vec<Mac>,
    inbox: Arc<Mutex<VecDeque<Cmd>>>,
    outbox: Arc<Mutex<VecDeque<Resp>>>,
    state: Rc<RefCell<ShimState>>,
) {
    let respond = |r: Resp| outbox.lock().expect("shim outbox").push_back(r);
    loop {
        let cmd = loop {
            let next = inbox.lock().expect("shim inbox").pop_front();
            match next {
                Some(c) => break c,
                None => h.next_poke().await,
            }
        };
        match cmd {
            Cmd::Finish => {
                state.borrow_mut().purge_completed();
                break;
            }
            Cmd::Poll { seqs } => {
                for &s in &seqs {
                    SeqWait { state: state.clone(), seq: s }.await;
                }
                // Peek-all then consume: `rpoll` may legally pass the same
                // handle more than once in a single call.
                let mut st = state.borrow_mut();
                let results: Vec<_> = seqs.iter().map(|s| st.peek(*s)).collect();
                for s in &seqs {
                    st.consume(*s);
                }
                drop(st);
                respond(Resp::Many(results));
            }
            Cmd::Call { seq, call, sync } => match call {
                CallSpec::Sleep { dur } => {
                    if sync {
                        h.sleep(dur).await;
                        respond(Resp::One(Ok(CompletionValue::Done)));
                    } else {
                        state.borrow_mut().reserve(seq);
                        let (h2, st) = (h.clone(), state.clone());
                        h.spawn(async move {
                            h2.sleep(dur).await;
                            st.borrow_mut().fill(seq, Ok(CompletionValue::Done));
                        });
                    }
                }
                CallSpec::ReadV { ops } => {
                    let n = ops.len() as u64;
                    let fut = h.rread_v(ops);
                    if sync {
                        let rs = fut.await.into_iter().map(|c| c.result).collect();
                        respond(Resp::Many(rs));
                    } else {
                        spawn_vec_fill(&h, &state, seq, n, fut);
                    }
                }
                CallSpec::WriteV { ops } => {
                    let n = ops.len() as u64;
                    let fut = h.rwrite_v(ops);
                    if sync {
                        let rs = fut.await.into_iter().map(|c| c.result).collect();
                        respond(Resp::Many(rs));
                    } else {
                        spawn_vec_fill(&h, &state, seq, n, fut);
                    }
                }
                call => {
                    let release = matches!(call, CallSpec::Release);
                    let fut = scalar_future(&h, &macs, call);
                    if sync {
                        let c = fut.await;
                        if release {
                            state.borrow_mut().purge_completed();
                        }
                        respond(Resp::One(c.result));
                    } else {
                        state.borrow_mut().reserve(seq);
                        let st = state.clone();
                        h.spawn(async move {
                            let c = fut.await;
                            let mut st = st.borrow_mut();
                            if release {
                                st.purge_completed();
                            }
                            st.fill(seq, c.result);
                        });
                    }
                }
            },
        }
    }
}

/// Reserves `seq..seq+n` and spawns a sub-task filling them when the batch
/// completes (async vector calls).
fn spawn_vec_fill(
    h: &ProcHandle,
    state: &Rc<RefCell<ShimState>>,
    seq: u64,
    n: u64,
    fut: crate::exec::VecOpFuture,
) {
    {
        let mut st = state.borrow_mut();
        for i in 0..n {
            st.reserve(seq + i);
        }
    }
    let st = state.clone();
    h.spawn(async move {
        let comps = fut.await;
        let mut st = st.borrow_mut();
        for (i, c) in comps.into_iter().enumerate() {
            st.fill(seq + i as u64, c.result);
        }
    });
}

/// The blocking application handle, used from a spawned OS thread.
///
/// All `r*` methods mirror the paper's CLib API (§3.1). Synchronous methods
/// block the calling thread until the simulated operation completes;
/// `*_async` variants return an [`AsyncHandle`] for later [`rpoll`].
///
/// [`rpoll`]: RemoteProcess::rpoll
#[derive(Debug)]
pub struct RemoteProcess {
    cmd_tx: Sender<Cmd>,
    resp_rx: Receiver<Resp>,
    next_seq: u64,
    owner: u64,
}

impl RemoteProcess {
    fn call_sync(&mut self, call: CallSpec) -> Result<CompletionValue, ClioError> {
        self.next_seq += 1;
        self.cmd_tx
            .send(Cmd::Call { seq: self.next_seq, call, sync: true })
            .expect("runtime alive");
        match self.resp_rx.recv().expect("runtime alive") {
            Resp::One(r) => r,
            other => panic!("unexpected response {other:?}"),
        }
    }

    fn call_async(&mut self, call: CallSpec) -> AsyncHandle {
        self.next_seq += 1;
        self.cmd_tx
            .send(Cmd::Call { seq: self.next_seq, call, sync: false })
            .expect("runtime alive");
        match self.resp_rx.recv().expect("runtime alive") {
            Resp::Token(t) => AsyncHandle { seq: t, owner: self.owner },
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// Issues a vector call spanning `n` seqs and waits for all entries.
    fn call_sync_vec(&mut self, call: CallSpec) -> Result<Vec<CompletionValue>, ClioError> {
        let n = call.seq_span();
        if n == 0 {
            return Ok(Vec::new());
        }
        let base = self.next_seq + 1;
        self.next_seq += n;
        self.cmd_tx.send(Cmd::Call { seq: base, call, sync: true }).expect("runtime alive");
        match self.resp_rx.recv().expect("runtime alive") {
            Resp::Many(rs) => rs.into_iter().collect(),
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// Issues a vector call asynchronously; one handle per entry, in order.
    fn call_async_vec(&mut self, call: CallSpec) -> Vec<AsyncHandle> {
        let n = call.seq_span();
        if n == 0 {
            return Vec::new();
        }
        let base = self.next_seq + 1;
        self.next_seq += n;
        self.cmd_tx.send(Cmd::Call { seq: base, call, sync: false }).expect("runtime alive");
        match self.resp_rx.recv().expect("runtime alive") {
            Resp::Token(t) => {
                debug_assert_eq!(t, base, "vector call token is its base seq");
                (base..base + n).map(|seq| AsyncHandle { seq, owner: self.owner }).collect()
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// `ralloc`: allocates remote virtual memory, returning its address.
    ///
    /// # Errors
    ///
    /// Propagates remote allocation failures.
    pub fn ralloc(&mut self, size: u64) -> Result<u64, ClioError> {
        match self.call_sync(CallSpec::Alloc { size, perm: Perm::RW })? {
            CompletionValue::Va(va) => Ok(va),
            other => panic!("alloc returned {other:?}"),
        }
    }

    /// `rfree`.
    ///
    /// # Errors
    ///
    /// Propagates remote failures.
    pub fn rfree(&mut self, va: u64, size: u64) -> Result<(), ClioError> {
        self.call_sync(CallSpec::Free { va, size }).map(|_| ())
    }

    /// Synchronous `rread`.
    ///
    /// # Errors
    ///
    /// Propagates remote failures.
    pub fn rread(&mut self, va: u64, len: u32) -> Result<Bytes, ClioError> {
        match self.call_sync(CallSpec::Read { va, len })? {
            CompletionValue::Data(d) => Ok(d),
            other => panic!("read returned {other:?}"),
        }
    }

    /// Synchronous `rwrite`.
    ///
    /// # Errors
    ///
    /// Propagates remote failures.
    pub fn rwrite(&mut self, va: u64, data: &[u8]) -> Result<(), ClioError> {
        self.call_sync(CallSpec::Write { va, data: Bytes::copy_from_slice(data) }).map(|_| ())
    }

    /// Asynchronous `rread`; poll with [`rpoll`](Self::rpoll).
    pub fn rread_async(&mut self, va: u64, len: u32) -> AsyncHandle {
        self.call_async(CallSpec::Read { va, len })
    }

    /// Asynchronous `rwrite`; poll with [`rpoll`](Self::rpoll).
    pub fn rwrite_async(&mut self, va: u64, data: &[u8]) -> AsyncHandle {
        self.call_async(CallSpec::Write { va, data: Bytes::copy_from_slice(data) })
    }

    /// `rread_v`: scatter/gather read. The whole vector reaches the
    /// transport as one explicit submission (no reliance on same-instant
    /// doorbell coalescing), so the reads share wire frames up to the batch
    /// budgets. Blocks until every entry completes; results are in request
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the first error among the entries.
    pub fn rread_v(&mut self, reads: &[(u64, u32)]) -> Result<Vec<Bytes>, ClioError> {
        let values = self.call_sync_vec(CallSpec::ReadV { ops: reads.to_vec() })?;
        Ok(values
            .into_iter()
            .map(|v| match v {
                CompletionValue::Data(d) => d,
                other => panic!("read returned {other:?}"),
            })
            .collect())
    }

    /// `rwrite_v`: scatter/gather write; the mirror of
    /// [`rread_v`](Self::rread_v).
    ///
    /// # Errors
    ///
    /// Returns the first error among the entries.
    pub fn rwrite_v(&mut self, writes: &[(u64, &[u8])]) -> Result<(), ClioError> {
        let ops = writes.iter().map(|&(va, data)| (va, Bytes::copy_from_slice(data))).collect();
        self.call_sync_vec(CallSpec::WriteV { ops }).map(|_| ())
    }

    /// Asynchronous [`rread_v`](Self::rread_v): returns one handle per
    /// entry (in order) for later [`rpoll`](Self::rpoll).
    pub fn rread_v_async(&mut self, reads: &[(u64, u32)]) -> Vec<AsyncHandle> {
        self.call_async_vec(CallSpec::ReadV { ops: reads.to_vec() })
    }

    /// Asynchronous [`rwrite_v`](Self::rwrite_v): returns one handle per
    /// entry (in order) for later [`rpoll`](Self::rpoll).
    pub fn rwrite_v_async(&mut self, writes: &[(u64, &[u8])]) -> Vec<AsyncHandle> {
        let ops = writes.iter().map(|&(va, data)| (va, Bytes::copy_from_slice(data))).collect();
        self.call_async_vec(CallSpec::WriteV { ops })
    }

    /// `rpoll`: blocks until every handle completes; returns their results
    /// in order.
    ///
    /// # Errors
    ///
    /// Returns the first error among the polled operations.
    /// [`ClioError::InvalidHandle`] if a handle belongs to a different
    /// process, was already polled, or was dropped by `rrelease`.
    pub fn rpoll(&mut self, handles: &[AsyncHandle]) -> Result<Vec<CompletionValue>, ClioError> {
        if handles.iter().any(|h| h.owner != self.owner) {
            return Err(ClioError::InvalidHandle);
        }
        self.cmd_tx
            .send(Cmd::Poll { seqs: handles.iter().map(|h| h.seq).collect() })
            .expect("runtime alive");
        match self.resp_rx.recv().expect("runtime alive") {
            Resp::Many(rs) => rs.into_iter().collect(),
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// `rlock`: blocks until the lock at `va` is acquired.
    ///
    /// # Errors
    ///
    /// Propagates remote failures.
    pub fn rlock(&mut self, va: u64) -> Result<(), ClioError> {
        self.call_sync(CallSpec::Lock { va }).map(|_| ())
    }

    /// `runlock`.
    ///
    /// # Errors
    ///
    /// Propagates remote failures.
    pub fn runlock(&mut self, va: u64) -> Result<(), ClioError> {
        self.call_sync(CallSpec::Unlock { va }).map(|_| ())
    }

    /// Remote fetch-and-add; returns the previous value.
    ///
    /// # Errors
    ///
    /// Propagates remote failures.
    pub fn rfaa(&mut self, va: u64, delta: u64) -> Result<u64, ClioError> {
        match self.call_sync(CallSpec::Faa { va, delta })? {
            CompletionValue::Old(v) => Ok(v),
            other => panic!("faa returned {other:?}"),
        }
    }

    /// Remote compare-and-swap; returns the previous value.
    ///
    /// # Errors
    ///
    /// Propagates remote failures.
    pub fn rcas(&mut self, va: u64, expected: u64, new: u64) -> Result<u64, ClioError> {
        match self.call_sync(CallSpec::Cas { va, expected, new })? {
            CompletionValue::Old(v) => Ok(v),
            other => panic!("cas returned {other:?}"),
        }
    }

    /// `rfence`: orders this process's requests at every memory node.
    ///
    /// # Errors
    ///
    /// Propagates remote failures.
    pub fn rfence(&mut self) -> Result<(), ClioError> {
        self.call_sync(CallSpec::Fence).map(|_| ())
    }

    /// `rrelease`: waits for all of this process's outstanding async ops,
    /// then drops every result the application never polled — handles
    /// issued before the release become invalid.
    ///
    /// # Errors
    ///
    /// Propagates remote failures.
    pub fn rrelease(&mut self) -> Result<(), ClioError> {
        self.call_sync(CallSpec::Release).map(|_| ())
    }

    /// Calls an offload on the `mn_index`-th memory node.
    ///
    /// # Errors
    ///
    /// Propagates remote failures.
    pub fn offload_call(
        &mut self,
        mn_index: usize,
        offload: u16,
        opcode: u16,
        arg: &[u8],
    ) -> Result<Bytes, ClioError> {
        match self.call_sync(CallSpec::Offload {
            mn_index,
            offload,
            opcode,
            arg: Bytes::copy_from_slice(arg),
        })? {
            CompletionValue::Data(d) => Ok(d),
            other => panic!("offload returned {other:?}"),
        }
    }

    /// Models `dur` of local computation: virtual time advances, the thread
    /// resumes afterwards.
    pub fn compute(&mut self, dur: SimDuration) {
        self.call_sync(CallSpec::Sleep { dur }).expect("sleep cannot fail");
    }
}

struct Bridge {
    cmd_rx: Receiver<Cmd>,
    resp_tx: Sender<Resp>,
    inbox: Arc<Mutex<VecDeque<Cmd>>>,
    outbox: Arc<Mutex<VecDeque<Resp>>>,
    state: Rc<RefCell<ShimState>>,
    join: Option<JoinHandle<()>>,
    cn: usize,
    driver: usize,
    finished: bool,
}

/// A cluster plus the blocking-thread machinery.
pub struct BlockingCluster {
    /// The underlying cluster (accessible for inspection after `run`).
    pub cluster: Cluster,
    bridges: Vec<Bridge>,
}

impl BlockingCluster {
    /// Builds a cluster for blocking-style clients.
    pub fn new(cfg: &ClusterConfig) -> Self {
        BlockingCluster { cluster: Cluster::build(cfg), bridges: Vec::new() }
    }

    /// Spawns `f` as process `pid` on compute node `cn`. The closure runs on
    /// its own OS thread once [`run`](Self::run) is called.
    ///
    /// Spawning several closures with the same `pid` models a multi-threaded
    /// process sharing one RAS.
    pub fn spawn<F>(&mut self, cn: usize, pid: u64, f: F)
    where
        F: FnOnce(&mut RemoteProcess) + Send + 'static,
    {
        let (cmd_tx, cmd_rx) = channel();
        let (resp_tx, resp_rx) = channel();
        let inbox: Arc<Mutex<VecDeque<Cmd>>> = Arc::default();
        let outbox: Arc<Mutex<VecDeque<Resp>>> = Arc::default();
        let state = Rc::new(RefCell::new(ShimState::default()));

        let driver = ExecDriver::new();
        let h = driver.handle();
        let macs = self.cluster.mn_macs().to_vec();
        h.spawn(servicer(h.clone(), macs, inbox.clone(), outbox.clone(), state.clone()));
        let driver_idx = self.cluster.add_driver(cn, Pid(pid), Box::new(driver));

        let owner = NEXT_OWNER.fetch_add(1, Ordering::Relaxed);
        let join = std::thread::spawn(move || {
            let mut proc = RemoteProcess { cmd_tx, resp_rx, next_seq: 0, owner };
            f(&mut proc);
            let _ = proc.cmd_tx.send(Cmd::Finish);
        });
        self.bridges.push(Bridge {
            cmd_rx,
            resp_tx,
            inbox,
            outbox,
            state,
            join: Some(join),
            cn,
            driver: driver_idx,
            finished: false,
        });
    }

    /// Runs the cluster and every spawned process to completion.
    ///
    /// Threads may also coordinate through ordinary host channels (like the
    /// examples do to share addresses); the loop therefore polls command
    /// channels non-blockingly and parks briefly when no thread has spoken.
    ///
    /// # Panics
    ///
    /// Panics on deadlock (no thread can ever make progress again) or if a
    /// spawned thread panicked.
    pub fn run(&mut self) {
        self.cluster.start();
        // Let on_start settle (servicers park on their doorbells).
        self.cluster.sim.run_until_idle();

        let mut idle_spins: u32 = 0;
        loop {
            let mut progress = false;

            // Phase 1: forward commands from threads to their servicers,
            // in bridge index order. Async calls get their token reply
            // right here — the handle is the pre-assigned seq — so the
            // thread continues immediately, like the paper's async CLib.
            let mut pokes: Vec<(usize, usize)> = Vec::new();
            for b in &mut self.bridges {
                while !b.finished {
                    match b.cmd_rx.try_recv() {
                        Ok(cmd) => {
                            progress = true;
                            if let Cmd::Call { seq, sync: false, .. } = &cmd {
                                b.resp_tx.send(Resp::Token(*seq)).expect("thread alive");
                            }
                            if matches!(cmd, Cmd::Finish) {
                                b.finished = true;
                            }
                            b.inbox.lock().expect("shim inbox").push_back(cmd);
                            pokes.push((b.cn, b.driver));
                        }
                        Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                            b.finished = true;
                            b.inbox.lock().expect("shim inbox").push_back(Cmd::Finish);
                            pokes.push((b.cn, b.driver));
                            break;
                        }
                        Err(std::sync::mpsc::TryRecvError::Empty) => break,
                    }
                }
            }
            // Duplicates need not be adjacent (several commands from one
            // bridge interleave with other bridges'); sort before dedup so
            // every driver is poked exactly once.
            pokes.sort_unstable();
            pokes.dedup();
            for (cn, driver) in pokes {
                let cn_actor = self.cluster.cn_ids()[cn];
                self.cluster.sim.post(cn_actor, Message::new(PokeDriver { driver }));
            }

            // Phase 2: deliver servicer responses to their threads, only at
            // this batch boundary — the same rendezvous points the old
            // runtime used, keeping thread wake-ups off the hot sim path.
            for b in &mut self.bridges {
                let mut outbox = b.outbox.lock().expect("shim outbox");
                while let Some(resp) = outbox.pop_front() {
                    progress = true;
                    // A finished thread has dropped its receiver.
                    let _ = b.resp_tx.send(resp);
                }
            }

            if self.bridges.iter().all(|b| b.finished) {
                self.cluster.sim.run_until_idle();
                break;
            }

            // Phase 3: advance the simulation a bounded batch, so threads
            // that became ready (e.g. after a lock release) are re-polled
            // even while other clients keep the event queue busy.
            for _ in 0..64 {
                if !self.cluster.sim.step() {
                    break;
                }
                progress = true;
            }

            if progress {
                idle_spins = 0;
            } else {
                // A runnable thread may simply still be computing (or
                // blocked on host-side coordination with another thread):
                // park briefly and re-poll.
                idle_spins += 1;
                if idle_spins > 200_000 {
                    panic!(
                        "blocking runtime deadlock: no thread progressed for ~20s (finished={}/{})",
                        self.bridges.iter().filter(|b| b.finished).count(),
                        self.bridges.len()
                    );
                }
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        }

        for b in &mut self.bridges {
            if let Some(j) = b.join.take() {
                j.join().expect("client thread panicked");
            }
        }
    }

    /// Convenience: the CN hosting bridge `i` (for post-run inspection).
    pub fn cn_of_bridge(&self, i: usize) -> &ComputeNode {
        self.cluster.cn(self.bridges[i].cn)
    }

    /// The most results bridge `i` ever retained for unpolled async
    /// handles (leak accounting: bounded by the gap between releases, not
    /// by process lifetime).
    pub fn async_backlog_high_water(&self, i: usize) -> usize {
        self.bridges[i].state.borrow().high_water
    }
}

impl std::fmt::Debug for BlockingCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockingCluster")
            .field("bridges", &self.bridges.len())
            .field("cluster", &self.cluster)
            .finish()
    }
}
