//! # Deterministic async executor for client programs
//!
//! The one way to program a [`Cluster`](crate::Cluster): cooperative tasks
//! whose remote operations are real `Future`s —
//!
//! ```ignore
//! cluster.spawn(0, pid, |h| async move {
//!     let va = h.ralloc(4096, Perm::RW).await.va();
//!     h.rwrite(va, payload).await;
//!     let echo = h.rread(va, 64).await;
//! });
//! ```
//!
//! `.await` is the paper's synchronous call; `h.spawn(..)` followed by
//! `h.rrelease().await` is its issue-then-poll pattern. One
//! [`ExecDriver`] per client process hosts any number of tasks on a compute
//! node; tasks run *inside* the simulation's event loop (no OS threads
//! anywhere), so a single simulated CN sustains tens of thousands of
//! concurrent outstanding ops. Determinism is absolute: tasks are only
//! polled from sim callbacks, ready/submission queues are FIFO, and every
//! wake-up is carried by a sim event — same program + same seed ⇒ the
//! same virtual-time schedule and `Simulation::digest`.
//!
//! ## Waker path
//!
//! Awaiting an [`OpFuture`] reserves one unit of the process's in-flight
//! budget and queues a submission; the executor flushes queued submissions
//! to its compute node in program order. There is one completion wake:
//! when the node delivers an op's completion, the executor stores the
//! result in the op's slot and wakes the task that awaits it — once, with
//! the result already deliverable, so a completed op costs one poll. No
//! layer below the executor holds a waker.
//!
//! ## Backpressure
//!
//! Submission is backpressure-aware: once `inflight == budget`
//! ([`ClusterConfig::runtime_inflight_budget`](crate::ClusterConfig)),
//! further submitters *park* — they queue FIFO, and each completion hands
//! its freed credit to the queue head directly (the head's slot is
//! pre-admitted before any waker runs). The handoff is what makes parking
//! fair: the completing task's own continuation is woken first and polled
//! first, so without it a task looping over sequential ops would re-take
//! every slot it frees and starve parked peers forever. With pre-admission
//! the barger finds the credit already spoken for and parks behind the
//! peer it would have starved. The wait is visible twice: live, via the
//! `cn<i>.runtime.inflight` / `.parked` / `.tasks` registry gauges, and
//! per-op, as a `SubmitQueued` trace stage covering [arrival, submit].
//! Vector ops ([`ProcHandle::rread_v`] / [`rwrite_v`](ProcHandle::rwrite_v))
//! deliberately bypass parking — a scatter/gather batch is one atomic
//! submission — but still debit the budget, so following scalar ops park.
//!
//! ## Open-loop load
//!
//! [`openloop`] generates seeded Poisson/uniform arrival schedules;
//! [`OpFuture::arriving_at`] back-dates an op to its generated arrival so
//! latency measurements include queueing delay, the way an open-loop
//! client would experience it.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use bytes::Bytes;
use clio_cn::{ClioError, Op};
use clio_net::Mac;
use clio_proto::Perm;
use clio_sim::{IdMap, SimDuration, SimTime};

use crate::node::{AppCompletion, AppToken, NodeApi, POKE_TAG};

pub mod openloop;

type TaskId = u64;
type BoxedTask = Pin<Box<dyn Future<Output = ()>>>;

/// Wakes a task by pushing its id onto the executor's ready queue.
///
/// `std::task::Waker` demands `Send + Sync`, so the ready queue is the one
/// `Arc<Mutex<_>>` in an otherwise single-threaded executor (uncontended:
/// everything runs on the sim thread).
struct TaskWaker {
    ready: Arc<Mutex<VecDeque<TaskId>>>,
    task: TaskId,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.lock().expect("executor ready queue").push_back(self.task);
    }
}

/// One outstanding op's mailbox, shared between its [`OpFuture`], the
/// executor's token → slot map, and any [`CancelHandle`]s.
struct OpSlot {
    /// When the op arrived (its future was created, or the back-dated time
    /// set by [`OpFuture::arriving_at`]): what every completion of it
    /// reports as `issued_at`, whether the node or a cancellation made it.
    arrival: SimTime,
    result: Option<AppCompletion>,
    waker: Option<Waker>,
    /// The host token, known once the executor flushes the submission;
    /// cancellation after this point goes through [`NodeApi::cancel`].
    token: Option<AppToken>,
    /// Set by [`CancelHandle::cancel`] / an expired deadline; a queued
    /// submission carrying this flag is resolved locally instead of issued.
    cancel_requested: bool,
    /// True while the op sits in the executor's submit queue (budget
    /// debited, not yet handed to the node).
    in_submit_q: bool,
    /// Set by [`release_credit`] when a freed in-flight credit is handed to
    /// this (parked) op: the credit is already counted, so the next poll
    /// proceeds straight to submission instead of re-checking the budget.
    admitted: bool,
}

impl OpSlot {
    fn new(arrival: SimTime) -> Rc<RefCell<OpSlot>> {
        Rc::new(RefCell::new(OpSlot {
            arrival,
            result: None,
            waker: None,
            token: None,
            cancel_requested: false,
            in_submit_q: false,
            admitted: false,
        }))
    }

    /// Resolves a never-issued op as cancelled at `now`, returning the
    /// waker of the task awaiting it (if any).
    fn resolve_cancelled(&mut self, now: SimTime) -> Option<Waker> {
        self.result = Some(AppCompletion {
            token: AppToken(0),
            result: Err(ClioError::DeadlineExceeded),
            issued_at: self.arrival.min(now),
            completed_at: now,
        });
        self.waker.take()
    }
}

/// Work queued by task polls, flushed to the compute node in FIFO
/// (program) order. `Vec` is a scatter/gather vector: one slot per entry,
/// in order.
enum Submission {
    Op { op: Op, named_mn: Option<Mac>, slot: Rc<RefCell<OpSlot>> },
    Vec { ops: Vec<Op>, slots: Vec<Rc<RefCell<OpSlot>>> },
    Timer { tag: u64, dur: SimDuration },
    Cancel { token: AppToken },
}

struct TimerEntry {
    fired: bool,
    waker: Option<Waker>,
}

/// A spawned task: its future (taken out while it is being polled) and the
/// one waker every poll of it reuses.
struct Task {
    fut: Option<BoxedTask>,
    waker: Waker,
}

struct ExecInner {
    /// False until `on_start`: pre-start spawns queue instead of polling
    /// inline (no budget yet, and nothing can race them).
    running: bool,
    tasks: IdMap<TaskId, Task>,
    next_task: TaskId,
    live_tasks: usize,
    submit_q: VecDeque<Submission>,
    /// Submitters waiting for window credit, FIFO. Each freed credit is
    /// handed to the head ([`release_credit`]) before any waker runs, so
    /// the completing task cannot barge back in ahead of parked peers.
    parked: VecDeque<(Rc<RefCell<OpSlot>>, Waker)>,
    inflight: usize,
    peak_inflight: u64,
    budget: usize,
    op_slots: IdMap<AppToken, Rc<RefCell<OpSlot>>>,
    timers: IdMap<u64, TimerEntry>,
    next_timer_tag: u64,
    /// Pokes delivered while nobody awaited one (level-triggered count).
    poke_pending: u64,
    poke_waiters: Vec<Waker>,
}

/// Releases one in-flight credit. If a submitter is parked, the credit is
/// transferred to the FIFO head *now* — its slot marked `admitted`, the
/// credit kept counted — and its waker returned for the caller to wake
/// outside the borrow. Pre-admitting before any waker runs is the fairness
/// guarantee: the completing task's continuation is polled first, but the
/// freed slot is already spoken for, so it parks behind the peer instead
/// of starving it.
fn release_credit(inner: &mut ExecInner) -> Option<Waker> {
    inner.inflight -= 1;
    let (slot, waker) = inner.parked.pop_front()?;
    slot.borrow_mut().admitted = true;
    inner.inflight += 1;
    Some(waker)
}

struct ExecShared {
    ready: Arc<Mutex<VecDeque<TaskId>>>,
    inner: RefCell<ExecInner>,
    /// Virtual time mirror, refreshed on every executor callback so futures
    /// can timestamp without a `Ctx`.
    now: Cell<SimTime>,
}

impl ExecShared {
    fn pop_ready(&self) -> Option<TaskId> {
        self.ready.lock().expect("executor ready queue").pop_front()
    }
}

/// Polls registered task `tid` once. The future is taken out of its entry
/// for the duration of the poll, so tasks can spawn (and inline-poll) other
/// tasks reentrantly.
fn poll_one(shared: &Rc<ExecShared>, tid: TaskId) {
    let taken = {
        let mut inner = shared.inner.borrow_mut();
        inner.tasks.get_mut(&tid).and_then(|t| Some((t.fut.take()?, t.waker.clone())))
    };
    let Some((fut, waker)) = taken else { return }; // finished earlier; spurious wake
    poll_task(shared, tid, fut, waker);
}

/// Polls `fut` once with its task's waker: still pending, it is (re)filed
/// under `tid`; finished, the task is retired. A freshly spawned task comes
/// here unregistered, so one that finishes at once never touches the table.
fn poll_task(shared: &Rc<ExecShared>, tid: TaskId, mut fut: BoxedTask, waker: Waker) {
    let mut cx = Context::from_waker(&waker);
    let poll = fut.as_mut().poll(&mut cx);
    let mut inner = shared.inner.borrow_mut();
    match poll {
        Poll::Pending => {
            inner.tasks.entry(tid).or_insert(Task { fut: None, waker }).fut = Some(fut);
        }
        Poll::Ready(()) => {
            inner.tasks.remove(&tid);
            inner.live_tasks -= 1;
        }
    }
}

/// The cooperative executor of one client process, hosted on a compute
/// node. [`Cluster::spawn`](crate::Cluster::spawn) builds one per simulated
/// process and seeds it with a root task.
pub struct ExecDriver {
    shared: Rc<ExecShared>,
}

impl ExecDriver {
    /// A fresh executor with no tasks.
    pub(crate) fn new() -> Self {
        ExecDriver {
            shared: Rc::new(ExecShared {
                ready: Arc::new(Mutex::new(VecDeque::new())),
                inner: RefCell::new(ExecInner {
                    running: false,
                    tasks: IdMap::default(),
                    next_task: 0,
                    live_tasks: 0,
                    submit_q: VecDeque::new(),
                    parked: VecDeque::new(),
                    inflight: 0,
                    peak_inflight: 0,
                    budget: usize::MAX,
                    op_slots: IdMap::default(),
                    timers: IdMap::default(),
                    next_timer_tag: 0,
                    poke_pending: 0,
                    poke_waiters: Vec::new(),
                }),
                now: Cell::new(SimTime::ZERO),
            }),
        }
    }

    /// A handle for spawning tasks and issuing ops on this executor.
    pub(crate) fn handle(&self) -> ProcHandle {
        ProcHandle { shared: self.shared.clone() }
    }

    /// Highest concurrent in-flight op count this executor ever reached.
    pub fn peak_inflight(&self) -> u64 {
        self.shared.inner.borrow().peak_inflight
    }

    /// Tasks spawned and not yet finished.
    pub fn live_tasks(&self) -> usize {
        self.shared.inner.borrow().live_tasks
    }

    /// What the `runtime.*` gauges sum over a node's executors: `(ops
    /// holding an in-flight credit, submitters parked for one, live tasks)`.
    pub(crate) fn load(&self) -> (usize, usize, usize) {
        let inner = self.shared.inner.borrow();
        (inner.inflight, inner.parked.len(), inner.live_tasks)
    }

    /// Issues every queued submission to the node, in program order.
    fn flush(&self, api: &mut NodeApi<'_, '_>) {
        loop {
            let sub = self.shared.inner.borrow_mut().submit_q.pop_front();
            let Some(sub) = sub else { break };
            match sub {
                Submission::Op { op, named_mn, slot } => {
                    if slot.borrow().cancel_requested {
                        // The deadline fired before the submission reached
                        // the node: resolve locally and refund the budget
                        // slot without ever issuing the op.
                        let unparked = release_credit(&mut self.shared.inner.borrow_mut());
                        let slot_waker = {
                            let mut s = slot.borrow_mut();
                            s.in_submit_q = false;
                            s.resolve_cancelled(api.now())
                        };
                        if let Some(w) = slot_waker {
                            w.wake();
                        }
                        if let Some(w) = unparked {
                            w.wake();
                        }
                        continue;
                    }
                    let arrival = slot.borrow().arrival;
                    let token = api.issue(op, named_mn, arrival);
                    self.issued(token, slot);
                }
                Submission::Vec { ops, slots } => {
                    let arrival = slots[0].borrow().arrival;
                    for (token, slot) in api.issue_vec(ops, arrival).into_iter().zip(slots) {
                        self.issued(token, slot);
                    }
                }
                Submission::Timer { tag, dur } => api.wake_in(dur, tag),
                Submission::Cancel { token } => api.cancel(token),
            }
        }
    }

    /// Files an op the node just accepted under its token. A cancellation
    /// requested while it sat in the submit queue (only vector entries get
    /// here with one) goes through the node now that a token exists.
    fn issued(&self, token: AppToken, slot: Rc<RefCell<OpSlot>>) {
        let cancel = {
            let mut s = slot.borrow_mut();
            s.in_submit_q = false;
            s.token = Some(token);
            s.cancel_requested
        };
        let mut inner = self.shared.inner.borrow_mut();
        inner.op_slots.insert(token, slot);
        if cancel {
            inner.submit_q.push_back(Submission::Cancel { token });
        }
    }

    /// Runs the executor to quiescence: flush submissions, poll every
    /// ready task, repeat until both queues drain.
    fn drain(&self, api: &mut NodeApi<'_, '_>) {
        self.shared.now.set(api.now());
        loop {
            self.flush(api);
            match self.shared.pop_ready() {
                Some(tid) => poll_one(&self.shared, tid),
                None if self.shared.inner.borrow().submit_q.is_empty() => break,
                None => continue,
            }
        }
    }

    /// Called once when the cluster starts: tasks spawned so far run.
    pub(crate) fn on_start(&self, api: &mut NodeApi<'_, '_>) {
        {
            let mut inner = self.shared.inner.borrow_mut();
            inner.running = true;
            inner.budget = api.inflight_budget();
        }
        self.drain(api);
    }

    /// Called for every completed op this executor issued — the one
    /// completion wake: the result goes into the op's slot first, then the
    /// awaiting task (if any) is woken and polled in this same sim event.
    pub(crate) fn on_completion(&self, api: &mut NodeApi<'_, '_>, completion: AppCompletion) {
        let (slot_waker, unparked) = {
            let mut inner = self.shared.inner.borrow_mut();
            match inner.op_slots.remove(&completion.token) {
                Some(slot) => {
                    let slot_waker = {
                        let mut s = slot.borrow_mut();
                        s.result = Some(completion);
                        s.waker.take()
                    };
                    let unparked = release_credit(&mut inner);
                    (slot_waker, unparked)
                }
                None => (None, None),
            }
        };
        if let Some(w) = slot_waker {
            w.wake();
        }
        if let Some(w) = unparked {
            w.wake();
        }
        self.drain(api);
    }

    /// Called when a timer armed through [`NodeApi::wake_in`] fires (a
    /// task's sleep came due), or with [`POKE_TAG`] for an outside poke.
    pub(crate) fn on_wake(&self, api: &mut NodeApi<'_, '_>, tag: u64) {
        if tag == POKE_TAG {
            let waiters = {
                let mut inner = self.shared.inner.borrow_mut();
                // Record the poke even when waiters exist: a woken waiter
                // re-polls its PokeFuture, which resolves by consuming
                // `poke_pending` — skipping the increment would leave it
                // parked forever.
                inner.poke_pending += 1;
                std::mem::take(&mut inner.poke_waiters)
            };
            for w in waiters {
                w.wake();
            }
        } else {
            let waker = {
                let mut inner = self.shared.inner.borrow_mut();
                match inner.timers.get_mut(&tag) {
                    Some(t) => {
                        t.fired = true;
                        t.waker.take()
                    }
                    None => None,
                }
            };
            if let Some(w) = waker {
                w.wake();
            }
        }
        self.drain(api);
    }
}

/// A cloneable handle onto one executor: spawn tasks, issue awaitable
/// remote ops, sleep in virtual time — the paper's client API (§3.1).
#[derive(Clone)]
pub struct ProcHandle {
    shared: Rc<ExecShared>,
}

impl ProcHandle {
    /// Current virtual time (as of the executor's last activation).
    pub fn now(&self) -> SimTime {
        self.shared.now.get()
    }

    /// Ops currently holding an in-flight credit.
    pub fn inflight(&self) -> usize {
        self.shared.inner.borrow().inflight
    }

    /// Spawns a task. While the executor runs, the task is polled inline
    /// (before `spawn` returns) so its first submissions keep program
    /// order with the spawner's subsequent ops; pre-start spawns queue and
    /// run at cluster start.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) {
        let (tid, running) = {
            let mut inner = self.shared.inner.borrow_mut();
            inner.next_task += 1;
            inner.live_tasks += 1;
            (inner.next_task, inner.running)
        };
        let waker =
            Waker::from(Arc::new(TaskWaker { ready: self.shared.ready.clone(), task: tid }));
        let fut: BoxedTask = Box::pin(fut);
        if running {
            poll_task(&self.shared, tid, fut, waker);
        } else {
            self.shared.inner.borrow_mut().tasks.insert(tid, Task { fut: Some(fut), waker });
            self.shared.ready.lock().expect("executor ready queue").push_back(tid);
        }
    }

    /// An op for the node to route — or, with `named_mn`, to send where the
    /// task says (`roffload`).
    fn op(&self, op: Op, named_mn: Option<Mac>) -> OpFuture {
        OpFuture {
            shared: self.shared.clone(),
            slot: OpSlot::new(self.now()),
            state: OpState::Start(Some((op, named_mn))),
        }
    }

    /// Queues `ops` as one scatter/gather submission, *now* (not at first
    /// poll: the vector is one unit however its entries are awaited). A
    /// batch debits the budget (later scalar ops park) but never parks
    /// itself, even if it alone exceeds the budget.
    fn op_v(&self, ops: Vec<Op>) -> Vec<OpFuture> {
        if ops.is_empty() {
            return Vec::new();
        }
        let n = ops.len();
        let slots: Vec<_> = (0..n).map(|_| OpSlot::new(self.now())).collect();
        let mut inner = self.shared.inner.borrow_mut();
        inner.inflight += n;
        inner.peak_inflight = inner.peak_inflight.max(inner.inflight as u64);
        for slot in &slots {
            slot.borrow_mut().in_submit_q = true;
        }
        inner.submit_q.push_back(Submission::Vec { ops, slots: slots.clone() });
        slots
            .into_iter()
            .map(|slot| OpFuture { shared: self.shared.clone(), slot, state: OpState::Queued })
            .collect()
    }

    /// Bounds `op` by a deadline: if it has not completed after `deadline`
    /// of virtual time, it is cancelled — the budget slot is released, a
    /// `Cancelled` stage ends its trace, and the future resolves with
    /// [`ClioError::DeadlineExceeded`] in the completion's result. An op
    /// that completes first resolves normally; cancellation never
    /// un-completes a finished op.
    pub fn with_deadline(&self, op: OpFuture, deadline: SimDuration) -> DeadlineFuture {
        op.with_deadline(deadline)
    }

    /// `ralloc`: allocate remote memory (await yields a VA completion).
    pub fn ralloc(&self, size: u64, perm: Perm) -> OpFuture {
        self.op(Op::Alloc { size, perm }, None)
    }

    /// `rfree`.
    pub fn rfree(&self, va: u64, size: u64) -> OpFuture {
        self.op(Op::Free { va, size }, None)
    }

    /// `rread`: await yields the data completion.
    pub fn rread(&self, va: u64, len: u32) -> OpFuture {
        self.op(Op::Read { va, len }, None)
    }

    /// `rwrite`.
    pub fn rwrite(&self, va: u64, data: Bytes) -> OpFuture {
        self.op(Op::Write { va, data }, None)
    }

    /// `rlock` (resolves when acquired).
    pub fn rlock(&self, va: u64) -> OpFuture {
        self.op(Op::Lock { va }, None)
    }

    /// `runlock`.
    pub fn runlock(&self, va: u64) -> OpFuture {
        self.op(Op::Unlock { va }, None)
    }

    /// Fetch-and-add on a remote 8-byte word.
    pub fn rfaa(&self, va: u64, delta: u64) -> OpFuture {
        self.op(Op::Faa { va, delta }, None)
    }

    /// Compare-and-swap on a remote 8-byte word.
    pub fn rcas(&self, va: u64, expected: u64, new: u64) -> OpFuture {
        self.op(Op::Cas { va, expected, new }, None)
    }

    /// `rfence`: fences this process's requests on every MN.
    pub fn rfence(&self) -> OpFuture {
        self.op(Op::Fence, None)
    }

    /// `rrelease`: local barrier over this process's outstanding ops.
    pub fn rrelease(&self) -> OpFuture {
        self.op(Op::Release, None)
    }

    /// Invokes an offload installed on `mn`.
    pub fn roffload(&self, mn: Mac, offload: u16, opcode: u16, arg: Bytes) -> OpFuture {
        self.op(Op::Offload { offload, opcode, arg }, Some(mn))
    }

    /// `rread_v`: scatter/gather read. The whole vector is submitted as
    /// one unit at this call — it coalesces into batch frames regardless of
    /// doorbell timing — and each entry completes independently: one
    /// already-issued future per entry, in order, to await in any order
    /// (or from different tasks).
    pub fn rread_v(&self, reads: Vec<(u64, u32)>) -> Vec<OpFuture> {
        self.op_v(reads.into_iter().map(|(va, len)| Op::Read { va, len }).collect())
    }

    /// `rwrite_v`: scatter/gather write, the mirror of [`rread_v`](Self::rread_v).
    pub fn rwrite_v(&self, writes: Vec<(u64, Bytes)>) -> Vec<OpFuture> {
        self.op_v(writes.into_iter().map(|(va, data)| Op::Write { va, data }).collect())
    }

    /// Sleeps for `dur` of virtual time.
    pub fn sleep(&self, dur: SimDuration) -> SleepFuture {
        SleepFuture { shared: self.shared.clone(), state: SleepState::Start { dur } }
    }

    /// Resolves on the next [`PokeDriver`](crate::node::PokeDriver)
    /// delivered to this executor (level-triggered: pokes arriving while
    /// nobody awaits are not lost) — how a harness injects a stimulus into
    /// a running program.
    pub fn next_poke(&self) -> PokeFuture {
        PokeFuture { shared: self.shared.clone() }
    }
}

enum OpState {
    /// Not yet polled: the op to submit, and the MN its task named (if any).
    Start(Option<(Op, Option<Mac>)>),
    Queued,
    Done,
}

/// An awaitable remote op. Resolves to the full [`AppCompletion`] (value,
/// issue/completion timestamps) when the executor delivers its completion
/// and wakes the awaiting task.
pub struct OpFuture {
    shared: Rc<ExecShared>,
    slot: Rc<RefCell<OpSlot>>,
    state: OpState,
}

impl OpFuture {
    /// Back-dates this op's arrival to `at` (clamped to "not in the
    /// future"): its `issued_at`, latency, and trace origin start there,
    /// with the wait until actual submission attributed to the
    /// `SubmitQueued` stage. Open-loop generators use this so measured
    /// latency includes queueing delay. No effect once the op is submitted
    /// (first poll; for a vector entry, the `rread_v`/`rwrite_v` call).
    pub fn arriving_at(self, at: SimTime) -> Self {
        if let OpState::Start(_) = self.state {
            self.slot.borrow_mut().arrival = at;
        }
        self
    }

    /// Bounds this op by a deadline (see [`ProcHandle::with_deadline`]).
    pub fn with_deadline(self, deadline: SimDuration) -> DeadlineFuture {
        let sleep =
            SleepFuture { shared: self.shared.clone(), state: SleepState::Start { dur: deadline } };
        DeadlineFuture { op: self, sleep, expired: false }
    }

    /// A handle that can cancel this op from another task (or after the
    /// future has been moved into a combinator).
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle { shared: self.shared.clone(), slot: self.slot.clone() }
    }
}

impl Future for OpFuture {
    type Output = AppCompletion;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<AppCompletion> {
        let this = self.get_mut();
        match &mut this.state {
            OpState::Start(op) => {
                if let Some(c) = this.slot.borrow_mut().result.take() {
                    // Cancelled before it was ever submitted.
                    this.state = OpState::Done;
                    return Poll::Ready(c);
                }
                let mut inner = this.shared.inner.borrow_mut();
                let pre_admitted = std::mem::take(&mut this.slot.borrow_mut().admitted);
                if !pre_admitted {
                    if inner.inflight >= inner.budget || !inner.parked.is_empty() {
                        // Budget exhausted (or peers already queued — no
                        // barging past them): park FIFO until a completion
                        // hands this op its credit. `arrival` is untouched,
                        // so the whole park shows up as SubmitQueued.
                        if let Some(entry) =
                            inner.parked.iter_mut().find(|(s, _)| Rc::ptr_eq(s, &this.slot))
                        {
                            entry.1 = cx.waker().clone(); // re-polled while parked
                        } else {
                            inner.parked.push_back((this.slot.clone(), cx.waker().clone()));
                        }
                        this.slot.borrow_mut().waker = Some(cx.waker().clone());
                        return Poll::Pending;
                    }
                    inner.inflight += 1;
                }
                inner.peak_inflight = inner.peak_inflight.max(inner.inflight as u64);
                {
                    let mut s = this.slot.borrow_mut();
                    s.waker = Some(cx.waker().clone());
                    s.in_submit_q = true;
                }
                let (op, named_mn) = op.take().expect("op submitted once");
                inner.submit_q.push_back(Submission::Op { op, named_mn, slot: this.slot.clone() });
                drop(inner);
                this.state = OpState::Queued;
                Poll::Pending
            }
            OpState::Queued => {
                let mut s = this.slot.borrow_mut();
                match s.result.take() {
                    Some(c) => {
                        drop(s);
                        this.state = OpState::Done;
                        Poll::Ready(c)
                    }
                    None => {
                        s.waker = Some(cx.waker().clone());
                        Poll::Pending
                    }
                }
            }
            OpState::Done => panic!("OpFuture polled after completion"),
        }
    }
}

/// Requests cancellation of the op behind `slot`. Three cases, by how far
/// the op has travelled:
///
/// * **issued** (token known) — queue a `Submission::Cancel`; the node
///   cancels it through CLib and the completion flows back normally.
/// * **in the submit queue** — mark the slot; the executor's flush resolves
///   it locally instead of issuing (refunding the budget slot).
/// * **parked / not yet polled** — resolve locally now, pulling the op out
///   of the park queue so a later credit handoff doesn't wake a dead
///   submitter; a credit already handed to the op is released (possibly
///   handed straight on to the next parked peer).
fn request_cancel(shared: &Rc<ExecShared>, slot: &Rc<RefCell<OpSlot>>) {
    let (token, in_submit_q) = {
        let mut s = slot.borrow_mut();
        if s.result.is_some() || s.cancel_requested {
            return;
        }
        s.cancel_requested = true;
        (s.token, s.in_submit_q)
    };
    let mut inner = shared.inner.borrow_mut();
    if let Some(token) = token {
        inner.submit_q.push_back(Submission::Cancel { token });
        return;
    }
    if in_submit_q {
        return; // flush() resolves it when the submission surfaces
    }
    inner.parked.retain(|(s, _)| !Rc::ptr_eq(s, slot));
    let handoff = if std::mem::take(&mut slot.borrow_mut().admitted) {
        release_credit(&mut inner)
    } else {
        None
    };
    drop(inner);
    let waker = slot.borrow_mut().resolve_cancelled(shared.now.get());
    if let Some(w) = waker {
        w.wake();
    }
    if let Some(w) = handoff {
        w.wake();
    }
}

/// Cancels one op from outside its awaiting task (see
/// [`OpFuture::cancel_handle`]). Cloneable; cancelling twice, or after the
/// op completed, is a no-op.
#[derive(Clone)]
pub struct CancelHandle {
    shared: Rc<ExecShared>,
    slot: Rc<RefCell<OpSlot>>,
}

impl CancelHandle {
    /// Requests cancellation: the op resolves with
    /// [`ClioError::DeadlineExceeded`] unless it already completed.
    pub fn cancel(&self) {
        request_cancel(&self.shared, &self.slot);
    }
}

/// An [`OpFuture`] bounded by a deadline (built by
/// [`ProcHandle::with_deadline`] / [`OpFuture::with_deadline`]). Resolves
/// with the op's own completion, or — once the deadline passes — with a
/// completion carrying [`ClioError::DeadlineExceeded`].
pub struct DeadlineFuture {
    op: OpFuture,
    sleep: SleepFuture,
    expired: bool,
}

impl Future for DeadlineFuture {
    type Output = AppCompletion;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<AppCompletion> {
        let this = self.get_mut();
        if let Poll::Ready(c) = Pin::new(&mut this.op).poll(cx) {
            return Poll::Ready(c);
        }
        if !this.expired {
            if let Poll::Ready(()) = Pin::new(&mut this.sleep).poll(cx) {
                this.expired = true;
                request_cancel(&this.op.shared, &this.op.slot);
                // A parked or still-queued op resolves synchronously.
                if let Poll::Ready(c) = Pin::new(&mut this.op).poll(cx) {
                    return Poll::Ready(c);
                }
            }
        }
        Poll::Pending
    }
}

enum SleepState {
    Start { dur: SimDuration },
    Waiting { tag: u64 },
    Done,
}

/// An awaitable virtual-time delay (carried by a sim timer event).
pub struct SleepFuture {
    shared: Rc<ExecShared>,
    state: SleepState,
}

impl Future for SleepFuture {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        match &mut this.state {
            SleepState::Start { dur } => {
                let mut inner = this.shared.inner.borrow_mut();
                inner.next_timer_tag += 1;
                let tag = inner.next_timer_tag;
                debug_assert_ne!(tag, POKE_TAG, "timer tags never reach the poke tag");
                inner
                    .timers
                    .insert(tag, TimerEntry { fired: false, waker: Some(cx.waker().clone()) });
                inner.submit_q.push_back(Submission::Timer { tag, dur: *dur });
                drop(inner);
                this.state = SleepState::Waiting { tag };
                Poll::Pending
            }
            SleepState::Waiting { tag } => {
                let mut inner = this.shared.inner.borrow_mut();
                let entry = inner.timers.get_mut(tag).expect("armed timer");
                if entry.fired {
                    let tag = *tag;
                    inner.timers.remove(&tag);
                    drop(inner);
                    this.state = SleepState::Done;
                    Poll::Ready(())
                } else {
                    entry.waker = Some(cx.waker().clone());
                    Poll::Pending
                }
            }
            SleepState::Done => panic!("SleepFuture polled after completion"),
        }
    }
}

/// Resolves when this executor receives a poke (see
/// [`ProcHandle::next_poke`]).
pub struct PokeFuture {
    shared: Rc<ExecShared>,
}

impl Future for PokeFuture {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.shared.inner.borrow_mut();
        if inner.poke_pending > 0 {
            inner.poke_pending -= 1;
            Poll::Ready(())
        } else {
            inner.poke_waiters.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig};
    use clio_proto::Pid;

    #[test]
    fn await_roundtrip_and_fanout() {
        let mut cluster = Cluster::build(&ClusterConfig::test_small());
        let done = Rc::new(Cell::new(false));
        let flag = done.clone();
        cluster.spawn(0, Pid(7), move |h| async move {
            let va = h.ralloc(4096, Perm::RW).await.va();
            h.rwrite(va, Bytes::from_static(b"executor says hi")).await;
            let echo = h.rread(va, 16).await;
            assert_eq!(echo.data().as_ref(), b"executor says hi");

            // Concurrent subtasks share the handle; spawn is inline-polled
            // so both writes are submitted before the fence below.
            let (h1, h2) = (h.clone(), h.clone());
            h.spawn(async move {
                h1.rwrite(va + 64, Bytes::from_static(b"a")).await;
            });
            h.spawn(async move {
                h2.rwrite(va + 128, Bytes::from_static(b"b")).await;
            });
            h.rfence().await;
            let (a, b) = (h.rread(va + 64, 1).await, h.rread(va + 128, 1).await);
            assert_eq!((a.data().as_ref(), b.data().as_ref()), (&b"a"[..], &b"b"[..]));

            h.sleep(SimDuration::from_micros(3)).await;
            let mut batch = h.rread_v(vec![(va, 4), (va + 64, 1)]);
            assert_eq!(batch.len(), 2);
            // Entries complete independently: await them in any order.
            assert_eq!(batch.pop().unwrap().await.data().as_ref(), b"a");
            assert_eq!(batch.pop().unwrap().await.data().as_ref(), b"exec");
            assert!(h.rread_v(Vec::new()).is_empty() && h.rwrite_v(Vec::new()).is_empty());
            flag.set(true);
        });
        cluster.start();
        cluster.run_until_idle();
        assert!(done.get(), "root task must run to completion");
        assert_eq!(cluster.cn(0).driver::<ExecDriver>(0).live_tasks(), 0);
    }

    #[test]
    fn budget_parks_submitters_and_recovers() {
        let mut cfg = ClusterConfig::test_small();
        cfg.runtime_inflight_budget = 2;
        let mut cluster = Cluster::build(&cfg);
        let completed = Rc::new(Cell::new(0u32));
        let n_ops = 16u64;
        let count = completed.clone();
        cluster.spawn(0, Pid(7), move |h| async move {
            let va = h.ralloc(1 << 16, Perm::RW).await.va();
            for i in 0..n_ops {
                let (h2, count) = (h.clone(), count.clone());
                h.spawn(async move {
                    h2.rwrite(va + i * 8192, Bytes::from_static(b"x")).await;
                    count.set(count.get() + 1);
                });
            }
        });
        cluster.start();
        cluster.run_until_idle();
        assert_eq!(completed.get(), n_ops as u32);
        let peak = cluster.cn(0).driver::<ExecDriver>(0).peak_inflight();
        assert!(peak <= 2, "budget of 2 must cap concurrency, saw {peak}");
        // Gauges drained back to zero once everything completed.
        let reg = cluster.registry();
        assert_eq!(reg.gauge("cn0.runtime.inflight"), Some(0));
        assert_eq!(reg.gauge("cn0.runtime.parked"), Some(0));
        assert_eq!(reg.gauge("cn0.runtime.tasks"), Some(0));
    }

    #[test]
    fn deadline_cancels_op_to_downed_link_and_budget_recovers() {
        use clio_net::{ChaosAction, ChaosSchedule, Mac};

        let mut cluster = Cluster::build(&ClusterConfig::test_small().with_tracing(1));
        let mn: Mac = cluster.mn_macs()[0];
        // Link to the only MN is dark from 50 µs to 600 µs.
        let schedule = ChaosSchedule::new()
            .at(SimDuration::from_micros(50), ChaosAction::LinkDown(mn))
            .at(SimDuration::from_micros(600), ChaosAction::LinkUp(mn));
        cluster.apply_chaos(&schedule);

        let outcome = Rc::new(RefCell::new(Vec::new()));
        let sink = outcome.clone();
        cluster.spawn(0, Pid(7), move |h| async move {
            let va = h.ralloc(4096, Perm::RW).await.va();
            h.rwrite(va, Bytes::from_static(b"before outage")).await;
            h.sleep(SimDuration::from_micros(60)).await;
            // The link is down: without the 80 µs deadline this read would
            // burn the full retry budget (~200 µs) before erroring.
            let c = h.with_deadline(h.rread(va, 13), SimDuration::from_micros(80)).await;
            sink.borrow_mut().push(c.result.clone());
            h.sleep(SimDuration::from_micros(700)).await;
            // Link restored: the same address still serves the committed
            // bytes, and the freed budget slot admits the op.
            let c = h.rread(va, 13).await;
            sink.borrow_mut().push(c.result.clone());
        });
        cluster.start();
        cluster.run_until_idle();

        let results = outcome.borrow();
        assert_eq!(results.len(), 2, "both ops terminated");
        assert_eq!(results[0], Err(clio_cn::ClioError::DeadlineExceeded));
        match &results[1] {
            Ok(v) => assert_eq!(
                match v {
                    clio_cn::CompletionValue::Data(d) => &d[..],
                    other => panic!("expected data, got {other:?}"),
                },
                b"before outage"
            ),
            other => panic!("post-outage read failed: {other:?}"),
        }

        let reg = cluster.registry();
        assert_eq!(reg.counter("cn0.runtime.deadline_exceeded_total"), Some(1));
        assert_eq!(reg.gauge("cn0.runtime.inflight"), Some(0), "budget slot released");
        assert_eq!(reg.gauge("cn0.runtime.parked"), Some(0));
        // The cancelled op's trace ends with a Cancelled stage.
        let traces = cluster.take_traces();
        assert!(
            traces.iter().any(|t| t.spans.iter().any(|s| s.stage == clio_trace::Stage::Cancelled)),
            "cancelled op records a Cancelled stage"
        );
    }

    #[test]
    fn cancel_handle_resolves_parked_op_without_submitting() {
        let mut cfg = ClusterConfig::test_small();
        cfg.runtime_inflight_budget = 1;
        let mut cluster = Cluster::build(&cfg);
        let outcome = Rc::new(RefCell::new(Vec::new()));
        let sink = outcome.clone();
        let b_times = Rc::new(Cell::new(None));
        let times = b_times.clone();
        cluster.spawn(0, Pid(7), move |h| async move {
            let va = h.ralloc(4096, Perm::RW).await.va();
            let fut_a = h.rwrite(va, Bytes::from_static(b"a"));
            // B is back-dated (an open-loop arrival 700 ns ago): however it
            // ends, its completion reports that arrival, so the time spent
            // parked counts as latency.
            let arrived = h.now() - SimDuration::from_nanos(700);
            let fut_b = h.rwrite(va + 64, Bytes::from_static(b"b")).arriving_at(arrived);
            let cancel_b = fut_b.cancel_handle();
            let (s1, s2, t) = (sink.clone(), sink.clone(), times.clone());
            // A takes the only budget slot; B parks behind it.
            h.spawn(async move {
                let c = fut_a.await;
                s1.borrow_mut().push(("a", c.result));
            });
            h.spawn(async move {
                let c = fut_b.await;
                t.set(Some((arrived, c.issued_at, c.latency())));
                s2.borrow_mut().push(("b", c.result));
            });
            cancel_b.cancel();
            cancel_b.cancel(); // idempotent
        });
        cluster.start();
        cluster.run_until_idle();

        let results = outcome.borrow();
        assert_eq!(results.len(), 2, "both tasks finished");
        let get = |k| results.iter().find(|(n, _)| *n == k).map(|(_, r)| r.clone()).unwrap();
        assert!(get("a").is_ok(), "the admitted write completes normally");
        assert_eq!(get("b"), Err(clio_cn::ClioError::DeadlineExceeded));
        // Cancelled while parked, B still reports its arrival — like an op
        // cancelled in the submit queue, not a zero-latency op issued "now".
        let (arrived, issued_at, latency) = b_times.get().expect("b completed");
        assert_eq!(issued_at, arrived);
        assert_eq!(latency, SimDuration::from_nanos(700));
        let reg = cluster.registry();
        // B never reached the node, so the node-level counter stays 0
        // and no unpark credit was wasted on the dead submitter.
        assert_eq!(reg.counter("cn0.runtime.deadline_exceeded_total"), Some(0));
        assert_eq!(reg.gauge("cn0.runtime.inflight"), Some(0));
        assert_eq!(reg.gauge("cn0.runtime.parked"), Some(0));
    }

    #[test]
    fn vector_entry_cancelled_before_the_flush_is_cancelled_at_the_node() {
        let mut cluster = Cluster::build(&ClusterConfig::test_small());
        let results = cluster.block_on(0, Pid(7), |h| async move {
            let va = h.ralloc(4096, Perm::RW).await.va();
            // The vector is queued by the call; cancelling an entry before
            // the executor flushes it must not lose the request.
            let mut entries = h.rread_v(vec![(va, 8), (va + 64, 8)]);
            entries[1].cancel_handle().cancel();
            let (second, first) = (entries.pop().unwrap().await, entries.pop().unwrap().await);
            (first.result, second.result)
        });
        assert!(results.0.is_ok(), "the untouched entry completes: {:?}", results.0);
        assert_eq!(results.1, Err(clio_cn::ClioError::DeadlineExceeded));
        let reg = cluster.registry();
        assert_eq!(reg.counter("cn0.runtime.deadline_exceeded_total"), Some(1));
        assert_eq!(reg.gauge("cn0.runtime.inflight"), Some(0), "both credits released");
    }

    /// Regression (issue 10): one task flooding the submit queue must not
    /// starve a FIFO-parked peer. With budget 1, the flooder's completion
    /// used to wake its own continuation first, which grabbed the freed
    /// slot before the parked peer was re-polled — the peer re-parked at
    /// the back and every flooder op completed before the peer's first.
    /// Credit handoff pre-admits the queue head, so completions alternate.
    #[test]
    fn parked_peer_is_not_starved_by_flooding_task() {
        let mut cfg = ClusterConfig::test_small();
        cfg.runtime_inflight_budget = 1;
        let mut cluster = Cluster::build(&cfg);
        let order = Rc::new(RefCell::new(Vec::new()));
        let (oa, ob) = (order.clone(), order.clone());
        cluster.spawn(0, Pid(7), move |h| async move {
            let va = h.ralloc(1 << 16, Perm::RW).await.va();
            let (ha, hb) = (h.clone(), h.clone());
            h.spawn(async move {
                for i in 0..12u64 {
                    ha.rwrite(va + i * 256, Bytes::from_static(b"A")).await;
                    oa.borrow_mut().push('A');
                }
            });
            h.spawn(async move {
                for i in 0..3u64 {
                    hb.rwrite(va + 8192 + i * 256, Bytes::from_static(b"B")).await;
                    ob.borrow_mut().push('B');
                }
            });
        });
        cluster.start();
        cluster.run_until_idle();
        let order = order.borrow();
        assert_eq!(order.len(), 15, "all ops completed: {order:?}");
        let first_b = order.iter().position(|&c| c == 'B').expect("peer completed");
        assert!(first_b < 4, "peer starved: first B at index {first_b} of {order:?}");
        let reg = cluster.registry();
        assert_eq!(reg.gauge("cn0.runtime.inflight"), Some(0));
        assert_eq!(reg.gauge("cn0.runtime.parked"), Some(0));
    }

    #[test]
    fn executor_schedule_is_digest_deterministic() {
        let run = |ops: u64| {
            let mut cluster = Cluster::build(&ClusterConfig::test_small());
            cluster.spawn(0, Pid(7), move |h| async move {
                let va = h.ralloc(1 << 16, Perm::RW).await.va();
                for i in 0..ops {
                    let h2 = h.clone();
                    h.spawn(async move {
                        h2.rwrite(va + i * 512, Bytes::from_static(b"d")).await;
                        h2.rread(va + i * 512, 1).await;
                    });
                }
            });
            cluster.start();
            cluster.run_until_idle();
            (cluster.sim.digest(), cluster.sim.events_dispatched(), cluster.now())
        };
        assert_eq!(run(64), run(64), "same program, same schedule");
        assert_ne!(run(64).0, run(32).0, "digest must actually depend on the run");
    }
}
