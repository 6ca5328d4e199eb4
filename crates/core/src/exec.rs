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
//! ## Wake path
//!
//! Awaiting an [`OpFuture`] counts it in flight and queues a submission;
//! the executor flushes queued submissions to its compute node in program
//! order. There is one completion wake: when the node delivers an op's
//! completion, the executor stores the result in the op's slot and wakes
//! the task that awaits it — once, with the result already deliverable,
//! so a completed op costs one poll. No layer below the executor holds a
//! waker.
//!
//! A wake is a task index. The executor records the task it is polling,
//! and a future that has to wait files that index where its wake will come
//! from: the op's slot or its sleep's timer record. A wake pushes the
//! index onto the ready queue. Tasks and timers live in generation-checked
//! slabs, so an index that outlives its task or timer finds nothing. Tasks are polled under [`Waker::noop`]: nothing is
//! cloned, counted or locked per wake.
//!
//! The rule this rests on: **a task may await only its own executor's
//! futures** ([`OpFuture`], [`DeadlineFuture`], [`SleepFuture`]) and
//! combinators over them. A future that keeps `cx.waker()` to wake its
//! task later would wait forever, so a task that returns `Pending` without
//! having filed its index panics, stating this rule.
//!
//! ## In-flight count
//!
//! Every op counts in flight from its first poll until its completion, live in the `cn<i>.runtime.inflight` / `.tasks`
//! registry gauges and as [`ExecDriver::peak_inflight`]. Nothing bounds
//! it: the transport's congestion and incast windows queue what the fabric
//! cannot take, and the wait before submission shows per op as a
//! `SubmitQueued` trace stage covering [arrival, submit].
//!
//! ## Open-loop load
//!
//! [`openloop`] generates seeded Poisson arrival schedules;
//! [`OpFuture::arriving_at`] back-dates an op to its generated arrival so
//! latency measurements include queueing delay, the way an open-loop
//! client would experience it.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use bytes::Bytes;
use clio_cn::{Completion, Op, OpToken};
use clio_net::Mac;
use clio_proto::Perm;
use clio_sim::{IdMap, SimDuration, SimTime};

use crate::node::NodeApi;

pub mod openloop;

type BoxedTask = Pin<Box<dyn Future<Output = ()>>>;

/// What a task that returns `Pending` without filing its index broke.
const AWAIT_RULE: &str = "a task may await only its own executor's futures \
    (OpFuture, DeadlineFuture, SleepFuture) and combinators over them: \
    it returned Pending without registering for a wake";

/// A record's handle in a [`Slab`]: its slot, and the slot's generation
/// when the record was made. A handle that outlives its record finds
/// nothing, even after a new record reuses the slot.
#[derive(Clone, Copy)]
struct Key {
    slot: u32,
    gen: u32,
}

impl Key {
    /// The key as the tag a timer event carries.
    fn tag(self) -> u64 {
        u64::from(self.gen) << 32 | u64::from(self.slot)
    }

    fn from_tag(tag: u64) -> Key {
        Key { slot: tag as u32, gen: (tag >> 32) as u32 }
    }
}

/// A task's index: what a wake pushes onto the ready queue.
type TaskId = Key;

/// Records under generation-checked [`Key`]s. A removed record's slot is
/// reused, LIFO, with its generation bumped.
struct Slab<T> {
    entries: Vec<(u32, Option<T>)>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { entries: Vec::new(), free: Vec::new() }
    }
}

impl<T> Slab<T> {
    fn insert(&mut self, value: T) -> Key {
        match self.free.pop() {
            Some(slot) => {
                let (gen, entry) = &mut self.entries[slot as usize];
                *entry = Some(value);
                Key { slot, gen: *gen }
            }
            None => {
                self.entries.push((0, Some(value)));
                Key { slot: (self.entries.len() - 1) as u32, gen: 0 }
            }
        }
    }

    fn get_mut(&mut self, key: Key) -> Option<&mut T> {
        match self.entries.get_mut(key.slot as usize) {
            Some((gen, entry)) if *gen == key.gen => entry.as_mut(),
            _ => None,
        }
    }

    fn remove(&mut self, key: Key) -> Option<T> {
        let (gen, entry) = self.entries.get_mut(key.slot as usize)?;
        if *gen != key.gen {
            return None;
        }
        let value = entry.take()?;
        *gen = gen.wrapping_add(1);
        self.free.push(key.slot);
        Some(value)
    }

    /// Records held.
    fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }
}

/// One outstanding op's mailbox, shared between its [`OpFuture`] and the
/// executor's token → slot map.
struct OpSlot {
    /// When the op arrived (its future was created, or the back-dated time
    /// set by [`OpFuture::arriving_at`]): what its completion reports as
    /// `issued_at`.
    arrival: SimTime,
    result: Option<Completion>,
    /// The task awaiting the result.
    waiter: Option<TaskId>,
    /// The op's token, known once the executor flushes the submission: what
    /// an expired deadline cancels it by, through [`NodeApi::cancel`].
    token: Option<OpToken>,
}

impl OpSlot {
    fn new(arrival: SimTime) -> Rc<RefCell<OpSlot>> {
        Rc::new(RefCell::new(OpSlot { arrival, result: None, waiter: None, token: None }))
    }
}

/// Work queued by task polls, flushed to the compute node in FIFO
/// (program) order.
enum Submission {
    Op { op: Op, named_mn: Option<Mac>, slot: Rc<RefCell<OpSlot>> },
    Timer { tag: u64, dur: SimDuration },
    Cancel { token: OpToken },
}

/// A sleep's timer record, from its [`SleepFuture`]'s first poll until the
/// future completes or is dropped.
struct TimerEntry {
    fired: bool,
    sleeper: Option<TaskId>,
}

struct ExecInner {
    /// False until `on_start`: pre-start spawns queue instead of polling
    /// inline (nothing can race them).
    running: bool,
    /// Spawned, unfinished tasks; a task's future is taken out while it is
    /// being polled.
    tasks: Slab<Option<BoxedTask>>,
    submit_q: VecDeque<Submission>,
    /// Ops polled and not yet resolved.
    inflight: usize,
    peak_inflight: u64,
    op_slots: IdMap<OpToken, Rc<RefCell<OpSlot>>>,
    timers: Slab<TimerEntry>,
}

struct ExecShared {
    /// Woken tasks, FIFO; a task woken twice is polled twice.
    ready: RefCell<VecDeque<TaskId>>,
    inner: RefCell<ExecInner>,
    /// Virtual time mirror, refreshed on every executor callback so futures
    /// can timestamp without a `Ctx`.
    now: Cell<SimTime>,
    /// The task being polled, if any.
    current: Cell<Option<TaskId>>,
    /// Whether the task being polled has filed its index for a wake.
    registered: Cell<bool>,
}

impl ExecShared {
    fn wake(&self, task: TaskId) {
        self.ready.borrow_mut().push_back(task);
    }

    /// The task being polled, for a future that files it to be woken.
    ///
    /// # Panics
    ///
    /// Panics if this executor is not polling a task: the future is being
    /// awaited by another executor's task, or outside any task.
    fn register(&self) -> TaskId {
        let task = self.current.get().expect(AWAIT_RULE);
        self.registered.set(true);
        task
    }
}

/// Polls registered task `tid` once, unless it has finished (a stale wake).
/// The future is taken out of its slab entry for the duration of the poll,
/// so tasks can spawn (and inline-poll) other tasks reentrantly.
fn poll_one(shared: &ExecShared, tid: TaskId) {
    let fut = shared.inner.borrow_mut().tasks.get_mut(tid).and_then(Option::take);
    if let Some(fut) = fut {
        poll_task(shared, tid, fut);
    }
}

/// Polls `fut`, task `tid`, once as the executor's current task: still
/// pending, it goes back into its slab entry; finished, the task is retired
/// and its slot freed. The poll nests inside another task's when that task
/// spawns, so the outer task's state is restored afterwards.
///
/// # Panics
///
/// Panics if the task returns `Pending` without having registered for a
/// wake (the module's await rule).
fn poll_task(shared: &ExecShared, tid: TaskId, mut fut: BoxedTask) {
    let outer = (shared.current.replace(Some(tid)), shared.registered.replace(false));
    let poll = fut.as_mut().poll(&mut Context::from_waker(Waker::noop()));
    let registered = shared.registered.replace(outer.1);
    shared.current.set(outer.0);
    match poll {
        Poll::Pending => {
            assert!(registered, "{AWAIT_RULE}");
            let mut inner = shared.inner.borrow_mut();
            *inner.tasks.get_mut(tid).expect("a pending task keeps its slot") = Some(fut);
        }
        Poll::Ready(()) => {
            // Dropped before the borrow: a finished task's futures may
            // release executor records as they go.
            drop(fut);
            let mut inner = shared.inner.borrow_mut();
            inner.tasks.remove(tid);
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
                ready: RefCell::new(VecDeque::new()),
                inner: RefCell::new(ExecInner {
                    running: false,
                    tasks: Slab::default(),
                    submit_q: VecDeque::new(),
                    inflight: 0,
                    peak_inflight: 0,
                    op_slots: IdMap::default(),
                    timers: Slab::default(),
                }),
                now: Cell::new(SimTime::ZERO),
                current: Cell::new(None),
                registered: Cell::new(false),
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
        self.shared.inner.borrow().tasks.len()
    }

    /// What the `runtime.*` gauges sum over a node's executors: `(ops in
    /// flight, live tasks)`.
    pub(crate) fn load(&self) -> (usize, usize) {
        let inner = self.shared.inner.borrow();
        (inner.inflight, inner.tasks.len())
    }

    /// Issues every queued submission to the node, in program order.
    fn flush(&self, api: &mut NodeApi<'_, '_>) {
        loop {
            let sub = self.shared.inner.borrow_mut().submit_q.pop_front();
            let Some(sub) = sub else { break };
            match sub {
                Submission::Op { op, named_mn, slot } => {
                    let arrival = slot.borrow().arrival;
                    let token = api.issue(op, named_mn, arrival);
                    slot.borrow_mut().token = Some(token);
                    self.shared.inner.borrow_mut().op_slots.insert(token, slot);
                }
                Submission::Timer { tag, dur } => api.wake_in(dur, tag),
                Submission::Cancel { token } => api.cancel(token),
            }
        }
    }

    /// Runs the executor to quiescence: flush submissions, poll every
    /// ready task, repeat until both queues drain.
    fn drain(&self, api: &mut NodeApi<'_, '_>) {
        self.shared.now.set(api.now());
        loop {
            self.flush(api);
            let next = self.shared.ready.borrow_mut().pop_front();
            match next {
                Some(tid) => poll_one(&self.shared, tid),
                None if self.shared.inner.borrow().submit_q.is_empty() => break,
                None => continue,
            }
        }
    }

    /// Called once when the cluster starts: tasks spawned so far run.
    pub(crate) fn on_start(&self, api: &mut NodeApi<'_, '_>) {
        self.shared.inner.borrow_mut().running = true;
        self.drain(api);
    }

    /// Called for every completed op this executor issued — the one
    /// completion wake: the result goes into the op's slot first, then the
    /// awaiting task (if any) is woken and polled in this same sim event.
    pub(crate) fn on_completion(&self, api: &mut NodeApi<'_, '_>, completion: Completion) {
        let waiter = {
            let mut inner = self.shared.inner.borrow_mut();
            inner.op_slots.remove(&completion.token).and_then(|slot| {
                inner.inflight -= 1;
                let mut s = slot.borrow_mut();
                s.result = Some(completion);
                s.waiter.take()
            })
        };
        if let Some(task) = waiter {
            self.shared.wake(task);
        }
        self.drain(api);
    }

    /// Called when a timer armed through [`NodeApi::wake_in`] fires (a
    /// task's sleep came due). A sleep dropped before its timer fired has
    /// released its record, so its timer wakes nobody.
    pub(crate) fn on_wake(&self, api: &mut NodeApi<'_, '_>, tag: u64) {
        let sleeper = {
            let mut inner = self.shared.inner.borrow_mut();
            inner.timers.get_mut(Key::from_tag(tag)).and_then(|t| {
                t.fired = true;
                t.sleeper.take()
            })
        };
        if let Some(task) = sleeper {
            self.shared.wake(task);
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

    /// Ops currently in flight.
    pub fn inflight(&self) -> usize {
        self.shared.inner.borrow().inflight
    }

    /// Spawns a task. While the executor runs, the task is polled inline
    /// (before `spawn` returns) so its first submissions keep program
    /// order with the spawner's subsequent ops; pre-start spawns queue and
    /// run at cluster start.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) {
        let fut: BoxedTask = Box::pin(fut);
        let mut inner = self.shared.inner.borrow_mut();
        if inner.running {
            let tid = inner.tasks.insert(None);
            drop(inner);
            poll_task(&self.shared, tid, fut);
        } else {
            let tid = inner.tasks.insert(Some(fut));
            drop(inner);
            self.shared.wake(tid);
        }
    }

    /// An op for CLib to route — or, with `named_mn`, to send where the
    /// task says (`roffload`).
    fn op(&self, op: Op, named_mn: Option<Mac>) -> OpFuture {
        OpFuture {
            shared: self.shared.clone(),
            slot: OpSlot::new(self.now()),
            state: OpState::Start(Some((op, named_mn))),
        }
    }

    /// Bounds `op` by a deadline: if it has not completed after `deadline`
    /// of virtual time, the node cancels it — a `Cancelled` stage ends its
    /// trace, and the future resolves with
    /// [`ClioError::DeadlineExceeded`](clio_cn::ClioError::DeadlineExceeded)
    /// in the completion's result. An op that completes first resolves
    /// normally; cancellation never un-completes a finished op.
    pub fn with_deadline(&self, op: OpFuture, deadline: SimDuration) -> DeadlineFuture {
        let sleep =
            SleepFuture { shared: self.shared.clone(), state: SleepState::Start { dur: deadline } };
        DeadlineFuture { op, sleep, expired: false }
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

    /// Sleeps for `dur` of virtual time.
    pub fn sleep(&self, dur: SimDuration) -> SleepFuture {
        SleepFuture { shared: self.shared.clone(), state: SleepState::Start { dur } }
    }
}

enum OpState {
    /// Not yet polled: the op to submit, and the MN its task named (if any).
    Start(Option<(Op, Option<Mac>)>),
    Queued,
    Done,
}

/// An awaitable remote op. Resolves to the full [`Completion`] (value,
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
    /// (its first poll).
    pub fn arriving_at(self, at: SimTime) -> Self {
        if let OpState::Start(_) = self.state {
            self.slot.borrow_mut().arrival = at;
        }
        self
    }
}

impl Future for OpFuture {
    type Output = Completion;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Completion> {
        let this = self.get_mut();
        match &mut this.state {
            OpState::Start(op) => {
                let mut inner = this.shared.inner.borrow_mut();
                inner.inflight += 1;
                inner.peak_inflight = inner.peak_inflight.max(inner.inflight as u64);
                this.slot.borrow_mut().waiter = Some(this.shared.register());
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
                        s.waiter = Some(this.shared.register());
                        Poll::Pending
                    }
                }
            }
            OpState::Done => panic!("OpFuture polled after completion"),
        }
    }
}

/// An [`OpFuture`] bounded by a deadline (built by
/// [`ProcHandle::with_deadline`]). Resolves with the op's own completion,
/// or — once the deadline passes — with a completion carrying
/// [`ClioError::DeadlineExceeded`](clio_cn::ClioError::DeadlineExceeded).
pub struct DeadlineFuture {
    op: OpFuture,
    sleep: SleepFuture,
    expired: bool,
}

impl Future for DeadlineFuture {
    type Output = Completion;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Completion> {
        let this = self.get_mut();
        if let Poll::Ready(c) = Pin::new(&mut this.op).poll(cx) {
            return Poll::Ready(c);
        }
        if !this.expired {
            if let Poll::Ready(()) = Pin::new(&mut this.sleep).poll(cx) {
                this.expired = true;
                // The op was polled before the sleep, and the submit queue
                // is FIFO: the node issued the op before it armed the
                // sleep's timer. Its cancel completes the op through the
                // slot.
                let token =
                    this.op.slot.borrow().token.expect("issued before its deadline's timer");
                this.op.shared.inner.borrow_mut().submit_q.push_back(Submission::Cancel { token });
            }
        }
        Poll::Pending
    }
}

enum SleepState {
    Start { dur: SimDuration },
    Waiting { timer: Key },
    Done,
}

/// An awaitable virtual-time delay (carried by a sim timer event). It
/// completes only once its own timer has fired; dropped before that, it
/// releases its timer record, and the timer then wakes nobody.
pub struct SleepFuture {
    shared: Rc<ExecShared>,
    state: SleepState,
}

impl Future for SleepFuture {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut inner = this.shared.inner.borrow_mut();
        match this.state {
            SleepState::Start { dur } => {
                let sleeper = Some(this.shared.register());
                let timer = inner.timers.insert(TimerEntry { fired: false, sleeper });
                inner.submit_q.push_back(Submission::Timer { tag: timer.tag(), dur });
                this.state = SleepState::Waiting { timer };
                Poll::Pending
            }
            SleepState::Waiting { timer } => {
                let entry = inner.timers.get_mut(timer).expect("armed timer");
                if entry.fired {
                    inner.timers.remove(timer);
                    this.state = SleepState::Done;
                    Poll::Ready(())
                } else {
                    entry.sleeper = Some(this.shared.register());
                    Poll::Pending
                }
            }
            SleepState::Done => panic!("SleepFuture polled after completion"),
        }
    }
}

impl Drop for SleepFuture {
    fn drop(&mut self) {
        // No task future is dropped while the executor's state is borrowed;
        // were one, the record would stay and its timer wake the task once.
        if let (SleepState::Waiting { timer }, Ok(mut inner)) =
            (&self.state, self.shared.inner.try_borrow_mut())
        {
            inner.timers.remove(*timer);
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
            // Issue-then-poll: spawned reads are in flight together, and
            // `rrelease` resolves once every one has completed.
            let got = Rc::new(RefCell::new(Vec::new()));
            for (at, len) in [(va, 4), (va + 64, 1)] {
                let (h1, got) = (h.clone(), got.clone());
                h.spawn(async move {
                    let c = h1.rread(at, len).await;
                    got.borrow_mut().push(c.data().clone());
                });
            }
            assert_eq!(h.inflight(), 2);
            h.rrelease().await;
            assert_eq!(*got.borrow(), [Bytes::from_static(b"exec"), Bytes::from_static(b"a")]);
            flag.set(true);
        });
        cluster.start();
        cluster.run_until_idle();
        assert!(done.get(), "root task must run to completion");
        assert_eq!(cluster.cn(0).driver::<ExecDriver>(0).live_tasks(), 0);
    }

    #[test]
    fn deadline_cancels_op_to_downed_link_and_reads_resume() {
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
            // bytes.
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
        assert_eq!(reg.gauge("cn0.runtime.inflight"), Some(0), "the cancelled op left the count");
        // The cancelled op's trace ends with a Cancelled stage.
        let traces = cluster.take_traces();
        assert!(
            traces.iter().any(|t| t.spans.iter().any(|s| s.stage == clio_trace::Stage::Cancelled)),
            "cancelled op records a Cancelled stage"
        );
    }

    #[test]
    fn a_zero_deadline_cancels_through_the_node() {
        let mut cluster = Cluster::build(&ClusterConfig::test_small());
        let c = cluster.block_on(0, Pid(7), |h| async move {
            let va = h.ralloc(4096, Perm::RW).await.va();
            // The deadline's wake is an event after the one that issues
            // the read, so the node has a token to cancel.
            h.with_deadline(h.rread(va, 8), SimDuration::ZERO).await
        });
        assert_eq!(c.result, Err(clio_cn::ClioError::DeadlineExceeded));
        assert_eq!(c.latency(), SimDuration::ZERO);
        let reg = cluster.registry();
        assert_eq!(reg.counter("cn0.runtime.deadline_exceeded_total"), Some(1));
        assert_eq!(reg.gauge("cn0.runtime.inflight"), Some(0));
    }

    #[test]
    fn a_released_task_id_finds_no_task_after_a_spawn_reuses_its_slot() {
        let mut cluster = Cluster::build(&ClusterConfig::test_small());
        cluster.block_on(0, Pid(7), |h| async move {
            let ids = Rc::new(Cell::new((None, None)));
            let second_polls = Rc::new(Cell::new(0));
            let (h1, ids1) = (h.clone(), ids.clone());
            // Finishes inside its first poll, releasing its slot at once.
            h.spawn(async move { ids1.set((h1.shared.current.get(), None)) });
            let (h2, ids2, polls) = (h.clone(), ids.clone(), second_polls.clone());
            h.spawn(async move {
                polls.set(polls.get() + 1);
                ids2.set((ids2.get().0, h2.shared.current.get()));
                h2.sleep(SimDuration::from_micros(1)).await;
                polls.set(polls.get() + 1);
            });
            let (Some(old), Some(new)) = ids.get() else { panic!("both tasks ran") };
            assert_eq!(old.slot, new.slot, "the second spawn reuses the released slot");
            assert_ne!(old.gen, new.gen);
            {
                let mut inner = h.shared.inner.borrow_mut();
                assert!(inner.tasks.get_mut(old).is_none(), "a released id finds no task");
                assert!(inner.tasks.get_mut(new).is_some());
            }
            // A stale wake polls nobody: not the task now in the slot.
            poll_one(&h.shared, old);
            assert_eq!(second_polls.get(), 1);
            h.sleep(SimDuration::from_micros(2)).await;
            assert_eq!(second_polls.get(), 2, "the live task still runs to its end");
        });
        assert_eq!(cluster.cn(0).driver::<ExecDriver>(0).live_tasks(), 0);
    }

    #[test]
    fn a_deadline_that_loses_its_race_releases_its_timer() {
        let mut cluster = Cluster::build(&ClusterConfig::test_small());
        cluster.block_on(0, Pid(7), |h| async move {
            let va = h.ralloc(4096, Perm::RW).await.va();
            for _ in 0..100 {
                let c = h.with_deadline(h.rread(va, 8), SimDuration::from_micros(500)).await;
                assert!(c.result.is_ok(), "the read beats its deadline");
            }
            let timers_held = || h.shared.inner.borrow().timers.len();
            assert_eq!(timers_held(), 0, "no lost race keeps a timer");
            // Every losing deadline's timer fires in here, waking nobody.
            h.sleep(SimDuration::from_millis(2)).await;
            assert_eq!(timers_held(), 0);
        });
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
