//! CLib's user-facing request layer (paper §3.1 API, §4.5 ordering, §4.7
//! distributed memory).
//!
//! A [`CLib`] instance lives inside a compute-node host actor, next to the
//! NIC. Applications (through the executor in `clio-core`) submit [`Op`]s
//! tagged with a [`ThreadId`]; CLib enforces the paper's intra-thread
//! ordering rules before handing requests to the [`Transport`]:
//!
//! * dependent (WAW/RAW/WAR) operations of one thread never overlap,
//!   tracked at page granularity,
//! * [`Op::Release`] (`rrelease`) waits for all of the thread's in-flight
//!   operations; [`Op::Fence`] additionally fences at every memory node,
//!   one leg after another,
//! * `rlock` spins on MN-side test-and-set with local backoff; `runlock`
//!   stores 0 (§4.5 T3).
//!
//! `CLib::finish` decides every re-issue of an op — a lock spin, a
//! fence's next leg, a backoff after a `Conflict` refusal (the range is
//! migrating, §4.7), a re-route after `Moved` — and each one re-enters
//! the transport through [`Transport::send`], like a first submission.
//! A spin, backoff or re-route happens only within
//! [`CLibConfig::REISSUE_HORIZON`] of the op's arrival; past it the op
//! ends with its last refusal.
//!
//! CLib routes every op not submitted to a named memory node
//! ([`crate::route`]) and asks its host for what needs the global
//! controller ([`Notice`]). An op has one token and one record here,
//! whatever legs or re-routes it takes. Completions are returned from
//! [`CLib::on_frame`]/[`CLib::on_timer`] for the host to deliver to the
//! issuing application.

use std::ops::RangeInclusive;

use bytes::Bytes;
use clio_net::{Frame, Mac, NicPort};
use clio_proto::{Pid, Status};
use clio_sim::{Ctx, IdMap, Message, SimDuration, SimTime};
use clio_trace::metrics::{Metrics, Visit};
use clio_trace::{Stage, TraceCtx, Tracer, Track};

use crate::config::CLibConfig;
use crate::error::ClioError;
use crate::op::Op;
use crate::ordering::{AccessClass, DependencyTracker};
use crate::route::{RasRouter, Route};
use crate::transport::{CompletionValue, OpToken, Transport, TransportTimer, XferDone};

/// Identifies an application thread for intra-thread ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u64);

/// A finished operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The operation's token.
    pub token: OpToken,
    /// The issuing thread.
    pub thread: ThreadId,
    /// Outcome.
    pub result: Result<CompletionValue, ClioError>,
    /// When the op arrived: what its end-to-end latency runs from.
    pub issued_at: SimTime,
    /// Completion time.
    pub completed_at: SimTime,
}

impl Completion {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.since(self.issued_at)
    }

    /// Unwraps read/offload data.
    ///
    /// # Panics
    ///
    /// Panics if the operation failed or returned no data.
    pub fn data(&self) -> &Bytes {
        match &self.result {
            Ok(CompletionValue::Data(d)) => d,
            other => panic!("expected data completion, got {other:?}"),
        }
    }

    /// Unwraps an allocation's virtual address.
    ///
    /// # Panics
    ///
    /// Panics if the operation failed or was not an allocation.
    pub fn va(&self) -> u64 {
        match &self.result {
            Ok(CompletionValue::Va(va)) => *va,
            other => panic!("expected va completion, got {other:?}"),
        }
    }
}

/// What CLib needs the global controller for (§4.7), in the order it
/// arose; the host drains them with [`CLib::notices`] after every call.
/// Only ops CLib routes itself (submitted without a named MN) raise them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Notice {
    /// `Place(token, pid, size)`: the `ralloc` held as `token` needs an MN
    /// for `size` bytes of `pid`'s, in whole pages as the board reserves
    /// them; the host answers with [`CLib::place`].
    Place(OpToken, Pid, u64),
    /// `Reroute(token, pid, va, len)`: the access held as `token` was
    /// refused `Moved`; the host asks who owns `[va, va + len)` of `pid`'s
    /// now and answers with [`CLib::place`].
    Reroute(OpToken, Pid, u64, u64),
    /// `Allocated(pid, mn, size, va)`: an `ralloc` placed on `mn` finished.
    /// It holds the whole pages `[va, va + size)` there, or (`va` is
    /// `None`: it failed or was cancelled) nothing, and its placement
    /// charge comes back.
    Allocated(Pid, Mac, u64, Option<u64>),
    /// `Freed(pid, va)`: an `rfree` of `pid`'s range at `va` succeeded.
    Freed(Pid, u64),
}

/// The one record of an op between its submission and its completion.
#[derive(Debug, Clone)]
struct PendingOp {
    thread: ThreadId,
    /// The memory node serving the op (a fence: the leg in flight); `None`
    /// while CLib holds it unplaced, outside the tracker and the trace.
    mn: Option<Mac>,
    pid: Pid,
    op: Op,
    /// The op's arrival, reported by its completion however it travels.
    issued_at: SimTime,
    /// The arrival, while it predates the op's first admission: where its
    /// trace begins (an `ralloc` is admitted once it is placed).
    queued_since: Option<SimTime>,
    /// Observability context, begun at admission; lock-spin and `Conflict`
    /// re-issues and fence legs extend it, a re-route begins a new one.
    trace: Option<TraceCtx>,
    /// No MN was named: a fence fences every MN, a `Moved` refusal
    /// re-routes, an alloc or free reaches the controller's books.
    routed: bool,
    /// Lock spins, `Conflict` backoffs and `Moved` re-routes so far.
    reissues: u32,
    /// `Conflict` refusals backed off from so far.
    conflicts: u32,
    /// `Moved` refusals re-routed so far.
    moves: u32,
    /// A fence's first failed leg: a fence that missed an MN did not fence.
    leg_error: Option<ClioError>,
}

/// Timer message for lock-acquisition backoff; hosts route it to
/// [`CLib::on_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRetry {
    token: OpToken,
}

/// Timer message ending a `Conflict` backoff, or the backoff before a
/// repeated `Moved` re-route; hosts route it to [`CLib::on_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictRetry {
    token: OpToken,
}

clio_trace::counters! {
    /// CLib counters.
    pub struct ClibStats: "clib" {
        /// Operations completed (success or failure).
        completed,
    }
}

/// The compute-node library instance (one per CN host actor).
///
/// `clone()` is an independent copy of the library as it stands: ordering
/// state, pending ops, counters and the transport with its windows, queues
/// and armed timers, whose [`EventId`](clio_sim::EventId)s stay valid in a
/// [`Simulation::fork`](clio_sim::Simulation::fork) taken at the same
/// instant. Only the [`Tracer`] handle stays shared: a tracer collects for
/// a whole run.
#[derive(Debug, Clone)]
pub struct CLib {
    page_size: u64,
    transport: Transport,
    router: RasRouter,
    trackers: IdMap<ThreadId, DependencyTracker<OpToken>>,
    ops: IdMap<OpToken, PendingOp>,
    next_token: u64,
    notices: Vec<Notice>,
    /// Reused buffer the transport reports finished transfers into.
    xfer_done: Vec<XferDone>,
    /// Reused buffer [`DependencyTracker::complete`] releases into.
    released: Vec<OpToken>,
    stats: ClibStats,
    tracer: Tracer,
    track: Track,
}

impl CLib {
    /// Creates a CLib for a CN. `cn_id` seeds the CN-unique request-id
    /// space; `page_size` must match the MNs' page size for dependency
    /// tracking granularity. Ops submitted without a named MN are routed
    /// over `slices` (base, span, owner MAC per MN; a fence fences every MN
    /// in address order); with none, every op names its MN.
    pub fn new(cfg: CLibConfig, cn_id: u64, page_size: u64, slices: Vec<(u64, u64, Mac)>) -> Self {
        CLib {
            transport: Transport::new(cfg, cn_id),
            page_size,
            router: RasRouter::new(slices),
            trackers: IdMap::default(),
            ops: IdMap::default(),
            next_token: 1,
            notices: Vec::new(),
            xfer_done: Vec::new(),
            released: Vec::new(),
            stats: ClibStats::default(),
            tracer: Tracer::disabled(),
            track: Track::Cn(0),
        }
    }

    /// Injects the tracer and the CN track this CLib (and its transport)
    /// stitch spans onto. Called by the cluster layer after construction;
    /// without it tracing stays disabled at zero cost.
    pub fn set_tracer(&mut self, tracer: Tracer, track: Track) {
        self.tracer = tracer.clone();
        self.track = track;
        self.transport.set_tracer(tracer, track);
    }

    /// Operations not yet completed across all threads, held unplaced ones
    /// included.
    pub fn in_flight(&self) -> usize {
        self.ops.len()
    }

    /// The underlying transport, read-only — the model checker fingerprints
    /// and invariant-checks the transport through this.
    pub fn transport(&self) -> &Transport {
        &self.transport
    }

    /// The underlying transport, mutable — the model checker plants
    /// [`McMutation`](crate::transport::McMutation)s through this.
    pub fn transport_mut(&mut self) -> &mut Transport {
        &mut self.transport
    }

    /// The MN a `len`-byte access at `(pid, va)` routes to right now —
    /// `None` when the address is unknown or the access spans owners.
    pub fn route_of(&self, pid: Pid, va: u64, len: u64) -> Option<Mac> {
        match self.router.lookup(pid, va, len) {
            Route::Owned(mac) => Some(mac),
            _ => None,
        }
    }

    /// Applies a committed migration the controller broadcast: `[start,
    /// start + len)` of `pid` now lives on `mn`, so the next access targets
    /// it directly instead of eating a `Moved` refusal. The router learns
    /// only from this broadcast, which lands before the controller's reply
    /// to any query a `Moved` refusal raised.
    pub fn apply_route_update(&mut self, pid: Pid, start: u64, len: u64, mn: Mac) {
        self.router.learn(pid, start, len, mn);
    }

    /// The controller conversation raised since the last drain, in order.
    pub fn notices(&mut self) -> std::vec::Drain<'_, Notice> {
        self.notices.drain(..)
    }

    /// The bytes an `ralloc` of `size` holds on its board: whole pages, at
    /// least one, as the board reserves them (a size too large to round
    /// is booked as asked).
    fn booked(&self, size: u64) -> u64 {
        size.max(1).checked_next_multiple_of(self.page_size).unwrap_or(size)
    }

    /// The pages `[va, va + len)` touches (a zero-length access still names
    /// its page). A span ending past the top of the address space touches
    /// every page up to the last; the board rejects it as `InvalidAddr`.
    fn vpns_of(&self, va: u64, len: u64) -> RangeInclusive<u64> {
        let last = va.saturating_add(len.max(1) - 1);
        va / self.page_size..=last / self.page_size
    }

    /// How `op` accesses which pages; `None` for barriers.
    fn classify(&self, op: &Op) -> Option<(AccessClass, RangeInclusive<u64>)> {
        // Metadata and synchronization ops address no span and act as
        // barriers (§3.1: "potentially conflicting operations execute
        // synchronously in the program order").
        let (va, len) = op.span()?;
        let class = match op {
            Op::Read { .. } => AccessClass::Read,
            _ => AccessClass::Write,
        };
        Some((class, self.vpns_of(va, len)))
    }

    /// Submits an operation on behalf of `thread`, running as `pid`, to be
    /// served by memory node `mn` — or, without one, where CLib routes it:
    /// its span's owner, every MN for a fence, the controller's placement
    /// for an `ralloc` ([`Notice::Place`]); an access no single MN serves
    /// completes at once with its typed error.
    /// `arrival` is when the op arrived at the caller, clamped to now: when
    /// it predates the submission instant (an open-loop generator
    /// back-dated it), the gap becomes a [`Stage::SubmitQueued`] span at the
    /// head of the op's trace and `issued_at` reports the arrival, so
    /// end-to-end latency includes the wait. The returned token is echoed in the eventual
    /// [`Completion`]; completions produced synchronously are appended to
    /// `completions`.
    #[allow(clippy::too_many_arguments)] // the op's full context travels with it
    pub fn submit(
        &mut self,
        ctx: &mut Ctx<'_>,
        thread: ThreadId,
        mn: Option<Mac>,
        pid: Pid,
        arrival: SimTime,
        op: Op,
        completions: &mut Vec<Completion>,
    ) -> OpToken {
        let now = ctx.now();
        let token = OpToken(self.next_token);
        self.next_token += 1;
        let target = match (mn, op.span()) {
            (Some(mn), _) => Ok(Some(mn)),
            (None, Some((va, len))) => match self.router.lookup(pid, va, len) {
                Route::Owned(mn) => Ok(Some(mn)),
                // Unroutable: fail fast with a typed error — spanning
                // accesses must never be guessed onto the start VA's owner.
                verdict => Err(verdict.error(va, len)),
            },
            (None, None) if matches!(op, Op::Alloc { .. }) => Ok(None),
            (None, None) => Ok(Some(self.router.first().expect("CLib routes over slices"))),
        };
        let arrival = arrival.min(now);
        let mut pending = PendingOp {
            thread,
            mn: None,
            pid,
            op,
            issued_at: arrival,
            queued_since: (arrival < now).then_some(arrival),
            trace: None,
            routed: mn.is_none(),
            reissues: 0,
            conflicts: 0,
            moves: 0,
            leg_error: None,
        };
        match target {
            Ok(Some(mn)) => {
                pending.mn = Some(mn);
                if self.admit(now, token, pending) {
                    self.dispatch(ctx, token, completions);
                }
            }
            Ok(None) => {
                let Op::Alloc { size, .. } = pending.op else { unreachable!("only an alloc") };
                self.notices.push(Notice::Place(token, pid, self.booked(size)));
                self.ops.insert(token, pending);
            }
            Err(e) => self.report(now, token, &pending, Err(e), completions),
        }
        token
    }

    /// Answers a [`Notice`] with the controller's `route` for the held op
    /// `token`: an `ralloc`'s MN, or a refused access's owner now (not
    /// learned: see [`CLib::apply_route_update`]). The op joins its thread's
    /// order at the tail with a new trace, or completes with the error of a
    /// verdict no single MN serves. False, doing nothing, if the op was
    /// cancelled meanwhile.
    pub fn place(
        &mut self,
        ctx: &mut Ctx<'_>,
        token: OpToken,
        route: Route,
        completions: &mut Vec<Completion>,
    ) -> bool {
        let Some(mut pending) = self.ops.remove(&token) else { return false };
        debug_assert!(pending.mn.is_none(), "only a held op is placed");
        let now = ctx.now();
        let error = match (pending.op.span(), route) {
            (_, Route::Owned(mn)) => {
                pending.mn = Some(mn);
                if self.admit(now, token, pending) {
                    self.dispatch(ctx, token, completions);
                }
                return true;
            }
            (Some((va, len)), Route::Spans) => ClioError::SpansOwners { va, len },
            // The controller lost track of the range.
            _ => ClioError::Moved,
        };
        self.report(now, token, &pending, Err(error), completions);
        true
    }

    /// Runs `f` against the transport with the reusable done-buffer, then
    /// finishes every transfer it reported, in order.
    fn with_transport(
        &mut self,
        ctx: &mut Ctx<'_>,
        completions: &mut Vec<Completion>,
        f: impl FnOnce(&mut Transport, &mut Ctx<'_>, &mut Vec<XferDone>),
    ) {
        let mut done = std::mem::take(&mut self.xfer_done);
        f(&mut self.transport, ctx, &mut done);
        for d in done.drain(..) {
            self.finish(ctx, d, completions);
        }
        self.xfer_done = done;
    }

    /// Admits a placed op under `token`: begins its trace — at its arrival
    /// on its first admission, with a `SubmitQueued` span covering any wait
    /// until now, and at now on a re-route — and registers it with its
    /// thread's dependency tracker. Returns whether it may dispatch now.
    fn admit(&mut self, now: SimTime, token: OpToken, mut pending: PendingOp) -> bool {
        let access = self.classify(&pending.op);
        let arrival = pending.queued_since.take().unwrap_or(now);
        // Releases are purely local barriers and never reach the wire, so
        // they get no trace timeline.
        if !matches!(pending.op, Op::Release) {
            pending.trace = self.tracer.begin(pending.op.kind(), arrival);
            if arrival < now {
                self.tracer.stitch(pending.trace, self.track, Stage::SubmitQueued, now);
            }
        }
        let tracker = self.trackers.entry(pending.thread).or_default();
        self.ops.insert(token, pending);
        match access {
            Some((class, vpns)) => tracker.submit(token, class, vpns),
            None => tracker.submit_barrier(token),
        }
    }

    /// Hands a pending op to the transport (a lock's every TAS attempt, a
    /// fence's every leg and every re-issue after a `Conflict` come through
    /// here); a token no longer pending is ignored.
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, token: OpToken, completions: &mut Vec<Completion>) {
        let Some(pending) = self.ops.get(&token) else { return };
        let (mn, pid, trace) =
            (pending.mn.expect("a dispatched op is placed"), pending.pid, pending.trace);
        match &pending.op {
            // A purely local barrier: it finishes as soon as its thread
            // drained.
            Op::Release => {
                let done = XferDone { token, result: Ok(CompletionValue::Done) };
                self.finish(ctx, done, completions);
            }
            op => self.transport.send(ctx, token, mn, pid, op.clone(), trace),
        }
    }

    /// Handles a frame delivered to the CN's NIC, appending the operations
    /// it finished to `completions`.
    pub fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: Frame, completions: &mut Vec<Completion>) {
        if frame.corrupted {
            // Corrupted response: drop; the request timer will retry.
            return;
        }
        let Ok(pkt) = frame.payload.downcast::<clio_proto::ClioPacket>() else {
            return;
        };
        self.with_transport(ctx, completions, |t, ctx, done| t.on_packet(ctx, pkt, done));
    }

    /// Handles a timer message scheduled by CLib on its host actor,
    /// appending completions (e.g. timeout failures) to `completions`.
    /// Returns the message back if it is not one of CLib's timers.
    pub fn on_timer(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        msg: Message,
        completions: &mut Vec<Completion>,
    ) -> Option<Message> {
        let msg = match msg.downcast::<TransportTimer>() {
            Ok(timer) => {
                self.with_transport(ctx, completions, |t, ctx, done| {
                    t.on_timer(ctx, nic, timer, done)
                });
                return None;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<LockRetry>() {
            Ok(LockRetry { token }) => {
                // Re-issue the TAS for a still-pending lock.
                self.dispatch(ctx, token, completions);
                return None;
            }
            Err(m) => m,
        };
        match msg.downcast::<ConflictRetry>() {
            Ok(ConflictRetry { token }) => {
                // Re-issue a still-pending op after its backoff: a held op
                // asks again where its range went.
                let pending = self.ops.get(&token)?;
                if pending.mn.is_none() {
                    let (va, len) = pending.op.span().expect("only an access re-routes");
                    self.notices.push(Notice::Reroute(token, pending.pid, va, len));
                    return None;
                }
                self.tracer.stitch(pending.trace, self.track, Stage::ConflictBackoff, ctx.now());
                self.dispatch(ctx, token, completions);
                None
            }
            Err(m) => Some(m),
        }
    }

    /// Cancels a still-pending op (its deadline elapsed): withdraws its
    /// transfer, ends its trace with a [`Stage::Cancelled`] span, and
    /// releases the thread's dependents; a held op just goes. Appends the
    /// cancelled op's [`ClioError::DeadlineExceeded`] completion plus any
    /// its dependents produced synchronously. False, appending nothing, for
    /// a token no longer pending (the completion won the race).
    pub fn cancel(
        &mut self,
        ctx: &mut Ctx<'_>,
        token: OpToken,
        completions: &mut Vec<Completion>,
    ) -> bool {
        let Some(pending) = self.ops.remove(&token) else { return false };
        if pending.mn.is_none() {
            self.report(ctx.now(), token, &pending, Err(ClioError::DeadlineExceeded), completions);
            return true;
        }
        self.transport.cancel(ctx, token);
        self.tracer.stitch(pending.trace, self.track, Stage::Cancelled, ctx.now());
        // The cancelled op still orders its thread: dependents it was
        // blocking dispatch now, exactly as on a normal failure.
        self.complete(ctx, token, pending, Err(ClioError::DeadlineExceeded), completions);
        true
    }

    /// Processes one finished transfer: lock spinning, `Conflict` backoff,
    /// fence legs, `Moved` re-routes — every re-issue is decided here — then
    /// ordering release and completion delivery. A spin, backoff or
    /// re-route is taken only before the op's re-issue horizon; after it
    /// the refusal is the result, a held lock's as `TimedOut`.
    fn finish(&mut self, ctx: &mut Ctx<'_>, done: XferDone, completions: &mut Vec<Completion>) {
        let token = done.token;
        let Some(pending) = self.ops.get_mut(&token) else { return };
        let reissue = ctx.now() < pending.issued_at + CLibConfig::REISSUE_HORIZON;

        match (&pending.op, &done.result) {
            // Lock spinning: TAS returned 1 -> not acquired; back off and retry.
            (Op::Lock { .. }, Ok(CompletionValue::Old(old))) if *old != 0 && reissue => {
                pending.reissues += 1;
                ctx.schedule(CLibConfig::LOCK_BACKOFF, Message::new(LockRetry { token }));
                return;
            }
            // The range is migrating: back off (longer after each refusal)
            // and re-issue, still in the thread's order.
            (_, Err(ClioError::Remote(Status::Conflict))) if reissue => {
                let backoff = CLibConfig::backoff(pending.conflicts);
                pending.conflicts += 1;
                pending.reissues += 1;
                ctx.schedule(backoff, Message::new(ConflictRetry { token }));
                return;
            }
            // A routed fence's legs run one after another, in slice order,
            // under its one token and barrier.
            (Op::Fence, result) if pending.routed => {
                let current = pending.mn.expect("a fence leg ran");
                if let Some(next) = self.router.after(current) {
                    if let Err(e) = result {
                        pending.leg_error.get_or_insert(*e);
                    }
                    pending.mn = Some(next);
                    self.dispatch(ctx, token, completions);
                    return;
                }
            }
            // The range moved: the op leaves its thread's order and its
            // trace ends, and CLib holds it while the host asks the
            // controller where the range went: at once the first time,
            // after a growing backoff from the second on.
            (op, Err(ClioError::Moved)) if pending.routed && reissue => {
                if let Some((va, len)) = op.span() {
                    pending.reissues += 1;
                    pending.mn = None;
                    let (thread, pid, trace) = (pending.thread, pending.pid, pending.trace.take());
                    if pending.moves == 0 {
                        self.notices.push(Notice::Reroute(token, pid, va, len));
                    } else {
                        let backoff = CLibConfig::backoff(pending.moves - 1);
                        ctx.schedule(backoff, Message::new(ConflictRetry { token }));
                    }
                    pending.moves += 1;
                    self.tracer.finish(trace, self.track, ctx.now());
                    self.release(ctx, thread, token, completions);
                    return;
                }
            }
            _ => {}
        }

        let pending = self.ops.remove(&token).expect("checked above");
        // Locks/unlocks surface as Done, a lock still held at the horizon
        // as its spin timing out; raw atomics surface the value; a fence
        // reports its first failed leg.
        let result = match (&pending.op, done.result) {
            (Op::Lock { .. }, Ok(CompletionValue::Old(old))) if old != 0 => {
                let mn = pending.mn.expect("a lock ran");
                Err(ClioError::TimedOut { op: "lock", mn, attempts: pending.reissues + 1 })
            }
            (Op::Lock { .. } | Op::Unlock { .. }, Ok(_)) => Ok(CompletionValue::Done),
            (_, result) => pending.leg_error.map_or(result, Err),
        };
        self.complete(ctx, token, pending, result, completions);
    }

    /// Retires a placed op already taken out of `ops`: ends its trace,
    /// reports `result`, and releases the thread's dependents in program
    /// order.
    fn complete(
        &mut self,
        ctx: &mut Ctx<'_>,
        token: OpToken,
        pending: PendingOp,
        result: Result<CompletionValue, ClioError>,
        completions: &mut Vec<Completion>,
    ) {
        let now = ctx.now();
        self.tracer.finish(pending.trace, self.track, now);
        if let (true, Some(mn)) = (pending.routed, pending.mn) {
            // The controller's books follow every routed alloc and free.
            let pid = pending.pid;
            let notice = match (&pending.op, &result) {
                (&Op::Alloc { size, .. }, &Ok(CompletionValue::Va(va))) => {
                    let Route::Owned(mn) = self.router.lookup(pid, va, size) else {
                        panic!("allocated range must be routable to one MN")
                    };
                    Some(Notice::Allocated(pid, mn, self.booked(size), Some(va)))
                }
                (&Op::Alloc { size, .. }, Err(_)) => {
                    Some(Notice::Allocated(pid, mn, self.booked(size), None))
                }
                (&Op::Free { va, .. }, Ok(_)) => Some(Notice::Freed(pid, va)),
                _ => None,
            };
            self.notices.extend(notice);
        }
        self.report(now, token, &pending, result, completions);
        self.release(ctx, pending.thread, token, completions);
    }

    /// Reports `token`'s completion with `result`.
    fn report(
        &mut self,
        now: SimTime,
        token: OpToken,
        pending: &PendingOp,
        result: Result<CompletionValue, ClioError>,
        completions: &mut Vec<Completion>,
    ) {
        self.stats.completed += 1;
        completions.push(Completion {
            token,
            thread: pending.thread,
            result,
            issued_at: pending.issued_at,
            completed_at: now,
        });
    }

    /// Takes `token` out of its thread's order and dispatches the
    /// dependents that frees, in program order.
    fn release(
        &mut self,
        ctx: &mut Ctx<'_>,
        thread: ThreadId,
        token: OpToken,
        completions: &mut Vec<Completion>,
    ) {
        let Some(tracker) = self.trackers.get_mut(&thread) else { return };
        // A dispatch can complete at once and release again: each call
        // appends past what its caller still walks, then cuts back.
        let start = self.released.len();
        tracker.complete(token, &mut self.released);
        for i in start..self.released.len() {
            self.dispatch(ctx, self.released[i], completions);
        }
        self.released.truncate(start);
    }
}

/// `clib.*`, then the transport's `transport.*`.
impl Metrics for CLib {
    fn counters(&self, f: &mut Visit<'_>) {
        self.stats.each(f);
        self.transport.counters(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_ops() {
        let clib = CLib::new(CLibConfig::default(), 1, 4096, Vec::new());
        let read = clib.classify(&Op::Read { va: 4000, len: 200 });
        assert_eq!(read, Some((AccessClass::Read, 0..=1)), "crosses a page boundary");
        assert_eq!(clib.classify(&Op::Release), None, "release is a barrier");
        let faa = clib.classify(&Op::Faa { va: 8, delta: 1 });
        assert_eq!(faa, Some((AccessClass::Write, 0..=0)));
    }

    #[test]
    fn vpn_of_zero_len() {
        let clib = CLib::new(CLibConfig::default(), 1, 4096, Vec::new());
        assert_eq!(clib.vpns_of(8192, 0), 2..=2);
        assert_eq!(clib.vpns_of(4095, 2), 0..=1);
        assert_eq!(clib.vpns_of(u64::MAX - 3, 16), u64::MAX / 4096..=u64::MAX / 4096);
    }
}
