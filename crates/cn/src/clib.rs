//! CLib's user-facing request layer (paper §3.1 API, §4.5 ordering).
//!
//! A [`CLib`] instance lives inside a compute-node host actor, next to the
//! NIC. Applications (through the executor in `clio-core`) submit [`Op`]s
//! tagged with a [`ThreadId`]; CLib enforces the paper's intra-thread
//! ordering rules before handing requests to the [`Transport`]:
//!
//! * dependent (WAW/RAW/WAR) operations of one thread never overlap,
//!   tracked at page granularity,
//! * [`Op::Release`] (`rrelease`) waits for all of the thread's in-flight
//!   operations; [`Op::Fence`] additionally fences at the memory node,
//! * `rlock` spins on MN-side test-and-set with local backoff; `runlock`
//!   stores 0 (§4.5 T3).
//!
//! Completions are returned from [`CLib::on_frame`]/[`CLib::on_timer`] for
//! the host to deliver to the issuing application.

use std::ops::RangeInclusive;

use clio_net::{Frame, Mac, NicPort};
use clio_proto::Pid;
use clio_sim::{Ctx, IdMap, Message, SimDuration, SimTime};
use clio_trace::metrics::{Metrics, Visit};
use clio_trace::{Stage, TraceCtx, Tracer, Track};

use crate::config::CLibConfig;
use crate::error::ClioError;
use crate::op::Op;
use crate::ordering::{AccessClass, DependencyTracker};
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
    /// Submission time (for end-to-end latency measurements).
    pub issued_at: SimTime,
    /// Completion time.
    pub completed_at: SimTime,
}

#[derive(Debug, Clone)]
struct PendingOp {
    thread: ThreadId,
    /// The memory node serving the op.
    mn: Mac,
    pid: Pid,
    op: Op,
    issued_at: SimTime,
    /// Observability context, begun at admission so the trace's end-to-end
    /// span equals the completion's `completed_at - issued_at`. Survives
    /// lock-spin re-issues: every TAS attempt extends the same op timeline.
    trace: Option<TraceCtx>,
}

/// Timer message for lock-acquisition backoff; hosts route it to
/// [`CLib::on_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRetry {
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
    cfg: CLibConfig,
    page_size: u64,
    transport: Transport,
    trackers: IdMap<ThreadId, DependencyTracker<OpToken>>,
    ops: IdMap<OpToken, PendingOp>,
    next_token: u64,
    /// Reused buffer the transport reports finished transfers into.
    xfer_done: Vec<XferDone>,
    stats: ClibStats,
    tracer: Tracer,
    track: Track,
}

impl CLib {
    /// Creates a CLib for a CN. `cn_id` seeds the CN-unique request-id
    /// space; `page_size` must match the MNs' page size for dependency
    /// tracking granularity.
    pub fn new(cfg: CLibConfig, cn_id: u64, page_size: u64) -> Self {
        CLib {
            transport: Transport::new(cfg, cn_id),
            cfg,
            page_size,
            trackers: IdMap::default(),
            ops: IdMap::default(),
            next_token: 1,
            xfer_done: Vec::new(),
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

    /// Operations in flight across all threads.
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
    /// served by memory node `mn` (routing is the cluster layer's job).
    /// `arrival` is when the op arrived at the caller, clamped to now: when
    /// it predates the submission instant (the op waited under a runtime
    /// in-flight budget, or an open-loop generator back-dated it), the gap
    /// becomes a [`Stage::SubmitQueued`] span at the head of the op's trace
    /// and `issued_at` reports the arrival, so end-to-end latency includes
    /// the wait. The returned token is echoed in the eventual
    /// [`Completion`]; completions produced synchronously are appended to
    /// `completions`.
    #[allow(clippy::too_many_arguments)] // the op's full context travels with it
    pub fn submit(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        thread: ThreadId,
        mn: Mac,
        pid: Pid,
        arrival: SimTime,
        op: Op,
        completions: &mut Vec<Completion>,
    ) -> OpToken {
        let (token, dispatch) = self.admit(ctx, thread, mn, pid, arrival, op);
        if dispatch {
            self.dispatch(ctx, nic, token, completions);
        }
        token
    }

    /// Submits an explicit vector of operations, each with the memory node
    /// serving it, on behalf of `thread` — the scatter/gather path behind
    /// `rread_v`/`rwrite_v`. The vector shares one `arrival`. Every
    /// operation passes the same per-thread dependency tracking as
    /// [`submit`](Self::submit); all immediately-dispatchable entries are
    /// then handed to the transport as one unit, bypassing the doorbell's
    /// same-instant/adaptive-delay heuristics, so they coalesce into batch
    /// frames regardless of submission timing. Entries held back by
    /// dependencies dispatch later, exactly as sequentially-submitted ops
    /// would.
    #[allow(clippy::too_many_arguments)] // as `submit`
    pub fn submit_many(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        thread: ThreadId,
        pid: Pid,
        arrival: SimTime,
        ops: Vec<(Mac, Op)>,
        completions: &mut Vec<Completion>,
    ) -> Vec<OpToken> {
        let mut tokens = Vec::with_capacity(ops.len());
        let mut sends = Vec::new();
        for (mn, op) in ops {
            let (token, dispatch) = self.admit(ctx, thread, mn, pid, arrival, op);
            tokens.push(token);
            if dispatch {
                let pending = &self.ops[&token];
                match &pending.op {
                    Op::Release => self.finish_release(ctx, nic, token, completions),
                    op => sends.push((token, mn, pid, op.clone(), pending.trace)),
                }
            }
        }
        self.with_transport(ctx, nic, completions, |t, ctx, nic, done| {
            t.send_many(ctx, nic, sends, done)
        });
        tokens
    }

    /// Runs `f` against the transport with the reusable done-buffer, then
    /// finishes every transfer it reported, in order. A nested call (a
    /// finished op releasing a dependent whose send completes synchronously)
    /// finds the buffer taken and works on a fresh one.
    fn with_transport(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        completions: &mut Vec<Completion>,
        f: impl FnOnce(&mut Transport, &mut Ctx<'_>, &mut NicPort, &mut Vec<XferDone>),
    ) {
        let mut done = std::mem::take(&mut self.xfer_done);
        f(&mut self.transport, ctx, nic, &mut done);
        for d in done.drain(..) {
            self.finish(ctx, nic, d, completions);
        }
        self.xfer_done = done;
    }

    /// Registers an op with its thread's dependency tracker. Returns its
    /// token and whether it may dispatch now.
    fn admit(
        &mut self,
        ctx: &mut Ctx<'_>,
        thread: ThreadId,
        mn: Mac,
        pid: Pid,
        arrival: SimTime,
        op: Op,
    ) -> (OpToken, bool) {
        let token = OpToken(self.next_token);
        self.next_token += 1;
        let access = self.classify(&op);
        let arrival = arrival.min(ctx.now());
        // Releases are purely local barriers and never reach the wire, so
        // they get no trace timeline.
        let trace = if matches!(op, Op::Release) {
            None
        } else {
            let trace = self.tracer.begin(op.kind(), arrival);
            if arrival < ctx.now() {
                self.tracer.stitch(trace, self.track, Stage::SubmitQueued, ctx.now());
            }
            trace
        };
        self.ops.insert(token, PendingOp { thread, mn, pid, op, issued_at: arrival, trace });
        let tracker = self.trackers.entry(thread).or_default();
        let dispatch = match access {
            Some((class, vpns)) => tracker.submit(token, class, vpns),
            None => tracker.submit_barrier(token),
        };
        (token, dispatch)
    }

    /// Completes a dispatched [`Op::Release`]: a purely local barrier that
    /// finishes as soon as its thread drained.
    fn finish_release(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        token: OpToken,
        completions: &mut Vec<Completion>,
    ) {
        let done = XferDone { token, result: Ok(CompletionValue::Done), rtt: SimDuration::ZERO };
        self.finish(ctx, nic, done, completions);
    }

    /// Hands a pending op to the transport (a lock's every TAS attempt
    /// comes through here); a token no longer pending is ignored.
    fn dispatch(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        token: OpToken,
        completions: &mut Vec<Completion>,
    ) {
        let Some(pending) = self.ops.get(&token) else { return };
        let (mn, pid, trace) = (pending.mn, pending.pid, pending.trace);
        match &pending.op {
            Op::Release => self.finish_release(ctx, nic, token, completions),
            // The send can complete synchronously (circuit breaker open ->
            // fail fast with `Unreachable`).
            op => {
                let op = op.clone();
                self.with_transport(ctx, nic, completions, |t, ctx, nic, done| {
                    t.send(ctx, nic, token, mn, pid, op, trace, done)
                })
            }
        }
    }

    /// Handles a frame delivered to the CN's NIC, appending the operations
    /// it finished to `completions`.
    pub fn on_frame(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        frame: Frame,
        completions: &mut Vec<Completion>,
    ) {
        if frame.corrupted {
            // Corrupted response: drop; the request timer will retry.
            return;
        }
        let Ok(pkt) = frame.payload.downcast::<clio_proto::ClioPacket>() else {
            return;
        };
        self.with_transport(ctx, nic, completions, |t, ctx, nic, done| {
            t.on_packet(ctx, nic, pkt, done)
        });
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
                self.with_transport(ctx, nic, completions, |t, ctx, nic, done| {
                    t.on_timer(ctx, nic, timer, done)
                });
                return None;
            }
            Err(m) => m,
        };
        match msg.downcast::<LockRetry>() {
            Ok(LockRetry { token }) => {
                // Re-issue the TAS for a still-pending lock.
                self.dispatch(ctx, nic, token, completions);
                None
            }
            Err(m) => Some(m),
        }
    }

    /// Cancels a still-pending op (its deadline elapsed): withdraws every
    /// transport attempt, ends the op's trace with a [`Stage::Cancelled`]
    /// span, and releases the thread's dependents.
    /// Appends the resulting completions — the cancelled op's
    /// [`ClioError::DeadlineExceeded`] failure plus anything dependents
    /// produced synchronously. A token no longer pending (the completion
    /// won the race) appends nothing; the caller must treat the op as
    /// completed normally.
    pub fn cancel(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        token: OpToken,
        completions: &mut Vec<Completion>,
    ) {
        let Some(pending) = self.ops.remove(&token) else { return };
        self.with_transport(ctx, nic, completions, |t, ctx, nic, done| {
            t.cancel(ctx, nic, token, done);
        });
        self.tracer.stitch(pending.trace, self.track, Stage::Cancelled, ctx.now());
        // The cancelled op still orders its thread: dependents it was
        // blocking dispatch now, exactly as on a normal failure.
        self.complete(ctx, nic, token, pending, Err(ClioError::DeadlineExceeded), completions);
    }

    /// Processes one finished transfer: lock spinning, ordering release,
    /// completion delivery.
    fn finish(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        done: XferDone,
        completions: &mut Vec<Completion>,
    ) {
        let token = done.token;
        let Some(pending) = self.ops.get(&token) else { return };

        // Lock spinning: TAS returned 1 -> not acquired; back off and retry.
        if let (Op::Lock { .. }, Ok(CompletionValue::Old(old))) = (&pending.op, &done.result) {
            if *old != 0 {
                ctx.schedule(self.cfg.lock_backoff, Message::new(LockRetry { token }));
                return;
            }
        }

        let pending = self.ops.remove(&token).expect("checked above");
        // Locks/unlocks surface as Done; raw atomics surface the value.
        let result = match (&pending.op, done.result) {
            (Op::Lock { .. } | Op::Unlock { .. }, Ok(_)) => Ok(CompletionValue::Done),
            (_, result) => result,
        };
        self.complete(ctx, nic, token, pending, result, completions);
    }

    /// Retires an op already taken out of `ops`: ends its trace, reports
    /// `result`, and releases the thread's dependents in program order.
    fn complete(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        token: OpToken,
        pending: PendingOp,
        result: Result<CompletionValue, ClioError>,
        completions: &mut Vec<Completion>,
    ) {
        self.stats.completed += 1;
        self.tracer.finish(pending.trace, self.track, ctx.now());
        completions.push(Completion {
            token,
            thread: pending.thread,
            result,
            issued_at: pending.issued_at,
            completed_at: ctx.now(),
        });
        if let Some(tracker) = self.trackers.get_mut(&pending.thread) {
            let released = tracker.complete(token);
            for t in released {
                self.dispatch(ctx, nic, t, completions);
            }
        }
    }
}

/// `clib.*`, then the transport's `transport.*`.
impl Metrics for CLib {
    fn counters(&self, f: &mut Visit<'_>) {
        self.stats.each(f);
        self.transport.counters(f);
    }

    fn gauges(&self, f: &mut Visit<'_>) {
        self.transport.gauges(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_ops() {
        let clib = CLib::new(CLibConfig::default(), 1, 4096);
        let read = clib.classify(&Op::Read { va: 4000, len: 200 });
        assert_eq!(read, Some((AccessClass::Read, 0..=1)), "crosses a page boundary");
        assert_eq!(clib.classify(&Op::Release), None, "release is a barrier");
        let faa = clib.classify(&Op::Faa { va: 8, delta: 1 });
        assert_eq!(faa, Some((AccessClass::Write, 0..=0)));
    }

    #[test]
    fn vpn_of_zero_len() {
        let clib = CLib::new(CLibConfig::default(), 1, 4096);
        assert_eq!(clib.vpns_of(8192, 0), 2..=2);
        assert_eq!(clib.vpns_of(4095, 2), 0..=1);
        assert_eq!(clib.vpns_of(u64::MAX - 3, 16), u64::MAX / 4096..=u64::MAX / 4096);
    }
}
