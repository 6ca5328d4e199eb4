//! The compute-node host actor and its application-facing API.
//!
//! A [`ComputeNode`] owns a NIC, a CLib instance and one
//! [`ExecDriver`] per client process — the executors whose async tasks are
//! the client programs (see [`crate::exec`]). Tasks issue operations using
//! only `(pid, va)`; the node resolves which memory node owns the address
//! (slice routing plus migration-exception cache), consults the global
//! controller for allocations and after `Moved` refusals, and transparently
//! re-issues relocated requests — the CN half of §4.7's distributed memory
//! support.

use std::collections::VecDeque;

use bytes::Bytes;
use clio_cn::{CLib, CLibConfig, ClioError, Completion, CompletionValue, Op, OpToken, ThreadId};
use clio_net::{Frame, Mac, NicPort};
use clio_proto::Pid;
use clio_sim::{Actor, ActorId, Ctx, IdMap, Message, SimDuration, SimTime};
use clio_trace::metrics::{Metrics, Visit};
use clio_trace::{Tracer, Track};

use crate::controller::{
    AllocNotify, FreeNotify, PlaceAlloc, PlacementRefund, PlacementReply, RouteQuery, RouteReply,
    RouteUpdate,
};
use crate::exec::{ExecDriver, ProcHandle};

/// Host-level operation handle, stable across transparent re-submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppToken(pub u64);

/// Result type delivered to client tasks.
pub type AppResult = Result<CompletionValue, ClioError>;

/// A finished application operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppCompletion {
    /// The operation's handle.
    pub token: AppToken,
    /// Outcome.
    pub result: AppResult,
    /// When the task issued it (its arrival, for back-dated ops).
    pub issued_at: SimTime,
    /// When it completed.
    pub completed_at: SimTime,
}

impl AppCompletion {
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

/// Routing table: RAS slices (static) + migrated-range exceptions (learned
/// from `Moved` refusals and controller [`RouteUpdate`] broadcasts).
#[derive(Debug, Default)]
struct RasRouter {
    slices: Vec<(u64, u64, Mac)>,
    exceptions: Vec<(Pid, u64, u64, Mac)>,
}

/// Routing verdict for a whole access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// One MN serves every byte of the access.
    Owned(Mac),
    /// The access straddles two owners: no single MN can serve it.
    Spans,
    /// No slice or exception covers the address.
    Unknown,
}

impl Route {
    /// The typed error an access with this (unroutable) verdict fails with.
    fn error(self, va: u64, len: u64) -> ClioError {
        match self {
            Route::Spans => ClioError::SpansOwners { va, len },
            _ => ClioError::Remote(clio_proto::Status::InvalidAddr),
        }
    }
}

impl RasRouter {
    fn lookup_byte(&self, pid: Pid, va: u64) -> Option<Mac> {
        // `va - start < len` rather than `va < start + len`: no sum to
        // overflow, whatever range a slice or exception names.
        if let Some(&(_, _, _, mac)) = self
            .exceptions
            .iter()
            .find(|(p, start, len, _)| *p == pid && va >= *start && va - *start < *len)
        {
            return Some(mac);
        }
        self.slices
            .iter()
            .find(|(base, span, _)| va >= *base && va - *base < *span)
            .map(|&(_, _, mac)| mac)
    }

    /// Resolves a whole `len`-byte access. Start-VA-only resolution would
    /// silently route a boundary-straddling op to one MN; checking both
    /// endpoints plus any interior exception catches every split. An access
    /// whose last byte lies past the end of the address space names no
    /// memory at all: [`Route::Unknown`], in every build profile.
    fn lookup(&self, pid: Pid, va: u64, len: u64) -> Route {
        // Inclusive last byte.
        let Some(end) = va.checked_add(len.max(1) - 1) else { return Route::Unknown };
        let first = self.lookup_byte(pid, va);
        if self.lookup_byte(pid, end) != first {
            return Route::Spans;
        }
        let interior_differs = self.exceptions.iter().any(|(p, s, l, m)| {
            *p == pid && *s <= end && (va < *s || va - *s < *l) && Some(*m) != first
        });
        if interior_differs {
            return Route::Spans;
        }
        match first {
            Some(mac) => Route::Owned(mac),
            None => Route::Unknown,
        }
    }

    fn add_exception(&mut self, pid: Pid, start: u64, len: u64, mac: Mac) {
        self.exceptions.retain(|(p, s, _, _)| !(*p == pid && *s == start));
        self.exceptions.push((pid, start, len, mac));
    }

    /// Applies a controller [`RouteUpdate`]: every cached exception
    /// overlapping the migrated range is stale, so drop the lot and install
    /// one exception covering the whole range at its new owner.
    fn apply_update(&mut self, pid: Pid, start: u64, len: u64, mac: Mac) {
        // Two ranges overlap iff one starts inside the other — no end sums
        // to overflow, as in `lookup_byte`.
        self.exceptions.retain(|(p, s, l, _)| {
            !(*p == pid && (*s >= start && *s - start < len || start >= *s && start - *s < *l))
        });
        self.exceptions.push((pid, start, len, mac));
    }
}

/// One client op as the node keeps it host-side — no pid (the hosting
/// process implies it) and no memory node (routing is this module's job,
/// per submission) — so it can be transparently re-routed after migration.
#[derive(Debug)]
struct HostOp {
    driver: usize,
    op: Op,
    /// The MN the op goes to without routing: the one the task named
    /// (`roffload`), or the one the controller placed an `ralloc` on.
    /// Every other kind is routed.
    named_mn: Option<Mac>,
    issued_at: SimTime,
    moved_retries: u32,
    /// Outstanding sub-operations (only >1 for multi-MN fences).
    fanout: u32,
    /// The first failure among a fence's legs, delivered when the last leg
    /// lands: a fence that missed an MN did not fence.
    leg_error: Option<ClioError>,
    /// The arrival time to attribute the first CLib submission to (a
    /// `SubmitQueued` span covers [arrival, submit]); consumed on dispatch.
    queued_since: Option<SimTime>,
}

/// Kick-off message: start every executor (sent by `Cluster::start`).
#[derive(Debug, Clone, Copy)]
pub struct StartClients;

/// Pokes one executor from outside the simulation: every task awaiting
/// [`ProcHandle::next_poke`] on it resumes. Tests use it to inject a
/// stimulus mid-run (post it to the compute node's actor id).
#[derive(Debug, Clone, Copy)]
pub struct PokeDriver {
    /// The executor's index on the target compute node.
    pub driver: usize,
}

/// The timer tag that carries a [`PokeDriver`] to its executor.
pub const POKE_TAG: u64 = u64::MAX;

/// Default per-process in-flight submission budget (ops holding a window
/// credit before the executor parks further submitters). Large enough that
/// closed-loop programs never park; open-loop overload tests shrink it.
pub const DEFAULT_INFLIGHT_BUDGET: usize = 65_536;

/// Executor timer message (a task's `sleep` coming due).
#[derive(Debug, Clone, Copy)]
struct Wake {
    driver: usize,
    tag: u64,
}

struct NodeCore {
    nic: NicPort,
    clib: CLib,
    router: RasRouter,
    controller: ActorId,
    mn_macs: Vec<Mac>,
    /// The process each hosted executor runs as (parallel to
    /// [`ComputeNode::execs`]).
    pids: Vec<Pid>,
    app_ops: IdMap<AppToken, HostOp>,
    token_map: IdMap<OpToken, AppToken>,
    next_app_token: u64,
    next_tag: u64,
    /// Placements asked of the controller, by tag: the op and its size,
    /// kept past a cancellation so the reply's charge can be refunded.
    pending_placements: IdMap<u64, (AppToken, u64)>,
    pending_routes: IdMap<u64, AppToken>,
    /// Finished ops awaiting delivery to their executor, in completion
    /// order (drained by [`ComputeNode::pump_events`]).
    events: VecDeque<(usize, AppCompletion)>,
    /// Completions CLib calls append to, drained into `events` by
    /// [`NodeCore::enqueue_clib_completions`] (one buffer, reused).
    comps: Vec<Completion>,
    max_moved_retries: u32,
    /// Per-process in-flight submission budget the executors enforce.
    runtime_budget: usize,
    /// Ops resolved with `DeadlineExceeded` by [`NodeApi::cancel`].
    deadline_exceeded: u64,
}

impl NodeCore {
    fn fresh_tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag
    }

    /// Registers a new host op arriving at `arrival` (clamped to "not in
    /// the future"); the caller dispatches it.
    fn admit(
        &mut self,
        now: SimTime,
        driver: usize,
        op: Op,
        named_mn: Option<Mac>,
        arrival: SimTime,
    ) -> AppToken {
        self.next_app_token += 1;
        let token = AppToken(self.next_app_token);
        let arrival = arrival.min(now);
        self.app_ops.insert(
            token,
            HostOp {
                driver,
                op,
                named_mn,
                issued_at: arrival,
                moved_retries: 0,
                fanout: 1,
                leg_error: None,
                queued_since: (arrival < now).then_some(arrival),
            },
        );
        token
    }

    /// Completes `token` host-side with `result`, without CLib's help (it
    /// never got there, or is parked at the controller).
    fn fail(&mut self, now: SimTime, token: AppToken, result: AppResult) {
        let Some(host_op) = self.app_ops.remove(&token) else { return };
        self.events.push_back((
            host_op.driver,
            AppCompletion { token, result, issued_at: host_op.issued_at, completed_at: now },
        ));
    }

    /// Gives back the `size` bytes the controller charged `mn` for an
    /// allocation that holds no range: it failed, or was cancelled.
    fn refund_placement(&self, ctx: &mut Ctx<'_>, mn: Mac, size: u64) {
        let refund = PlacementRefund { mn, size };
        ctx.send(self.controller, SimDuration::from_micros(1), Message::new(refund));
    }

    /// Hands the stored op for `token` to CLib, addressed to `mn`.
    fn submit(&mut self, ctx: &mut Ctx<'_>, token: AppToken, mn: Mac) {
        let Some(host_op) = self.app_ops.get_mut(&token) else { return };
        let (thread, pid) = (ThreadId(host_op.driver as u64), self.pids[host_op.driver]);
        // Only the first submission of an op carries its arrival
        // attribution; re-routes and later fence legs start at `now`.
        let arrival = host_op.queued_since.take().unwrap_or(ctx.now());
        let op = host_op.op.clone();
        let t = self.clib.submit(ctx, &mut self.nic, thread, mn, pid, arrival, op, &mut self.comps);
        self.token_map.insert(t, token);
        self.enqueue_clib_completions(ctx);
    }

    /// Issues (or re-issues) the stored op for `token`.
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, token: AppToken) {
        let Some(host_op) = self.app_ops.get_mut(&token) else { return };
        let pid = self.pids[host_op.driver];
        match &host_op.op {
            Op::Alloc { size, .. } => {
                // Placement is the controller's call.
                let size = *size;
                let tag = self.fresh_tag();
                let msg = PlaceAlloc { pid, size, reply_to: ctx.self_id(), tag };
                ctx.send(self.controller, SimDuration::from_micros(1), Message::new(msg));
                self.pending_placements.insert(tag, (token, size));
            }
            Op::Fence => {
                // Fence every MN the process might touch.
                host_op.fanout = self.mn_macs.len() as u32;
                for mac in self.mn_macs.clone() {
                    self.submit(ctx, token, mac);
                }
            }
            op => {
                let mn = match op.span() {
                    Some((va, len)) => match self.router.lookup(pid, va, len) {
                        Route::Owned(m) => m,
                        // Unroutable: fail fast with a typed error —
                        // spanning accesses must never be guessed onto the
                        // start VA's owner.
                        verdict => return self.fail(ctx.now(), token, Err(verdict.error(va, len))),
                    },
                    None => {
                        host_op.named_mn.or(self.mn_macs.first().copied()).expect("at least one MN")
                    }
                };
                self.submit(ctx, token, mn);
            }
        }
    }

    /// Issues a vector of routable data ops (reads/writes) as one
    /// scatter/gather submission: every op is routed individually, then the
    /// whole batch is handed to CLib's `submit_many`, which bypasses the
    /// transport doorbell's same-instant heuristics. Unroutable entries
    /// fail fast with a typed error without sinking the rest.
    fn dispatch_vec(&mut self, ctx: &mut Ctx<'_>, driver: usize, tokens: &[AppToken]) {
        let (thread, pid) = (ThreadId(driver as u64), self.pids[driver]);
        let mut ops = Vec::with_capacity(tokens.len());
        let mut routed = Vec::with_capacity(tokens.len());
        let mut queued_since = None;
        for &token in tokens {
            let Some(host_op) = self.app_ops.get_mut(&token) else { continue };
            if let Some(a) = host_op.queued_since.take() {
                queued_since.get_or_insert(a);
            }
            let (va, len) = host_op.op.span().expect("vector ops address memory");
            match self.router.lookup(pid, va, len) {
                Route::Owned(mn) => {
                    ops.push((mn, host_op.op.clone()));
                    routed.push(token);
                }
                verdict => self.fail(ctx.now(), token, Err(verdict.error(va, len))),
            }
        }
        let arrival = queued_since.unwrap_or(ctx.now());
        let clib_tokens =
            self.clib.submit_many(ctx, &mut self.nic, thread, pid, arrival, ops, &mut self.comps);
        self.token_map.extend(clib_tokens.into_iter().zip(routed));
        self.enqueue_clib_completions(ctx);
    }

    /// Converts the CLib completions buffered in `comps` into executor
    /// events, handling Moved re-routing, alloc notifications and fence
    /// fan-in.
    fn enqueue_clib_completions(&mut self, ctx: &mut Ctx<'_>) {
        let mut comps = std::mem::take(&mut self.comps);
        for c in comps.drain(..) {
            let Some(app_token) = self.token_map.remove(&c.token) else { continue };
            let Some(host_op) = self.app_ops.get_mut(&app_token) else { continue };
            let pid = self.pids[host_op.driver];

            // Transparent re-route on Moved.
            if c.result == Err(ClioError::Moved) && host_op.moved_retries < self.max_moved_retries {
                host_op.moved_retries += 1;
                if let Some((va, len)) = host_op.op.span() {
                    let tag = self.fresh_tag();
                    self.pending_routes.insert(tag, app_token);
                    let q = RouteQuery { pid, va, len, reply_to: ctx.self_id(), tag };
                    ctx.send(self.controller, SimDuration::from_micros(1), Message::new(q));
                    continue;
                }
            }

            // Fence fan-in: deliver when the last leg lands, with the first
            // failure any leg met.
            if host_op.fanout > 1 {
                host_op.fanout -= 1;
                if let Err(e) = c.result {
                    host_op.leg_error.get_or_insert(e);
                }
                continue;
            }

            let host_op = self.app_ops.remove(&app_token).expect("present");
            let result = host_op.leg_error.map_or(c.result, Err);
            // Successful allocations are reported to the controller.
            if let (Op::Alloc { size, .. }, Ok(CompletionValue::Va(va))) = (&host_op.op, &result) {
                let Route::Owned(mn) = self.router.lookup(pid, *va, *size) else {
                    panic!("allocated range must be routable to one MN")
                };
                let n = AllocNotify { pid, va: *va, len: *size, mn };
                ctx.send(self.controller, SimDuration::from_micros(1), Message::new(n));
            }
            if let (Op::Alloc { size, .. }, Err(_)) = (&host_op.op, &result) {
                let mn = host_op.named_mn.expect("a submitted alloc was placed");
                self.refund_placement(ctx, mn, *size);
            }
            if let (Op::Free { va, .. }, Ok(_)) = (&host_op.op, &result) {
                let n = FreeNotify { pid, va: *va };
                ctx.send(self.controller, SimDuration::from_micros(1), Message::new(n));
            }
            self.events.push_back((
                host_op.driver,
                AppCompletion {
                    token: app_token,
                    result,
                    issued_at: host_op.issued_at,
                    completed_at: c.completed_at,
                },
            ));
        }
        self.comps = comps;
    }
}

/// What one executor may ask of its node while it runs: the submission
/// side of [`ExecDriver`]'s flush.
pub(crate) struct NodeApi<'a, 'b> {
    core: &'a mut NodeCore,
    ctx: &'a mut Ctx<'b>,
    driver: usize,
}

impl NodeApi<'_, '_> {
    /// Current virtual time.
    pub(crate) fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Issues one op that arrived at `arrival`: its `issued_at` (and trace
    /// origin) is the arrival, and any wait until now — open-loop load, or
    /// a park behind the in-flight budget — is attributed to the
    /// `SubmitQueued` stage.
    pub(crate) fn issue(&mut self, op: Op, named_mn: Option<Mac>, arrival: SimTime) -> AppToken {
        let token = self.core.admit(self.ctx.now(), self.driver, op, named_mn, arrival);
        self.core.dispatch(self.ctx, token);
        token
    }

    /// Issues reads/writes as one scatter/gather submission — the whole
    /// vector reaches the transport as one unit, so the ops coalesce into
    /// batch frames regardless of doorbell timing. Returns one token per
    /// entry, in order; each completes independently.
    pub(crate) fn issue_vec(&mut self, ops: Vec<Op>, arrival: SimTime) -> Vec<AppToken> {
        let (now, driver) = (self.ctx.now(), self.driver);
        let tokens: Vec<AppToken> =
            ops.into_iter().map(|op| self.core.admit(now, driver, op, None, arrival)).collect();
        self.core.dispatch_vec(self.ctx, driver, &tokens);
        tokens
    }

    /// Arms a timer delivering [`ExecDriver::on_wake`] with `tag`.
    pub(crate) fn wake_in(&mut self, delay: SimDuration, tag: u64) {
        let driver = self.driver;
        self.ctx.schedule(delay, Message::new(Wake { driver, tag }));
    }

    /// Cancels an outstanding op: it completes now with
    /// [`ClioError::DeadlineExceeded`], its transport window credit is
    /// released (no congestion signal — abandonment is not loss), and a
    /// `Cancelled` stage ends its trace. Sub-submissions of a fanned-out
    /// fence are all cancelled; an op still parked at the controller
    /// (placement or route query) is failed directly. Does nothing if the
    /// op already completed — cancellation is best-effort and never
    /// un-completes a finished op.
    pub(crate) fn cancel(&mut self, token: AppToken) {
        if !self.core.app_ops.contains_key(&token) {
            return;
        }
        self.core.deadline_exceeded += 1;
        let mut clib_tokens: Vec<OpToken> =
            self.core.token_map.iter().filter(|(_, a)| **a == token).map(|(t, _)| *t).collect();
        // Each cancel can dispatch dependents: visit in submission order.
        clib_tokens.sort_unstable();
        if clib_tokens.is_empty() {
            // Never reached CLib: the op is waiting on a controller reply.
            // Drop a pending route query and fail the op host-side; a
            // pending placement stays, so its reply can refund the charge.
            self.core.pending_routes.retain(|_, t| *t != token);
            self.core.fail(self.ctx.now(), token, Err(ClioError::DeadlineExceeded));
        } else {
            for t in clib_tokens {
                self.core.clib.cancel(self.ctx, &mut self.core.nic, t, &mut self.core.comps);
            }
            self.core.enqueue_clib_completions(self.ctx);
        }
    }

    /// The per-process in-flight submission budget executors enforce.
    pub(crate) fn inflight_budget(&self) -> usize {
        self.core.runtime_budget
    }
}

/// The compute-node actor.
pub struct ComputeNode {
    name: String,
    core: NodeCore,
    /// One executor per client process, by registration index.
    execs: Vec<ExecDriver>,
}

impl ComputeNode {
    /// Builds a compute node. `slices` is the RAS routing table
    /// (base, span, owner-MAC per MN).
    #[allow(clippy::too_many_arguments)] // assembled once, by the cluster builder
    pub fn new(
        name: impl Into<String>,
        cn_index: usize,
        nic: NicPort,
        clib_cfg: CLibConfig,
        page_size: u64,
        controller: ActorId,
        slices: Vec<(u64, u64, Mac)>,
        mn_macs: Vec<Mac>,
    ) -> Self {
        ComputeNode {
            name: name.into(),
            core: NodeCore {
                clib: CLib::new(clib_cfg, cn_index as u64 + 1, page_size),
                nic,
                router: RasRouter { slices, exceptions: Vec::new() },
                controller,
                mn_macs,
                pids: Vec::new(),
                app_ops: IdMap::default(),
                token_map: IdMap::default(),
                next_app_token: 0,
                next_tag: 0,
                pending_placements: IdMap::default(),
                pending_routes: IdMap::default(),
                events: VecDeque::new(),
                comps: Vec::new(),
                max_moved_retries: 8,
                runtime_budget: DEFAULT_INFLIGHT_BUDGET,
                deadline_exceeded: 0,
            },
            execs: Vec::new(),
        }
    }

    /// Registers a fresh executor running as process `pid`. Returns its
    /// index on this node and the handle that spawns its tasks.
    pub fn add_process(&mut self, pid: Pid) -> (usize, ProcHandle) {
        let exec = ExecDriver::new();
        let handle = exec.handle();
        self.core.pids.push(pid);
        self.execs.push(exec);
        (self.execs.len() - 1, handle)
    }

    /// The CLib instance (stats inspection).
    pub fn clib(&self) -> &CLib {
        &self.core.clib
    }

    /// Injects a live span collector into this node's CLib and transport;
    /// subsequent ops stitch their host-side stages onto `track`.
    pub fn set_tracer(&mut self, tracer: Tracer, track: Track) {
        self.core.clib.set_tracer(tracer, track);
    }

    /// Overrides the per-process in-flight submission budget (backpressure
    /// window) enforced by the executors on this node.
    pub fn set_runtime_budget(&mut self, budget: usize) {
        self.core.runtime_budget = budget.max(1);
    }

    /// This node's link-layer address (per-port fabric stats lookups).
    pub fn mac(&self) -> Mac {
        self.core.nic.mac()
    }

    /// The MN this node would route a `len`-byte access at `(pid, va)` to
    /// right now — `None` when the address is unknown or the access spans
    /// owners. Test/diagnostic accessor for the routing cache.
    pub fn route_of(&self, pid: Pid, va: u64, len: u64) -> Option<Mac> {
        match self.core.router.lookup(pid, va, len) {
            Route::Owned(mac) => Some(mac),
            _ => None,
        }
    }

    /// Borrows the executor registered at `idx` (harvesting measurements).
    /// Generic so call sites can name the type —
    /// `cn.driver::<ExecDriver>(idx)` — though [`ExecDriver`] is the only
    /// one a node hosts.
    ///
    /// # Panics
    ///
    /// Panics on a bad index or if `D` is not [`ExecDriver`].
    pub fn driver<D: std::any::Any>(&self, idx: usize) -> &D {
        let any: &dyn std::any::Any = &self.execs[idx];
        any.downcast_ref::<D>().expect("compute nodes host ExecDriver only")
    }

    /// Delivers queued completions, letting tasks issue follow-up ops.
    fn pump_events(&mut self, ctx: &mut Ctx<'_>) {
        while let Some((idx, c)) = self.core.events.pop_front() {
            let mut api = NodeApi { core: &mut self.core, ctx, driver: idx };
            self.execs[idx].on_completion(&mut api, c);
        }
    }
}

/// The CLib's `clib.*` / `transport.*`, then the async runtime's
/// `runtime.*`.
impl Metrics for ComputeNode {
    fn counters(&self, f: &mut Visit<'_>) {
        self.core.clib.counters(f);
        f("runtime.deadline_exceeded_total", self.core.deadline_exceeded);
    }

    /// The runtime gauges are sums over the node's executors of the state
    /// each one admits, parks and retires tasks by.
    fn gauges(&self, f: &mut Visit<'_>) {
        self.core.clib.gauges(f);
        let (mut inflight, mut parked, mut tasks) = (0, 0, 0);
        for exec in &self.execs {
            let (i, p, t) = exec.load();
            inflight += i;
            parked += p;
            tasks += t;
        }
        f("runtime.inflight", inflight as u64);
        f("runtime.parked", parked as u64);
        f("runtime.tasks", tasks as u64);
    }
}

impl Actor for ComputeNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let msg = match msg.downcast::<StartClients>() {
            Ok(_) => {
                for (idx, exec) in self.execs.iter().enumerate() {
                    exec.on_start(&mut NodeApi { core: &mut self.core, ctx, driver: idx });
                }
                self.pump_events(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Frame>() {
            Ok(frame) => {
                self.core.clib.on_frame(ctx, &mut self.core.nic, frame, &mut self.core.comps);
                self.core.enqueue_clib_completions(ctx);
                self.pump_events(ctx);
                return;
            }
            Err(m) => m,
        };
        let wake = match msg.downcast::<Wake>() {
            Ok(w) => Ok(w),
            Err(m) => m.downcast::<PokeDriver>().map(|p| Wake { driver: p.driver, tag: POKE_TAG }),
        };
        let msg = match wake {
            Ok(w) => {
                let mut api = NodeApi { core: &mut self.core, ctx, driver: w.driver };
                self.execs[w.driver].on_wake(&mut api, w.tag);
                self.pump_events(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PlacementReply>() {
            Ok(p) => {
                if let Some((token, size)) = self.core.pending_placements.remove(&p.tag) {
                    match self.core.app_ops.get_mut(&token) {
                        Some(host_op) => {
                            host_op.named_mn = Some(p.mn);
                            self.core.submit(ctx, token, p.mn);
                            self.pump_events(ctx);
                        }
                        // Cancelled while the controller placed it.
                        None => self.core.refund_placement(ctx, p.mn, size),
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RouteReply>() {
            Ok(r) => {
                if let Some(token) = self.core.pending_routes.remove(&r.tag) {
                    let core = &mut self.core;
                    let op = core.app_ops.get(&token);
                    let op = op.map(|op| (core.pids[op.driver], op.op.span()));
                    match (r.mn, op) {
                        (Some(mac), Some((pid, range))) => {
                            if let Some((va, len)) = range {
                                // Cache an access-sized exception; the
                                // controller's RouteUpdate broadcast widens
                                // it to the whole migrated range.
                                core.router.add_exception(pid, va, len.max(1), mac);
                            }
                            core.dispatch(ctx, token);
                        }
                        (None, Some((_, range))) => {
                            // The controller either lost track of the range
                            // or reports it straddling two owners.
                            let result = match range {
                                Some((va, len)) if r.spans => {
                                    Err(ClioError::SpansOwners { va, len })
                                }
                                _ => Err(ClioError::Moved),
                            };
                            core.fail(ctx.now(), token, result);
                        }
                        _ => {}
                    }
                    self.pump_events(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RouteUpdate>() {
            Ok(u) => {
                // A migration committed somewhere in the cluster: refresh
                // this node's routing cache so the next op targets the new
                // owner directly instead of eating a Moved refusal.
                self.core.router.apply_update(u.pid, u.start, u.len, u.mn);
                return;
            }
            Err(m) => m,
        };
        // Anything else is a CLib timer.
        let leftover = self.core.clib.on_timer(ctx, &mut self.core.nic, msg, &mut self.core.comps);
        if let Some(m) = leftover {
            panic!("ComputeNode {} got unexpected message {m:?}", self.name);
        }
        self.core.enqueue_clib_completions(ctx);
        self.pump_events(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig};
    use clio_proto::Status;

    /// Regression: the router computed an access's last byte as an
    /// unchecked `va + len - 1`, so an access reaching past the end of the
    /// address space panicked in debug builds and was refused in release
    /// builds only because the wrapped sum happened to miss every slice.
    /// It names no memory: `InvalidAddr`, in both profiles, on every
    /// submit path.
    #[test]
    fn access_past_the_end_of_the_address_space_is_invalid_addr() {
        let mut cluster = Cluster::build(&ClusterConfig::test_small());
        let results = cluster.block_on(0, Pid(1), |h| async move {
            let mut results = vec![
                h.rread(u64::MAX - 3, 16).await.result,
                h.rwrite(u64::MAX, Bytes::from_static(b"xy")).await.result,
                h.rfaa(u64::MAX - 6, 1).await.result,
            ];
            for entry in h.rread_v(vec![(u64::MAX - 3, 16)]) {
                results.push(entry.await.result);
            }
            results
        });
        assert_eq!(results, vec![Err(ClioError::Remote(Status::InvalidAddr)); 4]);
    }

    /// A slice or exception may itself end at the top of the address space:
    /// its bytes still resolve, and an access overflowing past them does not.
    #[test]
    fn router_ranges_may_touch_the_top_of_the_address_space() {
        let top = u64::MAX - 4095;
        let mut router = RasRouter { slices: vec![(top, 4096, Mac(1))], exceptions: Vec::new() };
        assert_eq!(router.lookup(Pid(1), u64::MAX - 15, 16), Route::Owned(Mac(1)));
        assert_eq!(router.lookup(Pid(1), u64::MAX - 14, 16), Route::Unknown);
        router.add_exception(Pid(1), u64::MAX - 63, 64, Mac(2));
        assert_eq!(router.lookup(Pid(1), u64::MAX, 1), Route::Owned(Mac(2)));
        assert_eq!(router.lookup(Pid(1), top, 4096), Route::Spans);
        router.apply_update(Pid(1), u64::MAX - 63, 64, Mac(3));
        assert_eq!(router.lookup(Pid(1), u64::MAX, 1), Route::Owned(Mac(3)));
    }
}
