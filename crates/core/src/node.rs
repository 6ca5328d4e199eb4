//! The compute-node host actor and its application-facing API.
//!
//! A [`ComputeNode`] owns a NIC, a CLib instance and any number of
//! [`ClientDriver`]s — event-driven client programs (workload generators,
//! application clients, bridges for the blocking runtime). Drivers issue
//! operations through [`ClientApi`] using only `(pid, va)`; the node resolves
//! which memory node owns the address (slice routing plus
//! migration-exception cache), consults the global controller for
//! allocations and after `Moved` refusals, and transparently re-issues
//! relocated requests — the CN half of §4.7's distributed memory support.

use std::collections::VecDeque;

use bytes::Bytes;
use clio_cn::{CLib, CLibConfig, ClioError, Completion, CompletionValue, Op, OpToken, ThreadId};
use clio_net::{Frame, Mac, NicPort};
use clio_proto::{Perm, Pid};
use clio_sim::{Actor, ActorId, Ctx, IdMap, Message, SimDuration, SimTime};
use clio_trace::metrics::{Counter, Gauge, Registry};
use clio_trace::{Tracer, Track};

use crate::controller::{
    AllocNotify, FreeNotify, PlaceAlloc, PlacementReply, RouteQuery, RouteReply, RouteUpdate,
};

/// Host-level operation handle, stable across transparent re-submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppToken(pub u64);

/// Result type delivered to drivers.
pub type AppResult = Result<CompletionValue, ClioError>;

/// A finished application operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppCompletion {
    /// The operation's handle.
    pub token: AppToken,
    /// Outcome.
    pub result: AppResult,
    /// When the driver issued it.
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

/// An event-driven client program hosted on a compute node.
///
/// The [`std::any::Any`] supertrait lets harnesses read a driver's concrete
/// state back out of the simulation via [`ComputeNode::driver`].
pub trait ClientDriver: std::any::Any {
    /// Name for traces.
    fn name(&self) -> &str {
        "client"
    }

    /// Called once when the cluster starts.
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>);

    /// Called for every completed operation this driver issued.
    fn on_completion(&mut self, api: &mut ClientApi<'_, '_>, completion: AppCompletion);

    /// Called when a timer armed with [`ClientApi::wake_in`] fires.
    fn on_wake(&mut self, api: &mut ClientApi<'_, '_>, tag: u64) {
        let _ = (api, tag);
    }
}

/// The operation spec kept host-side so requests can be transparently
/// re-routed after migration.
#[derive(Debug, Clone)]
enum OpSpec {
    Read { pid: Pid, va: u64, len: u32 },
    Write { pid: Pid, va: u64, data: Bytes },
    Alloc { pid: Pid, size: u64, perm: Perm },
    Free { pid: Pid, va: u64, size: u64 },
    Lock { pid: Pid, va: u64 },
    Unlock { pid: Pid, va: u64 },
    Faa { pid: Pid, va: u64, delta: u64 },
    Cas { pid: Pid, va: u64, expected: u64, new: u64 },
    Fence { pid: Pid },
    Release,
    Offload { pid: Pid, mn: Mac, offload: u16, opcode: u16, arg: Bytes },
}

impl OpSpec {
    /// The `(pid, va, len)` span that determines routing, if any. The
    /// length matters: an op is routable only if *every* byte it touches
    /// lives on one MN, so routing must consider the full span rather than
    /// just the start address.
    fn route_range(&self) -> Option<(Pid, u64, u64)> {
        match self {
            OpSpec::Read { pid, va, len } => Some((*pid, *va, u64::from(*len))),
            OpSpec::Write { pid, va, data } => Some((*pid, *va, data.len() as u64)),
            OpSpec::Free { pid, va, size } => Some((*pid, *va, *size)),
            // Lock words and atomics are 8-byte cells.
            OpSpec::Lock { pid, va }
            | OpSpec::Unlock { pid, va }
            | OpSpec::Faa { pid, va, .. }
            | OpSpec::Cas { pid, va, .. } => Some((*pid, *va, 8)),
            _ => None,
        }
    }

    fn to_op(&self, mn: Mac) -> Op {
        match self.clone() {
            OpSpec::Read { pid, va, len } => Op::Read { mn, pid, va, len },
            OpSpec::Write { pid, va, data } => Op::Write { mn, pid, va, data },
            OpSpec::Alloc { pid, size, perm } => Op::Alloc { mn, pid, size, perm, fixed_va: None },
            OpSpec::Free { pid, va, size } => Op::Free { mn, pid, va, size },
            OpSpec::Lock { pid, va } => Op::Lock { mn, pid, va },
            OpSpec::Unlock { pid, va } => Op::Unlock { mn, pid, va },
            OpSpec::Faa { pid, va, delta } => Op::Faa { mn, pid, va, delta },
            OpSpec::Cas { pid, va, expected, new } => Op::Cas { mn, pid, va, expected, new },
            OpSpec::Fence { pid } => Op::Fence { mn, pid },
            OpSpec::Release => Op::Release,
            OpSpec::Offload { pid, mn: target, offload, opcode, arg } => {
                Op::Offload { mn: target, pid, offload, opcode, arg }
            }
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

impl RasRouter {
    fn lookup_byte(&self, pid: Pid, va: u64) -> Option<Mac> {
        if let Some(&(_, _, _, mac)) = self
            .exceptions
            .iter()
            .find(|(p, start, len, _)| *p == pid && va >= *start && va < start + len)
        {
            return Some(mac);
        }
        self.slices
            .iter()
            .find(|(base, span, _)| va >= *base && va < base + span)
            .map(|&(_, _, mac)| mac)
    }

    /// Resolves a whole `len`-byte access. Start-VA-only resolution would
    /// silently route a boundary-straddling op to one MN; checking both
    /// endpoints plus any interior exception catches every split.
    fn lookup(&self, pid: Pid, va: u64, len: u64) -> Route {
        let end = va + len.max(1) - 1; // inclusive last byte
        let first = self.lookup_byte(pid, va);
        if self.lookup_byte(pid, end) != first {
            return Route::Spans;
        }
        let interior_differs = self
            .exceptions
            .iter()
            .any(|(p, s, l, m)| *p == pid && *s <= end && va < s + l && Some(*m) != first);
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
        let end = start + len;
        self.exceptions.retain(|(p, s, l, _)| !(*p == pid && *s < end && start < s + l));
        self.exceptions.push((pid, start, len, mac));
    }
}

#[derive(Debug)]
struct HostOp {
    driver: usize,
    spec: OpSpec,
    issued_at: SimTime,
    moved_retries: u32,
    /// Outstanding sub-operations (only >1 for multi-MN fences).
    fanout: u32,
    /// The arrival time to attribute the first CLib submission to (a
    /// `SubmitQueued` span covers [arrival, submit]); consumed on dispatch.
    queued_since: Option<SimTime>,
    /// The CLib token of the current submission attempt (refreshed on
    /// transparent re-routes), so wakers can follow the op across retries.
    clib_token: Option<OpToken>,
    /// Completion waker registered through [`ClientApi::register_waker`];
    /// re-armed with CLib on every re-submission.
    waker: Option<std::task::Waker>,
}

/// Kick-off message: start all drivers (sent by `Cluster::start`).
#[derive(Debug, Clone, Copy)]
pub struct StartClients;

/// Wakes one driver with the reserved poke tag (used by the blocking
/// runtime to make a bridge driver drain its command queue).
#[derive(Debug, Clone, Copy)]
pub struct PokeDriver {
    /// The driver index on the target compute node.
    pub driver: usize,
}

/// The `on_wake` tag delivered by [`PokeDriver`].
pub const POKE_TAG: u64 = u64::MAX;

/// Default per-process in-flight submission budget (ops holding a window
/// credit before the executor parks further submitters). Large enough that
/// closed-loop drivers never park; open-loop overload tests shrink it.
pub const DEFAULT_INFLIGHT_BUDGET: usize = 65_536;

/// Driver timer message.
#[derive(Debug, Clone, Copy)]
struct Wake {
    driver: usize,
    tag: u64,
}

enum DriverEvent {
    Completion(AppCompletion),
    Wake(u64),
}

/// Live gauges describing the async client runtime on one compute node,
/// registered as `cn<i>.runtime.inflight` / `.parked` / `.tasks`. Shared
/// (clone-handle) between the node and every executor driver it hosts, so
/// values aggregate across a CN's processes.
#[derive(Debug, Clone, Default)]
pub struct RuntimeGauges {
    /// Operations submitted (or holding a submission credit) and not yet
    /// completed.
    pub inflight: Gauge,
    /// Submitters parked because the in-flight budget is exhausted.
    pub parked: Gauge,
    /// Live executor tasks.
    pub tasks: Gauge,
}

impl RuntimeGauges {
    /// Adds `d` to a gauge (single-threaded, so read-modify-write is fine).
    pub(crate) fn bump(g: &Gauge, d: i64) {
        g.set(g.get().saturating_add_signed(d));
    }
}

struct NodeCore {
    cn_index: usize,
    nic: NicPort,
    clib: CLib,
    router: RasRouter,
    controller: ActorId,
    mn_macs: Vec<Mac>,
    driver_pids: Vec<Pid>,
    app_ops: IdMap<AppToken, HostOp>,
    token_map: IdMap<OpToken, AppToken>,
    next_app_token: u64,
    next_tag: u64,
    pending_placements: IdMap<u64, AppToken>,
    pending_routes: IdMap<u64, AppToken>,
    events: VecDeque<(usize, DriverEvent)>,
    /// Completions CLib calls append to, drained into `events` by
    /// [`NodeCore::enqueue_clib_completions`] (one buffer, reused).
    comps: Vec<Completion>,
    max_moved_retries: u32,
    /// Arrival-time override consumed by the next [`ClientApi`] issue call.
    next_arrival: Option<SimTime>,
    /// Per-process in-flight submission budget executor drivers enforce.
    runtime_budget: usize,
    runtime_gauges: RuntimeGauges,
    /// Ops resolved with `DeadlineExceeded` by [`ClientApi::cancel`].
    deadline_exceeded: Counter,
}

impl NodeCore {
    fn fresh_token(&mut self) -> AppToken {
        self.next_app_token += 1;
        AppToken(self.next_app_token)
    }

    fn fresh_tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag
    }

    /// Issues (or re-issues) the stored op for `token`.
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, token: AppToken) {
        let Some(host_op) = self.app_ops.get_mut(&token) else { return };
        let driver = host_op.driver;
        let thread = ThreadId(driver as u64);
        match &host_op.spec {
            OpSpec::Alloc { pid, size, .. } => {
                // Placement is the controller's call.
                let tag = {
                    let (pid, size) = (*pid, *size);
                    let tag = self.fresh_tag();
                    let msg = PlaceAlloc { pid, size, reply_to: ctx.self_id(), tag };
                    ctx.send(self.controller, SimDuration::from_micros(1), Message::new(msg));
                    tag
                };
                self.pending_placements.insert(tag, token);
            }
            OpSpec::Fence { .. } => {
                // Fence every MN the process might touch.
                let spec = host_op.spec.clone();
                host_op.fanout = self.mn_macs.len() as u32;
                let mut queued_since = host_op.queued_since.take();
                let waker = host_op.waker.clone();
                for mac in self.mn_macs.clone() {
                    // Only the first sub-submission carries the arrival
                    // attribution; the rest start at `now`.
                    self.clib.set_queued_since(queued_since.take());
                    let op = spec.to_op(mac);
                    let t = self.clib.submit(ctx, &mut self.nic, thread, op, &mut self.comps);
                    self.token_map.insert(t, token);
                    if let Some(w) = waker.clone() {
                        self.clib.register_waker(t, w);
                    }
                    self.enqueue_clib_completions(ctx);
                }
            }
            spec => {
                let mn = match spec.route_range() {
                    Some((pid, va, len)) => match self.router.lookup(pid, va, len) {
                        Route::Owned(m) => m,
                        verdict => {
                            // Unroutable: fail fast with a typed error —
                            // spanning accesses must never be guessed onto
                            // the start VA's owner.
                            let result = match verdict {
                                Route::Spans => Err(ClioError::SpansOwners { va, len }),
                                _ => Err(ClioError::Remote(clio_proto::Status::InvalidAddr)),
                            };
                            let issued_at = host_op.issued_at;
                            self.events.push_back((
                                driver,
                                DriverEvent::Completion(AppCompletion {
                                    token,
                                    result,
                                    issued_at,
                                    completed_at: ctx.now(),
                                }),
                            ));
                            self.app_ops.remove(&token);
                            return;
                        }
                    },
                    None => match spec {
                        OpSpec::Offload { mn, .. } => *mn,
                        _ => self.mn_macs.first().copied().expect("at least one MN"),
                    },
                };
                let op = spec.to_op(mn);
                let queued_since = host_op.queued_since.take();
                let waker = host_op.waker.clone();
                self.clib.set_queued_since(queued_since);
                let t = self.clib.submit(ctx, &mut self.nic, thread, op, &mut self.comps);
                self.token_map.insert(t, token);
                if let Some(host_op) = self.app_ops.get_mut(&token) {
                    host_op.clib_token = Some(t);
                }
                if let Some(w) = waker {
                    self.clib.register_waker(t, w);
                }
                self.enqueue_clib_completions(ctx);
            }
        }
    }

    /// Issues a vector of routable data ops (reads/writes) as one
    /// scatter/gather submission: every op is routed individually, then the
    /// whole batch is handed to CLib's `submit_many`, which bypasses the
    /// transport doorbell's same-instant heuristics. Unroutable entries
    /// fail fast with `InvalidAddr` without sinking the rest.
    fn dispatch_vec(&mut self, ctx: &mut Ctx<'_>, driver: usize, tokens: &[AppToken]) {
        let thread = ThreadId(driver as u64);
        let mut ops = Vec::with_capacity(tokens.len());
        let mut routed = Vec::with_capacity(tokens.len());
        let mut queued_since = None;
        for &token in tokens {
            let Some(host_op) = self.app_ops.get_mut(&token) else { continue };
            if let Some(a) = host_op.queued_since.take() {
                queued_since.get_or_insert(a);
            }
            let (pid, va, len) = host_op.spec.route_range().expect("vector ops address memory");
            match self.router.lookup(pid, va, len) {
                Route::Owned(mn) => {
                    ops.push(host_op.spec.to_op(mn));
                    routed.push(token);
                }
                verdict => {
                    let result = match verdict {
                        Route::Spans => Err(ClioError::SpansOwners { va, len }),
                        _ => Err(ClioError::Remote(clio_proto::Status::InvalidAddr)),
                    };
                    let issued_at = host_op.issued_at;
                    self.events.push_back((
                        driver,
                        DriverEvent::Completion(AppCompletion {
                            token,
                            result,
                            issued_at,
                            completed_at: ctx.now(),
                        }),
                    ));
                    self.app_ops.remove(&token);
                }
            }
        }
        self.clib.set_queued_since(queued_since);
        let clib_tokens = self.clib.submit_many(ctx, &mut self.nic, thread, ops, &mut self.comps);
        for (t, app) in clib_tokens.into_iter().zip(routed) {
            self.token_map.insert(t, app);
            if let Some(host_op) = self.app_ops.get_mut(&app) {
                host_op.clib_token = Some(t);
                let waker = host_op.waker.clone();
                if let Some(w) = waker {
                    self.clib.register_waker(t, w);
                }
            }
        }
        self.enqueue_clib_completions(ctx);
    }

    /// Converts the CLib completions buffered in `comps` into driver
    /// events, handling Moved re-routing, alloc notifications and fence
    /// fan-in.
    fn enqueue_clib_completions(&mut self, ctx: &mut Ctx<'_>) {
        let mut comps = std::mem::take(&mut self.comps);
        for c in comps.drain(..) {
            let Some(app_token) = self.token_map.remove(&c.token) else { continue };
            let Some(host_op) = self.app_ops.get_mut(&app_token) else { continue };

            // Transparent re-route on Moved.
            if c.result == Err(ClioError::Moved) && host_op.moved_retries < self.max_moved_retries {
                host_op.moved_retries += 1;
                if let Some((pid, va, len)) = host_op.spec.route_range() {
                    let tag = self.fresh_tag();
                    self.pending_routes.insert(tag, app_token);
                    let q = RouteQuery { pid, va, len, reply_to: ctx.self_id(), tag };
                    ctx.send(self.controller, SimDuration::from_micros(1), Message::new(q));
                    continue;
                }
            }

            // Fence fan-in: deliver only the last sub-completion.
            if host_op.fanout > 1 {
                host_op.fanout -= 1;
                continue;
            }

            let host_op = self.app_ops.remove(&app_token).expect("present");
            // Successful allocations are reported to the controller.
            if let (OpSpec::Alloc { pid, size, .. }, Ok(CompletionValue::Va(va))) =
                (&host_op.spec, &c.result)
            {
                let Route::Owned(mn) = self.router.lookup(*pid, *va, *size) else {
                    panic!("allocated range must be routable to one MN")
                };
                let n = AllocNotify { pid: *pid, va: *va, len: *size, mn };
                ctx.send(self.controller, SimDuration::from_micros(1), Message::new(n));
            }
            if let (OpSpec::Free { pid, va, .. }, Ok(_)) = (&host_op.spec, &c.result) {
                let n = FreeNotify { pid: *pid, va: *va };
                ctx.send(self.controller, SimDuration::from_micros(1), Message::new(n));
            }
            self.events.push_back((
                host_op.driver,
                DriverEvent::Completion(AppCompletion {
                    token: app_token,
                    result: c.result,
                    issued_at: host_op.issued_at,
                    completed_at: c.completed_at,
                }),
            ));
        }
        self.comps = comps;
    }
}

/// The API drivers program against.
pub struct ClientApi<'a, 'b> {
    core: &'a mut NodeCore,
    ctx: &'a mut Ctx<'b>,
    driver: usize,
}

impl ClientApi<'_, '_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This driver's process id.
    pub fn pid(&self) -> Pid {
        self.core.driver_pids[self.driver]
    }

    /// This compute node's index in the cluster.
    pub fn cn_index(&self) -> usize {
        self.core.cn_index
    }

    /// The memory nodes of the cluster (for offload targeting).
    pub fn mn_macs(&self) -> &[Mac] {
        &self.core.mn_macs
    }

    fn issue(&mut self, spec: OpSpec) -> AppToken {
        let token = self.core.fresh_token();
        let now = self.ctx.now();
        let arrival = self.core.next_arrival.take().map_or(now, |a| a.min(now));
        self.core.app_ops.insert(
            token,
            HostOp {
                driver: self.driver,
                spec,
                issued_at: arrival,
                moved_retries: 0,
                fanout: 1,
                queued_since: (arrival < now).then_some(arrival),
                clib_token: None,
                waker: None,
            },
        );
        self.core.dispatch(self.ctx, token);
        token
    }

    /// `ralloc`: allocate remote virtual memory (placed by the controller).
    pub fn alloc(&mut self, size: u64, perm: Perm) -> AppToken {
        let pid = self.pid();
        self.issue(OpSpec::Alloc { pid, size, perm })
    }

    /// `rfree`.
    pub fn free(&mut self, va: u64, size: u64) -> AppToken {
        let pid = self.pid();
        self.issue(OpSpec::Free { pid, va, size })
    }

    /// `rread`.
    pub fn read(&mut self, va: u64, len: u32) -> AppToken {
        let pid = self.pid();
        self.issue(OpSpec::Read { pid, va, len })
    }

    /// `rwrite`.
    pub fn write(&mut self, va: u64, data: Bytes) -> AppToken {
        let pid = self.pid();
        self.issue(OpSpec::Write { pid, va, data })
    }

    /// `rread_v`: scatter/gather read — submits the whole vector to the
    /// transport as one unit, so the reads coalesce into batch frames
    /// regardless of doorbell timing. Returns one token per entry, in
    /// order; each completes independently.
    pub fn read_v(&mut self, reads: &[(u64, u32)]) -> Vec<AppToken> {
        let pid = self.pid();
        let specs = reads.iter().map(|&(va, len)| OpSpec::Read { pid, va, len }).collect();
        self.issue_vec(specs)
    }

    /// `rwrite_v`: scatter/gather write, the mirror of
    /// [`read_v`](Self::read_v).
    pub fn write_v(&mut self, writes: Vec<(u64, Bytes)>) -> Vec<AppToken> {
        let pid = self.pid();
        let specs = writes.into_iter().map(|(va, data)| OpSpec::Write { pid, va, data }).collect();
        self.issue_vec(specs)
    }

    fn issue_vec(&mut self, specs: Vec<OpSpec>) -> Vec<AppToken> {
        let driver = self.driver;
        let now = self.ctx.now();
        let arrival = self.core.next_arrival.take().map_or(now, |a| a.min(now));
        let tokens: Vec<AppToken> = specs
            .into_iter()
            .map(|spec| {
                let token = self.core.fresh_token();
                self.core.app_ops.insert(
                    token,
                    HostOp {
                        driver,
                        spec,
                        issued_at: arrival,
                        moved_retries: 0,
                        fanout: 1,
                        queued_since: (arrival < now).then_some(arrival),
                        clib_token: None,
                        waker: None,
                    },
                );
                token
            })
            .collect();
        self.core.dispatch_vec(self.ctx, driver, &tokens);
        tokens
    }

    /// `rlock` (completes when acquired).
    pub fn lock(&mut self, va: u64) -> AppToken {
        let pid = self.pid();
        self.issue(OpSpec::Lock { pid, va })
    }

    /// `runlock`.
    pub fn unlock(&mut self, va: u64) -> AppToken {
        let pid = self.pid();
        self.issue(OpSpec::Unlock { pid, va })
    }

    /// Fetch-and-add on a remote 8-byte word.
    pub fn faa(&mut self, va: u64, delta: u64) -> AppToken {
        let pid = self.pid();
        self.issue(OpSpec::Faa { pid, va, delta })
    }

    /// Compare-and-swap on a remote 8-byte word.
    pub fn cas(&mut self, va: u64, expected: u64, new: u64) -> AppToken {
        let pid = self.pid();
        self.issue(OpSpec::Cas { pid, va, expected, new })
    }

    /// `rfence`: fences this process's requests on every MN.
    pub fn fence(&mut self) -> AppToken {
        let pid = self.pid();
        self.issue(OpSpec::Fence { pid })
    }

    /// `rrelease`: local barrier over this driver's async operations.
    pub fn release(&mut self) -> AppToken {
        self.issue(OpSpec::Release)
    }

    /// Invokes an offload installed on `mn`.
    pub fn offload(&mut self, mn: Mac, offload: u16, opcode: u16, arg: Bytes) -> AppToken {
        let pid = self.pid();
        self.issue(OpSpec::Offload { pid, mn, offload, opcode, arg })
    }

    /// Arms a timer delivering [`ClientDriver::on_wake`] with `tag`.
    pub fn wake_in(&mut self, delay: SimDuration, tag: u64) {
        let driver = self.driver;
        self.ctx.schedule(delay, Message::new(Wake { driver, tag }));
    }

    /// Declares the arrival time of the *next* issued op (open-loop load or
    /// an op parked behind the in-flight budget). The op's `issued_at` (and
    /// its trace origin) becomes `at`; the wait until actual submission is
    /// attributed to the `SubmitQueued` stage. Clamped to `now`; consumed by
    /// the next `issue`/`issue_vec` call.
    pub fn arrive_at(&mut self, at: SimTime) {
        self.core.next_arrival = Some(at);
    }

    /// Cancels an outstanding op: it completes now with
    /// [`ClioError::DeadlineExceeded`], its transport window credit is
    /// released (no congestion signal — abandonment is not loss), and a
    /// `Cancelled` stage ends its trace. Sub-submissions of a fanned-out
    /// fence are all cancelled; an op still parked at the controller
    /// (placement or route query) is failed directly. Returns `false` (and
    /// does nothing) if the op already completed — cancellation is
    /// best-effort and never un-completes a finished op.
    pub fn cancel(&mut self, token: AppToken) -> bool {
        if !self.core.app_ops.contains_key(&token) {
            return false;
        }
        self.core.deadline_exceeded.inc();
        let mut clib_tokens: Vec<OpToken> =
            self.core.token_map.iter().filter(|(_, a)| **a == token).map(|(t, _)| *t).collect();
        // Each cancel can dispatch dependents: visit in submission order.
        clib_tokens.sort_unstable();
        if clib_tokens.is_empty() {
            // Never reached CLib: the op is waiting on a controller reply.
            // Drop the pending request and fail the op host-side.
            self.core.pending_placements.retain(|_, t| *t != token);
            self.core.pending_routes.retain(|_, t| *t != token);
            let host_op = self.core.app_ops.remove(&token).expect("checked above");
            self.core.events.push_back((
                host_op.driver,
                DriverEvent::Completion(AppCompletion {
                    token,
                    result: Err(ClioError::DeadlineExceeded),
                    issued_at: host_op.issued_at,
                    completed_at: self.ctx.now(),
                }),
            ));
        } else {
            for t in clib_tokens {
                self.core.clib.cancel(self.ctx, &mut self.core.nic, t, &mut self.core.comps);
            }
            self.core.enqueue_clib_completions(self.ctx);
        }
        true
    }

    /// Registers a completion waker for an outstanding op: it fires when the
    /// op completes (following it across transparent re-routes). The
    /// executor's per-op wake path — no-op if the op already completed.
    pub fn register_waker(&mut self, token: AppToken, waker: std::task::Waker) {
        if let Some(host_op) = self.core.app_ops.get_mut(&token) {
            host_op.waker = Some(waker.clone());
            let clib_token = host_op.clib_token;
            if let Some(t) = clib_token {
                self.core.clib.register_waker(t, waker);
            }
        }
    }

    /// This node's shared runtime gauges (in-flight / parked / tasks).
    pub fn runtime_gauges(&self) -> RuntimeGauges {
        self.core.runtime_gauges.clone()
    }

    /// The per-process in-flight submission budget executor drivers enforce.
    pub fn inflight_budget(&self) -> usize {
        self.core.runtime_budget
    }
}

/// The compute-node actor.
pub struct ComputeNode {
    name: String,
    core: NodeCore,
    drivers: Vec<Option<Box<dyn ClientDriver>>>,
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
                cn_index,
                clib: CLib::new(clib_cfg, cn_index as u64 + 1, page_size),
                nic,
                router: RasRouter { slices, exceptions: Vec::new() },
                controller,
                mn_macs,
                driver_pids: Vec::new(),
                app_ops: IdMap::default(),
                token_map: IdMap::default(),
                next_app_token: 0,
                next_tag: 0,
                pending_placements: IdMap::default(),
                pending_routes: IdMap::default(),
                events: VecDeque::new(),
                comps: Vec::new(),
                max_moved_retries: 8,
                next_arrival: None,
                runtime_budget: DEFAULT_INFLIGHT_BUDGET,
                runtime_gauges: RuntimeGauges::default(),
                deadline_exceeded: Counter::default(),
            },
            drivers: Vec::new(),
        }
    }

    /// Registers a driver running as process `pid`. Returns its index.
    pub fn add_driver(&mut self, pid: Pid, driver: Box<dyn ClientDriver>) -> usize {
        self.core.driver_pids.push(pid);
        self.drivers.push(Some(driver));
        self.drivers.len() - 1
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

    /// Shares the node's live CLib/transport counters with `registry`
    /// under `<prefix>.clib.*` / `<prefix>.transport.*`, plus the async
    /// runtime gauges under `<prefix>.runtime.*`.
    pub fn register_metrics(&self, registry: &mut Registry, prefix: &str) {
        self.core.clib.register_metrics(registry, prefix);
        let g = &self.core.runtime_gauges;
        registry.register_gauge(format!("{prefix}.runtime.inflight"), g.inflight.clone());
        registry.register_gauge(format!("{prefix}.runtime.parked"), g.parked.clone());
        registry.register_gauge(format!("{prefix}.runtime.tasks"), g.tasks.clone());
        registry.register_counter(
            format!("{prefix}.runtime.deadline_exceeded_total"),
            self.core.deadline_exceeded.clone(),
        );
    }

    /// Overrides the per-process in-flight submission budget (backpressure
    /// window) enforced by executor drivers on this node.
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

    /// Borrows a driver's concrete state (harvesting measurements).
    ///
    /// # Panics
    ///
    /// Panics on index/type mismatch.
    pub fn driver<D: ClientDriver>(&self, idx: usize) -> &D {
        let d = self.drivers[idx].as_ref().expect("driver is executing");
        let any: &dyn std::any::Any = d.as_ref();
        any.downcast_ref::<D>().expect("driver type mismatch")
    }

    /// Drains queued driver events, letting drivers issue follow-up ops.
    fn pump_events(&mut self, ctx: &mut Ctx<'_>) {
        while let Some((idx, ev)) = self.core.events.pop_front() {
            let Some(mut driver) = self.drivers[idx].take() else { continue };
            {
                let mut api = ClientApi { core: &mut self.core, ctx, driver: idx };
                match ev {
                    DriverEvent::Completion(c) => driver.on_completion(&mut api, c),
                    DriverEvent::Wake(tag) => driver.on_wake(&mut api, tag),
                }
            }
            self.drivers[idx] = Some(driver);
        }
    }
}

impl Actor for ComputeNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let msg = match msg.downcast::<StartClients>() {
            Ok(_) => {
                for idx in 0..self.drivers.len() {
                    let Some(mut driver) = self.drivers[idx].take() else { continue };
                    {
                        let mut api = ClientApi { core: &mut self.core, ctx, driver: idx };
                        driver.on_start(&mut api);
                    }
                    self.drivers[idx] = Some(driver);
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
        let msg = match msg.downcast::<Wake>() {
            Ok(w) => {
                self.core.events.push_back((w.driver, DriverEvent::Wake(w.tag)));
                self.pump_events(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PokeDriver>() {
            Ok(p) => {
                self.core.events.push_back((p.driver, DriverEvent::Wake(POKE_TAG)));
                self.pump_events(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PlacementReply>() {
            Ok(p) => {
                if let Some(token) = self.core.pending_placements.remove(&p.tag) {
                    if let Some(host_op) = self.core.app_ops.get_mut(&token) {
                        let thread = ThreadId(host_op.driver as u64);
                        let op = host_op.spec.to_op(p.mn);
                        let queued_since = host_op.queued_since.take();
                        let waker = host_op.waker.clone();
                        self.core.clib.set_queued_since(queued_since);
                        let core = &mut self.core;
                        let t = core.clib.submit(ctx, &mut core.nic, thread, op, &mut core.comps);
                        self.core.token_map.insert(t, token);
                        if let Some(host_op) = self.core.app_ops.get_mut(&token) {
                            host_op.clib_token = Some(t);
                        }
                        if let Some(w) = waker {
                            self.core.clib.register_waker(t, w);
                        }
                        self.core.enqueue_clib_completions(ctx);
                        self.pump_events(ctx);
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RouteReply>() {
            Ok(r) => {
                if let Some(token) = self.core.pending_routes.remove(&r.tag) {
                    match (r.mn, self.core.app_ops.get(&token)) {
                        (Some(mac), Some(host_op)) => {
                            if let Some((pid, va, len)) = host_op.spec.route_range() {
                                // Cache an access-sized exception; the
                                // controller's RouteUpdate broadcast widens
                                // it to the whole migrated range.
                                self.core.router.add_exception(pid, va, len.max(1), mac);
                            }
                            self.core.dispatch(ctx, token);
                        }
                        (None, Some(host_op)) => {
                            // The controller either lost track of the range
                            // or reports it straddling two owners.
                            let result = match host_op.spec.route_range() {
                                Some((_, va, len)) if r.spans => {
                                    Err(ClioError::SpansOwners { va, len })
                                }
                                _ => Err(ClioError::Moved),
                            };
                            let ev = DriverEvent::Completion(AppCompletion {
                                token,
                                result,
                                issued_at: host_op.issued_at,
                                completed_at: ctx.now(),
                            });
                            let driver = host_op.driver;
                            self.core.app_ops.remove(&token);
                            self.core.events.push_back((driver, ev));
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
