//! The compute-node host actor and its application-facing API.
//!
//! A [`ComputeNode`] owns a NIC, a CLib instance and one
//! [`ExecDriver`] per client process — the executors whose async tasks are
//! the client programs (see [`crate::exec`]). Tasks issue operations using
//! only `(pid, va)`; CLib routes them, fences every MN and re-routes after
//! `Moved` refusals (the CN half of §4.7's distributed memory support).
//! The node keeps the conversation with the global controller that CLib
//! asks for ([`Notice`]): placements, route queries and updates, and the
//! allocation books.

use clio_cn::{CLib, CLibConfig, Completion, Notice, Op, OpToken, Route, ThreadId};
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

/// Kick-off message: start every executor (sent by `Cluster::start`).
#[derive(Debug, Clone, Copy)]
pub struct StartClients;

/// Executor timer message (a task's `sleep` coming due).
#[derive(Debug, Clone, Copy)]
struct Wake {
    driver: usize,
    tag: u64,
}

struct NodeCore {
    nic: NicPort,
    clib: CLib,
    controller: ActorId,
    /// The process each hosted executor runs as (parallel to
    /// [`ComputeNode::execs`]); executor `i` submits as `ThreadId(i)`.
    pids: Vec<Pid>,
    /// The sizes of the allocs the controller is placing, kept past a
    /// cancellation so the reply's charge can be refunded. A controller
    /// request's tag is the token of the op it is for.
    placing: IdMap<OpToken, u64>,
    /// Finished ops awaiting delivery to their executor, in completion
    /// order: CLib calls append to it, and [`ComputeNode::pump_events`]
    /// delivers it a batch at a time.
    comps: Vec<Completion>,
    /// The buffer `comps` is swapped with for each batch, kept for its
    /// capacity (always empty between batches).
    spare: Vec<Completion>,
    /// Ops resolved with `DeadlineExceeded` by [`NodeApi::cancel`].
    deadline_exceeded: u64,
}

impl NodeCore {
    /// Sends the controller the conversation the last CLib call asked
    /// for, in order (its completions wait in `comps`).
    fn absorb(&mut self, ctx: &mut Ctx<'_>) {
        let reply_to = ctx.self_id();
        for notice in self.clib.notices() {
            let msg = match notice {
                Notice::Place(token, pid, size) => {
                    self.placing.insert(token, size);
                    Message::new(PlaceAlloc { pid, size, reply_to, tag: token.0 })
                }
                Notice::Reroute(token, pid, va, len) => {
                    Message::new(RouteQuery { pid, va, len, reply_to, tag: token.0 })
                }
                Notice::Allocated(pid, mn, size, Some(va)) => {
                    Message::new(AllocNotify { pid, va, len: size, mn })
                }
                // The range was never made: give the placement charge back.
                Notice::Allocated(_, mn, size, None) => Message::new(PlacementRefund { mn, size }),
                Notice::Freed(pid, va) => Message::new(FreeNotify { pid, va }),
            };
            ctx.send(self.controller, SimDuration::from_micros(1), msg);
        }
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

    /// Issues one op that arrived at `arrival` — to the MN the task named
    /// (`roffload`), or wherever CLib routes it: its `issued_at` (and trace
    /// origin) is the arrival, and any wait until now — an open-loop op
    /// back-dated by `arriving_at` — is attributed to the `SubmitQueued`
    /// stage.
    pub(crate) fn issue(&mut self, op: Op, named_mn: Option<Mac>, arrival: SimTime) -> OpToken {
        let (core, thread) = (&mut *self.core, ThreadId(self.driver as u64));
        let pid = core.pids[self.driver];
        let token = core.clib.submit(self.ctx, thread, named_mn, pid, arrival, op, &mut core.comps);
        core.absorb(self.ctx);
        token
    }

    /// Arms a timer delivering [`ExecDriver::on_wake`] with `tag`.
    pub(crate) fn wake_in(&mut self, delay: SimDuration, tag: u64) {
        let driver = self.driver;
        self.ctx.schedule(delay, Message::new(Wake { driver, tag }));
    }

    /// Cancels an outstanding op through [`CLib::cancel`]: it completes
    /// now with `DeadlineExceeded` and releases its window credit without
    /// a congestion signal (abandonment is not loss); a placement's reply
    /// still refunds its charge. Does nothing if the op already completed —
    /// cancellation never un-completes a finished op.
    pub(crate) fn cancel(&mut self, token: OpToken) {
        let core = &mut *self.core;
        if core.clib.cancel(self.ctx, token, &mut core.comps) {
            core.deadline_exceeded += 1;
            core.absorb(self.ctx);
        }
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
    /// Builds a compute node. `slices` is the RAS routing table (base,
    /// span, owner MAC per MN, in MN order): it names every MN, and a fence
    /// fences them in this order.
    pub fn new(
        name: impl Into<String>,
        cn_index: usize,
        nic: NicPort,
        clib_cfg: CLibConfig,
        page_size: u64,
        controller: ActorId,
        slices: Vec<(u64, u64, Mac)>,
    ) -> Self {
        ComputeNode {
            name: name.into(),
            core: NodeCore {
                clib: CLib::new(clib_cfg, cn_index as u64 + 1, page_size, slices),
                nic,
                controller,
                pids: Vec::new(),
                placing: IdMap::default(),
                comps: Vec::new(),
                spare: Vec::new(),
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

    /// This node's link-layer address (per-port fabric stats lookups).
    pub fn mac(&self) -> Mac {
        self.core.nic.mac()
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

    /// Delivers queued completions in completion order, letting tasks
    /// issue follow-up ops. Each batch is swapped out of `comps` first, so
    /// the completions its deliveries cause form the next batch.
    fn pump_events(&mut self, ctx: &mut Ctx<'_>) {
        while !self.core.comps.is_empty() {
            let spare = std::mem::take(&mut self.core.spare);
            let mut batch = std::mem::replace(&mut self.core.comps, spare);
            for c in batch.drain(..) {
                let idx = c.thread.0 as usize;
                let mut api = NodeApi { core: &mut self.core, ctx, driver: idx };
                self.execs[idx].on_completion(&mut api, c);
            }
            self.core.spare = batch;
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
    /// each one counts ops and retires tasks by. `runtime.parked` is always
    /// 0, as no submitter ever waits; the gauge stays only until
    /// `benchmark/`, which reads it, can drop it.
    fn gauges(&self, f: &mut Visit<'_>) {
        let (mut inflight, mut tasks) = (0, 0);
        for exec in &self.execs {
            let (i, t) = exec.load();
            inflight += i;
            tasks += t;
        }
        f("runtime.inflight", inflight as u64);
        f("runtime.parked", 0);
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
        let core = &mut self.core;
        let msg = match msg.downcast::<Frame>() {
            Ok(frame) => {
                core.clib.on_frame(ctx, frame, &mut core.comps);
                core.absorb(ctx);
                self.pump_events(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Wake>() {
            Ok(w) => {
                let mut api = NodeApi { core, ctx, driver: w.driver };
                self.execs[w.driver].on_wake(&mut api, w.tag);
                self.pump_events(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PlacementReply>() {
            Ok(p) => {
                let token = OpToken(p.tag);
                let size = core.placing.remove(&token).expect("a placement this node asked for");
                if core.clib.place(ctx, token, Route::Owned(p.mn), &mut core.comps) {
                    core.absorb(ctx);
                    self.pump_events(ctx);
                } else {
                    // Cancelled while the controller placed it.
                    let refund = Message::new(PlacementRefund { mn: p.mn, size });
                    ctx.send(core.controller, SimDuration::from_micros(1), refund);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RouteReply>() {
            Ok(r) => {
                // An op cancelled while the query was out is gone.
                core.clib.place(ctx, OpToken(r.tag), r.route, &mut core.comps);
                core.absorb(ctx);
                self.pump_events(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RouteUpdate>() {
            Ok(u) => {
                // A migration committed somewhere in the cluster: refresh
                // this node's routing cache so the next op targets the new
                // owner directly instead of eating a Moved refusal.
                core.clib.apply_route_update(u.pid, u.start, u.len, u.mn);
                return;
            }
            Err(m) => m,
        };
        // Anything else is a CLib timer.
        let leftover = core.clib.on_timer(ctx, &mut core.nic, msg, &mut core.comps);
        if let Some(m) = leftover {
            panic!("ComputeNode {} got unexpected message {m:?}", self.name);
        }
        core.absorb(ctx);
        self.pump_events(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig};
    use bytes::Bytes;
    use clio_cn::ClioError;
    use clio_proto::Status;

    /// Regression: the router computed an access's last byte as an
    /// unchecked `va + len - 1`, so an access reaching past the end of the
    /// address space panicked in debug builds and was refused in release
    /// builds only because the wrapped sum happened to miss every slice.
    /// It names no memory: `InvalidAddr`, in both profiles.
    #[test]
    fn access_past_the_end_of_the_address_space_is_invalid_addr() {
        let mut cluster = Cluster::build(&ClusterConfig::test_small());
        let results = cluster.block_on(0, Pid(1), |h| async move {
            vec![
                h.rread(u64::MAX - 3, 16).await.result,
                h.rwrite(u64::MAX, Bytes::from_static(b"xy")).await.result,
                h.rfaa(u64::MAX - 6, 1).await.result,
            ]
        });
        assert_eq!(results, vec![Err(ClioError::Remote(Status::InvalidAddr)); 3]);
    }
}
