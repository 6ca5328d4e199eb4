//! The global controller (paper §4.7).
//!
//! A management-plane service (modeled as an actor reachable with a small
//! RPC latency) that performs the *coarse* half of Clio's two-level
//! distributed memory management:
//!
//! * **placement** — each `ralloc` is directed to a memory node (default
//!   policy: the node with the most free physical memory); every MN owns a
//!   disjoint slice of the RAS so fine-grained allocation needs no global
//!   coordination,
//! * **tracking** — allocated ranges are recorded so the controller can pick
//!   migration victims and answer routing queries,
//! * **migration** — when an MN reports memory pressure, the controller
//!   moves its least-recently-allocated region to the least-pressured node
//!   and invalidates CN routing.

use clio_cn::route::{self, Route};
use clio_mn::migrate::{MigrateCommand, MigrationAborted, MigrationComplete, PressureReport};
use clio_net::Mac;
use clio_proto::{Pid, RangeMap};
use clio_sim::{Actor, ActorId, Ctx, Message, SimDuration};
use clio_trace::metrics::{Metrics, Visit};

clio_trace::counters! {
    /// The controller's migration statistics.
    pub struct MigrationStats: "migration" {
        /// `MigrateCommand`s issued.
        started,
        /// Migrations that landed (`MigrationComplete`s received).
        completed,
        /// Migrations called off (`MigrationAborted`s received).
        aborted,
    }
}

/// Management RPC: where should this allocation go?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaceAlloc {
    /// Allocating process.
    pub pid: Pid,
    /// Requested bytes.
    pub size: u64,
    /// Who to answer.
    pub reply_to: ActorId,
    /// Caller-chosen tag echoed in the reply.
    pub tag: u64,
}

/// Reply to [`PlaceAlloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementReply {
    /// The chosen memory node.
    pub mn: Mac,
    /// Echoed tag.
    pub tag: u64,
}

/// Management RPC: which MN owns the `len`-byte access at `(pid, va)` now?
/// (Sent after a `Moved` refusal.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteQuery {
    /// Process.
    pub pid: Pid,
    /// Address being accessed.
    pub va: u64,
    /// Bytes the access covers (the whole span must share one owner).
    pub len: u64,
    /// Who to answer.
    pub reply_to: ActorId,
    /// Caller-chosen tag echoed in the reply.
    pub tag: u64,
}

/// Reply to [`RouteQuery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteReply {
    /// The current owner of the whole access; [`Route::Spans`] when it
    /// straddles two owners (the CN must fail it fast rather than guess),
    /// [`Route::Unknown`] when no owner is known.
    pub route: Route,
    /// Echoed tag.
    pub tag: u64,
}

/// Routing-cache invalidation broadcast to every registered CN when a
/// migration commits: `[start, start + len)` of `pid` now lives on `mn`.
/// CNs overwrite any cached route for the range so subsequent ops dispatch
/// to the new owner without eating a `Moved` refusal first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteUpdate {
    /// Owning process.
    pub pid: Pid,
    /// Migrated range start.
    pub start: u64,
    /// Migrated range length.
    pub len: u64,
    /// The new owner.
    pub mn: Mac,
}

/// Notification from a CN: an allocation succeeded (the controller tracks
/// ranges for migration victim selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocNotify {
    /// Owning process.
    pub pid: Pid,
    /// Range start.
    pub va: u64,
    /// Range length.
    pub len: u64,
    /// Node it was placed on.
    pub mn: Mac,
}

/// Notification from a CN: a range was freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeNotify {
    /// Owning process.
    pub pid: Pid,
    /// Range start.
    pub va: u64,
}

/// Notification from a CN: a placement it asked for holds no range — the
/// allocation failed, or was cancelled while the controller placed it — so
/// the charge [`PlaceAlloc`] made is taken back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementRefund {
    /// The node the placement charged.
    pub mn: Mac,
    /// The bytes it charged.
    pub size: u64,
}

/// The books on one allocated range.
#[derive(Debug, Clone, Copy)]
struct Tracked {
    owner: Mac,
    /// Allocations tracked before this one: the oldest goes first.
    seq: u64,
    migrating: bool,
}

#[derive(Debug, Clone, Copy)]
struct MnInfo {
    mac: Mac,
    actor: ActorId,
    phys_bytes: u64,
    placed_bytes: u64,
}

/// The global controller actor.
#[derive(Debug)]
pub struct Controller {
    mns: Vec<MnInfo>,
    slices: RangeMap<Mac>,
    cns: Vec<ActorId>,
    ranges: RangeMap<Tracked>,
    allocs: u64,
    rpc_latency: SimDuration,
    stats: MigrationStats,
}

impl Controller {
    /// Creates an empty controller; memory nodes register via
    /// [`Controller::register_mn`].
    pub fn new() -> Self {
        Controller {
            mns: Vec::new(),
            slices: RangeMap::default(),
            cns: Vec::new(),
            ranges: RangeMap::default(),
            allocs: 0,
            rpc_latency: SimDuration::from_micros(2),
            stats: MigrationStats::default(),
        }
    }

    /// Registers a memory node and the RAS slice it owns.
    pub fn register_mn(
        &mut self,
        mac: Mac,
        actor: ActorId,
        slice_base: u64,
        slice_span: u64,
        phys_bytes: u64,
    ) {
        self.mns.push(MnInfo { mac, actor, phys_bytes, placed_bytes: 0 });
        self.slices.insert(route::SLICE_KEY, slice_base, slice_span, mac);
    }

    /// Registers a compute node to receive [`RouteUpdate`] invalidation
    /// broadcasts when migrations commit.
    pub fn register_cn(&mut self, actor: ActorId) {
        self.cns.push(actor);
    }

    /// Bytes currently placed on (charged against) the MN at `mac`.
    ///
    /// # Panics
    ///
    /// Panics if `mac` is not registered.
    pub fn placed_bytes_of(&self, mac: Mac) -> u64 {
        self.mns.iter().find(|m| m.mac == mac).expect("unregistered MN").placed_bytes
    }

    /// Registered memory nodes, in registration order.
    pub fn mn_macs(&self) -> Vec<Mac> {
        self.mns.iter().map(|m| m.mac).collect()
    }

    /// Takes `bytes` of placement charge off the MN at `mac` (a free, a
    /// refund, or a range migrating away).
    fn debit(&mut self, mac: Mac, bytes: u64) {
        if let Some(m) = self.mns.iter_mut().find(|m| m.mac == mac) {
            m.placed_bytes = m.placed_bytes.saturating_sub(bytes);
        }
    }

    /// Placement policy: most free (physical minus placed) bytes first;
    /// ties break by registration order.
    fn place(&mut self, size: u64) -> Option<usize> {
        let idx = self
            .mns
            .iter()
            .enumerate()
            .max_by_key(|(i, m)| (m.phys_bytes.saturating_sub(m.placed_bytes), usize::MAX - i))
            .map(|(i, _)| i)?;
        self.mns[idx].placed_bytes += size;
        Some(idx)
    }

    /// The current owner of the single byte at `(pid, va)`: a tracked
    /// range's owner, or the slice owner as the default.
    pub fn owner_of(&self, pid: Pid, va: u64) -> Option<Mac> {
        match route::resolve(&self.slices, &self.ranges, |t| t.owner, pid, va, 1) {
            Route::Owned(mac) => Some(mac),
            _ => None,
        }
    }

    fn handle_pressure(&mut self, ctx: &mut Ctx<'_>, report: PressureReport) {
        // Victim: the least-recently-allocated (coldest proxy) range on the
        // pressured node that is not already moving.
        let Some((pid, start, len, _)) = self
            .ranges
            .iter()
            .filter(|(.., t)| t.owner == report.mac && !t.migrating)
            .min_by_key(|(.., t)| t.seq)
        else {
            return;
        };
        // Destination: the node with the most free physical memory that is
        // not the source.
        let Some(dst) = self
            .mns
            .iter()
            .filter(|m| m.mac != report.mac)
            .max_by_key(|m| m.phys_bytes.saturating_sub(m.placed_bytes))
            .map(|m| m.mac)
        else {
            return;
        };
        let src_actor = self
            .mns
            .iter()
            .find(|m| m.mac == report.mac)
            .expect("pressure from unregistered MN")
            .actor;
        self.ranges.at_mut(pid, start).expect("the victim is tracked").1.migrating = true;
        self.stats.started += 1;
        let cmd = MigrateCommand { pid, start, len, dst };
        ctx.send(src_actor, self.rpc_latency, Message::new(cmd));
    }

    fn handle_complete(&mut self, ctx: &mut Ctx<'_>, done: MigrationComplete) {
        self.stats.completed += 1;
        let src = self.ranges.at_mut(done.pid, done.start).map(|(_, t)| {
            t.migrating = false;
            std::mem::replace(&mut t.owner, done.dst)
        });
        // Account the moved bytes: credit the destination AND debit the
        // source, or placement permanently over-counts migrated-away
        // ranges and the skew compounds with every migration. A completion
        // for an untracked range (freed mid-migration) or a same-node
        // "move" changes no accounting.
        if let Some(src) = src.filter(|&src| src != done.dst) {
            if let Some(m) = self.mns.iter_mut().find(|m| m.mac == done.dst) {
                m.placed_bytes += done.len;
            }
            self.debit(src, done.len);
        }
        // Invalidate every CN's cached route for the moved range so the
        // fast path re-targets the new owner without a `Moved` round-trip.
        for &cn in &self.cns {
            let update =
                RouteUpdate { pid: done.pid, start: done.start, len: done.len, mn: done.dst };
            ctx.send(cn, self.rpc_latency, Message::new(update));
        }
    }

    /// A range that did not move stays with its owner and may be picked
    /// again.
    fn handle_abort(&mut self, abort: MigrationAborted) {
        self.stats.aborted += 1;
        if let Some((_, t)) = self.ranges.at_mut(abort.pid, abort.start) {
            t.migrating = false;
        }
    }
}

/// `migration.*`.
impl Metrics for Controller {
    fn counters(&self, f: &mut Visit<'_>) {
        self.stats.each(f);
    }
}

impl Default for Controller {
    fn default() -> Self {
        Self::new()
    }
}

impl Actor for Controller {
    fn name(&self) -> &str {
        "controller"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let msg = match msg.downcast::<PlaceAlloc>() {
            Ok(p) => {
                let mn = self
                    .place(p.size)
                    .map(|i| self.mns[i].mac)
                    .expect("no memory nodes registered");
                ctx.send(
                    p.reply_to,
                    self.rpc_latency,
                    Message::new(PlacementReply { mn, tag: p.tag }),
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RouteQuery>() {
            Ok(q) => {
                let route =
                    route::resolve(&self.slices, &self.ranges, |t| t.owner, q.pid, q.va, q.len);
                ctx.send(
                    q.reply_to,
                    self.rpc_latency,
                    Message::new(RouteReply { route, tag: q.tag }),
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<AllocNotify>() {
            Ok(n) => {
                let tracked = Tracked { owner: n.mn, seq: self.allocs, migrating: false };
                self.ranges.insert(n.pid, n.va, n.len, tracked);
                self.allocs += 1;
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<FreeNotify>() {
            Ok(n) => {
                // Refund the freed range's bytes to its current owner (the
                // same conservation rule as migration: placement charges
                // move with the range and vanish with it).
                if let Some((len, t)) = self.ranges.remove(n.pid, n.va) {
                    self.debit(t.owner, len);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PlacementRefund>() {
            Ok(r) => {
                self.debit(r.mn, r.size);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PressureReport>() {
            Ok(r) => {
                self.handle_pressure(ctx, r);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<MigrationAborted>() {
            Ok(abort) => {
                self.handle_abort(abort);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<MigrationComplete>() {
            Ok(done) => self.handle_complete(ctx, done),
            Err(other) => panic!("controller got unexpected message {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_sim::Simulation;
    use clio_trace::metrics::Registry;

    /// The controller's `migration.<name>` counter, read through a registry.
    fn migration_counter(sim: &Simulation, ctrl: ActorId, name: &str) -> Option<u64> {
        let mut registry = Registry::default();
        registry.add("controller", sim.actor::<Controller>(ctrl));
        registry.counter(&format!("controller.migration.{name}"))
    }

    /// Sink that records placement/route replies.
    struct Sink {
        placements: Vec<PlacementReply>,
        routes: Vec<RouteReply>,
    }
    impl Actor for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
            let msg = match msg.downcast::<PlacementReply>() {
                Ok(p) => {
                    self.placements.push(p);
                    return;
                }
                Err(m) => m,
            };
            self.routes.push(msg.downcast::<RouteReply>().expect("route reply"));
        }
    }

    fn setup() -> (Simulation, ActorId, ActorId) {
        let mut sim = Simulation::new(5);
        let sink = sim.add_actor(Sink { placements: vec![], routes: vec![] });
        let mut c = Controller::new();
        c.register_mn(Mac(10), sink /*placeholder*/, 1 << 30, 1 << 30, 4 << 30);
        c.register_mn(Mac(20), sink, 2 << 30, 1 << 30, 2 << 30);
        let ctrl = sim.add_actor(c);
        (sim, ctrl, sink)
    }

    #[test]
    fn placement_prefers_free_memory() {
        let (mut sim, ctrl, sink) = setup();
        for tag in 0..3 {
            sim.post(
                ctrl,
                Message::new(PlaceAlloc { pid: Pid(1), size: 1 << 30, reply_to: sink, tag }),
            );
        }
        sim.run_until_idle();
        let got: Vec<Mac> = sim.actor::<Sink>(sink).placements.iter().map(|p| p.mn).collect();
        // 4 GB free vs 2 GB free: first to Mac(10) (4->3), second Mac(10)
        // (3->2), third ties at 2 GB -> registration order Mac(10).
        assert_eq!(got[0], Mac(10));
        assert_eq!(got[1], Mac(10));
        assert_eq!(got[2], Mac(10));
    }

    #[test]
    fn routing_defaults_to_slice_owner_and_tracks_ranges() {
        let (mut sim, ctrl, sink) = setup();
        // Address in MN 1's slice with no tracked range.
        sim.post(
            ctrl,
            Message::new(RouteQuery {
                pid: Pid(1),
                va: (1 << 30) + 8192,
                len: 64,
                reply_to: sink,
                tag: 1,
            }),
        );
        // Tracked range overrides the slice owner.
        sim.post(
            ctrl,
            Message::new(AllocNotify { pid: Pid(1), va: 1 << 30, len: 4096, mn: Mac(20) }),
        );
        sim.post(
            ctrl,
            Message::new(RouteQuery {
                pid: Pid(1),
                va: (1 << 30) + 10,
                len: 8,
                reply_to: sink,
                tag: 2,
            }),
        );
        // Unknown address outside every slice.
        sim.post(
            ctrl,
            Message::new(RouteQuery { pid: Pid(1), va: 1 << 45, len: 8, reply_to: sink, tag: 3 }),
        );
        sim.run_until_idle();
        let routes = &sim.actor::<Sink>(sink).routes;
        assert_eq!(routes[0], RouteReply { route: Route::Owned(Mac(10)), tag: 1 });
        assert_eq!(routes[1], RouteReply { route: Route::Owned(Mac(20)), tag: 2 });
        assert_eq!(routes[2], RouteReply { route: Route::Unknown, tag: 3 });
    }

    /// Regression (issue 10): an access straddling two owners must answer
    /// `spans` instead of silently routing the whole op to the start VA's
    /// owner — whether the straddle is a slice boundary or a sub-range
    /// migrated out of the interior of the access.
    #[test]
    fn range_spanning_accesses_are_refused_not_misrouted() {
        let (mut sim, ctrl, sink) = setup();
        // Slices are [1 GB, 2 GB) on Mac(10) and [2 GB, 3 GB) on Mac(20):
        // an access crossing 2 GB straddles both.
        sim.post(
            ctrl,
            Message::new(RouteQuery {
                pid: Pid(1),
                va: (2 << 30) - 64,
                len: 128,
                reply_to: sink,
                tag: 1,
            }),
        );
        // A range in the middle of MN 1's slice that migrated to Mac(20):
        // endpoints of a covering access agree (both default to Mac(10))
        // but the interior routes elsewhere.
        sim.post(
            ctrl,
            Message::new(AllocNotify { pid: Pid(1), va: (1 << 30) + 8192, len: 4096, mn: Mac(20) }),
        );
        sim.post(
            ctrl,
            Message::new(RouteQuery {
                pid: Pid(1),
                va: (1 << 30) + 4096,
                len: 3 * 4096,
                reply_to: sink,
                tag: 2,
            }),
        );
        sim.run_until_idle();
        let routes = &sim.actor::<Sink>(sink).routes;
        assert_eq!(routes[0], RouteReply { route: Route::Spans, tag: 1 });
        assert_eq!(routes[1], RouteReply { route: Route::Spans, tag: 2 });
    }

    /// A query whose access ends on the last byte of the address space
    /// names no MN's memory: the controller answers `Unknown`, as CLib's
    /// router would, instead of overflowing its end sum.
    #[test]
    fn a_query_ending_at_the_top_of_the_address_space_is_unknown() {
        let (mut sim, ctrl, sink) = setup();
        sim.post(
            ctrl,
            Message::new(RouteQuery {
                pid: Pid(1),
                va: u64::MAX - 15,
                len: 16,
                reply_to: sink,
                tag: 1,
            }),
        );
        sim.run_until_idle();
        let routes = &sim.actor::<Sink>(sink).routes;
        assert_eq!(routes[..], [RouteReply { route: Route::Unknown, tag: 1 }]);
    }

    #[test]
    fn pressure_triggers_migration_command() {
        let mut sim = Simulation::new(5);
        /// Captures MigrateCommand sent to the "board".
        struct BoardStub {
            cmds: Vec<MigrateCommand>,
        }
        impl Actor for BoardStub {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
                self.cmds.push(msg.downcast::<MigrateCommand>().expect("cmd"));
            }
        }
        let board = sim.add_actor(BoardStub { cmds: vec![] });
        let mut c = Controller::new();
        c.register_mn(Mac(10), board, 1 << 30, 1 << 30, 1 << 30);
        c.register_mn(Mac(20), board, 2 << 30, 1 << 30, 8 << 30);
        let ctrl = sim.add_actor(c);
        sim.post(
            ctrl,
            Message::new(AllocNotify { pid: Pid(3), va: 1 << 30, len: 8192, mn: Mac(10) }),
        );
        sim.post(ctrl, Message::new(PressureReport { mac: Mac(10), utilization: 0.95 }));
        sim.run_until_idle();
        let cmds = &sim.actor::<BoardStub>(board).cmds;
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].pid, Pid(3));
        assert_eq!(cmds[0].dst, Mac(20), "moves to the roomier node");
        // Completion updates routing.
        sim.post(
            ctrl,
            Message::new(MigrationComplete {
                pid: Pid(3),
                start: 1 << 30,
                len: 8192,
                dst: Mac(20),
            }),
        );
        sim.run_until_idle();
        let counts = ["started", "completed"].map(|n| migration_counter(&sim, ctrl, n));
        assert_eq!(counts, [Some(1), Some(1)]);
    }

    /// A migration the destination refused is reported, and the range it
    /// named is a candidate again: the next pressure report picks it.
    ///
    /// Regression: the range stayed `migrating`, so victim selection
    /// skipped it for good.
    #[test]
    fn an_aborted_migration_frees_its_range_for_the_next_pick() {
        let mut sim = Simulation::new(5);
        struct BoardStub {
            cmds: Vec<MigrateCommand>,
        }
        impl Actor for BoardStub {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
                self.cmds.push(msg.downcast::<MigrateCommand>().expect("cmd"));
            }
        }
        let board = sim.add_actor(BoardStub { cmds: vec![] });
        let mut c = Controller::new();
        c.register_mn(Mac(10), board, 1 << 30, 1 << 30, 1 << 30);
        c.register_mn(Mac(20), board, 2 << 30, 1 << 30, 8 << 30);
        let ctrl = sim.add_actor(c);
        let range = AllocNotify { pid: Pid(3), va: 1 << 30, len: 8192, mn: Mac(10) };
        let pressure = PressureReport { mac: Mac(10), utilization: 0.95 };
        sim.post(ctrl, Message::new(range));
        sim.post(ctrl, Message::new(pressure));
        sim.run_until_idle();
        sim.post(ctrl, Message::new(MigrationAborted { pid: Pid(3), start: 1 << 30 }));
        sim.post(ctrl, Message::new(pressure));
        sim.run_until_idle();

        let cmds = &sim.actor::<BoardStub>(board).cmds;
        assert_eq!(cmds.len(), 2, "the aborted range was never picked again");
        assert_eq!(cmds[0], cmds[1]);
        let counts = ["started", "completed", "aborted"].map(|n| migration_counter(&sim, ctrl, n));
        assert_eq!(counts, [Some(2), Some(0), Some(1)]);
    }

    /// Regression (issue 10): migration completion must debit the source
    /// MN as well as crediting the destination. A migrate round-trip
    /// (A -> B -> A) must leave per-MN `placed_bytes` exactly where it
    /// started, and freeing the range must drain it to zero.
    #[test]
    fn migration_roundtrip_conserves_placed_bytes() {
        let (mut sim, ctrl, sink) = setup();
        // Place through the real policy so the charge lands where the
        // routing state says it lives.
        sim.post(
            ctrl,
            Message::new(PlaceAlloc { pid: Pid(9), size: 8192, reply_to: sink, tag: 0 }),
        );
        sim.run_until_idle();
        let placed_on = sim.actor::<Sink>(sink).placements[0].mn;
        assert_eq!(placed_on, Mac(10), "policy picks the roomier node");
        sim.post(
            ctrl,
            Message::new(AllocNotify { pid: Pid(9), va: 1 << 30, len: 8192, mn: placed_on }),
        );
        let total = |sim: &Simulation| {
            let c = sim.actor::<Controller>(ctrl);
            (c.placed_bytes_of(Mac(10)), c.placed_bytes_of(Mac(20)))
        };
        sim.run_until_idle();
        assert_eq!(total(&sim), (8192, 0));
        // A -> B.
        sim.post(
            ctrl,
            Message::new(MigrationComplete {
                pid: Pid(9),
                start: 1 << 30,
                len: 8192,
                dst: Mac(20),
            }),
        );
        sim.run_until_idle();
        assert_eq!(total(&sim), (0, 8192), "moved bytes debited from the source");
        // B -> A: back exactly where we started.
        sim.post(
            ctrl,
            Message::new(MigrationComplete {
                pid: Pid(9),
                start: 1 << 30,
                len: 8192,
                dst: Mac(10),
            }),
        );
        sim.run_until_idle();
        assert_eq!(total(&sim), (8192, 0), "round-trip conserves placement");
        // Freeing refunds the current owner and drains accounting to zero.
        sim.post(ctrl, Message::new(FreeNotify { pid: Pid(9), va: 1 << 30 }));
        sim.run_until_idle();
        assert_eq!(total(&sim), (0, 0), "free refunds the owner");
    }

    /// A committed migration broadcasts a [`RouteUpdate`] to every
    /// registered CN so routing caches are invalidated proactively.
    #[test]
    fn migration_complete_broadcasts_route_updates_to_cns() {
        let mut sim = Simulation::new(5);
        struct CnStub {
            updates: Vec<RouteUpdate>,
        }
        impl Actor for CnStub {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
                self.updates.push(msg.downcast::<RouteUpdate>().expect("route update"));
            }
        }
        let cn_a = sim.add_actor(CnStub { updates: vec![] });
        let cn_b = sim.add_actor(CnStub { updates: vec![] });
        let mut c = Controller::new();
        c.register_mn(Mac(10), cn_a /*placeholder*/, 1 << 30, 1 << 30, 4 << 30);
        c.register_mn(Mac(20), cn_a, 2 << 30, 1 << 30, 4 << 30);
        c.register_cn(cn_a);
        c.register_cn(cn_b);
        let ctrl = sim.add_actor(c);
        sim.post(
            ctrl,
            Message::new(AllocNotify { pid: Pid(4), va: 1 << 30, len: 4096, mn: Mac(10) }),
        );
        sim.post(
            ctrl,
            Message::new(MigrationComplete {
                pid: Pid(4),
                start: 1 << 30,
                len: 4096,
                dst: Mac(20),
            }),
        );
        sim.run_until_idle();
        let want = RouteUpdate { pid: Pid(4), start: 1 << 30, len: 4096, mn: Mac(20) };
        assert_eq!(sim.actor::<CnStub>(cn_a).updates, vec![want]);
        assert_eq!(sim.actor::<CnStub>(cn_b).updates, vec![want]);
    }
}
