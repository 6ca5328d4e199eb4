//! The CBoard actor: Clio's network-attached memory node (paper Figure 3).
//!
//! An incoming frame traverses MAC/PHY and a match-and-action table that
//! dispatches it to one of three paths:
//!
//! * **fast path** — reads, write fragments, atomics and fences execute in
//!   the [`Silicon`] datapath with deterministic timing,
//! * **slow path** — allocation/free/address-space management cross to the
//!   ARM ([`SlowPath`]) and come back,
//! * **extend path** — offload calls run in installed [`Offload`] modules.
//!
//! Batch frames (`ClioPacket::Batch`) are unbatched at ingress: every entry
//! dispatches through the same match-and-action table in batch order and
//! responds independently, so the CN's per-request reliability (retries,
//! dedup via `retry_of`) is oblivious to how requests were framed; only
//! the MAC/PHY crossings below depend on it. A corrupted batch frame NACKs
//! every entry it carried in one coalesced `ClioPacket::BatchNack` frame
//! (per entry only when response batching is disabled), so the error path
//! is as frame-efficient as the fast path.
//!
//! # MAC/PHY crossings
//!
//! A wire frame crosses the MAC/PHY once in each direction, and this module
//! is the one place that charges it ([`Silicon`] times only its datapath,
//! from the pipeline gate through response generation). A fast-path access
//! pays by the frame rule: a lone request pays ingress and egress; a
//! `Batch` entry pays ingress only if it is the frame's first fast-path
//! access, and egress only if it is the frame's last entry. The frame's
//! responses are taken to leave coalesced in one reply frame (an
//! approximation), and charging its tail keeps completion order. With
//! `resp_batch_max_ops = 1` they leave one by one, so every entry pays its
//! own egress. An access that stalls on an empty async buffer runs a second
//! pass from when the first answered; the second pass pays egress again,
//! and ingress again only for a lone request. A control reply
//! (`control_latency`: refusals, dedup replays, fences, NACKs), a slow-path
//! op (`reply_slow`) and an offload call (`run_offload`) each pay one
//! crossing each way whatever their framing; an offload's own accesses,
//! on-chip behind the match-and-action table, pay none.
//!
//! # Egress queue (response batching)
//!
//! Every packet the board sends — responses, fragments, NACKs — passes
//! through a per-destination **egress queue** ordered by completion time,
//! drained by a doorbell that fires at the earliest pending completion.
//! When the doorbell fires, single-packet responses whose completion times
//! fall within the doorbell's latency budget of the fire time are packed
//! into `ClioPacket::BatchResp` frames under the `resp_batch_max_ops`/MTU
//! budgets; coalescing never sends data before the datapath produced it (a
//! frame leaves the NIC no earlier than its slowest member's completion).
//! How long the doorbell holds is not configured but measured — the rule
//! is [`clio_net::Doorbell`]'s, shared with the CN's request doorbell:
//! with no recent traffic, or completions arriving farther apart than the
//! budget, it fires at the response's own completion time (zero added
//! latency — the common case for synchronous clients); under sustained
//! concurrent load it waits up to the budget so pipelined completions
//! merge, which is the documented latency/goodput trade. The board
//! supplies what is its own: the signal (the smoothed RTT the destination
//! CN echoes in its request headers, else the board-measured request
//! turnaround) and the cap (`CBoardConfig::EGRESS_DERIVED_CAP`); with
//! `resp_batch_max_ops = 1` the budget is zero — no hold, no reach-ahead.
//! Multi-fragment read responses and NACK frames are never batched *with
//! responses* or held (§4.4 wants NACK retries immediate); they flush the
//! frame being assembled so per-destination send order is preserved — but
//! the NACKs of one corrupted batch frame already travel coalesced as a
//! single `BatchNack`. The `tx_frames` stat counts wire frames,
//! `tx_packets` counts the packets inside them.
//!
//! The board holds exactly the bounded state the paper allows it (§4.5): the
//! retry-dedup buffer, in-flight synchronization state (one fence barrier +
//! the atomic unit), a TTL-bounded tracker for multi-packet writes, and one
//! `Egress` record per recently active destination (its queue, bounded by
//! in-flight requests, its doorbell and its RTT estimates), pruned once
//! idle — bounded by active destinations, not by every client ever seen.
//! It is connectionless: every response is routed by the source MAC of the
//! request frame.
//!
//! Migration state (§4.7) does not live in the board's own fields: every
//! range the board is sending, has sent or is receiving is one record in
//! its one [`Migrations`] (`crate::migrate`). The board dispatches
//! `MigrateCommand`s and `MigrationMsg` frames to it, sizes the frames
//! (`send_migration`), executes the [`Effect`]s it returns and runs the
//! pressure latch. Admission asks it about every request that names an
//! address ([`RequestBody::va`]), once, before `handle_request` dispatches
//! to any path: [`Migrations::refusal`] answers `Conflict` or `Moved`
//! (counted in `conflicts` and `moved`). An offload call names no address;
//! [`OffloadEnv`] admits each of its accesses the same way.
//!
//! # Invariants
//!
//! The board-side half of the transport contract, checked exhaustively by
//! the `clio_mc` bounded model checker (see `clio_cn::transport` for the
//! CN-side half):
//!
//! 1. **At-most-once effects.** A retry of a non-idempotent request
//!    (`retry_of` set) whose original already executed is answered from the
//!    retry-dedup buffer without re-execution — the CN may retry freely and
//!    each logical operation still takes effect at most once. Admission
//!    makes the check, after the refusal and before any path runs.
//! 2. **Every request is answered.** Each well-formed, uncorrupted request
//!    packet produces exactly one response packet (possibly coalesced into
//!    a `BatchResp` frame); each corrupted frame produces a NACK per
//!    request it carried (possibly coalesced into `BatchNack`). The board
//!    never silently consumes a request.
//! 3. **Egress drains.** Every packet placed on an egress queue has a
//!    doorbell scheduled at (or before) its ready time; at quiescence every
//!    egress queue is empty. A packet is never sent before the datapath
//!    produced it.
//! 4. **Statelessness.** Outside a request's execution window the board
//!    keeps no per-CN connection state: response routing is derived solely
//!    from the request frame's source MAC, and the write tracker / dedup
//!    buffer are TTL- and capacity-bounded.

use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use clio_hw::dedup::DedupRecord;
use clio_hw::silicon::{AccessTiming, AtomicOp, Silicon};
use clio_hw::CBoardHwConfig;
use clio_net::{BoardPower, Doorbell, Ewma, Frame, Mac, NicPort};
use clio_proto::{
    codec, read_response_fragments, ClioPacket, Packer, Pid, ReqHeader, ReqId, RequestBody,
    RespHeader, ResponseBody, Status, ETH_OVERHEAD_BYTES, MTU_BYTES,
};
use clio_sim::table::{mix, mix_section, MIX_SEED};
use clio_sim::{Actor, ActorId, Ctx, IdMap, Message, SimDuration, SimTime};
use clio_trace::metrics::{Metrics, Visit};
use clio_trace::{Stage, TraceCtx, Tracer, Track};

use crate::config::CBoardConfig;
use crate::extend::{Offload, OffloadEnv};
use crate::migrate::{Effect, MigrateCommand, MigrationMsg, Migrations, PressureReport};
use crate::slowpath::SlowPath;

clio_trace::counters! {
    /// Aggregate board statistics.
    pub struct BoardStats: "board" {
        /// Wire frames carrying requests received (a batch frame counts once).
        rx_frames,
        /// Requests that arrived coalesced inside batch frames.
        batched_requests,
        /// Request packets received.
        rx_packets,
        /// Response packets sent (entries inside batch frames count
        /// individually).
        tx_packets,
        /// Wire frames sent by the egress queue (a `BatchResp` frame counts
        /// once).
        tx_frames,
        /// Responses that left coalesced inside `BatchResp` frames.
        batched_responses,
        /// Link-layer NACKs sent for corrupted frames (one per corrupted
        /// request, however they were framed).
        nacks,
        /// Wire frames that carried NACKs (a `BatchNack` frame counts once, so
        /// `nacks / nack_frames` is the error path's coalescing factor).
        nack_frames,
        /// Retries answered from the dedup buffer without re-execution.
        dedup_replays,
        /// Slow-path operations served.
        slow_ops,
        /// Extend-path calls served.
        offload_calls,
        /// Requests refused `Conflict` at admission (an offload's refused
        /// access shows in its call's reply status instead).
        conflicts,
        /// Requests refused `Moved` at admission (as for `conflicts`).
        moved,
        /// Power cycles completed: `BoardPower::Restart` messages handled.
        board_restarts,
        /// Frames and doorbells dropped because the board was powered off.
        dropped_while_down,
    }
}

#[derive(Debug, Clone)]
struct PendingWrite {
    remaining: u16,
    done: SimTime,
    src: Mac,
    retry_of: Option<ReqId>,
    failed: Option<Status>,
    created: SimTime,
    /// Drop the entry only after the whole transfer could have arrived on
    /// a slow link plus several retry windows.
    expires: SimTime,
}

/// The retry windows a multi-packet write's state outlives its transfer
/// time by: 8 × the CNs' 50 µs request timeout.
const WRITE_RETRY_WINDOWS: SimDuration = SimDuration::from_micros(8 * 50);

/// TTL-bounded tracker for multi-packet writes (the "slim layer for handling
/// corner-case requests" of §4.4 — bounded by in-flight data, not clients).
#[derive(Debug, Clone, Default)]
struct WriteTracker {
    pending: IdMap<ReqId, PendingWrite>,
    order: VecDeque<(SimTime, ReqId)>,
}

impl WriteTracker {
    /// Drops every write whose TTL has passed, oldest first, stopping at
    /// the first one still live.
    fn purge(&mut self, now: SimTime) {
        while let Some(&(t, id)) = self.order.front() {
            match self.pending.get(&id) {
                Some(p) if p.created == t => {
                    if p.expires > now {
                        break;
                    }
                    self.pending.remove(&id);
                }
                // Entry already completed/replaced: drop the order record.
                _ => {}
            }
            self.order.pop_front();
        }
    }
}

#[derive(Clone)]
struct InstalledOffload {
    /// The offload's own protection domain, or `None` to execute in the
    /// calling process's RAS (how Clio-DF shares the user's address space,
    /// §6).
    pid: Option<Pid>,
    module: Box<dyn Offload>,
}

impl std::fmt::Debug for InstalledOffload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstalledOffload").field("pid", &self.pid).finish()
    }
}

/// One packet awaiting egress: `ready` is the board timestamp at which the
/// datapath finishes producing it (the earliest it may leave the NIC).
#[derive(Debug, Clone)]
struct EgressEntry {
    ready: SimTime,
    pkt: ClioPacket,
    /// Trace of the op this packet completes (final fragment only for
    /// multi-fragment reads), for the egress-hold / NIC-serialize spans.
    /// Excluded from [`CBoard::fingerprint`]: tracing is observability,
    /// not protocol state.
    trace: Option<TraceCtx>,
}

/// Everything the board keeps about one destination, in one record:
/// created by the first request from that MAC, dropped once idle
/// ([`CBoard::prune_idle_egress`]) and on a crash.
#[derive(Debug, Clone, Default)]
struct Egress {
    /// Packets awaiting egress, ordered by `ready`. A drained queue stays
    /// (empty) so its buffer is reused.
    queue: VecDeque<EgressEntry>,
    /// The egress doorbell: the response inter-completion gap estimate
    /// that sizes its hold, and the armed [`EgressDoorbell`] timer.
    doorbell: Doorbell,
    /// Request turnaround (arrival → response ready), in ns: the
    /// board-visible component of this CN's RTT, and the doorbell budget's
    /// signal until the CN echoes its own.
    turnaround: Ewma,
    /// Last CN-measured smoothed RTT (ns) echoed in a request header: when
    /// present, the egress doorbell budget uses the *same* signal as the
    /// CN's request doorbell budget instead of the turnaround estimate.
    peer_srtt: Option<u32>,
}

impl Egress {
    /// The egress doorbell's latency budget — how long a response may be
    /// held and how far ahead a frame may reach for members: the shared
    /// rule ([`Doorbell::budget`]) over the echoed srtt, else the
    /// turnaround estimate. Zero with response batching off: nothing to
    /// hold for.
    fn budget(&self, cfg: &CBoardConfig) -> SimDuration {
        if cfg.resp_batch_max_ops <= 1 {
            return SimDuration::ZERO;
        }
        let signal_ns =
            self.peer_srtt.map(u64::from).or_else(|| self.turnaround.get().map(|t| t as u64));
        Doorbell::budget(signal_ns.map(SimDuration::from_nanos), CBoardConfig::EGRESS_DERIVED_CAP)
    }
}

/// What one egress pump reuses across calls, so a lone response costs no
/// allocation on its way into a frame.
#[derive(Debug, Clone)]
struct EgressScratch {
    /// The response batch under assembly.
    batch: Packer<(RespHeader, ResponseBody)>,
    /// Frames ready to leave: `(ready time, frame, ops inside, traces)`.
    shipped: Vec<(SimTime, ClioPacket, u64, Vec<TraceCtx>)>,
}

/// Self-addressed timer draining one destination's egress queue.
#[derive(Debug, Clone, Copy)]
struct EgressDoorbell {
    dst: Mac,
}

/// The MAC/PHY crossings a request's fast-path access owes under the frame
/// rule (module doc).
#[derive(Debug, Clone, Copy)]
struct Crossings {
    /// The frame's ingress crossing is still unpaid.
    ingress: bool,
    /// The response pays an egress crossing.
    egress: bool,
    /// The request came alone in its frame, so its ingress is never spent.
    lone: bool,
}

impl Crossings {
    /// A request alone in its frame: both crossings.
    fn lone() -> Self {
        Crossings { ingress: true, egress: true, lone: true }
    }
}

/// Fraction of the pressure threshold utilization must fall below before
/// the one-report-per-excursion latch re-arms. The band keeps a board that
/// hovers at the threshold from flapping: without it, shedding one small
/// range dips utilization epsilon under the bar and the next fault-in
/// immediately triggers another migration.
const PRESSURE_REARM_FRACTION: f64 = 0.875;

/// The memory-node device actor.
///
/// `clone()` is an independent copy of the board as it stands: protocol and
/// timing state, counters, silicon (page tables, DRAM contents, dedup
/// buffer), installed offloads (through [`Offload::clone_box`]) and
/// pending-doorbell [`EventId`](clio_sim::EventId)s, which stay valid in a
/// [`Simulation::fork`](clio_sim::Simulation::fork) taken at the same
/// instant. The slow path, DRAM and page tables are shared with the copy
/// until either side writes them (`Rc::make_mut`), which the other side
/// never sees; only the [`Tracer`] handle stays shared for good: a tracer
/// collects for a whole run.
#[derive(Debug, Clone)]
pub struct CBoard {
    name: Rc<str>,
    cfg: CBoardConfig,
    silicon: Silicon,
    /// The ARM-side slow path, which a fast-path request only reads: shared
    /// between clones of the board until one side writes it
    /// ([`Self::slow_mut`]), so copying the board copies a pointer here.
    slow: Rc<SlowPath>,
    nic: NicPort,
    offloads: IdMap<u16, InstalledOffload>,
    // Synchronization state (§4.5 T3): one global barrier + completions.
    fence_until: SimTime,
    last_completion: SimTime,
    writes: WriteTracker,
    /// The one per-destination table: egress queue, doorbell and RTT
    /// estimates of every recently active CN.
    egress: IdMap<Mac, Egress>,
    /// Taken by [`Self::pump_egress`] for its duration (built on first use).
    egress_scratch: Option<EgressScratch>,
    /// Every range this board is sending, has sent, or is receiving.
    migrations: Migrations,
    controller: Option<ActorId>,
    pressure_threshold: f64,
    pressure_reported: bool,
    stats: BoardStats,
    /// Span collector (disabled by default; the cluster injects a live one).
    tracer: Tracer,
    /// The Perfetto track this board's spans land on.
    track: Track,
    /// Most recent echoed srtt (ns), exported for harness observability.
    peer_srtt_ns: u64,
    /// Power state: a crashed board (`BoardPower::Crash`) drops all traffic
    /// and has lost its volatile state until `BoardPower::Restart`.
    alive: bool,
}

impl CBoard {
    /// Builds a board with its NIC port. The async free-page buffer starts
    /// full so first-touch faults never stall.
    pub fn new(name: impl Into<String>, cfg: CBoardConfig, nic: NicPort) -> Self {
        let silicon = Silicon::new(cfg.hw.clone());
        let slow = SlowPath::new(&cfg);
        let mut board = CBoard {
            name: name.into().into(),
            cfg,
            silicon,
            slow: Rc::new(slow),
            nic,
            offloads: IdMap::default(),
            fence_until: SimTime::ZERO,
            last_completion: SimTime::ZERO,
            writes: WriteTracker::default(),
            egress: IdMap::default(),
            egress_scratch: None,
            migrations: Migrations::default(),
            controller: None,
            pressure_threshold: 0.9,
            pressure_reported: false,
            stats: BoardStats::default(),
            tracer: Tracer::disabled(),
            track: Track::Mn(0),
            peer_srtt_ns: 0,
            alive: true,
        };
        board.refill_async_buffer();
        board
    }

    /// This board's network address.
    pub fn mac(&self) -> Mac {
        self.nic.mac()
    }

    /// Installs a computation offload under `id`, creating its address
    /// space.
    pub fn install_offload(&mut self, id: u16, pid: Pid, module: Box<dyn Offload>) {
        self.slow_mut().create_as(pid);
        self.offloads.insert(id, InstalledOffload { pid: Some(pid), module });
    }

    /// Installs an offload that executes in the **calling process's**
    /// address space (paper §6: Clio-DF's operators "share the same address
    /// space" as the CN computation).
    pub fn install_offload_shared(&mut self, id: u16, module: Box<dyn Offload>) {
        self.offloads.insert(id, InstalledOffload { pid: None, module });
    }

    /// Registers the global controller for pressure reports and migration
    /// completions.
    pub fn set_controller(&mut self, controller: ActorId, pressure_threshold: f64) {
        self.controller = Some(controller);
        self.pressure_threshold = pressure_threshold;
    }

    /// Board statistics.
    pub fn stats(&self) -> BoardStats {
        self.stats
    }

    /// Whether the board is powered on (a crashed board drops all traffic).
    pub fn alive(&self) -> bool {
        self.alive
    }

    /// Injects a live span collector; subsequent requests stitch their
    /// board-resident stages onto `track`.
    pub fn set_tracer(&mut self, tracer: Tracer, track: Track) {
        self.tracer = tracer;
        self.track = track;
    }

    /// A hash of the board's **logical** protocol state, for model-checker
    /// state pruning.
    ///
    /// Covers the multi-packet write tracker (request ids, remaining
    /// fragments, failure status), the per-destination egress queues
    /// (destination, packet kind, request id), the retry-dedup buffer
    /// occupancy, and migration bookkeeping. Absolute times, EWMAs and
    /// timing state are deliberately **excluded**: two states that differ
    /// only in when things happened are behaviorally equivalent for the
    /// safety properties the checker enforces, and folding timestamps in
    /// would make every state unique and pruning useless.
    pub fn fingerprint(&self) -> u64 {
        let mut h = MIX_SEED;
        let mut writes: Vec<u64> = self
            .writes
            .pending
            .iter()
            .map(|(id, w)| {
                let mut e = mix(MIX_SEED, id.0);
                e = mix(e, w.remaining as u64);
                e = mix(e, w.src.0 as u64);
                e = mix(e, w.retry_of.map_or(0, |r| r.0 ^ 1));
                mix(e, w.failed.is_some() as u64)
            })
            .collect();
        writes.sort_unstable();
        h = mix_section(h, 1, &writes);
        let mut egress: Vec<u64> = self
            .egress
            .iter()
            .filter(|(_, egress)| !egress.queue.is_empty()) // a drained queue is no state
            .map(|(dst, egress)| {
                let mut e = mix(MIX_SEED, dst.0 as u64);
                for entry in &egress.queue {
                    let tag = match &entry.pkt {
                        ClioPacket::Request { .. } => 1,
                        ClioPacket::Batch { .. } => 2,
                        ClioPacket::Response { .. } => 3,
                        ClioPacket::BatchResp { .. } => 4,
                        ClioPacket::Nack { .. } => 5,
                        ClioPacket::BatchNack { .. } => 6,
                    };
                    e = mix(e, tag);
                    e = mix(e, entry.pkt.req_id().0);
                }
                e
            })
            .collect();
        egress.sort_unstable();
        h = mix_section(h, 2, &egress);
        h = mix(h, self.silicon.dedup().len() as u64);
        let (outgoing, incoming) = self.migrations.in_progress();
        h = mix(h, outgoing);
        h = mix(h, incoming);
        h = mix(h, self.alive as u64);
        h
    }

    /// The fast-path silicon (tests/harnesses inspect TLB, page table, ...).
    pub fn silicon(&self) -> &Silicon {
        &self.silicon
    }

    /// Mutable silicon access for harnesses that pre-install state (e.g.
    /// the PTE-scalability sweep aliases terabytes of VA onto a few
    /// physical pages, exactly like the paper's Figure 5 stress test).
    pub fn silicon_mut(&mut self) -> &mut Silicon {
        &mut self.silicon
    }

    /// The slow path (tests/harnesses inspect allocators).
    pub fn slow_path(&self) -> &SlowPath {
        &self.slow
    }

    /// The slow path, unique to this board (copied first if a clone still
    /// shares it).
    fn slow_mut(&mut self) -> &mut SlowPath {
        Rc::make_mut(&mut self.slow)
    }

    /// Tops up the fault handler's free-page buffer. With nothing to
    /// refill the slow path is not written, so a clone keeps sharing it.
    fn refill_async_buffer(&mut self) {
        if self.silicon.vm().async_buffer().refill_demand() > 0 {
            Rc::make_mut(&mut self.slow).refill_async_buffer(&mut self.silicon);
        }
    }

    /// Powers the board off (`BoardPower::Crash`): every piece of volatile
    /// state is lost — the multi-packet write tracker, the egress queues
    /// and their pending doorbells, the retry-dedup buffer, the fence
    /// barrier, and all per-destination RTT/turnaround estimators. What
    /// survives is exactly what lives in DRAM or on the ARM: committed
    /// data, page tables, and allocator state — the durability contract
    /// [`clio_net::BoardPower`] documents. While down, the board drops all
    /// traffic silently; the CN's timeout/retry machinery is what observes
    /// the outage.
    fn crash(&mut self, ctx: &mut Ctx<'_>) {
        self.alive = false;
        self.writes.pending.clear();
        self.writes.order.clear();
        for egress in self.egress.values_mut() {
            egress.doorbell.cancel(ctx);
        }
        self.egress.clear();
        self.peer_srtt_ns = 0;
        self.silicon.dedup_mut().clear();
        self.fence_until = SimTime::ZERO;
        self.last_completion = SimTime::ZERO;
    }

    /// Powers the board back on (`BoardPower::Restart`) with cold volatile
    /// state. Crash + restart is idempotent on committed memory: reads of
    /// previously acknowledged writes still return the committed bytes.
    fn restart(&mut self) {
        if self.alive {
            return;
        }
        self.alive = true;
        self.stats.board_restarts += 1;
    }

    /// Queues a packet for egress toward `dst`, ready (fully produced by the
    /// datapath) at `at`. All board sends — responses, read fragments,
    /// NACKs — pass through here so the egress doorbell can coalesce them
    /// and `tx_frames`/`batched_responses` reflect what actually hits the
    /// NIC. `trace` is the op whose egress spans the packet closes: `None`
    /// for NACKs (a corrupted header is untrustworthy) and for every read
    /// fragment but the last.
    fn respond(
        &mut self,
        ctx: &mut Ctx<'_>,
        at: SimTime,
        dst: Mac,
        pkt: ClioPacket,
        trace: Option<TraceCtx>,
    ) {
        self.stats.tx_packets += match &pkt {
            // A coalesced NACK frame carries one logical NACK per entry.
            ClioPacket::BatchNack { req_ids } => req_ids.len() as u64,
            _ => 1,
        };
        let ready = at.max(ctx.now());
        // NACK frames and multi-fragment responses never batch with
        // responses, so holding them buys nothing and only delays
        // recovery/delivery (§4.4 wants NACK retries immediate): their
        // doorbell fires at their own ready time. (A `BatchNack` is already
        // the coalesced form of a whole corrupted frame's NACKs.)
        let holdable = matches!(&pkt, ClioPacket::Response { header, .. } if header.pkt_count <= 1);
        let egress = self.egress.entry(dst).or_default();
        // Track the request turnaround: how long this destination's
        // requests spend on the board before their response is ready — the
        // board-visible share of the RTT its CN measures. Sampled for
        // holdable responses only: NACKs ready after bare control latency
        // (exactly during a corruption storm) and repeated read fragments
        // would otherwise drag the estimate — and with it the doorbell
        // budget — toward zero when coalescing matters most.
        if holdable {
            egress.turnaround.observe(ready.since(ctx.now()).as_nanos() as f64);
        }
        // Feed the response inter-completion gap: the hold below only
        // engages when completions come faster than the latency budget,
        // i.e. when waiting will actually pay.
        egress.doorbell.observe(ready);
        // Completion times arrive mostly in order; insert from the back to
        // keep the queue sorted by `ready`.
        let pos = egress.queue.iter().rposition(|e| e.ready <= ready).map_or(0, |i| i + 1);
        egress.queue.insert(pos, EgressEntry { ready, pkt, trace });
        let fire = if holdable {
            let slots = (self.cfg.resp_batch_max_ops as usize).saturating_sub(egress.queue.len());
            ready + egress.doorbell.hold(egress.budget(&self.cfg), slots)
        } else {
            ready
        };
        // An earlier (or equal) doorbell already covers this packet.
        if egress.doorbell.armed().is_none_or(|armed| armed > fire) {
            egress.doorbell.arm(ctx, fire, Message::new(EgressDoorbell { dst }));
        }
        self.prune_idle_egress(ctx.now());
    }

    /// Keeps the per-destination table bounded: once it exceeds a small
    /// working set, destinations idle for well over any plausible hold
    /// window are forgotten (their next request simply starts a fresh
    /// record) — unless packets are still queued or a doorbell is armed for
    /// them. The board's egress state is thus bounded by *active*
    /// destinations, not by every client ever seen (§4.5's bounded-MN-state
    /// principle).
    fn prune_idle_egress(&mut self, now: SimTime) {
        const MAX_IDLE: SimDuration = SimDuration::from_millis(10);
        if self.egress.len() <= 64 {
            return;
        }
        self.egress.retain(|_, e| {
            !e.queue.is_empty()
                || e.doorbell.armed().is_some()
                || e.doorbell.last_observed().is_some_and(|last| now.since(last) <= MAX_IDLE)
        });
    }

    /// Drains `dst`'s egress queue: packs eligible single-packet responses
    /// into `BatchResp` frames, ships everything else alone, and re-arms the
    /// doorbell for entries still in flight inside the datapath.
    fn pump_egress(&mut self, ctx: &mut Ctx<'_>, dst: Mac) {
        let now = ctx.now();
        let Some(egress) = self.egress.get_mut(&dst) else { return };
        egress.doorbell.disarm();
        // Reach ahead for members as far as a response may be held.
        let horizon = now + egress.budget(&self.cfg);
        let queue = &mut egress.queue;
        let EgressScratch { mut batch, mut shipped } =
            self.egress_scratch.take().unwrap_or_else(|| EgressScratch {
                batch: Packer::new(self.cfg.resp_batch_max_ops as usize, MTU_BYTES),
                shipped: Vec::new(),
            });
        // The frame under assembly leaves when its slowest member is ready.
        let mut frame_ready = now;
        let mut batch_traces: Vec<TraceCtx> = Vec::new();
        let flush = |batch: &mut Packer<(RespHeader, ResponseBody)>,
                     traces: &mut Vec<TraceCtx>,
                     frame_ready: SimTime,
                     out: &mut Vec<_>| {
            let ops = batch.len() as u64;
            if let Some(pkt) = batch.take() {
                out.push((frame_ready, pkt, ops, std::mem::take(traces)));
            }
        };
        while let Some(head) = queue.front() {
            if head.ready > horizon {
                break;
            }
            let entry = queue.pop_front().expect("peeked");
            let batchable = matches!(
                &entry.pkt,
                ClioPacket::Response { header, .. } if header.pkt_count <= 1
            );
            if batchable && self.cfg.resp_batch_max_ops > 1 {
                let EgressEntry { ready, pkt, trace } = entry;
                let ClioPacket::Response { header, body } = pkt else {
                    unreachable!("checked batchable")
                };
                let entry_wire = codec::response_wire_len(&body);
                if !batch.fits(entry_wire) {
                    flush(&mut batch, &mut batch_traces, frame_ready, &mut shipped);
                    frame_ready = now;
                }
                if batch.fits(entry_wire) {
                    batch.push(header, body);
                    batch_traces.extend(trace);
                    frame_ready = frame_ready.max(ready);
                } else {
                    // Oversized even for an empty batch: ship alone.
                    let traces: Vec<TraceCtx> = trace.into_iter().collect();
                    shipped.push((ready, ClioPacket::Response { header, body }, 1, traces));
                }
            } else {
                // NACKs, multi-fragment responses (and everything when
                // response batching is disabled) flush the frame being
                // assembled and travel alone, preserving send order.
                flush(&mut batch, &mut batch_traces, frame_ready, &mut shipped);
                frame_ready = now;
                let traces: Vec<TraceCtx> = entry.trace.into_iter().collect();
                shipped.push((entry.ready, entry.pkt, 1, traces));
            }
        }
        flush(&mut batch, &mut batch_traces, frame_ready, &mut shipped);
        if let Some(head) = queue.front() {
            egress.doorbell.arm(ctx, head.ready, Message::new(EgressDoorbell { dst }));
        }
        for (at, pkt, ops, traces) in shipped.drain(..) {
            self.stats.tx_frames += 1;
            if ops > 1 {
                self.stats.batched_responses += ops;
            }
            if matches!(&pkt, ClioPacket::Nack { .. } | ClioPacket::BatchNack { .. }) {
                self.stats.nack_frames += 1;
            }
            let wire = (codec::wire_len(&pkt) + ETH_OVERHEAD_BYTES) as u32;
            let ship = at.max(now);
            let tx_end = self.nic.send_at(ctx, at, dst, wire, Message::new(pkt));
            // Each member waited on the egress queue from its completion to
            // the frame's departure, then the frame serialized as one unit.
            for tr in traces {
                self.tracer.stitch(Some(tr), self.track, Stage::EgressHold, ship);
                self.tracer.stitch(Some(tr), self.track, Stage::NicSerialize, tx_end);
            }
        }
        self.egress_scratch = Some(EgressScratch { batch, shipped });
    }

    /// Answers the request under `header` with a single-packet response
    /// ready at `at` — the one place a reply is built: closes the op's
    /// board-resident timeline with a `stage` span ending at `at`, then
    /// queues the response carrying the request's trace.
    #[allow(clippy::too_many_arguments)] // a response's fields travel together
    fn reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: Mac,
        header: &ReqHeader,
        at: SimTime,
        stage: Stage,
        status: Status,
        body: ResponseBody,
    ) {
        self.tracer.stitch(header.trace, self.track, stage, at);
        let pkt = ClioPacket::Response { header: RespHeader::single(header.req_id, status), body };
        self.respond(ctx, at, src, pkt, header.trace);
    }

    /// Answers without touching the datapath — an admission refusal, a
    /// dedup replay, an unknown offload — after bare `control_latency`
    /// (`Control` span).
    fn reply_control(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: Mac,
        header: &ReqHeader,
        status: Status,
        body: ResponseBody,
    ) {
        let at = ctx.now() + self.control_latency();
        self.reply(ctx, src, header, at, Stage::Control, status, body);
    }

    /// The small fixed cost of generating a non-data response (parse +
    /// respond cycles + MAC both ways).
    fn control_latency(&self) -> SimDuration {
        let hw = &self.cfg.hw;
        hw.mac_phy_latency * 2
            + hw.clock.cycles(CBoardHwConfig::PARSE_CYCLES)
            + hw.clock.cycles(CBoardHwConfig::RESPONSE_CYCLES)
    }

    /// Removes the PTEs of `vpns` and hands the physical pages behind the
    /// valid ones back to the allocator.
    fn unmap(&mut self, pid: Pid, vpns: &[u64]) {
        let vm = self.silicon.vm_mut();
        let freed = vpns.iter().filter_map(|&vpn| vm.remove_pte(pid, vpn)).filter(|pte| pte.valid);
        Rc::make_mut(&mut self.slow).palloc_mut().free_many(freed.map(|pte| pte.ppn));
    }

    fn note_completion(&mut self, done: SimTime) {
        self.last_completion = self.last_completion.max(done);
    }

    fn check_pressure(&mut self, ctx: &mut Ctx<'_>) {
        let Some(controller) = self.controller else { return };
        let util = self.slow.palloc().utilization();
        if util >= self.pressure_threshold && !self.pressure_reported {
            self.pressure_reported = true;
            ctx.send(
                controller,
                SimDuration::from_micros(1),
                Message::new(PressureReport { mac: self.nic.mac(), utilization: util }),
            );
        } else if util < self.pressure_threshold * PRESSURE_REARM_FRACTION {
            // Hysteresis: re-arm only well below the threshold. Resetting
            // the latch the instant utilization dips under the bar flaps —
            // shedding one small range drops the board epsilon below,
            // re-arms the latch, and the very next fault-in triggers a
            // second migration, ping-ponging ranges while the board hovers
            // at the threshold.
            self.pressure_reported = false;
        }
    }

    /// Looks up the dedup buffer for a request (its own id, and the id it
    /// retries). Returns the recorded outcome if this request must not
    /// re-execute (§4.5 T4).
    fn dedup_hit(&mut self, header: &ReqHeader) -> Option<DedupRecord> {
        if let Some(orig) = header.retry_of {
            if let Some(rec) = self.silicon.dedup_mut().check(orig) {
                return Some(rec);
            }
        }
        // A slow (non-lost) original arriving after its retry executed.
        self.silicon.dedup_mut().check(header.req_id)
    }

    fn record_dedup(&mut self, header: &ReqHeader, rec: DedupRecord) {
        self.silicon.dedup_mut().record(header.req_id, rec);
        if let Some(orig) = header.retry_of {
            self.silicon.dedup_mut().record(orig, rec);
        }
    }

    /// Answers a request whose original already executed from its dedup
    /// record, after bare `control_latency`, and records it under this
    /// request too: a retry of THIS retry must also find a record.
    fn replay(&mut self, ctx: &mut Ctx<'_>, src: Mac, header: &ReqHeader, rec: DedupRecord) {
        self.stats.dedup_replays += 1;
        self.record_dedup(header, rec);
        let body = match rec {
            DedupRecord::Write => ResponseBody::Done,
            DedupRecord::Atomic { old } => ResponseBody::AtomicOld { old },
            DedupRecord::Alloc { va } => ResponseBody::Alloced { va },
        };
        self.reply_control(ctx, src, header, Status::Ok, body);
    }

    /// Tiles the op's board-resident time with the datapath's measured
    /// stage attribution ([`clio_hw::silicon::Breakdown::stage_components`]
    /// sums to the access's total exactly). The answer then closes with an
    /// `ExecuteTail` span to `timing.done` that absorbs any residue — e.g.
    /// the first pass of a stall-retried access, whose timing the second
    /// pass's breakdown does not cover.
    fn tile_breakdown(&self, trace: Option<TraceCtx>, timing: &AccessTiming) {
        if trace.is_none() {
            return;
        }
        let mut t = timing.arrived;
        for (stage, d) in timing.breakdown.stage_components() {
            t += d;
            self.tracer.stitch(trace, self.track, stage, t);
        }
    }

    fn handle_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: Mac,
        header: ReqHeader,
        body: RequestBody,
        frame: &mut Crossings,
    ) {
        let now = ctx.now();
        // Close the op's wire span: flight time since the CN finished
        // serializing the frame. Each fragment of a multi-packet write
        // advances the same op's wire span (the cursor makes overlapping
        // fragment flights collapse instead of double-counting).
        self.tracer.stitch(header.trace, Track::Wire, Stage::Wire, now);
        // An echoed CN srtt re-anchors this destination's derived egress
        // hold budget on the signal the CN's own doorbell budget uses.
        if let Some(echo) = header.srtt_echo_ns {
            self.egress.entry(src).or_default().peer_srtt = Some(echo);
            self.peer_srtt_ns = echo as u64;
        }
        // Fences block all later requests (§4.5 T3): nothing starts before
        // the barrier.
        let start = now.max(self.fence_until);
        let pid = header.pid;

        // Admission, once for every path: a migrating range refuses the
        // request, then a retry whose original already ran is replayed.
        if let Some(status) = body.va().and_then(|va| self.migrations.refusal(pid, va)) {
            match status {
                Status::Conflict => self.stats.conflicts += 1,
                _ => self.stats.moved += 1,
            }
            return self.reply_control(ctx, src, &header, status, ResponseBody::Done);
        }
        if let Some(rec) = body.is_non_idempotent().then(|| self.dedup_hit(&header)).flatten() {
            return self.replay(ctx, src, &header, rec);
        }

        match body {
            RequestBody::Read { va, len } => {
                self.tracer.stitch(header.trace, self.track, Stage::FenceHold, start);
                let (res, timing) = self
                    .with_stall_retry(start, frame, |silicon, at| silicon.read(at, pid, va, len));
                self.note_completion(timing.done);
                self.tile_breakdown(header.trace, &timing);
                let tail = Stage::ExecuteTail;
                match res {
                    Ok(data) => {
                        self.tracer.stitch(header.trace, self.track, tail, timing.done);
                        let pkts = read_response_fragments(header.req_id, Status::Ok, data);
                        let last = pkts.len() - 1;
                        for (i, pkt) in pkts.enumerate() {
                            // Only the final fragment carries the trace: the
                            // CN closes its wire span at reassembly
                            // completion, and the last fragment's NIC
                            // serialization is the op's egress tail.
                            let trace = header.trace.filter(|_| i == last);
                            self.respond(ctx, timing.done, src, pkt, trace);
                        }
                    }
                    Err(status) => {
                        let body = ResponseBody::Done;
                        self.reply(ctx, src, &header, timing.done, tail, status, body)
                    }
                }
            }
            RequestBody::WriteFrag { va, data } => {
                self.tracer.stitch(header.trace, self.track, Stage::FenceHold, start);
                let (res, timing) = self.with_stall_retry(start, frame, |silicon, at| {
                    silicon.write(at, pid, va, &data)
                });
                self.note_completion(timing.done);
                if header.pkt_count <= 1 {
                    self.tile_breakdown(header.trace, &timing);
                }
                self.finish_write_fragment(ctx, src, header, res.err(), timing.done);
            }
            RequestBody::AtomicTas { va } => {
                self.run_atomic(ctx, src, header, start, frame, va, AtomicOp::Tas)
            }
            RequestBody::AtomicStore { va, value } => {
                self.run_atomic(ctx, src, header, start, frame, va, AtomicOp::Store(value))
            }
            RequestBody::AtomicCas { va, expected, new } => {
                let op = AtomicOp::Cas { expected, new };
                self.run_atomic(ctx, src, header, start, frame, va, op)
            }
            RequestBody::AtomicFaa { va, delta } => {
                self.run_atomic(ctx, src, header, start, frame, va, AtomicOp::Faa(delta))
            }
            RequestBody::Fence => {
                // Block everything after us until all in-flight complete.
                let barrier = self.last_completion.max(now);
                self.fence_until = self.fence_until.max(barrier);
                let at = barrier.max(now) + self.control_latency();
                self.tracer.stitch(header.trace, self.track, Stage::FenceHold, barrier);
                self.reply(ctx, src, &header, at, Stage::Control, Status::Ok, ResponseBody::Done);
            }
            RequestBody::Alloc { size, perm, fixed_va } => {
                if !self.slow.has_pid(pid) {
                    // Implicit address-space creation on first allocation
                    // keeps the client API simple (CreateAs remains
                    // available explicitly).
                    self.slow_mut().create_as(pid);
                }
                let (service, status, body) = match self.slow_mut().alloc(pid, size, perm, fixed_va)
                {
                    Ok(out) => {
                        for pte in &out.ptes {
                            self.silicon
                                .vm_mut()
                                .install_pte(*pte)
                                .expect("allocator pre-checked bucket capacity");
                        }
                        let va = out.range.start;
                        self.record_dedup(&header, DedupRecord::Alloc { va });
                        (out.service, Status::Ok, ResponseBody::Alloced { va })
                    }
                    Err((status, service)) => (service, status, ResponseBody::Done),
                };
                self.reply_slow(ctx, src, &header, service, status, body);
            }
            RequestBody::Free { va, size: _ } => {
                let (service, status) = match self.slow_mut().free(pid, va) {
                    Ok(out) => {
                        self.unmap(pid, &out.vpns);
                        self.record_dedup(&header, DedupRecord::Write);
                        (out.service, Status::Ok)
                    }
                    Err((status, service)) => (service, status),
                };
                self.reply_slow(ctx, src, &header, service, status, ResponseBody::Done);
            }
            RequestBody::CreateAs => {
                let service = self.slow_mut().create_as(pid);
                self.reply_slow(ctx, src, &header, service, Status::Ok, ResponseBody::Done);
            }
            RequestBody::DestroyAs => {
                let (vpns, service) = self.slow_mut().destroy_as(pid);
                self.unmap(pid, &vpns);
                self.reply_slow(ctx, src, &header, service, Status::Ok, ResponseBody::Done);
            }
            RequestBody::OffloadCall { offload, opcode, arg } => {
                self.run_offload(ctx, src, header, start, offload, opcode, arg)
            }
        }
        self.refill_async_buffer();
        self.check_pressure(ctx);
    }

    /// Runs one pass of a datapath access arriving at the MAC at `at`,
    /// charging the crossings `frame` owes it: ingress before the pipeline
    /// gate, egress after the response. The pass spends a frame's ingress;
    /// a lone request's stays owed.
    fn cross<T>(
        &mut self,
        at: SimTime,
        frame: &mut Crossings,
        access: impl FnOnce(&mut Silicon, SimTime) -> (Result<T, Status>, AccessTiming),
    ) -> (Result<T, Status>, AccessTiming) {
        let mac = self.cfg.hw.mac_phy_latency;
        let ingress = if frame.ingress { mac } else { SimDuration::ZERO };
        let egress = if frame.egress { mac } else { SimDuration::ZERO };
        frame.ingress = frame.lone;
        let (res, mut timing) = access(&mut self.silicon, at + ingress);
        timing.arrived = at;
        timing.breakdown.mac_phy = ingress + egress;
        timing.done += egress;
        (res, timing)
    }

    /// Executes a datapath access, retrying once after an async-buffer
    /// refill if the fault handler stalled on an empty buffer. Each pass
    /// pays the crossings [`Self::cross`] charges.
    fn with_stall_retry<T>(
        &mut self,
        start: SimTime,
        frame: &mut Crossings,
        mut access: impl FnMut(&mut Silicon, SimTime) -> (Result<T, Status>, AccessTiming),
    ) -> (Result<T, Status>, AccessTiming) {
        let (res, t) = self.cross(start, frame, &mut access);
        if res.as_ref().err() != Some(&Status::OutOfPhysicalMemory) {
            return (res, t);
        }
        self.refill_async_buffer();
        self.cross(t.done, frame, access)
    }

    /// Tracks fragment completion of a (possibly multi-packet) write and
    /// responds when the whole request has been applied.
    fn finish_write_fragment(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: Mac,
        header: ReqHeader,
        failure: Option<Status>,
        done: SimTime,
    ) {
        let now = ctx.now();
        self.writes.purge(now);
        let entry = self.writes.pending.entry(header.req_id).or_insert_with(|| {
            self.writes.order.push_back((now, header.req_id));
            // TTL covers the whole transfer at a conservative 10 ns/byte
            // plus several retry windows.
            let ttl =
                WRITE_RETRY_WINDOWS + SimDuration::from_nanos(header.pkt_count as u64 * 1500 * 10);
            PendingWrite {
                remaining: header.pkt_count,
                done,
                src,
                retry_of: header.retry_of,
                failed: None,
                created: now,
                expires: now + ttl,
            }
        });
        entry.remaining = entry.remaining.saturating_sub(1);
        entry.done = entry.done.max(done);
        if let Some(status) = failure {
            entry.failed.get_or_insert(status);
        }
        if entry.remaining == 0 {
            let p = self.writes.pending.remove(&header.req_id).expect("entry exists");
            let status = p.failed.unwrap_or(Status::Ok);
            if status == Status::Ok {
                self.record_dedup(
                    &ReqHeader { req_id: header.req_id, retry_of: p.retry_of, ..header },
                    DedupRecord::Write,
                );
            }
            // A multi-packet write's fragments interleave on the datapath,
            // so per-stage attribution is not well defined; one `Execute`
            // span covers the whole occupancy (the fragments' wire spans
            // were stitched as they arrived).
            let stage = if header.pkt_count > 1 { Stage::Execute } else { Stage::ExecuteTail };
            self.reply(ctx, p.src, &header, p.done, stage, status, ResponseBody::Done);
        }
    }

    #[allow(clippy::too_many_arguments)] // the request and where it sits in its frame
    fn run_atomic(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: Mac,
        header: ReqHeader,
        start: SimTime,
        frame: &mut Crossings,
        va: u64,
        op: AtomicOp,
    ) {
        self.tracer.stitch(header.trace, self.track, Stage::FenceHold, start);
        let (res, t) =
            self.cross(start, frame, |silicon, at| silicon.atomic(at, header.pid, va, op));
        self.note_completion(t.done);
        self.tile_breakdown(header.trace, &t);
        let (status, body) = match res {
            Ok(old) => {
                self.record_dedup(&header, DedupRecord::Atomic { old });
                (Status::Ok, ResponseBody::AtomicOld { old })
            }
            Err(status) => (status, ResponseBody::Done),
        };
        self.reply(ctx, src, &header, t.done, Stage::ExecuteTail, status, body);
    }

    /// Answers a slow-path op arriving now once the ARM has served it
    /// (`SlowPath` span): MAC ingress, crossing, worker queueing +
    /// `service`, crossing back, MAC egress.
    fn reply_slow(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: Mac,
        header: &ReqHeader,
        service: SimDuration,
        status: Status,
        body: ResponseBody,
    ) {
        self.stats.slow_ops += 1;
        let hw = &self.cfg.hw;
        let at_arm = ctx.now() + hw.mac_phy_latency + SlowPath::CROSSING_DELAY;
        let served = Rc::make_mut(&mut self.slow).workers_mut().reserve(at_arm, service);
        let at = served.end + SlowPath::CROSSING_DELAY + hw.mac_phy_latency;
        self.reply(ctx, src, header, at, Stage::SlowPath, status, body);
    }

    #[allow(clippy::too_many_arguments)] // mirrors the wire-format fields
    fn run_offload(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: Mac,
        header: ReqHeader,
        start: SimTime,
        offload: u16,
        opcode: u16,
        arg: Bytes,
    ) {
        let Some(mut installed) = self.offloads.remove(&offload) else {
            return self.reply_control(ctx, src, &header, Status::Unsupported, ResponseBody::Done);
        };
        self.stats.offload_calls += 1;
        self.tracer.stitch(header.trace, self.track, Stage::FenceHold, start);
        let hw = &self.cfg.hw;
        let begin = start + hw.mac_phy_latency + hw.clock.cycles(CBoardHwConfig::PARSE_CYCLES);
        // The call crosses the MAC/PHY; its accesses, on-chip behind the
        // MAT, pay no crossing (§4.6).
        let env_pid = installed.pid.unwrap_or(header.pid);
        let slow = Rc::make_mut(&mut self.slow);
        let mut env = OffloadEnv::new(&mut self.silicon, slow, &self.migrations, env_pid, begin);
        let reply = installed.module.on_call(&mut env, opcode, arg);
        let env_done = env.now();
        let done = env_done + hw.clock.cycles(CBoardHwConfig::RESPONSE_CYCLES) + hw.mac_phy_latency;
        self.offloads.insert(offload, installed);
        self.note_completion(done);
        let body = ResponseBody::OffloadReply { data: reply.data };
        self.reply(ctx, src, &header, done, Stage::Execute, reply.status, body);
    }

    // ------------------------------------------------------------------
    // Migration (§4.7)
    // ------------------------------------------------------------------

    fn send_migration(&mut self, ctx: &mut Ctx<'_>, at: SimTime, dst: Mac, msg: MigrationMsg) {
        let wire = (match &msg {
            MigrationMsg::PageData { data, .. } => 64 + data.len(),
            _ => 64,
        } + ETH_OVERHEAD_BYTES) as u32;
        self.nic.send_at(ctx, at, dst, wire, Message::new(msg));
    }

    /// Sends `msg` to the controller, if one is registered.
    fn notify(&self, ctx: &mut Ctx<'_>, msg: Message) {
        if let Some(controller) = self.controller {
            ctx.send(controller, SimDuration::from_micros(1), msg);
        }
    }

    /// Carries out what the migration machine asked for, in order.
    fn execute(&mut self, ctx: &mut Ctx<'_>, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send { at, dst, msg } => self.send_migration(ctx, at, dst, msg),
                Effect::Unmap { pid, vpns } => self.unmap(pid, &vpns),
                Effect::Complete(done) => self.notify(ctx, Message::new(done)),
                Effect::Abort(abort) => self.notify(ctx, Message::new(abort)),
            }
        }
    }
}

/// `board.*`, then the datapath's `silicon.*` / `vm.*` / `tlb.*`.
impl Metrics for CBoard {
    fn counters(&self, f: &mut Visit<'_>) {
        self.stats.each(f);
        self.silicon.counters(f);
    }

    fn gauges(&self, f: &mut Visit<'_>) {
        f("board.peer_srtt_ns", self.peer_srtt_ns);
    }
}

impl Actor for CBoard {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        // Power control is handled first and unconditionally: a crashed
        // board must still hear its own restart.
        let msg = match msg.downcast::<BoardPower>() {
            Ok(BoardPower::Crash) => {
                self.crash(ctx);
                return;
            }
            Ok(BoardPower::Restart) => {
                self.restart();
                return;
            }
            Err(m) => m,
        };
        if !self.alive {
            // Powered off: every frame, doorbell and migration message is
            // dropped on the floor. The CN's timeout machinery sees the
            // silence; nothing is NACKed (a dead board can't NACK).
            self.stats.dropped_while_down += 1;
            return;
        }
        let msg = match msg.downcast::<MigrateCommand>() {
            Ok(cmd) => {
                let mut effects = Vec::new();
                self.migrations.start(&self.silicon, ctx.now(), cmd, &mut effects);
                return self.execute(ctx, effects);
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<EgressDoorbell>() {
            Ok(bell) => {
                self.pump_egress(ctx, bell.dst);
                return;
            }
            Err(m) => m,
        };
        let frame = match msg.downcast::<Frame>() {
            Ok(f) => f,
            Err(other) => panic!("CBoard {} got unexpected message {other:?}", self.name),
        };
        let src = frame.src;
        if frame.corrupted {
            // Fault-path rule: a corrupted frame contributes NO board-side
            // spans — its header (and trace context) is untrustworthy. The
            // CN's `NackTurnaround` span absorbs the wire + board time, so
            // the op's trace still tiles exactly.
            // Link-layer integrity failure: NACK the request (§4.4). A
            // corrupted batch frame NACKs every request it carried — each
            // is an independent logical request the CN retries on its own —
            // but the NACKs ship **coalesced**: the whole frame's ids pack
            // into `BatchNack` frames under the egress op budget, so a
            // corrupted 16-entry batch costs one recovery frame, not
            // sixteen. With response batching disabled (`resp_batch_max_ops
            // = 1`) every take yields a plain `Nack`: the pre-coalescing
            // wire behavior, one frame per entry.
            let at = ctx.now() + self.control_latency();
            match frame.payload.downcast_ref::<ClioPacket>() {
                Some(ClioPacket::Request { header, .. }) => {
                    let req_id = header.req_id;
                    self.stats.nacks += 1;
                    self.respond(ctx, at, src, ClioPacket::Nack { req_id }, None);
                }
                Some(ClioPacket::Batch { requests }) => {
                    self.stats.nacks += requests.len() as u64;
                    let mut batch =
                        Packer::<ReqId>::new(self.cfg.resp_batch_max_ops as usize, MTU_BYTES);
                    for (header, _) in requests {
                        if !batch.fits(codec::NACK_ENTRY_BYTES) {
                            if let Some(pkt) = batch.take() {
                                self.respond(ctx, at, src, pkt, None);
                            }
                        }
                        batch.push(header.req_id);
                    }
                    if let Some(pkt) = batch.take() {
                        self.respond(ctx, at, src, pkt, None);
                    }
                }
                _ => {}
            }
            return;
        }
        let payload = match frame.payload.downcast::<ClioPacket>() {
            Ok(pkt) => pkt,
            Err(other) => match other.downcast::<MigrationMsg>() {
                Ok(m) => {
                    let mut effects = Vec::new();
                    let slow = Rc::make_mut(&mut self.slow);
                    let now = ctx.now();
                    self.migrations.receive(&mut self.silicon, slow, now, src, m, &mut effects);
                    return self.execute(ctx, effects);
                }
                Err(o) => panic!("CBoard {} got unexpected frame payload {o:?}", self.name),
            },
        };
        match payload {
            ClioPacket::Request { header, body } => {
                self.stats.rx_frames += 1;
                self.stats.rx_packets += 1;
                self.handle_request(ctx, src, header, body, &mut Crossings::lone());
            }
            ClioPacket::Batch { requests } => {
                // Unbatch: each entry executes (and responds) exactly as if
                // it had arrived in its own frame, in batch order, except
                // for the frame rule's crossings (module doc).
                self.stats.rx_frames += 1;
                self.stats.rx_packets += requests.len() as u64;
                self.stats.batched_requests += requests.len() as u64;
                let mut frame = Crossings { ingress: true, egress: false, lone: false };
                let last = requests.len().saturating_sub(1);
                for (i, (header, body)) in requests.into_iter().enumerate() {
                    frame.egress = i == last || self.cfg.resp_batch_max_ops <= 1;
                    self.handle_request(ctx, src, header, body, &mut frame);
                }
            }
            // MNs only respond; stray responses/NACKs are dropped.
            ClioPacket::Response { .. }
            | ClioPacket::BatchResp { .. }
            | ClioPacket::Nack { .. }
            | ClioPacket::BatchNack { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_proto::Perm;
    use clio_sim::{Bandwidth, Simulation};

    const BOARD: Mac = Mac(1000);

    /// Stands in for the switch: swallows what the board sends.
    struct Sink;
    impl Actor for Sink {
        fn on_message(&mut self, _: &mut Ctx<'_>, _: Message) {}
    }

    fn rig() -> (Simulation, ActorId) {
        let mut sim = Simulation::new(1);
        let sink = sim.add_actor(Sink);
        let nic = NicPort::new(BOARD, Bandwidth::from_gbps(10), sink, SimDuration::ZERO);
        let board = sim.add_actor(CBoard::new("mn0", CBoardConfig::test_small(), nic));
        (sim, board)
    }

    /// Delivers one request frame from `src` to the board, now.
    fn request(sim: &mut Simulation, board: ActorId, src: u32, id: u64, body: RequestBody) {
        let pkt = ClioPacket::Request { header: ReqHeader::single(ReqId(id), Pid(1)), body };
        sim.post(board, Message::new(Frame::new(Mac(src), BOARD, 64, Message::new(pkt))));
    }

    fn read(sim: &mut Simulation, board: ActorId, src: u32) {
        request(sim, board, src, src as u64, RequestBody::Read { va: 0, len: 8 });
    }

    fn destinations(sim: &Simulation, board: ActorId) -> Vec<u32> {
        let mut macs: Vec<u32> = sim.actor::<CBoard>(board).egress.keys().map(|m| m.0).collect();
        macs.sort_unstable();
        macs
    }

    /// The module doc's bounded-state claim (§4.5): per-destination state
    /// is kept for active destinations, not for every client ever seen —
    /// but never dropped from under a queued packet or an armed doorbell.
    #[test]
    fn egress_state_is_bounded_by_active_destinations() {
        let (mut sim, board) = rig();
        // Destination 7 keeps slow-path responses pending for well over the
        // idle horizon: each impossible allocation burns the ARM's full
        // retry budget (~1.5 ms), twenty of them over two workers ~15 ms.
        for i in 0..20 {
            let body = RequestBody::Alloc { size: 1 << 60, perm: Perm::RW, fixed_va: None };
            request(&mut sim, board, 7, 100 + i, body);
        }
        // One read from each of 80 sources; 7's own read completes in about
        // a microsecond and is the last arrival its doorbell observes.
        for src in 0..80 {
            read(&mut sim, board, src);
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(11));
        assert_eq!(destinations(&sim, board), (0..80).collect::<Vec<_>>(), "none idle yet");
        let pending = &sim.actor::<CBoard>(board).egress[&Mac(7)];
        assert!(!pending.queue.is_empty() && pending.doorbell.armed().is_some());
        let idle = sim.now().since(pending.doorbell.last_observed().expect("7 was answered"));
        assert!(idle > SimDuration::from_millis(10), "7 looks idle by its last arrival: {idle}");

        // Past the 10 ms idle horizon an 81st source shows up: the 79 idle
        // destinations go; the active one and the one with packets queued
        // behind an armed doorbell stay.
        read(&mut sim, board, 80);
        sim.run_for(SimDuration::from_micros(10));
        assert_eq!(destinations(&sim, board), vec![7, 80]);
        sim.run_until_idle();
        let b = sim.actor::<CBoard>(board);
        assert!(b.egress.values().all(|e| e.queue.is_empty() && e.doorbell.armed().is_none()));
        assert_eq!(b.stats().tx_packets, 20 + 81, "every request was answered");
    }

    /// Invariant 4: the write tracker is TTL-bounded. A 3-fragment write
    /// that got one fragment is dropped once its TTL has passed and another
    /// write's fragment arrives; a write still inside its TTL stays.
    #[test]
    fn write_tracker_drops_a_partial_write_past_its_ttl() {
        let (mut sim, board) = rig();
        // One fragment of a 3-fragment write `id`, now.
        let fragment = |sim: &mut Simulation, id: u64| {
            let header = ReqHeader { pkt_count: 3, ..ReqHeader::single(ReqId(id), Pid(1)) };
            let body = RequestBody::WriteFrag { va: 0, data: Bytes::from_static(&[0; 8]) };
            let pkt = ClioPacket::Request { header, body };
            sim.post(board, Message::new(Frame::new(Mac(7), BOARD, 64, Message::new(pkt))));
            sim.run_for(SimDuration::from_micros(1));
        };
        let tracked = |sim: &Simulation| {
            let mut ids: Vec<u64> =
                sim.actor::<CBoard>(board).writes.pending.keys().map(|id| id.0).collect();
            ids.sort_unstable();
            ids
        };
        let expires = |sim: &Simulation, id: u64| {
            sim.actor::<CBoard>(board).writes.pending[&ReqId(id)].expires
        };

        fragment(&mut sim, 1);
        let ttl = expires(&sim, 1).since(SimTime::ZERO);
        assert!(ttl > WRITE_RETRY_WINDOWS, "ttl {ttl}");
        // Half a TTL later write 1 is still live: write 2's fragment leaves
        // it tracked.
        sim.run_for(ttl / 2);
        fragment(&mut sim, 2);
        assert_eq!(tracked(&sim), [1, 2]);
        // Past write 1's expiry but inside write 2's TTL, write 3's
        // fragment purges write 1 only.
        sim.run_until(expires(&sim, 1));
        fragment(&mut sim, 3);
        assert_eq!(tracked(&sim), [2, 3]);
        assert_eq!(sim.actor::<CBoard>(board).writes.order.len(), 2);
    }

    /// A crash loses all per-destination state, and no doorbell armed
    /// before it survives to ring at the dead board.
    #[test]
    fn crash_empties_the_egress_table_and_cancels_armed_doorbells() {
        let (mut sim, board) = rig();
        for src in 0..8 {
            read(&mut sim, board, src);
        }
        sim.post(board, Message::new(BoardPower::Crash));
        // Deliver the eight frames and the crash, nothing later.
        sim.run_until(SimTime::ZERO);
        let b = sim.actor::<CBoard>(board);
        assert!(b.egress.is_empty(), "volatile per-destination state survived the crash");
        assert_eq!(b.stats().tx_packets, 8, "eight responses were queued behind doorbells");
        sim.run_until_idle();
        let b = sim.actor::<CBoard>(board);
        assert_eq!(b.stats().tx_frames, 0, "a queued response left a dead board");
        assert_eq!(b.stats().dropped_while_down, 0, "an armed doorbell rang at the dead board");
    }
}
