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
//! single-packet responses leave coalesced in one reply frame (egress
//! queue, below), and charging its tail keeps completion order. With
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
//! through one **egress queue** ordered by ready time (when the datapath
//! finished producing the packet), drained by one doorbell that fires when
//! the head is ready and the port is free ([`NicPort::free_at`]). Egress is
//! work-conserving: nothing waits for company. The pump ships the head; a
//! single-packet response takes along, in one `ClioPacket::BatchResp`
//! frame under the `resp_batch_max_ops`/MTU budgets, every single-packet
//! response to the same CN that is ready too — the ones that became ready
//! while the port was busy. Joining stops at that CN's first NACK or
//! fragment, so each CN receives its packets in queue order. NACKs and
//! multi-fragment read responses travel alone (§4.4 wants NACK retries
//! immediate), and a run of them at the head leaves back to back in one
//! pump; the NACKs of one corrupted batch frame already travel coalesced
//! as a single `BatchNack`. A `Batch` request frame's single-packet
//! responses enter the queue together, all ready when the last of them is
//! — the frame rule above charges the frame's egress crossing to its last
//! entry — so they leave in one frame. With `resp_batch_max_ops = 1` every
//! packet is its own frame. The `tx_frames` stat counts wire frames,
//! `tx_packets` counts the packets inside them.
//!
//! The board holds exactly the bounded state the paper allows it (§4.5): the
//! retry-dedup buffer, in-flight synchronization state (one fence barrier +
//! the atomic unit), a TTL-bounded tracker for multi-packet writes, and the
//! egress queue with its one doorbell — bounded by the packets not yet
//! sent, not by the CNs the board has answered. It is connectionless: every
//! response is routed by the source MAC of the request frame.
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
//! 3. **Egress drains.** Every packet placed on the egress queue has a
//!    doorbell scheduled at or before max(its ready time, port free); at
//!    quiescence the queue is empty and no doorbell is armed. A packet is
//!    never sent before the datapath produced it.
//! 4. **Statelessness.** Outside a request's execution window the board
//!    keeps no per-CN connection state: response routing is derived solely
//!    from the request frame's source MAC, and the write tracker / dedup
//!    buffer are TTL- and capacity-bounded.

use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use clio_hw::dedup::DedupRecord;
use clio_hw::silicon::{AccessTiming, AtomicOp, Silicon};
use clio_hw::vm::VmUnit;
use clio_hw::CBoardHwConfig;
use clio_net::{BoardPower, Doorbell, Frame, Mac, NicPort};
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
    /// The CN it answers: the source MAC of the request frame.
    dst: Mac,
    pkt: ClioPacket,
    /// Trace of the op this packet completes (final fragment only for
    /// multi-fragment reads), for the egress-hold / NIC-serialize spans.
    /// Excluded from [`CBoard::fingerprint`]: tracing is observability,
    /// not protocol state.
    trace: Option<TraceCtx>,
}

/// Self-addressed timer draining the egress queue.
#[derive(Debug, Clone, Copy)]
struct EgressDoorbell;

/// Whether `pkt` may share a `BatchResp` frame: a single-packet response.
fn joinable(pkt: &ClioPacket) -> bool {
    matches!(pkt, ClioPacket::Response { header, .. } if header.pkt_count <= 1)
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
    /// Packets awaiting the NIC, every destination's, ordered by `ready`.
    egress: VecDeque<EgressEntry>,
    /// The armed [`EgressDoorbell`] that pumps `egress`.
    egress_bell: Doorbell,
    /// The response frame under assembly, reused across pumps (built on
    /// first use) so a lone response costs no allocation.
    egress_batch: Option<Packer<(RespHeader, ResponseBody)>>,
    /// Traces of the ops inside `egress_batch`.
    egress_traces: Vec<TraceCtx>,
    /// Set while a `Batch` frame's entries execute: their single-packet
    /// responses wait in `held`, then enter `egress` together.
    holding: bool,
    held: Vec<EgressEntry>,
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
            egress: VecDeque::new(),
            egress_bell: Doorbell::default(),
            egress_batch: None,
            egress_traces: Vec::new(),
            holding: false,
            held: Vec::new(),
            migrations: Migrations::default(),
            controller: None,
            pressure_threshold: 0.9,
            pressure_reported: false,
            stats: BoardStats::default(),
            tracer: Tracer::disabled(),
            track: Track::Mn(0),
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
        self.slow_mut().0.create_as(pid);
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
    /// fragments, failure status), the egress queue (per destination, its
    /// packets' kinds and request ids in order), the retry-dedup buffer
    /// occupancy, and migration bookkeeping. Absolute times and timing
    /// state are deliberately **excluded**: two states that differ
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
        // One running hash per destination over its packets in queue order:
        // how different CNs' packets interleave is timing.
        let mut egress: Vec<(Mac, u64)> = Vec::new();
        for entry in &self.egress {
            let tag = match &entry.pkt {
                ClioPacket::Request { .. } => 1,
                ClioPacket::Batch { .. } => 2,
                ClioPacket::Response { .. } => 3,
                ClioPacket::BatchResp { .. } => 4,
                ClioPacket::Nack { .. } => 5,
                ClioPacket::BatchNack { .. } => 6,
            };
            let i = egress.iter().position(|&(dst, _)| dst == entry.dst).unwrap_or_else(|| {
                egress.push((entry.dst, mix(MIX_SEED, entry.dst.0 as u64)));
                egress.len() - 1
            });
            let e = &mut egress[i].1;
            *e = mix(mix(*e, tag), entry.pkt.req_id().0);
        }
        let mut egress: Vec<u64> = egress.into_iter().map(|(_, e)| e).collect();
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
    /// shares it), and the VM unit whose page table it edits.
    fn slow_mut(&mut self) -> (&mut SlowPath, &mut VmUnit) {
        (Rc::make_mut(&mut self.slow), self.silicon.vm_mut())
    }

    /// Tops up the fault handler's free-page buffer. With nothing to
    /// refill the slow path is not written, so a clone keeps sharing it.
    fn refill_async_buffer(&mut self) {
        if self.silicon.vm().async_buffer().refill_demand() > 0 {
            Rc::make_mut(&mut self.slow).refill_async_buffer(&mut self.silicon);
        }
    }

    /// Powers the board off (`BoardPower::Crash`): every piece of volatile
    /// state is lost — the multi-packet write tracker, the egress queue
    /// and its pending doorbell, the retry-dedup buffer and the fence
    /// barrier. What
    /// survives is exactly what lives in DRAM or on the ARM: committed
    /// data, page tables, and allocator state — the durability contract
    /// [`clio_net::BoardPower`] documents. While down, the board drops all
    /// traffic silently; the CN's timeout/retry machinery is what observes
    /// the outage.
    fn crash(&mut self, ctx: &mut Ctx<'_>) {
        self.alive = false;
        self.writes.pending.clear();
        self.writes.order.clear();
        self.egress_bell.cancel(ctx);
        self.egress.clear();
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
    /// NACKs — pass through here so the egress pump can coalesce them and
    /// `tx_frames`/`batched_responses` reflect what actually hits the NIC.
    /// While a `Batch` frame executes, its single-packet responses are held
    /// back until the frame's last entry has run ([`Self::release_held`]).
    /// `trace` is the op whose egress spans the packet closes: `None` for
    /// NACKs (a corrupted header is untrustworthy) and for every read
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
        let entry = EgressEntry { ready: at.max(ctx.now()), dst, pkt, trace };
        if self.holding && joinable(&entry.pkt) {
            self.held.push(entry);
        } else {
            self.enqueue(ctx, entry);
        }
    }

    /// Puts `entry` on the egress queue, keeping it sorted by `ready`, and
    /// makes sure the pump runs by the time the entry may leave: when it
    /// is ready and the port is free.
    fn enqueue(&mut self, ctx: &mut Ctx<'_>, entry: EgressEntry) {
        let fire = entry.ready.max(self.nic.free_at());
        // Completion times arrive mostly in order; insert from the back.
        let pos = self.egress.iter().rposition(|e| e.ready <= entry.ready).map_or(0, |i| i + 1);
        self.egress.insert(pos, entry);
        // An earlier (or equal) doorbell already covers this packet.
        if self.egress_bell.armed().is_none_or(|armed| armed > fire) {
            self.egress_bell.arm(ctx, fire, Message::new(EgressDoorbell));
        }
    }

    /// Queues the responses a `Batch` frame's entries produced, all ready
    /// when the last of them is: the frame's egress crossing is charged to
    /// its last entry (module doc), so its answers leave together.
    fn release_held(&mut self, ctx: &mut Ctx<'_>) {
        self.holding = false;
        let mut held = std::mem::take(&mut self.held);
        let ready = held.iter().map(|e| e.ready).max().unwrap_or(SimTime::ZERO);
        for mut entry in held.drain(..) {
            entry.ready = ready;
            self.enqueue(ctx, entry);
        }
        self.held = held;
    }

    /// Sends from the head of the egress queue, now that the port is free.
    /// A single-packet response takes every ready single-packet response to
    /// the same CN behind it along in one `BatchResp` frame (under the
    /// `resp_batch_max_ops`/MTU budgets), up to that CN's first NACK or
    /// fragment, so each CN still receives its packets in queue order.
    /// NACKs and fragments leave alone, and a run of them at the head
    /// leaves back to back. The pump then re-arms for the next head: when
    /// it is ready and the port is free again.
    fn pump_egress(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.egress_bell.disarm();
        let mut batch = self
            .egress_batch
            .take()
            .unwrap_or_else(|| Packer::new(self.cfg.resp_batch_max_ops as usize, MTU_BYTES));
        let mut first = true;
        while let Some(head) = self.egress.front() {
            // A busy port (a migration frame took it) lets more responses
            // become ready and join; after the first frame, only a
            // NACK or fragment follows it back to back.
            let port_busy = first && self.nic.free_at() > now;
            if head.ready > now || port_busy || (!first && joinable(&head.pkt)) {
                break;
            }
            first = false;
            let EgressEntry { dst, pkt, trace, .. } = self.egress.pop_front().expect("peeked");
            let pkt = match pkt {
                ClioPacket::Response { header, body }
                    if header.pkt_count <= 1
                        && batch.fits(codec::response_entry_len(&header, &body)) =>
                {
                    batch.push(header, body);
                    self.egress_traces.extend(trace);
                    self.join(now, dst, &mut batch);
                    let ops = batch.len() as u64;
                    if ops > 1 {
                        self.stats.batched_responses += ops;
                    }
                    batch.take().expect("holds the head")
                }
                // NACKs, fragments and a response too large to share even
                // an empty frame leave alone.
                pkt => {
                    self.egress_traces.extend(trace);
                    pkt
                }
            };
            self.ship(ctx, dst, pkt);
        }
        self.egress_batch = Some(batch);
        if let Some(head) = self.egress.front() {
            let at = head.ready.max(self.nic.free_at());
            self.egress_bell.arm(ctx, at, Message::new(EgressDoorbell));
        }
    }

    /// Moves every single-packet response to `dst` that is ready by `now`
    /// into `batch` while it fits, stopping at `dst`'s first NACK or
    /// fragment (its packets keep their order).
    fn join(&mut self, now: SimTime, dst: Mac, batch: &mut Packer<(RespHeader, ResponseBody)>) {
        let mut i = 0;
        while let Some(entry) = self.egress.get(i) {
            if entry.ready > now {
                break;
            }
            if entry.dst != dst {
                i += 1;
                continue;
            }
            let ClioPacket::Response { header, body } = &entry.pkt else { break };
            if header.pkt_count > 1 || !batch.fits(codec::response_entry_len(header, body)) {
                break;
            }
            let entry = self.egress.remove(i).expect("indexed above");
            let ClioPacket::Response { header, body } = entry.pkt else { unreachable!() };
            batch.push(header, body);
            self.egress_traces.extend(entry.trace);
        }
    }

    /// Puts one frame toward `dst` on the NIC now and closes the egress
    /// spans of the ops in it: each waited on the queue from its
    /// completion until now, then the frame serialized as one unit.
    fn ship(&mut self, ctx: &mut Ctx<'_>, dst: Mac, pkt: ClioPacket) {
        let now = ctx.now();
        self.stats.tx_frames += 1;
        if matches!(&pkt, ClioPacket::Nack { .. } | ClioPacket::BatchNack { .. }) {
            self.stats.nack_frames += 1;
        }
        let wire = (codec::wire_len(&pkt) + ETH_OVERHEAD_BYTES) as u32;
        let tx_end = self.nic.send(ctx, dst, wire, Message::new(pkt));
        for tr in self.egress_traces.drain(..) {
            self.tracer.stitch(Some(tr), self.track, Stage::EgressHold, now);
            self.tracer.stitch(Some(tr), self.track, Stage::NicSerialize, tx_end);
        }
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

    /// Whether a retry of `body` must not run again: a non-idempotent
    /// request, except an offload call whose module declares its opcode
    /// read-only ([`Offload::mutates`]) or is not installed.
    fn deduplicates(&self, body: &RequestBody) -> bool {
        match body {
            RequestBody::OffloadCall { offload, opcode, .. } => {
                self.offloads.get(offload).is_some_and(|o| o.module.mutates(*opcode))
            }
            body => body.is_non_idempotent(),
        }
    }

    fn record_dedup(&mut self, header: &ReqHeader, rec: DedupRecord) {
        let dedup = self.silicon.dedup_mut();
        match header.retry_of {
            Some(orig) => {
                dedup.record(header.req_id, rec.clone());
                dedup.record(orig, rec);
            }
            None => dedup.record(header.req_id, rec),
        }
    }

    /// Answers a request whose original already executed from its dedup
    /// record, after bare `control_latency`, and records it under this
    /// request too: a retry of THIS retry must also find a record.
    fn replay(&mut self, ctx: &mut Ctx<'_>, src: Mac, header: &ReqHeader, rec: DedupRecord) {
        self.stats.dedup_replays += 1;
        self.record_dedup(header, rec.clone());
        let (status, body) = match rec {
            DedupRecord::Write => (Status::Ok, ResponseBody::Done),
            DedupRecord::Atomic { old } => (Status::Ok, ResponseBody::AtomicOld { old }),
            DedupRecord::Alloc { va } => (Status::Ok, ResponseBody::Alloced { va }),
            DedupRecord::Offload { status, data } => (status, ResponseBody::OffloadReply { data }),
        };
        self.reply_control(ctx, src, header, status, body);
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
        if let Some(rec) = self.deduplicates(&body).then(|| self.dedup_hit(&header)).flatten() {
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
                    self.slow_mut().0.create_as(pid);
                }
                let (slow, vm) = self.slow_mut();
                let (service, status, body) = match slow.alloc(vm, pid, size, perm, fixed_va) {
                    Ok(out) => {
                        let va = out.range.start;
                        self.record_dedup(&header, DedupRecord::Alloc { va });
                        (out.service, Status::Ok, ResponseBody::Alloced { va })
                    }
                    Err((status, service)) => (service, status, ResponseBody::Done),
                };
                self.reply_slow(ctx, src, &header, service, status, body);
            }
            RequestBody::Free { va, size: _ } => {
                let (slow, vm) = self.slow_mut();
                let (service, status) = match slow.free(vm, pid, va) {
                    Ok(out) => {
                        self.record_dedup(&header, DedupRecord::Write);
                        (out.service, Status::Ok)
                    }
                    Err((status, service)) => (service, status),
                };
                self.reply_slow(ctx, src, &header, service, status, ResponseBody::Done);
            }
            RequestBody::CreateAs => {
                let service = self.slow_mut().0.create_as(pid);
                self.reply_slow(ctx, src, &header, service, Status::Ok, ResponseBody::Done);
            }
            RequestBody::DestroyAs => {
                let (slow, vm) = self.slow_mut();
                let service = slow.destroy_as(vm, pid);
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
        if installed.module.mutates(opcode) {
            let rec = DedupRecord::Offload { status: reply.status, data: reply.data.clone() };
            self.record_dedup(&header, rec);
        }
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
        if msg.is::<EgressDoorbell>() {
            return self.pump_egress(ctx);
        }
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
                let unbatched = self.cfg.resp_batch_max_ops <= 1;
                self.holding = !unbatched;
                for (i, (header, body)) in requests.into_iter().enumerate() {
                    frame.egress = i == last || unbatched;
                    self.handle_request(ctx, src, header, body, &mut frame);
                }
                self.release_held(ctx);
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
    use clio_trace::OpTrace;

    const BOARD: Mac = Mac(1000);

    /// Stands in for the switch: records when each packet the board sent
    /// finished serializing (no propagation delay), and where it went.
    #[derive(Default)]
    struct Sink(Vec<(SimTime, Mac, ClioPacket)>);
    impl Actor for Sink {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let frame = msg.downcast::<Frame>().expect("the board sends frames");
            let pkt = frame.payload.downcast::<ClioPacket>().expect("a Clio packet");
            self.0.push((ctx.now(), frame.dst, pkt));
        }
    }

    /// The request ids a packet answers.
    fn ids(pkt: &ClioPacket) -> Vec<u64> {
        match pkt {
            ClioPacket::BatchResp { responses } => {
                responses.iter().map(|(h, _)| h.req_id.0).collect()
            }
            pkt => vec![pkt.req_id().0],
        }
    }

    /// A board whose port feeds a [`Sink`]: `(sim, board, sink)`.
    fn rig() -> (Simulation, ActorId, ActorId) {
        let mut sim = Simulation::new(1);
        let sink = sim.add_actor(Sink::default());
        let nic = NicPort::new(BOARD, Bandwidth::from_gbps(10), sink, SimDuration::ZERO);
        let board = sim.add_actor(CBoard::new("mn0", CBoardConfig::test_small(), nic));
        (sim, board, sink)
    }

    /// The frames the board sent so far: `(tx end, destination, packet)`.
    fn sent(sim: &Simulation, sink: ActorId) -> &[(SimTime, Mac, ClioPacket)] {
        &sim.actor::<Sink>(sink).0
    }

    /// Delivers one request frame from `src` to the board, now.
    fn request(sim: &mut Simulation, board: ActorId, src: u32, id: u64, body: RequestBody) {
        let pkt = ClioPacket::Request { header: ReqHeader::single(ReqId(id), Pid(1)), body };
        sim.post(board, Message::new(Frame::new(Mac(src), BOARD, 64, Message::new(pkt))));
    }

    fn read(sim: &mut Simulation, board: ActorId, src: u32) {
        request(sim, board, src, src as u64, RequestBody::Read { va: 0, len: 8 });
    }

    /// Allocates 64 KiB for `Pid(1)`, runs until the board is idle and
    /// returns its address.
    fn alloc(sim: &mut Simulation, board: ActorId, sink: ActorId) -> u64 {
        let body = RequestBody::Alloc { size: 1 << 16, perm: Perm::RW, fixed_va: None };
        request(sim, board, 7, 100, body);
        sim.run_until_idle();
        match sent(sim, sink).last() {
            Some((_, _, ClioPacket::Response { body: ResponseBody::Alloced { va }, .. })) => *va,
            other => panic!("not allocated: {other:?}"),
        }
    }

    /// How long `pkt` takes to serialize on the board's port.
    fn serialize(pkt: &ClioPacket) -> SimDuration {
        Bandwidth::from_gbps(10).transfer_time((codec::wire_len(pkt) + ETH_OVERHEAD_BYTES) as u64)
    }

    /// Delivers one traced request (id 1) from `Mac(7)` to the board now,
    /// runs until the board is idle and returns the op's finished trace.
    fn traced(sim: &mut Simulation, board: ActorId, body: RequestBody) -> OpTrace {
        let tracer = Tracer::enabled(1);
        sim.actor_mut::<CBoard>(board).set_tracer(tracer.clone(), Track::Mn(0));
        let trace = tracer.begin("op", sim.now());
        let header = ReqHeader { trace, ..ReqHeader::single(ReqId(1), Pid(1)) };
        let pkt = ClioPacket::Request { header, body };
        sim.post(board, Message::new(Frame::new(Mac(7), BOARD, 64, Message::new(pkt))));
        sim.run_until_idle();
        tracer.finish(trace, Track::Cn(0), sim.now());
        let [op] = &tracer.finished()[..] else { panic!("one traced op") };
        op.clone()
    }

    /// A lone response on an idle port leaves the instant it is ready: its
    /// op's timeline goes from the datapath straight to NIC serialization,
    /// with no egress hold.
    #[test]
    fn a_lone_response_on_an_idle_port_leaves_when_ready() {
        let (mut sim, board, sink) = rig();
        let va = alloc(&mut sim, board, sink);
        let op = traced(&mut sim, board, RequestBody::Read { va, len: 8 });
        assert_eq!(op.stage_total(Stage::EgressHold), SimDuration::ZERO);
        let [.., on_board, nic] = &op.spans[..] else { panic!("spans: {:?}", op.spans) };
        assert_eq!(on_board.track, Track::Mn(0), "the datapath's last stage");
        let [_, (end, Mac(7), reply)] = sent(&sim, sink) else { panic!("one frame, to 7") };
        assert_eq!(ids(reply), [1]);
        assert_eq!(
            (nic.stage, nic.end, nic.duration()),
            (Stage::NicSerialize, *end, serialize(reply))
        );
    }

    /// A failed translation is charged only for what ran: an 8 B read of
    /// an unmapped VA answers from the translate stage's entry, so its
    /// page-table walk must not run past the response and swallow the
    /// response's egress spans (no stitch lands behind the cursor).
    #[test]
    fn a_failed_translation_swallows_no_later_stage() {
        let (mut sim, board, sink) = rig();
        let op = traced(&mut sim, board, RequestBody::Read { va: 0, len: 8 });
        let late: Vec<_> = op.late.iter().filter(|(stage, _)| *stage != Stage::Wire).collect();
        assert_eq!(late, [] as [&(Stage, SimDuration); 0], "spans: {:?}", op.spans);
        let [(end, Mac(7), reply)] = sent(&sim, sink) else { panic!("one frame, to 7") };
        let ClioPacket::Response { header, .. } = reply else { panic!("a response: {reply:?}") };
        assert_eq!(header.status, Status::InvalidAddr);
        let nic = op.spans.iter().find(|s| s.stage == Stage::NicSerialize).expect("egress span");
        assert_eq!(nic.end, *end, "the response's serialization ends the board's spans");
    }

    /// Responses that become ready while the port serializes a frame leave
    /// together in the next frame, the instant the port frees up; each CN
    /// gets its own frame.
    #[test]
    fn responses_ready_while_the_port_is_busy_leave_together_next() {
        let (mut sim, board, sink) = rig();
        let va = alloc(&mut sim, board, sink);
        let start = sim.now();
        // A 1 KB read's reply holds the port for ~850 ns; eight 8 B reads,
        // four from each of two CNs, arriving a nanosecond later, complete
        // meanwhile.
        request(&mut sim, board, 7, 1, RequestBody::Read { va, len: 1024 });
        sim.run_until(start + SimDuration::from_nanos(1));
        for id in 2..10 {
            let src = if id % 2 == 0 { 7 } else { 8 };
            request(&mut sim, board, src, id, RequestBody::Read { va: va + 8 * id, len: 8 });
        }
        sim.run_until_idle();
        let frames = &sent(&sim, sink)[1..];
        let shape: Vec<_> = frames.iter().map(|(_, dst, pkt)| (dst.0, ids(pkt))).collect();
        assert_eq!(shape, [(7, vec![1]), (7, vec![2, 4, 6, 8]), (8, vec![3, 5, 7, 9])]);
        // Back to back: each frame took the port the instant the one
        // before it was done.
        for pair in frames.windows(2) {
            assert_eq!(pair[1].0.since(pair[0].0), serialize(&pair[1].2));
        }
        assert!(serialize(&frames[0].2) > SimDuration::from_nanos(800));
        let b = sim.actor::<CBoard>(board);
        assert_eq!((b.stats().tx_frames, b.stats().batched_responses), (1 + 3, 8));
    }

    /// A `Batch` frame's single-packet responses leave as one `BatchResp`
    /// frame, once the last of them is ready.
    #[test]
    fn a_batch_frames_responses_leave_as_one_frame() {
        let (mut sim, board, sink) = rig();
        let requests = (1..=6)
            .map(|id| {
                let body = RequestBody::Read { va: 64 * id, len: 8 };
                (ReqHeader::single(ReqId(id), Pid(1)), body)
            })
            .collect();
        let pkt = ClioPacket::Batch { requests };
        sim.post(board, Message::new(Frame::new(Mac(7), BOARD, 64, Message::new(pkt))));
        sim.run_until_idle();
        let [(_, Mac(7), pkt)] = sent(&sim, sink) else { panic!("one frame, to 7") };
        assert_eq!(ids(pkt), [1, 2, 3, 4, 5, 6]);
        let b = sim.actor::<CBoard>(board);
        assert_eq!((b.stats().tx_frames, b.stats().batched_responses), (1, 6));
    }

    /// The module doc's bounded-state claim (§4.5): egress state is the
    /// packets still queued, however many CNs the board has answered. Slow
    /// answers to one CN wait queued behind an armed doorbell while 80
    /// others' reads come and go; at quiescence nothing is left.
    #[test]
    fn egress_state_is_bounded_by_queued_packets() {
        let (mut sim, board, sink) = rig();
        // Each impossible allocation burns the ARM's full retry budget
        // (~1.5 ms), twenty of them over two workers ~15 ms.
        for i in 0..20 {
            let body = RequestBody::Alloc { size: 1 << 60, perm: Perm::RW, fixed_va: None };
            request(&mut sim, board, 7, 100 + i, body);
        }
        for src in 0..80 {
            read(&mut sim, board, src);
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(11));
        let b = sim.actor::<CBoard>(board);
        let now = sim.now();
        assert!(!b.egress.is_empty() && b.egress.len() < 20, "{} queued", b.egress.len());
        assert!(b.egress.iter().all(|e| e.dst == Mac(7) && e.ready > now), "only 7's pending");
        assert_eq!(b.egress_bell.armed(), Some(b.egress[0].ready), "armed for the head");
        let reads = sent(&sim, sink).iter().flat_map(|(_, _, pkt)| ids(pkt)).filter(|&id| id < 100);
        assert_eq!(reads.count(), 80, "every read was answered");

        sim.run_until_idle();
        let b = sim.actor::<CBoard>(board);
        assert!(b.egress.is_empty() && b.egress_bell.armed().is_none());
        assert_eq!(b.stats().tx_packets, 20 + 80, "every request was answered");
    }

    /// Invariant 4: the write tracker is TTL-bounded. A 3-fragment write
    /// that got one fragment is dropped once its TTL has passed and another
    /// write's fragment arrives; a write still inside its TTL stays.
    #[test]
    fn write_tracker_drops_a_partial_write_past_its_ttl() {
        let (mut sim, board, _) = rig();
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

    /// A crash loses the egress queue, and no doorbell armed before it
    /// survives to ring at the dead board.
    #[test]
    fn crash_empties_the_egress_table_and_cancels_armed_doorbells() {
        let (mut sim, board, _) = rig();
        for src in 0..8 {
            read(&mut sim, board, src);
        }
        sim.post(board, Message::new(BoardPower::Crash));
        // Deliver the eight frames and the crash, nothing later.
        sim.run_until(SimTime::ZERO);
        let b = sim.actor::<CBoard>(board);
        assert!(b.egress.is_empty(), "volatile egress state survived the crash");
        assert_eq!(b.stats().tx_packets, 8, "eight responses were queued behind doorbells");
        sim.run_until_idle();
        let b = sim.actor::<CBoard>(board);
        assert_eq!(b.stats().tx_frames, 0, "a queued response left a dead board");
        assert_eq!(b.stats().dropped_while_down, 0, "an armed doorbell rang at the dead board");
    }
}
