//! The connectionless reliable transport (paper §4.4–4.5).
//!
//! Everything a conventional reliable transport keeps at *both* ends lives
//! only here, at the CN: the retransmission buffer (each request's [`Op`],
//! rebuilt into packets per attempt), the request-id space, timeout timers,
//! congestion windows and the incast window. Reliability is lifted to the
//! **memory-request level**: any lost, corrupted (NACKed) or unanswered
//! packet causes the whole request to be retried under a fresh id carrying
//! `retry_of`, which the MN's dedup buffer uses to suppress double
//! execution of non-idempotent operations.
//!
//! # Request batching (doorbell coalescing)
//!
//! With batching enabled (`batch_max_ops > 1`, the default), [`send`]
//! enqueues the request and rings a *doorbell* instead of transmitting
//! immediately; when the doorbell fires, every queued request drains
//! through a single pump. The pump packs admitted small same-MN requests
//! (single-packet reads, writes, and atomics) into [`ClioPacket::Batch`]
//! frames under the `batch_max_ops`/MTU budgets, saving one Ethernet
//! framing overhead per coalesced request. Each batched request keeps its
//! own request id, congestion/incast window slot, retry timer, and op:
//! timeouts, NACK retries (`retry_of` dedup), and completions are
//! indistinguishable from the unbatched wire protocol. A lone admitted
//! request is framed as a plain `Request`, byte-identical to
//! `batch_max_ops = 1`.
//!
//! How long the doorbell holds is not configured but measured — the rule
//! is [`clio_net::Doorbell`]'s, shared with the MN's egress doorbell. The
//! transport supplies what is its own: the signal (the congestion window's
//! smoothed RTT toward that MN, so the budget is `srtt / 4`, zero before
//! the first sample) and the cap (`CLibConfig::DOORBELL_DERIVED_CAP`). The
//! doorbell fires immediately when a full batch is queued.
//!
//! Retransmissions re-coalesce too: retries queued in the same pump — e.g.
//! several timers for one MN expiring at the same instant after a lost
//! batch frame, or the entries of one [`ClioPacket::BatchNack`] — share
//! [`ClioPacket::Batch`] frames through a dedicated zero-delay retry
//! doorbell that bypasses the window machinery (retries keep the slots of
//! the requests they replace) while preserving each entry's `retry_of`
//! dedup chain. A corrupted batch frame therefore recovers symmetrically:
//! one `BatchNack` frame back, one coalesced retry frame forward.
//!
//! [`send_many`] bypasses the doorbell heuristics entirely: the caller
//! hands the transport an explicit op vector (CLib's `rread_v`/`rwrite_v`
//! scatter/gather API) which is queued and pumped as one unit.
//!
//! # Structure
//!
//! Per-MN state is one `Peer` record in one table (send queue, congestion
//! window, doorbell, retry queue, breaker). Every attempt — first send,
//! batched send, retransmission — enters `outstanding` through `register`
//! and reaches the wire through `ship` (a first send does both in its
//! pump; a retransmission registers when it is queued and ships when the
//! retry doorbell fires, one event later) and leaves it through `take`.
//! Window slots are handed back in `release`, a failure is reported by
//! `fail`, nowhere else.
//!
//! # Invariants
//!
//! The following hold at every event boundary (between any two messages
//! the host actor delivers to the transport). The first four are checked
//! exhaustively by the `clio_mc` bounded model checker via
//! [`Transport::check_invariants`], plus sampled by the proptests in
//! `tests/equivalence.rs` and `tests/transport_window.rs`:
//!
//! 1. **Window accounting.** The incast window's in-flight byte count
//!    equals the sum of `expected_bytes` over all outstanding requests,
//!    and each MN's congestion window holds exactly one slot per
//!    outstanding request toward that MN. Retries keep the slots of the
//!    requests they replace; parked conflicts hold **no** window slots
//!    (both windows are released before parking and re-acquired when the
//!    request rejoins the send queue).
//! 2. **Request-id freshness.** Every transmission — first attempt or
//!    retry — uses a fresh id from a strictly monotonic per-CN counter;
//!    no id is ever reused on the wire. Retries of non-idempotent
//!    requests carry `retry_of` naming the chain's **first** id (the
//!    original attempt), never an intermediate retry: an intermediate
//!    attempt may be lost before the MN sees it, and only the first id is
//!    guaranteed to be in the MN's dedup buffer if the original executed.
//!    (The model checker caught the predecessor-linked variant of this
//!    re-executing an atomic; see `tests/mc_regressions.rs`.)
//! 3. **Single completion.** Each submitted token completes exactly once
//!    (success, remote error, or `TimedOut` after `max_retries`
//!    exhausted attempts), regardless of how many duplicates, stale
//!    responses or stale NACKs arrive afterwards — those are dropped by
//!    the outstanding-id lookup.
//! 4. **Quiescence drains everything.** Once every token has completed
//!    and no frame or timer is in flight, `in_flight`, `queued`,
//!    `parked` and `incast_in_flight` are all zero: no orphaned window
//!    slots, queued sends, or parked conflicts survive.
//! 5. **Release, then drain.** Window space is released in one function,
//!    and every public entry point ([`on_packet`], [`on_timer`],
//!    [`cancel`]) drains the send queues before returning iff slots were
//!    released during it — a queued send owns no timer, so a release
//!    nobody follows up would strand it (the regression test
//!    `cancel_drains_the_sends_queued_behind_the_freed_slot` in
//!    `tests/transport_window.rs`). A retry keeps its slots and triggers
//!    no drain; neither does a pump undoing its own `try_acquire`.
//!
//! [`send`]: Transport::send
//! [`send_many`]: Transport::send_many
//! [`on_packet`]: Transport::on_packet
//! [`on_timer`]: Transport::on_timer
//! [`cancel`]: Transport::cancel

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

use bytes::Bytes;
use clio_net::{Doorbell, Mac, NicPort};
use clio_proto::{
    codec, BatchBuilder, ClioPacket, Pid, Reassembler, ReqHeader, ReqId, RespHeader, ResponseBody,
    Status, ETH_OVERHEAD_BYTES, MTU_BYTES,
};
use clio_sim::table::{mix, mix_section, MixHasher, MIX_SEED};
use clio_sim::{Ctx, EventId, IdMap, Message, SimDuration, SimTime};
use clio_trace::metrics::{Metrics, Visit};
use clio_trace::{Stage, TraceCtx, Tracer, Track};

use crate::config::CLibConfig;
use crate::congestion::{Breaker, BreakerState, CongestionWindow, IncastWindow};
use crate::error::ClioError;
use crate::op::Op;

/// Handle for one submitted operation: returned by
/// [`CLib::submit`](crate::CLib::submit), carried by every attempt the
/// transport makes for it, echoed in its [`XferDone`] and its
/// [`Completion`](crate::Completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpToken(pub u64);

/// The value delivered by a successful completion.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CompletionValue {
    /// Read data or offload reply.
    Data(Bytes),
    /// Plain success.
    Done,
    /// Allocated virtual address.
    Va(u64),
    /// Atomic old value.
    Old(u64),
}

/// What the transport reports upward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XferDone {
    /// The request's token.
    pub token: OpToken,
    /// Result.
    pub result: Result<CompletionValue, ClioError>,
    /// Measured request RTT (first send to completion).
    pub rtt: SimDuration,
}

/// Timer messages the transport schedules on its host actor; the host must
/// route them back via [`Transport::on_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportTimer {
    /// Retransmission timeout for a request.
    Timeout(ReqId),
    /// A queued send may now fit the (paced) window.
    Pump(Mac),
    /// Queued retransmissions toward an MN may now coalesce and ship.
    RetryPump(Mac),
    /// Re-issue a request refused with `Conflict`.
    ConflictRetry(OpToken),
    /// An open circuit breaker toward an MN may move to half-open and let
    /// a probe through.
    BreakerProbe(Mac),
}

/// Everything the transport keeps about one memory node, in one record:
/// created by the first send toward the MN and kept for the transport's
/// life (the set of MNs a CN talks to is small and fixed).
#[derive(Debug, Clone)]
struct Peer {
    /// Sends waiting for window space, in submission order.
    queue: VecDeque<QueuedSend>,
    cwnd: CongestionWindow,
    /// The request doorbell: the inter-submission gap estimate that sizes
    /// its hold, and the armed `Pump` timer.
    doorbell: Doorbell,
    /// Retransmissions queued for coalescing: `(new id, retry_of)`.
    retries: Vec<(ReqId, Option<ReqId>)>,
    /// Whether the zero-delay `RetryPump` that ships `retries` is scheduled.
    retry_armed: bool,
    breaker: Breaker,
}

impl Peer {
    fn new(cfg: &CLibConfig) -> Self {
        Peer {
            queue: VecDeque::new(),
            cwnd: CongestionWindow::new(cfg),
            doorbell: Doorbell::default(),
            retries: Vec::new(),
            retry_armed: false,
            breaker: Breaker::new(cfg.breaker_threshold),
        }
    }

    /// The request doorbell's latency budget: the shared rule over the
    /// congestion window's smoothed RTT.
    fn doorbell_budget(&self) -> SimDuration {
        Doorbell::budget(self.cwnd.srtt(), CLibConfig::DOORBELL_DERIVED_CAP)
    }

    /// The smoothed RTT as echoed in request headers (saturating at
    /// `u32::MAX` ns; `None` before the first sample).
    fn srtt_echo(&self) -> Option<u32> {
        self.cwnd.srtt().map(|s| s.as_nanos().min(u32::MAX as u64) as u32)
    }
}

#[derive(Debug, Clone)]
struct Outstanding {
    token: OpToken,
    target: Mac,
    pid: Pid,
    op: Op,
    expected_bytes: u64,
    /// Id of the request's FIRST attempt — the root of the `retry_of`
    /// chain. Every retry's `retry_of` points here, never at an
    /// intermediate attempt: an intermediate retry can be lost or
    /// corrupted before the MN sees it, so a predecessor-linked chain
    /// would leave the MN's dedup record (keyed by the ids it has actually
    /// seen) unreachable and a non-idempotent op would re-execute.
    origin: ReqId,
    /// Stamped, with `timer`, by [`Transport::register`] for each attempt.
    attempt_sent_at: SimTime,
    first_sent_at: SimTime,
    retries: u32,
    conflict_retries: u32,
    timer: Option<EventId>,
    /// Observability context for this op (attempt number advances on every
    /// retry). `None` when tracing is disabled or the op was not sampled.
    trace: Option<TraceCtx>,
}

#[derive(Debug, Clone)]
struct QueuedSend {
    token: OpToken,
    pid: Pid,
    op: Op,
    enqueued_at: SimTime,
    /// `Conflict` refusals this op has already backed off from (zero for a
    /// first send; carried through every park-and-rejoin).
    conflict_retries: u32,
    trace: Option<TraceCtx>,
}

/// What a finished attempt tells the congestion controller as its window
/// slots are handed back ([`Transport::release`]).
#[derive(Debug, Clone, Copy)]
enum Outcome {
    /// Answered (success, remote error or `Conflict`) after this RTT.
    Answered(SimDuration),
    /// Given up on after unanswered or NACKed attempts.
    Lost,
    /// Abandoned — cancellation, breaker fail-fast — rather than answered
    /// or lost: the abandonment says nothing about the fabric.
    Abandoned,
}

/// One pump's packing state, reused across pumps so a lone request costs
/// no allocation on its way into a frame.
#[derive(Debug, Clone)]
struct PackScratch {
    /// Where this pump's frames go.
    target: Mac,
    /// The smoothed RTT toward `target` every request header echoes (the
    /// MN derives its egress doorbell budget from it).
    echo: Option<u32>,
    /// The batch frame under assembly.
    batch: BatchBuilder,
    /// Trace contexts of the requests currently packed in `batch`, in push
    /// order: their NIC-serialization spans are stitched when the shared
    /// frame actually leaves (`flush_batch`).
    traces: Vec<Option<TraceCtx>>,
    /// The packets of a request that travels outside the batch.
    packets: Vec<ClioPacket>,
}

/// A deliberately planted transport bug, used **only** by the model
/// checker's self-test: `clio_mc` must demonstrate it can catch a window
/// leak before its clean-search result means anything. Production code
/// paths never set anything but [`McMutation::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum McMutation {
    /// The correct transport (the default).
    #[default]
    None,
    /// Skips `Transport::release` when a NACK exhausts the retry budget:
    /// the failed request's congestion-window slot and incast bytes are
    /// never returned, violating invariant 1 (window accounting)
    /// immediately and invariant 4 (quiescence drains everything) at the
    /// end of the run.
    LeakWindowOnNack,
}

/// Content digest of an op: every field, through its derived `Hash`.
fn digest(op: &Op) -> u64 {
    let mut h = MixHasher::default();
    op.hash(&mut h);
    h.finish()
}

/// Reports `token` failed with `error` — the one place an `Err` [`XferDone`]
/// is built. The RTT runs from the op's first send (for a send still
/// queued, from when it was enqueued).
fn fail(
    done: &mut Vec<XferDone>,
    now: SimTime,
    token: OpToken,
    first_sent_at: SimTime,
    error: ClioError,
) {
    done.push(XferDone { token, result: Err(error), rtt: now.since(first_sent_at) });
}

clio_trace::counters! {
    /// Transport counters.
    pub struct TransportStats: "transport" {
        /// Retries performed.
        retries,
        /// Multi-request batch frames sent.
        batch_frames,
        /// Requests that traveled inside a multi-request batch frame.
        batched_ops,
        /// Wire frames shipped by the retry doorbell (coalesced or not). With
        /// NACK coalescing, a corrupted 16-entry batch should cost one retry
        /// frame here, not sixteen.
        retry_frames,
        /// Breaker trips (Closed/HalfOpen -> Open transitions).
        circuit_open_total,
    }
}

/// Per-CN transport instance (shared by all processes on the CN, like the
/// kernel-bypass driver in §5).
///
/// # Invariants
///
/// See the [module docs](self) for the five transport invariants (window
/// accounting, request-id freshness, single completion, quiescence drains
/// everything, released windows drain the queues);
/// [`Transport::check_invariants`] verifies the first mechanically and the
/// `clio_mc` model checker enforces the first four over every bounded
/// fault interleaving.
#[derive(Debug, Clone)]
pub struct Transport {
    cfg: CLibConfig,
    next_req: u64,
    outstanding: IdMap<ReqId, Outstanding>,
    parked_conflicts: IdMap<OpToken, Outstanding>,
    /// The one per-MN table: send queue, congestion window, doorbell, retry
    /// queue and breaker of every MN this CN has sent to.
    peers: IdMap<Mac, Peer>,
    iwnd: IncastWindow,
    reassembler: Reassembler,
    /// Set by [`Self::release`]; every public entry point drains the send
    /// queues before returning iff it is set ([`Self::drain_released`]).
    released: bool,
    /// Reused by [`Self::drain_released`] to visit the peers in `Mac` order.
    kick_scratch: Vec<Mac>,
    /// Taken by a pump for its duration (built on first use).
    pack: Option<PackScratch>,
    stats: TransportStats,
    /// Planted bug for the model checker's self-test (see [`McMutation`]).
    mutation: McMutation,
    /// Stage-span recorder (disabled by default; see
    /// [`set_tracer`](Self::set_tracer)). Stitching is pure observation: it
    /// never changes what or when the transport sends.
    tracer: Tracer,
    /// The Perfetto track CN-side spans land on.
    track: Track,
}

impl Metrics for Transport {
    fn counters(&self, f: &mut Visit<'_>) {
        self.stats.each(f);
    }

    fn gauges(&self, f: &mut Visit<'_>) {
        f("transport.peer_health", self.peer_health());
    }
}

impl Transport {
    /// Creates a transport whose request ids start from a CN-unique base so
    /// ids never collide across CNs.
    pub fn new(cfg: CLibConfig, cn_id: u64) -> Self {
        Transport {
            iwnd: IncastWindow::new(cfg.iwnd_bytes),
            cfg,
            next_req: cn_id << 40,
            outstanding: IdMap::default(),
            parked_conflicts: IdMap::default(),
            peers: IdMap::default(),
            reassembler: Reassembler::new(),
            released: false,
            kick_scratch: Vec::new(),
            pack: None,
            stats: TransportStats::default(),
            mutation: McMutation::None,
            tracer: Tracer::disabled(),
            track: Track::Cn(0),
        }
    }

    /// Injects the tracer and the CN track this transport stitches spans
    /// onto. Leaving the default ([`Tracer::disabled`]) keeps every stitch
    /// a no-op.
    pub fn set_tracer(&mut self, tracer: Tracer, track: Track) {
        self.tracer = tracer;
        self.track = track;
    }

    /// Transport counters.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Number of MNs currently presumed unhealthy (breaker Open or
    /// HalfOpen); a peer leaves the count only on a confirmed success.
    pub fn peer_health(&self) -> u64 {
        self.peers.values().filter(|p| p.breaker.state() != BreakerState::Closed).count() as u64
    }

    /// Plants (or clears) a deliberate bug for the model checker's
    /// self-test. See [`McMutation`]; production code never calls this.
    pub fn set_mc_mutation(&mut self, mutation: McMutation) {
        self.mutation = mutation;
    }

    fn fresh_id(&mut self) -> ReqId {
        self.next_req += 1;
        ReqId(self.next_req)
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Requests queued for window space.
    pub fn queued(&self) -> usize {
        self.peers.values().map(|p| p.queue.len()).sum()
    }

    /// Requests parked awaiting a conflict-retry backoff.
    pub fn parked(&self) -> usize {
        self.parked_conflicts.len()
    }

    /// Expected response bytes currently held by the incast window.
    pub fn incast_in_flight(&self) -> u64 {
        self.iwnd.in_flight()
    }

    /// Checks the window-accounting invariants (invariant 1 of the
    /// [module docs](self)) that must hold at every event boundary:
    ///
    /// * incast in-flight bytes == Σ `expected_bytes` over outstanding
    ///   requests (parked conflicts and queued sends hold no bytes),
    /// * each MN's congestion window holds exactly one slot per
    ///   outstanding request toward it,
    /// * no token is simultaneously parked and outstanding.
    ///
    /// Returns a human-readable description of the first violation. Called
    /// by the `clio_mc` explorer at every settled state; cheap enough for
    /// tests to call after every delivery.
    pub fn check_invariants(&self) -> Result<(), String> {
        let expected: u64 = self.outstanding.values().map(|o| o.expected_bytes).sum();
        if self.iwnd.in_flight() != expected {
            return Err(format!(
                "incast window holds {} bytes but outstanding requests expect {} \
                 (leaked or double-released incast slots)",
                self.iwnd.in_flight(),
                expected
            ));
        }
        for (mac, peer) in &self.peers {
            let want = self.outstanding.values().filter(|o| o.target == *mac).count() as u64;
            if peer.cwnd.outstanding() != want {
                return Err(format!(
                    "congestion window toward {mac} holds {} slots but {} requests \
                     are outstanding (leaked or double-released cwnd slots)",
                    peer.cwnd.outstanding(),
                    want
                ));
            }
        }
        for token in self.parked_conflicts.keys() {
            if self.outstanding.values().any(|o| o.token == *token) {
                return Err(format!(
                    "token {token:?} is parked awaiting a conflict retry AND still \
                     outstanding (double-registered request)"
                ));
            }
        }
        Ok(())
    }

    /// A digest of the transport's **logical** state, independent of table
    /// layout: outstanding requests (id, token, target, retry counts,
    /// expected bytes, every field of the op), parked conflicts, every
    /// peer's queued sends, queued retransmissions, window slot count and
    /// breaker state, the incast byte count and the id counter.
    ///
    /// Absolute times (timer deadlines, RTT/gap EWMAs, fractional window
    /// sizes) are deliberately **excluded**: the model checker prunes
    /// states on this digest, and timing-continuous controller state would
    /// make every interleaving hash distinct, defeating pruning. Two
    /// states with equal fingerprints can differ in timing, never in
    /// protocol-visible structure.
    pub fn fingerprint(&self) -> u64 {
        let mut h = MIX_SEED;
        let mut outstanding: Vec<u64> = self
            .outstanding
            .iter()
            .map(|(id, o)| {
                let mut e = mix(MIX_SEED, id.0);
                e = mix(e, o.token.0);
                e = mix(e, o.target.0 as u64);
                e = mix(e, o.retries as u64);
                e = mix(e, o.conflict_retries as u64);
                e = mix(e, o.expected_bytes);
                mix(e, digest(&o.op))
            })
            .collect();
        outstanding.sort_unstable();
        h = mix_section(h, 1, &outstanding);
        let mut parked: Vec<u64> = self
            .parked_conflicts
            .iter()
            .map(|(t, o)| mix(mix(MIX_SEED, t.0), o.conflict_retries as u64))
            .collect();
        parked.sort_unstable();
        h = mix_section(h, 2, &parked);
        // One pass over the peers in `Mac` order; queues hash in queue order.
        let mut peers: Vec<(&Mac, &Peer)> = self.peers.iter().collect();
        peers.sort_unstable_by_key(|(mac, _)| **mac);
        for (mac, p) in peers {
            h = mix(h, mac.0 as u64);
            h = mix(h, p.queue.len() as u64);
            for s in &p.queue {
                h = mix(mix(h, s.token.0), digest(&s.op));
            }
            h = mix(h, p.retries.len() as u64);
            for (id, retry_of) in &p.retries {
                h = mix(mix(h, id.0), retry_of.map_or(0, |r| r.0));
            }
            h = mix(h, p.cwnd.outstanding());
            h = mix(h, p.breaker.state() as u64);
            h = mix(h, p.breaker.streak() as u64);
        }
        h = mix(h, self.iwnd.in_flight());
        h = mix(h, self.next_req);
        h
    }

    fn batching(&self) -> bool {
        self.cfg.batch_max_ops > 1
    }

    /// The record of `mn`, created on first use.
    fn peer(&mut self, mn: Mac) -> &mut Peer {
        let cfg = &self.cfg;
        self.peers.entry(mn).or_insert_with(|| Peer::new(cfg))
    }

    /// The congestion window toward `mn` (created on first use).
    pub fn cwnd(&mut self, mn: Mac) -> &mut CongestionWindow {
        &mut self.peer(mn).cwnd
    }

    /// Records one attempt-level timeout toward `mn`. A trip of the
    /// [`Breaker`] emits a `board_down` trace event and schedules the
    /// half-open probe with seeded jitter (up to a quarter of the backoff)
    /// so recovering CNs do not probe in lockstep. The jitter draw only
    /// happens on a trip, so runs with the breaker disabled consume no
    /// randomness.
    fn note_peer_timeout(&mut self, ctx: &mut Ctx<'_>, mn: Mac) {
        if self.peer(mn).breaker.on_timeout() {
            self.stats.circuit_open_total += 1;
            self.tracer.event(self.track, "board_down", ctx.now());
            let backoff = self.cfg.breaker_probe_backoff;
            let jitter_ns = (ctx.rng().f64() * (backoff.as_nanos() as f64 / 4.0)) as u64;
            ctx.schedule(
                backoff + SimDuration::from_nanos(jitter_ns),
                Message::new(TransportTimer::BreakerProbe(mn)),
            );
        }
    }

    /// Records proof of life from `mn` (a response or a NACK), emitting
    /// `board_up` when the peer was previously presumed unhealthy.
    fn note_peer_success(&mut self, now: SimTime, mn: Mac) {
        // Every response comes through here: with the breaker disabled,
        // skip the peer lookup (it measured 4 % of a lone op's host cost).
        if self.cfg.breaker_threshold != 0 && self.peer(mn).breaker.on_alive() {
            self.tracer.event(self.track, "board_up", now);
        }
    }

    /// Submits a request. With batching disabled it is sent immediately if
    /// the congestion and incast windows allow (otherwise queued); with
    /// batching enabled it is queued and the (load-adaptive) doorbell
    /// coalesces every submission sharing a pump into shared frames.
    ///
    /// Completions produced synchronously are appended to `done`: with the
    /// circuit breaker toward `target` open, the request fails fast here
    /// with [`ClioError::Unreachable`] instead of waiting out a retry budget.
    #[allow(clippy::too_many_arguments)] // the op's full identity travels together
    pub fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        token: OpToken,
        target: Mac,
        pid: Pid,
        op: Op,
        trace: Option<TraceCtx>,
        done: &mut Vec<XferDone>,
    ) {
        self.enqueue(ctx.now(), token, target, pid, op, trace);
        self.kick(ctx, nic, target, done);
    }

    /// Submits an explicit vector of requests (the scatter/gather path):
    /// all entries are queued first and then every touched MN is pumped
    /// once, immediately — no doorbell heuristics involved — so the vector
    /// coalesces into batch frames regardless of submission timing.
    pub fn send_many(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        requests: Vec<(OpToken, Mac, Pid, Op, Option<TraceCtx>)>,
        done: &mut Vec<XferDone>,
    ) {
        let mut targets: Vec<Mac> = Vec::new();
        for (token, target, pid, op, trace) in requests {
            self.enqueue(ctx.now(), token, target, pid, op, trace);
            if !targets.contains(&target) {
                targets.push(target);
            }
        }
        for target in targets {
            self.peer(target).doorbell.cancel(ctx);
            self.pump(ctx, nic, target, done);
        }
    }

    /// Puts one submission on its MN's send queue, feeding the doorbell's
    /// inter-submission gap estimate.
    fn enqueue(
        &mut self,
        now: SimTime,
        token: OpToken,
        target: Mac,
        pid: Pid,
        op: Op,
        trace: Option<TraceCtx>,
    ) {
        self.tracer.stitch(trace, self.track, Stage::Submit, now);
        let peer = self.peer(target);
        peer.doorbell.observe(now);
        peer.queue.push_back(QueuedSend {
            token,
            pid,
            op,
            enqueued_at: now,
            conflict_retries: 0,
            trace,
        });
    }

    /// The doorbell's latency budget toward `target`: a quarter of the
    /// congestion window's smoothed RTT, capped by
    /// [`CLibConfig::DOORBELL_DERIVED_CAP`], and zero before the first RTT
    /// sample or after a window reset, so the transport never holds
    /// requests on an unmeasured fabric ([`Doorbell::budget`]).
    pub fn doorbell_budget(&self, target: Mac) -> SimDuration {
        self.peers.get(&target).map_or(SimDuration::ZERO, Peer::doorbell_budget)
    }

    /// Makes queued requests toward `target` progress: immediately when
    /// batching is off (or the breaker is open: no hold for a dead board),
    /// via the coalescing doorbell when on. A doorbell already armed is
    /// left in place unless a full batch is waiting, in which case it is
    /// re-rung to fire now; otherwise it is armed after the load-adaptive
    /// hold ([`Doorbell::hold`]) the free batch slots call for.
    fn kick(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        target: Mac,
        done: &mut Vec<XferDone>,
    ) {
        let batching = self.batching();
        let max_ops = self.cfg.batch_max_ops as usize;
        let peer = self.peer(target);
        let open = peer.breaker.is_open();
        if open {
            peer.doorbell.cancel(ctx);
        }
        if open || !batching {
            self.pump(ctx, nic, target, done);
            return;
        }
        let slots = max_ops.saturating_sub(peer.queue.len());
        if slots > 0 && peer.doorbell.armed().is_some() {
            return;
        }
        let at = ctx.now() + peer.doorbell.hold(peer.doorbell_budget(), slots);
        peer.doorbell.arm(ctx, at, Message::new(TransportTimer::Pump(target)));
    }

    /// Kicks every peer, in `Mac` order, iff the entry point now returning
    /// released window slots ([`Self::release`]): a completion, failure or
    /// cancellation freed space that queued sends — toward any MN, the
    /// incast window is shared — may now take. Each kick may arm a
    /// same-instant `Pump` timer, so the visiting order decides NIC
    /// serialization order and must be a function of the simulation alone,
    /// never of table layout.
    fn drain_released(&mut self, ctx: &mut Ctx<'_>, nic: &mut NicPort, done: &mut Vec<XferDone>) {
        if !std::mem::take(&mut self.released) {
            return;
        }
        let mut macs = std::mem::take(&mut self.kick_scratch);
        macs.clear();
        macs.extend(self.peers.keys().copied());
        macs.sort_unstable();
        for &m in &macs {
            self.kick(ctx, nic, m, done);
        }
        self.kick_scratch = macs;
    }

    /// Tries to transmit queued requests toward `target`, coalescing small
    /// admitted requests into batch frames. With the breaker toward
    /// `target` open, drains the whole queue to `Unreachable` completions
    /// instead — queued ops hold no window slots, so nothing needs
    /// releasing.
    fn pump(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        target: Mac,
        done: &mut Vec<XferDone>,
    ) {
        let now = ctx.now();
        let Some(peer) = self.peers.get_mut(&target) else { return };
        peer.doorbell.disarm();
        if peer.breaker.is_open() {
            for q in peer.queue.drain(..) {
                fail(done, now, q.token, q.enqueued_at, ClioError::Unreachable { mn: target });
            }
            return;
        }
        let mut pack = self.take_pack(target);
        loop {
            let peer = self.peers.get_mut(&target).expect("looked up above");
            let Some(head) = peer.queue.front() else { break };
            let expected_bytes = head.op.expected_response_bytes();
            if !peer.cwnd.try_acquire(now) {
                // Paced sub-1 windows need a wake-up; full windows are
                // pumped by the next completion.
                let at = peer.cwnd.next_opportunity(now);
                if at > now {
                    peer.doorbell.arm(ctx, at, Message::new(TransportTimer::Pump(target)));
                }
                break;
            }
            if !self.iwnd.try_acquire(expected_bytes) {
                peer.cwnd.on_release();
                break;
            }
            let q = peer.queue.pop_front().expect("peeked above");
            self.tracer.stitch(q.trace, self.track, Stage::DoorbellHold, now);
            let req_id = self.fresh_id();
            self.ship(ctx, nic, &mut pack, req_id, None, q.pid, &q.op, q.trace);
            self.register(
                ctx,
                req_id,
                Outstanding {
                    token: q.token,
                    target,
                    pid: q.pid,
                    op: q.op,
                    expected_bytes,
                    origin: req_id,
                    attempt_sent_at: now,
                    first_sent_at: q.enqueued_at,
                    retries: 0,
                    conflict_retries: q.conflict_retries,
                    timer: None,
                    trace: q.trace,
                },
            );
        }
        self.flush_batch(ctx, nic, &mut pack);
        self.pack = Some(pack);
    }

    /// The packing state for a pump toward `target`: the one a previous
    /// pump left (empty), or a fresh one the first time.
    fn take_pack(&mut self, target: Mac) -> PackScratch {
        let echo = self.peers.get(&target).and_then(Peer::srtt_echo);
        let batch_max_ops = self.cfg.batch_max_ops as usize;
        let mut pack = self.pack.take().unwrap_or_else(|| PackScratch {
            target,
            echo,
            batch: BatchBuilder::new(batch_max_ops, MTU_BYTES),
            traces: Vec::new(),
            packets: Vec::new(),
        });
        (pack.target, pack.echo) = (target, echo);
        pack
    }

    /// Puts one attempt — first send or retransmission — on the wire. A
    /// batchable single-packet request joins the frame under assembly,
    /// flushing it first when a budget would be busted; anything else
    /// (multi-packet, slow-path, fence, or everything with batching off)
    /// flushes that frame so the MN still sees requests in send order
    /// (fences must not overtake the batch in front of them) and travels
    /// alone. Every request header carries the op's trace context (reserved
    /// header bits, zero wire bytes) and the srtt echo (always encoded,
    /// tracing on or off, so the wire image never depends on
    /// observability). Returns how many wire frames left.
    #[allow(clippy::too_many_arguments)] // a request's header fields travel together
    fn ship(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        pack: &mut PackScratch,
        req_id: ReqId,
        retry_of: Option<ReqId>,
        pid: Pid,
        op: &Op,
        trace: Option<TraceCtx>,
    ) -> u64 {
        let send_start = ctx.now() + self.cfg.send_overhead;
        let mut frames = 0;
        let joins = self.batching() && op.is_batchable();
        if let Some(body) = joins.then(|| op.single_body()).flatten() {
            let header = ReqHeader {
                retry_of,
                trace,
                srtt_echo_ns: pack.echo,
                ..ReqHeader::single(req_id, pid)
            };
            let entry_wire = codec::request_wire_len(&body);
            if !pack.batch.fits(entry_wire) {
                frames += self.flush_batch(ctx, nic, pack) as u64;
            }
            if pack.batch.fits(entry_wire) {
                pack.batch.push(header, body);
                pack.traces.push(trace);
                return frames;
            }
            // Too large to share even an empty frame: ships alone.
            pack.packets.push(ClioPacket::Request { header, body });
        } else {
            frames += self.flush_batch(ctx, nic, pack) as u64;
            op.build(req_id, retry_of, pid, &mut pack.packets);
            for pkt in &mut pack.packets {
                if let ClioPacket::Request { header, .. } = pkt {
                    header.trace = trace;
                    header.srtt_echo_ns = pack.echo;
                }
            }
        }
        let mut tx_end = send_start;
        for pkt in pack.packets.drain(..) {
            let wire = (codec::wire_len(&pkt) + ETH_OVERHEAD_BYTES) as u32;
            tx_end = tx_end.max(nic.send_at(ctx, send_start, pack.target, wire, Message::new(pkt)));
            frames += 1;
        }
        self.tracer.stitch(trace, self.track, Stage::Pack, send_start);
        self.tracer.stitch(trace, self.track, Stage::NicSerialize, tx_end);
        frames
    }

    /// Ships the accumulated batch (if any) as one wire frame, stitching
    /// every member's pack + NIC-serialization spans to the frame's actual
    /// transmit window. Returns whether a frame actually left.
    fn flush_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        pack: &mut PackScratch,
    ) -> bool {
        let ops = pack.batch.len() as u64;
        let Some(pkt) = pack.batch.take() else {
            pack.traces.clear();
            return false;
        };
        if ops > 1 {
            self.stats.batch_frames += 1;
            self.stats.batched_ops += ops;
        }
        let wire = (codec::wire_len(&pkt) + ETH_OVERHEAD_BYTES) as u32;
        let send_start = ctx.now() + self.cfg.send_overhead;
        let tx_end = nic.send_at(ctx, send_start, pack.target, wire, Message::new(pkt));
        for trace in pack.traces.drain(..) {
            self.tracer.stitch(trace, self.track, Stage::Pack, send_start);
            self.tracer.stitch(trace, self.track, Stage::NicSerialize, tx_end);
        }
        true
    }

    /// Records one attempt as outstanding under `req_id`: stamps its send
    /// time and arms its retransmission timer. The only way into
    /// `outstanding` — a first send registers as it ships, a retransmission
    /// when it is queued (it keeps its window slots and must stay visible
    /// to `cancel` and the invariant checks until the retry doorbell ships
    /// it).
    fn register(&mut self, ctx: &mut Ctx<'_>, req_id: ReqId, mut o: Outstanding) {
        o.attempt_sent_at = ctx.now();
        o.timer = Some(ctx.schedule(
            o.op.timeout(self.cfg.request_timeout),
            Message::new(TransportTimer::Timeout(req_id)),
        ));
        self.outstanding.insert(req_id, o);
    }

    /// Takes the attempt registered under `req_id` out of `outstanding` and
    /// cancels its retransmission timer — the only way out of the table.
    /// `None` for an id no longer outstanding: a stale or duplicate frame,
    /// or a timer that lost the race with its response.
    fn take(&mut self, ctx: &mut Ctx<'_>, req_id: ReqId) -> Option<Outstanding> {
        let mut o = self.outstanding.remove(&req_id)?;
        if let Some(t) = o.timer.take() {
            ctx.cancel(t);
        }
        Some(o)
    }

    /// Hands a finished attempt's window slots back — the only place an
    /// outstanding request gives them up — and notes that space was freed,
    /// so the entry point now running drains the send queues before it
    /// returns ([`Self::drain_released`]). A retry that keeps its slots
    /// never comes here.
    fn release(&mut self, now: SimTime, o: &Outstanding, outcome: Outcome) {
        let cwnd = &mut self.peer(o.target).cwnd;
        match outcome {
            Outcome::Answered(rtt) if o.op.is_congestion_signal() => {
                cwnd.on_response_sized(now, rtt, o.expected_bytes + o.op.payload_bytes())
            }
            Outcome::Lost if o.op.is_congestion_signal() => cwnd.on_timeout(now),
            _ => cwnd.on_release(),
        }
        self.iwnd.release(o.expected_bytes);
        self.released = true;
    }

    /// Cancels every attempt of `token` still owned by the transport:
    /// in-flight requests (timer cancelled, window slots released without a
    /// congestion signal, reassembly state dropped), queued sends, queued
    /// retransmissions, and parked conflicts — then lets the sends queued
    /// behind the freed slots go. The caller owns reporting the op's
    /// completion (e.g. `DeadlineExceeded`) upward. A response or NACK for
    /// a cancelled id arriving later is dropped by the outstanding-id
    /// lookup like any stale frame.
    pub fn cancel(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        token: OpToken,
        done: &mut Vec<XferDone>,
    ) {
        let mut ids: Vec<ReqId> =
            self.outstanding.iter().filter(|(_, o)| o.token == token).map(|(id, _)| *id).collect();
        ids.sort_unstable(); // release attempts oldest-first, whatever the table's layout
        for id in ids {
            let o = self.take(ctx, id).expect("collected above");
            self.release(ctx.now(), &o, Outcome::Abandoned);
            self.reassembler.forget(id);
        }
        let outstanding = &self.outstanding;
        for peer in self.peers.values_mut() {
            // Retry-queue entries for ids that no longer exist must not be
            // rebuilt by the retry pump.
            peer.retries.retain(|(id, _)| outstanding.contains_key(id));
            peer.queue.retain(|s| s.token != token);
        }
        self.parked_conflicts.remove(&token);
        self.drain_released(ctx, nic, done);
    }

    /// Handles a frame payload (a [`ClioPacket`]) delivered to this CN,
    /// appending the completions to surface to `done`.
    ///
    /// # Invariants
    ///
    /// * A response or NACK whose id is not outstanding (stale duplicate,
    ///   or a late original overtaken by its own retry) is dropped without
    ///   touching windows — double releases are structurally impossible.
    /// * Completing entries release both window slots exactly once;
    ///   `Conflict` responses release windows **before** parking, so a
    ///   parked request holds no window state.
    /// * A NACK within the retry budget keeps both window slots and moves
    ///   the request to a fresh id (`retry_of` set for non-idempotent
    ///   ops); past the budget it releases the slots and reports
    ///   `TimedOut`.
    /// * Batch frames are unbatched at ingress: every entry completes or
    ///   retries exactly as if it had arrived in its own frame, and the
    ///   whole frame shares one queue drain (the first kick arms the
    ///   doorbells, further passes would no-op). The retries of one
    ///   `BatchNack` are queued in this same event, so the retry doorbell
    ///   re-coalesces them — recovery stays at one frame per direction per
    ///   corrupted frame.
    pub fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        pkt: ClioPacket,
        done: &mut Vec<XferDone>,
    ) {
        match pkt {
            ClioPacket::Response { header, body } => self.handle_response(ctx, header, body, done),
            ClioPacket::BatchResp { responses } => {
                for (header, body) in responses {
                    self.handle_response(ctx, header, body, done);
                }
            }
            ClioPacket::Nack { req_id } => self.handle_nack(ctx, req_id, done),
            ClioPacket::BatchNack { req_ids } => {
                for req_id in req_ids {
                    self.handle_nack(ctx, req_id, done);
                }
            }
            // CNs never receive requests (batched or not).
            ClioPacket::Request { .. } | ClioPacket::Batch { .. } => {}
        }
        self.drain_released(ctx, nic, done);
    }

    /// Handles one link-layer NACK — shared by plain `Nack` frames and
    /// unbatched `BatchNack` entries. The corrupted request is retried
    /// immediately (no congestion signal; corruption is not loss); past
    /// the retry budget it fails and its window slots are released.
    fn handle_nack(&mut self, ctx: &mut Ctx<'_>, req_id: ReqId, done: &mut Vec<XferDone>) {
        let Some(mut o) = self.take(ctx, req_id) else {
            return; // stale/duplicate NACK
        };
        self.stats.retries += 1;
        o.retries += 1;
        // A NACK proves the board is alive (it decoded and answered the
        // frame), so it feeds the breaker as a success signal.
        self.note_peer_success(ctx.now(), o.target);
        // The corrupted attempt's wire + MN time is unattributable (the MN
        // executes nothing for it); the turnaround span from the attempt's
        // last stitch to the NACK's arrival absorbs it, keeping the op's
        // timeline gap-free.
        self.tracer.stitch(o.trace, self.track, Stage::NackTurnaround, ctx.now());
        if o.retries > self.cfg.max_retries {
            if self.mutation == McMutation::LeakWindowOnNack {
                // The planted bug leaks the slots; the failure still drains.
                self.released = true;
            } else {
                self.release(ctx.now(), &o, Outcome::Lost);
            }
            let error = ClioError::TimedOut { op: o.op.kind(), mn: o.target, attempts: o.retries };
            fail(done, ctx.now(), o.token, o.first_sent_at, error);
        } else {
            o.trace = self.tracer.retry(o.trace, ctx.now());
            // Window slots stay held: this is the same logical request.
            self.queue_retransmit(ctx, o, req_id);
        }
    }

    /// Completes one response entry — shared by plain `Response` frames and
    /// unbatched `BatchResp` entries.
    fn handle_response(
        &mut self,
        ctx: &mut Ctx<'_>,
        header: RespHeader,
        body: ResponseBody,
        done: &mut Vec<XferDone>,
    ) {
        if !self.outstanding.contains_key(&header.req_id) {
            return; // stale/duplicate response
        }
        // Multi-packet read responses finish on the last fragment.
        let value = match body {
            ResponseBody::DataFrag { offset, data } => {
                match self.reassembler.accept(header, offset, data) {
                    Some(full) => CompletionValue::Data(full),
                    None => return,
                }
            }
            ResponseBody::Done => CompletionValue::Done,
            ResponseBody::Alloced { va } => CompletionValue::Va(va),
            ResponseBody::AtomicOld { old } => CompletionValue::Old(old),
            ResponseBody::OffloadReply { data } => CompletionValue::Data(data),
        };
        let o = self.take(ctx, header.req_id).expect("checked");
        let now = ctx.now();
        self.note_peer_success(now, o.target);
        // Response wire time: from the MN's last stitch (egress NIC
        // serialization) to delivery here. For multi-fragment reads this
        // covers the whole reassembly window, attributed once on
        // completion of the final fragment.
        self.tracer.stitch(o.trace, Track::Wire, Stage::Wire, now);
        self.release(now, &o, Outcome::Answered(now.since(o.attempt_sent_at)));
        match header.status {
            Status::Ok => {
                done.push(XferDone {
                    token: o.token,
                    result: Ok(value),
                    rtt: now.since(o.first_sent_at) + self.cfg.recv_overhead,
                });
            }
            Status::Conflict => {
                // Region mid-migration: back off and re-issue.
                if o.conflict_retries >= self.cfg.max_conflict_retries {
                    let error = ClioError::Remote(Status::Conflict);
                    fail(done, now, o.token, o.first_sent_at, error);
                } else {
                    let backoff =
                        self.cfg.conflict_backoff * (1 + o.conflict_retries.min(16) as u64);
                    ctx.schedule(backoff, Message::new(TransportTimer::ConflictRetry(o.token)));
                    self.parked_conflicts.insert(o.token, o);
                }
            }
            status => fail(done, now, o.token, o.first_sent_at, ClioError::from(status)),
        }
    }

    /// Re-registers a timed-out/NACKed request under a fresh id and queues
    /// its retransmission behind a zero-delay retry doorbell, so every
    /// retry queued in the same pump — e.g. the timers of one lost batch
    /// frame expiring together — re-coalesces through [`BatchBuilder`].
    /// The retry keeps its window slots. `retry_of` always names the
    /// chain's FIRST id (`Outstanding::origin`), never the immediately
    /// preceding attempt: the predecessor may itself have been lost before
    /// the MN saw it, and a dedup lookup keyed on an id the MN never
    /// recorded would re-execute a non-idempotent original that did land.
    /// (Found by the `clio_mc` model checker; pinned in
    /// `crates/cn/tests/mc_regressions.rs`.)
    fn queue_retransmit(&mut self, ctx: &mut Ctx<'_>, o: Outstanding, prev_id: ReqId) {
        let new_id = self.fresh_id();
        let retry_of = o.op.is_non_idempotent().then_some(o.origin);
        let target = o.target;
        self.register(ctx, new_id, o);
        self.reassembler.forget(prev_id);
        let peer = self.peer(target);
        peer.retries.push((new_id, retry_of));
        if !std::mem::replace(&mut peer.retry_armed, true) {
            ctx.schedule(SimDuration::ZERO, Message::new(TransportTimer::RetryPump(target)));
        }
    }

    /// Ships queued retransmissions toward `target`, packing batchable
    /// single-packet retries into shared frames. With the breaker open
    /// (tripped between queueing and this pump by a same-instant timer),
    /// the queued retries fail fast instead: slots released without a
    /// congestion signal, `Unreachable` reported.
    fn retry_pump(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        target: Mac,
        done: &mut Vec<XferDone>,
    ) {
        let peer = self.peer(target);
        peer.retry_armed = false;
        let open = peer.breaker.is_open();
        let entries = std::mem::take(&mut peer.retries);
        if open {
            let now = ctx.now();
            for (req_id, _) in entries {
                let Some(o) = self.take(ctx, req_id) else { continue };
                self.release(now, &o, Outcome::Abandoned);
                fail(done, now, o.token, o.first_sent_at, ClioError::Unreachable { mn: target });
            }
            return;
        }
        let mut pack = self.take_pack(target);
        for (req_id, retry_of) in entries {
            // A retry can only vanish between queue and pump if its own
            // timer fired first; the timeout path re-queues it.
            let Some(o) = self.outstanding.get(&req_id) else { continue };
            let (pid, trace, op) = (o.pid, o.trace, o.op.clone());
            self.tracer.stitch(trace, self.track, Stage::RetryDoorbell, ctx.now());
            self.stats.retry_frames +=
                self.ship(ctx, nic, &mut pack, req_id, retry_of, pid, &op, trace);
        }
        if self.flush_batch(ctx, nic, &mut pack) {
            self.stats.retry_frames += 1;
        }
        self.pack = Some(pack);
    }

    /// Handles a transport timer routed back by the host actor, appending
    /// the completions it produces to `done`.
    ///
    /// # Invariants
    ///
    /// * A `Timeout` for an id no longer outstanding (the response won the
    ///   race) is a no-op.
    /// * A `Timeout` within the retry budget shrinks the congestion window
    ///   (timeout = congestion) but keeps both window slots for the
    ///   retransmission, which is the same logical request under a fresh
    ///   id; past the budget it releases the slots and reports `TimedOut`.
    /// * `ConflictRetry` moves a parked request (which holds no window
    ///   slots) to the **front** of its send queue, so it re-acquires
    ///   windows through the same admission path as a first send.
    pub fn on_timer(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        timer: TransportTimer,
        done: &mut Vec<XferDone>,
    ) {
        match timer {
            TransportTimer::Timeout(req_id) => self.on_timeout(ctx, req_id, done),
            TransportTimer::Pump(mac) => self.pump(ctx, nic, mac, done),
            TransportTimer::RetryPump(mac) => self.retry_pump(ctx, nic, mac, done),
            TransportTimer::BreakerProbe(mac) => {
                // Half-open: queued ops flow again as probes. The gauge
                // stays up — the peer is not healthy until a probe
                // actually completes.
                if self.peer(mac).breaker.on_probe() {
                    self.kick(ctx, nic, mac, done);
                }
            }
            TransportTimer::ConflictRetry(token) => {
                if let Some(o) = self.parked_conflicts.remove(&token) {
                    // Rejoin the send queue (at the front: it is the oldest
                    // logical request) so window accounting stays uniform.
                    let target = o.target;
                    self.tracer.stitch(o.trace, self.track, Stage::ConflictBackoff, ctx.now());
                    self.peer(target).queue.push_front(QueuedSend {
                        token: o.token,
                        pid: o.pid,
                        op: o.op,
                        enqueued_at: o.first_sent_at,
                        conflict_retries: o.conflict_retries + 1,
                        trace: o.trace,
                    });
                    self.kick(ctx, nic, target, done);
                }
            }
        }
        self.drain_released(ctx, nic, done);
    }

    /// A request's retransmission timer fired: retry it under a fresh id,
    /// or — retry budget exhausted, or the breaker toward its MN open —
    /// fail it and release its window slots.
    fn on_timeout(&mut self, ctx: &mut Ctx<'_>, req_id: ReqId, done: &mut Vec<XferDone>) {
        // (Cancelling the timer that is firing is a no-op.)
        let Some(mut o) = self.take(ctx, req_id) else {
            return; // completed already
        };
        self.stats.retries += 1;
        o.retries += 1;
        let now = ctx.now();
        // The lost attempt left no response to attribute; the wait span
        // from its last stitch to the timer firing absorbs the whole
        // silent interval.
        self.tracer.stitch(o.trace, self.track, Stage::TimeoutWait, now);
        self.note_peer_timeout(ctx, o.target);
        // With the breaker open (just tripped, or already open) the op is
        // given up on now instead of burning more retries against a board
        // presumed dead.
        let error = if self.peer(o.target).breaker.is_open() {
            ClioError::Unreachable { mn: o.target }
        } else if o.retries > self.cfg.max_retries {
            ClioError::TimedOut { op: o.op.kind(), mn: o.target, attempts: o.retries }
        } else {
            o.trace = self.tracer.retry(o.trace, now);
            // Timeout is a congestion signal; shrink but keep the slot for
            // the retransmission (same logical request).
            self.peer(o.target).cwnd.on_congestion(now);
            self.queue_retransmit(ctx, o, req_id);
            return;
        };
        self.release(now, &o, Outcome::Lost);
        fail(done, now, o.token, o.first_sent_at, error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_proto::Perm;

    /// The fingerprint folds every field of a queued op: ops that differ
    /// only in an alloc's permissions, or only in the bytes of an offload's
    /// equal-length argument, are different states.
    #[test]
    fn fingerprint_tells_apart_ops_that_differ_in_any_field() {
        let fingerprint = |op: Op| {
            let mut t = Transport::new(CLibConfig::default(), 1);
            t.enqueue(SimTime::ZERO, OpToken(1), Mac(2), Pid(1), op, None);
            t.fingerprint()
        };
        let alloc = |perm| Op::Alloc { size: 4096, perm };
        assert_ne!(fingerprint(alloc(Perm::RW)), fingerprint(alloc(Perm::READ)));
        let offload = |arg| Op::Offload { offload: 1, opcode: 2, arg: Bytes::from_static(arg) };
        assert_ne!(fingerprint(offload(b"arg0")), fingerprint(offload(b"arg1")));
    }
}
