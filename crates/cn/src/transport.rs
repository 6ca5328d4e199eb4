//! The connectionless reliable transport (paper §4.4–4.5).
//!
//! Everything a conventional reliable transport keeps at *both* ends lives
//! only here, at the CN: the retransmission buffer (request blueprints), the
//! request-id space, timeout timers, congestion windows and the incast
//! window. Reliability is lifted to the **memory-request level**: any lost,
//! corrupted (NACKed) or unanswered packet causes the whole request to be
//! retried under a fresh id carrying `retry_of`, which the MN's dedup buffer
//! uses to suppress double execution of non-idempotent operations.
//!
//! # Request batching (doorbell coalescing)
//!
//! With batching enabled (`batch_max_ops > 1`, the default), [`send`]
//! enqueues the request and rings a *doorbell* instead of transmitting
//! immediately; when the doorbell fires, every queued request drains
//! through a single pump. The pump packs admitted small same-MN requests
//! (single-packet reads, writes, and atomics) into [`ClioPacket::Batch`]
//! frames under the `batch_max_ops`/`batch_max_bytes`/MTU budgets, saving
//! one Ethernet framing overhead per coalesced request. Each batched
//! request keeps its own request id, congestion/incast window slot, retry
//! timer, and blueprint: timeouts, NACK retries (`retry_of` dedup), and
//! completions are indistinguishable from the unbatched wire protocol. A
//! lone admitted request is framed as a plain `Request`, byte-identical to
//! `batch_max_ops = 1`.
//!
//! The doorbell's delay is **load-adaptive**, bounded by a latency budget
//! that is itself **RTT-derived** by default: with
//! `CLibConfig::doorbell_max_delay = None` the budget is `srtt / 4` of the
//! congestion window's EWMA-smoothed RTT toward that MN (capped by
//! `CLibConfig::DOORBELL_DERIVED_CAP`, zero before the first RTT sample),
//! so the hold self-calibrates: always a small fraction of what the
//! application already waits per request. A `Some(budget)` config is an
//! explicit static override. Within the budget the doorbell holds for the
//! observed inter-submission gap times the free batch slots, and fires
//! immediately when a full batch is queued or the transport has no
//! recent-traffic history.
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
//! # Invariants
//!
//! The following hold at every event boundary (between any two messages
//! the host actor delivers to the transport) and are checked exhaustively
//! by the `clio_mc` bounded model checker via
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
//!
//! [`send`]: Transport::send
//! [`send_many`]: Transport::send_many

use std::collections::VecDeque;

use bytes::Bytes;
use clio_net::{Mac, NicPort};
use clio_proto::{
    codec, split_write, BatchBuilder, ClioPacket, Perm, Pid, Reassembler, ReqHeader, ReqId,
    RequestBody, RespHeader, ResponseBody, Status, ETH_OVERHEAD_BYTES, MAX_WRITE_FRAG_PAYLOAD,
};
use clio_sim::{Ctx, EventId, IdMap, IdSet, Message, SimDuration, SimTime};
use clio_trace::metrics::{Metrics, Visit};
use clio_trace::{Stage, TraceCtx, Tracer, Track};

use crate::config::CLibConfig;
use crate::congestion::{CongestionWindow, IncastWindow};
use crate::error::ClioError;

/// Caller-side handle for one in-flight request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XferToken(pub u64);

/// How to (re)build the packets of a request — the CN-side retransmission
/// state (§4.4 "maintain transport logic, state, and data buffers only at
/// CNs").
#[derive(Debug, Clone)]
pub enum Blueprint {
    /// `rread`.
    Read {
        /// Start address.
        va: u64,
        /// Bytes to read.
        len: u32,
    },
    /// `rwrite` (split over MTU packets on build).
    Write {
        /// Start address.
        va: u64,
        /// Payload.
        data: Bytes,
    },
    /// One 8-byte atomic.
    Atomic {
        /// Word address.
        va: u64,
        /// Operation.
        op: AtomicKind,
    },
    /// Remote fence.
    Fence,
    /// Slow-path allocation.
    Alloc {
        /// Requested bytes.
        size: u64,
        /// Permissions.
        perm: Perm,
        /// Optional fixed placement.
        fixed_va: Option<u64>,
    },
    /// Slow-path free.
    Free {
        /// Range start.
        va: u64,
        /// Range length.
        size: u64,
    },
    /// Address-space creation.
    CreateAs,
    /// Address-space teardown.
    DestroyAs,
    /// Extend-path invocation.
    Offload {
        /// Installed offload id.
        offload: u16,
        /// Offload-defined opcode.
        opcode: u16,
        /// Argument bytes.
        arg: Bytes,
    },
}

/// Atomic operation kinds carried by [`Blueprint::Atomic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    /// Test-and-set to 1.
    Tas,
    /// Store a value.
    Store(u64),
    /// Compare-and-swap.
    Cas {
        /// Expected value.
        expected: u64,
        /// New value.
        new: u64,
    },
    /// Fetch-and-add.
    Faa(u64),
}

impl Blueprint {
    /// The request's body when it travels as one packet: everything except
    /// a write larger than one MTU fragment.
    fn single_body(&self) -> Option<RequestBody> {
        Some(match self {
            Blueprint::Read { va, len } => RequestBody::Read { va: *va, len: *len },
            Blueprint::Write { va, data } if data.len() <= MAX_WRITE_FRAG_PAYLOAD => {
                RequestBody::WriteFrag { va: *va, data: data.clone() }
            }
            Blueprint::Write { .. } => return None,
            Blueprint::Atomic { va, op } => match op {
                AtomicKind::Tas => RequestBody::AtomicTas { va: *va },
                AtomicKind::Store(v) => RequestBody::AtomicStore { va: *va, value: *v },
                AtomicKind::Cas { expected, new } => {
                    RequestBody::AtomicCas { va: *va, expected: *expected, new: *new }
                }
                AtomicKind::Faa(d) => RequestBody::AtomicFaa { va: *va, delta: *d },
            },
            Blueprint::Fence => RequestBody::Fence,
            Blueprint::Alloc { size, perm, fixed_va } => {
                RequestBody::Alloc { size: *size, perm: *perm, fixed_va: *fixed_va }
            }
            Blueprint::Free { va, size } => RequestBody::Free { va: *va, size: *size },
            Blueprint::CreateAs => RequestBody::CreateAs,
            Blueprint::DestroyAs => RequestBody::DestroyAs,
            Blueprint::Offload { offload, opcode, arg } => {
                RequestBody::OffloadCall { offload: *offload, opcode: *opcode, arg: arg.clone() }
            }
        })
    }

    /// Builds the request's packets into `out` (cleared first). Trace and
    /// srtt echo are stamped post-build by `Transport::annotate`.
    fn build(&self, req_id: ReqId, retry_of: Option<ReqId>, pid: Pid, out: &mut Vec<ClioPacket>) {
        out.clear();
        match (self.single_body(), self) {
            (Some(body), _) => {
                let header = ReqHeader { retry_of, ..ReqHeader::single(req_id, pid) };
                out.push(ClioPacket::Request { header, body });
            }
            (None, Blueprint::Write { va, data }) => {
                out.extend(split_write(req_id, retry_of, pid, *va, data.clone()));
            }
            (None, _) => unreachable!("only large writes span packets"),
        }
    }

    /// Expected response payload bytes (drives the incast window).
    fn expected_response_bytes(&self) -> u64 {
        match self {
            Blueprint::Read { len, .. } => *len as u64 + 64,
            Blueprint::Offload { .. } => 256,
            _ => 64,
        }
    }

    /// Request payload bytes (large writes take long to even transmit).
    fn payload_bytes(&self) -> u64 {
        match self {
            Blueprint::Write { data, .. } => data.len() as u64,
            Blueprint::Offload { arg, .. } => arg.len() as u64,
            _ => 0,
        }
    }

    /// The retry timeout: the base (multiplied for slow-path ops) plus a
    /// conservative 20 ns/byte (≈0.4 Gbps) allowance for the bytes this
    /// request moves in either direction, so multi-MTU transfers are not
    /// spuriously retried even under congestion (the congestion window's
    /// per-byte target of 10 ns/byte keeps queueing below this).
    fn timeout(&self, base: SimDuration) -> SimDuration {
        let transfer =
            SimDuration::from_nanos((self.payload_bytes() + self.expected_response_bytes()) * 20);
        base * self.timeout_multiplier() + transfer
    }

    /// True if a retry must carry `retry_of` for MN-side deduplication.
    fn is_non_idempotent(&self) -> bool {
        matches!(self, Blueprint::Write { .. } | Blueprint::Atomic { .. })
    }

    /// True for requests eligible to share a batch frame: data-plane
    /// operations that encode as exactly one packet. Slow-path, fence, and
    /// extend-path requests always travel alone.
    fn is_batchable(&self) -> bool {
        match self {
            Blueprint::Read { .. } | Blueprint::Atomic { .. } => true,
            Blueprint::Write { data, .. } => data.len() <= MAX_WRITE_FRAG_PAYLOAD,
            _ => false,
        }
    }

    /// True for data-plane operations whose RTT is a valid congestion
    /// signal. Slow-path and extend-path operations embed ARM/software
    /// service time in their RTTs, so they must not drive the delay-based
    /// window (they still consume and release window slots).
    fn is_congestion_signal(&self) -> bool {
        matches!(
            self,
            Blueprint::Read { .. }
                | Blueprint::Write { .. }
                | Blueprint::Atomic { .. }
                | Blueprint::Fence
        )
    }

    /// Short kind name surfaced in error context (`ClioError::TimedOut`).
    pub fn kind(&self) -> &'static str {
        match self {
            Blueprint::Read { .. } => "read",
            Blueprint::Write { .. } => "write",
            Blueprint::Atomic { .. } => "atomic",
            Blueprint::Fence => "fence",
            Blueprint::Alloc { .. } => "alloc",
            Blueprint::Free { .. } => "free",
            Blueprint::CreateAs => "create_as",
            Blueprint::DestroyAs => "destroy_as",
            Blueprint::Offload { .. } => "offload",
        }
    }

    /// Slow-path and extend-path operations inherently take tens of
    /// microseconds to milliseconds (ARM crossing, software service,
    /// offload chains), so their retry timers are much longer than the
    /// fast-path timeout that sizes the dedup buffer.
    fn timeout_multiplier(&self) -> u64 {
        match self {
            Blueprint::Alloc { .. }
            | Blueprint::Free { .. }
            | Blueprint::CreateAs
            | Blueprint::DestroyAs => 100,
            Blueprint::Offload { .. } => 400,
            Blueprint::Fence => 20,
            _ => 1,
        }
    }
}

/// The value delivered on success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XferValue {
    /// Read data / offload reply payload.
    Data(Bytes),
    /// Plain acknowledgment.
    Done,
    /// Allocation result.
    Va(u64),
    /// Atomic old value.
    Old(u64),
}

/// What the transport reports upward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XferDone {
    /// The request's token.
    pub token: XferToken,
    /// Result.
    pub result: Result<XferValue, ClioError>,
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
    ConflictRetry(XferToken),
    /// An open circuit breaker toward an MN may move to half-open and let
    /// a probe through.
    BreakerProbe(Mac),
}

/// Circuit-breaker state toward one MN (§ failure model). `Closed` is
/// normal operation; `Open` fails ops fast with `ClioError::Unreachable`;
/// `HalfOpen` lets queued ops through as probes — one success closes the
/// breaker, one more timeout re-opens it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum BreakerState {
    /// Normal operation: ops flow, timeouts are counted.
    #[default]
    Closed,
    /// Presumed dead: ops fail fast until a probe succeeds.
    Open,
    /// Probing: the next completed op decides open vs closed.
    HalfOpen,
}

/// Liveness bookkeeping toward one MN. Only attempt-level timeouts count
/// against a board: a NACK (corruption) proves the board is alive and
/// resets the streak just like a response does.
#[derive(Debug, Clone, Default)]
struct PeerHealth {
    consecutive_timeouts: u32,
    state: BreakerState,
}

#[derive(Debug, Clone)]
struct Outstanding {
    token: XferToken,
    target: Mac,
    pid: Pid,
    blueprint: Blueprint,
    expected_bytes: u64,
    /// Id of the request's FIRST attempt — the root of the `retry_of`
    /// chain. Every retry's `retry_of` points here, never at an
    /// intermediate attempt: an intermediate retry can be lost or
    /// corrupted before the MN sees it, so a predecessor-linked chain
    /// would leave the MN's dedup record (keyed by the ids it has actually
    /// seen) unreachable and a non-idempotent op would re-execute.
    origin: ReqId,
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
    token: XferToken,
    pid: Pid,
    blueprint: Blueprint,
    enqueued_at: SimTime,
    trace: Option<TraceCtx>,
}

/// The packing state one pump reuses across calls, so a lone request costs
/// no allocation on its way into a frame.
#[derive(Debug, Clone)]
struct PackScratch {
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
    /// Skips `Transport::release_windows` when a NACK exhausts the retry
    /// budget: the failed request's congestion-window slot and incast
    /// bytes are never returned, violating invariant 1 (window
    /// accounting) immediately and invariant 4 (quiescence drains
    /// everything) at the end of the run.
    LeakWindowOnNack,
}

/// FNV-1a step over one `u64`.
fn fnv_mix(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Folds a **sorted** list of element digests into `h` under a section tag,
/// so differently-keyed sections with equal content still hash apart.
fn fnv_fold(mut h: u64, tag: u64, elems: &[u64]) -> u64 {
    h = fnv_mix(h, tag);
    h = fnv_mix(h, elems.len() as u64);
    for &e in elems {
        h = fnv_mix(h, e);
    }
    h
}

/// Content digest of a blueprint (shape + addresses + payload bytes).
fn blueprint_digest(bp: &Blueprint) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    match bp {
        Blueprint::Read { va, len } => {
            h = fnv_mix(h, 1);
            h = fnv_mix(h, *va);
            h = fnv_mix(h, *len as u64);
        }
        Blueprint::Write { va, data } => {
            h = fnv_mix(h, 2);
            h = fnv_mix(h, *va);
            h = fnv_mix(h, data.len() as u64);
            for chunk in data.chunks(8) {
                let mut v = [0u8; 8];
                v[..chunk.len()].copy_from_slice(chunk);
                h = fnv_mix(h, u64::from_le_bytes(v));
            }
        }
        Blueprint::Atomic { va, op } => {
            h = fnv_mix(h, 3);
            h = fnv_mix(h, *va);
            h = fnv_mix(
                h,
                match op {
                    AtomicKind::Tas => 1,
                    AtomicKind::Store(v) => fnv_mix(2, *v),
                    AtomicKind::Cas { expected, new } => fnv_mix(fnv_mix(3, *expected), *new),
                    AtomicKind::Faa(d) => fnv_mix(4, *d),
                },
            );
        }
        Blueprint::Fence => h = fnv_mix(h, 4),
        Blueprint::Alloc { size, fixed_va, .. } => {
            h = fnv_mix(h, 5);
            h = fnv_mix(h, *size);
            h = fnv_mix(h, fixed_va.map_or(u64::MAX, |v| v));
        }
        Blueprint::Free { va, size } => {
            h = fnv_mix(h, 6);
            h = fnv_mix(h, *va);
            h = fnv_mix(h, *size);
        }
        Blueprint::CreateAs => h = fnv_mix(h, 7),
        Blueprint::DestroyAs => h = fnv_mix(h, 8),
        Blueprint::Offload { offload, opcode, arg } => {
            h = fnv_mix(h, 9);
            h = fnv_mix(h, *offload as u64);
            h = fnv_mix(h, *opcode as u64);
            h = fnv_mix(h, arg.len() as u64);
        }
    }
    h
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
/// See the [module docs](self) for the four transport invariants (window
/// accounting, request-id freshness, single completion, quiescence drains
/// everything); [`Transport::check_invariants`] verifies the first
/// mechanically and the `clio_mc` model checker enforces all four over
/// every bounded fault interleaving.
#[derive(Debug, Clone)]
pub struct Transport {
    cfg: CLibConfig,
    next_req: u64,
    outstanding: IdMap<ReqId, Outstanding>,
    parked_conflicts: IdMap<XferToken, Outstanding>,
    queues: IdMap<Mac, VecDeque<QueuedSend>>,
    conflict_generations: IdMap<XferToken, u32>,
    cwnds: IdMap<Mac, CongestionWindow>,
    iwnd: IncastWindow,
    reassembler: Reassembler,
    /// MNs with a doorbell (pump) event already scheduled.
    doorbells: IdMap<Mac, EventId>,
    /// Last submission time per MN (feeds the adaptive doorbell).
    last_submit: IdMap<Mac, SimTime>,
    /// EWMA of the inter-submission gap per MN, in nanoseconds.
    submit_gap_ewma: IdMap<Mac, f64>,
    /// Retransmissions queued for coalescing: `(new id, retry_of)`.
    retry_queues: IdMap<Mac, Vec<(ReqId, Option<ReqId>)>>,
    /// MNs with a zero-delay retry doorbell already scheduled.
    retry_doorbells: IdSet<Mac>,
    /// Reused by [`Self::kick_all`] to visit the queues in `Mac` order.
    kick_scratch: Vec<Mac>,
    /// Taken by a pump for its duration (built on first use).
    pack: Option<PackScratch>,
    stats: TransportStats,
    /// Per-MN circuit-breaker state (empty while the breaker is disabled,
    /// i.e. `breaker_threshold == 0`).
    health: IdMap<Mac, PeerHealth>,
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
            queues: IdMap::default(),
            conflict_generations: IdMap::default(),
            cwnds: IdMap::default(),
            reassembler: Reassembler::new(),
            doorbells: IdMap::default(),
            last_submit: IdMap::default(),
            submit_gap_ewma: IdMap::default(),
            retry_queues: IdMap::default(),
            retry_doorbells: IdSet::default(),
            kick_scratch: Vec::new(),
            pack: None,
            stats: TransportStats::default(),
            health: IdMap::default(),
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
        self.health.values().filter(|h| h.state != BreakerState::Closed).count() as u64
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
        self.queues.values().map(VecDeque::len).sum()
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
        let mut per_mn: IdMap<Mac, u64> = IdMap::default();
        for o in self.outstanding.values() {
            *per_mn.entry(o.target).or_insert(0) += 1;
        }
        for (mac, cwnd) in &self.cwnds {
            let want = per_mn.get(mac).copied().unwrap_or(0);
            if cwnd.outstanding() != want {
                return Err(format!(
                    "congestion window toward {mac} holds {} slots but {} requests \
                     are outstanding (leaked or double-released cwnd slots)",
                    cwnd.outstanding(),
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

    /// An order-insensitive FNV-1a digest of the transport's **logical**
    /// state: outstanding requests (id, token, target, retry counts,
    /// expected bytes, blueprint shape), queued and parked sends, retry
    /// queues, window slot/byte counts, and the id counter.
    ///
    /// Absolute times (timer deadlines, RTT/gap EWMAs, fractional window
    /// sizes) are deliberately **excluded**: the model checker prunes
    /// states on this digest, and timing-continuous controller state would
    /// make every interleaving hash distinct, defeating pruning. Two
    /// states with equal fingerprints can differ in timing, never in
    /// protocol-visible structure.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut outstanding: Vec<u64> = self
            .outstanding
            .iter()
            .map(|(id, o)| {
                let mut e = fnv_mix(0xcbf2_9ce4_8422_2325, id.0);
                e = fnv_mix(e, o.token.0);
                e = fnv_mix(e, o.target.0 as u64);
                e = fnv_mix(e, o.retries as u64);
                e = fnv_mix(e, o.conflict_retries as u64);
                e = fnv_mix(e, o.expected_bytes);
                fnv_mix(e, blueprint_digest(&o.blueprint))
            })
            .collect();
        outstanding.sort_unstable();
        h = fnv_fold(h, 1, &outstanding);
        let mut queued: Vec<u64> = self
            .queues
            .iter()
            .flat_map(|(mac, q)| {
                q.iter().enumerate().map(move |(i, s)| {
                    let mut e = fnv_mix(0xcbf2_9ce4_8422_2325, mac.0 as u64);
                    e = fnv_mix(e, i as u64); // queue order matters
                    e = fnv_mix(e, s.token.0);
                    fnv_mix(e, blueprint_digest(&s.blueprint))
                })
            })
            .collect();
        queued.sort_unstable();
        h = fnv_fold(h, 2, &queued);
        let mut parked: Vec<u64> = self
            .parked_conflicts
            .iter()
            .map(|(t, o)| fnv_mix(fnv_mix(0xcbf2_9ce4_8422_2325, t.0), o.conflict_retries as u64))
            .collect();
        parked.sort_unstable();
        h = fnv_fold(h, 3, &parked);
        let mut retries: Vec<u64> = self
            .retry_queues
            .iter()
            .flat_map(|(mac, q)| {
                q.iter().map(move |(id, retry_of)| {
                    let mut e = fnv_mix(0xcbf2_9ce4_8422_2325, mac.0 as u64);
                    e = fnv_mix(e, id.0);
                    fnv_mix(e, retry_of.map_or(0, |r| r.0))
                })
            })
            .collect();
        retries.sort_unstable();
        h = fnv_fold(h, 4, &retries);
        let mut windows: Vec<u64> = self
            .cwnds
            .iter()
            .map(|(mac, w)| fnv_mix(fnv_mix(0xcbf2_9ce4_8422_2325, mac.0 as u64), w.outstanding()))
            .collect();
        windows.sort_unstable();
        h = fnv_fold(h, 5, &windows);
        let mut health: Vec<u64> = self
            .health
            .iter()
            .filter(|(_, ph)| ph.state != BreakerState::Closed || ph.consecutive_timeouts != 0)
            .map(|(mac, ph)| {
                let mut e = fnv_mix(0xcbf2_9ce4_8422_2325, mac.0 as u64);
                e = fnv_mix(e, ph.state as u64);
                fnv_mix(e, ph.consecutive_timeouts as u64)
            })
            .collect();
        health.sort_unstable();
        h = fnv_fold(h, 6, &health);
        h = fnv_mix(h, self.iwnd.in_flight());
        h = fnv_mix(h, self.next_req);
        h
    }

    fn batching(&self) -> bool {
        self.cfg.batch_max_ops > 1
    }

    /// The congestion window toward `mn` (created on first use).
    pub fn cwnd(&mut self, mn: Mac) -> &mut CongestionWindow {
        let cfg = &self.cfg;
        self.cwnds.entry(mn).or_insert_with(|| CongestionWindow::new(cfg))
    }

    /// True when the circuit breaker toward `mn` is open (ops fail fast).
    pub fn peer_open(&self, mn: Mac) -> bool {
        self.health.get(&mn).is_some_and(|h| h.state == BreakerState::Open)
    }

    /// Records one attempt-level timeout toward `mn`. Trips the breaker —
    /// Closed at the configured streak, HalfOpen on any timeout — emitting
    /// a `board_down` trace event and scheduling the half-open probe with
    /// seeded jitter (up to a quarter of the backoff) so recovering CNs do
    /// not probe in lockstep. No-op while the breaker is disabled; the
    /// jitter draw only happens on a trip, so disabled runs consume no
    /// randomness.
    fn note_peer_timeout(&mut self, ctx: &mut Ctx<'_>, mn: Mac) {
        if self.cfg.breaker_threshold == 0 {
            return;
        }
        let threshold = self.cfg.breaker_threshold;
        let h = self.health.entry(mn).or_default();
        h.consecutive_timeouts += 1;
        let trip = match h.state {
            BreakerState::Closed => h.consecutive_timeouts >= threshold,
            BreakerState::HalfOpen => true,
            BreakerState::Open => false,
        };
        if trip {
            h.state = BreakerState::Open;
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

    /// Records proof of life from `mn` (a response or a NACK): resets the
    /// timeout streak and closes the breaker, emitting `board_up` when the
    /// peer was previously presumed unhealthy.
    fn note_peer_success(&mut self, now: SimTime, mn: Mac) {
        if self.cfg.breaker_threshold == 0 {
            return;
        }
        if let Some(h) = self.health.get_mut(&mn) {
            let was_unhealthy = h.state != BreakerState::Closed;
            h.consecutive_timeouts = 0;
            h.state = BreakerState::Closed;
            if was_unhealthy {
                self.tracer.event(self.track, "board_up", now);
            }
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
        token: XferToken,
        target: Mac,
        pid: Pid,
        blueprint: Blueprint,
        trace: Option<TraceCtx>,
        done: &mut Vec<XferDone>,
    ) {
        self.note_submission(target, ctx.now());
        self.tracer.stitch(trace, self.track, Stage::Submit, ctx.now());
        let q = QueuedSend { token, pid, blueprint, enqueued_at: ctx.now(), trace };
        self.queues.entry(target).or_default().push_back(q);
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
        requests: Vec<(XferToken, Mac, Pid, Blueprint, Option<TraceCtx>)>,
        done: &mut Vec<XferDone>,
    ) {
        let now = ctx.now();
        let mut targets: Vec<Mac> = Vec::new();
        for (token, target, pid, blueprint, trace) in requests {
            self.note_submission(target, now);
            self.tracer.stitch(trace, self.track, Stage::Submit, now);
            let q = QueuedSend { token, pid, blueprint, enqueued_at: now, trace };
            self.queues.entry(target).or_default().push_back(q);
            if !targets.contains(&target) {
                targets.push(target);
            }
        }
        for target in targets {
            if let Some(ev) = self.doorbells.remove(&target) {
                ctx.cancel(ev);
            }
            self.pump(ctx, nic, target, done);
        }
    }

    /// Feeds the per-MN inter-submission-gap estimate (EWMA, α = 1/4) that
    /// sizes the adaptive doorbell hold.
    fn note_submission(&mut self, target: Mac, now: SimTime) {
        if let Some(prev) = self.last_submit.insert(target, now) {
            let gap = now.since(prev).as_nanos() as f64;
            let ewma = self.submit_gap_ewma.entry(target).or_insert(gap);
            *ewma = 0.75 * *ewma + 0.25 * gap;
        }
    }

    /// The doorbell's latency budget toward `target`: the static override
    /// when one is configured, otherwise a quarter of the congestion
    /// window's smoothed RTT — capped by
    /// [`CLibConfig::DOORBELL_DERIVED_CAP`], and
    /// [`CLibConfig::DOORBELL_FALLBACK_DELAY`] (zero) before the first RTT
    /// sample or after a window reset, so the transport never holds
    /// requests on an unmeasured fabric.
    pub fn doorbell_budget(&self, target: Mac) -> SimDuration {
        match self.cfg.doorbell_max_delay {
            Some(budget) => budget,
            None => self
                .cwnds
                .get(&target)
                .and_then(CongestionWindow::srtt)
                .map(|srtt| (srtt / 4).min(CLibConfig::DOORBELL_DERIVED_CAP))
                .unwrap_or(CLibConfig::DOORBELL_FALLBACK_DELAY),
        }
    }

    /// How long the doorbell toward `target` may hold before pumping: zero
    /// without a latency budget, recent-traffic history, or a full batch;
    /// otherwise the time the observed submission rate needs to fill the
    /// remaining batch slots, capped by the budget.
    fn doorbell_delay(&self, target: Mac) -> SimDuration {
        let budget = self.doorbell_budget(target);
        if budget.is_zero() {
            return SimDuration::ZERO;
        }
        let queued = self.queues.get(&target).map_or(0, VecDeque::len);
        let slots = (self.cfg.batch_max_ops as usize).saturating_sub(queued);
        if slots == 0 {
            return SimDuration::ZERO;
        }
        match self.submit_gap_ewma.get(&target) {
            // Hold only when submissions come faster than the budget —
            // waiting out a sparse stream delays the lone request for
            // nothing (mirrors the MN's egress_hold guard).
            Some(&gap) if gap > 0.0 && gap < budget.as_nanos() as f64 => {
                SimDuration::from_nanos((gap * slots as f64) as u64).min(budget)
            }
            _ => SimDuration::ZERO,
        }
    }

    /// Makes queued requests toward `target` progress: immediately when
    /// batching is off, via the coalescing doorbell when on. A doorbell
    /// already scheduled is left in place unless a full batch is waiting,
    /// in which case it is re-rung to fire now.
    fn kick(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        target: Mac,
        done: &mut Vec<XferDone>,
    ) {
        if self.peer_open(target) {
            // Fail fast synchronously: no doorbell hold for a dead board.
            if let Some(ev) = self.doorbells.remove(&target) {
                ctx.cancel(ev);
            }
            self.pump(ctx, nic, target, done);
            return;
        }
        if !self.batching() {
            self.pump(ctx, nic, target, done);
            return;
        }
        let full =
            self.queues.get(&target).map_or(0, VecDeque::len) >= self.cfg.batch_max_ops as usize;
        if let Some(&ev) = self.doorbells.get(&target) {
            if full {
                ctx.cancel(ev);
                let now_ev =
                    ctx.schedule(SimDuration::ZERO, Message::new(TransportTimer::Pump(target)));
                self.doorbells.insert(target, now_ev);
            }
            return;
        }
        let delay = if full { SimDuration::ZERO } else { self.doorbell_delay(target) };
        let ev = ctx.schedule(delay, Message::new(TransportTimer::Pump(target)));
        self.doorbells.insert(target, ev);
    }

    /// Kicks every queue (after a completion/failure freed window space),
    /// in `Mac` order: each kick may arm a same-instant `Pump` timer, so the
    /// visiting order decides NIC serialization order and must be a function
    /// of the simulation alone, never of table layout.
    fn kick_all(&mut self, ctx: &mut Ctx<'_>, nic: &mut NicPort, done: &mut Vec<XferDone>) {
        let mut macs = std::mem::take(&mut self.kick_scratch);
        macs.clear();
        macs.extend(self.queues.keys().copied());
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
        self.doorbells.remove(&target);
        if self.peer_open(target) {
            if let Some(mut queue) = self.queues.remove(&target) {
                let now = ctx.now();
                for q in queue.drain(..) {
                    self.conflict_generations.remove(&q.token);
                    done.push(XferDone {
                        token: q.token,
                        result: Err(ClioError::Unreachable { mn: target }),
                        rtt: now.since(q.enqueued_at),
                    });
                }
            }
            return;
        }
        let mut pack = self.take_pack();
        loop {
            let now = ctx.now();
            let Some(queue) = self.queues.get_mut(&target) else { break };
            let Some(head) = queue.front() else { break };
            let bytes = head.blueprint.expected_response_bytes();
            let cwnd = self.cwnds.entry(target).or_insert_with(|| CongestionWindow::new(&self.cfg));
            if !cwnd.try_acquire(now) {
                // Paced sub-1 windows need a wake-up; full windows are
                // pumped by the next completion.
                let at = cwnd.next_opportunity(now);
                if at > now {
                    let ev =
                        ctx.schedule(at.since(now), Message::new(TransportTimer::Pump(target)));
                    self.doorbells.insert(target, ev);
                }
                break;
            }
            if !self.iwnd.try_acquire(bytes) {
                self.cwnds.get_mut(&target).expect("just used").on_release();
                break;
            }
            let q = self
                .queues
                .get_mut(&target)
                .expect("checked above")
                .pop_front()
                .expect("checked above");
            let conflict_gen = self.conflict_generations.remove(&q.token).unwrap_or(0);
            self.tracer.stitch(q.trace, self.track, Stage::DoorbellHold, now);
            if self.batching() && q.blueprint.is_batchable() {
                self.transmit_batched(
                    ctx,
                    nic,
                    &mut pack,
                    q.token,
                    target,
                    q.pid,
                    q.blueprint,
                    conflict_gen,
                    q.enqueued_at,
                    q.trace,
                );
            } else {
                // Flush first so the MN still sees requests in send order
                // (fences must not overtake the batch in front of them).
                self.flush_batch(ctx, nic, target, &mut pack);
                self.transmit(
                    ctx,
                    nic,
                    &mut pack.packets,
                    q.token,
                    target,
                    q.pid,
                    q.blueprint,
                    None,
                    0,
                    conflict_gen,
                    q.enqueued_at,
                    q.trace,
                );
            }
        }
        self.flush_batch(ctx, nic, target, &mut pack);
        self.pack = Some(pack);
    }

    /// The pump's packing state: the one a previous pump left, or a fresh
    /// one the first time.
    fn take_pack(&mut self) -> PackScratch {
        self.pack.take().unwrap_or_else(|| PackScratch {
            batch: BatchBuilder::new(
                self.cfg.batch_max_ops as usize,
                self.cfg.batch_max_bytes as usize,
            ),
            traces: Vec::new(),
            packets: Vec::new(),
        })
    }

    /// Adds one single-packet request to the batch under assembly, flushing
    /// first when a budget would be busted. A request too large to share
    /// even an empty batch ships alone. Returns how many wire frames left.
    #[allow(clippy::too_many_arguments)] // a request's header fields travel together
    fn pack_single(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        pack: &mut PackScratch,
        send_start: SimTime,
        target: Mac,
        mut header: ReqHeader,
        body: RequestBody,
    ) -> u64 {
        header.srtt_echo_ns = self.srtt_echo(target);
        let trace = header.trace;
        let entry_wire = codec::request_wire_len(&body);
        let flushed = !pack.batch.fits(entry_wire) && self.flush_batch(ctx, nic, target, pack);
        if pack.batch.fits(entry_wire) {
            pack.batch.push(header, body);
            pack.traces.push(trace);
            return flushed as u64;
        }
        let wire = (entry_wire + ETH_OVERHEAD_BYTES) as u32;
        let pkt = ClioPacket::Request { header, body };
        let tx_end = nic.send_at(ctx, send_start, target, wire, Message::new(pkt));
        self.tracer.stitch(trace, self.track, Stage::Pack, send_start);
        self.tracer.stitch(trace, self.track, Stage::NicSerialize, tx_end);
        flushed as u64 + 1
    }

    /// Registers a batchable request as outstanding and packs its single
    /// packet (see [`Self::pack_single`]).
    #[allow(clippy::too_many_arguments)] // internal sibling of `transmit`
    fn transmit_batched(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        pack: &mut PackScratch,
        token: XferToken,
        target: Mac,
        pid: Pid,
        blueprint: Blueprint,
        conflict_retries: u32,
        first_sent_at: SimTime,
        trace: Option<TraceCtx>,
    ) {
        let req_id = self.fresh_id();
        let body = blueprint.single_body().expect("batchable requests are single-packet");
        let header = ReqHeader { trace, ..ReqHeader::single(req_id, pid) };
        let send_start = ctx.now() + self.cfg.send_overhead;
        self.pack_single(ctx, nic, pack, send_start, target, header, body);
        let timer = ctx.schedule(
            blueprint.timeout(self.cfg.request_timeout),
            Message::new(TransportTimer::Timeout(req_id)),
        );
        let expected_bytes = blueprint.expected_response_bytes();
        self.outstanding.insert(
            req_id,
            Outstanding {
                token,
                target,
                pid,
                blueprint,
                expected_bytes,
                origin: req_id,
                attempt_sent_at: ctx.now(),
                first_sent_at,
                retries: 0,
                conflict_retries,
                timer: Some(timer),
                trace,
            },
        );
    }

    /// Ships the accumulated batch (if any) as one wire frame, stitching
    /// every member's pack + NIC-serialization spans to the frame's actual
    /// transmit window. Returns whether a frame actually left.
    fn flush_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        target: Mac,
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
        let tx_end = nic.send_at(ctx, send_start, target, wire, Message::new(pkt));
        for trace in pack.traces.drain(..) {
            self.tracer.stitch(trace, self.track, Stage::Pack, send_start);
            self.tracer.stitch(trace, self.track, Stage::NicSerialize, tx_end);
        }
        true
    }

    /// Stamps freshly built request packets with the op's trace context and
    /// the CN's current smoothed RTT toward `target` (the srtt echo the MN
    /// derives its egress doorbell budget from). The trace rides in
    /// reserved header bits (zero wire bytes); the echo is always encoded,
    /// tracing on or off, so the wire image never depends on observability.
    fn annotate(&self, packets: &mut [ClioPacket], target: Mac, trace: Option<TraceCtx>) {
        let echo = self.srtt_echo(target);
        for pkt in packets {
            if let ClioPacket::Request { header, .. } = pkt {
                header.trace = trace;
                header.srtt_echo_ns = echo;
            }
        }
    }

    /// The CN's current smoothed RTT toward `target`, as echoed in request
    /// headers (saturating at `u32::MAX` ns; `None` before the first sample).
    fn srtt_echo(&self, target: Mac) -> Option<u32> {
        self.cwnds
            .get(&target)
            .and_then(CongestionWindow::srtt)
            .map(|s| s.as_nanos().min(u32::MAX as u64) as u32)
    }

    #[allow(clippy::too_many_arguments)] // internal send/retry core
    fn transmit(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        packets: &mut Vec<ClioPacket>,
        token: XferToken,
        target: Mac,
        pid: Pid,
        blueprint: Blueprint,
        retry_of: Option<ReqId>,
        retries: u32,
        conflict_retries: u32,
        first_sent_at: SimTime,
        trace: Option<TraceCtx>,
    ) {
        let req_id = self.fresh_id();
        let retry_of = retry_of.filter(|_| blueprint.is_non_idempotent());
        blueprint.build(req_id, retry_of, pid, packets);
        self.annotate(packets, target, trace);
        let send_start = ctx.now() + self.cfg.send_overhead;
        let mut tx_end = send_start;
        for pkt in packets.drain(..) {
            let wire = (codec::wire_len(&pkt) + ETH_OVERHEAD_BYTES) as u32;
            tx_end = tx_end.max(nic.send_at(ctx, send_start, target, wire, Message::new(pkt)));
        }
        self.tracer.stitch(trace, self.track, Stage::Pack, send_start);
        self.tracer.stitch(trace, self.track, Stage::NicSerialize, tx_end);
        let timer = ctx.schedule(
            blueprint.timeout(self.cfg.request_timeout),
            Message::new(TransportTimer::Timeout(req_id)),
        );
        let expected_bytes = blueprint.expected_response_bytes();
        self.outstanding.insert(
            req_id,
            Outstanding {
                token,
                target,
                pid,
                blueprint,
                expected_bytes,
                origin: req_id,
                attempt_sent_at: ctx.now(),
                first_sent_at,
                retries,
                conflict_retries,
                timer: Some(timer),
                trace,
            },
        );
    }

    fn release_windows(&mut self, now: SimTime, o: &Outstanding, rtt: Option<SimDuration>) {
        let cwnd = self.cwnds.entry(o.target).or_insert_with(|| CongestionWindow::new(&self.cfg));
        let moved_bytes = o.expected_bytes + o.blueprint.payload_bytes();
        match rtt {
            Some(rtt) if o.blueprint.is_congestion_signal() => {
                cwnd.on_response_sized(now, rtt, moved_bytes)
            }
            Some(_) => cwnd.on_release(),
            None if o.blueprint.is_congestion_signal() => cwnd.on_timeout(now),
            None => cwnd.on_release(),
        }
        self.iwnd.release(o.expected_bytes);
    }

    /// Releases an outstanding request's window slots without feeding the
    /// congestion controller any signal — used when the request is being
    /// abandoned (cancellation, breaker fail-fast) rather than answered or
    /// lost: the abandonment says nothing about the fabric.
    fn release_windows_neutral(&mut self, o: &Outstanding) {
        let cfg = &self.cfg;
        self.cwnds.entry(o.target).or_insert_with(|| CongestionWindow::new(cfg)).on_release();
        self.iwnd.release(o.expected_bytes);
    }

    /// Cancels every attempt of `token` still owned by the transport:
    /// in-flight requests (timer cancelled, window slots released
    /// neutrally, reassembly state dropped), queued sends, queued
    /// retransmissions, and parked conflicts. Returns whether anything was
    /// actually cancelled; the caller owns reporting the op's completion
    /// (e.g. `DeadlineExceeded`) upward. A response or NACK for a
    /// cancelled id arriving later is dropped by the outstanding-id lookup
    /// like any stale frame.
    pub fn cancel(&mut self, ctx: &mut Ctx<'_>, token: XferToken) -> bool {
        let mut found = false;
        let mut ids: Vec<ReqId> =
            self.outstanding.iter().filter(|(_, o)| o.token == token).map(|(id, _)| *id).collect();
        ids.sort_unstable(); // release attempts oldest-first, whatever the table's layout
        for id in ids {
            let mut o = self.outstanding.remove(&id).expect("collected above");
            if let Some(t) = o.timer.take() {
                ctx.cancel(t);
            }
            self.release_windows_neutral(&o);
            self.reassembler.forget(id);
            found = true;
        }
        // Retry-queue entries for ids that no longer exist must not be
        // rebuilt by the retry pump.
        let outstanding = &self.outstanding;
        for q in self.retry_queues.values_mut() {
            q.retain(|(id, _)| outstanding.contains_key(id));
        }
        for q in self.queues.values_mut() {
            let before = q.len();
            q.retain(|s| s.token != token);
            found |= q.len() != before;
        }
        found |= self.parked_conflicts.remove(&token).is_some();
        self.conflict_generations.remove(&token);
        found
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
    pub fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        pkt: ClioPacket,
        done: &mut Vec<XferDone>,
    ) {
        match pkt {
            ClioPacket::Response { header, body } => {
                if self.handle_response(ctx, header, body, done) {
                    // A completion freed window space: drain every queue.
                    self.kick_all(ctx, nic, done);
                }
            }
            ClioPacket::BatchResp { responses } => {
                // Unbatch at ingress: every entry completes (ids, RTTs,
                // window releases, conflict parking) exactly as if it had
                // arrived in its own frame; only the framing was shared.
                let mut completed = false;
                for (header, body) in responses {
                    completed |= self.handle_response(ctx, header, body, done);
                }
                if completed {
                    // One drain for the whole frame: the first kick arms
                    // the doorbells, further passes would no-op.
                    self.kick_all(ctx, nic, done);
                }
            }
            ClioPacket::Nack { req_id } => {
                if self.handle_nack(ctx, req_id, done) {
                    // The failure freed window space just like a
                    // completion: drain queued requests now instead of
                    // stalling them until an unrelated completion.
                    self.kick_all(ctx, nic, done);
                }
            }
            ClioPacket::BatchNack { req_ids } => {
                // Unbatch the coalesced NACKs of one corrupted batch frame:
                // each entry retries exactly as if its NACK had arrived
                // alone, and because every retry is queued in this same
                // event, the retry doorbell re-coalesces them into shared
                // `Batch` frames — recovery stays at one frame per
                // direction per corrupted frame.
                let mut failed = false;
                for req_id in req_ids {
                    failed |= self.handle_nack(ctx, req_id, done);
                }
                if failed {
                    self.kick_all(ctx, nic, done);
                }
            }
            // CNs never receive requests (batched or not).
            ClioPacket::Request { .. } | ClioPacket::Batch { .. } => {}
        }
    }

    /// Handles one link-layer NACK — shared by plain `Nack` frames and
    /// unbatched `BatchNack` entries. The corrupted request is retried
    /// immediately (no congestion signal; corruption is not loss). Returns
    /// whether the entry *failed* the request (exhausted retries) and so
    /// freed window space the caller should re-drain.
    fn handle_nack(&mut self, ctx: &mut Ctx<'_>, req_id: ReqId, done: &mut Vec<XferDone>) -> bool {
        let Some(mut o) = self.outstanding.remove(&req_id) else {
            return false; // stale/duplicate NACK
        };
        if let Some(t) = o.timer.take() {
            ctx.cancel(t);
        }
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
            if self.mutation != McMutation::LeakWindowOnNack {
                self.release_windows(ctx.now(), &o, None);
            }
            done.push(XferDone {
                token: o.token,
                result: Err(ClioError::TimedOut {
                    op: o.blueprint.kind(),
                    mn: o.target,
                    attempts: o.retries,
                }),
                rtt: ctx.now().since(o.first_sent_at),
            });
            true
        } else {
            o.trace = self.tracer.retry(o.trace, ctx.now());
            // Window slot stays held: this is the same logical request.
            // Hand the slot bookkeeping over by not releasing and queueing
            // the retransmission.
            self.queue_retransmit(ctx, o, req_id);
            false
        }
    }

    /// Completes one response entry — shared by plain `Response` frames and
    /// unbatched `BatchResp` entries. Returns whether the entry finished a
    /// request (and so freed window space the caller should re-drain).
    fn handle_response(
        &mut self,
        ctx: &mut Ctx<'_>,
        header: RespHeader,
        body: ResponseBody,
        done: &mut Vec<XferDone>,
    ) -> bool {
        if !self.outstanding.contains_key(&header.req_id) {
            return false; // stale/duplicate response
        }
        // Multi-packet read responses finish on the last fragment.
        let value = match body {
            ResponseBody::DataFrag { offset, data } => {
                match self.reassembler.accept(header, offset, data) {
                    Some(full) => XferValue::Data(full),
                    None => return false,
                }
            }
            ResponseBody::Done => XferValue::Done,
            ResponseBody::Alloced { va } => XferValue::Va(va),
            ResponseBody::AtomicOld { old } => XferValue::Old(old),
            ResponseBody::OffloadReply { data } => XferValue::Data(data),
        };
        let o = self.outstanding.remove(&header.req_id).expect("checked");
        if let Some(t) = o.timer {
            ctx.cancel(t);
        }
        let now = ctx.now();
        self.note_peer_success(now, o.target);
        // Response wire time: from the MN's last stitch (egress NIC
        // serialization) to delivery here. For multi-fragment reads this
        // covers the whole reassembly window, attributed once on
        // completion of the final fragment.
        self.tracer.stitch(o.trace, Track::Wire, Stage::Wire, now);
        let rtt = now.since(o.attempt_sent_at);
        self.release_windows(now, &o, Some(rtt));
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
                    done.push(XferDone {
                        token: o.token,
                        result: Err(ClioError::Remote(Status::Conflict)),
                        rtt: now.since(o.first_sent_at),
                    });
                } else {
                    let backoff =
                        self.cfg.conflict_backoff * (1 + o.conflict_retries.min(16) as u64);
                    ctx.schedule(backoff, Message::new(TransportTimer::ConflictRetry(o.token)));
                    self.parked_conflicts.insert(o.token, o);
                }
            }
            status => {
                done.push(XferDone {
                    token: o.token,
                    result: Err(ClioError::from(status)),
                    rtt: now.since(o.first_sent_at),
                });
            }
        }
        true
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
        let retry_of = o.blueprint.is_non_idempotent().then_some(o.origin);
        let timer = ctx.schedule(
            o.blueprint.timeout(self.cfg.request_timeout),
            Message::new(TransportTimer::Timeout(new_id)),
        );
        self.reassembler.forget(prev_id);
        let target = o.target;
        self.outstanding
            .insert(new_id, Outstanding { attempt_sent_at: ctx.now(), timer: Some(timer), ..o });
        self.retry_queues.entry(target).or_default().push((new_id, retry_of));
        if self.retry_doorbells.insert(target) {
            ctx.schedule(SimDuration::ZERO, Message::new(TransportTimer::RetryPump(target)));
        }
    }

    /// Ships queued retransmissions toward `target`, packing batchable
    /// single-packet retries into shared frames. With the breaker open
    /// (tripped between queueing and this pump by a same-instant timer),
    /// the queued retries fail fast instead: slots released neutrally,
    /// `Unreachable` reported.
    fn retry_pump(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        target: Mac,
        done: &mut Vec<XferDone>,
    ) {
        self.retry_doorbells.remove(&target);
        let Some(entries) = self.retry_queues.remove(&target) else { return };
        if self.peer_open(target) {
            let now = ctx.now();
            for (req_id, _) in entries {
                let Some(mut o) = self.outstanding.remove(&req_id) else { continue };
                if let Some(t) = o.timer.take() {
                    ctx.cancel(t);
                }
                self.release_windows_neutral(&o);
                done.push(XferDone {
                    token: o.token,
                    result: Err(ClioError::Unreachable { mn: target }),
                    rtt: now.since(o.first_sent_at),
                });
            }
            return;
        }
        let mut pack = self.take_pack();
        let send_start = ctx.now() + self.cfg.send_overhead;
        for (req_id, retry_of) in entries {
            // A retry can only vanish between queue and pump if its own
            // timer fired first; the timeout path re-queues it.
            let Some(o) = self.outstanding.get(&req_id) else { continue };
            let (trace, pid) = (o.trace, o.pid);
            self.tracer.stitch(trace, self.track, Stage::RetryDoorbell, ctx.now());
            let single = o.blueprint.single_body().filter(|_| o.blueprint.is_batchable());
            if let (Some(body), true) = (single, self.batching()) {
                let header = ReqHeader { retry_of, trace, ..ReqHeader::single(req_id, pid) };
                let frames =
                    self.pack_single(ctx, nic, &mut pack, send_start, target, header, body);
                self.stats.retry_frames += frames;
            } else {
                // Multi-packet or unbatchable retries flush the batch ahead
                // of them (send order) and travel alone.
                o.blueprint.build(req_id, retry_of, pid, &mut pack.packets);
                if self.flush_batch(ctx, nic, target, &mut pack) {
                    self.stats.retry_frames += 1;
                }
                self.annotate(&mut pack.packets, target, trace);
                let mut tx_end = send_start;
                for pkt in pack.packets.drain(..) {
                    let wire = (codec::wire_len(&pkt) + ETH_OVERHEAD_BYTES) as u32;
                    tx_end =
                        tx_end.max(nic.send_at(ctx, send_start, target, wire, Message::new(pkt)));
                    self.stats.retry_frames += 1;
                }
                self.tracer.stitch(trace, self.track, Stage::Pack, send_start);
                self.tracer.stitch(trace, self.track, Stage::NicSerialize, tx_end);
            }
        }
        if self.flush_batch(ctx, nic, target, &mut pack) {
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
            TransportTimer::Timeout(req_id) => {
                let Some(mut o) = self.outstanding.remove(&req_id) else {
                    return; // completed already
                };
                o.timer = None;
                self.stats.retries += 1;
                o.retries += 1;
                let now = ctx.now();
                // The lost attempt left no response to attribute; the wait
                // span from its last stitch to the timer firing absorbs the
                // whole silent interval.
                self.tracer.stitch(o.trace, self.track, Stage::TimeoutWait, now);
                self.note_peer_timeout(ctx, o.target);
                if self.peer_open(o.target) {
                    // The breaker just tripped (or was already open): give
                    // up on this op now instead of burning more retries
                    // against a board presumed dead.
                    self.release_windows(now, &o, None);
                    done.push(XferDone {
                        token: o.token,
                        result: Err(ClioError::Unreachable { mn: o.target }),
                        rtt: now.since(o.first_sent_at),
                    });
                    self.kick_all(ctx, nic, done);
                } else if o.retries > self.cfg.max_retries {
                    self.release_windows(now, &o, None);
                    done.push(XferDone {
                        token: o.token,
                        result: Err(ClioError::TimedOut {
                            op: o.blueprint.kind(),
                            mn: o.target,
                            attempts: o.retries,
                        }),
                        rtt: now.since(o.first_sent_at),
                    });
                    self.kick_all(ctx, nic, done);
                } else {
                    o.trace = self.tracer.retry(o.trace, now);
                    // Timeout is a congestion signal; shrink but keep the
                    // slot for the retransmission (same logical request).
                    let cfg = &self.cfg;
                    let cwnd =
                        self.cwnds.entry(o.target).or_insert_with(|| CongestionWindow::new(cfg));
                    cwnd.on_congestion(now);
                    self.queue_retransmit(ctx, o, req_id);
                }
            }
            TransportTimer::Pump(mac) => self.pump(ctx, nic, mac, done),
            TransportTimer::RetryPump(mac) => self.retry_pump(ctx, nic, mac, done),
            TransportTimer::BreakerProbe(mac) => {
                if let Some(h) = self.health.get_mut(&mac) {
                    if h.state == BreakerState::Open {
                        // Half-open: queued ops flow again as probes. The
                        // gauge stays up — the peer is not healthy until a
                        // probe actually completes.
                        h.state = BreakerState::HalfOpen;
                        self.kick(ctx, nic, mac, done);
                    }
                }
            }
            TransportTimer::ConflictRetry(token) => {
                if let Some(o) = self.parked_conflicts.remove(&token) {
                    // Rejoin the send queue (at the front: it is the oldest
                    // logical request) so window accounting stays uniform.
                    let target = o.target;
                    self.tracer.stitch(o.trace, self.track, Stage::ConflictBackoff, ctx.now());
                    self.queues.entry(target).or_default().push_front(QueuedSend {
                        token: o.token,
                        pid: o.pid,
                        blueprint: o.blueprint,
                        enqueued_at: o.first_sent_at,
                        trace: o.trace,
                    });
                    self.conflict_generations.insert(o.token, o.conflict_retries + 1);
                    self.kick(ctx, nic, target, done);
                }
            }
        }
    }
}
