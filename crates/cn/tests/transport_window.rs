//! Property test: transport window accounting is conserved.
//!
//! A scripted memory node answers each request with an arbitrary
//! (proptest-chosen) fate — success, remote error (`PermDenied`, or a
//! `Conflict` refusal, which the transport completes like any other),
//! link-layer NACK, or silence (forcing a timeout) — and the test asserts
//! that once every submitted request has completed or failed, all three
//! window accounts drain to zero: transport `outstanding`, the congestion
//! window's in-flight count, and the incast window's in-flight bytes. Runs
//! with batching both off and on, so batched sends share the invariant;
//! when several entries of one batch frame draw the NACK fate, their NACKs
//! travel coalesced as a `BatchNack`, covering the batched error path too.
//!
//! Also pins the doorbell budget end to end through
//! `Transport::doorbell_budget` (the rule's clauses are unit-tested beside
//! `clio_net::Doorbell`): derived from the congestion window's smoothed RTT
//! (≤ srtt/4), never above the cap, zero before the first RTT sample, and
//! forgotten on `CongestionWindow::reset`. And the release-then-drain rule:
//! a cancelled op must not strand the sends queued behind its window slot.

use bytes::Bytes;
use clio_cn::config::CLibConfig;
use clio_cn::transport::{Transport, TransportTimer, XferDone};
use clio_cn::{Op, OpToken};
use clio_net::{Frame, Mac, NicPort};
use clio_proto::{
    codec, ClioPacket, ReqHeader, ReqId, RequestBody, RespHeader, ResponseBody, Status,
    ETH_OVERHEAD_BYTES,
};
use clio_sim::{Actor, ActorId, Bandwidth, Ctx, Message, SimDuration, Simulation};
use proptest::prelude::*;

const CN_MAC: Mac = Mac(1);
const MN_MAC: Mac = Mac(2);

/// What the scripted MN does with one received request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Ok,
    Error,
    Conflict,
    Nack,
    Drop,
}

impl Fate {
    fn from_byte(b: u8) -> Self {
        match b % 5 {
            0 => Fate::Ok,
            1 => Fate::Error,
            2 => Fate::Conflict,
            3 => Fate::Nack,
            _ => Fate::Drop,
        }
    }
}

/// Kick-off message carrying the workload; tokens are numbered from
/// `base` so a test can post several bursts without token collisions.
#[derive(Clone)]
struct Go {
    ops: Vec<Op>,
    base: u64,
}

/// Withdraws every attempt of one token, as a deadline's canceller would.
#[derive(Clone)]
struct Cancel(OpToken);

/// CN host driving a bare `Transport`.
struct Host {
    nic: NicPort,
    transport: Transport,
    done: Vec<XferDone>,
}

impl Actor for Host {
    fn name(&self) -> &str {
        "host"
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let msg = match msg.downcast::<Go>() {
            Ok(go) => {
                for (i, op) in go.ops.into_iter().enumerate() {
                    self.transport.send(
                        ctx,
                        &mut self.nic,
                        OpToken(go.base + i as u64),
                        MN_MAC,
                        clio_proto::Pid(7),
                        op,
                        None,
                    );
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Cancel>() {
            Ok(Cancel(token)) => {
                self.transport.cancel(ctx, &mut self.nic, token);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Frame>() {
            Ok(f) => {
                let pkt = f.payload.downcast::<ClioPacket>().expect("clio packet");
                self.transport.on_packet(ctx, &mut self.nic, pkt, &mut self.done);
                return;
            }
            Err(m) => m,
        };
        let timer = msg.downcast::<TransportTimer>().expect("transport timer");
        self.transport.on_timer(ctx, &mut self.nic, timer, &mut self.done);
    }
}

/// The scripted MN; doubles as the CN NIC's "switch" so frames arrive here
/// directly.
struct ScriptedMn {
    cn: Option<ActorId>,
    script: Vec<Fate>,
    next: usize,
}

impl ScriptedMn {
    fn fate(&mut self) -> Fate {
        let f = self.script.get(self.next).copied().unwrap_or(Fate::Ok);
        self.next += 1;
        f
    }

    fn reply(&self, ctx: &mut Ctx<'_>, pkt: ClioPacket) {
        let wire = (codec::wire_len(&pkt) + ETH_OVERHEAD_BYTES) as u32;
        let frame = Frame::new(MN_MAC, CN_MAC, wire, Message::new(pkt));
        ctx.send(self.cn.expect("wired up"), SimDuration::from_micros(1), Message::new(frame));
    }

    /// Serves one request; NACK fates are returned to the caller instead of
    /// being sent, so the entries of one batch frame can coalesce into a
    /// single `BatchNack` (mirroring the board's corrupted-frame path).
    fn serve(&mut self, ctx: &mut Ctx<'_>, header: ReqHeader, body: RequestBody) -> Option<ReqId> {
        match self.fate() {
            Fate::Ok => {
                let resp = match &body {
                    RequestBody::Read { len, .. } => ResponseBody::DataFrag {
                        offset: 0,
                        data: Bytes::from(vec![0u8; *len as usize]),
                    },
                    RequestBody::AtomicTas { .. }
                    | RequestBody::AtomicStore { .. }
                    | RequestBody::AtomicCas { .. }
                    | RequestBody::AtomicFaa { .. } => ResponseBody::AtomicOld { old: 0 },
                    _ => ResponseBody::Done,
                };
                self.reply(
                    ctx,
                    ClioPacket::Response {
                        header: RespHeader::single(header.req_id, Status::Ok),
                        body: resp,
                    },
                );
            }
            Fate::Error => self.reply(
                ctx,
                ClioPacket::Response {
                    header: RespHeader::single(header.req_id, Status::PermDenied),
                    body: ResponseBody::Done,
                },
            ),
            Fate::Conflict => self.reply(
                ctx,
                ClioPacket::Response {
                    header: RespHeader::single(header.req_id, Status::Conflict),
                    body: ResponseBody::Done,
                },
            ),
            Fate::Nack => return Some(header.req_id),
            Fate::Drop => {}
        }
        None
    }
}

impl Actor for ScriptedMn {
    fn name(&self) -> &str {
        "scripted-mn"
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let frame = msg.downcast::<Frame>().expect("frame");
        match frame.payload.downcast::<ClioPacket>().expect("clio packet") {
            ClioPacket::Request { header, body } => {
                if let Some(req_id) = self.serve(ctx, header, body) {
                    self.reply(ctx, ClioPacket::Nack { req_id });
                }
            }
            ClioPacket::Batch { requests } => {
                // NACK-fated entries of one frame ship as one BatchNack,
                // like the board's corrupted-batch path.
                let mut nacked = Vec::new();
                for (header, body) in requests {
                    if let Some(req_id) = self.serve(ctx, header, body) {
                        nacked.push(req_id);
                    }
                }
                match nacked.len() {
                    0 => {}
                    1 => self.reply(ctx, ClioPacket::Nack { req_id: nacked[0] }),
                    _ => self.reply(ctx, ClioPacket::BatchNack { req_ids: nacked }),
                }
            }
            other => panic!("MN got {other:?}"),
        }
    }
}

fn op_of(kind: u8) -> Op {
    match kind % 3 {
        0 => Op::Read { va: 0x1000 + kind as u64 * 64, len: 8 },
        1 => Op::Write { va: 0x2000 + kind as u64 * 64, data: Bytes::from(vec![kind; 8]) },
        _ => Op::Faa { va: 0x3000 + kind as u64 * 8, delta: 1 },
    }
}

/// A bare transport wired to a scripted MN; returns the CN host's id.
fn rig(cfg: CLibConfig, seed: u64, script: Vec<Fate>) -> (Simulation, ActorId) {
    let mut sim = Simulation::new(seed);
    let mn_id = sim.add_actor(ScriptedMn { cn: None, script, next: 0 });
    let nic = NicPort::new(CN_MAC, Bandwidth::from_gbps(40), mn_id, SimDuration::from_nanos(50));
    let cn_id = sim.add_actor(Host { nic, transport: Transport::new(cfg, 1), done: vec![] });
    sim.actor_mut::<ScriptedMn>(mn_id).cn = Some(cn_id);
    (sim, cn_id)
}

fn run_case(op_kinds: &[u8], script: &[u8], batch_max_ops: u32, seed: u64) {
    let cfg = CLibConfig {
        // Tight windows so the queue, pacing, and incast paths all engage.
        cwnd_init: 2.0,
        cwnd_max: 4.0,
        iwnd_bytes: 256,
        request_timeout: SimDuration::from_micros(20),
        max_retries: 2,
        batch_max_ops,
        ..CLibConfig::prototype()
    };
    let script = script.iter().map(|&b| Fate::from_byte(b)).collect();
    let (mut sim, cn_id) = rig(cfg, seed, script);

    let ops: Vec<Op> = op_kinds.iter().map(|&k| op_of(k)).collect();
    let n = ops.len();
    sim.post(cn_id, Message::new(Go { ops, base: 0 }));
    sim.run_until_idle();

    let host = sim.actor_mut::<Host>(cn_id);
    assert_eq!(host.done.len(), n, "every request completes exactly once");
    let mut tokens: Vec<u64> = host.done.iter().map(|d| d.token.0).collect();
    tokens.sort_unstable();
    assert_eq!(tokens, (0..n as u64).collect::<Vec<_>>(), "token set mismatch");
    assert_eq!(host.transport.in_flight(), 0, "outstanding not drained");
    assert_eq!(host.transport.queued(), 0, "send queue not drained");
    assert_eq!(host.transport.incast_in_flight(), 0, "incast bytes leaked");
    assert_eq!(host.transport.cwnd(MN_MAC).outstanding(), 0, "cwnd slots leaked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_accounting_conserved_across_interleavings(
        op_kinds in proptest::collection::vec(any::<u8>(), 1..20),
        script in proptest::collection::vec(any::<u8>(), 0..120),
        batched in any::<bool>(),
        seed in 1u64..1000,
    ) {
        run_case(&op_kinds, &script, if batched { 8 } else { 1 }, seed);
    }
}

// ---------------------------------------------------------------------
// RTT-derived doorbell budget
// ---------------------------------------------------------------------

use clio_sim::{SimDuration as D, SimTime};

/// Drives a bare transport's congestion window with synthetic RTT samples
/// and checks every clause of the derivation contract.
#[test]
fn rtt_derived_budget_caps_falls_back_and_resets() {
    let mut t = Transport::new(CLibConfig::prototype(), 1);

    // Before any RTT sample: zero — never hold blind.
    assert_eq!(t.doorbell_budget(MN_MAC), D::ZERO);

    // One 8 µs response: srtt = 8 µs, budget = srtt/4 = 2 µs (< cap).
    let now = SimTime::from_nanos(1000);
    assert!(t.cwnd(MN_MAC).try_acquire(now));
    t.cwnd(MN_MAC).on_response(now, D::from_micros(8));
    assert_eq!(t.cwnd(MN_MAC).srtt(), Some(D::from_micros(8)));
    assert_eq!(t.doorbell_budget(MN_MAC), D::from_micros(2));

    // Hammer huge RTTs: srtt grows, but the budget never exceeds the cap.
    for i in 0..64u64 {
        let at = SimTime::from_nanos(10_000 + i * 1000);
        if t.cwnd(MN_MAC).try_acquire(at) {
            t.cwnd(MN_MAC).on_response(at, D::from_micros(400));
        }
    }
    let srtt = t.cwnd(MN_MAC).srtt().expect("warmed up");
    assert!(srtt / 4 > CLibConfig::DOORBELL_DERIVED_CAP, "srtt grew past the cap threshold");
    assert_eq!(t.doorbell_budget(MN_MAC), CLibConfig::DOORBELL_DERIVED_CAP);
}

/// End to end: after real traffic against the scripted MN (all-Ok fates)
/// the hold budget is derived from the measured RTT and stays at or under
/// srtt/4.
#[test]
fn doorbell_budget_derives_from_measured_rtt_after_warmup() {
    let (mut sim, cn_id) = rig(CLibConfig::prototype(), 11, vec![]);
    let ops: Vec<Op> = (0..24).map(|k| op_of(k as u8)).collect();
    sim.post(cn_id, Message::new(Go { ops, base: 0 }));
    sim.run_until_idle();
    let host = sim.actor_mut::<Host>(cn_id);
    assert_eq!(host.done.len(), 24, "warm-up traffic completed");
    let srtt = host.transport.cwnd(MN_MAC).srtt().expect("RTT measured");
    let budget = host.transport.doorbell_budget(MN_MAC);
    assert!(!budget.is_zero(), "warmed-up derived budget engages");
    assert!(budget <= srtt / 4, "hold budget {budget} exceeds srtt/4 ({})", srtt / 4);
    assert!(budget <= CLibConfig::DOORBELL_DERIVED_CAP);
    assert_eq!(budget, (srtt / 4).min(CLibConfig::DOORBELL_DERIVED_CAP));
}

// ---------------------------------------------------------------------
// Retry-timer hygiene (§ failure model)
// ---------------------------------------------------------------------

use clio_cn::ClioError;

fn lossy_rig(cfg: CLibConfig, seed: u64) -> (Simulation, ActorId) {
    // Every request is silently dropped: `loss_prob = 1.0` toward this MN.
    rig(cfg, seed, vec![Fate::Drop; 4096])
}

/// Regression: `cancel` releases the cancelled attempts' window slots, and
/// like every release it must drain the send queues before returning. With
/// a window of one, op 1 waits behind op 0; cancelling op 0 mid-flight
/// frees the slot, but op 0's late response is dropped as stale and a
/// queued send owns no timer — so without the drain nothing would ever
/// revisit op 1 and an op *without* a deadline would hang forever behind
/// one *with* a deadline. Batching on and off alike.
#[test]
fn cancel_drains_the_sends_queued_behind_the_freed_slot() {
    for batch_max_ops in [1, 16] {
        let cfg =
            CLibConfig { cwnd_init: 1.0, cwnd_max: 1.0, batch_max_ops, ..CLibConfig::prototype() };
        let (mut sim, cn_id) = rig(cfg, 3, vec![]); // every request answered Ok after 1 µs
        sim.post(cn_id, Message::new(Go { ops: vec![op_of(0), op_of(0)], base: 0 }));
        sim.post_in(cn_id, SimDuration::from_nanos(500), Message::new(Cancel(OpToken(0))));
        sim.run_until_idle();

        let host = sim.actor_mut::<Host>(cn_id);
        // The canceller owns reporting op 0; the transport reports op 1.
        assert_eq!(host.done.len(), 1, "batch_max_ops={batch_max_ops}: op 1 never completed");
        assert_eq!(host.done[0].token, OpToken(1));
        assert!(host.done[0].result.is_ok(), "op 1 failed: {:?}", host.done[0].result);
        assert_eq!(host.transport.in_flight(), 0, "outstanding not drained");
        assert_eq!(host.transport.queued(), 0, "op 1 stranded in the send queue");
        assert_eq!(host.transport.incast_in_flight(), 0, "incast bytes leaked");
        assert_eq!(host.transport.cwnd(MN_MAC).outstanding(), 0, "cwnd slots leaked");
        host.transport.check_invariants().expect("window accounting after cancel");
    }
}

/// Retry-timer hygiene: a burst into total loss must exhaust each op's
/// retry budget *exactly* — every op fails with `TimedOut` after
/// `max_retries + 1` attempts, no orphaned `Timeout` timer fires a fourth
/// attempt, no window slot leaks, and virtual time stays bounded by the
/// retry budget rather than running away on stray timers.
#[test]
fn total_loss_burst_exhausts_retries_exactly_and_leaks_nothing() {
    let cfg = CLibConfig {
        request_timeout: SimDuration::from_micros(20),
        max_retries: 2,
        ..CLibConfig::prototype()
    };
    let max_retries = cfg.max_retries;
    let (mut sim, cn_id) = lossy_rig(cfg, 77);
    let n = 12usize;
    let ops: Vec<Op> = (0..n).map(|k| op_of(k as u8)).collect();
    sim.post(cn_id, Message::new(Go { ops: ops.clone(), base: 0 }));
    sim.run_until_idle();

    let end = sim.now();
    let host = sim.actor_mut::<Host>(cn_id);
    assert_eq!(host.done.len(), n, "every op must terminate");
    for d in &host.done {
        let Err(ClioError::TimedOut { op, mn, attempts }) = &d.result else {
            panic!("total loss must end in TimedOut, got {:?}", d.result);
        };
        assert_eq!(*op, ops[d.token.0 as usize].kind(), "TimedOut names the op's kind");
        assert_eq!(*mn, MN_MAC);
        assert_eq!(
            *attempts,
            max_retries + 1,
            "{op} burned a wrong number of attempts (orphaned or missing timer)"
        );
    }
    // Exactly one timer fired per attempt: any orphaned Timeout event
    // surviving its request would inflate this count.
    assert_eq!(
        host.transport.stats().retries,
        n as u64 * (max_retries + 1) as u64,
        "timer fired for a request no longer outstanding"
    );
    assert_eq!(host.transport.in_flight(), 0, "outstanding not drained");
    assert_eq!(host.transport.queued(), 0, "send queue not drained");
    assert_eq!(host.transport.incast_in_flight(), 0, "incast bytes leaked");
    host.transport.check_invariants().expect("window accounting after total loss");
    // Bounded by the retry budget (generous slack for window pacing):
    // leaked timers would keep pushing `now` far past this.
    assert!(
        end <= SimTime::from_nanos(1_000_000),
        "total-loss burst ran to {end}, expected well under 1 ms"
    );
}
