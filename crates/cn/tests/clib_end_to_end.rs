//! CLib ↔ CBoard integration: the full CN software stack against a real
//! memory node over the simulated fabric, including loss/corruption retries,
//! ordering, and lock-based mutual exclusion across compute nodes. The
//! `Conflict` policy (CLib backs off and re-issues a refused op) runs
//! against a scripted board that refuses the first requests it sees. Every
//! re-issue — a lock spin, a `Conflict` backoff, a `Moved` re-route — ends
//! at `CLibConfig::REISSUE_HORIZON`; the `reissue_horizon_*` tests bound
//! their runs with `run_for`, as an unbounded re-issue would never idle.

use bytes::Bytes;
use clio_cn::{
    CLib, CLibConfig, ClioError, Completion, CompletionValue, Notice, Op, OpToken, Route, ThreadId,
};
use clio_mn::{CBoard, CBoardConfig};
use clio_net::{FaultInjector, Frame, Mac, Network, NetworkConfig, NicPort};
use clio_proto::{
    codec, ClioPacket, Perm, Pid, RequestBody, RespHeader, ResponseBody, Status, ETH_OVERHEAD_BYTES,
};
use clio_sim::{Actor, ActorId, Bandwidth, Ctx, Message, SimDuration, SimTime, Simulation};

/// Instruction to a CN host to submit an op.
#[derive(Clone)]
struct Submit {
    thread: ThreadId,
    op: Op,
}

/// Instruction to a CN host to cancel a pending op, as a deadline would.
#[derive(Clone)]
struct Cancel(OpToken);

/// A CN host actor embedding CLib.
struct CnHost {
    nic: NicPort,
    clib: CLib,
    /// The one board every op of the rig is addressed to; `None`: CLib
    /// routes every op, and the host answers each re-route as a stale
    /// controller would, with the board that refused it.
    mn: Option<Mac>,
    completions: Vec<Completion>,
}

/// The one process every op of the rig runs as.
const PID: Pid = Pid(7);

impl CnHost {
    /// Keeps `c`, after answering every re-route CLib raised with
    /// `SCRIPTED_MN`, the only board a routed host's rig has.
    fn absorb(&mut self, ctx: &mut Ctx<'_>, mut c: Vec<Completion>) {
        let notices: Vec<Notice> = self.clib.notices().collect();
        for notice in notices {
            let Notice::Reroute(token, ..) = notice else { panic!("unexpected {notice:?}") };
            self.clib.place(ctx, token, Route::Owned(SCRIPTED_MN), &mut c);
        }
        self.completions.append(&mut c);
    }
}

impl Actor for CnHost {
    fn name(&self) -> &str {
        "cn-host"
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let msg = match msg.downcast::<Submit>() {
            Ok(s) => {
                let mut comps = Vec::new();
                self.clib.submit(ctx, s.thread, self.mn, PID, ctx.now(), s.op, &mut comps);
                self.absorb(ctx, comps);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Cancel>() {
            Ok(Cancel(token)) => {
                let mut comps = Vec::new();
                assert!(self.clib.cancel(ctx, token, &mut comps), "not pending");
                self.absorb(ctx, comps);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Frame>() {
            Ok(f) => {
                let mut comps = Vec::new();
                self.clib.on_frame(ctx, f, &mut comps);
                self.absorb(ctx, comps);
                return;
            }
            Err(m) => m,
        };
        let mut comps = Vec::new();
        let leftover = self.clib.on_timer(ctx, &mut self.nic, msg, &mut comps);
        assert!(leftover.is_none(), "unexpected message at CN host");
        self.absorb(ctx, comps);
    }
}

struct Rig {
    sim: Simulation,
    net: Network,
    board_mac: Mac,
    board: ActorId,
    cn: ActorId,
}

fn rig_with(cfg: CBoardConfig, clib_cfg: CLibConfig) -> Rig {
    let mut sim = Simulation::new(11);
    let mut net = Network::new(&mut sim, NetworkConfig::default());
    let page = cfg.hw.page_size;

    let bport = net.create_port(Bandwidth::from_gbps(10));
    let board_mac = bport.mac();
    let board = sim.add_actor(CBoard::new("mn0", cfg, bport));
    net.attach(&mut sim, board_mac, board);

    let cport = net.create_port(Bandwidth::from_gbps(40));
    let cmac = cport.mac();
    let cn = sim.add_actor(CnHost {
        nic: cport,
        clib: CLib::new(clib_cfg, 1, page, Vec::new()),
        mn: Some(board_mac),
        completions: vec![],
    });
    net.attach(&mut sim, cmac, cn);

    Rig { sim, net, board_mac, board, cn }
}

fn rig() -> Rig {
    rig_with(CBoardConfig::test_small(), CLibConfig::default())
}

impl Rig {
    fn submit(&mut self, thread: u64, op: Op) {
        self.sim.post(self.cn, Message::new(Submit { thread: ThreadId(thread), op }));
        self.sim.run_until_idle();
    }

    fn submit_nowait(&mut self, thread: u64, op: Op) {
        self.sim.post(self.cn, Message::new(Submit { thread: ThreadId(thread), op }));
    }

    fn completions(&self) -> &[Completion] {
        &self.sim.actor::<CnHost>(self.cn).completions
    }

    fn last_ok(&self) -> &CompletionValue {
        match &self.completions().last().expect("completion").result {
            Ok(v) => v,
            Err(e) => panic!("operation failed: {e}"),
        }
    }

    fn alloc(&mut self, size: u64) -> u64 {
        self.submit(0, Op::Alloc { size, perm: Perm::RW });
        match self.last_ok() {
            CompletionValue::Va(va) => *va,
            other => panic!("expected va, got {other:?}"),
        }
    }
}

#[test]
fn clib_alloc_write_read_roundtrip() {
    let mut r = rig();
    let va = r.alloc(8192);
    r.submit(0, Op::Write { va, data: Bytes::from_static(b"through clib") });
    r.submit(0, Op::Read { va, len: 12 });
    match r.last_ok() {
        CompletionValue::Data(d) => assert_eq!(&d[..], b"through clib"),
        other => panic!("expected data, got {other:?}"),
    }
    // End-to-end latency of the warm read is paper-scale (µs, not ms).
    let c = r.completions().last().unwrap();
    let lat = c.completed_at.since(c.issued_at);
    assert!(
        lat >= SimDuration::from_nanos(1500) && lat <= SimDuration::from_micros(5),
        "warm 12B read latency {lat}"
    );
}

/// A span ending past the top of the address space reaches the board,
/// which names no such memory; CLib's page bookkeeping must not overflow on
/// the way there.
#[test]
fn a_read_ending_past_the_top_of_the_address_space_is_invalid_addr() {
    let mut r = rig();
    r.alloc(4096);
    r.submit(0, Op::Read { va: u64::MAX - 3, len: 16 });
    let last = r.completions().last().expect("completion");
    assert_eq!(last.result, Err(ClioError::Remote(Status::InvalidAddr)));
}

#[test]
fn dependent_async_ops_execute_in_order() {
    let mut r = rig();
    let va = r.alloc(4096);
    // Submit a dependent chain without draining the simulator in between:
    // write A, overwrite B (WAW), read (RAW) — all to the same page.
    r.submit_nowait(0, Op::Write { va, data: Bytes::from_static(b"AAAA") });
    r.submit_nowait(0, Op::Write { va, data: Bytes::from_static(b"BBBB") });
    r.submit_nowait(0, Op::Read { va, len: 4 });
    r.sim.run_until_idle();
    match r.last_ok() {
        CompletionValue::Data(d) => assert_eq!(&d[..], b"BBBB", "read saw the last write"),
        other => panic!("expected data, got {other:?}"),
    }
    // Completions happened in program order.
    let tokens: Vec<OpToken> = r.completions().iter().map(|c| c.token).collect();
    let mut sorted = tokens.clone();
    sorted.sort();
    assert_eq!(tokens, sorted, "dependent ops completed out of order");
}

#[test]
fn independent_async_ops_overlap() {
    let mut r = rig();
    let va = r.alloc(64 << 10);
    // Warm both pages.
    r.submit(0, Op::Write { va, data: Bytes::from(vec![0u8; 1]) });
    r.submit(0, Op::Write { va: va + 8192, data: Bytes::from(vec![0u8; 1]) });
    let t0 = r.sim.now();
    r.submit_nowait(0, Op::Write { va, data: Bytes::from(vec![1u8; 64]) });
    r.submit_nowait(0, Op::Write { va: va + 8192, data: Bytes::from(vec![2u8; 64]) });
    r.sim.run_until_idle();
    let finish_times: Vec<_> = r
        .completions()
        .iter()
        .filter(|c| c.issued_at >= t0)
        .map(|c| c.completed_at.since(c.issued_at))
        .collect();
    assert_eq!(finish_times.len(), 2);
    // Overlapping (pipelined) ops: the pair completes well before two full
    // serial RTTs.
    let serial_estimate = finish_times[0] + finish_times[0];
    let total = r.sim.now().since(t0);
    assert!(total < serial_estimate, "independent writes did not overlap: {total}");
}

#[test]
fn release_completes_after_all_inflight() {
    let mut r = rig();
    let va = r.alloc(4096);
    r.submit_nowait(0, Op::Write { va, data: Bytes::from(vec![9u8; 2000]) });
    r.submit_nowait(0, Op::Release);
    r.sim.run_until_idle();
    let comps = r.completions();
    let write_done =
        comps.iter().find(|c| matches!(c.result, Ok(CompletionValue::Done))).expect("write");
    let release = comps.last().expect("release");
    assert!(release.completed_at >= write_done.completed_at);
}

#[test]
fn loss_is_recovered_by_request_level_retry() {
    let mut r = rig_with(CBoardConfig::test_small(), CLibConfig::default());
    let va = r.alloc(8192);
    // 20% loss toward the board.
    r.net.set_faults(
        &mut r.sim,
        r.board_mac,
        FaultInjector { loss_prob: 0.2, ..FaultInjector::none() },
    );
    for i in 0..50u64 {
        r.submit(0, Op::Write { va: va + (i % 8) * 64, data: Bytes::from(vec![i as u8; 64]) });
    }
    r.net.set_faults(&mut r.sim, r.board_mac, FaultInjector::none());
    r.submit(0, Op::Read { va: va + 64, len: 64 });
    match r.last_ok() {
        CompletionValue::Data(d) => assert!(d.iter().all(|&b| b == d[0])),
        other => panic!("expected data, got {other:?}"),
    }
    let host = r.sim.actor::<CnHost>(r.cn);
    assert!(host.clib.transport().stats().retries > 0, "losses should have forced retries");
    let failures = host.completions.iter().filter(|c| c.result.is_err()).count();
    assert_eq!(failures, 0, "all ops must eventually succeed");
}

#[test]
fn corruption_is_recovered_via_nack() {
    let mut r = rig();
    let va = r.alloc(4096);
    r.net.set_faults(
        &mut r.sim,
        r.board_mac,
        FaultInjector { corrupt_prob: 0.3, ..FaultInjector::none() },
    );
    for i in 0..20u64 {
        r.submit(0, Op::Write { va, data: Bytes::from(vec![i as u8; 32]) });
    }
    let host = r.sim.actor::<CnHost>(r.cn);
    let failures = host.completions.iter().filter(|c| c.result.is_err()).count();
    assert_eq!(failures, 0);
    assert!(
        host.clib.transport().stats().retries > 0,
        "corruption should have triggered NACK retries"
    );
}

#[test]
fn total_blackout_times_out_with_error() {
    let mut r = rig();
    let va = r.alloc(4096);
    r.net.set_faults(
        &mut r.sim,
        r.board_mac,
        FaultInjector { loss_prob: 1.0, ..FaultInjector::none() },
    );
    r.submit(0, Op::Read { va, len: 8 });
    let c = r.completions().last().expect("completion");
    let Err(ClioError::TimedOut { op, mn, attempts }) = c.result else {
        panic!("expected TimedOut, got {:?}", c.result);
    };
    assert_eq!(op, "read");
    assert_eq!(mn, r.board_mac, "error names the unresponsive MN");
    assert!(attempts > 1, "error reports the attempts made ({attempts})");
    // Took (retries+1) x timeout.
    let lat = c.completed_at.since(c.issued_at);
    assert!(lat >= SimDuration::from_micros(200), "timeout latency {lat}");
}

/// Two CN hosts and one board; host 0 has allocated a page for a lock word
/// (shared RAS => same Pid). Returns the hosts, the board and the page.
fn lock_rig() -> (Simulation, Vec<ActorId>, Mac, u64) {
    let mut sim = Simulation::new(3);
    let mut net = Network::new(&mut sim, NetworkConfig::default());
    let cfg = CBoardConfig::test_small();
    let page = cfg.hw.page_size;

    let bport = net.create_port(Bandwidth::from_gbps(10));
    let bmac = bport.mac();
    let board = sim.add_actor(CBoard::new("mn0", cfg, bport));
    net.attach(&mut sim, bmac, board);

    let mut hosts = vec![];
    for cn_id in 0..2u64 {
        let port = net.create_port(Bandwidth::from_gbps(40));
        let mac = port.mac();
        let host = sim.add_actor(CnHost {
            nic: port,
            clib: CLib::new(CLibConfig::default(), cn_id + 1, page, Vec::new()),
            mn: Some(bmac),
            completions: vec![],
        });
        net.attach(&mut sim, mac, host);
        hosts.push(host);
    }

    sim.post(
        hosts[0],
        Message::new(Submit { thread: ThreadId(0), op: Op::Alloc { size: 4096, perm: Perm::RW } }),
    );
    sim.run_until_idle();
    let va = match &sim.actor::<CnHost>(hosts[0]).completions.last().unwrap().result {
        Ok(CompletionValue::Va(va)) => *va,
        other => panic!("alloc failed: {other:?}"),
    };
    (sim, hosts, bmac, va)
}

#[test]
fn locks_provide_mutual_exclusion_across_cns() {
    // Two CN hosts contend for one lock word on the board.
    let (mut sim, hosts, _, va) = lock_rig();
    // Both hosts grab the lock; host 0 wins (posted first) and releases
    // 300 µs later; host 1 must not acquire before that.
    sim.post(hosts[0], Message::new(Submit { thread: ThreadId(0), op: Op::Lock { va } }));
    sim.post(hosts[1], Message::new(Submit { thread: ThreadId(0), op: Op::Lock { va } }));
    sim.post_in(
        hosts[0],
        SimDuration::from_micros(300),
        Message::new(Submit { thread: ThreadId(1), op: Op::Unlock { va } }),
    );
    sim.run_until_idle();

    let h0 = sim.actor::<CnHost>(hosts[0]);
    let h1 = sim.actor::<CnHost>(hosts[1]);
    let lock0_at = h0
        .completions
        .iter()
        .find(|c| matches!(c.result, Ok(CompletionValue::Done)))
        .expect("host0 acquired")
        .completed_at;
    let lock1_at = h1.completions.last().expect("host1 acquired eventually").completed_at;
    assert!(lock1_at.as_nanos() >= 300_000, "host1 acquired before the unlock: {lock1_at}");
    assert!(lock0_at < lock1_at);
}

/// A lock whose holder never unlocks — what a `runlock` lost past its
/// retries looks like to a spinner — ends the other host's spin at the
/// re-issue horizon: its `rlock` completes `TimedOut`, at most one spin
/// interval and one test-and-set round trip past the horizon.
#[test]
fn reissue_horizon_ends_a_spin_on_a_held_lock() {
    let (mut sim, hosts, bmac, va) = lock_rig();
    sim.post(hosts[0], Message::new(Submit { thread: ThreadId(0), op: Op::Lock { va } }));
    sim.run_until_idle();
    let held = sim.actor::<CnHost>(hosts[0]).completions.last().expect("host0 locked");
    assert_eq!(held.result, Ok(CompletionValue::Done));
    let round_trip = held.latency();

    sim.post(hosts[1], Message::new(Submit { thread: ThreadId(0), op: Op::Lock { va } }));
    let bound = CLibConfig::REISSUE_HORIZON + CLibConfig::LOCK_BACKOFF + round_trip;
    sim.run_for(bound + round_trip);
    let h1 = sim.actor::<CnHost>(hosts[1]);
    let [c] = &h1.completions[..] else { panic!("one completion: {:?}", h1.completions) };
    let Err(ClioError::TimedOut { op, mn, attempts }) = c.result else {
        panic!("expected TimedOut, got {:?}", c.result);
    };
    assert_eq!((op, mn), ("lock", bmac));
    assert!(attempts > 1, "the spin re-issued ({attempts} attempts)");
    assert!(
        c.latency() >= CLibConfig::REISSUE_HORIZON && c.latency() <= bound,
        "spun for {} (bound {bound})",
        c.latency()
    );
    assert_eq!(h1.clib.in_flight(), 0);
    // Nothing is left to re-issue: the simulation idles.
    sim.run_until_idle();
}

#[test]
fn remote_fence_orders_mn_side() {
    let mut r = rig();
    let va = r.alloc(32 << 10);
    r.submit_nowait(0, Op::Write { va, data: Bytes::from(vec![5u8; 16 << 10]) });
    r.submit_nowait(0, Op::Fence);
    r.sim.run_until_idle();
    let comps = r.completions();
    let n = comps.len();
    assert!(comps[n - 1].completed_at >= comps[n - 2].completed_at);
    assert!(comps.iter().all(|c| c.result.is_ok()));
}

#[test]
fn offload_call_via_clib() {
    use clio_mn::{Offload, OffloadEnv, OffloadReply};
    #[derive(Clone)]
    struct Echo;
    impl Offload for Echo {
        fn clone_box(&self) -> Box<dyn Offload> {
            Box::new(self.clone())
        }

        fn name(&self) -> &str {
            "echo"
        }
        fn on_call(&mut self, env: &mut OffloadEnv<'_>, _op: u16, arg: Bytes) -> OffloadReply {
            env.compute(clio_sim::Cycles(10));
            OffloadReply::ok(arg)
        }
    }
    let mut r = rig();
    r.sim.actor_mut::<CBoard>(r.board).install_offload(4, Pid(500), Box::new(Echo));
    r.submit(0, Op::Offload { offload: 4, opcode: 0, arg: Bytes::from_static(b"ping") });
    match r.last_ok() {
        CompletionValue::Data(d) => assert_eq!(&d[..], b"ping"),
        other => panic!("expected data, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// The `Conflict` policy, against a scripted board
// ---------------------------------------------------------------------

const SCRIPTED_CN: Mac = Mac(1);
const SCRIPTED_MN: Mac = Mac(2);

/// A board that refuses the first `refusals` requests it receives with
/// `refusal` (`Conflict` as a board migrating the range would, `Moved` as
/// one that gave it away) and serves every later one with `Ok`. It doubles
/// as the CN NIC's switch, so frames arrive here directly; it logs each
/// request's arrival.
struct ScriptedBoard {
    cn: Option<ActorId>,
    refusal: Status,
    refusals: usize,
    seen: Vec<(SimTime, RequestBody)>,
}

impl Actor for ScriptedBoard {
    fn name(&self) -> &str {
        "scripted-board"
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let frame = msg.downcast::<Frame>().expect("frame");
        let ClioPacket::Request { header, body } =
            frame.payload.downcast::<ClioPacket>().expect("clio packet")
        else {
            panic!("one request per frame expected")
        };
        let (status, resp) = if self.seen.len() < self.refusals {
            (self.refusal, ResponseBody::Done)
        } else {
            match &body {
                RequestBody::Read { len, .. } => (
                    Status::Ok,
                    ResponseBody::DataFrag { offset: 0, data: Bytes::from(vec![0; *len as usize]) },
                ),
                _ => (Status::Ok, ResponseBody::Done),
            }
        };
        self.seen.push((ctx.now(), body));
        let pkt =
            ClioPacket::Response { header: RespHeader::single(header.req_id, status), body: resp };
        let wire = (codec::wire_len(&pkt) + ETH_OVERHEAD_BYTES) as u32;
        let reply = Frame::new(SCRIPTED_MN, SCRIPTED_CN, wire, Message::new(pkt));
        ctx.send(self.cn.expect("wired up"), SimDuration::from_micros(1), Message::new(reply));
    }
}

/// A CLib host wired to a board that refuses its first `refusals`
/// requests with `refusal`; a `routed` host names no MN and routes every op
/// over one slice the board owns. Returns the host's and the board's ids.
fn scripted_rig_with(
    refusal: Status,
    refusals: usize,
    routed: bool,
) -> (Simulation, ActorId, ActorId) {
    let mut sim = Simulation::new(5);
    let board = sim.add_actor(ScriptedBoard { cn: None, refusal, refusals, seen: Vec::new() });
    let nic =
        NicPort::new(SCRIPTED_CN, Bandwidth::from_gbps(40), board, SimDuration::from_nanos(50));
    let slices = if routed { vec![(0, 1 << 30, SCRIPTED_MN)] } else { Vec::new() };
    let cn = sim.add_actor(CnHost {
        nic,
        clib: CLib::new(CLibConfig::default(), 1, 4096, slices),
        mn: (!routed).then_some(SCRIPTED_MN),
        completions: vec![],
    });
    sim.actor_mut::<ScriptedBoard>(board).cn = Some(cn);
    (sim, cn, board)
}

/// A host naming its MN, against a board that refuses its first `refusals`
/// requests with `Conflict`.
fn scripted_rig(refusals: usize) -> (Simulation, ActorId, ActorId) {
    scripted_rig_with(Status::Conflict, refusals, false)
}

fn write(va: u64, fill: u8) -> Op {
    Op::Write { va, data: Bytes::from(vec![fill; 8]) }
}

/// The backoffs before the first `k` re-issues: `CONFLICT_BACKOFF × (1 +
/// min(n, 16))` after the n-th refusal.
fn backoff_sum(k: u64) -> SimDuration {
    (0..k)
        .map(|n| CLibConfig::CONFLICT_BACKOFF * (1 + n.min(16)))
        .fold(SimDuration::ZERO, |a, b| a + b)
}

/// A refused op backs off once per refusal and then completes `Ok`, no
/// earlier than the backoffs add up to. While it backs off CLib holds it
/// and the transport holds nothing.
#[test]
fn conflict_refused_op_backs_off_and_completes_once_served() {
    const K: usize = 3;
    let (mut sim, cn, board) = scripted_rig(K);
    sim.post(cn, Message::new(Submit { thread: ThreadId(0), op: write(0x1000, 1) }));
    // The first refusal lands within a few µs; the first backoff is 100 µs.
    sim.run_for(CLibConfig::CONFLICT_BACKOFF / 2);
    assert_eq!(sim.actor::<ScriptedBoard>(board).seen.len(), 1, "refused once so far");
    let host = sim.actor::<CnHost>(cn);
    assert_eq!(host.clib.transport().in_flight(), 0, "the transport holds a backing-off op");
    assert_eq!(host.clib.transport().queued(), 0);
    assert_eq!(host.clib.in_flight(), 1, "CLib holds the op while it backs off");
    assert!(host.completions.is_empty());

    sim.run_until_idle();
    assert_eq!(sim.actor::<ScriptedBoard>(board).seen.len(), K + 1, "one request per attempt");
    let host = sim.actor::<CnHost>(cn);
    let [c] = &host.completions[..] else { panic!("one completion: {:?}", host.completions) };
    assert_eq!(c.result, Ok(CompletionValue::Done));
    assert!(c.latency() >= backoff_sum(K as u64), "completed after {}", c.latency());
    assert_eq!(host.clib.in_flight(), 0);
    host.clib.transport().check_invariants().expect("window accounting");
}

/// Against a board that refuses forever (a range left mid-migration), the
/// op backs off until the re-issue horizon and then ends with the refusal,
/// at most one capped backoff past the horizon.
#[test]
fn reissue_horizon_ends_an_endless_conflict() {
    let (mut sim, cn, board) = scripted_rig(usize::MAX);
    sim.post(cn, Message::new(Submit { thread: ThreadId(0), op: write(0x1000, 1) }));
    let bound = CLibConfig::REISSUE_HORIZON + CLibConfig::CONFLICT_BACKOFF * 17;
    sim.run_for(bound);
    let host = sim.actor::<CnHost>(cn);
    let [c] = &host.completions[..] else { panic!("one completion: {:?}", host.completions) };
    assert_eq!(c.result, Err(ClioError::Remote(Status::Conflict)));
    assert!(
        c.latency() >= CLibConfig::REISSUE_HORIZON && c.latency() <= bound,
        "completed after {}",
        c.latency()
    );
    assert_eq!(host.clib.in_flight(), 0);
    // One attempt per backoff, and one more after the backoff that
    // crossed the horizon.
    let backoffs = (1..).find(|&k| backoff_sum(k) >= CLibConfig::REISSUE_HORIZON).unwrap();
    assert_eq!(sim.actor::<ScriptedBoard>(board).seen.len(), backoffs as usize + 1);
    sim.run_until_idle();
    assert_eq!(sim.actor::<ScriptedBoard>(board).seen.len(), backoffs as usize + 1);
}

/// A routed op the board answers `Moved`, whose every re-route a stale
/// controller sends back to the same board, re-routes at once the first
/// time and then backs off as a `Conflict` does, until the re-issue
/// horizon; it then ends `Moved`, at most one capped backoff past it.
#[test]
fn reissue_horizon_ends_endless_moved_reroutes() {
    let (mut sim, cn, board) = scripted_rig_with(Status::Moved, usize::MAX, true);
    sim.post(cn, Message::new(Submit { thread: ThreadId(0), op: write(0x1000, 1) }));
    let bound = CLibConfig::REISSUE_HORIZON + CLibConfig::CONFLICT_BACKOFF * 17;
    sim.run_for(bound);
    let host = sim.actor::<CnHost>(cn);
    let [c] = &host.completions[..] else { panic!("one completion: {:?}", host.completions) };
    assert_eq!(c.result, Err(ClioError::Moved));
    assert!(
        c.latency() >= CLibConfig::REISSUE_HORIZON && c.latency() <= bound,
        "completed after {}",
        c.latency()
    );
    assert_eq!(host.clib.in_flight(), 0);
    // The first attempt, the immediate re-route's, one per backoff, and
    // one more after the backoff that crossed the horizon.
    let backoffs = (1..).find(|&k| backoff_sum(k) >= CLibConfig::REISSUE_HORIZON).unwrap();
    assert_eq!(sim.actor::<ScriptedBoard>(board).seen.len(), backoffs as usize + 2);
    sim.run_until_idle();
    assert_eq!(sim.actor::<ScriptedBoard>(board).seen.len(), backoffs as usize + 2);
}

/// A second `Moved` refusal backs off before the op asks again where its
/// range went: refused twice, the op completes `Ok` on its third attempt,
/// no earlier than the first backoff; cancelled during that backoff, it
/// ends `DeadlineExceeded` and sends nothing more.
#[test]
fn a_repeated_moved_reroute_backs_off_and_can_be_cancelled() {
    let (mut sim, cn, board) = scripted_rig_with(Status::Moved, 2, true);
    sim.post(cn, Message::new(Submit { thread: ThreadId(0), op: write(0x1000, 1) }));
    sim.run_for(CLibConfig::CONFLICT_BACKOFF / 2);
    assert_eq!(sim.actor::<ScriptedBoard>(board).seen.len(), 2, "the first re-route waits");
    assert_eq!(sim.actor::<CnHost>(cn).clib.in_flight(), 1, "CLib holds the op");
    sim.run_until_idle();
    assert_eq!(sim.actor::<ScriptedBoard>(board).seen.len(), 3);
    let [c] = &sim.actor::<CnHost>(cn).completions[..] else { panic!("one completion") };
    assert_eq!(c.result, Ok(CompletionValue::Done));
    assert!(c.latency() >= CLibConfig::CONFLICT_BACKOFF, "completed after {}", c.latency());

    let (mut sim, cn, board) = scripted_rig_with(Status::Moved, 2, true);
    sim.post(cn, Message::new(Submit { thread: ThreadId(0), op: write(0x1000, 1) }));
    sim.post_in(cn, CLibConfig::CONFLICT_BACKOFF / 2, Message::new(Cancel(OpToken(1))));
    sim.run_until_idle();
    assert_eq!(sim.actor::<ScriptedBoard>(board).seen.len(), 2, "re-routed after the cancel");
    let host = sim.actor::<CnHost>(cn);
    let [c] = &host.completions[..] else { panic!("one completion: {:?}", host.completions) };
    assert_eq!(c.result, Err(ClioError::DeadlineExceeded));
    assert_eq!(host.clib.in_flight(), 0);
}

/// A backing-off op keeps its place in its thread's order: a same-page
/// write the thread submits meanwhile waits for it, reaches the board
/// after the refused op's last attempt, and completes after it.
#[test]
fn conflict_backoff_keeps_a_same_page_write_behind_the_refused_op() {
    const K: usize = 2;
    let (mut sim, cn, board) = scripted_rig(K);
    sim.post(cn, Message::new(Submit { thread: ThreadId(0), op: write(0x1000, 1) }));
    sim.post_in(
        cn,
        CLibConfig::CONFLICT_BACKOFF / 2,
        Message::new(Submit { thread: ThreadId(0), op: write(0x1008, 2) }),
    );
    sim.run_until_idle();
    let seen: Vec<u8> = sim
        .actor::<ScriptedBoard>(board)
        .seen
        .iter()
        .map(|(_, body)| match body {
            RequestBody::WriteFrag { data, .. } => data[0],
            other => panic!("board got {other:?}"),
        })
        .collect();
    assert_eq!(seen, [1, 1, 1, 2], "the later write overtook the refused one");
    let host = sim.actor::<CnHost>(cn);
    let [first, second] = &host.completions[..] else {
        panic!("two completions: {:?}", host.completions)
    };
    assert_eq!((first.token, second.token), (OpToken(1), OpToken(2)));
    assert!(first.result.is_ok() && second.result.is_ok());
    assert!(second.completed_at > first.completed_at);
}

/// A cancel during the backoff ends the op with `DeadlineExceeded`, and
/// the backoff's end re-issues nothing.
#[test]
fn conflict_backoff_cancelled_ends_the_op_and_sends_nothing_more() {
    let (mut sim, cn, board) = scripted_rig(1);
    sim.post(cn, Message::new(Submit { thread: ThreadId(0), op: write(0x1000, 1) }));
    sim.post_in(cn, CLibConfig::CONFLICT_BACKOFF / 2, Message::new(Cancel(OpToken(1))));
    sim.run_until_idle();
    assert!(
        sim.now() >= SimTime::ZERO + CLibConfig::CONFLICT_BACKOFF,
        "the backoff timer still ran"
    );
    assert_eq!(sim.actor::<ScriptedBoard>(board).seen.len(), 1, "re-issued after the cancel");
    let host = sim.actor::<CnHost>(cn);
    let [c] = &host.completions[..] else { panic!("one completion: {:?}", host.completions) };
    assert_eq!(c.result, Err(ClioError::DeadlineExceeded));
    assert_eq!(host.clib.in_flight(), 0);
    assert_eq!(host.clib.transport().in_flight(), 0);
}
