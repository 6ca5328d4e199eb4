//! End-to-end tests of the CBoard actor over the simulated fabric: a raw
//! protocol client (no CLib yet) exchanges `ClioPacket`s with one or more
//! boards.

use bytes::Bytes;
use clio_mn::migrate::MigrateCommand;
use clio_mn::{CBoard, CBoardConfig, Offload, OffloadEnv, OffloadReply};
use clio_net::{BoardPower, FaultInjector, Frame, Mac, Network, NetworkConfig, NicPort};
use clio_proto::{
    codec, split_write, ClioPacket, Perm, Pid, Reassembler, ReqHeader, ReqId, RequestBody,
    ResponseBody, Status, ETH_OVERHEAD_BYTES,
};
use clio_sim::{Actor, ActorId, Ctx, Message, SimDuration, SimTime, Simulation};

/// A raw-protocol test client: forward scripted packets, record responses.
struct RawClient {
    nic: NicPort,
    board: Mac,
    responses: Vec<(SimTime, ClioPacket)>,
    reassembler: Reassembler,
    /// Completed reads: (req, data).
    reads: Vec<(ReqId, Bytes)>,
}

/// Message asking the client to transmit a packet now.
#[derive(Clone)]
struct SendNow(ClioPacket);
/// Message asking the client to transmit a whole write (pre-split).
#[derive(Clone)]
struct SendWrite {
    req_id: ReqId,
    retry_of: Option<ReqId>,
    pid: Pid,
    va: u64,
    data: Bytes,
}

impl Actor for RawClient {
    fn name(&self) -> &str {
        "raw-client"
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let msg = match msg.downcast::<SendNow>() {
            Ok(SendNow(pkt)) => {
                let wire = (codec::wire_len(&pkt) + ETH_OVERHEAD_BYTES) as u32;
                self.nic.send(ctx, self.board, wire, Message::new(pkt));
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SendWrite>() {
            Ok(w) => {
                for pkt in split_write(w.req_id, w.retry_of, w.pid, w.va, w.data) {
                    let wire = (codec::wire_len(&pkt) + ETH_OVERHEAD_BYTES) as u32;
                    self.nic.send(ctx, self.board, wire, Message::new(pkt));
                }
                return;
            }
            Err(m) => m,
        };
        let frame = msg.downcast::<Frame>().expect("frame");
        let pkt = frame.payload.downcast::<ClioPacket>().expect("clio packet");
        // Unbatch coalesced egress frames so assertions see one recorded
        // response per logical request, like the CN transport does.
        let entries = match pkt {
            ClioPacket::BatchResp { responses } => responses,
            ClioPacket::Response { header, body } => vec![(header, body)],
            other => {
                self.responses.push((ctx.now(), other));
                return;
            }
        };
        for (header, body) in entries {
            if let ResponseBody::DataFrag { offset, data } = &body {
                if let Some(full) = self.reassembler.accept(header, *offset, data.clone()) {
                    self.reads.push((header.req_id, full));
                }
            }
            self.responses.push((ctx.now(), ClioPacket::Response { header, body }));
        }
    }
}

struct Rig {
    sim: Simulation,
    net: Network,
    board_id: ActorId,
    board_mac: Mac,
    client_id: ActorId,
}

fn rig_with_config(cfg: CBoardConfig) -> Rig {
    let mut sim = Simulation::new(42);
    let mut net = Network::new(&mut sim, NetworkConfig::default());

    let board_port = net.create_port(clio_sim::Bandwidth::from_gbps(10));
    let board_mac = board_port.mac();
    let board_id = sim.add_actor(CBoard::new("mn0", cfg, board_port));
    net.attach(&mut sim, board_mac, board_id);

    let client_port = net.create_port(clio_sim::Bandwidth::from_gbps(40));
    let client_mac = client_port.mac();
    let client_id = sim.add_actor(RawClient {
        nic: client_port,
        board: board_mac,
        responses: vec![],
        reassembler: Reassembler::new(),
        reads: vec![],
    });
    net.attach(&mut sim, client_mac, client_id);

    Rig { sim, net, board_id, board_mac, client_id }
}

fn rig() -> Rig {
    rig_with_config(CBoardConfig::test_small())
}

fn req(req_id: u64, pid: u64, body: RequestBody) -> Message {
    Message::new(SendNow(ClioPacket::Request {
        header: ReqHeader::single(ReqId(req_id), Pid(pid)),
        body,
    }))
}

impl Rig {
    fn send(&mut self, m: Message) {
        self.sim.post(self.client_id, m);
        self.sim.run_until_idle();
    }

    fn responses(&self) -> &[(SimTime, ClioPacket)] {
        &self.sim.actor::<RawClient>(self.client_id).responses
    }

    fn last_response(&self) -> &ClioPacket {
        &self.responses().last().expect("a response").1
    }

    fn response_for(&self, id: u64) -> Option<&ClioPacket> {
        self.responses().iter().rev().map(|(_, p)| p).find(|p| p.req_id() == ReqId(id))
    }

    fn alloc(&mut self, req_id: u64, pid: u64, size: u64, perm: Perm) -> u64 {
        self.send(req(req_id, pid, RequestBody::Alloc { size, perm, fixed_va: None }));
        match self.last_response() {
            ClioPacket::Response { header, body: ResponseBody::Alloced { va } } => {
                assert_eq!(header.status, Status::Ok);
                *va
            }
            other => panic!("expected alloc response, got {other:?}"),
        }
    }
}

#[test]
fn alloc_write_read_roundtrip() {
    let mut r = rig();
    let va = r.alloc(1, 7, 4096, Perm::RW);
    r.send(Message::new(SendWrite {
        req_id: ReqId(2),
        retry_of: None,
        pid: Pid(7),
        va,
        data: Bytes::from_static(b"hello disaggregation"),
    }));
    match r.response_for(2).expect("write response") {
        ClioPacket::Response { header, .. } => assert_eq!(header.status, Status::Ok),
        other => panic!("unexpected {other:?}"),
    }
    r.send(req(3, 7, RequestBody::Read { va, len: 20 }));
    let client = r.sim.actor::<RawClient>(r.client_id);
    let (_, data) = client.reads.last().expect("read completed");
    assert_eq!(&data[..], b"hello disaggregation");
}

#[test]
fn small_read_latency_is_microseconds() {
    let mut r = rig();
    let va = r.alloc(1, 7, 4096, Perm::RW);
    // Warm the page (fault) and the TLB.
    r.send(Message::new(SendWrite {
        req_id: ReqId(2),
        retry_of: None,
        pid: Pid(7),
        va,
        data: Bytes::from_static(&[1u8; 16]),
    }));
    let t0 = r.sim.now();
    r.send(req(3, 7, RequestBody::Read { va, len: 16 }));
    let (t_resp, _) = *r.responses().last().unwrap();
    let rtt = t_resp.since(t0);
    // End-to-end (without CLib software overhead): ~1.5–4 µs on the
    // prototype-calibrated network (paper: ~2.5 µs with CLib).
    assert!(
        rtt >= SimDuration::from_nanos(1200) && rtt <= SimDuration::from_micros(4),
        "16B read RTT {rtt}"
    );
}

#[test]
fn unmapped_and_denied_accesses_report_errors() {
    let mut r = rig();
    r.send(req(1, 7, RequestBody::Read { va: 0xdead_0000, len: 8 }));
    match r.last_response() {
        ClioPacket::Response { header, .. } => assert_eq!(header.status, Status::InvalidAddr),
        other => panic!("unexpected {other:?}"),
    }
    let va = r.alloc(2, 7, 4096, Perm::READ);
    r.send(Message::new(SendWrite {
        req_id: ReqId(3),
        retry_of: None,
        pid: Pid(7),
        va,
        data: Bytes::from_static(b"x"),
    }));
    match r.response_for(3).expect("resp") {
        ClioPacket::Response { header, .. } => assert_eq!(header.status, Status::PermDenied),
        other => panic!("unexpected {other:?}"),
    }
    // Another process cannot touch pid 7's memory (R5).
    r.send(req(4, 8, RequestBody::Read { va, len: 8 }));
    match r.response_for(4).expect("resp") {
        ClioPacket::Response { header, .. } => assert_eq!(header.status, Status::InvalidAddr),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn multi_packet_write_gets_single_response_and_reads_back() {
    let mut r = rig();
    let va = r.alloc(1, 7, 16 << 10, Perm::RW);
    let data: Vec<u8> = (0..6000).map(|i| (i % 251) as u8).collect();
    let n_before = r.responses().len();
    r.send(Message::new(SendWrite {
        req_id: ReqId(2),
        retry_of: None,
        pid: Pid(7),
        va,
        data: Bytes::from(data.clone()),
    }));
    let write_resps =
        r.responses()[n_before..].iter().filter(|(_, p)| p.req_id() == ReqId(2)).count();
    assert_eq!(write_resps, 1, "one response for a 5-packet write");
    r.send(req(3, 7, RequestBody::Read { va, len: 6000 }));
    let client = r.sim.actor::<RawClient>(r.client_id);
    let (_, got) = client.reads.last().expect("read done");
    assert_eq!(&got[..], &data[..]);
}

#[test]
fn retried_write_is_not_executed_twice() {
    let mut r = rig();
    let va = r.alloc(1, 7, 4096, Perm::RW);
    r.send(Message::new(SendWrite {
        req_id: ReqId(10),
        retry_of: None,
        pid: Pid(7),
        va,
        data: Bytes::from_static(b"original"),
    }));
    // A faa makes the memory state order-sensitive; then the "retry" of the
    // old write arrives carrying different bytes — the dedup buffer must
    // suppress it.
    r.send(Message::new(SendWrite {
        req_id: ReqId(11),
        retry_of: Some(ReqId(10)),
        pid: Pid(7),
        va,
        data: Bytes::from_static(b"SHOULD NOT LAND"),
    }));
    match r.response_for(11).expect("retry acked") {
        ClioPacket::Response { header, .. } => assert_eq!(header.status, Status::Ok),
        other => panic!("unexpected {other:?}"),
    }
    r.send(req(12, 7, RequestBody::Read { va, len: 8 }));
    let client = r.sim.actor::<RawClient>(r.client_id);
    let (_, got) = client.reads.last().expect("read");
    assert_eq!(&got[..], b"original", "retry must not re-execute");
    let board = r.sim.actor::<CBoard>(r.board_id);
    assert!(board.stats().dedup_replays >= 1);
}

#[test]
fn late_original_after_retry_is_suppressed() {
    let mut r = rig();
    let va = r.alloc(1, 7, 4096, Perm::RW);
    // The retry (req 21, retry_of 20) arrives FIRST (original delayed).
    r.send(Message::new(SendWrite {
        req_id: ReqId(21),
        retry_of: Some(ReqId(20)),
        pid: Pid(7),
        va,
        data: Bytes::from_static(b"retry-data"),
    }));
    // Now the slow original limps in with the same logical content; if it
    // re-executed it would be harmless here, but the dedup buffer must
    // recognize it via its own id.
    r.send(Message::new(SendWrite {
        req_id: ReqId(20),
        retry_of: None,
        pid: Pid(7),
        va,
        data: Bytes::from_static(b"THE PAST!!"),
    }));
    r.send(req(22, 7, RequestBody::Read { va, len: 10 }));
    let client = r.sim.actor::<RawClient>(r.client_id);
    let (_, got) = client.reads.last().expect("read");
    assert_eq!(&got[..], b"retry-data");
}

#[test]
fn atomics_and_locks_over_the_wire() {
    let mut r = rig();
    let va = r.alloc(1, 7, 4096, Perm::RW);
    r.send(req(2, 7, RequestBody::AtomicTas { va }));
    match r.last_response() {
        ClioPacket::Response { body: ResponseBody::AtomicOld { old }, .. } => {
            assert_eq!(*old, 0, "lock was free")
        }
        other => panic!("unexpected {other:?}"),
    }
    r.send(req(3, 7, RequestBody::AtomicTas { va }));
    match r.last_response() {
        ClioPacket::Response { body: ResponseBody::AtomicOld { old }, .. } => {
            assert_eq!(*old, 1, "lock was held")
        }
        other => panic!("unexpected {other:?}"),
    }
    r.send(req(4, 7, RequestBody::AtomicStore { va, value: 0 }));
    r.send(req(5, 7, RequestBody::AtomicFaa { va, delta: 3 }));
    match r.last_response() {
        ClioPacket::Response { body: ResponseBody::AtomicOld { old }, .. } => assert_eq!(*old, 0),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn retried_atomic_returns_cached_result() {
    let mut r = rig();
    let va = r.alloc(1, 7, 4096, Perm::RW);
    r.send(req(2, 7, RequestBody::AtomicFaa { va, delta: 1 })); // old = 0
                                                                // Retry of req 2: must NOT add again; must return the cached old value.
    r.send(Message::new(SendNow(ClioPacket::Request {
        header: ReqHeader::single(ReqId(3), Pid(7)).retrying(ReqId(2)),
        body: RequestBody::AtomicFaa { va, delta: 1 },
    })));
    match r.response_for(3).expect("resp") {
        ClioPacket::Response { body: ResponseBody::AtomicOld { old }, .. } => {
            assert_eq!(*old, 0, "cached result replayed")
        }
        other => panic!("unexpected {other:?}"),
    }
    // Value advanced exactly once.
    r.send(req(4, 7, RequestBody::AtomicFaa { va, delta: 0 }));
    match r.last_response() {
        ClioPacket::Response { body: ResponseBody::AtomicOld { old }, .. } => assert_eq!(*old, 1),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn corrupted_frames_get_nacks() {
    let mut r = rig();
    let va = r.alloc(1, 7, 4096, Perm::RW);
    r.net.set_faults(
        &mut r.sim,
        r.board_mac,
        FaultInjector { corrupt_prob: 1.0, ..FaultInjector::none() },
    );
    r.send(req(2, 7, RequestBody::Read { va, len: 8 }));
    match r.last_response() {
        ClioPacket::Nack { req_id } => assert_eq!(*req_id, ReqId(2)),
        other => panic!("expected nack, got {other:?}"),
    }
    let board = r.sim.actor::<CBoard>(r.board_id);
    assert_eq!(board.stats().nacks, 1);
}

#[test]
fn fence_completes_after_inflight_writes() {
    let mut r = rig();
    let va = r.alloc(1, 7, 64 << 10, Perm::RW);
    // A large write and a fence race in back-to-back.
    let data = Bytes::from(vec![7u8; 32 << 10]);
    r.sim.post(
        r.client_id,
        Message::new(SendWrite { req_id: ReqId(2), retry_of: None, pid: Pid(7), va, data }),
    );
    r.sim.post(r.client_id, req(3, 7, RequestBody::Fence));
    r.sim.run_until_idle();
    let resp_t = |id: u64| {
        r.responses()
            .iter()
            .find(|(_, p)| p.req_id() == ReqId(id))
            .map(|(t, _)| *t)
            .expect("response")
    };
    assert!(
        resp_t(3) >= resp_t(2) - SimDuration::from_micros(2),
        "fence ({}) must not complete before the write ({})",
        resp_t(3),
        resp_t(2)
    );
}

#[test]
fn destroy_as_releases_pages() {
    let mut r = rig();
    let va = r.alloc(1, 7, 8192, Perm::RW);
    r.send(Message::new(SendWrite {
        req_id: ReqId(2),
        retry_of: None,
        pid: Pid(7),
        va,
        data: Bytes::from(vec![1u8; 8192]),
    }));
    let used_before = {
        let b = r.sim.actor::<CBoard>(r.board_id);
        b.slow_path().palloc().used_pages()
    };
    r.send(req(3, 7, RequestBody::DestroyAs));
    let b = r.sim.actor::<CBoard>(r.board_id);
    assert!(b.slow_path().palloc().used_pages() < used_before);
    assert!(b.silicon().vm().page_table().iter_pid(Pid(7)).next().is_none());
}

#[test]
fn free_then_access_is_invalid() {
    let mut r = rig();
    let va = r.alloc(1, 7, 4096, Perm::RW);
    r.send(req(2, 7, RequestBody::Free { va, size: 4096 }));
    match r.response_for(2).expect("resp") {
        ClioPacket::Response { header, .. } => assert_eq!(header.status, Status::Ok),
        other => panic!("unexpected {other:?}"),
    }
    r.send(req(3, 7, RequestBody::Read { va, len: 8 }));
    match r.last_response() {
        ClioPacket::Response { header, .. } => assert_eq!(header.status, Status::InvalidAddr),
        other => panic!("unexpected {other:?}"),
    }
}

/// An offload that stores a value on create and echoes computed data.
#[derive(Clone)]
struct CounterOffload {
    slot: Option<u64>,
}
impl Offload for CounterOffload {
    fn clone_box(&self) -> Box<dyn Offload> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        "counter"
    }
    fn on_call(&mut self, env: &mut OffloadEnv<'_>, opcode: u16, arg: Bytes) -> OffloadReply {
        match opcode {
            // op 0: init — allocate a slot in the offload's own RAS.
            0 => match env.alloc(4096, Perm::RW) {
                Ok(va) => {
                    self.slot = Some(va);
                    OffloadReply::ok(Bytes::copy_from_slice(&va.to_le_bytes()))
                }
                Err(s) => OffloadReply::err(s),
            },
            // op 1: add arg to the slot, return the new value.
            1 => {
                let Some(va) = self.slot else { return OffloadReply::err(Status::InvalidAddr) };
                let delta = u64::from_le_bytes(arg[..8].try_into().expect("8 bytes"));
                env.compute(clio_sim::Cycles(50));
                let cur = match env.read_u64(va) {
                    Ok(v) => v,
                    Err(s) => return OffloadReply::err(s),
                };
                if let Err(s) = env.write_u64(va, cur + delta) {
                    return OffloadReply::err(s);
                }
                OffloadReply::ok(Bytes::copy_from_slice(&(cur + delta).to_le_bytes()))
            }
            _ => OffloadReply::err(Status::Unsupported),
        }
    }
}

#[test]
fn offload_calls_run_on_the_extend_path() {
    let mut r = rig();
    {
        let board = r.sim.actor_mut::<CBoard>(r.board_id);
        board.install_offload(1, Pid(9000), Box::new(CounterOffload { slot: None }));
    }
    r.send(req(1, 7, RequestBody::OffloadCall { offload: 1, opcode: 0, arg: Bytes::new() }));
    r.send(req(
        2,
        7,
        RequestBody::OffloadCall {
            offload: 1,
            opcode: 1,
            arg: Bytes::copy_from_slice(&5u64.to_le_bytes()),
        },
    ));
    match r.last_response() {
        ClioPacket::Response { body: ResponseBody::OffloadReply { data }, .. } => {
            assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), 5);
        }
        other => panic!("unexpected {other:?}"),
    }
    // Unknown offload id.
    r.send(req(3, 7, RequestBody::OffloadCall { offload: 77, opcode: 0, arg: Bytes::new() }));
    match r.last_response() {
        ClioPacket::Response { header, .. } => assert_eq!(header.status, Status::Unsupported),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn over_commit_faults_until_physical_exhaustion() {
    // 8 physical pages, but allow allocating VA for many more. The page
    // table bounds over-commit to `pt_slack` × physical pages, so raise the
    // slack to hold 64 pages of VA over 8 pages of DRAM.
    let mut cfg = CBoardConfig::test_small();
    cfg.hw.phys_mem_bytes = 8 * cfg.hw.page_size;
    cfg.hw.pt_slack = 16;
    cfg.hw.async_buffer_pages = 2;
    let mut r = rig_with_config(cfg);
    let va = r.alloc(1, 7, 64 * 4096, Perm::RW); // 64 pages of VA
    let mut oom = 0;
    let mut ok = 0;
    for i in 0..16u64 {
        r.send(Message::new(SendWrite {
            req_id: ReqId(100 + i),
            retry_of: None,
            pid: Pid(7),
            va: va + i * 4096,
            data: Bytes::from_static(b"touch"),
        }));
        match r.response_for(100 + i).expect("resp") {
            ClioPacket::Response { header, .. } => match header.status {
                Status::Ok => ok += 1,
                Status::OutOfPhysicalMemory => oom += 1,
                s => panic!("unexpected status {s}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(ok, 8, "exactly the physical capacity faults in");
    assert_eq!(oom, 8, "the rest report physical exhaustion");
}

#[test]
fn crash_drops_traffic_and_restart_preserves_committed_writes() {
    let mut r = rig();
    let va = r.alloc(1, 7, 4096, Perm::RW);
    r.send(Message::new(SendWrite {
        req_id: ReqId(2),
        retry_of: None,
        pid: Pid(7),
        va,
        data: Bytes::from_static(b"durable bytes"),
    }));
    match r.response_for(2).expect("write acked") {
        ClioPacket::Response { header, .. } => assert_eq!(header.status, Status::Ok),
        other => panic!("unexpected {other:?}"),
    }

    // Power the board off: requests vanish into the void — no response,
    // no NACK.
    r.sim.post(r.board_id, Message::new(BoardPower::Crash));
    r.sim.run_until_idle();
    assert!(!r.sim.actor::<CBoard>(r.board_id).alive());
    let n_before = r.responses().len();
    r.send(req(3, 7, RequestBody::Read { va, len: 13 }));
    assert_eq!(r.responses().len(), n_before, "dead board answers nothing");
    {
        let board = r.sim.actor::<CBoard>(r.board_id);
        let stats = board.stats();
        assert!(stats.dropped_while_down >= 1, "drop counted");
        assert_eq!(stats.board_restarts, 0);
        assert!(board.silicon().dedup().is_empty(), "dedup buffer is volatile");
    }

    // Restart: volatile state is cold, committed DRAM and page tables
    // survive — the pre-crash write reads back intact.
    r.sim.post(r.board_id, Message::new(BoardPower::Restart));
    r.sim.run_until_idle();
    assert!(r.sim.actor::<CBoard>(r.board_id).alive());
    r.send(req(4, 7, RequestBody::Read { va, len: 13 }));
    let client = r.sim.actor::<RawClient>(r.client_id);
    let (_, got) = client.reads.last().expect("post-restart read");
    assert_eq!(&got[..], b"durable bytes", "committed writes survive a power cycle");
    assert_eq!(r.sim.actor::<CBoard>(r.board_id).stats().board_restarts, 1);
}

#[test]
fn crash_clears_volatile_state_and_redundant_restart_is_noop() {
    let mut r = rig();
    let va = r.alloc(1, 7, 4096, Perm::RW);
    // Seed the dedup buffer with a non-idempotent execution.
    r.send(Message::new(SendWrite {
        req_id: ReqId(2),
        retry_of: None,
        pid: Pid(7),
        va,
        data: Bytes::from_static(b"first"),
    }));
    assert!(!r.sim.actor::<CBoard>(r.board_id).silicon().dedup().is_empty());
    let fp_alive = r.sim.actor::<CBoard>(r.board_id).fingerprint();

    r.sim.post(r.board_id, Message::new(BoardPower::Crash));
    r.sim.run_until_idle();
    let fp_dead = r.sim.actor::<CBoard>(r.board_id).fingerprint();
    assert_ne!(fp_alive, fp_dead, "power state is protocol-visible");

    // Restart twice: the second is a no-op, not a second power cycle.
    r.sim.post(r.board_id, Message::new(BoardPower::Restart));
    r.sim.post(r.board_id, Message::new(BoardPower::Restart));
    r.sim.run_until_idle();
    assert_eq!(r.sim.actor::<CBoard>(r.board_id).stats().board_restarts, 1);

    // The dedup buffer was lost: a "retry" of the pre-crash write
    // re-executes (the documented at-most-once window is bounded by the
    // buffer's volatility — exactly why CNs must not retry across a known
    // power cycle without re-reading).
    r.send(Message::new(SendWrite {
        req_id: ReqId(3),
        retry_of: Some(ReqId(2)),
        pid: Pid(7),
        va,
        data: Bytes::from_static(b"again"),
    }));
    r.send(req(4, 7, RequestBody::Read { va, len: 5 }));
    let client = r.sim.actor::<RawClient>(r.client_id);
    let (_, got) = client.reads.last().expect("read");
    assert_eq!(&got[..], b"again", "cold dedup buffer no longer suppresses the retry");
}

#[test]
fn migration_moves_data_and_redirects_clients() {
    // Two boards, one client.
    let mut sim = Simulation::new(7);
    let mut net = Network::new(&mut sim, NetworkConfig::default());
    let cfg = CBoardConfig::test_small();

    let p0 = net.create_port(clio_sim::Bandwidth::from_gbps(10));
    let m0 = p0.mac();
    let b0 = sim.add_actor(CBoard::new("mn0", cfg.clone(), p0));
    net.attach(&mut sim, m0, b0);

    let p1 = net.create_port(clio_sim::Bandwidth::from_gbps(10));
    let m1 = p1.mac();
    let b1 = sim.add_actor(CBoard::new("mn1", cfg, p1));
    net.attach(&mut sim, m1, b1);

    let pc = net.create_port(clio_sim::Bandwidth::from_gbps(40));
    let mc = pc.mac();
    let client = sim.add_actor(RawClient {
        nic: pc,
        board: m0,
        responses: vec![],
        reassembler: Reassembler::new(),
        reads: vec![],
    });
    net.attach(&mut sim, mc, client);

    // Allocate and write on board 0.
    sim.post(
        client,
        Message::new(SendNow(ClioPacket::Request {
            header: ReqHeader::single(ReqId(1), Pid(7)),
            body: RequestBody::Alloc { size: 8192, perm: Perm::RW, fixed_va: None },
        })),
    );
    sim.run_until_idle();
    let va = {
        let c = sim.actor::<RawClient>(client);
        match &c.responses.last().unwrap().1 {
            ClioPacket::Response { body: ResponseBody::Alloced { va }, .. } => *va,
            other => panic!("unexpected {other:?}"),
        }
    };
    sim.post(
        client,
        Message::new(SendWrite {
            req_id: ReqId(2),
            retry_of: None,
            pid: Pid(7),
            va,
            data: Bytes::from_static(b"migrate me!"),
        }),
    );
    sim.run_until_idle();

    // Controller command: move the region to board 1.
    sim.post(b0, Message::new(MigrateCommand { pid: Pid(7), start: va, len: 8192, dst: m1 }));
    sim.run_until_idle();

    // Old owner redirects.
    sim.post(
        client,
        Message::new(SendNow(ClioPacket::Request {
            header: ReqHeader::single(ReqId(3), Pid(7)),
            body: RequestBody::Read { va, len: 11 },
        })),
    );
    sim.run_until_idle();
    {
        let c = sim.actor::<RawClient>(client);
        match &c.responses.last().unwrap().1 {
            ClioPacket::Response { header, .. } => assert_eq!(header.status, Status::Moved),
            other => panic!("unexpected {other:?}"),
        }
    }

    // New owner serves the data.
    sim.actor_mut::<RawClient>(client).board = m1;
    sim.post(
        client,
        Message::new(SendNow(ClioPacket::Request {
            header: ReqHeader::single(ReqId(4), Pid(7)),
            body: RequestBody::Read { va, len: 11 },
        })),
    );
    sim.run_until_idle();
    let c = sim.actor::<RawClient>(client);
    let (_, got) = c.reads.last().expect("read from new owner");
    assert_eq!(&got[..], b"migrate me!");
}
