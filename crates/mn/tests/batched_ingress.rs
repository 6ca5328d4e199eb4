//! The board's MAC/PHY rule: one crossing per wire frame in each direction.
//!
//! `Silicon` times the datapath only; the board adds each fast-path
//! access's crossings from how its request was framed. A lone request pays
//! ingress and egress. A `Batch` entry pays the frame's ingress only if it
//! is the frame's first, and egress only if it is the last — the response
//! frame's tail crosses the MAC, which keeps completion order — unless
//! response batching is off (`resp_batch_max_ops = 1`), when every entry
//! pays its own egress. An offload call crosses once each way and its
//! accesses, on-chip behind the match-and-action table, pay none.
//!
//! Each test drives real frames into a board and reads each op's crossings
//! from its trace: the board tiles an access's time with its stage
//! breakdown, whose `IngressMac` span is the access's MAC/PHY total.

use std::collections::BTreeMap;

use bytes::Bytes;
use clio_hw::pagetable::Pte;
use clio_hw::{CBoardHwConfig, Silicon};
use clio_mn::migrate::Migrations;
use clio_mn::slowpath::SlowPath;
use clio_mn::{CBoard, CBoardConfig, Offload, OffloadEnv, OffloadReply};
use clio_net::{Frame, Mac, NicPort};
use clio_proto::{ClioPacket, Perm, Pid, ReqHeader, ReqId, RequestBody, ResponseBody, Status};
use clio_sim::{Actor, ActorId, Bandwidth, Ctx, Message, SimDuration, SimTime, Simulation};
use clio_trace::{OpTrace, Stage, Tracer, Track};

const ENTRIES: u64 = 16;
const BOARD: Mac = Mac(1000);
const CN: Mac = Mac(7);
const PID: Pid = Pid(1);

/// Stands in for the CN: records when each response packet arrives.
#[derive(Default)]
struct Sink {
    responses: Vec<(SimTime, ReqId, Status, ResponseBody)>,
}

impl Actor for Sink {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let frame = msg.downcast::<Frame>().expect("a frame");
        let entries = match frame.payload.downcast::<ClioPacket>().expect("a clio packet") {
            ClioPacket::Response { header, body } => vec![(header, body)],
            ClioPacket::BatchResp { responses } => responses,
            other => panic!("unexpected {other:?}"),
        };
        for (header, body) in entries {
            self.responses.push((ctx.now(), header.req_id, header.status, body));
        }
    }
}

struct Rig {
    sim: Simulation,
    board: ActorId,
    sink: ActorId,
    tracer: Tracer,
    traces: Vec<Option<clio_trace::TraceCtx>>,
    next_id: u64,
}

impl Rig {
    /// A board whose pid 1 maps `pages` pages from VA 0, none faulted in.
    fn new(cfg: CBoardConfig, pages: u64) -> Self {
        let mut sim = Simulation::new(1);
        let sink = sim.add_actor(Sink::default());
        let nic = NicPort::new(BOARD, Bandwidth::from_gbps(10), sink, SimDuration::ZERO);
        let mut board = CBoard::new("mn0", cfg, nic);
        let tracer = Tracer::enabled(1);
        board.set_tracer(tracer.clone(), Track::Mn(0));
        for vpn in 0..pages {
            let pte = Pte { pid: PID, vpn, ppn: 0, perm: Perm::RW, valid: false };
            board.silicon_mut().vm_mut().install_pte(pte).expect("install");
        }
        let board = sim.add_actor(board);
        Rig { sim, board, sink, tracer, traces: Vec::new(), next_id: 1 }
    }

    /// [`Rig::new`] with every page faulted in and in the TLB, so each
    /// later access has the same per-stage costs.
    fn warm(cfg: CBoardConfig) -> Self {
        let mut r = Rig::new(cfg, ENTRIES);
        for vpn in 0..ENTRIES {
            let body = RequestBody::WriteFrag { va: vpn * 4096, data: Bytes::from_static(b"w") };
            let entry = r.entry(body, false);
            r.deliver(lone(entry));
        }
        r.sim.run_until_idle();
        r
    }

    fn page(&self) -> u64 {
        self.sim.actor::<CBoard>(self.board).silicon().config().page_size
    }

    fn mac(&self) -> SimDuration {
        self.sim.actor::<CBoard>(self.board).silicon().config().mac_phy_latency
    }

    /// One request, traced if `traced`: its trace begins now.
    fn entry(&mut self, body: RequestBody, traced: bool) -> (ReqHeader, RequestBody) {
        let mut header = ReqHeader::single(ReqId(self.next_id), PID);
        self.next_id += 1;
        if traced {
            header.trace = self.tracer.begin("op", self.sim.now());
            self.traces.push(header.trace);
        }
        (header, body)
    }

    fn read(&mut self, vpn: u64) -> (ReqHeader, RequestBody) {
        self.entry(RequestBody::Read { va: vpn * 4096, len: 16 }, true)
    }

    /// Delivers one wire frame from the CN, now.
    fn deliver(&mut self, pkt: ClioPacket) {
        let frame = Frame::new(CN, BOARD, 64, Message::new(pkt));
        self.sim.post(self.board, Message::new(frame));
    }

    /// Runs to quiescence and returns the traced ops' traces, in request
    /// order.
    fn run(&mut self) -> Vec<OpTrace> {
        self.sim.run_until_idle();
        for ctx in self.traces.drain(..) {
            self.tracer.finish(ctx, Track::Mn(0), self.sim.now());
        }
        self.tracer.take_finished()
    }

    fn responses(&self) -> &[(SimTime, ReqId, Status, ResponseBody)] {
        &self.sim.actor::<Sink>(self.sink).responses
    }
}

fn lone((header, body): (ReqHeader, RequestBody)) -> ClioPacket {
    ClioPacket::Request { header, body }
}

/// Each op's MAC/PHY total.
fn crossings(traces: &[OpTrace]) -> Vec<SimDuration> {
    traces.iter().map(|t| t.stage_total(Stage::IngressMac)).collect()
}

/// 16 warm one-page reads delivered at one instant, in one `Batch` frame
/// or in 16 lone frames; their traces.
fn reads(cfg: CBoardConfig, batched: bool) -> (Vec<OpTrace>, SimDuration) {
    let mut r = Rig::warm(cfg);
    let entries: Vec<_> = (0..ENTRIES).map(|vpn| r.read(vpn)).collect();
    if batched {
        r.deliver(ClioPacket::Batch { requests: entries });
    } else {
        for entry in entries {
            r.deliver(lone(entry));
        }
    }
    (r.run(), r.mac())
}

fn sum(ds: &[SimDuration]) -> SimDuration {
    ds.iter().copied().fold(SimDuration::ZERO, |a, d| a + d)
}

fn unbatched_responses() -> CBoardConfig {
    CBoardConfig { resp_batch_max_ops: 1, ..CBoardConfig::test_small() }
}

#[test]
fn unbatched_ingress_still_charges_mac_per_request() {
    let (traces, mac) = reads(CBoardConfig::test_small(), false);
    assert_eq!(traces.len() as u64, ENTRIES);
    for (i, paid) in crossings(&traces).into_iter().enumerate() {
        assert_eq!(paid, mac * 2, "lone request {i} pays MAC both ways");
    }
}

#[test]
fn batched_frame_charges_ingress_mac_once_and_parse_per_entry() {
    // Response batching off: every entry pays its own egress, so the
    // frame's single ingress crossing is all that framing saves.
    let cfg = unbatched_responses();
    let hw = cfg.hw.clone();
    let (traces, mac) = reads(cfg, true);
    let paid = crossings(&traces);
    assert_eq!(paid[0], mac * 2, "the first entry pays ingress + egress");
    for (i, &p) in paid.iter().enumerate().skip(1) {
        assert_eq!(p, mac, "entry {i} pays its own egress only");
    }
    assert_eq!(sum(&paid), mac * (1 + ENTRIES), "one ingress charge + 16 egress charges");
    let parse = hw.clock.cycles(CBoardHwConfig::PARSE_CYCLES)
        + hw.clock.cycles(CBoardHwConfig::RESPONSE_CYCLES);
    for (i, t) in traces.iter().enumerate() {
        assert_eq!(t.stage_total(Stage::Parse), parse, "entry {i} pays its own parse");
    }
}

#[test]
fn batched_responses_charge_egress_mac_once_on_the_last_entry() {
    let (coalesced, mac) = reads(CBoardConfig::test_small(), true);
    let (per_entry, _) = reads(unbatched_responses(), true);
    let (coalesced, per_entry) = (crossings(&coalesced), crossings(&per_entry));
    let last = ENTRIES as usize - 1;
    for i in 0..last {
        assert_eq!(per_entry[i] - coalesced[i], mac, "entry {i}'s egress joins the frame's");
    }
    assert_eq!(coalesced[last], mac, "the last entry pays the response frame's crossing");
    assert_eq!(coalesced[last], per_entry[last]);
}

#[test]
fn fully_batched_frame_pays_one_mac_each_way() {
    let (traces, mac) = reads(CBoardConfig::test_small(), true);
    let paid = crossings(&traces);
    assert_eq!(paid[0], mac, "the first entry pays the frame's ingress crossing");
    for (i, &p) in paid.iter().enumerate().take(ENTRIES as usize - 1).skip(1) {
        assert_eq!(p, SimDuration::ZERO, "middle entry {i} pays no MAC at all");
    }
    assert_eq!(paid[ENTRIES as usize - 1], mac, "the last entry pays the egress crossing");
    assert_eq!(sum(&paid), mac * 2, "a 16-entry exchange pays MAC/PHY once per direction");
}

/// An offload, run in its caller's address space, that faults VA 0 in
/// (opcode 0), then times one warm 16 B read of it (opcode 1), answering
/// how far the read advanced the call's clock.
#[derive(Clone)]
struct TimedRead;

impl Offload for TimedRead {
    fn name(&self) -> &str {
        "timed-read"
    }

    fn on_call(&mut self, env: &mut OffloadEnv<'_>, opcode: u16, _: Bytes) -> OffloadReply {
        if opcode == 0 {
            env.write(0, &[7; 16]).expect("fault in");
            return OffloadReply::ok(Bytes::new());
        }
        let before = env.now();
        env.read(0, 16).expect("read");
        OffloadReply::ok(Bytes::copy_from_slice(&env.now().since(before).as_nanos().to_le_bytes()))
    }

    fn clone_box(&self) -> Box<dyn Offload> {
        Box::new(self.clone())
    }
}

fn nanos(data: &[u8]) -> SimDuration {
    SimDuration::from_nanos(u64::from_le_bytes(data[..8].try_into().expect("8 bytes")))
}

/// The timed read inside a board's offload call: how far it advanced the
/// call's clock, the call's trace, and the trace of a lone read request of
/// the same warm word that follows the call.
fn timed_read_on_a_board() -> (SimDuration, OpTrace, OpTrace) {
    let mut r = Rig::new(CBoardConfig::test_small(), 1);
    r.sim.actor_mut::<CBoard>(r.board).install_offload_shared(1, Box::new(TimedRead));
    for opcode in 0..2 {
        let call = RequestBody::OffloadCall { offload: 1, opcode, arg: Bytes::new() };
        let entry = r.entry(call, opcode == 1);
        r.deliver(lone(entry));
        r.sim.run_until_idle();
    }
    let (_, _, status, body) = r.responses().last().expect("a reply").clone();
    assert_eq!(status, Status::Ok);
    let ResponseBody::OffloadReply { data } = body else { panic!("unexpected {body:?}") };
    let read = nanos(&data);
    let entry = r.read(0);
    r.deliver(lone(entry));
    let mut traces = r.run().into_iter();
    (read, traces.next().expect("the call"), traces.next().expect("the read"))
}

#[test]
fn offload_accesses_pay_no_crossing() {
    let cfg = CBoardConfig::test_small();
    let hw = &cfg.hw;
    let (read, call, lone_read) = timed_read_on_a_board();
    let pipeline = hw.clock.cycles(CBoardHwConfig::PARSE_CYCLES)
        + hw.clock.cycles(CBoardHwConfig::RESPONSE_CYCLES);
    let call = call.stage_total(Stage::Execute);
    assert_eq!(call, hw.mac_phy_latency * 2 + pipeline + read, "the call crosses once each way");
    // The same warm read as a lone request pays the same datapath, plus
    // both crossings.
    let datapath = [
        Stage::PipelineWait,
        Stage::Parse,
        Stage::Tlb,
        Stage::PtWalk,
        Stage::Interconnect,
        Stage::Dram,
        Stage::Dma,
        Stage::ExecuteTail,
    ];
    let lone_datapath = sum(&datapath.map(|stage| lone_read.stage_total(stage)));
    assert_eq!(read, lone_datapath, "the offload's access paid a crossing");
    assert_eq!(lone_read.stage_total(Stage::IngressMac), hw.mac_phy_latency * 2);
}

/// An offload call inside a `Batch` frame pays its own crossings and
/// leaves the frame's ingress to the frame's first fast-path access.
#[test]
fn an_offload_call_leaves_the_frames_ingress_to_its_first_access() {
    let mut r = Rig::warm(CBoardConfig::test_small());
    r.sim.actor_mut::<CBoard>(r.board).install_offload_shared(1, Box::new(TimedRead));
    let call = RequestBody::OffloadCall { offload: 1, opcode: 1, arg: Bytes::new() };
    let call = r.entry(call, false);
    let requests = vec![call, r.read(1), r.read(2)];
    r.deliver(ClioPacket::Batch { requests });
    let mac = r.mac();
    assert_eq!(crossings(&r.run()), [mac, mac], "the frame's ingress, then its egress");
}

/// An `OffloadEnv` built outside a board times an access as the board's
/// own does: the environment charges no crossing for whoever built it.
#[test]
fn a_directly_built_offload_env_times_an_access_as_the_board_does() {
    let cfg = CBoardConfig::test_small();
    let mut silicon = Silicon::new(cfg.hw.clone());
    let pte = Pte { pid: PID, vpn: 0, ppn: 0, perm: Perm::RW, valid: false };
    silicon.vm_mut().install_pte(pte).expect("install");
    let mut slow = SlowPath::new(&cfg);
    slow.refill_async_buffer(&mut silicon);
    let migrations = Migrations::default();
    let mut call = |opcode, start| {
        let mut env = OffloadEnv::new(&mut silicon, &mut slow, &migrations, PID, start);
        TimedRead.on_call(&mut env, opcode, Bytes::new()).data
    };
    call(0, SimTime::ZERO);
    let direct = nanos(&call(1, SimTime::from_nanos(100_000)));
    let (on_board, _, _) = timed_read_on_a_board();
    assert_eq!(direct, on_board);
}

/// When an access faults on an empty async buffer, the board refills the
/// buffer and runs the access again from when the first pass answered.
/// The second pass of a lone request pays ingress again; that of a
/// `Batch` entry does not. Pinned: the instants each op's answer reaches
/// the CN, and each op's status.
#[test]
fn a_stall_retried_access_answers_at_pinned_instants() {
    let mut cfg = CBoardConfig::test_small();
    cfg.hw.async_buffer_pages = 2;
    let mut r = Rig::new(cfg, 8);
    let page = r.page();
    // Three pages: the two buffered pages fault in, the third stalls.
    let three_pages = RequestBody::Read { va: 0, len: 3 * page as u32 };
    let entry = r.entry(three_pages, false);
    r.deliver(lone(entry));
    r.sim.run_until_idle();
    let three_pages = RequestBody::Read { va: 3 * page, len: 3 * page as u32 };
    let stalled = r.entry(three_pages, false);
    let next = r.entry(RequestBody::Read { va: 6 * page, len: 16 }, false);
    r.deliver(ClioPacket::Batch { requests: vec![stalled, next] });
    r.sim.run_until_idle();

    let stalls = r.sim.actor::<CBoard>(r.board).silicon().vm().stats().fault_stalls;
    assert_eq!(stalls, 2, "both three-page reads stalled once");
    let mut answered: BTreeMap<u64, (u64, Status)> = BTreeMap::new();
    for (t, id, status, _) in r.responses() {
        answered.insert(id.0, (t.as_nanos(), *status));
    }
    let ok = Status::Ok;
    let pinned = BTreeMap::from([(1, (12_463, ok)), (2, (24_826, ok)), (3, (24_880, ok))]);
    assert_eq!(answered, pinned);
}
