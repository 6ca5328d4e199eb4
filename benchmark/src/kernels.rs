//! Isolated host kernels: wall-clock nanoseconds per call into each crate's
//! public functions, timed from outside. They say what one unit of each
//! layer's work costs the simulator; the per-workload counts say how many
//! units an op needs.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use clio_cn::McMutation;
use clio_core::{Cluster, ClusterConfig};
use clio_hw::pagetable::{HashPageTable, Pte};
use clio_hw::tlb::{Tlb, TlbEntry};
use clio_hw::{CBoardHwConfig, Silicon};
use clio_mc::{Framing, Scenario};
use clio_mn::{CBoard, CBoardConfig};
use clio_net::{Mac, Network, NetworkConfig, NicPort};
use clio_proto::{
    codec, split_write, BatchBuilder, ClioPacket, Perm, Pid, ReqHeader, ReqId, RequestBody,
    RespHeader, ResponseBody, Status, ETH_OVERHEAD_BYTES, MTU_BYTES,
};
use clio_sim::{Actor, ActorId, Bandwidth, Ctx, Message, SimDuration, SimTime, Simulation};

use crate::stats::median;

/// Runs `batch` (which makes `calls` calls) until `budget` is spent, at
/// least three times; the median batch gives the ns per call.
fn ns_per_call(budget: Duration, calls: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and allocators
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(&mut samples).expect("at least three batches")
}

/// Given a wall-clock budget, returns wall-clock ns per call.
type Kernel = fn(Duration) -> f64;

/// Every kernel, under the per-layer metric it reports.
const KERNELS: [(&str, Kernel); 17] = [
    ("sim.dispatch_ns", sim_dispatch),
    ("sim.timer_cancel_ns", sim_timer_cancel),
    ("net.hop_ns", net_hop),
    ("proto.wire_len_ns", proto_wire_len),
    ("proto.encode_ns", proto_encode),
    ("proto.decode_ns", proto_decode),
    ("proto.batch_pack_ns", proto_batch_pack),
    ("proto.split_write_64k_ns", proto_split_write),
    ("hw.silicon_read_ns", |b| silicon(b, 64, true)),
    ("hw.silicon_write_ns", |b| silicon(b, 64, false)),
    ("hw.silicon_read_4k_ns", |b| silicon(b, 4096, true)),
    ("hw.tlb_lookup_ns", tlb_lookup),
    ("hw.pt_lookup_ns", pt_lookup),
    ("mn.board_req_ns", board_req),
    ("core.exec_wake_ns", |b| exec(b, 0)),
    ("core.exec_spawn_ns", |b| exec(b, 1000)),
    ("mc.scenario_build_ns", scenario_build),
];

/// Runs every kernel, splitting `total` wall-clock time evenly.
pub fn run_all(total: Duration) -> Vec<(&'static str, f64)> {
    let each = total / KERNELS.len() as u32;
    KERNELS.iter().map(|(name, kernel)| (*name, kernel(each))).collect()
}

/// Bounces a countdown between two peers, one event per bounce.
struct PingPong {
    peer: Option<ActorId>,
}

impl Actor for PingPong {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let left = msg.downcast::<u64>().expect("countdown");
        if left > 0 {
            let peer = self.peer.expect("peer wired");
            ctx.send(peer, SimDuration::from_nanos(1), Message::new(left - 1));
        }
    }
}

/// Post + step: a two-actor ping-pong, ns per dispatched event.
fn sim_dispatch(budget: Duration) -> f64 {
    const EVENTS: u64 = 20_000;
    let mut sim = Simulation::new(1);
    let a = sim.add_actor(PingPong { peer: None });
    let b = sim.add_actor(PingPong { peer: Some(a) });
    sim.actor_mut::<PingPong>(a).peer = Some(b);
    ns_per_call(budget, EVENTS, || {
        sim.post(a, Message::new(EVENTS - 1));
        sim.run_until_idle();
    })
}

/// Arm + cancel + drain, ns per timer (what the transport does per request).
fn sim_timer_cancel(budget: Duration) -> f64 {
    const TIMERS: u64 = 10_000;
    let mut sim = Simulation::new(1);
    let a = sim.add_actor(PingPong { peer: None });
    ns_per_call(budget, TIMERS, || {
        for _ in 0..TIMERS {
            let id = sim.post_in(a, SimDuration::from_micros(50), Message::new(0u64));
            sim.cancel(id);
        }
        sim.run_until_idle();
    })
}

/// Sends `n` minimum-size frames to `dst` when told to; swallows frames.
struct Endpoint {
    nic: NicPort,
    dst: Mac,
}

impl Actor for Endpoint {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if let Ok(n) = msg.downcast::<u64>() {
            for _ in 0..n {
                self.nic.send(ctx, self.dst, 64, Message::new(()));
            }
        }
    }
}

/// A sender and a sink on one switch.
fn hop_rig() -> (Simulation, ActorId) {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(&mut sim, NetworkConfig::default());
    let (tx, rx) =
        (net.create_port(Bandwidth::from_gbps(40)), net.create_port(Bandwidth::from_gbps(10)));
    let (tx_mac, rx_mac) = (tx.mac(), rx.mac());
    let sender = sim.add_actor(Endpoint { nic: tx, dst: rx_mac });
    let sink = sim.add_actor(Endpoint { nic: rx, dst: tx_mac });
    net.attach(&mut sim, tx_mac, sender);
    net.attach(&mut sim, rx_mac, sink);
    (sim, sender)
}

/// NIC → switch → sink, ns per frame.
fn net_hop(budget: Duration) -> f64 {
    const FRAMES: u64 = 5_000;
    let (mut sim, sender) = hop_rig();
    ns_per_call(budget, FRAMES, || {
        sim.post(sender, Message::new(FRAMES));
        sim.run_until_idle();
    })
}

/// Engine events one fabric hop costs. The net share subtracts them from
/// `net.hop_ns`, since the engine's share already counts every event.
pub fn events_per_hop() -> f64 {
    const FRAMES: u64 = 100;
    let (mut sim, sender) = hop_rig();
    sim.post(sender, Message::new(FRAMES));
    sim.run_until_idle();
    (sim.events_dispatched() - 1) as f64 / FRAMES as f64
}

fn read_request(id: u64) -> (ReqHeader, RequestBody) {
    (
        ReqHeader::single(ReqId(id), Pid(1)),
        RequestBody::Read { va: 0x4000 + 64 * (id % 64), len: 64 },
    )
}

fn write_request() -> ClioPacket {
    ClioPacket::Request {
        header: ReqHeader::single(ReqId(9), Pid(1)),
        body: RequestBody::WriteFrag { va: 0x4000, data: Bytes::from(vec![0xA5; 64]) },
    }
}

/// `codec::wire_len` of a 64 B write request and a 64 B read response,
/// ns per packet (the data path sizes every frame with it).
fn proto_wire_len(budget: Duration) -> f64 {
    let req = write_request();
    let resp = ClioPacket::Response {
        header: RespHeader::single(ReqId(9), Status::Ok),
        body: ResponseBody::DataFrag { offset: 0, data: Bytes::from(vec![0x5A; 64]) },
    };
    ns_per_call(budget, 20_000, || {
        for _ in 0..10_000 {
            black_box(codec::wire_len(black_box(&req)));
            black_box(codec::wire_len(black_box(&resp)));
        }
    })
}

fn proto_encode(budget: Duration) -> f64 {
    let req = write_request();
    ns_per_call(budget, 10_000, || {
        for _ in 0..10_000 {
            black_box(codec::encode(black_box(&req)));
        }
    })
}

fn proto_decode(budget: Duration) -> f64 {
    let bytes = codec::encode(&write_request());
    ns_per_call(budget, 10_000, || {
        for _ in 0..10_000 {
            black_box(codec::decode(black_box(&bytes)).expect("round trip"));
        }
    })
}

/// `BatchBuilder` fits + push ×16 + take, ns per packed request.
fn proto_batch_pack(budget: Duration) -> f64 {
    const FRAMES: u64 = 1_000;
    let mut builder = BatchBuilder::new(16, MTU_BYTES);
    ns_per_call(budget, FRAMES * 16, || {
        for f in 0..FRAMES {
            for i in 0..16 {
                let (header, body) = read_request(f * 16 + i);
                assert!(builder.fits(codec::request_wire_len(&body)));
                builder.push(header, body);
            }
            black_box(builder.take());
        }
    })
}

/// `split_write` of 64 KiB into MTU fragments, ns per call.
fn proto_split_write(budget: Duration) -> f64 {
    let data = Bytes::from(vec![7u8; 64 << 10]);
    ns_per_call(budget, 200, || {
        for i in 0..200 {
            black_box(split_write(ReqId(i), None, Pid(1), 0x10_0000, data.clone()));
        }
    })
}

fn bench_hw() -> CBoardHwConfig {
    CBoardHwConfig { phys_mem_bytes: 64 << 20, tlb_entries: 4096, ..CBoardHwConfig::test_small() }
}

/// `Silicon::read` / `write` of `len` bytes over 64 TLB-resident pages, ns
/// per call.
fn silicon(budget: Duration, len: u32, read: bool) -> f64 {
    const CALLS: u64 = 5_000;
    let cfg = bench_hw();
    let page = cfg.page_size;
    let mut silicon = Silicon::new(cfg);
    for vpn in 0..64 {
        let pte = Pte { pid: Pid(1), vpn: 16 + vpn, ppn: vpn, perm: Perm::RW, valid: true };
        silicon.vm_mut().install_pte(pte).expect("page table has room");
    }
    let data = vec![0xC3u8; len as usize];
    let mut now = SimTime::ZERO;
    let mut k = 0u64;
    ns_per_call(budget, CALLS, || {
        for _ in 0..CALLS {
            k += 1;
            let va = (16 + k % 64) * page + (k / 64) % (page / len as u64) * len as u64;
            let timing = if read {
                let (res, timing) = silicon.read(now, Pid(1), va, len);
                black_box(res.expect("mapped read"));
                timing
            } else {
                let (res, timing) = silicon.write(now, Pid(1), va, &data);
                res.expect("mapped write");
                timing
            };
            now = timing.done;
        }
    })
}

fn tlb_lookup(budget: Duration) -> f64 {
    let mut tlb = Tlb::new(4096);
    for vpn in 0..4096 {
        tlb.insert(Pid(1), vpn, TlbEntry { ppn: vpn, perm: Perm::RW });
    }
    let mut k = 0u64;
    ns_per_call(budget, 20_000, || {
        for _ in 0..20_000 {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            black_box(tlb.lookup(Pid(1), (k >> 33) % 4096).expect("resident"));
        }
    })
}

fn pt_lookup(budget: Duration) -> f64 {
    let cfg = bench_hw();
    let mut pt = HashPageTable::new(cfg.pt_buckets(), cfg.pt_slots_per_bucket);
    let mut installed = Vec::new();
    for vpn in 0..8192 {
        let pte = Pte { pid: Pid(1), vpn, ppn: vpn, perm: Perm::RW, valid: true };
        if pt.insert(pte).is_ok() {
            installed.push(vpn);
        }
    }
    let mut k = 0u64;
    ns_per_call(budget, 20_000, || {
        for _ in 0..20_000 {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let vpn = installed[(k >> 33) as usize % installed.len()];
            black_box(pt.lookup(Pid(1), vpn).expect("installed"));
        }
    })
}

/// A raw protocol client: sends `n` batch frames of sixteen 64 B reads to
/// the board when told to, and swallows the responses.
struct RawClient {
    nic: NicPort,
    board: Mac,
    next_id: u64,
}

impl Actor for RawClient {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let Ok(frames) = msg.downcast::<u64>() else { return };
        for _ in 0..frames {
            let requests = (0..16).map(|i| read_request(self.next_id + i)).collect();
            self.next_id += 16;
            let pkt = ClioPacket::Batch { requests };
            let wire = (codec::wire_len(&pkt) + ETH_OVERHEAD_BYTES) as u32;
            self.nic.send(ctx, self.board, wire, Message::new(pkt));
        }
    }
}

/// Raw client → `CBoard` over the fabric, batched 64 B reads, no CN stack:
/// ns per request (fabric hops, unbatching, silicon, egress batching).
fn board_req(budget: Duration) -> f64 {
    const FRAMES: u64 = 64;
    let mut sim = Simulation::new(1);
    let mut net = Network::new(&mut sim, NetworkConfig::default());
    let cfg = CBoardConfig { hw: bench_hw(), ..CBoardConfig::test_small() };
    let page = cfg.hw.page_size;
    let board_port = net.create_port(cfg.port_rate);
    let board_mac = board_port.mac();
    let mut board = CBoard::new("mn0", cfg, board_port);
    for vpn in 0..8 {
        let pte =
            Pte { pid: Pid(1), vpn: 0x4000 / page + vpn, ppn: vpn, perm: Perm::RW, valid: true };
        board.silicon_mut().vm_mut().install_pte(pte).expect("page table has room");
    }
    let board_id = sim.add_actor(board);
    net.attach(&mut sim, board_mac, board_id);
    let client_port = net.create_port(Bandwidth::from_gbps(40));
    let client_mac = client_port.mac();
    let client = sim.add_actor(RawClient { nic: client_port, board: board_mac, next_id: 1 });
    net.attach(&mut sim, client_mac, client);
    let ns = ns_per_call(budget, FRAMES * 16, || {
        sim.post(client, Message::new(FRAMES));
        sim.run_until_idle();
    });
    let served = sim.actor::<CBoard>(board_id).silicon().stats().reads;
    assert!(served >= FRAMES * 16, "board served only {served} reads");
    ns
}

/// One executor task on a real CN: with `spawns == 0`, ns per timer wake of
/// a task sleeping 1 ns at a time; otherwise ns per `spawn` of a task that
/// ends at once (`spawns` per wake, so the wake cost is amortized away).
fn exec(budget: Duration, spawns: u64) -> f64 {
    const WAKES: u64 = 2_000;
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    let stop = Rc::new(Cell::new(false));
    let stopped = stop.clone();
    cluster.spawn(0, Pid(1), move |h| async move {
        while !stopped.get() {
            h.sleep(SimDuration::from_nanos(1)).await;
            for _ in 0..spawns {
                h.spawn(async {});
            }
        }
    });
    cluster.start();
    let ns = ns_per_call(budget, WAKES * spawns.max(1), || {
        cluster.run_for(SimDuration::from_nanos(WAKES))
    });
    // Let the task end, so the executor (which the task holds) is freed.
    stop.set(true);
    cluster.run_until_idle();
    ns
}

/// Building the checker's two-op scenario from scratch (the checker does it
/// at every node it explores).
fn scenario_build(budget: Duration) -> f64 {
    ns_per_call(budget, 100, || {
        for _ in 0..100 {
            black_box(Scenario::new(Framing::Batched, McMutation::None, 16));
        }
    })
}
