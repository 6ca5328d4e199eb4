//! CLib ↔ CBoard integration: the full CN software stack against a real
//! memory node over the simulated fabric, including loss/corruption retries,
//! ordering, and lock-based mutual exclusion across compute nodes.

use bytes::Bytes;
use clio_cn::{CLib, CLibConfig, ClioError, Completion, CompletionValue, Op, OpToken, ThreadId};
use clio_mn::{CBoard, CBoardConfig};
use clio_net::{FaultInjector, Frame, Mac, Network, NetworkConfig, NicPort};
use clio_proto::{Perm, Pid};
use clio_sim::{Actor, ActorId, Bandwidth, Ctx, Message, SimDuration, Simulation};

/// Instruction to a CN host to submit an op.
#[derive(Clone)]
struct Submit {
    thread: ThreadId,
    op: Op,
}

/// A CN host actor embedding CLib.
struct CnHost {
    nic: NicPort,
    clib: CLib,
    /// The one board every op of the rig is addressed to.
    mn: Mac,
    completions: Vec<Completion>,
}

/// The one process every op of the rig runs as.
const PID: Pid = Pid(7);

impl CnHost {
    fn absorb(&mut self, mut c: Vec<Completion>) {
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
                let (nic, mn) = (&mut self.nic, self.mn);
                self.clib.submit(ctx, nic, s.thread, mn, PID, ctx.now(), s.op, &mut comps);
                self.absorb(comps);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Frame>() {
            Ok(f) => {
                let mut comps = Vec::new();
                self.clib.on_frame(ctx, &mut self.nic, f, &mut comps);
                self.absorb(comps);
                return;
            }
            Err(m) => m,
        };
        let mut comps = Vec::new();
        let leftover = self.clib.on_timer(ctx, &mut self.nic, msg, &mut comps);
        assert!(leftover.is_none(), "unexpected message at CN host");
        self.absorb(comps);
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
        clib: CLib::new(clib_cfg, 1, page),
        mn: board_mac,
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
    assert!(host.clib.retry_count() > 0, "losses should have forced retries");
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
    assert!(host.clib.retry_count() > 0, "corruption should have triggered NACK retries");
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

#[test]
fn locks_provide_mutual_exclusion_across_cns() {
    // Two CN hosts contend for one lock word on the board.
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
            clib: CLib::new(CLibConfig::default(), cn_id + 1, page),
            mn: bmac,
            completions: vec![],
        });
        net.attach(&mut sim, mac, host);
        hosts.push(host);
    }

    // Host 0 allocates the lock page (shared RAS => same Pid).
    sim.post(
        hosts[0],
        Message::new(Submit { thread: ThreadId(0), op: Op::Alloc { size: 4096, perm: Perm::RW } }),
    );
    sim.run_until_idle();
    let va = match &sim.actor::<CnHost>(hosts[0]).completions.last().unwrap().result {
        Ok(CompletionValue::Va(va)) => *va,
        other => panic!("alloc failed: {other:?}"),
    };

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
