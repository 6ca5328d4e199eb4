//! Property test: framing policy is invisible to applications.
//!
//! A random single-thread sequence of reads, writes, and atomics executes
//! under three framing policies — unbatched (one frame per packet, both
//! directions), fully batched (request + response coalescing with an
//! adaptive doorbell hold), and explicit scatter/gather vectors — and the
//! test asserts *observational equivalence*: every operation returns the
//! same result in every mode, and the final remote memory is identical.
//! This holds because `cn::ordering` serializes conflicting (same-page)
//! operations in program order no matter how submissions are framed, and
//! batching shares only wire frames, never reliability or ordering state.
//!
//! A second property extends the equivalence to the **error path**: with a
//! script of frame corruptions and drops injected between CN and MN, a
//! board that NACKs a corrupted batch frame with one coalesced `BatchNack`
//! must be observationally equivalent to a board that NACKs every entry in
//! its own frame — same per-op results, same final memory (so `retry_of`
//! dedup suppressed the same double executions), and all CN-side windows
//! drained — across arbitrary corruption/timeout interleavings.

use bytes::Bytes;
use clio_cn::{CLib, CLibConfig, ClioError, Completion, CompletionValue, Op, ThreadId};
use clio_mn::{CBoard, CBoardConfig};
use clio_net::{Frame, Mac, Network, NetworkConfig};
use clio_proto::{Perm, Pid};
use clio_sim::{Actor, ActorId, Bandwidth, Ctx, Message, SimDuration, Simulation};
use proptest::prelude::*;

const PAGES: u64 = 4;
const PAGE: u64 = 4096;
const PID: u64 = 7;

#[derive(Debug, Clone, Copy)]
enum TestOp {
    Read { page: u64 },
    Write { page: u64, val: u8 },
    Faa { page: u64, delta: u64 },
    Cas { page: u64, expected: u64, new: u64 },
}

fn arb_op() -> impl Strategy<Value = TestOp> {
    (0u8..4, 0u64..PAGES, any::<u8>()).prop_map(|(kind, page, val)| match kind {
        0 => TestOp::Read { page },
        1 => TestOp::Write { page, val },
        2 => TestOp::Faa { page, delta: val as u64 },
        _ => TestOp::Cas { page, expected: val as u64 % 4, new: val as u64 },
    })
}

#[derive(Clone)]
struct Submit {
    op: Op,
}

#[derive(Clone)]
struct SubmitV {
    ops: Vec<Op>,
}

struct CnHost {
    nic: clio_net::NicPort,
    clib: CLib,
    /// The one board every op of the rig is addressed to.
    mn: Mac,
    completions: Vec<Completion>,
}

impl Actor for CnHost {
    fn name(&self) -> &str {
        "cn-host"
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let msg = match msg.downcast::<Submit>() {
            Ok(s) => {
                let (nic, mn, done) = (&mut self.nic, self.mn, &mut self.completions);
                self.clib.submit(ctx, nic, ThreadId(0), mn, Pid(PID), ctx.now(), s.op, done);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SubmitV>() {
            Ok(s) => {
                let ops = s.ops.into_iter().map(|op| (self.mn, op)).collect();
                let (nic, done) = (&mut self.nic, &mut self.completions);
                self.clib.submit_many(ctx, nic, ThreadId(0), Pid(PID), ctx.now(), ops, done);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Frame>() {
            Ok(f) => {
                self.clib.on_frame(ctx, &mut self.nic, f, &mut self.completions);
                return;
            }
            Err(m) => m,
        };
        let leftover = self.clib.on_timer(ctx, &mut self.nic, msg, &mut self.completions);
        assert!(leftover.is_none(), "unexpected message at CN host");
    }
}

struct Rig {
    sim: Simulation,
    cn: ActorId,
}

fn rig(clib_cfg: CLibConfig, board_cfg: CBoardConfig) -> Rig {
    let mut sim = Simulation::new(23);
    let mut net = Network::new(&mut sim, NetworkConfig::default());
    let page = board_cfg.hw.page_size;
    let bport = net.create_port(Bandwidth::from_gbps(10));
    let board_mac = bport.mac();
    let board = sim.add_actor(CBoard::new("mn0", board_cfg, bport));
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
    Rig { sim, cn }
}

fn to_op(op: TestOp, va: u64) -> Op {
    match op {
        TestOp::Read { page } => Op::Read { va: va + page * PAGE, len: 24 },
        TestOp::Write { page, val } => {
            Op::Write { va: va + page * PAGE, data: Bytes::from(vec![val; 16]) }
        }
        TestOp::Faa { page, delta } => Op::Faa { va: va + page * PAGE, delta },
        TestOp::Cas { page, expected, new } => Op::Cas { va: va + page * PAGE, expected, new },
    }
}

/// How a run frames its submissions.
enum Mode {
    /// One `submit` per op, staggered 100 ns apart, no coalescing anywhere.
    Unbatched,
    /// One `submit` per op, staggered 100 ns apart, adaptive doorbell +
    /// response batching at defaults.
    Batched,
    /// The whole sequence as one `submit_many` vector at one instant.
    ScatterGather,
}

/// Executes `ops` under `mode`; returns per-op results (in submission
/// order) and the final bytes of every page.
fn run_mode(ops: &[TestOp], mode: Mode) -> (Vec<Result<CompletionValue, ClioError>>, Vec<Bytes>) {
    let (clib_cfg, board_cfg) = match mode {
        Mode::Unbatched => (CLibConfig::prototype_unbatched(), CBoardConfig::prototype_unbatched()),
        Mode::Batched | Mode::ScatterGather => {
            (CLibConfig::prototype(), CBoardConfig::test_small())
        }
    };
    let board_cfg = CBoardConfig { hw: CBoardConfig::test_small().hw, ..board_cfg };
    let mut r = rig(clib_cfg, board_cfg);

    // Prologue: allocate and deterministically initialize every page.
    r.sim.post(r.cn, Message::new(Submit { op: Op::Alloc { size: PAGES * PAGE, perm: Perm::RW } }));
    r.sim.run_until_idle();
    let va = match &r.sim.actor::<CnHost>(r.cn).completions.last().expect("alloc").result {
        Ok(CompletionValue::Va(va)) => *va,
        other => panic!("alloc failed: {other:?}"),
    };
    for p in 0..PAGES {
        r.sim.post(
            r.cn,
            Message::new(Submit {
                op: Op::Write { va: va + p * PAGE, data: Bytes::from(vec![p as u8; 24]) },
            }),
        );
        r.sim.run_until_idle();
    }
    let skip = r.sim.actor::<CnHost>(r.cn).completions.len();

    match mode {
        Mode::ScatterGather => {
            let vec_ops: Vec<Op> = ops.iter().map(|&o| to_op(o, va)).collect();
            r.sim.post(r.cn, Message::new(SubmitV { ops: vec_ops }));
        }
        _ => {
            for (i, &op) in ops.iter().enumerate() {
                r.sim.post_in(
                    r.cn,
                    SimDuration::from_nanos(100 * i as u64),
                    Message::new(Submit { op: to_op(op, va) }),
                );
            }
        }
    }
    r.sim.run_until_idle();

    let mut measured: Vec<Completion> = r.sim.actor::<CnHost>(r.cn).completions[skip..].to_vec();
    // Tokens increase in submission order; completion order may differ.
    measured.sort_by_key(|c| c.token);
    assert_eq!(measured.len(), ops.len(), "every op completes exactly once");
    let results = measured.into_iter().map(|c| c.result).collect();

    // Epilogue: read back every page synchronously.
    let mut pages = Vec::new();
    for p in 0..PAGES {
        r.sim.post(r.cn, Message::new(Submit { op: Op::Read { va: va + p * PAGE, len: 24 } }));
        r.sim.run_until_idle();
        match &r.sim.actor::<CnHost>(r.cn).completions.last().expect("read").result {
            Ok(CompletionValue::Data(d)) => pages.push(d.clone()),
            other => panic!("readback failed: {other:?}"),
        }
    }
    (results, pages)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched, unbatched, and scatter/gather execution must be
    /// observationally equivalent: same per-op results, same final memory.
    #[test]
    fn framing_policy_is_observationally_equivalent(
        ops in proptest::collection::vec(arb_op(), 1..24),
    ) {
        let (res_plain, mem_plain) = run_mode(&ops, Mode::Unbatched);
        let (res_batched, mem_batched) = run_mode(&ops, Mode::Batched);
        let (res_sg, mem_sg) = run_mode(&ops, Mode::ScatterGather);
        prop_assert_eq!(&res_batched, &res_plain, "batched results diverge");
        prop_assert_eq!(&res_sg, &res_plain, "scatter/gather results diverge");
        prop_assert_eq!(&mem_batched, &mem_plain, "batched memory diverges");
        prop_assert_eq!(&mem_sg, &mem_plain, "scatter/gather memory diverges");
    }
}

// ---------------------------------------------------------------------
// Frame-corruption injection: coalesced vs per-entry NACK recovery
// ---------------------------------------------------------------------

/// What the corruption proxy does with one CN → MN request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameFate {
    Deliver,
    /// Delivered with a failing integrity check: the board NACKs every
    /// request the frame carried.
    Corrupt,
    /// Silently dropped: every request the frame carried times out.
    Drop,
}

impl FrameFate {
    fn from_byte(b: u8) -> Self {
        // Bias toward delivery so scripts rarely exhaust retry budgets.
        match b % 8 {
            0 | 1 => FrameFate::Corrupt,
            2 => FrameFate::Drop,
            _ => FrameFate::Deliver,
        }
    }
}

/// Sits on the wire between the CN and the board: forwards frames by
/// destination MAC, applying the scripted fate to each CN → MN frame once
/// `armed` (the setup prologue runs fault-free). MN → CN frames pass
/// untouched.
struct CorruptProxy {
    cn: Option<clio_sim::ActorId>,
    board: Option<clio_sim::ActorId>,
    board_mac: Mac,
    script: Vec<FrameFate>,
    next: usize,
    armed: bool,
}

impl Actor for CorruptProxy {
    fn name(&self) -> &str {
        "corrupt-proxy"
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let mut frame = msg.downcast::<Frame>().expect("frame");
        let dst = if frame.dst == self.board_mac {
            if self.armed {
                let fate = self.script.get(self.next).copied().unwrap_or(FrameFate::Deliver);
                self.next += 1;
                match fate {
                    FrameFate::Deliver => {}
                    FrameFate::Corrupt => frame.corrupted = true,
                    FrameFate::Drop => return,
                }
            }
            self.board.expect("wired")
        } else {
            self.cn.expect("wired")
        };
        ctx.send(dst, SimDuration::from_nanos(300), Message::new(frame));
    }
}

/// Executes `ops` against a real CBoard behind the corruption proxy and
/// returns per-op results plus the final bytes of every page. `coalesced`
/// selects the board's NACK framing: `true` packs a corrupted batch
/// frame's NACKs into one `BatchNack`, `false` keeps one `Nack` frame per
/// entry (response batching disabled).
fn run_corrupted(
    ops: &[TestOp],
    script: &[FrameFate],
    coalesced: bool,
) -> (Vec<Result<CompletionValue, ClioError>>, Vec<Bytes>) {
    use clio_net::NicPort;
    use clio_sim::Bandwidth;

    let clib_cfg = CLibConfig {
        // Generous retry budget: scripts may corrupt or drop several
        // frames in a row and every op must still eventually succeed, so
        // equivalence compares values, not failure timing.
        max_retries: 24,
        request_timeout: SimDuration::from_micros(30),
        ..CLibConfig::prototype()
    };
    let board_cfg = if coalesced {
        CBoardConfig::test_small()
    } else {
        CBoardConfig { hw: CBoardConfig::test_small().hw, ..CBoardConfig::prototype_unbatched() }
    };
    let page = board_cfg.hw.page_size;

    let mut sim = Simulation::new(31);
    let cn_mac = Mac(1);
    let board_mac = Mac(2);
    let proxy = sim.add_actor(CorruptProxy {
        cn: None,
        board: None,
        board_mac,
        script: script.to_vec(),
        next: 0,
        armed: false,
    });
    let bport =
        NicPort::new(board_mac, Bandwidth::from_gbps(10), proxy, SimDuration::from_nanos(50));
    let board = sim.add_actor(CBoard::new("mn0", board_cfg, bport));
    let cport = NicPort::new(cn_mac, Bandwidth::from_gbps(40), proxy, SimDuration::from_nanos(50));
    let cn = sim.add_actor(CnHost {
        nic: cport,
        clib: CLib::new(clib_cfg, 1, page),
        mn: board_mac,
        completions: vec![],
    });
    sim.actor_mut::<CorruptProxy>(proxy).cn = Some(cn);
    sim.actor_mut::<CorruptProxy>(proxy).board = Some(board);

    // Fault-free prologue: allocate and initialize every page.
    sim.post(cn, Message::new(Submit { op: Op::Alloc { size: PAGES * PAGE, perm: Perm::RW } }));
    sim.run_until_idle();
    let va = match &sim.actor::<CnHost>(cn).completions.last().expect("alloc").result {
        Ok(CompletionValue::Va(va)) => *va,
        other => panic!("alloc failed: {other:?}"),
    };
    for p in 0..PAGES {
        sim.post(
            cn,
            Message::new(Submit {
                op: Op::Write { va: va + p * PAGE, data: Bytes::from(vec![p as u8; 24]) },
            }),
        );
        sim.run_until_idle();
    }
    let skip = sim.actor::<CnHost>(cn).completions.len();

    // Arm the fault script and fire the workload as same-instant bursts so
    // multi-entry batch frames actually form and get corrupted wholesale.
    sim.actor_mut::<CorruptProxy>(proxy).armed = true;
    for (i, &op) in ops.iter().enumerate() {
        sim.post_in(
            cn,
            SimDuration::from_nanos(20 * i as u64),
            Message::new(Submit { op: to_op(op, va) }),
        );
    }
    sim.run_until_idle();

    let host = sim.actor::<CnHost>(cn);
    assert_eq!(host.clib.in_flight(), 0, "an op never completed");
    let mut measured: Vec<Completion> = host.completions[skip..].to_vec();
    measured.sort_by_key(|c| c.token);
    assert_eq!(measured.len(), ops.len(), "every op completes exactly once");
    let results = measured.into_iter().map(|c| c.result).collect();

    // Fault-free epilogue: read back every page.
    sim.actor_mut::<CorruptProxy>(proxy).armed = false;
    let mut pages = Vec::new();
    for p in 0..PAGES {
        sim.post(cn, Message::new(Submit { op: Op::Read { va: va + p * PAGE, len: 24 } }));
        sim.run_until_idle();
        match &sim.actor::<CnHost>(cn).completions.last().expect("read").result {
            Ok(CompletionValue::Data(d)) => pages.push(d.clone()),
            other => panic!("readback failed: {other:?}"),
        }
    }
    (results, pages)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Coalesced-NACK recovery must be observationally equivalent to
    /// per-entry NACK recovery: same per-op results, same final memory
    /// (same dedup decisions — a double-executed FAA or write would show
    /// up in both), windows drained, across arbitrary corruption and
    /// timeout interleavings.
    #[test]
    fn batched_nack_recovery_is_observationally_equivalent(
        ops in proptest::collection::vec(arb_op(), 1..20),
        script_bytes in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let script: Vec<FrameFate> =
            script_bytes.iter().map(|&b| FrameFate::from_byte(b)).collect();
        let (res_batched, mem_batched) = run_corrupted(&ops, &script, true);
        let (res_per_entry, mem_per_entry) = run_corrupted(&ops, &script, false);
        prop_assert_eq!(&res_batched, &res_per_entry, "coalesced-NACK results diverge");
        prop_assert_eq!(&mem_batched, &mem_per_entry, "coalesced-NACK memory diverges");
        // And recovery is lossless: every op must have succeeded (the
        // retry budget is sized above any script this strategy generates).
        for (i, r) in res_batched.iter().enumerate() {
            prop_assert!(r.is_ok(), "op {} failed to recover: {:?}", i, r);
        }
    }
}
