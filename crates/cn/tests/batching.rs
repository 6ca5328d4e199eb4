//! Symmetric fast-path batching end to end: CLib's doorbell-coalesced
//! transport against a real CBoard over the simulated fabric. Verifies the
//! acceptance bars — ≥ 4× fewer wire frames in **both** directions for
//! bursts of small same-MN ops with identical completion results, for
//! same-instant bursts, adaptive-doorbell closed-loop bursts, and explicit
//! scatter/gather submissions — plus unchanged retry/dedup semantics under
//! corruption, coalesced retransmissions after same-instant timeouts, and
//! the NACK-exhaustion queue-pump fix.

use bytes::Bytes;
use clio_cn::{CLib, CLibConfig, ClioError, Completion, CompletionValue, Op, ThreadId};
use clio_mn::{CBoard, CBoardConfig};
use clio_net::{FaultInjector, Frame, Mac, Network, NetworkConfig};
use clio_proto::{Perm, Pid};
use clio_sim::{Actor, ActorId, Bandwidth, Ctx, Message, SimDuration, Simulation};

#[derive(Clone)]
struct Submit {
    thread: ThreadId,
    op: Op,
}

/// Scatter/gather submission: the whole vector in one `submit_many`.
#[derive(Clone)]
struct SubmitV {
    thread: ThreadId,
    ops: Vec<Op>,
}

struct CnHost {
    nic: clio_net::NicPort,
    clib: CLib,
    /// The one board every op of the rig is addressed to.
    mn: Mac,
    completions: Vec<Completion>,
}

/// The one process every op of the rig runs as.
const PID: Pid = Pid(7);

impl Actor for CnHost {
    fn name(&self) -> &str {
        "cn-host"
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let msg = match msg.downcast::<Submit>() {
            Ok(s) => {
                let (nic, mn, done) = (&mut self.nic, self.mn, &mut self.completions);
                self.clib.submit(ctx, nic, s.thread, mn, PID, ctx.now(), s.op, done);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SubmitV>() {
            Ok(s) => {
                let ops = s.ops.into_iter().map(|op| (self.mn, op)).collect();
                let (nic, done) = (&mut self.nic, &mut self.completions);
                self.clib.submit_many(ctx, nic, s.thread, PID, ctx.now(), ops, done);
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
    net: Network,
    board_mac: Mac,
    board: ActorId,
    cn: ActorId,
}

fn rig_full(clib_cfg: CLibConfig, board_cfg: CBoardConfig) -> Rig {
    let mut sim = Simulation::new(17);
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

    Rig { sim, net, board_mac, board, cn }
}

fn rig(clib_cfg: CLibConfig) -> Rig {
    rig_full(clib_cfg, CBoardConfig::test_small())
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

    fn rx_frames(&self) -> u64 {
        self.sim.actor::<CBoard>(self.board).stats().rx_frames
    }

    fn tx_frames(&self) -> u64 {
        self.sim.actor::<CBoard>(self.board).stats().tx_frames
    }

    fn alloc(&mut self, size: u64) -> u64 {
        self.submit(0, Op::Alloc { size, perm: Perm::RW });
        match &self.completions().last().expect("completion").result {
            Ok(CompletionValue::Va(va)) => *va,
            other => panic!("alloc failed: {other:?}"),
        }
    }
}

const PAGES: u64 = 32;
const PAGE: u64 = 4096;
const OP_LEN: u32 = 64;

/// Writes a distinct pattern to each page, then issues one async 64 B read
/// per page in a single burst. Returns (wire frames the burst took, the
/// read payloads in page order).
fn burst_read_run(batch_max_ops: u32) -> (u64, Vec<Bytes>) {
    let clib_cfg = CLibConfig {
        batch_max_ops,
        // A window wide enough to admit the whole burst at once, so the
        // frame count measures framing policy rather than the congestion
        // window.
        cwnd_init: 64.0,
        ..CLibConfig::prototype()
    };
    let mut r = rig(clib_cfg);
    let va = r.alloc(PAGES * PAGE);
    for p in 0..PAGES {
        r.submit(
            0,
            Op::Write { va: va + p * PAGE, data: Bytes::from(vec![p as u8 + 1; OP_LEN as usize]) },
        );
    }
    let frames_before = r.rx_frames();
    let comps_before = r.completions().len();
    // One burst of independent small reads (distinct pages: no ordering
    // dependencies), all submitted at the same virtual instant.
    for p in 0..PAGES {
        r.submit_nowait(0, Op::Read { va: va + p * PAGE, len: OP_LEN });
    }
    r.sim.run_until_idle();
    let frames = r.rx_frames() - frames_before;
    let data: Vec<Bytes> = r.completions()[comps_before..]
        .iter()
        .map(|c| match &c.result {
            Ok(CompletionValue::Data(d)) => d.clone(),
            other => panic!("read failed: {other:?}"),
        })
        .collect();
    (frames, data)
}

#[test]
fn burst_of_small_ops_uses_4x_fewer_frames_with_identical_results() {
    let (frames_unbatched, data_unbatched) = burst_read_run(1);
    let (frames_batched, data_batched) = burst_read_run(16);

    assert_eq!(frames_unbatched, PAGES, "unbatched: one frame per request");
    assert!(
        frames_batched * 4 <= frames_unbatched,
        "expected >= 4x fewer frames, got {frames_batched} vs {frames_unbatched}"
    );
    // Identical completion results, element for element.
    assert_eq!(data_batched, data_unbatched);
    for (p, d) in data_batched.iter().enumerate() {
        assert!(d.iter().all(|&b| b == p as u8 + 1), "page {p} read back wrong data");
    }
}

#[test]
fn batched_requests_keep_retry_and_dedup_semantics_under_corruption() {
    // Generous retry budget: at 30% frame corruption a request may need
    // several NACK retries, and this test asserts zero failures.
    let mut r = rig(CLibConfig { cwnd_init: 32.0, max_retries: 16, ..CLibConfig::prototype() });
    let va = r.alloc(PAGES * PAGE);
    // Corrupt frames toward the board: whole batch frames get NACKed, and
    // every inner request must be retried under `retry_of` so the dedup
    // buffer suppresses double execution of the writes. Several bursts make
    // sure corruption actually hits batch frames.
    r.net.set_faults(
        &mut r.sim,
        r.board_mac,
        FaultInjector { corrupt_prob: 0.3, ..FaultInjector::none() },
    );
    for round in 0..4u64 {
        for p in 0..PAGES {
            r.submit_nowait(
                0,
                Op::Write {
                    va: va + p * PAGE,
                    data: Bytes::from(vec![(round * PAGES + p) as u8; 32]),
                },
            );
        }
        r.sim.run_until_idle();
    }
    r.net.set_faults(&mut r.sim, r.board_mac, FaultInjector::none());
    for p in 0..PAGES {
        r.submit(0, Op::Read { va: va + p * PAGE, len: 32 });
        match &r.completions().last().expect("completion").result {
            Ok(CompletionValue::Data(d)) => {
                assert!(d.iter().all(|&b| b == (3 * PAGES + p) as u8), "page {p} corrupted")
            }
            other => panic!("read failed: {other:?}"),
        }
    }
    let host = r.sim.actor::<CnHost>(r.cn);
    assert!(host.completions.iter().all(|c| c.result.is_ok()), "an op failed");
    assert!(host.clib.retry_count() > 0, "corruption should have forced retries");
    assert!(host.clib.batched_ops() > 0, "the burst should actually have batched");
}

/// Runs a 64-op "closed-loop" burst — submissions staggered 50 ns apart,
/// modeling many closed-loop clients landing near-simultaneously rather
/// than at one virtual instant — and returns the wire frames used in each
/// direction plus the read payloads.
fn staggered_burst_run(clib_cfg: CLibConfig, board_cfg: CBoardConfig) -> (u64, u64, Vec<Bytes>) {
    const OPS: u64 = 64;
    let mut r = rig_full(clib_cfg, board_cfg);
    let va = r.alloc(OPS * PAGE);
    for p in 0..OPS {
        r.submit(
            0,
            Op::Write { va: va + p * PAGE, data: Bytes::from(vec![p as u8 + 1; OP_LEN as usize]) },
        );
    }
    let (rx0, tx0) = (r.rx_frames(), r.tx_frames());
    let comps_before = r.completions().len();
    for p in 0..OPS {
        r.sim.post_in(
            r.cn,
            SimDuration::from_nanos(50 * p),
            Message::new(Submit {
                thread: ThreadId(p), // independent threads: no ordering edges
                op: Op::Read { va: va + p * PAGE, len: OP_LEN },
            }),
        );
    }
    r.sim.run_until_idle();
    let frames = (r.rx_frames() - rx0, r.tx_frames() - tx0);
    let mut data: Vec<(u64, Bytes)> = r.completions()[comps_before..]
        .iter()
        .map(|c| match &c.result {
            Ok(CompletionValue::Data(d)) => (c.thread.0, d.clone()),
            other => panic!("read failed: {other:?}"),
        })
        .collect();
    data.sort_by_key(|(t, _)| *t);
    (frames.0, frames.1, data.into_iter().map(|(_, d)| d).collect())
}

#[test]
fn staggered_closed_loop_burst_coalesces_both_directions_under_doorbell_delay() {
    // Baseline: the bare wire — batching off at both ends, so the
    // 50 ns-staggered submissions each pay their own frame, and so does
    // every response.
    let wide = CLibConfig { cwnd_init: 128.0, cwnd_max: 256.0, ..CLibConfig::prototype() };
    let unbatched = CBoardConfig { resp_batch_max_ops: 1, ..CBoardConfig::test_small() };
    let (rx_plain, tx_plain, data_plain) =
        staggered_burst_run(CLibConfig { batch_max_ops: 1, ..wide }, unbatched);
    assert_eq!(rx_plain, 64, "unbatched submissions pay one frame per request");
    assert_eq!(tx_plain, 64, "unbatched egress pays one frame per response");

    // The defaults: the run's 64 warm-up writes calibrate srtt, so both
    // doorbells hold within their derived budgets by the time the burst
    // lands.
    let (rx_batched, tx_batched, data_batched) =
        staggered_burst_run(wide, CBoardConfig::test_small());
    assert!(
        rx_batched * 4 <= rx_plain,
        "expected >= 4x fewer CN->MN frames, got {rx_batched} vs {rx_plain}"
    );
    assert!(
        tx_batched * 4 <= tx_plain,
        "expected >= 4x fewer MN->CN frames, got {tx_batched} vs {tx_plain}"
    );
    assert_eq!(data_batched, data_plain, "coalescing must not change results");
    for (p, d) in data_batched.iter().enumerate() {
        assert!(d.iter().all(|&b| b == p as u8 + 1), "page {p} read back wrong data");
    }
}

#[test]
fn scatter_gather_vector_coalesces_without_doorbell_heuristics() {
    // Zero doorbell budget and even zero-delay coalescing would not help a
    // driver submitting from separate events; the explicit vector must
    // still batch because it reaches the transport as one unit.
    let mut r = rig(CLibConfig { cwnd_init: 64.0, ..CLibConfig::prototype() });
    let va = r.alloc(PAGES * PAGE);
    for p in 0..PAGES {
        r.submit(
            0,
            Op::Write { va: va + p * PAGE, data: Bytes::from(vec![p as u8 + 1; OP_LEN as usize]) },
        );
    }
    let rx0 = r.rx_frames();
    let comps_before = r.completions().len();
    let ops: Vec<Op> = (0..PAGES).map(|p| Op::Read { va: va + p * PAGE, len: OP_LEN }).collect();
    r.sim.post(r.cn, Message::new(SubmitV { thread: ThreadId(0), ops }));
    r.sim.run_until_idle();
    let frames = r.rx_frames() - rx0;
    assert!(frames * 4 <= PAGES, "a {PAGES}-op vector must share frames, got {frames} frames");
    for (p, c) in r.completions()[comps_before..].iter().enumerate() {
        match &c.result {
            Ok(CompletionValue::Data(d)) => {
                assert!(d.iter().all(|&b| b == p as u8 + 1), "page {p} wrong data")
            }
            other => panic!("read failed: {other:?}"),
        }
    }
}

#[test]
fn same_instant_timeouts_recoalesce_retries_into_batch_frames() {
    // Drop every frame toward the board: a batched burst of reads times out
    // together, and the simultaneous timer expiries must re-coalesce the
    // retries through the batch builder instead of shipping each alone.
    let mut r = rig(CLibConfig { cwnd_init: 32.0, max_retries: 8, ..CLibConfig::prototype() });
    let va = r.alloc(8 * PAGE);
    for p in 0..8 {
        r.submit(0, Op::Write { va: va + p * PAGE, data: Bytes::from(vec![p as u8 + 1; 16]) });
    }
    r.net.set_faults(
        &mut r.sim,
        r.board_mac,
        FaultInjector { loss_prob: 1.0, ..FaultInjector::none() },
    );
    for p in 0..8u64 {
        r.submit_nowait(0, Op::Read { va: va + p * PAGE, len: 16 });
    }
    // Let the burst ship and its timers expire once, then heal the link.
    r.sim.run_for(SimDuration::from_micros(40));
    let frames_before_retry = {
        let host = r.sim.actor::<CnHost>(r.cn);
        (host.clib.batch_frames(), host.clib.batched_ops())
    };
    assert_eq!(frames_before_retry, (1, 8), "the initial burst shipped as one batch frame");
    r.net.set_faults(&mut r.sim, r.board_mac, FaultInjector::none());
    r.sim.run_until_idle();
    let host = r.sim.actor::<CnHost>(r.cn);
    assert!(host.completions.iter().all(|c| c.result.is_ok()), "an op failed");
    assert!(host.clib.retry_count() >= 8, "every read should have retried");
    assert!(
        host.clib.batched_ops() >= 16,
        "retries must re-coalesce: {} batched ops",
        host.clib.batched_ops()
    );
    let retry_frames = host.clib.batch_frames() - 1;
    assert!(
        retry_frames <= 2,
        "8 same-instant retries should share 1-2 frames, got {retry_frames}"
    );
}

#[test]
fn corrupted_64_op_burst_recovers_in_ceil_frames_per_direction() {
    // Acceptance bar for the coalesced error path: a 64-op burst ships in
    // ceil(64/16) = 4 batch frames; corrupting all four must produce at
    // most 4 NACK frames back (one BatchNack per corrupted frame) and at
    // most 4 coalesced retry frames forward — recovery never exceeds
    // ceil(n / batch_max_ops) frames per direction.
    const OPS: u64 = 64;
    let mut r = rig(CLibConfig { cwnd_init: 128.0, cwnd_max: 256.0, ..CLibConfig::prototype() });
    let va = r.alloc(OPS * PAGE);
    for p in 0..OPS {
        r.submit(
            0,
            Op::Write { va: va + p * PAGE, data: Bytes::from(vec![p as u8 + 1; OP_LEN as usize]) },
        );
    }
    let stats0 = r.sim.actor::<CBoard>(r.board).stats();
    let comps_before = r.completions().len();
    // Deterministically corrupt exactly the burst's four batch frames.
    r.net.set_faults(
        &mut r.sim,
        r.board_mac,
        FaultInjector { corrupt_next: 4, ..FaultInjector::none() },
    );
    for p in 0..OPS {
        r.submit_nowait(0, Op::Read { va: va + p * PAGE, len: OP_LEN });
    }
    r.sim.run_until_idle();

    // Every read recovered with the right data.
    let reads = &r.completions()[comps_before..];
    assert_eq!(reads.len() as u64, OPS);
    for (p, c) in reads.iter().enumerate() {
        match &c.result {
            Ok(CompletionValue::Data(d)) => {
                assert!(d.iter().all(|&b| b == p as u8 + 1), "page {p} wrong data after recovery")
            }
            other => panic!("read {p} failed to recover: {other:?}"),
        }
    }

    let stats = r.sim.actor::<CBoard>(r.board).stats();
    let ceil_frames = OPS.div_ceil(CLibConfig::prototype().batch_max_ops as u64);
    assert_eq!(stats.nacks - stats0.nacks, OPS, "every entry of every corrupted frame NACKed");
    let nack_frames = stats.nack_frames - stats0.nack_frames;
    assert!(
        nack_frames <= ceil_frames,
        "NACKs must coalesce: {nack_frames} NACK frames > ceil(64/16) = {ceil_frames}"
    );
    let host = r.sim.actor::<CnHost>(r.cn);
    assert_eq!(host.clib.retry_count(), OPS, "each read retried exactly once");
    assert!(
        host.clib.retry_frames() <= ceil_frames,
        "retries must coalesce: {} retry frames > {ceil_frames}",
        host.clib.retry_frames()
    );
    // Per direction: 4 original + <=4 retry frames in, <=4 NACK frames plus
    // the (batched) responses out.
    let rx = stats.rx_frames - stats0.rx_frames;
    assert!(rx <= 2 * ceil_frames, "CN->MN took {rx} frames, bound {}", 2 * ceil_frames);
}

#[test]
fn nack_retry_exhaustion_pumps_queued_requests() {
    // Window of one: the second read must wait in the send queue. With
    // every frame toward the board corrupted, the first read burns all its
    // NACK retries and fails — and the failure must pump the queue so the
    // second read gets its chance (regression: it used to stall forever).
    let clib_cfg =
        CLibConfig { batch_max_ops: 1, cwnd_init: 1.0, cwnd_max: 1.0, ..CLibConfig::prototype() };
    let mut r = rig(clib_cfg);
    let va = r.alloc(2 * PAGE);
    r.net.set_faults(
        &mut r.sim,
        r.board_mac,
        FaultInjector { corrupt_prob: 1.0, ..FaultInjector::none() },
    );
    r.submit_nowait(0, Op::Read { va, len: 8 });
    r.submit_nowait(0, Op::Read { va: va + PAGE, len: 8 });
    r.sim.run_until_idle();
    let comps: Vec<_> = r
        .completions()
        .iter()
        .filter(|c| matches!(c.result, Err(ClioError::TimedOut { .. })))
        .collect();
    assert_eq!(
        comps.len(),
        2,
        "both reads must complete (with errors); the queued one must not stall"
    );
}
