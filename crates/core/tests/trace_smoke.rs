//! Observability end-to-end: a traced 64-op burst exports valid Perfetto
//! JSON; stage spans tile every completed op exactly (batched, unbatched
//! and NACK-retried alike); a corrupted-then-retried op's trace links the
//! retry back to the failed attempt; a two-MN fence's legs are one trace;
//! tracing disabled is provably zero-overhead (identical digest, frames
//! and completions); and the unified registry walks exactly the pinned
//! name set, its gauges equal to the executor state they are computed from
//! at every step.

use bytes::Bytes;
use clio_core::{Cluster, ClusterConfig, ExecDriver, ProcHandle};
use clio_net::FaultInjector;
use clio_proto::{Perm, Pid};
use clio_trace::export::{perfetto_json, validate_chrome_trace};
use clio_trace::{check_trace, OpTrace, Stage, Track};
use proptest::prelude::*;

const BURST: usize = 64;

/// Allocates one region, writes it once, then issues `BURST` reads at one
/// instant (spawned, then collected with `rrelease`) — the doorbell
/// coalesces them into batch frames, so the burst exercises batching,
/// egress coalescing and multi-op frames end to end.
async fn burst_client(h: ProcHandle) {
    let va = h.ralloc((BURST as u64) * 64, Perm::RW).await.va();
    let c = h.rwrite(va, Bytes::from(vec![0xAB; BURST * 64])).await;
    assert!(c.result.is_ok(), "seed write failed: {:?}", c.result);
    for i in 0..BURST as u64 {
        let h2 = h.clone();
        h.spawn(async move {
            let c = h2.rread(va + i * 64, 64).await;
            assert!(c.result.is_ok(), "burst read failed: {:?}", c.result);
        });
    }
    h.rrelease().await;
}

/// CN→MN frames that carried the burst's reads: one per batch frame, one
/// per read that left alone (the alloc and the multi-packet seed write
/// never share a frame).
fn burst_request_frames(cluster: &Cluster) -> u64 {
    let stats = cluster.cn(0).clib().transport().stats();
    stats.batch_frames + (BURST as u64 - stats.batched_ops)
}

/// Runs a traced burst and returns (cluster, finished traces).
fn run_burst(sample_every: u64) -> (Cluster, Vec<OpTrace>) {
    let cfg = ClusterConfig::test_small().with_tracing(sample_every);
    let mut cluster = Cluster::build(&cfg);
    cluster.block_on(0, Pid(1), burst_client);
    let traces = cluster.take_traces();
    (cluster, traces)
}

#[test]
fn burst_traces_tile_exactly_and_export_valid_perfetto_json() {
    let (_cluster, traces) = run_burst(1);
    // alloc + seed write + 64 reads, every one sampled.
    assert!(traces.len() >= BURST + 2, "only {} traces", traces.len());
    let reads = traces.iter().filter(|t| t.label == "read").count();
    assert!(reads >= BURST, "only {reads} read traces");
    for t in &traces {
        check_trace(t).expect("every finished op's spans must tile exactly");
        // The fig14 invariant, stated directly: per-stage time sums to the
        // measured end-to-end latency with no residue.
        assert_eq!(t.span_sum(), t.e2e(), "op {} span sum != e2e", t.id);
    }
    // Batched ops spend time in the doorbell and cross the wire.
    let held: u64 = traces.iter().map(|t| t.stage_total(Stage::DoorbellHold).as_nanos()).sum();
    let wired: u64 = traces.iter().map(|t| t.stage_total(Stage::Wire).as_nanos()).sum();
    assert!(wired > 0, "no wire time recorded");
    let _ = held; // doorbell may be zero-width under an aggressive budget

    let json = perfetto_json(&traces);
    let stats = validate_chrome_trace(&json).expect("exported JSON must validate");
    assert!(stats.begins > 0, "export is empty");
    assert_eq!(stats.begins, stats.ends, "unbalanced B/E events");
    assert!(stats.lanes >= 3, "expected cn + wire + mn lanes, got {}", stats.lanes);
}

#[test]
fn sampling_traces_a_subset() {
    let (_cluster, traces) = run_burst(8);
    let all = BURST + 2;
    assert!(!traces.is_empty(), "1-in-8 sampling recorded nothing");
    assert!(traces.len() < all / 2, "1-in-8 sampling kept {} of {all} ops", traces.len());
    for t in &traces {
        check_trace(t).expect("sampled traces are still well-formed");
    }
}

#[test]
fn tracing_disabled_is_zero_overhead() {
    // Identical workload, tracing off vs on: virtual time, event count,
    // digest, frame counts and completions must all match — tracing rides
    // in reserved header bits and costs no modeled bytes or events.
    let run = |trace: bool| {
        let mut cfg = ClusterConfig::test_small();
        if trace {
            cfg = cfg.with_tracing(1);
        }
        let mut cluster = Cluster::build(&cfg);
        cluster.block_on(0, Pid(1), burst_client);
        // The burst left the CN coalesced at least 4x.
        let frames = burst_request_frames(&cluster);
        assert!(frames * 4 <= BURST as u64, "{BURST} reads took {frames} request frames");
        let stats = cluster.mn(0).stats();
        (
            cluster.sim.digest(),
            cluster.sim.events_dispatched(),
            cluster.now(),
            stats.rx_frames,
            stats.tx_frames,
            cluster.registry().counter("cn0.clib.completed"),
            cluster.take_traces().len(),
        )
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.0, on.0, "digest must not depend on tracing");
    assert_eq!(off.1, on.1, "event count must not depend on tracing");
    assert_eq!(off.2, on.2, "virtual time must not depend on tracing");
    assert_eq!(off.3, on.3, "rx frame count must not depend on tracing");
    assert_eq!(off.4, on.4, "tx frame count must not depend on tracing");
    assert_eq!(off.5, on.5, "completions must not depend on tracing");
    assert_eq!(off.6, 0, "disabled tracer must record nothing");
    assert!(on.6 > 0, "enabled tracer must record traces");
}

#[test]
fn corrupted_then_retried_op_links_retry_to_origin_attempt() {
    // Deterministically corrupt the first CN→MN frame: the board NACKs it,
    // the CN retries, and the op's trace must carry a RetryLink from
    // attempt 0 to attempt 1 with attempt-0 spans before the link and
    // attempt-1 spans after it.
    let cfg = ClusterConfig::test_small().with_tracing(1);
    let mut cluster = Cluster::build(&cfg);
    let mn_mac = cluster.mn_macs()[0];
    cluster.net.set_faults(
        &mut cluster.sim,
        mn_mac,
        FaultInjector { corrupt_next: 1, ..FaultInjector::none() },
    );
    // (`block_on` panics unless the burst completes despite the retry.)
    cluster.block_on(0, Pid(1), burst_client);
    assert!(cluster.cn(0).clib().transport().stats().retries > 0, "corruption forced no retry");

    let traces = cluster.take_traces();
    let retried: Vec<&OpTrace> = traces.iter().filter(|t| !t.links.is_empty()).collect();
    assert!(!retried.is_empty(), "no trace recorded a retry link");
    for t in &traces {
        check_trace(t).expect("retried traces must still tile exactly");
    }
    for t in &retried {
        let link = t.links[0];
        assert_eq!(link.from, 0, "first link must leave the origin attempt");
        assert_eq!(link.to, 1, "first link must enter the first retry");
        assert!(
            t.spans.iter().any(|s| s.attempt == 0 && s.end <= link.at),
            "origin attempt left no spans before the retry link"
        );
        assert!(t.spans.iter().any(|s| s.attempt == 1), "retry attempt left no spans");
        // The recovery wait itself is accounted as a queueing stage.
        assert!(
            t.stage_total(Stage::NackTurnaround) + t.stage_total(Stage::TimeoutWait)
                > clio_sim::SimDuration::ZERO,
            "retried op recorded no recovery wait"
        );
    }
}

/// A fence on a two-MN cluster fences both boards, one leg after the
/// other, as one op: one trace whose spans visit both boards' tracks and
/// tile its whole latency.
#[test]
fn a_two_mn_rfence_is_one_trace_that_tiles_exactly() {
    let mut cfg = ClusterConfig::test_small().with_tracing(1);
    cfg.mns = 2;
    let mut cluster = Cluster::build(&cfg);
    let latency = cluster.block_on(0, Pid(1), |h| async move {
        let c = h.rfence().await;
        assert!(c.result.is_ok(), "fence failed: {:?}", c.result);
        c.latency()
    });
    let traces = cluster.take_traces();
    let fences: Vec<&OpTrace> = traces.iter().filter(|t| t.label == "fence").collect();
    assert_eq!(fences.len(), 1, "one fence, one trace: {traces:?}");
    let fence = fences[0];
    check_trace(fence).expect("a fence's legs tile one timeline");
    assert_eq!(fence.e2e(), latency, "the trace spans the fence's whole latency");
    for mn in [Track::Mn(0), Track::Mn(1)] {
        assert!(fence.spans.iter().any(|s| s.track == mn), "no leg reached {mn:?}");
    }
}

/// Every counter a 1 CN x 1 MN cluster's registry yields, sorted. The names
/// are an interface: `benchmark/src/layers.rs` looks counters up by name,
/// and `scripts/check_docs.sh` holds the names ARCHITECTURE quotes to this
/// list and [`GAUGE_NAMES`].
const COUNTER_NAMES: &[&str] = &[
    "cn0.clib.completed",
    "cn0.runtime.deadline_exceeded_total",
    "cn0.transport.batch_frames",
    "cn0.transport.batched_ops",
    "cn0.transport.retries",
    "cn0.transport.retry_frames",
    "controller.migration.aborted",
    "controller.migration.completed",
    "controller.migration.started",
    "mn0.board.batched_requests",
    "mn0.board.batched_responses",
    "mn0.board.board_restarts",
    "mn0.board.conflicts",
    "mn0.board.dedup_replays",
    "mn0.board.dropped_while_down",
    "mn0.board.moved",
    "mn0.board.nack_frames",
    "mn0.board.nacks",
    "mn0.board.offload_calls",
    "mn0.board.rx_frames",
    "mn0.board.rx_packets",
    "mn0.board.slow_ops",
    "mn0.board.tx_frames",
    "mn0.board.tx_packets",
    "mn0.silicon.atomics",
    "mn0.silicon.read_bytes",
    "mn0.silicon.reads",
    "mn0.silicon.write_bytes",
    "mn0.silicon.writes",
    "mn0.tlb.hits",
    "mn0.tlb.misses",
    "mn0.vm.fault_stalls",
    "mn0.vm.invalid",
    "mn0.vm.page_faults",
    "mn0.vm.perm_denied",
    "mn0.vm.translations",
];

/// Every gauge of the same cluster, sorted.
const GAUGE_NAMES: &[&str] =
    &["cn0.runtime.inflight", "cn0.runtime.parked", "cn0.runtime.tasks", "mn0.board.peer_srtt_ns"];

#[test]
fn registry_yields_exactly_the_pinned_names() {
    let (cluster, _traces) = run_burst(1);
    let snap = cluster.registry().snapshot();
    assert_eq!(snap.counters.keys().collect::<Vec<_>>(), COUNTER_NAMES);
    assert_eq!(snap.gauges.keys().collect::<Vec<_>>(), GAUGE_NAMES);
    // The failure-model metrics are there on a healthy run too, so a
    // dashboard can alert on them without waiting for the first outage.
    // Healthy cluster: no board ever power-cycled.
    assert_eq!(snap.counters["mn0.board.board_restarts"], 0);
    assert!(snap.counters["cn0.clib.completed"] >= BURST as u64);
    assert!(snap.counters["mn0.board.rx_frames"] > 0);
    // The MN learned the CN's srtt from the request headers' echo.
    assert!(snap.gauges["mn0.board.peer_srtt_ns"] > 0, "srtt echo never landed");

    // A walked value is the component's own field: one per group.
    let (clib, board) = (cluster.cn(0).clib(), cluster.mn(0));
    let vm = board.silicon().vm();
    let batched_ops = clib.transport().stats().batched_ops;
    assert_eq!(snap.counters["cn0.transport.batched_ops"], batched_ops);
    assert_eq!(snap.counters["mn0.board.rx_frames"], board.stats().rx_frames);
    assert_eq!(snap.counters["mn0.silicon.reads"], board.silicon().stats().reads);
    assert_eq!(snap.counters["mn0.vm.translations"], vm.stats().translations);
    assert_eq!(snap.counters["mn0.tlb.hits"], vm.tlb().hits());
    assert!(batched_ops > 0 && vm.tlb().hits() > 0, "the burst exercised neither");
    // Single-name reads walk the same values.
    let reg = cluster.registry();
    assert_eq!(reg.counter("mn0.board.rx_frames"), Some(board.stats().rx_frames));
    assert_eq!(reg.gauge("mn0.board.peer_srtt_ns"), Some(snap.gauges["mn0.board.peer_srtt_ns"]));
    assert_eq!(reg.counter("mn0.board.peer_srtt_ns"), None, "a gauge is not a counter");
}

/// One random closed-loop workload shape for the well-formedness property
/// (`drivers` = concurrent client processes).
#[derive(Debug, Clone)]
struct Workload {
    seed: u64,
    ops_per_driver: u32,
    drivers: usize,
    unbatched: bool,
    corrupt_prob: f64,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (any::<u64>(), 1u32..24, 1usize..4, any::<bool>(), 0usize..3).prop_map(
        |(seed, ops_per_driver, drivers, unbatched, corrupt)| Workload {
            seed,
            ops_per_driver,
            drivers,
            unbatched,
            corrupt_prob: [0.0, 0.15, 0.3][corrupt],
        },
    )
}

/// Closed-loop read/write mix for the property: alloc, seed write, then
/// `n` alternating reads/writes.
async fn mix_client(h: ProcHandle, n: u32) {
    let va = h.ralloc(4096, Perm::RW).await.va();
    let mut c = h.rwrite(va, Bytes::from_static(&[7u8; 128])).await;
    for remaining in (0..n).rev() {
        assert!(c.result.is_ok(), "op failed: {:?}", c.result);
        c = if remaining.is_multiple_of(2) {
            h.rread(va, 128).await
        } else {
            h.rwrite(va + 256, Bytes::from_static(&[9u8; 64])).await
        };
    }
    assert!(c.result.is_ok(), "op failed: {:?}", c.result);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every completed op's trace is well-formed — spans monotone with no
    /// gaps or overlaps and span sum equal to the e2e latency — across
    /// batched, unbatched and NACK-retried schedules alike.
    #[test]
    fn every_completed_op_has_well_formed_spans(w in arb_workload()) {
        let mut cfg = ClusterConfig::test_small().with_tracing(1);
        cfg.seed = w.seed;
        if w.unbatched {
            cfg.clib = clio_cn::CLibConfig::prototype_unbatched();
        }
        // Generous budget: at 30% frame corruption an op may need many
        // NACK-driven resends before one lands.
        cfg.clib.max_retries = 64;
        let mut cluster = Cluster::build(&cfg);
        let mn_mac = cluster.mn_macs()[0];
        if w.corrupt_prob > 0.0 {
            cluster.net.set_faults(
                &mut cluster.sim,
                mn_mac,
                FaultInjector { corrupt_prob: w.corrupt_prob, ..FaultInjector::none() },
            );
        }
        let done = std::rc::Rc::new(std::cell::Cell::new(0));
        for i in 0..w.drivers {
            let (done, n) = (done.clone(), w.ops_per_driver);
            cluster.spawn(0, Pid(10 + i as u64), move |h| async move {
                mix_client(h, n).await;
                done.set(done.get() + 1);
            });
        }
        cluster.start();
        cluster.run_until_idle();
        prop_assert_eq!(done.get(), w.drivers, "a client never finished");
        let traces = cluster.take_traces();
        prop_assert!(
            traces.len() as u32 >= w.drivers as u32 * (w.ops_per_driver + 2),
            "missing traces: {} recorded", traces.len()
        );
        for t in &traces {
            if let Err(e) = check_trace(t) {
                prop_assert!(false, "ill-formed trace ({} attempts): {e}", t.attempt + 1);
            }
            // Retried ops must link every attempt transition.
            prop_assert_eq!(t.links.len() as u32, t.attempt, "attempt/link mismatch");
        }
    }
}

/// Eight concurrent 64 B writes to pages of their own, from as many tasks.
async fn fan_out_writes(h: ProcHandle) {
    let va = h.ralloc(1 << 16, Perm::RW).await.va();
    for i in 0..8u64 {
        let h2 = h.clone();
        h.spawn(async move {
            h2.rwrite(va + i * 4096, Bytes::from(vec![i as u8; 64])).await.result.unwrap();
        });
    }
}

/// Spawns [`fan_out_writes`] as process `pid` on node `cn`: the executor's
/// index there, and a handle to read its in-flight count through.
fn spawn_fan_out(cluster: &mut Cluster, cn: usize, pid: u64) -> (usize, ProcHandle) {
    let mut handle = None;
    let idx = cluster.spawn(cn, Pid(pid), |h| {
        handle = Some(h.clone());
        fan_out_writes(h)
    });
    (idx, handle.expect("spawn calls the closure"))
}

#[test]
fn runtime_gauges_equal_executor_state_at_every_step() {
    // The executor's state is observable through the unified registry:
    // `cn<i>.runtime.inflight` counts ops in flight and `tasks` live tasks.
    // The walk computes them from the executor's own fields, so they agree
    // with it at every step, peak at the fan-out and drain to zero at idle.
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    let (exec, handle) = spawn_fan_out(&mut cluster, 0, 3);
    cluster.start();
    let (mut max_inflight, mut max_tasks) = (0, 0);
    loop {
        let snap = cluster.registry().snapshot();
        let live_tasks = cluster.cn(0).driver::<ExecDriver>(exec).live_tasks();
        assert_eq!(snap.gauges["cn0.runtime.tasks"], live_tasks as u64);
        assert_eq!(snap.gauges["cn0.runtime.inflight"], handle.inflight() as u64);
        max_inflight = max_inflight.max(snap.gauges["cn0.runtime.inflight"]);
        max_tasks = max_tasks.max(snap.gauges["cn0.runtime.tasks"]);
        if !cluster.sim.step() {
            break;
        }
    }
    assert_eq!(max_inflight, 8, "all eight writes in flight at once");
    assert_eq!(max_tasks, 8, "the eight writers (the root ends as it spawns the last)");

    // Idle: every runtime gauge drained back to zero.
    let end = cluster.registry().snapshot();
    assert_eq!(end.gauges["cn0.runtime.inflight"], 0, "inflight leaked");
    assert_eq!(end.gauges["cn0.runtime.parked"], 0, "nothing parks");
    assert_eq!(end.gauges["cn0.runtime.tasks"], 0, "tasks leaked");
}

#[test]
fn every_node_has_its_prefix_and_runtime_gauges_sum_over_its_processes() {
    let mut cfg = ClusterConfig::test_small();
    (cfg.cns, cfg.mns) = (2, 2);
    let mut cluster = Cluster::build(&cfg);
    // Two processes on cn0, one on cn1.
    let execs = [(0, 3), (0, 4), (1, 5)].map(|(cn, pid)| {
        let (idx, handle) = spawn_fan_out(&mut cluster, cn, pid);
        (cn, idx, handle)
    });

    // Every node yields the pinned names under its own prefix.
    let snap = cluster.registry().snapshot();
    let both = |names: &[&str]| {
        let mut all: Vec<String> =
            names.iter().flat_map(|n| [n.to_string(), n.replacen("0.", "1.", 1)]).collect();
        all.sort();
        all.dedup(); // the one controller
        all
    };
    assert_eq!(snap.counters.keys().cloned().collect::<Vec<_>>(), both(COUNTER_NAMES));
    assert_eq!(snap.gauges.keys().cloned().collect::<Vec<_>>(), both(GAUGE_NAMES));

    cluster.start();
    let mut max_inflight = [0, 0];
    loop {
        let snap = cluster.registry().snapshot();
        for (cn, max) in max_inflight.iter_mut().enumerate() {
            let mine = || execs.iter().filter(move |e| e.0 == cn);
            let tasks: usize =
                mine().map(|e| cluster.cn(cn).driver::<ExecDriver>(e.1).live_tasks()).sum();
            let inflight: usize = mine().map(|e| e.2.inflight()).sum();
            assert_eq!(snap.gauges[&format!("cn{cn}.runtime.tasks")], tasks as u64);
            assert_eq!(snap.gauges[&format!("cn{cn}.runtime.inflight")], inflight as u64);
            *max = (*max).max(inflight);
        }
        if !cluster.sim.step() {
            break;
        }
    }
    assert_eq!(max_inflight, [16, 8], "two fan-outs of 8 on cn0, one on cn1");
}

#[test]
fn counters_only_grow_so_a_window_is_the_difference_of_two_snapshots() {
    // 64 sequential writes under 15 % frame corruption: retries, NACKs and
    // dedup replays all move. No counter ever steps back, and the window
    // between any instant and the end holds exactly the ops finished in it.
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    let mn_mac = cluster.mn_macs()[0];
    cluster.net.set_faults(
        &mut cluster.sim,
        mn_mac,
        FaultInjector { corrupt_prob: 0.15, ..FaultInjector::none() },
    );
    let finished = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let count = finished.clone();
    cluster.spawn(0, Pid(1), |h| async move {
        let va = h.ralloc(4096, Perm::RW).await.va();
        count.set(count.get() + 1);
        for i in 0..64u64 {
            h.rwrite(va + i * 8, Bytes::from_static(&[7u8; 8])).await.result.unwrap();
            count.set(count.get() + 1);
        }
    });
    cluster.start();
    let mut windows = Vec::new();
    let mut prev = cluster.registry().snapshot();
    while cluster.sim.step() {
        let snap = cluster.registry().snapshot();
        for (name, v) in &snap.counters {
            assert!(*v >= prev.counters[name], "{name} stepped back");
        }
        windows.push((snap.counters["cn0.clib.completed"], finished.get()));
        prev = snap;
    }
    assert!(prev.counters["cn0.transport.retries"] > 0, "corruption forced no retry");
    let (completed_end, finished_end) = (prev.counters["cn0.clib.completed"], finished.get());
    assert_eq!(finished_end, 65);
    for (completed, finished) in windows {
        assert_eq!(completed_end - completed, finished_end - finished);
    }
}
