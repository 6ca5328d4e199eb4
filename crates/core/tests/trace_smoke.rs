//! Observability end-to-end: a traced 64-op burst exports valid Perfetto
//! JSON; stage spans tile every completed op exactly (batched, unbatched
//! and NACK-retried alike); a corrupted-then-retried op's trace links the
//! retry back to the failed attempt; tracing disabled is provably
//! zero-overhead (identical digest, frames and completions); and the
//! unified registry snapshots/resets every metric in one window.

use bytes::Bytes;
use clio_core::{Cluster, ClusterConfig, ProcHandle};
use clio_net::FaultInjector;
use clio_proto::{Perm, Pid};
use clio_trace::export::{perfetto_json, validate_chrome_trace};
use clio_trace::{check_trace, OpTrace, Stage};
use proptest::prelude::*;

const BURST: usize = 64;

/// Allocates one region, writes it once, then issues `BURST` reads as a
/// single scatter/gather vector — the doorbell coalesces them into batch
/// frames, so the burst exercises batching, egress coalescing and
/// multi-op frames end to end.
async fn burst_client(h: ProcHandle) {
    let va = h.ralloc((BURST as u64) * 64, Perm::RW).await.va();
    let c = h.rwrite(va, Bytes::from(vec![0xAB; BURST * 64])).await;
    assert!(c.result.is_ok(), "seed write failed: {:?}", c.result);
    for read in h.rread_v((0..BURST as u64).map(|i| (va + i * 64, 64)).collect()) {
        let c = read.await;
        assert!(c.result.is_ok(), "burst read failed: {:?}", c.result);
    }
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
        let stats = cluster.mn(0).stats();
        (
            cluster.sim.digest(),
            cluster.sim.events_dispatched(),
            cluster.now(),
            stats.rx_frames,
            stats.tx_frames,
            cluster.cn(0).clib().completed_count(),
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
    assert!(cluster.cn(0).clib().retry_count() > 0, "corruption forced no retry");

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

#[test]
fn registry_snapshot_and_reset_cover_every_metric() {
    let (mut cluster, _traces) = run_burst(1);
    let snap = cluster.registry().snapshot();
    assert!(!snap.counters.is_empty(), "registry registered no counters");
    assert!(snap.counters.contains_key("cn0.clib.completed"));
    assert!(snap.counters.contains_key("cn0.transport.batch_frames"));
    assert!(snap.counters.contains_key("mn0.board.rx_frames"));
    assert!(snap.counters.contains_key("mn0.silicon.reads"));
    assert!(snap.gauges.contains_key("mn0.board.peer_srtt_ns"));
    // The failure-model metrics are registered even on a healthy run, so a
    // dashboard can alert on them without waiting for the first outage.
    assert!(snap.gauges.contains_key("cn0.transport.peer_health"));
    assert!(snap.counters.contains_key("cn0.transport.circuit_open_total"));
    assert!(snap.counters.contains_key("cn0.runtime.deadline_exceeded_total"));
    assert!(snap.counters.contains_key("mn0.board.board_restarts"));
    assert!(snap.counters.contains_key("mn0.board.dropped_while_down"));
    // Healthy cluster: no peer unhealthy, breaker never tripped, no board
    // ever power-cycled.
    assert_eq!(snap.gauges["cn0.transport.peer_health"], 0, "no peer should be unhealthy");
    assert_eq!(snap.counters["cn0.transport.circuit_open_total"], 0);
    assert_eq!(snap.counters["mn0.board.board_restarts"], 0);
    assert!(snap.counters["cn0.clib.completed"] >= BURST as u64);
    assert!(snap.counters["mn0.board.rx_frames"] > 0);
    // The MN learned the CN's srtt from the request headers' echo.
    assert!(snap.gauges["mn0.board.peer_srtt_ns"] > 0, "srtt echo never landed");

    // One reset zeroes every metric of every kind, with no drift.
    cluster.registry_mut().reset();
    let zeroed = cluster.registry().snapshot();
    assert!(zeroed.counters.values().all(|&v| v == 0), "counter survived reset");
    assert!(zeroed.gauges.values().all(|&v| v == 0), "gauge survived reset");
    assert!(zeroed.histograms.values().all(|h| h.count == 0), "histogram survived reset");
    // And the live component handles observe the same reset: board stats
    // read back zero through the snapshot struct too.
    assert_eq!(cluster.mn(0).stats().rx_frames, 0, "component kept pre-reset state");
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

#[test]
fn runtime_gauges_register_snapshot_and_reset() {
    // The executor's submission state is observable through the unified
    // registry: `cn<i>.runtime.inflight` saturates at the configured
    // budget, `parked` counts submitters waiting for window credit, and
    // `tasks` counts live tasks — all draining to zero at idle and all
    // covered by snapshot/reset like every other metric.
    let mut cfg = ClusterConfig::test_small();
    cfg.runtime_inflight_budget = 2;
    let mut cluster = Cluster::build(&cfg);
    cluster.spawn(0, Pid(3), |h| async move {
        let va = match h.ralloc(1 << 16, Perm::RW).await.result.unwrap() {
            clio_cn::CompletionValue::Va(va) => va,
            other => panic!("alloc returned {other:?}"),
        };
        for i in 0..8u64 {
            let h2 = h.clone();
            h.spawn(async move {
                h2.rwrite(va + i * 4096, Bytes::from(vec![i as u8; 64])).await.result.unwrap();
            });
        }
    });
    cluster.start();
    let (mut max_inflight, mut max_parked, mut max_tasks) = (0, 0, 0);
    loop {
        let snap = cluster.registry().snapshot();
        max_inflight = max_inflight.max(snap.gauges["cn0.runtime.inflight"]);
        max_parked = max_parked.max(snap.gauges["cn0.runtime.parked"]);
        max_tasks = max_tasks.max(snap.gauges["cn0.runtime.tasks"]);
        if !cluster.sim.step() {
            break;
        }
    }
    assert_eq!(max_inflight, 2, "in-flight ops must saturate at the budget");
    assert_eq!(max_parked, 6, "8 concurrent submitters minus budget 2 must park");
    assert!(max_tasks >= 8, "only {max_tasks} live tasks observed");

    // Idle: every runtime gauge drained back to zero.
    let end = cluster.registry().snapshot();
    assert_eq!(end.gauges["cn0.runtime.inflight"], 0, "inflight leaked");
    assert_eq!(end.gauges["cn0.runtime.parked"], 0, "parked leaked");
    assert_eq!(end.gauges["cn0.runtime.tasks"], 0, "tasks leaked");

    // And reset covers them like any other registry metric.
    cluster.registry_mut().reset();
    let zeroed = cluster.registry().snapshot();
    assert!(zeroed.gauges.contains_key("cn0.runtime.inflight"));
    assert!(zeroed.gauges.contains_key("cn0.runtime.parked"));
    assert!(zeroed.gauges.contains_key("cn0.runtime.tasks"));
    assert!(zeroed.gauges.values().all(|&v| v == 0), "gauge survived reset");
}
