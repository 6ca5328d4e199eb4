//! Per-layer measurements of a data-path run: the counters each crate
//! already keeps (registry, `PortStats`, `VmStats`, TLB, engine), read
//! before and after the measured rounds, and the per-stage virtual time of
//! the traced run's spans.

use std::collections::BTreeMap;

use clio_core::{Cluster, ExecDriver};
use clio_net::PortStats;
use clio_trace::{check_trace, OpTrace, Stage};

use crate::workloads::Instance;

/// Every counter of the run at one instant, by name. Registry counters are
/// summed over nodes (`cn0.transport.retries` + `cn1.transport.retries` →
/// `transport.retries`).
pub type Counters = BTreeMap<String, u64>;

fn add_port(c: &mut Counters, side: &str, p: PortStats) {
    for (name, v) in [
        ("frames", p.tx_frames),
        ("bytes", p.tx_bytes),
        ("dropped", p.dropped_overflow + p.dropped_fault + p.dropped_link_down),
        ("corrupted", p.corrupted),
    ] {
        *c.entry(format!("port.{side}.{name}")).or_insert(0) += v;
    }
}

/// Reads every counter.
pub fn counters(cluster: &Cluster) -> Counters {
    let mut c = Counters::new();
    for (name, v) in cluster.registry().snapshot().counters {
        let (_node, rest) = name.split_once('.').expect("registry names are <node>.<layer>.<name>");
        *c.entry(rest.to_string()).or_insert(0) += v;
    }
    // A port's statistics count what the switch forwarded *to* that MAC.
    add_port(&mut c, "to_mn", cluster.net.port_stats(&cluster.sim, cluster.mn_macs()[0]));
    for i in 0..cluster.cn_ids().len() {
        add_port(&mut c, "to_cn", cluster.net.port_stats(&cluster.sim, cluster.cn(i).mac()));
    }
    let vm = cluster.mn(0).silicon().vm();
    c.insert("vm.page_faults".into(), vm.stats().page_faults);
    c.insert("vm.fault_stalls".into(), vm.stats().fault_stalls);
    c.insert("tlb.hits".into(), vm.tlb().hits());
    c.insert("tlb.misses".into(), vm.tlb().misses());
    c.insert("sim.events".into(), cluster.sim.events_dispatched());
    c
}

/// `after - before`, counter by counter.
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    after.iter().map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0))).collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The count metrics of one measured phase: `d` is the counter delta over
/// it, `ops` and `payload_bytes` what the clients finished in it.
pub fn count_metrics(d: &Counters, ops: u64, payload_bytes: u64) -> Vec<(&'static str, f64)> {
    let get = |k: &str| d.get(k).copied().unwrap_or_else(|| panic!("no counter named {k}"));
    let wire_bytes = get("port.to_mn.bytes") + get("port.to_cn.bytes");
    vec![
        ("sim.events_per_op", ratio(get("sim.events"), ops)),
        ("net.req_frames_per_op", ratio(get("port.to_mn.frames"), ops)),
        ("net.resp_frames_per_op", ratio(get("port.to_cn.frames"), ops)),
        ("net.wire_bytes_per_payload_byte", ratio(wire_bytes, payload_bytes)),
        ("net.dropped_frames", (get("port.to_mn.dropped") + get("port.to_cn.dropped")) as f64),
        (
            "net.corrupted_frames",
            (get("port.to_mn.corrupted") + get("port.to_cn.corrupted")) as f64,
        ),
        ("cn.retries_per_op", ratio(get("transport.retries"), ops)),
        ("cn.batched_op_ratio", ratio(get("transport.batched_ops"), ops)),
        ("cn.retry_frames", get("transport.retry_frames") as f64),
        ("mn.batched_request_ratio", ratio(get("board.batched_requests"), get("board.rx_packets"))),
        (
            "mn.batched_response_ratio",
            ratio(get("board.batched_responses"), get("board.tx_packets")),
        ),
        ("mn.nacks_per_op", ratio(get("board.nacks"), ops)),
        ("mn.dedup_replays", get("board.dedup_replays") as f64),
        ("mn.slow_ops", get("board.slow_ops") as f64),
        ("hw.tlb_hit_ratio", ratio(get("tlb.hits"), get("tlb.hits") + get("tlb.misses"))),
        ("hw.page_faults", get("vm.page_faults") as f64),
        ("hw.fault_stalls", get("vm.fault_stalls") as f64),
    ]
}

/// Highest concurrent in-flight op count any CN's executor reached.
pub fn peak_inflight(inst: &Instance) -> u64 {
    (0..inst.spec.cns)
        .map(|cn| inst.cluster.cn(cn).driver::<ExecDriver>(inst.drivers[cn]).peak_inflight())
        .max()
        .unwrap_or(0)
}

/// Metric name of each stage's mean virtual time per op. `Execute`
/// (offloads) and `Cancelled` (deadlines) cannot occur in these workloads;
/// their time is still summed, so the tiling check below would show it.
const STAGES: [(Stage, &str); 24] = [
    (Stage::SubmitQueued, "core.submit_queued_ns"),
    (Stage::Submit, "cn.submit_ns"),
    (Stage::DoorbellHold, "cn.doorbell_hold_ns"),
    (Stage::Pack, "cn.pack_ns"),
    (Stage::NicSerialize, "net.nic_serialize_ns"),
    (Stage::Wire, "net.wire_ns"),
    (Stage::IngressMac, "hw.ingress_mac_ns"),
    (Stage::PipelineWait, "hw.pipeline_wait_ns"),
    (Stage::Parse, "hw.parse_ns"),
    (Stage::Tlb, "hw.tlb_ns"),
    (Stage::PtWalk, "hw.pt_walk_ns"),
    (Stage::Interconnect, "hw.interconnect_ns"),
    (Stage::Dram, "hw.dram_ns"),
    (Stage::Dma, "hw.dma_ns"),
    (Stage::ExecuteTail, "mn.execute_tail_ns"),
    (Stage::Control, "mn.control_ns"),
    (Stage::SlowPath, "mn.slow_path_ns"),
    (Stage::FenceHold, "mn.fence_hold_ns"),
    (Stage::EgressHold, "mn.egress_hold_ns"),
    (Stage::Complete, "cn.complete_ns"),
    (Stage::NackTurnaround, "cn.nack_turnaround_ns"),
    (Stage::TimeoutWait, "cn.timeout_wait_ns"),
    (Stage::RetryDoorbell, "cn.retry_doorbell_ns"),
    (Stage::ConflictBackoff, "cn.conflict_backoff_ns"),
];

/// Virtual nanoseconds per stage, summed over the sampled ops of a traced
/// run.
#[derive(Debug, Default)]
pub struct StageSums {
    by_stage: BTreeMap<Stage, u64>,
    e2e: u64,
    /// Sampled ops folded in.
    pub ops: u64,
    /// Traces that broke the tiling invariant (`check_trace`).
    pub broken: u64,
}

impl StageSums {
    /// Folds finished traces in, checking each one's spans tile its
    /// timeline.
    pub fn absorb(&mut self, traces: &[OpTrace]) {
        for t in traces {
            if let Err(why) = check_trace(t) {
                eprintln!("trace check failed: {why}");
                self.broken += 1;
                continue;
            }
            for s in &t.spans {
                *self.by_stage.entry(s.stage).or_insert(0) += s.duration().as_nanos();
            }
            self.e2e += t.e2e().as_nanos();
            self.ops += 1;
        }
    }

    /// True when the stage sums add up to the summed end-to-end latency
    /// exactly (virtual time is integer nanoseconds).
    pub fn tiles(&self) -> bool {
        self.broken == 0 && self.by_stage.values().sum::<u64>() == self.e2e
    }

    /// Mean virtual ns per sampled op, by stage metric, then the mean
    /// end-to-end latency of the sampled ops.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<_> = STAGES
            .iter()
            .map(|(stage, name)| {
                (*name, ratio(self.by_stage.get(stage).copied().unwrap_or(0), self.ops))
            })
            .collect();
        out.push(("trace.e2e_mean_ns", ratio(self.e2e, self.ops)));
        out.push(("trace.sampled_ops", self.ops as f64));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_sim::SimTime;
    use clio_trace::{Tracer, Track};

    fn traced_op(tracer: &Tracer, begin: u64, wire: u64, end: u64) {
        let ctx = tracer.begin("read", SimTime::from_nanos(begin));
        tracer.stitch(ctx, Track::Wire, Stage::Wire, SimTime::from_nanos(wire));
        tracer.finish(ctx, Track::Cn(0), SimTime::from_nanos(end));
    }

    #[test]
    fn stage_means_tile_the_mean_latency() {
        let tracer = Tracer::enabled(1);
        traced_op(&tracer, 0, 30, 50);
        traced_op(&tracer, 100, 170, 200);
        let mut sums = StageSums::default();
        sums.absorb(&tracer.take_finished());
        assert!(sums.tiles());
        let m: BTreeMap<_, _> = sums.metrics().into_iter().collect();
        assert_eq!(m["net.wire_ns"], 50.0);
        assert_eq!(m["cn.complete_ns"], 25.0);
        assert_eq!(m["trace.e2e_mean_ns"], 75.0);
        assert_eq!(m["trace.sampled_ops"], 2.0);
        let stage_total: f64 = STAGES.iter().map(|(_, name)| m[name]).sum();
        assert_eq!(stage_total, m["trace.e2e_mean_ns"]);
    }

    #[test]
    fn a_broken_trace_is_counted_not_folded() {
        let tracer = Tracer::enabled(1);
        traced_op(&tracer, 0, 30, 50);
        let mut traces = tracer.take_finished();
        traces[0].spans[0].start = SimTime::from_nanos(5);
        let mut sums = StageSums::default();
        sums.absorb(&traces);
        assert_eq!((sums.ops, sums.broken), (0, 1));
        assert!(!sums.tiles());
    }

    #[test]
    fn deltas_and_ratios() {
        let before: Counters = [("a".to_string(), 3)].into();
        let after: Counters = [("a".to_string(), 10), ("b".to_string(), 4)].into();
        let d = delta(&before, &after);
        assert_eq!((d["a"], d["b"]), (7, 4));
        assert_eq!(ratio(1, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
