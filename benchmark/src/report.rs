//! The metric catalogue (the names `BENCHMARK.json` commits to) and the
//! result line.

/// End-to-end metrics, `(name, unit)`. *host* metrics are the simulator's
/// wall clock, *sim* metrics the modeled system's virtual clock.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("host_ops_per_s", "1/s"),
    ("host_mc_states_per_s", "1/s"),
    ("host_peak_rss_mb", "MiB"),
    ("sim_lat_p50_ns", "ns"),
    ("sim_lat_p99_ns", "ns"),
    ("sim_read_p50_ns", "ns"),
    ("sim_write_p50_ns", "ns"),
    ("sim_goodput_gbps", "Gbit/s"),
];

/// Per-layer metrics, `(name, unit)`; the prefix is the crate. Units `ns`
/// and `ratio` are virtual-clock or exact counts, which repeat exactly for
/// a seed and round count; `host_ns` and `host_ratio` are wall clock.
pub const PER_LAYER: [(&str, &str); 89] = [
    // Traced run: mean virtual ns per sampled op, by stage.
    ("core.submit_queued_ns", "ns"),
    ("cn.submit_ns", "ns"),
    ("cn.doorbell_hold_ns", "ns"),
    ("cn.pack_ns", "ns"),
    ("net.nic_serialize_ns", "ns"),
    ("net.wire_ns", "ns"),
    ("hw.ingress_mac_ns", "ns"),
    ("hw.pipeline_wait_ns", "ns"),
    ("hw.parse_ns", "ns"),
    ("hw.tlb_ns", "ns"),
    ("hw.pt_walk_ns", "ns"),
    ("hw.interconnect_ns", "ns"),
    ("hw.dram_ns", "ns"),
    ("hw.dma_ns", "ns"),
    ("mn.execute_tail_ns", "ns"),
    ("mn.control_ns", "ns"),
    ("mn.slow_path_ns", "ns"),
    ("mn.fence_hold_ns", "ns"),
    ("mn.egress_hold_ns", "ns"),
    ("cn.complete_ns", "ns"),
    ("cn.nack_turnaround_ns", "ns"),
    ("cn.timeout_wait_ns", "ns"),
    ("cn.retry_doorbell_ns", "ns"),
    ("cn.conflict_backoff_ns", "ns"),
    ("trace.e2e_mean_ns", "ns"),
    ("trace.sampled_ops", "count"),
    ("trace.host_overhead_ratio", "host_ratio"),
    // Counts over the untraced rounds (exact for a seed and round count).
    ("sim.events_per_op", "1/op"),
    ("net.req_frames_per_op", "1/op"),
    ("net.resp_frames_per_op", "1/op"),
    ("net.wire_bytes_per_payload_byte", "ratio"),
    ("net.dropped_frames", "count"),
    ("net.corrupted_frames", "count"),
    ("cn.retries_per_op", "1/op"),
    ("cn.batched_op_ratio", "ratio"),
    ("cn.retry_frames", "count"),
    ("mn.batched_request_ratio", "ratio"),
    ("mn.batched_response_ratio", "ratio"),
    ("mn.nacks_per_op", "1/op"),
    ("mn.dedup_replays", "count"),
    ("mn.slow_ops", "count"),
    ("hw.tlb_hit_ratio", "ratio"),
    ("hw.page_faults", "count"),
    ("hw.fault_stalls", "count"),
    ("sim.digest", "hash48"),
    ("core.peak_inflight", "count"),
    ("core.peak_parked", "count"),
    ("core.tasks_per_op", "1/op"),
    ("core.slo_miss_ratio", "ratio"),
    ("core.arrival_lag_ns", "ns"),
    ("cn.failed_timed_out", "count"),
    ("cn.failed_remote", "count"),
    ("cn.failed_other", "count"),
    ("verify.mismatches", "count"),
    ("sim.lat_samples", "count"),
    ("sim.read_samples", "count"),
    ("sim.write_samples", "count"),
    ("sim.lat_tail_q", "ratio"),
    ("sim.lat_tail_ns", "ns"),
    ("paper.read_p50_err", "ratio"),
    ("paper.goodput_err", "ratio"),
    // The checker slice.
    ("mc.nodes", "count"),
    ("mc.distinct_states", "count"),
    ("mc.replay_ns_per_node", "host_ns"),
    // Host kernels: wall-clock ns per call.
    ("sim.dispatch_ns", "host_ns"),
    ("sim.timer_cancel_ns", "host_ns"),
    ("net.hop_ns", "host_ns"),
    ("proto.wire_len_ns", "host_ns"),
    ("proto.encode_ns", "host_ns"),
    ("proto.decode_ns", "host_ns"),
    ("proto.batch_pack_ns", "host_ns"),
    ("proto.split_write_64k_ns", "host_ns"),
    ("hw.silicon_read_ns", "host_ns"),
    ("hw.silicon_write_ns", "host_ns"),
    ("hw.silicon_read_4k_ns", "host_ns"),
    ("hw.tlb_lookup_ns", "host_ns"),
    ("hw.pt_lookup_ns", "host_ns"),
    ("mn.board_req_ns", "host_ns"),
    ("core.exec_wake_ns", "host_ns"),
    ("core.exec_spawn_ns", "host_ns"),
    ("mc.scenario_build_ns", "host_ns"),
    // In situ, per workload.
    ("host_ns_per_op", "host_ns"),
    ("sim.host_ns_per_event", "host_ns"),
    ("sim.host_share", "host_ratio"),
    ("net.host_share", "host_ratio"),
    ("proto.host_share", "host_ratio"),
    ("hw.host_share", "host_ratio"),
    ("mn.host_share", "host_ratio"),
    ("cn_core.host_share", "host_ratio"),
];

/// What one run found.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The result line: one JSON object with the metrics of `catalogue`, in
    /// its order.
    ///
    /// # Panics
    ///
    /// Panics if a catalogue metric was not measured, one was measured that
    /// the catalogue does not name, or a value is not finite — each is a bug
    /// in the benchmark, and a result with a hole in it must not be printed.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> String {
        assert_eq!(self.metrics.len(), catalogue.len(), "measured a metric the catalogue lacks");
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let hits: Vec<f64> =
                    self.metrics.iter().filter(|(n, _)| n == name).map(|(_, v)| *v).collect();
                assert_eq!(hits.len(), 1, "{name} measured {} times", hits.len());
                assert!(hits[0].is_finite(), "{name} is {}", hits[0]);
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", hits[0])
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_trace::export::{parse_json, Json};

    /// The string under `key` of every object in `doc[list]`.
    fn column(doc: &Json, list: &str, key: &str) -> Vec<String> {
        let Some(Json::Arr(items)) = doc.get(list) else { panic!("{list} is not an array") };
        items
            .iter()
            .map(|m| m.get(key).and_then(|v| v.as_str()).expect("string field").to_string())
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = parse_json(&doc).expect("valid JSON");
        for (list, catalogue) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let names: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
            let units: Vec<&str> = catalogue.iter().map(|(_, u)| *u).collect();
            assert_eq!(column(&doc, list, "name"), names);
            assert_eq!(column(&doc, list, "unit"), units);
        }
        let specs: Vec<&str> = crate::workloads::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(column(&doc, "workloads", "name"), specs);
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    #[test]
    fn result_line_is_valid_json_in_catalogue_order() {
        let catalogue = [("b_s", "s"), ("a_ns", "ns")];
        let out = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![("a_ns", 2450.0021), ("b_s", 0.5)],
        };
        let line = out.to_json(&catalogue);
        assert!(line.find("b_s").unwrap() < line.find("a_ns").unwrap());
        let doc = parse_json(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(|v| v.as_num()), Some(12.0));
        let a = doc.get("metrics").and_then(|m| m.get("a_ns")).expect("a_ns");
        assert_eq!(a.get("value").and_then(|v| v.as_num()), Some(2450.0021));
        assert_eq!(a.get("unit").and_then(|v| v.as_str()), Some("ns"));
    }

    #[test]
    #[should_panic(expected = "measured 0 times")]
    fn a_missing_metric_is_refused() {
        let out = Outcome { correct: true, attempted: 1, failed: 0, metrics: vec![("x", 1.0)] };
        out.to_json(&[("y", "s")]);
    }

    #[test]
    #[should_panic(expected = "is NaN")]
    fn a_non_finite_value_is_refused() {
        let out =
            Outcome { correct: true, attempted: 1, failed: 0, metrics: vec![("x", f64::NAN)] };
        out.to_json(&[("x", "s")]);
    }
}
