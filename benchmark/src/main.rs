//! Two-clock benchmark of the Clio reproduction.
//!
//! One invocation runs one workload once and prints one JSON result line:
//!
//! ```text
//! clio_benchmark --workload NAME --seed N --seconds S --trace 0|1 [--rounds R] [--out DIR]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics: a set-up, `S` seconds of the
//! workload's rounds with checker passes interleaved (80 % / 20 %), and two
//! more set-ups (`setup_s` is the median of the three). `--trace 1` reports
//! the per-layer metrics: the rounds untraced, the rounds again with span
//! tracing, the isolated host kernels and the checker passes. `--rounds R`
//! runs exactly R rounds per phase, which makes every virtual metric, count
//! and digest of a seed repeat exactly. `--out DIR` writes the traced run's
//! Perfetto JSON and span dump there.
//!
//! `README.md` has the metric tables; `../BENCHMARK.json` the contract.

mod checker;
mod kernels;
mod layers;
mod report;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use clio_trace::export::perfetto_json;

use checker::Passes;
use layers::Counters;
use report::{Outcome, END_TO_END, PER_LAYER};
use stats::{median, Population};
use workloads::{Instance, Round, Spec, SPECS};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of `--seconds` the checker passes get (both modes).
const CHECKER_SHARE: f64 = 0.2;
/// Shares of `--seconds` in a traced run: untraced rounds, traced rounds,
/// host kernels (the checker gets the rest).
const UNTRACED_SHARE: f64 = 0.2;
const TRACED_SHARE: f64 = 0.2;
const KERNEL_SHARE: f64 = 0.4;
/// Span sampling of the traced run: every fourth op.
const TRACE_EVERY: u64 = 4;
/// The latency limit of `core.slo_miss_ratio`.
const SLO_NS: u64 = 10_000;
/// Paper reference values (arXiv 2108.03492 §7.1): 16 B read median, and
/// per-direction goodput of large ops on the 10 Gbps port.
const PAPER_READ_P50_NS: f64 = 2_500.0;
const PAPER_GOODPUT_GBPS: f64 = 9.4;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: Option<u32>,
    out: Option<PathBuf>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut rounds, mut out) = (None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: not {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("a number"))?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad("0 or 1"))? != 0),
                "--rounds" => rounds = Some(value.parse::<u32>().map_err(|_| bad("a count"))?),
                "--out" => out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let spec = *SPECS.iter().find(|s| s.name == workload).ok_or_else(|| {
            let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            format!("unknown workload {workload}; one of {}", names.join(", "))
        })?;
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds {seconds}: out of range"));
        }
        if rounds == Some(0) {
            return Err("--rounds 0: need at least one round".into());
        }
        Ok(Args {
            spec,
            seed: seed.unwrap_or(7),
            seconds,
            trace: trace.unwrap_or(false),
            rounds,
            out,
        })
    }

    fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// One measured phase of a data-path instance.
struct Phase {
    rounds: Vec<Round>,
    counters: Counters,
    reads: Population,
    writes: Population,
    all: Population,
    payload_bytes: u64,
    failed: BTreeMap<&'static str, u64>,
    mismatches: u64,
    virtual_secs: f64,
    /// Peak resident set of the process (`VmHWM`) when the last round ended.
    peak_rss_mib: f64,
}

impl Phase {
    fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.ops).sum()
    }

    fn failed_total(&self) -> u64 {
        self.failed.values().sum()
    }

    /// Median over rounds of `f(round)`.
    fn per_round(&self, f: impl Fn(&Round) -> f64) -> f64 {
        median(&mut self.rounds.iter().map(f).collect::<Vec<_>>()).expect("at least one round")
    }

    fn host_ops_per_s(&self) -> f64 {
        self.per_round(|r| r.ops as f64 / r.host.as_secs_f64())
    }

    fn host_ns_per_op(&self) -> f64 {
        self.per_round(|r| r.host.as_nanos() as f64 / r.ops as f64)
    }

    fn goodput_gbps(&self) -> f64 {
        self.payload_bytes as f64 * 8.0 / self.virtual_secs / 1e9
    }
}

/// Runs rounds of `inst` until `budget` is spent, or exactly `rounds`, and
/// takes what the clients recorded. Checker passes, if asked for, are
/// interleaved with the rounds and get `CHECKER_SHARE` of the time: both
/// medians then sample the whole window, and a noisy few seconds on the
/// host spoil a minority of each metric's samples instead of all of one's.
fn measure(
    inst: &mut Instance,
    budget: Duration,
    rounds: Option<u32>,
    mut checker: Option<&mut Passes>,
) -> Phase {
    let before = layers::counters(&inst.cluster);
    let started = Instant::now();
    let mut done = Vec::new();
    let mut in_rounds = Duration::ZERO;
    while match rounds {
        Some(n) => done.len() < n as usize,
        None => done.is_empty() || started.elapsed() < budget,
    } {
        let round = inst.run_round();
        assert!(round.ops > 0, "{}: a round finished no op", inst.spec.name);
        in_rounds += round.host;
        done.push(round);
        if let Some(passes) = checker.as_deref_mut() {
            if passes.spent.as_secs_f64() * (1.0 - CHECKER_SHARE)
                < in_rounds.as_secs_f64() * CHECKER_SHARE
            {
                passes.pass();
            }
        }
    }
    // Read before the bookkeeping below allocates anything of its own.
    let peak_rss_mib = peak_rss_mib();
    let counters = layers::delta(&before, &layers::counters(&inst.cluster));
    let mut rec = inst.rec.borrow_mut();
    let (reads, writes) = (std::mem::take(&mut rec.reads), std::mem::take(&mut rec.writes));
    let mut all = reads.clone();
    all.merge(&writes);
    Phase {
        virtual_secs: done.len() as f64 * inst.spec.round.as_secs_f64(),
        rounds: done,
        counters,
        reads,
        writes,
        all,
        payload_bytes: rec.payload_bytes,
        failed: rec.failed.clone(),
        mismatches: rec.mismatches,
        peak_rss_mib,
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    let kib: f64 =
        line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmHWM in kB");
    kib / 1024.0
}

fn quantile(p: &Population, q: f64, what: &str) -> f64 {
    p.quantile(q).unwrap_or_else(|| panic!("no {what} finished in the measured rounds"))
}

/// Times one set-up.
fn timed_set_up(args: &Args, setups: &mut Vec<f64>) -> Instance {
    let started = Instant::now();
    let inst = Instance::set_up(args.spec, args.seed, None);
    setups.push(started.elapsed().as_secs_f64());
    inst
}

fn run_end_to_end(args: &Args) -> Outcome {
    // The first set-up is the one a user pays, in a fresh process; its
    // instance is measured, and the peak resident set is read before the
    // repeated set-ups (which only steady `setup_s`) can raise it.
    let mut setups = Vec::new();
    let mut inst = timed_set_up(args, &mut setups);
    let mut passes = Passes::default();
    let phase = measure(&mut inst, args.budget(1.0), args.rounds, Some(&mut passes));
    inst.shut_down();
    while setups.len() < SETUPS {
        timed_set_up(args, &mut setups).shut_down();
    }
    let checked = passes.finish();

    eprintln!(
        "{}: {} rounds, {} ops ({} reads, {} writes), failed {:?}, {} mismatches",
        args.spec.name,
        phase.rounds.len(),
        phase.ops(),
        phase.reads.len(),
        phase.writes.len(),
        phase.failed,
        phase.mismatches
    );
    Outcome {
        correct: phase.mismatches == 0 && checked.ok,
        attempted: phase.ops(),
        failed: phase.failed_total(),
        metrics: vec![
            ("setup_s", median(&mut setups).expect("set-ups were timed")),
            ("host_ops_per_s", phase.host_ops_per_s()),
            ("host_mc_states_per_s", checked.states_per_s),
            ("host_peak_rss_mb", phase.peak_rss_mib),
            ("sim_lat_p50_ns", quantile(&phase.all, 0.5, "op")),
            ("sim_lat_p99_ns", quantile(&phase.all, 0.99, "op")),
            ("sim_read_p50_ns", quantile(&phase.reads, 0.5, "read")),
            ("sim_write_p50_ns", quantile(&phase.writes, 0.5, "write")),
            ("sim_goodput_gbps", phase.goodput_gbps()),
        ],
    }
}

/// Estimated share of the untraced run's host time each layer accounts
/// for: kernel ns × calls per op ÷ host ns per op. Fabric and board kernels
/// have the engine's dispatch cost taken out (the engine's share counts
/// every event already); CN + executor is what is left.
fn host_shares(
    k: &BTreeMap<&'static str, f64>,
    phase: &Phase,
    large_ops: bool,
) -> Vec<(&'static str, f64)> {
    let ops = phase.ops() as f64;
    let per_op = |name: &str| phase.counters[name] as f64 / ops;
    let frames = per_op("port.to_mn.frames") + per_op("port.to_cn.frames");
    let packets = per_op("board.rx_packets") + per_op("board.tx_packets");
    let packed = per_op("board.batched_requests") + per_op("board.batched_responses");
    let read_ns = if large_ops { k["hw.silicon_read_4k_ns"] } else { k["hw.silicon_read_ns"] };

    let sim = k["sim.dispatch_ns"] * per_op("sim.events");
    let hop_only = k["net.hop_ns"] - kernels::events_per_hop() * k["sim.dispatch_ns"];
    let net = hop_only.max(0.0) * frames;
    let proto = k["proto.wire_len_ns"] * packets + k["proto.batch_pack_ns"] * packed;
    let hw =
        read_ns * per_op("silicon.reads") + k["hw.silicon_write_ns"] * per_op("silicon.writes");
    // One board request of the kernel = 1/16 of a frame each way, one
    // silicon read, one response packed and sized.
    let board_only = k["mn.board_req_ns"]
        - k["hw.silicon_read_ns"]
        - k["proto.batch_pack_ns"]
        - k["proto.wire_len_ns"]
        - 2.0 * k["net.hop_ns"] / 16.0;
    let mn = board_only.max(0.0) * per_op("board.rx_packets");

    let total = phase.host_ns_per_op();
    let shares = [sim, net, proto, hw, mn].map(|ns| ns / total);
    vec![
        ("sim.host_share", shares[0]),
        ("net.host_share", shares[1]),
        ("proto.host_share", shares[2]),
        ("hw.host_share", shares[3]),
        ("mn.host_share", shares[4]),
        ("cn_core.host_share", 1.0 - shares.iter().sum::<f64>()),
    ]
}

fn write_traces(dir: &Path, inst: &Instance) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let name = inst.spec.name;
    std::fs::write(dir.join(format!("{name}.perfetto.json")), perfetto_json(&inst.kept_traces))?;
    let mut dump = String::new();
    for t in &inst.kept_traces {
        dump.push_str(&format!(
            "op {} {} begin={}ns e2e={}ns\n",
            t.id,
            t.label,
            t.begin.as_nanos(),
            t.e2e().as_nanos()
        ));
        for s in &t.spans {
            let (stage, track, ns) = (s.stage.name(), s.track.name(), s.duration().as_nanos());
            dump.push_str(&format!("  {stage:<16} {track:<5} attempt={} {ns}ns\n", s.attempt));
        }
    }
    std::fs::write(dir.join(format!("{name}.spans.txt")), dump)
}

fn run_per_layer(args: &Args) -> Outcome {
    let mut plain = Instance::set_up(args.spec, args.seed, None);
    let phase = measure(&mut plain, args.budget(UNTRACED_SHARE), args.rounds, None);
    let digest = plain.cluster.sim.digest() & ((1 << 48) - 1);
    let peak_inflight = layers::peak_inflight(&plain);
    let (peak_parked, spawned, lag) = {
        let rec = plain.rec.borrow();
        (plain.peak_parked, rec.spawned, rec.max_arrival_lag)
    };
    plain.shut_down();

    let mut traced = Instance::set_up(args.spec, args.seed, Some(TRACE_EVERY));
    let traced_phase = measure(&mut traced, args.budget(TRACED_SHARE), args.rounds, None);
    if let Some(dir) = &args.out {
        write_traces(dir, &traced).unwrap_or_else(|e| panic!("writing traces to {dir:?}: {e}"));
    }
    let stage_metrics = traced.stages.metrics();
    let tiles = traced.stages.tiles();
    traced.shut_down();

    let kernel_list = kernels::run_all(args.budget(KERNEL_SHARE));
    let k: BTreeMap<&'static str, f64> = kernel_list.iter().copied().collect();
    let mut passes = Passes::default();
    passes.run_for(args.budget(CHECKER_SHARE));
    let checked = passes.finish();

    let ops = phase.ops();
    let failed = |kind: &str| phase.failed.get(kind).copied().unwrap_or(0);
    let late = phase.all.count_above(SLO_NS) + phase.failed_total();
    let tail_q = phase.all.deepest_tail().unwrap_or(0.0);
    let read_p50 = phase.reads.order_stat(0.5).expect("reads finished") as f64;

    let mut metrics = stage_metrics;
    metrics.push((
        "trace.host_overhead_ratio",
        traced_phase.host_ns_per_op() / phase.host_ns_per_op(),
    ));
    metrics.extend(layers::count_metrics(&phase.counters, ops, phase.payload_bytes));
    metrics.extend([
        ("sim.digest", digest as f64),
        ("core.peak_inflight", peak_inflight as f64),
        ("core.peak_parked", peak_parked as f64),
        ("core.tasks_per_op", spawned as f64 / ops as f64),
        ("core.slo_miss_ratio", late as f64 / ops as f64),
        ("core.arrival_lag_ns", lag.as_nanos() as f64),
        ("cn.failed_timed_out", failed("timed_out") as f64),
        ("cn.failed_remote", failed("remote") as f64),
        ("cn.failed_other", (phase.failed_total() - failed("timed_out") - failed("remote")) as f64),
        ("verify.mismatches", (phase.mismatches + traced_phase.mismatches) as f64),
        ("sim.lat_samples", phase.all.len() as f64),
        ("sim.read_samples", phase.reads.len() as f64),
        ("sim.write_samples", phase.writes.len() as f64),
        ("sim.lat_tail_q", tail_q),
        ("sim.lat_tail_ns", phase.all.order_stat(tail_q.max(0.5)).expect("ops finished") as f64),
        ("paper.read_p50_err", (read_p50 / PAPER_READ_P50_NS - 1.0).abs()),
        ("paper.goodput_err", (phase.goodput_gbps() / 2.0 / PAPER_GOODPUT_GBPS - 1.0).abs()),
        ("mc.nodes", checked.nodes as f64),
        ("mc.distinct_states", checked.distinct_states as f64),
        ("mc.replay_ns_per_node", checked.ns_per_node),
    ]);
    metrics.extend(kernel_list);
    metrics.push(("host_ns_per_op", phase.host_ns_per_op()));
    metrics.push((
        "sim.host_ns_per_event",
        phase.per_round(|r| r.host.as_nanos() as f64 / r.events as f64),
    ));
    metrics.extend(host_shares(&k, &phase, args.spec.op_bytes.1 >= workloads::PAGE));

    if !tiles {
        eprintln!("{}: stage spans do not sum to the end-to-end latency", args.spec.name);
    }
    Outcome {
        correct: phase.mismatches + traced_phase.mismatches == 0 && tiles && checked.ok,
        attempted: ops + traced_phase.ops(),
        failed: phase.failed_total() + traced_phase.failed_total(),
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\nusage: --workload NAME --seed N --seconds S --trace 0|1 [--rounds R] [--out DIR]");
            return ExitCode::from(2);
        }
    };
    let (outcome, catalogue) = if args.trace {
        (run_per_layer(&args), &PER_LAYER[..])
    } else {
        (run_end_to_end(&args), &END_TO_END[..])
    };
    println!("{}", outcome.to_json(catalogue));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
