//! The bounded explorer: exhaustive search over network-event schedules.
//!
//! # The model
//!
//! The scenario ([`Scenario`]) is deterministic except for the network:
//! every frame in flight sits captured on the
//! [`VirtualWire`](clio_net::VirtualWire) until the
//! explorer decides its fate. A **schedule** is a sequence of
//! [`McAction`]s; between actions the simulation **settles** — it runs
//! every event whose gap from the previous one is within the settle
//! horizon, so doorbells, NIC serialization and pipeline cascades play out
//! — and stops at the next *decision point* (the next event is a timeout
//! far in the future, or nothing is pending at all). Depth-first search
//! enumerates every schedule up to [`McConfig::max_depth`] actions and
//! [`McConfig::fault_budget`] injected faults.
//!
//! Fault accounting: in-order delivery is the network behaving, so it is
//! free; a delivery that overtakes an older same-destination frame is a
//! reorder and costs one fault, as do corruption, drop and duplication.
//! Firing a timer (jumping the simulation to its next far-future event,
//! e.g. a retransmission timeout) is free but consumes depth.
//!
//! # Invariants checked
//!
//! After every settle: the transport's window-accounting invariants
//! ([`clio_cn::transport`]'s `# Invariants` 1) and request-id freshness
//! (invariant 2, checked over every request frame the CN ever puts on the
//! wire). At quiescence: every submitted op completed exactly once with
//! the same result as the fault-free unbatched baseline, final memory
//! matches the baseline (at-most-once effects — the fetch-and-add landed
//! exactly once), and all windows drained (invariant 4). A state with
//! requests in flight but nothing pending anywhere is reported as a
//! deadlock.
//!
//! # Pruning
//!
//! States are fingerprinted over **logical** protocol state only
//! (transport + board fingerprints, wire contents, completions) — absolute
//! times and EWMAs are excluded, so runs that differ only in when things
//! happened collapse into one state. A state is re-explored only if
//! reached with strictly more depth or fault budget remaining than every
//! earlier visit.

use std::fmt;
use std::hash::{Hash, Hasher};

use clio_cn::transport::McMutation;
use clio_net::Frame;
use clio_proto::ClioPacket;
use clio_sim::{IdMap, IdSet, Message, SimDuration};

use crate::harness::{Framing, Outcome, Scenario};

/// One explorer decision about the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McAction {
    /// Deliver pending frame `index` to its destination. Free if it is the
    /// oldest frame for that destination; costs one fault if it overtakes
    /// an older one (a reorder).
    Deliver(usize),
    /// Corrupt pending frame `index` and deliver it (one fault). The
    /// receiver's link layer sees a failed integrity check: the board
    /// NACKs it, the CN drops it.
    Corrupt(usize),
    /// Discard pending frame `index` without delivery (one fault). The
    /// sender's timeout machinery must recover.
    Drop(usize),
    /// Inject a copy of pending frame `index` behind it (one fault); the
    /// original stays in flight. Retry-dedup must suppress the double
    /// execution.
    Duplicate(usize),
    /// Run the next pending simulation event past the settle horizon —
    /// typically a retransmission timeout. Free, but consumes depth.
    FireTimer,
    /// Power-blip the board (crash + immediate restart): its volatile
    /// state — dedup buffer, egress queues, pending doorbells — is lost,
    /// while committed DRAM and page tables survive. Costs one unit of
    /// [`McConfig::crash_budget`]; with the dedup buffer cold, a retry of
    /// an already-executed non-idempotent op re-executes, so crash runs
    /// are checked against a relaxed at-least-once outcome instead of
    /// strict baseline equality.
    CrashBoard,
}

impl fmt::Display for McAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McAction::Deliver(i) => write!(f, "Deliver({i})"),
            McAction::Corrupt(i) => write!(f, "Corrupt({i})"),
            McAction::Drop(i) => write!(f, "Drop({i})"),
            McAction::Duplicate(i) => write!(f, "Duplicate({i})"),
            McAction::FireTimer => write!(f, "FireTimer"),
            McAction::CrashBoard => write!(f, "CrashBoard"),
        }
    }
}

/// Exploration bounds and scenario knobs.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Maximum schedule length (actions per run).
    pub max_depth: usize,
    /// Maximum injected faults per run (reorders + corruptions + drops +
    /// duplications).
    pub fault_budget: u32,
    /// Maximum board power-blips ([`McAction::CrashBoard`]) per run.
    /// Separate from `fault_budget` because a crash changes the *spec*
    /// being checked: runs that used a crash are held to at-least-once
    /// semantics for the fetch-and-add (the dedup buffer is volatile by
    /// design), not strict baseline equality. Zero (the default) keeps
    /// the search identical to the crash-free checker.
    pub crash_budget: u32,
    /// Planted transport mutation ([`McMutation::None`] for the real
    /// code).
    pub mutation: McMutation,
    /// The CN's retry budget. Keep it above `max_depth` when searching the
    /// unmutated transport: every `FireTimer` can burn one retry, and a
    /// legitimately-exhausted retry budget fails the op, which the
    /// equivalence check would (correctly, but uninterestingly) flag.
    pub max_retries: u32,
    /// Settle horizon: events closer together than this are internal
    /// cascade, a larger gap is a decision point. Must sit between the
    /// doorbell caps (~4 µs) and the request timeout (50 µs).
    pub settle_horizon: SimDuration,
    /// Hard cap on explored nodes (a safety valve, not a tuning knob; the
    /// run reports whether it was hit).
    pub max_nodes: u64,
    /// Memory boards in the scenario. One (the default) runs the classic
    /// read + fetch-and-add pair against a single board; two or more run
    /// one read per board, so the search covers per-destination windows,
    /// retries, and dedup with frames to several boards interleaving on
    /// the shared wire.
    pub mns: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            // Depth 9 is the shortest bound that rediscovers the
            // retry-chain dedup bug this checker caught during development
            // (see `crates/cn/tests/mc_regressions.rs`): ~90 s in release,
            // ~1.1 M distinct states.
            max_depth: 9,
            fault_budget: 2,
            crash_budget: 0,
            mutation: McMutation::None,
            max_retries: 16,
            settle_horizon: SimDuration::from_micros(20),
            max_nodes: 5_000_000,
            mns: 1,
        }
    }
}

/// A schedule that violated an invariant, with everything needed to
/// reproduce and understand it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong.
    pub message: String,
    /// The exact schedule that reaches the violation — replay it with
    /// [`replay`].
    pub schedule: Vec<McAction>,
    /// Human-readable narration of each step (which frame, what it
    /// carried, where it went).
    pub trace: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violation: {}", self.message)?;
        writeln!(f, "schedule ({} actions):", self.schedule.len())?;
        for (i, line) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:>2}. {line}")?;
        }
        write!(f, "replay with: &{:?}", self.schedule)
    }
}

/// Results of a bounded exploration.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Distinct logical states visited (after pruning).
    pub distinct_states: usize,
    /// Search-tree nodes expanded (prefix replays executed).
    pub nodes: u64,
    /// Runs that reached quiescence and passed the final equivalence
    /// checks.
    pub quiescent_runs: u64,
    /// The first invariant violation found, if any.
    pub violation: Option<Violation>,
    /// True if the search stopped at [`McConfig::max_nodes`] instead of
    /// exhausting the bounded space.
    pub truncated: bool,
}

/// One partially- or fully-executed schedule: the live simulation plus the
/// bookkeeping the invariant checks need.
struct Run {
    scenario: Scenario,
    horizon: SimDuration,
    /// Request ids observed on the wire, for the freshness invariant.
    seen_req_ids: IdSet<u64>,
    /// Capture seqs of explorer-injected duplicates (exempt from the
    /// freshness check: the network may repeat ids, the transport may
    /// not).
    synthetic: IdSet<u64>,
    /// Freshness-scan watermark: frames with `seq` below this were
    /// scanned.
    scanned_up_to: u64,
    /// Board power-blips applied so far (selects the relaxed at-least-once
    /// outcome check at quiescence).
    crashes: u32,
    /// Narration of the applied actions.
    trace: Vec<String>,
}

impl Run {
    /// Builds the scenario and settles to the first decision point.
    fn start(cfg: &McConfig) -> Result<Run, String> {
        let scenario = Scenario::new_with(Framing::Batched, cfg.mutation, cfg.max_retries, cfg.mns);
        let mut run = Run {
            scenario,
            horizon: cfg.settle_horizon,
            seen_req_ids: IdSet::default(),
            synthetic: IdSet::default(),
            scanned_up_to: 0,
            crashes: 0,
            trace: Vec::new(),
        };
        run.settle_and_check()?;
        Ok(run)
    }

    /// Applies one action, settles, and checks the per-state invariants.
    /// `Err` carries the violation message.
    fn apply(&mut self, action: McAction) -> Result<(), String> {
        match action {
            McAction::Deliver(i) => {
                self.trace.push(format!("Deliver({i}): {}", self.describe(i)));
                self.scenario.deliver(i);
            }
            McAction::Corrupt(i) => {
                self.trace.push(format!("Corrupt({i}): {}", self.describe(i)));
                self.scenario.wire_mut().corrupt(i);
                self.scenario.deliver(i);
            }
            McAction::Drop(i) => {
                self.trace.push(format!("Drop({i}): {}", self.describe(i)));
                self.scenario.wire_mut().take(i);
            }
            McAction::Duplicate(i) => {
                self.trace.push(format!("Duplicate({i}): {}", self.describe(i)));
                let wire = self.scenario.wire();
                let src_frame = &wire.pending()[i].frame;
                let pkt = src_frame
                    .payload
                    .downcast_ref::<ClioPacket>()
                    .expect("wire carries ClioPackets")
                    .clone();
                let mut copy = Frame::new(
                    src_frame.src,
                    src_frame.dst,
                    src_frame.wire_bytes,
                    Message::new(pkt),
                );
                copy.corrupted = src_frame.corrupted;
                let seq = self.scenario.wire_mut().inject(copy);
                self.synthetic.insert(seq);
            }
            McAction::FireTimer => {
                self.trace.push("FireTimer: run next event past the horizon".into());
                self.scenario.sim.step();
            }
            McAction::CrashBoard => {
                self.trace.push("CrashBoard: power-blip the board (volatile state lost)".into());
                self.crashes += 1;
                self.scenario.power_blip();
            }
        }
        self.settle_and_check()
    }

    /// Runs every event within the (sliding) settle horizon, then checks
    /// the per-state invariants.
    fn settle_and_check(&mut self) -> Result<(), String> {
        while let Some(at) = self.scenario.sim.peek_next_event_time() {
            if at > self.scenario.sim.now() + self.horizon {
                break;
            }
            self.scenario.sim.step();
        }
        self.scenario.host().clib().transport().check_invariants()?;
        self.scan_freshness()
    }

    /// Scans newly captured frames for transport-issued request-id reuse.
    fn scan_freshness(&mut self) -> Result<(), String> {
        let wire = self.scenario.sim.actor::<clio_net::VirtualWire>(self.scenario.wire);
        let mut fresh: Vec<u64> = Vec::new();
        for c in wire.pending() {
            if c.seq < self.scanned_up_to || self.synthetic.contains(&c.seq) {
                continue;
            }
            let Some(pkt) = c.frame.payload.downcast_ref::<ClioPacket>() else { continue };
            match pkt {
                ClioPacket::Request { header, .. } => fresh.push(header.req_id.0),
                ClioPacket::Batch { requests } => {
                    fresh.extend(requests.iter().map(|(h, _)| h.req_id.0));
                }
                _ => {}
            }
        }
        self.scanned_up_to = wire.captured();
        for id in fresh {
            if !self.seen_req_ids.insert(id) {
                return Err(format!(
                    "request-id freshness violated: the transport put request id {id} on the \
                     wire twice (retries must use fresh ids)"
                ));
            }
        }
        Ok(())
    }

    /// One-line description of pending frame `index`.
    fn describe(&self, index: usize) -> String {
        let c = &self.scenario.wire().pending()[index];
        let dir = format!("{:?}->{:?}", c.frame.src, c.frame.dst);
        let what = match c.frame.payload.downcast_ref::<ClioPacket>() {
            Some(ClioPacket::Request { header, .. }) => {
                format!("Request[req {}]", header.req_id.0)
            }
            Some(ClioPacket::Batch { requests }) => format!(
                "Batch[{}]",
                requests.iter().map(|(h, _)| h.req_id.0.to_string()).collect::<Vec<_>>().join(",")
            ),
            Some(ClioPacket::Response { header, .. }) => {
                format!("Response[req {}]", header.req_id.0)
            }
            Some(ClioPacket::BatchResp { responses }) => format!(
                "BatchResp[{}]",
                responses.iter().map(|(h, _)| h.req_id.0.to_string()).collect::<Vec<_>>().join(",")
            ),
            Some(ClioPacket::Nack { req_id }) => format!("Nack[req {}]", req_id.0),
            Some(ClioPacket::BatchNack { req_ids }) => format!(
                "BatchNack[{}]",
                req_ids.iter().map(|r| r.0.to_string()).collect::<Vec<_>>().join(",")
            ),
            None => "<non-Clio frame>".into(),
        };
        let corrupted = if c.frame.corrupted { " (corrupted)" } else { "" };
        format!("{what} {dir}{corrupted}")
    }

    /// Fingerprint of the logical state: transport + board + wire +
    /// completions. Absolute times are excluded (see the module docs on
    /// pruning).
    fn state_hash(&self) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        // Crash count is part of the logical state: a post-blip state with
        // a cold dedup buffer is checked against a different (relaxed)
        // quiescent spec than its crash-free twin, so they must not prune
        // into one node.
        h.write_u64(self.crashes as u64);
        h.write_u64(self.scenario.host().clib().transport().fingerprint());
        h.write_u64(self.scenario.host().clib().in_flight() as u64);
        for fp in self.scenario.board_fingerprints() {
            h.write_u64(fp);
        }
        // Packets and completions hash field by field through their `Hash`
        // impls: every field their `Debug` form shows, without rendering it.
        for c in self.scenario.wire().pending() {
            (c.frame.src, c.frame.dst, c.frame.corrupted).hash(&mut h);
            match c.frame.payload.downcast_ref::<ClioPacket>() {
                Some(pkt) => pkt.hash(&mut h),
                None => h.write_u64(u64::MAX),
            }
        }
        for comp in self.scenario.host().completions() {
            (comp.token, &comp.result).hash(&mut h);
        }
        h.finish()
    }

    /// Final checks at quiescence: completion-count, observational
    /// equivalence with the baseline, and drained windows.
    fn check_quiescent(&mut self, baseline: &Outcome) -> Result<(), String> {
        let transport = self.scenario.host().clib().transport();
        transport.check_invariants()?;
        if transport.incast_in_flight() != 0 {
            return Err(format!(
                "quiescence violated: incast window still holds {} bytes with nothing in flight",
                transport.incast_in_flight()
            ));
        }
        let got = self.scenario.outcome();
        if got.results.len() != baseline.results.len() {
            return Err(format!(
                "completion-count mismatch at quiescence: {} ops completed, baseline \
                 completed {}",
                got.results.len(),
                baseline.results.len()
            ));
        }
        if self.crashes == 0 {
            if got != *baseline {
                return Err(format!(
                    "observational equivalence violated: explored run produced {got:?}, the \
                     fault-free unbatched baseline produced {baseline:?}"
                ));
            }
            return Ok(());
        }
        self.check_quiescent_after_crashes(baseline, &got)
    }

    /// The quiescent spec for runs that power-blipped the board: single
    /// completion per op and read-side equality still hold verbatim, but
    /// the fetch-and-add degrades from exactly-once to **at-least-once,
    /// at-most-`crashes + 1`-times** — each blip clears the volatile dedup
    /// buffer, so one retry of an already-executed FAA may re-execute per
    /// crash. The value the application observed must be one the cell
    /// actually passed through.
    fn check_quiescent_after_crashes(
        &self,
        baseline: &Outcome,
        got: &Outcome,
    ) -> Result<(), String> {
        use crate::harness::{FAA_DELTA, FAA_SEED};
        for (i, (g, b)) in got.read_pages.iter().zip(baseline.read_pages.iter()).enumerate() {
            if g != b {
                return Err(format!(
                    "crash run corrupted board {i}'s read page: got {g:?}, baseline {b:?} — \
                     committed DRAM must survive a board restart"
                ));
            }
        }
        let (Some(got_cell), Some(_)) = (got.faa_cell, baseline.faa_cell) else {
            // Multi-MN scenarios are read-only: every op is idempotent, so
            // even crash runs must match the baseline verbatim.
            if *got != *baseline {
                return Err(format!(
                    "crash run of the read-only scenario diverged from the baseline: got \
                     {got:?}, baseline {baseline:?}"
                ));
            }
            return Ok(());
        };
        // Token order (= submission order): [0] the read, [1] the FAA.
        if got.results[0] != baseline.results[0] {
            return Err(format!(
                "crash run changed the read's completion: got {:?}, baseline {:?}",
                got.results[0], baseline.results[0]
            ));
        }
        let executions = match &got.results[1].1 {
            Ok(clio_cn::CompletionValue::Old(v))
                if *v >= FAA_SEED && (*v - FAA_SEED).is_multiple_of(FAA_DELTA) =>
            {
                (*v - FAA_SEED) / FAA_DELTA
            }
            other => {
                return Err(format!(
                    "crash run's FAA completed with {other:?}, expected Ok(Old(seed + \
                     k*delta)) for some prior execution count k"
                ));
            }
        };
        if executions > self.crashes as u64 {
            return Err(format!(
                "FAA old-value implies {executions} prior executions but only {} crash(es) \
                 could have cleared the dedup buffer",
                self.crashes
            ));
        }
        let cell = got_cell;
        let over_seed = cell
            .checked_sub(FAA_SEED)
            .ok_or_else(|| format!("FAA cell regressed below its seed: {cell} < {FAA_SEED}"))?;
        if over_seed == 0 || !over_seed.is_multiple_of(FAA_DELTA) {
            return Err(format!(
                "FAA cell holds {cell}: the completed op must have applied the delta a whole \
                 number of times, at least once"
            ));
        }
        let applied = over_seed / FAA_DELTA;
        if applied > (self.crashes + 1) as u64 {
            return Err(format!(
                "FAA applied {applied} times but {} crash(es) permit at most {} — dedup \
                 failed beyond what volatility explains",
                self.crashes,
                self.crashes + 1
            ));
        }
        Ok(())
    }
}

/// FNV-1a as a [`Hasher`], so state hashes through `Hash` impls.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Runs the fault-free, unbatched baseline to completion and returns its
/// outcome — the reference every explored schedule must be observationally
/// equivalent to.
pub fn baseline_outcome(cfg: &McConfig) -> Outcome {
    let mut sc = Scenario::new_with(Framing::Unbatched, McMutation::None, cfg.max_retries, cfg.mns);
    loop {
        // Settle, then deliver everything in capture order; fire timers
        // only if somehow needed (a fault-free run should never time out).
        while let Some(at) = sc.sim.peek_next_event_time() {
            if at > sc.sim.now() + cfg.settle_horizon {
                break;
            }
            sc.sim.step();
        }
        if !sc.wire().is_empty() {
            sc.deliver(0);
            continue;
        }
        if sc.sim.peek_next_event_time().is_some() {
            sc.sim.step();
            continue;
        }
        break;
    }
    assert!(
        sc.host().clib().in_flight() == 0,
        "baseline run must complete every op (got {} still in flight)",
        sc.host().clib().in_flight()
    );
    sc.outcome()
}

/// Replays `schedule` from the initial state, checking every invariant
/// along the way, and — if the run reaches quiescence — the final
/// equivalence checks against the baseline. `Ok(())` means the schedule
/// completes without violation (it need not reach quiescence).
pub fn replay(cfg: &McConfig, schedule: &[McAction]) -> Result<(), Violation> {
    let baseline = baseline_outcome(cfg);
    let violation = |run: &Run, message: String, schedule: &[McAction]| Violation {
        message,
        schedule: schedule.to_vec(),
        trace: run.trace.clone(),
    };
    let mut run = match Run::start(cfg) {
        Ok(r) => r,
        Err(msg) => {
            return Err(Violation { message: msg, schedule: vec![], trace: vec![] });
        }
    };
    for (i, &a) in schedule.iter().enumerate() {
        if let Err(msg) = run.apply(a) {
            return Err(violation(&run, msg, &schedule[..=i]));
        }
    }
    if run.scenario.quiescent() {
        if let Err(msg) = run.check_quiescent(&baseline) {
            return Err(violation(&run, msg, schedule));
        }
    }
    Ok(())
}

/// Search bookkeeping shared across the recursion.
struct Search<'a> {
    cfg: &'a McConfig,
    baseline: Outcome,
    /// state hash → (fewest actions used, fewest faults used) over all
    /// visits.
    visited: IdMap<u64, (usize, u32)>,
    nodes: u64,
    quiescent_runs: u64,
    truncated: bool,
}

/// Explores every schedule within the configured bounds. Returns the
/// search statistics and the first violation found (the search stops at
/// it).
pub fn explore(cfg: &McConfig) -> McReport {
    let mut search = Search {
        cfg,
        baseline: baseline_outcome(cfg),
        visited: IdMap::default(),
        nodes: 0,
        quiescent_runs: 0,
        truncated: false,
    };
    let mut schedule = Vec::new();
    let violation = dfs(&mut search, &mut schedule, 0, 0);
    McReport {
        distinct_states: search.visited.len(),
        nodes: search.nodes,
        quiescent_runs: search.quiescent_runs,
        violation,
        truncated: search.truncated,
    }
}

/// Expands the node reached by `schedule` (replaying it from scratch —
/// the simulation is not cloneable, and replays are cheap at these
/// depths), then recurses into every affordable action.
fn dfs(
    search: &mut Search<'_>,
    schedule: &mut Vec<McAction>,
    faults_used: u32,
    crashes_used: u32,
) -> Option<Violation> {
    if search.nodes >= search.cfg.max_nodes {
        search.truncated = true;
        return None;
    }
    search.nodes += 1;
    let mut run = match Run::start(search.cfg) {
        Ok(r) => r,
        Err(msg) => {
            return Some(Violation { message: msg, schedule: schedule.clone(), trace: vec![] })
        }
    };
    for (i, &a) in schedule.iter().enumerate() {
        if let Err(msg) = run.apply(a) {
            return Some(Violation {
                message: msg,
                schedule: schedule[..=i].to_vec(),
                trace: run.trace.clone(),
            });
        }
    }

    // Prune: skip unless this visit has strictly more depth or fault
    // budget remaining than every earlier visit of the same state.
    let h = run.state_hash();
    let depth = schedule.len();
    if let Some(&(d, f)) = search.visited.get(&h) {
        if depth >= d && faults_used >= f {
            return None;
        }
        search.visited.insert(h, (depth.min(d), faults_used.min(f)));
    } else {
        search.visited.insert(h, (depth, faults_used));
    }

    if run.scenario.quiescent() {
        if let Err(msg) = run.check_quiescent(&search.baseline) {
            return Some(Violation {
                message: msg,
                schedule: schedule.clone(),
                trace: run.trace.clone(),
            });
        }
        search.quiescent_runs += 1;
        return None;
    }

    let pending_frames = run.scenario.wire().len();
    let timer_pending = run.scenario.sim.peek_next_event_time().is_some();
    if pending_frames == 0 && !timer_pending && run.scenario.host().clib().in_flight() > 0 {
        return Some(Violation {
            message: format!(
                "deadlock: {} ops in flight but no frame, timer, or event pending",
                run.scenario.host().clib().in_flight()
            ),
            schedule: schedule.clone(),
            trace: run.trace.clone(),
        });
    }
    if depth >= search.cfg.max_depth {
        return None;
    }

    // Enumerate children. The run itself cannot be reused across children
    // (each child mutates it), so collect the action list first. Each
    // entry carries its (fault cost, crash cost).
    let mut actions: Vec<(McAction, u32, u32)> = Vec::new();
    for i in 0..pending_frames {
        let reorders = run.scenario.wire().delivery_reorders(i);
        actions.push((McAction::Deliver(i), reorders as u32, 0));
        if !run.scenario.wire().pending()[i].frame.corrupted {
            actions.push((McAction::Corrupt(i), 1, 0));
        }
        actions.push((McAction::Drop(i), 1, 0));
        actions.push((McAction::Duplicate(i), 1, 0));
    }
    if timer_pending {
        actions.push((McAction::FireTimer, 0, 0));
    }
    actions.push((McAction::CrashBoard, 0, 1));
    drop(run);

    for (action, cost, crash_cost) in actions {
        if faults_used + cost > search.cfg.fault_budget
            || crashes_used + crash_cost > search.cfg.crash_budget
        {
            continue;
        }
        schedule.push(action);
        let v = dfs(search, schedule, faults_used + cost, crashes_used + crash_cost);
        schedule.pop();
        if v.is_some() {
            return v;
        }
    }
    None
}
