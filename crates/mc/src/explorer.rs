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
//! # Search cost
//!
//! The search owns a live run per node on its path: a child is a fork of
//! its parent's run ([`Scenario::fork`] — the engine's queue copied, each
//! actor shared until it handles a message) plus one applied action, and
//! the last child takes the parent's run itself. A node therefore costs one
//! fork, one action and a copy of each actor the action reaches (the wire
//! for a drop, the board and the wire for a delivery to the board),
//! whatever its depth, and the search is O(nodes). The state hash reads the
//! board and transport fingerprints from a cache that the actor's next
//! change clears, so an actor the action did not reach is not
//! fingerprinted again either.
//! [`replay`] is the from-scratch path: it rebuilds the scenario and
//! applies a whole schedule, which is how a [`Violation`] is reproduced
//! and narrated, and what the fork is tested against
//! (`tests/fork_equivalence.rs`).
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
//! States are fingerprinted over **logical** protocol state (transport +
//! board fingerprints, wire contents, completions) **and the memory the
//! final checks read** (each board's read page, the fetch-and-add cell) —
//! absolute times and EWMAs are excluded, so runs that differ only in when
//! things happened collapse into one state. The memory is there because a
//! crash run's verdict depends on it: after a power-blip the fetch-and-add
//! may re-execute, and two visits that differ only in how often it did
//! must not prune into one. A visit is pruned only if an earlier
//! visit of the same state **dominates** it — used no more actions *and*
//! no more faults, so everything reachable from here within the bounds was
//! reachable from there. Per state the search keeps the fewest actions seen
//! at each fault count (the Pareto frontier of its visits), never a merged
//! pair: two incomparable visits (3 actions / 2 faults, then 5 / 0) do not
//! add up to a (3, 0) visit that never happened, and a later (4, 1) visit,
//! which neither dominates, is explored. The crash count needs no such
//! care: it is part of the state.

use std::fmt;
use std::hash::{Hash, Hasher};

use clio_cn::transport::McMutation;
use clio_proto::ClioPacket;
use clio_sim::table::MixHasher;
use clio_sim::{IdMap, IdSet, SimDuration};

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
    /// duplications). At most [`McConfig::MAX_FAULT_BUDGET`].
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

impl McConfig {
    /// Largest supported [`fault_budget`](McConfig::fault_budget): the
    /// search keeps one byte per fault count for every visited state.
    pub const MAX_FAULT_BUDGET: u32 = 7;
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            // Depth 9 is the shortest bound that rediscovers the
            // retry-chain dedup bug this checker caught during development
            // (see `crates/cn/tests/mc_regressions.rs`): ~12 s in release,
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
    /// Search-tree nodes visited: one forked run and one applied action
    /// each, pruned or not.
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

/// One thing the explorer may do at a decision point, and what it costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// The action.
    pub action: McAction,
    /// Faults it draws from [`McConfig::fault_budget`] (a delivery costs
    /// one only when it overtakes an older frame to the same destination).
    pub faults: u32,
    /// Power-blips it draws from [`McConfig::crash_budget`].
    pub crashes: u32,
}

/// One partially- or fully-executed schedule: the live simulation plus the
/// bookkeeping the invariant checks need. [`explore`] walks a tree of
/// these; the type is public so that a test can walk the same tree, one
/// [`fork`](Run::fork) and one [`apply`](Run::apply) per node, and compare
/// each node with a from-scratch run of its schedule.
pub struct Run {
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
}

impl Run {
    /// Builds the scenario and settles to the first decision point.
    ///
    /// # Errors
    ///
    /// The message of an invariant violated before any action.
    pub fn start(cfg: &McConfig) -> Result<Run, String> {
        let scenario = Scenario::new_with(Framing::Batched, cfg.mutation, cfg.max_retries, cfg.mns);
        let mut run = Run {
            scenario,
            horizon: cfg.settle_horizon,
            seen_req_ids: IdSet::default(),
            synthetic: IdSet::default(),
            scanned_up_to: 0,
            crashes: 0,
        };
        run.settle_and_check()?;
        Ok(run)
    }

    /// An independent copy of the run at this decision point (see
    /// [`Scenario::fork`]): applying an action to it is the same as
    /// replaying the whole schedule plus that action from scratch.
    pub fn fork(&self) -> Run {
        Run {
            scenario: self.scenario.fork(),
            horizon: self.horizon,
            seen_req_ids: self.seen_req_ids.clone(),
            synthetic: self.synthetic.clone(),
            scanned_up_to: self.scanned_up_to,
            crashes: self.crashes,
        }
    }

    /// The scenario as it stands.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Every action available at this decision point, in the order the
    /// search tries them: per pending frame deliver / corrupt (unless it
    /// already is) / drop / duplicate, then the timer if one is pending,
    /// then the board power-blip.
    pub fn choices(&mut self) -> Vec<Choice> {
        let choice = |action, faults, crashes| Choice { action, faults, crashes };
        let mut choices = Vec::new();
        let wire = self.scenario.wire();
        for (i, captured) in wire.pending().iter().enumerate() {
            choices.push(choice(McAction::Deliver(i), wire.delivery_reorders(i) as u32, 0));
            if !captured.frame.corrupted {
                choices.push(choice(McAction::Corrupt(i), 1, 0));
            }
            choices.push(choice(McAction::Drop(i), 1, 0));
            choices.push(choice(McAction::Duplicate(i), 1, 0));
        }
        if self.scenario.sim.peek_next_event_time().is_some() {
            choices.push(choice(McAction::FireTimer, 0, 0));
        }
        choices.push(choice(McAction::CrashBoard, 0, 1));
        choices
    }

    /// Applies one action, settles, and checks the per-state invariants.
    ///
    /// # Errors
    ///
    /// The message of the invariant the action violated.
    ///
    /// # Panics
    ///
    /// Panics if the action names a frame that is not pending.
    pub fn apply(&mut self, action: McAction) -> Result<(), String> {
        match action {
            McAction::Deliver(i) => self.scenario.deliver(i),
            McAction::Corrupt(i) => {
                self.scenario.wire_mut().corrupt(i);
                self.scenario.deliver(i);
            }
            McAction::Drop(i) => {
                self.scenario.wire_mut().take(i);
            }
            McAction::Duplicate(i) => {
                let copy = self.scenario.wire().pending()[i].frame.clone();
                let seq = self.scenario.wire_mut().inject(copy);
                self.synthetic.insert(seq);
            }
            McAction::FireTimer => {
                self.scenario.sim.step();
            }
            McAction::CrashBoard => {
                self.crashes += 1;
                self.scenario.power_blip();
            }
        }
        self.settle_and_check()
    }

    /// What `action` is about to do to this run, in one line (which frame,
    /// what it carries, where it goes). Only [`replay`] narrates; the
    /// search applies actions without rendering anything.
    fn narrate(&self, action: McAction) -> String {
        match action {
            McAction::Deliver(i)
            | McAction::Corrupt(i)
            | McAction::Drop(i)
            | McAction::Duplicate(i) => format!("{action}: {}", self.describe(i)),
            McAction::FireTimer => format!("{action}: run next event past the horizon"),
            McAction::CrashBoard => {
                format!("{action}: power-blip the board (volatile state lost)")
            }
        }
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
        let wire = self.scenario.wire();
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
    /// completions + the memory the final checks judge. Absolute times are
    /// excluded (see the module docs on pruning).
    pub fn state_hash(&self) -> u64 {
        let mut h = MixHasher::default();
        // Crash count is part of the logical state: a post-blip state with
        // a cold dedup buffer is checked against a different (relaxed)
        // quiescent spec than its crash-free twin, so they must not prune
        // into one node.
        h.write_u64(self.crashes as u64);
        h.write_u64(self.scenario.transport_fingerprint());
        h.write_u64(self.scenario.host().clib().in_flight() as u64);
        for i in 0..self.scenario.boards.len() {
            h.write_u64(self.scenario.board_fingerprint(i));
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
        // The memory the final checks judge: a crash lets the FAA execute
        // again, which changes the cell and nothing else.
        self.scenario.judged_memory(|_, _, bytes| h.write(bytes));
        h.finish()
    }

    /// Whether the run is over. A run that reached quiescence must pass
    /// the final checks ([`Self::check_quiescent`]) and is then over
    /// (`Ok(true)`); one with ops in flight but no frame, timer or event
    /// left to move them is a deadlock; any other run goes on (`Ok(false)`).
    fn check_if_over(&mut self, baseline: &Outcome) -> Result<bool, String> {
        if self.scenario.quiescent() {
            self.check_quiescent(baseline)?;
            return Ok(true);
        }
        let in_flight = self.scenario.host().clib().in_flight();
        if self.scenario.wire().is_empty()
            && self.scenario.sim.peek_next_event_time().is_none()
            && in_flight > 0
        {
            return Err(format!(
                "deadlock: {in_flight} ops in flight but no frame, timer, or event pending"
            ));
        }
        Ok(false)
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
/// completes without violation (it need not reach quiescence, but it must
/// not end in a deadlock).
///
/// This is the from-scratch reproducer of a [`Violation`], and the one
/// place a schedule is narrated: the search itself ([`explore`]) forks live
/// runs and renders nothing.
pub fn replay(cfg: &McConfig, schedule: &[McAction]) -> Result<(), Violation> {
    let baseline = baseline_outcome(cfg);
    let mut trace = Vec::with_capacity(schedule.len());
    let mut run = match Run::start(cfg) {
        Ok(r) => r,
        Err(message) => return Err(Violation { message, schedule: vec![], trace }),
    };
    for (i, &a) in schedule.iter().enumerate() {
        trace.push(run.narrate(a));
        if let Err(message) = run.apply(a) {
            return Err(Violation { message, schedule: schedule[..=i].to_vec(), trace });
        }
    }
    match run.check_if_over(&baseline) {
        Ok(_) => Ok(()),
        Err(message) => Err(Violation { message, schedule: schedule.to_vec(), trace }),
    }
}

/// The visits of one state: the fewest actions used at each fault count,
/// [`UNSEEN`] where no visit used exactly that many faults.
type Frontier = [u8; McConfig::MAX_FAULT_BUDGET as usize + 1];

/// [`Frontier`] entry of a fault count no visit has used.
const UNSEEN: u8 = u8::MAX;

/// The [`Frontier`] of a state before its first visit.
const UNVISITED: Frontier = [UNSEEN; McConfig::MAX_FAULT_BUDGET as usize + 1];

/// Records a visit that used `depth` actions and `faults` faults, unless an
/// earlier visit dominates it (no more actions and no more faults), in
/// which case nothing is recorded and the visit is to be pruned.
fn admit(frontier: &mut Frontier, depth: usize, faults: u32) -> bool {
    let faults = faults as usize;
    if frontier[..=faults].iter().any(|&d| d as usize <= depth) {
        return false;
    }
    frontier[faults] = depth as u8;
    true
}

/// Search bookkeeping shared across the recursion.
struct Search<'a> {
    cfg: &'a McConfig,
    baseline: Outcome,
    /// state hash → its visits so far.
    visited: IdMap<u64, Frontier>,
    nodes: u64,
    quiescent_runs: u64,
    truncated: bool,
}

/// Explores every schedule within the configured bounds. Returns the
/// search statistics and the first violation found (the search stops at
/// it).
///
/// # Panics
///
/// Panics if `cfg.fault_budget` exceeds [`McConfig::MAX_FAULT_BUDGET`] or
/// `cfg.max_depth` does not fit the per-state bookkeeping (254 actions).
pub fn explore(cfg: &McConfig) -> McReport {
    assert!(cfg.fault_budget <= McConfig::MAX_FAULT_BUDGET, "fault budget above the supported 7");
    assert!(cfg.max_depth < UNSEEN as usize, "depth bound above the supported 254");
    let mut search = Search {
        cfg,
        baseline: baseline_outcome(cfg),
        visited: IdMap::default(),
        nodes: 0,
        quiescent_runs: 0,
        truncated: false,
    };
    let mut schedule = Vec::new();
    let found = match Run::start(cfg) {
        Ok(root) => dfs(&mut search, root, &mut schedule, 0, 0),
        Err(message) => Some(message),
    };
    // The search carries no narration: replaying the schedule from scratch
    // tells the story, and cross-checks the forked run.
    let violation = found.map(|message| match replay(cfg, &schedule) {
        Err(v) if v.message == message => v,
        other => Violation {
            message: format!(
                "{message} [a from-scratch replay disagrees with the forked search: it gave {:?}]",
                other.err().map(|v| v.message)
            ),
            schedule: schedule.clone(),
            trace: vec![],
        },
    });
    McReport {
        distinct_states: search.visited.len(),
        nodes: search.nodes,
        quiescent_runs: search.quiescent_runs,
        violation,
        truncated: search.truncated,
    }
}

/// Visits the search node `schedule` leads to. `run`, owned by this call,
/// is the live run of the parent node, to which the last action of
/// `schedule` is yet to be applied (for the root, the started run and an
/// empty schedule). Expands the node and recurses into every affordable
/// action — each child gets a [`Run::fork`] of this node's run, the last
/// child the run itself — so a node costs one copy and one action however
/// deep it sits.
///
/// Returns the message of the first violation found; `schedule` is then
/// left holding the actions that reach it.
fn dfs(
    search: &mut Search<'_>,
    mut run: Run,
    schedule: &mut Vec<McAction>,
    faults_used: u32,
    crashes_used: u32,
) -> Option<String> {
    if search.nodes >= search.cfg.max_nodes {
        search.truncated = true;
        return None;
    }
    search.nodes += 1;
    if let Some(&action) = schedule.last() {
        if let Err(message) = run.apply(action) {
            return Some(message);
        }
    }

    // Prune: skip if an earlier visit of this state used no more actions
    // and no more faults (see the module docs).
    let depth = schedule.len();
    let frontier = search.visited.entry(run.state_hash()).or_insert(UNVISITED);
    if !admit(frontier, depth, faults_used) {
        return None;
    }

    match run.check_if_over(&search.baseline) {
        Err(message) => return Some(message),
        Ok(true) => {
            search.quiescent_runs += 1;
            return None;
        }
        Ok(false) => {}
    }
    if depth >= search.cfg.max_depth {
        return None;
    }

    let mut affordable = run.choices();
    affordable.retain(|c| {
        faults_used + c.faults <= search.cfg.fault_budget
            && crashes_used + c.crashes <= search.cfg.crash_budget
    });
    let last = affordable.len().saturating_sub(1);
    let mut parent = Some(run);
    for (i, c) in affordable.into_iter().enumerate() {
        let child = if i == last { parent.take() } else { parent.as_ref().map(Run::fork) };
        let child = child.expect("the parent run lives until its last child");
        schedule.push(c.action);
        let found = dfs(search, child, schedule, faults_used + c.faults, crashes_used + c.crashes);
        if found.is_some() {
            return found;
        }
        schedule.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule the search used to apply kept `(min depth, min faults)` per
    /// state, so the first two visits below merged into a (3, 0) pair no
    /// visit ever had and the third was pruned, though neither dominates it.
    #[test]
    fn only_a_dominating_visit_prunes() {
        let mut f = UNVISITED;
        assert!(admit(&mut f, 3, 2));
        assert!(admit(&mut f, 5, 0), "fewer faults: not dominated by (3, 2)");
        assert!(admit(&mut f, 4, 1), "dominated by neither (3, 2) nor (5, 0)");
        assert!(!admit(&mut f, 3, 2), "an equal visit is dominated");
        assert!(!admit(&mut f, 4, 2), "(3, 2) used fewer actions and no more faults");
        assert!(!admit(&mut f, 6, 1), "(5, 0) and (4, 1) both dominate");
        assert!(admit(&mut f, 2, 2), "fewer actions than any visit so far");
        assert!(admit(&mut f, 4, 0), "fewer actions than the other fault-free visit");
    }
}
