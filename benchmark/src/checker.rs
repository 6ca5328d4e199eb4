//! The checker slice: `clio_mc::explore` passes over the real `Transport`,
//! `CBoard` and engine. The checker replays every schedule prefix from a
//! freshly built scenario, so construction cost and short runs dominate —
//! a steady-state gain bought with heavier set-up shows as a loss here.

use std::time::{Duration, Instant};

use clio_mc::{explore, McConfig};

use crate::stats::median;

/// Search depth of one pass (10,407 nodes, about 0.3 s; depth 7 would take
/// the whole run).
const DEPTH: usize = 5;
const FAULT_BUDGET: u32 = 2;

/// The passes of one run.
#[derive(Debug, Default)]
pub struct Passes {
    states_per_s: Vec<f64>,
    ns_per_node: Vec<f64>,
    /// `(nodes, distinct states)` of the first pass.
    counts: Option<(u64, usize)>,
    failed: bool,
    /// Wall-clock time spent in passes.
    pub spent: Duration,
}

/// What the passes of one run found.
#[derive(Debug)]
pub struct Checked {
    /// Distinct states per wall-clock second, median over passes.
    pub states_per_s: f64,
    /// Wall-clock ns per explored node, median over passes.
    pub ns_per_node: f64,
    pub nodes: u64,
    pub distinct_states: u64,
    /// No violation, no truncation, and every pass counted the same nodes
    /// and states.
    pub ok: bool,
}

impl Passes {
    /// Runs one pass.
    pub fn pass(&mut self) {
        let cfg = McConfig { max_depth: DEPTH, fault_budget: FAULT_BUDGET, ..McConfig::default() };
        let started = Instant::now();
        let report = explore(&cfg);
        let took = started.elapsed();
        if let Some(v) = &report.violation {
            eprintln!("checker found a violation: {v}");
        }
        let counts = (report.nodes, report.distinct_states);
        self.failed |= report.violation.is_some()
            || report.truncated
            || *self.counts.get_or_insert(counts) != counts;
        self.states_per_s.push(report.distinct_states as f64 / took.as_secs_f64());
        self.ns_per_node.push(took.as_nanos() as f64 / report.nodes as f64);
        self.spent += took;
    }

    /// Runs passes until `budget` is spent.
    pub fn run_for(&mut self, budget: Duration) {
        let started = Instant::now();
        while started.elapsed() < budget {
            self.pass();
        }
    }

    /// Sums the passes up, after topping them up to two.
    pub fn finish(mut self) -> Checked {
        while self.states_per_s.len() < 2 {
            self.pass();
        }
        let (nodes, distinct_states) = self.counts.expect("passes ran");
        Checked {
            states_per_s: median(&mut self.states_per_s).expect("passes ran"),
            ns_per_node: median(&mut self.ns_per_node).expect("passes ran"),
            nodes,
            distinct_states: distinct_states as u64,
            ok: !self.failed,
        }
    }
}
