//! CI smoke run of the bounded model checker.
//!
//! Explores the scenario at the default bounds (override with `MC_DEPTH` /
//! `MC_FAULTS` / `MC_RETRIES` / `MC_CRASHES` / `MC_MNS`), prints the search
//! statistics and the search rate, and exits nonzero on any invariant
//! violation — printing the replayable counterexample schedule first. A run
//! at the default bounds must also report exactly the pinned search tree,
//! so a change to how nodes are reached, fingerprinted or pruned cannot
//! pass as "no violations" over a different (smaller) tree.

use std::process::ExitCode;
use std::time::Instant;

use clio_mc::{explore, McConfig};

/// `(nodes, distinct states, quiescent runs)` of the default-bounds search
/// (one board, depth 9, two faults, no crash). Re-pin together with
/// `crates/mc/tests/bounded_search.rs` when a change means to alter the
/// tree.
const DEFAULT_BOUNDS_TREE: (u64, usize, u64) = (1_888_495, 1_147_842, 22);

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() -> ExitCode {
    let defaults = McConfig::default();
    let cfg = McConfig {
        max_depth: env_usize("MC_DEPTH", defaults.max_depth),
        fault_budget: env_usize("MC_FAULTS", defaults.fault_budget as usize) as u32,
        max_retries: env_usize("MC_RETRIES", defaults.max_retries as usize) as u32,
        crash_budget: env_usize("MC_CRASHES", defaults.crash_budget as usize) as u32,
        mns: env_usize("MC_MNS", defaults.mns),
        ..defaults.clone()
    };
    println!(
        "clio_mc smoke: {} board(s) / depth {} / fault budget {} / retries {} / crash budget {}",
        cfg.mns, cfg.max_depth, cfg.fault_budget, cfg.max_retries, cfg.crash_budget
    );
    let started = Instant::now();
    let report = explore(&cfg);
    let took = started.elapsed();
    println!(
        "explored {} nodes / {} distinct states / {} quiescent runs in {:.1?}{}",
        report.nodes,
        report.distinct_states,
        report.quiescent_runs,
        took,
        if report.truncated { " (TRUNCATED at node cap)" } else { "" },
    );
    println!(
        "{:.0} nodes/s, {:.0} states/s",
        report.nodes as f64 / took.as_secs_f64(),
        report.distinct_states as f64 / took.as_secs_f64()
    );
    if let Some(v) = report.violation {
        println!("{v}");
        return ExitCode::FAILURE;
    }
    println!("no invariant violations");
    let tree = (report.nodes, report.distinct_states, report.quiescent_runs);
    let bounds = |c: &McConfig| (c.max_depth, c.fault_budget, c.crash_budget, c.max_retries, c.mns);
    let at_default_bounds = bounds(&cfg) == bounds(&defaults);
    if at_default_bounds && tree != DEFAULT_BOUNDS_TREE {
        println!(
            "search tree changed: expected (nodes, states, quiescent runs) = \
             {DEFAULT_BOUNDS_TREE:?}, got {tree:?}"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
