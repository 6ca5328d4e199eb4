//! CI smoke run of the bounded model checker.
//!
//! Explores the scenario at the default bounds (override with `MC_DEPTH` /
//! `MC_FAULTS` / `MC_RETRIES` / `MC_CRASHES` / `MC_MNS`), prints the search
//! statistics and the search rate, and exits nonzero on any invariant
//! violation — printing the replayable counterexample schedule first. A run
//! at bounds that have a pinned tree (every run CI makes) must also report
//! exactly that tree, so a change to how nodes are reached, fingerprinted
//! or pruned cannot pass as "no violations" over a different (smaller)
//! tree. Other bounds print their counts with no verdict on them.

use std::process::ExitCode;
use std::time::Instant;

use clio_mc::{explore, McConfig};

/// What a pinned tree is keyed by: `(max_depth, fault_budget, crash_budget,
/// max_retries, mns)`.
type Bounds = (usize, u32, u32, u32, usize);

/// `(nodes, distinct states, quiescent runs)` of one search.
type Tree = (u64, usize, u64);

/// The tree of every search CI runs. Re-pin together with
/// `crates/mc/tests/bounded_search.rs` when a change means to alter a tree.
const PINNED_TREES: [(Bounds, Tree); 3] = [
    // The default bounds: one board, depth 9, two faults, no crash.
    ((9, 2, 0, 16, 1), (1_361_205, 811_628, 20)),
    // One board power-blip in the budget, depth 6.
    ((6, 2, 1, 16, 1), (59_103, 34_559, 13)),
    // Two boards, depth 7.
    ((7, 2, 0, 16, 2), (641_563, 382_038, 12)),
];

fn bounds(c: &McConfig) -> Bounds {
    (c.max_depth, c.fault_budget, c.crash_budget, c.max_retries, c.mns)
}

fn pinned_tree(cfg: &McConfig) -> Option<Tree> {
    PINNED_TREES.iter().find(|(b, _)| *b == bounds(cfg)).map(|&(_, tree)| tree)
}

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
        ..defaults
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
    match pinned_tree(&cfg) {
        Some(pinned) if pinned != tree => {
            println!(
                "search tree changed: expected (nodes, states, quiescent runs) = {pinned:?}, \
                 got {tree:?}"
            );
            return ExitCode::FAILURE;
        }
        Some(_) => println!("search tree matches the pinned one"),
        None => println!("no tree pinned at these bounds: counts not checked"),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_bounds_have_a_pinned_tree() {
        assert!(pinned_tree(&McConfig::default()).is_some());
    }
}
