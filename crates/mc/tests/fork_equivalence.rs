//! The search forks the live simulation at every node instead of rebuilding
//! it and replaying the schedule. Two things make that sound, and both are
//! checked here over whole search trees rather than sampled:
//!
//! 1. **Fork equals replay.** The run reached by forking a node's run and
//!    applying one action is indistinguishable from a scenario built from
//!    scratch and driven through the node's whole schedule: same logical
//!    state hash, same event digest, same event count, same virtual clock.
//! 2. **A fork aliases nothing.** Running the fork leaves the run it was
//!    taken from untouched — wire contents, pending timers, every board
//!    and CN metric, completions, and every seeded page's PTE and bytes
//!    (DRAM and page tables are shared until written, so these are where a
//!    copy-on-write mistake would show).

use clio_mc::harness::{PAGE, PID};
use clio_mc::{McAction, McConfig, Run};
use clio_trace::metrics::Registry;

/// Everything a run shows: what the search compares (state hash) and what
/// the engine attests (digest, events dispatched, clock).
fn observed(run: &Run) -> (u64, u64, u64, u64) {
    let sim = &run.scenario().sim;
    (run.state_hash(), sim.digest(), sim.events_dispatched(), sim.now().as_nanos())
}

/// The parts of a run a sibling fork could reach through a shared pointer:
/// the engine's queue (pending and cancelled events), every captured frame,
/// every metric of the boards and the CN — all of them, by way of the same
/// walks a cluster's registry runs — and each board's seeded pages: their
/// PTEs and the bytes the final checks judge.
fn aliasable(run: &Run) -> String {
    let sc = run.scenario();
    let mut registry = Registry::default();
    for i in 0..sc.boards.len() {
        registry.add(format!("mn{i}"), sc.cboard_at(i));
    }
    registry.add("cn0", sc.host().clib());
    let metrics = registry.snapshot();
    let frames: Vec<String> = sc
        .wire()
        .pending()
        .iter()
        .map(|c| format!("{} {:?} {:?}", c.seq, c.frame, c.frame.payload.type_name()))
        .collect();
    let mut pages = Vec::new();
    sc.judged_memory(|board, va, bytes| {
        let pt = sc.cboard_at(board).silicon().vm().page_table();
        pages.push(format!("mn{board} {va:#x} {:?} {bytes:?}", pt.lookup(PID, va / PAGE)));
    });
    format!(
        "{:?} | {frames:?} | {:?} {:?} | board0 {:?} | {} completions | {pages:?} | hash {:x}",
        sc.sim,
        metrics.counters,
        metrics.gauges,
        sc.cboard().stats(),
        sc.host().completions().len(),
        run.state_hash(),
    )
}

/// The run a from-scratch replay of `schedule` produces.
fn replayed(cfg: &McConfig, schedule: &[McAction]) -> Run {
    let mut run = Run::start(cfg).expect("clean start");
    for &action in schedule {
        run.apply(action).expect("clean schedule");
    }
    run
}

/// Walks the whole (unpruned) tree below `run`, reaching every child by
/// fork + apply, and checks both properties at every node. Returns the
/// number of nodes checked.
fn walk(
    cfg: &McConfig,
    mut run: Run,
    schedule: &mut Vec<McAction>,
    faults_used: u32,
    crashes_used: u32,
) -> u64 {
    assert_eq!(
        observed(&run),
        observed(&replayed(cfg, schedule)),
        "forked run differs from a replay of {schedule:?}"
    );
    let mut nodes = 1;
    if schedule.len() >= cfg.max_depth {
        return nodes;
    }
    let before = aliasable(&run);
    for c in run.choices() {
        if faults_used + c.faults > cfg.fault_budget || crashes_used + c.crashes > cfg.crash_budget
        {
            continue;
        }
        let mut child = run.fork();
        child.apply(c.action).expect("clean schedule");
        assert_eq!(aliasable(&run), before, "{:?} in a fork changed its parent", c.action);
        schedule.push(c.action);
        nodes += walk(cfg, child, schedule, faults_used + c.faults, crashes_used + c.crashes);
        schedule.pop();
    }
    nodes
}

fn walk_tree(cfg: &McConfig) -> u64 {
    walk(cfg, Run::start(cfg).expect("clean start"), &mut Vec::new(), 0, 0)
}

#[test]
fn every_node_of_the_depth_4_tree_equals_its_replay() {
    let cfg = McConfig { max_depth: 4, fault_budget: 2, ..McConfig::default() };
    let nodes = walk_tree(&cfg);
    assert!(nodes > 1_000, "only {nodes} nodes — the tree degenerated");
}

#[test]
fn crash_schedules_equal_their_replay() {
    let cfg = McConfig { max_depth: 3, fault_budget: 1, crash_budget: 1, ..McConfig::default() };
    assert!(walk_tree(&cfg) > 100);
}

#[test]
fn two_board_schedules_equal_their_replay() {
    let cfg = McConfig { mns: 2, max_depth: 3, fault_budget: 1, ..McConfig::default() };
    assert!(walk_tree(&cfg) > 100);
}

/// The aliasing check spelled out on one step: deliver the batch in a fork
/// (the board executes both ops and queues a response, the CN's timers stay
/// armed), then run the parent through the same step and require it to
/// behave as if the fork had never existed.
#[test]
fn delivering_a_frame_in_a_fork_leaves_the_parent_untouched() {
    let cfg = McConfig::default();
    let parent = Run::start(&cfg).expect("clean start");
    let before = aliasable(&parent);
    let stats_before = parent.scenario().cboard().stats();

    let mut fork = parent.fork();
    fork.apply(McAction::Deliver(0)).expect("clean delivery");
    let fork_stats = fork.scenario().cboard().stats();
    assert_eq!(fork_stats.rx_frames, stats_before.rx_frames + 1, "the fork's board saw the frame");
    assert_eq!(fork.scenario().cboard().silicon().stats().atomics, 1);

    assert_eq!(aliasable(&parent), before);
    assert_eq!(parent.scenario().cboard().stats(), stats_before);
    assert_eq!(parent.scenario().cboard().silicon().stats().atomics, 0);
    assert_eq!(parent.scenario().wire().len(), 1, "the parent's batch is still in flight");

    // The parent, taking the same step later, lands where the fork did and
    // where a never-forked run does.
    let mut parent = parent;
    parent.apply(McAction::Deliver(0)).expect("clean delivery");
    assert_eq!(observed(&parent), observed(&fork));
    assert_eq!(observed(&parent), observed(&replayed(&cfg, &[McAction::Deliver(0)])));
    assert_eq!(aliasable(&parent), aliasable(&fork));
}
