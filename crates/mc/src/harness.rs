//! The model-checked scenario: a real CN (CLib + transport) and a real
//! CBoard joined by a [`VirtualWire`], with every other source of
//! nondeterminism removed.
//!
//! The scenario is deliberately tiny — two operations (a read and a
//! fetch-and-add on **disjoint** pages) submitted at the same instant — so
//! the interesting state space is the transport's, not the workload's:
//! the two ops coalesce into one `Batch` frame, their responses into one
//! `BatchResp`, and every fault the explorer injects exercises the NACK /
//! timeout / retry / `retry_of`-dedup machinery on both ends. Disjoint
//! pages keep the ops commutative, so the baseline outcome is unique no
//! matter how the explorer interleaves deliveries.
//!
//! Everything protocol-independent is pre-seeded directly into the board's
//! silicon (page tables, page contents), so the wire carries *only* the
//! two fast-path operations under test and the explorer's bounded depth is
//! spent where it matters.
//!
//! A scenario can be copied at any decision point ([`Scenario::fork`]);
//! the explorer does so at every search node. Each actor sits behind a
//! copy-on-write pointer (`Shared`), so a copy takes one pointer per actor
//! and an actor is deep-copied only when it handles a message in one of the
//! copies: a node pays for the actors its action reaches, not for every
//! actor present. A board that is reached is copied except for what it
//! shares until written (DRAM, page tables, slow path), and the boards are
//! sized to the scenario rather than to `test_small` so that a copy of the
//! slow path, when one is made, stays small.

use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use bytes::Bytes;
use clio_cn::transport::McMutation;
use clio_cn::{CLib, CLibConfig, ClioError, Completion, CompletionValue, Op, ThreadId};
use clio_hw::pagetable::Pte;
use clio_hw::CBoardHwConfig;
use clio_mn::{CBoard, CBoardConfig};
use clio_net::{BoardPower, Frame, Mac, NicPort, VirtualWire};
use clio_proto::{Perm, Pid};
use clio_sim::table::MixHasher;
use clio_sim::{Actor, ActorId, Bandwidth, Ctx, Message, SimDuration, SimTime, Simulation};

/// Protection domain the scenario's operations run in.
pub const PID: Pid = Pid(7);
/// Page size of the scenario board (`CBoardHwConfig::test_small`).
pub const PAGE: u64 = 4096;
/// Virtual address of the page the read targets.
pub const VA_READ: u64 = 16 * PAGE;
/// Virtual address of the cell the fetch-and-add targets (a different
/// page, so the two ops commute and the expected outcome is unique).
pub const VA_FAA: u64 = 17 * PAGE;
/// Bytes the read fetches.
pub const READ_LEN: u32 = 32;
/// Fill byte pre-seeded into the read page.
pub const READ_SEED: u8 = 0xA5;
/// Initial value pre-seeded into the fetch-and-add cell.
pub const FAA_SEED: u64 = 40;
/// Delta the fetch-and-add applies — exactly once, whatever the network
/// does, or the checker reports a violation.
pub const FAA_DELTA: u64 = 2;

/// The CN's MAC on the virtual wire.
pub const CN_MAC: Mac = Mac(1);
/// The board's MAC on the virtual wire (board 0 in multi-MN scenarios).
pub const MN_MAC: Mac = Mac(2);

/// MAC of board `i` on the virtual wire (`mn_mac(0) == MN_MAC`).
pub fn mn_mac(i: usize) -> Mac {
    Mac(2 + i as u32)
}

/// Virtual address of the page the read on board `i` targets. Boards get
/// every other page (`va_read(0) == VA_READ`; 17 * PAGE stays reserved for
/// the single-MN fetch-and-add cell).
pub fn va_read(i: usize) -> u64 {
    (16 + 2 * i as u64) * PAGE
}

/// Fill byte pre-seeded into board `i`'s read page — distinct per board so
/// a misrouted read cannot produce the right bytes by accident.
pub fn read_seed(i: usize) -> u8 {
    READ_SEED.wrapping_add(i as u8)
}

/// The scenario board's hardware: `CBoardHwConfig::test_small` with the
/// memory cut to what the scenario touches — two seeded pages plus the
/// 8-page async free-page buffer fit in 32 pages with room to spare. A
/// search node copies every board its action reaches (a frame delivered to
/// it, a timer it armed, a power-blip), and the slow path's free-page list,
/// which scales with physical memory, is copied with it whenever the board
/// refills its async buffer (the page tables and DRAM are shared until
/// written), so the boards are sized to the scenario. The protocol under
/// test never sees the difference (same page size, TLB and timing; the
/// pinned search counts are the same at either size).
fn board_hw() -> CBoardHwConfig {
    CBoardHwConfig { phys_mem_bytes: 32 * PAGE, ..CBoardHwConfig::test_small() }
}

/// Which framing policy the scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Request + response batching on — the explored configuration, where
    /// the two ops travel as one `Batch` frame.
    Batched,
    /// One frame per packet in both directions — the fault-free baseline
    /// the explored runs must be observationally equivalent to.
    Unbatched,
}

/// Submission message for the CN host actor.
#[derive(Clone)]
struct Submit {
    mn: Mac,
    op: Op,
}

/// The CN host actor under test: owns the NIC and the real [`CLib`]
/// (ordering + transport), collects completions.
#[derive(Clone)]
pub struct McCnHost {
    nic: NicPort,
    clib: CLib,
    completions: Vec<Completion>,
}

impl McCnHost {
    /// The CLib under test (the explorer fingerprints and invariant-checks
    /// its transport through this).
    pub fn clib(&self) -> &CLib {
        &self.clib
    }

    /// Completions collected so far, in completion order.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }
}

impl Actor for McCnHost {
    fn name(&self) -> &str {
        "mc-cn-host"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let msg = match msg.downcast::<Submit>() {
            Ok(s) => {
                let done = &mut self.completions;
                self.clib.submit(ctx, ThreadId(0), Some(s.mn), PID, ctx.now(), s.op, done);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Frame>() {
            Ok(f) => {
                self.clib.on_frame(ctx, f, &mut self.completions);
                return;
            }
            Err(m) => m,
        };
        let leftover = self.clib.on_timer(ctx, &mut self.nic, msg, &mut self.completions);
        assert!(leftover.is_none(), "unexpected message at mc CN host");
    }
}

/// A scenario actor, shared with the scenario's forks until it changes,
/// plus its logical fingerprint, cached until it changes.
///
/// A clone copies the pointer and the cache. Every mutable access — each
/// message the actor handles ([`Actor::on_message`]) and
/// [`Scenario::wire_mut`] — goes through [`Shared::get_mut`], which clears
/// the cache and makes the actor unique with `Rc::make_mut`: the first
/// change on either side of a fork copies the actor there and only there.
#[derive(Clone)]
struct Shared<A> {
    actor: Rc<A>,
    fingerprint: Cell<Option<u64>>,
}

impl<A: Clone> Shared<A> {
    fn new(actor: A) -> Self {
        Shared { actor: Rc::new(actor), fingerprint: Cell::new(None) }
    }

    /// The actor, unique to this copy, with the cached fingerprint dropped.
    fn get_mut(&mut self) -> &mut A {
        self.fingerprint.set(None);
        Rc::make_mut(&mut self.actor)
    }

    /// `of(actor)`, computed once per state of the actor. Each actor's
    /// fingerprint must always be read through the same `of`.
    fn fingerprint(&self, of: impl FnOnce(&A) -> u64) -> u64 {
        let fp = self.fingerprint.get().unwrap_or_else(|| of(&self.actor));
        self.fingerprint.set(Some(fp));
        fp
    }
}

impl<A: Actor + Clone> Actor for Shared<A> {
    fn name(&self) -> &str {
        self.actor.name()
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        self.get_mut().on_message(ctx, msg);
    }
}

/// One scenario instance: the simulation plus the actor ids the explorer
/// steers.
pub struct Scenario {
    /// The simulation under exploration.
    pub sim: Simulation,
    /// The [`VirtualWire`] actor.
    pub wire: ActorId,
    /// The CN host actor ([`McCnHost`]).
    pub cn: ActorId,
    /// The CBoard actors, one per memory node, in board order (board 0 is
    /// `MN_MAC`, board `i` is `mn_mac(i)`).
    pub boards: Vec<ActorId>,
}

impl Scenario {
    /// Builds the single-board two-op scenario (read + fetch-and-add).
    /// Equivalent to [`Scenario::new_with`] with one memory node.
    pub fn new(framing: Framing, mutation: McMutation, max_retries: u32) -> Self {
        Scenario::new_with(framing, mutation, max_retries, 1)
    }

    /// Builds the scenario with `mns` memory boards behind the shared wire,
    /// each with pre-installed page tables and pre-seeded page contents,
    /// and a CN with every operation submitted at `t = 0` (so same-board
    /// ops coalesce under the batched framing). With one board the op mix
    /// is the classic read + fetch-and-add pair; with several it is one
    /// read per board, so the explorer exercises per-destination windows,
    /// retries, and dedup while frames to different boards interleave.
    /// Nothing has executed yet — the caller settles the simulation to
    /// materialize the first frames.
    pub fn new_with(framing: Framing, mutation: McMutation, max_retries: u32, mns: usize) -> Self {
        assert!(mns >= 1, "scenario needs at least one memory board");
        let mut sim = Simulation::new(1);
        let wire = sim.add_actor(Shared::new(VirtualWire::new()));

        let mut boards = Vec::with_capacity(mns);
        for i in 0..mns {
            let board_cfg = match framing {
                Framing::Batched => CBoardConfig { hw: board_hw(), ..CBoardConfig::prototype() },
                Framing::Unbatched => {
                    CBoardConfig { hw: board_hw(), ..CBoardConfig::prototype_unbatched() }
                }
            };
            let mac = mn_mac(i);
            let bport =
                NicPort::new(mac, Bandwidth::from_gbps(10), wire, SimDuration::from_nanos(5));
            let mut board = CBoard::new(format!("mc-mn{i}"), board_cfg, bport);
            seed_board(&mut board, i, mns);
            let board = sim.add_actor(Shared::new(board));
            sim.actor_mut::<Shared<VirtualWire>>(wire).get_mut().attach(mac, board);
            boards.push(board);
        }

        let clib_cfg = match framing {
            Framing::Batched => CLibConfig { max_retries, ..CLibConfig::prototype() },
            Framing::Unbatched => CLibConfig { max_retries, ..CLibConfig::prototype_unbatched() },
        };
        let cport =
            NicPort::new(CN_MAC, Bandwidth::from_gbps(40), wire, SimDuration::from_nanos(5));
        let mut clib = CLib::new(clib_cfg, 1, PAGE, Vec::new());
        clib.transport_mut().set_mc_mutation(mutation);
        let cn = sim.add_actor(Shared::new(McCnHost { nic: cport, clib, completions: vec![] }));
        sim.actor_mut::<Shared<VirtualWire>>(wire).get_mut().attach(CN_MAC, cn);

        if mns == 1 {
            // Both ops at the same instant: the doorbell coalesces them
            // into one Batch frame under the batched framing.
            let read = Op::Read { va: VA_READ, len: READ_LEN };
            sim.post(cn, Message::new(Submit { mn: MN_MAC, op: read }));
            let faa = Op::Faa { va: VA_FAA, delta: FAA_DELTA };
            sim.post(cn, Message::new(Submit { mn: MN_MAC, op: faa }));
        } else {
            // One read per board, all at the same instant: each board gets
            // its own frame (batching is per destination), so the wire
            // holds concurrently-in-flight traffic to every board.
            for i in 0..mns {
                let read = Op::Read { va: va_read(i), len: READ_LEN };
                sim.post(cn, Message::new(Submit { mn: mn_mac(i), op: read }));
            }
        }
        Scenario { sim, wire, cn, boards }
    }

    /// An independent copy of the scenario at this instant: the simulation
    /// (clock, pending events and timers, digest) plus the wire, each board
    /// and the CN host. The actors are shared with `self` until one of them
    /// changes on either side, which copies it there (copy-on-write); so
    /// are the wire's captured frames, and each board's DRAM chunks and
    /// page tables below that. So running either leaves the other
    /// untouched, and the copy behaves exactly as a scenario rebuilt and
    /// replayed to this point would.
    pub fn fork(&self) -> Scenario {
        // Actor-id order, as `new_with` registered them: wire, boards, CN.
        let mut actors: Vec<Box<dyn Actor>> = Vec::with_capacity(self.boards.len() + 2);
        actors.push(Box::new(self.shared::<VirtualWire>(self.wire).clone()));
        for &board in &self.boards {
            actors.push(Box::new(self.shared::<CBoard>(board).clone()));
        }
        actors.push(Box::new(self.shared::<McCnHost>(self.cn).clone()));
        Scenario {
            sim: self.sim.fork(actors),
            wire: self.wire,
            cn: self.cn,
            boards: self.boards.clone(),
        }
    }

    /// Actor `id`, as the scenario holds it.
    fn shared<A: Actor + Clone>(&self, id: ActorId) -> &Shared<A> {
        self.sim.actor::<Shared<A>>(id)
    }

    /// The wire, read-only.
    pub fn wire(&self) -> &VirtualWire {
        &self.shared::<VirtualWire>(self.wire).actor
    }

    /// The wire, mutable (the explorer corrupts/takes/injects through
    /// this); a wire shared with a fork is copied first.
    pub fn wire_mut(&mut self) -> &mut VirtualWire {
        self.sim.actor_mut::<Shared<VirtualWire>>(self.wire).get_mut()
    }

    /// The CN host, read-only.
    pub fn host(&self) -> &McCnHost {
        &self.shared::<McCnHost>(self.cn).actor
    }

    /// Board 0, read-only.
    pub fn cboard(&self) -> &CBoard {
        self.cboard_at(0)
    }

    /// Board `i`, read-only.
    pub fn cboard_at(&self, i: usize) -> &CBoard {
        &self.shared::<CBoard>(self.boards[i]).actor
    }

    /// Board `i`'s [`CBoard::fingerprint`] and the bytes of its judged
    /// memory ([`Scenario::judged_memory`]), computed once per board state
    /// (the explorer folds it into every state hash). Only the board
    /// writes its memory, so the cache is cleared whenever the bytes move.
    pub(crate) fn board_fingerprint(&self, i: usize) -> u64 {
        let mns = self.boards.len();
        self.shared::<CBoard>(self.boards[i]).fingerprint(|board| {
            let mut h = MixHasher::default();
            h.write_u64(board.fingerprint());
            judged_ranges(i, mns, |va, out| {
                read_seeded(board, va, out);
                h.write(out);
            });
            h.finish()
        })
    }

    /// The CN's fingerprint, computed once per CN state (the explorer folds
    /// it into every state hash): the transport's, the ops in flight, and
    /// every completion so far.
    pub(crate) fn host_fingerprint(&self) -> u64 {
        self.shared::<McCnHost>(self.cn).fingerprint(|host| {
            let mut h = MixHasher::default();
            h.write_u64(host.clib.transport().fingerprint());
            h.write_u64(host.clib.in_flight() as u64);
            // Field by field through their `Hash` impls: every field their
            // `Debug` form shows, without rendering it.
            for comp in &host.completions {
                (comp.token, &comp.result).hash(&mut h);
            }
            h.finish()
        })
    }

    /// Power-blips board 0: posts a [`BoardPower::Crash`] immediately
    /// followed by a [`BoardPower::Restart`], so the next settle loses the
    /// board's volatile state (dedup buffer, egress queues, pending
    /// doorbells) while committed DRAM, page tables, and allocator state
    /// survive. Frames already captured on the wire are untouched — they
    /// belong to the network, not the board.
    pub fn power_blip(&mut self) {
        self.sim.post(self.boards[0], Message::new(BoardPower::Crash));
        self.sim.post(self.boards[0], Message::new(BoardPower::Restart));
    }

    /// Removes pending frame `index` from the wire and posts it to its
    /// destination actor (delivery happens when the simulation next runs).
    pub fn deliver(&mut self, index: usize) {
        let frame = self.wire_mut().take(index);
        let dst = self.wire().endpoint(frame.dst).expect("destination attached");
        self.sim.post(dst, Message::new(frame));
    }

    /// True when the run is over: no frame in flight, no operation in
    /// flight, and no simulation event pending.
    pub fn quiescent(&mut self) -> bool {
        self.wire().is_empty()
            && self.host().clib().in_flight() == 0
            && self.sim.peek_next_event_time().is_none()
    }

    /// Extracts the observable outcome of a finished run: per-op results
    /// in token order, plus the final contents of every touched page
    /// ([`Scenario::judged_memory`]).
    pub fn outcome(&self) -> Outcome {
        let mut results: Vec<(u64, Result<CompletionValue, ClioError>)> =
            self.host().completions().iter().map(|c| (c.token.0, c.result.clone())).collect();
        results.sort_by_key(|(t, _)| *t);
        let mut read_pages = Vec::with_capacity(self.boards.len());
        let mut faa_cell = None;
        self.judged_memory(|_, va, bytes| match va {
            VA_FAA => faa_cell = Some(u64::from_le_bytes(bytes.try_into().expect("8-byte cell"))),
            _ => read_pages.push(Bytes::copy_from_slice(bytes)),
        });
        Outcome { results, read_pages, faa_cell }
    }

    /// Calls `f(board, va, bytes)` with each memory range the final checks
    /// judge, in a fixed order: every board's read-page slice, in board order,
    /// then — single-board scenario only — the fetch-and-add cell. The
    /// bytes come straight from each board's page table and DRAM: no
    /// translation, TLB, timing or counter state is touched, and nothing is
    /// allocated. Each board's cached fingerprint folds the same ranges, so
    /// the explorer's state hash covers them.
    ///
    /// # Panics
    ///
    /// Panics if a judged page is unmapped or was never faulted in (the
    /// scenario seeds every one of them before the run).
    pub fn judged_memory(&self, mut f: impl FnMut(usize, u64, &[u8])) {
        let mns = self.boards.len();
        for i in 0..mns {
            let board = self.cboard_at(i);
            judged_ranges(i, mns, |va, out| {
                read_seeded(board, va, out);
                f(i, va, out);
            });
        }
    }
}

/// Calls `f(va, buffer)` with each range of board `i` (of `mns`) the final
/// checks judge, in order, and a zeroed buffer of the range's length: the
/// board's read-page slice, then — single-board scenario only — the
/// fetch-and-add cell.
fn judged_ranges(i: usize, mns: usize, mut f: impl FnMut(u64, &mut [u8])) {
    f(va_read(i), &mut [0u8; READ_LEN as usize]);
    if mns == 1 {
        f(VA_FAA, &mut [0u8; 8]);
    }
}

/// Reads `out.len()` bytes at `va` of `board` through its page table.
fn read_seeded(board: &CBoard, va: u64, out: &mut [u8]) {
    let silicon = board.silicon();
    let pte = silicon.vm().page_table().lookup(PID, va / PAGE).expect("seeded page mapped");
    assert!(pte.valid, "seeded page {va:#x} has no physical page");
    silicon.mem().read_into(pte.ppn * PAGE + va % PAGE, out);
}

/// The observable outcome of a finished run: what the application saw plus
/// what the memory ended up holding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Per-op `(token, result)` in token (= submission) order.
    pub results: Vec<(u64, Result<CompletionValue, ClioError>)>,
    /// Final bytes of each board's read-target page slice, in board order.
    pub read_pages: Vec<Bytes>,
    /// Final value of the fetch-and-add cell (seed + delta if the add took
    /// effect exactly once). `None` in multi-MN scenarios, whose op mix is
    /// read-only.
    pub faa_cell: Option<u64>,
}

/// Installs page tables and seeds page contents for board `index`'s target
/// pages, so the explored wire traffic is exactly the ops under test. The
/// single-board scenario also hosts the fetch-and-add cell.
fn seed_board(board: &mut CBoard, index: usize, mns: usize) {
    // The board constructor pre-fills the async free-page buffer, so
    // first-touch faults during seeding are served without slow-path help.
    let silicon = board.silicon_mut();
    let mut pages: Vec<(u64, Vec<u8>)> =
        vec![(va_read(index), vec![read_seed(index); READ_LEN as usize])];
    if mns == 1 {
        pages.push((VA_FAA, FAA_SEED.to_le_bytes().to_vec()));
    }
    for (va, _) in &pages {
        silicon
            .vm_mut()
            .install_pte(Pte { pid: PID, vpn: va / PAGE, ppn: 0, perm: Perm::RW, valid: false })
            .expect("install pte");
    }
    for (va, data) in &pages {
        silicon.write(SimTime::ZERO, PID, *va, data).0.expect("seed page");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{McAction, McConfig, Run};

    /// Whether each of `fork`'s actors still shares its state with
    /// `parent`'s: the wire, every board in board order, the CN.
    fn shared_with(parent: &Scenario, fork: &Scenario) -> (bool, Vec<bool>, bool) {
        fn same<A: Actor + Clone>(a: &Scenario, b: &Scenario, id: ActorId) -> bool {
            Rc::ptr_eq(&a.shared::<A>(id).actor, &b.shared::<A>(id).actor)
        }
        (
            same::<VirtualWire>(parent, fork, parent.wire),
            parent.boards.iter().map(|&board| same::<CBoard>(parent, fork, board)).collect(),
            same::<McCnHost>(parent, fork, parent.cn),
        )
    }

    #[test]
    fn a_fork_copies_only_the_actors_its_action_reaches() {
        let parent = Run::start(&McConfig::default()).expect("clean start");
        let fork = parent.fork();
        assert_eq!(shared_with(parent.scenario(), fork.scenario()), (true, vec![true], true));

        // A drop changes the wire and nothing else.
        let mut dropped = parent.fork();
        dropped.apply(McAction::Drop(0)).expect("clean drop");
        assert_eq!(shared_with(parent.scenario(), dropped.scenario()), (false, vec![true], true));

        // Delivering the batch runs the board, whose response lands on the
        // wire; the CN's retransmit timers lie beyond the settle horizon.
        let mut delivered = parent.fork();
        delivered.apply(McAction::Deliver(0)).expect("clean delivery");
        assert_eq!(
            shared_with(parent.scenario(), delivered.scenario()),
            (false, vec![false], true)
        );
    }
}
