//! MN→MN region migration (paper §4.7).
//!
//! Clio over-commits each MN; when a node runs low on physical memory it
//! proactively migrates a rarely-accessed region to a less-pressured node
//! (instead of swapping, which would disturb the data path). During
//! migration, client requests to the region are refused with
//! [`Status::Conflict`] (CLib retries); once the region has landed, the old
//! owner answers [`Status::Moved`] so CLib refreshes its routing via the
//! global controller.
//!
//! [`Migrations`] is the whole protocol on one board: one record per range
//! the board is sending, has sent, or is receiving, in a [`RangeMap`] keyed
//! by `(pid, start)`, so admission asks one lookup however long the history.
//! It works on the board's [`Silicon`] and [`SlowPath`] directly: PTEs are
//! installed in, and unmapped from, the board's one page table. It returns
//! everything else it needs done — sends and controller notices — as
//! [`Effect`]s, which the board executes in order. The exchange:
//!
//! ```text
//! source                                   destination
//! MigrateCommand: record Out ── Offer ──────→ VA range adopted: record In
//!                            ←─ OfferReply ── (or refused: no record)
//! refused: record dropped, Abort notice
//! accepted: each valid page  ── PageData ───→ installed with its bytes
//!                            ── Commit ─────→ holes installed, record dropped
//! record Moved, pages        ←─ Done ────────
//!   unmapped, Complete
//!   notice
//! ```
//!
//! # Invariants
//!
//! Each is enforced by the test it names (`tests::` is this module's).
//!
//! 1. **One record per range.** A range has one record on a board: `Out`
//!    from its command until `Done`, then `Moved`; `In` from an accepted
//!    `Offer` until its `Commit`. Concurrent ranges, one process's too, are
//!    told apart by `(pid, start)` and commit only their own pages
//!    (`tests::concurrent_ranges_of_one_pid_commit_their_own_pages`).
//! 2. **Every path's answer follows the phase.** `Conflict` on every
//!    byte of an `Out` range, `Moved` once it has landed; a range being
//!    received, an aborted one, bytes outside a range and other processes
//!    are served (`tests::refusal_follows_the_phase`,
//!    `tests::a_refused_offer_is_dropped_and_reported`). The board admits
//!    fast-path and slow-path requests by this answer before dispatch, and
//!    the extend path admits each offload access by it
//!    (`board_over_network.rs`'s
//!    `a_free_during_migration_is_refused_and_the_range_lands_whole`,
//!    `a_free_after_migration_answers_moved`,
//!    `an_offload_write_into_a_migrating_range_is_refused`).
//! 3. **Bytes, holes and permission arrive intact.** Every page valid at
//!    the source arrives with its bytes; every other page of the range
//!    arrives as a hole; both keep the range's permission
//!    (`tests::offer_to_done_moves_the_written_bytes_and_keeps_the_holes`,
//!    `board_over_network.rs`'s `a_migrated_read_only_range_stays_read_only`).
//! 4. **Every answered offer reaches the controller.** A `Done` yields a
//!    `Complete` notice, a refusal an `Abort` notice (the same two tests as
//!    3 and 2). A lost message still strands its range: the protocol has
//!    no retransmit or timeout yet.
//! 5. **A message for a range without a record changes nothing**
//!    (`tests::messages_for_unknown_ranges_are_ignored`).
//! 6. **The board adds no order of its own.** It runs the effects in the
//!    order they come, so the two-MN shape of `digest_pins.rs` and
//!    `tests/multi_mn.rs` pin every send's time and order.
//! 7. **The VA reservation outlives `Moved`.** At `Done` the source drops
//!    the range's PTEs and pages but keeps its VA reserved: the
//!    range lies in the source's allocation window, so releasing it would
//!    let the source hand out an address the destination holds, one VA
//!    with two owners
//!    (`tests::offer_to_done_moves_the_written_bytes_and_keeps_the_holes`).

use bytes::Bytes;
use clio_hw::pagetable::Pte;
use clio_hw::silicon::Silicon;
use clio_net::Mac;
use clio_proto::{Perm, Pid, RangeMap, Status};
use clio_sim::{SimDuration, SimTime};

use crate::slowpath::SlowPath;
use crate::valloc::VaRange;

/// How long a board takes to answer a control message of the protocol.
const TURNAROUND: SimDuration = SimDuration::from_micros(1);

/// Where one range stands on this board.
#[derive(Debug, Clone)]
enum Phase {
    /// Streaming to `dst`; requests are paused (retried by CLib). `vpns`
    /// are the range's mapped pages when the command came.
    Out { dst: Mac, vpns: Vec<u64> },
    /// The range now lives on another node.
    Moved,
    /// Being received: the VA range is reserved and pages install as they
    /// arrive.
    In,
}

/// One range this board is sending, has sent, or is receiving.
#[derive(Debug, Clone)]
struct Record {
    perm: Perm,
    phase: Phase,
}

/// What the machine needs the board to do for it, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Send `msg` to the board at `dst`, leaving the NIC no earlier than `at`.
    Send {
        /// When the message is ready.
        at: SimTime,
        /// The peer board.
        dst: Mac,
        /// The message.
        msg: MigrationMsg,
    },
    /// Tell the controller the range landed.
    Complete(MigrationComplete),
    /// Tell the controller the range stays where it is.
    Abort(MigrationAborted),
}

/// The migration protocol on one board (sans I/O): one record per range.
///
/// The board's admission step and the offload environment ask only
/// [`Migrations::refusal`], one lookup; the table is sized by migrations,
/// not by clients.
#[derive(Debug, Clone, Default)]
pub struct Migrations {
    ranges: RangeMap<Record>,
}

impl Migrations {
    /// How the board must answer an access to `(pid, va)`, on any path:
    /// `Conflict` while its range streams out, `Moved` once it has left,
    /// `None` to serve it.
    pub fn refusal(&self, pid: Pid, va: u64) -> Option<Status> {
        match self.ranges.get(pid, va)?.2.phase {
            Phase::Out { .. } => Some(Status::Conflict),
            Phase::Moved => Some(Status::Moved),
            Phase::In => None,
        }
    }

    /// `(outgoing, incoming)` migrations in progress.
    pub fn in_progress(&self) -> (u64, u64) {
        let (mut outgoing, mut incoming) = (0, 0);
        for (.., r) in self.ranges.iter() {
            match r.phase {
                Phase::Out { .. } => outgoing += 1,
                Phase::In => incoming += 1,
                Phase::Moved => {}
            }
        }
        (outgoing, incoming)
    }

    /// Starts moving the range `cmd` names: it is refused from now on, and
    /// the destination is offered it.
    pub fn start(
        &mut self,
        silicon: &Silicon,
        now: SimTime,
        cmd: MigrateCommand,
        out: &mut Vec<Effect>,
    ) {
        let MigrateCommand { pid, start, len, dst } = cmd;
        let page = silicon.config().page_size;
        let table = silicon.vm().page_table();
        let vpns: Vec<u64> = table
            .iter_pid(pid)
            .filter(|p| (start..start + len).contains(&(p.vpn * page)))
            .map(|p| p.vpn)
            .collect();
        // One allocation, one permission: the range's first page has it.
        let perm = table.lookup(pid, start / page).map_or(Perm::RW, |p| p.perm);
        self.ranges.insert(pid, start, len, Record { perm, phase: Phase::Out { dst, vpns } });
        let msg = MigrationMsg::Offer { pid, start, len, perm };
        out.push(Effect::Send { at: now + TURNAROUND, dst, msg });
    }

    /// Handles one message from the peer board at `src`, arriving `now`.
    pub fn receive(
        &mut self,
        silicon: &mut Silicon,
        slow: &mut SlowPath,
        now: SimTime,
        src: Mac,
        msg: MigrationMsg,
        out: &mut Vec<Effect>,
    ) {
        let page = silicon.config().page_size;
        let send = |at, dst, msg| Effect::Send { at, dst, msg };
        match msg {
            MigrationMsg::Offer { pid, start, len, perm } => {
                let range = VaRange { start, len, perm };
                let accepted = slow.adopt_range(silicon.vm(), pid, range).is_ok();
                if accepted {
                    self.ranges.insert(pid, start, len, Record { perm, phase: Phase::In });
                }
                let reply = MigrationMsg::OfferReply { pid, start, accepted };
                out.push(send(now + TURNAROUND, src, reply));
            }
            MigrationMsg::OfferReply { pid, start, accepted } => {
                let Some((len, &mut Record { phase: Phase::Out { dst, ref vpns }, .. })) =
                    self.ranges.at_mut(pid, start)
                else {
                    return;
                };
                if !accepted {
                    self.ranges.remove(pid, start);
                    return out.push(Effect::Abort(MigrationAborted { pid, start }));
                }
                let mut t = now;
                for &vpn in vpns {
                    // Never-touched pages carry no data.
                    let Some(&pte) = silicon.vm().page_table().lookup(pid, vpn) else { continue };
                    if !pte.valid {
                        continue;
                    }
                    let (data, read_done) = silicon.read_phys(t, pte.ppn * page, page as usize);
                    t = read_done;
                    let msg = MigrationMsg::PageData { pid, vpn, perm: pte.perm, data };
                    out.push(send(t, dst, msg));
                }
                out.push(send(t, dst, MigrationMsg::Commit { pid, start, len }));
            }
            MigrationMsg::PageData { pid, vpn, perm, data } => {
                // An overloaded destination drops the page, and the commit
                // exposes the gap.
                let Some(ppn) = slow.palloc_mut().alloc() else { return };
                let pte = Pte { pid, vpn, ppn, perm, valid: true };
                if silicon.vm_mut().install_pte(pte).is_err() {
                    slow.palloc_mut().free(ppn);
                    return;
                }
                silicon.write_phys(now, ppn * page, &data);
            }
            MigrationMsg::Commit { pid, start, len } => {
                let Some((_, &mut Record { perm, phase: Phase::In })) =
                    self.ranges.at_mut(pid, start)
                else {
                    return;
                };
                self.ranges.remove(pid, start);
                // Pages that never held data arrive as holes of the range's
                // permission.
                for vpn in start / page..(start + len) / page {
                    if silicon.vm().page_table().lookup(pid, vpn).is_none() {
                        let pte = Pte { pid, vpn, ppn: 0, perm, valid: false };
                        let _ = silicon.vm_mut().install_pte(pte);
                    }
                }
                out.push(send(now + TURNAROUND, src, MigrationMsg::Done { pid, start }));
            }
            MigrationMsg::Done { pid, start } => {
                let Some((len, Record { phase: phase @ Phase::Out { .. }, .. })) =
                    self.ranges.at_mut(pid, start)
                else {
                    return;
                };
                let Phase::Out { dst, vpns } = std::mem::replace(phase, Phase::Moved) else {
                    unreachable!("matched Out")
                };
                // The pages are the new owner's; the VA stays reserved here
                // (invariant 7).
                slow.unmap(silicon.vm_mut(), pid, vpns);
                out.push(Effect::Complete(MigrationComplete { pid, start, len, dst }));
            }
        }
    }
}

/// Control message instructing a board to migrate a region (sent by the
/// global controller as a management-plane actor message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrateCommand {
    /// Owning process.
    pub pid: Pid,
    /// Region start (page aligned).
    pub start: u64,
    /// Region length.
    pub len: u64,
    /// Destination memory node.
    pub dst: Mac,
}

/// Data-plane messages exchanged between the source and destination boards
/// over the regular network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationMsg {
    /// Announces an incoming region so the destination reserves the VA
    /// range before data arrives.
    Offer {
        /// Owning process.
        pid: Pid,
        /// Region start.
        start: u64,
        /// Region length.
        len: u64,
        /// Permissions of the range.
        perm: Perm,
    },
    /// The destination accepted (or refused) the offer.
    OfferReply {
        /// Owning process.
        pid: Pid,
        /// Region start.
        start: u64,
        /// Whether the range was reserved.
        accepted: bool,
    },
    /// One page of region data.
    PageData {
        /// Owning process.
        pid: Pid,
        /// Virtual page number.
        vpn: u64,
        /// Permissions of the page.
        perm: Perm,
        /// Page contents.
        data: Bytes,
    },
    /// All pages sent; the destination should activate the region.
    Commit {
        /// Owning process.
        pid: Pid,
        /// Region start.
        start: u64,
        /// Region length.
        len: u64,
    },
    /// The destination activated the region; the source may free it.
    Done {
        /// Owning process.
        pid: Pid,
        /// Region start.
        start: u64,
    },
}

/// Report sent to the global controller when a board's physical memory
/// pressure crosses its threshold (management plane).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureReport {
    /// The reporting board.
    pub mac: Mac,
    /// Its current physical-memory utilization in `[0, 1]`.
    pub utilization: f64,
}

/// Notification to the controller that a migration was called off because
/// the destination refused the range: the source still owns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationAborted {
    /// Owning process.
    pub pid: Pid,
    /// Region start.
    pub start: u64,
}

/// Notification to the controller that a migration finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationComplete {
    /// Owning process.
    pub pid: Pid,
    /// Region start.
    pub start: u64,
    /// Region length.
    pub len: u64,
    /// New owner.
    pub dst: Mac,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CBoardConfig;

    const PAGE: u64 = 4 << 10;
    const PID: Pid = Pid(7);

    /// One board's migration machine with the silicon and slow path it
    /// works on.
    struct Board {
        mac: Mac,
        m: Migrations,
        silicon: Silicon,
        slow: SlowPath,
    }

    impl Board {
        fn new(mac: u32) -> Self {
            Board::with_memory(mac, CBoardConfig::test_small().hw.phys_mem_bytes)
        }

        /// A board with `phys_mem_bytes` of DRAM, its page table sized to
        /// match.
        fn with_memory(mac: u32, phys_mem_bytes: u64) -> Self {
            let mut cfg = CBoardConfig::test_small();
            cfg.hw.phys_mem_bytes = phys_mem_bytes;
            assert_eq!(cfg.hw.page_size, PAGE);
            let (silicon, slow) = (Silicon::new(cfg.hw.clone()), SlowPath::new(&cfg));
            Board { mac: Mac(mac), m: Migrations::default(), silicon, slow }
        }

        /// Allocates `pages` pages of `perm` for [`PID`], as the board's
        /// `Alloc` does.
        fn alloc(&mut self, pages: u64, perm: Perm) -> u64 {
            self.alloc_as(PID, pages, perm)
        }

        fn alloc_as(&mut self, pid: Pid, pages: u64, perm: Perm) -> u64 {
            self.slow.create_as(pid);
            let vm = self.silicon.vm_mut();
            self.slow.alloc(vm, pid, pages * PAGE, perm, None).expect("alloc").range.start
        }

        /// Writes through the fast path, faulting pages in.
        fn write(&mut self, va: u64, data: &[u8]) {
            self.slow.refill_async_buffer(&mut self.silicon);
            self.silicon.write(SimTime::ZERO, PID, va, data).0.expect("write");
        }

        fn pte(&self, va: u64) -> Option<Pte> {
            self.silicon.vm().page_table().lookup(PID, va / PAGE).copied()
        }

        fn command(&mut self, start: u64, pages: u64, dst: Mac) -> Vec<Effect> {
            let mut out = Vec::new();
            let cmd = MigrateCommand { pid: PID, start, len: pages * PAGE, dst };
            self.m.start(&self.silicon, SimTime::ZERO, cmd, &mut out);
            out
        }

        fn receive(&mut self, now: SimTime, src: Mac, msg: MigrationMsg) -> Vec<Effect> {
            let mut out = Vec::new();
            self.m.receive(&mut self.silicon, &mut self.slow, now, src, msg, &mut out);
            out
        }
    }

    /// Runs the protocol between `boards` to quiescence: delivers the
    /// earliest pending `Send` to the other board until none is left, and
    /// returns every other effect with the index of the board that asked
    /// for it.
    fn shuttle(boards: &mut [Board; 2], from: usize, effects: Vec<Effect>) -> Vec<(usize, Effect)> {
        let mut pending: Vec<(usize, Effect)> = effects.into_iter().map(|e| (from, e)).collect();
        let mut rest = Vec::new();
        while !pending.is_empty() {
            let at = |e: &Effect| match e {
                Effect::Send { at, .. } => *at,
                _ => SimTime::ZERO,
            };
            let next = (0..pending.len()).min_by_key(|&i| at(&pending[i].1)).expect("non-empty");
            match pending.remove(next) {
                (from, Effect::Send { at, dst, msg }) => {
                    let to = 1 - from;
                    assert_eq!(dst, boards[to].mac, "sent to a board that is not the peer");
                    let src = boards[from].mac;
                    pending.extend(boards[to].receive(at, src, msg).into_iter().map(|e| (to, e)));
                }
                other => rest.push(other),
            }
        }
        rest
    }

    fn pair() -> [Board; 2] {
        [Board::new(1), Board::new(2)]
    }

    /// A whole `Offer…Done`: the written pages arrive with their bytes, the
    /// untouched ones as holes, and the source reports it landed. The
    /// source drops the range's PTEs and pages and keeps its VA reserved.
    #[test]
    fn offer_to_done_moves_the_written_bytes_and_keeps_the_holes() {
        let mut boards = pair();
        let va = boards[0].alloc(4, Perm::RW);
        boards[0].write(va, b"page zero");
        boards[0].write(va + 2 * PAGE + 100, b"page two");
        let free_before = boards[0].slow.palloc().free_pages();
        let dst = boards[1].mac;
        let start = boards[0].command(va, 4, dst);
        let rest = shuttle(&mut boards, 0, start);

        let [src, dst_board] = &mut boards;
        let read = |b: &mut Board, va, len| b.silicon.read(SimTime::ZERO, PID, va, len).0;
        assert_eq!(read(dst_board, va, 9).as_deref(), Ok(&b"page zero"[..]));
        assert_eq!(read(dst_board, va + 2 * PAGE + 100, 8).as_deref(), Ok(&b"page two"[..]));
        for hole in [va + PAGE, va + 3 * PAGE] {
            let pte = dst_board.pte(hole).expect("a hole is mapped");
            assert!(!pte.valid, "an untouched page arrived with a frame");
        }
        let table = dst_board.silicon.vm().page_table();
        assert_eq!(table.len(), 4, "the board's table maps every page");

        let len = 4 * PAGE;
        let complete = Effect::Complete(MigrationComplete { pid: PID, start: va, len, dst });
        assert_eq!(rest, [(0, complete)]);
        assert_eq!((src.m.in_progress(), dst_board.m.in_progress()), ((0, 0), (0, 0)));

        // The source keeps the range's VA reserved, and nothing else of it:
        // no PTE, and the two written pages are free again.
        let mapped = (va..va + len).step_by(PAGE as usize).filter(|&v| src.pte(v).is_some());
        assert_eq!(mapped.count(), 0, "the source still maps moved pages");
        assert_eq!(src.slow.palloc().free_pages(), free_before + 2, "the frames leaked");
        let vm = src.silicon.vm_mut();
        let again = src.slow.alloc(vm, PID, len, Perm::RW, Some(va)).expect("alloc").range;
        let overlaps = again.start < va + len && va < again.start + again.len;
        assert!(!overlaps, "the source handed out the moved range's VA again: {again:?}");
    }

    /// The fast path's answer in each phase: `Conflict` on every byte of a
    /// range while it streams out, `Moved` once it has landed, nothing for
    /// the range being received, bytes outside it or another process.
    #[test]
    fn refusal_follows_the_phase() {
        let mut boards = pair();
        let va = boards[0].alloc(2, Perm::RW);
        let len = 2 * PAGE;
        let dst = boards[1].mac;
        let offer = boards[0].command(va, 2, dst);
        let refusals = |m: &Migrations| {
            [va, va + len - 1, va + len, va - 1].map(|a| m.refusal(PID, a)).to_vec()
        };
        let out = Some(Status::Conflict);
        assert_eq!(refusals(&boards[0].m), [out, out, None, None]);
        assert_eq!(boards[0].m.refusal(Pid(8), va), None, "another process's range");
        assert_eq!(boards[0].m.in_progress(), (1, 0));

        let [Effect::Send { at, msg, .. }] = &offer[..] else { panic!("one offer: {offer:?}") };
        let reply = boards[1].receive(*at, boards[0].mac, msg.clone());
        assert_eq!(refusals(&boards[1].m), [None; 4], "the destination serves what it receives");
        assert_eq!(boards[1].m.in_progress(), (0, 1));

        shuttle(&mut boards, 1, reply);
        let moved = Some(Status::Moved);
        assert_eq!(refusals(&boards[0].m), [moved, moved, None, None]);
        assert_eq!(refusals(&boards[1].m), [None; 4]);
        assert_eq!((boards[0].m.in_progress(), boards[1].m.in_progress()), ((0, 0), (0, 0)));
    }

    /// A destination that already holds part of the range refuses the
    /// offer: the source drops its record, so the range is served again,
    /// and tells the controller.
    #[test]
    fn a_refused_offer_is_dropped_and_reported() {
        let mut boards = pair();
        let va = boards[0].alloc(2, Perm::RW);
        assert_eq!(boards[1].alloc(1, Perm::RW), va, "the destination holds the first page");
        let dst = boards[1].mac;
        let offer = boards[0].command(va, 2, dst);
        let rest = shuttle(&mut boards, 0, offer);

        assert_eq!(rest, [(0, Effect::Abort(MigrationAborted { pid: PID, start: va }))]);
        assert_eq!(boards[0].m.refusal(PID, va), None, "an aborted range is served again");
        assert_eq!((boards[0].m.in_progress(), boards[1].m.in_progress()), ((0, 0), (0, 0)));
        assert!(boards[0].pte(va).is_some(), "an aborted range keeps its pages");
    }

    /// A message for a range the board holds no record of changes nothing.
    #[test]
    fn messages_for_unknown_ranges_are_ignored() {
        let mut b = Board::new(1);
        let va = b.alloc(1, Perm::RW);
        let src = Mac(2);
        let now = SimTime::ZERO;
        let reply = MigrationMsg::OfferReply { pid: PID, start: va, accepted: true };
        assert_eq!(b.receive(now, src, reply), []);
        let commit = MigrationMsg::Commit { pid: PID, start: va + PAGE, len: PAGE };
        assert_eq!(b.receive(now, src, commit), []);
        assert_eq!(b.pte(va + PAGE), None, "a commit without an offer installed a hole");
        assert_eq!(b.receive(now, src, MigrationMsg::Done { pid: PID, start: va }), []);
        assert_eq!(b.m.refusal(PID, va), None);
        assert_eq!(b.m.in_progress(), (0, 0));
    }

    /// Two ranges of one process move at once: both are being received
    /// when the first commits, and each commit installs its own range's
    /// holes and ends only its own record.
    #[test]
    fn concurrent_ranges_of_one_pid_commit_their_own_pages() {
        let mut boards = pair();
        let a = boards[0].alloc(3, Perm::RW);
        let b = boards[0].alloc(3, Perm::RW);
        for (i, va) in [(1u8, a), (2, b)] {
            boards[0].write(va, &[i; 64]);
            boards[0].write(va + 2 * PAGE, &[i + 10; 64]);
        }
        let dst = boards[1].mac;
        let mut offers = boards[0].command(a, 3, dst);
        offers.extend(boards[0].command(b, 3, dst));
        assert_eq!(boards[0].m.in_progress(), (2, 0));
        let src = boards[0].mac;
        let mut replies = Vec::new();
        for offer in offers {
            let Effect::Send { at, msg, .. } = offer else { panic!("not a send: {offer:?}") };
            replies.extend(boards[1].receive(at, src, msg));
        }
        assert_eq!(boards[1].m.in_progress(), (0, 2));
        let rest = shuttle(&mut boards, 1, replies);

        let done: Vec<u64> = rest
            .iter()
            .filter_map(|(_, e)| match e {
                Effect::Complete(c) => Some(c.start),
                _ => None,
            })
            .collect();
        assert_eq!(done, [a, b], "each range reports its own landing");
        let dst_board = &mut boards[1];
        for (i, va) in [(1u8, a), (2, b)] {
            let read = |b: &mut Board, va| b.silicon.read(SimTime::ZERO, PID, va, 64).0;
            assert_eq!(read(dst_board, va).as_deref(), Ok(&[i; 64][..]));
            assert_eq!(read(dst_board, va + 2 * PAGE).as_deref(), Ok(&[i + 10; 64][..]));
            assert!(!dst_board.pte(va + PAGE).expect("hole").valid);
        }
        assert_eq!((boards[0].m.in_progress(), boards[1].m.in_progress()), ((0, 0), (0, 0)));
        assert_eq!(boards[0].m.refusal(PID, a), Some(Status::Moved));
        assert_eq!(boards[0].m.refusal(PID, b + 3 * PAGE - 1), Some(Status::Moved));
    }

    /// A board after a long history: 1,000 ranges of two processes have
    /// landed elsewhere, one page each, with a served page after each.
    /// Every range still answers `Moved` at its first and last byte, the
    /// page after it and a process with no ranges are served, and nothing
    /// is in progress.
    #[test]
    fn a_thousand_landed_ranges_each_answer_moved() {
        let mut boards = [Board::with_memory(1, 64 << 20), Board::with_memory(2, 64 << 20)];
        let dst = boards[1].mac;
        let mut landed = Vec::new();
        for i in 0..1000 {
            let pid = [PID, Pid(8)][i % 2];
            let start = boards[0].alloc_as(pid, 2, Perm::RW);
            let mut out = Vec::new();
            let cmd = MigrateCommand { pid, start, len: PAGE, dst };
            boards[0].m.start(&boards[0].silicon, SimTime::ZERO, cmd, &mut out);
            let rest = shuttle(&mut boards, 0, out);
            assert!(matches!(rest.last(), Some((0, Effect::Complete(_)))), "{i}: {rest:?}");
            landed.push((pid, start));
        }
        let m = &boards[0].m;
        let moved = Some(Status::Moved);
        for (pid, start) in landed {
            let bytes =
                [(pid, start), (pid, start + PAGE - 1), (pid, start + PAGE), (Pid(9), start)];
            let answers = bytes.map(|(p, va)| m.refusal(p, va));
            assert_eq!(answers, [moved, moved, None, None], "{pid} at {start:#x}");
        }
        assert_eq!(m.in_progress(), (0, 0));
    }
}
