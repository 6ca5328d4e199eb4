//! Property tests of the slow path: the VA allocator's ranges never
//! overlap and always fit the page table (the overflow-free invariant), and
//! a [`SlowPath`]'s reservations and its board's page table agree after
//! every step.

use clio_hw::pagetable::{HashPageTable, Pte};
use clio_hw::vm::VmUnit;
use clio_mn::slowpath::SlowPath;
use clio_mn::valloc::VaAllocator;
use clio_mn::CBoardConfig;
use clio_proto::{Perm, Pid};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc { pid: u8, pages: u8 },
    Free { pid: u8, which: prop::sample::Index },
}

fn arb_op() -> impl Strategy<Value = AllocOp> {
    prop_oneof![
        3 => (0u8..3, 1u8..6).prop_map(|(pid, pages)| AllocOp::Alloc { pid, pages }),
        1 => (0u8..3, any::<prop::sample::Index>())
            .prop_map(|(pid, which)| AllocOp::Free { pid, which }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Across arbitrary alloc/free interleavings:
    /// 1. live ranges of one process never overlap,
    /// 2. every approved allocation's pages insert into the page table
    ///    without overflow (the §4.2 invariant),
    /// 3. freeing removes exactly the allocation's pages.
    #[test]
    fn allocator_invariants(ops in proptest::collection::vec(arb_op(), 1..120)) {
        const PAGE: u64 = 4096;
        let mut table = HashPageTable::new(32, 4); // 128 slots
        let mut va = VaAllocator::new(PAGE, 512);
        for p in 0..3u64 {
            va.create_pid(Pid(p));
        }
        let mut live: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 3]; // (start, len)

        for op in ops {
            match op {
                AllocOp::Alloc { pid, pages } => {
                    let pidn = Pid(pid as u64);
                    match va.alloc(&table, pidn, pages as u64 * PAGE, Perm::RW, None) {
                        Ok(a) => {
                            // Overlap check.
                            for &(s, l) in &live[pid as usize] {
                                prop_assert!(
                                    a.range.start + a.range.len <= s || s + l <= a.range.start,
                                    "overlap: new [{:#x},{:#x}) vs live [{:#x},{:#x})",
                                    a.range.start,
                                    a.range.start + a.range.len,
                                    s,
                                    s + l
                                );
                            }
                            // Overflow-free: table inserts must all succeed.
                            for vpn in a.range.start / PAGE..(a.range.start + a.range.len) / PAGE {
                                let pte =
                                    Pte { pid: pidn, vpn, ppn: 0, perm: Perm::RW, valid: false };
                                let inserted = table.insert(pte).is_ok();
                                prop_assert!(inserted, "approved alloc overflowed a bucket");
                            }
                            live[pid as usize].push((a.range.start, a.range.len));
                        }
                        Err(_) => { /* table/VA pressure: acceptable */ }
                    }
                }
                AllocOp::Free { pid, which } => {
                    let ranges = &mut live[pid as usize];
                    if ranges.is_empty() {
                        continue;
                    }
                    let (start, len) = ranges.remove(which.index(ranges.len()));
                    let freed = va.free(Pid(pid as u64), start).expect("live range frees");
                    prop_assert_eq!(freed.start, start);
                    prop_assert_eq!(freed.len, len);
                    for vpn in start / PAGE..(start + len) / PAGE {
                        prop_assert!(table.remove(Pid(pid as u64), vpn).is_some());
                    }
                }
            }
            // Shadow table and live set agree in size.
            let live_pages: u64 =
                live.iter().flatten().map(|(_, l)| l / PAGE).sum();
            prop_assert_eq!(table.len() as u64, live_pages);
        }
    }

    /// Adopted (migrated-in) ranges obey the same overlap rules.
    #[test]
    fn adoption_respects_overlaps(
        starts in proptest::collection::vec(0u64..64, 1..20),
    ) {
        const PAGE: u64 = 4096;
        let mut va = VaAllocator::new(PAGE, 64);
        va.create_pid(Pid(1));
        let mut live: Vec<(u64, u64)> = Vec::new();
        for s in starts {
            let range = clio_mn::valloc::VaRange {
                start: (1 << 30) + s * PAGE,
                len: 2 * PAGE,
                perm: Perm::RW,
            };
            let overlaps = live
                .iter()
                .any(|&(ls, ll)| range.start < ls + ll && ls < range.start + range.len);
            match va.adopt(Pid(1), range) {
                Ok(()) => {
                    prop_assert!(!overlaps, "adopted an overlapping range");
                    live.push((range.start, range.len));
                }
                Err(_) => prop_assert!(overlaps, "refused a non-overlapping range"),
            }
        }
    }

    /// The slow path's reservations and the board's page table are one set
    /// of books: across arbitrary `alloc` (some at a fixed VA), `free` and
    /// `destroy_as` sequences on a small table, every page of every live
    /// range has exactly one PTE, with the range's permission, and no PTE
    /// lies outside a live range.
    #[test]
    fn reservations_and_ptes_agree(ops in proptest::collection::vec(arb_slow_op(), 1..80)) {
        const PAGE: u64 = 4096;
        let mut cfg = CBoardConfig::test_small();
        cfg.hw.phys_mem_bytes = 32 * PAGE; // 64 slots in 16 buckets
        let (mut slow, mut vm) = (SlowPath::new(&cfg), VmUnit::new(&cfg.hw));
        // (pid, start, len, perm) of every live range.
        let mut live: Vec<(Pid, u64, u64, Perm)> = Vec::new();
        for op in ops {
            match op {
                SlowOp::Alloc { pid, pages, read_only, fixed } => {
                    let (pid, perm) = (Pid(pid), if read_only { Perm::READ } else { Perm::RW });
                    slow.create_as(pid);
                    let fixed_va = fixed.map(|page| (1 << 20) + page * PAGE);
                    if let Ok(a) = slow.alloc(&mut vm, pid, pages * PAGE, perm, fixed_va) {
                        live.push((pid, a.range.start, a.range.len, perm));
                    }
                }
                SlowOp::Free { which } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (pid, start, len, _) = live.remove(which.index(live.len()));
                    let freed = slow.free(&mut vm, pid, start).expect("a live range frees");
                    prop_assert_eq!((freed.range.start, freed.range.len), (start, len));
                }
                SlowOp::DestroyAs { pid } => {
                    slow.destroy_as(&mut vm, Pid(pid));
                    live.retain(|r| r.0 != Pid(pid));
                }
            }
            let table = vm.page_table();
            for &(pid, start, len, perm) in &live {
                for vpn in start / PAGE..(start + len) / PAGE {
                    let ptes: Vec<&Pte> =
                        table.iter_pid(pid).filter(|pte| pte.vpn == vpn).collect();
                    prop_assert_eq!(ptes.len(), 1, "{} vpn {:#x}: {:?}", pid, vpn, ptes);
                    prop_assert_eq!(ptes[0].perm, perm);
                }
            }
            for pte in table.iter() {
                let inside = live.iter().any(|&(pid, start, len, _)| {
                    pid == pte.pid && (start / PAGE..(start + len) / PAGE).contains(&pte.vpn)
                });
                prop_assert!(inside, "a PTE outside every live range: {:?}", pte);
            }
        }
    }
}

#[derive(Debug, Clone)]
enum SlowOp {
    Alloc { pid: u64, pages: u64, read_only: bool, fixed: Option<u64> },
    Free { which: prop::sample::Index },
    DestroyAs { pid: u64 },
}

fn arb_slow_op() -> impl Strategy<Value = SlowOp> {
    let alloc = (0u64..3, 1u64..6, any::<bool>(), any::<bool>(), 0u64..48).prop_map(
        |(pid, pages, read_only, fixed, page)| SlowOp::Alloc {
            pid,
            pages,
            read_only,
            fixed: fixed.then_some(page),
        },
    );
    prop_oneof![
        6 => alloc,
        3 => any::<prop::sample::Index>().prop_map(|which| SlowOp::Free { which }),
        1 => (0u64..3).prop_map(|pid| SlowOp::DestroyAs { pid }),
    ]
}
