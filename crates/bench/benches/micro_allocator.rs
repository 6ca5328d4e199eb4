//! Microbenchmark of the overflow-avoiding VA allocator: host ns per
//! alloc + free, each sample on a freshly built allocator.

use std::hint::black_box;
use std::time::{Duration, Instant};

use clio_hw::pagetable::{HashPageTable, Pte};
use clio_mn::valloc::VaAllocator;
use clio_proto::{Perm, Pid};

const SAMPLES: u32 = 20;

/// Times `routine` once on each of `SAMPLES` inputs built by `setup`.
fn bench<I>(name: &str, mut setup: impl FnMut() -> I, mut routine: impl FnMut(&mut I)) {
    let mut total = Duration::ZERO;
    for _ in 0..SAMPLES {
        let mut input = setup();
        let t = Instant::now();
        routine(black_box(&mut input));
        total += t.elapsed();
    }
    println!(
        "valloc/{name}: {:.1} ns/iter ({SAMPLES} iters)",
        total.as_nanos() as f64 / SAMPLES as f64
    );
}

/// Eight processes with eight 8-page ranges each, installed in a small page table.
fn half_full() -> (VaAllocator, HashPageTable) {
    let mut va = VaAllocator::new(4096, 1024);
    let mut table = HashPageTable::new(256, 4);
    for pid in (0..8).map(Pid) {
        va.create_pid(pid);
        for _ in 0..8 {
            let Ok(a) = va.alloc(&table, pid, 8 * 4096, Perm::RW, None) else { continue };
            for vpn in a.range.start / 4096..(a.range.start + a.range.len) / 4096 {
                let _ = table.insert(Pte { pid, vpn, ppn: 0, perm: Perm::RW, valid: false });
            }
        }
    }
    (va, table)
}

fn main() {
    bench(
        "alloc_free_1_page_empty_table",
        || {
            let mut va = VaAllocator::new(4096, 64);
            va.create_pid(Pid(1));
            (va, HashPageTable::new(1024, 4))
        },
        |(va, table)| {
            let a = va.alloc(table, Pid(1), 4096, Perm::RW, None).expect("alloc");
            let _ = va.free(Pid(1), a.range.start);
        },
    );
    bench("alloc_100_pages_half_full_table", half_full, |(va, table)| {
        if let Ok(a) = va.alloc(table, Pid(1), 100 * 4096, Perm::RW, None) {
            let _ = va.free(Pid(1), a.range.start);
        }
    });
}
