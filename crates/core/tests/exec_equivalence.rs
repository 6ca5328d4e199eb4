//! Property test: the executor agrees with a host-side shadow memory.
//!
//! A random single-process op sequence with a random arrival schedule
//! (inter-op gaps) runs as an async task on the executor
//! (`h.rread(..).await`) and must produce, op for op, the completion value
//! a plain host-side model of remote memory predicts (pages of bytes;
//! read / write / fetch-and-add / compare-and-swap semantics). Separately,
//! the run is repeated and must be digest-identical: the cooperative
//! schedule is a pure function of (program, seed, arrival schedule), with
//! no wall-clock leakage.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use clio_cn::CompletionValue;
use clio_core::{Cluster, ClusterConfig};
use clio_proto::{Perm, Pid};
use clio_sim::SimDuration;
use proptest::prelude::*;

const PAGE: u64 = 4096;
const PAGES: u64 = 4;

#[derive(Debug, Clone, Copy)]
enum TestOp {
    Read { page: u64, len: u32 },
    Write { page: u64, val: u8 },
    Faa { page: u64, delta: u64 },
    Cas { page: u64, expected: u64, new: u64 },
}

fn arb_op() -> impl Strategy<Value = TestOp> {
    (0u8..4, 0u64..PAGES, any::<u8>()).prop_map(|(kind, page, val)| match kind {
        0 => TestOp::Read { page, len: 8 + (val as u32 % 56) },
        1 => TestOp::Write { page, val },
        2 => TestOp::Faa { page, delta: val as u64 },
        _ => TestOp::Cas { page, expected: val as u64 % 4, new: val as u64 },
    })
}

/// A completion value reduced to what the shadow memory predicts.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Norm {
    Data(Vec<u8>),
    Old(u64),
    Done,
}

fn norm(v: CompletionValue) -> Norm {
    match v {
        CompletionValue::Data(d) => Norm::Data(d.to_vec()),
        CompletionValue::Old(o) => Norm::Old(o),
        _ => Norm::Done,
    }
}

fn run_exec(seed: u64, ops: &[TestOp], gaps: &[u64]) -> (Vec<Norm>, u64) {
    let mut cfg = ClusterConfig::test_small();
    cfg.seed = seed;
    let mut cluster = Cluster::build(&cfg);
    let results: Rc<RefCell<Vec<Norm>>> = Rc::default();
    let out = results.clone();
    let (ops, gaps) = (ops.to_vec(), gaps.to_vec());
    cluster.spawn(0, Pid(7), move |h| async move {
        let va = match h.ralloc(PAGES * PAGE, Perm::RW).await.result.unwrap() {
            CompletionValue::Va(va) => va,
            other => panic!("alloc returned {other:?}"),
        };
        for (i, op) in ops.iter().enumerate() {
            h.sleep(SimDuration::from_nanos(gaps[i])).await;
            let v = match *op {
                TestOp::Read { page, len } => h.rread(va + page * PAGE, len).await,
                TestOp::Write { page, val } => {
                    h.rwrite(va + page * PAGE, Bytes::from(vec![val; 8])).await
                }
                TestOp::Faa { page, delta } => h.rfaa(va + page * PAGE, delta).await,
                TestOp::Cas { page, expected, new } => {
                    h.rcas(va + page * PAGE, expected, new).await
                }
            };
            out.borrow_mut().push(norm(v.result.unwrap()));
        }
    });
    cluster.start();
    cluster.run_until_idle();
    (Rc::try_unwrap(results).unwrap().into_inner(), cluster.sim.digest())
}

/// The oracle: what freshly allocated (zeroed) remote memory returns for
/// `ops`, modeled on the host. Every op addresses its page's first bytes.
fn shadow(ops: &[TestOp]) -> Vec<Norm> {
    let mut pages = vec![[0u8; 64]; PAGES as usize];
    let word = |p: &[u8; 64]| u64::from_le_bytes(p[..8].try_into().unwrap());
    let mut results = Vec::new();
    for op in ops {
        results.push(match *op {
            TestOp::Read { page, len } => Norm::Data(pages[page as usize][..len as usize].to_vec()),
            TestOp::Write { page, val } => {
                pages[page as usize][..8].fill(val);
                Norm::Done
            }
            TestOp::Faa { page, delta } => {
                let p = &mut pages[page as usize];
                let old = word(p);
                p[..8].copy_from_slice(&old.wrapping_add(delta).to_le_bytes());
                Norm::Old(old)
            }
            TestOp::Cas { page, expected, new } => {
                let p = &mut pages[page as usize];
                let old = word(p);
                if old == expected {
                    p[..8].copy_from_slice(&new.to_le_bytes());
                }
                Norm::Old(old)
            }
        });
    }
    results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same program, same seed, same arrival schedule: the executor
    /// returns what the shadow memory predicts op for op, and its schedule
    /// is digest-reproducible.
    #[test]
    fn exec_matches_shadow_memory_and_is_deterministic(
        seed in any::<u64>(),
        ops_gaps in proptest::collection::vec((arb_op(), 0u64..5_000), 1..16),
    ) {
        let (ops, gaps): (Vec<_>, Vec<_>) = ops_gaps.into_iter().unzip();

        let (exec_values, exec_digest) = run_exec(seed, &ops, &gaps);
        let (exec_values2, exec_digest2) = run_exec(seed, &ops, &gaps);
        prop_assert_eq!(&exec_values, &exec_values2, "executor values must be reproducible");
        prop_assert_eq!(exec_digest, exec_digest2, "executor schedule must be reproducible");

        prop_assert_eq!(exec_values, shadow(&ops), "executor must agree with the shadow memory");
    }
}
