//! Schedule pin: a fixed synchronous program — 32 writes, 32 reads, a
//! fence, an FAA and two CASes, each awaited before the next is issued —
//! must (a) land on the exact virtual completion time first recorded on the
//! original OS-thread rendezvous runtime and held through every client
//! runtime since (op-level schedule parity; it moved from 217,998 to
//! 217,369 ns when a request header stopped encoding its absent options
//! and a first attempt's header got 9 to 13 bytes shorter, then to 217,078
//! ns when the header lost its 4-byte srtt echo, then to 216,293 ns when
//! single-packet headers stopped carrying their packet index, count and
//! offset), and (b) be digest-identical across repeated runs.

use bytes::Bytes;
use clio_core::{Cluster, ClusterConfig};
use clio_proto::{Perm, Pid};
use clio_sim::SimDuration;

/// Final virtual time of the probe program. Back-to-back awaited ops take
/// no virtual time between a completion and the next issue, so the whole
/// schedule is the sum of the ops' latencies (plus the one modeled pause
/// below): it moves only if an op's modeled latency does.
const FINAL_NANOS: u64 = 216_293;

/// The probe's `Simulation::digest` and `events_dispatched`. The count moves
/// only with the modeled schedule; the digest also with its definition.
const DIGEST_AND_EVENTS: (u64, u64) = (13_181_800_658_159_724_862, 421);

/// The rendezvous runtime the constant was recorded on stepped the
/// simulation between a thread's calls, so the controller's 1 µs
/// `AllocNotify` hop elapsed before the first write was issued. A task
/// resumes in the completion's own event; the pause is stated instead.
const AFTER_ALLOC: SimDuration = SimDuration::from_micros(1);

fn probe_run() -> (u64, u64, u64) {
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    cluster.block_on(0, Pid(7), |h| async move {
        let va = h.ralloc(1 << 16, Perm::RW).await.va();
        h.sleep(AFTER_ALLOC).await;
        for i in 0..32u64 {
            let c = h.rwrite(va + i * 256, Bytes::from(format!("blob-{i}"))).await;
            c.result.unwrap();
        }
        for i in 0..32u64 {
            let c = h.rread(va + i * 256, 6).await;
            assert_eq!(&c.data()[..5], b"blob-");
        }
        h.rfence().await.result.unwrap();
        h.rfaa(va, 3).await.result.unwrap();
        // The FAA changed the word, so both CASes fail and report it.
        let a = h.rcas(va, u64::from_le_bytes(*b"blob-0\x003"), 9).await;
        assert_eq!(a.result, h.rcas(va, 0, 0).await.result);
    });
    (cluster.sim.digest(), cluster.sim.events_dispatched(), cluster.now().as_nanos())
}

#[test]
fn sync_program_keeps_its_schedule_and_is_deterministic() {
    let a = probe_run();
    let b = probe_run();
    assert_eq!(a, b, "a sync program must be digest-deterministic");
    assert_eq!(a.2, FINAL_NANOS, "op-level schedule moved");
    assert_eq!((a.0, a.1), DIGEST_AND_EVENTS, "event stream moved");
}
