//! Smoke test of the `clio` facade: every re-exported module resolves to
//! the right crate, and a trivial end-to-end op (alloc → write → read)
//! succeeds through `clio::system::Cluster`.

use clio::proto::{Perm, Pid};
use clio::system::{Cluster, ClusterConfig};

/// Each facade module path resolves and names the type the underlying crate
/// exports (a compile-time check; the `let` bindings keep it honest about
/// value-level paths too).
#[test]
fn facade_reexports_resolve() {
    let _rng: clio::sim::SimRng = clio::sim::SimRng::new(1);
    let _mac: clio::net::Mac = clio::net::Mac(7);
    let _pid: clio::proto::Pid = clio::proto::Pid(1);
    let _status: clio::proto::Status = clio::proto::Status::Ok;
    let _tlb = clio::hw::tlb::Tlb::new(16);
    let _board_cfg = clio::mn::CBoardConfig::default();
    let _cn_cfg = clio::cn::config::CLibConfig::default();
    let _cluster_cfg: clio::system::ClusterConfig = ClusterConfig::test_small();
    let _ycsb = clio::apps::ycsb::YcsbGenerator::paper(clio::apps::ycsb::YcsbMix::C, 1);
    let _rnic = clio::baselines::rdma::RnicParams::connectx5();
}

/// One process allocates remote memory, writes a pattern, reads it back,
/// and frees it — the smallest possible whole-stack round trip.
#[test]
fn alloc_write_read_roundtrip() {
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    cluster.block_on(0, Pid(1), |h| async move {
        let va = h.ralloc(4096, Perm::RW).await.va();
        h.rwrite(va, bytes::Bytes::from_static(&[0xAB; 64])).await.result.expect("rwrite");
        let back = h.rread(va, 64).await;
        assert_eq!(back.data().len(), 64);
        assert!(back.data().iter().all(|&b| b == 0xAB), "readback mismatch");
        h.rfree(va, 4096).await.result.expect("rfree");
    });
}
