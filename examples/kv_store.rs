//! A key-value store served *by the memory nodes themselves*: Clio-KV runs
//! as an extend-path offload (paper §6), and a CN-side load balancer shards
//! keys across two CBoards.
//!
//! Run with: `cargo run --release --example kv_store`

use clio_apps::kv::{partition_of, ClioKv, KvRequest, KvResponse};
use clio_core::{Cluster, ClusterConfig};
use clio_mn::CBoardConfig;
use clio_proto::{Pid, Status};

const KEYS: u64 = 200;
const OFFLOAD_ID: u16 = 1;

fn key(i: u64) -> Vec<u8> {
    format!("user{i:06}").into_bytes()
}

fn value(i: u64) -> Vec<u8> {
    format!("value-for-{i}").into_bytes()
}

fn main() {
    let mut cfg = ClusterConfig::testbed();
    cfg.cns = 1;
    cfg.mns = 2;
    cfg.board = CBoardConfig::test_small();
    let mut cluster = Cluster::build(&cfg);
    for mn in 0..2 {
        cluster.install_offload(mn, OFFLOAD_ID, Pid(9000 + mn as u64), Box::new(ClioKv::new(1024)));
    }
    let macs = cluster.mn_macs().to_vec();

    // Loads KEYS records, reads them all back, deletes the odd ones.
    let (verified, deleted) = cluster.block_on(0, Pid(1), |h| async move {
        // The load balancer: a key's partition picks its memory node.
        let call = |req: KvRequest| {
            let (KvRequest::Put { key, .. } | KvRequest::Get { key } | KvRequest::Delete { key }) =
                &req;
            let mn = macs[partition_of(key, macs.len())];
            let reply = h.roffload(mn, OFFLOAD_ID, req.opcode(), req.encode());
            async move {
                match reply.await.result {
                    Ok(clio_cn::CompletionValue::Data(d)) => d,
                    Ok(_) => bytes::Bytes::new(),
                    Err(e) => panic!("kv op failed: {e}"),
                }
            }
        };
        for i in 0..KEYS {
            call(KvRequest::Put { key: key(i), value: value(i) }).await;
        }
        let mut verified = 0;
        for i in 0..KEYS {
            let data = call(KvRequest::Get { key: key(i) }).await;
            match KvResponse::decode(Status::Ok, data) {
                KvResponse::Value(v) => assert_eq!(&v[..], &value(i)[..]),
                other => panic!("expected value for key {i}: {other:?}"),
            }
            verified += 1;
        }
        let mut deleted = 0;
        for i in (1..KEYS).step_by(2) {
            call(KvRequest::Delete { key: key(i) }).await;
            deleted += 1;
        }
        (verified, deleted)
    });

    println!("loaded {KEYS} records across 2 memory nodes");
    println!("verified {verified} reads, deleted {deleted} records");
    for mn in 0..2 {
        let stats = cluster.mn(mn).stats();
        println!("mn{mn}: {} offload calls served", stats.offload_calls);
    }
    assert_eq!(verified, KEYS);
    println!("done at virtual time {}", cluster.now());
}
