//! Clio-DF (paper §6): a select → aggregate → histogram pipeline split
//! between the CN and the memory node. `select` and `avg` run as offloads in
//! the *caller's* address space; only matching rows cross the network for
//! the CN-side histogram.
//!
//! Run with: `cargo run --release --example analytics`

use bytes::Bytes;
use clio_apps::dataframe::{
    avg_local, encode_avg, encode_select, histogram, select_local, synth_table, ClioDf, DfOpcode,
    ROW_BYTES,
};
use clio_core::{Cluster, ClusterConfig};
use clio_proto::{Perm, Pid};

const ROWS: u64 = 50_000;
const OFFLOAD_ID: u16 = 4;

fn main() {
    let mut cfg = ClusterConfig::test_small();
    cfg.board.hw.phys_mem_bytes = 64 << 20;
    let mut cluster = Cluster::build(&cfg);
    cluster.install_offload_shared(0, OFFLOAD_ID, Box::new(ClioDf::new()));
    let mn = cluster.mn_macs()[0];

    cluster.block_on(0, Pid(11), |h| async move {
        let table = synth_table(ROWS, 7);
        let in_va = h.ralloc(ROWS * ROW_BYTES, Perm::RW).await.va();
        let out_va = h.ralloc(ROWS * ROW_BYTES, Perm::RW).await.va();
        h.rwrite(in_va, Bytes::from(table.clone())).await.result.expect("upload table");
        println!("uploaded {ROWS} rows ({} KB)", table.len() / 1024);

        // An offload call returning one little-endian u64.
        let call = |opcode: DfOpcode, arg: Bytes| {
            let h = h.clone();
            async move {
                let reply = h.roffload(mn, OFFLOAD_ID, opcode as u16, arg).await;
                u64::from_le_bytes(reply.data()[..8].try_into().expect("8 B"))
            }
        };

        for threshold in [60u32, 10] {
            // select at the MN: only matching rows are materialized.
            let select = encode_select(in_va, ROWS, threshold, out_va);
            let matched = call(DfOpcode::Select, select).await;

            // avg at the MN.
            let mean_x1000 = call(DfOpcode::Avg, encode_avg(out_va, matched)).await;

            // histogram at the CN over just the selected rows.
            let rows = h.rread(out_va, (matched * ROW_BYTES) as u32).await;
            let hist = histogram(rows.data());

            // Verify against a local reference computation.
            let expect = select_local(&table, threshold);
            assert_eq!(matched, (expect.len() as u64) / ROW_BYTES);
            assert_eq!(mean_x1000, avg_local(&expect));
            assert_eq!(hist, histogram(&expect));

            println!(
                "select(a < {threshold}): {matched} rows ({:.0}%), avg(b) = {:.3}, histogram {:?}",
                100.0 * matched as f64 / ROWS as f64,
                mean_x1000 as f64 / 1000.0,
                hist
            );
        }
    });

    println!("done at {}", cluster.now());
}
