//! Quickstart: the paper's Figure 1, almost verbatim.
//!
//! Two threads of one process share remote memory on a simulated Clio
//! cluster: thread 1 takes a remote lock and issues two asynchronous writes;
//! thread 2 reads the data back under the same lock. Each thread is an
//! async task; `.await` is where Figure 1's calls block.
//!
//! Run with: `cargo run --release --example quickstart`

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use clio_core::{Cluster, ClusterConfig};
use clio_proto::{Perm, Pid};
use clio_sim::SimDuration;

const PAGE_SIZE: u64 = 4 << 10; // the test cluster's page size

fn main() {
    // A cluster with one compute node and one CBoard memory node.
    let mut cluster = Cluster::build(&ClusterConfig::test_small());

    // Figure 1's shared globals: thread 1 publishes the addresses here.
    // Everything runs on the simulation's one host thread, in virtual time —
    // there is no OS scheduler to race with.
    let globals = Rc::new(Cell::new(None::<(u64, u64)>));

    // -- Figure 1, thread 1 ------------------------------------------------
    // (Two `spawn`s with one pid: two threads sharing the process's RAS.)
    let publish = globals.clone();
    cluster.spawn(0, Pid(42), |h| async move {
        // /* Alloc one remote page. Define a remote lock */
        let remote_addr = h.ralloc(PAGE_SIZE, Perm::RW).await.va();
        let lock = h.ralloc(8, Perm::RW).await.va();

        // /* Acquire lock to enter critical section.
        //    Do two ASYNC writes then poll completion. */
        // Enter the critical section BEFORE publishing the addresses:
        // thread 2 must not be able to win the lock race and read the page
        // before it is written.
        h.rlock(lock).await.result.expect("rlock");
        publish.set(Some((remote_addr, lock)));
        // An async op is a spawned task: issued now, completing on its own.
        for (offset, fragment) in [(0, &b"hello "[..]), (6, &b"remote world!"[..])] {
            let h2 = h.clone();
            h.spawn(async move {
                let e = h2.rwrite(remote_addr + offset, Bytes::from_static(fragment)).await;
                e.result.expect("rwrite");
            });
        }
        h.runlock(lock).await.result.expect("runlock");
        // `rrelease` is the poll: it returns once both writes completed.
        h.rrelease().await.result.expect("rrelease");
        println!("[thread 1] wrote 2 fragments under the lock");
    });

    // -- Figure 1, thread 2 ------------------------------------------------
    cluster.block_on(0, Pid(42), |h| async move {
        let (remote_addr, lock) = loop {
            match globals.get() {
                Some(addresses) => break addresses,
                None => h.sleep(SimDuration::from_micros(1)).await,
            }
        };

        // /* Synchronously read from remote */
        h.rlock(lock).await.result.expect("rlock");
        let data = h.rread(remote_addr, 19).await;
        h.runlock(lock).await.result.expect("runlock");

        let data = data.data();
        println!("[thread 2] read back: {:?}", std::str::from_utf8(data).expect("utf8"));
        assert_eq!(&data[..], b"hello remote world!");
    });

    println!(
        "simulation finished at virtual time {} after {} events",
        cluster.now(),
        cluster.sim.events_dispatched()
    );
}
