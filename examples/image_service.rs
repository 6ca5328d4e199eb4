//! The paper's image-compression utility (§6) in paper-style code: each
//! client process keeps two arrays at the memory node (originals and
//! compressed), reads a photo, compresses it at the CN with a real RLE
//! codec, and writes the result back. One process per client isolates
//! tenants (requirement R5 — try reading another client's array and watch
//! the MN refuse).
//!
//! Run with: `cargo run --release --example image_service`

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use clio_apps::image::{compress_cpu_time, rle_compress, rle_decompress, synth_image, IMAGE_BYTES};
use clio_cn::ClioError;
use clio_core::{Cluster, ClusterConfig};
use clio_proto::{Perm, Pid, Status};
use clio_sim::{SimDuration, SimRng};

const CLIENTS: u64 = 3;
const IMAGES: usize = 4;

fn main() {
    let mut cfg = ClusterConfig::test_small();
    cfg.board.hw.phys_mem_bytes = 64 << 20;
    let mut cluster = Cluster::build(&cfg);
    // Where each finished client keeps its originals — the nosy client's
    // targets.
    let tenants = Rc::new(RefCell::new(Vec::new()));

    for client in 0..CLIENTS {
        let tenants = tenants.clone();
        cluster.spawn(0, Pid(100 + client), move |h| async move {
            let array = (IMAGES * IMAGE_BYTES) as u64;
            let originals = h.ralloc(array, Perm::RW).await.va();
            let compressed = h.ralloc(array, Perm::RW).await.va();

            // Upload this client's photo collection.
            let mut rng = SimRng::new(1000 + client);
            let mut photos = Vec::new();
            for i in 0..IMAGES {
                let img = synth_image(&mut rng);
                let at = originals + (i * IMAGE_BYTES) as u64;
                h.rwrite(at, Bytes::from(img.clone())).await.result.expect("upload");
                photos.push(img);
            }

            // The service loop: read -> compress -> write back.
            let mut total_packed = 0usize;
            for (i, photo) in photos.iter().enumerate() {
                let at = (i * IMAGE_BYTES) as u64;
                let img = h.rread(originals + at, IMAGE_BYTES as u32).await;
                let packed = rle_compress(img.data());
                h.sleep(compress_cpu_time(IMAGE_BYTES)).await; // model the CPU work
                assert_eq!(&rle_decompress(&packed), photo, "lossless");
                total_packed += packed.len();
                h.rwrite(compressed + at, Bytes::from(packed)).await.result.expect("write back");
            }
            println!(
                "[client {client}] {IMAGES} photos compressed {}x",
                IMAGES * IMAGE_BYTES / total_packed.max(1)
            );
            tenants.borrow_mut().push(originals);
        });
    }

    // A nosy client: once the service is quiet, tries to read every
    // tenant's photos from a different process and must be refused by the
    // MN's per-process address translation.
    cluster.spawn(0, Pid(999), move |h| async move {
        while tenants.borrow().len() < CLIENTS as usize {
            h.sleep(SimDuration::from_micros(100)).await;
        }
        for foreign in tenants.take() {
            let result = h.rread(foreign, 64).await.result;
            println!("[nosy client] cross-tenant read => {result:?}");
            assert_eq!(result, Err(ClioError::Remote(Status::InvalidAddr)), "R5 must hold");
        }
    });

    cluster.start();
    cluster.run_until_idle();
    println!("all clients done at {}", cluster.now());
}
