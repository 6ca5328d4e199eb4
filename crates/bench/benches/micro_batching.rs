//! Microbenchmark: symmetric fast-path batching.
//!
//! An open-loop client fires bursts of 64 small async reads (the paper's
//! issue-then-poll pattern) at one CBoard while the transport's
//! `batch_max_ops` knob sweeps 1 → 32. Reported per point: wire frames per
//! operation in **each direction** — CN→MN request frames and MN→CN
//! response frames at the board — plus burst throughput. With
//! `batch_max_ops = 1` every request pays its own frame; with coalescing a
//! 64-op burst ships in `ceil(64 / batch_max_ops)` request frames, and the
//! board's egress doorbell collapses the response path the same way
//! (responses completing within the egress hold share `BatchResp` frames).
//! A scatter/gather series drives the same burst through `rread_v`,
//! bypassing the doorbell's same-instant heuristics entirely.
//!
//! `--smoke` runs a reduced sweep (CI regression gate): it still asserts
//! the acceptance bar — ≥ 4× fewer MN→CN frames at default knobs.

use clio_bench::drivers::{alloc_warm, record, spawn_recorded};
use clio_bench::setup::bench_cluster_tuned;
use clio_bench::FigureReport;
use clio_cn::CLibConfig;
use clio_proto::Pid;
use clio_sim::stats::Series;

const BURST: u64 = 64;
const SPAN_PAGES: u64 = 64;

struct Point {
    req_frames_per_op: f64,
    resp_frames_per_op: f64,
    mops: f64,
}

fn run(size: u32, batch_max_ops: u32, bursts: u64, scatter_gather: bool) -> Point {
    let clib = CLibConfig {
        batch_max_ops,
        // Wide congestion window so the burst size and the framing policy —
        // not the transport window — bound each burst.
        cwnd_init: 128.0,
        cwnd_max: 256.0,
        ..CLibConfig::prototype()
    };
    // Response batching follows the request knob so the `1` point
    // reproduces the fully-unbatched wire in both directions.
    let mut cluster = bench_cluster_tuned(1, 1, 7 + size as u64, clib, |board| {
        board.resp_batch_max_ops = batch_max_ops;
    });
    // The burst generator: issues BURST small async reads at one instant
    // (the paper's issue-then-poll pattern), waits for all of them, then
    // fires the next burst.
    let rec = spawn_recorded(&mut cluster, 0, Pid(10), move |h, rec| async move {
        let va = alloc_warm(&h, SPAN_PAGES, 4096, &rec).await;
        for b in 0..bursts {
            // Distinct pages inside one burst: no intra-burst dependencies,
            // so the whole burst dispatches (and coalesces) at one instant.
            let reads = (0..BURST).map(|i| (va + (b * BURST + i) % SPAN_PAGES * 4096, size));
            if scatter_gather {
                for fut in h.rread_v(reads.collect()) {
                    record(&rec, &fut.await, size as u64);
                }
            } else {
                for (va, len) in reads {
                    let (h2, rec) = (h.clone(), rec.clone());
                    h.spawn(async move { record(&rec, &h2.rread(va, len).await, len as u64) });
                }
                h.rrelease().await;
            }
        }
    });
    cluster.start();
    cluster.run_until_idle();
    let stats = cluster.mn(0).stats();
    let ops = BURST * bursts;
    assert_eq!(rec.borrow().ops(), ops, "all ops must complete");
    // Subtract the prologue (1 alloc + span warm-up writes, one frame each
    // direction: they run synchronously) so frames/op reflects the
    // measured bursts only.
    let prologue = 1 + SPAN_PAGES;
    let req_frames = stats.rx_frames.saturating_sub(prologue);
    let resp_frames = stats.tx_frames.saturating_sub(prologue);
    let elapsed = cluster.now().as_secs_f64();
    Point {
        req_frames_per_op: req_frames as f64 / ops as f64,
        resp_frames_per_op: resp_frames as f64 / ops as f64,
        mops: ops as f64 / elapsed / 1e6,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, batch_ops, bursts): (&[u32], &[u32], u64) =
        if smoke { (&[64], &[1, 16], 10) } else { (&[16, 64], &[1, 2, 4, 8, 16, 32], 60) };
    let mut report = FigureReport::new(
        "micro_batching",
        "Symmetric batching: frames per op (both directions) and throughput, 64-op bursts",
        "batch_max_ops",
    );
    for &size in sizes {
        let mut req = Series::new(match size {
            16 => "req-frames/op-16B",
            _ => "req-frames/op-64B",
        });
        let mut resp = Series::new(match size {
            16 => "resp-frames/op-16B",
            _ => "resp-frames/op-64B",
        });
        let mut mops = Series::new(match size {
            16 => "Mops-16B",
            _ => "Mops-64B",
        });
        for &b in batch_ops {
            let p = run(size, b, bursts, false);
            req.push(b as f64, p.req_frames_per_op);
            resp.push(b as f64, p.resp_frames_per_op);
            mops.push(b as f64, p.mops);
            if b == 1 {
                assert!(
                    p.resp_frames_per_op > 0.9,
                    "unbatched egress must pay ~one frame per response, got {}",
                    p.resp_frames_per_op
                );
            }
            if b >= 16 {
                // Acceptance bar: response frames/op collapses toward
                // ceil(n / batch_max_ops) / n — at least 4x fewer MN→CN
                // frames than one-per-op at default knobs.
                assert!(
                    p.resp_frames_per_op <= 0.25,
                    "expected >= 4x fewer MN->CN frames at batch_max_ops={b}, got {} frames/op",
                    p.resp_frames_per_op
                );
                assert!(
                    p.req_frames_per_op <= 0.25,
                    "expected >= 4x fewer CN->MN frames at batch_max_ops={b}, got {} frames/op",
                    p.req_frames_per_op
                );
            }
        }
        report.push_series(req);
        report.push_series(resp);
        report.push_series(mops);
    }
    // Scatter/gather variant at default knobs: the explicit vector API hits
    // the same framing floor without relying on same-instant submission.
    let sg = run(64, 16, bursts, true);
    report.metric("frames/op [req] 64B sg burst @16", sg.req_frames_per_op);
    report.metric("frames/op [resp] 64B sg burst @16", sg.resp_frames_per_op);
    assert!(sg.req_frames_per_op <= 0.25, "scatter/gather must batch requests");
    let dflt = run(64, 16, bursts, false);
    report.metric("frames/op [req] 64B burst @16", dflt.req_frames_per_op);
    report.metric("frames/op [resp] 64B burst @16", dflt.resp_frames_per_op);
    report.note("batch_max_ops = 1 is the no-batch escape hatch: one wire frame per packet, both directions");
    report.note(
        "a 64-op burst ships in ceil(64 / batch_max_ops) request frames when coalescing engages",
    );
    report.note(
        "responses now coalesce symmetrically: the MN egress doorbell packs replies completing \
         within its hold into BatchResp frames, so the 10 Gbps response path no longer pays \
         per-op framing",
    );
    if smoke {
        report.note("smoke mode: reduced sweep (CI gate); run without --smoke for full figures");
    }
    report.print();
}
