//! Figure 8: End-to-end goodput with 1 KB requests.
//!
//! Goodput toward one CBoard (10 Gbps port) as client threads grow 1 → 16,
//! for synchronous (window 1) and asynchronous (windowed) reads and writes.
//! Async reaches the ~9.4 Gbps line rate with a couple of threads; sync
//! needs more threads to cover the RTT.
//!
//! The four paper series run with a batch budget of one in both
//! directions (one frame per packet, the paper's wire behavior); the
//! `*-Batched` variants enable the transport's request batching **and** the
//! MN's response batching, which coalesce small packets into shared frames
//! and trim per-frame Ethernet overhead.
//!
//! Each mix's Max-Throughput line is the port's goodput when every frame
//! in the direction that carries the payload is one 1 KB packet: a write
//! request (a first attempt) or a read's response, sized by
//! the codec plus Ethernet framing. No measured point may exceed its line.

use bytes::Bytes;
use clio_bench::drivers::{measured_window, AccessMix, MemLoad};
use clio_bench::setup::bench_cluster_tuned;
use clio_bench::FigureReport;
use clio_cn::CLibConfig;
use clio_proto::codec::wire_len;
use clio_proto::{
    ClioPacket, Pid, ReqHeader, ReqId, RequestBody, RespHeader, ResponseBody, Status,
    ETH_OVERHEAD_BYTES,
};
use clio_sim::stats::Series;

const THREADS: &[u64] = &[1, 2, 4, 8, 12, 16];
const OPS_PER_THREAD: u64 = 600;
const SIZE: u32 = 1024;

struct Run {
    goodput_gbps: f64,
    /// MN→CN wire frames per response packet (the response-framing cost;
    /// 1 when every response travels alone).
    resp_frames_per_packet: f64,
}

fn goodput(threads: u64, mix: AccessMix, window: u32, clib: CLibConfig, resp_batched: bool) -> Run {
    let mut cluster = bench_cluster_tuned(1, 1, 80 + threads, clib, |board| {
        if !resp_batched {
            board.resp_batch_max_ops = 1;
        }
    });
    let mut recs = Vec::new();
    for t in 0..threads {
        let load = MemLoad::new(SIZE, mix, OPS_PER_THREAD, window, 8, 4096);
        recs.push(load.spawn(&mut cluster, 0, Pid(10 + t)));
    }
    cluster.start();
    cluster.run_until_idle();
    // Aggregate goodput: measured payload over the union of the threads'
    // measured windows (every thread's ralloc and warm-up excluded).
    let bytes: u64 = recs.iter().map(|rec| rec.borrow().ops() * SIZE as u64).sum();
    let elapsed = measured_window(&recs).as_secs_f64();
    if elapsed == 0.0 {
        return Run { goodput_gbps: 0.0, resp_frames_per_packet: 0.0 };
    }
    let stats = cluster.mn(0).stats();
    Run {
        goodput_gbps: bytes as f64 * 8.0 / elapsed / 1e9,
        resp_frames_per_packet: stats.tx_frames as f64 / stats.tx_packets.max(1) as f64,
    }
}

/// Goodput of the 10 Gbps port when every frame is `pkt`, which carries
/// one `SIZE`-byte payload.
fn line_rate_gbps(pkt: &ClioPacket) -> f64 {
    10.0 * f64::from(SIZE) / (wire_len(pkt) + ETH_OVERHEAD_BYTES) as f64
}

fn main() {
    let mut report = FigureReport::new(
        "fig08",
        "End-to-end goodput, 1 KB requests (Gbps) vs client threads",
        "threads",
    );
    let payload = Bytes::from(vec![0u8; SIZE as usize]);
    let write = ClioPacket::Request {
        header: ReqHeader::single(ReqId(0), Pid(0)),
        body: RequestBody::WriteFrag { va: 0, data: payload.clone() },
    };
    let read = ClioPacket::Response {
        header: RespHeader::single(ReqId(0), Status::Ok),
        body: ResponseBody::DataFrag { offset: 0, data: payload },
    };
    let (read_max, write_max) = (line_rate_gbps(&read), line_rate_gbps(&write));
    for (name, line) in [("Max-Throughput-Read", read_max), ("Max-Throughput-Write", write_max)] {
        let mut max = Series::new(name);
        for &t in THREADS {
            max.push(t as f64, line);
        }
        report.push_series(max);
    }
    let unbatched = CLibConfig::prototype_unbatched();
    for (name, mix, window, clib, resp_batched) in [
        ("Read-Sync", AccessMix::Reads, 1u32, unbatched, false),
        ("Write-Sync", AccessMix::Writes, 1, unbatched, false),
        ("Read-Async", AccessMix::Reads, 16, unbatched, false),
        ("Write-Async", AccessMix::Writes, 16, unbatched, false),
        ("Read-Async-Batched", AccessMix::Reads, 16, CLibConfig::prototype(), true),
        ("Write-Async-Batched", AccessMix::Writes, 16, CLibConfig::prototype(), true),
    ] {
        let mut s = Series::new(name);
        let mut last = 0.0;
        let max = match mix {
            AccessMix::Reads => read_max,
            AccessMix::Writes => write_max,
        };
        for &t in THREADS {
            let run = goodput(t, mix, window, clib, resp_batched);
            assert!(
                run.goodput_gbps <= max,
                "{name} at {t} threads: {:.3} Gbps exceeds its line rate {max:.3}",
                run.goodput_gbps
            );
            s.push(t as f64, run.goodput_gbps);
            last = run.resp_frames_per_packet;
        }
        report.metric(format!("frames/packet [resp] {name} @16 threads"), last);
        report.push_series(s);
    }
    report
        .note("paper: async hits the 9.4 Gbps line rate almost immediately; sync needs ~8 threads");
    report.note(
        "batched variants coalesce async requests into shared wire frames; the MN sends each \
         reply as soon as its port is free, so Done replies to 1 KB writes (an idle response \
         port) leave one per frame, and 1 KB read replies stay one per frame (two don't fit an \
         MTU)",
    );
    report.print();
}
