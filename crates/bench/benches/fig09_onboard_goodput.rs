//! Figure 9: On-board goodput (no 10 Gbps port bottleneck).
//!
//! The paper drives the fast path with an FPGA traffic generator to measure
//! the pipeline itself: both reads and writes exceed 110 Gbps at large
//! sizes (the II=1 ceiling is 128 Gbps at 250 MHz × 512 bit); small reads
//! trail small writes because the prototype's third-party DMA engine is not
//! pipelined. We do the same: requests are issued back-to-back directly
//! into the silicon model. `Silicon` times the datapath only, so the
//! generator charges each frame's MAC/PHY crossings itself, by the board's
//! rule: a lone request pays ingress and egress; a 16-request frame pays
//! ingress once, on its first entry, and every response pays its egress.
//!
//! Two analytic series contextualize the on-board numbers against the
//! 10 Gbps **port**: the egress goodput ceiling with one response per frame
//! (the pre-batching wire) and with responses coalesced into `BatchResp`
//! frames at the default `resp_batch_max_ops`. At small sizes the pipeline
//! is far from the limit — framing is — and response batching moves the
//! port ceiling toward the raw payload rate.

use clio_bench::FigureReport;
use clio_hw::pagetable::Pte;
use clio_hw::{CBoardHwConfig, Silicon};
use clio_mn::CBoardConfig;
use clio_proto::{Perm, Pid};
use clio_sim::stats::Series;
use clio_sim::{SimDuration, SimTime};

const SIZES: &[u32] = &[64, 128, 256, 512, 1024, 2048, 4096, 8192];
const OPS: u64 = 2000;

fn board() -> Silicon {
    let mut cfg = CBoardHwConfig::prototype();
    cfg.page_size = 64 << 10; // 64 KiB pages keep the sweep in-page
    cfg.phys_mem_bytes = 1 << 30;
    let mut s = Silicon::new(cfg);
    // Pre-install valid identity mappings for a handful of pages.
    for vpn in 0..64 {
        s.vm_mut()
            .install_pte(Pte { pid: Pid(1), vpn, ppn: vpn % 8, perm: Perm::RW, valid: true })
            .expect("install");
    }
    s
}

fn goodput(size: u32, write: bool) -> f64 {
    let mut s = board();
    let mac = s.config().mac_phy_latency;
    let pattern = vec![0xA5u8; size as usize];
    let t0 = SimTime::ZERO;
    let mut last_done = t0;
    for i in 0..OPS {
        let va = (i % 8) * (64 << 10);
        let done = if write {
            let (r, t) = s.write(t0 + mac, Pid(1), va, &pattern);
            r.expect("write");
            t.done
        } else {
            let (r, t) = s.read(t0 + mac, Pid(1), va, size);
            r.expect("read");
            t.done
        };
        last_done = last_done.max(done + mac);
    }
    (OPS * size as u64) as f64 * 8.0 / last_done.since(t0).as_secs_f64() / 1e9
}

/// Latency-chained (closed-loop) goodput: each frame of `frame_ops`
/// requests arrives when the previous frame completed, so per-op latency
/// sets the rate. With `frame_ops > 1` the group arrives as one wire frame
/// and MAC/PHY ingress is charged once per frame (per-entry parse only) —
/// the per-frame accounting whose saving shows at small sizes, where the
/// fixed MAC crossing is a large share of time-on-board.
fn chained_goodput(size: u32, frame_ops: u64) -> f64 {
    let mut s = board();
    let mac = s.config().mac_phy_latency;
    let t0 = SimTime::ZERO;
    let mut at = t0;
    for i in 0..OPS / frame_ops {
        let mut frame_done = at;
        for j in 0..frame_ops {
            let va = ((i * frame_ops + j) % 8) * (64 << 10);
            let ingress = if j == 0 { mac } else { SimDuration::ZERO };
            let (r, t) = s.read(at + ingress, Pid(1), va, size);
            r.expect("read");
            frame_done = frame_done.max(t.done + mac);
        }
        at = frame_done;
    }
    let ops = OPS / frame_ops * frame_ops;
    (ops * size as u64) as f64 * 8.0 / at.since(t0).as_secs_f64() / 1e9
}

/// The 10 Gbps port's read-response goodput ceiling for `size`-byte
/// payloads when `per_frame` responses share each wire frame: payload over
/// payload + amortized response framing + amortized Ethernet overhead, all
/// taken from the real codec so this line tracks the wire format: a lone
/// response is its plain packet, a batch entry the same less its tag.
fn port_ceiling_gbps(size: u32, per_frame: u32) -> f64 {
    use clio_proto::codec::{response_entry_len, response_len, BATCH_OVERHEAD_BYTES};
    use clio_proto::{ReqId, RespHeader, ResponseBody, Status, ETH_OVERHEAD_BYTES, MTU_BYTES};
    let header = RespHeader::single(ReqId(0), Status::Ok);
    let body = ResponseBody::DataFrag { offset: 0, data: vec![0u8; size as usize].into() };
    let per_entry = response_entry_len(&header, &body) as f64;
    let mtu_cap = ((MTU_BYTES - BATCH_OVERHEAD_BYTES) as f64 / per_entry).floor().max(1.0);
    let n = (per_frame as f64).min(mtu_cap);
    let payload = if n > 1.0 {
        n * per_entry + BATCH_OVERHEAD_BYTES as f64
    } else {
        response_len(&header, &body) as f64
    };
    let frame = payload + ETH_OVERHEAD_BYTES as f64;
    10.0 * (n * size as f64) / frame
}

fn main() {
    let mut report = FigureReport::new(
        "fig09",
        "On-board goodput (Gbps) vs request size — FPGA traffic generator",
        "request bytes",
    );
    let resp_batch = CBoardConfig::prototype().resp_batch_max_ops;
    let mut read = Series::new("Read");
    let mut write = Series::new("Write");
    let mut chained = Series::new("Read-chained");
    let mut chained_framed = Series::new("Read-chained-batched-ingress");
    let mut port_unbatched = Series::new("Port-10G-unbatched");
    let mut port_batched = Series::new("Port-10G-resp-batched");
    for &sz in SIZES {
        read.push(sz as f64, goodput(sz, false));
        write.push(sz as f64, goodput(sz, true));
        // Latency-chained issue, 16 requests per ingress frame: MAC/PHY is
        // charged once per frame, which lifts the small-size rows.
        chained.push(sz as f64, chained_goodput(sz, 1));
        chained_framed.push(sz as f64, chained_goodput(sz, 16));
        port_unbatched.push(sz as f64, port_ceiling_gbps(sz, 1));
        port_batched.push(sz as f64, port_ceiling_gbps(sz, resp_batch));
    }
    report.push_series(read);
    report.push_series(write);
    report.push_series(chained);
    report.push_series(chained_framed);
    report.push_series(port_unbatched);
    report.push_series(port_batched);
    report.note("paper: both >110 Gbps at large sizes; reads trail writes at small sizes");
    report.note("cause: the prototype's non-pipelined third-party DMA IP on the read path");
    report.note(
        "Port-10G rows: the egress port's goodput ceiling per framing policy — at 64 B the \
         pipeline sustains >28 Gbps but an unbatched port delivers only ~5.6 Gbps of goodput; \
         BatchResp coalescing (default 16/frame) lifts the ceiling to ~8.1 Gbps",
    );
    report.note(
        "chained rows: closed-loop issue where per-op latency sets the rate; with 16 requests \
         per ingress frame the MAC/PHY crossing is charged once per frame (per-entry parse \
         only), lifting the small-size rows where the fixed crossing dominates time-on-board",
    );
    report.print();
}
