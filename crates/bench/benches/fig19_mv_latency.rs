//! Figure 19: Clio-MV object read/write latency vs number of CNs.
//!
//! 16 B objects accessed 50/50 read/write from 1–4 CNs under uniform and
//! Zipf object popularity. The array-based version design makes reads of
//! any version cost the same, and latency stays flat as CNs are added.

use std::cell::Cell;
use std::rc::Rc;

use clio_apps::mv::{encode_append, encode_read, ClioMv, MvOpcode};
use clio_bench::setup::bench_cluster;
use clio_bench::FigureReport;
use clio_core::ProcHandle;
use clio_net::Mac;
use clio_proto::Pid;
use clio_sim::dist::Zipf;
use clio_sim::stats::Series;
use clio_sim::{SimDuration, SimRng};

const OPS_PER_CN: u64 = 400;
const OBJECTS: u64 = 48;

/// Per-CN totals: (read latency sum, reads, write latency sum, writes).
type Totals = (SimDuration, u64, SimDuration, u64);

/// One CN's client. The creator (CN 0) makes and seeds the objects first;
/// the others give it 20 ms to finish, then everyone runs `OPS_PER_CN`
/// 50/50 reads/appends over uniformly or Zipf-popular objects.
async fn mv_client(h: ProcHandle, mn: Mac, creator: bool, zipf: Option<Zipf>, seed: u64) -> Totals {
    let call = |opcode: MvOpcode, arg| h.roffload(mn, 3, opcode as u16, arg);
    if creator {
        // Object ids are deterministic (0..OBJECTS): one creator assigns
        // them sequentially.
        for _ in 0..OBJECTS {
            let c = call(MvOpcode::Create, bytes::Bytes::new()).await;
            assert!(c.result.is_ok(), "create failed: {:?}", c.result);
        }
        for id in 0..OBJECTS {
            let c = call(MvOpcode::Append, encode_append(id, &[1; 16])).await;
            assert!(c.result.is_ok(), "seed failed: {:?}", c.result);
        }
    } else {
        // Let the creator finish setup first.
        h.sleep(SimDuration::from_millis(20)).await;
    }
    let mut rng = SimRng::new(seed);
    let mut t: Totals = (SimDuration::ZERO, 0, SimDuration::ZERO, 0);
    for measured in 0..OPS_PER_CN {
        let id = match &zipf {
            Some(z) => z.sample(&mut rng) as u64,
            None => rng.range_u64(0, OBJECTS),
        };
        let issued = h.now();
        let read = rng.chance(0.5);
        let c = if read {
            call(MvOpcode::Read, encode_read(id, u64::MAX)).await
        } else {
            call(MvOpcode::Append, encode_append(id, &[measured as u8; 16])).await
        };
        if c.result.is_ok() {
            let lat = h.now().since(issued);
            if read {
                t = (t.0 + lat, t.1 + 1, t.2, t.3);
            } else {
                t = (t.0, t.1, t.2 + lat, t.3 + 1);
            }
        }
    }
    t
}

fn run(cns: usize, zipf: bool) -> (f64, f64) {
    let mut cluster = bench_cluster(cns, 1, 190 + cns as u64);
    cluster.install_offload(0, 3, Pid(9200), Box::new(ClioMv::new(4096, 16)));
    let mn = cluster.mn_macs()[0];
    let totals: Vec<Rc<Cell<Totals>>> = (0..cns).map(|_| Rc::default()).collect();
    for (cn, out) in totals.iter().enumerate() {
        let out = out.clone();
        let zipf = zipf.then(|| Zipf::new(OBJECTS as usize, 0.99));
        cluster.spawn(cn, Pid(400 + cn as u64), move |h| async move {
            out.set(mv_client(h, mn, cn == 0, zipf, 60 + cn as u64).await);
        });
    }
    cluster.start();
    cluster.run_until_idle();
    let (mut rt, mut rn, mut wt, mut wn) = (0f64, 0u64, 0f64, 0u64);
    for (cn, t) in totals.iter().enumerate() {
        let (read_total, reads, write_total, writes) = t.get();
        assert!(reads + writes > 0, "cn {cn} measured nothing");
        rt += read_total.as_nanos() as f64;
        rn += reads;
        wt += write_total.as_nanos() as f64;
        wn += writes;
    }
    (rt / rn.max(1) as f64 / 1000.0, wt / wn.max(1) as f64 / 1000.0)
}

fn main() {
    let mut report =
        FigureReport::new("fig19", "Clio-MV object read/write latency (us) vs CNs", "CNs");
    let mut ru = Series::new("Read-Uniform");
    let mut wu = Series::new("Write-Uniform");
    let mut rz = Series::new("Read-Zipf");
    let mut wz = Series::new("Write-Zipf");
    for cns in 1..=4usize {
        let (r, w) = run(cns, false);
        ru.push(cns as f64, r);
        wu.push(cns as f64, w);
        let (r, w) = run(cns, true);
        rz.push(cns as f64, r);
        wz.push(cns as f64, w);
    }
    report.push_series(ru);
    report.push_series(wu);
    report.push_series(rz);
    report.push_series(wz);
    report.note("paper: reads ~= writes, any version costs the same, flat across CNs");
    report.print();
}
