//! Trace data model: contexts, stages, tracks, spans, finished traces.

use clio_sim::{SimDuration, SimTime};

/// The lightweight per-op trace context that travels with a request from CN
/// submit to CN completion (and, inside request headers, across the wire at
/// zero modeled byte cost — it models metadata in reserved header bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Trace id, unique per sampled operation.
    pub id: u64,
    /// Attempt number: 0 for the original send, bumped by every retry.
    pub attempt: u32,
}

/// Which actor's timeline a span belongs to (one Perfetto track each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Track {
    /// Compute node `n` (CLib + transport).
    Cn(u32),
    /// The switch fabric between NICs.
    Wire,
    /// Memory node `n` (CBoard).
    Mn(u32),
}

impl Track {
    /// A stable display name ("cn0", "wire", "mn1").
    pub fn name(&self) -> String {
        match self {
            Track::Cn(i) => format!("cn{i}"),
            Track::Wire => "wire".to_string(),
            Track::Mn(i) => format!("mn{i}"),
        }
    }

    /// A stable Perfetto thread id for this track (pid is always 1).
    pub fn tid(&self) -> u64 {
        match self {
            Track::Cn(i) => 100 + *i as u64,
            Track::Wire => 50,
            Track::Mn(i) => 200 + *i as u64,
        }
    }
}

/// The typed stages an operation can spend time in, across every layer of
/// the fast path. Queueing stages (see [`Stage::is_queueing`]) are holds —
/// doorbells, backoffs, admission waits — as opposed to work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Held before CLib admission: the op arrived before it was submitted —
    /// an open-loop op back-dated to its generated arrival
    /// (`OpFuture::arriving_at`).
    SubmitQueued,
    /// CLib software work from submit to transport hand-off, plus any wait
    /// on intra-thread dependency ordering.
    Submit,
    /// Held in the CN request doorbell queue (batch coalescing window).
    DoorbellHold,
    /// Request build + header packing software overhead at the CN.
    Pack,
    /// NIC serialization of the request frame (includes NIC tx queueing).
    NicSerialize,
    /// Switch-fabric propagation and store-and-forward hops.
    Wire,
    /// Per-frame MAC/PHY processing at MN ingress.
    IngressMac,
    /// Waiting for a free slot in the MN's bounded fast-path pipeline.
    PipelineWait,
    /// Header parse / request-decode pipeline stages at the MN.
    Parse,
    /// TLB lookup cycles.
    Tlb,
    /// Page-table walk DRAM accesses on a TLB miss.
    PtWalk,
    /// On-board interconnect crossings (FPGA ↔ memory controller).
    Interconnect,
    /// Data DRAM access (the op's actual payload reads/writes).
    Dram,
    /// DMA engine transfer between DRAM and the NIC buffers.
    Dma,
    /// Extend-path offload execution at the MN.
    Execute,
    /// Residual MN execution time not attributed to a finer stage (e.g.
    /// out-of-order fragment assembly, stall-retry re-execution).
    ExecuteTail,
    /// MN control-plane answer that bypasses execution (dedup replay,
    /// region refusal, fence accounting).
    Control,
    /// MN software slow path (ARM SoC crossing + handler).
    SlowPath,
    /// Held at the MN behind a fence barrier.
    FenceHold,
    /// Held in the MN egress doorbell queue (response coalescing window).
    EgressHold,
    /// CN-side completion delivery (transport match + CLib hand-back).
    Complete,
    /// From the failed attempt's last send until its NACK arrived back.
    NackTurnaround,
    /// From the failed attempt's last send until its retry timer fired.
    TimeoutWait,
    /// Held in the CN retry doorbell queue before retransmission.
    RetryDoorbell,
    /// Parked after a `Conflict` refusal until the backoff expired.
    ConflictBackoff,
    /// The op was cancelled (deadline exceeded) before completing; covers
    /// from the last stitched stage to the cancellation point.
    Cancelled,
}

impl Stage {
    /// True for stages that are queueing/holds rather than work; the fig14
    /// breakdown separates these so the work stages match the paper's rows.
    pub fn is_queueing(&self) -> bool {
        matches!(
            self,
            Stage::SubmitQueued
                | Stage::Submit
                | Stage::DoorbellHold
                | Stage::PipelineWait
                | Stage::FenceHold
                | Stage::EgressHold
                | Stage::NackTurnaround
                | Stage::TimeoutWait
                | Stage::RetryDoorbell
                | Stage::ConflictBackoff
                | Stage::Cancelled
        )
    }

    /// A stable display name for exports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::SubmitQueued => "submit_queued",
            Stage::Submit => "submit",
            Stage::DoorbellHold => "doorbell_hold",
            Stage::Pack => "pack",
            Stage::NicSerialize => "nic_serialize",
            Stage::Wire => "wire",
            Stage::IngressMac => "ingress_mac",
            Stage::PipelineWait => "pipeline_wait",
            Stage::Parse => "parse",
            Stage::Tlb => "tlb",
            Stage::PtWalk => "pt_walk",
            Stage::Interconnect => "interconnect",
            Stage::Dram => "dram",
            Stage::Dma => "dma",
            Stage::Execute => "execute",
            Stage::ExecuteTail => "execute_tail",
            Stage::Control => "control",
            Stage::SlowPath => "slow_path",
            Stage::FenceHold => "fence_hold",
            Stage::EgressHold => "egress_hold",
            Stage::Complete => "complete",
            Stage::NackTurnaround => "nack_turnaround",
            Stage::TimeoutWait => "timeout_wait",
            Stage::RetryDoorbell => "retry_doorbell",
            Stage::ConflictBackoff => "conflict_backoff",
            Stage::Cancelled => "cancelled",
        }
    }
}

/// One stitched stage span on an op's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Actor timeline the span renders on.
    pub track: Track,
    /// What the op was doing.
    pub stage: Stage,
    /// Span start (== the previous span's end: spans tile the timeline).
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
    /// Attempt this span belongs to.
    pub attempt: u32,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// A retry edge inside one trace: attempt `from` failed and attempt `to`
/// replaced it (rendered as a Perfetto flow arrow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryLink {
    /// The failed attempt.
    pub from: u32,
    /// The replacement attempt.
    pub to: u32,
    /// When the retry was decided (NACK arrival / timeout firing).
    pub at: SimTime,
}

/// A complete (or in-flight) trace of one operation.
#[derive(Debug, Clone)]
pub struct OpTrace {
    /// Trace id ([`TraceCtx::id`]).
    pub id: u64,
    /// Op label ("read", "write", ...), for slice naming.
    pub label: &'static str,
    /// When the op was submitted.
    pub begin: SimTime,
    /// When the op completed (`None` while in flight).
    pub end: Option<SimTime>,
    /// Stitched stage spans, in timeline order.
    pub spans: Vec<Span>,
    /// Retry edges between attempts.
    pub links: Vec<RetryLink>,
    /// Timeline cursor: where the next span will start.
    pub cursor: SimTime,
    /// Current attempt number.
    pub attempt: u32,
}

impl OpTrace {
    /// Sum of all span durations (work + queueing).
    pub fn span_sum(&self) -> SimDuration {
        self.spans.iter().map(|s| s.duration()).fold(SimDuration::ZERO, |a, d| a + d)
    }

    /// End-to-end latency (panics if the trace is unfinished).
    pub fn e2e(&self) -> SimDuration {
        self.end.expect("trace not finished").since(self.begin)
    }

    /// Total duration attributed to `stage` across all attempts.
    pub fn stage_total(&self, stage: Stage) -> SimDuration {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.duration())
            .fold(SimDuration::ZERO, |a, d| a + d)
    }
}

/// Checks the structural invariants of one finished trace:
///
/// 1. the trace has an end and `begin <= end`;
/// 2. spans tile the `[begin, end]` interval exactly — the first span
///    starts at `begin`, each span starts where its predecessor ended, the
///    last span ends at `end`, and no span is empty or inverted;
/// 3. therefore `sum(span durations) == end − begin` **exactly** (sim time
///    is discrete);
/// 4. retry links connect consecutive attempts, in order.
///
/// Returns a description of the first violation.
pub fn check_trace(t: &OpTrace) -> Result<(), String> {
    let Some(end) = t.end else {
        return Err(format!("trace {}: not finished", t.id));
    };
    if end < t.begin {
        return Err(format!("trace {}: end {} before begin {}", t.id, end, t.begin));
    }
    let mut cursor = t.begin;
    for (i, s) in t.spans.iter().enumerate() {
        if s.start != cursor {
            return Err(format!(
                "trace {}: span {i} ({:?}) starts at {} but previous ended at {cursor} (gap/overlap)",
                t.id, s.stage, s.start
            ));
        }
        if s.end <= s.start {
            return Err(format!(
                "trace {}: span {i} ({:?}) empty or inverted: [{}, {}]",
                t.id, s.stage, s.start, s.end
            ));
        }
        cursor = s.end;
    }
    if cursor != end {
        return Err(format!("trace {}: spans end at {cursor}, op ended at {end}", t.id));
    }
    if t.span_sum() != end.since(t.begin) {
        return Err(format!(
            "trace {}: span sum {:?} != e2e {:?}",
            t.id,
            t.span_sum(),
            end.since(t.begin)
        ));
    }
    for (i, l) in t.links.iter().enumerate() {
        if l.to != l.from + 1 {
            return Err(format!(
                "trace {}: link {i} skips attempts ({} -> {})",
                t.id, l.from, l.to
            ));
        }
        if i as u32 != l.from {
            return Err(format!("trace {}: link {i} out of order (from {})", t.id, l.from));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn span(stage: Stage, a: u64, b: u64) -> Span {
        Span { track: Track::Cn(0), stage, start: t(a), end: t(b), attempt: 0 }
    }

    fn trace(spans: Vec<Span>, end: u64) -> OpTrace {
        OpTrace {
            id: 1,
            label: "read",
            begin: t(0),
            end: Some(t(end)),
            spans,
            links: vec![],
            cursor: t(end),
            attempt: 0,
        }
    }

    #[test]
    fn tiled_trace_passes() {
        let tr = trace(
            vec![
                span(Stage::Submit, 0, 10),
                span(Stage::Wire, 10, 40),
                span(Stage::Complete, 40, 50),
            ],
            50,
        );
        check_trace(&tr).expect("well-formed");
        assert_eq!(tr.span_sum(), SimDuration::from_nanos(50));
        assert_eq!(tr.e2e(), SimDuration::from_nanos(50));
        assert_eq!(tr.stage_total(Stage::Wire), SimDuration::from_nanos(30));
    }

    #[test]
    fn gap_is_rejected() {
        let tr = trace(vec![span(Stage::Submit, 0, 10), span(Stage::Wire, 20, 50)], 50);
        assert!(check_trace(&tr).unwrap_err().contains("gap/overlap"));
    }

    #[test]
    fn short_tail_is_rejected() {
        let tr = trace(vec![span(Stage::Submit, 0, 10)], 50);
        assert!(check_trace(&tr).unwrap_err().contains("spans end at"));
    }

    #[test]
    fn unfinished_is_rejected() {
        let mut tr = trace(vec![], 0);
        tr.end = None;
        assert!(check_trace(&tr).unwrap_err().contains("not finished"));
    }

    #[test]
    fn queueing_taxonomy() {
        assert!(Stage::SubmitQueued.is_queueing());
        assert_eq!(Stage::SubmitQueued.name(), "submit_queued");
        assert!(Stage::DoorbellHold.is_queueing());
        assert!(Stage::EgressHold.is_queueing());
        assert!(!Stage::Dram.is_queueing());
        assert!(!Stage::Wire.is_queueing());
        assert_eq!(Stage::PtWalk.name(), "pt_walk");
    }

    #[test]
    fn track_identities() {
        assert_eq!(Track::Cn(0).name(), "cn0");
        assert_eq!(Track::Mn(3).name(), "mn3");
        assert_eq!(Track::Wire.name(), "wire");
        let tids: Vec<u64> =
            [Track::Cn(0), Track::Wire, Track::Mn(0)].iter().map(|t| t.tid()).collect();
        assert_eq!(tids.len(), 3);
        assert!(tids.windows(2).all(|w| w[0] != w[1]));
    }
}
