//! The [`Tracer`] handle: begin / stitch / retry / finish.

use std::cell::RefCell;
use std::rc::Rc;

use clio_sim::{IdMap, SimTime};

use crate::span::{OpTrace, RetryLink, Span, Stage, TraceCtx, Track};

/// A point-in-time system event on a track (e.g. a circuit breaker
/// observing a board going down or coming back), exported as a Chrome
/// trace instant event. Unlike spans, events belong to no op and are
/// never sampled away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The track the event marks.
    pub track: Track,
    /// Event name ("board_down", "board_up", ...).
    pub name: &'static str,
    /// When it happened.
    pub at: SimTime,
}

#[derive(Debug, Default)]
struct TraceSink {
    next_id: u64,
    sample_every: u64,
    seen: u64,
    active: IdMap<u64, OpTrace>,
    finished: Vec<OpTrace>,
    events: Vec<TraceEvent>,
}

/// A cloneable handle every traced component holds. Disabled (the default)
/// it is a `None` and every method is a no-op; enabled, all clones share
/// one sink, so CN-side and MN-side stitches land on the same per-op
/// timeline.
///
/// # Stitching
///
/// A trace is one timeline tiled by spans. `stitch(ctx, track, stage, end)`
/// appends the span `[cursor, max(cursor, end)]` and advances the cursor to
/// its end; zero-width spans are skipped entirely. Layers therefore only
/// name the *end* of each stage — contiguity (and thus the span-sum ==
/// end-to-end invariant checked by [`check_trace`](crate::check_trace)) is
/// structural, not something call sites can get wrong.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Rc<RefCell<TraceSink>>>);

impl Tracer {
    /// A disabled tracer: every call is a cheap no-op.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// An enabled tracer sampling one in `sample_every` operations
    /// (`1` = trace everything; `0` is clamped to 1).
    pub fn enabled(sample_every: u64) -> Self {
        Tracer(Some(Rc::new(RefCell::new(TraceSink {
            next_id: 1,
            sample_every: sample_every.max(1),
            seen: 0,
            active: IdMap::default(),
            finished: Vec::new(),
            events: Vec::new(),
        }))))
    }

    /// True when this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Starts a trace for an op submitted at `at`. Returns `None` when
    /// disabled or when sampling skips this op; the context otherwise
    /// travels with the op through every layer.
    pub fn begin(&self, label: &'static str, at: SimTime) -> Option<TraceCtx> {
        let sink = self.0.as_ref()?;
        let mut s = sink.borrow_mut();
        s.seen += 1;
        if (s.seen - 1) % s.sample_every != 0 {
            return None;
        }
        let id = s.next_id;
        s.next_id += 1;
        s.active.insert(
            id,
            OpTrace {
                id,
                label,
                begin: at,
                end: None,
                spans: Vec::new(),
                links: Vec::new(),
                cursor: at,
                attempt: 0,
            },
        );
        Some(TraceCtx { id, attempt: 0 })
    }

    /// Appends the stage span `[cursor, max(cursor, end)]` on `track` and
    /// advances the cursor; zero-width spans are skipped. No-op when
    /// disabled, unsampled, or the trace is unknown/finished.
    pub fn stitch(&self, ctx: Option<TraceCtx>, track: Track, stage: Stage, end: SimTime) {
        let (Some(sink), Some(ctx)) = (self.0.as_ref(), ctx) else { return };
        let mut s = sink.borrow_mut();
        let Some(t) = s.active.get_mut(&ctx.id) else { return };
        let end = end.max(t.cursor);
        if end > t.cursor {
            t.spans.push(Span { track, stage, start: t.cursor, end, attempt: ctx.attempt });
            t.cursor = end;
        }
    }

    /// Records a retry: links the failed attempt to its replacement and
    /// returns the bumped context the retransmission should carry.
    pub fn retry(&self, ctx: Option<TraceCtx>, at: SimTime) -> Option<TraceCtx> {
        let ctx = ctx?;
        let next = TraceCtx { id: ctx.id, attempt: ctx.attempt + 1 };
        if let Some(sink) = self.0.as_ref() {
            let mut s = sink.borrow_mut();
            if let Some(t) = s.active.get_mut(&ctx.id) {
                t.links.push(RetryLink { from: ctx.attempt, to: next.attempt, at });
                t.attempt = next.attempt;
            }
        }
        Some(next)
    }

    /// Ends a trace at `at` (stitching a final CN [`Stage::Complete`] span
    /// over any remaining gap) and moves it to the finished set.
    pub fn finish(&self, ctx: Option<TraceCtx>, track: Track, at: SimTime) {
        self.stitch(ctx, track, Stage::Complete, at);
        let (Some(sink), Some(ctx)) = (self.0.as_ref(), ctx) else { return };
        let mut s = sink.borrow_mut();
        if let Some(mut t) = s.active.remove(&ctx.id) {
            t.end = Some(at.max(t.cursor));
            s.finished.push(t);
        }
    }

    /// Clones the finished traces (empty when disabled).
    pub fn finished(&self) -> Vec<OpTrace> {
        self.0.as_ref().map(|s| s.borrow().finished.clone()).unwrap_or_default()
    }

    /// Removes and returns the finished traces (empty when disabled).
    pub fn take_finished(&self) -> Vec<OpTrace> {
        self.0.as_ref().map(|s| std::mem::take(&mut s.borrow_mut().finished)).unwrap_or_default()
    }

    /// Traces begun but not yet finished.
    pub fn active_count(&self) -> usize {
        self.0.as_ref().map(|s| s.borrow().active.len()).unwrap_or(0)
    }

    /// Records a point-in-time system event on `track` (no-op when
    /// disabled). Events skip per-op sampling: a board going down is a
    /// system fact, not a latency sample.
    pub fn event(&self, track: Track, name: &'static str, at: SimTime) {
        if let Some(sink) = self.0.as_ref() {
            sink.borrow_mut().events.push(TraceEvent { track, name, at });
        }
    }

    /// Clones the recorded system events (empty when disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.as_ref().map(|s| s.borrow().events.clone()).unwrap_or_default()
    }

    /// Removes and returns the recorded system events (empty when
    /// disabled).
    pub fn take_events(&self) -> Vec<TraceEvent> {
        self.0.as_ref().map(|s| std::mem::take(&mut s.borrow_mut().events)).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::check_trace;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tr = Tracer::disabled();
        assert!(!tr.is_enabled());
        assert_eq!(tr.begin("read", t(0)), None);
        tr.stitch(None, Track::Cn(0), Stage::Submit, t(10));
        assert_eq!(tr.retry(None, t(5)), None);
        tr.finish(None, Track::Cn(0), t(10));
        assert!(tr.finished().is_empty());
        assert_eq!(tr.active_count(), 0);
    }

    #[test]
    fn stitch_tiles_and_skips_zero_width() {
        let tr = Tracer::enabled(1);
        let ctx = tr.begin("read", t(100)).expect("sampled");
        tr.stitch(ctx.into(), Track::Cn(0), Stage::Submit, t(110));
        tr.stitch(ctx.into(), Track::Cn(0), Stage::DoorbellHold, t(110)); // zero-width
        tr.stitch(ctx.into(), Track::Wire, Stage::Wire, t(150));
        tr.stitch(ctx.into(), Track::Mn(0), Stage::Dram, t(90)); // behind cursor
        tr.finish(ctx.into(), Track::Cn(0), t(200));
        let traces = tr.finished();
        assert_eq!(traces.len(), 1);
        let tr0 = &traces[0];
        check_trace(tr0).expect("well-formed");
        assert_eq!(tr0.spans.len(), 3, "zero-width spans skipped: {:?}", tr0.spans);
        assert_eq!(tr0.spans[2].stage, Stage::Complete);
        assert_eq!(tr0.e2e().as_nanos(), 100);
    }

    #[test]
    fn sampling_skips_ops() {
        let tr = Tracer::enabled(3);
        let sampled: Vec<bool> = (0..9).map(|i| tr.begin("x", t(i)).is_some()).collect();
        assert_eq!(sampled.iter().filter(|s| **s).count(), 3);
        assert!(sampled[0], "first op always sampled");
    }

    #[test]
    fn retry_links_attempts() {
        let tr = Tracer::enabled(1);
        let ctx = tr.begin("faa", t(0)).unwrap();
        tr.stitch(ctx.into(), Track::Cn(0), Stage::NicSerialize, t(10));
        let ctx2 = tr.retry(ctx.into(), t(60)).unwrap();
        assert_eq!(ctx2, TraceCtx { id: ctx.id, attempt: 1 });
        tr.stitch(ctx2.into(), Track::Cn(0), Stage::TimeoutWait, t(60));
        tr.finish(ctx2.into(), Track::Cn(0), t(80));
        let traces = tr.finished();
        assert_eq!(traces[0].links.len(), 1);
        assert_eq!((traces[0].links[0].from, traces[0].links[0].to), (0, 1));
        check_trace(&traces[0]).expect("well-formed");
        // Spans before the retry carry attempt 0; after, attempt 1.
        assert_eq!(traces[0].spans[0].attempt, 0);
        assert_eq!(traces[0].spans.last().unwrap().attempt, 1);
    }

    #[test]
    fn take_finished_drains() {
        let tr = Tracer::enabled(1);
        let ctx = tr.begin("read", t(0)).unwrap();
        tr.finish(ctx.into(), Track::Cn(0), t(5));
        assert_eq!(tr.take_finished().len(), 1);
        assert!(tr.finished().is_empty());
    }
}
