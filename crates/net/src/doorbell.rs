//! The load-adaptive doorbell in front of a [`NicPort`](crate::NicPort).

use clio_sim::{Ctx, EventId, Message, SimDuration, SimTime};

/// Exponentially weighted moving average with α = ¼; the first sample
/// seeds the estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ewma(Option<f64>);

impl Ewma {
    /// Blends `sample` in: ¾ of the estimate so far, ¼ of the sample.
    pub fn observe(&mut self, sample: f64) {
        let prev = self.0.unwrap_or(sample);
        self.0 = Some(0.75 * prev + 0.25 * sample);
    }

    /// The estimate; `None` before the first sample.
    pub fn get(&self) -> Option<f64> {
        self.0
    }
}

/// One coalescing doorbell: the arrival-gap estimate that sizes its hold
/// and the timer event currently armed for it.
///
/// Both ends of a Clio link coalesce small packets into shared frames, and
/// both decide how long to wait for company the same way: the CN's request
/// doorbell (per MN) and the MN's egress doorbell (per CN) are each one
/// `Doorbell`. The rule lives here, once:
///
/// * **Budget** — the most latency a hold may add is a quarter of the
///   link's measured round trip, capped, and **zero without a measurement**
///   ([`budget`](Self::budget)): nothing is ever held on an uncalibrated
///   link. Which measurement and which cap is the caller's business (the
///   CN passes its congestion window's srtt, the MN the srtt the CN echoed
///   or else its own turnaround estimate).
/// * **Hold** — within the budget, wait as long as the observed arrival
///   rate needs to fill the frame's free slots, and not at all when
///   arrivals come no faster than the budget or there is no history
///   ([`hold`](Self::hold), fed by [`observe`](Self::observe)).
/// * **Armed event** — at most one timer per doorbell, remembered with its
///   fire time so the owner can re-ring earlier ([`arm`](Self::arm)),
///   [`cancel`](Self::cancel) it, or forget it ([`disarm`](Self::disarm)).
#[derive(Debug, Clone, Default)]
pub struct Doorbell {
    /// When the last arrival was observed.
    last: Option<SimTime>,
    /// Gap between consecutive arrivals, in nanoseconds.
    gap: Ewma,
    /// The armed timer: `(fire time, event)`.
    armed: Option<(SimTime, EventId)>,
}

impl Doorbell {
    /// The latency budget a doorbell may spend given the link's round-trip
    /// `signal`: a quarter of it, at most `cap`, and zero while there is no
    /// sample yet.
    pub fn budget(signal: Option<SimDuration>, cap: SimDuration) -> SimDuration {
        signal.map_or(SimDuration::ZERO, |rtt| (rtt / 4).min(cap))
    }

    /// Records an arrival at `at`, feeding the gap estimate. Arrivals may
    /// be observed out of order (datapath completion times are): an earlier
    /// `at` than the last one counts as a zero gap.
    pub fn observe(&mut self, at: SimTime) {
        if let Some(prev) = self.last.replace(at) {
            self.gap.observe(at.since(prev).as_nanos() as f64);
        }
    }

    /// When the last arrival was observed (for idle pruning).
    pub fn last_observed(&self) -> Option<SimTime> {
        self.last
    }

    /// How long to hold for company with `slots` free in the frame: the
    /// time the observed arrival rate needs to fill them, capped by
    /// `budget` — and zero when arrivals come no faster than the budget
    /// (waiting out a sparse stream delays the lone packet for nothing),
    /// when the frame is full, or without gap history.
    pub fn hold(&self, budget: SimDuration, slots: usize) -> SimDuration {
        match self.gap.get() {
            Some(gap) if slots > 0 && gap > 0.0 && gap < budget.as_nanos() as f64 => {
                SimDuration::from_nanos((gap * slots as f64) as u64).min(budget)
            }
            _ => SimDuration::ZERO,
        }
    }

    /// Fire time of the armed timer, if one is armed.
    pub fn armed(&self) -> Option<SimTime> {
        self.armed.map(|(at, _)| at)
    }

    /// Arms the doorbell to deliver `msg` to the calling actor at `at`,
    /// cancelling the timer armed before (if any).
    pub fn arm(&mut self, ctx: &mut Ctx<'_>, at: SimTime, msg: Message) {
        self.cancel(ctx);
        self.armed = Some((at, ctx.send_at(ctx.self_id(), at, msg)));
    }

    /// Cancels the armed timer, if any.
    pub fn cancel(&mut self, ctx: &mut Ctx<'_>) {
        if let Some((_, event)) = self.armed.take() {
            ctx.cancel(event);
        }
    }

    /// Forgets the armed timer without cancelling it: it is the one firing
    /// now, or its owner pumps early and lets it fire as a no-op.
    pub fn disarm(&mut self) {
        self.armed = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_sim::{Actor, Simulation};

    const US: SimDuration = SimDuration::from_micros(1);

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn observed(times: &[u64]) -> Doorbell {
        let mut bell = Doorbell::default();
        for &t in times {
            bell.observe(at(t));
        }
        bell
    }

    #[test]
    fn budget_is_a_capped_quarter_and_zero_without_a_sample() {
        let cap = US * 4;
        assert_eq!(Doorbell::budget(None, cap), SimDuration::ZERO, "never hold blind");
        assert_eq!(Doorbell::budget(Some(US * 8), cap), US * 2, "signal / 4 below the cap");
        assert_eq!(Doorbell::budget(Some(US * 16), cap), cap, "exactly at the cap");
        assert_eq!(Doorbell::budget(Some(US * 400), cap), cap, "the cap above it");
    }

    #[test]
    fn first_gap_seeds_the_ewma_and_later_gaps_blend() {
        let mut e = Ewma::default();
        assert_eq!(e.get(), None);
        e.observe(100.0);
        assert_eq!(e.get(), Some(100.0), "first sample seeds");
        e.observe(200.0);
        assert_eq!(e.get(), Some(0.75 * 100.0 + 0.25 * 200.0));
        // Through the doorbell: one arrival is no gap; two make the first.
        assert_eq!(observed(&[1000]).gap.get(), None);
        assert_eq!(observed(&[1000, 1100]).gap.get(), Some(100.0));
        assert_eq!(observed(&[1000, 1100, 1300]).gap.get(), Some(125.0));
    }

    #[test]
    fn out_of_order_arrival_is_a_zero_gap() {
        let bell = observed(&[1000, 1100, 1050]);
        assert_eq!(bell.gap.get(), Some(75.0), "100 blended with a zero gap");
        assert_eq!(bell.last_observed(), Some(at(1050)), "the last arrival, not the latest");
    }

    #[test]
    fn hold_is_zero_without_budget_slots_history_or_density() {
        let dense = observed(&[0, 100]); // 100 ns gap
        assert_eq!(dense.hold(SimDuration::ZERO, 8), SimDuration::ZERO, "zero budget");
        assert_eq!(dense.hold(US, 0), SimDuration::ZERO, "zero free slots");
        assert_eq!(observed(&[0]).hold(US, 8), SimDuration::ZERO, "no gap history");
        assert_eq!(observed(&[0, 0]).hold(US, 8), SimDuration::ZERO, "same-instant arrivals");
        let sparse = observed(&[0, 1000]);
        assert_eq!(sparse.hold(US, 8), SimDuration::ZERO, "gap equal to the budget");
        assert_eq!(observed(&[0, 5000]).hold(US, 8), SimDuration::ZERO, "gap above the budget");
    }

    #[test]
    fn hold_is_gap_times_slots_capped_by_the_budget() {
        let bell = observed(&[0, 100]);
        assert_eq!(bell.hold(US, 3), SimDuration::from_nanos(300));
        assert_eq!(bell.hold(US, 10), US, "exactly the budget");
        assert_eq!(bell.hold(US, 15), US, "capped by the budget");
    }

    /// Arms on the first message, then — driven by later messages — re-arms
    /// earlier, cancels, or pumps early.
    struct Ringer {
        bell: Doorbell,
        fired: Vec<(SimTime, &'static str)>,
    }

    impl Actor for Ringer {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let now = ctx.now();
            match *msg.downcast_ref::<&'static str>().expect("script step") {
                "arm+500" => self.bell.arm(ctx, now + SimDuration::from_nanos(500), ring("late")),
                "arm+100" => self.bell.arm(ctx, now + SimDuration::from_nanos(100), ring("early")),
                "cancel" => self.bell.cancel(ctx),
                "disarm" => self.bell.disarm(),
                fired => {
                    self.bell.disarm();
                    self.fired.push((now, fired));
                }
            }
        }
    }

    fn ring(tag: &'static str) -> Message {
        Message::new(tag)
    }

    fn run(script: &[&'static str]) -> (Vec<(SimTime, &'static str)>, Option<SimTime>) {
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Ringer { bell: Doorbell::default(), fired: vec![] });
        for step in script {
            sim.post(id, Message::new(*step));
            sim.step();
        }
        let armed_after_script = sim.actor::<Ringer>(id).bell.armed();
        sim.run_until_idle();
        (sim.actor::<Ringer>(id).fired.clone(), armed_after_script)
    }

    #[test]
    fn arm_replaces_cancel_silences_and_disarm_lets_the_timer_fire() {
        let (fired, armed) = run(&["arm+500"]);
        assert_eq!((fired, armed), (vec![(at(500), "late")], Some(at(500))));
        // Re-arming earlier cancels the later timer: one ring, not two.
        let (fired, armed) = run(&["arm+500", "arm+100"]);
        assert_eq!((fired, armed), (vec![(at(100), "early")], Some(at(100))));
        let (fired, armed) = run(&["arm+500", "cancel"]);
        assert_eq!((fired, armed), (vec![], None));
        // Forgetting is not cancelling: the event still arrives.
        let (fired, armed) = run(&["arm+500", "disarm"]);
        assert_eq!((fired, armed), (vec![(at(500), "late")], None));
    }
}
