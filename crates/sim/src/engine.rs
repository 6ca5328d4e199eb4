//! The discrete-event simulation engine: event queue, actors and dispatch.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::message::Message;
use crate::rng::SimRng;
use crate::table::{mix, mix_bytes, MIX_SEED};
use crate::time::{SimDuration, SimTime};

/// Identifies an actor registered with a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(u32);

impl ActorId {
    /// The raw index (useful for keying per-actor tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Identifies a scheduled event, so it can be cancelled before delivery.
///
/// Names the event's sequence number and the slab slot that holds it, so a
/// cancel is one indexed compare; ids order by scheduling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

/// A simulation participant. Actors receive [`Message`]s and react by
/// mutating their own state and scheduling further messages through [`Ctx`].
///
/// Actors must be `'static` (they are stored as trait objects for the whole
/// simulation) but need not be `Send`: the engine is single-threaded. The
/// [`std::any::Any`] supertrait lets tests and harnesses inspect concrete
/// actor state through [`Simulation::actor`].
pub trait Actor: std::any::Any {
    /// A short human-readable name used in traces and panics.
    fn name(&self) -> &str {
        "actor"
    }

    /// Handles one delivered message at the current virtual time.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message);
}

/// What the heap orders: earliest time first, FIFO (sequence order) among
/// simultaneous events. 24 bytes, so sifts move keys, never payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// One slab entry: the payload of a pending event, or vacant.
#[derive(Clone)]
struct Slot {
    /// Sequence number of the event held here; [`VACANT`] when free. A heap
    /// key or an [`EventId`] whose `seq` differs names an event that was
    /// already delivered or cancelled.
    seq: u64,
    src: Option<ActorId>,
    dst: ActorId,
    msg: Option<Message>,
}

/// `Slot::seq` of a free slot (never issued: `next_seq` counts up from 0).
const VACANT: u64 = u64::MAX;

/// A popped event on its way to its actor.
struct Due {
    at: SimTime,
    src: Option<ActorId>,
    dst: ActorId,
    msg: Message,
}

/// The scheduling core shared between the engine and actor contexts.
///
/// # Event-queue invariants
///
/// * Every pending event owns exactly one slot and one heap key carrying
///   the slot's `seq`; delivery and cancellation vacate the slot at once
///   (dropping the message) and recycle it.
/// * A heap key is *dead* iff its slot's `seq` differs from its own. `dead`
///   counts them; they are skipped when they surface and swept by
///   [`SimCore::cancel`] before they outnumber the live keys, so cancelled
///   timers deepen the heap by at most one level.
/// * Cancelling an id whose event is gone finds a vacant or re-issued slot
///   and changes nothing.
/// * A clone is the same queue: same slots, same free-list order, same
///   `next_seq`, so every [`EventId`] issued before the copy names the same
///   event in both, and both hand out the same ids from there on.
#[derive(Clone)]
struct SimCore {
    now: SimTime,
    queue: BinaryHeap<Reverse<Key>>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    dead: usize,
    next_seq: u64,
    rng: SimRng,
    digest: u64,
    events_dispatched: u64,
}

impl SimCore {
    fn schedule(
        &mut self,
        src: Option<ActorId>,
        dst: ActorId,
        at: SimTime,
        msg: Message,
    ) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let filled = Slot { seq, src, dst, msg: Some(msg) };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = filled;
                slot
            }
            None => {
                self.slots.push(filled);
                (self.slots.len() - 1) as u32
            }
        };
        self.queue.push(Reverse(Key { at, seq, slot }));
        EventId { seq, slot }
    }

    /// Vacates `slot`, returning what it held.
    fn vacate(&mut self, slot: u32) -> Option<Message> {
        let s = &mut self.slots[slot as usize];
        s.seq = VACANT;
        self.free.push(slot);
        s.msg.take()
    }

    fn cancel(&mut self, id: EventId) {
        if self.slots.get(id.slot as usize).is_none_or(|s| s.seq != id.seq) {
            return; // delivered or cancelled already
        }
        self.vacate(id.slot);
        self.dead += 1;
        if self.dead > 32 && self.dead * 2 > self.queue.len() {
            let slots = &self.slots;
            self.queue.retain(|Reverse(k)| slots[k.slot as usize].seq == k.seq);
            self.dead = 0;
        }
    }

    /// Pops the earliest live event if it is due by `deadline`, discarding
    /// dead keys that surface on the way.
    fn pop_due(&mut self, deadline: SimTime) -> Option<Due> {
        loop {
            let Reverse(key) = *self.queue.peek()?;
            let live = self.slots[key.slot as usize].seq == key.seq;
            if live && key.at > deadline {
                return None;
            }
            self.queue.pop();
            if !live {
                self.dead -= 1;
                continue;
            }
            let (src, dst) = {
                let s = &self.slots[key.slot as usize];
                (s.src, s.dst)
            };
            let msg = self.vacate(key.slot).expect("live slot holds its message");
            return Some(Due { at: key.at, src, dst, msg });
        }
    }
}

/// The capabilities an actor has while handling a message: reading the clock,
/// sending messages, scheduling timers, cancelling events and drawing random
/// numbers.
pub struct Ctx<'a> {
    core: &'a mut SimCore,
    self_id: ActorId,
    src: Option<ActorId>,
}

impl Ctx<'_> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The actor handling the current message.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// The actor that sent the current message, if it was sent by an actor
    /// (as opposed to posted externally).
    pub fn sender(&self) -> Option<ActorId> {
        self.src
    }

    /// Sends `msg` to `dst`, to be delivered after `delay`.
    pub fn send(&mut self, dst: ActorId, delay: SimDuration, msg: Message) -> EventId {
        let at = self.core.now + delay;
        self.core.schedule(Some(self.self_id), dst, at, msg)
    }

    /// Sends `msg` to `dst`, to be delivered at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn send_at(&mut self, dst: ActorId, at: SimTime, msg: Message) -> EventId {
        assert!(at >= self.core.now, "cannot schedule into the past");
        self.core.schedule(Some(self.self_id), dst, at, msg)
    }

    /// Schedules `msg` back to the current actor after `delay` (a timer).
    pub fn schedule(&mut self, delay: SimDuration, msg: Message) -> EventId {
        self.send(self.self_id, delay, msg)
    }

    /// Cancels a previously scheduled event. Cancelling an already-delivered
    /// or already-cancelled event is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.core.cancel(id);
    }

    /// The simulation's deterministic random-number generator.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }
}

/// A deterministic discrete-event simulation.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct Simulation {
    core: SimCore,
    actors: Vec<Option<Box<dyn Actor>>>,
}

impl Simulation {
    /// Creates an empty simulation whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Simulation {
            core: SimCore {
                now: SimTime::ZERO,
                queue: BinaryHeap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                dead: 0,
                next_seq: 0,
                rng: SimRng::new(seed),
                digest: MIX_SEED,
                events_dispatched: 0,
            },
            actors: Vec::new(),
        }
    }

    /// Registers an actor and returns its id.
    pub fn add_actor<A: Actor>(&mut self, actor: A) -> ActorId {
        self.add_boxed_actor(Box::new(actor))
    }

    /// Registers a boxed actor and returns its id.
    pub fn add_boxed_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(Some(actor));
        id
    }

    /// Copies the simulation at this instant: clock, pending events (each
    /// message through its own `Clone`), cancelled-event bookkeeping, RNG
    /// state, digest and event count. The two then run independently, and
    /// given the same inputs, identically.
    ///
    /// The engine cannot copy a `dyn Actor`, so the caller — which knows
    /// the concrete types it registered — passes the copies in `actors`,
    /// in [`ActorId`] order. [`EventId`]s held inside those copies stay
    /// valid in the fork (and only act on the fork).
    ///
    /// # Panics
    ///
    /// Panics if `actors` does not hold one actor per registered actor.
    pub fn fork(&self, actors: Vec<Box<dyn Actor>>) -> Simulation {
        assert_eq!(actors.len(), self.actors.len(), "fork needs a copy of every actor");
        Simulation { core: self.core.clone(), actors: actors.into_iter().map(Some).collect() }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.core.events_dispatched
    }

    /// An order-sensitive digest over `(time, destination, message type
    /// name)` of every dispatched event, folded with
    /// [`mix`](crate::table::mix): the time and the destination one word
    /// each, the name 8 bytes per step. Two runs with identical seeds and
    /// identical actor logic produce identical digests; used by determinism
    /// tests.
    pub fn digest(&self) -> u64 {
        self.core.digest
    }

    /// Direct access to the simulation RNG (e.g. for seeding workloads).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }

    /// Borrows a registered actor, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not registered, the actor is currently executing, or
    /// the concrete type is not `A`.
    pub fn actor<A: Actor>(&self, id: ActorId) -> &A {
        let a = self.actors[id.index()].as_ref().expect("actor is executing");
        let any: &dyn std::any::Any = a.as_ref();
        any.downcast_ref::<A>().expect("actor type mismatch")
    }

    /// Mutably borrows a registered actor, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics as for [`Simulation::actor`].
    pub fn actor_mut<A: Actor>(&mut self, id: ActorId) -> &mut A {
        let a = self.actors[id.index()].as_mut().expect("actor is executing");
        let any: &mut dyn std::any::Any = a.as_mut();
        any.downcast_mut::<A>().expect("actor type mismatch")
    }

    /// Posts a message to `dst` for delivery at the current time (used to
    /// kick off a simulation from outside any actor).
    pub fn post(&mut self, dst: ActorId, msg: Message) -> EventId {
        let now = self.core.now;
        self.core.schedule(None, dst, now, msg)
    }

    /// Posts a message to `dst` for delivery after `delay`.
    pub fn post_in(&mut self, dst: ActorId, delay: SimDuration, msg: Message) -> EventId {
        let at = self.core.now + delay;
        self.core.schedule(None, dst, at, msg)
    }

    /// Cancels a scheduled event from outside actor context. Cancelling an
    /// already-delivered or already-cancelled event is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.core.cancel(id);
    }

    /// The delivery time of the next pending (non-cancelled) event, or
    /// `None` when the simulation is quiescent.
    ///
    /// Cancelled events sitting at the head of the queue are discarded as a
    /// side effect (exactly as [`step`](Self::step) would skip them), which
    /// is why this takes `&mut self`. This is the settle/decision hook the
    /// model checker builds on: "run until the next event is further than a
    /// horizon away" identifies the points where all internal cascades
    /// (doorbells, NIC serialization, datapath completions) have drained
    /// and only long timers or explorer-controlled deliveries remain.
    pub fn peek_next_event_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse(key)) = self.core.queue.peek() {
            if self.core.slots[key.slot as usize].seq == key.seq {
                return Some(key.at);
            }
            self.core.queue.pop();
            self.core.dead -= 1;
        }
        None
    }

    /// Delivers the next pending event. Returns `false` if the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if an event addresses an unregistered actor.
    pub fn step(&mut self) -> bool {
        match self.core.pop_due(SimTime::MAX) {
            Some(ev) => {
                self.dispatch(ev);
                true
            }
            None => false,
        }
    }

    fn dispatch(&mut self, ev: Due) {
        debug_assert!(ev.at >= self.core.now, "time went backwards");
        self.core.now = ev.at;
        self.core.events_dispatched += 1;
        // The determinism digest: time, destination, then the type name,
        // one word per step.
        let h = mix(mix(self.core.digest, ev.at.as_nanos()), ev.dst.0 as u64);
        self.core.digest = mix_bytes(h, ev.msg.type_name().as_bytes());

        let slot = ev.dst.index();
        let mut actor = self.actors[slot]
            .take()
            .unwrap_or_else(|| panic!("message to unregistered/executing {}", ev.dst));
        {
            let mut ctx = Ctx { core: &mut self.core, self_id: ev.dst, src: ev.src };
            actor.on_message(&mut ctx, ev.msg);
        }
        self.actors[slot] = Some(actor);
    }

    /// Runs until the queue is exhausted.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Runs until the clock reaches `deadline` (events at exactly `deadline`
    /// are delivered). Later events remain queued; the clock is advanced to
    /// `deadline` if it ran idle before then.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(ev) = self.core.pop_due(deadline) {
            self.dispatch(ev);
        }
        if self.core.now < deadline {
            self.core.now = deadline;
        }
    }

    /// Runs for `d` of virtual time from the current instant.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.core.now + d;
        self.run_until(deadline);
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.core.now)
            .field("actors", &self.actors.len())
            .field("pending_events", &(self.core.queue.len() - self.core.dead))
            .field("cancelled_pending", &self.core.dead)
            .field("events_dispatched", &self.core.events_dispatched)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the payloads and times at which it receives u64 messages.
    #[derive(Clone)]
    struct Recorder {
        seen: Vec<(SimTime, u64)>,
    }
    impl Actor for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let v = msg.downcast::<u64>().expect("u64");
            self.seen.push((ctx.now(), v));
        }
    }

    #[test]
    fn events_deliver_in_time_order_with_fifo_ties() {
        let mut sim = Simulation::new(1);
        let r = sim.add_actor(Recorder { seen: vec![] });
        sim.post_in(r, SimDuration::from_nanos(10), Message::new(2u64));
        sim.post_in(r, SimDuration::from_nanos(5), Message::new(1u64));
        sim.post_in(r, SimDuration::from_nanos(10), Message::new(3u64));
        sim.run_until_idle();
        let rec = sim.actor::<Recorder>(r);
        assert_eq!(
            rec.seen,
            vec![
                (SimTime::from_nanos(5), 1),
                (SimTime::from_nanos(10), 2),
                (SimTime::from_nanos(10), 3),
            ]
        );
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut sim = Simulation::new(1);
        let r = sim.add_actor(Recorder { seen: vec![] });
        let keep = sim.post_in(r, SimDuration::from_nanos(1), Message::new(1u64));
        let drop_ = sim.post_in(r, SimDuration::from_nanos(2), Message::new(2u64));
        sim.cancel(drop_);
        let _ = keep;
        sim.run_until_idle();
        assert_eq!(sim.actor::<Recorder>(r).seen.len(), 1);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(1);
        let r = sim.add_actor(Recorder { seen: vec![] });
        sim.post_in(r, SimDuration::from_nanos(5), Message::new(1u64));
        sim.post_in(r, SimDuration::from_nanos(50), Message::new(2u64));
        sim.run_until(SimTime::from_nanos(10));
        assert_eq!(sim.now(), SimTime::from_nanos(10));
        assert_eq!(sim.actor::<Recorder>(r).seen.len(), 1);
        sim.run_until_idle();
        assert_eq!(sim.actor::<Recorder>(r).seen.len(), 2);
    }

    struct Echo {
        peer: ActorId,
        limit: u64,
    }
    impl Actor for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let v = msg.downcast::<u64>().expect("u64");
            assert_eq!(ctx.sender().is_some(), v > 0, "first message is external");
            if v < self.limit {
                ctx.send(self.peer, SimDuration::from_nanos(3), Message::new(v + 1));
            }
        }
    }

    #[test]
    fn ping_pong_advances_clock() {
        let mut sim = Simulation::new(7);
        let a = sim.add_actor(Echo { peer: ActorId(1), limit: 10 });
        let b = sim.add_actor(Echo { peer: ActorId(0), limit: 10 });
        assert_eq!(b, ActorId(1));
        sim.post(a, Message::new(0u64));
        sim.run_until_idle();
        // 10 hops of 3 ns each.
        assert_eq!(sim.now(), SimTime::from_nanos(30));
        assert_eq!(sim.events_dispatched(), 11);
    }

    #[test]
    fn identical_seeds_give_identical_digests() {
        let run = |seed| {
            let mut sim = Simulation::new(seed);
            let a = sim.add_actor(Echo { peer: ActorId(1), limit: 50 });
            let b = sim.add_actor(Echo { peer: ActorId(0), limit: 50 });
            let _ = (a, b);
            sim.post(ActorId(0), Message::new(0u64));
            sim.run_until_idle();
            sim.digest()
        };
        assert_eq!(run(3), run(3));
    }

    /// Two payload types whose names have equal length and share far more
    /// than their first 8 bytes (`clio_sim::engine::tests::Ping…`).
    #[derive(Clone)]
    struct PingAlpha;
    #[derive(Clone)]
    struct PingOmega;

    struct Sink;
    impl Actor for Sink {
        fn on_message(&mut self, _: &mut Ctx<'_>, _: Message) {}
    }

    #[test]
    fn the_digest_tells_apart_time_destination_and_message_type() {
        assert_eq!(
            std::any::type_name::<PingAlpha>().len(),
            std::any::type_name::<PingOmega>().len()
        );
        let one_event = |delay: u64, dst: u32, msg: Message| {
            let mut sim = Simulation::new(1);
            sim.add_actor(Sink);
            sim.add_actor(Sink);
            sim.post_in(ActorId(dst), SimDuration::from_nanos(delay), msg);
            sim.run_until_idle();
            assert_eq!(sim.events_dispatched(), 1);
            sim.digest()
        };
        let base = one_event(5, 0, Message::new(PingAlpha));
        assert_eq!(base, one_event(5, 0, Message::new(PingAlpha)), "not deterministic");
        assert_ne!(base, one_event(6, 0, Message::new(PingAlpha)), "time not folded");
        assert_ne!(base, one_event(5, 1, Message::new(PingAlpha)), "destination not folded");
        assert_ne!(base, one_event(5, 0, Message::new(PingOmega)), "type name not folded");
    }

    #[test]
    fn timers_fire_on_self() {
        struct Timer {
            fired_at: Option<SimTime>,
        }
        impl Actor for Timer {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
                if msg.is::<&'static str>() {
                    ctx.schedule(SimDuration::from_micros(1), Message::new(1u8));
                } else {
                    self.fired_at = Some(ctx.now());
                }
            }
        }
        let mut sim = Simulation::new(1);
        let t = sim.add_actor(Timer { fired_at: None });
        sim.post(t, Message::new("arm"));
        sim.run_until_idle();
        assert_eq!(sim.actor::<Timer>(t).fired_at, Some(SimTime::from_nanos(1000)));
    }

    #[test]
    fn peek_skips_cancelled_and_reports_quiescence() {
        let mut sim = Simulation::new(1);
        let r = sim.add_actor(Recorder { seen: vec![] });
        let first = sim.post_in(r, SimDuration::from_nanos(5), Message::new(1u64));
        sim.post_in(r, SimDuration::from_nanos(9), Message::new(2u64));
        sim.cancel(first);
        // The cancelled head is skipped: the next live event is at 9 ns.
        assert_eq!(sim.peek_next_event_time(), Some(SimTime::from_nanos(9)));
        assert!(sim.step());
        assert_eq!(sim.actor::<Recorder>(r).seen, vec![(SimTime::from_nanos(9), 2)]);
        assert_eq!(sim.peek_next_event_time(), None, "quiescent after last delivery");
    }

    #[test]
    fn run_until_does_not_overshoot_past_cancelled_head() {
        let mut sim = Simulation::new(1);
        let r = sim.add_actor(Recorder { seen: vec![] });
        let head = sim.post_in(r, SimDuration::from_nanos(5), Message::new(1u64));
        sim.post_in(r, SimDuration::from_nanos(50), Message::new(2u64));
        sim.cancel(head);
        // Only a cancelled event lies within the deadline: nothing may be
        // delivered, and the event at 50 ns must stay queued.
        sim.run_until(SimTime::from_nanos(10));
        assert_eq!(sim.actor::<Recorder>(r).seen.len(), 0);
        assert_eq!(sim.now(), SimTime::from_nanos(10));
        sim.run_until_idle();
        assert_eq!(sim.actor::<Recorder>(r).seen, vec![(SimTime::from_nanos(50), 2)]);
    }

    #[test]
    fn cancelling_delivered_events_leaves_no_bookkeeping() {
        let mut sim = Simulation::new(1);
        let r = sim.add_actor(Recorder { seen: vec![] });
        let ids: Vec<EventId> = (0..10_000u64)
            .map(|i| sim.post_in(r, SimDuration::from_nanos(i % 97), Message::new(i)))
            .collect();
        sim.run_until_idle();
        assert_eq!(sim.actor::<Recorder>(r).seen.len(), 10_000);
        for id in ids {
            sim.cancel(id); // documented no-op: the event is long gone
        }
        assert_eq!((sim.core.queue.len(), sim.core.dead), (0, 0), "residual cancel state");
        assert_eq!(sim.core.free.len(), sim.core.slots.len(), "a slot is still held");
        // The stale cancels must not have poisoned the recycled slots.
        sim.post_in(r, SimDuration::from_nanos(1), Message::new(7u64));
        sim.run_until_idle();
        assert_eq!(sim.actor::<Recorder>(r).seen.len(), 10_001);
    }

    #[test]
    fn cancel_then_reschedule_reuses_the_slot_under_a_new_id() {
        let mut sim = Simulation::new(1);
        let r = sim.add_actor(Recorder { seen: vec![] });
        let old = sim.post_in(r, SimDuration::from_nanos(50), Message::new(1u64));
        sim.cancel(old);
        let new = sim.post_in(r, SimDuration::from_nanos(20), Message::new(2u64));
        assert_eq!(new.slot, old.slot, "the vacated slot is recycled at once");
        assert_ne!(new, old);
        sim.cancel(old); // a stale id must not hit the slot's new tenant
        sim.run_until_idle();
        assert_eq!(sim.actor::<Recorder>(r).seen, vec![(SimTime::from_nanos(20), 2)]);
        sim.cancel(new); // delivered: no-op
        assert_eq!((sim.core.queue.len(), sim.core.dead), (0, 0));
    }

    #[test]
    fn equal_time_events_stay_fifo_with_cancellations_interleaved() {
        let mut sim = Simulation::new(1);
        let r = sim.add_actor(Recorder { seen: vec![] });
        let at = SimDuration::from_nanos(10);
        let mut expect = Vec::new();
        let mut doomed = Vec::new();
        for i in 0..200u64 {
            let id = sim.post_in(r, at, Message::new(i));
            if i % 3 == 1 {
                doomed.push(id);
            } else {
                expect.push((SimTime::from_nanos(10), i));
            }
            // Cancel in bursts while posting, so recycled slots sit among
            // live same-time events and the dead-key sweep runs mid-stream.
            if i % 50 == 49 {
                doomed.drain(..).for_each(|id| sim.cancel(id));
            }
        }
        sim.run_until_idle();
        assert_eq!(sim.actor::<Recorder>(r).seen, expect);
    }

    #[test]
    fn cancelled_timers_are_swept_before_they_outnumber_live_events() {
        let mut sim = Simulation::new(1);
        let r = sim.add_actor(Recorder { seen: vec![] });
        for i in 0..100u64 {
            sim.post_in(r, SimDuration::from_micros(1 + i), Message::new(i));
        }
        for i in 0..10_000u64 {
            let t = sim.post_in(r, SimDuration::from_micros(500), Message::new(i));
            sim.cancel(t);
            assert!(sim.core.dead * 2 <= sim.core.queue.len().max(64), "dead keys pile up");
        }
        sim.run_until_idle();
        assert_eq!(sim.actor::<Recorder>(r).seen.len(), 100);
        assert_eq!(
            sim.now(),
            SimTime::from_nanos(100_000),
            "no cancelled timer advanced the clock"
        );
    }

    #[test]
    fn fork_copies_live_and_cancelled_timers_and_keeps_event_ids_valid() {
        // Eight timers, one cancelled (a dead heap key and a free slot),
        // two delivered (two more free slots): the state a fork must copy.
        let build = || {
            let mut sim = Simulation::new(1);
            let r = sim.add_actor(Recorder { seen: vec![] });
            let ids: Vec<EventId> = (0..8u64)
                .map(|i| sim.post_in(r, SimDuration::from_nanos(10 + i), Message::new(i)))
                .collect();
            sim.cancel(ids[2]);
            sim.run_until(SimTime::from_nanos(11));
            (sim, r, ids)
        };
        let finish = |mut sim: Simulation, r: ActorId| {
            sim.run_until_idle();
            let seen = sim.actor::<Recorder>(r).seen.clone();
            (seen, sim.digest(), sim.events_dispatched(), sim.now())
        };
        let (mut parent, r, ids) = build();
        let copy = parent.actor::<Recorder>(r).clone();
        let mut fork = parent.fork(vec![Box::new(copy)]);
        assert_eq!(fork.digest(), parent.digest());
        assert_eq!(fork.peek_next_event_time(), parent.peek_next_event_time());

        // Same free-list order: both recycle the same slot under the same id.
        let late = SimDuration::from_nanos(100);
        assert_eq!(
            fork.post_in(r, late, Message::new(99u64)),
            parent.post_in(r, late, Message::new(99u64))
        );
        // An id issued before the fork cancels in the copy, and only there.
        fork.cancel(ids[5]);
        fork.cancel(ids[2]); // cancelled before the fork: still a no-op

        // Each ran on exactly as a never-forked simulation given the same
        // inputs does: same deliveries, digest, event count and clock.
        let (mut reference, r2, ids2) = build();
        reference.post_in(r2, late, Message::new(99u64));
        let parent = finish(parent, r);
        assert_eq!(parent, finish(reference, r2));
        let payloads = |seen: &[(SimTime, u64)]| seen.iter().map(|&(_, v)| v).collect::<Vec<_>>();
        assert_eq!(payloads(&parent.0), [0, 1, 3, 4, 5, 6, 7, 99]);

        let (mut reference, r2, _) = build();
        reference.post_in(r2, late, Message::new(99u64));
        reference.cancel(ids2[5]);
        let fork = finish(fork, r);
        assert_eq!(fork, finish(reference, r2));
        assert_eq!(payloads(&fork.0), [0, 1, 3, 4, 6, 7, 99]);
    }

    #[test]
    fn run_for_advances_relative() {
        let mut sim = Simulation::new(1);
        sim.run_for(SimDuration::from_micros(5));
        assert_eq!(sim.now().as_nanos(), 5000);
        sim.run_for(SimDuration::from_micros(5));
        assert_eq!(sim.now().as_nanos(), 10000);
    }
}
