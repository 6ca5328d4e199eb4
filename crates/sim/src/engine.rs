//! The discrete-event simulation engine: event queue, actors and dispatch.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::message::Message;
use crate::rng::SimRng;
use crate::table::IdSet;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

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

struct QueuedEvent {
    at: SimTime,
    seq: u64,
    id: EventId,
    src: Option<ActorId>,
    dst: ActorId,
    msg: Message,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Earliest time first; FIFO (sequence order) among simultaneous events.
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The scheduling core shared between the engine and actor contexts.
struct SimCore {
    now: SimTime,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    next_seq: u64,
    cancelled: IdSet<EventId>,
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
        let id = EventId(seq);
        self.queue.push(Reverse(QueuedEvent { at, seq, id, src, dst, msg }));
        id
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
        self.core.cancelled.insert(id);
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
    names: Vec<String>,
}

impl Simulation {
    /// Creates an empty simulation whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Simulation {
            core: SimCore {
                now: SimTime::ZERO,
                queue: BinaryHeap::new(),
                next_seq: 0,
                cancelled: IdSet::default(),
                rng: SimRng::new(seed),
                digest: 0xcbf2_9ce4_8422_2325, // FNV offset basis
                events_dispatched: 0,
            },
            actors: Vec::new(),
            names: Vec::new(),
        }
    }

    /// Registers an actor and returns its id.
    pub fn add_actor<A: Actor>(&mut self, actor: A) -> ActorId {
        self.add_boxed_actor(Box::new(actor))
    }

    /// Registers a boxed actor and returns its id.
    pub fn add_boxed_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.names.push(actor.name().to_owned());
        self.actors.push(Some(actor));
        id
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.core.events_dispatched
    }

    /// An order-sensitive FNV-1a digest over `(time, destination, message
    /// type)` of every dispatched event. Two runs with identical seeds and
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

    /// Cancels a scheduled event from outside actor context.
    pub fn cancel(&mut self, id: EventId) {
        self.core.cancelled.insert(id);
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
        while let Some(Reverse(ev)) = self.core.queue.peek() {
            if !self.core.cancelled.contains(&ev.id) {
                return Some(ev.at);
            }
            let Some(Reverse(ev)) = self.core.queue.pop() else { unreachable!("peeked") };
            self.core.cancelled.remove(&ev.id);
        }
        None
    }

    /// Delivers the next pending event. Returns `false` if the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if an event addresses an unregistered actor.
    pub fn step(&mut self) -> bool {
        loop {
            let Some(Reverse(ev)) = self.core.queue.pop() else {
                return false;
            };
            if self.core.cancelled.remove(&ev.id) {
                continue;
            }
            debug_assert!(ev.at >= self.core.now, "time went backwards");
            self.core.now = ev.at;
            self.core.events_dispatched += 1;
            // FNV-1a over (time, dst, type name) for the determinism digest.
            let mut h = self.core.digest;
            for b in ev
                .at
                .as_nanos()
                .to_le_bytes()
                .iter()
                .chain((ev.dst.0 as u64).to_le_bytes().iter())
                .chain(ev.msg.type_name().as_bytes())
            {
                h ^= *b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            self.core.digest = h;

            let slot = ev.dst.index();
            let mut actor = self.actors[slot]
                .take()
                .unwrap_or_else(|| panic!("message to unregistered/executing {}", ev.dst));
            {
                let mut ctx = Ctx { core: &mut self.core, self_id: ev.dst, src: ev.src };
                actor.on_message(&mut ctx, ev.msg);
            }
            self.actors[slot] = Some(actor);
            return true;
        }
    }

    /// Runs until the queue is exhausted.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Runs until the clock reaches `deadline` (events at exactly `deadline`
    /// are delivered). Later events remain queued; the clock is advanced to
    /// `deadline` if it ran idle before then.
    pub fn run_until(&mut self, deadline: SimTime) {
        // Peek past cancelled heads: a cancelled event at the queue head
        // must not cause `step` to deliver a live event beyond `deadline`.
        while let Some(at) = self.peek_next_event_time() {
            if at > deadline {
                break;
            }
            self.step();
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

    /// The number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// The registered name of an actor.
    pub fn actor_name(&self, id: ActorId) -> &str {
        &self.names[id.index()]
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.core.now)
            .field("actors", &self.actors.len())
            .field("pending_events", &self.core.queue.len())
            .field("events_dispatched", &self.core.events_dispatched)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the payloads and times at which it receives u64 messages.
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
    fn run_for_advances_relative() {
        let mut sim = Simulation::new(1);
        sim.run_for(SimDuration::from_micros(5));
        assert_eq!(sim.now().as_nanos(), 5000);
        sim.run_for(SimDuration::from_micros(5));
        assert_eq!(sim.now().as_nanos(), 10000);
    }
}
