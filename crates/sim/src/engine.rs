//! The discrete-event simulation engine: event queue, actors and dispatch.

use crate::message::Message;
use crate::rng::SimRng;
use crate::table::{mix, MIX_SEED};
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

/// What the queue orders: earliest time first, FIFO (sequence order) among
/// simultaneous events. 24 bytes, so sifts move keys, never payloads. The
/// slot index is a full word so that a key has no padding: a sift reading
/// back a key just pushed then reads only bytes the push wrote, which the
/// CPU forwards from its store buffer instead of stalling.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u64,
}

impl Key {
    /// `(at, seq)` as one number, so that ordering two keys is one
    /// branch-free compare.
    fn rank(&self) -> u128 {
        u128::from(self.at.as_nanos()) << 64 | u128::from(self.seq)
    }
}

/// One slab entry: the payload of a pending event, or vacant.
#[derive(Clone)]
struct Slot {
    /// Sequence number of the event held here; [`VACANT`] when free. An
    /// [`EventId`] whose `seq` differs names an event that was already
    /// delivered or cancelled.
    seq: u64,
    src: Option<ActorId>,
    dst: ActorId,
    /// The index of the event's key in the heap.
    pos: u32,
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
/// * The heap holds live keys only. Each slot records its key's heap index
///   (`pos`), which every sift keeps current, so a cancel takes the key out
///   with one sift.
/// * Cancelling an id whose event is gone finds a vacant or re-issued slot
///   and changes nothing.
/// * A clone is the same queue: same slots, same free-list order, same
///   `next_seq`, so every [`EventId`] issued before the copy names the same
///   event in both, and both hand out the same ids from there on.
#[derive(Clone)]
struct SimCore {
    now: SimTime,
    /// A binary min-heap; `slots[key.slot].pos` is each key's index.
    heap: Vec<Key>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    next_seq: u64,
    rng: SimRng,
    digest: u64,
    events_scheduled: u64,
    events_cancelled: u64,
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
        self.events_scheduled += 1;
        let filled = Slot { seq, src, dst, pos: 0, msg: Some(msg) };
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
        self.heap.push(Key { at, seq, slot: slot.into() });
        self.sift_up(self.heap.len() - 1);
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
        let Some(s) = self.slots.get(id.slot as usize).filter(|s| s.seq == id.seq) else {
            return; // delivered or cancelled already
        };
        let pos = s.pos;
        self.vacate(id.slot);
        self.events_cancelled += 1;
        self.heap_remove(pos as usize);
    }

    /// Puts `key` at heap index `i` and records the index in its slot.
    fn place(&mut self, i: usize, key: Key) {
        self.heap[i] = key;
        self.slots[key.slot as usize].pos = i as u32;
    }

    /// Moves the key at heap index `i` up past every later parent.
    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let above = self.heap[parent];
            if above.rank() < key.rank() {
                break;
            }
            self.place(i, above);
            i = parent;
        }
        self.place(i, key);
    }

    /// Moves the key at heap index `i` down past every earlier child.
    fn sift_down(&mut self, mut i: usize) {
        let key = self.heap[i];
        let n = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n {
                child += usize::from(self.heap[child + 1].rank() < self.heap[child].rank());
            }
            let below = self.heap[child];
            if key.rank() < below.rank() {
                break;
            }
            self.place(i, below);
            i = child;
        }
        self.place(i, key);
    }

    /// Takes the key at heap index `i` out: the last key fills the hole and
    /// sifts whichever way restores the order.
    fn heap_remove(&mut self, i: usize) {
        let last = self.heap.pop().expect("the heap holds the key");
        if i < self.heap.len() {
            self.heap[i] = last;
            if i > 0 && last.rank() < self.heap[(i - 1) / 2].rank() {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
    }

    /// Pops the earliest pending event if it is due by `deadline`.
    fn pop_due(&mut self, deadline: SimTime) -> Option<Due> {
        let key = *self.heap.first()?;
        if key.at > deadline {
            return None;
        }
        self.heap_remove(0);
        let (src, dst) = {
            let s = &self.slots[key.slot as usize];
            (s.src, s.dst)
        };
        let msg = self.vacate(key.slot as u32).expect("live slot holds its message");
        Some(Due { at: key.at, src, dst, msg })
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
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The actor handling the current message.
    #[inline]
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// The actor that sent the current message, if it was sent by an actor
    /// (as opposed to posted externally).
    pub fn sender(&self) -> Option<ActorId> {
        self.src
    }

    /// Sends `msg` to `dst`, to be delivered after `delay`.
    #[inline]
    pub fn send(&mut self, dst: ActorId, delay: SimDuration, msg: Message) -> EventId {
        let at = self.core.now + delay;
        self.core.schedule(Some(self.self_id), dst, at, msg)
    }

    /// Sends `msg` to `dst`, to be delivered at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    #[inline]
    pub fn send_at(&mut self, dst: ActorId, at: SimTime, msg: Message) -> EventId {
        assert!(at >= self.core.now, "cannot schedule into the past");
        self.core.schedule(Some(self.self_id), dst, at, msg)
    }

    /// Schedules `msg` back to the current actor after `delay` (a timer).
    #[inline]
    pub fn schedule(&mut self, delay: SimDuration, msg: Message) -> EventId {
        self.send(self.self_id, delay, msg)
    }

    /// Cancels a previously scheduled event. Cancelling an already-delivered
    /// or already-cancelled event is a no-op.
    #[inline]
    pub fn cancel(&mut self, id: EventId) {
        self.core.cancel(id);
    }

    /// The simulation's deterministic random-number generator.
    #[inline]
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
                heap: Vec::new(),
                slots: Vec::new(),
                free: Vec::new(),
                next_seq: 0,
                rng: SimRng::new(seed),
                digest: MIX_SEED,
                events_scheduled: 0,
                events_cancelled: 0,
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
    /// message through its own `Clone`), the free-slot list, RNG state,
    /// digest and event counts. The two then run independently, and
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

    /// Number of events scheduled so far: sent, posted or armed as timers.
    pub fn events_scheduled(&self) -> u64 {
        self.core.events_scheduled
    }

    /// Number of events cancelled before delivery. A cancel that finds its
    /// event already delivered or cancelled is not counted.
    pub fn events_cancelled(&self) -> u64 {
        self.core.events_cancelled
    }

    /// An order-sensitive digest over `(time, destination, message type)`
    /// of every dispatched event, folded with [`mix`](crate::table::mix) one
    /// word each: the type as [`mix_bytes`](crate::table::mix_bytes) of its
    /// name from [`MIX_SEED`]. Two runs with identical seeds and identical
    /// actor logic produce identical digests; used by determinism tests.
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
    /// This is the settle/decision hook the model checker builds on: "run
    /// until the next event is further than a horizon away" identifies the
    /// points where all internal cascades (doorbells, NIC serialization,
    /// datapath completions) have drained and only long timers or
    /// explorer-controlled deliveries remain.
    pub fn peek_next_event_time(&self) -> Option<SimTime> {
        self.core.heap.first().map(|key| key.at)
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
        // The determinism digest: time, destination, then the type's hash,
        // one word each.
        let h = mix(mix(self.core.digest, ev.at.as_nanos()), ev.dst.0 as u64);
        self.core.digest = mix(h, ev.msg.type_hash());

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
            .field("pending_events", &self.core.heap.len())
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
        assert!(sim.core.heap.is_empty(), "residual cancel state");
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
        assert!(sim.core.heap.is_empty());
        assert_eq!(sim.core.free.len(), 1);
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
            // live same-time events and keys leave the middle of the heap.
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
            assert_eq!(sim.core.heap.len(), 100, "a cancelled timer left a key behind");
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
        // Eight timers, one cancelled (a free slot, its key gone from the
        // heap), two delivered (two more free slots): the state a fork must copy.
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
    fn the_queue_counts_what_it_is_asked_to_do_and_a_fork_copies_the_counts() {
        let mut sim = Simulation::new(1);
        let r = sim.add_actor(Recorder { seen: vec![] });
        let ids: Vec<EventId> = (0..4u64)
            .map(|i| sim.post_in(r, SimDuration::from_nanos(10 * i), Message::new(i)))
            .collect();
        sim.cancel(ids[3]);
        sim.cancel(ids[3]); // already cancelled: not counted again
        sim.run_until(SimTime::from_nanos(10));
        sim.cancel(ids[0]); // delivered: not counted
        let counts =
            |s: &Simulation| (s.events_scheduled(), s.events_cancelled(), s.events_dispatched());
        assert_eq!(counts(&sim), (4, 1, 2));
        let copy = sim.actor::<Recorder>(r).clone();
        let mut fork = sim.fork(vec![Box::new(copy)]);
        assert_eq!(counts(&fork), (4, 1, 2));
        fork.cancel(ids[2]);
        assert_eq!((counts(&fork), counts(&sim)), ((4, 2, 2), (4, 1, 2)));
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

#[cfg(test)]
mod queue_model {
    //! The event queue against a model. Random interleavings of `schedule`
    //! (zero delays, equal times, monotone and non-monotone `at`), `cancel` (of
    //! live, delivered, stale and already-cancelled ids), `run_until`, `step`,
    //! `peek_next_event_time` and `fork` must deliver exactly what a
    //! `BTreeMap<(at, seq), _>` delivers, in the parent and in every fork, and
    //! the heap must hold exactly the model's keys, each at the index its
    //! slot records.
    //!
    //! Cases are drawn from [`SimRng`] seeds (this crate does not depend on the
    //! vendored proptest). A failing case is cut to its shortest failing prefix
    //! and reported with its seed.

    use std::collections::BTreeMap;

    use super::*;

    /// Records every `u64` it receives with the time it arrived.
    #[derive(Clone)]
    struct Log(Vec<(SimTime, u64)>);

    impl Actor for Log {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            self.0.push((ctx.now(), msg.downcast::<u64>().expect("u64")));
        }
    }

    /// When a scheduled event is due.
    #[derive(Debug, Clone, Copy)]
    enum When {
        /// Now.
        Zero,
        /// At the same instant as a pending event (the `n`-th, cyclically).
        SameAs(u64),
        /// Far ahead at a constant delay, as retransmit timers are: monotone.
        Late,
        /// A little ahead: interleaves with everything else.
        Near(u64),
    }

    /// One operation, applied to the twin `on` (taken modulo the twin count).
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Schedule {
            on: usize,
            when: When,
        },
        /// Cancel the latest id, or the `n`-th ever issued (cyclically).
        Cancel {
            on: usize,
            latest: bool,
            n: u64,
        },
        RunUntil {
            on: usize,
            ahead: u64,
        },
        Step {
            on: usize,
        },
        Peek {
            on: usize,
        },
        /// Arm `n` timers at the late delay, cancelling each at once, as a
        /// transport does whose requests all complete in time.
        Churn {
            on: usize,
            n: u64,
        },
        Fork {
            on: usize,
        },
    }

    const LATE: u64 = 1_000;
    const MAX_TWINS: usize = 4;

    fn draw(rng: &mut SimRng, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| {
                let on = rng.range_u64(0, MAX_TWINS as u64) as usize;
                match rng.range_u64(0, 100) {
                    0..45 => {
                        let when = match rng.range_u64(0, 100) {
                            0..10 => When::Zero,
                            10..35 => When::SameAs(rng.u64()),
                            35..60 => When::Late,
                            _ => When::Near(rng.range_u64(0, 40)),
                        };
                        Op::Schedule { on, when }
                    }
                    45..72 => Op::Cancel { on, latest: rng.chance(0.5), n: rng.u64() },
                    72..82 => Op::RunUntil { on, ahead: rng.range_u64(0, 60) },
                    82..92 => Op::Step { on },
                    92..95 => Op::Peek { on },
                    95..98 => Op::Churn { on, n: rng.range_u64(1, 48) },
                    _ => Op::Fork { on },
                }
            })
            .collect()
    }

    /// A simulation and the model it must agree with.
    struct Twin {
        sim: Simulation,
        log: ActorId,
        /// Pending events by `(at, seq)`; the value is the payload sent.
        model: BTreeMap<(SimTime, u64), u64>,
        /// Every id issued, with the model key it names.
        ids: Vec<(EventId, (SimTime, u64))>,
        next_seq: u64,
        now: SimTime,
        /// What the model says was delivered, in order.
        delivered: Vec<(SimTime, u64)>,
    }

    impl Twin {
        fn new() -> Twin {
            let mut sim = Simulation::new(1);
            let log = sim.add_actor(Log(Vec::new()));
            Twin {
                sim,
                log,
                model: BTreeMap::new(),
                ids: Vec::new(),
                next_seq: 0,
                now: SimTime::ZERO,
                delivered: Vec::new(),
            }
        }

        fn fork(&self) -> Twin {
            let log = self.sim.actor::<Log>(self.log).clone();
            Twin {
                sim: self.sim.fork(vec![Box::new(log)]),
                log: self.log,
                model: self.model.clone(),
                ids: self.ids.clone(),
                next_seq: self.next_seq,
                now: self.now,
                delivered: self.delivered.clone(),
            }
        }

        /// The model's `step`: deliver the earliest pending event.
        fn model_pop(&mut self) {
            if let Some(((at, _), v)) = self.model.pop_first() {
                self.now = at;
                self.delivered.push((at, v));
            }
        }

        fn apply(&mut self, op: Op) -> Result<(), String> {
            match op {
                Op::Schedule { when, .. } => {
                    let at = match when {
                        When::Zero => self.now,
                        When::SameAs(n) if !self.model.is_empty() => {
                            let i = (n % self.model.len() as u64) as usize;
                            self.model.keys().nth(i).expect("in range").0
                        }
                        When::SameAs(_) => self.now,
                        When::Late => self.now + SimDuration::from_nanos(LATE),
                        When::Near(d) => self.now + SimDuration::from_nanos(d),
                    };
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let id = self.sim.post_in(self.log, at - self.now, Message::new(seq));
                    self.model.insert((at, seq), seq);
                    self.ids.push((id, (at, seq)));
                }
                Op::Cancel { latest, n, .. } => {
                    if self.ids.is_empty() {
                        return Ok(());
                    }
                    let i = if latest {
                        self.ids.len() - 1
                    } else {
                        (n % self.ids.len() as u64) as usize
                    };
                    let (id, key) = self.ids[i];
                    self.sim.cancel(id);
                    self.model.remove(&key);
                }
                Op::RunUntil { ahead, .. } => {
                    let deadline = self.now + SimDuration::from_nanos(ahead);
                    self.sim.run_until(deadline);
                    while self.model.first_key_value().is_some_and(|(&(at, _), _)| at <= deadline) {
                        self.model_pop();
                    }
                    self.now = deadline;
                }
                Op::Step { .. } => {
                    if self.sim.step() == self.model.is_empty() {
                        return Err(format!("step disagrees on whether {:?} is idle", self.model));
                    }
                    self.model_pop();
                }
                Op::Peek { .. } => {
                    let next = self.model.first_key_value().map(|(&(at, _), _)| at);
                    let peeked = self.sim.peek_next_event_time();
                    if peeked != next {
                        return Err(format!("peeked {peeked:?}, model {next:?}"));
                    }
                }
                Op::Churn { on, n } => {
                    for _ in 0..n {
                        self.apply(Op::Schedule { on, when: When::Late })?;
                        self.apply(Op::Cancel { on, latest: true, n: 0 })?;
                    }
                }
                Op::Fork { .. } => unreachable!("forks are made by the caller"),
            }
            Ok(())
        }

        fn check(&self) -> Result<(), String> {
            let seen = &self.sim.actor::<Log>(self.log).0;
            if *seen != self.delivered {
                return Err(format!("delivered {seen:?}, model {:?}", self.delivered));
            }
            if self.sim.now() != self.now {
                return Err(format!("clock {:?}, model {:?}", self.sim.now(), self.now));
            }
            let core = &self.sim.core;
            if core.heap.len() != self.model.len() {
                return Err(format!("{} keys, model {}", core.heap.len(), self.model.len()));
            }
            for (i, key) in core.heap.iter().enumerate() {
                let slot = &core.slots[key.slot as usize];
                if (slot.seq, slot.pos as usize) != (key.seq, i) {
                    return Err(format!(
                        "key {key:?} at {i}: its slot has seq {}, pos {}",
                        slot.seq, slot.pos
                    ));
                }
            }
            Ok(())
        }
    }

    /// Runs `ops` from a fresh simulation, checking every twin after each one.
    fn run(ops: &[Op]) -> Result<(), String> {
        let mut twins = vec![Twin::new()];
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Fork { on } => {
                    if twins.len() < MAX_TWINS {
                        let fork = twins[on % twins.len()].fork();
                        twins.push(fork);
                    }
                }
                Op::Schedule { on, .. }
                | Op::Cancel { on, .. }
                | Op::RunUntil { on, .. }
                | Op::Step { on }
                | Op::Peek { on }
                | Op::Churn { on, .. } => {
                    let n = twins.len();
                    twins[on % n].apply(op).map_err(|e| format!("op {i} ({op:?}): {e}"))?;
                }
            }
            for (t, twin) in twins.iter().enumerate() {
                twin.check().map_err(|e| format!("after op {i} ({op:?}), twin {t}: {e}"))?;
            }
        }
        Ok(())
    }

    #[test]
    fn the_queue_delivers_what_a_sorted_map_model_delivers() {
        for seed in 0..400 {
            let ops = draw(&mut SimRng::new(seed), 240);
            if run(&ops).is_err() {
                let shortest = (1..=ops.len()).find(|&n| run(&ops[..n]).is_err()).expect("fails");
                let err = run(&ops[..shortest]).unwrap_err();
                panic!("seed {seed}, {shortest} ops: {err}\n{:#?}", &ops[..shortest]);
            }
        }
    }
}
