//! A schedule-controlled wire for model checking.
//!
//! [`VirtualWire`] replaces the stochastic [`Switch`](crate::Switch) +
//! [`FaultInjector`](crate::FaultInjector) pair with an *explorer-chosen*
//! schedule: endpoints transmit through it exactly as they would through a
//! switch (their [`NicPort`](crate::NicPort) is constructed with the wire's
//! actor id as its "switch"), but instead of forwarding, the wire **captures
//! every frame in flight**. An external scheduler — `clio_mc`'s bounded
//! explorer — inspects the captured set and decides, per decision point,
//! which frame is delivered next and with what fate: in order, reordered
//! ahead of an older frame, corrupted, dropped, or duplicated. That turns
//! the fault surface from a sampled probability into an enumerable choice.
//!
//! The wire deliberately has **no delivery logic of its own**: taking a
//! frame out ([`VirtualWire::take`]) and posting it to the destination
//! actor is the scheduler's job, which keeps every delivery an explicit,
//! replayable decision.
//!
//! Captured frames are shared between clones of a wire (the checker copies
//! the wire at every search node) until one side changes them: a clone
//! copies one pointer per frame, [`take`](VirtualWire::take) copies a frame
//! only if another clone still holds it, and
//! [`corrupt`](VirtualWire::corrupt) writes through `Rc::make_mut`. A
//! captured frame also carries a slot for a hash of its payload
//! ([`CapturedFrame::payload_hash`]): the scheduler fills it on first use,
//! and every clone sharing the frame reads it from there, so a frame's
//! payload is hashed once however many clones of the wire hold it.

use std::cell::Cell;
use std::rc::Rc;

use clio_sim::{Actor, ActorId, Ctx, IdMap, Message};

use crate::frame::{Frame, Mac};

/// A captured in-flight frame: the capture sequence number (monotonic per
/// wire, stable across replays of the same schedule), the frame itself, and
/// the cached hash of its payload.
#[derive(Debug, Clone)]
pub struct CapturedFrame {
    /// Monotonic capture sequence number (order the wire saw the frames).
    pub seq: u64,
    /// The captured frame, unmodified.
    pub frame: Frame,
    payload_hash: Cell<Option<u64>>,
}

impl CapturedFrame {
    fn new(seq: u64, frame: Frame) -> Rc<Self> {
        Rc::new(CapturedFrame { seq, frame, payload_hash: Cell::new(None) })
    }

    /// `of(payload)`, computed on the first call and kept with the frame:
    /// the wire never reads the value, and the payload never changes while
    /// the frame is captured, so every later call, on this wire or on a
    /// clone sharing the frame, returns the stored value. Each caller must
    /// always pass the same `of`. The value covers the payload only: `src`,
    /// `dst` and `corrupted` are the caller's to fold beside it, which is
    /// why [`VirtualWire::corrupt`] leaves it valid.
    pub fn payload_hash(&self, of: impl FnOnce(&Message) -> u64) -> u64 {
        let hash = self.payload_hash.get().unwrap_or_else(|| of(&self.frame.payload));
        self.payload_hash.set(Some(hash));
        hash
    }
}

/// A capture-everything wire whose deliveries are driven externally.
///
/// See the module docs for the model. Endpoints are registered with
/// [`attach`](Self::attach); every [`Frame`] sent to this actor is appended
/// to the pending list in capture order. The scheduler inspects
/// [`pending`](Self::pending), mutates fates via [`corrupt`](Self::corrupt),
/// and removes frames via [`take`](Self::take) to deliver or drop them.
#[derive(Debug, Clone, Default)]
pub struct VirtualWire {
    endpoints: IdMap<Mac, ActorId>,
    pending: Vec<Rc<CapturedFrame>>,
    /// The next capture's `seq`: also the frames captured over the wire's
    /// lifetime (delivered or not).
    next_seq: u64,
}

impl VirtualWire {
    /// Creates an empty wire with no endpoints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the actor that owns `mac`, so the scheduler can route a
    /// taken frame to `frame.dst`'s actor.
    pub fn attach(&mut self, mac: Mac, actor: ActorId) {
        self.endpoints.insert(mac, actor);
    }

    /// The actor registered for `mac`, if any.
    pub fn endpoint(&self, mac: Mac) -> Option<ActorId> {
        self.endpoints.get(&mac).copied()
    }

    /// The captured frames still in flight, in capture order.
    pub fn pending(&self) -> &[Rc<CapturedFrame>] {
        &self.pending
    }

    /// Number of captured frames still in flight.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no captured frame is in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Total frames captured over the wire's lifetime.
    pub fn captured(&self) -> u64 {
        self.next_seq
    }

    /// Removes and returns the pending frame at `index` (capture order).
    /// The caller delivers it (post it to [`endpoint`](Self::endpoint) of
    /// `frame.dst`) or discards it (a drop fault).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn take(&mut self, index: usize) -> Frame {
        Rc::unwrap_or_clone(self.pending.remove(index)).frame
    }

    /// Injects a frame directly into the pending list — an
    /// explorer-synthesized duplicate of a frame still in flight — and
    /// returns its capture sequence number. Unlike frames arriving through
    /// [`Actor::on_message`], injection is immediate (no simulation event),
    /// so replays of the same schedule assign the same sequence numbers.
    pub fn inject(&mut self, frame: Frame) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(CapturedFrame::new(seq, frame));
        seq
    }

    /// Marks the pending frame at `index` as corrupted (its link-layer
    /// integrity check will fail at the receiver).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn corrupt(&mut self, index: usize) {
        Rc::make_mut(&mut self.pending[index]).frame.corrupted = true;
    }

    /// True if a pending frame older than `index` shares its destination —
    /// i.e. delivering `index` now would reorder that link.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn delivery_reorders(&self, index: usize) -> bool {
        let dst = self.pending[index].frame.dst;
        self.pending[..index].iter().any(|c| c.frame.dst == dst)
    }
}

impl Actor for VirtualWire {
    fn name(&self) -> &str {
        "virtual-wire"
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
        self.inject(msg.downcast::<Frame>().expect("VirtualWire only carries frames"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::NicPort;
    use clio_sim::{Bandwidth, SimDuration, Simulation};

    struct Sender {
        nic: NicPort,
    }
    impl Actor for Sender {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Message) {
            self.nic.send(ctx, Mac(2), 100, Message::new(7u32));
            self.nic.send(ctx, Mac(3), 100, Message::new(8u32));
            self.nic.send(ctx, Mac(2), 100, Message::new(9u32));
        }
    }

    struct Sink {
        got: Vec<u32>,
    }
    impl Actor for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
            let f = msg.downcast::<Frame>().expect("frame");
            self.got.push(*f.payload.downcast_ref::<u32>().expect("u32"));
        }
    }

    #[test]
    fn captures_in_order_and_replays_choices() {
        let mut sim = Simulation::new(1);
        let wire_id = sim.add_actor(VirtualWire::new());
        let sink2 = sim.add_actor(Sink { got: vec![] });
        let sink3 = sim.add_actor(Sink { got: vec![] });
        sim.actor_mut::<VirtualWire>(wire_id).attach(Mac(2), sink2);
        sim.actor_mut::<VirtualWire>(wire_id).attach(Mac(3), sink3);
        let nic =
            NicPort::new(Mac(1), Bandwidth::from_gbps(100), wire_id, SimDuration::from_nanos(5));
        let sender = sim.add_actor(Sender { nic });
        sim.post(sender, Message::new("go"));
        sim.run_until_idle();

        let wire = sim.actor::<VirtualWire>(wire_id);
        assert_eq!(wire.len(), 3);
        assert_eq!(wire.pending()[0].seq, 0);
        // Frame 2 (to Mac(2)) behind frame 0 (to Mac(2)): reordered if
        // delivered first. Frame 1 targets Mac(3): no reorder.
        assert!(!wire.delivery_reorders(0));
        assert!(!wire.delivery_reorders(1));
        assert!(wire.delivery_reorders(2));

        // Deliver the newest Mac(2) frame first (an explorer reorder), then
        // corrupt and deliver the older one.
        let wire = sim.actor_mut::<VirtualWire>(wire_id);
        let f = wire.take(2);
        let dst = wire.endpoint(f.dst).expect("attached");
        sim.post(dst, Message::new(f));
        let wire = sim.actor_mut::<VirtualWire>(wire_id);
        wire.corrupt(0);
        let f = wire.take(0);
        assert!(f.corrupted);
        let dst = sim.actor::<VirtualWire>(wire_id).endpoint(f.dst).expect("attached");
        sim.post(dst, Message::new(f));
        sim.run_until_idle();

        assert_eq!(sim.actor::<Sink>(sink2).got, vec![9, 7]);
        let wire = sim.actor::<VirtualWire>(wire_id);
        assert_eq!(wire.len(), 1, "the Mac(3) frame is still in flight");
        assert_eq!(wire.captured(), 3);
    }

    /// `(seq, corrupted, payload)` of each pending frame.
    fn frames(wire: &VirtualWire) -> Vec<(u64, bool, u32)> {
        let payload = |c: &CapturedFrame| *c.frame.payload.downcast_ref::<u32>().expect("u32");
        wire.pending().iter().map(|c| (c.seq, c.frame.corrupted, payload(c))).collect()
    }

    #[test]
    fn a_clone_shares_frames_until_either_side_changes_them() {
        let mut wire = VirtualWire::new();
        for (dst, payload) in [(2, 7u32), (3, 8), (2, 9)] {
            wire.inject(Frame::new(Mac(1), Mac(dst), 100, Message::new(payload)));
        }
        let before = frames(&wire);
        assert_eq!(before, vec![(0, false, 7), (1, false, 8), (2, false, 9)]);

        let mut copy = wire.clone();
        copy.corrupt(0);
        let taken = copy.take(1);
        assert_eq!(taken.payload.downcast_ref::<u32>(), Some(&8));
        assert_eq!(frames(&copy), vec![(0, true, 7), (2, false, 9)]);
        assert_eq!(frames(&wire), before, "the copy's corrupt and take reached the original");
        assert!(Rc::ptr_eq(&wire.pending()[2], &copy.pending()[1]), "an untouched frame is shared");

        wire.corrupt(2);
        assert_eq!(frames(&copy), vec![(0, true, 7), (2, false, 9)]);
    }

    #[test]
    fn a_payload_is_hashed_once_and_clones_share_the_value() {
        let mut wire = VirtualWire::new();
        for (dst, payload) in [(2, 7u32), (3, 8)] {
            wire.inject(Frame::new(Mac(1), Mac(dst), 100, Message::new(payload)));
        }
        let calls = Cell::new(0);
        let hash = |c: &CapturedFrame| {
            c.payload_hash(|payload| {
                calls.set(calls.get() + 1);
                u64::from(*payload.downcast_ref::<u32>().expect("u32"))
            })
        };
        let mut copy = wire.clone();
        assert_eq!(hash(&wire.pending()[0]), 7);
        assert_eq!(hash(&copy.pending()[0]), 7);
        assert_eq!(calls.get(), 1, "the clone read the value the original stored");

        // A corrupted copy keeps the value (it covers the payload only); a
        // frame taken from one clone leaves the other's frame and value.
        copy.corrupt(0);
        assert_eq!(hash(&copy.pending()[0]), 7);
        assert_eq!(hash(&wire.pending()[1]), 8);
        copy.take(1);
        assert_eq!(hash(&wire.pending()[1]), 8);
        assert_eq!(calls.get(), 2);

        // A re-injected frame starts with an empty slot.
        let again = wire.pending()[1].frame.clone();
        wire.inject(again);
        assert_eq!(hash(&wire.pending()[2]), 8);
        assert_eq!(calls.get(), 3);
    }
}
