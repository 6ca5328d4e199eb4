//! Endpoint-side NIC model.

use clio_sim::resource::SerialResource;
use clio_sim::{ActorId, Bandwidth, Ctx, Message, SimDuration, SimTime};

use crate::frame::{Frame, Mac};

/// The transmit side of an endpoint's network port.
///
/// A `NicPort` is owned (embedded) by a host actor — a compute node, a
/// CBoard, or a baseline server — rather than being an actor itself: the
/// host calls [`NicPort::send`] and the port handles serialization at line
/// rate plus the propagation delay to the switch. Receive-side frames are
/// delivered by the switch directly to the host actor as
/// [`Frame`] messages.
#[derive(Debug, Clone)]
pub struct NicPort {
    mac: Mac,
    rate: Bandwidth,
    switch: ActorId,
    propagation_delay: SimDuration,
    tx: SerialResource,
}

impl NicPort {
    /// Creates a port with address `mac` transmitting toward `switch` at
    /// `rate` with the given cable propagation delay.
    pub fn new(mac: Mac, rate: Bandwidth, switch: ActorId, propagation_delay: SimDuration) -> Self {
        NicPort { mac, rate, switch, propagation_delay, tx: SerialResource::new() }
    }

    /// This port's link-layer address.
    #[inline]
    pub fn mac(&self) -> Mac {
        self.mac
    }

    /// This port's line rate.
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// When the port finishes serializing what it was given so far: a
    /// frame handed to it earlier waits until then.
    #[inline]
    pub fn free_at(&self) -> SimTime {
        self.tx.free_at()
    }

    /// Queues `payload` (occupying `wire_bytes` on the wire) for `dst`.
    /// Returns the time the last bit leaves the NIC.
    #[inline]
    pub fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Mac,
        wire_bytes: u32,
        payload: Message,
    ) -> SimTime {
        self.send_at(ctx, ctx.now(), dst, wire_bytes, payload)
    }

    /// Like [`send`](Self::send) but the frame enters the NIC at `earliest`
    /// (used when host-side processing finishes after `ctx.now()`).
    #[inline]
    pub fn send_at(
        &mut self,
        ctx: &mut Ctx<'_>,
        earliest: SimTime,
        dst: Mac,
        wire_bytes: u32,
        payload: Message,
    ) -> SimTime {
        let start = earliest.max(ctx.now());
        let tx = self.tx.reserve(start, self.rate.transfer_time(wire_bytes as u64));
        let frame = Frame::new(self.mac, dst, wire_bytes, payload);
        ctx.send_at(self.switch, tx.end + self.propagation_delay, Message::new(frame));
        tx.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_sim::{Actor, Simulation};

    struct Host {
        nic: NicPort,
        send_count: u32,
        received: Vec<SimTime>,
    }
    impl Actor for Host {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if msg.is::<Frame>() {
                self.received.push(ctx.now());
            } else {
                for _ in 0..self.send_count {
                    self.nic.send(ctx, Mac(1), 1250, Message::new(()));
                }
            }
        }
    }

    struct Sink {
        times: Vec<SimTime>,
    }
    impl Actor for Sink {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            assert!(msg.is::<Frame>());
            self.times.push(ctx.now());
        }
    }

    #[test]
    fn nic_serializes_back_to_back_sends() {
        use crate::switch::{FaultInjector, Switch, SwitchConfig};
        let mut sim = Simulation::new(1);
        let sink = sim.add_actor(Sink { times: vec![] });
        let sw = sim.add_actor(Switch::new(SwitchConfig {
            forwarding_latency: SimDuration::ZERO,
            propagation_delay: SimDuration::ZERO,
        }));
        sim.actor_mut::<Switch>(sw).register_port(
            Mac(1),
            sink,
            Bandwidth::from_gbps(100),
            FaultInjector::none(),
        );
        // Host with a 10 Gbps NIC: 1250 B frames serialize in 1 us each.
        let nic = NicPort::new(Mac(0), Bandwidth::from_gbps(10), sw, SimDuration::from_nanos(50));
        let host = sim.add_actor(Host { nic, send_count: 3, received: vec![] });
        sim.post(host, Message::new("go"));
        sim.run_until_idle();
        let times = &sim.actor::<Sink>(sink).times;
        assert_eq!(times.len(), 3);
        // Frames reach the switch 1 us apart (NIC serialization dominates).
        assert_eq!(times[1].since(times[0]), SimDuration::from_micros(1));
        assert_eq!(times[2].since(times[1]), SimDuration::from_micros(1));
    }
}
