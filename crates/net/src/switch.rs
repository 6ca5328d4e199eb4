//! The top-of-rack switch actor.

use clio_sim::resource::SerialResource;
use clio_sim::{Actor, ActorId, Bandwidth, Ctx, IdMap, Message, SimDuration};

use crate::chaos::LinkCommand;
use crate::frame::{Frame, Mac};

/// Frame fault injection applied at a port's egress: probabilistic loss,
/// corruption and jitter, plus a deterministic "corrupt the next N frames"
/// counter for tests that need a reproducible corruption burst.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultInjector {
    /// Probability a frame is silently dropped.
    pub loss_prob: f64,
    /// Probability a frame is delivered with a failing integrity check.
    pub corrupt_prob: f64,
    /// Extra uniformly-random delivery delay in `[0, jitter]`; non-zero
    /// jitter reorders frames.
    pub jitter: SimDuration,
    /// Deterministically corrupt the next this-many frames through the
    /// port (decremented as they pass, independent of `corrupt_prob` and
    /// the RNG). Tests use it to force a corruption storm on an exact,
    /// reproducible window of frames.
    pub corrupt_next: u32,
}

impl FaultInjector {
    /// No faults at all (the default).
    pub fn none() -> Self {
        Self::default()
    }
}

/// Per-port delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Frames forwarded out of this port.
    pub tx_frames: u64,
    /// Wire bytes forwarded out of this port.
    pub tx_bytes: u64,
    /// Frames dropped by egress-queue overflow. **Always 0:** every egress
    /// queue is unbounded, as on the paper's PFC lossless Ethernet, where a
    /// burst waits instead of dropping; the field stays only until
    /// `benchmark/`, which reads it, can drop it in the same change.
    pub dropped_overflow: u64,
    /// Frames dropped by fault injection.
    pub dropped_fault: u64,
    /// Frames dropped because the link was administratively down
    /// (a [`LinkCommand::Down`] chaos event), counted at whichever side
    /// of the crossbar the down link was on.
    pub dropped_link_down: u64,
    /// Frames delivered corrupted by fault injection.
    pub corrupted: u64,
}

/// Switch-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchConfig {
    /// Fixed per-frame forwarding latency (lookup + crossbar).
    pub forwarding_latency: SimDuration,
    /// Propagation delay from the switch to any attached endpoint.
    pub propagation_delay: SimDuration,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        // A cut-through ToR switch port-to-port latency of ~300 ns and an
        // intra-rack cable + endpoint SerDes of ~250 ns (calibrated so a
        // warm 16 B Clio read lands at the paper's ~2.5 us median).
        SwitchConfig {
            forwarding_latency: SimDuration::from_nanos(300),
            propagation_delay: SimDuration::from_nanos(250),
        }
    }
}

#[derive(Debug)]
struct Port {
    endpoint: ActorId,
    rate: Bandwidth,
    egress: SerialResource,
    faults: FaultInjector,
    stats: PortStats,
    link_up: bool,
}

/// A store-and-forward switch connecting all endpoints of the fabric.
///
/// Endpoints are registered with [`Switch::register_port`] (usually through
/// [`Network`](crate::Network)); frames sent to the switch actor are looked
/// up by destination MAC, serialized onto the destination port at its line
/// rate, and delivered to the endpoint actor after the propagation delay.
#[derive(Debug)]
pub struct Switch {
    config: SwitchConfig,
    ports: IdMap<Mac, Port>,
}

impl Switch {
    /// Creates a switch with the given fixed latencies.
    pub fn new(config: SwitchConfig) -> Self {
        Switch { config, ports: IdMap::default() }
    }

    /// Attaches `endpoint` to the fabric as `mac`, with an unbounded egress
    /// queue at `rate` and `faults`.
    ///
    /// # Panics
    ///
    /// Panics if `mac` is already registered.
    pub fn register_port(
        &mut self,
        mac: Mac,
        endpoint: ActorId,
        rate: Bandwidth,
        faults: FaultInjector,
    ) {
        let prev = self.ports.insert(
            mac,
            Port {
                endpoint,
                rate,
                egress: SerialResource::new(),
                faults,
                stats: PortStats::default(),
                link_up: true,
            },
        );
        assert!(prev.is_none(), "duplicate port registration for {mac}");
    }

    /// Updates the fault injector on an existing port (tests flip faults on
    /// and off mid-run).
    ///
    /// # Panics
    ///
    /// Panics if `mac` is not registered.
    pub fn set_faults(&mut self, mac: Mac, faults: FaultInjector) {
        self.ports.get_mut(&mac).expect("unknown port").faults = faults;
    }

    /// Delivery statistics for a port.
    ///
    /// # Panics
    ///
    /// Panics if `mac` is not registered.
    pub fn port_stats(&self, mac: Mac) -> PortStats {
        self.ports.get(&mac).expect("unknown port").stats
    }

    /// The line rate configured for a port.
    ///
    /// # Panics
    ///
    /// Panics if `mac` is not registered.
    pub fn port_rate(&self, mac: Mac) -> Bandwidth {
        self.ports.get(&mac).expect("unknown port").rate
    }

    /// Whether the link toward `mac` is administratively up.
    ///
    /// # Panics
    ///
    /// Panics if `mac` is not registered.
    pub fn link_up(&self, mac: Mac) -> bool {
        self.ports.get(&mac).expect("unknown port").link_up
    }

    /// Applies a chaos [`LinkCommand`] (also reachable by posting the
    /// command to the switch actor, which is how [`ChaosSchedule`]
    /// installs flaps).
    ///
    /// [`ChaosSchedule`]: crate::ChaosSchedule
    ///
    /// # Panics
    ///
    /// Panics if the command names an unregistered port.
    pub fn apply_link_command(&mut self, cmd: LinkCommand) {
        match cmd {
            LinkCommand::Down(mac) => {
                self.ports.get_mut(&mac).expect("unknown port").link_up = false;
            }
            LinkCommand::Up(mac) => {
                self.ports.get_mut(&mac).expect("unknown port").link_up = true;
            }
            LinkCommand::SetJitter(mac, jitter) => {
                self.ports.get_mut(&mac).expect("unknown port").faults.jitter = jitter;
            }
        }
    }
}

impl Actor for Switch {
    fn name(&self) -> &str {
        "switch"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let mut msg = match msg.downcast::<LinkCommand>() {
            Ok(cmd) => return self.apply_link_command(cmd),
            Err(other) => other,
        };
        // The frame is edited in place and the original boxed message is
        // forwarded: a hop costs no allocation.
        let Some(frame) = msg.downcast_mut::<Frame>() else {
            panic!("switch received non-frame message: {msg:?}");
        };
        // A down ingress link: the frame never reached the crossbar.
        if let Some(src_port) = self.ports.get_mut(&frame.src) {
            if !src_port.link_up {
                src_port.stats.dropped_link_down += 1;
                return;
            }
        }
        let Some(port) = self.ports.get_mut(&frame.dst) else {
            // Unknown destination: drop (no flooding in this model).
            return;
        };
        // A down egress link: the frame black-holes at the port.
        if !port.link_up {
            port.stats.dropped_link_down += 1;
            return;
        }

        // Fault injection at egress.
        if ctx.rng().chance(port.faults.loss_prob) {
            port.stats.dropped_fault += 1;
            return;
        }
        if port.faults.corrupt_next > 0 {
            port.faults.corrupt_next -= 1;
            frame.corrupted = true;
            port.stats.corrupted += 1;
        } else if ctx.rng().chance(port.faults.corrupt_prob) {
            frame.corrupted = true;
            port.stats.corrupted += 1;
        }

        let ready = ctx.now() + self.config.forwarding_latency;
        let tx = port.egress.reserve(ready, port.rate.transfer_time(frame.wire_bytes as u64));
        port.stats.tx_frames += 1;
        port.stats.tx_bytes += frame.wire_bytes as u64;

        let mut deliver_at = tx.end + self.config.propagation_delay;
        if !port.faults.jitter.is_zero() {
            let extra = (ctx.rng().f64() * port.faults.jitter.as_nanos() as f64) as u64;
            deliver_at += SimDuration::from_nanos(extra);
        }
        let endpoint = port.endpoint;
        ctx.send_at(endpoint, deliver_at, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_sim::{SimTime, Simulation};

    /// Collects frames with arrival timestamps.
    struct Sink {
        got: Vec<(SimTime, u32, bool)>,
    }
    impl Actor for Sink {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let f = msg.downcast::<Frame>().expect("frame");
            self.got.push((ctx.now(), f.wire_bytes, f.corrupted));
        }
    }

    fn build(faults: FaultInjector) -> (Simulation, ActorId, ActorId) {
        let mut sim = Simulation::new(7);
        let sink = sim.add_actor(Sink { got: vec![] });
        let sw = sim.add_actor(Switch::new(SwitchConfig::default()));
        sim.actor_mut::<Switch>(sw).register_port(Mac(2), sink, Bandwidth::from_gbps(10), faults);
        (sim, sw, sink)
    }

    fn frame(bytes: u32) -> Message {
        Message::new(Frame::new(Mac(1), Mac(2), bytes, Message::new(())))
    }

    #[test]
    fn forwards_with_serialization_and_latency() {
        let (mut sim, sw, sink) = build(FaultInjector::none());
        sim.post(sw, frame(1250)); // 1 us at 10 Gbps
        sim.run_until_idle();
        let got = &sim.actor::<Sink>(sink).got;
        assert_eq!(got.len(), 1);
        // 300 ns forwarding + 1000 ns serialization + 250 ns propagation.
        assert_eq!(got[0].0, SimTime::from_nanos(1550));
    }

    #[test]
    fn back_to_back_frames_queue_on_egress() {
        let (mut sim, sw, sink) = build(FaultInjector::none());
        sim.post(sw, frame(1250));
        sim.post(sw, frame(1250));
        sim.run_until_idle();
        let got = &sim.actor::<Sink>(sink).got;
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].0 - got[0].0, SimDuration::from_nanos(1000));
    }

    #[test]
    fn lossless_never_drops() {
        let (mut sim, sw, sink) = build(FaultInjector::none());
        for _ in 0..100 {
            sim.post(sw, frame(1500));
        }
        sim.run_until_idle();
        assert_eq!(sim.actor::<Sink>(sink).got.len(), 100);
        let stats = sim.actor::<Switch>(sw).port_stats(Mac(2));
        assert_eq!(stats.tx_frames, 100);
        assert_eq!(stats.tx_bytes, 150_000);
    }

    #[test]
    fn loss_injection_drops_roughly_at_rate() {
        let (mut sim, sw, sink) = build(FaultInjector { loss_prob: 0.5, ..FaultInjector::none() });
        for _ in 0..2000 {
            sim.post(sw, frame(100));
        }
        sim.run_until_idle();
        let n = sim.actor::<Sink>(sink).got.len();
        assert!((800..1200).contains(&n), "lossy delivery count {n}");
    }

    #[test]
    fn corrupt_next_is_deterministic_and_self_clearing() {
        let (mut sim, sw, sink) = build(FaultInjector { corrupt_next: 2, ..FaultInjector::none() });
        for _ in 0..5 {
            sim.post(sw, frame(100));
        }
        sim.run_until_idle();
        let got = &sim.actor::<Sink>(sink).got;
        assert_eq!(got.len(), 5);
        let corrupted: Vec<bool> = got.iter().map(|(_, _, c)| *c).collect();
        assert_eq!(corrupted, [true, true, false, false, false], "exactly the next 2 frames");
        assert_eq!(sim.actor::<Switch>(sw).port_stats(Mac(2)).corrupted, 2);
    }

    #[test]
    fn corruption_marks_frames() {
        let (mut sim, sw, sink) =
            build(FaultInjector { corrupt_prob: 1.0, ..FaultInjector::none() });
        sim.post(sw, frame(100));
        sim.run_until_idle();
        assert!(sim.actor::<Sink>(sink).got[0].2, "frame should be corrupted");
    }

    #[test]
    fn jitter_can_reorder() {
        let (mut sim, sw, sink) =
            build(FaultInjector { jitter: SimDuration::from_micros(100), ..FaultInjector::none() });
        for i in 0..50u32 {
            sim.post_in(sw, SimDuration::from_nanos(i as u64), frame(64 + i));
        }
        sim.run_until_idle();
        let got = &sim.actor::<Sink>(sink).got;
        assert_eq!(got.len(), 50);
        let sizes: Vec<u32> = got.iter().map(|(_, b, _)| *b).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_ne!(sizes, sorted, "jitter should reorder some frames");
    }

    #[test]
    fn link_down_black_holes_until_link_up() {
        let (mut sim, sw, sink) = build(FaultInjector::none());
        sim.actor_mut::<Switch>(sw).apply_link_command(LinkCommand::Down(Mac(2)));
        sim.post(sw, frame(100));
        sim.run_until_idle();
        assert!(sim.actor::<Sink>(sink).got.is_empty(), "down link must drop");
        assert_eq!(sim.actor::<Switch>(sw).port_stats(Mac(2)).dropped_link_down, 1);
        assert!(!sim.actor::<Switch>(sw).link_up(Mac(2)));

        // A LinkCommand posted as a message restores delivery.
        sim.post(sw, Message::new(LinkCommand::Up(Mac(2))));
        sim.post(sw, frame(100));
        sim.run_until_idle();
        assert_eq!(sim.actor::<Sink>(sink).got.len(), 1, "restored link delivers");
        assert!(sim.actor::<Switch>(sw).link_up(Mac(2)));
    }

    #[test]
    fn delay_spike_sets_and_clears_jitter() {
        let (mut sim, sw, sink) = build(FaultInjector::none());
        let spike = SimDuration::from_micros(100);
        sim.post(sw, Message::new(LinkCommand::SetJitter(Mac(2), spike)));
        for i in 0..50u32 {
            sim.post_in(sw, SimDuration::from_nanos(1 + i as u64), frame(64 + i));
        }
        sim.run_until_idle();
        let sizes: Vec<u32> = sim.actor::<Sink>(sink).got.iter().map(|(_, b, _)| *b).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_ne!(sizes, sorted, "spike jitter should reorder some frames");

        sim.post(sw, Message::new(LinkCommand::SetJitter(Mac(2), SimDuration::ZERO)));
        sim.run_until_idle();
        let before = sim.actor::<Sink>(sink).got.len();
        for i in 0..10u32 {
            sim.post_in(sw, SimDuration::from_nanos(1 + i as u64), frame(200 + i));
        }
        sim.run_until_idle();
        let after: Vec<u32> =
            sim.actor::<Sink>(sink).got[before..].iter().map(|(_, b, _)| *b).collect();
        let mut after_sorted = after.clone();
        after_sorted.sort_unstable();
        assert_eq!(after, after_sorted, "cleared spike delivers in order");
    }

    #[test]
    fn unknown_destination_is_dropped() {
        let (mut sim, sw, sink) = build(FaultInjector::none());
        sim.post(sw, Message::new(Frame::new(Mac(1), Mac(99), 64, Message::new(()))));
        sim.run_until_idle();
        assert!(sim.actor::<Sink>(sink).got.is_empty());
    }
}
