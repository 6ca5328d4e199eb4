//! Link-layer frames and MAC addressing.

use std::fmt;

use clio_sim::Message;

/// A link-layer address identifying one attachment point on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Mac(pub u32);

impl fmt::Display for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mac:{:04x}", self.0)
    }
}

/// One Ethernet frame in flight.
///
/// `wire_bytes` is the frame's full footprint on the wire (payload encoding
/// plus Ethernet overhead) and drives all serialization-time math; the
/// `payload` is the structured content delivered to the receiving endpoint.
/// A frame whose `corrupted` flag is set arrives, but its link-layer
/// integrity check fails at the receiver (Clio MNs answer these with a NACK,
/// §4.4).
#[derive(Debug, Clone)]
pub struct Frame {
    /// Source attachment point.
    pub src: Mac,
    /// Destination attachment point.
    pub dst: Mac,
    /// Total bytes this frame occupies on the wire.
    pub wire_bytes: u32,
    /// Set by fault injection: the receiver's CRC check will fail.
    pub corrupted: bool,
    /// The structured content (e.g. a `clio_proto::ClioPacket`).
    pub payload: Message,
}

impl Frame {
    /// Builds a frame carrying `payload` with an explicit wire footprint.
    pub fn new(src: Mac, dst: Mac, wire_bytes: u32, payload: Message) -> Self {
        Frame { src, dst, wire_bytes, corrupted: false, payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_construction() {
        let f = Frame::new(Mac(1), Mac(2), 100, Message::new(42u32));
        assert_eq!(f.src, Mac(1));
        assert_eq!(f.dst, Mac(2));
        assert_eq!(f.wire_bytes, 100);
        assert!(!f.corrupted);
        assert_eq!(f.payload.downcast_ref::<u32>(), Some(&42));
    }

    #[test]
    fn mac_display() {
        assert_eq!(Mac(0xAB).to_string(), "mac:00ab");
    }
}
