//! Dynamically-typed messages exchanged between actors.

use std::any::Any;
use std::fmt;

use crate::table::{mix_bytes, MIX_SEED};

/// What a [`Message`] needs of the value it wraps, erased behind one vtable:
/// the downcast (through the [`Any`] supertrait), a deep copy, the type name
/// (for debugging) and the type's hash the event digest folds in.
trait Payload: Any {
    fn clone_box(&self) -> Box<dyn Payload>;
    fn type_name(&self) -> &'static str;
    fn type_hash(&self) -> u64;
}

impl<T: Clone + 'static> Payload for T {
    fn clone_box(&self) -> Box<dyn Payload> {
        Box::new(self.clone())
    }

    fn type_name(&self) -> &'static str {
        std::any::type_name::<T>()
    }

    fn type_hash(&self) -> u64 {
        // The name is a constant of each monomorphised copy, so the fold
        // over it is too.
        mix_bytes(MIX_SEED, std::any::type_name::<T>().as_bytes())
    }
}

/// A type-erased message delivered to an [`Actor`](crate::Actor).
///
/// Each crate defines its own concrete message types (network frames, DRAM
/// completions, timer ticks, ...) and wraps them in a `Message` to cross the
/// actor boundary; the receiver downcasts back to the concrete type. The
/// original type name is retained for debugging.
///
/// A message is `Clone` (the wrapped type's own `Clone`, captured when the
/// message is built), so a pending event queue can be copied whole — see
/// [`Simulation::fork`](crate::Simulation::fork).
pub struct Message(Box<dyn Payload>);

impl Message {
    /// Wraps a concrete value into a type-erased message.
    #[inline]
    pub fn new<T: Clone + 'static>(value: T) -> Self {
        Message(Box::new(value))
    }

    fn as_any(&self) -> &dyn Any {
        &*self.0
    }

    /// The `std::any::type_name` of the wrapped value (for tracing/debugging).
    #[inline]
    pub fn type_name(&self) -> &'static str {
        (*self.0).type_name()
    }

    /// [`mix_bytes`] of the wrapped value's [`type_name`](Self::type_name)
    /// from [`MIX_SEED`]: one word per message type, which the event digest
    /// folds.
    #[inline]
    pub(crate) fn type_hash(&self) -> u64 {
        (*self.0).type_hash()
    }

    /// Returns `true` if the wrapped value is a `T`.
    #[inline]
    pub fn is<T: 'static>(&self) -> bool {
        self.as_any().is::<T>()
    }

    /// Attempts to take the wrapped value out as a `T`.
    ///
    /// # Errors
    ///
    /// Returns the message unchanged if the wrapped value is not a `T`, so
    /// that dispatch code can try the next candidate type.
    #[inline]
    pub fn downcast<T: 'static>(self) -> Result<T, Message> {
        if !self.is::<T>() {
            return Err(self);
        }
        let any: Box<dyn Any> = self.0;
        Ok(*any.downcast::<T>().expect("type checked above"))
    }

    /// Borrows the wrapped value as a `T`, if it is one.
    #[inline]
    pub fn downcast_ref<T: 'static>(&self) -> Option<&T> {
        self.as_any().downcast_ref::<T>()
    }

    /// Mutably borrows the wrapped value as a `T`, if it is one.
    #[inline]
    pub fn downcast_mut<T: 'static>(&mut self) -> Option<&mut T> {
        let any: &mut dyn Any = &mut *self.0;
        any.downcast_mut::<T>()
    }
}

impl Clone for Message {
    fn clone(&self) -> Self {
        Message((*self.0).clone_box())
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Message").field("type", &self.type_name()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Ping(u32);

    #[test]
    fn downcast_success_and_failure() {
        let m = Message::new(Ping(7));
        assert!(m.is::<Ping>());
        assert!(!m.is::<u32>());
        assert_eq!(m.downcast_ref::<Ping>(), Some(&Ping(7)));
        let m = m.downcast::<u32>().unwrap_err();
        assert_eq!(m.downcast::<Ping>().unwrap(), Ping(7));
    }

    #[test]
    fn downcast_mut_mutates() {
        let mut m = Message::new(Ping(1));
        m.downcast_mut::<Ping>().unwrap().0 = 9;
        assert_eq!(m.downcast::<Ping>().unwrap(), Ping(9));
    }

    #[test]
    fn clone_copies_the_value_and_aliases_nothing() {
        let mut m = Message::new(vec![1u8, 2]);
        let c = m.clone();
        m.downcast_mut::<Vec<u8>>().unwrap().push(3);
        assert_eq!(c.type_name(), m.type_name());
        assert_eq!(c.downcast::<Vec<u8>>().unwrap(), vec![1, 2]);
        assert_eq!(m.downcast::<Vec<u8>>().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn a_message_is_one_fat_pointer() {
        assert_eq!(std::mem::size_of::<Message>(), 16);
    }

    #[test]
    fn debug_includes_type_name() {
        let m = Message::new(Ping(0));
        let dbg = format!("{m:?}");
        assert!(dbg.contains("Ping"), "{dbg}");
    }
}
