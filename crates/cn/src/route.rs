//! Choosing the memory node for an access (paper §4.7): each MN owns a
//! static slice of the address space, and a range migrated away from its
//! slice's owner is an exception, learned only from the controller's
//! `RouteUpdate` broadcast. Slices and exceptions are [`RangeMap`]s, and
//! CLib's router and the controller answer with one rule, [`resolve`].

use clio_net::Mac;
use clio_proto::{Pid, RangeMap};

use crate::error::ClioError;

/// The key every RAS slice is filed under: a slice is every process's.
pub const SLICE_KEY: Pid = Pid(0);

/// Routing table: RAS slices (static) + migrated-range exceptions.
#[derive(Debug, Clone, Default)]
pub(crate) struct RasRouter {
    slices: RangeMap<Mac>,
    exceptions: RangeMap<Mac>,
}

/// Routing verdict for a whole access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// One MN serves every byte of the access.
    Owned(Mac),
    /// The access straddles two owners: no single MN can serve it.
    Spans,
    /// No slice or exception covers the address.
    Unknown,
}

impl Route {
    /// The typed error an access with this (unroutable) verdict fails with.
    pub(crate) fn error(self, va: u64, len: u64) -> ClioError {
        match self {
            Route::Spans => ClioError::SpansOwners { va, len },
            _ => ClioError::Remote(clio_proto::Status::InvalidAddr),
        }
    }
}

impl RasRouter {
    /// A router over `slices` (base, span, owner per MN).
    pub(crate) fn new(slices: Vec<(u64, u64, Mac)>) -> Self {
        let mut router = RasRouter::default();
        for (base, span, mac) in slices {
            router.slices.insert(SLICE_KEY, base, span, mac);
        }
        router
    }

    /// The MN of the lowest slice: where an op that names no memory goes,
    /// and a fence's first leg.
    pub(crate) fn first(&self) -> Option<Mac> {
        self.slices.iter().next().map(|(.., &mac)| mac)
    }

    /// The MN of the slice above `mn`'s: a fence's next leg.
    pub(crate) fn after(&self, mn: Mac) -> Option<Mac> {
        self.slices.iter().map(|(.., &mac)| mac).skip_while(|&mac| mac != mn).nth(1)
    }

    /// Resolves a whole `len`-byte access against the slices and the
    /// learned exceptions ([`resolve`]).
    pub(crate) fn lookup(&self, pid: Pid, va: u64, len: u64) -> Route {
        resolve(&self.slices, &self.exceptions, |&mac| mac, pid, va, len)
    }

    /// Learns a committed migration: `[start, start + len)` of `pid` now
    /// lives on `mac`, and every exception it overlaps is stale.
    pub(crate) fn learn(&mut self, pid: Pid, start: u64, len: u64, mac: Mac) {
        let end = start.saturating_add(len.max(1) - 1);
        let held = self.exceptions.get(pid, start).into_iter();
        let stale: Vec<u64> =
            held.chain(self.exceptions.starting_in(pid, start, end)).map(|(s, ..)| s).collect();
        for s in stale {
            self.exceptions.remove(pid, s);
        }
        self.exceptions.insert(pid, start, len, mac);
    }
}

/// Resolves a whole `len`-byte access at `(pid, va)`: each byte belongs to
/// the owner of its range in `ranges` (`owner` reads it), else to its slice
/// in `slices` (filed under [`SLICE_KEY`]). CLib's router and the
/// controller answer with this one rule. Start-VA-only resolution would
/// silently route a boundary-straddling op to one MN; checking both
/// endpoints plus any range starting inside the access catches every
/// split. An access whose last byte lies past the end of the address space
/// names no memory at all: [`Route::Unknown`], in every build profile.
pub fn resolve<V>(
    slices: &RangeMap<Mac>,
    ranges: &RangeMap<V>,
    owner: impl Fn(&V) -> Mac,
    pid: Pid,
    va: u64,
    len: u64,
) -> Route {
    // Inclusive last byte.
    let Some(end) = va.checked_add(len.max(1) - 1) else { return Route::Unknown };
    let owner_at = |byte| match ranges.get(pid, byte) {
        Some((.., v)) => Some(owner(v)),
        None => slices.get(SLICE_KEY, byte).map(|(.., &mac)| mac),
    };
    let first = owner_at(va);
    if owner_at(end) != first
        || va < end && ranges.starting_in(pid, va + 1, end).any(|(.., v)| Some(owner(v)) != first)
    {
        return Route::Spans;
    }
    first.map_or(Route::Unknown, Route::Owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A slice or exception may itself end at the top of the address space:
    /// its bytes still resolve, and an access overflowing past them does not.
    #[test]
    fn router_ranges_may_touch_the_top_of_the_address_space() {
        let top = u64::MAX - 4095;
        let mut router = RasRouter::new(vec![(top, 4096, Mac(1))]);
        assert_eq!(router.lookup(Pid(1), u64::MAX - 15, 16), Route::Owned(Mac(1)));
        assert_eq!(router.lookup(Pid(1), u64::MAX - 14, 16), Route::Unknown);
        router.learn(Pid(1), u64::MAX - 63, 64, Mac(2));
        assert_eq!(router.lookup(Pid(1), u64::MAX, 1), Route::Owned(Mac(2)));
        assert_eq!(router.lookup(Pid(1), top, 4096), Route::Spans);
        router.learn(Pid(1), u64::MAX - 63, 64, Mac(3));
        assert_eq!(router.lookup(Pid(1), u64::MAX, 1), Route::Owned(Mac(3)));
    }

    /// A learned route replaces every exception it overlaps: one it starts
    /// inside and one that starts inside it.
    #[test]
    fn router_learning_evicts_overlapping_routes() {
        let mut router = RasRouter::new(vec![(0, 1 << 20, Mac(1))]);
        router.learn(Pid(1), 0x1000, 0x2000, Mac(2));
        router.learn(Pid(1), 0x4000, 0x1000, Mac(3));
        router.learn(Pid(2), 0x2000, 0x1000, Mac(4));
        router.learn(Pid(1), 0x2000, 0x3000, Mac(5));
        assert_eq!(router.lookup(Pid(1), 0x1000, 0x1000), Route::Owned(Mac(1)));
        assert_eq!(router.lookup(Pid(1), 0x2000, 0x3000), Route::Owned(Mac(5)));
        assert_eq!(router.lookup(Pid(1), 0x5000, 1), Route::Owned(Mac(1)));
        assert_eq!(router.lookup(Pid(2), 0x2000, 0x1000), Route::Owned(Mac(4)));
    }

    /// A fence's legs visit every slice's owner in address order.
    #[test]
    fn fence_legs_follow_slice_order() {
        let router = RasRouter::new(vec![(16, 16, Mac(3)), (0, 16, Mac(5)), (32, 16, Mac(4))]);
        let mut legs = vec![router.first().expect("one slice")];
        while let Some(next) = router.after(*legs.last().expect("a leg")) {
            legs.push(next);
        }
        assert_eq!(legs, [Mac(5), Mac(3), Mac(4)]);
        assert_eq!(RasRouter::default().first(), None);
    }

    /// The owner of one byte under the linear rule [`resolve`] replaced:
    /// the first exception covering it, else the first slice.
    fn linear_owner(
        slices: &[(u64, u64, Mac)],
        exceptions: &[(Pid, u64, u64, Mac)],
        pid: Pid,
        va: u64,
    ) -> Option<Mac> {
        let covers = |start, len| va >= start && va - start < len;
        let exception =
            exceptions.iter().find(|&&(p, start, len, _)| p == pid && covers(start, len));
        let slice = || slices.iter().find(|&&(base, span, _)| covers(base, span));
        exception.map(|&(.., mac)| mac).or_else(|| slice().map(|&(.., mac)| mac))
    }

    /// The linear rule's verdict for a whole access: both endpoints, then
    /// every exception inside the access.
    fn linear_resolve(
        slices: &[(u64, u64, Mac)],
        exceptions: &[(Pid, u64, u64, Mac)],
        pid: Pid,
        va: u64,
        len: u64,
    ) -> Route {
        let Some(end) = va.checked_add(len.max(1) - 1) else { return Route::Unknown };
        let first = linear_owner(slices, exceptions, pid, va);
        if linear_owner(slices, exceptions, pid, end) != first {
            return Route::Spans;
        }
        let interior_differs = exceptions.iter().any(|&(p, s, l, m)| {
            p == pid && s <= end && (va < s || va - s < l) && Some(m) != first
        });
        if interior_differs {
            return Route::Spans;
        }
        first.map_or(Route::Unknown, Route::Owned)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The router's verdict is the linear rule's, over contiguous
        /// slices (low in the address space or ending at its top),
        /// disjoint exceptions of three processes, and accesses of every
        /// length at every slice and exception edge, ±8 bytes.
        #[test]
        fn route_resolve_matches_the_linear_rule(
            spans in prop::collection::vec(1u64..1 << 16, 1..5),
            at_top in any::<bool>(),
            low_base in 0u64..1 << 20,
            drawn in prop::collection::vec((0u64..3, any::<u64>(), 1u64..1 << 15, 1u32..7), 0..12),
            accesses in prop::collection::vec(
                (
                    0u64..4,
                    any::<prop::sample::Index>(),
                    -8i16..=8,
                    prop_oneof![Just(0u64), 1u64..=16, 1u64..1 << 17, Just(u64::MAX)],
                ),
                1..48,
            ),
        ) {
            let total: u64 = spans.iter().sum();
            let mut base = if at_top { 0u64.wrapping_sub(total) } else { low_base };
            let mut slices = Vec::new();
            for (i, &span) in spans.iter().enumerate() {
                slices.push((base, span, Mac(i as u32 + 1)));
                base = base.wrapping_add(span);
            }
            // Exceptions start inside the slices and may run past them; a
            // drawn exception that overlaps an earlier one of its process
            // is dropped.
            let region = slices[0].0;
            let mut exceptions: Vec<(Pid, u64, u64, Mac)> = Vec::new();
            for (p, off, len, mac) in drawn {
                let (pid, start) = (Pid(p + 1), region + off % total);
                let len = if start == 0 { len } else { len.min(0u64.wrapping_sub(start)) };
                let overlaps = exceptions.iter().any(|&(q, s, l, _)| {
                    q == pid && (s >= start && s - start < len || start >= s && start - s < l)
                });
                if !overlaps {
                    exceptions.push((pid, start, len, Mac(mac)));
                }
            }
            let mut router = RasRouter::new(slices.clone());
            for &(pid, start, len, mac) in &exceptions {
                router.learn(pid, start, len, mac);
            }
            let mut edges = vec![0, u64::MAX];
            edges.extend(slices.iter().flat_map(|&(b, s, _)| [b, b.wrapping_add(s)]));
            edges.extend(exceptions.iter().flat_map(|&(_, s, l, _)| [s, s.wrapping_add(l)]));
            for (p, edge, delta, len) in accesses {
                let (pid, va) = (Pid(p), edges[edge.index(edges.len())].wrapping_add_signed(delta.into()));
                prop_assert_eq!(
                    router.lookup(pid, va, len),
                    linear_resolve(&slices, &exceptions, pid, va, len),
                    "{} at {:#x}, {} bytes, over {:?} and {:?}", pid, va, len, slices, exceptions
                );
            }
        }
    }
}
