//! Choosing the memory node for an access (paper §4.7): each MN owns a
//! static slice of the address space, and a range migrated away from its
//! slice's owner is an exception, learned from a route query after a
//! `Moved` refusal or from the controller's broadcast.

use clio_net::Mac;
use clio_proto::Pid;

use crate::error::ClioError;

/// Routing table: RAS slices (static) + migrated-range exceptions.
#[derive(Debug, Clone, Default)]
pub(crate) struct RasRouter {
    slices: Vec<(u64, u64, Mac)>,
    exceptions: Vec<(Pid, u64, u64, Mac)>,
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
    /// A router over `slices` (base, span, owner per MN), in MN order.
    pub(crate) fn new(slices: Vec<(u64, u64, Mac)>) -> Self {
        RasRouter { slices, exceptions: Vec::new() }
    }

    /// The MN of the first slice: where an op that names no memory goes,
    /// and a fence's first leg.
    pub(crate) fn first(&self) -> Option<Mac> {
        self.slices.first().map(|&(_, _, mac)| mac)
    }

    /// The MN of the slice after `mn`'s: a fence's next leg.
    pub(crate) fn after(&self, mn: Mac) -> Option<Mac> {
        let i = self.slices.iter().position(|&(_, _, mac)| mac == mn)?;
        self.slices.get(i + 1).map(|&(_, _, mac)| mac)
    }

    /// Resolves a whole `len`-byte access against the slices and the
    /// cached exceptions ([`resolve`]).
    pub(crate) fn lookup(&self, pid: Pid, va: u64, len: u64) -> Route {
        resolve(self.slices.iter().copied(), self.exceptions.iter().copied(), pid, va, len)
    }

    /// Caches the owner a route query named for one access.
    pub(crate) fn add_exception(&mut self, pid: Pid, start: u64, len: u64, mac: Mac) {
        self.exceptions.retain(|(p, s, _, _)| !(*p == pid && *s == start));
        self.exceptions.push((pid, start, len, mac));
    }

    /// Applies a committed migration: every cached exception overlapping
    /// the migrated range is stale, so drop the lot and install one
    /// exception covering the whole range at its new owner.
    pub(crate) fn apply_update(&mut self, pid: Pid, start: u64, len: u64, mac: Mac) {
        // Two ranges overlap iff one starts inside the other — no end sums
        // to overflow, as in `owner_of_byte`.
        self.exceptions.retain(|(p, s, l, _)| {
            !(*p == pid && (*s >= start && *s - start < len || start >= *s && start - *s < *l))
        });
        self.exceptions.push((pid, start, len, mac));
    }
}

/// The owner of the single byte at `(pid, va)`: the first of `exceptions`
/// (pid, start, len, owner) that covers it, else the first of `slices`
/// (base, span, owner) that does.
pub fn owner_of_byte(
    mut slices: impl Iterator<Item = (u64, u64, Mac)>,
    mut exceptions: impl Iterator<Item = (Pid, u64, u64, Mac)>,
    pid: Pid,
    va: u64,
) -> Option<Mac> {
    // `va - start < len` rather than `va < start + len`: no sum to
    // overflow, whatever range a slice or exception names.
    if let Some((_, _, _, mac)) =
        exceptions.find(|&(p, start, len, _)| p == pid && va >= start && va - start < len)
    {
        return Some(mac);
    }
    slices.find(|&(base, span, _)| va >= base && va - base < span).map(|(_, _, mac)| mac)
}

/// Resolves a whole `len`-byte access over `slices` and `exceptions` (as in
/// [`owner_of_byte`]): CLib's router and the controller answer with this
/// one rule. Start-VA-only resolution would silently route a
/// boundary-straddling op to one MN; checking both endpoints plus any
/// interior exception catches every split. An access whose last byte lies
/// past the end of the address space names no memory at all:
/// [`Route::Unknown`], in every build profile.
pub fn resolve(
    slices: impl Iterator<Item = (u64, u64, Mac)> + Clone,
    mut exceptions: impl Iterator<Item = (Pid, u64, u64, Mac)> + Clone,
    pid: Pid,
    va: u64,
    len: u64,
) -> Route {
    // Inclusive last byte.
    let Some(end) = va.checked_add(len.max(1) - 1) else { return Route::Unknown };
    let first = owner_of_byte(slices.clone(), exceptions.clone(), pid, va);
    if owner_of_byte(slices, exceptions.clone(), pid, end) != first {
        return Route::Spans;
    }
    let interior_differs = exceptions
        .any(|(p, s, l, m)| p == pid && s <= end && (va < s || va - s < l) && Some(m) != first);
    if interior_differs {
        return Route::Spans;
    }
    match first {
        Some(mac) => Route::Owned(mac),
        None => Route::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slice or exception may itself end at the top of the address space:
    /// its bytes still resolve, and an access overflowing past them does not.
    #[test]
    fn router_ranges_may_touch_the_top_of_the_address_space() {
        let top = u64::MAX - 4095;
        let mut router = RasRouter::new(vec![(top, 4096, Mac(1))]);
        assert_eq!(router.lookup(Pid(1), u64::MAX - 15, 16), Route::Owned(Mac(1)));
        assert_eq!(router.lookup(Pid(1), u64::MAX - 14, 16), Route::Unknown);
        router.add_exception(Pid(1), u64::MAX - 63, 64, Mac(2));
        assert_eq!(router.lookup(Pid(1), u64::MAX, 1), Route::Owned(Mac(2)));
        assert_eq!(router.lookup(Pid(1), top, 4096), Route::Spans);
        router.apply_update(Pid(1), u64::MAX - 63, 64, Mac(3));
        assert_eq!(router.lookup(Pid(1), u64::MAX, 1), Route::Owned(Mac(3)));
    }

    /// A fence's legs visit every slice's owner in slice order.
    #[test]
    fn fence_legs_follow_slice_order() {
        let router = RasRouter::new(vec![(0, 16, Mac(5)), (16, 16, Mac(3)), (32, 16, Mac(4))]);
        let mut legs = vec![router.first().expect("one slice")];
        while let Some(next) = router.after(*legs.last().expect("a leg")) {
            legs.push(next);
        }
        assert_eq!(legs, [Mac(5), Mac(3), Mac(4)]);
        assert_eq!(RasRouter::default().first(), None);
    }
}
