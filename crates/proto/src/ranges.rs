//! The one table of address ranges (paper §4.7): which range of a process
//! holds a byte. CLib's router, each board's migration records and the
//! global controller's books are each a [`RangeMap`].

use std::collections::BTreeMap;

use crate::Pid;

/// Non-overlapping `[start, start + len)` ranges of each process, each with
/// a value, ordered by `(pid, start)`. Containment is `va - start < len`,
/// never a sum, so a range may end at the top of the address space.
#[derive(Debug, Clone)]
pub struct RangeMap<V> {
    map: BTreeMap<(Pid, u64), (u64, V)>,
}

impl<V> Default for RangeMap<V> {
    fn default() -> Self {
        RangeMap { map: BTreeMap::new() }
    }
}

impl<V> RangeMap<V> {
    /// The range of `pid` that holds the byte at `va`: `(start, len, value)`.
    pub fn get(&self, pid: Pid, va: u64) -> Option<(u64, u64, &V)> {
        // Every table is empty on a run that never migrates: skip the tree.
        let (&(p, start), (len, v)) =
            if self.map.is_empty() { None } else { self.map.range(..=(pid, va)).next_back() }?;
        (p == pid && va - start < *len).then_some((start, *len, v))
    }

    /// The ranges of `pid` that start in `[va, end]`, last byte included
    /// (`va <= end`), in address order, as `(start, len, value)`.
    pub fn starting_in(&self, pid: Pid, va: u64, end: u64) -> impl Iterator<Item = (u64, u64, &V)> {
        self.map.range((pid, va)..=(pid, end)).map(|(&(_, start), (len, v))| (start, *len, v))
    }

    /// The length and value of the range of `pid` that starts at `start`.
    pub fn at_mut(&mut self, pid: Pid, start: u64) -> Option<(u64, &mut V)> {
        self.map.get_mut(&(pid, start)).map(|(len, v)| (*len, v))
    }

    /// Adds `[start, start + len)` of `pid`, which overlaps no range of `pid`.
    pub fn insert(&mut self, pid: Pid, start: u64, len: u64, value: V) {
        let end = start.saturating_add(len.max(1) - 1);
        debug_assert!(
            self.get(pid, start).is_none() && self.starting_in(pid, start, end).next().is_none(),
            "{pid} range [{start:#x}, +{len:#x}) overlaps another"
        );
        self.map.insert((pid, start), (len, value));
    }

    /// Takes out the range of `pid` that starts at `start`: `(len, value)`.
    pub fn remove(&mut self, pid: Pid, start: u64) -> Option<(u64, V)> {
        self.map.remove(&(pid, start))
    }

    /// Every range, as `(pid, start, len, value)`, by process, then address.
    pub fn iter(&self) -> impl Iterator<Item = (Pid, u64, u64, &V)> {
        self.map.iter().map(|(&(pid, start), (len, v))| (pid, start, *len, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A range ending at the top of the address space holds its last byte.
    #[test]
    fn ranges_may_end_at_the_top_of_the_address_space() {
        let mut m = RangeMap::default();
        m.insert(Pid(1), u64::MAX - 63, 64, 'a');
        assert_eq!(m.get(Pid(1), u64::MAX), Some((u64::MAX - 63, 64, &'a')));
        assert_eq!(m.get(Pid(1), u64::MAX - 64), None);
    }

    /// A process's range never answers for another, even as the greatest
    /// key below the lookup.
    #[test]
    fn ranges_answer_only_their_own_pid() {
        let mut m = RangeMap::default();
        m.insert(Pid(1), 0, u64::MAX, 'a');
        m.insert(Pid(3), 0x1000, 16, 'c');
        assert_eq!(m.get(Pid(2), 5), None);
        assert_eq!(m.get(Pid(2), 0x1004), None);
        assert_eq!(m.get(Pid(3), 0x1004), Some((0x1000, 16, &'c')));
        assert_eq!(m.starting_in(Pid(2), 0, u64::MAX).count(), 0);
    }

    /// A lookup misses the byte before a range and the byte after it.
    #[test]
    fn ranges_miss_just_outside_their_bounds() {
        let mut m = RangeMap::default();
        m.insert(Pid(1), 0x1000, 0x100, 'a');
        m.insert(Pid(1), 0x1200, 0x100, 'b');
        assert_eq!(m.get(Pid(1), 0xfff), None);
        assert_eq!(m.get(Pid(1), 0x1000), Some((0x1000, 0x100, &'a')));
        assert_eq!(m.get(Pid(1), 0x10ff), Some((0x1000, 0x100, &'a')));
        assert_eq!(m.get(Pid(1), 0x1100), None);
        assert_eq!(m.get(Pid(1), 0x11ff), None);
        assert_eq!(m.get(Pid(1), 0x1200), Some((0x1200, 0x100, &'b')));
    }

    /// `starting_in` takes both of its bounds, a range starting exactly at
    /// `end` included, and skips one that starts before `va`.
    #[test]
    fn ranges_starting_in_include_their_last_start() {
        let mut m = RangeMap::default();
        for (start, v) in [(0x1000, 'a'), (0x2000, 'b'), (0x3000, 'c')] {
            m.insert(Pid(1), start, 0x10, v);
        }
        let starts =
            |va, last| m.starting_in(Pid(1), va, last).map(|(s, ..)| s).collect::<Vec<_>>();
        assert_eq!(starts(0x1001, 0x3000), [0x2000, 0x3000]);
        assert_eq!(starts(0x2000, 0x2fff), [0x2000]);
        assert_eq!(starts(0x3001, u64::MAX), [] as [u64; 0]);
    }

    /// An empty map answers nothing; a removed range is gone.
    #[test]
    fn ranges_empty_map_answers_none() {
        let mut m = RangeMap::<char>::default();
        assert_eq!(m.get(Pid(1), 0), None);
        assert_eq!(m.get(Pid(0), u64::MAX), None);
        assert_eq!(m.starting_in(Pid(1), 0, u64::MAX).count(), 0);
        m.insert(Pid(1), 0, 8, 'a');
        *m.at_mut(Pid(1), 0).expect("present").1 = 'b';
        assert_eq!(m.iter().collect::<Vec<_>>(), [(Pid(1), 0, 8, &'b')]);
        assert_eq!(m.remove(Pid(1), 0), Some((8, 'b')));
        assert_eq!((m.get(Pid(1), 0), m.iter().count()), (None, 0));
    }
}
