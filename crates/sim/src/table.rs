//! Deterministic id-keyed tables.
//!
//! Nearly every table on the simulator's per-op path is keyed by a
//! sequential integer newtype (`ReqId`, `OpToken`, `AppToken`, task ids) or
//! by one of a handful of `Mac`s. None of those keys comes from outside the
//! program, so `std`'s SipHash + per-process `RandomState` buys nothing and
//! costs a keyed hash per probe. [`IdMap`] / [`IdSet`] are the standard
//! tables over [`IdHasher`], a fixed multiplicative hash: a couple of
//! cycles per key, and — because there is no random state — the same
//! insertion history yields the same iteration order in every process.
//!
//! **Rule:** integer-keyed simulator state uses these tables. Iteration
//! order is deterministic but still an artefact of capacity and history, so
//! code that iterates a table to *schedule* events (or to do anything whose
//! order reaches the event queue) must iterate in key order — collect the
//! keys, sort, then act. Keep `std`'s default hasher for keys parsed from
//! outside input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by integer ids or small tuples of them.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of integer ids or small tuples of them.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// 2^64 / φ: an odd constant whose multiples spread consecutive integers
/// evenly over the word.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative (Fibonacci-style) hasher for integer keys. Each written
/// word is folded as `(state.rotl(5) ^ word) * K`; `finish` rotates the
/// product's well-mixed top 20 bits down to where the table takes its
/// bucket index (its control byte comes from the bits just below them).
/// Not collision-resistant against chosen keys — by design; see the
/// [module docs](self).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(20)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

/// FNV-1a step over one `u64` — the mixing step of the components' logical
/// state fingerprints (`Transport::fingerprint`, `CBoard::fingerprint`),
/// which hash table *contents* and so must not depend on table layout.
pub fn fnv_mix(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Folds a **sorted** list of element digests into `h` under a section tag,
/// so differently-keyed sections with equal content still hash apart.
pub fn fnv_fold(mut h: u64, tag: u64, elems: &[u64]) -> u64 {
    h = fnv_mix(h, tag);
    h = fnv_mix(h, elems.len() as u64);
    for &e in elems {
        h = fnv_mix(h, e);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn id_shaped_keys_spread_over_buckets() {
        // Low and high hash bits both matter to the table (bucket index and
        // control byte): neither may collapse for the key shapes in use —
        // consecutive ids, slot- and page-strided addresses, and request
        // ids carrying one of a few CN prefixes above a running counter.
        let build = BuildHasherDefault::<IdHasher>::default();
        type Shape = (&'static str, fn(u64) -> u64);
        let shapes: [Shape; 4] = [
            ("consecutive", |i| i),
            ("64 B slots", |i| (1 << 20) + i * 64),
            ("4 KiB pages", |i| (1 << 20) + i * 4096),
            ("cn-prefixed", |i| ((1 + i % 4) << 40) + i / 4),
        ];
        for (shape, key) in shapes {
            let (mut low, mut high) = (IdSet::default(), IdSet::default());
            for i in 0..1024u64 {
                let h = build.hash_one(key(i));
                low.insert(h & 0x3FF);
                high.insert(h >> 57);
            }
            // A random function would fill ~647 of 1024; collapse is < 100.
            assert!(low.len() > 400, "{shape}: {} of 1024 low buckets", low.len());
            assert!(high.len() > 64, "{shape}: {} of 128 control bytes", high.len());
        }
    }

    #[test]
    fn iteration_order_is_a_function_of_history_alone() {
        let fill = || {
            let mut m: IdMap<(u32, u64), u64> = IdMap::default();
            for i in 0..500u64 {
                m.insert(((i % 3) as u32, i * 4096), i);
            }
            for i in (0..500u64).step_by(7) {
                m.remove(&((i % 3) as u32, i * 4096));
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(fill(), fill());
    }
}
