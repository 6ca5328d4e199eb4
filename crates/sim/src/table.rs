//! Deterministic id-keyed tables.
//!
//! Nearly every table on the simulator's per-op path is keyed by a
//! sequential integer newtype (`ReqId`, `OpToken`, task ids) or
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

/// Where a content hash starts (the fractional digits of π: any odd,
/// bit-balanced constant serves; zero would not, as `mix(0, 0) == 0`).
pub const MIX_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// Multiplier of [`mix`]: odd, with both halves bit-balanced, so every
/// input bit reaches both halves of the 128-bit product.
const MIX_K: u64 = 0xA076_1D64_78BD_642F;

/// Folds one word into a running content hash — the one mixing step behind
/// the engine's event digest, the components' logical-state fingerprints
/// (`Transport::fingerprint`, `CBoard::fingerprint`) and, through
/// [`MixHasher`], the model checker's state hash. It multiplies `h ^ word`
/// by a fixed odd constant into 128 bits and xors the product's two halves:
/// one multiply per word, and any single flipped input bit changes about
/// half the result bits (the checker prunes on this hash, so one step must
/// avalanche). Unlike [`IdHasher`]'s fold it is not meant for table
/// indexing; it is meant to tell contents apart.
#[inline]
pub fn mix(h: u64, word: u64) -> u64 {
    let p = u128::from(h ^ word) * u128::from(MIX_K);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Folds `bytes` into `h` as little-endian 8-byte words, the last one
/// zero-padded. The length is not folded: a caller whose inputs may differ
/// only by trailing zero bytes folds it too.
#[inline]
pub fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(w));
    }
    h
}

/// Folds a **sorted** list of element digests into `h` under a section tag,
/// so differently-keyed sections with equal content still hash apart. The
/// fingerprints hash table *contents* this way, independent of table
/// layout.
pub fn mix_section(mut h: u64, tag: u64, elems: &[u64]) -> u64 {
    h = mix(h, tag);
    h = mix(h, elems.len() as u64);
    for &e in elems {
        h = mix(h, e);
    }
    h
}

/// [`mix`] as a [`Hasher`], starting at [`MIX_SEED`], so a value folds in
/// through its derived `Hash`: an integer write folds one word, a byte
/// write its 8-byte words plus the tail ([`mix_bytes`]). The model
/// checker's state hash and the ops in `Transport::fingerprint` hash this
/// way.
#[derive(Debug, Clone, Copy)]
pub struct MixHasher(u64);

impl Default for MixHasher {
    fn default() -> Self {
        MixHasher(MIX_SEED)
    }
}

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = mix_bytes(self.0, bytes);
    }

    fn write_u8(&mut self, v: u8) {
        self.0 = mix(self.0, v.into());
    }

    fn write_u16(&mut self, v: u16) {
        self.0 = mix(self.0, v.into());
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = mix(self.0, v.into());
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = mix(self.0, v);
    }

    fn write_usize(&mut self, v: usize) {
        self.0 = mix(self.0, v as u64);
    }
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
    fn one_flipped_bit_changes_a_quarter_of_the_mix() {
        // Fixed pseudo-random (h, word) pairs; every single-bit flip of the
        // word must move at least 16 of the 64 result bits. (A step that
        // fails this, e.g. `(h ^ w) * K` then `h ^ (h >> 29)`, moves 2 bits
        // for bit 63.)
        let mut rng = crate::SimRng::new(0x5EED);
        let mut fewest = 64;
        for _ in 0..4096 {
            let (h, w) = (rng.u64(), rng.u64());
            let base = mix(h, w);
            for bit in 0..64 {
                fewest = fewest.min((base ^ mix(h, w ^ (1 << bit))).count_ones());
            }
        }
        assert!(fewest >= 16, "a one-bit flip changed only {fewest} result bits");
    }

    #[test]
    fn mix_bytes_folds_words_and_the_tail() {
        let eight = *b"clio_sim";
        assert_eq!(mix_bytes(MIX_SEED, &eight), mix(MIX_SEED, u64::from_le_bytes(eight)));
        assert_ne!(mix_bytes(MIX_SEED, b"clio_sim::A"), mix_bytes(MIX_SEED, b"clio_sim::B"));
        assert_ne!(mix_bytes(MIX_SEED, b"clio_sim"), mix_bytes(MIX_SEED, b"clio_sim::"));
        assert_eq!(mix_bytes(MIX_SEED, b""), MIX_SEED);
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
