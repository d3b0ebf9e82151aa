//! A fast, deterministic, non-cryptographic hasher (FxHash-style) plus map
//! and set aliases used throughout the solver.
//!
//! Points-to analysis is hash-lookup bound; the default SipHash costs ~3× in
//! end-to-end solver time here. This is the same multiply-rotate scheme used
//! by rustc's `FxHasher`, implemented in-tree to keep the dependency set to
//! the allowed list. Determinism also keeps analysis runs reproducible,
//! which the differential tests rely on.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher for small keys (ids, packed tuples).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
    /// The accumulated hash, rotated so its high-entropy bits land low.
    ///
    /// For a single word the state is `word * SEED`, whose low bits depend
    /// only on the word's low bits — and `hashbrown` picks the bucket from
    /// the hash's *low* bits. Packed keys such as `heap << 32 | hctx` or
    /// `var << 32 | ctx` with a zero low half (every context-insensitive
    /// key) would then all share one probe chain. Rotating (as rustc-hash
    /// 2 does) moves the well-mixed high bits down; with this seed, 20 is
    /// the rotation that spreads such keys best.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(20)
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_deterministic() {
        let mut h1 = FxHasher::default();
        h1.write_u64(0xdead_beef);
        let mut h2 = FxHasher::default();
        h2.write_u64(0xdead_beef);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn different_inputs_differ() {
        let mut h1 = FxHasher::default();
        h1.write_u64(1);
        let mut h2 = FxHasher::default();
        h2.write_u64(2);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let mut s: FxHashSet<u32> = FxHashSet::default();
        assert!(s.insert(3));
        assert!(!s.insert(3));
    }

    /// Packed `(high << 32) | low` keys that differ only in their high
    /// half must spread over the low bits `hashbrown` buckets by.
    #[test]
    fn packed_keys_spread_over_low_bits() {
        for c in [0u64, 7] {
            let buckets: HashSet<u64> = (0..1024u64)
                .map(|i| {
                    let mut h = FxHasher::default();
                    h.write_u64((i << 32) | c);
                    h.finish() & 1023
                })
                .collect();
            assert!(
                buckets.len() >= 900,
                "low half {c}: only {} distinct buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn byte_writes_cover_partial_chunks() {
        let mut h = FxHasher::default();
        h.write(b"hello world, this is more than eight bytes");
        assert_ne!(h.finish(), 0);
    }
}
