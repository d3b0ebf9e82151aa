//! Bitsets over dense id domains.
//!
//! - [`IdBitSet`]: a fixed-domain bitset indexed by IR ids, used to store
//!   refinement sets in complement form (the paper's footnote 4: the
//!   *not*-refined sets are tiny, but membership is queried on every
//!   context construction, so it must be `O(1)` and cache-friendly).
//! - `ObjSet` (crate-private): the solver's points-to set over interned
//!   object ids, in two forms chosen by size (the sets are bimodal: most
//!   hold a handful of objects, the rest hundreds).

use std::marker::PhantomData;

use rudoop_ir::Idx;

/// A fixed-capacity bitset over an id domain `I`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdBitSet<I: Idx> {
    words: Vec<u64>,
    len: usize,
    _marker: PhantomData<fn(I)>,
}

impl<I: Idx> IdBitSet<I> {
    /// An empty set over a domain of `len` ids.
    pub fn new(len: usize) -> Self {
        IdBitSet {
            words: vec![0; len.div_ceil(64)],
            len,
            _marker: PhantomData,
        }
    }

    /// Inserts `id`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the domain.
    pub fn insert(&mut self, id: I) -> bool {
        let i = id.index();
        assert!(i < self.len, "id {i} out of bitset domain {}", self.len);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Whether `id` is in the set. Ids outside the domain are absent.
    #[inline]
    pub fn contains(&self, id: I) -> bool {
        let i = id.index();
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of ids in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = I> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(I::from_usize(wi * 64 + b))
            })
        })
    }
}

/// Members an [`ObjSet`] holds as a sorted vector before it becomes a
/// bitset: at 32 ids the vector is 128 bytes, about one bitset over the
/// first thousand ids.
const SMALL_MAX: usize = 32;

/// A set of interned object ids (`u32`), iterated in increasing order.
///
/// Small sets are a sorted `Vec<u32>`; once an insertion would exceed
/// [`SMALL_MAX`] members the set becomes a dense bitset of `u64` words
/// that grows to its highest id. The solver interns each context-qualified
/// object once, so ids are dense and a large set costs one bit per object
/// in the program's object domain instead of a hash-table slot per member.
#[derive(Debug, Clone)]
pub(crate) enum ObjSet {
    /// At most [`SMALL_MAX`] ids, sorted.
    Small(Vec<u32>),
    /// One bit per id; `len` is the number of set bits.
    Dense { words: Vec<u64>, len: usize },
}

impl Default for ObjSet {
    fn default() -> Self {
        ObjSet::Small(Vec::new())
    }
}

impl ObjSet {
    /// Inserts `id`; returns whether it was newly inserted.
    #[inline]
    pub(crate) fn insert(&mut self, id: u32) -> bool {
        match self {
            ObjSet::Small(ids) => match ids.binary_search(&id) {
                Ok(_) => false,
                Err(pos) if ids.len() < SMALL_MAX => {
                    ids.insert(pos, id);
                    true
                }
                Err(_) => {
                    let mut words = dense_words(ids, id as usize / 64 + 1);
                    words[id as usize / 64] |= 1 << (id % 64);
                    *self = ObjSet::Dense {
                        words,
                        len: SMALL_MAX + 1,
                    };
                    true
                }
            },
            ObjSet::Dense { words, len } => {
                let w = id as usize / 64;
                if w >= words.len() {
                    words.resize(w + 1, 0);
                }
                let mask = 1u64 << (id % 64);
                if words[w] & mask != 0 {
                    return false;
                }
                words[w] |= mask;
                *len += 1;
                true
            }
        }
    }

    /// Inserts every id of `src`, appending the new ones to `delta` in
    /// increasing order; returns how many were new. The result, `delta`
    /// included, is exactly that of `insert`ing `src`'s ids one by one in
    /// increasing order, but a dense `src` is merged a word at a time
    /// (`new = src & !self`), never touching ids `self` already holds.
    pub(crate) fn union_sorted(&mut self, src: &ObjSet, delta: &mut Vec<u32>) -> usize {
        let before = delta.len();
        let ObjSet::Dense { words: from, .. } = src else {
            for id in src.iter() {
                if self.insert(id) {
                    delta.push(id);
                }
            }
            return delta.len() - before;
        };
        // A dense `src` holds more than `SMALL_MAX` ids, so the union is
        // dense too: promote a small `self` up front.
        if let ObjSet::Small(ids) = self {
            let len = ids.len();
            *self = ObjSet::Dense {
                words: dense_words(ids, from.len()),
                len,
            };
        }
        let ObjSet::Dense { words, len } = self else {
            unreachable!("promoted above")
        };
        if words.len() < from.len() {
            words.resize(from.len(), 0);
        }
        for (wi, (w, &s)) in words.iter_mut().zip(from).enumerate() {
            let mut new = s & !*w;
            *w |= new;
            while new != 0 {
                delta.push((wi * 64) as u32 + new.trailing_zeros());
                new &= new - 1;
            }
        }
        let added = delta.len() - before;
        *len += added;
        added
    }

    /// Whether the set holds every id of `mask`, a bitmask whose word `k`
    /// covers ids `64 * (lo + k) ..`.
    pub(crate) fn covers_mask(&self, lo: usize, mask: &[u64]) -> bool {
        match self {
            ObjSet::Dense { words, .. } => mask
                .iter()
                .enumerate()
                .all(|(k, &m)| m & !words.get(lo + k).copied().unwrap_or(0) == 0),
            ObjSet::Small(ids) => {
                // Ids are distinct: the set covers the mask iff as many of
                // them fall inside it as it has bits.
                let bits: usize = mask.iter().map(|m| m.count_ones() as usize).sum();
                let inside = ids
                    .iter()
                    .filter(|&&id| {
                        let w = (id as usize / 64).wrapping_sub(lo);
                        mask.get(w).is_some_and(|m| m & (1 << (id % 64)) != 0)
                    })
                    .count();
                inside == bits
            }
        }
    }

    /// Whether the two sets share an id.
    pub(crate) fn intersects(&self, other: &ObjSet) -> bool {
        match (self, other) {
            (ObjSet::Dense { words: a, .. }, ObjSet::Dense { words: b, .. }) => {
                a.iter().zip(b).any(|(x, y)| x & y != 0)
            }
            (ObjSet::Small(ids), set) | (set, ObjSet::Small(ids)) => ids
                .iter()
                .any(|&id| set.covers_mask(id as usize / 64, &[1 << (id % 64)])),
        }
    }

    /// Number of ids in the set.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            ObjSet::Small(ids) => ids.len(),
            ObjSet::Dense { len, .. } => *len,
        }
    }

    /// Whether the set is empty.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the ids in increasing order.
    pub(crate) fn iter(&self) -> ObjSetIter<'_> {
        match self {
            ObjSet::Small(ids) => ObjSetIter::Small(ids.iter()),
            ObjSet::Dense { words, .. } => bit_positions(words),
        }
    }
}

/// The positions of the set bits of `words`, ascending: the ids of a dense
/// set over those words.
#[inline]
pub(crate) fn bit_positions(words: &[u64]) -> ObjSetIter<'_> {
    ObjSetIter::Dense {
        words,
        base: 0,
        bits: 0,
    }
}

/// The bitset words of the sorted ids `ids`: at least `min_words` of
/// them, and enough for the largest id.
fn dense_words(ids: &[u32], min_words: usize) -> Vec<u64> {
    let top = ids.last().map_or(0, |&last| last as usize / 64 + 1);
    let mut words = vec![0u64; top.max(min_words)];
    for &i in ids {
        words[i as usize / 64] |= 1 << (i % 64);
    }
    words
}

/// Iterator over an [`ObjSet`], in increasing id order.
pub(crate) enum ObjSetIter<'a> {
    Small(std::slice::Iter<'a, u32>),
    Dense {
        /// Words not yet loaded.
        words: &'a [u64],
        /// Id of bit 0 of the word after `bits`.
        base: usize,
        /// Unvisited bits of the current word.
        bits: u64,
    },
}

impl Iterator for ObjSetIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            ObjSetIter::Small(ids) => ids.next().copied(),
            ObjSetIter::Dense { words, base, bits } => {
                while *bits == 0 {
                    let (&first, rest) = words.split_first()?;
                    *bits = first;
                    *words = rest;
                    *base += 64;
                }
                let id = *base - 64 + bits.trailing_zeros() as usize;
                *bits &= *bits - 1;
                Some(id as u32)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rudoop_ir::rng::SplitMix64;
    use rudoop_ir::AllocId;
    use std::collections::BTreeSet;

    #[test]
    fn insert_and_contains() {
        let mut s: IdBitSet<AllocId> = IdBitSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(AllocId(0)));
        assert!(s.insert(AllocId(64)));
        assert!(s.insert(AllocId(129)));
        assert!(!s.insert(AllocId(64)));
        assert!(s.contains(AllocId(129)));
        assert!(!s.contains(AllocId(1)));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn iter_is_ordered() {
        let mut s: IdBitSet<AllocId> = IdBitSet::new(200);
        for i in [5u32, 63, 64, 199, 0] {
            s.insert(AllocId(i));
        }
        let got: Vec<u32> = s.iter().map(|a| a.0).collect();
        assert_eq!(got, vec![0, 5, 63, 64, 199]);
    }

    #[test]
    fn out_of_domain_contains_is_false() {
        let s: IdBitSet<AllocId> = IdBitSet::new(10);
        assert!(!s.contains(AllocId(10_000)));
    }

    #[test]
    #[should_panic(expected = "out of bitset domain")]
    fn out_of_domain_insert_panics() {
        let mut s: IdBitSet<AllocId> = IdBitSet::new(10);
        s.insert(AllocId(10));
    }

    /// Seeded insert sequences against a `BTreeSet` model, across the
    /// small-to-bitset promotion: `insert`'s new-ness, `len`, `is_empty`
    /// and ordered iteration agree after every step.
    #[test]
    fn obj_set_matches_a_btree_model() {
        for seed in 0..64u64 {
            let mut rng = SplitMix64::new(seed);
            // Narrow domains force duplicates; wide ones sparse bitsets.
            let domain = [8, 40, 200, 5000][seed as usize % 4];
            let steps = rng.below(3 * SMALL_MAX) + 1;
            let mut set = ObjSet::default();
            let mut model = BTreeSet::new();
            assert!(set.is_empty());
            for _ in 0..steps {
                let id = rng.below(domain) as u32;
                assert_eq!(set.insert(id), model.insert(id), "seed {seed} id {id}");
                assert_eq!(set.len(), model.len(), "seed {seed}");
                assert_eq!(set.is_empty(), model.is_empty());
                assert!(set.iter().eq(model.iter().copied()), "seed {seed}");
            }
            let promoted = matches!(set, ObjSet::Dense { .. });
            assert_eq!(promoted, model.len() > SMALL_MAX, "seed {seed}");
        }
    }

    /// A seeded set over `domain` ids of the given size, built by
    /// `insert` (so small or dense exactly as the solver would hold it).
    fn random_set(rng: &mut SplitMix64, domain: usize, size: usize) -> ObjSet {
        let mut set = ObjSet::default();
        for _ in 0..size {
            set.insert(rng.below(domain) as u32);
        }
        set
    }

    /// `union_sorted` against the per-id reference loop, small and dense
    /// on both sides, over domains that cross word boundaries: the same
    /// new ids in the same order, the same `len`, members and form.
    #[test]
    fn union_sorted_matches_the_per_id_loop() {
        let mut forms = BTreeSet::new();
        for seed in 0..256u64 {
            let mut rng = SplitMix64::new(seed);
            let domain = [40, 64, 65, 130, 700, 5000][seed as usize % 6];
            let sizes = [0, 5, SMALL_MAX, 3 * SMALL_MAX];
            let dst_size = sizes[rng.below(sizes.len())];
            let src_size = sizes[rng.below(sizes.len())];
            let mut dst = random_set(&mut rng, domain, dst_size);
            let src = random_set(&mut rng, domain, src_size);
            let mut want = dst.clone();
            let mut want_delta = vec![7u32];
            for o in src.iter() {
                if want.insert(o) {
                    want_delta.push(o);
                }
            }
            let dense = |s: &ObjSet| matches!(s, ObjSet::Dense { .. });
            forms.insert((dense(&dst), dense(&src)));
            let mut delta = vec![7u32];
            let added = dst.union_sorted(&src, &mut delta);
            assert_eq!(delta, want_delta, "seed {seed}");
            assert_eq!(added, want_delta.len() - 1, "seed {seed}");
            assert_eq!(dst.len(), want.len(), "seed {seed}");
            assert!(dst.iter().eq(want.iter()), "seed {seed}");
            assert_eq!(dense(&dst), dense(&want), "seed {seed}");
            assert_eq!(dense(&dst), dst.len() > SMALL_MAX, "seed {seed}");
        }
        assert_eq!(forms.len(), 4, "every small/dense pairing is covered");
    }

    /// `covers_mask` against a `BTreeSet` subset check, for masks at
    /// several word offsets over small and dense sets.
    #[test]
    fn covers_mask_is_a_subset_test() {
        for seed in 0..256u64 {
            let mut rng = SplitMix64::new(seed);
            let domain = [40, 130, 700, 5000][seed as usize % 4];
            let size = [3, SMALL_MAX, 4 * SMALL_MAX][rng.below(3)];
            let set = random_set(&mut rng, domain, size);
            let members: BTreeSet<u32> = set.iter().collect();
            // Half the probes are drawn from the set itself, so both
            // answers occur.
            let probe: BTreeSet<u32> = (0..rng.below(6) + 1)
                .map(
                    |_| match members.iter().nth(rng.below(members.len().max(1))) {
                        Some(&m) if rng.below(2) == 0 => m,
                        _ => rng.below(domain + 130) as u32,
                    },
                )
                .collect();
            let lo = *probe.first().unwrap() as usize / 64;
            let hi = *probe.last().unwrap() as usize / 64;
            let mut mask = vec![0u64; hi - lo + 1];
            for &o in &probe {
                mask[o as usize / 64 - lo] |= 1 << (o % 64);
            }
            assert_eq!(
                set.covers_mask(lo, &mask),
                probe.is_subset(&members),
                "seed {seed} probe {probe:?}"
            );
        }
    }

    /// `intersects` against a `BTreeSet` model, on small/small,
    /// small/dense and dense/dense pairs in both argument orders. Dense
    /// sets grow to their highest id, so pairs drawn from different
    /// domains have unequal word lengths.
    #[test]
    fn intersects_matches_a_btree_model() {
        let dense = |s: &ObjSet| matches!(s, ObjSet::Dense { .. });
        let mut forms = BTreeSet::new();
        let mut unequal_words = false;
        for seed in 0..512u64 {
            let mut rng = SplitMix64::new(seed);
            let domains = [40, 64, 130, 700, 5000];
            let sizes = [0, 1, 5, SMALL_MAX, 3 * SMALL_MAX];
            let draw = |rng: &mut SplitMix64| {
                let (domain, size) = (domains[rng.below(5)], sizes[rng.below(5)]);
                random_set(rng, domain, size)
            };
            let (a, b) = (draw(&mut rng), draw(&mut rng));
            let (ma, mb): (BTreeSet<u32>, BTreeSet<u32>) = (a.iter().collect(), b.iter().collect());
            let want = !ma.is_disjoint(&mb);
            assert_eq!(a.intersects(&b), want, "seed {seed}");
            assert_eq!(b.intersects(&a), want, "seed {seed}");
            forms.insert((dense(&a), dense(&b), want));
            if let (ObjSet::Dense { words: wa, .. }, ObjSet::Dense { words: wb, .. }) = (&a, &b) {
                unequal_words |= wa.len() != wb.len();
            }
        }
        assert_eq!(forms.len(), 8, "every pairing, intersecting or not");
        assert!(unequal_words, "some dense pair has unequal word lengths");
    }

    #[test]
    fn obj_set_promotes_past_the_small_limit() {
        let mut set = ObjSet::default();
        for id in (0..=SMALL_MAX as u32).rev() {
            assert!(set.insert(id * 70));
        }
        assert!(matches!(set, ObjSet::Dense { .. }));
        assert!(!set.insert(0));
        assert!(set.insert(100_000));
        let got: Vec<u32> = set.iter().collect();
        let mut want: Vec<u32> = (0..=SMALL_MAX as u32).map(|i| i * 70).collect();
        want.push(100_000);
        assert_eq!(got, want);
        assert_eq!(set.len(), SMALL_MAX + 2);
    }
}
