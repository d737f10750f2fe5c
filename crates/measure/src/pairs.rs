//! A hash-free set of unordered instance pairs.
//!
//! Prune loops ask "is `{a, b}` in this set?" once per scheduled pair per
//! stage — for protected pairs, condemned pairs, post-stop keeps, and the
//! driver's own dedup. A SipHash `HashSet<(u32, u32)>` pays a hash per
//! question; [`PairSet`] answers it with one shift and one mask over a
//! triangular bitmap instead.

/// A set of unordered pairs `{a, b}` with `a != b`, stored as one bit per
/// pair in the triangular layout `hi·(hi−1)/2 + lo`. Insertion, removal,
/// and lookup are O(1) and hash-free; the bitmap grows with the largest
/// id inserted (ids below `m` cost at most `m²/128` words — 1/64 of one
/// stats column), and lookups beyond it answer `false` without growing.
///
/// Callers that reuse one set as scratch clear it by removing exactly the
/// pairs they inserted, so a clear costs O(entries), not O(m²).
#[derive(Debug, Clone, Default)]
pub struct PairSet {
    bits: Vec<u64>,
    len: usize,
}

impl PairSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bit index of the unordered pair `{a, b}`, or `None` for `a == b`.
    #[inline]
    fn slot(a: u32, b: u32) -> Option<usize> {
        let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
        (lo != hi).then(|| hi * (hi - 1) / 2 + lo)
    }

    /// Adds `{a, b}`; returns `true` if it was not already present. A
    /// self-pair (`a == b`) is never stored.
    pub fn insert(&mut self, a: u32, b: u32) -> bool {
        let Some(slot) = Self::slot(a, b) else { return false };
        let word = slot / 64;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1u64 << (slot % 64);
        let fresh = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `{a, b}`; returns `true` if it was present.
    pub fn remove(&mut self, a: u32, b: u32) -> bool {
        let Some(slot) = Self::slot(a, b) else { return false };
        let Some(word) = self.bits.get_mut(slot / 64) else { return false };
        let mask = 1u64 << (slot % 64);
        let present = *word & mask != 0;
        *word &= !mask;
        self.len -= usize::from(present);
        present
    }

    /// True if `{a, b}` (in either orientation) is in the set.
    #[inline]
    pub fn contains(&self, a: u32, b: u32) -> bool {
        Self::slot(a, b)
            .and_then(|slot| self.bits.get(slot / 64).map(|w| w & (1u64 << (slot % 64)) != 0))
            .unwrap_or(false)
    }

    /// Number of distinct pairs in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set holds no pair.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Extend<(u32, u32)> for PairSet {
    fn extend<I: IntoIterator<Item = (u32, u32)>>(&mut self, pairs: I) {
        for (a, b) in pairs {
            self.insert(a, b);
        }
    }
}

impl FromIterator<(u32, u32)> for PairSet {
    fn from_iter<I: IntoIterator<Item = (u32, u32)>>(pairs: I) -> Self {
        let mut set = Self::new();
        set.extend(pairs);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn matches_a_normalized_hash_set() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let mut set = PairSet::new();
        let mut oracle: HashSet<(u32, u32)> = HashSet::new();
        for _ in 0..4000 {
            let (a, b) = (rng.random_range(0..90u32), rng.random_range(0..90u32));
            let key = (a.min(b), a.max(b));
            if rng.random::<f64>() < 0.6 {
                assert_eq!(set.insert(a, b), a != b && oracle.insert(key));
            } else {
                assert_eq!(set.remove(a, b), oracle.remove(&key));
            }
            assert_eq!(set.len(), oracle.len());
        }
        for a in 0..100u32 {
            for b in 0..100u32 {
                assert_eq!(set.contains(a, b), oracle.contains(&(a.min(b), a.max(b))));
            }
        }
    }

    #[test]
    fn self_pairs_and_unseen_ids_are_absent() {
        let mut set: PairSet = [(3u32, 3u32), (1, 2)].into_iter().collect();
        assert_eq!(set.len(), 1);
        assert!(!set.contains(3, 3));
        assert!(set.contains(2, 1));
        assert!(!set.contains(1_000_000, 7), "lookups beyond the bitmap answer false");
        assert!(!set.remove(1_000_000, 7));
        assert!(set.remove(1, 2) && set.is_empty());
    }
}
