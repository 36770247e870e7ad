//! Dense bitsets over atom slots.
//!
//! The storage engine allocates atom slots append-only and never reuses
//! them, so the slot index is a stable *dense* key for every atom of one
//! type. A [`BitSet`] indexed by slot therefore represents an atom set of
//! one atom type in `slots/8` bytes, and the ∀/∃ containment condition of
//! Def. 6 becomes word-wise `AND`/`OR` — the set-at-a-time representation
//! of `mad-core`'s derivation engine (`Strategy::Bitset`) and of the
//! frontier expansion of `mad-storage`'s CSR snapshots.
//!
//! The set keeps a **dirty word window** — the range of words that may be
//! nonzero. [`BitSet::clear`] zeroes only that window and iteration scans
//! only that window, so the per-root reset/collect cycle of the bitset
//! derivation engine costs proportional to the *molecule*, not to the
//! whole slot horizon of the atom type.
//!
//! Iteration order is ascending slot order, which coincides with the sorted
//! `Vec<AtomId>` order used everywhere else (within one atom type), so
//! bitset-derived molecules come out identical to the per-root reference
//! derivation.

/// A fixed-capacity dense bitset with a dirty-window fast clear.
///
/// Invariant: every nonzero word lies inside `dirty_lo..=dirty_hi`
/// (`dirty_lo > dirty_hi` means the set is known empty), and the boundary
/// words of a nonempty window are nonzero — ops that can strand zeros at
/// the edges ([`BitSet::remove`], [`BitSet::intersect_with`]) re-tighten.
#[derive(Clone, Debug)]
pub struct BitSet {
    words: Vec<u64>,
    dirty_lo: usize,
    dirty_hi: usize,
}

impl Default for BitSet {
    /// An empty set with the canonical empty window (`lo > hi`); a derived
    /// default would claim word 0 as dirty and spoil the window invariant.
    fn default() -> Self {
        BitSet {
            words: Vec::new(),
            dirty_lo: usize::MAX,
            dirty_hi: 0,
        }
    }
}

impl BitSet {
    /// An empty set able to hold bits `0..nbits`.
    pub fn with_capacity(nbits: usize) -> Self {
        BitSet {
            words: vec![0; nbits.div_ceil(64)],
            dirty_lo: usize::MAX,
            dirty_hi: 0,
        }
    }

    /// Number of representable bits (a multiple of 64).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.words.len() * 64
    }

    #[inline]
    fn mark(&mut self, word: usize) {
        if self.dirty_lo > self.dirty_hi {
            self.dirty_lo = word;
            self.dirty_hi = word;
        } else {
            self.dirty_lo = self.dirty_lo.min(word);
            self.dirty_hi = self.dirty_hi.max(word);
        }
    }

    /// The window of words that may be nonzero, as a slice bound pair.
    #[inline]
    fn window(&self) -> (usize, usize) {
        if self.dirty_lo > self.dirty_hi {
            (0, 0)
        } else {
            (self.dirty_lo, (self.dirty_hi + 1).min(self.words.len()))
        }
    }

    /// Shrink the dirty window to the outermost nonzero words. Cost is
    /// proportional to the number of zero *boundary* words only, so ops
    /// that can strand zeros at the window edges (`remove`,
    /// `intersect_with`) call this to keep later clears/iterations tight.
    fn trim(&mut self) {
        if self.dirty_lo > self.dirty_hi {
            return;
        }
        let mut lo = self.dirty_lo;
        let mut hi = self.dirty_hi.min(self.words.len().saturating_sub(1));
        while lo <= hi && self.words[lo] == 0 {
            lo += 1;
        }
        if lo > hi {
            self.dirty_lo = usize::MAX;
            self.dirty_hi = 0;
            return;
        }
        while self.words[hi] == 0 {
            hi -= 1;
        }
        self.dirty_lo = lo;
        self.dirty_hi = hi;
    }

    /// Set bit `i`. The set grows if `i` is beyond the current capacity.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (i % 64);
        self.mark(w);
    }

    /// Clear bit `i` (no-op when out of range). A boundary word zeroed by
    /// the removal shrinks the dirty window.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        let wi = i / 64;
        if let Some(w) = self.words.get_mut(wi) {
            *w &= !(1u64 << (i % 64));
            if *w == 0 && (wi == self.dirty_lo || wi == self.dirty_hi) {
                self.trim();
            }
        }
    }

    /// Is bit `i` set?
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Remove every bit. Only the dirty window is written, so clearing a
    /// sparse set is O(words touched since the last clear).
    pub fn clear(&mut self) {
        let (lo, hi) = self.window();
        self.words[lo..hi].fill(0);
        self.dirty_lo = usize::MAX;
        self.dirty_hi = 0;
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        let (lo, hi) = self.window();
        self.words[lo..hi].iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        let (lo, hi) = self.window();
        self.words[lo..hi]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// `self ∩= other` (word-wise AND; bits beyond `other` are cleared).
    pub fn intersect_with(&mut self, other: &BitSet) {
        // nonzero words can only survive where both windows overlap, and
        // writing zeros never violates the dirty-window invariant
        let (lo, hi) = self.window();
        let n = hi.min(other.words.len());
        for i in lo..n {
            self.words[i] &= other.words[i];
        }
        for w in &mut self.words[n.max(lo)..hi] {
            *w = 0;
        }
        // the AND can zero arbitrarily many boundary words; re-tighten so
        // the next clear/iteration does not pay for them
        self.trim();
    }

    /// `self ∪= other` (word-wise OR; grows to fit `other`).
    pub fn union_with(&mut self, other: &BitSet) {
        let (mut olo, mut ohi) = other.window();
        // skip zero boundary words of `other` so a sloppily-windowed
        // operand does not widen our window past its actual content
        while olo < ohi && other.words[olo] == 0 {
            olo += 1;
        }
        while ohi > olo && other.words[ohi - 1] == 0 {
            ohi -= 1;
        }
        if olo >= ohi {
            return;
        }
        if ohi > self.words.len() {
            self.words.resize(ohi, 0);
        }
        for i in olo..ohi {
            self.words[i] |= other.words[i];
        }
        self.mark(olo);
        self.mark(ohi - 1);
    }

    /// Do the two sets share any bit? (early-exits per word)
    pub fn intersects(&self, other: &BitSet) -> bool {
        let (lo, hi) = self.window();
        let hi = hi.min(other.words.len());
        (lo..hi).any(|i| self.words[i] & other.words[i] != 0)
    }

    /// Iterate set bits in ascending order (scans the dirty window only).
    pub fn iter(&self) -> Iter<'_> {
        let (lo, hi) = self.window();
        Iter {
            words: &self.words[..hi],
            word_idx: lo,
            current: self.words.get(lo).copied().unwrap_or(0),
        }
    }

    /// The raw words (low bit of word 0 = bit 0).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

impl PartialEq for BitSet {
    /// Logical set equality: capacity and dirty-window bookkeeping are
    /// ignored, only the set bits count.
    fn eq(&self, other: &BitSet) -> bool {
        let n = self.words.len().max(other.words.len());
        (0..n).all(|i| {
            self.words.get(i).copied().unwrap_or(0) == other.words.get(i).copied().unwrap_or(0)
        })
    }
}

impl Eq for BitSet {}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = BitSet::default();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

/// Ascending iterator over set bits.
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * 64 + bit)
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::with_capacity(100);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(99));
        assert!(!s.contains(1) && !s.contains(100));
        assert_eq!(s.len(), 4);
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn grows_on_demand() {
        let mut s = BitSet::default();
        s.insert(1000);
        assert!(s.contains(1000));
        assert!(!s.contains(999));
    }

    #[test]
    fn iteration_is_sorted() {
        let s: BitSet = [99usize, 5, 64, 0, 63].into_iter().collect();
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 5, 63, 64, 99]);
    }

    #[test]
    fn intersect_clears_tail() {
        let a: BitSet = [1usize, 70, 200].into_iter().collect();
        let b: BitSet = [1usize, 70].into_iter().collect();
        let mut c = a.clone();
        c.intersect_with(&b);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![1, 70]);
        assert!(a.intersects(&b));
    }

    #[test]
    fn union_grows() {
        let mut a: BitSet = [1usize].into_iter().collect();
        let b: BitSet = [500usize].into_iter().collect();
        a.union_with(&b);
        assert!(a.contains(1) && a.contains(500));
    }

    #[test]
    fn empty_set_behaves() {
        let s = BitSet::default();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.intersects(&s));
    }

    #[test]
    fn clear_resets_only_dirty_window_but_fully() {
        let mut s = BitSet::with_capacity(10_000);
        s.insert(5000);
        s.insert(5100);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(5000) && !s.contains(5100));
        assert_eq!(s.iter().count(), 0);
        // reuse after clear behaves like a fresh set
        s.insert(1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn equality_ignores_capacity_and_window() {
        let mut a = BitSet::with_capacity(64);
        let mut b = BitSet::with_capacity(100_000);
        b.insert(90_000);
        b.clear();
        a.insert(3);
        b.insert(3);
        assert_eq!(a, b);
        b.insert(4);
        assert_ne!(a, b);
    }

    /// The tightened invariant the derivation engine relies on: every
    /// nonzero word lies inside the dirty window, and the boundary words of
    /// a nonempty window are themselves nonzero (no stale bounds).
    fn assert_tight(s: &BitSet, ctx: &str) {
        let nonzero: Vec<usize> = s
            .words
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0)
            .map(|(i, _)| i)
            .collect();
        match (nonzero.first(), nonzero.last()) {
            (Some(&first), Some(&last)) => {
                assert!(
                    s.dirty_lo <= first && last <= s.dirty_hi,
                    "{ctx}: nonzero words {first}..={last} escape window \
                     {}..={}",
                    s.dirty_lo,
                    s.dirty_hi
                );
                assert_eq!(s.dirty_lo, first, "{ctx}: stale lower bound");
                assert_eq!(s.dirty_hi, last, "{ctx}: stale upper bound");
            }
            _ => assert!(
                s.dirty_lo > s.dirty_hi,
                "{ctx}: empty set keeps a nonempty window {}..={}",
                s.dirty_lo,
                s.dirty_hi
            ),
        }
    }

    #[test]
    fn remove_trims_stale_bounds() {
        let mut s: BitSet = [5usize, 300, 700].into_iter().collect();
        s.remove(700); // upper boundary word becomes zero
        assert_tight(&s, "after removing upper bound");
        s.remove(5); // lower boundary word becomes zero
        assert_tight(&s, "after removing lower bound");
        s.remove(300); // now empty
        assert_tight(&s, "after removing last bit");
        assert!(s.is_empty());
    }

    #[test]
    fn intersect_trims_stale_bounds() {
        let mut a: BitSet = [1usize, 300, 900].into_iter().collect();
        let b: BitSet = [300usize].into_iter().collect();
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![300]);
        assert_tight(&a, "after intersect");
        // disjoint intersection empties the set and the window
        let c: BitSet = [40usize].into_iter().collect();
        a.intersect_with(&c);
        assert!(a.is_empty());
        assert_tight(&a, "after disjoint intersect");
    }

    #[test]
    fn union_ignores_other_stale_window() {
        // widen b's window artificially, then empty the boundary words:
        // union must not inherit the stale bounds
        let mut b: BitSet = [10usize, 2000].into_iter().collect();
        b.remove(10);
        b.remove(2000);
        b.insert(640);
        let mut a: BitSet = [600usize].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![600, 640]);
        assert_tight(&a, "after union with sloppy operand");
        // union with a fully-empty (but once-dirty) set is a no-op
        let mut empty = BitSet::with_capacity(4096);
        empty.insert(3000);
        empty.remove(3000);
        a.union_with(&empty);
        assert_tight(&a, "after union with emptied operand");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn mixed_op_sequence_keeps_window_tight() {
        let mut s = BitSet::with_capacity(4096);
        let mut other = BitSet::with_capacity(4096);
        for i in [0usize, 63, 64, 1000, 4000] {
            s.insert(i);
            assert_tight(&s, "after insert");
        }
        for i in [70usize, 1000, 4000] {
            other.insert(i);
        }
        s.intersect_with(&other);
        assert_tight(&s, "after intersect_with");
        s.remove(4000);
        assert_tight(&s, "after remove");
        s.union_with(&other);
        assert_tight(&s, "after union_with");
        s.clear();
        assert_tight(&s, "after clear");
        s.insert(2);
        assert_tight(&s, "after reuse");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn window_survives_swap_and_reuse_cycle() {
        // the derivation engine's pattern: expand into a scratch set, swap
        // it into place, clear both, repeat
        let mut scratch = BitSet::default();
        let mut slot = BitSet::with_capacity(1_000);
        scratch.insert(900);
        std::mem::swap(&mut slot, &mut scratch);
        assert!(slot.contains(900));
        scratch.clear();
        slot.clear();
        assert!(slot.is_empty() && scratch.is_empty());
        slot.insert(10);
        assert_eq!(slot.iter().collect::<Vec<_>>(), vec![10]);
    }
}
