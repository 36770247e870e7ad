//! Storage for one link-type occurrence (`lv` of Def. 2).
//!
//! A link store keeps the adjacency of one link type in both directions:
//! `fwd` maps a side-0 atom to its sorted side-1 partners, `bwd` the reverse.
//! Both maps together realize the **symmetric** link concept of the MAD
//! model — "the direct representation and the consideration of
//! bidirectional, i.e. symmetric links establish the basis of the model's
//! flexibility" (§2) — while still giving reflexive link types a
//! well-defined orientation (side 0 = e.g. super-component, side 1 =
//! sub-component).
//!
//! Each side holds atoms of a single atom type (the link type's endpoint),
//! so both maps are indexed by **slot**, in copy-on-write chunks of
//! [`CHUNK`](crate::CHUNK) slots: a `connect` on a forked store
//! copies one chunk per side, and walking a side in slot order visits its
//! atoms in [`AtomId`] order without a sort. Postings are kept sorted so
//! that membership tests are `O(log d)` and iteration order is
//! deterministic (which the test suite and the figure regeneration rely
//! on).

use crate::chunk::Chunked;
use mad_model::{AtomId, AtomTypeId, LinkPair};

/// The adjacency store backing one link type.
#[derive(Clone, Debug)]
pub struct LinkStore {
    /// The endpoint atom types: side 0 and side 1.
    ends: [AtomTypeId; 2],
    /// Per side-0 slot: its side-1 partners, sorted.
    pub(crate) fwd: Chunked<Vec<AtomId>>,
    /// Per side-1 slot: its side-0 partners, sorted.
    pub(crate) bwd: Chunked<Vec<AtomId>>,
    count: usize,
}

fn insert_sorted(v: &mut Vec<AtomId>, x: AtomId) -> bool {
    match v.binary_search(&x) {
        Ok(_) => false,
        Err(pos) => {
            v.insert(pos, x);
            true
        }
    }
}

fn remove_sorted(v: &mut Vec<AtomId>, x: AtomId) -> bool {
    match v.binary_search(&x) {
        Ok(pos) => {
            v.remove(pos);
            true
        }
        Err(_) => false,
    }
}

/// The posting of `atom` on one side, or empty when the atom is not of
/// that side's type.
#[inline]
fn posting(side: &Chunked<Vec<AtomId>>, ty: AtomTypeId, atom: AtomId) -> &[AtomId] {
    if atom.ty != ty {
        return &[];
    }
    side.get(atom.slot).map_or(&[], Vec::as_slice)
}

/// Take `atom`'s posting out of `own`, its side, and remove `atom` from
/// each partner's posting in `other`. Returns how many links went; an atom
/// without links copies no chunk.
fn detach(own: &mut Chunked<Vec<AtomId>>, other: &mut Chunked<Vec<AtomId>>, atom: AtomId) -> usize {
    if own.get(atom.slot).is_none_or(Vec::is_empty) {
        return 0;
    }
    let partners = own.get_mut(atom.slot).map(std::mem::take).unwrap_or_default();
    for p in &partners {
        if let Some(v) = other.get_mut(p.slot) {
            remove_sorted(v, atom);
        }
    }
    partners.len()
}

impl LinkStore {
    /// An empty store for a link type between `ends[0]` (side 0) and
    /// `ends[1]` (side 1).
    pub fn new(ends: [AtomTypeId; 2]) -> Self {
        LinkStore {
            ends,
            fwd: Chunked::default(),
            bwd: Chunked::default(),
            count: 0,
        }
    }

    /// Insert the link `(side0, side1)`. Returns `false` if it already
    /// existed (link occurrences are sets) or if the atoms are not of the
    /// endpoint types.
    pub fn insert(&mut self, side0: AtomId, side1: AtomId) -> bool {
        let [t0, t1] = self.ends;
        if side0.ty != t0 || side1.ty != t1 || self.contains(side0, side1) {
            return false;
        }
        insert_sorted(self.fwd.entry(side0.slot), side1);
        insert_sorted(self.bwd.entry(side1.slot), side0);
        self.count += 1;
        true
    }

    /// Remove the link `(side0, side1)`. Returns `false` if absent.
    pub fn remove(&mut self, side0: AtomId, side1: AtomId) -> bool {
        if !self.contains(side0, side1) {
            return false;
        }
        if let Some(v) = self.fwd.get_mut(side0.slot) {
            remove_sorted(v, side1);
        }
        if let Some(v) = self.bwd.get_mut(side1.slot) {
            remove_sorted(v, side0);
        }
        self.count -= 1;
        true
    }

    /// Does the link `(side0, side1)` exist (in this orientation)?
    pub fn contains(&self, side0: AtomId, side1: AtomId) -> bool {
        self.partners_fwd(side0).binary_search(&side1).is_ok()
    }

    /// Side-1 partners of a side-0 atom (sorted).
    #[inline]
    pub fn partners_fwd(&self, side0: AtomId) -> &[AtomId] {
        let [t0, _] = self.ends;
        posting(&self.fwd, t0, side0)
    }

    /// Side-0 partners of a side-1 atom (sorted).
    #[inline]
    pub fn partners_bwd(&self, side1: AtomId) -> &[AtomId] {
        let [_, t1] = self.ends;
        posting(&self.bwd, t1, side1)
    }

    /// All partners of `atom` regardless of side — the symmetric view. For
    /// non-reflexive link types an atom appears on only one side, so this
    /// equals the per-side view; for reflexive link types it merges both
    /// orientations (deduplicated).
    pub fn partners_sym(&self, atom: AtomId) -> Vec<AtomId> {
        let f = self.partners_fwd(atom);
        let b = self.partners_bwd(atom);
        if b.is_empty() {
            return f.to_vec();
        }
        if f.is_empty() {
            return b.to_vec();
        }
        // merge two sorted lists, deduplicating
        let mut out = Vec::with_capacity(f.len() + b.len());
        crate::merge::merge_sorted_dedup(f, b, |x| out.push(x));
        out
    }

    /// Number of side-1 partners of a side-0 atom (for cardinality checks).
    pub fn degree_fwd(&self, side0: AtomId) -> usize {
        self.partners_fwd(side0).len()
    }

    /// Number of side-0 partners of a side-1 atom.
    pub fn degree_bwd(&self, side1: AtomId) -> usize {
        self.partners_bwd(side1).len()
    }

    /// Remove every link incident to `atom` (both sides). Returns how many
    /// links were removed. Used by cascading atom deletion.
    pub fn remove_atom(&mut self, atom: AtomId) -> usize {
        let [t0, t1] = self.ends;
        let mut removed = 0;
        if atom.ty == t0 {
            removed += detach(&mut self.fwd, &mut self.bwd, atom);
        }
        if atom.ty == t1 {
            removed += detach(&mut self.bwd, &mut self.fwd, atom);
        }
        self.count -= removed;
        removed
    }

    /// Number of links in the occurrence.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the occurrence is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// One side's postings in slot order: side 0 gives every side-0 slot's
    /// side-1 partners (`fwd`), side 1 every side-1 slot's side-0 partners
    /// (`bwd`). Slots without links yield an empty posting.
    pub(crate) fn postings(&self, side: usize) -> impl Iterator<Item = &[AtomId]> {
        let map = if side == 0 { &self.fwd } else { &self.bwd };
        map.iter().map(Vec::as_slice)
    }

    /// Iterate all links as oriented `(side0, side1)` pairs, in sorted order
    /// of `side0` then `side1` (deterministic): side 0 holds one atom type,
    /// so slot order is [`AtomId`] order.
    pub fn iter_oriented(&self) -> impl Iterator<Item = (AtomId, AtomId)> + '_ {
        let [ty, _] = self.ends;
        self.postings(0).enumerate().flat_map(move |(slot, partners)| {
            let a = AtomId::new(ty, slot as u32);
            partners.iter().map(move |&b| (a, b))
        })
    }

    /// Iterate all links as normalized unordered [`LinkPair`]s.
    pub fn iter_pairs(&self) -> impl Iterator<Item = LinkPair> + '_ {
        self.iter_oriented().map(|(a, b)| LinkPair::new(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(slot: u32) -> AtomId {
        AtomId::new(AtomTypeId(0), slot)
    }
    fn b(slot: u32) -> AtomId {
        AtomId::new(AtomTypeId(1), slot)
    }
    /// A store between types 0 and 1.
    fn ab() -> LinkStore {
        LinkStore::new([AtomTypeId(0), AtomTypeId(1)])
    }
    /// A reflexive store on type 0.
    fn aa() -> LinkStore {
        LinkStore::new([AtomTypeId(0), AtomTypeId(0)])
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = ab();
        assert!(s.insert(a(1), b(2)));
        assert!(!s.insert(a(1), b(2)), "set semantics");
        assert!(s.contains(a(1), b(2)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(a(1), b(2)));
        assert!(!s.remove(a(1), b(2)));
        assert!(s.is_empty());
    }

    #[test]
    fn partners_sorted() {
        let mut s = ab();
        s.insert(a(1), b(5));
        s.insert(a(1), b(2));
        s.insert(a(1), b(9));
        assert_eq!(s.partners_fwd(a(1)), &[b(2), b(5), b(9)]);
        assert_eq!(s.partners_bwd(b(5)), &[a(1)]);
        assert_eq!(s.degree_fwd(a(1)), 3);
        assert_eq!(s.degree_bwd(b(2)), 1);
    }

    #[test]
    fn symmetric_view_non_reflexive() {
        let mut s = ab();
        s.insert(a(1), b(2));
        assert_eq!(s.partners_sym(a(1)), vec![b(2)]);
        assert_eq!(s.partners_sym(b(2)), vec![a(1)]);
    }

    #[test]
    fn symmetric_view_reflexive_merges_sides() {
        // reflexive link type: both endpoints in type 0
        let mut s = aa();
        s.insert(a(1), a(2)); // 1 super of 2
        s.insert(a(3), a(1)); // 3 super of 1
        let sym = s.partners_sym(a(1));
        assert_eq!(sym, vec![a(2), a(3)]);
        assert_eq!(s.partners_fwd(a(1)), &[a(2)]);
        assert_eq!(s.partners_bwd(a(1)), &[a(3)]);
    }

    #[test]
    fn symmetric_view_dedups_bidirectional_pair() {
        let mut s = aa();
        s.insert(a(1), a(2));
        s.insert(a(2), a(1));
        assert_eq!(s.partners_sym(a(1)), vec![a(2)]);
        assert_eq!(s.len(), 2, "two oriented links");
    }

    #[test]
    fn remove_atom_cascades_both_sides() {
        let mut s = ab();
        s.insert(a(1), b(1));
        s.insert(a(1), b(2));
        s.insert(a(2), b(1));
        assert_eq!(s.remove_atom(b(1)), 2);
        assert_eq!(s.len(), 1);
        assert!(s.contains(a(1), b(2)));
        assert!(!s.contains(a(1), b(1)));
        assert_eq!(s.partners_fwd(a(2)), &[] as &[AtomId]);
    }

    #[test]
    fn remove_self_link() {
        let mut s = aa();
        s.insert(a(1), a(1));
        assert_eq!(s.len(), 1);
        // a self link sits in fwd[a1] and bwd[a1]; it is one link and must
        // be counted once when the atom goes away
        assert_eq!(s.remove_atom(a(1)), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn iter_oriented_deterministic() {
        let mut s = ab();
        s.insert(a(2), b(1));
        s.insert(a(1), b(2));
        s.insert(a(1), b(1));
        let links: Vec<(AtomId, AtomId)> = s.iter_oriented().collect();
        assert_eq!(links, vec![(a(1), b(1)), (a(1), b(2)), (a(2), b(1))]);
    }

    #[test]
    fn atoms_of_the_wrong_type_are_never_stored_or_found() {
        let mut s = ab();
        assert!(!s.insert(b(1), a(1)), "reversed orientation is rejected");
        assert!(s.is_empty());
        s.insert(a(1), b(1));
        assert!(!s.contains(b(1), a(1)));
        assert!(s.partners_bwd(a(1)).is_empty(), "slot 1 of side 1 is b(1), not a(1)");
        assert_eq!(s.remove_atom(AtomId::new(AtomTypeId(7), 1)), 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn postings_cross_chunk_boundaries() {
        let mut s = ab();
        for slot in [0, 63, 64, 65, 127, 128] {
            s.insert(a(slot), b(200 - slot));
        }
        let fwd: Vec<(AtomId, AtomId)> = s.iter_oriented().collect();
        assert_eq!(fwd.len(), 6);
        assert_eq!(fwd[2], (a(64), b(136)));
        assert!(fwd.windows(2).all(|w| w[0] < w[1]), "sorted without a sort");
        assert_eq!(s.remove_atom(b(136)), 1);
        assert!(s.partners_fwd(a(64)).is_empty());
    }

    #[test]
    fn iter_pairs_normalized() {
        let mut s = ab();
        s.insert(a(1), b(1));
        let pairs: Vec<LinkPair> = s.iter_pairs().collect();
        assert_eq!(pairs, vec![LinkPair::new(b(1), a(1))]);
    }
}
