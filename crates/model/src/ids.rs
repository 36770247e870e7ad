//! Identifiers for atom types, link types and atoms.
//!
//! Def. 1 of the paper requires every atom to be *uniquely identifiable*; the
//! MAD link concept (Def. 2) then references atoms by that identity rather
//! than by foreign-key values. We realize identity as the pair
//! *(atom type, slot)*: 8 bytes, `Copy`, and cheap to hash with the Fx
//! hasher. Slots are allocated by the storage engine and never reused within
//! one database, so an `AtomId` is stable for the lifetime of its database.

use std::fmt;

/// Index of an atom type within a [`crate::Schema`] (position in `AT`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomTypeId(pub u32);

/// Index of a link type within a [`crate::Schema`] (position in `LT`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkTypeId(pub u32);

/// The identity of an atom: its atom type plus a slot unique within the type.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomId {
    /// The atom type this atom belongs to.
    pub ty: AtomTypeId,
    /// The slot within the atom-type occurrence. Never reused.
    pub slot: u32,
}

impl AtomId {
    /// Build an atom id from its parts.
    #[inline]
    pub const fn new(ty: AtomTypeId, slot: u32) -> Self {
        AtomId { ty, slot }
    }

    /// Pack into a single `u64` (useful as a compact map key or for export).
    #[inline]
    pub const fn pack(self) -> u64 {
        ((self.ty.0 as u64) << 32) | self.slot as u64
    }

    /// Inverse of [`AtomId::pack`].
    #[inline]
    pub const fn unpack(packed: u64) -> Self {
        AtomId {
            ty: AtomTypeId((packed >> 32) as u32),
            slot: packed as u32,
        }
    }
}

impl fmt::Debug for AtomTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at{}", self.0)
    }
}

impl fmt::Debug for LinkTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lt{}", self.0)
    }
}

impl fmt::Debug for AtomId {
    /// `a<ty>.<slot>`, written by [`crate::text::TextWriter::push_atom_id`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = crate::text::TextWriter::with_capacity(24);
        out.push_atom_id(*self);
        f.write_str(&out.into_string())
    }
}

impl fmt::Display for AtomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An undirected link occurrence: the unsorted pair `<a1, a2>` of Def. 2.
///
/// The pair is stored in normalized order (smaller id first) so that value
/// equality coincides with the unordered-pair equality of the formalism.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkPair {
    lo: AtomId,
    hi: AtomId,
}

impl LinkPair {
    /// Normalize `(a, b)` into an unordered pair.
    #[inline]
    pub fn new(a: AtomId, b: AtomId) -> Self {
        if a <= b {
            LinkPair { lo: a, hi: b }
        } else {
            LinkPair { lo: b, hi: a }
        }
    }

    /// The smaller endpoint.
    #[inline]
    pub fn lo(self) -> AtomId {
        self.lo
    }

    /// The larger endpoint.
    #[inline]
    pub fn hi(self) -> AtomId {
        self.hi
    }

    /// Both endpoints, smaller first.
    #[inline]
    pub fn endpoints(self) -> (AtomId, AtomId) {
        (self.lo, self.hi)
    }

    /// Given one endpoint, return the other; `None` if `a` is not part of the
    /// pair. A reflexive self-link `(a, a)` partners with itself.
    #[inline]
    pub fn partner_of(self, a: AtomId) -> Option<AtomId> {
        if a == self.lo {
            Some(self.hi)
        } else if a == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }
}

impl fmt::Debug for LinkPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:?},{:?}>", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let id = AtomId::new(AtomTypeId(7), 123_456);
        assert_eq!(AtomId::unpack(id.pack()), id);
    }

    #[test]
    fn pack_roundtrip_extremes() {
        for id in [
            AtomId::new(AtomTypeId(0), 0),
            AtomId::new(AtomTypeId(u32::MAX), u32::MAX),
            AtomId::new(AtomTypeId(0), u32::MAX),
            AtomId::new(AtomTypeId(u32::MAX), 0),
        ] {
            assert_eq!(AtomId::unpack(id.pack()), id);
        }
    }

    #[test]
    fn link_pair_is_unordered() {
        let a = AtomId::new(AtomTypeId(1), 5);
        let b = AtomId::new(AtomTypeId(2), 3);
        assert_eq!(LinkPair::new(a, b), LinkPair::new(b, a));
    }

    #[test]
    fn link_pair_partner() {
        let a = AtomId::new(AtomTypeId(1), 5);
        let b = AtomId::new(AtomTypeId(2), 3);
        let c = AtomId::new(AtomTypeId(2), 4);
        let l = LinkPair::new(a, b);
        assert_eq!(l.partner_of(a), Some(b));
        assert_eq!(l.partner_of(b), Some(a));
        assert_eq!(l.partner_of(c), None);
    }

    #[test]
    fn reflexive_self_link() {
        let a = AtomId::new(AtomTypeId(1), 5);
        let l = LinkPair::new(a, a);
        assert_eq!(l.partner_of(a), Some(a));
        assert_eq!(l.endpoints(), (a, a));
    }

    #[test]
    fn atom_id_ordering_is_type_major() {
        let a = AtomId::new(AtomTypeId(1), 100);
        let b = AtomId::new(AtomTypeId(2), 0);
        assert!(a < b);
    }

    #[test]
    fn debug_formats() {
        let id = AtomId::new(AtomTypeId(3), 9);
        assert_eq!(format!("{id:?}"), "a3.9");
        assert_eq!(format!("{:?}", AtomTypeId(3)), "at3");
        assert_eq!(format!("{:?}", LinkTypeId(4)), "lt4");
    }
}
