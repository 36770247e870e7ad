//! Storage for one atom-type occurrence (`av` of Def. 1).
//!
//! Atoms are stored slot-addressed; slots are never reused so that an
//! [`AtomId`] stays valid (or verifiably dead) for the lifetime of the
//! database. Deletion leaves a tombstone; iteration skips tombstones.
//!
//! Rows live in copy-on-write chunks of [`CHUNK`](crate::CHUNK)
//! slots, so a write to a forked store copies one chunk, not the type.

use crate::chunk::Chunked;
use mad_model::{AtomId, AtomTypeId, Value};

/// One slot: the tuple of a live atom, or a tombstone.
type Row = Option<Box<[Value]>>;

/// The tuple store backing one atom type.
#[derive(Clone, Debug, Default)]
pub struct AtomStore {
    pub(crate) rows: Chunked<Row>,
    slots: u32,
    live: usize,
}

impl AtomStore {
    /// An empty store.
    pub fn new() -> Self {
        AtomStore::default()
    }

    /// Append an atom, returning its slot.
    pub fn insert(&mut self, tuple: Vec<Value>) -> u32 {
        let slot = self.slots;
        *self.rows.entry(slot) = Some(tuple.into_boxed_slice());
        self.slots += 1;
        self.live += 1;
        slot
    }

    /// Fetch the tuple in `slot`, if alive.
    #[inline]
    pub fn get(&self, slot: u32) -> Option<&[Value]> {
        self.rows.get(slot).and_then(|r| r.as_deref())
    }

    /// Mutable access to the tuple in `slot`, if alive.
    #[inline]
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut [Value]> {
        // a dead slot must not copy its chunk out of a fork
        if !self.contains(slot) {
            return None;
        }
        self.rows.get_mut(slot).and_then(|r| r.as_deref_mut())
    }

    /// Tombstone the atom in `slot`; returns the removed tuple if it was
    /// alive.
    pub fn remove(&mut self, slot: u32) -> Option<Box<[Value]>> {
        if !self.contains(slot) {
            return None;
        }
        let removed = self.rows.get_mut(slot)?.take();
        if removed.is_some() {
            self.live -= 1;
        }
        removed
    }

    /// Is `slot` alive?
    #[inline]
    pub fn contains(&self, slot: u32) -> bool {
        self.get(slot).is_some()
    }

    /// Number of live atoms.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live atoms remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (live + tombstones).
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots as usize
    }

    /// Iterate live atoms as `(slot, tuple)` in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[Value])> {
        // the tombstone filter runs inside each chunk's loop: filtering the
        // flattened slots instead scanned twice as slowly
        self.rows.chunks().iter().enumerate().flat_map(|(ci, chunk)| {
            let base = (ci * crate::CHUNK) as u32;
            chunk
                .iter()
                .enumerate()
                .filter_map(move |(i, r)| r.as_deref().map(|t| (base + i as u32, t)))
        })
    }

    /// Iterate live atoms of a given atom type as `(AtomId, tuple)`.
    pub fn iter_ids(&self, ty: AtomTypeId) -> impl Iterator<Item = (AtomId, &[Value])> {
        self.iter().map(move |(slot, t)| (AtomId::new(ty, slot), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup(i: i64) -> Vec<Value> {
        vec![Value::Int(i)]
    }

    #[test]
    fn insert_get() {
        let mut s = AtomStore::new();
        let a = s.insert(tup(1));
        let b = s.insert(tup(2));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(s.get(a).unwrap()[0], Value::Int(1));
        assert_eq!(s.get(b).unwrap()[0], Value::Int(2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn remove_leaves_tombstone_and_no_slot_reuse() {
        let mut s = AtomStore::new();
        let a = s.insert(tup(1));
        assert!(s.remove(a).is_some());
        assert!(s.remove(a).is_none(), "double delete is a no-op");
        assert!(!s.contains(a));
        assert_eq!(s.len(), 0);
        let b = s.insert(tup(2));
        assert_ne!(a, b, "slots are never reused");
        assert_eq!(s.slots(), 2);
    }

    #[test]
    fn get_out_of_range() {
        let s = AtomStore::new();
        assert!(s.get(7).is_none());
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut s = AtomStore::new();
        let _a = s.insert(tup(1));
        let b = s.insert(tup(2));
        let _c = s.insert(tup(3));
        s.remove(b);
        let vals: Vec<i64> = s.iter().map(|(_, t)| t[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 3]);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut s = AtomStore::new();
        let a = s.insert(tup(1));
        s.get_mut(a).unwrap()[0] = Value::Int(99);
        assert_eq!(s.get(a).unwrap()[0], Value::Int(99));
    }

    #[test]
    fn slots_across_chunk_boundaries() {
        let mut s = AtomStore::new();
        for i in 0..130 {
            assert_eq!(s.insert(tup(i)), i as u32);
        }
        for slot in [0, 63, 64, 65, 127, 128] {
            assert!(s.remove(slot).is_some());
        }
        assert_eq!((s.len(), s.slots()), (124, 130));
        assert!(s.get(64).is_none() && s.get(129).is_some() && s.get(130).is_none());
        let slots: Vec<u32> = s.iter().map(|(slot, _)| slot).collect();
        assert_eq!(slots.len(), 124);
        assert_eq!(&slots[61..64], &[62, 66, 67]);
        assert_eq!(slots.last(), Some(&129));
    }

    #[test]
    fn iter_ids_carries_type() {
        let mut s = AtomStore::new();
        s.insert(tup(1));
        let ty = AtomTypeId(4);
        let ids: Vec<AtomId> = s.iter_ids(ty).map(|(id, _)| id).collect();
        assert_eq!(ids, vec![AtomId::new(ty, 0)]);
    }
}
