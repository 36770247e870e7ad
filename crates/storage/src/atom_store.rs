//! Storage for one atom-type occurrence (`av` of Def. 1).
//!
//! Atoms are stored slot-addressed; slots are never reused so that an
//! [`AtomId`] stays valid (or verifiably dead) for the lifetime of the
//! database. Deletion leaves a tombstone; iteration skips tombstones.
//!
//! Tuples live inline in row chunks of [`CHUNK`] slots. A chunk is one
//! `Arc`'d block of `CHUNK × arity` values — slot `i`'s tuple starts at
//! `i × arity` — beside a `u32` mask of its live slots; the arity comes
//! from the atom-type description. Reading a tuple is one load through the
//! directory into the block, an insert moves the values in without an
//! allocation per atom, and the first write to a forked store copies the
//! one block it touches, not the type. [`AtomStore::slots_where`] is the
//! one selection scan over an attribute.

use crate::chunk::{split, CHUNK};
use mad_model::{AtomId, AtomTypeId, CmpOp, Value};
use std::ops::Range;
use std::sync::Arc;

// one mask bit per slot of a chunk
const _: () = assert!(CHUNK == u32::BITS as usize);

/// One chunk of rows. Bit `i` of `live` says whether slot `i` holds an
/// atom; a tombstone or a slot not yet allocated holds nulls.
#[derive(Clone, Debug)]
pub(crate) struct RowChunk {
    live: u32,
    pub(crate) vals: Arc<[Value]>,
}

impl RowChunk {
    fn empty(arity: usize) -> Self {
        RowChunk {
            live: 0,
            vals: std::iter::repeat_n(Value::Null, CHUNK * arity).collect(),
        }
    }

    #[inline]
    fn is_live(&self, i: usize) -> bool {
        self.live >> i & 1 != 0
    }
}

/// Where the tuple at chunk offset `i` sits in its block.
#[inline]
fn span(i: usize, arity: usize) -> Range<usize> {
    i * arity..(i + 1) * arity
}

/// The live atoms of an [`AtomStore`] as `(slot, tuple)`, in slot order.
pub struct Iter<'a> {
    chunks: std::slice::Iter<'a, RowChunk>,
    /// The block of the current chunk, its first slot, and its live slots
    /// not yet yielded.
    vals: &'a [Value],
    base: u32,
    mask: u32,
    arity: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (u32, &'a [Value]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        while self.mask == 0 {
            let chunk = self.chunks.next()?;
            // the first chunk starts at slot 0: `iter` sets `base` one chunk back
            self.base = self.base.wrapping_add(CHUNK as u32);
            self.vals = &chunk.vals;
            self.mask = chunk.live;
        }
        let i = self.mask.trailing_zeros() as usize;
        self.mask &= self.mask - 1;
        #[expect(
            clippy::indexing_slicing,
            reason = "a mask offset is below CHUNK, and a block holds CHUNK × arity values"
        )]
        let tuple = &self.vals[span(i, self.arity)];
        Some((self.base + i as u32, tuple))
    }
}

/// The tuple store backing one atom type.
#[derive(Clone, Debug)]
pub struct AtomStore {
    arity: usize,
    pub(crate) chunks: Vec<RowChunk>,
    slots: u32,
    live: usize,
}

impl AtomStore {
    /// An empty store of tuples with `arity` values.
    pub fn new(arity: usize) -> Self {
        AtomStore {
            arity,
            chunks: Vec::new(),
            slots: 0,
            live: 0,
        }
    }

    /// Append an atom, returning its slot.
    ///
    /// # Panics
    ///
    /// When the tuple does not have the store's arity; the database checks
    /// every tuple against its atom-type description first.
    #[expect(
        clippy::indexing_slicing,
        reason = "slots grow one at a time, so the chunk is the last one, pushed above if new"
    )]
    pub fn insert(&mut self, tuple: Vec<Value>) -> u32 {
        assert_eq!(tuple.len(), self.arity, "tuple arity");
        let slot = self.slots;
        let (ci, i) = split(slot);
        if ci == self.chunks.len() {
            self.chunks.push(RowChunk::empty(self.arity));
        }
        let chunk = &mut self.chunks[ci];
        let dst = &mut Arc::make_mut(&mut chunk.vals)[span(i, self.arity)];
        for (d, v) in dst.iter_mut().zip(tuple) {
            *d = v;
        }
        chunk.live |= 1 << i;
        self.slots += 1;
        self.live += 1;
        slot
    }

    /// Fetch the tuple in `slot`, if alive.
    #[inline]
    pub fn get(&self, slot: u32) -> Option<&[Value]> {
        let (ci, i) = split(slot);
        let chunk = self.chunks.get(ci).filter(|c| c.is_live(i))?;
        chunk.vals.get(span(i, self.arity))
    }

    /// Mutable access to the tuple in `slot`, if alive.
    #[inline]
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut [Value]> {
        let (ci, i) = split(slot);
        // a dead slot must not copy its chunk out of a fork
        let chunk = self.chunks.get_mut(ci).filter(|c| c.is_live(i))?;
        Arc::make_mut(&mut chunk.vals).get_mut(span(i, self.arity))
    }

    /// Tombstone the atom in `slot`; returns the removed tuple if it was
    /// alive.
    pub fn remove(&mut self, slot: u32) -> Option<Vec<Value>> {
        let (ci, i) = split(slot);
        let chunk = self.chunks.get_mut(ci).filter(|c| c.is_live(i))?;
        chunk.live &= !(1 << i);
        self.live -= 1;
        let tuple = Arc::make_mut(&mut chunk.vals).get_mut(span(i, self.arity))?;
        Some(
            tuple
                .iter_mut()
                .map(|v| std::mem::replace(v, Value::Null))
                .collect(),
        )
    }

    /// Is `slot` alive?
    #[inline]
    pub fn contains(&self, slot: u32) -> bool {
        let (ci, i) = split(slot);
        self.chunks.get(ci).is_some_and(|c| c.is_live(i))
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
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            chunks: self.chunks.iter(),
            vals: &[],
            base: 0u32.wrapping_sub(CHUNK as u32),
            mask: 0,
            arity: self.arity,
        }
    }

    /// Iterate live atoms of a given atom type as `(AtomId, tuple)`.
    pub fn iter_ids(&self, ty: AtomTypeId) -> impl Iterator<Item = (AtomId, &[Value])> {
        self.iter().map(move |(slot, t)| (AtomId::new(ty, slot), t))
    }

    /// The live slots, in slot order, whose attribute `attr` compares to
    /// `needle` under `op` — exactly those `v.sql_cmp(needle)` selects,
    /// and none when `attr` is past the arity. The needle's kind is decided
    /// once, outside the loop: an `Int` needle under `=`, a `Float` needle,
    /// and a `Text` needle under `=` compare through typed paths (the
    /// served selectors: `aid = <n>`, `hectare > t`, `sname = 'S<k>'`),
    /// anything else through [`Value::sql_cmp`].
    pub fn slots_where(&self, attr: usize, op: CmpOp, needle: &Value) -> Vec<u32> {
        match (needle, op) {
            (&Value::Int(n), CmpOp::Eq) => {
                // `total_cmp` orders two floats equal exactly when their
                // bits are equal, so a float compares by bits (`-0.0` ≠ `0`)
                let x = (n as f64).to_bits();
                self.scan(attr, |v| match v {
                    Value::Int(a) => *a == n,
                    Value::Float(a) => a.to_bits() == x,
                    _ => false,
                })
            }
            (&Value::Float(x), _) => self.scan(attr, |v| match v {
                Value::Int(a) => op.test((*a as f64).total_cmp(&x)),
                Value::Float(a) => op.test(a.total_cmp(&x)),
                _ => false,
            }),
            (Value::Text(s), CmpOp::Eq) => {
                let s = s.as_bytes();
                // short keys: an inlined byte loop beats a call to memcmp
                self.scan(attr, |v| match v {
                    Value::Text(t) => t.len() == s.len() && t.bytes().zip(s).all(|(a, b)| a == *b),
                    _ => false,
                })
            }
            _ => self.scan(attr, |v| v.sql_cmp(needle).is_some_and(|o| op.test(o))),
        }
    }

    /// Walk the live mask of every chunk and keep the slots whose `attr`
    /// value satisfies `pred`.
    ///
    /// This is the mask walk of [`Iter::next`] again, reading one value
    /// instead of slicing the tuple: written as `self.iter().filter(..)`
    /// the scan took 1.5 ns an atom for `aid = <n>` and 1.9 for
    /// `sname = '..'` against 1.1 and 1.5 here (24.8k areas, 6.8k states,
    /// 2 vCPU).
    #[inline]
    fn scan(&self, attr: usize, pred: impl Fn(&Value) -> bool) -> Vec<u32> {
        let mut out = Vec::new();
        if attr >= self.arity {
            return out;
        }
        for (chunk, base) in self.chunks.iter().zip((0u32..).step_by(CHUNK)) {
            let mut mask = chunk.live;
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "i < CHUNK and attr < arity, and a block holds CHUNK × arity values"
                )]
                let v = &chunk.vals[i * self.arity + attr];
                if pred(v) {
                    out.push(base + i as u32);
                }
            }
        }
        out
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
        let mut s = AtomStore::new(1);
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
        let mut s = AtomStore::new(1);
        let a = s.insert(tup(1));
        assert_eq!(s.remove(a), Some(tup(1)));
        assert!(s.remove(a).is_none(), "double delete is a no-op");
        assert!(!s.contains(a));
        assert_eq!(s.len(), 0);
        let b = s.insert(tup(2));
        assert_ne!(a, b, "slots are never reused");
        assert_eq!(s.slots(), 2);
    }

    #[test]
    fn get_out_of_range() {
        let s = AtomStore::new(1);
        assert!(s.get(7).is_none());
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut s = AtomStore::new(1);
        let _a = s.insert(tup(1));
        let b = s.insert(tup(2));
        let _c = s.insert(tup(3));
        s.remove(b);
        let vals: Vec<i64> = s.iter().map(|(_, t)| t[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 3]);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut s = AtomStore::new(1);
        let a = s.insert(tup(1));
        s.get_mut(a).unwrap()[0] = Value::Int(99);
        assert_eq!(s.get(a).unwrap()[0], Value::Int(99));
    }

    #[test]
    fn slots_across_chunk_boundaries() {
        let mut s = AtomStore::new(1);
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
    fn tuples_of_several_values_sit_side_by_side() {
        let mut s = AtomStore::new(3);
        for i in 0..(2 * CHUNK as i64 + 1) {
            s.insert(vec![
                Value::Int(i),
                Value::from(format!("t{i}")),
                Value::Null,
            ]);
        }
        s.remove(CHUNK as u32 - 1);
        let last = CHUNK as u32;
        assert_eq!(
            s.get(last).unwrap(),
            &[
                Value::Int(last.into()),
                Value::from(format!("t{last}")),
                Value::Null
            ]
        );
        assert!(s.get(CHUNK as u32 - 1).is_none());
        assert_eq!(s.iter().count(), 2 * CHUNK);
        assert_eq!(s.slots_where(1, CmpOp::Eq, &Value::from("t40")), vec![40]);
        assert_eq!(
            s.slots_where(3, CmpOp::Ne, &Value::Int(0)),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn zero_arity_tuples_are_live_and_empty() {
        let mut s = AtomStore::new(0);
        for _ in 0..(CHUNK + 3) {
            s.insert(Vec::new());
        }
        s.remove(2);
        assert_eq!(s.get(CHUNK as u32 + 2), Some(&[][..]));
        assert!(s.get(2).is_none());
        assert_eq!(s.iter().count(), CHUNK + 2);
        assert!(s.slots_where(0, CmpOp::Eq, &Value::Null).is_empty());
    }

    #[test]
    fn iter_ids_carries_type() {
        let mut s = AtomStore::new(1);
        s.insert(tup(1));
        let ty = AtomTypeId(4);
        let ids: Vec<AtomId> = s.iter_ids(ty).map(|(id, _)| id).collect();
        assert_eq!(ids, vec![AtomId::new(ty, 0)]);
    }
}
