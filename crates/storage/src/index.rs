//! Secondary indexes over atom attributes.
//!
//! The PRIMA prototype (§5) evaluates root restrictions through its
//! atom-oriented interface before molecules are built; these indexes are the
//! mechanism that makes that *restriction pushdown* pay off (benchmark B4).
//! Two kinds are provided:
//!
//! * [`IndexKind::Hash`] — equality lookups, `O(1)` expected,
//! * [`IndexKind::Ordered`] — a BTree supporting range scans.
//!
//! Indexes are maintained incrementally by [`crate::Database`] on every
//! insert / delete / update of an indexed atom type.
//!
//! A hash index is a fixed directory of [`BUCKETS`] `Arc`'d sub-maps keyed
//! by the key's hash, so a write to a forked index copies one bucket. An
//! ordered index is one `BTreeMap` and a write to a forked one copies it
//! whole — the one O(n) copy a fork still makes.

use mad_model::fxhash::FxHasher;
use mad_model::{AtomId, AtomTypeId, FxHashMap, Value};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::Arc;

/// Buckets per hash index (a power of two).
pub const BUCKETS: usize = 64;

/// Which data structure backs an [`AttrIndex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash index: equality only.
    Hash,
    /// Ordered index: equality and ranges.
    Ordered,
}

/// One bucket of a hash index.
type Bucket = FxHashMap<Value, Vec<AtomId>>;

/// The data structure behind an [`AttrIndex`] — exactly one per index, so
/// an equality-only index carries no dead BTree (and vice versa).
#[derive(Clone, Debug)]
enum Backend {
    /// Equality lookups only, in copy-on-write buckets.
    Hash(Box<[Arc<Bucket>; BUCKETS]>),
    /// Equality and range lookups.
    Ordered(BTreeMap<Value, Vec<AtomId>>),
}

/// The bucket of `key`. The bits are taken from the middle of the hash:
/// the sub-map probes with the low bits and tags with the top ones.
#[inline]
fn bucket_of(key: &Value) -> usize {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    (h.finish() >> 32) as usize & (BUCKETS - 1)
}

/// A secondary index over one attribute of one atom type.
#[derive(Clone, Debug)]
pub struct AttrIndex {
    /// The indexed atom type.
    pub ty: AtomTypeId,
    /// The indexed attribute position.
    pub attr: usize,
    backend: Backend,
}

fn posting_insert(v: &mut Vec<AtomId>, id: AtomId) {
    if let Err(pos) = v.binary_search(&id) {
        v.insert(pos, id);
    }
}

fn posting_remove(v: &mut Vec<AtomId>, id: AtomId) -> bool {
    match v.binary_search(&id) {
        Ok(pos) => {
            v.remove(pos);
            true
        }
        Err(_) => false,
    }
}

impl AttrIndex {
    /// An empty index for `(ty, attr)`.
    pub fn new(ty: AtomTypeId, attr: usize, kind: IndexKind) -> Self {
        AttrIndex {
            ty,
            attr,
            backend: match kind {
                IndexKind::Hash => Backend::Hash(Box::new(std::array::from_fn(|_| Arc::default()))),
                IndexKind::Ordered => Backend::Ordered(BTreeMap::new()),
            },
        }
    }

    /// The index kind (derived from the backend).
    pub fn kind(&self) -> IndexKind {
        match self.backend {
            Backend::Hash(_) => IndexKind::Hash,
            Backend::Ordered(_) => IndexKind::Ordered,
        }
    }

    /// Register `id` under `key`.
    pub fn insert(&mut self, key: &Value, id: AtomId) {
        match &mut self.backend {
            Backend::Hash(buckets) => {
                #[expect(clippy::indexing_slicing, reason = "bucket_of masks below BUCKETS")]
                let map = Arc::make_mut(&mut buckets[bucket_of(key)]);
                posting_insert(map.entry(key.clone()).or_default(), id)
            }
            Backend::Ordered(map) => posting_insert(map.entry(key.clone()).or_default(), id),
        }
    }

    /// Unregister `id` from `key`.
    pub fn remove(&mut self, key: &Value, id: AtomId) {
        match &mut self.backend {
            Backend::Hash(buckets) => {
                #[expect(clippy::indexing_slicing, reason = "bucket_of masks below BUCKETS")]
                let bucket = &mut buckets[bucket_of(key)];
                // a key this index does not hold must not copy its bucket
                if bucket.contains_key(key) {
                    let map = Arc::make_mut(bucket);
                    if let Some(v) = map.get_mut(key) {
                        posting_remove(v, id);
                        if v.is_empty() {
                            map.remove(key);
                        }
                    }
                }
            }
            Backend::Ordered(map) => {
                if let Some(v) = map.get_mut(key) {
                    posting_remove(v, id);
                    if v.is_empty() {
                        map.remove(key);
                    }
                }
            }
        }
    }

    /// Equality lookup: atoms whose attribute equals `key` (sorted).
    pub fn lookup_eq(&self, key: &Value) -> &[AtomId] {
        let postings = match &self.backend {
            #[expect(clippy::indexing_slicing, reason = "bucket_of masks below BUCKETS")]
            Backend::Hash(buckets) => buckets[bucket_of(key)].get(key),
            Backend::Ordered(map) => map.get(key),
        };
        postings.map_or(&[], |v| v.as_slice())
    }

    /// Range lookup (ordered indexes only; a hash index returns `None` to
    /// signal the caller must fall back to a scan). The postings lists are
    /// already sorted per key, so the result is produced by a k-way merge —
    /// no re-sort of the combined list.
    pub fn lookup_range(
        &self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Option<Vec<AtomId>> {
        let Backend::Ordered(map) = &self.backend else {
            return None;
        };
        let lists: Vec<&[AtomId]> = map
            .range::<Value, _>((lo, hi))
            .map(|(_, postings)| postings.as_slice())
            .collect();
        Some(merge_sorted_postings(&lists))
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        match &self.backend {
            Backend::Hash(buckets) => buckets.iter().map(|b| b.len()).sum(),
            Backend::Ordered(map) => map.len(),
        }
    }

    /// Total number of entries.
    pub fn entries(&self) -> usize {
        match &self.backend {
            Backend::Hash(buckets) => buckets
                .iter()
                .flat_map(|b| b.values())
                .map(Vec::len)
                .sum(),
            Backend::Ordered(map) => map.values().map(Vec::len).sum(),
        }
    }
}

/// Merge sorted, pairwise-disjoint postings lists into one sorted list.
///
/// A binary min-heap over the list heads gives `O(n log k)` for `k` lists —
/// against the `O(n log n)` of concatenating and re-sorting, with `n` the
/// total number of postings.
fn merge_sorted_postings(lists: &[&[AtomId]]) -> Vec<AtomId> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    match lists.len() {
        0 => return Vec::new(),
        1 => return lists[0].to_vec(),
        _ => {}
    }
    let total = lists.iter().map(|l| l.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut heap: BinaryHeap<Reverse<(AtomId, usize, usize)>> = lists
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.is_empty())
        .map(|(li, l)| Reverse((l[0], li, 0)))
        .collect();
    while let Some(Reverse((id, li, pos))) = heap.pop() {
        out.push(id);
        if let Some(&next) = lists[li].get(pos + 1) {
            heap.push(Reverse((next, li, pos + 1)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(slot: u32) -> AtomId {
        AtomId::new(AtomTypeId(0), slot)
    }

    #[test]
    fn hash_index_eq() {
        let mut idx = AttrIndex::new(AtomTypeId(0), 0, IndexKind::Hash);
        idx.insert(&Value::from("SP"), id(1));
        idx.insert(&Value::from("SP"), id(3));
        idx.insert(&Value::from("MG"), id(2));
        assert_eq!(idx.lookup_eq(&Value::from("SP")), &[id(1), id(3)]);
        assert_eq!(idx.lookup_eq(&Value::from("RJ")), &[] as &[AtomId]);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.entries(), 3);
    }

    #[test]
    fn hash_index_rejects_range() {
        let idx = AttrIndex::new(AtomTypeId(0), 0, IndexKind::Hash);
        assert!(idx
            .lookup_range(Bound::Unbounded, Bound::Unbounded)
            .is_none());
    }

    #[test]
    fn ordered_index_range() {
        let mut idx = AttrIndex::new(AtomTypeId(0), 1, IndexKind::Ordered);
        for (i, v) in [100i64, 500, 900, 1200, 2000].iter().enumerate() {
            idx.insert(&Value::Int(*v), id(i as u32));
        }
        let hits = idx
            .lookup_range(Bound::Excluded(&Value::Int(500)), Bound::Unbounded)
            .unwrap();
        assert_eq!(hits, vec![id(2), id(3), id(4)]);
        let hits = idx
            .lookup_range(
                Bound::Included(&Value::Int(500)),
                Bound::Included(&Value::Int(1200)),
            )
            .unwrap();
        assert_eq!(hits, vec![id(1), id(2), id(3)]);
    }

    #[test]
    fn range_merge_interleaves_postings() {
        let mut idx = AttrIndex::new(AtomTypeId(0), 0, IndexKind::Ordered);
        // postings whose slot orders interleave across keys
        for (v, slot) in [(1i64, 5u32), (1, 9), (2, 2), (2, 7), (3, 0), (3, 8)] {
            idx.insert(&Value::Int(v), id(slot));
        }
        let hits = idx
            .lookup_range(Bound::Unbounded, Bound::Unbounded)
            .unwrap();
        assert_eq!(hits, vec![id(0), id(2), id(5), id(7), id(8), id(9)]);
        assert_eq!(idx.kind(), IndexKind::Ordered);
    }

    #[test]
    fn remove_cleans_empty_postings() {
        let mut idx = AttrIndex::new(AtomTypeId(0), 0, IndexKind::Ordered);
        idx.insert(&Value::Int(1), id(1));
        idx.remove(&Value::Int(1), id(1));
        assert_eq!(idx.distinct_keys(), 0);
        assert_eq!(idx.lookup_eq(&Value::Int(1)), &[] as &[AtomId]);
        // removing again is harmless
        idx.remove(&Value::Int(1), id(1));
    }

    #[test]
    fn hash_write_after_fork_copies_one_bucket() {
        let mut origin = AttrIndex::new(AtomTypeId(0), 0, IndexKind::Hash);
        for i in 0..1000u32 {
            origin.insert(&Value::Int(i64::from(i % 300)), id(i));
        }
        let mut fork = origin.clone();
        fork.insert(&Value::Int(7), id(5000));
        fork.remove(&Value::Int(8), id(8));
        fork.remove(&Value::Int(9999), id(1)); // absent key: copies nothing
        // the fork sees its writes, the origin does not
        assert_eq!(fork.lookup_eq(&Value::Int(7)).last(), Some(&id(5000)));
        assert_eq!(origin.lookup_eq(&Value::Int(7)), &[id(7), id(307), id(607), id(907)]);
        assert_eq!(fork.lookup_eq(&Value::Int(8)), &[id(308), id(608), id(908)]);
        assert_eq!(origin.lookup_eq(&Value::Int(8)).len(), 4);
        assert_eq!((origin.entries(), fork.entries()), (1000, 1000));
        // …and only the buckets of keys 7 and 8 were copied
        let (Backend::Hash(a), Backend::Hash(b)) = (&origin.backend, &fork.backend) else {
            panic!("hash backend expected");
        };
        let copied = a.iter().zip(b.iter()).filter(|(x, y)| !Arc::ptr_eq(x, y)).count();
        let touched = if bucket_of(&Value::Int(7)) == bucket_of(&Value::Int(8)) { 1 } else { 2 };
        assert_eq!(copied, touched);
        // writes to the origin stay out of the fork
        origin.insert(&Value::Int(1), id(6000));
        assert!(!fork.lookup_eq(&Value::Int(1)).contains(&id(6000)));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut idx = AttrIndex::new(AtomTypeId(0), 0, IndexKind::Hash);
        idx.insert(&Value::Int(1), id(1));
        idx.insert(&Value::Int(1), id(1));
        assert_eq!(idx.entries(), 1);
    }
}
