//! Read-optimized CSR (compressed sparse row) adjacency snapshots.
//!
//! The mutable [`crate::LinkStore`] keeps adjacency as per-slot postings in
//! copy-on-write chunks — ideal for DML and forks, but derivation through it
//! pays a chunk lookup and a posting indirection per atom per traversed
//! edge. A [`CsrSnapshot`] is the read-optimized
//! counterpart: built **once** from the live link stores and then shared
//! immutably across derivations, it stores, per link type and direction, a
//! frozen `offsets`/`partners` pair indexed by **atom slot**. Slots are
//! append-only and never reused, so the slot index is a stable dense key —
//! the same property `mad_model::BitSet` exploits.
//!
//! The snapshot's central operation is **batch frontier expansion**
//! ([`CsrSnapshot::expand_frontier`]): a whole per-node atom set, as a
//! bitset, is pushed through a link type with sequential scans of the
//! partner array — no hashing, no per-atom allocation. This is the
//! set-at-a-time evaluation style of the bulk-oriented database-tuning
//! literature applied to Def. 6 derivation, and the storage substrate of
//! the derivation engine every query runs
//! (`mad_core::derive::Strategy::Bitset`).
//!
//! ## Invalidation semantics
//!
//! Snapshots are invalidated by **two-level version stamps**:
//!
//! * a global *structural* version on the [`crate::Database`], bumped by
//!   every DDL and every atom/link DML that can change adjacency or slot
//!   horizons (attribute updates bump a separate attribute version and do
//!   **not** invalidate the snapshot);
//! * a *per-link-type* version, bumped only when that link type's pair set
//!   actually changes (a successful `connect`/`disconnect`, or a
//!   `delete_atom` cascade that removed pairs of it).
//!
//! [`crate::Database::csr_snapshot`] rebuilds lazily when the cached
//! snapshot's structural version is stale — but the rebuild is
//! **incremental** ([`CsrSnapshot::rebuild`]): link types whose
//! per-link-type version is unchanged share their frozen [`CsrAdjacency`]
//! pair with the previous snapshot via `Arc`, so one `connect` re-freezes
//! only the touched link type instead of the whole database. Growing a slot
//! horizon (plain `insert_atom`) never forces a per-link rebuild: fresh
//! slots have no partners, and `partners_of` treats out-of-range slots as
//! empty. Every field is plain frozen data, so one `Arc<CsrSnapshot>` can
//! be shared across threads (the type is `Sync`).

use crate::database::{Database, Direction};
use mad_model::{AtomId, AtomTypeId, BitSet, LinkTypeId};
use std::sync::Arc;

/// One direction of one link type, frozen in CSR form.
///
/// `partners_of(slot)` is `partners[offsets[slot]..offsets[slot + 1]]`,
/// sorted ascending; slots beyond the frozen range have no partners.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CsrAdjacency {
    offsets: Vec<u32>,
    partners: Vec<u32>,
}

impl CsrAdjacency {
    /// Freeze one side of a link store: `postings` yields every from-slot's
    /// sorted partners in slot order, so the CSR arrays are written in one
    /// pass with no sort. `pairs` is the link count (the partner capacity).
    fn from_postings<'a>(
        postings: impl Iterator<Item = &'a [AtomId]>,
        from_slots: usize,
        pairs: usize,
    ) -> Self {
        let mut offsets = Vec::with_capacity(from_slots + 1);
        let mut partners = Vec::with_capacity(pairs);
        offsets.push(0);
        for p in postings.take(from_slots) {
            partners.extend(p.iter().map(|a| a.slot));
            offsets.push(partners.len() as u32);
        }
        offsets.resize(from_slots + 1, partners.len() as u32);
        CsrAdjacency { offsets, partners }
    }

    /// Partner slots of `slot` (sorted ascending; empty when out of range).
    #[inline]
    pub fn partners_of(&self, slot: u32) -> &[u32] {
        let i = slot as usize;
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.partners[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Total number of stored pairs.
    pub fn len(&self) -> usize {
        self.partners.len()
    }

    /// True when no pair is stored.
    pub fn is_empty(&self) -> bool {
        self.partners.is_empty()
    }
}

/// Both directions of one link type.
#[derive(Clone, Debug, Default)]
struct LinkCsr {
    fwd: CsrAdjacency,
    bwd: CsrAdjacency,
}

/// A frozen, slot-addressed adjacency image of a whole database.
#[derive(Clone, Debug, Default)]
pub struct CsrSnapshot {
    /// Per link type, both directions; `Arc`-shared with the previous
    /// snapshot when the link type's pair set did not change between
    /// rebuilds.
    links: Vec<Arc<LinkCsr>>,
    /// Per link type: the [`Database::link_version`] its CSR pair was
    /// frozen at (keys the incremental rebuild).
    link_versions: Vec<u64>,
    /// Per atom type: the slot horizon (live + tombstoned) at build time.
    slots: Vec<u32>,
}

impl CsrSnapshot {
    /// Freeze the adjacency of every link type of `db` from scratch.
    pub fn build(db: &Database) -> Self {
        Self::rebuild(db, None).0
    }

    /// Freeze the adjacency of `db`, re-using every link type of `prev`
    /// whose per-link-type version is unchanged (its frozen pair is shared
    /// via `Arc`, not copied). Returns the snapshot and how many link-type
    /// CSR pairs were actually (re)built — the incremental-invalidation
    /// statistic EXPLAIN reports.
    pub fn rebuild(db: &Database, prev: Option<&CsrSnapshot>) -> (Self, usize) {
        let schema = db.schema();
        let slots: Vec<u32> = (0..schema.atom_type_count())
            .map(|i| db.atom_slot_count(AtomTypeId(i as u32)) as u32)
            .collect();
        let mut rebuilt = 0usize;
        let mut links = Vec::with_capacity(schema.link_type_count());
        let mut link_versions = Vec::with_capacity(schema.link_type_count());
        for (lt, def) in schema.link_types() {
            let version = db.link_version(lt);
            let li = lt.0 as usize;
            let reusable = prev.and_then(|p| {
                (p.link_versions.get(li) == Some(&version)).then(|| Arc::clone(&p.links[li]))
            });
            let pair = match reusable {
                Some(pair) => pair,
                None => {
                    rebuilt += 1;
                    let store = db.link_store(lt);
                    let side = |s: usize| {
                        CsrAdjacency::from_postings(
                            store.postings(s),
                            slots[def.ends[s].0 as usize] as usize,
                            store.len(),
                        )
                    };
                    Arc::new(LinkCsr {
                        fwd: side(0),
                        bwd: side(1),
                    })
                }
            };
            links.push(pair);
            link_versions.push(version);
        }
        (
            CsrSnapshot {
                links,
                link_versions,
                slots,
            },
            rebuilt,
        )
    }

    /// The slot horizon of atom type `ty` at build time — the capacity a
    /// per-node [`BitSet`] needs.
    #[inline]
    pub fn slot_count(&self, ty: AtomTypeId) -> usize {
        self.slots.get(ty.0 as usize).copied().unwrap_or(0) as usize
    }

    /// The frozen adjacency of `lt` in `Fwd` or `Bwd` orientation
    /// (callers needing `Sym` merge both; see
    /// [`CsrSnapshot::for_each_partner`]).
    #[inline]
    pub fn adjacency(&self, lt: LinkTypeId, dir: Direction) -> &CsrAdjacency {
        let l = &self.links[lt.0 as usize];
        match dir {
            Direction::Fwd | Direction::Sym => &l.fwd,
            Direction::Bwd => &l.bwd,
        }
    }

    /// Expand a whole frontier through `lt`/`dir`: every partner of every
    /// set bit of `frontier` is OR-ed into `out`. Sequential scans only —
    /// this is the batch operation that replaces per-atom hash probes.
    pub fn expand_frontier(
        &self,
        lt: LinkTypeId,
        dir: Direction,
        frontier: &BitSet,
        out: &mut BitSet,
    ) {
        let l = &self.links[lt.0 as usize];
        match dir {
            Direction::Fwd => Self::expand_one(&l.fwd, frontier, out),
            Direction::Bwd => Self::expand_one(&l.bwd, frontier, out),
            Direction::Sym => {
                // bitsets absorb the duplicate pairs of a both-ways link
                Self::expand_one(&l.fwd, frontier, out);
                Self::expand_one(&l.bwd, frontier, out);
            }
        }
    }

    fn expand_one(adj: &CsrAdjacency, frontier: &BitSet, out: &mut BitSet) {
        for slot in frontier {
            for &p in adj.partners_of(slot as u32) {
                out.insert(p as usize);
            }
        }
    }

    /// Visit the partners of one slot in ascending order, deduplicated for
    /// `Sym` over reflexive link types (mirrors
    /// `LinkStore::partners_sym`).
    pub fn for_each_partner(
        &self,
        lt: LinkTypeId,
        slot: u32,
        dir: Direction,
        mut f: impl FnMut(u32),
    ) {
        let l = &self.links[lt.0 as usize];
        match dir {
            Direction::Fwd => l.fwd.partners_of(slot).iter().copied().for_each(&mut f),
            Direction::Bwd => l.bwd.partners_of(slot).iter().copied().for_each(&mut f),
            Direction::Sym => crate::merge::merge_sorted_dedup(
                l.fwd.partners_of(slot),
                l.bwd.partners_of(slot),
                f,
            ),
        }
    }

    /// Total pairs frozen across all link types (both directions counted
    /// once).
    pub fn total_links(&self) -> usize {
        self.links.iter().map(|l| l.fwd.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mad_model::{AttrType, SchemaBuilder, Value};

    /// The sort-based freeze the one-pass [`CsrAdjacency::from_postings`]
    /// replaced: oriented pairs sorted by `(from, to)`.
    fn from_sorted_pairs(pairs: &[(u32, u32)], from_slots: usize) -> CsrAdjacency {
        let mut offsets = vec![0u32; from_slots + 1];
        for &(f, _) in pairs {
            offsets[f as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let partners = pairs.iter().map(|&(_, t)| t).collect();
        CsrAdjacency { offsets, partners }
    }

    /// Random link sets (reflexive included, across chunk boundaries and
    /// with tombstoned atoms): the one-pass build must equal the sorted
    /// build in both directions.
    #[test]
    fn one_pass_build_equals_sorted_build() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u32| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % u64::from(n)) as u32
        };
        for round in 0..40 {
            let mut db = db_with_links();
            let (a, b) = (AtomTypeId(0), AtomTypeId(1));
            let parts = db.schema().atom_type_id("parts").unwrap();
            let (ab, comp) = (LinkTypeId(0), LinkTypeId(1));
            let (na, nb) = (1 + next(200), 1 + next(200));
            for i in 0..na.max(nb) {
                if i < na {
                    db.insert_atom(a, vec![Value::Int(i.into())]).unwrap();
                }
                if i < nb {
                    db.insert_atom(b, vec![Value::Int(i.into())]).unwrap();
                }
                db.insert_atom(parts, vec![Value::Int(i.into())]).unwrap();
            }
            let np = na.max(nb);
            for _ in 0..next(600) {
                let (x, y) = (next(na + 2), next(nb + 3));
                let _ = db.connect(ab, AtomId::new(a, x), AtomId::new(b, y));
                let (p, q) = (next(np), next(np));
                let _ = db.connect(comp, AtomId::new(parts, p), AtomId::new(parts, q));
            }
            for _ in 0..round % 5 {
                let _ = db.delete_atom(AtomId::new(b, next(nb + 3)));
            }
            let snap = CsrSnapshot::build(&db);
            for lt in [ab, comp] {
                let ends = db.schema().link_type(lt).ends;
                let mut fwd: Vec<(u32, u32)> =
                    db.links_of(lt).map(|(x, y)| (x.slot, y.slot)).collect();
                fwd.sort_unstable();
                let mut bwd: Vec<(u32, u32)> = fwd.iter().map(|&(x, y)| (y, x)).collect();
                bwd.sort_unstable();
                let horizon = |t: AtomTypeId| db.atom_slot_count(t);
                assert_eq!(
                    snap.adjacency(lt, Direction::Fwd),
                    &from_sorted_pairs(&fwd, horizon(ends[0])),
                    "round {round}: fwd of {lt:?}"
                );
                assert_eq!(
                    snap.adjacency(lt, Direction::Bwd),
                    &from_sorted_pairs(&bwd, horizon(ends[1])),
                    "round {round}: bwd of {lt:?}"
                );
            }
        }
    }

    fn db_with_links() -> Database {
        let schema = SchemaBuilder::new()
            .atom_type("a", &[("x", AttrType::Int)])
            .atom_type("b", &[("y", AttrType::Int)])
            .atom_type("parts", &[("pid", AttrType::Int)])
            .link_type("ab", "a", "b")
            .link_type("composition", "parts", "parts")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let a = db.schema().atom_type_id("a").unwrap();
        let b = db.schema().atom_type_id("b").unwrap();
        let ab = db.schema().link_type_id("ab").unwrap();
        let a0 = db.insert_atom(a, vec![Value::Int(0)]).unwrap();
        let a1 = db.insert_atom(a, vec![Value::Int(1)]).unwrap();
        let b0 = db.insert_atom(b, vec![Value::Int(0)]).unwrap();
        let b1 = db.insert_atom(b, vec![Value::Int(1)]).unwrap();
        let b2 = db.insert_atom(b, vec![Value::Int(2)]).unwrap();
        db.connect(ab, a0, b1).unwrap();
        db.connect(ab, a0, b0).unwrap();
        db.connect(ab, a1, b2).unwrap();
        db
    }

    #[test]
    fn fwd_and_bwd_agree_with_link_store() {
        let db = db_with_links();
        let ab = db.schema().link_type_id("ab").unwrap();
        let snap = CsrSnapshot::build(&db);
        assert_eq!(snap.adjacency(ab, Direction::Fwd).partners_of(0), &[0, 1]);
        assert_eq!(snap.adjacency(ab, Direction::Fwd).partners_of(1), &[2]);
        assert_eq!(snap.adjacency(ab, Direction::Bwd).partners_of(1), &[0]);
        assert_eq!(snap.adjacency(ab, Direction::Bwd).partners_of(2), &[1]);
        assert_eq!(snap.total_links(), 3);
    }

    #[test]
    fn out_of_range_slot_has_no_partners() {
        let db = db_with_links();
        let ab = db.schema().link_type_id("ab").unwrap();
        let snap = CsrSnapshot::build(&db);
        assert_eq!(snap.adjacency(ab, Direction::Fwd).partners_of(99), &[] as &[u32]);
    }

    #[test]
    fn frontier_expansion_unions_partners() {
        let db = db_with_links();
        let ab = db.schema().link_type_id("ab").unwrap();
        let snap = CsrSnapshot::build(&db);
        let frontier: BitSet = [0usize, 1].into_iter().collect();
        let mut out = BitSet::with_capacity(8);
        snap.expand_frontier(ab, Direction::Fwd, &frontier, &mut out);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        // backward from b1 only
        let frontier: BitSet = [1usize].into_iter().collect();
        let mut out = BitSet::with_capacity(8);
        snap.expand_frontier(ab, Direction::Bwd, &frontier, &mut out);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn sym_merge_deduplicates_reflexive_pairs() {
        let mut db = db_with_links();
        let parts = db.schema().atom_type_id("parts").unwrap();
        let comp = db.schema().link_type_id("composition").unwrap();
        let p0 = db.insert_atom(parts, vec![Value::Int(0)]).unwrap();
        let p1 = db.insert_atom(parts, vec![Value::Int(1)]).unwrap();
        let p2 = db.insert_atom(parts, vec![Value::Int(2)]).unwrap();
        db.connect(comp, p0, p1).unwrap();
        db.connect(comp, p1, p0).unwrap(); // both orientations
        db.connect(comp, p2, p1).unwrap();
        let snap = CsrSnapshot::build(&db);
        let mut seen = Vec::new();
        snap.for_each_partner(comp, 1, Direction::Sym, |p| seen.push(p));
        assert_eq!(seen, vec![0, 2], "merged, deduplicated, sorted");
    }

    #[test]
    fn incremental_rebuild_shares_untouched_pairs() {
        let mut db = db_with_links();
        let ab = db.schema().link_type_id("ab").unwrap();
        let comp = db.schema().link_type_id("composition").unwrap();
        let parts = db.schema().atom_type_id("parts").unwrap();
        let p0 = db.insert_atom(parts, vec![Value::Int(0)]).unwrap();
        let p1 = db.insert_atom(parts, vec![Value::Int(1)]).unwrap();
        db.connect(comp, p0, p1).unwrap();
        let (snap, rebuilt) = CsrSnapshot::rebuild(&db, None);
        assert_eq!(rebuilt, 2, "cold build freezes everything");
        // touch `composition` only
        let p2 = db.insert_atom(parts, vec![Value::Int(2)]).unwrap();
        db.connect(comp, p1, p2).unwrap();
        let (snap2, rebuilt2) = CsrSnapshot::rebuild(&db, Some(&snap));
        assert_eq!(rebuilt2, 1, "only the touched pair is re-frozen");
        // the untouched `ab` adjacency is Arc-shared, not copied
        assert!(std::ptr::eq(
            snap.adjacency(ab, Direction::Fwd),
            snap2.adjacency(ab, Direction::Fwd)
        ));
        // the rebuilt pair reflects the new link
        assert_eq!(snap2.adjacency(comp, Direction::Fwd).partners_of(p1.slot), &[p2.slot]);
        assert!(snap.adjacency(comp, Direction::Fwd).partners_of(p1.slot).is_empty());
        // slot horizons track the live database even for shared pairs
        assert_eq!(snap2.slot_count(parts), 3);
    }

    #[test]
    fn snapshot_ignores_later_dml_until_rebuilt() {
        let mut db = db_with_links();
        let ab = db.schema().link_type_id("ab").unwrap();
        let snap = CsrSnapshot::build(&db);
        let a = db.schema().atom_type_id("a").unwrap();
        let b = db.schema().atom_type_id("b").unwrap();
        let a2 = db.insert_atom(a, vec![Value::Int(9)]).unwrap();
        let b3 = db.insert_atom(b, vec![Value::Int(9)]).unwrap();
        db.connect(ab, a2, b3).unwrap();
        // the frozen image is unchanged…
        assert_eq!(snap.adjacency(ab, Direction::Fwd).partners_of(a2.slot), &[] as &[u32]);
        // …and a rebuild sees the new link
        let snap2 = CsrSnapshot::build(&db);
        assert_eq!(snap2.adjacency(ab, Direction::Fwd).partners_of(a2.slot), &[b3.slot]);
    }
}
