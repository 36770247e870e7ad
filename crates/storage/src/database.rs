//! The database `DB = <AT, LT>` of Def. 3, with occurrences.
//!
//! [`Database`] couples a growable [`Schema`] with one [`AtomStore`] per atom
//! type and one [`LinkStore`] per link type, and enforces the two integrity
//! guarantees §3.1 contrasts with the relational model:
//!
//! 1. **Referential integrity**: links connect only existing atoms of the
//!    right types; deleting an atom cascades into all incident links; there
//!    are no dangling references, ever.
//! 2. **Cardinality restrictions** from extended link-type definitions:
//!    `max` bounds are enforced eagerly on [`Database::connect`], `min`
//!    bounds are checked on demand via
//!    [`Database::check_min_cardinalities`] (they can only be validated once
//!    loading is complete).
//!
//! The schema grows at runtime — atom-type operations and the propagation
//! function `prop` (Def. 9) add derived atom and link types — which is
//! exactly the "correspondingly enlarged database" DB′ the closure theorems
//! of the paper quantify over.

use crate::atom_store::AtomStore;
use crate::csr::CsrSnapshot;
use crate::index::{AttrIndex, IndexKind};
use crate::link_store::LinkStore;
use mad_model::{
    AtomId, AtomTypeDef, AtomTypeId, FxHashMap, LinkTypeDef, LinkTypeId, MadError, Result,
    Schema, Value,
};
use std::ops::Bound;
use std::sync::{Arc, Mutex};

/// Traversal direction through a link type.
///
/// For non-reflexive link types `Fwd`/`Bwd` are determined by the endpoint
/// types and `Sym` coincides with whichever side applies. For reflexive link
/// types (e.g. `composition` on `parts`) the three differ: `Fwd` is the
/// super→sub view, `Bwd` the sub→super view, and `Sym` the union (§3.1:
/// "Exploiting the link type's symmetry it is now easy to evaluate either
/// the super-component view or only the sub-component view").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// side 0 → side 1.
    Fwd,
    /// side 1 → side 0.
    Bwd,
    /// Both orientations merged.
    Sym,
}

/// A violation reported by [`Database::check_min_cardinalities`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinCardViolation {
    /// The violating link type.
    pub link_type: LinkTypeId,
    /// The atom with too few partners.
    pub atom: AtomId,
    /// Which side of the link type the atom is on.
    pub side: usize,
    /// How many partners it has.
    pub found: u32,
    /// How many the extended link-type definition requires.
    pub required: u32,
}

/// Version-stamped cache for the read-optimized [`CsrSnapshot`], plus the
/// statistics of the most recent (incremental) rebuild.
///
/// Cloning a database **shares** the cached snapshot (it is an immutable
/// `Arc`, keyed by the structural version the clone inherits): a
/// transaction fork starts with a warm cache, and its first post-DML
/// rebuild is incremental against the shared image. The clones' caches are
/// independent `Mutex`es, so forks that diverge rebuild privately and can
/// never see each other's adjacency.
#[derive(Debug, Default)]
struct CsrCache(Mutex<CsrCacheState>);

#[derive(Clone, Debug, Default)]
struct CsrCacheState {
    /// The cached snapshot and the structural version it was built at.
    snap: Option<(u64, Arc<CsrSnapshot>)>,
    /// `(rebuilt, total)` link-type CSR pairs of the last rebuild.
    last_rebuild: Option<(usize, usize)>,
}

impl Clone for CsrCache {
    fn clone(&self) -> Self {
        CsrCache(Mutex::new(self.0.lock().unwrap().clone()))
    }
}

/// A MAD database: schema plus atom-type and link-type occurrences.
///
/// Every bulky component (schema, per-type atom and link stores, secondary
/// indexes) lives behind an [`Arc`], and DML clones a store lazily via
/// [`Arc::make_mut`] on first write. `Database::clone` is therefore **O(number
/// of types)**, not O(data): a clone is a *copy-on-write fork* that shares
/// all untouched stores with its origin. This is the substrate of the
/// `mad_txn` transaction overlay — a transaction's fork physically *is* the
/// committed image plus privately-rewritten stores for exactly the touched
/// types — and it makes an `Arc<Database>` a cheap immutable published
/// snapshot for concurrent readers (the type is `Sync`; the only interior
/// mutability is the mutex-guarded CSR cache).
#[derive(Clone, Debug, Default)]
pub struct Database {
    schema: Arc<Schema>,
    atoms: Vec<Arc<AtomStore>>,
    links: Vec<Arc<LinkStore>>,
    indexes: Vec<Arc<AttrIndex>>,
    index_map: FxHashMap<(AtomTypeId, usize), usize>,
    /// Bumped by every **structural** change (atom/link DML, DDL); keys the
    /// CSR snapshot cache. Attribute-only DML bumps `attr_version` instead
    /// — it cannot change adjacency, so it must not invalidate the
    /// snapshot.
    structural_version: u64,
    /// Bumped by attribute-only DML (`update_attr`).
    attr_version: u64,
    /// Per link type: bumped only when that link type's pair set changes
    /// (successful connect/disconnect, delete cascade). Keys the
    /// incremental CSR rebuild ([`CsrSnapshot::rebuild`]).
    link_versions: Vec<u64>,
    csr: CsrCache,
}

impl Database {
    /// A database over the given schema, with empty occurrences.
    pub fn new(schema: Schema) -> Self {
        let atoms = (0..schema.atom_type_count())
            .map(|_| Arc::new(AtomStore::new()))
            .collect();
        let links = (0..schema.link_type_count())
            .map(|_| Arc::new(LinkStore::new()))
            .collect();
        let link_versions = vec![0; schema.link_type_count()];
        Database {
            schema: Arc::new(schema),
            atoms,
            links,
            indexes: Vec::new(),
            index_map: FxHashMap::default(),
            structural_version: 0,
            attr_version: 0,
            link_versions,
            csr: CsrCache::default(),
        }
    }

    /// An empty database with an empty schema.
    pub fn empty() -> Self {
        Database::new(Schema::new())
    }

    /// The schema (read-only; DDL goes through the methods below so that the
    /// occurrence stores stay in sync).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Add an atom type (with empty occurrence).
    pub fn add_atom_type(&mut self, def: AtomTypeDef) -> Result<AtomTypeId> {
        let id = Arc::make_mut(&mut self.schema).add_atom_type(def)?;
        self.atoms.push(Arc::new(AtomStore::new()));
        self.structural_version += 1;
        Ok(id)
    }

    /// Add a link type (with empty occurrence).
    pub fn add_link_type(&mut self, def: LinkTypeDef) -> Result<LinkTypeId> {
        let id = Arc::make_mut(&mut self.schema).add_link_type(def)?;
        self.links.push(Arc::new(LinkStore::new()));
        self.link_versions.push(0);
        self.structural_version += 1;
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Atom DML
    // ------------------------------------------------------------------

    /// Insert an atom; the tuple is validated (and coerced) against the
    /// atom-type description.
    pub fn insert_atom(&mut self, ty: AtomTypeId, tuple: Vec<Value>) -> Result<AtomId> {
        let id = self.insert_atom_unstamped(ty, tuple)?;
        // a fresh slot grows the type's slot horizon but cannot carry
        // links yet: structural, but no per-link-type bump
        self.structural_version += 1;
        Ok(id)
    }

    /// The shared insert path *without* the structural-version bump, so that
    /// [`Database::insert_atoms`] can stamp a whole batch once.
    fn insert_atom_unstamped(&mut self, ty: AtomTypeId, tuple: Vec<Value>) -> Result<AtomId> {
        let def = self.schema.atom_type(ty);
        let tuple = def.check_tuple(tuple)?;
        let slot = Arc::make_mut(&mut self.atoms[ty.0 as usize]).insert(tuple);
        let id = AtomId::new(ty, slot);
        // maintain indexes
        for idx_pos in self.indexes_of_type(ty) {
            let attr = self.indexes[idx_pos].attr;
            let key = self.atoms[ty.0 as usize].get(slot).unwrap()[attr].clone();
            Arc::make_mut(&mut self.indexes[idx_pos]).insert(&key, id);
        }
        Ok(id)
    }

    /// Insert many atoms of one type; returns their ids in order.
    ///
    /// The structural version is bumped **once per batch**, not once per
    /// atom: fresh slots carry no links, so the whole bulk load invalidates
    /// the CSR snapshot cache exactly as much as a single insert would —
    /// loaders no longer thrash snapshot invalidation. If a tuple fails
    /// validation mid-batch, the atoms inserted before it remain (the same
    /// partial-application contract as the per-atom loop this replaces) and
    /// the version is still bumped so no stale snapshot can be served.
    pub fn insert_atoms(
        &mut self,
        ty: AtomTypeId,
        tuples: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<Vec<AtomId>> {
        let mut ids = Vec::new();
        for t in tuples {
            match self.insert_atom_unstamped(ty, t) {
                Ok(id) => ids.push(id),
                Err(e) => {
                    if !ids.is_empty() {
                        self.structural_version += 1;
                    }
                    return Err(e);
                }
            }
        }
        if !ids.is_empty() {
            self.structural_version += 1;
        }
        Ok(ids)
    }

    /// Delete an atom, **cascading** into every link incident to it (the
    /// no-dangling-references guarantee). Returns the number of links
    /// removed.
    pub fn delete_atom(&mut self, id: AtomId) -> Result<usize> {
        if !self.atom_exists(id) {
            return Err(MadError::integrity(format!("atom {id} does not exist")));
        }
        let removed_tuple = Arc::make_mut(&mut self.atoms[id.ty.0 as usize])
            .remove(id.slot)
            .expect("existence checked above");
        for idx_pos in self.indexes_of_type(id.ty) {
            let idx = Arc::make_mut(&mut self.indexes[idx_pos]);
            idx.remove(&removed_tuple[idx.attr], id);
        }
        let mut removed_links = 0;
        // `link_types_of` lists each incident link type once (reflexive
        // types included), and `remove_atom` clears both orientations in
        // one call, so every touched link type is stamped exactly once.
        for lt in self.schema.link_types_of(id.ty).to_vec() {
            let removed = Arc::make_mut(&mut self.links[lt.0 as usize]).remove_atom(id);
            if removed > 0 {
                self.link_versions[lt.0 as usize] += 1;
            }
            removed_links += removed;
        }
        // exactly one structural bump per delete (cascade included), so the
        // next `csr_snapshot` call re-freezes the touched pairs and a stale
        // adjacency image is never served.
        self.structural_version += 1;
        Ok(removed_links)
    }

    /// Update one attribute of an atom.
    pub fn update_attr(&mut self, id: AtomId, attr: usize, value: Value) -> Result<()> {
        let def = self.schema.atom_type(id.ty);
        let attr_def = def.attrs.get(attr).ok_or_else(|| {
            MadError::unknown("attribute index", format!("{attr} of `{}`", def.name))
        })?;
        if !value.conforms_to(attr_def.ty) {
            return Err(MadError::TypeMismatch {
                context: format!("update of `{}`.`{}`", def.name, attr_def.name),
                expected: attr_def.ty.name().to_owned(),
                found: value
                    .attr_type()
                    .map(|t| t.name().to_owned())
                    .unwrap_or_else(|| "NULL".to_owned()),
            });
        }
        let value = value.coerce(attr_def.ty);
        if !self.atom_exists(id) {
            return Err(MadError::integrity(format!("atom {id} does not exist")));
        }
        let store = Arc::make_mut(&mut self.atoms[id.ty.0 as usize]);
        let row = store.get_mut(id.slot).expect("existence checked above");
        let old = std::mem::replace(&mut row[attr], value.clone());
        if let Some(&idx_pos) = self.index_map.get(&(id.ty, attr)) {
            let idx = Arc::make_mut(&mut self.indexes[idx_pos]);
            idx.remove(&old, id);
            idx.insert(&value, id);
        }
        // attribute-only DML: adjacency is untouched, so this must not
        // invalidate the CSR snapshot (structural version stays put)
        self.attr_version += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Atom access
    // ------------------------------------------------------------------

    /// Is `id` a live atom?
    pub fn atom_exists(&self, id: AtomId) -> bool {
        (id.ty.0 as usize) < self.atoms.len() && self.atoms[id.ty.0 as usize].contains(id.slot)
    }

    /// The tuple of atom `id`.
    pub fn atom(&self, id: AtomId) -> Result<&[Value]> {
        self.atoms
            .get(id.ty.0 as usize)
            .and_then(|s| s.get(id.slot))
            .ok_or_else(|| MadError::integrity(format!("atom {id} does not exist")))
    }

    /// One attribute value of atom `id`.
    pub fn atom_value(&self, id: AtomId, attr: usize) -> Result<&Value> {
        self.atom(id)?.get(attr).ok_or_else(|| {
            MadError::unknown("attribute index", format!("{attr} of atom {id}"))
        })
    }

    /// Iterate the occurrence of atom type `ty` as `(id, tuple)`.
    pub fn atoms_of(&self, ty: AtomTypeId) -> impl Iterator<Item = (AtomId, &[Value])> {
        self.atoms[ty.0 as usize].iter_ids(ty)
    }

    /// Ids of the occurrence of atom type `ty`, in slot order.
    pub fn atom_ids_of(&self, ty: AtomTypeId) -> Vec<AtomId> {
        self.atoms_of(ty).map(|(id, _)| id).collect()
    }

    /// Number of live atoms of type `ty`.
    pub fn atom_count(&self, ty: AtomTypeId) -> usize {
        self.atoms[ty.0 as usize].len()
    }

    /// Total number of live atoms across all types.
    pub fn total_atoms(&self) -> usize {
        self.atoms.iter().map(|s| s.len()).sum()
    }

    // ------------------------------------------------------------------
    // Link DML
    // ------------------------------------------------------------------

    /// Connect two atoms with an **explicit orientation**: `side0` must be
    /// of `ends[0]`, `side1` of `ends[1]`. This is the only way to connect
    /// through a reflexive link type (orientation cannot be inferred).
    /// Returns `false` if the link already existed.
    pub fn connect(&mut self, lt: LinkTypeId, side0: AtomId, side1: AtomId) -> Result<bool> {
        let def = self.schema.link_type(lt);
        if side0.ty != def.ends[0] || side1.ty != def.ends[1] {
            return Err(MadError::integrity(format!(
                "link type `{}` connects `{}` and `{}`, got atoms {side0} and {side1}",
                def.name,
                self.schema.atom_type(def.ends[0]).name,
                self.schema.atom_type(def.ends[1]).name,
            )));
        }
        if !self.atom_exists(side0) {
            return Err(MadError::integrity(format!("atom {side0} does not exist")));
        }
        if !self.atom_exists(side1) {
            return Err(MadError::integrity(format!("atom {side1} does not exist")));
        }
        let store = &self.links[lt.0 as usize];
        if store.contains(side0, side1) {
            return Ok(false);
        }
        // eager max-cardinality enforcement
        if let Some(max) = def.cards[0].max {
            if store.degree_fwd(side0) as u32 >= max {
                return Err(MadError::CardinalityViolation {
                    link_type: def.name.clone(),
                    detail: format!(
                        "atom {side0} already has {} partner(s) on side 0 (max {max})",
                        store.degree_fwd(side0)
                    ),
                });
            }
        }
        if let Some(max) = def.cards[1].max {
            if store.degree_bwd(side1) as u32 >= max {
                return Err(MadError::CardinalityViolation {
                    link_type: def.name.clone(),
                    detail: format!(
                        "atom {side1} already has {} partner(s) on side 1 (max {max})",
                        store.degree_bwd(side1)
                    ),
                });
            }
        }
        // bump only when the insert actually adds a link (mirrors
        // `disconnect`): a no-op connect must not invalidate the cached
        // CSR snapshot
        let added = Arc::make_mut(&mut self.links[lt.0 as usize]).insert(side0, side1);
        if added {
            self.bump_link(lt);
        }
        Ok(added)
    }

    /// Connect two atoms, inferring the orientation from their atom types.
    /// Errors for reflexive link types (use [`Database::connect`]).
    pub fn connect_sym(&mut self, lt: LinkTypeId, a: AtomId, b: AtomId) -> Result<bool> {
        let def = self.schema.link_type(lt);
        if def.is_reflexive() {
            return Err(MadError::integrity(format!(
                "link type `{}` is reflexive; orientation must be explicit",
                def.name
            )));
        }
        if a.ty == def.ends[0] && b.ty == def.ends[1] {
            self.connect(lt, a, b)
        } else if a.ty == def.ends[1] && b.ty == def.ends[0] {
            self.connect(lt, b, a)
        } else {
            Err(MadError::integrity(format!(
                "atoms {a} and {b} do not match the endpoints of link type `{}`",
                def.name
            )))
        }
    }

    /// Remove an oriented link. Returns `false` if it did not exist.
    pub fn disconnect(&mut self, lt: LinkTypeId, side0: AtomId, side1: AtomId) -> Result<bool> {
        let def = self.schema.link_type(lt);
        if side0.ty != def.ends[0] || side1.ty != def.ends[1] {
            return Err(MadError::integrity(format!(
                "atoms {side0}, {side1} do not fit link type `{}`",
                def.name
            )));
        }
        if !self.links[lt.0 as usize].contains(side0, side1) {
            return Ok(false);
        }
        let removed = Arc::make_mut(&mut self.links[lt.0 as usize]).remove(side0, side1);
        if removed {
            self.bump_link(lt);
        }
        Ok(removed)
    }

    /// One link type's pair set changed: bump its stamp and the structural
    /// version.
    fn bump_link(&mut self, lt: LinkTypeId) {
        self.structural_version += 1;
        self.link_versions[lt.0 as usize] += 1;
    }

    // ------------------------------------------------------------------
    // Link access / navigation
    // ------------------------------------------------------------------

    /// Does the oriented link `(side0, side1)` exist?
    pub fn linked(&self, lt: LinkTypeId, side0: AtomId, side1: AtomId) -> bool {
        self.links[lt.0 as usize].contains(side0, side1)
    }

    /// Are `a` and `b` linked in either orientation?
    pub fn linked_sym(&self, lt: LinkTypeId, a: AtomId, b: AtomId) -> bool {
        let s = &self.links[lt.0 as usize];
        s.contains(a, b) || s.contains(b, a)
    }

    /// Partners of `atom` through link type `lt` in the given direction.
    /// `Fwd`/`Bwd` return the stored posting slice; `Sym` merges both.
    pub fn partners(&self, lt: LinkTypeId, atom: AtomId, dir: Direction) -> Vec<AtomId> {
        let s = &self.links[lt.0 as usize];
        match dir {
            Direction::Fwd => s.partners_fwd(atom).to_vec(),
            Direction::Bwd => s.partners_bwd(atom).to_vec(),
            Direction::Sym => s.partners_sym(atom),
        }
    }

    /// Allocation-free partner traversal.
    pub fn for_each_partner(
        &self,
        lt: LinkTypeId,
        atom: AtomId,
        dir: Direction,
        mut f: impl FnMut(AtomId),
    ) {
        let s = &self.links[lt.0 as usize];
        match dir {
            Direction::Fwd => s.partners_fwd(atom).iter().copied().for_each(&mut f),
            Direction::Bwd => s.partners_bwd(atom).iter().copied().for_each(&mut f),
            Direction::Sym => {
                // merged view without building the dedup vec when one side
                // is empty (the common, non-reflexive case)
                let fwd = s.partners_fwd(atom);
                let bwd = s.partners_bwd(atom);
                if bwd.is_empty() {
                    fwd.iter().copied().for_each(&mut f);
                } else if fwd.is_empty() {
                    bwd.iter().copied().for_each(&mut f);
                } else {
                    s.partners_sym(atom).into_iter().for_each(&mut f);
                }
            }
        }
    }

    /// The traversal direction that goes *from* atom type `from` through
    /// link type `lt`: `Fwd` if `from` is side 0, `Bwd` if side 1. Reflexive
    /// link types default to `Fwd` (callers that need the sub→super view or
    /// the symmetric view pass an explicit direction instead).
    pub fn direction_from(&self, lt: LinkTypeId, from: AtomTypeId) -> Result<Direction> {
        let def = self.schema.link_type(lt);
        match def.side_of(from) {
            Some(0) => Ok(Direction::Fwd),
            Some(_) => Ok(Direction::Bwd),
            None => Err(MadError::integrity(format!(
                "atom type `{}` is not an endpoint of link type `{}`",
                self.schema.atom_type(from).name,
                def.name
            ))),
        }
    }

    /// Iterate all oriented links of a link type.
    pub fn links_of(&self, lt: LinkTypeId) -> impl Iterator<Item = (AtomId, AtomId)> + '_ {
        self.links[lt.0 as usize].iter_oriented()
    }

    /// Number of links in a link-type occurrence.
    pub fn link_count(&self, lt: LinkTypeId) -> usize {
        self.links[lt.0 as usize].len()
    }

    /// Total number of links across all link types.
    pub fn total_links(&self) -> usize {
        self.links.iter().map(|s| s.len()).sum()
    }

    /// Raw access to a link store (used by the algebra's inheritance pass).
    pub fn link_store(&self, lt: LinkTypeId) -> &LinkStore {
        &self.links[lt.0 as usize]
    }

    // ------------------------------------------------------------------
    // CSR snapshots
    // ------------------------------------------------------------------

    /// Slot horizon of atom type `ty`: live atoms plus tombstones. Slot
    /// indexes below this bound are the dense key space of the type.
    pub fn atom_slot_count(&self, ty: AtomTypeId) -> usize {
        self.atoms.get(ty.0 as usize).map_or(0, |s| s.slots())
    }

    /// The structural version stamp (bumped by every adjacency- or
    /// slot-horizon-changing DML and by DDL; **not** by attribute updates).
    pub fn version(&self) -> u64 {
        self.structural_version
    }

    /// The attribute version stamp (bumped by `update_attr` only).
    /// Attribute-only DML cannot change adjacency, so it is deliberately
    /// excluded from the stamp that keys the CSR snapshot cache.
    pub fn attr_version(&self) -> u64 {
        self.attr_version
    }

    /// The per-link-type version stamp of `lt` (bumped only when that link
    /// type's pair set changes); keys the incremental CSR rebuild.
    pub fn link_version(&self, lt: LinkTypeId) -> u64 {
        self.link_versions[lt.0 as usize]
    }

    /// The read-optimized [`CsrSnapshot`] of the current database state.
    ///
    /// Built on first use and cached; any structural change invalidates the
    /// cache and the next call rebuilds **incrementally** — only link types
    /// whose per-link-type version moved are re-frozen, the rest share
    /// their CSR pair with the previous snapshot ([`CsrSnapshot::rebuild`]).
    /// The returned [`Arc`] stays valid — and frozen at its version — for
    /// as long as the caller holds it, so a whole derivation runs against
    /// one consistent adjacency image.
    pub fn csr_snapshot(&self) -> Arc<CsrSnapshot> {
        let mut guard = self.csr.0.lock().unwrap();
        if let Some((version, snap)) = guard.snap.as_ref() {
            if *version == self.structural_version {
                return Arc::clone(snap);
            }
        }
        let prev = guard.snap.take().map(|(_, s)| s);
        let (snap, rebuilt) = CsrSnapshot::rebuild(self, prev.as_deref());
        let snap = Arc::new(snap);
        guard.last_rebuild = Some((rebuilt, self.schema.link_type_count()));
        guard.snap = Some((self.structural_version, Arc::clone(&snap)));
        snap
    }

    /// Is a current (non-stale) CSR snapshot already built? EXPLAIN uses
    /// this to report whether bitset derivation starts warm.
    pub fn csr_is_warm(&self) -> bool {
        self.csr
            .0
            .lock()
            .unwrap()
            .snap
            .as_ref()
            .is_some_and(|(v, _)| *v == self.structural_version)
    }

    /// `(rebuilt, total)` link-type CSR pairs of the most recent snapshot
    /// (re)build, or `None` before the first build. EXPLAIN reports this to
    /// show the incremental invalidation at work: after one `connect`, only
    /// the touched pair is re-frozen.
    pub fn csr_rebuild_stats(&self) -> Option<(usize, usize)> {
        self.csr.0.lock().unwrap().last_rebuild
    }

    // ------------------------------------------------------------------
    // Indexes
    // ------------------------------------------------------------------

    /// Create a secondary index on `(ty, attr_name)`, backfilling it from
    /// the current occurrence.
    pub fn create_index(
        &mut self,
        ty: AtomTypeId,
        attr_name: &str,
        kind: IndexKind,
    ) -> Result<()> {
        let def = self.schema.atom_type(ty);
        let attr = def.attr_index(attr_name).ok_or_else(|| {
            MadError::unknown("attribute", format!("{attr_name} of `{}`", def.name))
        })?;
        if self.index_map.contains_key(&(ty, attr)) {
            return Err(MadError::duplicate(
                "index",
                format!("{}.{attr_name}", def.name),
            ));
        }
        let mut idx = AttrIndex::new(ty, attr, kind);
        for (id, tuple) in self.atoms[ty.0 as usize].iter_ids(ty) {
            idx.insert(&tuple[attr], id);
        }
        self.index_map.insert((ty, attr), self.indexes.len());
        self.indexes.push(Arc::new(idx));
        Ok(())
    }

    /// Does an index on `(ty, attr)` exist?
    pub fn has_index(&self, ty: AtomTypeId, attr: usize) -> bool {
        self.index_map.contains_key(&(ty, attr))
    }

    /// The kind of the index on `(ty, attr)`, if one exists. Planners use
    /// this to decide whether a range predicate can be index-served (a hash
    /// index cannot).
    pub fn index_kind(&self, ty: AtomTypeId, attr: usize) -> Option<IndexKind> {
        self.index_map
            .get(&(ty, attr))
            .map(|&pos| self.indexes[pos].kind())
    }

    /// Index-backed equality lookup; `None` when no index exists (caller
    /// falls back to a scan).
    pub fn lookup_eq(&self, ty: AtomTypeId, attr: usize, key: &Value) -> Option<&[AtomId]> {
        self.index_map
            .get(&(ty, attr))
            .map(|&pos| self.indexes[pos].lookup_eq(key))
    }

    /// Index-backed range lookup; `None` when no ordered index exists.
    pub fn lookup_range(
        &self,
        ty: AtomTypeId,
        attr: usize,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Option<Vec<AtomId>> {
        self.index_map
            .get(&(ty, attr))
            .and_then(|&pos| self.indexes[pos].lookup_range(lo, hi))
    }

    fn indexes_of_type(&self, ty: AtomTypeId) -> Vec<usize> {
        self.indexes
            .iter()
            .enumerate()
            .filter(|(_, idx)| idx.ty == ty)
            .map(|(i, _)| i)
            .collect()
    }

    // ------------------------------------------------------------------
    // Integrity
    // ------------------------------------------------------------------

    /// Check the `min` side of all extended link-type definitions. Intended
    /// to run after bulk loading; returns every violation found.
    pub fn check_min_cardinalities(&self) -> Vec<MinCardViolation> {
        let mut out = Vec::new();
        for (lt, def) in self.schema.link_types() {
            let store = &self.links[lt.0 as usize];
            if def.cards[0].min > 0 {
                for (atom, _) in self.atoms_of(def.ends[0]) {
                    let found = store.degree_fwd(atom) as u32;
                    if found < def.cards[0].min {
                        out.push(MinCardViolation {
                            link_type: lt,
                            atom,
                            side: 0,
                            found,
                            required: def.cards[0].min,
                        });
                    }
                }
            }
            if def.cards[1].min > 0 {
                for (atom, _) in self.atoms_of(def.ends[1]) {
                    let found = store.degree_bwd(atom) as u32;
                    if found < def.cards[1].min {
                        out.push(MinCardViolation {
                            link_type: lt,
                            atom,
                            side: 1,
                            found,
                            required: def.cards[1].min,
                        });
                    }
                }
            }
        }
        out
    }

    /// Full referential-integrity audit: every stored link endpoint must be
    /// a live atom of the right type. Always empty if the DML interface was
    /// used exclusively; exposed so property tests can verify the invariant.
    pub fn audit_referential_integrity(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (lt, def) in self.schema.link_types() {
            for (a, b) in self.links_of(lt) {
                if a.ty != def.ends[0] || b.ty != def.ends[1] {
                    problems.push(format!(
                        "link type `{}` holds pair ({a}, {b}) with wrong endpoint types",
                        def.name
                    ));
                }
                if !self.atom_exists(a) {
                    problems.push(format!("link type `{}` references dead atom {a}", def.name));
                }
                if !self.atom_exists(b) {
                    problems.push(format!("link type `{}` references dead atom {b}", def.name));
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mad_model::{AttrType, Cardinality, SchemaBuilder};

    fn geo_db() -> Database {
        let schema = SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text), ("hectare", AttrType::Float)])
            .atom_type("area", &[("aid", AttrType::Int)])
            .atom_type("edge", &[("eid", AttrType::Int)])
            .link_type_card(
                "state-area",
                "state",
                Cardinality::MANY,
                "area",
                Cardinality::AT_MOST_ONE,
            )
            .link_type("area-edge", "area", "edge")
            .build()
            .unwrap();
        Database::new(schema)
    }

    #[test]
    fn insert_and_read_atoms() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let id = db
            .insert_atom(state, vec![Value::from("MG"), Value::from(900)])
            .unwrap();
        assert_eq!(db.atom(id).unwrap()[0], Value::from("MG"));
        // Int 900 coerced into Float domain
        assert_eq!(db.atom(id).unwrap()[1], Value::Float(900.0));
        assert_eq!(db.atom_count(state), 1);
    }

    #[test]
    fn insert_rejects_bad_tuple() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        assert!(db.insert_atom(state, vec![Value::from(1)]).is_err());
        assert!(db
            .insert_atom(state, vec![Value::from(1), Value::from(2)])
            .is_err());
    }

    #[test]
    fn connect_requires_existing_atoms_of_right_type() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let s = db.insert_atom(state, vec![Value::from("SP"), Value::from(1000)]).unwrap();
        let a = db.insert_atom(area, vec![Value::from(1)]).unwrap();
        // wrong orientation
        assert!(db.connect(sa, a, s).is_err());
        // dead atom
        let ghost = AtomId::new(area, 99);
        assert!(db.connect(sa, s, ghost).is_err());
        // ok
        assert!(db.connect(sa, s, a).unwrap());
        assert!(!db.connect(sa, s, a).unwrap(), "duplicate link is a no-op");
        assert!(db.linked(sa, s, a));
        assert!(db.linked_sym(sa, a, s));
    }

    #[test]
    fn connect_sym_infers_orientation() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let s = db.insert_atom(state, vec![Value::from("SP"), Value::from(1000)]).unwrap();
        let a = db.insert_atom(area, vec![Value::from(1)]).unwrap();
        assert!(db.connect_sym(sa, a, s).unwrap());
        assert!(db.linked(sa, s, a), "stored in canonical orientation");
    }

    #[test]
    fn max_cardinality_enforced() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let s1 = db.insert_atom(state, vec![Value::from("SP"), Value::from(1)]).unwrap();
        let s2 = db.insert_atom(state, vec![Value::from("MG"), Value::from(2)]).unwrap();
        let a = db.insert_atom(area, vec![Value::from(1)]).unwrap();
        // area side has max 1: second state for the same area must fail
        db.connect(sa, s1, a).unwrap();
        let err = db.connect(sa, s2, a).unwrap_err();
        assert!(matches!(err, MadError::CardinalityViolation { .. }));
    }

    #[test]
    fn min_cardinality_reported() {
        let schema = SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text)])
            .atom_type("area", &[("aid", AttrType::Int)])
            .link_type_card(
                "state-area",
                "state",
                Cardinality::AT_LEAST_ONE,
                "area",
                Cardinality::MANY,
            )
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let s1 = db.insert_atom(state, vec![Value::from("SP")]).unwrap();
        let s2 = db.insert_atom(state, vec![Value::from("MG")]).unwrap();
        let a = db.insert_atom(area, vec![Value::from(1)]).unwrap();
        db.connect(sa, s1, a).unwrap();
        let violations = db.check_min_cardinalities();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].atom, s2);
        assert_eq!(violations[0].required, 1);
    }

    #[test]
    fn delete_atom_cascades_links() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let edge = db.schema().atom_type_id("edge").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let ae = db.schema().link_type_id("area-edge").unwrap();
        let s = db.insert_atom(state, vec![Value::from("SP"), Value::from(1)]).unwrap();
        let a = db.insert_atom(area, vec![Value::from(1)]).unwrap();
        let e = db.insert_atom(edge, vec![Value::from(10)]).unwrap();
        db.connect(sa, s, a).unwrap();
        db.connect(ae, a, e).unwrap();
        assert_eq!(db.total_links(), 2);
        let removed = db.delete_atom(a).unwrap();
        assert_eq!(removed, 2, "both incident links cascade");
        assert!(!db.atom_exists(a));
        assert_eq!(db.total_links(), 0);
        assert!(db.audit_referential_integrity().is_empty());
    }

    #[test]
    fn delete_missing_atom_errors() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        assert!(db.delete_atom(AtomId::new(state, 3)).is_err());
    }

    #[test]
    fn reflexive_link_directions() {
        let schema = SchemaBuilder::new()
            .atom_type("parts", &[("pid", AttrType::Int)])
            .link_type("composition", "parts", "parts")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let parts = db.schema().atom_type_id("parts").unwrap();
        let comp = db.schema().link_type_id("composition").unwrap();
        let engine = db.insert_atom(parts, vec![Value::from(1)]).unwrap();
        let piston = db.insert_atom(parts, vec![Value::from(2)]).unwrap();
        let ring = db.insert_atom(parts, vec![Value::from(3)]).unwrap();
        db.connect(comp, engine, piston).unwrap(); // engine ⊃ piston
        db.connect(comp, piston, ring).unwrap();
        // sub-component view of piston
        assert_eq!(db.partners(comp, piston, Direction::Fwd), vec![ring]);
        // super-component view of piston
        assert_eq!(db.partners(comp, piston, Direction::Bwd), vec![engine]);
        // symmetric view merges both
        assert_eq!(
            db.partners(comp, piston, Direction::Sym),
            vec![engine, ring]
        );
        // connect_sym is ambiguous on reflexive types
        assert!(db.connect_sym(comp, engine, ring).is_err());
    }

    #[test]
    fn update_attr_checks_and_updates_index() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        db.create_index(state, "sname", IndexKind::Hash).unwrap();
        let s = db.insert_atom(state, vec![Value::from("SP"), Value::from(1)]).unwrap();
        assert_eq!(
            db.lookup_eq(state, 0, &Value::from("SP")).unwrap(),
            &[s]
        );
        db.update_attr(s, 0, Value::from("MG")).unwrap();
        assert!(db.lookup_eq(state, 0, &Value::from("SP")).unwrap().is_empty());
        assert_eq!(db.lookup_eq(state, 0, &Value::from("MG")).unwrap(), &[s]);
        // type error
        assert!(db.update_attr(s, 0, Value::from(3)).is_err());
        // unknown attr
        assert!(db.update_attr(s, 9, Value::Null).is_err());
    }

    #[test]
    fn index_backfills_and_tracks_deletes() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let s1 = db.insert_atom(state, vec![Value::from("SP"), Value::from(1)]).unwrap();
        let s2 = db.insert_atom(state, vec![Value::from("SP"), Value::from(2)]).unwrap();
        db.create_index(state, "sname", IndexKind::Ordered).unwrap();
        assert_eq!(
            db.lookup_eq(state, 0, &Value::from("SP")).unwrap(),
            &[s1, s2]
        );
        db.delete_atom(s1).unwrap();
        assert_eq!(db.lookup_eq(state, 0, &Value::from("SP")).unwrap(), &[s2]);
        // range over ordered index
        let hits = db
            .lookup_range(
                state,
                0,
                Bound::Included(&Value::from("SP")),
                Bound::Unbounded,
            )
            .unwrap();
        assert_eq!(hits, vec![s2]);
        // duplicate index rejected
        assert!(db.create_index(state, "sname", IndexKind::Hash).is_err());
    }

    #[test]
    fn direction_from_resolves_sides() {
        let db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let edge = db.schema().atom_type_id("edge").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        assert_eq!(db.direction_from(sa, state).unwrap(), Direction::Fwd);
        assert_eq!(db.direction_from(sa, area).unwrap(), Direction::Bwd);
        assert!(db.direction_from(sa, edge).is_err());
    }

    #[test]
    fn duplicate_connect_keeps_csr_snapshot_cached() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let s = db.insert_atom(state, vec![Value::from("SP"), Value::from(1)]).unwrap();
        let a = db.insert_atom(area, vec![Value::from(1)]).unwrap();
        assert!(db.connect(sa, s, a).unwrap());
        let _ = db.csr_snapshot();
        assert!(db.csr_is_warm());
        let v = db.version();
        // regression: a duplicate (no-op) connect used to bump the version
        // before LinkStore::insert, invalidating the cache for nothing
        assert!(!db.connect(sa, s, a).unwrap());
        assert_eq!(db.version(), v, "no-op connect bumped the version");
        assert!(db.csr_is_warm(), "no-op connect invalidated the snapshot");
        // a no-op disconnect is equally invisible
        let ghost_area = db.insert_atom(area, vec![Value::from(2)]).unwrap();
        let _ = db.csr_snapshot();
        assert!(!db.disconnect(sa, s, ghost_area).unwrap());
        assert!(db.csr_is_warm(), "no-op disconnect invalidated the snapshot");
    }

    #[test]
    fn update_attr_keeps_csr_snapshot_cached() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let s = db.insert_atom(state, vec![Value::from("SP"), Value::from(1)]).unwrap();
        let _ = db.csr_snapshot();
        assert!(db.csr_is_warm());
        let (structural, attrs) = (db.version(), db.attr_version());
        // regression: attribute-only DML used to share the structural
        // stamp, rebuilding adjacency that cannot have changed
        db.update_attr(s, 1, Value::from(2.0)).unwrap();
        assert_eq!(db.version(), structural, "update_attr bumped the structural version");
        assert_eq!(db.attr_version(), attrs + 1, "update_attr must stamp the attr version");
        assert!(db.csr_is_warm(), "update_attr invalidated the CSR snapshot");
    }

    #[test]
    fn one_connect_rebuilds_only_the_touched_pair() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let edge = db.schema().atom_type_id("edge").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let ae = db.schema().link_type_id("area-edge").unwrap();
        let s = db.insert_atom(state, vec![Value::from("SP"), Value::from(1)]).unwrap();
        let a = db.insert_atom(area, vec![Value::from(1)]).unwrap();
        let e = db.insert_atom(edge, vec![Value::from(1)]).unwrap();
        db.connect(sa, s, a).unwrap();
        db.connect(ae, a, e).unwrap();
        let _ = db.csr_snapshot();
        assert_eq!(db.csr_rebuild_stats(), Some((2, 2)), "cold build freezes every pair");
        // one more link through `area-edge` only
        let e2 = db.insert_atom(edge, vec![Value::from(2)]).unwrap();
        db.connect(ae, a, e2).unwrap();
        let _ = db.csr_snapshot();
        assert_eq!(
            db.csr_rebuild_stats(),
            Some((1, 2)),
            "only the touched link type is re-frozen"
        );
        // plain atom inserts move the slot horizon but re-freeze nothing
        let _ = db.insert_atom(edge, vec![Value::from(3)]).unwrap();
        let _ = db.csr_snapshot();
        assert_eq!(db.csr_rebuild_stats(), Some((0, 2)));
        // the cascade of a delete re-freezes exactly the link types it hit
        db.delete_atom(a).unwrap();
        let _ = db.csr_snapshot();
        assert_eq!(db.csr_rebuild_stats(), Some((2, 2)), "cascade touched both link types");
    }

    #[test]
    fn delete_atom_never_serves_stale_csr_snapshot() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let edge = db.schema().atom_type_id("edge").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let ae = db.schema().link_type_id("area-edge").unwrap();
        let s = db.insert_atom(state, vec![Value::from("SP"), Value::from(1)]).unwrap();
        let a = db.insert_atom(area, vec![Value::from(1)]).unwrap();
        let e = db.insert_atom(edge, vec![Value::from(1)]).unwrap();
        db.connect(sa, s, a).unwrap();
        db.connect(ae, a, e).unwrap();
        let before = db.csr_snapshot();
        assert!(!before.adjacency(sa, Direction::Fwd).partners_of(s.slot).is_empty());
        let (v, sa_v, ae_v) = (db.version(), db.link_version(sa), db.link_version(ae));
        db.delete_atom(a).unwrap();
        // exactly one structural bump, one bump per touched link type
        assert_eq!(db.version(), v + 1, "delete must bump the structural version once");
        assert_eq!(db.link_version(sa), sa_v + 1);
        assert_eq!(db.link_version(ae), ae_v + 1);
        assert!(!db.csr_is_warm(), "stale snapshot left in the cache after delete");
        // the next snapshot must not carry the deleted atom's adjacency
        let after = db.csr_snapshot();
        assert!(after.adjacency(sa, Direction::Fwd).partners_of(s.slot).is_empty());
        assert!(after.adjacency(ae, Direction::Bwd).partners_of(e.slot).is_empty());
        // the old Arc the reader held is untouched (their snapshot, frozen)
        assert!(!before.adjacency(sa, Direction::Fwd).partners_of(s.slot).is_empty());
    }

    #[test]
    fn delete_reflexive_atom_bumps_link_version_once() {
        let schema = SchemaBuilder::new()
            .atom_type("parts", &[("pid", AttrType::Int)])
            .link_type("composition", "parts", "parts")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let parts = db.schema().atom_type_id("parts").unwrap();
        let comp = db.schema().link_type_id("composition").unwrap();
        let top = db.insert_atom(parts, vec![Value::from(1)]).unwrap();
        let mid = db.insert_atom(parts, vec![Value::from(2)]).unwrap();
        let bot = db.insert_atom(parts, vec![Value::from(3)]).unwrap();
        // `mid` has links on BOTH sides of the reflexive type
        db.connect(comp, top, mid).unwrap();
        db.connect(comp, mid, bot).unwrap();
        let (v, lv) = (db.version(), db.link_version(comp));
        let removed = db.delete_atom(mid).unwrap();
        assert_eq!(removed, 2, "both orientations cascade");
        assert_eq!(db.version(), v + 1, "one structural bump for the whole cascade");
        assert_eq!(db.link_version(comp), lv + 1, "one bump per touched link type");
        assert!(db.audit_referential_integrity().is_empty());
    }

    #[test]
    fn insert_atoms_bumps_structural_version_once_per_batch() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let _ = db.csr_snapshot();
        let v = db.version();
        let ids = db
            .insert_atoms(
                state,
                (0..100).map(|i| vec![Value::from(format!("s{i}")), Value::from(i)]),
            )
            .unwrap();
        assert_eq!(ids.len(), 100);
        assert_eq!(db.version(), v + 1, "a batch stamps the version exactly once");
        // the single bump still invalidates the cached snapshot…
        assert!(!db.csr_is_warm());
        // …and an empty batch stamps nothing
        let v = db.version();
        assert!(db.insert_atoms(state, std::iter::empty()).unwrap().is_empty());
        assert_eq!(db.version(), v);
        // a failing batch keeps the atoms inserted before the bad tuple and
        // still bumps (those atoms grew the slot horizon)
        let v = db.version();
        let err = db.insert_atoms(
            state,
            vec![
                vec![Value::from("ok"), Value::from(1)],
                vec![Value::from(1)], // wrong arity
            ],
        );
        assert!(err.is_err());
        assert_eq!(db.version(), v + 1);
    }

    #[test]
    fn insert_atoms_batch_maintains_indexes() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        db.create_index(state, "sname", IndexKind::Hash).unwrap();
        let ids = db
            .insert_atoms(
                state,
                vec![
                    vec![Value::from("SP"), Value::from(1)],
                    vec![Value::from("MG"), Value::from(2)],
                ],
            )
            .unwrap();
        assert_eq!(db.lookup_eq(state, 0, &Value::from("MG")).unwrap(), &[ids[1]]);
    }

    #[test]
    fn clone_is_a_copy_on_write_fork() {
        let mut db = geo_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let s = db.insert_atom(state, vec![Value::from("SP"), Value::from(1)]).unwrap();
        let a = db.insert_atom(area, vec![Value::from(1)]).unwrap();
        db.connect(sa, s, a).unwrap();
        let _ = db.csr_snapshot();
        let mut fork = db.clone();
        // the fork starts warm: the cached snapshot Arc is shared
        assert!(fork.csr_is_warm(), "clone must inherit the warm CSR cache");
        // writes to the fork never show through to the origin
        let s2 = fork.insert_atom(state, vec![Value::from("MG"), Value::from(2)]).unwrap();
        fork.update_attr(s, 0, Value::from("XX")).unwrap();
        fork.disconnect(sa, s, a).unwrap();
        assert!(!db.atom_exists(s2));
        assert_eq!(db.atom(s).unwrap()[0], Value::from("SP"));
        assert!(db.linked(sa, s, a));
        assert!(db.csr_is_warm(), "fork DML must not disturb the origin's cache");
        // …and vice versa
        db.delete_atom(a).unwrap();
        assert!(fork.atom_exists(a));
    }

    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<std::sync::Arc<Database>>();
    }

    #[test]
    fn ddl_grows_occurrence_stores() {
        let mut db = geo_db();
        let city = db
            .add_atom_type(AtomTypeDef::new(
                "city",
                vec![mad_model::AttrDef::new("cname", AttrType::Text)],
            ))
            .unwrap();
        let id = db.insert_atom(city, vec![Value::from("Ouro Preto")]).unwrap();
        assert!(db.atom_exists(id));
        let state = db.schema().atom_type_id("state").unwrap();
        let cs = db
            .add_link_type(LinkTypeDef::new("city-state", city, state))
            .unwrap();
        assert_eq!(db.link_count(cs), 0);
    }
}
