//! Recursive molecule types — the §5 outlook feature (\[Schö89\]).
//!
//! "The MAD model allows for reflexive link types and for other cycles in
//! the database schema; e.g. for modeling a bill-of-material application.
//! These cycles are normally queried in a recursive manner, for example
//! asking for the parts explosion (i.e. sub-component view) of a given
//! part."
//!
//! A [`RecursiveSpec`] names a start atom type, a component structure (a
//! link type with a traversal direction) and an optional depth bound. Its
//! derivation unfolds the atom network breadth-first from each root,
//! **cycle-safe**: an atom already contained is not expanded again, so the
//! derivation terminates even on cyclic atom networks (the unfolded
//! molecule is the reachable subgraph, levelled by first-visit depth).
//!
//! Since PR 2 the unfolding rides the same storage engine as
//! `Strategy::Bitset`: the contained set and each BFS level are dense
//! slot-indexed [`BitSet`]s, and frontiers expand through the database's
//! frozen [`CsrSnapshot`] with sequential
//! partner scans — no per-atom hash probes remain on the recursive hot
//! path, and a whole [`derive_recursive`] sweep shares one snapshot
//! across all roots.

use crate::molecule::{children, write_atom_line};
use mad_model::text::TextWriter;
use mad_model::{AtomId, AtomTypeId, BitSet, FxHashSet, LinkTypeId, MadError, Result};
use mad_storage::database::Direction;
use mad_storage::{CsrSnapshot, Database};

/// Description of a recursive molecule type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecursiveSpec {
    /// The atom type being traversed (root and components alike).
    pub atom_type: AtomTypeId,
    /// The reflexive link type to follow.
    pub link: LinkTypeId,
    /// Traversal direction (`Fwd` = sub-component view / parts explosion,
    /// `Bwd` = super-component view / where-used, `Sym` = both).
    pub dir: Direction,
    /// Maximum recursion depth (`None` = until fixpoint).
    pub max_depth: Option<usize>,
}

impl RecursiveSpec {
    /// Validate against a database: the link type must be reflexive on
    /// `atom_type`.
    pub fn validate(&self, db: &Database) -> Result<()> {
        let def = db.schema().link_type(self.link);
        if !def.is_reflexive() || def.ends[0] != self.atom_type {
            return Err(MadError::Recursion {
                detail: format!(
                    "link type `{}` is not reflexive on `{}`",
                    def.name,
                    db.schema().atom_type(self.atom_type).name
                ),
            });
        }
        Ok(())
    }
}

/// A derived recursive molecule: the unfolding of the component graph from
/// one root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecursiveMolecule {
    /// The root atom.
    pub root: AtomId,
    /// Atoms by first-visit depth; `levels[0] == [root]`.
    pub levels: Vec<Vec<AtomId>>,
    /// All traversed component links `(parent, child)` between contained
    /// atoms (including "cross" and "back" links discovered late), sorted
    /// and deduplicated.
    pub links: Vec<(AtomId, AtomId)>,
    /// True if the traversal reached an already-contained atom again —
    /// either a shared subcomponent (DAG reconvergence) or a genuine cycle.
    pub reconverging: bool,
}

impl RecursiveMolecule {
    /// Flat atom set, sorted.
    pub fn atom_set(&self) -> Vec<AtomId> {
        let mut all: Vec<AtomId> = self.levels.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    /// Depth of the unfolding (number of levels below the root).
    pub fn depth(&self) -> usize {
        self.levels.len().saturating_sub(1)
    }

    /// Total number of contained atoms.
    pub fn size(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Render as an indented tree; atoms revisited (shared or cyclic) are
    /// shown as `^ref`, guaranteeing finite output on cyclic data.
    pub fn render_tree(&self, db: &Database) -> String {
        let mut out = TextWriter::new();
        self.write_tree(db, &mut FxHashSet::default(), &mut out);
        out.into_string()
    }

    /// [`RecursiveMolecule::render_tree`], written to `out`; `seen` is
    /// cleared first, as in [`crate::Molecule::write_tree`].
    pub fn write_tree(&self, db: &Database, seen: &mut FxHashSet<AtomId>, out: &mut TextWriter) {
        seen.clear();
        self.write_node(db, self.root, 0, seen, out);
    }

    fn write_node(
        &self,
        db: &Database,
        atom: AtomId,
        depth: usize,
        seen: &mut FxHashSet<AtomId>,
        out: &mut TextWriter,
    ) {
        if !write_atom_line(out, db, seen, depth, None, atom, None) {
            return;
        }
        for c in children(&self.links, atom) {
            self.write_node(db, c, depth + 1, seen, out);
        }
    }
}

fn validate_recursive_root(db: &Database, spec: &RecursiveSpec, root: AtomId) -> Result<()> {
    if root.ty != spec.atom_type {
        return Err(MadError::Recursion {
            detail: format!("root atom {root} is not of the recursive atom type"),
        });
    }
    if !db.atom_exists(root) {
        return Err(MadError::integrity(format!("atom {root} does not exist")));
    }
    Ok(())
}

/// Derive one recursive molecule from `root`.
pub fn derive_recursive_one(
    db: &Database,
    spec: &RecursiveSpec,
    root: AtomId,
) -> Result<RecursiveMolecule> {
    spec.validate(db)?;
    validate_recursive_root(db, spec, root)?;
    let csr = db.csr_snapshot();
    let mut scratch = RecursiveScratch::new(&csr, spec.atom_type);
    Ok(unfold_csr(&csr, spec, root, &mut scratch))
}

/// Reusable per-sweep bitsets: one slot-indexed contained set and two
/// frontier sets, cleared (dirty-window cheap) between roots.
struct RecursiveScratch {
    contained: BitSet,
    frontier: BitSet,
    next: BitSet,
}

impl RecursiveScratch {
    fn new(csr: &CsrSnapshot, ty: AtomTypeId) -> Self {
        let cap = csr.slot_count(ty);
        RecursiveScratch {
            contained: BitSet::with_capacity(cap),
            frontier: BitSet::with_capacity(cap),
            next: BitSet::with_capacity(cap),
        }
    }
}

/// The breadth-first unfolding over the frozen snapshot. Frontier and
/// contained sets are slot bitsets of the (single, reflexive) atom type;
/// each level expands with sequential CSR partner scans. Bitset iteration
/// is ascending-slot, which for one atom type *is* sorted `AtomId` order,
/// so levels come out sorted exactly like the classic implementation's.
fn unfold_csr(
    csr: &CsrSnapshot,
    spec: &RecursiveSpec,
    root: AtomId,
    scratch: &mut RecursiveScratch,
) -> RecursiveMolecule {
    let ty = spec.atom_type;
    let RecursiveScratch {
        contained,
        frontier,
        next,
    } = scratch;
    contained.clear();
    frontier.clear();
    contained.insert(root.slot as usize);
    frontier.insert(root.slot as usize);
    let mut levels = vec![vec![root]];
    let mut links: Vec<(AtomId, AtomId)> = Vec::new();
    let mut reconverging = false;
    let mut depth = 0usize;
    loop {
        if let Some(max) = spec.max_depth {
            if depth >= max {
                break;
            }
        }
        next.clear();
        let mut level: Vec<AtomId> = Vec::new();
        for p in frontier.iter() {
            let parent = AtomId::new(ty, p as u32);
            csr.for_each_partner(spec.link, p as u32, spec.dir, |c| {
                links.push((parent, AtomId::new(ty, c)));
                if contained.contains(c as usize) {
                    reconverging = true; // shared subobject or cycle
                } else {
                    contained.insert(c as usize);
                    next.insert(c as usize);
                    level.push(AtomId::new(ty, c));
                }
            });
        }
        if next.is_empty() {
            break;
        }
        level.sort_unstable();
        levels.push(level);
        std::mem::swap(frontier, next);
        depth += 1;
    }
    links.sort_unstable();
    links.dedup();
    RecursiveMolecule {
        root,
        levels,
        links,
        reconverging,
    }
}

/// Derive recursive molecules for all atoms of the spec's atom type (or a
/// chosen subset). All roots unfold against **one** shared CSR snapshot and
/// reuse one set of scratch bitsets.
pub fn derive_recursive(
    db: &Database,
    spec: &RecursiveSpec,
    roots: Option<&[AtomId]>,
) -> Result<Vec<RecursiveMolecule>> {
    spec.validate(db)?;
    let roots: Vec<AtomId> = match roots {
        Some(r) => r.to_vec(),
        None => db.atom_ids_of(spec.atom_type),
    };
    for &r in &roots {
        validate_recursive_root(db, spec, r)?;
    }
    let csr = db.csr_snapshot();
    let mut scratch = RecursiveScratch::new(&csr, spec.atom_type);
    Ok(roots
        .into_iter()
        .map(|r| unfold_csr(&csr, spec, r, &mut scratch))
        .collect())
}

/// Transitive-closure reachability (the set semantics a relational
/// semi-naive evaluation computes); used by benchmark B5 to check both
/// sides agree.
pub fn reachable_set(db: &Database, spec: &RecursiveSpec, root: AtomId) -> Result<Vec<AtomId>> {
    derive_recursive_one(db, spec, root).map(|m| m.atom_set())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mad_model::{AttrType, SchemaBuilder, Value};

    fn bom_db() -> (Database, AtomTypeId, LinkTypeId, Vec<AtomId>) {
        let schema = SchemaBuilder::new()
            .atom_type("parts", &[("pname", AttrType::Text)])
            .link_type("composition", "parts", "parts")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let parts = db.schema().atom_type_id("parts").unwrap();
        let comp = db.schema().link_type_id("composition").unwrap();
        // engine ⊃ {piston, crankshaft}; piston ⊃ {ring, bolt};
        // crankshaft ⊃ {bolt}  — bolt is a shared sub-part (DAG)
        let names = ["engine", "piston", "crankshaft", "ring", "bolt"];
        let ids: Vec<AtomId> = names
            .iter()
            .map(|n| db.insert_atom(parts, vec![Value::from(*n)]).unwrap())
            .collect();
        db.connect(comp, ids[0], ids[1]).unwrap();
        db.connect(comp, ids[0], ids[2]).unwrap();
        db.connect(comp, ids[1], ids[3]).unwrap();
        db.connect(comp, ids[1], ids[4]).unwrap();
        db.connect(comp, ids[2], ids[4]).unwrap();
        (db, parts, comp, ids)
    }

    fn spec(parts: AtomTypeId, comp: LinkTypeId) -> RecursiveSpec {
        RecursiveSpec {
            atom_type: parts,
            link: comp,
            dir: Direction::Fwd,
            max_depth: None,
        }
    }

    #[test]
    fn parts_explosion() {
        let (db, parts, comp, ids) = bom_db();
        let m = derive_recursive_one(&db, &spec(parts, comp), ids[0]).unwrap();
        assert_eq!(m.size(), 5);
        assert_eq!(m.depth(), 2);
        assert_eq!(m.levels[0], vec![ids[0]]);
        assert_eq!(m.levels[1], vec![ids[1], ids[2]]);
        assert_eq!(m.levels[2], vec![ids[3], ids[4]]);
        // bolt reached from two parents: 5 distinct links… engine→piston,
        // engine→crank, piston→ring, piston→bolt, crank→bolt
        assert_eq!(m.links.len(), 5);
        assert!(m.reconverging, "bolt is revisited via the second parent");
    }

    #[test]
    fn where_used_view() {
        let (db, parts, comp, ids) = bom_db();
        let mut s = spec(parts, comp);
        s.dir = Direction::Bwd;
        let m = derive_recursive_one(&db, &s, ids[4]).unwrap();
        // bolt ← {piston, crankshaft} ← engine
        assert_eq!(m.size(), 4);
        assert_eq!(m.depth(), 2);
        assert_eq!(m.levels[1], vec![ids[1], ids[2]]);
        assert_eq!(m.levels[2], vec![ids[0]]);
    }

    #[test]
    fn depth_bound_cuts_expansion() {
        let (db, parts, comp, ids) = bom_db();
        let mut s = spec(parts, comp);
        s.max_depth = Some(1);
        let m = derive_recursive_one(&db, &s, ids[0]).unwrap();
        assert_eq!(m.depth(), 1);
        assert_eq!(m.size(), 3);
        // links below the cut are pruned
        assert!(m.links.iter().all(|(p, _)| *p == ids[0]));
    }

    #[test]
    fn terminates_on_cycles() {
        let (mut db, parts, comp, ids) = bom_db();
        // make it cyclic: bolt ⊃ engine (nonsense, but legal data)
        db.connect(comp, ids[4], ids[0]).unwrap();
        let m = derive_recursive_one(&db, &spec(parts, comp), ids[0]).unwrap();
        assert!(m.reconverging);
        assert_eq!(m.size(), 5, "every part still contained exactly once");
        // the cycle link is retained (both endpoints contained)
        assert!(m.links.contains(&(ids[4], ids[0])));
    }

    #[test]
    fn derive_all_roots() {
        let (db, parts, comp, _) = bom_db();
        let ms = derive_recursive(&db, &spec(parts, comp), None).unwrap();
        assert_eq!(ms.len(), 5);
        // leaves unfold to just themselves
        assert_eq!(ms[3].size(), 1);
        assert_eq!(ms[4].size(), 1);
    }

    #[test]
    fn validation_errors() {
        let (db, parts, comp, ids) = bom_db();
        // non-reflexive link type rejected
        let schema2 = SchemaBuilder::new()
            .atom_type("a", &[("x", AttrType::Int)])
            .atom_type("b", &[("x2", AttrType::Int)])
            .link_type("ab", "a", "b")
            .build()
            .unwrap();
        let db2 = Database::new(schema2);
        let bad = RecursiveSpec {
            atom_type: db2.schema().atom_type_id("a").unwrap(),
            link: db2.schema().link_type_id("ab").unwrap(),
            dir: Direction::Fwd,
            max_depth: None,
        };
        assert!(bad.validate(&db2).is_err());
        // wrong root type
        let s = spec(parts, comp);
        let wrong_root = AtomId::new(AtomTypeId(99), 0);
        assert!(derive_recursive_one(&db, &s, wrong_root).is_err());
        // dead root
        assert!(
            derive_recursive_one(&db, &s, AtomId::new(parts, 99)).is_err()
        );
        let _ = ids;
    }

    #[test]
    fn render_tree_finite_on_cycles() {
        let (mut db, parts, comp, ids) = bom_db();
        db.connect(comp, ids[4], ids[0]).unwrap();
        let m = derive_recursive_one(&db, &spec(parts, comp), ids[0]).unwrap();
        let t = m.render_tree(&db);
        assert!(t.contains("'engine'"));
        assert!(t.contains('^'), "cycle rendered as back reference");
    }

    #[test]
    fn symmetric_direction_explores_everything() {
        let (db, parts, comp, ids) = bom_db();
        let mut s = spec(parts, comp);
        s.dir = Direction::Sym;
        let m = derive_recursive_one(&db, &s, ids[3]).unwrap();
        // from `ring` the symmetric closure reaches the whole component
        assert_eq!(m.size(), 5);
    }
}
