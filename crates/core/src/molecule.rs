//! Molecules (`m = <c, g>` of Def. 6) and molecule types (Def. 7).
//!
//! A [`Molecule`] stores its atom set `c` grouped by structure node and its
//! link set `g` grouped by structure edge — the grouped form is what the
//! qualification evaluation, the projection operator and the renderers need;
//! the flat sets of the formalism are recovered by [`Molecule::atom_set`] /
//! [`Molecule::link_set`].
//!
//! Molecules of one molecule type may **overlap**: the same atom (e.g. a
//! shared border `edge`) can appear in many molecules. Fig. 2's lower half
//! — `mt state` molecules SP and MG sharing edge/point atoms — is exactly
//! this, and [`MoleculeSet::shared_atoms`] reports it.

use crate::structure::MoleculeStructure;
use mad_model::{AtomId, FxHashMap, FxHashSet};
use mad_storage::Database;
use std::fmt::{self, Write as _};

/// One molecule: a rooted occurrence of a molecule structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Molecule {
    /// The root atom (of the structure's root atom type).
    pub root: AtomId,
    /// Atom set grouped by structure node (sorted, deduplicated).
    /// `atoms[n]` are the atoms playing role `n`; `atoms[root]` is
    /// `[root]`.
    pub atoms: Vec<Vec<AtomId>>,
    /// Link set grouped by structure edge (sorted pairs `(parent, child)`
    /// in traversal orientation; the renderer finds a parent's children
    /// by binary search).
    pub links: Vec<Vec<(AtomId, AtomId)>>,
}

impl Molecule {
    /// A molecule containing only its root.
    pub fn single(root: AtomId, node_count: usize, edge_count: usize, root_node: usize) -> Self {
        let mut atoms = vec![Vec::new(); node_count];
        atoms[root_node] = vec![root];
        Molecule {
            root,
            atoms,
            links: vec![Vec::new(); edge_count],
        }
    }

    /// The flat atom set `c` (sorted, deduplicated across nodes).
    pub fn atom_set(&self) -> Vec<AtomId> {
        let mut all: Vec<AtomId> = self.atoms.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// The flat link set `g` (sorted, deduplicated across edges).
    pub fn link_set(&self) -> Vec<(AtomId, AtomId)> {
        let mut all: Vec<(AtomId, AtomId)> = self.links.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Total number of atom occurrences by node (an atom shared between two
    /// nodes counts twice; use [`Molecule::atom_set`] for the set size).
    pub fn atom_occurrences(&self) -> usize {
        self.atoms.iter().map(Vec::len).sum()
    }

    /// Does the molecule contain `atom` in any role?
    pub fn contains_atom(&self, atom: AtomId) -> bool {
        self.atoms
            .iter()
            .any(|v| v.binary_search(&atom).is_ok())
    }

    /// Atoms playing role `node`.
    pub fn atoms_at(&self, node: usize) -> &[AtomId] {
        &self.atoms[node]
    }

    /// Links instantiating structure edge `edge`.
    pub fn links_at(&self, edge: usize) -> &[(AtomId, AtomId)] {
        &self.links[edge]
    }

    /// Map every atom id through `f`, preserving grouping (used by the
    /// propagation function `prop` and by canonicalization). Re-sorts.
    pub fn map_atoms(&self, mut f: impl FnMut(AtomId) -> AtomId) -> Molecule {
        let mut atoms: Vec<Vec<AtomId>> = self
            .atoms
            .iter()
            .map(|v| v.iter().map(|&a| f(a)).collect::<Vec<_>>())
            .collect();
        for v in &mut atoms {
            v.sort_unstable();
            v.dedup();
        }
        let mut links: Vec<Vec<(AtomId, AtomId)>> = self
            .links
            .iter()
            .map(|v| v.iter().map(|&(a, b)| (f(a), f(b))).collect::<Vec<_>>())
            .collect();
        for v in &mut links {
            v.sort_unstable();
            v.dedup();
        }
        Molecule {
            root: f(self.root),
            atoms,
            links,
        }
    }

    /// Render as an indented tree with shared-subobject markers: an atom
    /// reached a second time within this molecule is printed once in full
    /// and subsequently as a `^ref`.
    pub fn render_tree(&self, db: &Database, md: &MoleculeStructure) -> String {
        let mut out = String::new();
        self.write_tree(db, md, &mut FxHashSet::default(), &mut out);
        out
    }

    /// [`Molecule::render_tree`], appended to `out`. `seen` is scratch
    /// space for the `^ref` markers, cleared first, so one set serves a
    /// whole molecule set.
    pub fn write_tree(
        &self,
        db: &Database,
        md: &MoleculeStructure,
        seen: &mut FxHashSet<AtomId>,
        out: &mut String,
    ) {
        seen.clear();
        self.write_atom(db, md, md.root(), self.root, 0, seen, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn write_atom(
        &self,
        db: &Database,
        md: &MoleculeStructure,
        node: usize,
        atom: AtomId,
        depth: usize,
        seen: &mut FxHashSet<AtomId>,
        out: &mut String,
    ) {
        if !write_atom_line(out, db, seen, depth, Some(&md.nodes()[node].alias), atom) {
            return;
        }
        for &e in md.outgoing(node) {
            let to = md.edges()[e].to;
            for c in children(&self.links[e], atom) {
                self.write_atom(db, md, to, c, depth + 1, seen, out);
            }
        }
    }
}

/// The children of `parent` in the sorted `links`: one binary search,
/// then the contiguous run.
pub(crate) fn children(
    links: &[(AtomId, AtomId)],
    parent: AtomId,
) -> impl Iterator<Item = AtomId> + '_ {
    let first = links.partition_point(|&(p, _)| p < parent);
    links
        .iter()
        .skip(first)
        .take_while(move |&&(p, _)| p == parent)
        .map(|&(_, c)| c)
}

/// Append one line of a rendered tree: `depth` levels of indentation, the
/// structure alias if any, then `^id` for an atom `seen` already holds,
/// `id <v1, v2, …>` on first sight, or `id <dead>` for an atom deleted
/// since derivation. Returns whether the atom was new, i.e. whether its
/// children follow.
pub(crate) fn write_atom_line(
    out: &mut String,
    db: &Database,
    seen: &mut FxHashSet<AtomId>,
    depth: usize,
    alias: Option<&str>,
    atom: AtomId,
) -> bool {
    for _ in 0..depth {
        out.push_str("  ");
    }
    if let Some(alias) = alias {
        out.push_str(alias);
        out.push(' ');
    }
    if !seen.insert(atom) {
        let _ = writeln!(out, "^{atom}");
        return false;
    }
    let _ = write!(out, "{atom} <");
    match db.atom(atom) {
        Ok(tuple) => {
            for (i, v) in tuple.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{v}");
            }
        }
        Err(_) => out.push_str("dead"),
    }
    out.push_str(">\n");
    true
}

impl fmt::Display for Molecule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "molecule(root={}, |c|={}, |g|={})",
            self.root,
            self.atom_set().len(),
            self.link_set().len()
        )
    }
}

/// A molecule type `mt = <mname, md, mv>` (Def. 7): a named structure plus
/// its derived occurrence.
#[derive(Clone, Debug, PartialEq)]
pub struct MoleculeType {
    /// The molecule-type name `mname ∈ N`.
    pub name: String,
    /// The molecule-type description `md`.
    pub structure: MoleculeStructure,
    /// The molecule-type occurrence `mv`, ordered by root atom.
    pub molecules: Vec<Molecule>,
}

impl MoleculeType {
    /// Number of molecules in the occurrence.
    pub fn len(&self) -> usize {
        self.molecules.len()
    }

    /// Is the occurrence empty?
    pub fn is_empty(&self) -> bool {
        self.molecules.is_empty()
    }

    /// Find the molecule rooted at `root`.
    pub fn molecule_with_root(&self, root: AtomId) -> Option<&Molecule> {
        self.molecules.iter().find(|m| m.root == root)
    }

    /// Set-level sharing report: atoms appearing in ≥ 2 molecules, with the
    /// roots of the molecules sharing them (Fig. 2's "shared subobjects").
    pub fn shared_atoms(&self) -> Vec<(AtomId, Vec<AtomId>)> {
        let mut owners: FxHashMap<AtomId, Vec<AtomId>> = FxHashMap::default();
        for m in &self.molecules {
            for a in m.atom_set() {
                owners.entry(a).or_default().push(m.root);
            }
        }
        let mut shared: Vec<(AtomId, Vec<AtomId>)> = owners
            .into_iter()
            .filter(|(_, roots)| roots.len() >= 2)
            .collect();
        for (_, roots) in &mut shared {
            roots.sort_unstable();
        }
        shared.sort_unstable_by_key(|(a, _)| *a);
        shared
    }

    /// The number of atoms appearing in ≥ 2 molecules — the length of
    /// [`MoleculeType::shared_atoms`], counted on the sorted concatenation
    /// of the per-molecule atom sets instead of through a map of roots.
    pub fn shared_atom_count(&self) -> usize {
        let mut all: Vec<AtomId> =
            Vec::with_capacity(self.molecules.iter().map(Molecule::atom_occurrences).sum());
        let mut one: Vec<AtomId> = Vec::new();
        for m in &self.molecules {
            one.clear();
            one.extend(m.atoms.iter().flatten());
            one.sort_unstable();
            one.dedup();
            all.extend_from_slice(&one);
        }
        all.sort_unstable();
        all.chunk_by(|a, b| a == b)
            .filter(|run| run.len() >= 2)
            .count()
    }

    /// Total distinct atoms across the occurrence.
    pub fn distinct_atoms(&self) -> usize {
        let mut all: FxHashSet<AtomId> = FxHashSet::default();
        for m in &self.molecules {
            all.extend(m.atom_set());
        }
        all.len()
    }

    /// Total atom occurrences (with multiplicity across molecules) — the
    /// storage a model *without* shared subobjects would need. The ratio
    /// to [`MoleculeType::distinct_atoms`] is the duplication factor of
    /// benchmark B2.
    pub fn total_atom_occurrences(&self) -> usize {
        self.molecules.iter().map(|m| m.atom_set().len()).sum()
    }
}

/// Alias kept for readability in signatures that deal with plain sets.
pub type MoleculeSet = MoleculeType;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::path;
    use mad_model::{AtomTypeId, AttrType, SchemaBuilder, Value};

    fn aid(ty: u32, slot: u32) -> AtomId {
        AtomId::new(AtomTypeId(ty), slot)
    }

    fn two_node_structure() -> (Database, MoleculeStructure) {
        let schema = SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text)])
            .atom_type("area", &[("aid", AttrType::Int)])
            .link_type("state-area", "state", "area")
            .build()
            .unwrap();
        let db = Database::new(schema);
        let md = path(db.schema(), &["state", "area"]).unwrap();
        (db, md)
    }

    fn sample_molecule() -> Molecule {
        Molecule {
            root: aid(0, 0),
            atoms: vec![vec![aid(0, 0)], vec![aid(1, 0), aid(1, 1)]],
            links: vec![vec![(aid(0, 0), aid(1, 0)), (aid(0, 0), aid(1, 1))]],
        }
    }

    #[test]
    fn atom_and_link_sets_flatten() {
        let m = sample_molecule();
        assert_eq!(m.atom_set(), vec![aid(0, 0), aid(1, 0), aid(1, 1)]);
        assert_eq!(m.link_set().len(), 2);
        assert_eq!(m.atom_occurrences(), 3);
        assert!(m.contains_atom(aid(1, 1)));
        assert!(!m.contains_atom(aid(1, 2)));
    }

    #[test]
    fn single_molecule_has_only_root() {
        let m = Molecule::single(aid(0, 5), 3, 2, 0);
        assert_eq!(m.atom_set(), vec![aid(0, 5)]);
        assert!(m.link_set().is_empty());
        assert_eq!(m.atoms_at(1), &[] as &[AtomId]);
    }

    #[test]
    fn map_atoms_preserves_grouping() {
        let m = sample_molecule();
        // shift every slot by 10
        let m2 = m.map_atoms(|a| AtomId::new(a.ty, a.slot + 10));
        assert_eq!(m2.root, aid(0, 10));
        assert_eq!(m2.atoms_at(1), &[aid(1, 10), aid(1, 11)]);
        assert_eq!(m2.links_at(0)[0], (aid(0, 10), aid(1, 10)));
    }

    #[test]
    fn shared_atoms_across_molecules() {
        let (_, md) = two_node_structure();
        let shared_area = aid(1, 7);
        let m1 = Molecule {
            root: aid(0, 0),
            atoms: vec![vec![aid(0, 0)], vec![shared_area]],
            links: vec![vec![(aid(0, 0), shared_area)]],
        };
        let m2 = Molecule {
            root: aid(0, 1),
            atoms: vec![vec![aid(0, 1)], vec![shared_area, aid(1, 8)]],
            links: vec![vec![(aid(0, 1), shared_area), (aid(0, 1), aid(1, 8))]],
        };
        let mt = MoleculeType {
            name: "t".into(),
            structure: md,
            molecules: vec![m1, m2],
        };
        let shared = mt.shared_atoms();
        assert_eq!(shared.len(), 1);
        assert_eq!(mt.shared_atom_count(), 1);
        assert_eq!(shared[0].0, shared_area);
        assert_eq!(shared[0].1, vec![aid(0, 0), aid(0, 1)]);
        assert_eq!(mt.distinct_atoms(), 4);
        assert_eq!(mt.total_atom_occurrences(), 5);
    }

    #[test]
    fn render_tree_marks_back_references() {
        let (mut db, md) = two_node_structure();
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let s = db.insert_atom(state, vec![Value::from("SP")]).unwrap();
        let a = db.insert_atom(area, vec![Value::from(1)]).unwrap();
        let m = Molecule {
            root: s,
            atoms: vec![vec![s], vec![a]],
            links: vec![vec![(s, a)]],
        };
        let t = m.render_tree(&db, &md);
        assert!(t.contains("state"));
        assert!(t.contains("'SP'"));
        assert!(t.contains("area"));
        // a diamond that revisits the same atom prints a ^ref
        let m2 = Molecule {
            root: s,
            atoms: vec![vec![s], vec![a]],
            links: vec![vec![(s, a), (s, a)]],
        };
        let t2 = m2.render_tree(&db, &md);
        assert_eq!(t2.matches("'SP'").count(), 1);
    }

    #[test]
    fn molecule_with_root_lookup() {
        let (_, md) = two_node_structure();
        let mt = MoleculeType {
            name: "t".into(),
            structure: md,
            molecules: vec![Molecule::single(aid(0, 3), 2, 1, 0)],
        };
        assert!(mt.molecule_with_root(aid(0, 3)).is_some());
        assert!(mt.molecule_with_root(aid(0, 4)).is_none());
        assert_eq!(mt.len(), 1);
        assert!(!mt.is_empty());
    }
}
