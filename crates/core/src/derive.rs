//! Molecule derivation: the function `m_dom` of Def. 6.
//!
//! "For each atom of the root atom type one molecule is derived following
//! all links determined by the link types of the molecule structure to the
//! children, grandchildren atoms etc. till the leaves are reached" (§2).
//! Because a molecule structure is a DAG, the recursive `contained`
//! predicate can be evaluated exactly by processing nodes in topological
//! order: an atom is contained at node `n` iff **for every** incoming
//! structure edge there **exists** a contained parent linked to it (the
//! ∀/∃ nesting of Def. 6). The `total` predicate — maximality — holds by
//! construction, since every qualifying atom is taken.
//!
//! The engine is [`Strategy::Bitset`]: per-node atom sets are dense
//! slot-indexed [`BitSet`]s, frontiers expand in batch over the frozen
//! [`CsrSnapshot`] adjacency, and the ∀-intersection over incoming edges
//! is a word-wise `AND`. [`derive_bitset_pruned`] additionally accepts
//! per-node qualification bitsets for restriction pushdown at every
//! structure node (benchmark B4).
//!
//! [`Strategy::PerRoot`] — one depth-first hierarchical join per root over
//! the hash-map [`mad_storage::LinkStore`] adjacency ([`derive_one`]) — is
//! the reference the engine is checked against (property tests) and
//! compared with (benchmark B3).

use crate::molecule::Molecule;
use crate::structure::MoleculeStructure;
use mad_model::{AtomId, BitSet, MadError, Result};
use mad_storage::database::Direction;
use mad_storage::{CsrSnapshot, Database};

/// Derivation strategy (see module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Frontier-bitset evaluation over the CSR adjacency snapshot.
    #[default]
    Bitset,
    /// One traversal per root atom: the reference implementation.
    PerRoot,
}

/// Options for [`derive_molecules`].
#[derive(Clone, Debug, Default)]
pub struct DeriveOptions {
    /// How to evaluate.
    pub strategy: Strategy,
    /// Restrict derivation to these roots (restriction pushdown, benchmark
    /// B4); `None` derives one molecule per atom of the root type.
    pub roots: Option<Vec<AtomId>>,
}

impl DeriveOptions {
    /// Default options with a given strategy.
    pub fn with_strategy(strategy: Strategy) -> Self {
        DeriveOptions {
            strategy,
            ..Default::default()
        }
    }
}

fn intersect_sorted(a: &[AtomId], b: &[AtomId]) -> Vec<AtomId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Derive the single molecule rooted at `root` (must be an atom of the
/// structure's root atom type).
pub fn derive_one(db: &Database, md: &MoleculeStructure, root: AtomId) -> Result<Molecule> {
    if root.ty != md.root_node().ty {
        return Err(MadError::structure(format!(
            "root atom {root} is not of the root atom type of the structure"
        )));
    }
    let n = md.node_count();
    let mut atoms: Vec<Vec<AtomId>> = vec![Vec::new(); n];
    atoms[md.root()] = vec![root];
    for &node in &md.topo_order()[1..] {
        let mut candidate: Option<Vec<AtomId>> = None;
        for &ei in md.incoming(node) {
            let e = &md.edges()[ei];
            let mut reached: Vec<AtomId> = Vec::new();
            for &p in &atoms[e.from] {
                db.for_each_partner(e.link, p, e.dir, |c| reached.push(c));
            }
            reached.sort_unstable();
            reached.dedup();
            candidate = Some(match candidate {
                None => reached,
                Some(prev) => intersect_sorted(&prev, &reached),
            });
            if candidate.as_ref().is_some_and(Vec::is_empty) {
                break; // no atom can satisfy the remaining edges either
            }
        }
        atoms[node] = candidate.unwrap_or_default();
    }
    let links = collect_links(db, md, &atoms);
    Ok(Molecule { root, atoms, links })
}

fn collect_links(
    db: &Database,
    md: &MoleculeStructure,
    atoms: &[Vec<AtomId>],
) -> Vec<Vec<(AtomId, AtomId)>> {
    let mut links: Vec<Vec<(AtomId, AtomId)>> = vec![Vec::new(); md.edge_count()];
    for (ei, e) in md.edges().iter().enumerate() {
        let targets = &atoms[e.to];
        for &p in &atoms[e.from] {
            db.for_each_partner(e.link, p, e.dir, |c| {
                if targets.binary_search(&c).is_ok() {
                    links[ei].push((p, c));
                }
            });
        }
        links[ei].sort_unstable();
        links[ei].dedup();
    }
    links
}

fn root_atoms(db: &Database, md: &MoleculeStructure, opts: &DeriveOptions) -> Result<Vec<AtomId>> {
    match &opts.roots {
        Some(roots) => {
            validate_roots(db, md, roots)?;
            Ok(roots.clone())
        }
        None => Ok(db.atom_ids_of(md.root_node().ty)),
    }
}

/// Derive the molecule set of `md` (one molecule per root atom), using the
/// requested strategy. Molecules are returned in root order.
pub fn derive_molecules(
    db: &Database,
    md: &MoleculeStructure,
    opts: &DeriveOptions,
) -> Result<Vec<Molecule>> {
    let roots = root_atoms(db, md, opts)?;
    match opts.strategy {
        Strategy::Bitset => derive_bitset_pruned(db, md, &roots, &[]),
        Strategy::PerRoot => roots.iter().map(|&r| derive_one(db, md, r)).collect(),
    }
}

fn validate_roots(db: &Database, md: &MoleculeStructure, roots: &[AtomId]) -> Result<()> {
    for &r in roots {
        if r.ty != md.root_node().ty {
            return Err(MadError::structure(format!(
                "selected root {r} is not of the root atom type"
            )));
        }
        if !db.atom_exists(r) {
            return Err(MadError::integrity(format!("root atom {r} does not exist")));
        }
    }
    Ok(())
}

/// Frontier-bitset derivation over the CSR snapshot, with optional
/// per-node qualification pushdown.
///
/// `prune[node]`, when present, is the bitset of slots satisfying the
/// simple predicates the planner extracted for that structure node. A
/// molecule whose derived atom set at such a node contains **no** matching
/// atom is omitted from the result — it could never satisfy the
/// qualification's top-level conjunct, so deriving or filtering it further
/// is wasted work. Atom sets of *surviving* molecules are **not** filtered
/// (Def. 6 molecules are maximal w.r.t. the structure alone); callers
/// evaluating a qualification still apply the full formula afterwards.
///
/// With an empty `prune` slice this computes exactly `m_dom` of Def. 6 and
/// agrees with the [`Strategy::PerRoot`] reference (checked by the
/// equivalence property test). Roots are validated like every other derivation entry point:
/// wrong-typed or nonexistent roots are an error, not a fabricated
/// molecule.
pub fn derive_bitset_pruned(
    db: &Database,
    md: &MoleculeStructure,
    roots: &[AtomId],
    prune: &[Option<BitSet>],
) -> Result<Vec<Molecule>> {
    validate_roots(db, md, roots)?;
    let csr = db.csr_snapshot();
    let mut out = Vec::with_capacity(roots.len());
    let root_node = md.root();
    // one reusable bitset per structure node, sized to the node type's slot
    // horizon, plus one scratch set for per-edge expansion; they live across
    // roots, so the reset cost is bounded by each molecule's dirty window
    let mut node_sets: Vec<BitSet> = md
        .nodes()
        .iter()
        .map(|nd| BitSet::with_capacity(csr.slot_count(nd.ty)))
        .collect();
    let mut reached = BitSet::default();
    'roots: for &root in roots {
        for s in &mut node_sets {
            s.clear();
        }
        if let Some(Some(q)) = prune.get(root_node) {
            if !q.contains(root.slot as usize) {
                continue;
            }
        }
        node_sets[root_node].insert(root.slot as usize);
        for &node in &md.topo_order()[1..] {
            let mut first = true;
            for &ei in md.incoming(node) {
                let e = &md.edges()[ei];
                reached.clear();
                csr.expand_frontier(e.link, e.dir, &node_sets[e.from], &mut reached);
                if first {
                    // node_sets[node] is empty: take the expansion wholesale
                    std::mem::swap(&mut node_sets[node], &mut reached);
                    first = false;
                } else {
                    // ∀ incoming edges (Def. 6): word-wise intersection
                    node_sets[node].intersect_with(&reached);
                }
                if node_sets[node].is_empty() {
                    break; // no atom can satisfy the remaining edges either
                }
            }
            if let Some(Some(q)) = prune.get(node) {
                if !node_sets[node].intersects(q) {
                    continue 'roots; // no witness: the molecule cannot qualify
                }
            }
        }
        out.push(assemble_bitset_molecule(&csr, md, root, &node_sets));
    }
    Ok(out)
}

fn assemble_bitset_molecule(
    csr: &CsrSnapshot,
    md: &MoleculeStructure,
    root: AtomId,
    node_sets: &[BitSet],
) -> Molecule {
    let atoms: Vec<Vec<AtomId>> = md
        .nodes()
        .iter()
        .enumerate()
        .map(|(ni, nd)| {
            // ascending slot order == sorted AtomId order within one type
            node_sets[ni]
                .iter()
                .map(|slot| AtomId::new(nd.ty, slot as u32))
                .collect()
        })
        .collect();
    let links: Vec<Vec<(AtomId, AtomId)>> = md
        .edges()
        .iter()
        .map(|e| {
            let from_ty = md.nodes()[e.from].ty;
            let to_ty = md.nodes()[e.to].ty;
            let targets = &node_sets[e.to];
            let mut pairs = Vec::new();
            for p in &node_sets[e.from] {
                csr.for_each_partner(e.link, p as u32, e.dir, |c| {
                    if targets.contains(c as usize) {
                        pairs.push((AtomId::new(from_ty, p as u32), AtomId::new(to_ty, c)));
                    }
                });
            }
            // ascending (p, c) generation keeps pairs sorted and unique
            pairs
        })
        .collect();
    Molecule { root, atoms, links }
}

/// The `mv_graph(m, md)` predicate of Def. 6 plus the `total` predicate:
/// verify that `m` is a *valid, maximal* molecule of `md` over `db`. Used
/// by property tests to check the closure theorems.
pub fn check_molecule(db: &Database, md: &MoleculeStructure, m: &Molecule) -> Result<()> {
    if m.atoms.len() != md.node_count() || m.links.len() != md.edge_count() {
        return Err(MadError::structure("molecule grouping does not match md"));
    }
    // every atom is of its node's type and exists
    for (node, atoms) in m.atoms.iter().enumerate() {
        for &a in atoms {
            if a.ty != md.nodes()[node].ty {
                return Err(MadError::structure(format!(
                    "atom {a} has wrong type for node `{}`",
                    md.nodes()[node].alias
                )));
            }
            if !db.atom_exists(a) {
                return Err(MadError::integrity(format!("atom {a} does not exist")));
            }
        }
    }
    // every link exists in the database with the edge's orientation
    for (ei, links) in m.links.iter().enumerate() {
        let e = &md.edges()[ei];
        for &(p, c) in links {
            let present = match e.dir {
                Direction::Fwd => db.linked(e.link, p, c),
                Direction::Bwd => db.linked(e.link, c, p),
                Direction::Sym => db.linked_sym(e.link, p, c),
            };
            if !present {
                return Err(MadError::integrity(format!(
                    "molecule link ({p}, {c}) is not in the database"
                )));
            }
        }
    }
    // totality/maximality: the molecule must equal its re-derivation
    let fresh = derive_one(db, md, m.root)?;
    if &fresh != m {
        return Err(MadError::structure(format!(
            "molecule rooted at {} is not total (maximal) w.r.t. md",
            m.root
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{path, StructureBuilder};
    use mad_model::{AttrType, SchemaBuilder, Value};

    /// A small Fig.-2-like database:
    ///   states SP, MG; rivers Parana
    ///   areas a1 (SP), a2 (MG); net n1 (Parana)
    ///   edges e1 (a1), e2 (a1 & a2 & n1  — shared!), e3 (a2)
    ///   points p1 (e1,e2), p2 (e2,e3)
    fn mini_geo() -> Database {
        let schema = SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text)])
            .atom_type("river", &[("rname", AttrType::Text)])
            .atom_type("area", &[("aid", AttrType::Int)])
            .atom_type("net", &[("nid", AttrType::Int)])
            .atom_type("edge", &[("eid", AttrType::Int)])
            .atom_type("point", &[("pname", AttrType::Text)])
            .link_type("state-area", "state", "area")
            .link_type("river-net", "river", "net")
            .link_type("area-edge", "area", "edge")
            .link_type("net-edge", "net", "edge")
            .link_type("edge-point", "edge", "point")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let ty = |n: &str| db.schema().atom_type_id(n).unwrap();
        let lt = |db: &Database, n: &str| db.schema().link_type_id(n).unwrap();
        let (state, river, area, net, edge, point) = (
            ty("state"),
            ty("river"),
            ty("area"),
            ty("net"),
            ty("edge"),
            ty("point"),
        );
        let sp = db.insert_atom(state, vec![Value::from("SP")]).unwrap();
        let mg = db.insert_atom(state, vec![Value::from("MG")]).unwrap();
        let parana = db.insert_atom(river, vec![Value::from("Parana")]).unwrap();
        let a1 = db.insert_atom(area, vec![Value::from(1)]).unwrap();
        let a2 = db.insert_atom(area, vec![Value::from(2)]).unwrap();
        let n1 = db.insert_atom(net, vec![Value::from(1)]).unwrap();
        let e1 = db.insert_atom(edge, vec![Value::from(1)]).unwrap();
        let e2 = db.insert_atom(edge, vec![Value::from(2)]).unwrap();
        let e3 = db.insert_atom(edge, vec![Value::from(3)]).unwrap();
        let p1 = db.insert_atom(point, vec![Value::from("p1")]).unwrap();
        let p2 = db.insert_atom(point, vec![Value::from("p2")]).unwrap();
        let sa = lt(&db, "state-area");
        let rn = lt(&db, "river-net");
        let ae = lt(&db, "area-edge");
        let ne = lt(&db, "net-edge");
        let ep = lt(&db, "edge-point");
        db.connect(sa, sp, a1).unwrap();
        db.connect(sa, mg, a2).unwrap();
        db.connect(rn, parana, n1).unwrap();
        db.connect(ae, a1, e1).unwrap();
        db.connect(ae, a1, e2).unwrap();
        db.connect(ae, a2, e2).unwrap();
        db.connect(ae, a2, e3).unwrap();
        db.connect(ne, n1, e2).unwrap();
        db.connect(ep, e1, p1).unwrap();
        db.connect(ep, e2, p1).unwrap();
        db.connect(ep, e2, p2).unwrap();
        db.connect(ep, e3, p2).unwrap();
        db
    }

    fn mt_state_structure(db: &Database) -> MoleculeStructure {
        path(db.schema(), &["state", "area", "edge", "point"]).unwrap()
    }

    #[test]
    fn derive_one_mt_state() {
        let db = mini_geo();
        let md = mt_state_structure(&db);
        let state = db.schema().atom_type_id("state").unwrap();
        let sp = AtomId::new(state, 0);
        let m = derive_one(&db, &md, sp).unwrap();
        assert_eq!(m.root, sp);
        assert_eq!(m.atoms_at(0).len(), 1);
        assert_eq!(m.atoms_at(1).len(), 1, "area a1");
        assert_eq!(m.atoms_at(2).len(), 2, "edges e1, e2");
        assert_eq!(m.atoms_at(3).len(), 2, "points p1, p2");
    }

    #[test]
    fn link_counts_in_mt_state() {
        let db = mini_geo();
        let md = mt_state_structure(&db);
        let state = db.schema().atom_type_id("state").unwrap();
        let sp = AtomId::new(state, 0);
        let m = derive_one(&db, &md, sp).unwrap();
        assert_eq!(m.links_at(0).len(), 1, "sp-a1");
        assert_eq!(m.links_at(1).len(), 2, "a1-e1, a1-e2");
        assert_eq!(m.links_at(2).len(), 3, "e1-p1, e2-p1, e2-p2");
    }

    #[test]
    fn molecules_share_subobjects() {
        let db = mini_geo();
        let md = mt_state_structure(&db);
        let ms = derive_molecules(&db, &md, &DeriveOptions::default()).unwrap();
        assert_eq!(ms.len(), 2, "one molecule per state");
        let edge = db.schema().atom_type_id("edge").unwrap();
        let e2 = AtomId::new(edge, 1);
        assert!(ms[0].contains_atom(e2) && ms[1].contains_atom(e2), "edge e2 is shared");
    }

    #[test]
    fn wrong_root_type_rejected() {
        let db = mini_geo();
        let md = mt_state_structure(&db);
        let area = db.schema().atom_type_id("area").unwrap();
        assert!(derive_one(&db, &md, AtomId::new(area, 0)).is_err());
    }

    #[test]
    fn missing_selected_root_rejected() {
        let db = mini_geo();
        let md = mt_state_structure(&db);
        let state = db.schema().atom_type_id("state").unwrap();
        let opts = DeriveOptions {
            roots: Some(vec![AtomId::new(state, 99)]),
            ..Default::default()
        };
        assert!(derive_molecules(&db, &md, &opts).is_err());
    }

    #[test]
    fn point_neighborhood_symmetric_navigation() {
        // Fig. 2 upper half from the same database, starting at points.
        let db = mini_geo();
        let md = StructureBuilder::new(db.schema())
            .node("point")
            .node("edge")
            .node("area")
            .node("state")
            .node("net")
            .node("river")
            .edge("point", "edge")
            .edge("edge", "area")
            .edge("area", "state")
            .edge("edge", "net")
            .edge("net", "river")
            .build()
            .unwrap();
        let point = db.schema().atom_type_id("point").unwrap();
        let p1 = AtomId::new(point, 0);
        let m = derive_one(&db, &md, p1).unwrap();
        // p1 touches e1, e2 → areas a1, a2 → states SP, MG; net n1 → Parana
        assert_eq!(m.atoms_at(1).len(), 2);
        assert_eq!(m.atoms_at(2).len(), 2);
        assert_eq!(m.atoms_at(3).len(), 2);
        assert_eq!(m.atoms_at(4).len(), 1);
        assert_eq!(m.atoms_at(5).len(), 1);
    }

    #[test]
    fn multi_incoming_edge_requires_all_parents() {
        // Diamond r→b→d, r→c→d: Def. 6's ∀/∃ nesting means a `d` atom is
        // contained only if it has a contained parent through BOTH
        // incoming edges.
        let schema = SchemaBuilder::new()
            .atom_type("r", &[("x", AttrType::Int)])
            .atom_type("b", &[("x", AttrType::Int)])
            .atom_type("c", &[("x", AttrType::Int)])
            .atom_type("d", &[("x", AttrType::Int)])
            .link_type("rb", "r", "b")
            .link_type("rc", "r", "c")
            .link_type("bd", "b", "d")
            .link_type("cd", "c", "d")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let ty = |db: &Database, n: &str| db.schema().atom_type_id(n).unwrap();
        let lt = |db: &Database, n: &str| db.schema().link_type_id(n).unwrap();
        let (r, b, c, d) = (ty(&db, "r"), ty(&db, "b"), ty(&db, "c"), ty(&db, "d"));
        let r1 = db.insert_atom(r, vec![Value::from(1)]).unwrap();
        let b1 = db.insert_atom(b, vec![Value::from(1)]).unwrap();
        let c1 = db.insert_atom(c, vec![Value::from(1)]).unwrap();
        let d1 = db.insert_atom(d, vec![Value::from(1)]).unwrap();
        let d2 = db.insert_atom(d, vec![Value::from(2)]).unwrap();
        db.connect(lt(&db, "rb"), r1, b1).unwrap();
        db.connect(lt(&db, "rc"), r1, c1).unwrap();
        // d1 reached from BOTH b1 and c1; d2 only from b1
        db.connect(lt(&db, "bd"), b1, d1).unwrap();
        db.connect(lt(&db, "cd"), c1, d1).unwrap();
        db.connect(lt(&db, "bd"), b1, d2).unwrap();
        let md = StructureBuilder::new(db.schema())
            .node("r")
            .node("b")
            .node("c")
            .node("d")
            .edge("r", "b")
            .edge("r", "c")
            .edge("b", "d")
            .edge("c", "d")
            .build()
            .unwrap();
        let m = derive_one(&db, &md, r1).unwrap();
        // Def. 6: d must have a contained parent through EVERY incoming
        // edge type: d1 qualifies (b1 and c1), d2 does not (only b1).
        assert_eq!(m.atoms_at(3), &[d1]);
        assert!(!m.contains_atom(d2));
        check_molecule(&db, &md, &m).unwrap();
    }

    #[test]
    fn strategies_agree() {
        let db = mini_geo();
        for md in [
            mt_state_structure(&db),
            path(db.schema(), &["point", "edge", "area", "state"]).unwrap(),
            path(db.schema(), &["river", "net", "edge", "point"]).unwrap(),
        ] {
            let a = derive_molecules(&db, &md, &DeriveOptions::with_strategy(Strategy::PerRoot))
                .unwrap();
            let b = derive_molecules(&db, &md, &DeriveOptions::with_strategy(Strategy::Bitset))
                .unwrap();
            assert_eq!(a, b, "Bitset diverged from PerRoot");
        }
    }

    #[test]
    fn selected_roots_limit_derivation() {
        let db = mini_geo();
        let md = mt_state_structure(&db);
        let state = db.schema().atom_type_id("state").unwrap();
        let mg = AtomId::new(state, 1);
        let opts = DeriveOptions {
            roots: Some(vec![mg]),
            ..Default::default()
        };
        let ms = derive_molecules(&db, &md, &opts).unwrap();
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].root, mg);
    }

    #[test]
    fn molecule_with_no_children_is_just_root() {
        let db = mini_geo();
        // a state with no area links
        let mut db = db;
        let state = db.schema().atom_type_id("state").unwrap();
        let lonely = db.insert_atom(state, vec![Value::from("AC")]).unwrap();
        let md = mt_state_structure(&db);
        let m = derive_one(&db, &md, lonely).unwrap();
        assert_eq!(m.atom_set(), vec![lonely]);
        assert!(m.link_set().is_empty());
        check_molecule(&db, &md, &m).unwrap();
    }

    #[test]
    fn check_molecule_rejects_tampering() {
        let db = mini_geo();
        let md = mt_state_structure(&db);
        let state = db.schema().atom_type_id("state").unwrap();
        let sp = AtomId::new(state, 0);
        let good = derive_one(&db, &md, sp).unwrap();
        check_molecule(&db, &md, &good).unwrap();
        // drop an atom: no longer total
        let mut bad = good.clone();
        bad.atoms[3].pop();
        assert!(check_molecule(&db, &md, &bad).is_err());
        // fabricate a link that is not in the database
        let mut bad = good.clone();
        let edge = db.schema().atom_type_id("edge").unwrap();
        let point = db.schema().atom_type_id("point").unwrap();
        bad.links[2].push((AtomId::new(edge, 2), AtomId::new(point, 0)));
        assert!(check_molecule(&db, &md, &bad).is_err());
        // wrong node type grouping
        let mut bad = good;
        bad.atoms[1] = vec![AtomId::new(point, 0)];
        assert!(check_molecule(&db, &md, &bad).is_err());
    }

    #[test]
    fn reflexive_directed_derivation() {
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
        let bolt = db.insert_atom(parts, vec![Value::from(3)]).unwrap();
        db.connect(comp, engine, piston).unwrap();
        db.connect(comp, piston, bolt).unwrap();
        // one-level sub-component view: super -> sub
        let md = StructureBuilder::new(db.schema())
            .node_as("super", "parts")
            .node_as("sub", "parts")
            .edge_directed("composition", "super", "sub", Direction::Fwd)
            .build()
            .unwrap();
        let m = derive_one(&db, &md, engine).unwrap();
        assert_eq!(m.atoms_at(1), &[piston]);
        // super-component view from piston
        let md_up = StructureBuilder::new(db.schema())
            .node_as("part", "parts")
            .node_as("used_in", "parts")
            .edge_directed("composition", "part", "used_in", Direction::Bwd)
            .build()
            .unwrap();
        let m = derive_one(&db, &md_up, piston).unwrap();
        assert_eq!(m.atoms_at(1), &[engine]);
    }

    #[test]
    fn empty_database_empty_set() {
        let schema = SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text)])
            .atom_type("area", &[("aid", AttrType::Int)])
            .link_type("state-area", "state", "area")
            .build()
            .unwrap();
        let db = Database::new(schema);
        let md = path(db.schema(), &["state", "area"]).unwrap();
        for strat in [Strategy::Bitset, Strategy::PerRoot] {
            let ms = derive_molecules(&db, &md, &DeriveOptions::with_strategy(strat)).unwrap();
            assert!(ms.is_empty());
        }
    }
}
