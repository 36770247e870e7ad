//! The molecule algebra (Def. 8–10, Theorems 2–3).
//!
//! [`Engine`] couples a [`Database`] with the copy-[`Provenance`] that the
//! propagation function `prop` needs, and exposes the operators:
//!
//! * **α** — molecule-type definition ([`Engine::define`], Def. 8),
//! * **Σ** — molecule-type restriction ([`Engine::restrict`], Def. 10),
//! * **Π** — molecule-type projection ([`Engine::project`]),
//! * **X** — molecule-type cartesian product ([`Engine::product`]),
//! * **Ω** — molecule-type union ([`Engine::union`]),
//! * **Δ** — molecule-type difference ([`Engine::difference`]),
//! * **Ψ** — intersection, defined — exactly as in §3.2 — as
//!   `Δ(mt1, Δ(mt1, mt2))` ([`Engine::intersection`]).
//!
//! Every operator follows the Fig. 5 pipeline: an operation-specific action
//! produces a *result set* (structure + molecules, expressed over canonical
//! base atoms), `prop` materializes it into the
//! enlarged database DB′ as renamed atom types and inherited link types
//! (Def. 9), and the closing molecule-type definition yields the result.
//! Theorems 2–3 — every operator output is a valid molecule type over DB′ —
//! are checked *experimentally* by [`Engine::verify_closure`], which
//! re-derives `m_dom(md)` over DB′ and compares.
//!
//! ### Projection caveat (reconstructed from \[Mi88a\])
//!
//! Π removes structure nodes (and, optionally, attributes). The kept node
//! set must be *predecessor-closed*: every kept node keeps all its incoming
//! edges. Dropping one incoming edge of a kept diamond node would change
//! which atoms the ∀/∃ containment of Def. 6 admits, so the projected
//! molecules would no longer be total over the projected description — the
//! exact correspondence Def. 9 promises would break. Branch pruning (the
//! SELECT-clause use case of §4) always satisfies the rule.

use crate::derive::{
    derive_bitset_pruned, derive_molecules, derive_one, DeriveOptions, Strategy,
};
use crate::molecule::{Molecule, MoleculeType};
use crate::provenance::Provenance;
use crate::qual::{NodeConjunct, QualExpr};
use crate::structure::{finalize, MoleculeStructure, MsEdge, MsNode};
use crate::trace::{OpTrace, Stage, TraceLog};
use mad_model::{
    AtomId, AtomTypeDef, AttrDef, AttrType, BitSet, FxHashMap, LinkTypeDef, MadError, Result,
    Schema, Value,
};
use mad_storage::database::Direction;
use mad_storage::Database;

/// The pushed conjuncts of one structure node.
#[derive(Clone, Debug)]
pub struct NodePushdown {
    /// The structure node the conjuncts restrict.
    pub node: usize,
    /// The pushed conjuncts, each evaluated by a scan of the node's
    /// atom-type occurrence.
    pub conjuncts: Vec<NodeConjunct>,
}

/// The qualification-pushdown plan for one derivation: per-node candidate
/// bitsets (`prune[n]`) plus the per-node conjunct report EXPLAIN renders.
#[derive(Clone, Debug, Default)]
pub struct PushdownPlan {
    /// Per structure node: the slots satisfying all pushed conjuncts of the
    /// node (`None` when nothing was pushable there).
    pub prune: Vec<Option<BitSet>>,
    /// Report entries, one per node with pushed conjuncts.
    pub nodes: Vec<NodePushdown>,
}

/// Group the pushable conjuncts of `qual` per structure node, without
/// materializing any candidate bitset. EXPLAIN consumes this directly;
/// [`plan_pushdown`] builds the bitsets on top of it, so report and
/// execution can never disagree. Conjuncts with out-of-range node or
/// attribute references (possible when the qualification was never
/// validated against `md`) are skipped rather than panicking.
pub(crate) fn classify_pushdown(
    db: &Database,
    md: &MoleculeStructure,
    qual: &QualExpr,
) -> Vec<NodePushdown> {
    let mut nodes: Vec<NodePushdown> = Vec::new();
    for c in qual.node_conjuncts() {
        let Some(node) = md.nodes().get(c.node) else {
            continue;
        };
        if db.schema().atom_type(node.ty).attrs.get(c.attr).is_none() {
            continue;
        }
        match nodes.iter_mut().find(|n| n.node == c.node) {
            Some(entry) => entry.conjuncts.push(c),
            None => nodes.push(NodePushdown {
                node: c.node,
                conjuncts: vec![c],
            }),
        }
    }
    nodes
}

/// Extract the top-level `node.attr op const` conjuncts of `qual` and
/// evaluate each into a slot bitset by one typed scan of the occurrence
/// ([`Database::slots_where`]). This is restriction pushdown (benchmark
/// B4) generalized from the root to *every* structure node;
/// `derive_bitset_pruned` consumes the result.
pub fn plan_pushdown(db: &Database, md: &MoleculeStructure, qual: &QualExpr) -> PushdownPlan {
    let nodes = classify_pushdown(db, md, qual);
    let mut prune: Vec<Option<BitSet>> = vec![None; md.node_count()];
    for entry in &nodes {
        let ty = md.nodes()[entry.node].ty;
        for c in &entry.conjuncts {
            let bits: BitSet = db
                .slots_where(ty, c.attr, c.op, &c.value)
                .into_iter()
                .map(|slot| slot as usize)
                .collect();
            match &mut prune[entry.node] {
                slot @ None => *slot = Some(bits),
                Some(prev) => prev.intersect_with(&bits),
            }
        }
    }
    PushdownPlan { prune, nodes }
}

/// Restriction pushdown without propagation: the molecules of `md` over
/// `db` that qualify under `qual`, derived from the pushdown candidates
/// (see [`Engine::define_restricted`]). Pure — `db` is only read, which
/// is how MQL evaluates a SELECT.
pub fn evaluate_restricted(
    db: &Database,
    md: &MoleculeStructure,
    qual: &QualExpr,
    strategy: Strategy,
) -> Result<Vec<Molecule>> {
    qual.validate(md, db.schema())?;
    Ok(pushdown_candidates(db, md, qual, strategy)?
        .into_iter()
        .filter(|m| qual.qualifies(db, m))
        .collect())
}

/// Candidate molecules under restriction pushdown.
///
/// * [`Strategy::Bitset`]: the generalized plan — per-node conjunct
///   bitsets prune molecules *during* traversal (and the root bitset
///   pre-selects the root set), see [`plan_pushdown`].
/// * [`Strategy::PerRoot`]: the classic root-only preselection
///   ([`preselect_roots`]) followed by a full derivation.
///
/// Either way the caller still applies the complete formula, so both
/// paths return the same final molecule set.
fn pushdown_candidates(
    db: &Database,
    md: &MoleculeStructure,
    qual: &QualExpr,
    strategy: Strategy,
) -> Result<Vec<Molecule>> {
    match strategy {
        Strategy::Bitset => {
            let plan = plan_pushdown(db, md, qual);
            let root_ty = md.root_node().ty;
            let roots: Vec<AtomId> = match &plan.prune[md.root()] {
                Some(q) => q.iter().map(|slot| AtomId::new(root_ty, slot as u32)).collect(),
                None => db.atom_ids_of(root_ty),
            };
            derive_bitset_pruned(db, md, &roots, &plan.prune)
        }
        Strategy::PerRoot => {
            let roots = preselect_roots(db, md, qual);
            let opts = DeriveOptions { strategy, roots };
            derive_molecules(db, md, &opts)
        }
    }
}

/// Root pre-selection for pushdown: evaluate the root-level `attr op
/// const` conjuncts of `qual` by scanning the root occurrence once per
/// conjunct and intersecting the slot lists. Returns `None` when no
/// conjunct exists (full derivation required).
fn preselect_roots(db: &Database, md: &MoleculeStructure, qual: &QualExpr) -> Option<Vec<AtomId>> {
    let root_ty = md.root_node().ty;
    let mut slots: Option<Vec<u32>> = None;
    for (attr, op, value) in qual.root_conjuncts(md.root()) {
        let hits = db.slots_where(root_ty, attr, op, &value);
        // `hits` is in slot order, so membership is a binary search
        slots = Some(match slots {
            None => hits,
            Some(prev) => prev.into_iter().filter(|s| hits.binary_search(s).is_ok()).collect(),
        });
    }
    slots.map(|slots| slots.into_iter().map(|slot| AtomId::new(root_ty, slot)).collect())
}

/// The copy propagation made of atom `a` at node `ni`.
fn copy_of(atom_maps: &[FxHashMap<AtomId, AtomId>], ni: usize, a: AtomId) -> Result<AtomId> {
    atom_maps.get(ni).and_then(|m| m.get(&a)).copied().ok_or_else(|| MadError::IntegrityViolation {
        detail: format!("propagation made no copy of atom {a} at node {ni}"),
    })
}

/// The pure half of Π: prune `mt` to the aliases in `keep` (which must
/// contain the root and be predecessor-closed — see the module docs) and
/// record the attribute projection (`attr_projection` maps an alias to
/// the attribute names to show) in [`MoleculeType::attrs`]. Nothing is
/// written: the result names the atoms and types of `mt`, over the image
/// `schema` describes. [`Engine::project`] propagates it into DB′.
pub fn project_set(
    schema: &Schema,
    mt: &MoleculeType,
    keep: &[&str],
    attr_projection: &[(&str, Vec<&str>)],
) -> Result<MoleculeType> {
    let md = &mt.structure;
    let mut keep_idx: Vec<usize> = Vec::with_capacity(keep.len());
    for alias in keep {
        let idx = md
            .node_by_alias(alias)
            .ok_or_else(|| MadError::unknown("structure node", *alias))?;
        if keep_idx.contains(&idx) {
            return Err(MadError::duplicate("projection node", *alias));
        }
        keep_idx.push(idx);
    }
    if !keep_idx.contains(&md.root()) {
        return Err(MadError::IncompatibleOperands {
            op: "Π",
            detail: "the root node cannot be projected away".into(),
        });
    }
    // predecessor closure check
    for &k in &keep_idx {
        for &ei in md.incoming(k) {
            let from = md.edges()[ei].from;
            if !keep_idx.contains(&from) {
                return Err(MadError::IncompatibleOperands {
                    op: "Π",
                    detail: format!(
                        "node `{}` is kept but its predecessor `{}` is not; \
                         only whole branches can be pruned",
                        md.nodes()[k].alias,
                        md.nodes()[from].alias
                    ),
                });
            }
        }
    }
    keep_idx.sort_unstable();
    // old node index → new node index
    let remap: FxHashMap<usize, usize> = keep_idx
        .iter()
        .enumerate()
        .map(|(new, &old)| (old, new))
        .collect();
    let new_nodes: Vec<MsNode> = keep_idx.iter().map(|&i| md.nodes()[i].clone()).collect();
    let mut kept_edges: Vec<usize> = Vec::new();
    let mut new_edges: Vec<MsEdge> = Vec::new();
    for (ei, e) in md.edges().iter().enumerate() {
        if let (Some(&f), Some(&t)) = (remap.get(&e.from), remap.get(&e.to)) {
            kept_edges.push(ei);
            new_edges.push(MsEdge {
                link: e.link,
                from: f,
                to: t,
                dir: e.dir,
            });
        }
    }
    let structure = finalize(new_nodes, new_edges)?;
    // attribute projection per new node, over the positions the operand
    // shows
    let mut attrs: Vec<Option<Vec<usize>>> = keep_idx
        .iter()
        .map(|&i| mt.attrs.get(i).cloned().flatten())
        .collect();
    for (alias, names) in attr_projection {
        let old = md
            .node_by_alias(alias)
            .ok_or_else(|| MadError::unknown("structure node", *alias))?;
        let new = *remap.get(&old).ok_or_else(|| MadError::IncompatibleOperands {
            op: "Π",
            detail: format!("attribute projection on pruned node `{alias}`"),
        })?;
        let def = schema.atom_type(md.nodes()[old].ty);
        let shown = &mut attrs[new];
        let positions = names
            .iter()
            .map(|n| {
                def.attr_index(n)
                    .filter(|p| shown.as_ref().is_none_or(|s| s.contains(p)))
                    .ok_or_else(|| MadError::unknown("attribute", format!("{n} of `{}`", def.name)))
            })
            .collect::<Result<Vec<usize>>>()?;
        *shown = Some(positions);
    }
    let molecules: Vec<Molecule> = mt
        .molecules
        .iter()
        .map(|m| Molecule {
            root: m.root,
            atoms: keep_idx.iter().map(|&i| m.atoms[i].clone()).collect(),
            links: kept_edges.iter().map(|&e| m.links[e].clone()).collect(),
        })
        .collect();
    Ok(MoleculeType {
        name: format!("{}_proj", mt.name),
        structure,
        molecules,
        attrs,
    })
}

/// The molecule-algebra engine: database + provenance + optional tracing.
///
/// Operators enlarge the database into DB′ (Def. 9) so that a result can
/// be the operand of a later operator; DB′ accumulates for the engine's
/// lifetime, as the closure theorems need. MQL does not run on an engine:
/// a SELECT is evaluated without propagation ([`evaluate_restricted`],
/// [`project_set`]) over the image it reads.
#[derive(Debug, Default)]
pub struct Engine {
    db: Database,
    prov: Provenance,
    tracing: bool,
    trace_log: TraceLog,
}

impl AsRef<Database> for Engine {
    fn as_ref(&self) -> &Database {
        &self.db
    }
}

impl Engine {
    /// Wrap a database.
    pub fn new(db: Database) -> Self {
        Engine {
            db,
            prov: Provenance::new(),
            tracing: false,
            trace_log: TraceLog::new(),
        }
    }

    /// The underlying database: the base image plus the derived types the
    /// operators propagated into it (DB′).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access, for loading data, DML and DDL.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The provenance registry.
    pub fn provenance(&self) -> &Provenance {
        &self.prov
    }

    /// Enable Fig.-5-style stage tracing.
    pub fn enable_tracing(&mut self) {
        self.tracing = true;
    }

    /// Recorded operator traces.
    pub fn trace_log(&self) -> &TraceLog {
        &self.trace_log
    }

    fn record(&mut self, trace: OpTrace) {
        if self.tracing {
            self.trace_log.ops.push(trace);
        }
    }

    /// A [`Stage::Derivation`] describing how the last derivation over
    /// the engine's database evaluated: strategy, snapshot reuse vs CSR
    /// re-freeze, and how many root slots it visited.
    fn derivation_stage(&self, opts: &DeriveOptions, derived: usize) -> Stage {
        let (csr_rebuilt, csr_pairs) = self.db.csr_rebuild_stats().unwrap_or((0, 0));
        Stage::Derivation {
            strategy: format!("{:?}", opts.strategy),
            csr_rebuilt,
            csr_pairs,
            roots: opts.roots.as_ref().map_or(derived, Vec::len),
        }
    }

    // ------------------------------------------------------------------
    // α — molecule-type definition (Def. 8)
    // ------------------------------------------------------------------

    /// `α[mname, G](C)`: derive the molecule type of `md` over the current
    /// database.
    pub fn define(&mut self, name: &str, md: MoleculeStructure) -> Result<MoleculeType> {
        self.define_with(name, md, &DeriveOptions::default())
    }

    /// [`Engine::define`] with explicit derivation options (strategy,
    /// pre-selected roots).
    pub fn define_with(
        &mut self,
        name: &str,
        md: MoleculeStructure,
        opts: &DeriveOptions,
    ) -> Result<MoleculeType> {
        let molecules = derive_molecules(&self.db, &md, opts)?;
        let mut trace = OpTrace::new("α");
        trace.push(self.derivation_stage(opts, molecules.len()));
        trace.push(Stage::Alpha {
            name: name.to_owned(),
            molecules: molecules.len(),
        });
        self.record(trace);
        Ok(MoleculeType {
            name: name.to_owned(),
            structure: md,
            molecules,
            attrs: Vec::new(),
        })
    }

    // ------------------------------------------------------------------
    // Σ — molecule-type restriction (Def. 10)
    // ------------------------------------------------------------------

    /// `Σ[restr(md)](mt)`: keep the molecules qualifying under `qual`,
    /// propagate, and re-define over DB′.
    pub fn restrict(&mut self, mt: &MoleculeType, qual: &QualExpr) -> Result<MoleculeType> {
        qual.validate(&mt.structure, self.db.schema())?;
        let kept: Vec<Molecule> = mt
            .molecules
            .iter()
            .filter(|m| qual.qualifies(&self.db, m))
            .cloned()
            .collect();
        let mut trace = OpTrace::new("Σ");
        trace.push(Stage::OpSpecific(format!(
            "qual filter: {} → {} molecules ({})",
            mt.molecules.len(),
            kept.len(),
            qual.render(&mt.structure, self.db.schema())
        )));
        let rst = MoleculeType {
            name: format!("{}_restr", mt.name),
            structure: self.canonical_structure(&mt.structure)?,
            molecules: kept
                .iter()
                .map(|m| m.map_atoms(|a| self.prov.canonical_atom(a)))
                .collect(),
            attrs: Vec::new(),
        };
        self.prop_and_close(rst, trace)
    }

    /// Restriction *pushed into* the definition (the PRIMA evaluation
    /// style, benchmark B4): root-level conjuncts of `qual` pre-select root
    /// atoms (one typed scan of the root type per conjunct) before any
    /// molecule is built; the full formula is then
    /// applied to the derived candidates. Produces the same molecule type
    /// as `Σ[qual](α[name](md))`, minus the intermediate propagation.
    pub fn define_restricted(
        &mut self,
        name: &str,
        md: MoleculeStructure,
        qual: &QualExpr,
        strategy: Strategy,
    ) -> Result<MoleculeType> {
        qual.validate(&md, self.db.schema())?;
        let candidates = pushdown_candidates(&self.db, &md, qual, strategy)?;
        let total = candidates.len();
        let kept: Vec<Molecule> = candidates
            .into_iter()
            .filter(|m| qual.qualifies(&self.db, m))
            .collect();
        let mut trace = OpTrace::new("Σ∘α (pushdown)");
        let (csr_rebuilt, csr_pairs) = self.db.csr_rebuild_stats().unwrap_or((0, 0));
        trace.push(Stage::Derivation {
            strategy: format!("{strategy:?}"),
            csr_rebuilt,
            csr_pairs,
            roots: total,
        });
        trace.push(Stage::OpSpecific(format!(
            "root preselection + qual: {} candidates → {} molecules",
            total,
            kept.len()
        )));
        let rst = MoleculeType {
            name: name.to_owned(),
            structure: self.canonical_structure(&md)?,
            molecules: kept
                .iter()
                .map(|m| m.map_atoms(|a| self.prov.canonical_atom(a)))
                .collect(),
            attrs: Vec::new(),
        };
        self.prop_and_close(rst, trace)
    }

    // ------------------------------------------------------------------
    // Pure evaluation (no propagation) — used by benchmarks and by callers
    // that only need the molecule sets, not a registered molecule type.
    // ------------------------------------------------------------------

    /// Derive the molecule set of `md` without building a molecule type
    /// (pure; the database is not enlarged).
    pub fn evaluate(&self, md: &MoleculeStructure, opts: &DeriveOptions) -> Result<Vec<Molecule>> {
        derive_molecules(&self.db, md, opts)
    }

    /// Pushdown evaluation ([`evaluate_restricted`] over the engine's
    /// database): same molecules as [`Engine::define_restricted`] before
    /// its propagation step.
    pub fn evaluate_restricted(
        &self,
        md: &MoleculeStructure,
        qual: &QualExpr,
        strategy: Strategy,
    ) -> Result<Vec<Molecule>> {
        evaluate_restricted(&self.db, md, qual, strategy)
    }

    /// Naive evaluation: derive the *whole* molecule set, then filter
    /// (the un-pushed Σ∘α baseline of benchmark B4). Pure.
    pub fn evaluate_filtered(
        &self,
        md: &MoleculeStructure,
        qual: &QualExpr,
        strategy: Strategy,
    ) -> Result<Vec<Molecule>> {
        qual.validate(md, self.db.schema())?;
        let opts = DeriveOptions::with_strategy(strategy);
        Ok(derive_molecules(&self.db, md, &opts)?
            .into_iter()
            .filter(|m| qual.qualifies(&self.db, m))
            .collect())
    }

    /// Pure set union of two compatible molecule types (canonical
    /// molecules, deduplicated, sorted by root).
    pub fn union_set(&self, mt1: &MoleculeType, mt2: &MoleculeType) -> Result<Vec<Molecule>> {
        self.check_compatible("Ω", mt1, mt2)?;
        let mut molecules = self.canonical_molecules(mt1);
        for m in self.canonical_molecules(mt2) {
            if !molecules.contains(&m) {
                molecules.push(m);
            }
        }
        molecules.sort_by_key(|m| m.root);
        Ok(molecules)
    }

    /// Pure set difference (canonical molecules of `mt1` absent in `mt2`).
    pub fn difference_set(
        &self,
        mt1: &MoleculeType,
        mt2: &MoleculeType,
    ) -> Result<Vec<Molecule>> {
        self.check_compatible("Δ", mt1, mt2)?;
        let right = self.canonical_molecules(mt2);
        Ok(self
            .canonical_molecules(mt1)
            .into_iter()
            .filter(|m| !right.contains(m))
            .collect())
    }

    /// Pure intersection via double difference (Ψ of §3.2).
    pub fn intersection_set(
        &self,
        mt1: &MoleculeType,
        mt2: &MoleculeType,
    ) -> Result<Vec<Molecule>> {
        let right = self.difference_set(mt1, mt2)?;
        Ok(self
            .canonical_molecules(mt1)
            .into_iter()
            .filter(|m| !right.contains(m))
            .collect())
    }

    // ------------------------------------------------------------------
    // Π — molecule-type projection
    // ------------------------------------------------------------------

    /// `Π[keep](mt)`: [`project_set`] over the canonical form of `mt`,
    /// propagated — the projected attributes become the attributes of the
    /// derived atom types.
    pub fn project(
        &mut self,
        mt: &MoleculeType,
        keep: &[&str],
        attr_projection: &[(&str, Vec<&str>)],
    ) -> Result<MoleculeType> {
        let canon = MoleculeType {
            name: mt.name.clone(),
            structure: self.canonical_structure(&mt.structure)?,
            molecules: self.canonical_molecules(mt),
            attrs: mt.attrs.clone(),
        };
        let rst = project_set(self.db.schema(), &canon, keep, attr_projection)?;
        let mut trace = OpTrace::new("Π");
        trace.push(Stage::OpSpecific(format!(
            "prune {} → {} nodes, {} → {} edges",
            mt.structure.node_count(),
            rst.structure.node_count(),
            mt.structure.edge_count(),
            rst.structure.edge_count()
        )));
        self.prop_and_close(rst, trace)
    }

    // ------------------------------------------------------------------
    // X — molecule-type cartesian product
    // ------------------------------------------------------------------

    /// `X(mt1, mt2)`: pair every molecule of `mt1` with every molecule of
    /// `mt2` under a synthetic pair root (attributes `left`/`right` store
    /// the two original roots), then propagate. The sub-structures keep
    /// their shapes; colliding aliases on the right are renamed.
    pub fn product(
        &mut self,
        mt1: &MoleculeType,
        mt2: &MoleculeType,
        name: &str,
    ) -> Result<MoleculeType> {
        let c1 = self.canonical_structure(&mt1.structure)?;
        let c2 = self.canonical_structure(&mt2.structure)?;
        // op-specific action: create the pair atom type and its two link
        // types in the database (they become part of DB′)
        let pair_name = self
            .db
            .schema()
            .fresh_atom_type_name(&format!("{name}_pair"));
        let pair_ty = self.db.add_atom_type(AtomTypeDef::derived(
            pair_name.clone(),
            vec![
                AttrDef::new("left", AttrType::Id),
                AttrDef::new("right", AttrType::Id),
            ],
            format!("X({}, {})", mt1.name, mt2.name),
        ))?;
        let lp1_name = self
            .db
            .schema()
            .fresh_link_type_name(&format!("{pair_name}-left"));
        let lp1 = self.db.add_link_type(LinkTypeDef::new(
            lp1_name,
            pair_ty,
            c1.root_node().ty,
        ))?;
        let lp2_name = self
            .db
            .schema()
            .fresh_link_type_name(&format!("{pair_name}-right"));
        let lp2 = self.db.add_link_type(LinkTypeDef::new(
            lp2_name,
            pair_ty,
            c2.root_node().ty,
        ))?;
        // combined structure: [pair] ++ c1 ++ c2
        let mut nodes: Vec<MsNode> = Vec::with_capacity(1 + c1.node_count() + c2.node_count());
        nodes.push(MsNode {
            alias: "pair".into(),
            ty: pair_ty,
        });
        let left_names: Vec<String> = c1.nodes().iter().map(|n| n.alias.clone()).collect();
        for n in c1.nodes() {
            nodes.push(n.clone());
        }
        for n in c2.nodes() {
            let mut alias = n.alias.clone();
            while alias == "pair" || left_names.contains(&alias) || nodes.iter().any(|x| x.alias == alias) {
                alias.push('\'');
            }
            nodes.push(MsNode { alias, ty: n.ty });
        }
        let off1 = 1usize;
        let off2 = 1 + c1.node_count();
        let mut edges: Vec<MsEdge> = Vec::new();
        edges.push(MsEdge {
            link: lp1,
            from: 0,
            to: off1 + c1.root(),
            dir: Direction::Fwd,
        });
        edges.push(MsEdge {
            link: lp2,
            from: 0,
            to: off2 + c2.root(),
            dir: Direction::Fwd,
        });
        for e in c1.edges() {
            edges.push(MsEdge {
                link: e.link,
                from: off1 + e.from,
                to: off1 + e.to,
                dir: e.dir,
            });
        }
        for e in c2.edges() {
            edges.push(MsEdge {
                link: e.link,
                from: off2 + e.from,
                to: off2 + e.to,
                dir: e.dir,
            });
        }
        let structure = finalize(nodes, edges)?;
        // pair atoms + combined molecules
        let mut molecules = Vec::with_capacity(mt1.molecules.len() * mt2.molecules.len());
        for m1 in &mt1.molecules {
            let m1 = m1.map_atoms(|a| self.prov.canonical_atom(a));
            for m2 in &mt2.molecules {
                let m2 = m2.map_atoms(|a| self.prov.canonical_atom(a));
                let pair_atom = self.db.insert_atom(
                    pair_ty,
                    vec![Value::Id(m1.root), Value::Id(m2.root)],
                )?;
                self.db.connect(lp1, pair_atom, m1.root)?;
                self.db.connect(lp2, pair_atom, m2.root)?;
                let mut atoms: Vec<Vec<AtomId>> = Vec::with_capacity(structure.node_count());
                atoms.push(vec![pair_atom]);
                atoms.extend(m1.atoms.iter().cloned());
                atoms.extend(m2.atoms.iter().cloned());
                let mut links: Vec<Vec<(AtomId, AtomId)>> =
                    Vec::with_capacity(structure.edge_count());
                links.push(vec![(pair_atom, m1.root)]);
                links.push(vec![(pair_atom, m2.root)]);
                links.extend(m1.links.iter().cloned());
                links.extend(m2.links.iter().cloned());
                molecules.push(Molecule {
                    root: pair_atom,
                    atoms,
                    links,
                });
            }
        }
        let mut trace = OpTrace::new("X");
        trace.push(Stage::OpSpecific(format!(
            "pair construction: {} × {} → {} molecules (pair type `{pair_name}`)",
            mt1.molecules.len(),
            mt2.molecules.len(),
            molecules.len()
        )));
        let rst = MoleculeType {
            name: name.to_owned(),
            structure,
            molecules,
            attrs: Vec::new(),
        };
        self.prop_and_close(rst, trace)
    }

    // ------------------------------------------------------------------
    // Ω / Δ / Ψ
    // ------------------------------------------------------------------

    fn check_compatible(&self, op: &'static str, mt1: &MoleculeType, mt2: &MoleculeType) -> Result<()> {
        let ok = mt1.structure.same_shape_by(
            &mt2.structure,
            |t| self.prov.canonical_type(t),
            |l| self.prov.canonical_link(l, Direction::Fwd).0,
        );
        if ok {
            Ok(())
        } else {
            Err(MadError::IncompatibleOperands {
                op,
                detail: format!(
                    "molecule types `{}` and `{}` have different descriptions",
                    mt1.name, mt2.name
                ),
            })
        }
    }

    fn canonical_molecules(&self, mt: &MoleculeType) -> Vec<Molecule> {
        mt.molecules
            .iter()
            .map(|m| m.map_atoms(|a| self.prov.canonical_atom(a)))
            .collect()
    }

    /// `Ω(mt1, mt2)`: union of the two occurrences (molecules compared by
    /// canonical atom identity). Descriptions must agree.
    pub fn union(&mut self, mt1: &MoleculeType, mt2: &MoleculeType, name: &str) -> Result<MoleculeType> {
        let molecules = self.union_set(mt1, mt2)?;
        let n1 = mt1.molecules.len();
        let n2 = mt2.molecules.len();
        let mut trace = OpTrace::new("Ω");
        trace.push(Stage::OpSpecific(format!(
            "set union: {} ∪ {} → {} molecules",
            n1,
            n2,
            molecules.len()
        )));
        let rst = MoleculeType {
            name: name.to_owned(),
            structure: self.canonical_structure(&mt1.structure)?,
            molecules,
            attrs: Vec::new(),
        };
        self.prop_and_close(rst, trace)
    }

    /// `Δ(mt1, mt2)`: the molecules of `mt1` not present in `mt2`
    /// (canonical identity). Descriptions must agree.
    pub fn difference(
        &mut self,
        mt1: &MoleculeType,
        mt2: &MoleculeType,
        name: &str,
    ) -> Result<MoleculeType> {
        let molecules = self.difference_set(mt1, mt2)?;
        let mut trace = OpTrace::new("Δ");
        trace.push(Stage::OpSpecific(format!(
            "set difference: {} \\ {} → {} molecules",
            mt1.molecules.len(),
            mt2.molecules.len(),
            molecules.len()
        )));
        let rst = MoleculeType {
            name: name.to_owned(),
            structure: self.canonical_structure(&mt1.structure)?,
            molecules,
            attrs: Vec::new(),
        };
        self.prop_and_close(rst, trace)
    }

    /// `Ψ(mt1, mt2) = Δ(mt1, Δ(mt1, mt2))` — the derived intersection of
    /// §3.2, implemented literally to demonstrate the algebra's
    /// compositionality.
    pub fn intersection(
        &mut self,
        mt1: &MoleculeType,
        mt2: &MoleculeType,
        name: &str,
    ) -> Result<MoleculeType> {
        let inner = self.difference(mt1, mt2, &format!("{name}_tmp"))?;
        self.difference(mt1, &inner, name)
    }

    // ------------------------------------------------------------------
    // prop — Def. 9
    // ------------------------------------------------------------------

    /// Propagate a result set `rst = <mname, rsd, rsv>` — the output of
    /// an operation-specific action, over canonical (base) types and atoms
    /// — into the database (Def. 9) and close with the molecule-type
    /// definition (Fig. 5's final stage). `rst.attrs[n]` projects the
    /// copied tuples of node `n` (set by Π).
    fn prop_and_close(&mut self, rst: MoleculeType, mut trace: OpTrace) -> Result<MoleculeType> {
        let md = &rst.structure;
        let n = md.node_count();
        // 1. renamed atom types with restricted occurrences
        let mut new_types = Vec::with_capacity(n);
        let mut atom_maps: Vec<FxHashMap<AtomId, AtomId>> = vec![FxHashMap::default(); n];
        let mut new_type_names = Vec::with_capacity(n);
        let mut atoms_copied = 0usize;
        for (ni, node) in md.nodes().iter().enumerate() {
            let src_def = self.db.schema().atom_type(node.ty).clone();
            let positions: Vec<usize> = match rst.attrs.get(ni).cloned().flatten() {
                Some(shown) => shown,
                None => (0..src_def.attrs.len()).collect(),
            };
            let attrs: Vec<AttrDef> = positions.iter().map(|&p| src_def.attrs[p].clone()).collect();
            let type_name = self
                .db
                .schema()
                .fresh_atom_type_name(&format!("{}@{}", node.alias, rst.name));
            let new_ty = self.db.add_atom_type(AtomTypeDef::derived(
                type_name.clone(),
                attrs,
                format!("prop({}) of `{}`", rst.name, src_def.name),
            ))?;
            self.prov.record_type_copy(new_ty, node.ty);
            // distinct atoms at this node across all molecules, in order
            let mut distinct: Vec<AtomId> = rst
                .molecules
                .iter()
                .flat_map(|m| m.atoms[ni].iter().copied())
                .collect();
            distinct.sort_unstable();
            distinct.dedup();
            for src in distinct {
                let tuple = self.db.atom(src)?;
                let projected: Vec<Value> = positions.iter().map(|&p| tuple[p].clone()).collect();
                let copy = self.db.insert_atom(new_ty, projected)?;
                self.prov.record_atom_copy(copy, src);
                atom_maps[ni].insert(src, copy);
                atoms_copied += 1;
            }
            new_types.push(new_ty);
            new_type_names.push(type_name);
        }
        // 2. inherited link types + copied links
        let mut new_links = Vec::with_capacity(md.edge_count());
        let mut new_link_names = Vec::with_capacity(md.edge_count());
        let mut links_copied = 0usize;
        for e in md.edges() {
            let base_name = self.db.schema().link_type(e.link).name.clone();
            let link_name = self
                .db
                .schema()
                .fresh_link_type_name(&format!("{base_name}@{}", rst.name));
            let new_lt = self.db.add_link_type(LinkTypeDef {
                name: link_name.clone(),
                ends: [new_types[e.from], new_types[e.to]],
                cards: [mad_model::Cardinality::MANY, mad_model::Cardinality::MANY],
                derived_from: Some(format!(
                    "prop({}) of `{base_name}`",
                    rst.name
                )),
            })?;
            self.prov.record_link_copy(new_lt, e.link, e.dir);
            new_links.push(new_lt);
            new_link_names.push(link_name);
        }
        for m in &rst.molecules {
            for (ei, e) in md.edges().iter().enumerate() {
                for &(p, c) in &m.links[ei] {
                    let np = copy_of(&atom_maps, e.from, p)?;
                    let nc = copy_of(&atom_maps, e.to, c)?;
                    if self.db.connect(new_links[ei], np, nc)? {
                        links_copied += 1;
                    }
                }
            }
        }
        // 3. the result structure over the new types
        let nodes: Vec<MsNode> = md
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, node)| MsNode {
                alias: node.alias.clone(),
                ty: new_types[i],
            })
            .collect();
        let edges: Vec<MsEdge> = md
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| MsEdge {
                link: new_links[i],
                from: e.from,
                to: e.to,
                dir: Direction::Fwd,
            })
            .collect();
        let structure = finalize(nodes, edges)?;
        // 4. remap the molecules
        let molecules: Vec<Molecule> = rst
            .molecules
            .iter()
            .map(|m| {
                Ok(Molecule {
                    root: copy_of(&atom_maps, md.root(), m.root)?,
                    atoms: m
                        .atoms
                        .iter()
                        .enumerate()
                        .map(|(ni, v)| {
                            let mut out = v
                                .iter()
                                .map(|&a| copy_of(&atom_maps, ni, a))
                                .collect::<Result<Vec<AtomId>>>()?;
                            out.sort_unstable();
                            Ok(out)
                        })
                        .collect::<Result<_>>()?,
                    links: m
                        .links
                        .iter()
                        .enumerate()
                        .map(|(ei, v)| {
                            let e = &md.edges()[ei];
                            let mut out = v
                                .iter()
                                .map(|&(p, c)| {
                                    let np = copy_of(&atom_maps, e.from, p)?;
                                    Ok((np, copy_of(&atom_maps, e.to, c)?))
                                })
                                .collect::<Result<Vec<(AtomId, AtomId)>>>()?;
                            out.sort_unstable();
                            Ok(out)
                        })
                        .collect::<Result<_>>()?,
                })
            })
            .collect::<Result<_>>()?;
        trace.push(Stage::Propagation {
            atom_types: new_type_names,
            link_types: new_link_names,
            atoms_copied,
            links_copied,
        });
        trace.push(Stage::Alpha {
            name: rst.name.clone(),
            molecules: molecules.len(),
        });
        self.record(trace);
        Ok(MoleculeType {
            name: rst.name,
            structure,
            molecules,
            attrs: Vec::new(),
        })
    }

    /// Map a structure through the provenance registry onto canonical
    /// (base) atom and link types.
    fn canonical_structure(&self, md: &MoleculeStructure) -> Result<MoleculeStructure> {
        let nodes: Vec<MsNode> = md
            .nodes()
            .iter()
            .map(|n| MsNode {
                alias: n.alias.clone(),
                ty: self.prov.canonical_type(n.ty),
            })
            .collect();
        let edges: Vec<MsEdge> = md
            .edges()
            .iter()
            .map(|e| {
                let (link, dir) = self.prov.canonical_link(e.link, e.dir);
                MsEdge {
                    link,
                    from: e.from,
                    to: e.to,
                    dir,
                }
            })
            .collect();
        finalize(nodes, edges)
    }

    // ------------------------------------------------------------------
    // Closure verification (Theorems 2–3, experimentally)
    // ------------------------------------------------------------------

    /// Re-derive `m_dom(md)` of `mt.structure` over the (enlarged) database
    /// and check that it reproduces `mt.molecules` exactly — the validity
    /// claim of Theorems 2 and 3.
    pub fn verify_closure(&self, mt: &MoleculeType) -> Result<()> {
        let fresh = derive_molecules(&self.db, &mt.structure, &DeriveOptions::default())?;
        let mut expected = mt.molecules.clone();
        expected.sort_by_key(|m| m.root);
        let mut got = fresh;
        got.sort_by_key(|m| m.root);
        if expected != got {
            return Err(MadError::structure(format!(
                "closure violated for `{}`: re-derivation over DB' yields {} molecules, expected {}",
                mt.name,
                got.len(),
                expected.len()
            )));
        }
        for m in &got {
            crate::derive::check_molecule(&self.db, &mt.structure, m)?;
        }
        Ok(())
    }

    /// Convenience used throughout tests and examples: derive one molecule
    /// of a structure rooted at `root`.
    pub fn derive_single(&self, md: &MoleculeStructure, root: AtomId) -> Result<Molecule> {
        derive_one(&self.db, md, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qual::{CmpOp, Operand};
    use crate::structure::{path, StructureBuilder};
    use mad_model::{AttrType, SchemaBuilder};

    /// Shared fixture: the mini geography with shared edges (see
    /// `derive::tests::mini_geo` — duplicated here to keep the crates'
    /// test modules independent).
    fn mini_geo() -> Database {
        let schema = SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text), ("hectare", AttrType::Float)])
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
        let ty = |db: &Database, n: &str| db.schema().atom_type_id(n).unwrap();
        let lt = |db: &Database, n: &str| db.schema().link_type_id(n).unwrap();
        let state = ty(&db, "state");
        let river = ty(&db, "river");
        let area = ty(&db, "area");
        let net = ty(&db, "net");
        let edge = ty(&db, "edge");
        let point = ty(&db, "point");
        let sp = db
            .insert_atom(state, vec![Value::from("SP"), Value::from(1000.0)])
            .unwrap();
        let mg = db
            .insert_atom(state, vec![Value::from("MG"), Value::from(900.0)])
            .unwrap();
        let parana = db.insert_atom(river, vec![Value::from("Parana")]).unwrap();
        let a1 = db.insert_atom(area, vec![Value::from(1)]).unwrap();
        let a2 = db.insert_atom(area, vec![Value::from(2)]).unwrap();
        let n1 = db.insert_atom(net, vec![Value::from(1)]).unwrap();
        let e1 = db.insert_atom(edge, vec![Value::from(1)]).unwrap();
        let e2 = db.insert_atom(edge, vec![Value::from(2)]).unwrap();
        let e3 = db.insert_atom(edge, vec![Value::from(3)]).unwrap();
        let p1 = db.insert_atom(point, vec![Value::from("p1")]).unwrap();
        let p2 = db.insert_atom(point, vec![Value::from("p2")]).unwrap();
        db.connect(lt(&db, "state-area"), sp, a1).unwrap();
        db.connect(lt(&db, "state-area"), mg, a2).unwrap();
        db.connect(lt(&db, "river-net"), parana, n1).unwrap();
        db.connect(lt(&db, "area-edge"), a1, e1).unwrap();
        db.connect(lt(&db, "area-edge"), a1, e2).unwrap();
        db.connect(lt(&db, "area-edge"), a2, e2).unwrap();
        db.connect(lt(&db, "area-edge"), a2, e3).unwrap();
        db.connect(lt(&db, "net-edge"), n1, e2).unwrap();
        db.connect(lt(&db, "edge-point"), e1, p1).unwrap();
        db.connect(lt(&db, "edge-point"), e2, p1).unwrap();
        db.connect(lt(&db, "edge-point"), e2, p2).unwrap();
        db.connect(lt(&db, "edge-point"), e3, p2).unwrap();
        db
    }

    fn engine() -> Engine {
        Engine::new(mini_geo())
    }

    fn mt_state(e: &mut Engine) -> MoleculeType {
        let md = path(e.db().schema(), &["state", "area", "edge", "point"]).unwrap();
        e.define("mt_state", md).unwrap()
    }

    #[test]
    fn alpha_defines_molecule_type() {
        let mut e = engine();
        let mt = mt_state(&mut e);
        assert_eq!(mt.len(), 2);
        e.verify_closure(&mt).unwrap();
    }

    #[test]
    fn sigma_restricts_and_propagates() {
        let mut e = engine();
        e.enable_tracing();
        let mt = mt_state(&mut e);
        // Σ[state.sname = 'SP'](mt_state)
        let q = QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP");
        let big = e.restrict(&mt, &q).unwrap();
        assert_eq!(big.len(), 1);
        // the result lives in propagated types (DB′)
        let root_ty = big.structure.root_node().ty;
        assert!(e.db().schema().atom_type(root_ty).derived_from.is_some());
        // Theorem 2: valid molecule type over DB′
        e.verify_closure(&big).unwrap();
        // trace has the three Fig.-5 stages
        let t = e.trace_log().last().unwrap();
        assert_eq!(t.op, "Σ");
        assert_eq!(t.stages.len(), 3);
    }

    #[test]
    fn sigma_on_child_attribute() {
        let mut e = engine();
        let mt = mt_state(&mut e);
        // molecules containing point 'p1' — both states touch p1 through
        // shared edge e2
        let q = QualExpr::cmp_const(3, 0, CmpOp::Eq, "p1");
        let r = e.restrict(&mt, &q).unwrap();
        assert_eq!(r.len(), 2);
        // molecules containing point 'p9' — none
        let q = QualExpr::cmp_const(3, 0, CmpOp::Eq, "p9");
        let r = e.restrict(&mt, &q).unwrap();
        assert_eq!(r.len(), 0);
        e.verify_closure(&r).unwrap();
    }

    #[test]
    fn shared_subobjects_survive_propagation() {
        let mut e = engine();
        let mt = mt_state(&mut e);
        let all = e.restrict(&mt, &QualExpr::True).unwrap();
        // e2 is shared between SP and MG; its propagated copy must be
        // shared as well
        let shared = all.shared_atoms();
        assert!(
            !shared.is_empty(),
            "propagated molecule type lost its shared subobjects"
        );
        e.verify_closure(&all).unwrap();
    }

    #[test]
    fn pushdown_equals_restrict_after_define() {
        let mut e = engine();
        let md = path(e.db().schema(), &["state", "area", "edge", "point"]).unwrap();
        let q = QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP")
            .and(QualExpr::cmp_const(3, 0, CmpOp::Eq, "p1"));
        let pushed = e
            .define_restricted("fast", md.clone(), &q, Strategy::PerRoot)
            .unwrap();
        let mt = e.define("mt_state", md).unwrap();
        let slow = e.restrict(&mt, &q).unwrap();
        // same number of molecules with the same canonical atom sets
        assert_eq!(pushed.len(), slow.len());
        let canon = |e: &Engine, mt: &MoleculeType| -> Vec<Vec<AtomId>> {
            mt.molecules
                .iter()
                .map(|m| {
                    m.map_atoms(|a| e.provenance().canonical_atom(a))
                        .atom_set()
                })
                .collect()
        };
        assert_eq!(canon(&e, &pushed), canon(&e, &slow));
        e.verify_closure(&pushed).unwrap();
    }

    #[test]
    fn bitset_pushdown_matches_classic_paths() {
        let e = engine();
        let md = path(e.db().schema(), &["state", "area", "edge", "point"]).unwrap();
        // root conjunct, child conjunct and a residual OR that cannot be
        // pushed
        let q = QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP")
            .and(QualExpr::cmp_const(3, 0, CmpOp::Eq, "p1"))
            .and(
                QualExpr::cmp_const(2, 0, CmpOp::Le, 2)
                    .or(QualExpr::cmp_const(2, 0, CmpOp::Ge, 1)),
            );
        let bitset = e.evaluate_restricted(&md, &q, Strategy::Bitset).unwrap();
        let classic = e.evaluate_restricted(&md, &q, Strategy::PerRoot).unwrap();
        let naive = e.evaluate_filtered(&md, &q, Strategy::PerRoot).unwrap();
        assert_eq!(bitset, classic);
        assert_eq!(bitset, naive);
        assert_eq!(bitset.len(), 1);
        // a child conjunct with no witness anywhere prunes everything
        let q = QualExpr::cmp_const(3, 0, CmpOp::Eq, "p9");
        let bitset = e.evaluate_restricted(&md, &q, Strategy::Bitset).unwrap();
        let naive = e.evaluate_filtered(&md, &q, Strategy::PerRoot).unwrap();
        assert_eq!(bitset, naive);
        assert!(bitset.is_empty());
    }

    #[test]
    fn scan_compares_cross_type_constants_numerically() {
        // Value's total order ranks variants (every Int below every Float);
        // the selection scan must compare numerically, like `sql_cmp`.
        let e = engine();
        let md = path(e.db().schema(), &["state", "area"]).unwrap();
        // hectare: SP = 1000.0, MG = 900.0; Int constant 950
        let q = QualExpr::cmp_const(0, 1, CmpOp::Gt, 950);
        let naive = e.evaluate_filtered(&md, &q, Strategy::PerRoot).unwrap();
        assert_eq!(naive.len(), 1, "only SP exceeds 950");
        assert_eq!(e.evaluate_restricted(&md, &q, Strategy::Bitset).unwrap(), naive);
        assert_eq!(e.evaluate_restricted(&md, &q, Strategy::PerRoot).unwrap(), naive);
        // a fractional Float constant against an Int attribute
        let q = QualExpr::cmp_const(1, 0, CmpOp::Lt, 1.5); // aid ∈ {1, 2}
        let naive = e.evaluate_filtered(&md, &q, Strategy::PerRoot).unwrap();
        assert_eq!(naive.len(), 1, "only a1 has aid < 1.5");
        assert_eq!(e.evaluate_restricted(&md, &q, Strategy::Bitset).unwrap(), naive);
        assert_eq!(e.evaluate_restricted(&md, &q, Strategy::PerRoot).unwrap(), naive);
    }

    #[test]
    fn pushdown_plan_reports_access_paths() {
        let e = engine();
        let md = path(e.db().schema(), &["state", "area", "edge", "point"]).unwrap();
        let q = QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP")
            .and(QualExpr::cmp_const(2, 0, CmpOp::Ge, 3));
        let plan = plan_pushdown(e.db(), &md, &q);
        assert_eq!(plan.nodes.len(), 2);
        let root_entry = plan.nodes.iter().find(|n| n.node == 0).unwrap();
        assert_eq!(root_entry.conjuncts.len(), 1);
        let edge_entry = plan.nodes.iter().find(|n| n.node == 2).unwrap();
        assert_eq!(edge_entry.conjuncts.len(), 1);
        // prune bitsets hold exactly the satisfying slots
        assert_eq!(plan.prune[0].as_ref().unwrap().len(), 1, "one SP state");
        assert_eq!(plan.prune[2].as_ref().unwrap().len(), 1, "one edge ≥ 3");
        assert!(plan.prune[1].is_none() && plan.prune[3].is_none());
    }

    #[test]
    fn projection_prunes_branches() {
        let mut e = engine();
        let md = StructureBuilder::new(e.db().schema())
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
        let pn = e.define("point_neighborhood", md).unwrap();
        // keep only the area/state branch
        let proj = e
            .project(&pn, &["point", "edge", "area", "state"], &[])
            .unwrap();
        assert_eq!(proj.structure.node_count(), 4);
        assert_eq!(proj.len(), pn.len());
        e.verify_closure(&proj).unwrap();
    }

    #[test]
    fn projection_rules_enforced() {
        let mut e = engine();
        let mt = mt_state(&mut e);
        // dropping the root is illegal
        assert!(e.project(&mt, &["area", "edge"], &[]).is_err());
        // dropping an intermediate node (edge) while keeping point is
        // illegal: point would lose its only incoming edge
        assert!(e.project(&mt, &["state", "area", "point"], &[]).is_err());
        // unknown alias
        assert!(e.project(&mt, &["state", "ghost"], &[]).is_err());
    }

    #[test]
    fn projection_of_attributes() {
        let mut e = engine();
        let mt = mt_state(&mut e);
        let proj = e
            .project(
                &mt,
                &["state", "area"],
                &[("state", vec!["sname"])],
            )
            .unwrap();
        let root_ty = proj.structure.root_node().ty;
        let def = e.db().schema().atom_type(root_ty);
        assert_eq!(def.attrs.len(), 1);
        assert_eq!(def.attrs[0].name, "sname");
        e.verify_closure(&proj).unwrap();
    }

    #[test]
    fn product_pairs_molecules() {
        let mut e = engine();
        let md1 = path(e.db().schema(), &["state", "area"]).unwrap();
        let md2 = path(e.db().schema(), &["river", "net"]).unwrap();
        let mt1 = e.define("states", md1).unwrap();
        let mt2 = e.define("rivers", md2).unwrap();
        let x = e.product(&mt1, &mt2, "states_x_rivers").unwrap();
        assert_eq!(x.len(), 2, "2 states × 1 river");
        assert_eq!(x.structure.node_count(), 1 + 2 + 2);
        assert_eq!(x.structure.root_node().alias, "pair");
        e.verify_closure(&x).unwrap();
    }

    #[test]
    fn product_resolves_alias_collisions() {
        let mut e = engine();
        let md1 = path(e.db().schema(), &["state", "area"]).unwrap();
        let mt1 = e.define("a", md1.clone()).unwrap();
        let mt2 = e.define("b", md1).unwrap();
        let x = e.product(&mt1, &mt2, "squared").unwrap();
        let aliases: Vec<&str> = x
            .structure
            .nodes()
            .iter()
            .map(|n| n.alias.as_str())
            .collect();
        assert_eq!(aliases.len(), 5);
        let mut unique = aliases.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 5, "aliases must stay unique: {aliases:?}");
        assert_eq!(x.len(), 4);
        e.verify_closure(&x).unwrap();
    }

    #[test]
    fn union_difference_intersection_set_laws() {
        let mut e = engine();
        let mt = mt_state(&mut e);
        let sp = e
            .restrict(&mt, &QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP"))
            .unwrap();
        let mg = e
            .restrict(&mt, &QualExpr::cmp_const(0, 0, CmpOp::Eq, "MG"))
            .unwrap();
        // Ω(sp, mg) = both molecules
        let u = e.union(&sp, &mg, "u").unwrap();
        assert_eq!(u.len(), 2);
        e.verify_closure(&u).unwrap();
        // Δ(mt, sp) = mg
        let d = e.difference(&mt, &sp, "d").unwrap();
        assert_eq!(d.len(), 1);
        // Ψ(mt, sp) = sp
        let i = e.intersection(&mt, &sp, "i").unwrap();
        assert_eq!(i.len(), 1);
        e.verify_closure(&i).unwrap();
        // Ψ(sp, mg) = ∅
        let empty = e.intersection(&sp, &mg, "e").unwrap();
        assert_eq!(empty.len(), 0);
        // Ω is idempotent
        let uu = e.union(&u, &u, "uu").unwrap();
        assert_eq!(uu.len(), 2);
    }

    #[test]
    fn union_requires_compatible_descriptions() {
        let mut e = engine();
        let mt1 = mt_state(&mut e);
        let md = path(e.db().schema(), &["river", "net"]).unwrap();
        let mt2 = e.define("rivers", md).unwrap();
        assert!(matches!(
            e.union(&mt1, &mt2, "bad"),
            Err(MadError::IncompatibleOperands { op: "Ω", .. })
        ));
        assert!(e.difference(&mt1, &mt2, "bad2").is_err());
    }

    #[test]
    fn compatibility_is_canonical_across_propagations() {
        // Σ results of the same mt are propagated into *different* derived
        // types; Ω must still accept them as compatible.
        let mut e = engine();
        let mt = mt_state(&mut e);
        let a = e.restrict(&mt, &QualExpr::True).unwrap();
        let b = e.restrict(&mt, &QualExpr::True).unwrap();
        assert_ne!(
            a.structure.root_node().ty,
            b.structure.root_node().ty,
            "propagation must rename"
        );
        let u = e.union(&a, &b, "u").unwrap();
        assert_eq!(u.len(), 2, "same canonical molecules dedup");
    }

    #[test]
    fn exists_forall_in_restriction() {
        let mut e = engine();
        let mt = mt_state(&mut e);
        // states where SOME edge has eid >= 3 (only MG via e3)
        let q = QualExpr::Exists {
            node: 2,
            pred: Box::new(QualExpr::cmp_const(2, 0, CmpOp::Ge, 3)),
        };
        let r = e.restrict(&mt, &q).unwrap();
        assert_eq!(r.len(), 1);
        // states where ALL edges have eid <= 2 (only SP: e1, e2)
        let q = QualExpr::ForAll {
            node: 2,
            pred: Box::new(QualExpr::cmp_const(2, 0, CmpOp::Le, 2)),
        };
        let r = e.restrict(&mt, &q).unwrap();
        assert_eq!(r.len(), 1);
        // two-operand comparison: molecules where state.hectare > some
        // edge.eid (numerically true everywhere)
        let q = QualExpr::Cmp {
            left: Operand::Attr { node: 0, attr: 1 },
            op: CmpOp::Gt,
            right: Operand::Attr { node: 2, attr: 0 },
        };
        let r = e.restrict(&mt, &q).unwrap();
        assert_eq!(r.len(), 2);
    }


    #[test]
    fn sigma_chain_composes_through_propagation() {
        // Σ over a Σ result: the second restriction operates on propagated
        // types; canonical provenance keeps everything coherent.
        let mut e = engine();
        let mt = mt_state(&mut e);
        let step1 = e
            .restrict(&mt, &QualExpr::cmp_const(0, 1, CmpOp::Gt, 800.0))
            .unwrap();
        assert_eq!(step1.len(), 2);
        let step2 = e
            .restrict(&step1, &QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP"))
            .unwrap();
        assert_eq!(step2.len(), 1);
        e.verify_closure(&step2).unwrap();
        // the canonical root of the survivor is the base SP atom
        let root = step2.molecules[0].root;
        let canon = e.provenance().canonical_atom(root);
        assert_eq!(
            e.db().atom(canon).unwrap()[0],
            Value::from("SP")
        );
        assert_ne!(root, canon, "two propagations away from base");
    }

    #[test]
    fn product_of_propagated_operands() {
        let mut e = engine();
        let mt = mt_state(&mut e);
        let sp = e
            .restrict(&mt, &QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP"))
            .unwrap();
        let mg = e
            .restrict(&mt, &QualExpr::cmp_const(0, 0, CmpOp::Eq, "MG"))
            .unwrap();
        let x = e.product(&sp, &mg, "pairs").unwrap();
        assert_eq!(x.len(), 1);
        e.verify_closure(&x).unwrap();
        // pair atoms record the canonical roots in their Id attributes
        let pair_atom = x.molecules[0].root;
        let canon_pair = e.provenance().canonical_atom(pair_atom);
        let tuple = e.db().atom(canon_pair).unwrap().to_vec();
        let left = tuple[0].as_id().unwrap();
        assert_eq!(e.db().atom(left).unwrap()[0], Value::from("SP"));
    }

    #[test]
    fn define_restricted_trace_has_all_stages() {
        let mut e = engine();
        e.enable_tracing();
        let md = path(e.db().schema(), &["state", "area"]).unwrap();
        let q = QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP");
        let _ = e.define_restricted("t", md, &q, Strategy::PerRoot).unwrap();
        let t = e.trace_log().last().unwrap();
        assert_eq!(t.stages.len(), 4, "derivation, op-specific, prop, alpha");
        assert!(matches!(
            t.stages[0],
            crate::trace::Stage::Derivation { ref strategy, .. } if strategy == "PerRoot"
        ));
        assert!(matches!(t.stages[1], crate::trace::Stage::OpSpecific(_)));
        assert!(matches!(t.stages[2], crate::trace::Stage::Propagation { .. }));
        assert!(matches!(t.stages[3], crate::trace::Stage::Alpha { .. }));
    }

    #[test]
    fn projection_attr_on_child_node() {
        let mut e = engine();
        let mt = mt_state(&mut e);
        let p = e
            .project(
                &mt,
                &["state", "area", "edge"],
                &[("edge", vec!["eid"]), ("state", vec!["sname", "hectare"])],
            )
            .unwrap();
        let edge_node = p.structure.node_by_alias("edge").unwrap();
        let edge_ty = p.structure.nodes()[edge_node].ty;
        assert_eq!(e.db().schema().atom_type(edge_ty).attrs.len(), 1);
        let root_ty = p.structure.root_node().ty;
        assert_eq!(e.db().schema().atom_type(root_ty).attrs.len(), 2);
        e.verify_closure(&p).unwrap();
        // unknown attribute in the projection errors out
        assert!(e
            .project(&mt, &["state"], &[("state", vec!["ghost"])])
            .is_err());
    }

    #[test]
    fn evaluate_apis_are_pure() {
        let mut e = engine();
        let md = path(e.db().schema(), &["state", "area"]).unwrap();
        let types_before = e.db().schema().atom_type_count();
        let atoms_before = e.db().total_atoms();
        let q = QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP");
        let _ = e.evaluate(&md, &DeriveOptions::default()).unwrap();
        let _ = e.evaluate_restricted(&md, &q, Strategy::PerRoot).unwrap();
        let _ = e.evaluate_filtered(&md, &q, Strategy::PerRoot).unwrap();
        let mt = e.define("m", md).unwrap();
        let _ = e.union_set(&mt, &mt).unwrap();
        let _ = e.difference_set(&mt, &mt).unwrap();
        let _ = e.intersection_set(&mt, &mt).unwrap();
        assert_eq!(e.db().schema().atom_type_count(), types_before);
        assert_eq!(e.db().total_atoms(), atoms_before);
    }

    #[test]
    fn union_set_semantics_match_operators() {
        let mut e = engine();
        let mt = mt_state(&mut e);
        let sp = e
            .restrict(&mt, &QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP"))
            .unwrap();
        let pure = e.union_set(&mt, &sp).unwrap();
        let full = e.union(&mt, &sp, "u").unwrap();
        assert_eq!(pure.len(), full.len());
        let pure_i = e.intersection_set(&mt, &sp).unwrap();
        let full_i = e.intersection(&mt, &sp, "i").unwrap();
        assert_eq!(pure_i.len(), full_i.len());
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut e = engine();
        let mt = mt_state(&mut e);
        let _ = e.restrict(&mt, &QualExpr::True).unwrap();
        assert!(e.trace_log().ops.is_empty());
    }
}
