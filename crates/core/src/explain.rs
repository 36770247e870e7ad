//! Query explanation — the §5 outlook made concrete: "we are confident
//! that we can conveniently exploit the algebra to considerably simplify
//! and enhance query transformation and query optimization".
//!
//! [`explain`] inspects a molecule-type definition (structure +
//! qualification) against the database and produces the plan the engine
//! will execute, with statistics-based cardinality estimates:
//!
//! * **root selection** — which Σ conjuncts can be pushed below the
//!   derivation, and whether an index serves them;
//! * **per-node fan-out estimates** — from the live link-type degree
//!   statistics, the expected number of atoms per structure node and the
//!   expected total work (adjacency lookups);
//! * **traversal** — whether the CSR snapshot the bitset engine expands
//!   over is warm, and how much of it the last rebuild re-froze.

use crate::ops::{classify_pushdown, index_probe_key, AccessPath};
use crate::qual::{CmpOp, QualExpr};
use crate::structure::MoleculeStructure;
use mad_model::Value;
use mad_storage::database::Direction;
use mad_storage::Database;
use std::fmt;

/// How the root set will be selected.
#[derive(Clone, Debug, PartialEq)]
pub enum RootSelection {
    /// All atoms of the root type (no usable conjunct).
    FullOccurrence {
        /// Number of root atoms.
        atoms: usize,
    },
    /// Root conjuncts evaluated through secondary indexes.
    IndexAssisted {
        /// The pushed conjuncts, rendered.
        conjuncts: Vec<String>,
        /// Estimated surviving roots.
        estimated_roots: f64,
    },
    /// Root conjuncts evaluated by scanning the root occurrence.
    ScanFiltered {
        /// The pushed conjuncts, rendered.
        conjuncts: Vec<String>,
        /// Estimated surviving roots.
        estimated_roots: f64,
    },
}

/// Estimated work at one structure node.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeEstimate {
    /// Node alias.
    pub alias: String,
    /// Expected atoms at this node *per molecule*.
    pub per_molecule: f64,
    /// Expected atoms at this node across the whole molecule set.
    pub total: f64,
}

/// One pushed conjunct in the EXPLAIN report.
#[derive(Clone, Debug, PartialEq)]
pub struct PushedConjunct {
    /// The conjunct, rendered (`alias.attr op value`).
    pub rendered: String,
    /// How this conjunct's candidate set is produced (index vs. scan) —
    /// decided per conjunct, exactly like the execution-time planner.
    pub access: AccessPath,
}

/// Conjuncts pushed to one structure node.
#[derive(Clone, Debug, PartialEq)]
pub struct PushedNode {
    /// The node's alias.
    pub alias: String,
    /// The pushed conjuncts with their access paths.
    pub conjuncts: Vec<PushedConjunct>,
}

/// The explanation of a molecule-type definition.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Root selection method.
    pub root_selection: RootSelection,
    /// Estimated root count after selection.
    pub estimated_roots: f64,
    /// Per-node estimates, in topological order.
    pub nodes: Vec<NodeEstimate>,
    /// Qualification pushdown per structure node (only nodes with pushable
    /// conjuncts appear; empty without a qualification).
    pub pushdown: Vec<PushedNode>,
    /// Estimated adjacency lookups for the whole derivation.
    pub estimated_lookups: f64,
    /// Is the database's CSR snapshot current (no rebuild needed)?
    pub csr_warm: bool,
    /// `(rebuilt, total)` link-type CSR pairs of the most recent snapshot
    /// (re)build — the incremental-invalidation statistic (`None` before
    /// the first build).
    pub csr_rebuilt_pairs: Option<(usize, usize)>,
    /// Residual qualification evaluated per molecule (rendered), if any.
    pub residual_filter: Option<String>,
}

/// Mean side-aware fan-out of a link type (how many partners an atom of
/// `from`'s side has on average, counting atoms *with* partners only at 0
/// when the occurrence is empty).
fn mean_fanout(db: &Database, lt: mad_model::LinkTypeId, dir: Direction, from_count: usize) -> f64 {
    if from_count == 0 {
        return 0.0;
    }
    let links = db.link_count(lt) as f64;
    match dir {
        Direction::Fwd | Direction::Bwd => links / from_count as f64,
        Direction::Sym => 2.0 * links / from_count as f64,
    }
}

/// Rough selectivity of a comparison against a uniform domain: equality
/// picks `1/distinct`, ranges pick 1/3 (the classical System-R default).
fn selectivity(op: CmpOp) -> f64 {
    match op {
        CmpOp::Eq => 0.1,
        CmpOp::Ne => 0.9,
        _ => 1.0 / 3.0,
    }
}

/// Produce the execution plan for `α[md]` optionally restricted by `qual`.
pub fn explain(db: &Database, md: &MoleculeStructure, qual: Option<&QualExpr>) -> Plan {
    let root_ty = md.root_node().ty;
    let root_atoms = db.atom_count(root_ty);
    // --- root selection -------------------------------------------------
    let conjuncts: Vec<(usize, CmpOp, Value)> = qual
        .map(|q| q.root_conjuncts(md.root()))
        .unwrap_or_default();
    let mut est_roots = root_atoms as f64;
    let mut indexed = true;
    let mut rendered = Vec::new();
    let root_def = db.schema().atom_type(root_ty);
    for (attr, op, value) in &conjuncts {
        est_roots *= selectivity(*op);
        indexed &= index_probe_key(db, root_ty, *attr, *op, value).is_some();
        rendered.push(format!(
            "{}.{} {} {}",
            md.root_node().alias,
            root_def
                .attrs
                .get(*attr)
                .map(|a| a.name.as_str())
                .unwrap_or("?"),
            op.symbol(),
            value
        ));
    }
    let root_selection = if conjuncts.is_empty() {
        est_roots = root_atoms as f64;
        RootSelection::FullOccurrence { atoms: root_atoms }
    } else if indexed {
        RootSelection::IndexAssisted {
            conjuncts: rendered,
            estimated_roots: est_roots,
        }
    } else {
        RootSelection::ScanFiltered {
            conjuncts: rendered,
            estimated_roots: est_roots,
        }
    };
    // --- per-node estimates (topological propagation of fan-outs) -------
    let mut per_molecule = vec![0.0f64; md.node_count()];
    per_molecule[md.root()] = 1.0;
    for &node in &md.topo_order()[1..] {
        // ∀-semantics over incoming edges: estimate with the MINIMUM of the
        // per-edge reach (the intersection cannot exceed either side)
        let mut est: Option<f64> = None;
        for &ei in md.incoming(node) {
            let e = &md.edges()[ei];
            let from_count = db.atom_count(md.nodes()[e.from].ty).max(1);
            let fan = mean_fanout(db, e.link, e.dir, from_count);
            let reach = per_molecule[e.from] * fan;
            est = Some(match est {
                None => reach,
                Some(prev) => prev.min(reach),
            });
        }
        per_molecule[node] = est.unwrap_or(0.0);
    }
    let nodes: Vec<NodeEstimate> = md
        .topo_order()
        .iter()
        .map(|&n| NodeEstimate {
            alias: md.nodes()[n].alias.clone(),
            per_molecule: per_molecule[n],
            total: per_molecule[n] * est_roots,
        })
        .collect();
    // work ≈ links traversed: parents × mean fan-out, per edge, per molecule
    let estimated_lookups: f64 = md
        .edges()
        .iter()
        .map(|e| {
            let from_count = db.atom_count(md.nodes()[e.from].ty).max(1);
            let fan = mean_fanout(db, e.link, e.dir, from_count);
            per_molecule[e.from] * fan.max(1.0) * est_roots
        })
        .sum();
    // --- qualification pushdown report -----------------------------------
    let attr_name = |node: usize, attr: usize| {
        let def = db.schema().atom_type(md.nodes()[node].ty);
        def.attrs
            .get(attr)
            .map(|a| a.name.as_str())
            .unwrap_or("?")
            .to_owned()
    };
    // report exactly what the execution-time planner will do — same
    // classification code, minus the bitset materialization
    let pushdown: Vec<PushedNode> = qual
        .map(|q| {
            classify_pushdown(db, md, q)
                .iter()
                .map(|entry| PushedNode {
                    alias: md.nodes()[entry.node].alias.clone(),
                    conjuncts: entry
                        .conjuncts
                        .iter()
                        .map(|(c, access)| PushedConjunct {
                            rendered: format!(
                                "{}.{} {} {}",
                                md.nodes()[c.node].alias,
                                attr_name(c.node, c.attr),
                                c.op.symbol(),
                                c.value
                            ),
                            access: *access,
                        })
                        .collect(),
                })
                .collect()
        })
        .unwrap_or_default();
    Plan {
        root_selection,
        estimated_roots: est_roots,
        nodes,
        pushdown,
        estimated_lookups,
        csr_warm: db.csr_is_warm(),
        csr_rebuilt_pairs: db.csr_rebuild_stats(),
        residual_filter: qual.map(|q| q.render(md, db.schema())),
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan:")?;
        match &self.root_selection {
            RootSelection::FullOccurrence { atoms } => {
                writeln!(f, "  roots: full occurrence scan ({atoms} atoms)")?
            }
            RootSelection::IndexAssisted {
                conjuncts,
                estimated_roots,
            } => writeln!(
                f,
                "  roots: index lookup on [{}] (≈{estimated_roots:.1} roots)",
                conjuncts.join(" AND ")
            )?,
            RootSelection::ScanFiltered {
                conjuncts,
                estimated_roots,
            } => writeln!(
                f,
                "  roots: occurrence scan filtered by [{}] (≈{estimated_roots:.1} roots)",
                conjuncts.join(" AND ")
            )?,
        }
        for n in &self.nodes {
            writeln!(
                f,
                "  node {:<12} ≈{:>8.1} atoms/molecule, ≈{:>10.1} total",
                n.alias, n.per_molecule, n.total
            )?;
        }
        for p in &self.pushdown {
            let rendered: Vec<String> = p
                .conjuncts
                .iter()
                .map(|c| {
                    format!(
                        "{} (via {})",
                        c.rendered,
                        match c.access {
                            AccessPath::Index => "index",
                            AccessPath::Scan => "scan",
                        }
                    )
                })
                .collect();
            writeln!(f, "  pushdown @{:<10} [{}]", p.alias, rendered.join(" AND "))?;
        }
        writeln!(f, "  estimated adjacency lookups: ≈{:.0}", self.estimated_lookups)?;
        write!(
            f,
            "  traversal: CSR snapshot expansion ({}",
            if self.csr_warm { "warm" } else { "built on first use" }
        )?;
        if let Some((rebuilt, total)) = self.csr_rebuilt_pairs {
            write!(f, "; last rebuild re-froze {rebuilt}/{total} link-type pairs")?;
        }
        writeln!(f, ")")?;
        if let Some(r) = &self.residual_filter {
            writeln!(f, "  residual molecule filter: {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qual::QualExpr;
    use crate::structure::path;
    use mad_model::{AttrType, SchemaBuilder};
    use mad_storage::IndexKind;

    fn db() -> Database {
        let schema = SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text), ("hectare", AttrType::Float)])
            .atom_type("area", &[("aid", AttrType::Int)])
            .atom_type("edge", &[("eid", AttrType::Int)])
            .link_type("state-area", "state", "area")
            .link_type("area-edge", "area", "edge")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let edge = db.schema().atom_type_id("edge").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let ae = db.schema().link_type_id("area-edge").unwrap();
        for i in 0..10i64 {
            let s = db
                .insert_atom(state, vec![Value::Text(format!("S{i}")), Value::Float(i as f64)])
                .unwrap();
            let a = db.insert_atom(area, vec![Value::Int(i)]).unwrap();
            db.connect(sa, s, a).unwrap();
            for j in 0..4i64 {
                let e = db.insert_atom(edge, vec![Value::Int(i * 4 + j)]).unwrap();
                db.connect(ae, a, e).unwrap();
            }
        }
        db
    }

    #[test]
    fn full_scan_without_qual() {
        let db = db();
        let md = path(db.schema(), &["state", "area", "edge"]).unwrap();
        let plan = explain(&db, &md, None);
        assert_eq!(
            plan.root_selection,
            RootSelection::FullOccurrence { atoms: 10 }
        );
        assert_eq!(plan.estimated_roots, 10.0);
        // fan-out estimates: 1 area per state, 4 edges per area
        assert!((plan.nodes[1].per_molecule - 1.0).abs() < 1e-9);
        assert!((plan.nodes[2].per_molecule - 4.0).abs() < 1e-9);
        assert!(plan.pushdown.is_empty());
        assert!(plan.residual_filter.is_none());
    }

    #[test]
    fn report_matches_what_execution_would_do() {
        // a hash index cannot serve a range probe: the report must say
        // "scan", exactly like the execution-time planner decides
        let mut db = db();
        let state = db.schema().atom_type_id("state").unwrap();
        db.create_index(state, "hectare", IndexKind::Hash).unwrap();
        let md = path(db.schema(), &["state", "area"]).unwrap();
        let range = QualExpr::cmp_const(0, 1, CmpOp::Gt, 5.0);
        let plan = explain(&db, &md, Some(&range));
        assert!(matches!(plan.root_selection, RootSelection::ScanFiltered { .. }));
        assert_eq!(plan.pushdown[0].conjuncts[0].access, AccessPath::Scan);
        let eq = QualExpr::cmp_const(0, 1, CmpOp::Eq, 5.0);
        let plan = explain(&db, &md, Some(&eq));
        assert!(matches!(plan.root_selection, RootSelection::IndexAssisted { .. }));
        assert_eq!(plan.pushdown[0].conjuncts[0].access, AccessPath::Index);
    }

    #[test]
    fn pushdown_report_covers_non_root_nodes() {
        let mut db = db();
        let state = db.schema().atom_type_id("state").unwrap();
        db.create_index(state, "hectare", IndexKind::Ordered).unwrap();
        let md = path(db.schema(), &["state", "area", "edge"]).unwrap();
        let q = QualExpr::cmp_const(0, 1, CmpOp::Gt, 5.0)
            .and(QualExpr::cmp_const(2, 0, CmpOp::Lt, 8));
        let plan = explain(&db, &md, Some(&q));
        assert_eq!(plan.pushdown.len(), 2);
        let root = plan.pushdown.iter().find(|p| p.alias == "state").unwrap();
        assert_eq!(root.conjuncts[0].access, AccessPath::Index);
        assert!(root.conjuncts[0].rendered.contains("state.hectare > 5"));
        let edge = plan.pushdown.iter().find(|p| p.alias == "edge").unwrap();
        assert_eq!(edge.conjuncts[0].access, AccessPath::Scan);
        let text = plan.to_string();
        assert!(text.contains("pushdown @state"), "got: {text}");
        assert!(text.contains("via index"), "got: {text}");
        assert!(text.contains("via scan"), "got: {text}");
        assert!(text.contains("CSR snapshot"), "got: {text}");
    }

    #[test]
    fn index_assisted_when_index_exists() {
        let mut db = db();
        let state = db.schema().atom_type_id("state").unwrap();
        db.create_index(state, "hectare", IndexKind::Ordered).unwrap();
        let md = path(db.schema(), &["state", "area"]).unwrap();
        let q = QualExpr::cmp_const(0, 1, CmpOp::Gt, 5.0);
        let plan = explain(&db, &md, Some(&q));
        assert!(matches!(
            plan.root_selection,
            RootSelection::IndexAssisted { .. }
        ));
        assert!(plan.estimated_roots < 10.0);
        assert!(plan.residual_filter.is_some());
    }

    #[test]
    fn scan_filtered_without_index() {
        let db = db();
        let md = path(db.schema(), &["state", "area"]).unwrap();
        let q = QualExpr::cmp_const(0, 0, CmpOp::Eq, "S3");
        let plan = explain(&db, &md, Some(&q));
        assert!(matches!(
            plan.root_selection,
            RootSelection::ScanFiltered { .. }
        ));
    }

    #[test]
    fn non_root_predicates_do_not_push() {
        let db = db();
        let md = path(db.schema(), &["state", "area", "edge"]).unwrap();
        let q = QualExpr::cmp_const(2, 0, CmpOp::Eq, 3);
        let plan = explain(&db, &md, Some(&q));
        assert!(matches!(
            plan.root_selection,
            RootSelection::FullOccurrence { .. }
        ));
        assert!(plan.residual_filter.unwrap().contains("edge.eid"));
    }

    #[test]
    fn reports_incremental_rebuild_stats() {
        let mut db = db();
        let md = path(db.schema(), &["state", "area", "edge"]).unwrap();
        // cold: no snapshot yet
        let plan = explain(&db, &md, None);
        assert_eq!(plan.csr_rebuilt_pairs, None);
        assert!(!plan.csr_warm);
        // warm it, then touch one link type: only that pair re-freezes
        let _ = db.csr_snapshot();
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let s = db.insert_atom(state, vec![Value::Text("X".into()), Value::Float(0.0)]).unwrap();
        let a = db.insert_atom(area, vec![Value::Int(99)]).unwrap();
        db.connect(sa, s, a).unwrap();
        let _ = db.csr_snapshot();
        let plan = explain(&db, &md, None);
        assert_eq!(plan.csr_rebuilt_pairs, Some((1, 2)));
        assert!(plan.csr_warm);
        let text = plan.to_string();
        assert!(text.contains("re-froze 1/2 link-type pairs"), "got: {text}");
    }

    #[test]
    fn display_mentions_everything() {
        let db = db();
        let md = path(db.schema(), &["state", "area", "edge"]).unwrap();
        let q = QualExpr::cmp_const(0, 1, CmpOp::Gt, 5.0);
        let text = explain(&db, &md, Some(&q)).to_string();
        assert!(text.contains("roots:"));
        assert!(text.contains("node state"));
        assert!(text.contains("estimated adjacency lookups"));
        assert!(text.contains("traversal: CSR snapshot"));
        assert!(text.contains("residual molecule filter"));
    }

    #[test]
    fn diamond_estimate_takes_minimum() {
        let schema = SchemaBuilder::new()
            .atom_type("r", &[("x", AttrType::Int)])
            .atom_type("b", &[("y", AttrType::Int)])
            .atom_type("c", &[("z", AttrType::Int)])
            .atom_type("d", &[("w", AttrType::Int)])
            .link_type("rb", "r", "b")
            .link_type("rc", "r", "c")
            .link_type("bd", "b", "d")
            .link_type("cd", "c", "d")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let t = |db: &Database, n: &str| db.schema().atom_type_id(n).unwrap();
        let l = |db: &Database, n: &str| db.schema().link_type_id(n).unwrap();
        let r1 = db.insert_atom(t(&db, "r"), vec![Value::Int(0)]).unwrap();
        let b1 = db.insert_atom(t(&db, "b"), vec![Value::Int(0)]).unwrap();
        let c1 = db.insert_atom(t(&db, "c"), vec![Value::Int(0)]).unwrap();
        // b has 3 d-children, c has 1 — the ∀-intersection estimate is min
        for i in 0..3 {
            let d = db.insert_atom(t(&db, "d"), vec![Value::Int(i)]).unwrap();
            db.connect(l(&db, "bd"), b1, d).unwrap();
            if i == 0 {
                db.connect(l(&db, "cd"), c1, d).unwrap();
            }
        }
        db.connect(l(&db, "rb"), r1, b1).unwrap();
        db.connect(l(&db, "rc"), r1, c1).unwrap();
        let md = crate::structure::StructureBuilder::new(db.schema())
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
        let plan = explain(&db, &md, None);
        let d_est = plan
            .nodes
            .iter()
            .find(|n| n.alias == "d")
            .unwrap()
            .per_molecule;
        assert!((d_est - 1.0).abs() < 1e-9, "min(3, 1) = 1, got {d_est}");
    }
}
