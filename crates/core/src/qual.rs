//! Qualification formulas `restr(md)` and the predicate `qual(m, restr(md))`
//! of Def. 10.
//!
//! The paper leaves the shape of `qual-formulas(md)` open; we provide the
//! language its §4 examples need (attribute comparisons like
//! `point.name = 'pn'`, boolean connectives) plus the quantifiers and
//! aggregates any practical molecule restriction requires: `EXISTS`/`FORALL`
//! over the atom set of a structure node, `COUNT(node)` comparisons and
//! aggregate comparisons over node attributes.
//!
//! Evaluation uses Kleene three-valued logic; a molecule qualifies when the
//! formula evaluates to *true* (unknown is not enough), matching SQL WHERE
//! semantics.
//!
//! Free attribute references on a non-root node are **existential**: the
//! molecule `point-edge-(area-state,net-river)` qualifies for
//! `state.sname = 'SP'` when *some* state atom in the molecule is SP. Bound
//! references (inside `EXISTS`/`FORALL`) refer to the bound atom.

use crate::molecule::Molecule;
use crate::structure::MoleculeStructure;
use mad_model::{AttrType, FxHashMap, MadError, Result, Schema, Value};
use mad_storage::Database;

pub use mad_model::CmpOp;

/// Aggregate functions over a node's atom set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFn {
    /// Number of atoms at the node (attribute ignored).
    Count,
    /// Sum of a numeric attribute (nulls skipped).
    Sum,
    /// Minimum attribute value.
    Min,
    /// Maximum attribute value.
    Max,
    /// Mean of a numeric attribute.
    Avg,
}

impl AggFn {
    /// The MQL keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            AggFn::Count => "COUNT",
            AggFn::Sum => "SUM",
            AggFn::Min => "MIN",
            AggFn::Max => "MAX",
            AggFn::Avg => "AVG",
        }
    }
}

/// A comparison operand.
#[derive(Clone, Debug, PartialEq)]
pub enum Operand {
    /// `node.attr` — an attribute of atoms playing role `node`.
    Attr {
        /// Structure node index.
        node: usize,
        /// Attribute position within the node's atom type.
        attr: usize,
    },
    /// A constant.
    Const(Value),
}

/// A qualification formula.
#[derive(Clone, Debug, PartialEq)]
pub enum QualExpr {
    /// Always true.
    True,
    /// Conjunction (Kleene).
    And(Box<QualExpr>, Box<QualExpr>),
    /// Disjunction (Kleene).
    Or(Box<QualExpr>, Box<QualExpr>),
    /// Negation (Kleene).
    Not(Box<QualExpr>),
    /// Comparison of two operands.
    Cmp {
        /// Left operand.
        left: Operand,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: Operand,
    },
    /// ∃ atom at `node`: `pred` (with the atom bound).
    Exists {
        /// Quantified structure node.
        node: usize,
        /// Inner predicate.
        pred: Box<QualExpr>,
    },
    /// ∀ atoms at `node`: `pred` (vacuously true on the empty set).
    ForAll {
        /// Quantified structure node.
        node: usize,
        /// Inner predicate.
        pred: Box<QualExpr>,
    },
    /// `COUNT(node) op count`.
    CountCmp {
        /// Counted structure node.
        node: usize,
        /// Operator.
        op: CmpOp,
        /// Compared constant.
        count: i64,
    },
    /// `AGG(node.attr) op value`.
    AggCmp {
        /// Aggregate function.
        agg: AggFn,
        /// Aggregated structure node.
        node: usize,
        /// Aggregated attribute.
        attr: usize,
        /// Operator.
        op: CmpOp,
        /// Compared constant.
        value: Value,
    },
}

impl QualExpr {
    /// `node.attr op value` — the workhorse comparison.
    pub fn cmp_const(node: usize, attr: usize, op: CmpOp, value: impl Into<Value>) -> QualExpr {
        QualExpr::Cmp {
            left: Operand::Attr { node, attr },
            op,
            right: Operand::Const(value.into()),
        }
    }

    /// Conjunction helper.
    pub fn and(self, other: QualExpr) -> QualExpr {
        QualExpr::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: QualExpr) -> QualExpr {
        QualExpr::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    pub fn negate(self) -> QualExpr {
        QualExpr::Not(Box::new(self))
    }

    /// Validate node/attribute references and operand typing against a
    /// structure (the `restr(md) ∈ qual-formulas(md)` requirement).
    pub fn validate(&self, md: &MoleculeStructure, schema: &Schema) -> Result<()> {
        let check_node = |node: usize| -> Result<()> {
            if node >= md.node_count() {
                return Err(MadError::InvalidQualification {
                    detail: format!("node index {node} out of range"),
                });
            }
            Ok(())
        };
        let check_attr = |node: usize, attr: usize| -> Result<AttrType> {
            check_node(node)?;
            let ty = md.nodes()[node].ty;
            let def = schema.atom_type(ty);
            def.attrs
                .get(attr)
                .map(|a| a.ty)
                .ok_or_else(|| MadError::InvalidQualification {
                    detail: format!(
                        "attribute index {attr} out of range for `{}`",
                        def.name
                    ),
                })
        };
        match self {
            QualExpr::True => Ok(()),
            QualExpr::And(a, b) | QualExpr::Or(a, b) => {
                a.validate(md, schema)?;
                b.validate(md, schema)
            }
            QualExpr::Not(a) => a.validate(md, schema),
            QualExpr::Cmp { left, op: _, right } => {
                let lt = match left {
                    Operand::Attr { node, attr } => Some(check_attr(*node, *attr)?),
                    Operand::Const(v) => v.attr_type(),
                };
                let rt = match right {
                    Operand::Attr { node, attr } => Some(check_attr(*node, *attr)?),
                    Operand::Const(v) => v.attr_type(),
                };
                if let (Some(l), Some(r)) = (lt, rt) {
                    let numeric =
                        |t: AttrType| matches!(t, AttrType::Int | AttrType::Float);
                    let comparable = l == r || (numeric(l) && numeric(r));
                    if !comparable {
                        return Err(MadError::InvalidQualification {
                            detail: format!("cannot compare {l} with {r}"),
                        });
                    }
                }
                Ok(())
            }
            QualExpr::Exists { node, pred } | QualExpr::ForAll { node, pred } => {
                check_node(*node)?;
                pred.validate(md, schema)
            }
            QualExpr::CountCmp { node, .. } => check_node(*node),
            QualExpr::AggCmp {
                agg, node, attr, value, ..
            } => {
                let t = check_attr(*node, *attr)?;
                if matches!(agg, AggFn::Sum | AggFn::Avg)
                    && !matches!(t, AttrType::Int | AttrType::Float)
                {
                    return Err(MadError::InvalidQualification {
                        detail: format!("{} requires a numeric attribute", agg.keyword()),
                    });
                }
                if let Some(vt) = value.attr_type() {
                    let numeric =
                        |t: AttrType| matches!(t, AttrType::Int | AttrType::Float);
                    let ok = match agg {
                        AggFn::Count => numeric(vt),
                        AggFn::Sum | AggFn::Avg => numeric(vt),
                        AggFn::Min | AggFn::Max => vt == t || (numeric(vt) && numeric(t)),
                    };
                    if !ok {
                        return Err(MadError::InvalidQualification {
                            detail: format!(
                                "{}({}.{attr}) is not comparable with {value}",
                                agg.keyword(),
                                md.nodes()[*node].alias
                            ),
                        });
                    }
                }
                Ok(())
            }
        }
    }

    /// The predicate `qual(m, restr(md))`: does molecule `m` qualify?
    /// (Unknown collapses to *false* at the top, like SQL WHERE.)
    pub fn qualifies(&self, db: &Database, m: &Molecule) -> bool {
        self.eval(db, m, &mut FxHashMap::default()) == Some(true)
    }

    /// Kleene evaluation under bindings (`node → atom index within
    /// `m.atoms[node]``). The binding map is threaded mutably — quantifiers
    /// insert before and restore after evaluating their body, instead of
    /// cloning the whole map once per quantified atom.
    fn eval(
        &self,
        db: &Database,
        m: &Molecule,
        bind: &mut FxHashMap<usize, mad_model::AtomId>,
    ) -> Option<bool> {
        match self {
            QualExpr::True => Some(true),
            QualExpr::And(a, b) => match (a.eval(db, m, bind), b.eval(db, m, bind)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            QualExpr::Or(a, b) => match (a.eval(db, m, bind), b.eval(db, m, bind)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            QualExpr::Not(a) => a.eval(db, m, bind).map(|b| !b),
            QualExpr::Cmp { left, op, right } => self.eval_cmp(db, m, bind, left, *op, right),
            QualExpr::Exists { node, pred } => {
                let saved = bind.get(node).copied();
                let mut unknown = false;
                let mut found = false;
                for &a in m.atoms_at(*node) {
                    bind.insert(*node, a);
                    match pred.eval(db, m, bind) {
                        Some(true) => {
                            found = true;
                            break;
                        }
                        None => unknown = true,
                        Some(false) => {}
                    }
                }
                restore_binding(bind, *node, saved);
                match (found, unknown) {
                    (true, _) => Some(true),
                    (false, true) => None,
                    (false, false) => Some(false),
                }
            }
            QualExpr::ForAll { node, pred } => {
                let saved = bind.get(node).copied();
                let mut unknown = false;
                let mut refuted = false;
                for &a in m.atoms_at(*node) {
                    bind.insert(*node, a);
                    match pred.eval(db, m, bind) {
                        Some(false) => {
                            refuted = true;
                            break;
                        }
                        None => unknown = true,
                        Some(true) => {}
                    }
                }
                restore_binding(bind, *node, saved);
                match (refuted, unknown) {
                    (true, _) => Some(false),
                    (false, true) => None,
                    (false, false) => Some(true),
                }
            }
            QualExpr::CountCmp { node, op, count } => {
                let n = m.atoms_at(*node).len() as i64;
                Some(op.test(n.cmp(count)))
            }
            QualExpr::AggCmp {
                agg,
                node,
                attr,
                op,
                value,
            } => {
                let agg_val = self.aggregate(db, m, *agg, *node, *attr)?;
                agg_val.sql_cmp(value).map(|ord| op.test(ord))
            }
        }
    }

    fn eval_cmp(
        &self,
        db: &Database,
        m: &Molecule,
        bind: &FxHashMap<usize, mad_model::AtomId>,
        left: &Operand,
        op: CmpOp,
        right: &Operand,
    ) -> Option<bool> {
        // Resolve each operand into its candidate values; free node refs are
        // existential over the node's atom set. Values are borrowed from the
        // store (`db.atom_value`) or from the formula — never cloned.
        let lvals = operand_values(db, m, bind, left)?;
        let rvals = operand_values(db, m, bind, right)?;
        let mut unknown = false;
        for l in &lvals {
            for r in &rvals {
                match l.sql_cmp(r) {
                    Some(ord) => {
                        if op.test(ord) {
                            return Some(true);
                        }
                    }
                    None => unknown = true,
                }
            }
        }
        // no witness: definite false unless some comparison was unknown;
        // an empty node set ("no atom") is a definite false
        if unknown {
            None
        } else {
            Some(false)
        }
    }

    fn aggregate(
        &self,
        db: &Database,
        m: &Molecule,
        agg: AggFn,
        node: usize,
        attr: usize,
    ) -> Option<Value> {
        let atoms = m.atoms_at(node);
        if agg == AggFn::Count {
            return Some(Value::Int(atoms.len() as i64));
        }
        let vals: Vec<&Value> = atoms
            .iter()
            .filter_map(|&a| db.atom_value(a, attr).ok())
            .filter(|v| !v.is_null())
            .collect();
        if vals.is_empty() {
            return None; // SQL: aggregate of the empty set is NULL
        }
        match agg {
            AggFn::Count => unreachable!(),
            AggFn::Min => vals.into_iter().min().cloned(),
            AggFn::Max => vals.into_iter().max().cloned(),
            AggFn::Sum | AggFn::Avg => {
                let mut all_int = true;
                let mut sum_f = 0.0f64;
                let mut sum_i = 0i64;
                let n = vals.len();
                for v in vals {
                    match v {
                        Value::Int(i) => {
                            sum_i = sum_i.wrapping_add(*i);
                            sum_f += *i as f64;
                        }
                        Value::Float(x) => {
                            all_int = false;
                            sum_f += *x;
                        }
                        _ => return None,
                    }
                }
                Some(if agg == AggFn::Avg {
                    Value::Float(sum_f / n as f64)
                } else if all_int {
                    Value::Int(sum_i)
                } else {
                    Value::Float(sum_f)
                })
            }
        }
    }

    /// Extract the simple `node.attr op const` conjuncts of the top-level
    /// AND spine, for **every** structure node — the raw material of the
    /// qualification-pushdown planner. Conservative: nothing under `OR`,
    /// `NOT` or a quantifier is mined, and the full formula is still
    /// evaluated per molecule afterwards.
    ///
    /// A conjunct on a non-root node is a free (existential) reference, so
    /// it certifies only that a qualifying molecule must contain a
    /// *witness* atom at that node — which is exactly how
    /// `derive_bitset_pruned` uses it.
    pub fn node_conjuncts(&self) -> Vec<NodeConjunct> {
        let mut out = Vec::new();
        self.collect_node_conjuncts(&mut out);
        out
    }

    /// [`QualExpr::node_conjuncts`] restricted to the root node (the
    /// original benchmark-B4 extraction; kept for the root preselection
    /// path).
    pub fn root_conjuncts(&self, root: usize) -> Vec<(usize, CmpOp, Value)> {
        self.node_conjuncts()
            .into_iter()
            .filter(|c| c.node == root)
            .map(|c| (c.attr, c.op, c.value))
            .collect()
    }

    fn collect_node_conjuncts(&self, out: &mut Vec<NodeConjunct>) {
        match self {
            QualExpr::And(a, b) => {
                a.collect_node_conjuncts(out);
                b.collect_node_conjuncts(out);
            }
            QualExpr::Cmp {
                left: Operand::Attr { node, attr },
                op,
                right: Operand::Const(v),
            } => out.push(NodeConjunct {
                node: *node,
                attr: *attr,
                op: *op,
                value: v.clone(),
            }),
            QualExpr::Cmp {
                left: Operand::Const(v),
                op,
                right: Operand::Attr { node, attr },
            } => {
                // flip the comparison
                let flipped = match op {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                    other => *other,
                };
                out.push(NodeConjunct {
                    node: *node,
                    attr: *attr,
                    op: flipped,
                    value: v.clone(),
                });
            }
            _ => {}
        }
    }

    /// Render in MQL WHERE syntax (aliases resolved through `md`).
    pub fn render(&self, md: &MoleculeStructure, schema: &Schema) -> String {
        let attr_name = |node: usize, attr: usize| {
            let alias = &md.nodes()[node].alias;
            let def = schema.atom_type(md.nodes()[node].ty);
            format!("{alias}.{}", def.attrs[attr].name)
        };
        match self {
            QualExpr::True => "TRUE".to_owned(),
            QualExpr::And(a, b) => {
                format!("({} AND {})", a.render(md, schema), b.render(md, schema))
            }
            QualExpr::Or(a, b) => {
                format!("({} OR {})", a.render(md, schema), b.render(md, schema))
            }
            QualExpr::Not(a) => format!("(NOT {})", a.render(md, schema)),
            QualExpr::Cmp { left, op, right } => {
                let f = |o: &Operand| match o {
                    Operand::Attr { node, attr } => attr_name(*node, *attr),
                    Operand::Const(v) => v.to_string(),
                };
                format!("{} {} {}", f(left), op.symbol(), f(right))
            }
            QualExpr::Exists { node, pred } => format!(
                "EXISTS({}: {})",
                md.nodes()[*node].alias,
                pred.render(md, schema)
            ),
            QualExpr::ForAll { node, pred } => format!(
                "FORALL({}: {})",
                md.nodes()[*node].alias,
                pred.render(md, schema)
            ),
            QualExpr::CountCmp { node, op, count } => format!(
                "COUNT({}) {} {}",
                md.nodes()[*node].alias,
                op.symbol(),
                count
            ),
            QualExpr::AggCmp {
                agg,
                node,
                attr,
                op,
                value,
            } => format!(
                "{}({}) {} {}",
                agg.keyword(),
                attr_name(*node, *attr),
                op.symbol(),
                value
            ),
        }
    }
}

/// One pushable `node.attr op const` conjunct of the top-level AND spine
/// (see [`QualExpr::node_conjuncts`]).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeConjunct {
    /// The referenced structure node.
    pub node: usize,
    /// The attribute position within the node's atom type.
    pub attr: usize,
    /// The comparison, normalized so the attribute is on the left.
    pub op: CmpOp,
    /// The compared constant.
    pub value: Value,
}

fn restore_binding(
    bind: &mut FxHashMap<usize, mad_model::AtomId>,
    node: usize,
    saved: Option<mad_model::AtomId>,
) {
    match saved {
        Some(a) => {
            bind.insert(node, a);
        }
        None => {
            bind.remove(&node);
        }
    }
}

/// Candidate values of an operand, borrowed from the store or the formula.
fn operand_values<'a>(
    db: &'a Database,
    m: &Molecule,
    bind: &FxHashMap<usize, mad_model::AtomId>,
    operand: &'a Operand,
) -> Option<Vec<&'a Value>> {
    match operand {
        Operand::Const(v) => Some(vec![v]),
        Operand::Attr { node, attr } => {
            if let Some(&a) = bind.get(node) {
                db.atom_value(a, *attr).ok().map(|v| vec![v])
            } else {
                Some(
                    m.atoms_at(*node)
                        .iter()
                        .filter_map(|&a| db.atom_value(a, *attr).ok())
                        .collect(),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::derive_one;
    use crate::structure::path;
    use mad_model::{AttrType, SchemaBuilder};

    fn db_and_molecule() -> (Database, MoleculeStructure, Molecule) {
        let schema = SchemaBuilder::new()
            .atom_type(
                "state",
                &[("sname", AttrType::Text), ("pop", AttrType::Int)],
            )
            .atom_type(
                "area",
                &[("aid", AttrType::Int), ("hectare", AttrType::Float)],
            )
            .link_type("state-area", "state", "area")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let s = db
            .insert_atom(state, vec![Value::from("SP"), Value::from(40)])
            .unwrap();
        let a1 = db
            .insert_atom(area, vec![Value::from(1), Value::from(500.0)])
            .unwrap();
        let a2 = db
            .insert_atom(area, vec![Value::from(2), Value::from(1500.0)])
            .unwrap();
        db.connect(sa, s, a1).unwrap();
        db.connect(sa, s, a2).unwrap();
        let md = path(db.schema(), &["state", "area"]).unwrap();
        let m = derive_one(&db, &md, s).unwrap();
        (db, md, m)
    }

    #[test]
    fn root_comparison() {
        let (db, _, m) = db_and_molecule();
        assert!(QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP").qualifies(&db, &m));
        assert!(!QualExpr::cmp_const(0, 0, CmpOp::Eq, "MG").qualifies(&db, &m));
        assert!(QualExpr::cmp_const(0, 1, CmpOp::Gt, 30).qualifies(&db, &m));
    }

    #[test]
    fn child_comparison_is_existential() {
        let (db, _, m) = db_and_molecule();
        // some area has hectare > 1000
        assert!(QualExpr::cmp_const(1, 1, CmpOp::Gt, 1000.0).qualifies(&db, &m));
        // no area has hectare > 2000
        assert!(!QualExpr::cmp_const(1, 1, CmpOp::Gt, 2000.0).qualifies(&db, &m));
    }

    #[test]
    fn forall_and_exists() {
        let (db, _, m) = db_and_molecule();
        let all_big = QualExpr::ForAll {
            node: 1,
            pred: Box::new(QualExpr::cmp_const(1, 1, CmpOp::Gt, 100.0)),
        };
        assert!(all_big.qualifies(&db, &m));
        let all_huge = QualExpr::ForAll {
            node: 1,
            pred: Box::new(QualExpr::cmp_const(1, 1, CmpOp::Gt, 1000.0)),
        };
        assert!(!all_huge.qualifies(&db, &m));
        let some_huge = QualExpr::Exists {
            node: 1,
            pred: Box::new(QualExpr::cmp_const(1, 1, CmpOp::Gt, 1000.0)),
        };
        assert!(some_huge.qualifies(&db, &m));
    }

    #[test]
    fn negation_of_existential_uses_forall_semantics() {
        let (db, _, m) = db_and_molecule();
        // NOT (some area > 2000)  — true, since none is
        let q = QualExpr::cmp_const(1, 1, CmpOp::Gt, 2000.0).negate();
        assert!(q.qualifies(&db, &m));
        // NOT (some area > 1000) — false, a2 is
        let q = QualExpr::cmp_const(1, 1, CmpOp::Gt, 1000.0).negate();
        assert!(!q.qualifies(&db, &m));
    }

    #[test]
    fn count_and_aggregates() {
        let (db, _, m) = db_and_molecule();
        assert!(QualExpr::CountCmp {
            node: 1,
            op: CmpOp::Eq,
            count: 2
        }
        .qualifies(&db, &m));
        assert!(QualExpr::AggCmp {
            agg: AggFn::Sum,
            node: 1,
            attr: 1,
            op: CmpOp::Eq,
            value: Value::Float(2000.0),
        }
        .qualifies(&db, &m));
        assert!(QualExpr::AggCmp {
            agg: AggFn::Avg,
            node: 1,
            attr: 1,
            op: CmpOp::Eq,
            value: Value::Float(1000.0),
        }
        .qualifies(&db, &m));
        assert!(QualExpr::AggCmp {
            agg: AggFn::Max,
            node: 1,
            attr: 1,
            op: CmpOp::Ge,
            value: Value::Float(1500.0),
        }
        .qualifies(&db, &m));
        assert!(QualExpr::AggCmp {
            agg: AggFn::Min,
            node: 1,
            attr: 1,
            op: CmpOp::Lt,
            value: Value::Float(501.0),
        }
        .qualifies(&db, &m));
    }

    #[test]
    fn and_or_combinators() {
        let (db, _, m) = db_and_molecule();
        let q = QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP")
            .and(QualExpr::cmp_const(1, 1, CmpOp::Gt, 1000.0));
        assert!(q.qualifies(&db, &m));
        let q = QualExpr::cmp_const(0, 0, CmpOp::Eq, "MG")
            .or(QualExpr::cmp_const(1, 1, CmpOp::Gt, 1000.0));
        assert!(q.qualifies(&db, &m));
        let q = QualExpr::cmp_const(0, 0, CmpOp::Eq, "MG")
            .and(QualExpr::cmp_const(1, 1, CmpOp::Gt, 1000.0));
        assert!(!q.qualifies(&db, &m));
    }

    #[test]
    fn null_comparisons_are_unknown() {
        let (mut db, _, _) = db_and_molecule();
        let state = db.schema().atom_type_id("state").unwrap();
        let s = db
            .insert_atom(state, vec![Value::Null, Value::Null])
            .unwrap();
        let md = path(db.schema(), &["state", "area"]).unwrap();
        let m = derive_one(&db, &md, s).unwrap();
        // NULL = 'SP' is unknown → does not qualify
        assert!(!QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP").qualifies(&db, &m));
        // NOT (NULL = 'SP') is also unknown → does not qualify
        assert!(!QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP")
            .negate()
            .qualifies(&db, &m));
    }

    #[test]
    fn validation_catches_bad_references() {
        let (db, md, _) = db_and_molecule();
        let schema = db.schema();
        assert!(QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP")
            .validate(&md, schema)
            .is_ok());
        assert!(QualExpr::cmp_const(7, 0, CmpOp::Eq, "SP")
            .validate(&md, schema)
            .is_err());
        assert!(QualExpr::cmp_const(0, 9, CmpOp::Eq, "SP")
            .validate(&md, schema)
            .is_err());
        // type mismatch: text attr vs int const
        assert!(QualExpr::cmp_const(0, 0, CmpOp::Eq, 3)
            .validate(&md, schema)
            .is_err());
        // SUM over text attr
        assert!(QualExpr::AggCmp {
            agg: AggFn::Sum,
            node: 0,
            attr: 0,
            op: CmpOp::Eq,
            value: Value::Int(1),
        }
        .validate(&md, schema)
        .is_err());
        // numeric widening is fine
        assert!(QualExpr::cmp_const(1, 1, CmpOp::Gt, 10)
            .validate(&md, schema)
            .is_ok());
    }

    #[test]
    fn root_conjunct_extraction() {
        let q = QualExpr::cmp_const(0, 1, CmpOp::Gt, 10)
            .and(QualExpr::cmp_const(1, 0, CmpOp::Eq, 5).and(QualExpr::Cmp {
                left: Operand::Const(Value::Int(3)),
                op: CmpOp::Lt,
                right: Operand::Attr { node: 0, attr: 1 },
            }));
        let cj = q.root_conjuncts(0);
        assert_eq!(cj.len(), 2);
        assert_eq!(cj[0], (1, CmpOp::Gt, Value::Int(10)));
        // flipped: 3 < root.pop  →  root.pop > 3
        assert_eq!(cj[1], (1, CmpOp::Gt, Value::Int(3)));
        // nothing under OR
        let q = QualExpr::cmp_const(0, 1, CmpOp::Gt, 10)
            .or(QualExpr::cmp_const(0, 1, CmpOp::Lt, 5));
        assert!(q.root_conjuncts(0).is_empty());
    }

    #[test]
    fn render_is_readable() {
        let (db, md, _) = db_and_molecule();
        let q = QualExpr::cmp_const(0, 0, CmpOp::Eq, "SP")
            .and(QualExpr::cmp_const(1, 1, CmpOp::Gt, 1000.0));
        assert_eq!(
            q.render(&md, db.schema()),
            "(state.sname = 'SP' AND area.hectare > 1000.0)"
        );
    }
}
