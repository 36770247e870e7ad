//! Statement execution: the translation of analyzed MQL statements into
//! molecule-algebra operations (the semantics definition of §4).
//!
//! A query reads and never writes: its result has one consumer, the
//! renderer or binary encoder, and never another operator, so Σ and Π run
//! without propagation (Def. 9) and the result names the atoms of the
//! image it was evaluated over.

use crate::analyze::{analyze_expr, analyze_structure};
use crate::ast::*;
use mad_core::derive::{derive_molecules, DeriveOptions, Strategy};
use mad_core::molecule::MoleculeType;
use mad_core::ops::{evaluate_restricted, project_set};
use mad_core::qual::QualExpr;
use mad_core::recursive::{derive_recursive, RecursiveMolecule, RecursiveSpec};
use mad_core::structure::MoleculeStructure;
use mad_model::{AtomId, CmpOp, FxHashMap, MadError, Result, Value};
use mad_obs::trace::{StageKind, StageTimer};
use mad_obs::StmtTrace;
use mad_storage::database::Direction;
use mad_storage::Database;
use mad_txn::Transaction;

/// The result of executing one MQL statement.
#[derive(Debug)]
pub enum StatementResult {
    /// A SELECT produced a molecule type.
    Molecules(MoleculeType),
    /// EXPLAIN produced an execution plan.
    Plan(mad_core::explain::Plan),
    /// A SELECT over a recursive FROM clause produced recursive molecules.
    Recursive(Vec<RecursiveMolecule>),
    /// DEFINE MOLECULE registered a named structure.
    Defined(String),
    /// INSERT ATOM created an atom.
    Inserted(AtomId),
    /// CONNECT added a link (`false` = it already existed).
    Connected(bool),
    /// DISCONNECT removed a link (`false` = it did not exist).
    Disconnected(bool),
    /// DELETE ATOM removed atoms and cascaded links.
    Deleted {
        /// Number of atoms deleted.
        atoms: usize,
        /// Number of links cascaded away.
        links: usize,
    },
    /// UPDATE modified atoms.
    Updated {
        /// Number of atoms updated.
        atoms: usize,
    },
    /// BEGIN opened a transaction.
    Began,
    /// COMMIT validated and published the transaction.
    Committed {
        /// The commit sequence number the write-set was published at (0
        /// for a read-only transaction, which publishes nothing). Network
        /// clients use it to reason about what a later snapshot — or a
        /// recovery after a crash — must still contain.
        seq: u64,
        /// Number of DML operations published.
        ops: usize,
        /// Transaction-born atoms whose committed id differs from the
        /// provisional id reported by the in-transaction INSERT (possible
        /// only when other sessions committed inserts of the same type
        /// concurrently). Callers that stored provisional ids must map
        /// them through this before further use.
        remap: FxHashMap<AtomId, AtomId>,
    },
    /// ABORT dropped the transaction's overlay.
    Aborted,
    /// CHECKPOINT folded the write-ahead log into a fresh bootstrap image.
    Checkpointed(mad_txn::CheckpointStats),
    /// SHOW STATS rendered the metrics registry (the session pre-renders
    /// it, since only the session knows which registry the deployment
    /// shares).
    Stats(String),
    /// EXPLAIN ANALYZE executed the inner statement and captured its
    /// per-stage timing trace.
    Analyzed {
        /// The inner statement's own result.
        inner: Box<StatementResult>,
        /// The recorded per-stage timings.
        trace: StmtTrace,
    },
    /// PREPARE cached a statement under a name.
    Prepared(String),
    /// DEALLOCATE dropped prepared statements from the session cache.
    Deallocated {
        /// The dropped name (`None` for `DEALLOCATE ALL`).
        name: Option<String>,
        /// How many cache entries were dropped.
        count: usize,
    },
}

/// Is `stmt` a manipulation statement (routed through [`execute_dml`])?
pub fn is_dml(stmt: &Statement) -> bool {
    matches!(
        stmt,
        Statement::InsertAtom { .. }
            | Statement::Connect { .. }
            | Statement::Disconnect { .. }
            | Statement::DeleteAtom { .. }
            | Statement::Update { .. }
    )
}

/// Execute a manipulation statement inside `txn`. Selectors and schema
/// lookups resolve against the transaction's view, its own uncommitted
/// writes included. A statement that fails part-way leaves earlier writes
/// in the overlay; the session's autocommit path drops the transaction, so
/// the statement as a whole has no effect.
pub fn execute_dml(txn: &mut Transaction, stmt: &Statement) -> Result<StatementResult> {
    match stmt {
        Statement::InsertAtom { atom_type, values } => {
            let ty = txn.db().schema().atom_type_id(atom_type)?;
            let def = txn.db().schema().atom_type(ty).clone();
            let mut tuple = vec![Value::Null; def.arity()];
            for (attr, lit) in values {
                let pos = def.attr_index(attr).ok_or_else(|| MadError::Analysis {
                    detail: format!("atom type `{atom_type}` has no attribute `{attr}`"),
                })?;
                tuple[pos] = lit.to_value();
            }
            let id = txn.insert_atom(ty, tuple)?;
            Ok(StatementResult::Inserted(id))
        }
        Statement::Connect { from, to, link } => {
            let lt = txn.db().schema().link_type_id(link)?;
            let a = select_one(txn.db(), from)?;
            let b = select_one(txn.db(), to)?;
            let added = if txn.db().schema().link_type(lt).is_reflexive() {
                txn.connect(lt, a, b)?
            } else {
                txn.connect_sym(lt, a, b)?
            };
            Ok(StatementResult::Connected(added))
        }
        Statement::Disconnect { from, to, link } => {
            let lt = txn.db().schema().link_type_id(link)?;
            let a = select_one(txn.db(), from)?;
            let b = select_one(txn.db(), to)?;
            let def = txn.db().schema().link_type(lt).clone();
            // reflexive link types take the selectors as written (side 0 =
            // `from`); otherwise orient by endpoint type
            let removed = if def.is_reflexive() || a.ty == def.ends[0] {
                txn.disconnect(lt, a, b)?
            } else {
                txn.disconnect(lt, b, a)?
            };
            Ok(StatementResult::Disconnected(removed))
        }
        Statement::DeleteAtom { selector } => {
            let ids = select_atoms(txn.db(), selector)?;
            let mut links = 0usize;
            let count = ids.len();
            for id in ids {
                links += txn.delete_atom(id)?;
            }
            Ok(StatementResult::Deleted {
                atoms: count,
                links,
            })
        }
        Statement::Update { selector, sets } => {
            let ids = select_atoms(txn.db(), selector)?;
            let ty = txn.db().schema().atom_type_id(&selector.atom_type)?;
            let def = txn.db().schema().atom_type(ty).clone();
            let mut resolved = Vec::with_capacity(sets.len());
            for (attr, lit) in sets {
                let pos = def.attr_index(attr).ok_or_else(|| MadError::Analysis {
                    detail: format!(
                        "atom type `{}` has no attribute `{attr}`",
                        selector.atom_type
                    ),
                })?;
                resolved.push((pos, lit.to_value()));
            }
            for &id in &ids {
                for (pos, v) in &resolved {
                    txn.update_attr(id, *pos, v.clone())?;
                }
            }
            Ok(StatementResult::Updated { atoms: ids.len() })
        }
        other => Err(MadError::Analysis {
            detail: format!("not a DML statement: {other:?}"),
        }),
    }
}

/// Execute an analyzed query or definition over `db`, resolving named
/// molecule types through `catalog`.
pub fn execute(
    db: &Database,
    catalog: &mut FxHashMap<String, MoleculeStructure>,
    stmt: &Statement,
) -> Result<StatementResult> {
    match stmt {
        Statement::Select(sel) => execute_select(db, catalog, sel),
        Statement::Explain(sel) => execute_explain(db, catalog, sel),
        Statement::Define { name, structure } => {
            let md = analyze_structure(db.schema(), structure)?;
            catalog.insert(name.clone(), md);
            Ok(StatementResult::Defined(name.clone()))
        }
        Statement::InsertAtom { .. }
        | Statement::Connect { .. }
        | Statement::Disconnect { .. }
        | Statement::DeleteAtom { .. }
        | Statement::Update { .. } => Err(MadError::txn_state(
            "manipulation statements run inside a transaction (execute_dml)",
        )),
        Statement::Begin | Statement::Commit | Statement::Abort | Statement::Checkpoint => {
            Err(MadError::txn_state(
                "transaction control statements are handled by the session",
            ))
        }
        Statement::ShowStats { .. } | Statement::ExplainAnalyze(_) => Err(MadError::txn_state(
            "observability statements are handled by the session",
        )),
        Statement::Prepare { .. }
        | Statement::ExecutePrepared { .. }
        | Statement::Deallocate { .. } => Err(MadError::txn_state(
            "prepared-statement control is handled by the session",
        )),
    }
}

fn select_atoms(db: &Database, sel: &AtomSelector) -> Result<Vec<AtomId>> {
    let ty = db.schema().atom_type_id(&sel.atom_type)?;
    let def = db.schema().atom_type(ty);
    let pos = def.attr_index(&sel.attr).ok_or_else(|| MadError::Analysis {
        detail: format!(
            "atom type `{}` has no attribute `{}`",
            sel.atom_type, sel.attr
        ),
    })?;
    Ok(db
        .slots_where(ty, pos, CmpOp::Eq, &sel.value.to_value())
        .into_iter()
        .map(|slot| AtomId::new(ty, slot))
        .collect())
}

fn select_one(db: &Database, sel: &AtomSelector) -> Result<AtomId> {
    let hits = select_atoms(db, sel)?;
    match hits.as_slice() {
        [one] => Ok(*one),
        [] => Err(MadError::Analysis {
            detail: format!(
                "selector {}[{} = {}] matches no atom",
                sel.atom_type,
                sel.attr,
                sel.value.to_value()
            ),
        }),
        many => Err(MadError::Analysis {
            detail: format!(
                "selector {}[{} = {}] is ambiguous ({} atoms)",
                sel.atom_type,
                sel.attr,
                sel.value.to_value(),
                many.len()
            ),
        }),
    }
}

fn execute_explain(
    db: &Database,
    catalog: &mut FxHashMap<String, MoleculeStructure>,
    sel: &SelectStmt,
) -> Result<StatementResult> {
    if matches!(sel.from, FromClause::Recursive { .. }) {
        return Err(MadError::Analysis {
            detail: "EXPLAIN does not support recursive FROM clauses".into(),
        });
    }
    let md = match &sel.from {
        FromClause::Named(n) => catalog
            .get(n)
            .cloned()
            .ok_or_else(|| MadError::unknown("molecule type", n))?,
        FromClause::Inline { structure, .. } => analyze_structure(db.schema(), structure)?,
        FromClause::Recursive { .. } => unreachable!(),
    };
    let qual = match &sel.where_clause {
        Some(w) => Some(analyze_expr(db.schema(), &md, w)?),
        None => None,
    };
    // describe the snapshot the SELECT would traverse: its derivation
    // builds it first, so the plan does not depend on what ran before
    let _ = db.csr_snapshot();
    Ok(StatementResult::Plan(mad_core::explain::explain(
        db,
        &md,
        qual.as_ref(),
    )))
}

/// An analyzed, parameter-free SELECT: name resolution, structure
/// validation and WHERE typing already done, ready for repeated
/// derivation without re-lexing/-parsing/-analyzing. This is what a
/// session caches per prepared statement.
#[derive(Clone, Debug)]
pub struct PreparedPlan {
    /// The name the result is reported under.
    pub name: String,
    /// The validated structure.
    pub md: MoleculeStructure,
    /// The typed WHERE qualification, when present.
    pub qual: Option<QualExpr>,
    /// The SELECT-list projection.
    pub projection: Projection,
}

/// Analyze `sel` against the schema of `db` (a [`Database`] or an
/// engine) into a reusable [`PreparedPlan`]. Returns `None` for recursive
/// FROM clauses, which bypass the molecule-algebra pipeline and are not
/// plan-cacheable.
pub fn plan_select(
    db: impl AsRef<Database>,
    catalog: &mut FxHashMap<String, MoleculeStructure>,
    sel: &SelectStmt,
) -> Result<Option<PreparedPlan>> {
    let schema = db.as_ref().schema();
    let (name, md) = match &sel.from {
        FromClause::Named(n) => match catalog.get(n) {
            Some(md) => (n.clone(), md.clone()),
            None => {
                // fall back: a bare atom-type name is the single-node
                // structure over that type
                if schema.atom_type_id(n).is_ok() {
                    (n.clone(), mad_core::structure::path(schema, &[n])?)
                } else {
                    return Err(MadError::unknown("molecule type", n));
                }
            }
        },
        FromClause::Inline { name, structure } => {
            let md = analyze_structure(schema, structure)?;
            let n = name.clone().unwrap_or_else(|| "result".to_owned());
            if let Some(n) = name {
                catalog.insert(n.clone(), md.clone());
            }
            (n, md)
        }
        FromClause::Recursive { .. } => return Ok(None),
    };
    let qual = match &sel.where_clause {
        Some(w) => Some(analyze_expr(schema, &md, w)?),
        None => None,
    };
    Ok(Some(PreparedPlan {
        name,
        md,
        qual,
        projection: sel.projection.clone(),
    }))
}

/// Derive and project a previously planned SELECT over the **current**
/// image of `db` (a [`Database`] or an engine) — a plan is analysis only,
/// so re-executing it always sees fresh data. Nothing is written: the
/// result is the plan's name and structure over the image's own atoms.
pub fn execute_planned(db: impl AsRef<Database>, plan: &PreparedPlan) -> Result<StatementResult> {
    let db = db.as_ref();
    // WHERE → Σ (pushed into the definition, Def. 10 composed with Def. 8),
    // derived by the bitset engine over the CSR snapshot
    let strategy = Strategy::Bitset;
    let dt = StageTimer::start(StageKind::Derive);
    let molecules = match &plan.qual {
        Some(qual) => evaluate_restricted(db, &plan.md, qual, strategy)?,
        None => derive_molecules(db, &plan.md, &DeriveOptions::with_strategy(strategy))?,
    };
    let mt = MoleculeType {
        name: plan.name.clone(),
        structure: plan.md.clone(),
        molecules,
        attrs: Vec::new(),
    };
    if dt.is_timing() {
        let (csr_rebuilt, csr_pairs) = db.csr_rebuild_stats().unwrap_or((0, 0));
        dt.finish_with(
            Some(format!("{strategy:?}")),
            &[
                ("csr_rebuilt", mad_model::bin::u64_of_usize(csr_rebuilt)),
                ("csr_pairs", mad_model::bin::u64_of_usize(csr_pairs)),
                ("molecules", mad_model::bin::u64_of_usize(mt.len())),
            ],
        );
    } else {
        dt.finish();
    }
    // SELECT list → Π
    let mt = apply_projection(db, mt, &plan.projection)?;
    Ok(StatementResult::Molecules(mt))
}

fn execute_select(
    db: &Database,
    catalog: &mut FxHashMap<String, MoleculeStructure>,
    sel: &SelectStmt,
) -> Result<StatementResult> {
    // recursive FROM is its own path
    if let FromClause::Recursive {
        atom_type,
        link,
        dir,
        depth,
    } = &sel.from
    {
        return execute_recursive(db, sel, atom_type, link, *dir, *depth);
    }
    match plan_select(db, catalog, sel)? {
        Some(plan) => execute_planned(db, &plan),
        None => Err(MadError::Analysis {
            detail: "recursive FROM clauses are not plannable".into(),
        }),
    }
}

fn apply_projection(
    db: &Database,
    mt: MoleculeType,
    projection: &Projection,
) -> Result<MoleculeType> {
    let items = match projection {
        Projection::All => return Ok(mt),
        Projection::Items(items) => items,
    };
    // keep set in structure order, attribute projections merged per node
    let mut keep: Vec<&str> = Vec::new();
    let mut attr_proj: Vec<(&str, Vec<&str>)> = Vec::new();
    for item in items {
        if mt.structure.node_by_alias(&item.node).is_none() {
            return Err(MadError::Analysis {
                detail: format!("projection names unknown node `{}`", item.node),
            });
        }
        if !keep.contains(&item.node.as_str()) {
            keep.push(&item.node);
        }
        if let Some(attr) = &item.attr {
            match attr_proj.iter_mut().find(|(n, _)| *n == item.node) {
                Some((_, attrs)) => {
                    if !attrs.contains(&attr.as_str()) {
                        attrs.push(attr);
                    }
                }
                None => attr_proj.push((&item.node, vec![attr])),
            }
        } else {
            // whole-node item: drop any attribute restriction
            attr_proj.retain(|(n, _)| *n != item.node);
        }
    }
    project_set(db.schema(), &mt, &keep, &attr_proj)
}

fn execute_recursive(
    db: &Database,
    sel: &SelectStmt,
    atom_type: &str,
    link: &str,
    dir: RecDir,
    depth: Option<usize>,
) -> Result<StatementResult> {
    if !matches!(sel.projection, Projection::All) {
        return Err(MadError::Analysis {
            detail: "recursive queries support SELECT ALL only".into(),
        });
    }
    let ty = db.schema().atom_type_id(atom_type)?;
    let lt = db.schema().link_type_id(link)?;
    let spec = RecursiveSpec {
        atom_type: ty,
        link: lt,
        dir: match dir {
            RecDir::Down => Direction::Fwd,
            RecDir::Up => Direction::Bwd,
            RecDir::Both => Direction::Sym,
        },
        max_depth: depth,
    };
    spec.validate(db)?;
    // WHERE restricts the ROOT set, evaluated on the single-node structure
    let roots: Option<Vec<AtomId>> = match &sel.where_clause {
        None => None,
        Some(w) => {
            let md = mad_core::structure::path(db.schema(), &[atom_type])?;
            let qual: QualExpr = analyze_expr(db.schema(), &md, w)?;
            let ids = db
                .atom_ids_of(ty)
                .into_iter()
                .filter(|&id| {
                    let m = mad_core::molecule::Molecule::single(id, 1, 0, 0);
                    qual.qualifies(db, &m)
                })
                .collect();
            Some(ids)
        }
    };
    let ms = derive_recursive(db, &spec, roots.as_deref())?;
    Ok(StatementResult::Recursive(ms))
}
