//! The MQL session: a database + engine + named-molecule-type catalog,
//! with transactions and shared-handle serving.
//!
//! A [`Session`] is the user-facing entry point of the reproduction: feed it
//! MQL text, get molecule sets back. This mirrors the PRIMA architecture
//! (§5): the session's `Engine` is the molecule-processing component, the
//! `Database` underneath is the atom-oriented component.
//!
//! ## Serving a handle
//!
//! Every session serves a [`DbHandle`] ([`Session::shared`]); many
//! sessions — typically one per serving thread — may hold clones of one
//! handle, and [`Session::new`] simply wraps a database in a private one.
//! Queries run against the session's fork of the committed snapshot
//! (refreshed when other sessions commit); each DML statement outside a
//! transaction is an implicit single-statement transaction (autocommit),
//! so a statement that fails part-way leaves no trace; `BEGIN … COMMIT`
//! groups statements into one atomic, snapshot-isolated unit whose
//! SELECTs read through the transaction's own write overlay.

use crate::ast::{FromClause, Lit, Statement};
use crate::exec::{
    execute, execute_dml, execute_planned, is_dml, plan_select, PreparedPlan, StatementResult,
};
use mad_core::ops::Engine;
use mad_core::structure::MoleculeStructure;
use mad_model::bin::u64_of_usize;
use mad_model::{FxHashMap, MadError, Result};
use mad_obs::trace::{self, StageKind, StageTimer};
use mad_obs::{Counter, Histogram, Registry, StmtTrace};
use mad_storage::Database;
use mad_txn::{CommitInfo, DbHandle, Transaction};
use std::sync::Arc;
use std::time::Instant;

/// The open transaction of a session: the overlay plus a query engine over
/// a fork of the overlay view (re-forked only when the overlay changes).
struct ActiveTxn {
    txn: Transaction,
    qe: Engine,
}

/// The session's MQL-layer metrics, registered in the deployment's
/// [`Registry`] (handles are cached so the per-statement hot path never
/// touches the registry's map lock).
struct MqlMetrics {
    /// `mql.stmt_ns` — wall time per executed statement.
    stmt_ns: Arc<Histogram>,
    /// `mql.statements` — statements executed (errors included).
    statements: Counter,
    /// `mql.errors` — statements that returned an error.
    errors: Counter,
    /// `mql.prepared.hits` — EXECUTEs served from a cached SELECT plan.
    prepared_hits: Counter,
    /// `mql.prepared.misses` — EXECUTEs that had to (re-)analyze.
    prepared_misses: Counter,
}

impl MqlMetrics {
    fn new(obs: &Registry) -> Self {
        MqlMetrics {
            stmt_ns: obs.histogram("mql.stmt_ns"),
            statements: obs.counter("mql.statements"),
            errors: obs.counter("mql.errors"),
            prepared_hits: obs.counter("mql.prepared.hits"),
            prepared_misses: obs.counter("mql.prepared.misses"),
        }
    }
}

/// One entry of the session's prepared-statement cache (`PREPARE name AS
/// …`): the parsed body, ready to be parameter-bound and executed without
/// re-lexing/-parsing.
struct PreparedStmt {
    /// The parsed body, placeholders unbound.
    body: Statement,
    /// Highest `$n` placeholder in the body (0 = parameter-free).
    max_param: u32,
    /// Cached analyzed plan for a parameter-free SELECT body, tagged with
    /// the commit sequence it was analyzed at. A plan whose tag no longer
    /// matches the session's `base_seq` is re-analyzed, never served —
    /// concurrent committers can't leave a stale plan behind.
    plan: Option<(u64, PreparedPlan)>,
}

/// An MQL session.
pub struct Session {
    engine: Engine,
    catalog: FxHashMap<String, MoleculeStructure>,
    /// The handle this session serves.
    handle: DbHandle,
    /// Commit sequence the engine's database fork was taken at (used to
    /// detect staleness after other sessions commit).
    base_seq: u64,
    /// The open explicit transaction, if any.
    txn: Option<ActiveTxn>,
    /// Cached metric handles (no registry lock on the statement path).
    metrics: MqlMetrics,
    /// The prepared-statement cache (`PREPARE` / `EXECUTE` / `DEALLOCATE`).
    /// Session-scoped, like the catalog: not transactional.
    prepared: FxHashMap<String, PreparedStmt>,
}

impl Session {
    /// Open a session over a database of its own: a private in-memory
    /// [`DbHandle`] around `db`.
    pub fn new(db: Database) -> Self {
        Session::shared(DbHandle::new(db))
    }

    /// Open a session over a shared [`DbHandle`]. Any number of sessions
    /// (across threads) may serve the same handle concurrently; each sees
    /// consistent committed snapshots and commits through `mad_txn`.
    pub fn shared(handle: DbHandle) -> Self {
        let (db, base_seq) = handle.fork();
        let metrics = MqlMetrics::new(handle.obs());
        Session {
            engine: Engine::new(db),
            catalog: FxHashMap::default(),
            handle,
            base_seq,
            txn: None,
            metrics,
            prepared: FxHashMap::default(),
        }
    }

    /// The metrics registry this session reports into — the deployment's
    /// registry ([`DbHandle::obs`]). `SHOW STATS` renders exactly this.
    pub fn obs(&self) -> &Registry {
        self.handle.obs()
    }

    /// The handle this session serves.
    pub fn handle(&self) -> &DbHandle {
        &self.handle
    }

    /// Is an explicit transaction (`BEGIN` without `COMMIT`/`ABORT`) open?
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// The underlying engine (the autocommit one; an open transaction's
    /// scratch engine is internal).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The database this session currently reads: inside a transaction the
    /// transaction's view (its own writes included), otherwise the
    /// session's working image.
    pub fn db(&self) -> &Database {
        match &self.txn {
            Some(active) => active.qe.db(),
            None => self.engine.db(),
        }
    }

    /// Registered molecule-type names.
    pub fn catalog_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.catalog.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Look up a registered structure.
    pub fn catalog_get(&self, name: &str) -> Option<&MoleculeStructure> {
        self.catalog.get(name)
    }

    /// Parse and execute one MQL statement.
    pub fn execute(&mut self, mql: &str) -> Result<StatementResult> {
        let started = Instant::now();
        let result = self.lex_parse_execute(mql);
        self.metrics
            .stmt_ns
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.metrics.statements.inc();
        if result.is_err() {
            self.metrics.errors.inc();
        }
        result
    }

    /// Lex, parse, execute — each front phase under its own trace stage
    /// (free when no statement trace is active).
    fn lex_parse_execute(&mut self, mql: &str) -> Result<StatementResult> {
        let lt = StageTimer::start(StageKind::Lex);
        let tokens = crate::lexer::lex(mql)?;
        lt.finish_info(&[("tokens", u64_of_usize(tokens.len()))]);
        let pt = StageTimer::start(StageKind::Parse);
        let stmt = crate::parser::Parser::new(&tokens).parse_statement()?;
        pt.finish();
        self.execute_statement(&stmt)
    }

    /// Execute an already-parsed statement.
    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<StatementResult> {
        // `$n` placeholders are only meaningful inside a PREPARE body;
        // anywhere else they must fail loudly before touching data.
        if !matches!(stmt, Statement::Prepare { .. }) {
            let max = stmt.max_param();
            if max > 0 {
                return Err(MadError::Analysis {
                    detail: format!(
                        "unbound parameter ${max}: `$n` placeholders are only valid \
                         inside a PREPARE body"
                    ),
                });
            }
        }
        let result = self.dispatch_statement(stmt);
        // A successful catalog mutation (DEFINE, or a named inline FROM
        // registering its structure) can change what a cached plan's name
        // resolution would see — drop every cached plan, keep the bodies.
        if result.is_ok() && self.invalidates_plans(stmt) {
            for p in self.prepared.values_mut() {
                p.plan = None;
            }
        }
        result
    }

    fn dispatch_statement(&mut self, stmt: &Statement) -> Result<StatementResult> {
        match stmt {
            Statement::Begin => self.begin().map(|_| StatementResult::Began),
            Statement::Commit => self.commit().map(|info| StatementResult::Committed {
                seq: info.seq,
                ops: info.ops,
                remap: info.remap,
            }),
            Statement::Abort => self.abort().map(|_| StatementResult::Aborted),
            Statement::Checkpoint => self.checkpoint().map(StatementResult::Checkpointed),
            Statement::ShowStats { subsystem, json } => {
                self.show_stats(subsystem.as_deref(), *json)
            }
            Statement::ExplainAnalyze(inner) => self.explain_analyze(inner),
            Statement::Prepare { name, body } => self.prepare(name, body),
            Statement::ExecutePrepared { name, args } => self.execute_prepared(name, args),
            Statement::Deallocate { name } => self.deallocate(name.as_deref()),
            _ if self.txn.is_some() => self.execute_in_txn(stmt),
            _ if is_dml(stmt) => self.execute_autocommit_dml(stmt),
            _ => {
                self.refresh_if_stale();
                execute(&mut self.engine, &mut self.catalog, stmt)
            }
        }
    }

    /// Can a successful execution of `stmt` change molecule-type name
    /// resolution (and thereby stale a cached [`PreparedPlan`])?
    fn invalidates_plans(&self, stmt: &Statement) -> bool {
        match stmt {
            Statement::Define { .. } => true,
            Statement::Select(s) | Statement::Explain(s) => {
                matches!(&s.from, FromClause::Inline { name: Some(_), .. })
            }
            Statement::ExplainAnalyze(inner) => self.invalidates_plans(inner),
            Statement::ExecutePrepared { name, .. } => self
                .prepared
                .get(name)
                .is_some_and(|p| self.invalidates_plans(&p.body)),
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Prepared statements
    // ------------------------------------------------------------------

    /// `PREPARE name AS <stmt>`: cache the parsed body under `name`
    /// (re-preparing an existing name replaces it). Parameter-free SELECT
    /// bodies are eagerly analyzed so the first `EXECUTE` already skips
    /// analysis; parameterized bodies are analyzed at bind time.
    fn prepare(&mut self, name: &str, body: &Statement) -> Result<StatementResult> {
        // The parser enforces this too; re-check for programmatic ASTs so
        // a prepared body can never recurse into prepared-statement
        // control or session-only statements.
        match body {
            Statement::Select(_)
            | Statement::Explain(_)
            | Statement::Define { .. }
            | Statement::InsertAtom { .. }
            | Statement::Connect { .. }
            | Statement::Disconnect { .. }
            | Statement::DeleteAtom { .. }
            | Statement::Update { .. } => {}
            _ => {
                return Err(MadError::Analysis {
                    detail: "this statement kind cannot be PREPAREd \
                             (queries, EXPLAIN, DEFINE and DML only)"
                        .into(),
                })
            }
        }
        let max_param = body.max_param();
        let mut plan = None;
        if max_param == 0 && self.txn.is_none() {
            if let Statement::Select(sel) = body {
                if !matches!(sel.from, FromClause::Recursive { .. }) {
                    self.refresh_if_stale();
                    plan = plan_select(&self.engine, &mut self.catalog, sel)?
                        .map(|p| (self.base_seq, p));
                }
            }
        }
        self.prepared.insert(
            name.to_owned(),
            PreparedStmt {
                body: body.clone(),
                max_param,
                plan,
            },
        );
        Ok(StatementResult::Prepared(name.to_owned()))
    }

    /// `EXECUTE name [(args)]`: bind and run a prepared statement. A
    /// parameter-free SELECT outside a transaction runs through the cached
    /// plan when its commit-sequence tag still matches (skipping lex,
    /// parse *and* analysis); everything else re-binds the cached AST
    /// (still skipping lex/parse).
    fn execute_prepared(&mut self, name: &str, args: &[Lit]) -> Result<StatementResult> {
        let expected = match self.prepared.get(name) {
            Some(entry) => entry.max_param as usize,
            None => return Err(MadError::unknown("prepared statement", name)),
        };
        if args.len() != expected {
            return Err(MadError::Analysis {
                detail: format!(
                    "prepared statement `{name}` expects {expected} parameter(s), \
                     {} given",
                    args.len()
                ),
            });
        }
        // Plan-cache fast path: parameter-free SELECT, no open transaction.
        if expected == 0 && self.txn.is_none() {
            self.refresh_if_stale();
            let base_seq = self.base_seq;
            // Disjoint field borrows: the cached plan lives in `prepared`,
            // execution needs `engine`/`catalog`.
            let Session {
                engine,
                catalog,
                prepared,
                metrics,
                ..
            } = self;
            if let Some(entry) = prepared.get_mut(name) {
                if let Statement::Select(sel) = &entry.body {
                    if let Some((seq, plan)) = &entry.plan {
                        if *seq == base_seq {
                            metrics.prepared_hits.inc();
                            return execute_planned(engine, plan);
                        }
                    }
                    if !matches!(sel.from, FromClause::Recursive { .. }) {
                        metrics.prepared_misses.inc();
                        if let Some(plan) = plan_select(engine, catalog, sel)? {
                            let result = execute_planned(engine, &plan);
                            entry.plan = Some((base_seq, plan));
                            return result;
                        }
                    }
                }
            }
        }
        // General path: clone the body out of the cache (releasing the
        // map borrow), bind arguments, and dispatch like any statement.
        let bound = match self.prepared.get(name) {
            Some(entry) if expected == 0 => entry.body.clone(),
            Some(entry) => entry.body.bind_params(args)?,
            None => return Err(MadError::unknown("prepared statement", name)),
        };
        self.execute_statement(&bound)
    }

    /// `DEALLOCATE name` / `DEALLOCATE ALL`.
    fn deallocate(&mut self, name: Option<&str>) -> Result<StatementResult> {
        match name {
            Some(n) => {
                if self.prepared.remove(n).is_none() {
                    return Err(MadError::unknown("prepared statement", n));
                }
                Ok(StatementResult::Deallocated {
                    name: Some(n.to_owned()),
                    count: 1,
                })
            }
            None => {
                let count = self.prepared.len();
                self.prepared.clear();
                Ok(StatementResult::Deallocated { name: None, count })
            }
        }
    }

    /// Names in the prepared-statement cache (sorted; for shells).
    pub fn prepared_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.prepared.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// `SHOW STATS [subsystem] [AS JSON]`: snapshot the registry (polling
    /// every live gauge) and render it.
    fn show_stats(&self, subsystem: Option<&str>, json: bool) -> Result<StatementResult> {
        let snap = self.obs().snapshot(subsystem);
        if snap.is_empty() {
            if let Some(s) = subsystem {
                return Err(MadError::unknown("stats subsystem", s));
            }
        }
        let text = if json {
            crate::format::stats_json(&snap)
        } else {
            crate::format::stats_table(&snap)
        };
        Ok(StatementResult::Stats(text))
    }

    /// `EXPLAIN ANALYZE <stmt>`: execute the inner statement under a
    /// statement trace and return its result together with the recorded
    /// stage timings. If an enclosing trace is already active (a network
    /// front-end traces every statement), the analysis piggybacks on it —
    /// the snapshot is taken without deactivating, so the outer trace still
    /// reaches the server's histograms and slow-query log.
    fn explain_analyze(&mut self, inner: &Statement) -> Result<StatementResult> {
        if matches!(inner, Statement::ExplainAnalyze(_)) {
            return Err(MadError::Analysis {
                detail: "EXPLAIN ANALYZE does not nest".into(),
            });
        }
        let owned = !trace::is_active();
        if owned {
            trace::begin();
        }
        let result = self.execute_statement(inner);
        let trace = trace::snapshot().unwrap_or_default();
        if owned {
            trace::take();
        }
        Ok(StatementResult::Analyzed {
            inner: Box::new(result?),
            trace,
        })
    }

    /// Parse and execute one MQL statement, returning the result rendered
    /// as terminal text ([`crate::format::render_result`]). The entry
    /// point network front-ends use: one statement in, one text frame out,
    /// with the session's current view (inside a transaction: the overlay
    /// view) supplying names for the rendering.
    pub fn execute_rendered(&mut self, mql: &str) -> Result<String> {
        let result = self.execute(mql)?;
        Ok(crate::format::render_result(self.db(), &result))
    }

    /// [`Session::execute_rendered`] under a per-statement trace: begins a
    /// statement trace, executes, renders (its own `render` stage), and
    /// returns the rendered result together with the taken trace (text and
    /// total filled in). Network front-ends use this to feed latency
    /// histograms and the slow-query log; the trace is returned even when
    /// the statement failed.
    pub fn execute_rendered_traced(&mut self, mql: &str) -> (Result<String>, StmtTrace) {
        trace::begin();
        let result = self.execute(mql);
        let rendered = result.map(|r| {
            let rt = StageTimer::start(StageKind::Render);
            let text = crate::format::render_result(self.db(), &r);
            rt.finish_info(&[("bytes", u64_of_usize(text.len()))]);
            text
        });
        let mut t = trace::take().unwrap_or_default();
        t.text = mql.trim().to_owned();
        (rendered, t)
    }

    /// Parse and execute one MQL statement, returning the result in the
    /// binary wire encoding ([`crate::format::bin_result`]): molecule
    /// sets travel structurally, everything else as rendered text. The
    /// binary-mode sibling of [`Session::execute_rendered`].
    pub fn execute_bin(&mut self, mql: &str) -> Result<mad_model::bin::BinResult> {
        let result = self.execute(mql)?;
        Ok(crate::format::bin_result(self.db(), &result))
    }

    /// [`Session::execute_bin`] under a per-statement trace — the
    /// binary-mode sibling of [`Session::execute_rendered_traced`].
    pub fn execute_bin_traced(
        &mut self,
        mql: &str,
    ) -> (Result<mad_model::bin::BinResult>, StmtTrace) {
        trace::begin();
        let result = self.execute(mql);
        let encoded = result.map(|r| {
            let rt = StageTimer::start(StageKind::Render);
            let bin = crate::format::bin_result(self.db(), &r);
            rt.finish();
            bin
        });
        let mut t = trace::take().unwrap_or_default();
        t.text = mql.trim().to_owned();
        (encoded, t)
    }

    /// Execute a script of `;`-separated statements, returning every result.
    /// A failing statement aborts the script and reports **which** statement
    /// failed ([`MadError::Script`]: 0-based index plus source text) — an
    /// open transaction the script started stays open, so the caller decides
    /// between `ABORT` and repair.
    pub fn execute_script(&mut self, script: &str) -> Result<Vec<StatementResult>> {
        let mut results = Vec::new();
        for (index, stmt_src) in split_statements(script).into_iter().enumerate() {
            match self.execute(&stmt_src) {
                Ok(r) => results.push(r),
                Err(e) => {
                    return Err(MadError::Script {
                        index,
                        statement: stmt_src,
                        source: Box::new(e),
                    })
                }
            }
        }
        Ok(results)
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Open a snapshot-isolated transaction (the `BEGIN` statement).
    pub fn begin(&mut self) -> Result<()> {
        if self.txn.is_some() {
            return Err(MadError::txn_state(
                "a transaction is already open (COMMIT or ABORT it first)",
            ));
        }
        self.refresh_if_stale();
        let txn = Transaction::begin(&self.handle);
        let qe = fork_query_engine(&txn);
        self.txn = Some(ActiveTxn { txn, qe });
        Ok(())
    }

    /// Validate and publish the open transaction (the `COMMIT` statement).
    /// On conflict the transaction is aborted (state as before `BEGIN` for
    /// everything this session had not committed) and the error returned.
    pub fn commit(&mut self) -> Result<CommitInfo> {
        let active = self
            .txn
            .take()
            .ok_or_else(|| MadError::txn_state("no open transaction to COMMIT"))?;
        let info = active.txn.commit()?;
        self.resync();
        Ok(info)
    }

    /// Drop the open transaction's overlay (the `ABORT` statement). The
    /// session's state is exactly what it was before `BEGIN`.
    pub fn abort(&mut self) -> Result<()> {
        let active = self
            .txn
            .take()
            .ok_or_else(|| MadError::txn_state("no open transaction to ABORT"))?;
        active.txn.abort();
        Ok(())
    }

    /// Fold the handle's write-ahead log into a fresh bootstrap image of
    /// the committed state (the `CHECKPOINT` statement). Requires a durable
    /// handle; commits are held off for the duration, reads are not.
    pub fn checkpoint(&self) -> Result<mad_txn::CheckpointStats> {
        self.handle.checkpoint()
    }

    fn execute_in_txn(&mut self, stmt: &Statement) -> Result<StatementResult> {
        let Some(active) = self.txn.as_mut() else {
            return Err(MadError::txn_state("no open transaction"));
        };
        if is_dml(stmt) {
            let result = execute_dml(&mut active.txn, stmt)?;
            // the overlay changed: rebuild the query view over it
            active.qe = fork_query_engine(&active.txn);
            Ok(result)
        } else {
            execute(&mut active.qe, &mut self.catalog, stmt)
        }
    }

    /// One DML statement outside a transaction (autocommit): an implicit
    /// transaction — begin, apply, commit, refresh. A statement error drops
    /// the transaction, so nothing of a half-applied statement survives.
    /// The user never asked for a transaction, so a first-committer-wins
    /// conflict is retried internally against a fresh snapshot (the
    /// statement is self-contained: selectors re-resolve on every attempt)
    /// instead of surfacing as a spurious error; statement-level errors
    /// (unknown names, integrity violations) propagate on the first
    /// attempt.
    fn execute_autocommit_dml(&mut self, stmt: &Statement) -> Result<StatementResult> {
        const MAX_RETRIES: usize = 16;
        let mut attempt = 0;
        loop {
            let mut txn = Transaction::begin(&self.handle);
            let mut result = execute_dml(&mut txn, stmt)?;
            match txn.commit() {
                Ok(info) => {
                    // a concurrent committer may have shifted our fresh
                    // atom's slot
                    if let StatementResult::Inserted(id) = &mut result {
                        *id = info.resolve(*id);
                    }
                    self.resync();
                    return Ok(result);
                }
                Err(e) if e.is_conflict() && attempt < MAX_RETRIES => {
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Re-fork the committed state when other sessions committed since
    /// our fork was taken. The fork holds at most the last statement's DB′;
    /// [`Engine::replace_db`] drops it with the scope.
    fn refresh_if_stale(&mut self) {
        if self.handle.commit_seq() != self.base_seq {
            self.resync();
        }
    }

    /// Replace the session's working image with a fresh fork of the
    /// committed state.
    fn resync(&mut self) {
        let (db, seq) = self.handle.fork();
        self.engine.replace_db(db);
        self.base_seq = seq;
    }
}

/// A fresh query engine over a fork of the transaction's view. Each
/// query's DB′ lives in this scratch fork for one statement scope, never in
/// the overlay, so a committed transaction publishes only its logged DML.
fn fork_query_engine(txn: &Transaction) -> Engine {
    Engine::new(txn.db().clone())
}

/// Split a script on `;` outside string literals, stripping `--` line
/// comments; empty statements are skipped. This is the one splitting rule
/// of the language — [`Session::execute_script`] and every client-side
/// script runner (e.g. the `madc` REPL) must share it, or a `;` inside a
/// comment or string would split differently on the two sides of the
/// wire.
pub fn split_statements(script: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    let mut chars = script.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                in_str = !in_str;
                current.push(c);
            }
            ';' if !in_str => {
                if !current.trim().is_empty() {
                    out.push(current.trim().to_owned());
                }
                current.clear();
            }
            '-' if !in_str && chars.peek() == Some(&'-') => {
                // skip comment to end of line
                for c2 in chars.by_ref() {
                    if c2 == '\n' {
                        break;
                    }
                }
                current.push(' ');
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        out.push(current.trim().to_owned());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mad_model::{AttrType, SchemaBuilder, Value};

    /// The mini Fig.-2 geography used across the workspace tests.
    fn mini_geo() -> Database {
        let schema = SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text), ("hectare", AttrType::Float)])
            .atom_type("river", &[("rname", AttrType::Text)])
            .atom_type("area", &[("aid", AttrType::Int)])
            .atom_type("net", &[("nid", AttrType::Int)])
            .atom_type("edge", &[("eid", AttrType::Int)])
            .atom_type("point", &[("pname", AttrType::Text)])
            .atom_type("parts", &[("pname", AttrType::Text)])
            .link_type("state-area", "state", "area")
            .link_type("river-net", "river", "net")
            .link_type("area-edge", "area", "edge")
            .link_type("net-edge", "net", "edge")
            .link_type("edge-point", "edge", "point")
            .link_type("composition", "parts", "parts")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let t = |db: &Database, n: &str| db.schema().atom_type_id(n).unwrap();
        let l = |db: &Database, n: &str| db.schema().link_type_id(n).unwrap();
        let sp = db
            .insert_atom(t(&db, "state"), vec![Value::from("SP"), Value::from(1000.0)])
            .unwrap();
        let mg = db
            .insert_atom(t(&db, "state"), vec![Value::from("MG"), Value::from(900.0)])
            .unwrap();
        let parana = db
            .insert_atom(t(&db, "river"), vec![Value::from("Parana")])
            .unwrap();
        let a1 = db.insert_atom(t(&db, "area"), vec![Value::from(1)]).unwrap();
        let a2 = db.insert_atom(t(&db, "area"), vec![Value::from(2)]).unwrap();
        let n1 = db.insert_atom(t(&db, "net"), vec![Value::from(1)]).unwrap();
        let e1 = db.insert_atom(t(&db, "edge"), vec![Value::from(1)]).unwrap();
        let e2 = db.insert_atom(t(&db, "edge"), vec![Value::from(2)]).unwrap();
        let e3 = db.insert_atom(t(&db, "edge"), vec![Value::from(3)]).unwrap();
        let p1 = db
            .insert_atom(t(&db, "point"), vec![Value::from("p1")])
            .unwrap();
        let p2 = db
            .insert_atom(t(&db, "point"), vec![Value::from("p2")])
            .unwrap();
        db.connect(l(&db, "state-area"), sp, a1).unwrap();
        db.connect(l(&db, "state-area"), mg, a2).unwrap();
        db.connect(l(&db, "river-net"), parana, n1).unwrap();
        db.connect(l(&db, "area-edge"), a1, e1).unwrap();
        db.connect(l(&db, "area-edge"), a1, e2).unwrap();
        db.connect(l(&db, "area-edge"), a2, e2).unwrap();
        db.connect(l(&db, "area-edge"), a2, e3).unwrap();
        db.connect(l(&db, "net-edge"), n1, e2).unwrap();
        db.connect(l(&db, "edge-point"), e1, p1).unwrap();
        db.connect(l(&db, "edge-point"), e2, p1).unwrap();
        db.connect(l(&db, "edge-point"), e2, p2).unwrap();
        db.connect(l(&db, "edge-point"), e3, p2).unwrap();
        // a small BOM for recursive queries
        let engine = db
            .insert_atom(t(&db, "parts"), vec![Value::from("engine")])
            .unwrap();
        let piston = db
            .insert_atom(t(&db, "parts"), vec![Value::from("piston")])
            .unwrap();
        let bolt = db
            .insert_atom(t(&db, "parts"), vec![Value::from("bolt")])
            .unwrap();
        db.connect(l(&db, "composition"), engine, piston).unwrap();
        db.connect(l(&db, "composition"), piston, bolt).unwrap();
        db
    }

    fn session() -> Session {
        Session::new(mini_geo())
    }

    fn molecules(r: StatementResult) -> mad_core::molecule::MoleculeType {
        match r {
            StatementResult::Molecules(mt) => mt,
            other => panic!("expected molecules, got {other:?}"),
        }
    }

    #[test]
    fn paper_query_mt_state() {
        let mut s = session();
        let mt = molecules(
            s.execute("SELECT ALL FROM mt_state(state-area-edge-point);")
                .unwrap(),
        );
        assert_eq!(mt.len(), 2, "one molecule per state");
        assert_eq!(mt.name, "mt_state");
        // the inline definition was registered
        assert!(s.catalog_get("mt_state").is_some());
        // and can be reused by name
        let mt2 = molecules(s.execute("SELECT ALL FROM mt_state").unwrap());
        assert_eq!(mt2.len(), 2);
    }

    #[test]
    fn paper_query_point_neighborhood() {
        let mut s = session();
        let mt = molecules(
            s.execute(
                "SELECT ALL FROM point-edge-(area-state,net-river) WHERE point.pname = 'p1';",
            )
            .unwrap(),
        );
        assert_eq!(mt.len(), 1);
        let m = &mt.molecules[0];
        // p1 → e1,e2 → a1,a2 → SP,MG; e2 → n1 → Parana
        assert_eq!(m.atoms_at(1).len(), 2, "edges");
        assert_eq!(m.atoms_at(3).len(), 2, "states");
        assert_eq!(m.atoms_at(5).len(), 1, "rivers");
        s.engine().verify_closure(&mt).unwrap();
    }

    #[test]
    fn where_on_child_and_aggregate() {
        let mut s = session();
        let mt = molecules(
            s.execute("SELECT ALL FROM state-area-edge WHERE COUNT(edge) >= 2")
                .unwrap(),
        );
        assert_eq!(mt.len(), 2, "both states touch ≥ 2 edges");
        let mt = molecules(
            s.execute("SELECT ALL FROM state-area-edge WHERE edge.eid = 3")
                .unwrap(),
        );
        assert_eq!(mt.len(), 1, "only MG reaches e3");
    }

    #[test]
    fn select_projection() {
        let mut s = session();
        let mt = molecules(
            s.execute("SELECT state.sname, area FROM state-area-edge-point")
                .unwrap(),
        );
        assert_eq!(mt.structure.node_count(), 2);
        let root_def = s.db().schema().atom_type(mt.structure.root_node().ty);
        assert_eq!(root_def.attrs.len(), 1);
        assert_eq!(root_def.attrs[0].name, "sname");
        // illegal projection: point without its parent edge
        assert!(s
            .execute("SELECT state, point FROM state-area-edge-point")
            .is_err());
    }

    #[test]
    fn single_node_from() {
        let mut s = session();
        let mt = molecules(s.execute("SELECT ALL FROM state").unwrap());
        assert_eq!(mt.len(), 2);
        assert_eq!(mt.structure.node_count(), 1);
    }

    #[test]
    fn define_then_select() {
        let mut s = session();
        let r = s
            .execute("DEFINE MOLECULE pn AS point-edge-(area-state,net-river)")
            .unwrap();
        assert!(matches!(r, StatementResult::Defined(_)));
        assert_eq!(s.catalog_names(), vec!["pn"]);
        let mt = molecules(
            s.execute("SELECT ALL FROM pn WHERE point.pname = 'p2'")
                .unwrap(),
        );
        assert_eq!(mt.len(), 1);
    }

    #[test]
    fn recursive_query() {
        let mut s = session();
        let r = s
            .execute(
                "SELECT ALL FROM RECURSIVE parts VIA composition DOWN WHERE parts.pname = 'engine'",
            )
            .unwrap();
        let StatementResult::Recursive(ms) = r else {
            panic!()
        };
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].size(), 3, "engine, piston, bolt");
        // where-used view
        let r = s
            .execute("SELECT ALL FROM RECURSIVE parts VIA composition UP WHERE parts.pname = 'bolt'")
            .unwrap();
        let StatementResult::Recursive(ms) = r else {
            panic!()
        };
        assert_eq!(ms[0].size(), 3);
        // depth bound
        let r = s
            .execute(
                "SELECT ALL FROM RECURSIVE parts VIA composition DOWN DEPTH 1 \
                 WHERE parts.pname = 'engine'",
            )
            .unwrap();
        let StatementResult::Recursive(ms) = r else {
            panic!()
        };
        assert_eq!(ms[0].size(), 2);
    }

    #[test]
    fn dml_roundtrip() {
        let mut s = session();
        let r = s
            .execute("INSERT ATOM state (sname = 'RJ', hectare = 500.0)")
            .unwrap();
        let StatementResult::Inserted(rj) = r else {
            panic!()
        };
        assert!(s.db().atom_exists(rj));
        let r = s
            .execute("INSERT ATOM area (aid = 9)")
            .unwrap();
        let StatementResult::Inserted(_) = r else {
            panic!()
        };
        let r = s
            .execute("CONNECT state[sname='RJ'] TO area[aid=9] VIA state-area")
            .unwrap();
        assert!(matches!(r, StatementResult::Connected(true)));
        // the molecule now exists
        let mt = molecules(
            s.execute("SELECT ALL FROM state-area WHERE state.sname = 'RJ'")
                .unwrap(),
        );
        assert_eq!(mt.len(), 1);
        assert_eq!(mt.molecules[0].atoms_at(1).len(), 1);
        // update
        let r = s
            .execute("UPDATE state[sname='RJ'] SET hectare = 750.0")
            .unwrap();
        assert!(matches!(r, StatementResult::Updated { atoms: 1 }));
        // disconnect and delete
        let r = s
            .execute("DISCONNECT state[sname='RJ'] TO area[aid=9] VIA state-area")
            .unwrap();
        assert!(matches!(r, StatementResult::Disconnected(true)));
        let r = s.execute("DELETE ATOM state[sname='RJ']").unwrap();
        assert!(matches!(
            r,
            StatementResult::Deleted { atoms: 1, links: 0 }
        ));
        assert!(s.db().audit_referential_integrity().is_empty());
    }

    #[test]
    fn delete_cascades_links() {
        let mut s = session();
        let r = s.execute("DELETE ATOM edge[eid=2]").unwrap();
        let StatementResult::Deleted { atoms, links } = r else {
            panic!()
        };
        assert_eq!(atoms, 1);
        assert_eq!(links, 5, "a1,a2,n1 plus p1,p2");
        assert!(s.db().audit_referential_integrity().is_empty());
    }

    #[test]
    fn ambiguous_selector_rejected() {
        let mut s = session();
        s.execute("INSERT ATOM point (pname = 'p1')").unwrap();
        let err = s
            .execute("CONNECT edge[eid=1] TO point[pname='p1'] VIA edge-point")
            .unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
        let err = s
            .execute("CONNECT edge[eid=99] TO point[pname='p2'] VIA edge-point")
            .unwrap_err();
        assert!(err.to_string().contains("matches no atom"));
    }

    #[test]
    fn reflexive_connect_uses_explicit_orientation() {
        let mut s = session();
        s.execute("INSERT ATOM parts (pname = 'ring')").unwrap();
        let r = s
            .execute("CONNECT parts[pname='piston'] TO parts[pname='ring'] VIA composition")
            .unwrap();
        assert!(matches!(r, StatementResult::Connected(true)));
        let r = s
            .execute(
                "SELECT ALL FROM RECURSIVE parts VIA composition DOWN WHERE parts.pname = 'piston'",
            )
            .unwrap();
        let StatementResult::Recursive(ms) = r else {
            panic!()
        };
        assert_eq!(ms[0].size(), 3, "piston, bolt, ring");
    }

    #[test]
    fn execute_script_multi_statement() {
        let mut s = session();
        let results = s
            .execute_script(
                "-- demo script\n\
                 DEFINE MOLECULE ms AS state-area;\n\
                 SELECT ALL FROM ms WHERE state.sname = 'SP';\n\
                 SELECT ALL FROM ms;",
            )
            .unwrap();
        assert_eq!(results.len(), 3);
        assert!(matches!(results[0], StatementResult::Defined(_)));
    }

    #[test]
    fn semicolon_inside_string_literal() {
        let stmts = split_statements("SELECT ALL FROM state WHERE state.sname = 'a;b'; SELECT ALL FROM state");
        assert_eq!(stmts.len(), 2);
        assert!(stmts[0].contains("a;b"));
    }

    #[test]
    fn explain_reports_plan() {
        let mut db = mini_geo();
        let state = db.schema().atom_type_id("state").unwrap();
        db.create_index(state, "sname", mad_storage::IndexKind::Ordered)
            .unwrap();
        let mut s = Session::new(db);
        let index_assisted = |s: &mut Session| {
            let r = s
                .execute("EXPLAIN SELECT ALL FROM state-area-edge WHERE state.sname = 'SP'")
                .unwrap();
            let StatementResult::Plan(plan) = r else {
                panic!("expected a plan")
            };
            matches!(
                plan.root_selection,
                mad_core::explain::RootSelection::IndexAssisted { .. }
            )
        };
        assert!(index_assisted(&mut s));
        // the index lives in the committed image, so an autocommit's
        // re-fork keeps it
        s.execute("INSERT ATOM state (sname = 'RJ', hectare = 500.0)").unwrap();
        assert!(index_assisted(&mut s));
        // without an index on the attribute the plan falls back to a scan
        let r = s
            .execute("EXPLAIN SELECT ALL FROM state-area WHERE state.hectare > 900.0")
            .unwrap();
        let StatementResult::Plan(plan) = r else {
            panic!()
        };
        assert!(matches!(
            plan.root_selection,
            mad_core::explain::RootSelection::ScanFiltered { .. }
        ));
        // no WHERE → full occurrence (SP, MG and the inserted RJ)
        let r = s.execute("EXPLAIN SELECT ALL FROM state-area").unwrap();
        let StatementResult::Plan(plan) = r else {
            panic!()
        };
        assert!(matches!(
            plan.root_selection,
            mad_core::explain::RootSelection::FullOccurrence { atoms: 3 }
        ));
        // EXPLAIN over a named molecule type
        s.execute("DEFINE MOLECULE b AS state-area").unwrap();
        assert!(matches!(
            s.execute("EXPLAIN SELECT ALL FROM b").unwrap(),
            StatementResult::Plan(_)
        ));
        // recursive FROM is rejected
        assert!(s
            .execute("EXPLAIN SELECT ALL FROM RECURSIVE parts VIA composition")
            .is_err());
    }

    #[test]
    fn explain_reports_rebuilds() {
        let mut s = session();
        s.execute("SELECT ALL FROM state-area").unwrap(); // warm the snapshot
        // attribute-only DML must not cost a rebuild
        s.execute("UPDATE state[sname='SP'] SET hectare = 1.5").unwrap();
        let r = s.execute("EXPLAIN SELECT ALL FROM state-area").unwrap();
        let StatementResult::Plan(plan) = r else { panic!() };
        assert!(plan.csr_warm, "update_attr invalidated the snapshot");
        let text = plan.to_string();
        assert!(text.contains("traversal: CSR snapshot expansion (warm"), "got: {text}");
    }

    #[test]
    fn unknown_names_error_cleanly() {
        let mut s = session();
        assert!(s.execute("SELECT ALL FROM ghost").is_err());
        assert!(s.execute("SELECT ALL FROM state-ghost").is_err());
        assert!(s.execute("INSERT ATOM ghost (x = 1)").is_err());
        assert!(s.execute("INSERT ATOM state (ghost = 1)").is_err());
    }

    #[test]
    fn txn_abort_restores_state_and_select_sees_overlay() {
        // the acceptance round-trip: BEGIN; DML; SELECT; ABORT leaves the
        // database byte-identical while the in-txn SELECT saw the DML
        let mut s = session();
        let before = mad_storage::DatabaseSnapshot::capture(s.db()).to_json_string();
        assert!(matches!(s.execute("BEGIN").unwrap(), StatementResult::Began));
        assert!(s.in_transaction());
        s.execute("INSERT ATOM state (sname = 'RJ', hectare = 500.0)").unwrap();
        s.execute("INSERT ATOM area (aid = 9)").unwrap();
        s.execute("CONNECT state[sname='RJ'] TO area[aid=9] VIA state-area").unwrap();
        s.execute("UPDATE state[sname='SP'] SET hectare = 9999.0").unwrap();
        s.execute("DELETE ATOM edge[eid=1]").unwrap();
        // the SELECT observes every uncommitted write…
        let mt = molecules(
            s.execute("SELECT ALL FROM state-area WHERE state.sname = 'RJ'").unwrap(),
        );
        assert_eq!(mt.len(), 1);
        assert_eq!(mt.molecules[0].atoms_at(1).len(), 1);
        let mt = molecules(
            s.execute("SELECT ALL FROM state-area-edge WHERE state.hectare > 9000.0").unwrap(),
        );
        assert_eq!(mt.len(), 1, "updated attribute visible to pushdown");
        // …and ABORT drops all of it
        assert!(matches!(s.execute("ABORT").unwrap(), StatementResult::Aborted));
        assert!(!s.in_transaction());
        let after = mad_storage::DatabaseSnapshot::capture(s.db()).to_json_string();
        assert_eq!(before, after, "ABORT must leave the database byte-identical");
    }

    #[test]
    fn commit_after_select_publishes_no_derived_types() {
        let fixture = mini_geo();
        let counts = |db: &Database| (db.schema().atom_type_count(), db.schema().link_type_count());
        let mut s = session();
        s.execute_script(
            "SELECT ALL FROM state-area-edge-point WHERE state.sname = 'SP';\
             BEGIN; COMMIT;",
        )
        .unwrap();
        assert_eq!(
            counts(s.db()),
            counts(&fixture),
            "COMMIT installed a SELECT's DB′"
        );
    }

    #[test]
    fn explain_describes_the_base_image() {
        const EXPLAIN: &str = "EXPLAIN SELECT ALL FROM state-area-edge WHERE state.sname = 'SP'";
        let fresh = session().execute_rendered(EXPLAIN).unwrap();
        let mut s = session();
        for q in [
            "SELECT ALL FROM state-area-edge-point",
            "SELECT state.sname FROM state-area WHERE state.hectare > 950.0",
            "SELECT ALL FROM point-edge-(area-state,net-river)",
        ] {
            s.execute(q).unwrap();
        }
        assert_eq!(s.execute_rendered(EXPLAIN).unwrap(), fresh);
    }

    #[test]
    fn txn_commit_publishes_atomically() {
        let mut s = session();
        s.execute("BEGIN TRANSACTION").unwrap();
        s.execute("INSERT ATOM state (sname = 'RJ', hectare = 500.0)").unwrap();
        s.execute("INSERT ATOM area (aid = 9)").unwrap();
        s.execute("CONNECT state[sname='RJ'] TO area[aid=9] VIA state-area").unwrap();
        let r = s.execute("COMMIT").unwrap();
        assert!(matches!(r, StatementResult::Committed { ops: 3, .. }));
        let mt = molecules(
            s.execute("SELECT ALL FROM state-area WHERE state.sname = 'RJ'").unwrap(),
        );
        assert_eq!(mt.len(), 1);
        assert_eq!(mt.molecules[0].atoms_at(1).len(), 1);
        assert!(s.db().audit_referential_integrity().is_empty());
    }

    #[test]
    fn txn_state_errors() {
        let mut s = session();
        assert!(s.execute("COMMIT").unwrap_err().to_string().contains("no open transaction"));
        assert!(s.execute("ROLLBACK").is_err());
        s.execute("BEGIN").unwrap();
        let err = s.execute("BEGIN").unwrap_err();
        assert!(matches!(err, MadError::TxnState { .. }));
        s.execute("ABORT").unwrap();
    }

    #[test]
    fn shared_sessions_see_each_others_commits() {
        let handle = DbHandle::new(mini_geo());
        let mut s1 = Session::shared(handle.clone());
        let mut s2 = Session::shared(handle.clone());
        // autocommit DML in s1 is immediately visible to s2's next query
        s1.execute("INSERT ATOM state (sname = 'RJ', hectare = 500.0)").unwrap();
        let mt = molecules(
            s2.execute("SELECT ALL FROM state WHERE state.sname = 'RJ'").unwrap(),
        );
        assert_eq!(mt.len(), 1);
        // an open transaction in s2 is invisible to s1 until COMMIT
        s2.execute("BEGIN").unwrap();
        s2.execute("UPDATE state[sname='RJ'] SET hectare = 1.0").unwrap();
        let mt = molecules(
            s1.execute("SELECT ALL FROM state WHERE state.hectare < 2.0").unwrap(),
        );
        assert_eq!(mt.len(), 0, "uncommitted overlay leaked across sessions");
        s2.execute("COMMIT").unwrap();
        let mt = molecules(
            s1.execute("SELECT ALL FROM state WHERE state.hectare < 2.0").unwrap(),
        );
        assert_eq!(mt.len(), 1);
    }

    #[test]
    fn shared_sessions_conflict_first_committer_wins() {
        let handle = DbHandle::new(mini_geo());
        let mut s1 = Session::shared(handle.clone());
        let mut s2 = Session::shared(handle.clone());
        s1.execute("BEGIN").unwrap();
        s2.execute("BEGIN").unwrap();
        s1.execute("UPDATE state[sname='SP'] SET hectare = 1.0").unwrap();
        s2.execute("UPDATE state[sname='SP'] SET hectare = 2.0").unwrap();
        s1.execute("COMMIT").unwrap();
        let err = s2.execute("COMMIT").unwrap_err();
        assert!(err.is_conflict(), "got {err}");
        assert!(!s2.in_transaction(), "failed COMMIT aborts the transaction");
        let mt = molecules(
            s2.execute("SELECT ALL FROM state WHERE state.hectare = 1.0").unwrap(),
        );
        assert_eq!(mt.len(), 1, "the first committer's value survived");
    }

    #[test]
    fn durable_shared_sessions_checkpoint_and_recover() {
        let dir = std::env::temp_dir().join(format!("mad-mql-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mad.wal");
        let handle =
            mad_txn::DbHandle::create_durable(mini_geo(), &path, mad_txn::FsyncPolicy::Group)
                .unwrap();
        let mut s = Session::shared(handle.clone());
        // autocommit DML and an explicit transaction, both WAL-logged
        s.execute("INSERT ATOM state (sname = 'RJ', hectare = 500.0)").unwrap();
        s.execute_script(
            "BEGIN;\n\
             INSERT ATOM area (aid = 9);\n\
             CONNECT state[sname='RJ'] TO area[aid=9] VIA state-area;\n\
             COMMIT;",
        )
        .unwrap();
        // CHECKPOINT through MQL shrinks the log
        let bytes_before_stmt = handle.wal_len_bytes().unwrap();
        let r = s.execute("CHECKPOINT").unwrap();
        let StatementResult::Checkpointed(stats) = r else {
            panic!("expected Checkpointed, got {r:?}")
        };
        assert_eq!(stats.bytes_before, bytes_before_stmt);
        assert!(stats.bytes_after < stats.bytes_before);
        // one more commit after the checkpoint
        s.execute("UPDATE state[sname='RJ'] SET hectare = 750.0").unwrap();
        let expected =
            mad_storage::DatabaseSnapshot::capture(&handle.committed()).to_json_string();
        drop(s);
        drop(handle);

        // restart: a fresh shared session over the recovered handle sees it all
        let handle = mad_txn::DbHandle::open_durable(&path, mad_txn::FsyncPolicy::Group).unwrap();
        assert_eq!(
            mad_storage::DatabaseSnapshot::capture(&handle.committed()).to_json_string(),
            expected
        );
        let mut s = Session::shared(handle);
        let mt = molecules(
            s.execute("SELECT ALL FROM state-area WHERE state.hectare = 750.0").unwrap(),
        );
        assert_eq!(mt.len(), 1, "recovered molecule derivable through MQL");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_requires_durable_shared_session() {
        // a non-durable handle has no WAL to fold
        let mut s = session();
        let err = s.execute("CHECKPOINT").unwrap_err();
        assert!(err.to_string().contains("durable"), "got {err}");
    }

    #[test]
    fn execute_script_reports_failing_statement() {
        let mut s = session();
        let err = s
            .execute_script(
                "INSERT ATOM state (sname = 'RJ', hectare = 1.0);\n\
                 SELECT ALL FROM ghost;\n\
                 INSERT ATOM state (sname = 'ES', hectare = 2.0);",
            )
            .unwrap_err();
        let MadError::Script {
            index,
            statement,
            source,
        } = &err
        else {
            panic!("expected MadError::Script, got {err:?}");
        };
        assert_eq!(*index, 1);
        assert!(statement.contains("FROM ghost"));
        assert!(matches!(**source, MadError::UnknownName { .. }));
        let text = err.to_string();
        assert!(text.contains("statement 1"), "got: {text}");
        assert!(text.contains("ghost"), "got: {text}");
        // statement 0 did execute, statement 2 did not
        assert_eq!(s.db().atom_count(s.db().schema().atom_type_id("state").unwrap()), 3);
    }

    #[test]
    fn show_stats_renders_table_and_json() {
        let mut s = session();
        s.execute("SELECT ALL FROM state-area").unwrap();
        // table form: the mql subsystem has recorded the statement
        let r = s.execute("SHOW STATS").unwrap();
        let StatementResult::Stats(text) = r else {
            panic!("expected Stats, got {r:?}")
        };
        assert!(text.contains("mql.statements"), "got: {text}");
        assert!(text.contains("mql.stmt_ns"), "got: {text}");
        // subsystem filter narrows to the prefix
        let StatementResult::Stats(text) = s.execute("SHOW STATS mql").unwrap() else {
            panic!()
        };
        assert!(text.lines().all(|l| l.starts_with("mql.")), "got: {text}");
        // machine-readable variant round-trips through the JSON parser
        let StatementResult::Stats(text) = s.execute("SHOW STATS AS JSON").unwrap() else {
            panic!()
        };
        let json = mad_model::json::Json::parse(&text).unwrap();
        let hist = json.get("mql.stmt_ns").unwrap();
        assert!(matches!(hist.get("count").unwrap(), mad_model::json::Json::Int(n) if *n >= 1));
        // unknown subsystem errors cleanly
        assert!(s.execute("SHOW STATS ghost").is_err());
    }

    #[test]
    fn explain_analyze_executes_and_times_stages() {
        let mut s = session();
        let r = s
            .execute("EXPLAIN ANALYZE SELECT ALL FROM state-area-edge WHERE state.sname = 'SP'")
            .unwrap();
        let StatementResult::Analyzed { inner, trace } = r else {
            panic!("expected Analyzed, got {r:?}")
        };
        let StatementResult::Molecules(mt) = *inner else {
            panic!("inner result must be the executed SELECT")
        };
        assert_eq!(mt.len(), 1);
        assert_eq!(trace.stage_count(trace::StageKind::Derive), 1);
        assert!(trace.stage_ns(trace::StageKind::Derive) > 0);
        let text = trace.render();
        assert!(text.contains("derive"), "got: {text}");
        assert!(text.contains("molecules="), "got: {text}");
        // DML is executed too (ANALYZE is not a dry run)
        let r = s
            .execute("EXPLAIN ANALYZE INSERT ATOM state (sname = 'RJ', hectare = 1.0)")
            .unwrap();
        assert!(matches!(r, StatementResult::Analyzed { .. }));
        let mt = molecules(s.execute("SELECT ALL FROM state WHERE state.sname = 'RJ'").unwrap());
        assert_eq!(mt.len(), 1, "the analyzed INSERT committed");
        // nesting is rejected
        assert!(s.execute("EXPLAIN ANALYZE EXPLAIN ANALYZE SELECT ALL FROM state").is_err());
    }

    #[test]
    fn explain_analyze_times_commit_stages_in_shared_mode() {
        let handle = DbHandle::new(mini_geo());
        let mut s = Session::shared(handle);
        let r = s
            .execute("EXPLAIN ANALYZE UPDATE state[sname='SP'] SET hectare = 2.0")
            .unwrap();
        let StatementResult::Analyzed { trace, .. } = r else {
            panic!()
        };
        assert_eq!(
            trace.stage_count(trace::StageKind::Validate),
            1,
            "autocommit DML validates once: {}",
            trace.render()
        );
        // the publish stage owns the ticket wait and says whether the
        // commit queued or paid a rebase (neither, single session)
        let publish: Vec<_> =
            trace.stages.iter().filter(|s| s.kind == trace::StageKind::Publish).collect();
        assert_eq!(publish.len(), 1, "{}", trace.render());
        let info = |name: &str| publish[0].info.iter().find(|(k, _)| *k == name).map(|(_, v)| *v);
        assert!(info("wait_ns").is_some(), "{}", trace.render());
        assert_eq!(info("rebased"), Some(0), "{}", trace.render());
        // the shared registry accumulates commit counters
        let StatementResult::Stats(text) = s.execute("SHOW STATS txn").unwrap() else {
            panic!()
        };
        assert!(text.contains("txn.commits"), "got: {text}");
    }

    #[test]
    fn rendered_traced_returns_trace_even_on_error() {
        let mut s = session();
        let (ok, t) = s.execute_rendered_traced("SELECT ALL FROM state-area");
        assert!(ok.unwrap().contains("state"));
        assert_eq!(t.text, "SELECT ALL FROM state-area");
        assert!(t.total_ns > 0);
        assert!(t.stage_count(trace::StageKind::Lex) == 1 && t.stage_count(trace::StageKind::Parse) == 1);
        assert_eq!(t.stage_count(trace::StageKind::Render), 1);
        let (err, t) = s.execute_rendered_traced("SELECT ALL FROM ghost");
        assert!(err.is_err());
        assert!(t.total_ns > 0, "failed statements are traced too");
        assert_eq!(
            t.stage_count(trace::StageKind::Render),
            0,
            "nothing to render"
        );
    }

    #[test]
    fn transactional_script_roundtrip() {
        let mut s = session();
        let before = mad_storage::DatabaseSnapshot::capture(s.db()).to_json_string();
        let results = s
            .execute_script(
                "BEGIN;\n\
                 INSERT ATOM state (sname = 'RJ', hectare = 500.0);\n\
                 SELECT ALL FROM state WHERE state.sname = 'RJ';\n\
                 ABORT;",
            )
            .unwrap();
        assert_eq!(results.len(), 4);
        let StatementResult::Molecules(mt) = &results[2] else {
            panic!()
        };
        assert_eq!(mt.len(), 1, "in-transaction SELECT observed the insert");
        let after = mad_storage::DatabaseSnapshot::capture(s.db()).to_json_string();
        assert_eq!(before, after);
    }

    #[test]
    fn prepare_execute_roundtrip() {
        let mut s = session();
        let r = s
            .execute("PREPARE q AS SELECT ALL FROM state-area WHERE state.sname = 'SP'")
            .unwrap();
        assert!(matches!(r, StatementResult::Prepared(ref n) if n == "q"));
        for _ in 0..3 {
            let StatementResult::Molecules(mt) = s.execute("EXECUTE q").unwrap() else {
                panic!("expected molecules");
            };
            assert_eq!(mt.len(), 1);
        }
        // the parameter-free SELECT plan is cached after the eager prepare
        assert!(s.obs().counter("mql.prepared.hits").get() >= 2);
        let r = s.execute("DEALLOCATE q").unwrap();
        assert!(matches!(r, StatementResult::Deallocated { count: 1, .. }));
        let err = s.execute("EXECUTE q").unwrap_err();
        assert!(matches!(err, MadError::UnknownName { .. }), "{err}");
    }

    #[test]
    fn prepared_parameters_bind_per_execute() {
        let mut s = session();
        s.execute("PREPARE by_name AS SELECT ALL FROM state WHERE state.sname = $1")
            .unwrap();
        let StatementResult::Molecules(mt) = s.execute("EXECUTE by_name ('SP')").unwrap()
        else {
            panic!()
        };
        assert_eq!(mt.len(), 1);
        let StatementResult::Molecules(mt) = s.execute("EXECUTE by_name ('nope')").unwrap()
        else {
            panic!()
        };
        assert_eq!(mt.len(), 0);
        // wrong arity errors cleanly
        assert!(s.execute("EXECUTE by_name").is_err());
        assert!(s.execute("EXECUTE by_name ('a', 'b')").is_err());
        // parameterized DML binds too
        s.execute("PREPARE upd AS UPDATE state[sname=$1] SET hectare = $2")
            .unwrap();
        let r = s.execute("EXECUTE upd ('SP', 123.0)").unwrap();
        assert!(matches!(r, StatementResult::Updated { atoms: 1 }));
    }

    #[test]
    fn unbound_parameters_outside_prepare_error() {
        let mut s = session();
        let err = s
            .execute("SELECT ALL FROM state WHERE state.sname = $1")
            .unwrap_err();
        assert!(matches!(err, MadError::Analysis { .. }), "{err}");
        let err = s
            .execute("UPDATE state[sname=$1] SET hectare = 1.0")
            .unwrap_err();
        assert!(matches!(err, MadError::Analysis { .. }), "{err}");
    }

    #[test]
    fn prepared_plan_cache_invalidated_by_concurrent_commit() {
        let handle = DbHandle::new(mini_geo());
        let mut a = Session::shared(handle.clone());
        let mut b = Session::shared(handle.clone());
        a.execute("PREPARE q AS SELECT ALL FROM state").unwrap();
        let StatementResult::Molecules(mt) = a.execute("EXECUTE q").unwrap() else {
            panic!()
        };
        assert_eq!(mt.len(), 2);
        // another session commits a new state atom; the cached plan's
        // commit-seq tag no longer matches, so the next EXECUTE re-plans
        // against the refreshed fork and sees three states
        b.execute("INSERT ATOM state (sname = 'RJ', hectare = 1.0)")
            .unwrap();
        let StatementResult::Molecules(mt) = a.execute("EXECUTE q").unwrap() else {
            panic!()
        };
        assert_eq!(mt.len(), 3, "stale plan must never serve stale data");
        assert!(a.obs().counter("mql.prepared.misses").get() >= 1);
    }

    #[test]
    fn prepared_plan_invalidated_by_define() {
        let mut s = session();
        s.execute("DEFINE MOLECULE v AS state-area").unwrap();
        s.execute("PREPARE q AS SELECT ALL FROM v").unwrap();
        let StatementResult::Molecules(mt) = s.execute("EXECUTE q").unwrap() else {
            panic!()
        };
        assert_eq!(mt.structure.node_count(), 2);
        // redefine `v` to a different structure: the cached plan must drop
        s.execute("DEFINE MOLECULE v AS state").unwrap();
        let StatementResult::Molecules(mt) = s.execute("EXECUTE q").unwrap() else {
            panic!()
        };
        assert_eq!(mt.structure.node_count(), 1);
    }

    #[test]
    fn prepare_works_inside_transactions() {
        let mut s = Session::shared(DbHandle::new(mini_geo()));
        s.execute("PREPARE ins AS INSERT ATOM state (sname = $1, hectare = $2)")
            .unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("EXECUTE ins ('RJ', 1.0)").unwrap();
        s.execute("EXECUTE ins ('ES', 2.0)").unwrap();
        s.execute("COMMIT").unwrap();
        let StatementResult::Molecules(mt) = s.execute("SELECT ALL FROM state").unwrap()
        else {
            panic!()
        };
        assert_eq!(mt.len(), 4);
    }
}
