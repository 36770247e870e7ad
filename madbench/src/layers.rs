//! The traced pass: the per-layer numbers.
//!
//! Outside-in. The timed window runs once more for the counts only a
//! loaded server produces (conflicts, group commit, poller wake-ups,
//! tails). Then one connection's first statements are replayed
//! single-threaded at successive depths — over the wire, through
//! `Session::execute_rendered`, through lex / parse / plan / execute /
//! render (or begin / apply / commit) one call at a time, and finally the
//! bare derivation — with a span around every public call. Calls at
//! different depths cannot nest, so a layer's self time is the difference
//! of adjacent-depth medians; inside one depth it is the span minus its
//! children. No file outside this directory is instrumented.

use crate::gen::{self, Kind, Stmt, Workload};
use crate::run::{self, Bench, Window};
use crate::stats::{mean, p50_us, pct_us, quartiles};
use crate::{Metric, Outcome};
use mad_core::derive::Strategy;
use mad_core::ops::Engine;
use mad_model::bin::{BinEncode, BinResult};
use mad_model::{FxHashMap, MadError, Result, Value};
use mad_mql::ast::Statement;
use mad_mql::exec::{execute_dml, execute_planned, plan_select};
use mad_mql::Session;
use mad_net::frame::{decode_request, decode_response, encode_request, encode_response};
use mad_net::{Request, Response, Server, ENCODING_BINARY};
use mad_obs::MetricValue;
use mad_txn::{DbHandle, FsyncPolicy, Transaction};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Statements of connection 0 replayed at each depth …
const REPLAY_STATEMENTS: usize = 2000;
/// … or as many as the wire depth completes in this share of the window
/// (every deeper pass replays exactly that many, so the medians stay
/// comparable).
const REPLAY_BUDGET_SHARE: u32 = 5;
const PINGS: usize = 1000;
const PROBE_ROUNDS: usize = 200;
/// Commit records behind the checkpoint that `wal.recover_s` replays.
const RECOVERY_TAIL_COMMITS: u64 = 20_000;
const RECOVERY_REPEATS: usize = 5;
/// Parent span of the single calls one statement is taken apart into;
/// the durable variant holds the same calls against a logged handle.
const PIPELINE: &str = "mql.pipeline";
const PIPELINE_DURABLE: &str = "mql.pipeline_durable";

/// `{span, parent, request_id, start_ns, end_ns}` around one public call.
/// Spans of one replayed statement share its index as `request_id`.
struct Span {
    span: &'static str,
    parent: &'static str,
    request_id: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Spans are kept in memory and written out when the pass ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span.
    fn span<T>(
        &mut self,
        span: &'static str,
        parent: &'static str,
        request_id: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            span,
            parent,
            request_id,
            start_ns,
            end_ns,
        });
        out
    }

    /// Durations of every `span` under `parent`, in replay order.
    fn durations(&self, span: &str, parent: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.span == span && s.parent == parent)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Per accepted statement, the summed duration of its spans named in
    /// `spans` under `parent`.
    fn per_statement(
        &self,
        parent: &str,
        spans: &[&str],
        keep: impl Fn(usize) -> bool,
    ) -> PerStatement {
        let mut sums = PerStatement::default();
        for s in &self.spans {
            if s.parent == parent && spans.contains(&s.span) && keep(s.request_id) {
                *sums.entry(s.request_id).or_default() += s.end_ns - s.start_ns;
            }
        }
        sums
    }

    fn write_jsonl(&self, path: &Path) -> Result<()> {
        let io = |e: std::io::Error| MadError::io(format!("write {path:?}: {e}"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"span\": \"{}\", \"parent\": \"{}\", \"request_id\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.span, s.parent, s.request_id, s.start_ns, s.end_ns
            )
            .map_err(io)?;
        }
        out.flush().map_err(io)
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds by replayed statement.
type PerStatement = FxHashMap<usize, u64>;

/// Median in µs over the statements.
fn median_us(per: &PerStatement) -> f64 {
    p50_us(&mut per.values().copied().collect::<Vec<u64>>())
}

/// Median in µs of `a − b` over the statements both cover. Every depth
/// replays the same statements into the same accumulated state, so the
/// pairing cancels whatever a statement's position in the replay costs —
/// which a difference of two medians would not.
fn paired_us(a: &PerStatement, b: &PerStatement) -> f64 {
    let diffs: Vec<f64> = a
        .iter()
        .filter_map(|(id, x)| b.get(id).map(|y| (*x as f64 - *y as f64) / 1e3))
        .collect();
    quartiles(&diffs).1
}

/// Numeric registry readings by name.
fn registry(handle: &DbHandle) -> FxHashMap<String, f64> {
    handle
        .obs()
        .snapshot(None)
        .into_iter()
        .filter_map(|(name, v)| match v {
            MetricValue::Counter(n) | MetricValue::Gauge(n) => Some((name, n as f64)),
            _ => None,
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Registry growth of `name` between two readings.
fn delta(after: &FxHashMap<String, f64>, before: &FxHashMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

struct Pass<'a> {
    workload: Workload,
    seed: u64,
    dir: &'a Path,
    stmts: Vec<Stmt>,
    tracer: Tracer,
    out: Vec<Metric>,
    notes: Vec<String>,
}

const ALL: fn(usize) -> bool = |_| true;

impl Pass<'_> {
    fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.out.push(Metric {
            name,
            unit,
            value,
            samples: 0,
        });
    }

    /// A percentile of sorted nanosecond samples, in µs, with its count.
    fn put_pct(&mut self, name: &'static str, sorted_ns: &[u64], q: f64) {
        self.out.push(Metric {
            name,
            unit: "us",
            value: pct_us(sorted_ns, q),
            samples: sorted_ns.len(),
        });
    }

    /// The median of nanosecond samples, in µs, with its count.
    fn put_p50(&mut self, name: &'static str, mut ns: Vec<u64>) {
        ns.sort_unstable();
        self.put_pct(name, &ns, 0.5);
    }

    /// The median duration of every `span` under `parent`.
    fn put_span(&mut self, name: &'static str, span: &str, parent: &str) {
        let ns = self.tracer.durations(span, parent);
        self.put_p50(name, ns);
    }

    /// A fresh handle in the state the window started from, of the
    /// workload's kind (a durable one gets its own directory `sub`).
    fn handle(&self, sub: &str) -> Result<DbHandle> {
        let (db, _) = gen::generate(self.seed)?;
        let _ = db.csr_snapshot();
        let dir = self.dir.join(sub);
        let (handle, _) = run::open_handle(db, self.workload.durable().then_some(&dir))?;
        Ok(handle)
    }

    /// Numbers only a loaded server produces, from the window and the
    /// registry readings around it.
    fn window_counts(
        &mut self,
        w: &Window,
        before: &FxHashMap<String, f64>,
        after: &FxHashMap<String, f64>,
        bench: &Bench,
    ) {
        let d = |name: &str| delta(after, before, name);
        self.put_pct("client.read_p50_us", &w.read_ns, 0.5);
        self.put_pct("client.commit_p50_us", &w.commit_ns, 0.5);
        self.put_pct("client.txn_p50_us", &w.txn_ns, 0.5);
        self.put(
            "client.commits_per_s",
            "1/s",
            ratio(w.commit_ns.len() as f64, w.elapsed_s),
        );
        self.put_pct("client.read_rtt_p99_us", &w.read_ns, 0.99);
        self.put_pct("client.commit_rtt_p99_us", &w.commit_ns, 0.99);
        self.put("client.rtt_max_us", "us", w.max_ns as f64 / 1e3);
        self.put(
            "client.conflict_retries_per_txn",
            "count",
            ratio(w.conflicts as f64, w.txn_ns.len() as f64),
        );
        self.put(
            "net.poll_wakeups_per_stmt",
            "count",
            ratio(d("net.poll.wakeups"), d("net.requests")),
        );
        let commits = d("txn.commits");
        self.put(
            "txn.conflicts_per_commit",
            "count",
            ratio(d("txn.conflicts"), commits),
        );
        self.put(
            "txn.replays_per_commit",
            "count",
            ratio(d("txn.replays"), commits),
        );
        self.put(
            "txn.escalations_per_commit",
            "count",
            ratio(d("txn.escalations"), commits),
        );
        self.put(
            "txn.useful_commit_ratio",
            "ratio",
            ratio(commits, commits + d("txn.conflicts")),
        );
        self.put(
            "txn.commit_log_len_max",
            "count",
            w.commit_log_len_max as f64,
        );
        let gauge = |name: &str| after.get(name).copied().unwrap_or(0.0);
        self.put(
            "storage.csr_rebuilt_pair_ratio",
            "ratio",
            ratio(
                gauge("storage.csr_rebuilt_pairs"),
                gauge("storage.csr_pairs"),
            ),
        );
        self.put(
            "wal.fsyncs_per_commit",
            "count",
            ratio(d("wal.fsyncs"), commits),
        );
        self.put(
            "wal.group_size_mean",
            "count",
            ratio(d("wal.group_records"), d("wal.group_batches")),
        );
        self.put(
            "wal.checkpoints",
            "count",
            bench.handle.auto_checkpoint_count() as f64,
        );
        let segments = bench
            .wal
            .as_deref()
            .and_then(Path::parent)
            .map_or(0, |dir| {
                std::fs::read_dir(dir).map_or(0, |entries| {
                    entries
                        .flatten()
                        .filter(|e| e.file_name().to_string_lossy().starts_with("db.wal."))
                        .count()
                })
            });
        self.put("wal.segments", "count", segments as f64);
    }

    /// Depth 0: the wire. Decides how many statements every deeper pass
    /// replays, and measures the codec on the payloads that really flew.
    fn wire(&mut self, budget: Duration) -> Result<()> {
        let handle = self.handle("wire")?;
        let server = Server::serve(handle, "127.0.0.1:0")?;
        let mut client = run::connect(&server)?;
        let mut pings = Vec::with_capacity(PINGS);
        for _ in 0..PINGS {
            let t = Instant::now();
            client.ping()?;
            pings.push(elapsed_ns(t));
        }
        self.put_p50("net.ping_rtt_p50_us", pings);
        let started = Instant::now();
        let (mut bytes_out, mut text_bytes) = (Vec::new(), Vec::new());
        let mut done = 0;
        for (i, stmt) in self.stmts.iter().enumerate() {
            if started.elapsed() > budget {
                break;
            }
            let text = self
                .tracer
                .span("client.rtt", "", i, || client.execute(&stmt.mql))?;
            if stmt.kind == Kind::Read {
                text_bytes.push(text.len() as f64);
            }
            let request = Request::Statement(stmt.mql.clone());
            let response = Response::Result(text);
            let frame_len =
                self.tracer
                    .span("net.codec", "client.rtt", i, || -> Result<usize> {
                        decode_request(&encode_request(&request))?;
                        let frame = encode_response(&response);
                        decode_response(&frame)?;
                        Ok(frame.len())
                    })?;
            bytes_out.push(frame_len as f64);
            done = i + 1;
        }
        self.stmts.truncate(done);
        drop(client);
        // the binary encoding on a fresh session, reads only, so both
        // encodings see the same statements in the same session state
        let mut client = run::connect(&server)?;
        client.set_encoding(ENCODING_BINARY)?;
        let mut bin_bytes = Vec::new();
        for (i, stmt) in self
            .stmts
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == Kind::Read)
        {
            let bin = self
                .tracer
                .span("client.rtt_bin", "", i, || client.execute_bin(&stmt.mql))?;
            if let BinResult::Molecules(_) = &bin {
                bin_bytes.push(bin.to_bytes().len() as f64);
            }
        }
        drop(client);
        server.shutdown();
        self.put("net.bytes_out_per_stmt", "B", mean(&bytes_out));
        self.put("model.result_bytes_text", "B", mean(&text_bytes));
        self.put("model.result_bytes_bin", "B", mean(&bin_bytes));
        Ok(())
    }

    /// Depth 1: `Session::execute_rendered`, then the same under the
    /// statement tracer for its overhead and its coverage.
    fn session(&mut self) -> Result<()> {
        let mut session = Session::shared(self.handle("session")?);
        for (i, stmt) in self.stmts.iter().enumerate() {
            self.tracer.span("mql.session", "client.rtt", i, || {
                session.execute_rendered(&stmt.mql)
            })?;
        }
        drop(session);
        let mut session = Session::shared(self.handle("session-traced")?);
        let mut coverage = Vec::with_capacity(self.stmts.len());
        for (i, stmt) in self.stmts.iter().enumerate() {
            let (reply, trace) = self.tracer.span("mql.session_traced", "client.rtt", i, || {
                session.execute_rendered_traced(&stmt.mql)
            });
            reply?;
            let staged: u64 = trace.stages.iter().map(|s| s.nanos).sum();
            coverage.push(ratio(staged as f64, trace.total_ns as f64));
        }
        let (_, coverage, _) = quartiles(&coverage);
        self.put("obs.stage_coverage_ratio", "ratio", coverage);
        Ok(())
    }

    /// Depth 2 for SELECTs: lex, parse, plan, execute, render one call at
    /// a time on a bare engine; depth 3, the pure derivation, beside it
    /// on an engine nothing is propagated into.
    fn read_pipeline(&mut self) -> Result<()> {
        let (db, _) = gen::generate(self.seed)?;
        let _ = db.csr_snapshot();
        let pristine = Engine::new(db.clone());
        let mut engine = Engine::new(db);
        let mut catalog = FxHashMap::default();
        let (mut molecules, mut atoms) = (0usize, 0usize);
        let mut reads = 0usize;
        for (i, stmt) in self
            .stmts
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == Kind::Read)
        {
            let t = &mut self.tracer;
            let tokens = t.span("mql.lex", PIPELINE, i, || mad_mql::lexer::lex(&stmt.mql))?;
            let parsed = t.span("mql.parse", PIPELINE, i, || {
                mad_mql::parser::Parser::new(&tokens).parse_statement()
            })?;
            let Statement::Select(select) = parsed else {
                return Err(MadError::protocol(format!(
                    "`{}` is not a SELECT",
                    stmt.mql
                )));
            };
            let plan = t
                .span("mql.plan", PIPELINE, i, || {
                    plan_select(&engine, &mut catalog, &select)
                })?
                .ok_or_else(|| MadError::protocol("recursive SELECT in a workload"))?;
            let result = t.span("mql.execute_planned", PIPELINE, i, || {
                execute_planned(&mut engine, &plan)
            })?;
            t.span("mql.render", PIPELINE, i, || {
                mad_mql::format::render_result(engine.db(), &result)
            });
            let Some(qual) = &plan.qual else { continue };
            let derived = t.span("core.derive", "mql.execute_planned", i, || {
                pristine.evaluate_restricted(&plan.md, qual, Strategy::Bitset)
            })?;
            molecules += derived.len();
            atoms += derived.iter().map(|m| m.atom_occurrences()).sum::<usize>();
            reads += 1;
        }
        self.put_span("mql.lex_us", "mql.lex", PIPELINE);
        self.put_span("mql.parse_us", "mql.parse", PIPELINE);
        self.put_span("mql.plan_us", "mql.plan", PIPELINE);
        self.put_span("mql.render_us", "mql.render", PIPELINE);
        let derive = self.tracer.durations("core.derive", "mql.execute_planned");
        let derive_ns: u64 = derive.iter().sum();
        self.put_p50("core.derive_p50_us", derive);
        let planned = self.tracer.durations("mql.execute_planned", PIPELINE);
        // how much slower a statement gets per statement the same engine
        // already executed: last-quarter median minus first-quarter
        // median, over the distance between the quarters' centres
        let quarter = planned.len() / 4;
        let growth = if quarter > 0 {
            let head = p50_us(&mut planned[..quarter].to_vec());
            let tail = p50_us(&mut planned[planned.len() - quarter..].to_vec());
            (tail - head) * 1e3 / (planned.len() - quarter) as f64
        } else {
            0.0
        };
        let propagate = paired_us(
            &self
                .tracer
                .per_statement(PIPELINE, &["mql.execute_planned"], ALL),
            &self
                .tracer
                .per_statement("mql.execute_planned", &["core.derive"], ALL),
        );
        self.out.push(Metric {
            name: "core.propagate_us",
            unit: "us",
            value: propagate,
            samples: planned.len(),
        });
        self.put("core.propagate_growth_ns_per_stmt", "ns", growth);
        self.put(
            "core.molecules_per_stmt",
            "count",
            ratio(molecules as f64, reads as f64),
        );
        self.put(
            "core.atoms_per_molecule",
            "count",
            ratio(atoms as f64, molecules as f64),
        );
        self.put(
            "core.derive_ns_per_atom",
            "ns",
            ratio(derive_ns as f64, atoms as f64),
        );
        Ok(())
    }

    /// Depth 2 for DML: lex and parse, then `Transaction::begin`,
    /// `execute_dml`, `Transaction::commit` one call at a time on
    /// `handle`, all under `parent`. SELECTs inside a transaction are
    /// left to [`Pass::read_pipeline`]. Returns the commits made.
    fn write_pipeline(&mut self, handle: &DbHandle, parent: &'static str) -> Result<u64> {
        let mut open: Option<Transaction> = None;
        let mut commits = 0;
        for (i, stmt) in self
            .stmts
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind != Kind::Read)
        {
            let t = &mut self.tracer;
            let tokens = t.span("mql.lex", parent, i, || mad_mql::lexer::lex(&stmt.mql))?;
            let parsed = t.span("mql.parse", parent, i, || {
                mad_mql::parser::Parser::new(&tokens).parse_statement()
            })?;
            match parsed {
                Statement::Begin => {
                    open = Some(t.span("txn.begin", parent, i, || Transaction::begin(handle)));
                }
                Statement::Commit => {
                    let txn = open
                        .take()
                        .ok_or_else(|| MadError::txn_state("COMMIT without BEGIN"))?;
                    t.span("txn.commit", parent, i, || txn.commit())?;
                    commits += 1;
                }
                dml => match open.as_mut() {
                    Some(txn) => {
                        t.span("txn.apply", parent, i, || execute_dml(txn, &dml))?;
                    }
                    None => {
                        let mut txn = t.span("txn.begin", parent, i, || Transaction::begin(handle));
                        t.span("txn.apply", parent, i, || execute_dml(&mut txn, &dml))?;
                        t.span("txn.commit", parent, i, || txn.commit())?;
                        commits += 1;
                    }
                },
            }
        }
        Ok(commits)
    }

    fn write_pipelines(&mut self) -> Result<()> {
        let (db, _) = gen::generate(self.seed)?;
        self.write_pipeline(&DbHandle::new(db), PIPELINE)?;
        self.put_span("txn.begin_us", "txn.begin", PIPELINE);
        self.put_span("txn.apply_us", "txn.apply", PIPELINE);
        self.put_span("txn.commit_mem_us", "txn.commit", PIPELINE);
        let (mut durable_extra, mut bytes_per_commit, mut checkpoint_s) = (0.0, 0.0, 0.0);
        if self.workload.durable() {
            // the same calls against a write-ahead-logged handle: what the
            // log adds to a commit, and what a commit adds to the log
            let handle = self.handle("txn-durable")?;
            let before = handle.wal_len_bytes().unwrap_or(0);
            let commits = self.write_pipeline(&handle, PIPELINE_DURABLE)?;
            let grown = handle.wal_len_bytes().unwrap_or(0).saturating_sub(before);
            bytes_per_commit = ratio(grown as f64, commits as f64);
            durable_extra = paired_us(
                &self
                    .tracer
                    .per_statement(PIPELINE_DURABLE, &["txn.commit"], ALL),
                &self.tracer.per_statement(PIPELINE, &["txn.commit"], ALL),
            );
            let started = Instant::now();
            handle.checkpoint()?;
            checkpoint_s = started.elapsed().as_secs_f64();
        }
        self.put("wal.durable_extra_us", "us", durable_extra);
        self.put("wal.bytes_per_commit", "B", bytes_per_commit);
        self.put("wal.checkpoint_s", "s", checkpoint_s);
        Ok(())
    }

    /// Single calls the replays do not isolate.
    fn probes(&mut self) -> Result<()> {
        let handle = self.handle("probes")?;
        let mut forks = Vec::with_capacity(PROBE_ROUNDS);
        for _ in 0..PROBE_ROUNDS {
            let t = Instant::now();
            let fork = handle.fork();
            forks.push(elapsed_ns(t));
            drop(fork);
        }
        self.put_p50("storage.fork_us", forks);

        // the CSR snapshot of a fork after one link write, against the
        // same call again (warm)
        let committed = handle.committed();
        let schema = committed.schema();
        let (state, area) = (schema.atom_type_id("state")?, schema.atom_type_id("area")?);
        let state_area = schema.link_type_id("state-area")?;
        let (states, areas) = (committed.atom_ids_of(state), committed.atom_ids_of(area));
        let mut rebuilds = Vec::with_capacity(PROBE_ROUNDS);
        for (s, a) in states.iter().zip(areas.iter().skip(1)).take(PROBE_ROUNDS) {
            let (mut fork, _) = handle.fork();
            fork.connect(state_area, *s, *a)?;
            let t = Instant::now();
            let _ = fork.csr_snapshot();
            let cold = elapsed_ns(t);
            let t = Instant::now();
            let _ = fork.csr_snapshot();
            rebuilds.push(cold.saturating_sub(elapsed_ns(t)));
        }
        self.put_p50("storage.csr_rebuild_us", rebuilds);

        // a session's first statement after somebody else's commit,
        // against the same statement again
        let query = self
            .stmts
            .iter()
            .find(|s| s.kind == Kind::Read)
            .map_or_else(|| gen::point_read(0), |s| s.mql.clone());
        let mut reader = Session::shared(handle.clone());
        let mut writer = Session::shared(handle.clone());
        let (mut first, mut again) = (Vec::new(), Vec::new());
        for i in 0..PROBE_ROUNDS {
            writer.execute(&format!("UPDATE state[sname='S1'] SET hectare = {i}.5"))?;
            let t = Instant::now();
            reader.execute_rendered(&query)?;
            first.push(elapsed_ns(t));
            let t = Instant::now();
            reader.execute_rendered(&query)?;
            again.push(elapsed_ns(t));
        }
        let refresh = (p50_us(&mut first) - p50_us(&mut again)).max(0.0);
        self.out.push(Metric {
            name: "mql.session_refresh_us",
            unit: "us",
            value: refresh,
            samples: first.len(),
        });

        let before = registry(&handle);
        let mut prepared = Session::shared(handle.clone());
        prepared.execute(&format!("PREPARE madbench AS {query}"))?;
        let mut executes = Vec::with_capacity(PROBE_ROUNDS);
        for _ in 0..PROBE_ROUNDS {
            let t = Instant::now();
            prepared.execute_rendered("EXECUTE madbench")?;
            executes.push(elapsed_ns(t));
        }
        let after = registry(&handle);
        let hits = delta(&after, &before, "mql.prepared.hits");
        self.put_p50("mql.prepared_execute_us", executes);
        self.put(
            "mql.prepared_hit_ratio",
            "ratio",
            ratio(hits, hits + delta(&after, &before, "mql.prepared.misses")),
        );
        Ok(())
    }

    /// `DbHandle::open_durable` on a checkpoint plus a fixed tail of
    /// commit records. The tail is written without waiting for the disk;
    /// the bytes recovery reads are the same.
    fn recovery(&mut self) -> Result<()> {
        if !self.workload.durable() {
            self.put("wal.recover_s", "s", 0.0);
            self.put("wal.recover_records_per_s", "1/s", 0.0);
            return Ok(());
        }
        let dir = self.dir.join("recover");
        std::fs::create_dir_all(&dir).map_err(|e| MadError::io(format!("create {dir:?}: {e}")))?;
        let wal = dir.join("db.wal");
        let (db, _) = gen::generate(self.seed)?;
        let state = db.schema().atom_type_id("state")?;
        let slots = db.atom_count(state) as u64;
        let handle = DbHandle::create_durable(db, &wal, FsyncPolicy::Never)?;
        let write = |handle: &DbHandle, n: u64| -> Result<()> {
            let mut txn = Transaction::begin(handle);
            let slot = u32::try_from(n % slots).unwrap_or(0);
            txn.update_attr(
                mad_model::AtomId::new(state, slot),
                1,
                Value::Float(n as f64),
            )?;
            txn.commit().map(|_| ())
        };
        for n in 0..100 {
            write(&handle, n)?;
        }
        handle.checkpoint()?;
        for n in 0..RECOVERY_TAIL_COMMITS {
            write(&handle, n)?;
        }
        drop(handle);
        let mut times = Vec::with_capacity(RECOVERY_REPEATS);
        for _ in 0..RECOVERY_REPEATS {
            let t = Instant::now();
            let reopened = DbHandle::open_durable(&wal, run::FSYNC)?;
            times.push(t.elapsed().as_secs_f64());
            let replayed = reopened.recovery_info().map_or(0, |i| i.commits_replayed);
            if replayed != RECOVERY_TAIL_COMMITS {
                return Err(MadError::wal(format!(
                    "recovery replayed {replayed} records, the tail has {RECOVERY_TAIL_COMMITS}"
                )));
            }
        }
        let (_, recover_s, _) = quartiles(&times);
        self.out.push(Metric {
            name: "wal.recover_s",
            unit: "s",
            value: recover_s,
            samples: times.len(),
        });
        self.put(
            "wal.recover_records_per_s",
            "1/s",
            ratio(RECOVERY_TAIL_COMMITS as f64, recover_s),
        );
        Ok(())
    }

    /// Adjacent-depth differences and the ledger: the wire median of the
    /// workload's operation class, attributed to layers.
    fn ledger(&mut self) {
        let class = self.workload.op_kind();
        let kinds: Vec<Kind> = self.stmts.iter().map(|s| s.kind).collect();
        let in_class = |i: usize| kinds.get(i) == Some(&class);
        let reads = |i: usize| kinds.get(i) == Some(&Kind::Read);
        let t = &self.tracer;
        // a durable workload's single calls are the ones against the log
        let calls = if self.workload.durable() {
            PIPELINE_DURABLE
        } else {
            PIPELINE
        };
        const TXN: [&str; 3] = ["txn.begin", "txn.apply", "txn.commit"];
        let wire = t.per_statement("", &["client.rtt"], in_class);
        let session = t.per_statement("client.rtt", &["mql.session"], in_class);
        let traced = t.per_statement("client.rtt", &["mql.session_traced"], in_class);
        let codec = t.per_statement("client.rtt", &["net.codec"], in_class);
        let front = ["mql.lex", "mql.parse", "mql.plan", "mql.render"];
        let mql = median_us(&t.per_statement(calls, &front, in_class));
        let planned = t.per_statement(PIPELINE, &["mql.execute_planned"], in_class);
        let in_memory = t.per_statement(PIPELINE, &TXN, in_class);
        let logged = t.per_statement(calls, &TXN, in_class);
        let below: PerStatement = planned
            .iter()
            .chain(&logged)
            .map(|(id, ns)| (*id, *ns))
            .collect();
        let (wire_us, session_us) = (median_us(&wire), median_us(&session));
        let (core, txn) = (median_us(&planned), median_us(&in_memory));
        let net = paired_us(&wire, &session);
        let wal = paired_us(&logged, &in_memory);
        let accounted = net + mql + core + txn + wal;
        let bin_vs_text = paired_us(
            &t.per_statement("", &["client.rtt_bin"], reads),
            &t.per_statement("", &["client.rtt"], reads),
        );
        self.notes.push(format!(
            "ledger: wire p50 {wire_us:.1}us (n={}) = net {net:.1} + mql {mql:.1} + core {core:.1} \
             + txn {txn:.1} + wal {wal:.1} + unaccounted {:.1}",
            wire.len(),
            wire_us - accounted
        ));
        self.put("net.self_p50_us", "us", net);
        self.put("net.frame_codec_us", "us", median_us(&codec));
        self.put("mql.self_p50_us", "us", paired_us(&session, &below));
        self.put("model.bin_vs_text_us", "us", bin_vs_text);
        self.put(
            "obs.trace_overhead_ratio",
            "ratio",
            ratio(session_us + paired_us(&traced, &session), session_us),
        );
        self.put("ledger.accounted_ratio", "ratio", ratio(accounted, wire_us));
    }
}

/// The whole traced run of one workload.
pub fn traced(
    workload: Workload,
    seed: u64,
    measure: Duration,
    dir: &Path,
    spans: &Path,
) -> Result<Outcome> {
    let (mut bench, _) = run::setup(workload, seed, &dir.join("window"))?;
    let stmts = bench
        .scripts
        .first()
        .map(|s| s.first_statements(REPLAY_STATEMENTS))
        .unwrap_or_default();
    let mut pass = Pass {
        workload,
        seed,
        dir,
        stmts,
        tracer: Tracer::new(),
        out: Vec::new(),
        notes: Vec::new(),
    };
    let before = registry(&bench.handle);
    let window = run::window(&mut bench, crate::warmup_for(measure), measure, true);
    let after = registry(&bench.handle);
    // the replays below allocate too: read the high-water mark now
    pass.put("process.peak_rss_mb", "MB", run::peak_rss_mb()?);
    pass.window_counts(&window, &before, &after, &bench);
    let breaches = run::verify(bench, &window)?;
    pass.wire(measure / REPLAY_BUDGET_SHARE)?;
    pass.session()?;
    pass.read_pipeline()?;
    pass.write_pipelines()?;
    pass.probes()?;
    pass.recovery()?;
    pass.ledger();
    pass.tracer.write_jsonl(spans)?;
    pass.notes.push(format!(
        "{} statements replayed per depth; {} spans written to {}",
        pass.stmts.len(),
        pass.tracer.spans.len(),
        spans.display()
    ));
    Ok(Outcome {
        correct: breaches.is_empty(),
        attempted: window.attempted.max(1),
        failed: window.failed,
        metrics: pass.out,
        breaches,
        notes: pass.notes,
    })
}
