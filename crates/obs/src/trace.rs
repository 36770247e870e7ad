//! Per-statement span tracing.
//!
//! One [`StmtTrace`] follows a statement through the whole stack: the
//! session begins a trace, every layer it crosses (lexer, parser,
//! derivation, commit validation, WAL append, fsync/replication waits)
//! records a [`StageRec`], and the session takes the finished trace —
//! rendering it for `EXPLAIN ANALYZE` or handing it to the slow-query
//! log.
//!
//! The trace rides a **thread-local**, not a context argument: the
//! entire execution of one statement — including the commit protocol,
//! the group-commit wait and the replication-quorum wait — happens on
//! the session's thread, so a thread-local is exact and keeps deep
//! layers (`mad_wal`, `mad_txn`) free of plumbing. When no trace is
//! active the cost of an instrumentation point is one thread-local
//! check; no clock is sampled and nothing allocates.

use std::cell::RefCell;
use std::fmt;
use std::time::Instant;

/// Which layer a stage was recorded by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    /// MQL tokenisation.
    Lex,
    /// MQL parsing.
    Parse,
    /// Statement planning/analysis before execution.
    Plan,
    /// Molecule derivation (snapshot reuse vs CSR re-freeze recorded in
    /// the stage info).
    Derive,
    /// DML application to the write overlay.
    Apply,
    /// Commit validation against the conflict log, under the commit
    /// ticket (hash probes in the info).
    Validate,
    /// Op-log replay onto the current image by a commit whose begin
    /// image went stale (at most once per commit, under the ticket).
    Replay,
    /// WAL record framing + buffered append.
    WalAppend,
    /// Waiting for the WAL fsync (group-commit batch size in the info
    /// when this thread was the elected syncer).
    FsyncWait,
    /// Waiting for the replication ack quorum.
    ReplWait,
    /// Waiting for the commit ticket, then the publication under it:
    /// conflict-log append, image swap, feed push (`wait_ns` and
    /// `rebased` in the info).
    Publish,
    /// Encoding the result for the client: text rendering or the binary
    /// encoding (`bytes` in the info for text).
    Render,
}

impl StageKind {
    /// Stable lowercase name (used by renderers and the JSON variant).
    pub fn as_str(self) -> &'static str {
        match self {
            StageKind::Lex => "lex",
            StageKind::Parse => "parse",
            StageKind::Plan => "plan",
            StageKind::Derive => "derive",
            StageKind::Apply => "apply",
            StageKind::Validate => "validate",
            StageKind::Replay => "replay",
            StageKind::WalAppend => "wal_append",
            StageKind::FsyncWait => "fsync_wait",
            StageKind::ReplWait => "repl_wait",
            StageKind::Publish => "publish",
            StageKind::Render => "render",
        }
    }
}

/// One recorded stage of a statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageRec {
    /// Which layer recorded it.
    pub kind: StageKind,
    /// Wall time spent in the stage.
    pub nanos: u64,
    /// Free-form label (e.g. the derivation strategy chosen).
    pub note: Option<String>,
    /// Named counters (probes, bytes, retries, slots…).
    pub info: Vec<(&'static str, u64)>,
}

/// The finished trace of one statement.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StmtTrace {
    /// The statement text (filled in by whoever took the trace).
    pub text: String,
    /// Total wall time from `begin` to `take`.
    pub total_ns: u64,
    /// Stages in the order they were recorded.
    pub stages: Vec<StageRec>,
}

impl StmtTrace {
    /// Sum of recorded time across all stages of `kind`.
    pub fn stage_ns(&self, kind: StageKind) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.nanos)
            .sum()
    }

    /// Number of stages of `kind` recorded.
    pub fn stage_count(&self, kind: StageKind) -> usize {
        self.stages.iter().filter(|s| s.kind == kind).count()
    }

    /// Render as the `EXPLAIN ANALYZE` stage table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.stages {
            let mut line = format!("  {:<10} {:>12}", s.kind.as_str(), fmt_ns(s.nanos));
            if let Some(n) = &s.note {
                line.push_str(&format!("  {n}"));
            }
            for (k, v) in &s.info {
                line.push_str(&format!("  {k}={v}"));
            }
            out.push_str(&line);
            out.push('\n');
        }
        let accounted: u64 = self.stages.iter().map(|s| s.nanos).sum();
        out.push_str(&format!(
            "  {:<10} {:>12}  (stages account for {})\n",
            "total",
            fmt_ns(self.total_ns),
            fmt_ns(accounted.min(self.total_ns)),
        ));
        out
    }
}

impl fmt::Display for StmtTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Human-friendly nanosecond rendering (`1.234ms`, `56.7µs`, `890ns`).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

struct Active {
    started: Instant,
    stages: Vec<StageRec>,
}

thread_local! {
    static CURRENT: RefCell<Option<Active>> = const { RefCell::new(None) };
}

/// Start tracing on this thread, discarding any unfinished trace.
pub fn begin() {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(Active { started: Instant::now(), stages: Vec::new() })
    });
}

/// Is a trace active on this thread? (The cheap instrumentation check.)
pub fn is_active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Finish the active trace and return it (`None` if none was active).
pub fn take() -> Option<StmtTrace> {
    CURRENT.with(|c| {
        c.borrow_mut().take().map(|a| StmtTrace {
            text: String::new(),
            total_ns: a.started.elapsed().as_nanos() as u64,
            stages: a.stages,
        })
    })
}

/// Copy the active trace so far without deactivating it.
///
/// `EXPLAIN ANALYZE` uses this when it runs nested inside a trace the
/// server began, so the server still gets the full trace for its
/// slow-query log.
pub fn snapshot() -> Option<StmtTrace> {
    CURRENT.with(|c| {
        c.borrow().as_ref().map(|a| StmtTrace {
            text: String::new(),
            total_ns: a.started.elapsed().as_nanos() as u64,
            stages: a.stages.clone(),
        })
    })
}

/// Record a stage directly (timers below are the usual entry point).
pub fn record(kind: StageKind, nanos: u64, note: Option<String>, info: &[(&'static str, u64)]) {
    CURRENT.with(|c| {
        if let Some(a) = c.borrow_mut().as_mut() {
            a.stages.push(StageRec { kind, nanos, note, info: info.to_vec() });
        }
    });
}

/// A scoped stage timer: samples the clock only when a trace is active,
/// records on `finish*`. Dropping without finishing records nothing.
#[must_use]
pub struct StageTimer {
    kind: StageKind,
    start: Option<Instant>,
}

impl StageTimer {
    /// Start timing `kind` (no-op when no trace is active).
    pub fn start(kind: StageKind) -> Self {
        let start = if is_active() { Some(Instant::now()) } else { None };
        StageTimer { kind, start }
    }

    /// Whether this timer will record anything — callers use this to
    /// skip *gathering* expensive notes/counters (string formatting,
    /// stats probes) on the untraced fast path, not just recording them.
    pub fn is_timing(&self) -> bool {
        self.start.is_some()
    }

    /// Record the elapsed time.
    pub fn finish(self) {
        self.finish_with(None, &[]);
    }

    /// Record the elapsed time with counters.
    pub fn finish_info(self, info: &[(&'static str, u64)]) {
        self.finish_with(None, info);
    }

    /// Record the elapsed time with a note and counters.
    pub fn finish_with(self, note: Option<String>, info: &[(&'static str, u64)]) {
        if let Some(start) = self.start {
            record(self.kind, start.elapsed().as_nanos() as u64, note, info);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_thread_records_nothing() {
        assert!(!is_active());
        let t = StageTimer::start(StageKind::Parse);
        t.finish();
        record(StageKind::Lex, 5, None, &[]);
        assert!(take().is_none());
    }

    #[test]
    fn stages_accumulate_in_order() {
        begin();
        record(StageKind::Lex, 10, None, &[]);
        record(StageKind::Parse, 20, None, &[("tokens", 7)]);
        record(StageKind::Validate, 5, None, &[("probes", 3)]);
        record(StageKind::Validate, 6, None, &[("probes", 3)]);
        let tr = take().expect("trace was active");
        assert!(!is_active(), "take deactivates");
        assert_eq!(
            tr.stages.iter().map(|s| s.kind).collect::<Vec<_>>(),
            [StageKind::Lex, StageKind::Parse, StageKind::Validate, StageKind::Validate]
        );
        assert_eq!(tr.stage_ns(StageKind::Validate), 11);
        assert_eq!(tr.stage_count(StageKind::Validate), 2);
        let rendered = tr.render();
        assert!(rendered.contains("parse"), "{rendered}");
        assert!(rendered.contains("probes=3"), "{rendered}");
        assert!(rendered.contains("total"), "{rendered}");
    }

    #[test]
    fn snapshot_leaves_trace_active() {
        begin();
        record(StageKind::Derive, 100, Some("bitset".into()), &[]);
        let snap = snapshot().expect("active");
        assert_eq!(snap.stages.len(), 1);
        assert!(is_active());
        record(StageKind::Apply, 1, None, &[]);
        let tr = take().expect("still active");
        assert_eq!(tr.stages.len(), 2);
        assert!(tr.total_ns >= snap.total_ns);
    }

    #[test]
    fn timer_records_only_when_active() {
        begin();
        let t = StageTimer::start(StageKind::FsyncWait);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.finish_info(&[("batch", 4)]);
        let tr = take().expect("active");
        assert_eq!(tr.stages.len(), 1);
        assert!(tr.stages.first().map(|s| s.nanos).unwrap_or(0) >= 1_000_000);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(890), "890ns");
        assert_eq!(fmt_ns(56_700), "56.7µs");
        assert_eq!(fmt_ns(1_234_000), "1.234ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.500s");
    }
}
