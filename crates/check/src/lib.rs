//! `mad_check` — a project-specific static analyzer for the MAD
//! workspace.
//!
//! It checks only what rustc, clippy and the tier-1 tests cannot say.
//! Unsafe code is forbidden by the workspace lints, casts in the wire
//! codecs are denied by clippy, wire tags are pinned by
//! `tests/wire_roundtrip.rs` and the crate layering by
//! `tests/crate_layering.rs`. What is left needs a view of guard scopes
//! or a committed budget. The analyzer is hand-rolled in the same
//! offline discipline as the rest of the tree: no `syn`, no external
//! crates — a Rust token lexer in the style of the MQL lexer
//! ([`lexer`]), a token-tree/item scanner ([`tree`]), and three lints:
//!
//! * **lock-order** ([`locks`]) — every lexically nested
//!   `.lock()`/`.read()`/`.write()` guard scope in `mad-txn`/`mad-wal`/
//!   `mad-repl`/`mad-net` must acquire locks in increasing rank of the
//!   normative ARCHITECTURE.md table ([`spec`]), with one level of
//!   interprocedural propagation through a call-graph approximation. A
//!   violation is a statically detected deadlock candidate on the
//!   commit path.
//! * **reg-block** ([`locks`]) — no blocking call while a
//!   readiness-registration lock is held.
//! * **panic-ratchet** ([`panics`]) — `unwrap`/`expect`/`panic!`/
//!   `unreachable!`/slice-indexing in non-test code is budgeted by a
//!   committed ratchet file ([`ratchet`]) whose counts may only
//!   decrease.
//!
//! Suppressions use `// check: allow(kind, "reason")` comments — a
//! trailing comment applies to its own line, a standalone comment to
//! the next line. The reason string is mandatory; a malformed
//! annotation or an unknown kind is itself a diagnostic, so a typo can
//! never silently disable a lint.

pub mod lexer;
pub mod locks;
pub mod panics;
pub mod ratchet;
pub mod spec;
pub mod tree;
pub mod workspace;

use std::collections::BTreeMap;
use std::fmt;

use lexer::Annotation;
use tree::Node;

/// One rustc-style diagnostic: `file:line: [lint] message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line (0 for file-level problems).
    pub line: u32,
    /// Lint name, e.g. `lock-order`.
    pub lint: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

/// A source file handed to the analyzer (from disk or from a fixture).
#[derive(Clone, Debug)]
pub struct SrcFile {
    /// Package name of the owning crate (`mad-txn`, …).
    pub crate_name: String,
    /// Path shown in diagnostics, relative to the workspace root.
    pub rel_path: String,
    /// Treat the whole file as test code (`tests/`, `benches/`,
    /// `examples/`)?
    pub assume_test: bool,
    /// The file contents.
    pub text: String,
}

/// A lexed-and-treed source file, ready for the lints.
pub struct ParsedFile {
    /// Owning crate package name.
    pub crate_name: String,
    /// Diagnostic path.
    pub rel_path: String,
    /// Whole file is test code?
    pub assume_test: bool,
    /// Token tree.
    pub tree: Vec<Node>,
    /// `check:` annotations found in comments.
    pub annotations: Vec<Annotation>,
}

impl ParsedFile {
    /// Is there an `allow(kind, …)` annotation applying to `line`?
    pub fn allowed(&self, kind: &str, line: u32) -> bool {
        self.annotations
            .iter()
            .any(|a| a.kind == kind && a.applies_to == line)
    }
}

/// The annotation kinds the lints understand.
pub const ALLOW_KINDS: &[&str] = &["panic", "lock", "reg-block"];

/// Parse one source file; lexer/tree problems become diagnostics.
pub fn parse_file(src: &SrcFile, diags: &mut Vec<Diagnostic>) -> ParsedFile {
    let lexed = lexer::lex(&src.text);
    let mut errors = lexed.errors;
    let tree = tree::build_tree(&lexed.toks, &mut errors);
    for e in errors {
        diags.push(Diagnostic {
            file: src.rel_path.clone(),
            line: e.line,
            lint: "parse",
            message: e.detail,
        });
    }
    for a in &lexed.annotations {
        if !ALLOW_KINDS.contains(&a.kind.as_str()) {
            diags.push(Diagnostic {
                file: src.rel_path.clone(),
                line: a.at,
                lint: "annotation",
                message: format!(
                    "unknown allow kind `{}` (expected one of {})",
                    a.kind,
                    ALLOW_KINDS.join(", ")
                ),
            });
        }
    }
    ParsedFile {
        crate_name: src.crate_name.clone(),
        rel_path: src.rel_path.clone(),
        assume_test: src.assume_test,
        tree,
        annotations: lexed.annotations,
    }
}

/// Crates whose guard scopes the lock lint walks.
pub const LOCK_CRATES: &[&str] = &["mad-txn", "mad-wal", "mad-repl", "mad-net"];

/// Readiness-registration locks: while one of these is held, no
/// blocking call may run (the event loop would stall every connection).
/// Checked by name within [`LOCK_CRATES`].
pub const REGISTRATION_LOCKS: &[&str] = &["reg"];

/// The full analysis result.
pub struct Analysis {
    /// All diagnostics except the ratchet comparison, sorted by
    /// file/line.
    pub diagnostics: Vec<Diagnostic>,
    /// Unannotated panic-site counts per crate (input to the ratchet).
    pub panic_counts: BTreeMap<String, usize>,
}

/// How to treat the committed ratchet file.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RatchetMode {
    /// Compare measured counts against the committed budget; any
    /// mismatch (in either direction) is a diagnostic.
    Enforce,
    /// Rewrite the ratchet file from measured counts — but refuse to
    /// raise any budget.
    Update,
}

/// Full filesystem run: load the workspace under `root`, parse the
/// ARCHITECTURE.md spec, run every lint, and enforce (or update) the
/// ratchet. `Err` means the analyzer could not run at all (missing
/// spec, unreadable tree) as opposed to "ran and found problems".
pub fn run_workspace(
    root: &std::path::Path,
    mode: RatchetMode,
) -> Result<Vec<Diagnostic>, String> {
    let arch = std::fs::read_to_string(root.join("ARCHITECTURE.md"))
        .map_err(|e| format!("ARCHITECTURE.md: {e}"))?;
    let spec = spec::parse(&arch)?;
    let sources = workspace::load(root)?;
    let mut diags = Vec::new();
    let files: Vec<ParsedFile> =
        sources.iter().map(|s| parse_file(s, &mut diags)).collect();
    let mut analysis = analyze(&files, &spec, diags);
    let ratchet_path = root.join(ratchet::RATCHET_FILE);
    match mode {
        RatchetMode::Enforce => {
            let text = std::fs::read_to_string(&ratchet_path).map_err(|e| {
                format!(
                    "{}: {e} (run `mad-check --ratchet-update` to create it)",
                    ratchet::RATCHET_FILE
                )
            })?;
            let budget = ratchet::parse(&text)?;
            ratchet::compare(&budget, &analysis.panic_counts, &mut analysis.diagnostics);
        }
        RatchetMode::Update => {
            if let Ok(old) = std::fs::read_to_string(&ratchet_path) {
                let budget = ratchet::parse(&old)?;
                for (krate, &n) in &analysis.panic_counts {
                    if let Some(&(b, _)) = budget.get(krate) {
                        if n > b {
                            return Err(format!(
                                "refusing to raise the ratchet: `{krate}` has {n} \
                                 unannotated panic site(s), committed budget is {b}"
                            ));
                        }
                    }
                }
            }
            std::fs::write(&ratchet_path, ratchet::render(&analysis.panic_counts))
                .map_err(|e| format!("{}: {e}", ratchet::RATCHET_FILE))?;
        }
    }
    analysis.diagnostics.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(analysis.diagnostics)
}

/// Run every lint over parsed sources.
pub fn analyze(files: &[ParsedFile], spec: &spec::Spec, mut diags: Vec<Diagnostic>) -> Analysis {
    locks::check(files, spec, &mut diags);
    let panic_counts = panics::audit(files, &mut diags);
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Analysis { diagnostics: diags, panic_counts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_allow_kind_is_a_diagnostic() {
        // casts are clippy's to deny, so `cast` is no kind here; a
        // leftover annotation must not pass silently
        let src = SrcFile {
            crate_name: "mad-wal".into(),
            rel_path: "crates/wal/src/x.rs".into(),
            assume_test: false,
            text: "let y = x as u32; // check: allow(cast, \"bounded\")\n".into(),
        };
        let mut diags = Vec::new();
        parse_file(&src, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].lint, "annotation");
        assert!(diags[0].message.contains("`cast`"), "{}", diags[0].message);
    }
}
