#![forbid(unsafe_code)]
//! `mad_check` — a project-specific static analyzer for the MAD
//! workspace.
//!
//! The analyzer is hand-rolled in the same offline discipline as the
//! rest of the tree: no `syn`, no external crates — a Rust token lexer
//! in the style of the MQL lexer ([`lexer`]), a token-tree/item scanner
//! ([`tree`]), and five lints that enforce the project invariants
//! declared in the normative tables of `ARCHITECTURE.md`:
//!
//! * **lock-order** ([`locks`]) — every lexically nested
//!   `.lock()`/`.read()`/`.write()` guard scope in `mad-txn`/`mad-wal`/
//!   `mad-repl` must acquire locks in increasing hierarchy rank, with
//!   one level of interprocedural propagation through a call-graph
//!   approximation. A violation is a statically detected deadlock
//!   candidate on the commit path.
//! * **layering** ([`layering`]) — `Cargo.toml` dependencies and
//!   `use mad_*` imports may only point downward in the crate DAG.
//! * **panic-ratchet** ([`panics`]) — `unwrap`/`expect`/`panic!`/
//!   `unreachable!`/slice-indexing in non-test code is budgeted by a
//!   committed ratchet file whose counts may only decrease.
//! * **cast** ([`casts`]) — narrowing `as u32`/`as u64`/`as usize`
//!   casts in the wire-codec files must be `try_into`-checked or carry
//!   an explicit `// check: allow(cast, "…")` justification.
//! * **wire-tag** ([`wiretags`]) — every `MadError` variant has a
//!   transport tag arm in `mad_net::frame`, and encode/decode arm
//!   counts match enum variant counts in every codec.
//!
//! Plus a small structural check ([`forbid`]): every crate root carries
//! `#![forbid(unsafe_code)]`.
//!
//! Suppressions use `// check: allow(kind, "reason")` comments — a
//! trailing comment applies to its own line, a standalone comment to
//! the next line. The reason string is mandatory; a malformed
//! annotation is itself a diagnostic, so a typo can never silently
//! disable a lint.

pub mod casts;
pub mod forbid;
pub mod layering;
pub mod lexer;
pub mod locks;
pub mod panics;
pub mod ratchet;
pub mod spec;
pub mod tree;
pub mod wiretags;
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
    /// Is this a crate root (`lib.rs` / a `[[bin]]` main)?
    pub is_crate_root: bool,
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
    /// Crate root?
    pub is_crate_root: bool,
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
pub const ALLOW_KINDS: &[&str] = &["panic", "cast", "lock", "reg-block"];

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
        is_crate_root: src.is_crate_root,
        assume_test: src.assume_test,
        tree,
        annotations: lexed.annotations,
    }
}

/// Which scope inside a codec file implements one side of a wire codec.
#[derive(Clone, Copy, Debug)]
pub enum ScopeSpec {
    /// A trait impl, e.g. `Impl("BinEncode")` → `impl BinEncode for E`.
    Impl(&'static str),
    /// A free function or inherent method by name.
    Fn(&'static str),
}

/// One wire enum whose codec must stay exhaustive.
#[derive(Clone, Copy, Debug)]
pub struct WireEnum {
    /// Enum type name.
    pub enum_name: &'static str,
    /// Crate the enum is defined in.
    pub def_crate: &'static str,
    /// Crate holding the codec.
    pub codec_crate: &'static str,
    /// The encoding scope.
    pub encode: ScopeSpec,
    /// The decoding scope.
    pub decode: ScopeSpec,
}

/// Static lint configuration: which crates/files each lint applies to.
/// The *policy* (lock ranks, crate layers) lives in ARCHITECTURE.md and
/// is parsed at runtime — this struct only says where to look.
#[derive(Clone, Debug)]
pub struct Config {
    /// Crates whose guard scopes the lock lint walks.
    pub lock_crates: Vec<String>,
    /// Readiness-registration locks: while one of these is held, no
    /// blocking call may run (the event loop would stall every
    /// connection). Checked by name within `lock_crates`.
    pub registration_locks: Vec<String>,
    /// Wire-codec files (workspace-relative) for the cast lint.
    pub codec_files: Vec<String>,
    /// Enums whose wire codecs must stay exhaustive.
    pub wire_enums: Vec<WireEnum>,
}

impl Default for Config {
    fn default() -> Self {
        use ScopeSpec::{Fn, Impl};
        Config {
            lock_crates: ["mad-txn", "mad-wal", "mad-repl", "mad-net"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            registration_locks: vec!["reg".to_string()],
            codec_files: [
                "crates/net/src/frame.rs",
                "crates/wal/src/record.rs",
                "crates/repl/src/proto.rs",
                "crates/model/src/bin.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            wire_enums: vec![
                WireEnum {
                    enum_name: "MadError",
                    def_crate: "mad-model",
                    codec_crate: "mad-net",
                    encode: Fn("put_error"),
                    decode: Fn("read_error"),
                },
                WireEnum {
                    enum_name: "Value",
                    def_crate: "mad-model",
                    codec_crate: "mad-model",
                    encode: Impl("BinEncode"),
                    decode: Impl("BinDecode"),
                },
                WireEnum {
                    enum_name: "AttrType",
                    def_crate: "mad-model",
                    codec_crate: "mad-model",
                    encode: Impl("BinEncode"),
                    decode: Impl("BinDecode"),
                },
                WireEnum {
                    enum_name: "WalOp",
                    def_crate: "mad-wal",
                    codec_crate: "mad-wal",
                    encode: Impl("BinEncode"),
                    decode: Impl("BinDecode"),
                },
                WireEnum {
                    enum_name: "WalRecord",
                    def_crate: "mad-wal",
                    codec_crate: "mad-wal",
                    encode: Impl("BinEncode"),
                    decode: Impl("BinDecode"),
                },
                WireEnum {
                    enum_name: "Request",
                    def_crate: "mad-net",
                    codec_crate: "mad-net",
                    encode: Fn("encode_request"),
                    decode: Fn("decode_request"),
                },
                WireEnum {
                    enum_name: "Response",
                    def_crate: "mad-net",
                    codec_crate: "mad-net",
                    encode: Fn("put_response"),
                    decode: Fn("decode_response"),
                },
                WireEnum {
                    enum_name: "ReplMsg",
                    def_crate: "mad-repl",
                    codec_crate: "mad-repl",
                    encode: Fn("encode_msg"),
                    decode: Fn("decode_msg"),
                },
            ],
        }
    }
}

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
    let cfg = Config::default();
    let (crates, sources) = workspace::load(root)?;
    let mut diags = Vec::new();
    let files: Vec<ParsedFile> =
        sources.iter().map(|s| parse_file(s, &mut diags)).collect();
    let mut analysis = analyze(&files, &crates, &spec, &cfg, diags);
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

/// Run every lint over parsed sources. `crates` drives the layering
/// and forbid checks; pass an empty slice to skip them (fixtures).
pub fn analyze(
    files: &[ParsedFile],
    crates: &[workspace::CrateInfo],
    spec: &spec::Spec,
    cfg: &Config,
    mut diags: Vec<Diagnostic>,
) -> Analysis {
    locks::check(files, spec, cfg, &mut diags);
    layering::check(files, crates, spec, &mut diags);
    let panic_counts = panics::audit(files, &mut diags);
    casts::check(files, cfg, &mut diags);
    wiretags::check(files, cfg, &mut diags);
    forbid::check(files, crates, &mut diags);
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Analysis { diagnostics: diags, panic_counts }
}
