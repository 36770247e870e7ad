//! Lock-hierarchy lint: a static deadlock detector for the commit path,
//! plus the registration-lock blocking lint for the event loop.
//!
//! The normative table in ARCHITECTURE.md assigns each governed lock a
//! rank; a thread may only acquire locks in strictly increasing rank.
//! This lint walks every non-test `fn` body in the configured crates
//! (`mad-txn`, `mad-wal`, `mad-repl`, `mad-net`) modelling guard scopes:
//!
//! * a `let`-bound guard lives to the end of its enclosing block;
//! * a temporary guard lives to the end of its statement — except in a
//!   plain `if`/`while` condition, where Rust drops it before the
//!   block, and in `if let`/`match`/`for` scrutinees, where Rust
//!   extends it through the trailing block;
//! * `drop(name)` releases the named guard early;
//! * closure bodies get a fresh held-set (they run on another thread
//!   or at another time).
//!
//! On top of the lexical walk there is one level of interprocedural
//! propagation: every analyzed `fn`'s *directly* acquired ranked locks
//! are unioned by method name, and a call made while holding a ranked
//! guard is checked against the callee's set. The name-keyed union is
//! a deliberate over-approximation; false positives are silenced with
//! `// check: allow(lock, "…")` and a justification.
//!
//! Acquisitions are recognized in both the method form
//! (`m.lock()`/`.read()`/`.write()` with empty parens) and `mad-net`'s
//! poison-ignoring free-function form (`lock(&self.reg)`), whose lock
//! name is the last path segment of the argument.
//!
//! The **registration-lock blocking lint** (`reg-block`) enforces the
//! event loop's liveness contract: while a readiness-registration guard
//! ([`crate::REGISTRATION_LOCKS`], by name) is held, no blocking call may
//! run — a worker parked on a condvar or a socket while holding `reg`
//! would stall connection accept/retire for every client. Flagged calls:
//! `wait`, `wait_timeout`, `recv`, `recv_timeout`, `join`, `sleep`,
//! `connect`, `accept`, `read_frame`, `write_frame`. Exceptions carry
//! `// check: allow(reg-block, "…")`.

use std::collections::BTreeMap;

use crate::lexer::TokKind;
use crate::spec::Spec;
use crate::tree::{scan_items, Node};
use crate::{Diagnostic, ParsedFile, LOCK_CRATES, REGISTRATION_LOCKS};

/// A guard currently held on the walker's simulated stack.
struct Held {
    id: u32,
    lock: String,
    rank: Option<u32>,
    binding: Option<String>,
    line: u32,
}

#[derive(Clone, Copy, PartialEq)]
enum StmtKind {
    /// `let` — top-level acquisitions persist to end of block.
    Let,
    /// `if let` / `while let` / `match` / `for` — scrutinee temporaries
    /// extend through the trailing block.
    Extended,
    /// plain `if` / `while` — condition temporaries die at the block.
    Cond,
    /// anything else — temporaries die at end of statement.
    Plain,
    /// a nested item definition — skipped.
    Item,
}

/// Calls that can block the calling thread; never allowed while a
/// readiness-registration guard is held.
const BLOCKING_CALLS: [&str; 10] = [
    "wait",
    "wait_timeout",
    "recv",
    "recv_timeout",
    "join",
    "sleep",
    "connect",
    "accept",
    "read_frame",
    "write_frame",
];

/// Run the lint.
pub fn check(files: &[ParsedFile], spec: &Spec, diags: &mut Vec<Diagnostic>) {
    let relevant: Vec<&ParsedFile> = files
        .iter()
        .filter(|f| LOCK_CRATES.contains(&f.crate_name.as_str()) && !f.assume_test)
        .collect();
    // pass 1: fn name → union of directly-acquired ranked locks
    let mut call_map: BTreeMap<String, BTreeMap<String, u32>> = BTreeMap::new();
    for f in &relevant {
        let items = scan_items(&f.tree);
        for func in items.fns.iter().filter(|f| !f.is_test) {
            let Some(body) = func.body else { continue };
            let mut direct = BTreeMap::new();
            collect_direct(body, spec, &mut direct);
            if !direct.is_empty() {
                call_map.entry(func.name.clone()).or_default().extend(direct);
            }
        }
    }
    // pass 2: guard-scope walk of every fn body
    for f in &relevant {
        let items = scan_items(&f.tree);
        for func in items.fns.iter().filter(|f| !f.is_test) {
            let Some(body) = func.body else { continue };
            let mut w =
                Walker { file: f, spec, call_map: &call_map, diags, next_id: 0 };
            let mut held = Vec::new();
            w.block(body, &mut held);
        }
    }
}

/// Collect the ranked locks a body acquires directly (closure bodies
/// excluded — they execute on another thread or at another time).
fn collect_direct(nodes: &[Node], spec: &Spec, out: &mut BTreeMap<String, u32>) {
    let mut i = 0;
    while i < nodes.len() {
        if let Some(skip) = closure_extent(nodes, i) {
            i = skip;
            continue;
        }
        if let Some((name, _, consumed)) = acquisition_at(nodes, i) {
            if let Some(rank) = spec.lock_rank(&name) {
                out.insert(name, rank);
            }
            i += consumed;
            continue;
        }
        if let Node::Group { children, .. } = &nodes[i] {
            collect_direct(children, spec, out);
        }
        i += 1;
    }
}

/// If `nodes[i]` starts an acquisition, return the lock name, line, and
/// the number of nodes the acquisition expression spans. Two forms:
///
/// * `NAME.lock()` / `.read()` / `.write()` with *empty* parens
///   (4 nodes),
/// * the free function `lock(&path.to.NAME)` — `mad-net`'s
///   poison-ignoring helper — whose lock name is the last path segment
///   of the argument (2 nodes).
fn acquisition_at(nodes: &[Node], i: usize) -> Option<(String, u32, usize)> {
    let head = nodes.get(i)?;
    let name = head.ident()?;
    // free-function form: `lock(&self.reg)`
    if name == "lock" {
        if let Some(Node::Group { delim: '(', children, .. }) = nodes.get(i + 1) {
            if !children.is_empty() {
                let arg = children.iter().rev().find_map(Node::ident)?;
                return Some((arg.to_string(), head.line(), 2));
            }
        }
    }
    if !nodes.get(i + 1)?.is_punct('.') {
        return None;
    }
    let method = nodes.get(i + 2)?.ident()?;
    if !matches!(method, "lock" | "read" | "write") {
        return None;
    }
    match nodes.get(i + 3)? {
        Node::Group { delim: '(', children, .. } if children.is_empty() => {
            Some((name.to_string(), head.line(), 4))
        }
        _ => None,
    }
}

/// If `nodes[i]` opens a closure (`|args| body` or `|| body`), return
/// the index just past the closure body (which extends to the next
/// top-level `,` or the end of the list). A `|`/`||` preceded by an
/// expression is a binary operator or an or-pattern, not a closure.
fn closure_extent(nodes: &[Node], i: usize) -> Option<usize> {
    if !nodes[i].is_punct('|') {
        return None;
    }
    let starts_closure = i == 0
        || matches!(
            &nodes[i - 1],
            Node::Leaf(crate::lexer::Tok { kind: TokKind::Ident(id), .. })
                if matches!(id.as_str(), "move" | "return" | "else")
        )
        || nodes[i - 1].is_punct(',')
        || nodes[i - 1].is_punct('=')
        || nodes[i - 1].is_punct('(')
        || nodes[i - 1].is_joined("=>");
    if !starts_closure {
        return None;
    }
    // find the closing `|` of the argument list
    let args_end = if nodes.get(i + 1).map(|n| n.is_punct('|')) == Some(true) {
        i + 1 // `||`
    } else {
        i + 1 + nodes[i + 1..].iter().position(|n| n.is_punct('|'))?
    };
    let mut k = args_end + 1;
    while k < nodes.len() && !nodes[k].is_punct(',') {
        k += 1;
    }
    Some(k)
}

struct Walker<'a> {
    file: &'a ParsedFile,
    spec: &'a Spec,
    call_map: &'a BTreeMap<String, BTreeMap<String, u32>>,
    diags: &'a mut Vec<Diagnostic>,
    next_id: u32,
}

impl Walker<'_> {
    fn block(&mut self, nodes: &[Node], held: &mut Vec<Held>) {
        let base = held.len();
        let mut start = 0usize;
        let mut i = 0usize;
        while i <= nodes.len() {
            if i == nodes.len() || nodes[i].is_punct(';') || nodes[i].is_punct(',') {
                if start < i {
                    self.stmt(&nodes[start..i], held);
                }
                start = i + 1;
                i += 1;
                continue;
            }
            // a block statement (`if …{}`, `match …{}`, `for`, `while`,
            // `loop`) ends at its closing brace without a semicolon —
            // unless an `else` chains on
            if matches!(&nodes[i], Node::Group { delim: '{', .. }) {
                let head = nodes[start..].iter().find_map(Node::ident);
                let chains = nodes.get(i + 1).and_then(Node::ident) == Some("else");
                if matches!(
                    head,
                    Some(
                        "if" | "match" | "for" | "while" | "loop" | "unsafe" | "fn"
                            | "struct" | "impl" | "trait" | "mod"
                    )
                ) && !chains
                {
                    self.stmt(&nodes[start..=i], held);
                    start = i + 1;
                }
            }
            i += 1;
        }
        held.truncate(base);
    }

    fn stmt(&mut self, stmt: &[Node], held: &mut Vec<Held>) {
        let kind = classify(stmt);
        if kind == StmtKind::Item {
            return;
        }
        let binding = if kind == StmtKind::Let { let_binding(stmt) } else { None };
        let mut temps = Vec::new();
        let mut seen_block = false;
        self.expr(stmt, held, &mut temps, kind, &binding, &mut seen_block, true);
        held.retain(|h| !temps.contains(&h.id));
    }

    #[allow(clippy::too_many_arguments)]
    fn expr(
        &mut self,
        nodes: &[Node],
        held: &mut Vec<Held>,
        temps: &mut Vec<u32>,
        kind: StmtKind,
        binding: &Option<String>,
        seen_block: &mut bool,
        top: bool,
    ) {
        let mut i = 0usize;
        while i < nodes.len() {
            // a closure body runs with a fresh held-set
            if let Some(end) = closure_extent(nodes, i) {
                let args_end = if nodes.get(i + 1).map(|n| n.is_punct('|')) == Some(true) {
                    i + 1
                } else {
                    i + 1 + nodes[i + 1..].iter().position(|n| n.is_punct('|')).unwrap_or(0)
                };
                let mut fresh: Vec<Held> = Vec::new();
                let mut ftemps = Vec::new();
                let mut fseen = false;
                self.expr(
                    &nodes[args_end + 1..end],
                    &mut fresh,
                    &mut ftemps,
                    StmtKind::Plain,
                    &None,
                    &mut fseen,
                    false,
                );
                i = end;
                continue;
            }
            if let Some((name, line, consumed)) = acquisition_at(nodes, i) {
                let rank = self.spec.lock_rank(&name);
                self.check_order(held, &name, rank, line);
                let id = self.next_id;
                self.next_id += 1;
                held.push(Held { id, lock: name, rank, binding: binding.clone(), line });
                // A `let` binds the guard itself only when the rest of
                // the chain is method links ending the statement
                // (`.lock().unwrap();`). A trailing field access or
                // operator (`.lock().unwrap().next_lsn;`) copies a
                // value out and the guard is a dropped temporary.
                let let_bound =
                    top && kind == StmtKind::Let && binds_guard(&nodes[i + consumed..]);
                if !let_bound {
                    temps.push(id);
                }
                i += consumed;
                continue;
            }
            // drop(name) releases the named guard
            if nodes[i].ident() == Some("drop") {
                if let Some(Node::Group { delim: '(', children, .. }) = nodes.get(i + 1) {
                    if children.len() == 1 {
                        if let Some(arg) = children[0].ident() {
                            release(held, temps, arg);
                            i += 2;
                            continue;
                        }
                    }
                }
            }
            // re-arm condition-temporary popping for `else if`
            if top && kind == StmtKind::Cond && nodes[i].ident() == Some("if") {
                *seen_block = false;
            }
            // interprocedural: a call while holding ranked guards; and
            // the registration-lock blocking check
            if let (Some(node), Some(Node::Group { delim: '(', .. })) =
                (nodes.get(i), nodes.get(i + 1))
            {
                if let Some(name) = node.ident() {
                    if !matches!(name, "lock" | "read" | "write" | "drop") {
                        if let Some(callee_locks) = self.call_map.get(name) {
                            self.check_call(held, name, callee_locks, node.line());
                        }
                    }
                    if BLOCKING_CALLS.contains(&name) {
                        self.check_blocking(held, name, node.line());
                    }
                }
            }
            match &nodes[i] {
                Node::Group { delim: '{', children, .. } => {
                    if top && kind == StmtKind::Cond && !*seen_block {
                        // plain if/while: Rust drops condition
                        // temporaries before entering the block
                        held.retain(|h| !temps.contains(&h.id));
                        temps.clear();
                        *seen_block = true;
                    }
                    self.block(children, held);
                }
                Node::Group { children, .. } => {
                    self.expr(children, held, temps, kind, binding, seen_block, false);
                }
                _ => {}
            }
            i += 1;
        }
    }

    fn check_order(&mut self, held: &[Held], name: &str, rank: Option<u32>, line: u32) {
        let Some(new_rank) = rank else { return };
        if self.file.allowed("lock", line) {
            return;
        }
        for h in held {
            let Some(held_rank) = h.rank else { continue };
            if held_rank > new_rank {
                self.diags.push(Diagnostic {
                    file: self.file.rel_path.clone(),
                    line,
                    lint: "lock-order",
                    message: format!(
                        "acquired `{name}` (rank {new_rank}) while holding `{}` (rank \
                         {held_rank}, acquired line {}); the hierarchy requires \
                         `{name}` before `{}`",
                        h.lock, h.line, h.lock
                    ),
                });
            } else if held_rank == new_rank {
                self.diags.push(Diagnostic {
                    file: self.file.rel_path.clone(),
                    line,
                    lint: "lock-order",
                    message: format!(
                        "re-acquired `{name}` (rank {new_rank}) already held since line \
                         {} — self-deadlock on a non-reentrant lock",
                        h.line
                    ),
                });
            }
        }
    }

    /// The registration-lock blocking lint: a blocking call while a
    /// readiness-registration guard is held stalls the event loop for
    /// every connection.
    fn check_blocking(&mut self, held: &[Held], call: &str, line: u32) {
        if self.file.allowed("reg-block", line) {
            return;
        }
        for h in held {
            if REGISTRATION_LOCKS.contains(&h.lock.as_str()) {
                self.diags.push(Diagnostic {
                    file: self.file.rel_path.clone(),
                    line,
                    lint: "reg-block",
                    message: format!(
                        "blocking call `{call}` while holding the readiness-registration \
                         lock `{}` (acquired line {}); the event loop stalls every \
                         connection until it returns",
                        h.lock, h.line
                    ),
                });
            }
        }
    }

    fn check_call(
        &mut self,
        held: &[Held],
        callee: &str,
        callee_locks: &BTreeMap<String, u32>,
        line: u32,
    ) {
        if held.iter().all(|h| h.rank.is_none()) || self.file.allowed("lock", line) {
            return;
        }
        for h in held {
            let Some(held_rank) = h.rank else { continue };
            for (lock, &lock_rank) in callee_locks {
                if held_rank >= lock_rank {
                    self.diags.push(Diagnostic {
                        file: self.file.rel_path.clone(),
                        line,
                        lint: "lock-order",
                        message: format!(
                            "call to `{callee}` may acquire `{lock}` (rank {lock_rank}) \
                             while holding `{}` (rank {held_rank}, acquired line {}) — \
                             via one-level call-graph approximation",
                            h.lock, h.line
                        ),
                    });
                }
            }
        }
    }
}

/// Do the tokens following an acquisition keep referring to the guard
/// until the end of the statement? True for chains of method links
/// (`.unwrap()`, `.expect("…")`, `.map_err(…)`) and `?`; false as soon
/// as a field access or any other operator appears, because then the
/// binding captures a projected value, not the guard.
fn binds_guard(rest: &[Node]) -> bool {
    let mut j = 0usize;
    while j < rest.len() {
        if rest[j].is_punct('?') {
            j += 1;
            continue;
        }
        if rest[j].is_punct('.')
            && rest.get(j + 1).and_then(Node::ident).is_some()
            && matches!(rest.get(j + 2), Some(Node::Group { delim: '(', .. }))
        {
            j += 3;
            continue;
        }
        return false;
    }
    true
}

/// Remove the most recent guard matching a `drop(name)` argument, by
/// binding name first, then by lock-field name.
fn release(held: &mut Vec<Held>, temps: &mut Vec<u32>, name: &str) {
    let pos = held
        .iter()
        .rposition(|h| h.binding.as_deref() == Some(name))
        .or_else(|| held.iter().rposition(|h| h.lock == name));
    if let Some(p) = pos {
        let id = held[p].id;
        held.remove(p);
        temps.retain(|&t| t != id);
    }
}

fn classify(stmt: &[Node]) -> StmtKind {
    let Some(first) = stmt.first().and_then(Node::ident) else {
        return StmtKind::Plain;
    };
    match first {
        "let" => StmtKind::Let,
        "match" | "for" => StmtKind::Extended,
        "if" | "while" => {
            if stmt.get(1).and_then(Node::ident) == Some("let") {
                StmtKind::Extended
            } else {
                StmtKind::Cond
            }
        }
        "fn" | "struct" | "enum" | "impl" | "trait" | "mod" | "use" | "type" | "static" => {
            StmtKind::Item
        }
        _ => StmtKind::Plain,
    }
}

/// The binding name of a `let` statement (first plain identifier of the
/// pattern, looking inside a one-level constructor like `Some(g)`).
fn let_binding(stmt: &[Node]) -> Option<String> {
    let mut i = 1; // past `let`
    while stmt.get(i).and_then(Node::ident) == Some("mut") {
        i += 1;
    }
    match stmt.get(i)? {
        n @ Node::Leaf(_) => {
            let id = n.ident()?;
            if let Some(Node::Group { delim: '(', children, .. }) = stmt.get(i + 1) {
                // `Some(g)` — take the inner binding
                let mut j = 0;
                while children.get(j).and_then(Node::ident) == Some("mut") {
                    j += 1;
                }
                return children.get(j).and_then(Node::ident).map(str::to_owned);
            }
            Some(id.to_owned())
        }
        Node::Group { delim: '(', children, .. } => {
            children.first().and_then(Node::ident).map(str::to_owned)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_file, SrcFile};

    fn spec() -> Spec {
        Spec {
            lock_ranks: vec![
                ("state".into(), 1),
                ("published".into(), 2),
                ("repl".into(), 3),
            ],
        }
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        let file = SrcFile {
            crate_name: "mad-txn".into(),
            rel_path: "crates/txn/src/x.rs".into(),
            assume_test: false,
            text: src.into(),
        };
        let mut diags = Vec::new();
        let parsed = parse_file(&file, &mut diags);
        check(&[parsed], &spec(), &mut diags);
        diags
    }

    #[test]
    fn in_order_nesting_is_clean() {
        let d = run(
            "fn ok(&self) {\n\
             let st = self.state.lock().unwrap();\n\
             let pb = self.published.read().unwrap();\n\
             drop(pb); drop(st);\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn out_of_order_nesting_is_flagged() {
        let d = run(
            "fn bad(&self) {\n\
             let pb = self.published.write().unwrap();\n\
             let st = self.state.lock().unwrap();\n}",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
        assert_eq!(d[0].lint, "lock-order");
        assert!(d[0].message.contains("`state` (rank 1) while holding `published` (rank 2"));
    }

    #[test]
    fn drop_releases_the_guard() {
        let d = run(
            "fn ok(&self) {\n\
             let pb = self.published.write().unwrap();\n\
             drop(pb);\n\
             let st = self.state.lock().unwrap();\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn reacquisition_is_a_self_deadlock() {
        let d = run(
            "fn bad(&self) {\n\
             let a = self.state.lock().unwrap();\n\
             let b = self.state.lock().unwrap();\n}",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("re-acquired"));
    }

    #[test]
    fn plain_if_condition_temporaries_die_at_the_block() {
        let d = run(
            "fn ok(&self) {\n\
             if self.published.read().unwrap().dirty {\n\
                 let st = self.state.lock().unwrap();\n\
             }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn match_scrutinee_guard_extends_through_the_body() {
        let d = run(
            "fn bad(&self) {\n\
             match self.published.read().unwrap().kind {\n\
                 0 => { let st = self.state.lock().unwrap(); }\n\
                 _ => {}\n\
             }\n}",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn projected_field_lets_drop_the_guard() {
        // `let high = …lock().unwrap().next_lsn;` copies a field out;
        // the guard is a temporary dying at the semicolon
        let d = run(
            "fn ok(&self) {\n\
             let seq = self.published.read().unwrap().seq;\n\
             let st = self.state.lock().unwrap();\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn closures_get_a_fresh_stack() {
        let d = run(
            "fn ok(&self) {\n\
             let pb = self.published.write().unwrap();\n\
             spawn(move || { let st = self.state.lock().unwrap(); });\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn interprocedural_one_level() {
        let d = run(
            "fn helper(&self) { let st = self.state.lock().unwrap(); }\n\
             fn bad(&self) {\n\
                 let pb = self.published.write().unwrap();\n\
                 self.helper();\n}",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("call to `helper` may acquire `state`"));
    }

    #[test]
    fn allow_lock_silences_with_reason() {
        let d = run(
            "fn bad(&self) {\n\
             let pb = self.published.write().unwrap();\n\
             // check: allow(lock, \"test hook, never nested in production\")\n\
             let st = self.state.lock().unwrap();\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_code_is_skipped() {
        let d = run(
            "#[cfg(test)] mod t { fn bad(&self) {\n\
             let pb = self.published.write().unwrap();\n\
             let st = self.state.lock().unwrap();\n} }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    /// Fixture runner for the `mad-net` shapes: the free-function
    /// `lock(&…)` acquisition form and the registration-lock rank 8.
    fn run_net(src: &str) -> Vec<Diagnostic> {
        let file = SrcFile {
            crate_name: "mad-net".into(),
            rel_path: "crates/net/src/x.rs".into(),
            assume_test: false,
            text: src.into(),
        };
        let mut diags = Vec::new();
        let parsed = parse_file(&file, &mut diags);
        let mut spec = spec();
        spec.lock_ranks.push(("reg".into(), 8));
        check(&[parsed], &spec, &mut diags);
        diags
    }

    #[test]
    fn free_fn_lock_is_an_acquisition() {
        // rank 8 held, then rank 1 — out of order through the free form
        let d = run_net(
            "fn bad(&self) {\n\
             let g = lock(&self.reg);\n\
             let st = self.state.lock().unwrap();\n}",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].lint, "lock-order");
        assert!(d[0].message.contains("while holding `reg` (rank 8"));
    }

    #[test]
    fn blocking_call_while_holding_reg_is_flagged() {
        let d = run_net(
            "fn bad(&self) {\n\
             let g = lock(&shared.reg);\n\
             thread::sleep(step);\n}",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
        assert_eq!(d[0].lint, "reg-block");
        assert!(d[0].message.contains("blocking call `sleep`"));
    }

    #[test]
    fn reg_temporary_dies_at_the_semicolon() {
        // `lock(&…).insert(…);` is a statement temporary — the guard is
        // gone before the blocking call on the next line
        let d = run_net(
            "fn ok(&self) {\n\
             lock(&shared.reg).insert(id, stream);\n\
             thread::sleep(step);\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn blocking_on_an_unranked_connection_lock_is_fine() {
        // only registration locks stall the event loop for everyone;
        // per-connection mutexes may block their own connection
        let d = run_net(
            "fn ok(&self) {\n\
             let work = lock(&conn.work);\n\
             let item = rx.recv();\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_reg_block_silences_with_reason() {
        let d = run_net(
            "fn ok(&self) {\n\
             let g = lock(&shared.reg);\n\
             // check: allow(reg-block, \"bounded: startup only, no peers yet\")\n\
             thread::sleep(step);\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
