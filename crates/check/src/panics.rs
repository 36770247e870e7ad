//! Panic-path audit: count `unwrap`/`expect`/`panic!`-family macros and
//! slice indexing in non-test code, per crate.
//!
//! The counts feed the ratchet ([`crate::ratchet`]): a committed budget
//! that may only decrease. Individual sites carry no diagnostic — the
//! existing tree has over a thousand of them — but a site can be
//! permanently excused (and removed from the count) with
//! `// check: allow(panic, "reason")` stating the invariant that makes
//! it unreachable.

use std::collections::BTreeMap;

use crate::tree::{scan_items, Node};
use crate::{Diagnostic, ParsedFile};

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that make a following `[` a pattern/type, not an index.
const NON_EXPR_IDENTS: &[&str] =
    &["let", "in", "mut", "ref", "return", "break", "continue", "as", "else", "box", "dyn"];

/// Count unannotated panic sites per crate. Only `mad*` crates are
/// audited (the vendor shims are exempt).
pub fn audit(files: &[ParsedFile], _diags: &mut [Diagnostic]) -> BTreeMap<String, usize> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for f in files {
        if f.assume_test || !(f.crate_name == "mad" || f.crate_name.starts_with("mad-")) {
            continue;
        }
        counts.entry(f.crate_name.clone()).or_default();
        let items = scan_items(&f.tree);
        for func in items.fns.iter().filter(|x| !x.is_test) {
            let Some(body) = func.body else { continue };
            let mut sites = Vec::new();
            collect_sites(body, None, &mut sites);
            let n = sites
                .iter()
                .filter(|&&line| !f.allowed("panic", line))
                .count();
            *counts.get_mut(&f.crate_name).unwrap() += n;
        }
    }
    counts
}

/// Collect the lines of panic sites in a node list. `prev` is the node
/// preceding `nodes[0]` in the parent sequence (for slice-index
/// classification at recursion boundaries it is safe to pass `None` —
/// the index pattern never begins a group).
fn collect_sites<'a>(nodes: &'a [Node], prev: Option<&'a Node>, sites: &mut Vec<u32>) {
    let mut last: Option<&Node> = prev;
    let mut i = 0usize;
    while i < nodes.len() {
        let n = &nodes[i];
        match n {
            Node::Leaf(_) => {
                if let Some(id) = n.ident() {
                    // `.unwrap(` / `.expect(`
                    if matches!(id, "unwrap" | "expect")
                        && last.map(|p| p.is_punct('.')) == Some(true)
                        && matches!(nodes.get(i + 1), Some(Node::Group { delim: '(', .. }))
                    {
                        sites.push(n.line());
                    }
                    // `panic!` / `unreachable!` / `todo!` / `unimplemented!`
                    if PANIC_MACROS.contains(&id)
                        && nodes.get(i + 1).map(|p| p.is_punct('!')) == Some(true)
                    {
                        sites.push(n.line());
                    }
                }
            }
            Node::Group { delim, children, line, .. } => {
                if *delim == '[' && is_index(last) {
                    sites.push(*line);
                }
                collect_sites(children, None, sites);
            }
        }
        last = Some(n);
        i += 1;
    }
}

/// Is a `[…]` group following `prev` a slice/array index expression?
fn is_index(prev: Option<&Node>) -> bool {
    match prev {
        Some(n @ Node::Leaf(_)) => match n.ident() {
            Some(id) => !NON_EXPR_IDENTS.contains(&id),
            // after `!` it's a macro, after `#` an attribute, after
            // other puncts a literal/pattern/type position
            None => false,
        },
        // `foo()[i]`, `a[0][1]`
        Some(Node::Group { delim: '(' | '[', .. }) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_file, SrcFile};

    fn count(src: &str) -> usize {
        let mut sink = Vec::new();
        let f = parse_file(
            &SrcFile {
                crate_name: "mad-model".into(),
                rel_path: "crates/model/src/x.rs".into(),
                assume_test: false,
                text: src.into(),
            },
            &mut sink,
        );
        let counts = audit(&[f], &mut []);
        counts["mad-model"]
    }

    #[test]
    fn counts_unwrap_expect_and_macros() {
        assert_eq!(count("fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"n\"); }"), 3);
        assert_eq!(count("fn f() { match x { _ => unreachable!() } }"), 1);
    }

    #[test]
    fn counts_slice_indexing_but_not_types_or_macros() {
        assert_eq!(count("fn f(b: &[u8]) -> [u8; 4] { g(&b[..4]); [0; 4] }"), 1);
        assert_eq!(count("fn f() { let v = vec![1, 2]; }"), 0);
        assert_eq!(count("#[derive(Debug)] struct S; fn f() {}"), 0);
        assert_eq!(count("fn f(t: &[u32]) -> u32 { t[0] + t[1] }"), 2);
    }

    #[test]
    fn unwrap_or_variants_do_not_count() {
        assert_eq!(count("fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 1); }"), 0);
    }

    #[test]
    fn test_code_does_not_count() {
        assert_eq!(count("#[cfg(test)] mod t { fn f() { x.unwrap(); } }"), 0);
        assert_eq!(count("#[test] fn t() { x.unwrap(); }"), 0);
    }

    #[test]
    fn annotated_sites_are_excused() {
        let src = "fn f() {\n\
                   // check: allow(panic, \"table is 256 entries by construction\")\n\
                   let x = t[i];\n\
                   let y = u.unwrap();\n}";
        assert_eq!(count(src), 1);
    }
}
