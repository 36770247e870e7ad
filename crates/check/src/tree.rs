//! Token-tree construction and a lightweight item scanner.
//!
//! The flat token stream from [`crate::lexer`] is folded into a tree of
//! delimiter groups, then scanned for the items the panic lint needs:
//! `fn` bodies with their test-ness, and `mod` nesting. This is
//! deliberately *not* a Rust parser — unknown constructs are skipped
//! token-by-token, which is safe because the lint is a conservative
//! pattern match over the tree.

use crate::lexer::{LexError, Tok, TokKind};

/// One node of the token tree.
#[derive(Clone, Debug)]
pub enum Node {
    /// A non-delimiter token.
    Leaf(Tok),
    /// A delimited group: `delim` is `(`, `[` or `{`.
    Group {
        /// Opening delimiter character.
        delim: char,
        /// Line of the opening delimiter.
        line: u32,
        /// The tokens between the delimiters, recursively grouped.
        children: Vec<Node>,
    },
}

impl Node {
    /// The identifier text, if this node is an identifier leaf.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Node::Leaf(Tok { kind: TokKind::Ident(s), .. }) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Is this node the given single punctuation character?
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Node::Leaf(Tok { kind: TokKind::Punct(p), .. }) if *p == c)
    }

    /// The source line of this node (opening line for groups).
    pub fn line(&self) -> u32 {
        match self {
            Node::Leaf(t) => t.line,
            Node::Group { line, .. } => *line,
        }
    }
}

/// Fold a token stream into a tree of delimiter groups. Unbalanced
/// delimiters are reported and the stray token is dropped, keeping the
/// scan best-effort.
pub fn build_tree(toks: &[Tok], errors: &mut Vec<LexError>) -> Vec<Node> {
    // stack of (delim, open line, children)
    let mut stack: Vec<(char, u32, Vec<Node>)> = Vec::new();
    let mut top: Vec<Node> = Vec::new();
    for t in toks {
        match t.kind {
            TokKind::Open(d) => {
                stack.push((d, t.line, std::mem::take(&mut top)));
                // `top` is now the new group's child list
            }
            TokKind::Close(d) => {
                let want = match d {
                    ')' => '(',
                    ']' => '[',
                    _ => '{',
                };
                match stack.pop() {
                    Some((delim, line, parent)) if delim == want => {
                        let children = std::mem::replace(&mut top, parent);
                        top.push(Node::Group { delim, line, children });
                    }
                    Some(other) => {
                        errors.push(LexError {
                            line: t.line,
                            detail: format!("mismatched closing `{d}`"),
                        });
                        stack.push(other);
                    }
                    None => errors.push(LexError {
                        line: t.line,
                        detail: format!("unbalanced closing `{d}`"),
                    }),
                }
            }
            _ => top.push(Node::Leaf(t.clone())),
        }
    }
    while let Some((delim, line, parent)) = stack.pop() {
        errors.push(LexError { line, detail: format!("unclosed `{delim}`") });
        let children = std::mem::replace(&mut top, parent);
        top.push(Node::Group { delim, line, children });
    }
    top
}

/// A scanned `fn` item.
#[derive(Debug)]
pub struct FnItem<'a> {
    /// Inside `#[cfg(test)]`/`#[test]` (directly or via an enclosing
    /// test module)?
    pub is_test: bool,
    /// The body block's children (`None` for a bodyless trait method).
    pub body: Option<&'a [Node]>,
}

/// Scan a file's token tree for every `fn`, including ones nested in
/// `mod`s and `impl`s.
pub fn scan_fns(nodes: &[Node]) -> Vec<FnItem<'_>> {
    let mut fns = Vec::new();
    walk(nodes, false, &mut fns);
    fns
}

/// Item keywords that terminate a skip and start a fresh item scan.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "mod", "enum", "struct", "union", "impl", "trait", "use", "type", "static", "const",
    "extern", "macro_rules",
];

fn walk<'a>(nodes: &'a [Node], in_test: bool, fns: &mut Vec<FnItem<'a>>) {
    let mut i = 0usize;
    while i < nodes.len() {
        // gather attributes on the upcoming item
        let mut attr_test = false;
        while nodes[i].is_punct('#') {
            let mut j = i + 1;
            if j < nodes.len() && nodes[j].is_punct('!') {
                j += 1; // inner attribute
            }
            match nodes.get(j) {
                Some(Node::Group { delim: '[', children, .. }) => {
                    let text = flatten(children);
                    if text == "test" || (text.starts_with("cfg") && text.contains("test")) {
                        attr_test = true;
                    }
                    i = j + 1;
                }
                _ => break,
            }
            if i >= nodes.len() {
                return;
            }
        }
        if i >= nodes.len() {
            return;
        }
        let test = in_test || attr_test;
        // skip visibility and modifiers to reach the item keyword
        let mut k = i;
        loop {
            match nodes[k].ident() {
                Some("pub") => {
                    k += 1;
                    if matches!(nodes.get(k), Some(Node::Group { delim: '(', .. })) {
                        k += 1; // pub(crate)
                    }
                }
                Some("default") | Some("async") | Some("unsafe") => k += 1,
                Some("const") if matches!(nodes.get(k + 1).and_then(Node::ident), Some("fn")) => {
                    k += 1
                }
                _ => break,
            }
            if k >= nodes.len() {
                return;
            }
        }
        let Some(kw) = nodes[k].ident() else {
            i += 1;
            continue;
        };
        match kw {
            "fn" => {
                // the body is the first brace group at this level; a `;`
                // first means a bodyless trait method
                let mut j = k + 1;
                let mut body = None;
                while j < nodes.len() {
                    match &nodes[j] {
                        Node::Group { delim: '{', children, .. } => {
                            body = Some(children.as_slice());
                            break;
                        }
                        n if n.is_punct(';') => break,
                        _ => j += 1,
                    }
                }
                fns.push(FnItem { is_test: test, body });
                i = j + 1;
            }
            "mod" | "impl" | "trait" => {
                // walk the brace body; a `;` first means an out-of-line
                // `mod name;`
                let mut j = k + 1;
                while j < nodes.len() {
                    match &nodes[j] {
                        Node::Group { delim: '{', children, .. } => {
                            walk(children, test, fns);
                            break;
                        }
                        n if n.is_punct(';') => break,
                        _ => j += 1,
                    }
                }
                i = j + 1;
            }
            "macro_rules" => {
                // macro_rules! name { ... } — skip the whole definition
                let mut j = k + 1;
                while j < nodes.len() {
                    if matches!(&nodes[j], Node::Group { delim: '{', .. }) {
                        break;
                    }
                    j += 1;
                }
                i = j + 1;
            }
            "struct" | "enum" | "union" | "use" | "type" | "static" | "const" | "extern" => {
                // skip to the terminating `;` or brace body
                let mut j = k + 1;
                while j < nodes.len() {
                    match &nodes[j] {
                        Node::Group { delim: '{', .. } => break,
                        n if n.is_punct(';') => break,
                        // a fresh item keyword means the previous item
                        // ended in a way we did not model; resynchronize
                        n if n
                            .ident()
                            .is_some_and(|id| ITEM_KEYWORDS.contains(&id)) =>
                        {
                            j -= 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                i = j + 1;
            }
            _ => i += 1,
        }
    }
}

/// Flatten nodes back into compact text (used for attribute contents).
pub fn flatten(nodes: &[Node]) -> String {
    let mut s = String::new();
    for n in nodes {
        flatten_one(n, &mut s);
    }
    s
}

fn flatten_one(n: &Node, s: &mut String) {
    match n {
        Node::Leaf(t) => match &t.kind {
            TokKind::Ident(id) => {
                if s.ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
                    s.push(' ');
                }
                s.push_str(id);
            }
            TokKind::Punct(c) => s.push(*c),
            TokKind::Joined(op) => s.push_str(op),
            TokKind::Lifetime => s.push_str("'_"),
            TokKind::Literal => s.push_str("\"\""),
            // leaves never carry delimiters — build_tree folds them
            TokKind::Open(_) | TokKind::Close(_) => {}
        },
        Node::Group { delim, children, .. } => {
            s.push(*delim);
            for c in children {
                flatten_one(c, s);
            }
            s.push(match delim {
                '(' => ')',
                '[' => ']',
                _ => '}',
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> Vec<Node> {
        let lexed = lex(src);
        assert!(lexed.errors.is_empty(), "{:?}", lexed.errors);
        let mut errs = Vec::new();
        let t = build_tree(&lexed.toks, &mut errs);
        assert!(errs.is_empty(), "{errs:?}");
        t
    }

    #[test]
    fn groups_nest() {
        let t = tree("fn f(a: u32) { g(a[0]); }");
        // fn f (..) {..}
        assert!(matches!(&t[2], Node::Group { delim: '(', .. }));
        assert!(matches!(&t[3], Node::Group { delim: '{', .. }));
    }

    #[test]
    fn scans_fns_and_test_ness() {
        let t = tree(
            "pub fn a() {}\n\
             #[cfg(test)]\nmod tests { #[test] fn b() {} fn helper() {} }\n\
             impl Foo { pub(crate) fn c(&self) -> u32 { 1 } }",
        );
        let fns = scan_fns(&t);
        // a, b, helper, c
        let test_ness: Vec<bool> = fns.iter().map(|f| f.is_test).collect();
        assert_eq!(test_ness, vec![false, true, true, false]);
    }

    #[test]
    fn const_fn_and_bodyless_methods() {
        let t = tree(
            "trait T { fn sig(&self) -> u32; fn with_default(&self) {} }\n\
             pub const fn table() -> [u32; 4] { [0; 4] }",
        );
        let fns = scan_fns(&t);
        assert_eq!(fns.len(), 3);
        assert!(fns[0].body.is_none());
        assert!(fns[1].body.is_some());
        // `table`'s body is the brace group, not the `[u32; 4]` type
        assert!(matches!(fns[2].body, Some([Node::Group { delim: '[', .. }])));
    }

    #[test]
    fn statics_consts_and_enums_are_skipped() {
        let t = tree(
            "static TABLE: [u32; 256] = crc32_table();\n\
             const MAX: usize = 64 << 20;\n\
             enum Generic<T> where T: Copy { A(T), #[doc = \"x\"] B { f: fn() } }\n\
             fn after() {}",
        );
        let fns = scan_fns(&t);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].body.map(<[Node]>::len), Some(0), "only `after` is a fn");
    }
}
