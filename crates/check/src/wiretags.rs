//! Wire-tag exhaustiveness: every wire enum's codec covers every
//! variant, and the number of distinct tag values matches the number of
//! variants on both the encode and the decode side.
//!
//! This is the cross-file check that catches the classic protocol bug:
//! a new `MadError` variant (or `WalOp`, `ReplMsg`, …) is added, the
//! encoder's `match` gets a compile error and is fixed, but the
//! decoder's integer `match` silently falls through to its wildcard arm
//! and the peer sees `Protocol("unknown tag")` instead of the real
//! value.
//!
//! Heuristics (validated against every codec in the tree):
//! * decode tags = distinct integer literals immediately before `=>`;
//! * encode tags = distinct integer literals that are the sole argument
//!   of `.push(…)`, unioned with integers immediately after `=>`;
//! * variant coverage = the variant identifier appears somewhere in the
//!   scope body (arm patterns name variants on encode; decoders name
//!   the constructor they build).

use std::collections::BTreeSet;

use crate::tree::{scan_items, FnItem, Node};
use crate::{Config, Diagnostic, ParsedFile, ScopeSpec, WireEnum};

/// Run the lint.
pub fn check(files: &[ParsedFile], cfg: &Config, diags: &mut Vec<Diagnostic>) {
    for we in &cfg.wire_enums {
        check_enum(files, we, diags);
    }
}

fn check_enum(files: &[ParsedFile], we: &WireEnum, diags: &mut Vec<Diagnostic>) {
    // find the enum definition
    let mut variants: Option<(Vec<String>, String, u32)> = None;
    for f in files.iter().filter(|f| f.crate_name == we.def_crate && !f.assume_test) {
        let items = scan_items(&f.tree);
        if let Some(e) = items.enums.iter().find(|e| e.name == we.enum_name && !e.is_test) {
            variants = Some((e.variants.clone(), f.rel_path.clone(), e.line));
            break;
        }
    }
    let Some((variants, def_file, def_line)) = variants else {
        // fixture sets legitimately omit enums for other wire checks;
        // only complain when the defining crate is present at all
        if files.iter().any(|f| f.crate_name == we.def_crate) {
            diags.push(Diagnostic {
                file: we.def_crate.to_string(),
                line: 0,
                lint: "wire-tag",
                message: format!(
                    "wire enum `{}` not found in crate `{}` (is the Config stale?)",
                    we.enum_name, we.def_crate
                ),
            });
        }
        return;
    };
    for (spec, is_encode) in [(&we.encode, true), (&we.decode, false)] {
        check_scope(files, we, spec, is_encode, &variants, &def_file, def_line, diags);
    }
}

#[allow(clippy::too_many_arguments)]
fn check_scope(
    files: &[ParsedFile],
    we: &WireEnum,
    spec: &ScopeSpec,
    is_encode: bool,
    variants: &[String],
    def_file: &str,
    def_line: u32,
    diags: &mut Vec<Diagnostic>,
) {
    // collect the scope's fn bodies across the codec crate
    let mut bodies: Vec<(&ParsedFile, u32, &[Node])> = Vec::new();
    let mut scope_name = String::new();
    for f in files.iter().filter(|f| f.crate_name == we.codec_crate && !f.assume_test) {
        let items = scan_items(&f.tree);
        for func in items.fns.iter().filter(|x| !x.is_test) {
            if matches_scope(func, spec, we.enum_name) {
                if let Some(body) = func.body {
                    bodies.push((f, func.line, body));
                    scope_name = describe(spec, we.enum_name);
                }
            }
        }
    }
    if bodies.is_empty() {
        diags.push(Diagnostic {
            file: def_file.to_string(),
            line: def_line,
            lint: "wire-tag",
            message: format!(
                "no {} scope `{}` found for wire enum `{}` in crate `{}`",
                if is_encode { "encode" } else { "decode" },
                describe(spec, we.enum_name),
                we.enum_name,
                we.codec_crate
            ),
        });
        return;
    }
    // variant coverage
    let mut idents = BTreeSet::new();
    for (_, _, body) in &bodies {
        collect_idents(body, &mut idents);
    }
    let (scope_file, scope_line, _) = bodies[0];
    for v in variants {
        if !idents.contains(v.as_str()) {
            diags.push(Diagnostic {
                file: scope_file.rel_path.clone(),
                line: scope_line,
                lint: "wire-tag",
                message: format!(
                    "variant `{}::{v}` has no arm in `{scope_name}` — the wire codec \
                     is not exhaustive",
                    we.enum_name
                ),
            });
        }
    }
    // tag-count discipline
    let mut tags = BTreeSet::new();
    for (_, _, body) in &bodies {
        if is_encode {
            collect_encode_tags(body, &mut tags);
        } else {
            collect_decode_tags(body, &mut tags);
        }
    }
    if tags.len() != variants.len() {
        diags.push(Diagnostic {
            file: scope_file.rel_path.clone(),
            line: scope_line,
            lint: "wire-tag",
            message: format!(
                "`{scope_name}` uses {} distinct tag value(s) but `{}` has {} variant(s)",
                tags.len(),
                we.enum_name,
                variants.len()
            ),
        });
    }
}

fn matches_scope(func: &FnItem<'_>, spec: &ScopeSpec, enum_name: &str) -> bool {
    match spec {
        ScopeSpec::Fn(name) => func.name == *name,
        ScopeSpec::Impl(trait_name) => func.impl_header.as_deref().is_some_and(|h| {
            h.contains(trait_name) && h.contains(&format!("for {enum_name}"))
        }),
    }
}

fn describe(spec: &ScopeSpec, enum_name: &str) -> String {
    match spec {
        ScopeSpec::Fn(name) => name.to_string(),
        ScopeSpec::Impl(trait_name) => format!("impl {trait_name} for {enum_name}"),
    }
}

fn collect_idents(nodes: &[Node], out: &mut BTreeSet<String>) {
    for n in nodes {
        match n {
            Node::Group { children, .. } => collect_idents(children, out),
            _ => {
                if let Some(id) = n.ident() {
                    out.insert(id.to_string());
                }
            }
        }
    }
}

/// Distinct integer literals immediately before `=>` (match-arm tags).
fn collect_decode_tags(nodes: &[Node], out: &mut BTreeSet<u64>) {
    for (i, n) in nodes.iter().enumerate() {
        match n {
            Node::Group { children, .. } => collect_decode_tags(children, out),
            Node::Leaf(t) => {
                if let crate::lexer::TokKind::Int(Some(v)) = t.kind {
                    if nodes.get(i + 1).map(|x| x.is_joined("=>")) == Some(true) {
                        out.insert(v);
                    }
                }
            }
        }
    }
}

/// Distinct integers pushed as a sole `.push(N)` argument or appearing
/// immediately after `=>`.
fn collect_encode_tags(nodes: &[Node], out: &mut BTreeSet<u64>) {
    for (i, n) in nodes.iter().enumerate() {
        match n {
            Node::Group { children, .. } => {
                if nodes.get(i.wrapping_sub(1)).and_then(Node::ident) == Some("push")
                    && children.len() == 1
                {
                    if let Node::Leaf(t) = &children[0] {
                        if let crate::lexer::TokKind::Int(Some(v)) = t.kind {
                            out.insert(v);
                        }
                    }
                }
                collect_encode_tags(children, out);
            }
            Node::Leaf(t) => {
                if let crate::lexer::TokKind::Int(Some(v)) = t.kind {
                    if i > 0 && nodes[i - 1].is_joined("=>") {
                        out.insert(v);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_file, SrcFile, WireEnum};

    fn cfg_one() -> Config {
        Config {
            lock_crates: vec![],
            registration_locks: vec![],
            codec_files: vec![],
            wire_enums: vec![WireEnum {
                enum_name: "Msg",
                def_crate: "mad-model",
                codec_crate: "mad-net",
                encode: ScopeSpec::Fn("put_msg"),
                decode: ScopeSpec::Fn("read_msg"),
            }],
        }
    }

    fn files(def: &str, codec: &str) -> Vec<ParsedFile> {
        let mut sink = Vec::new();
        vec![
            parse_file(
                &SrcFile {
                    crate_name: "mad-model".into(),
                    rel_path: "crates/model/src/error.rs".into(),
                    is_crate_root: false,
                    assume_test: false,
                    text: def.into(),
                },
                &mut sink,
            ),
            parse_file(
                &SrcFile {
                    crate_name: "mad-net".into(),
                    rel_path: "crates/net/src/frame.rs".into(),
                    is_crate_root: false,
                    assume_test: false,
                    text: codec.into(),
                },
                &mut sink,
            ),
        ]
    }

    const DEF: &str = "pub enum Msg { Ping, Pong, Data(u32) }";

    #[test]
    fn exhaustive_codec_is_clean() {
        let codec = "\
fn put_msg(m: &Msg, out: &mut Vec<u8>) {
    match m {
        Msg::Ping => out.push(0),
        Msg::Pong => out.push(1),
        Msg::Data(x) => { out.push(2); put_u32(out, *x); }
    }
}
fn read_msg(r: &mut Reader) -> Result<Msg> {
    match r.u8()? {
        0 => Ok(Msg::Ping),
        1 => Ok(Msg::Pong),
        2 => Ok(Msg::Data(r.u32()?)),
        t => Err(unknown(t)),
    }
}";
        let mut d = Vec::new();
        check(&files(DEF, codec), &cfg_one(), &mut d);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn missing_decode_arm_is_flagged() {
        let codec = "\
fn put_msg(m: &Msg, out: &mut Vec<u8>) {
    match m {
        Msg::Ping => out.push(0),
        Msg::Pong => out.push(1),
        Msg::Data(x) => { out.push(2); }
    }
}
fn read_msg(r: &mut Reader) -> Result<Msg> {
    match r.u8()? {
        0 => Ok(Msg::Ping),
        1 => Ok(Msg::Pong),
        t => Err(unknown(t)),
    }
}";
        let mut d = Vec::new();
        check(&files(DEF, codec), &cfg_one(), &mut d);
        // Data never mentioned in read_msg + only 2 decode tags for 3 variants
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("`Msg::Data` has no arm in `read_msg`"), "{d:?}");
        assert!(d[1].message.contains("2 distinct tag value(s) but `Msg` has 3"), "{d:?}");
        assert_eq!(d[0].file, "crates/net/src/frame.rs");
        assert_eq!(d[0].line, 8);
    }

    #[test]
    fn missing_scope_is_flagged() {
        let mut d = Vec::new();
        check(&files(DEF, "fn put_msg(m: &Msg) { Msg::Ping; Msg::Pong; Msg::Data; }"), &cfg_one(), &mut d);
        // put_msg exists (with bogus tags) but read_msg is absent
        assert!(
            d.iter().any(|x| x.message.contains("no decode scope `read_msg`")),
            "{d:?}"
        );
    }

    #[test]
    fn impl_scopes_match_trait_impls() {
        let cfg = Config {
            lock_crates: vec![],
            registration_locks: vec![],
            codec_files: vec![],
            wire_enums: vec![WireEnum {
                enum_name: "Msg",
                def_crate: "mad-model",
                codec_crate: "mad-net",
                encode: ScopeSpec::Impl("BinEncode"),
                decode: ScopeSpec::Impl("BinDecode"),
            }],
        };
        let codec = "\
impl BinEncode for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self { Msg::Ping => 0, Msg::Pong => 1, Msg::Data(_) => 2 });
    }
}
impl BinDecode for Msg {
    fn decode(r: &mut Reader) -> Result<Msg> {
        match r.u8()? { 0 => Ok(Msg::Ping), 1 => Ok(Msg::Pong), 2 => Ok(Msg::Data(0)), t => Err(u(t)) }
    }
}";
        let mut d = Vec::new();
        check(&files(DEF, codec), &cfg, &mut d);
        assert!(d.is_empty(), "{d:?}");
    }
}
