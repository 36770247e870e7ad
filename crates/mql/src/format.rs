//! Rendering of MQL statement results for terminal output.
//!
//! The text reply is a wire format: [`render_result`] writes molecule sets
//! (Fig.-2 style trees, through `Molecule::write_tree`) and the other
//! result kinds, and [`render_bin_result`] renders a decoded binary result
//! on the client. Both write atom ids, counts and tuple values through
//! [`mad_model::text`], the one definition of how a value prints; no
//! `core::fmt` runs per tree line. `tests/render_equivalence.rs` and
//! `tests/served_scan_golden.rs` pin the bytes.

use crate::exec::StatementResult;
use mad_core::MoleculeType;
use mad_model::bin::{len_u32, usize_of_u32, BinAtom, BinMolecules, BinNode, BinResult};
use mad_model::json::Json;
use mad_model::text::TextWriter;
use mad_model::FxHashSet;
use mad_obs::MetricValue;
use mad_storage::Database;
use std::fmt::Write as _;

/// Render a statement result as human-readable text (molecule sets come
/// out as indented trees, Fig.-2 style).
pub fn render_result(db: &Database, result: &StatementResult) -> String {
    match result {
        StatementResult::Molecules(mt) => {
            let mut out = TextWriter::with_capacity(rendered_size_hint(mt));
            out.push_str("molecule type `");
            out.push_str(&mt.name);
            out.push_str("`: ");
            push_count(&mut out, mt.len());
            out.push_str(" molecule(s)\nstructure: ");
            out.push_str(&mt.structure.render_compact(db.schema()));
            out.push_char('\n');
            let mut seen = FxHashSet::default();
            for m in &mt.molecules {
                m.write_tree(db, &mt.structure, &mt.attrs, &mut seen, &mut out);
            }
            let shared = mt.shared_atom_count();
            if shared > 0 {
                out.push_str("shared subobjects: ");
                push_count(&mut out, shared);
                out.push_str(" atom(s) appear in ≥ 2 molecules\n");
            }
            out.into_string()
        }
        StatementResult::Recursive(ms) => {
            let mut out = TextWriter::new();
            push_count(&mut out, ms.len());
            out.push_str(" recursive molecule(s)\n");
            let mut seen = FxHashSet::default();
            for m in ms {
                m.write_tree(db, &mut seen, &mut out);
            }
            out.into_string()
        }
        StatementResult::Plan(plan) => plan.to_string(),
        StatementResult::Defined(name) => format!("defined molecule type `{name}`\n"),
        StatementResult::Inserted(id) => format!("inserted atom {id}\n"),
        StatementResult::Connected(true) => "connected\n".to_owned(),
        StatementResult::Connected(false) => "already connected\n".to_owned(),
        StatementResult::Disconnected(true) => "disconnected\n".to_owned(),
        StatementResult::Disconnected(false) => "no such link\n".to_owned(),
        StatementResult::Deleted { atoms, links } => {
            format!("deleted {atoms} atom(s), cascaded {links} link(s)\n")
        }
        StatementResult::Updated { atoms } => format!("updated {atoms} atom(s)\n"),
        StatementResult::Began => "transaction started\n".to_owned(),
        StatementResult::Committed { seq, ops, remap } if remap.is_empty() => {
            format!("committed {ops} operation(s) at sequence {seq}\n")
        }
        StatementResult::Committed { seq, ops, remap } => {
            format!(
                "committed {ops} operation(s) at sequence {seq}; {} inserted atom(s) remapped\n",
                remap.len()
            )
        }
        StatementResult::Aborted => "transaction aborted\n".to_owned(),
        StatementResult::Checkpointed(stats) => format!(
            "checkpointed: write-ahead log {} -> {} bytes (image at commit {})\n",
            stats.bytes_before, stats.bytes_after, stats.base_seq
        ),
        StatementResult::Stats(text) => text.clone(),
        StatementResult::Prepared(name) => format!("prepared statement `{name}`\n"),
        StatementResult::Deallocated {
            name: Some(name), ..
        } => format!("deallocated prepared statement `{name}`\n"),
        StatementResult::Deallocated { name: None, count } => {
            format!("deallocated {count} prepared statement(s)\n")
        }
        StatementResult::Analyzed { inner, trace } => {
            let mut out = render_result(db, inner);
            if !out.ends_with('\n') {
                out.push('\n');
            }
            out.push_str(&trace.render());
            out
        }
    }
}

/// A guess at a molecule set's rendered size, so the text is usually
/// written into one allocation: a tree prints one line per root and per
/// link, [`LINE_BYTES`] long on average.
fn rendered_size_hint(mt: &MoleculeType) -> usize {
    let lines: usize = mt
        .molecules
        .iter()
        .map(|m| 1 + m.links.iter().map(Vec::len).sum::<usize>())
        .sum();
    256 + LINE_BYTES * lines
}

/// Average length of a rendered tree line (indentation, alias, id and a
/// short tuple), rounded up: the Fig. 2 shape over the generated
/// geography averages 36 bytes.
const LINE_BYTES: usize = 40;

/// Encode a statement result for the binary wire encoding: molecule sets
/// travel structurally (schema-described tuples, no text rendering),
/// every other result kind is forwarded as its rendered text.
pub fn bin_result(db: &Database, result: &StatementResult) -> BinResult {
    match result {
        StatementResult::Molecules(mt) => {
            let schema = db.schema();
            // per node, the tuple positions it shows (Π's attribute list)
            let shown: Vec<Vec<usize>> = mt
                .structure
                .nodes()
                .iter()
                .enumerate()
                .map(|(i, n)| match mt.attrs.get(i).and_then(Option::as_deref) {
                    Some(positions) => positions.to_vec(),
                    None => (0..schema.atom_type(n.ty).arity()).collect(),
                })
                .collect();
            let nodes = mt
                .structure
                .nodes()
                .iter()
                .zip(&shown)
                .map(|(n, positions)| {
                    let def = schema.atom_type(n.ty);
                    BinNode {
                        alias: n.alias.clone(),
                        atom_type: def.name.clone(),
                        attrs: positions.iter().filter_map(|&p| def.attrs.get(p).cloned()).collect(),
                    }
                })
                .collect();
            let molecules = mt
                .molecules
                .iter()
                .map(|m| {
                    let mut atoms = Vec::with_capacity(m.atom_occurrences());
                    for (node, positions) in shown.iter().enumerate() {
                        for &id in m.atoms_at(node) {
                            atoms.push(BinAtom {
                                node: len_u32(node),
                                id,
                                // a dead atom (deleted since derivation)
                                // travels as an empty tuple, mirroring the
                                // text renderer's `<dead>` marker
                                tuple: db
                                    .atom(id)
                                    .map(|t| positions.iter().filter_map(|&p| t.get(p).cloned()).collect())
                                    .unwrap_or_default(),
                            });
                        }
                    }
                    atoms
                })
                .collect();
            BinResult::Molecules(BinMolecules {
                name: mt.name.clone(),
                nodes,
                molecules,
            })
        }
        other => BinResult::Text(render_result(db, other)),
    }
}

/// Render a decoded binary result client-side. The encoding is
/// self-describing, so no schema round-trip is needed; molecule sets come
/// out as per-node atom listings (the structural link information is in
/// the server-side tree rendering only).
pub fn render_bin_result(result: &BinResult) -> String {
    match result {
        BinResult::Text(s) => s.clone(),
        BinResult::Molecules(bm) => {
            let mut out = TextWriter::new();
            out.push_str("molecule type `");
            out.push_str(&bm.name);
            out.push_str("`: ");
            push_count(&mut out, bm.molecules.len());
            out.push_str(" molecule(s) (binary)\nnodes: ");
            for (i, n) in bm.nodes.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&n.alias);
            }
            out.push_char('\n');
            for m in &bm.molecules {
                out.push_str("molecule:\n");
                for a in m {
                    let alias = bm
                        .nodes
                        .get(usize_of_u32(a.node))
                        .map(|n| n.alias.as_str())
                        .unwrap_or("?");
                    out.push_str("  ");
                    out.push_str(alias);
                    out.push_char(' ');
                    out.push_atom_id(a.id);
                    out.push_str(" <");
                    for (i, v) in a.tuple.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push_value(v);
                    }
                    out.push_str(">\n");
                }
            }
            out.into_string()
        }
    }
}

/// Append a count (a collection length) in decimal.
fn push_count(out: &mut TextWriter, n: usize) {
    out.push_u64(u64::try_from(n).unwrap_or(u64::MAX));
}

/// Render a registry snapshot as an aligned name/value table (the
/// `SHOW STATS` default).
pub fn stats_table(snap: &[(String, MetricValue)]) -> String {
    if snap.is_empty() {
        return "no metrics recorded\n".to_owned();
    }
    let width = snap.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, value) in snap {
        let _ = match value {
            MetricValue::Counter(n) | MetricValue::Gauge(n) => {
                writeln!(out, "{name:<width$}  {n}")
            }
            MetricValue::Text(s) => writeln!(out, "{name:<width$}  {s}"),
            MetricValue::Hist(h) => writeln!(out, "{name:<width$}  {h}"),
        };
    }
    out
}

/// Render a registry snapshot as one JSON object (`SHOW STATS … AS JSON`):
/// counters and gauges become integers, text metrics strings, histograms
/// objects carrying count/sum/max and the estimated percentiles.
pub fn stats_json(snap: &[(String, MetricValue)]) -> String {
    let int = |v: u64| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
    let members = snap
        .iter()
        .map(|(name, value)| {
            let v = match value {
                MetricValue::Counter(n) | MetricValue::Gauge(n) => int(*n),
                MetricValue::Text(s) => Json::Str(s.clone()),
                MetricValue::Hist(h) => Json::Obj(vec![
                    ("count".to_owned(), int(h.count)),
                    ("sum".to_owned(), int(h.sum)),
                    ("mean".to_owned(), int(h.mean())),
                    ("p50".to_owned(), int(h.p50())),
                    ("p90".to_owned(), int(h.p90())),
                    ("p99".to_owned(), int(h.p99())),
                    ("max".to_owned(), int(h.max)),
                ]),
            };
            (name.clone(), v)
        })
        .collect();
    let mut text = Json::Obj(members).render_pretty();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use mad_model::{AttrType, SchemaBuilder, Value};

    fn db() -> Database {
        let schema = SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text)])
            .atom_type("area", &[("aid", AttrType::Int)])
            .link_type("state-area", "state", "area")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let s1 = db.insert_atom(state, vec![Value::from("SP")]).unwrap();
        let s2 = db.insert_atom(state, vec![Value::from("MG")]).unwrap();
        let a = db.insert_atom(area, vec![Value::from(1)]).unwrap();
        db.connect(sa, s1, a).unwrap();
        db.connect(sa, s2, a).unwrap();
        db
    }

    #[test]
    fn renders_molecule_trees_with_sharing_note() {
        let mut s = Session::new(db());
        let r = s.execute("SELECT ALL FROM state-area").unwrap();
        let text = render_result(s.db(), &r);
        assert!(text.contains("molecule type `result`"));
        assert!(text.contains("'SP'"));
        assert!(text.contains("'MG'"));
        assert!(text.contains("shared subobjects: 1"));
    }

    #[test]
    fn renders_dml_results() {
        let mut s = Session::new(db());
        let r = s.execute("INSERT ATOM state (sname = 'RJ')").unwrap();
        assert!(render_result(s.db(), &r).starts_with("inserted atom"));
        let r = s
            .execute("CONNECT state[sname='RJ'] TO area[aid=1] VIA state-area")
            .unwrap();
        assert_eq!(render_result(s.db(), &r), "connected\n");
        let r = s
            .execute("CONNECT state[sname='RJ'] TO area[aid=1] VIA state-area")
            .unwrap();
        assert_eq!(render_result(s.db(), &r), "already connected\n");
        let r = s.execute("DELETE ATOM state[sname='RJ']").unwrap();
        assert!(render_result(s.db(), &r).contains("deleted 1 atom(s)"));
    }
}
