//! Renderer oracle: `mad_mql::format::render_result` must produce exactly
//! the bytes of the reference renderer below — a verbatim copy of the
//! renderer that shipped before the one-pass rewrite (per-line `format!`,
//! per-tuple `Vec<String>` + `join`, a full link scan per atom, the
//! sharing trailer through `MoleculeType::shared_atoms`). The text
//! encoding is a wire format that clients parse; a faster renderer may not
//! change a single byte of it.
//!
//! Covered: random schemas, structures (chain, diamond, tree) and
//! databases with every `Value` variant, molecules sharing atoms (`^ref`
//! lines within a molecule, the "shared subobjects" trailer across
//! molecules), atoms deleted after derivation (`<dead>`), projected
//! SELECTs, recursive results (reconverging and cyclic), the Brazil
//! Fig. 2 query, and the non-molecule result kinds.
//!
//! An MQL SELECT is evaluated without propagation: its reply names base
//! atoms where the earlier executor propagated Σ and Π results into DB′
//! (Def. 9) and printed the copies' ids. Every SELECT reply is therefore
//! also compared with the earlier executor's reply — the same query
//! propagated on an engine, rendered by the reference — after numbering
//! the atom ids of both in order of first appearance: the two may differ
//! in atom ids only.

use mad::algebra::{
    derive_recursive, DeriveOptions, Direction, Engine, RecursiveSpec, Strategy as DStrategy,
    StructureBuilder,
};
use mad::model::{AtomId, AtomTypeId, AttrType, FxHashMap, SchemaBuilder, Value};
use mad::mql::ast::{Projection, Statement};
use mad::mql::exec::plan_select;
use mad::mql::format::render_result;
use mad::mql::{Session, StatementResult};
use mad::storage::Database;
use mad::txn::DbHandle;
use proptest::prelude::*;

/// The reference renderer, copied verbatim from the previous
/// implementation (`render_result`, `Molecule::render_tree`,
/// `RecursiveMolecule::render_tree`); only paths were adjusted.
mod reference {
    use mad::algebra::{Molecule, MoleculeStructure, RecursiveMolecule};
    use mad::model::{AtomId, FxHashMap, FxHashSet, Value};
    use mad::mql::StatementResult;
    use mad::storage::Database;
    use std::fmt;

    pub fn render_result(db: &Database, result: &StatementResult) -> String {
        match result {
            StatementResult::Molecules(mt) => {
                let mut out = format!("molecule type `{}`: {} molecule(s)\n", mt.name, mt.len());
                out.push_str(&format!(
                    "structure: {}\n",
                    mt.structure.render_compact(db.schema())
                ));
                for m in &mt.molecules {
                    out.push_str(&render_tree(m, db, &mt.structure));
                }
                let shared = mt.shared_atoms();
                if !shared.is_empty() {
                    out.push_str(&format!(
                        "shared subobjects: {} atom(s) appear in ≥ 2 molecules\n",
                        shared.len()
                    ));
                }
                out
            }
            StatementResult::Recursive(ms) => {
                let mut out = format!("{} recursive molecule(s)\n", ms.len());
                for m in ms {
                    out.push_str(&render_recursive_tree(m, db));
                }
                out
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

    /// `Display for Value` as it was before values were written by
    /// `mad_model::text` (std's `{x:.1}` and `{x}` for floats), kept here
    /// so the oracle does not run the writer it checks.
    fn value_to_string(v: &Value) -> String {
        struct Shown<'a>(&'a Value);
        impl fmt::Display for Shown<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    Value::Null => f.write_str("NULL"),
                    Value::Bool(b) => write!(f, "{b}"),
                    Value::Int(i) => write!(f, "{i}"),
                    Value::Float(x) => {
                        if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                            write!(f, "{x:.1}")
                        } else {
                            write!(f, "{x}")
                        }
                    }
                    Value::Text(s) => write!(f, "'{s}'"),
                    Value::Id(a) => write!(f, "@{a}"),
                }
            }
        }
        Shown(v).to_string()
    }

    fn render_tree(m: &Molecule, db: &Database, md: &MoleculeStructure) -> String {
        let mut out = String::new();
        let mut seen: FxHashSet<AtomId> = FxHashSet::default();
        render_atom(m, db, md, md.root(), m.root, 0, &mut seen, &mut out);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn render_atom(
        m: &Molecule,
        db: &Database,
        md: &MoleculeStructure,
        node: usize,
        atom: AtomId,
        depth: usize,
        seen: &mut FxHashSet<AtomId>,
        out: &mut String,
    ) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let alias = &md.nodes()[node].alias;
        if !seen.insert(atom) {
            out.push_str(&format!("{alias} ^{atom}\n"));
            return;
        }
        match db.atom(atom) {
            Ok(tuple) => {
                let vals: Vec<String> = tuple.iter().map(value_to_string).collect();
                out.push_str(&format!("{alias} {atom} <{}>\n", vals.join(", ")));
            }
            Err(_) => out.push_str(&format!("{alias} {atom} <dead>\n")),
        }
        for &e in md.outgoing(node) {
            let edge = &md.edges()[e];
            for &(p, c) in &m.links[e] {
                if p == atom {
                    render_atom(m, db, md, edge.to, c, depth + 1, seen, out);
                }
            }
        }
    }

    fn render_recursive_tree(m: &RecursiveMolecule, db: &Database) -> String {
        let children = child_map(m);
        let mut out = String::new();
        let mut seen = FxHashSet::default();
        render_node(db, &children, m.root, 0, &mut seen, &mut out);
        out
    }

    fn child_map(m: &RecursiveMolecule) -> FxHashMap<AtomId, Vec<AtomId>> {
        let mut children: FxHashMap<AtomId, Vec<AtomId>> = FxHashMap::default();
        for &(p, c) in &m.links {
            children.entry(p).or_default().push(c);
        }
        for v in children.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        children
    }

    fn render_node(
        db: &Database,
        children: &FxHashMap<AtomId, Vec<AtomId>>,
        atom: AtomId,
        depth: usize,
        seen: &mut FxHashSet<AtomId>,
        out: &mut String,
    ) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        if !seen.insert(atom) {
            out.push_str(&format!("^{atom}\n"));
            return;
        }
        match db.atom(atom) {
            Ok(t) => {
                let vals: Vec<String> = t.iter().map(value_to_string).collect();
                out.push_str(&format!("{atom} <{}>\n", vals.join(", ")));
            }
            Err(_) => out.push_str(&format!("{atom} <dead>\n")),
        }
        if let Some(cs) = children.get(&atom) {
            for &c in cs {
                render_node(db, children, c, depth + 1, seen, out);
            }
        }
    }
}

fn assert_same(db: &Database, result: &StatementResult) {
    let want = reference::render_result(db, result);
    let got = render_result(db, result);
    assert!(
        got == want,
        "renderer diverged from the reference\n--- reference ---\n{want}--- render_result ---\n{got}"
    );
}

/// Is `token` an atom id (`a<type>.<slot>`)?
fn is_atom_id(token: &str) -> bool {
    token.strip_prefix('a').and_then(|t| t.split_once('.')).is_some_and(|(ty, slot)| {
        [ty, slot]
            .iter()
            .all(|p| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()))
    })
}

/// `text` with the atom id of every tree line (`alias id <…>` or
/// `alias ^id`) replaced by `#n`, numbered in order of first appearance.
/// Ids inside tuples (`Id` values) are left alone.
fn normalise_ids(text: &str) -> String {
    let mut numbers: FxHashMap<String, usize> = FxHashMap::default();
    let mut out = String::new();
    for line in text.lines() {
        let body = line.trim_start();
        let indent = &line[..line.len() - body.len()];
        let mut parts = body.splitn(3, ' ');
        match (parts.next(), parts.next()) {
            (Some(alias), Some(token)) if is_atom_id(token.trim_start_matches('^')) => {
                let back = if token.starts_with('^') { "^" } else { "" };
                let id = token.trim_start_matches('^').to_owned();
                let next = numbers.len();
                let n = *numbers.entry(id).or_insert(next);
                out.push_str(&format!("{indent}{alias} {back}#{n}"));
                if let Some(rest) = parts.next() {
                    out.push(' ');
                    out.push_str(rest);
                }
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// The reply the earlier executor gave to the SELECT `mql` on session
/// `s`: Σ∘α through `define_restricted`, the SELECT list through
/// `Engine::project`, both propagated into DB′ and rendered by the
/// reference over that enlarged image. `None` for anything but a
/// plannable SELECT.
fn propagated_reply(s: &Session, mql: &str) -> Option<String> {
    let Statement::Select(sel) = mad::mql::parse(mql).ok()? else {
        return None;
    };
    let mut catalog = FxHashMap::default();
    for name in s.catalog_names() {
        catalog.insert(name.to_owned(), s.catalog_get(name)?.clone());
    }
    let mut engine = Engine::new(s.db().clone());
    let plan = plan_select(&engine, &mut catalog, &sel).ok()??;
    let bitset = DeriveOptions::with_strategy(DStrategy::Bitset);
    let mt = match &plan.qual {
        Some(q) => engine.define_restricted(&plan.name, plan.md.clone(), q, DStrategy::Bitset),
        None => engine.define_with(&plan.name, plan.md.clone(), &bitset),
    }
    .unwrap();
    let mt = match &plan.projection {
        Projection::All => mt,
        Projection::Items(items) => {
            let mut keep: Vec<&str> = Vec::new();
            let mut attrs: Vec<(&str, Vec<&str>)> = Vec::new();
            for item in items {
                if !keep.contains(&item.node.as_str()) {
                    keep.push(&item.node);
                }
                match &item.attr {
                    Some(a) => match attrs.iter_mut().find(|(n, _)| *n == item.node) {
                        Some((_, list)) if !list.contains(&a.as_str()) => list.push(a),
                        Some(_) => {}
                        None => attrs.push((&item.node, vec![a])),
                    },
                    None => attrs.retain(|(n, _)| *n != item.node),
                }
            }
            engine.project(&mt, &keep, &attrs).unwrap()
        }
    };
    Some(reference::render_result(
        engine.db(),
        &StatementResult::Molecules(mt),
    ))
}

/// Execute `mql` on `s` and check its reply: byte-equal to the reference
/// over the same result where the reference can show it (everything but
/// an attribute projection), and equal up to atom ids to the earlier
/// executor's propagated reply for a SELECT.
fn assert_reply(s: &mut Session, mql: &str) {
    let r = s.execute(mql).unwrap_or_else(|e| panic!("{mql}: {e}"));
    let projected = matches!(&r, StatementResult::Molecules(mt) if mt.attrs.iter().any(Option::is_some));
    if !projected {
        assert_same(s.db(), &r);
    }
    if let Some(old) = propagated_reply(s, mql) {
        let new = render_result(s.db(), &r);
        assert!(
            normalise_ids(&new) == normalise_ids(&old),
            "`{mql}` differs from the propagated reply beyond atom ids\n\
             --- propagated ---\n{old}--- pure ---\n{new}"
        );
    }
}

/// Floats around every branch of `Value`'s float formatting: integral
/// below 1e15 (`{:.1}`), integral at or above it, fractional, signed
/// zero, subnormal-ish, non-finite, exact ties between two shortest
/// decimals (std rounds them up), and the ends of the range.
const FLOATS: [f64; 21] = [
    0.0,
    -0.0,
    2.0,
    -7.0,
    0.1,
    1.5,
    -3.25,
    123_456_789_012_345.0,
    999_999_999_999_999.0,
    1e15,
    1.5e16,
    1e-7,
    f64::INFINITY,
    f64::NAN,
    1_658_206_780_088_562.0 + 0.25,
    233_115_890_514_796.0 + 0.125,
    1.0 / 33_554_432.0, // 2^-25
    5e-324,
    f64::MIN_POSITIVE,
    f64::MAX,
    -1e300,
];

const TEXTS: [&str; 6] = ["SP", "", "a, b", "Minas Gerais", "ü ∑ ≥", "it's"];

/// A value of domain `ty` picked by `r`; every seventh is `Null`.
fn value(ty: AttrType, r: u64) -> Value {
    if r.is_multiple_of(7) {
        return Value::Null;
    }
    let k = (r >> 3) as usize;
    match ty {
        AttrType::Bool => Value::Bool(r & 8 != 0),
        AttrType::Int => Value::Int(if r & 16 != 0 {
            (r >> 5) as i64
        } else {
            -((r % 1000) as i64)
        }),
        AttrType::Float => {
            if r & 16 != 0 {
                Value::Float(FLOATS[k % FLOATS.len()])
            } else {
                Value::Float((r % 100_000) as f64 / 8.0)
            }
        }
        AttrType::Text => Value::Text(TEXTS[k % TEXTS.len()].to_owned()),
        AttrType::Id => Value::Id(AtomId::new(AtomTypeId((r % 4) as u32), (k % 50) as u32)),
    }
}

/// Attribute domains of the four generated atom types: between them
/// every `Value` variant occurs (plus `Null` anywhere).
const ATTRS: [&[(&str, AttrType)]; 4] = [
    &[("name", AttrType::Text), ("n", AttrType::Int)],
    &[("x", AttrType::Float), ("flag", AttrType::Bool)],
    &[("ref", AttrType::Id), ("y", AttrType::Float)],
    &[
        ("z", AttrType::Float),
        ("s", AttrType::Text),
        ("k", AttrType::Int),
    ],
];

/// Edges of the three structure shapes, as `(from, to)` type indexes.
fn shape_edges(shape: usize) -> &'static [(usize, usize)] {
    match shape {
        // t0 - t1 - t2 - t3
        0 => &[(0, 1), (1, 2), (2, 3)],
        // t0 → (t1, t2) → t3: a diamond, t3 reached through both branches
        1 => &[(0, 1), (0, 2), (1, 3), (2, 3)],
        // t0 → (t1 - t3, t2)
        _ => &[(0, 1), (0, 2), (1, 3)],
    }
}

fn build_db(
    shape: usize,
    counts: &[usize],
    links: &[(usize, usize, usize)],
    picks: &[u64],
) -> Database {
    let mut b = SchemaBuilder::new();
    for (ti, attrs) in ATTRS.iter().enumerate() {
        b = b.atom_type(&format!("t{ti}"), attrs);
    }
    let edges = shape_edges(shape);
    for (i, (f, t)) in edges.iter().enumerate() {
        b = b.link_type(&format!("l{i}"), &format!("t{f}"), &format!("t{t}"));
    }
    let mut db = Database::new(b.build().unwrap());
    let mut pick = picks.iter().copied().cycle();
    let mut ids: Vec<Vec<AtomId>> = Vec::new();
    for (ti, attrs) in ATTRS.iter().enumerate() {
        let ty = db.schema().atom_type_id(&format!("t{ti}")).unwrap();
        let of_ty = (0..counts[ti])
            .map(|_| {
                let tuple = attrs
                    .iter()
                    .map(|&(_, at)| value(at, pick.next().unwrap_or(1)))
                    .collect();
                db.insert_atom(ty, tuple).unwrap()
            })
            .collect();
        ids.push(of_ty);
    }
    for &(ei, from, to) in links {
        let ei = ei % edges.len();
        let (f, t) = edges[ei];
        let lt = db.schema().link_type_id(&format!("l{ei}")).unwrap();
        let a = ids[f][from % ids[f].len()];
        let b = ids[t][to % ids[t].len()];
        let _ = db.connect(lt, a, b);
    }
    db
}

fn structure(db: &Database, shape: usize) -> mad::algebra::MoleculeStructure {
    let mut b = StructureBuilder::new(db.schema());
    for ti in 0..4 {
        b = b.node(&format!("t{ti}"));
    }
    for (i, (f, t)) in shape_edges(shape).iter().enumerate() {
        b = b.edge_named(&format!("l{i}"), &format!("t{f}"), &format!("t{t}"));
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Derived molecule sets over random schemas and data, rendered
    /// before and after deleting some of their atoms, then projected.
    #[test]
    fn render_result_equals_the_reference(
        shape in 0usize..3,
        counts in prop::collection::vec(1usize..7, 4..5),
        links in prop::collection::vec((0usize..4, 0usize..8, 0usize..8), 0..40),
        picks in prop::collection::vec(any::<u64>(), 1..60),
        deletions in prop::collection::vec(0usize..64, 0..4),
        per_root in any::<bool>(),
    ) {
        let db = build_db(shape, &counts, &links, &picks);
        let md = structure(&db, shape);
        let mut engine = Engine::new(db);
        let strategy = if per_root { DStrategy::PerRoot } else { DStrategy::Bitset };
        let mt = engine
            .define_with("r", md, &DeriveOptions::with_strategy(strategy))
            .unwrap();
        let result = StatementResult::Molecules(mt.clone());
        assert_same(engine.db(), &result);

        // atoms deleted after derivation render as `<dead>`
        let mut after = engine.db().clone();
        let mut members: Vec<AtomId> = mt
            .molecules
            .iter()
            .flat_map(|m| m.atoms.iter().skip(1).flatten().copied())
            .collect();
        members.sort_unstable();
        members.dedup();
        if !members.is_empty() {
            for &d in &deletions {
                let victim = members[d % members.len()];
                if after.atom_exists(victim) {
                    after.delete_atom(victim).unwrap();
                }
            }
        }
        assert_same(&after, &result);

        // a projection (Π): t3 pruned, t2 attribute-projected
        let projected = engine
            .project(&mt, &["t0", "t1", "t2"], &[("t2", vec!["y", "ref"])])
            .unwrap();
        assert_same(engine.db(), &StatementResult::Molecules(projected));
    }

    /// The same through MQL: tree-shaped inline structures, WHERE
    /// restrictions and SELECT lists.
    #[test]
    fn mql_results_render_like_the_reference(
        counts in prop::collection::vec(1usize..6, 4..5),
        links in prop::collection::vec((0usize..3, 0usize..8, 0usize..8), 0..30),
        picks in prop::collection::vec(any::<u64>(), 1..40),
        query in 0usize..6,
    ) {
        let db = build_db(2, &counts, &links, &picks);
        let mut s = Session::new(db);
        let mql = [
            "SELECT ALL FROM t0-(t1-t3, t2)",
            "SELECT t0, t2 FROM t0-(t1-t3, t2)",
            "SELECT t0.name, t1.x, t3 FROM t0-(t1-t3, t2)",
            "SELECT ALL FROM t1-t3",
            "SELECT ALL FROM t0-(t1-t3, t2) WHERE t0.n < 0",
            "SELECT t0.n, t0.name, t2.y, t2.ref FROM t0-(t1-t3, t2) WHERE t1.x >= 0.0",
        ][query];
        assert_reply(&mut s, mql);
    }
}

#[test]
fn brazil_fig2_query_renders_like_the_reference_and_the_golden() {
    let (db, _) = mad::workload::brazil_database().unwrap();
    let mut s = Session::shared(DbHandle::new(db));
    let r = s.execute("SELECT ALL FROM state-area-edge-point").unwrap();
    assert_same(s.db(), &r);
    // the bytes `madc -e` prints for the same query against `madd
    // --bootstrap brazil` (scripts/ci.sh diffs the live wire against it)
    assert_eq!(
        render_result(s.db(), &r),
        include_str!("golden/brazil_scan.txt")
    );
    for mql in [
        "SELECT state, area FROM state-area-edge-point",
        "SELECT state.sname, area, edge FROM state-area-edge-point",
        "SELECT ALL FROM state-area-edge-point WHERE state.sname = 'SP'",
        "SELECT state.hectare, state.sname, area FROM state-area-edge-point WHERE state.hectare > 900.0",
        "SELECT ALL FROM point-edge-area-state",
        "SELECT ALL FROM state",
        "EXPLAIN SELECT ALL FROM state-area-edge-point WHERE state.sname = 'SP'",
        "EXPLAIN ANALYZE SELECT ALL FROM state-area",
        "SHOW STATS mql",
        "PREPARE p AS SELECT ALL FROM state-area",
        "EXECUTE p",
        "DEALLOCATE p",
        "DEALLOCATE ALL",
        "DEFINE MOLECULE borders AS state-area-edge",
        "SELECT ALL FROM borders",
        "INSERT ATOM point (pname = 'px', x = 1.5, y = 2000000000000000.0)",
        "BEGIN",
        "INSERT ATOM point (pname = 'py', x = 0.0, y = -1.0)",
        "COMMIT",
        "BEGIN",
        "ABORT",
        "UPDATE point[pname='px'] SET x = 3.0",
        "DELETE ATOM point[pname='px']",
    ] {
        assert_reply(&mut s, mql);
    }
}

#[test]
fn recursive_results_render_like_the_reference() {
    let (db, h) = mad::workload::generate_bom(&mad::workload::BomParams {
        depth: 3,
        width: 10,
        fanout: 3,
        share: 0.7,
        seed: 11,
    })
    .unwrap();
    let root_name = db.atom(h.roots[0]).unwrap()[0]
        .as_text()
        .unwrap()
        .to_owned();
    let mut s = Session::new(db);
    for mql in [
        format!("SELECT ALL FROM RECURSIVE parts VIA composition DOWN WHERE parts.pname = '{root_name}'"),
        "SELECT ALL FROM RECURSIVE parts VIA composition DOWN DEPTH 2".to_owned(),
        "SELECT ALL FROM RECURSIVE parts VIA composition UP".to_owned(),
        "SELECT ALL FROM RECURSIVE parts VIA composition BOTH DEPTH 1".to_owned(),
    ] {
        let r = s.execute(&mql).unwrap();
        assert!(matches!(r, StatementResult::Recursive(_)), "{mql}");
        assert_same(s.db(), &r);
    }

    // a cycle plus a part deleted after derivation: finite `^ref` output
    // and a `<dead>` line
    let schema = SchemaBuilder::new()
        .atom_type(
            "parts",
            &[("pname", AttrType::Text), ("w", AttrType::Float)],
        )
        .link_type("composition", "parts", "parts")
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    let parts = db.schema().atom_type_id("parts").unwrap();
    let comp = db.schema().link_type_id("composition").unwrap();
    let ids: Vec<AtomId> = (0..5)
        .map(|i| {
            db.insert_atom(
                parts,
                vec![Value::from(format!("p{i}")), Value::Float(i as f64 * 0.5)],
            )
            .unwrap()
        })
        .collect();
    for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 0)] {
        db.connect(comp, ids[a], ids[b]).unwrap();
    }
    for dir in [Direction::Fwd, Direction::Bwd, Direction::Sym] {
        let spec = RecursiveSpec {
            atom_type: parts,
            link: comp,
            dir,
            max_depth: None,
        };
        let ms = derive_recursive(&db, &spec, None).unwrap();
        let result = StatementResult::Recursive(ms);
        assert_same(&db, &result);
        let mut after = db.clone();
        after.delete_atom(ids[3]).unwrap();
        assert_same(&after, &result);
    }
}
