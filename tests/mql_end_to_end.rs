//! MQL end-to-end over the realistic workloads: the full
//! parse → analyze → algebra → result pipeline on the Brazil and VLSI
//! databases, plus a DML-then-query session and MQL-vs-direct-algebra
//! equivalence checks.

use mad::algebra::ops::Engine;
use mad::algebra::qual::{CmpOp, QualExpr};
use mad::algebra::structure::path;
use mad::mql::{Session, StatementResult};
use mad::workload::{brazil_database, generate_vlsi, VlsiParams};

fn molecules(r: StatementResult) -> mad::algebra::molecule::MoleculeType {
    match r {
        StatementResult::Molecules(mt) => mt,
        other => panic!("expected molecules, got {other:?}"),
    }
}

#[test]
fn mql_equals_direct_algebra() {
    let (db, _) = brazil_database().unwrap();
    let mut session = Session::new(db);
    let via_mql = molecules(
        session
            .execute("SELECT ALL FROM state-area-edge WHERE state.hectare > 700.0")
            .unwrap(),
    );
    // the same through the algebra API on a fresh engine
    let (db, _) = brazil_database().unwrap();
    let mut engine = Engine::new(db);
    let md = path(engine.db().schema(), &["state", "area", "edge"]).unwrap();
    let mt = engine.define("mt", md).unwrap();
    let direct = engine
        .restrict(&mt, &QualExpr::cmp_const(0, 2, CmpOp::Gt, 700.0))
        .unwrap();
    assert_eq!(via_mql.len(), direct.len());
    // canonical atom sets agree molecule-by-molecule
    let canon = |e: &Engine, mt: &mad::algebra::molecule::MoleculeType| -> Vec<Vec<mad::model::AtomId>> {
        let mut v: Vec<Vec<mad::model::AtomId>> = mt
            .molecules
            .iter()
            .map(|m| m.map_atoms(|a| e.provenance().canonical_atom(a)).atom_set())
            .collect();
        v.sort();
        v
    };
    assert_eq!(canon(session.engine(), &via_mql), canon(&engine, &direct));
}

#[test]
fn quantifiers_and_aggregates_in_where() {
    let (db, _) = brazil_database().unwrap();
    let mut s = Session::new(db);
    // every state has exactly 4 border edges in the fixture
    let all4 = molecules(
        s.execute("SELECT ALL FROM state-area-edge WHERE COUNT(edge) = 4")
            .unwrap(),
    );
    assert_eq!(all4.len(), 10);
    // FORALL over the edge set
    let all = molecules(
        s.execute("SELECT ALL FROM state-area-edge WHERE FORALL(edge: edge.eid >= 0)")
            .unwrap(),
    );
    assert_eq!(all.len(), 10);
    // EXISTS with inner conjunction
    let some = molecules(
        s.execute(
            "SELECT ALL FROM state-area-edge WHERE EXISTS(edge: edge.eid >= 0 AND edge.eid < 4)",
        )
        .unwrap(),
    );
    assert_eq!(some.len(), 1, "only MG owns edges 0..4");
    // aggregate over a child attribute
    let sum = molecules(
        s.execute("SELECT ALL FROM state-area-edge WHERE SUM(edge.eid) > 100")
            .unwrap(),
    );
    assert!(sum.len() < 10);
}

#[test]
fn vlsi_queries_with_explicit_link_names() {
    let (db, _) = generate_vlsi(&VlsiParams::default()).unwrap();
    let mut s = Session::new(db);
    // `cell` and `inst` are connected by TWO link types (cell-inst and
    // inst-of), so the bare `-` must fail…
    let err = s.execute("SELECT ALL FROM cell-inst").unwrap_err();
    assert!(err.to_string().contains("link types"), "{err}");
    // …and the explicit label must work
    let mt = molecules(
        s.execute("SELECT ALL FROM top:cell-[cell-inst]-inst-[inst-of]-def:cell WHERE top.level = 2")
            .unwrap(),
    );
    assert_eq!(mt.len(), 8, "eight level-2 cells");
    for m in &mt.molecules {
        assert_eq!(m.atoms_at(1).len(), 6, "six instances each");
    }
}

#[test]
fn dml_session_lifecycle() {
    let (db, _) = brazil_database().unwrap();
    let mut s = Session::new(db);
    let results = s
        .execute_script(
            "INSERT ATOM state (sname = 'TO', fullname = 'Tocantins', hectare = 277.7);
             INSERT ATOM area (aid = 99);
             CONNECT state[sname='TO'] TO area[aid=99] VIA state-area;
             SELECT ALL FROM state-area WHERE state.sname = 'TO';",
        )
        .unwrap();
    assert_eq!(results.len(), 4);
    let StatementResult::Molecules(mt) = &results[3] else {
        panic!()
    };
    assert_eq!(mt.len(), 1);
    assert_eq!(mt.molecules[0].atoms_at(1).len(), 1);
    // deleting the area cascades the new link
    let r = s.execute("DELETE ATOM area[aid=99]").unwrap();
    let StatementResult::Deleted { atoms, links } = r else {
        panic!()
    };
    assert_eq!((atoms, links), (1, 1));
    assert!(s.db().audit_referential_integrity().is_empty());
}

#[test]
fn named_molecule_types_are_session_state() {
    let (db, _) = brazil_database().unwrap();
    let mut s = Session::new(db);
    s.execute("DEFINE MOLECULE borders AS state-area-edge")
        .unwrap();
    s.execute("DEFINE MOLECULE courses AS river-net-edge")
        .unwrap();
    assert_eq!(s.catalog_names(), vec!["borders", "courses"]);
    let b = molecules(s.execute("SELECT ALL FROM borders").unwrap());
    let c = molecules(s.execute("SELECT ALL FROM courses").unwrap());
    assert_eq!(b.len(), 10);
    assert_eq!(c.len(), 3);
    // projection over a named type
    let p = molecules(
        s.execute("SELECT state.sname, area FROM borders WHERE state.hectare >= 900.0")
            .unwrap(),
    );
    assert_eq!(p.structure.node_count(), 2);
    assert_eq!(p.len(), 3, "MG, BA, SP");
}

#[test]
fn recursive_mql_on_generated_bom() {
    let (db, h) = mad::workload::generate_bom(&mad::workload::BomParams {
        depth: 3,
        width: 10,
        fanout: 2,
        share: 0.5,
        seed: 3,
    })
    .unwrap();
    let root_name = db.atom(h.roots[0]).unwrap()[0].as_text().unwrap().to_owned();
    let mut s = Session::new(db);
    let r = s
        .execute(&format!(
            "SELECT ALL FROM RECURSIVE parts VIA composition DOWN WHERE parts.pname = '{root_name}'"
        ))
        .unwrap();
    let StatementResult::Recursive(ms) = r else {
        panic!()
    };
    assert_eq!(ms.len(), 1);
    assert!(ms[0].size() > 1);
    assert!(ms[0].depth() <= 3);
}

#[test]
fn failed_dml_statement_leaves_no_partial_write() {
    let (db, _) = brazil_database().unwrap();
    let mut s = Session::new(db);
    let image = |s: &Session| mad::storage::DatabaseSnapshot::capture(s.db()).to_json_string();
    let before = image(&s);
    // `hectare` type-checks, `sname = 5` does not: the statement fails
    // after its first assignment, and that assignment must not survive
    assert!(s
        .execute("UPDATE state[sname='SP'] SET hectare = 1.0, sname = 5")
        .is_err());
    assert_eq!(image(&s), before, "a failed statement left a partial write");
}
