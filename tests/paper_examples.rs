//! Integration tests reproducing every in-text example of the paper on the
//! Fig. 1/4 Brazil database, through the public facade API.

use mad::algebra::atom_ops::{self, AtomPred};
use mad::algebra::ops::Engine;
use mad::algebra::qual::{CmpOp, QualExpr};
use mad::algebra::structure::{path, StructureBuilder};
use mad::algebra::{derive_molecules, DeriveOptions, Strategy};
use mad::mql::{Session, StatementResult};
use mad::relational::algebra as rel;
use mad::relational::RelationalImage;
use mad::workload::brazil_database;

/// §3.1: ×(state, edge) = border; all link types of the operands inherited;
/// σ[hectare>1000](border) matches the relational algebra's result.
#[test]
fn e6_border_product_and_restriction() {
    let (db, h) = brazil_database().unwrap();
    let image = RelationalImage::from_database(&db).unwrap();
    let mut db = db;
    let border = atom_ops::product(&mut db, h.state, h.edge, Some("border")).unwrap();
    assert_eq!(
        db.atom_count(border),
        db.atom_count(h.state) * db.atom_count(h.edge)
    );
    // the result atom type carries the attributes of both operands
    let def = db.schema().atom_type(border);
    assert_eq!(def.arity(), 3 + 1);
    // inherited link types exist for both operand sides
    assert!(db.schema().link_types_of(border).len() >= 3);
    // σ[hectare > 1000](border)
    let big = atom_ops::restrict(
        &mut db,
        border,
        &AtomPred::cmp(2, CmpOp::Gt, 1000.0),
        None,
    )
    .unwrap();
    // relational equivalent
    let s = rel::rename(image.atom_relation(h.state), &[("_id", "_sid")]).unwrap();
    let e = rel::rename(image.atom_relation(h.edge), &[("_id", "_eid")]).unwrap();
    let prod = rel::product(&s, &e).unwrap();
    let sel = rel::select(&prod, &rel::Pred::cmp("hectare", rel::Cmp::Gt, 1000.0)).unwrap();
    assert_eq!(db.atom_count(big), sel.len());
}

/// §4 query 1: SELECT ALL FROM mt_state(state-area-edge-point).
#[test]
fn e7_mql_mt_state() {
    let (db, _) = brazil_database().unwrap();
    let mut session = Session::new(db);
    let r = session
        .execute("SELECT ALL FROM mt_state(state-area-edge-point);")
        .unwrap();
    let StatementResult::Molecules(mt) = r else {
        panic!()
    };
    assert_eq!(mt.len(), 10);
    // every molecule carries its full hierarchy
    for m in &mt.molecules {
        assert_eq!(m.atoms_at(1).len(), 1);
        assert_eq!(m.atoms_at(2).len(), 4);
        assert_eq!(m.atoms_at(3).len(), 4);
    }
}

/// §4 query 2: the symmetric `point neighborhood` with WHERE restriction —
/// "this example stresses the flexible and symmetric use of a link type".
#[test]
fn e7_mql_point_neighborhood() {
    let (db, h) = brazil_database().unwrap();
    // pick the name of a point on a shared Paraná edge
    let ep = db.schema().link_type_id("edge-point").unwrap();
    let shared_point = db.link_store(ep).partners_fwd(h.shared_edges[0])[0];
    let pname = db.atom(shared_point).unwrap()[0]
        .as_text()
        .unwrap()
        .to_owned();
    let mut session = Session::new(db);
    let r = session
        .execute(&format!(
            "SELECT ALL FROM point-edge-(area-state,net-river) WHERE point.pname = '{pname}'"
        ))
        .unwrap();
    let StatementResult::Molecules(mt) = r else {
        panic!()
    };
    assert_eq!(mt.len(), 1);
    let m = &mt.molecules[0];
    assert!(!m.atoms_at(3).is_empty(), "a state is reached");
    assert!(!m.atoms_at(5).is_empty(), "the Paraná is reached");
}

/// §3.2: Ψ(mt1, mt2) = Δ(mt1, Δ(mt1, mt2)).
#[test]
fn e8_intersection_via_double_difference() {
    let (db, _) = brazil_database().unwrap();
    let mut engine = Engine::new(db);
    let md = path(engine.db().schema(), &["state", "area"]).unwrap();
    let mt = engine.define("mt", md).unwrap();
    let a = engine
        .restrict(&mt, &QualExpr::cmp_const(0, 2, CmpOp::Gt, 400.0))
        .unwrap();
    let b = engine
        .restrict(&mt, &QualExpr::cmp_const(0, 2, CmpOp::Le, 800.0))
        .unwrap();
    let psi = engine.intersection(&a, &b, "psi").unwrap();
    // direct intersection for comparison
    let direct = engine
        .restrict(
            &mt,
            &QualExpr::cmp_const(0, 2, CmpOp::Gt, 400.0)
                .and(QualExpr::cmp_const(0, 2, CmpOp::Le, 800.0)),
        )
        .unwrap();
    assert_eq!(psi.len(), direct.len());
    engine.verify_closure(&psi).unwrap();
}

/// Fig. 2: the same database yields totally different molecule types by
/// just specifying different structures — and they share subobjects.
#[test]
fn fig2_dynamic_definition_and_sharing() {
    let (db, _) = brazil_database().unwrap();
    let mt_state_md = path(db.schema(), &["state", "area", "edge", "point"]).unwrap();
    let pn_md = StructureBuilder::new(db.schema())
        .node("point")
        .node("edge")
        .node("area")
        .node("state")
        .node("net")
        .node("river")
        .edge("point", "edge")
        .edge("edge", "area")
        .edge("area", "state")
        .edge("edge", "net")
        .edge("net", "river")
        .build()
        .unwrap();
    let ms = derive_molecules(&db, &mt_state_md, &DeriveOptions::default()).unwrap();
    let pn = derive_molecules(&db, &pn_md, &DeriveOptions::default()).unwrap();
    assert_eq!(ms.len(), 10);
    assert_eq!(pn.len(), 40);
    // shared subobjects inside mt_state: the Paraná's shared border edges
    // (plus their points) belong to two state molecules... shared edges
    // belong to ONE state each here, but border corner points are shared
    // between neighbouring states:
    let mt = mad::algebra::molecule::MoleculeType {
        name: "mt_state".into(),
        structure: mt_state_md,
        molecules: ms,
    };
    assert!(!mt.shared_atoms().is_empty());
}

/// The bitset engine agrees with the per-root reference on the Brazil
/// database for every structure shape used in the paper.
#[test]
fn strategies_agree_on_brazil() {
    let (db, _) = brazil_database().unwrap();
    let structures = vec![
        path(db.schema(), &["state", "area", "edge", "point"]).unwrap(),
        path(db.schema(), &["river", "net", "edge", "point"]).unwrap(),
        path(db.schema(), &["point", "edge", "area", "state"]).unwrap(),
        path(db.schema(), &["city", "point", "edge"]).unwrap(),
    ];
    for md in structures {
        let a = derive_molecules(&db, &md, &DeriveOptions::with_strategy(Strategy::PerRoot))
            .unwrap();
        let b = derive_molecules(&db, &md, &DeriveOptions::with_strategy(Strategy::Bitset))
            .unwrap();
        assert_eq!(a, b);
    }
}
