//! Property test: under *any* sequence of DML operations the storage engine
//! preserves the §3.1 guarantee — "there are no dangling references" — and
//! honours the link type's cardinality bound.

use mad::model::{AtomId, AttrType, Cardinality, SchemaBuilder, Value};
use mad::storage::Database;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    InsertState(i64),
    InsertArea(i64),
    Connect(usize, usize),
    Disconnect(usize, usize),
    DeleteState(usize),
    DeleteArea(usize),
    Update(usize, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..100).prop_map(Op::InsertState),
        (0i64..100).prop_map(Op::InsertArea),
        (0usize..32, 0usize..32).prop_map(|(a, b)| Op::Connect(a, b)),
        (0usize..32, 0usize..32).prop_map(|(a, b)| Op::Disconnect(a, b)),
        (0usize..32).prop_map(Op::DeleteState),
        (0usize..32).prop_map(Op::DeleteArea),
        (0usize..32, 0i64..100).prop_map(|(i, v)| Op::Update(i, v)),
    ]
}

fn fresh_db() -> Database {
    let schema = SchemaBuilder::new()
        .atom_type("state", &[("v", AttrType::Int)])
        .atom_type("area", &[("w", AttrType::Int)])
        .link_type_card(
            "state-area",
            "state",
            Cardinality::MANY,
            "area",
            Cardinality::range(0, Some(3)),
        )
        .build()
        .unwrap();
    Database::new(schema)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn referential_integrity_under_random_dml(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut db = fresh_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let mut states: Vec<AtomId> = Vec::new();
        let mut areas: Vec<AtomId> = Vec::new();
        for op in ops {
            match op {
                Op::InsertState(v) => {
                    states.push(db.insert_atom(state, vec![Value::Int(v)]).unwrap());
                }
                Op::InsertArea(w) => {
                    areas.push(db.insert_atom(area, vec![Value::Int(w)]).unwrap());
                }
                Op::Connect(i, j) => {
                    if !states.is_empty() && !areas.is_empty() {
                        let s = states[i % states.len()];
                        let a = areas[j % areas.len()];
                        if db.atom_exists(s) && db.atom_exists(a) {
                            // may fail the max-3 cardinality — that is fine,
                            // it must never corrupt state
                            let _ = db.connect(sa, s, a);
                        }
                    }
                }
                Op::Disconnect(i, j) => {
                    if !states.is_empty() && !areas.is_empty() {
                        let s = states[i % states.len()];
                        let a = areas[j % areas.len()];
                        let _ = db.disconnect(sa, s, a);
                    }
                }
                Op::DeleteState(i) => {
                    if !states.is_empty() {
                        let s = states[i % states.len()];
                        if db.atom_exists(s) {
                            db.delete_atom(s).unwrap();
                        }
                    }
                }
                Op::DeleteArea(i) => {
                    if !areas.is_empty() {
                        let a = areas[i % areas.len()];
                        if db.atom_exists(a) {
                            db.delete_atom(a).unwrap();
                        }
                    }
                }
                Op::Update(i, v) => {
                    if !states.is_empty() {
                        let s = states[i % states.len()];
                        if db.atom_exists(s) {
                            db.update_attr(s, 0, Value::Int(v)).unwrap();
                        }
                    }
                }
            }
            // invariant 1: no dangling references, ever
            let problems = db.audit_referential_integrity();
            prop_assert!(problems.is_empty(), "{problems:?}");
        }
        // invariant 2: cardinality bound was honoured (≤ 3 states per area)
        for (a, _) in db.atoms_of(area) {
            prop_assert!(db.link_store(sa).degree_bwd(a) <= 3);
        }
    }

    /// Snapshot round-trips preserve atoms and links exactly.
    #[test]
    fn snapshot_roundtrip(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut db = fresh_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let mut states: Vec<AtomId> = Vec::new();
        let mut areas: Vec<AtomId> = Vec::new();
        for op in ops {
            match op {
                Op::InsertState(v) => {
                    states.push(db.insert_atom(state, vec![Value::Int(v)]).unwrap())
                }
                Op::InsertArea(w) => {
                    areas.push(db.insert_atom(area, vec![Value::Int(w)]).unwrap())
                }
                Op::Connect(i, j) if !states.is_empty() && !areas.is_empty() => {
                    let s = states[i % states.len()];
                    let a = areas[j % areas.len()];
                    if db.atom_exists(s) && db.atom_exists(a) {
                        let _ = db.connect(sa, s, a);
                    }
                }
                Op::DeleteState(i) if !states.is_empty() => {
                    let s = states[i % states.len()];
                    if db.atom_exists(s) {
                        db.delete_atom(s).unwrap();
                    }
                }
                _ => {}
            }
        }
        let snap = mad::storage::DatabaseSnapshot::capture(&db);
        let restored = snap.restore().unwrap();
        prop_assert_eq!(restored.total_atoms(), db.total_atoms());
        prop_assert_eq!(restored.total_links(), db.total_links());
        // identical atom ids and tuples
        for (id, tuple) in db.atoms_of(state) {
            prop_assert_eq!(restored.atom(id).unwrap(), tuple);
        }
        // identical links
        let orig: Vec<(AtomId, AtomId)> = db.links_of(sa).collect();
        let rest: Vec<(AtomId, AtomId)> = restored.links_of(sa).collect();
        prop_assert_eq!(orig, rest);
    }
}
