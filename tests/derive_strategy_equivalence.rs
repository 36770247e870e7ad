//! Property test: the derivation engine, `Strategy::Bitset` over the CSR
//! snapshot, computes exactly the same molecule sets as the `PerRoot`
//! reference, on random schemas and databases covering:
//!
//! * shared subobjects (many molecules containing the same atom),
//! * diamond DAG structures (the ∀/∃ intersection of Def. 6),
//! * empty candidate sets (early exit paths),
//! * tombstoned slots (deleted atoms leave gaps in the dense slot space
//!   the bitsets are indexed by),
//! * qualification pushdown (`evaluate_restricted` with per-node pruning
//!   vs. the naive derive-then-filter baseline).

use mad::algebra::qual::QualExpr;
use mad::algebra::{
    derive_molecules, CmpOp, DeriveOptions, Engine, Strategy as DStrategy, StructureBuilder,
};
use mad::model::{AttrType, SchemaBuilder, Value};
use mad::storage::Database;
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `t0 - t1 - t2 - t3`
    Chain,
    /// `t0 → (t1, t2) → t3` — diamond, t3 needs parents through BOTH edges
    Diamond,
    /// `t0 → (t1 - t3, t2)` — tree with two branches
    Tree,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (0usize..3).prop_map(|i| match i {
        0 => Shape::Chain,
        1 => Shape::Diamond,
        _ => Shape::Tree,
    })
}

/// Build a database over four atom types with the link types `shape` needs,
/// populate it from the generated parameters, and knock a few atoms out to
/// create tombstones.
fn build_db(
    shape: Shape,
    counts: [usize; 4],
    links: &[(usize, usize, usize)],
    deletions: &[usize],
) -> Database {
    let mut b = SchemaBuilder::new();
    for name in ["t0", "t1", "t2", "t3"] {
        b = b.atom_type(name, &[("v", AttrType::Int)]);
    }
    let edges: &[(&str, &str)] = match shape {
        Shape::Chain => &[("t0", "t1"), ("t1", "t2"), ("t2", "t3")],
        Shape::Diamond => &[("t0", "t1"), ("t0", "t2"), ("t1", "t3"), ("t2", "t3")],
        Shape::Tree => &[("t0", "t1"), ("t0", "t2"), ("t1", "t3")],
    };
    for (i, (a, bn)) in edges.iter().enumerate() {
        b = b.link_type(&format!("l{i}"), a, bn);
    }
    let schema = b.build().unwrap();
    let mut db = Database::new(schema);
    let mut ids = Vec::new();
    for (ti, &n) in counts.iter().enumerate() {
        let ty = db.schema().atom_type_id(&format!("t{ti}")).unwrap();
        let mut of_ty = Vec::new();
        for k in 0..n {
            of_ty.push(db.insert_atom(ty, vec![Value::Int(k as i64)]).unwrap());
        }
        ids.push(of_ty);
    }
    for &(ei, from, to) in links {
        let ei = ei % edges.len();
        let (fa, ta) = edges[ei];
        let fi: usize = fa[1..].parse().unwrap();
        let ti: usize = ta[1..].parse().unwrap();
        if ids[fi].is_empty() || ids[ti].is_empty() {
            continue;
        }
        let lt = db.schema().link_type_id(&format!("l{ei}")).unwrap();
        let a = ids[fi][from % ids[fi].len()];
        let b = ids[ti][to % ids[ti].len()];
        let _ = db.connect(lt, a, b);
    }
    // tombstone some non-root atoms so slot spaces have gaps
    for &d in deletions {
        let ti = 1 + d % 3;
        if !ids[ti].is_empty() {
            let victim = ids[ti][d % ids[ti].len()];
            if db.atom_exists(victim) {
                db.delete_atom(victim).unwrap();
            }
        }
    }
    db
}

fn structure_for(db: &Database, shape: Shape) -> mad::algebra::MoleculeStructure {
    let mut b = StructureBuilder::new(db.schema())
        .node("t0")
        .node("t1")
        .node("t2")
        .node("t3");
    b = match shape {
        Shape::Chain => b
            .edge_named("l0", "t0", "t1")
            .edge_named("l1", "t1", "t2")
            .edge_named("l2", "t2", "t3"),
        Shape::Diamond => b
            .edge_named("l0", "t0", "t1")
            .edge_named("l1", "t0", "t2")
            .edge_named("l2", "t1", "t3")
            .edge_named("l3", "t2", "t3"),
        Shape::Tree => b
            .edge_named("l0", "t0", "t1")
            .edge_named("l1", "t0", "t2")
            .edge_named("l2", "t1", "t3"),
    };
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitset_equals_classic_strategies(
        shape in shape_strategy(),
        c0 in 1usize..6,
        c1 in 0usize..7,
        c2 in 0usize..7,
        c3 in 0usize..7,
        links in prop::collection::vec((0usize..4, 0usize..32, 0usize..32), 0..90),
        deletions in prop::collection::vec(0usize..24, 0..5),
    ) {
        let db = build_db(shape, [c0, c1, c2, c3], &links, &deletions);
        let md = structure_for(&db, shape);
        let per_root =
            derive_molecules(&db, &md, &DeriveOptions::with_strategy(DStrategy::PerRoot)).unwrap();
        let bitset =
            derive_molecules(&db, &md, &DeriveOptions::with_strategy(DStrategy::Bitset)).unwrap();
        prop_assert_eq!(&per_root, &bitset, "Bitset diverged from PerRoot");
    }

    #[test]
    fn bitset_pushdown_equals_derive_then_filter(
        shape in shape_strategy(),
        c0 in 1usize..6,
        c1 in 0usize..7,
        c2 in 0usize..7,
        c3 in 0usize..7,
        links in prop::collection::vec((0usize..4, 0usize..32, 0usize..32), 0..90),
        root_threshold in 0i64..6,
        child_threshold in 0i64..6,
    ) {
        let db = build_db(shape, [c0, c1, c2, c3], &links, &[]);
        let md = structure_for(&db, shape);
        let engine = Engine::new(db);
        // root conjunct + existential child conjunct, both pushed by the
        // bitset planner; node 3 exercises the no-witness molecule pruning
        let qual = QualExpr::cmp_const(0, 0, CmpOp::Lt, root_threshold)
            .and(QualExpr::cmp_const(3, 0, CmpOp::Ge, child_threshold));
        let pushed = engine
            .evaluate_restricted(&md, &qual, DStrategy::Bitset)
            .unwrap();
        let naive = engine
            .evaluate_filtered(&md, &qual, DStrategy::PerRoot)
            .unwrap();
        prop_assert_eq!(&pushed, &naive, "bitset pushdown changed the result set");
    }
}

/// Deterministic edge cases the proptest sweep may not pin down exactly.
mod edge_cases {
    use super::*;
    use mad::algebra::derive_bitset_pruned;
    use mad::model::AtomId;

    fn tiny_db() -> Database {
        build_db(
            Shape::Chain,
            [3, 2, 2, 2],
            &[(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1), (2, 0, 0), (2, 1, 1)],
            &[],
        )
    }

    #[test]
    fn empty_root_set_yields_empty_result() {
        let db = tiny_db();
        let md = structure_for(&db, Shape::Chain);
        for strategy in [DStrategy::Bitset, DStrategy::PerRoot] {
            let opts = DeriveOptions {
                strategy,
                roots: Some(Vec::new()),
            };
            assert!(derive_molecules(&db, &md, &opts).unwrap().is_empty());
        }
    }

    #[test]
    fn invalid_roots_rejected() {
        let db = tiny_db();
        let md = structure_for(&db, Shape::Chain);
        let t0 = db.schema().atom_type_id("t0").unwrap();
        let t1 = db.schema().atom_type_id("t1").unwrap();
        // wrong type and nonexistent slot both error, like every other path
        assert!(derive_bitset_pruned(&db, &md, &[AtomId::new(t1, 0)], &[]).is_err());
        assert!(derive_bitset_pruned(&db, &md, &[AtomId::new(t0, 99)], &[]).is_err());
    }
}
