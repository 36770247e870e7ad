//! Property tests for the closure theorems (1–3) of the paper: the result
//! of every molecule-type operation is a valid molecule type over the
//! correspondingly enlarged database. We verify this *experimentally* on
//! randomized databases: re-deriving `m_dom(md)` over DB′ must reproduce
//! the operator's result exactly, and every molecule must pass the
//! `mv_graph`/`total` check of Def. 6.

use mad::algebra::ops::Engine;
use mad::algebra::qual::{CmpOp, QualExpr};
use mad::algebra::structure::path;
use mad::algebra::{check_molecule, derive_molecules, DeriveOptions, Strategy as DStrategy};
use mad::workload::{generate_geo, GeoParams};
use proptest::prelude::*;

fn geo_params() -> impl Strategy<Value = GeoParams> {
    (2usize..12, 1usize..6, 1usize..6, 0.0f64..1.0, any::<u64>()).prop_map(
        |(states, edges_per_state, rivers, share, seed)| GeoParams {
            states,
            edges_per_state,
            rivers,
            edges_per_river: 4,
            share,
            cities: 2,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem (α): every derived molecule is valid and maximal (`total`).
    #[test]
    fn alpha_produces_valid_molecules(params in geo_params()) {
        let (db, _) = generate_geo(&params).unwrap();
        let md = path(db.schema(), &["state", "area", "edge", "point"]).unwrap();
        let ms = derive_molecules(&db, &md, &DeriveOptions::default()).unwrap();
        prop_assert_eq!(ms.len(), params.states);
        for m in &ms {
            check_molecule(&db, &md, m).unwrap();
        }
    }

    /// Theorem 2 (Σ): the restriction result is a valid molecule type over
    /// DB′ — re-derivation over the propagated types reproduces it.
    #[test]
    fn sigma_closure(params in geo_params(), threshold in 100.0f64..2000.0) {
        let (db, _) = generate_geo(&params).unwrap();
        let mut engine = Engine::new(db);
        let md = path(engine.db().schema(), &["state", "area", "edge"]).unwrap();
        let mt = engine.define("mt", md).unwrap();
        let r = engine
            .restrict(&mt, &QualExpr::cmp_const(0, 1, CmpOp::Gt, threshold))
            .unwrap();
        engine.verify_closure(&r).unwrap();
    }

    /// Theorem 3 (Π): branch pruning keeps totality.
    #[test]
    fn pi_closure(params in geo_params()) {
        let (db, _) = generate_geo(&params).unwrap();
        let mut engine = Engine::new(db);
        let md = path(engine.db().schema(), &["state", "area", "edge", "point"]).unwrap();
        let mt = engine.define("mt", md).unwrap();
        let r = engine.project(&mt, &["state", "area"], &[]).unwrap();
        engine.verify_closure(&r).unwrap();
        prop_assert_eq!(r.len(), mt.len());
    }

    /// Theorem 3 (Ω, Δ, Ψ): set operators stay closed, and the derived
    /// intersection equals the set-theoretic one.
    #[test]
    fn set_ops_closure_and_psi(params in geo_params(), cut in 200.0f64..1800.0) {
        let (db, _) = generate_geo(&params).unwrap();
        let mut engine = Engine::new(db);
        let md = path(engine.db().schema(), &["state", "area"]).unwrap();
        let mt = engine.define("mt", md).unwrap();
        let low = engine
            .restrict(&mt, &QualExpr::cmp_const(0, 1, CmpOp::Le, cut))
            .unwrap();
        let high = engine
            .restrict(&mt, &QualExpr::cmp_const(0, 1, CmpOp::Gt, cut))
            .unwrap();
        // Ω: disjoint halves rebuild the whole
        let u = engine.union(&low, &high, "u").unwrap();
        prop_assert_eq!(u.len(), mt.len());
        engine.verify_closure(&u).unwrap();
        // Δ: whole minus low = high
        let d = engine.difference(&mt, &low, "d").unwrap();
        prop_assert_eq!(d.len(), high.len());
        engine.verify_closure(&d).unwrap();
        // Ψ of disjoint halves is empty; Ψ(mt, low) = low
        let empty = engine.intersection(&low, &high, "e").unwrap();
        prop_assert_eq!(empty.len(), 0);
        let i = engine.intersection(&mt, &low, "i").unwrap();
        prop_assert_eq!(i.len(), low.len());
        engine.verify_closure(&i).unwrap();
    }

    /// Theorem 3 (X): the cartesian product is closed and has |mt1|·|mt2|
    /// molecules.
    #[test]
    fn product_closure(params in geo_params()) {
        let (db, _) = generate_geo(&params).unwrap();
        let mut engine = Engine::new(db);
        let md1 = path(engine.db().schema(), &["state", "area"]).unwrap();
        let md2 = path(engine.db().schema(), &["river", "net"]).unwrap();
        let mt1 = engine.define("a", md1).unwrap();
        let mt2 = engine.define("b", md2).unwrap();
        let x = engine.product(&mt1, &mt2, "x").unwrap();
        prop_assert_eq!(x.len(), mt1.len() * mt2.len());
        engine.verify_closure(&x).unwrap();
    }

    /// The bitset engine and the per-root reference compute the same
    /// function `m_dom`.
    #[test]
    fn strategies_equivalent(params in geo_params()) {
        let (db, _) = generate_geo(&params).unwrap();
        for names in [
            ["state", "area", "edge", "point"],
            ["river", "net", "edge", "point"],
        ] {
            let md = path(db.schema(), &names).unwrap();
            let a = derive_molecules(&db, &md, &DeriveOptions::with_strategy(DStrategy::PerRoot)).unwrap();
            let b = derive_molecules(&db, &md, &DeriveOptions::with_strategy(DStrategy::Bitset)).unwrap();
            prop_assert_eq!(&a, &b);
        }
    }

    /// Pushdown evaluation ≡ naive derive-then-filter (benchmark B4's
    /// correctness precondition).
    #[test]
    fn pushdown_equivalent(params in geo_params(), threshold in 100.0f64..2000.0) {
        let (db, _) = generate_geo(&params).unwrap();
        let mut engine = Engine::new(db);
        engine
            .create_index("state", "hectare", mad::storage::IndexKind::Ordered)
            .unwrap();
        let md = path(engine.db().schema(), &["state", "area", "edge"]).unwrap();
        let qual = QualExpr::cmp_const(0, 1, CmpOp::Gt, threshold);
        let naive = engine
            .evaluate_filtered(&md, &qual, DStrategy::PerRoot)
            .unwrap();
        for strategy in [DStrategy::Bitset, DStrategy::PerRoot] {
            let pushed = engine.evaluate_restricted(&md, &qual, strategy).unwrap();
            prop_assert_eq!(&pushed, &naive);
        }
    }
}
