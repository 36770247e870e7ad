//! B4 — PRIMA-style restriction pushdown: evaluating root-level conjuncts
//! through a secondary index *before* molecule derivation vs. deriving the
//! whole molecule set and filtering afterwards (the naive Σ∘α).
//!
//! Selectivity sweep over `state.hectare > X`. Expected shape: pushdown
//! wins by roughly 1/selectivity at low selectivity and converges to parity
//! as the predicate approaches "all roots". Both paths use the *pure*
//! evaluation API (no propagation), so only derivation cost is measured.
//!
//! Strategy arms: the per-root reference evaluator (root-only
//! preselection) and the bitset engine whose planner pushes conjuncts to
//! *every* structure node (not just the root).
//!
//! Run with `-- --quick` to emit/merge `BENCH_derive.json` (median ns/op
//! per strategy) for cross-commit perf comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mad_core::derive::Strategy;
use mad_core::ops::Engine;
use mad_core::qual::{CmpOp, QualExpr};
use mad_core::structure::path;
use mad_storage::IndexKind;
use mad_workload::{generate_geo, GeoParams};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("B4_restriction_pushdown");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));
    let (db, _) = generate_geo(&GeoParams {
        states: 400,
        edges_per_state: 8,
        rivers: 40,
        edges_per_river: 10,
        share: 0.5,
        cities: 0,
        seed: 21,
    })
    .unwrap();
    let mut engine = Engine::new(db);
    engine
        .create_index("state", "hectare", IndexKind::Ordered)
        .unwrap();
    let md = path(engine.db().schema(), &["state", "area", "edge", "point"]).unwrap();
    // hectare is uniform in 100..2000 → thresholds for ~0.1%, 1%, 10%, 50%
    for (label, threshold) in [
        ("sel=0.1%", 1998.0),
        ("sel=1%", 1981.0),
        ("sel=10%", 1810.0),
        ("sel=50%", 1050.0),
    ] {
        let qual = QualExpr::cmp_const(0, 1, CmpOp::Gt, threshold);
        // verify all paths agree before timing
        {
            let naive = engine
                .evaluate_filtered(&md, &qual, Strategy::PerRoot)
                .unwrap();
            for strat in [Strategy::PerRoot, Strategy::Bitset] {
                let pushed = engine.evaluate_restricted(&md, &qual, strat).unwrap();
                assert_eq!(pushed, naive, "pushdown with {strat:?} diverged");
            }
        }
        let _ = engine.db().csr_snapshot();
        for (name, strat) in [
            ("pushdown", Strategy::PerRoot),
            ("pushdown_bitset", Strategy::Bitset),
        ] {
            group.bench_with_input(BenchmarkId::new(name, label), &(), |b, _| {
                b.iter(|| engine.evaluate_restricted(&md, &qual, strat).unwrap())
            });
        }
        group.bench_with_input(
            BenchmarkId::new("derive_then_filter", label),
            &(),
            |b, _| {
                b.iter(|| {
                    engine
                        .evaluate_filtered(&md, &qual, Strategy::PerRoot)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
