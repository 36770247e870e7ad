//! B3 — the frontier-bitset engine against the per-root reference
//! derivation.
//!
//! Expected shape: the bitset engine over the CSR snapshot beats per-root
//! derivation by replacing hash probes and sorted-vector intersections
//! with sequential scans and word-wise set operations.
//!
//! Run with `-- --quick` to emit/merge `BENCH_derive.json` (median ns/op
//! per strategy) for cross-commit perf comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mad_bench::presets;
use mad_core::derive::{derive_molecules, DeriveOptions, Strategy};
use mad_core::structure::path;
use mad_workload::generate_geo;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("B3_derivation_strategies");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));
    for (label, params) in presets::geo_sweep() {
        let (db, _) = generate_geo(&params).unwrap();
        let md = path(db.schema(), &["state", "area", "edge", "point"]).unwrap();
        // warm the CSR snapshot outside the timed region, as a session would
        let _ = db.csr_snapshot();
        for (name, strat) in [
            ("per_root", Strategy::PerRoot),
            ("bitset", Strategy::Bitset),
        ] {
            group.bench_with_input(BenchmarkId::new(name, label), &(), |b, _| {
                b.iter(|| {
                    derive_molecules(&db, &md, &DeriveOptions::with_strategy(strat)).unwrap()
                })
            });
        }
    }
    // sharing sweep: many molecules over the same edges and points
    for (share, params) in presets::share_sweep() {
        let (db, _) = generate_geo(&params).unwrap();
        let md = path(db.schema(), &["river", "net", "edge", "point"]).unwrap();
        let _ = db.csr_snapshot();
        for (name, strat) in [
            ("per_root", Strategy::PerRoot),
            ("bitset", Strategy::Bitset),
        ] {
            group.bench_with_input(
                BenchmarkId::new(name, format!("share={share}")),
                &(),
                |b, _| {
                    b.iter(|| {
                        derive_molecules(&db, &md, &DeriveOptions::with_strategy(strat))
                            .unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
