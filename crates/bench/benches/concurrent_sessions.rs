//! B8 — concurrent multi-session serving over one shared `DbHandle`.
//!
//! Three measurements of the transaction subsystem:
//!
//! * `txn_commit` — latency of one uncontended transaction (begin → one
//!   atomic insert group → commit) against a pre-populated database: the
//!   cost of the CoW fork, the op log, and the fast-path publish.
//! * `snapshot_read` — latency of one committed-snapshot derivation while
//!   the handle keeps absorbing commits between iterations: readers must
//!   never pay more than a plain derivation over an owned `Database` plus
//!   one `Arc` clone.
//! * `mixed_rw_rNwM` — wall clock of a whole mixed scenario (N readers +
//!   M writers to completion, isolation invariants verified online).
//! * `commit_w{W}_{disjoint,contended}` — commit throughput under
//!   racing writers (ARCHITECTURE.md, "The commit protocol"): W writer
//!   threads × 64 commits each, write-sets either disjoint (one slot per
//!   writer — every commit but the first of a race rebases under the
//!   ticket) or fully contended (every writer the same slot —
//!   first-committer-wins aborts and retries).
//!
//! Run with `-- --quick` to merge median ns/op into `BENCH_derive.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use mad_core::derive::{derive_molecules, DeriveOptions, Strategy};
use mad_core::structure::path;
use mad_model::Value;
use mad_txn::{DbHandle, Transaction};
use mad_workload::{mixed_database, run_mixed, MixedParams};
use std::time::Duration;

fn populated_handle(groups: i64) -> DbHandle {
    let mut db = mixed_database().unwrap();
    let state = db.schema().atom_type_id("state").unwrap();
    let area = db.schema().atom_type_id("area").unwrap();
    let sa = db.schema().link_type_id("state-area").unwrap();
    for i in 0..groups {
        let s = db
            .insert_atom(state, vec![Value::from(format!("seed{i}")), Value::from(1.0)])
            .unwrap();
        let ids = db
            .insert_atoms(area, (0..4).map(|j| vec![Value::from(i * 10 + j)]))
            .unwrap();
        for a in ids {
            db.connect(sa, s, a).unwrap();
        }
    }
    let _ = db.csr_snapshot();
    DbHandle::new(db)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("B8_concurrent_sessions");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));

    // ------------------------------------------------------------------
    let handle = populated_handle(500);
    let state = handle.committed().schema().atom_type_id("state").unwrap();
    let area = handle.committed().schema().atom_type_id("area").unwrap();
    let sa = handle.committed().schema().link_type_id("state-area").unwrap();
    let mut n = 0i64;
    group.bench_function("txn_commit", |b| {
        b.iter(|| {
            let mut t = Transaction::begin(&handle);
            let s = t
                .insert_atom(state, vec![Value::from(format!("b{n}")), Value::from(2.0)])
                .unwrap();
            let ids = t
                .insert_atoms(area, (0..4).map(|j| vec![Value::from(n * 10 + j)]).collect())
                .unwrap();
            for a in ids {
                t.connect(sa, s, a).unwrap();
            }
            n += 1;
            t.commit().unwrap()
        })
    });

    // ------------------------------------------------------------------
    let handle = populated_handle(500);
    let md = path(handle.committed().schema(), &["state", "area"]).unwrap();
    let opts = DeriveOptions::with_strategy(Strategy::Bitset);
    let mut n = 0i64;
    group.bench_function("snapshot_read", |b| {
        b.iter(|| {
            // one commit lands between reads, as under live write traffic
            let mut t = Transaction::begin(&handle);
            t.update_attr(
                mad_model::AtomId::new(state, 0),
                1,
                Value::from(n as f64),
            )
            .unwrap();
            n += 1;
            t.commit().unwrap();
            let snap = handle.committed();
            derive_molecules(&snap, &md, &opts).unwrap()
        })
    });

    // ------------------------------------------------------------------
    // commit validation under a pinned log: an old open transaction keeps
    // 64 commit records × 32 write keys each alive; a small disjoint
    // commit must validate against them. With the per-key hash index this
    // is O(|write-set|) probes — the old nested scan paid O(Σ logged
    // keys) *inside the publication mutex* on every attempt.
    {
        let handle = populated_handle(2100);
        let pinned = Transaction::begin(&handle);
        for c in 0..64 {
            let mut t = Transaction::begin(&handle);
            for s in 0..32u32 {
                t.update_attr(
                    mad_model::AtomId::new(state, 1 + c * 32 + s),
                    1,
                    Value::from(f64::from(c)),
                )
                .unwrap();
            }
            t.commit().unwrap();
        }
        assert_eq!(handle.commit_log_len(), 64, "the log must stay pinned");
        assert_eq!(handle.conflict_index_len(), 64 * 32);
        let mut n = 0u64;
        group.bench_function("commit_validation_pinned", |b| {
            b.iter(|| {
                n += 1;
                let mut t = Transaction::begin(&handle);
                t.update_attr(mad_model::AtomId::new(state, 2080), 1, Value::from(n as f64))
                    .unwrap();
                t.commit().unwrap()
            })
        });
        drop(pinned);
    }

    // ------------------------------------------------------------------
    // W writer threads race 64 small commits each over one handle; one
    // iteration is the whole race (64 per thread keeps the spawn cost
    // from dominating the measurement)
    const PIPE_COMMITS: usize = 64;
    for contended in [false, true] {
        for writers in [1usize, 4, 8, 16] {
            let handle = populated_handle(40);
            let name = format!(
                "commit_w{writers}_{}",
                if contended { "contended" } else { "disjoint" },
            );
            group.bench_function(name, |b| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for w in 0..writers {
                            let handle = &handle;
                            scope.spawn(move || {
                                let slot = if contended {
                                    0
                                } else {
                                    1 + u32::try_from(w).unwrap()
                                };
                                let mut done = 0usize;
                                let mut v = 0.0f64;
                                while done < PIPE_COMMITS {
                                    let mut t = Transaction::begin(handle);
                                    t.update_attr(
                                        mad_model::AtomId::new(state, slot),
                                        1,
                                        Value::from(v),
                                    )
                                    .unwrap();
                                    v += 1.0;
                                    match t.commit() {
                                        Ok(_) => done += 1,
                                        Err(e) if e.is_conflict() => {}
                                        Err(e) => panic!("pipeline bench commit: {e}"),
                                    }
                                }
                            });
                        }
                    })
                })
            });
        }
    }

    // ------------------------------------------------------------------
    for (label, readers, writers) in [("r2w2", 2usize, 2usize), ("r1w4", 1, 4)] {
        group.bench_function(format!("mixed_rw_{label}"), |b| {
            b.iter(|| {
                let handle = DbHandle::new(mixed_database().unwrap());
                let stats = run_mixed(
                    &handle,
                    &MixedParams {
                        readers,
                        writers,
                        txns_per_writer: 5,
                        areas_per_state: 3,
                        seed: 99,
                    },
                )
                .unwrap();
                assert_eq!(stats.inconsistencies, 0);
                stats
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
