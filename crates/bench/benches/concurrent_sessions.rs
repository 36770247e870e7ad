//! B8 — concurrent multi-session serving over one shared `DbHandle`.
//!
//! Measurements of the transaction subsystem, each a row of one table
//! (µs per iteration, timed with `mad_bench::measure`):
//!
//! * `txn_commit` — latency of one uncontended transaction (begin → one
//!   atomic insert group → commit) against a pre-populated database: the
//!   cost of the CoW fork, the op log, and the fast-path publish.
//! * `snapshot_read` — latency of one committed-snapshot derivation while
//!   the handle keeps absorbing commits between iterations: readers must
//!   never pay more than a plain derivation over an owned `Database` plus
//!   one `Arc` clone.
//! * `commit_validation_pinned` — a small disjoint commit validated
//!   against a commit log pinned by an old open transaction.
//! * `commit_w{W}_{disjoint,contended}` — commit throughput under
//!   racing writers (ARCHITECTURE.md, "The commit protocol"): W writer
//!   threads × 64 commits each, write-sets either disjoint (one slot per
//!   writer — every commit but the first of a race rebases under the
//!   ticket) or fully contended (every writer the same slot —
//!   first-committer-wins aborts and retries).
//! * `mixed_rw_rNwM` — wall clock of a whole mixed scenario (N readers +
//!   M writers to completion, isolation invariants verified online).
//!
//! `cargo bench -p mad-bench --bench concurrent_sessions [filter …]` runs
//! the rows whose name contains one of the filters (all without one).

use mad_bench::{bench_filters, measure, selected, table};
use mad_core::derive::{derive_molecules, DeriveOptions, Strategy};
use mad_core::structure::path;
use mad_model::{AtomId, MadError, Value};
use mad_txn::{DbHandle, Transaction};
use mad_workload::{mixed_database, run_mixed, MixedParams};

fn populated_handle(groups: i64) -> DbHandle {
    let mut db = mixed_database().unwrap();
    let state = db.schema().atom_type_id("state").unwrap();
    let area = db.schema().atom_type_id("area").unwrap();
    let sa = db.schema().link_type_id("state-area").unwrap();
    for i in 0..groups {
        let s = db
            .insert_atom(
                state,
                vec![Value::from(format!("seed{i}")), Value::from(1.0)],
            )
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

fn main() {
    let filters = bench_filters();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |name: &str, us: f64| rows.push(vec![name.to_owned(), format!("{us:.1}")]);

    // ------------------------------------------------------------------
    if selected(&filters, "txn_commit") {
        let handle = populated_handle(500);
        let schema = handle.committed().schema().clone();
        let state = schema.atom_type_id("state").unwrap();
        let area = schema.atom_type_id("area").unwrap();
        let sa = schema.link_type_id("state-area").unwrap();
        let mut n = 0i64;
        let us = measure(200, || {
            let mut t = Transaction::begin(&handle);
            let s = t.insert_atom(state, vec![Value::from(format!("b{n}")), Value::from(2.0)])?;
            let ids = t.insert_atoms(
                area,
                (0..4).map(|j| vec![Value::from(n * 10 + j)]).collect(),
            )?;
            for a in ids {
                t.connect(sa, s, a)?;
            }
            n += 1;
            t.commit()
        });
        row("txn_commit", us.unwrap());
    }

    // ------------------------------------------------------------------
    if selected(&filters, "snapshot_read") {
        let handle = populated_handle(500);
        let state = handle.committed().schema().atom_type_id("state").unwrap();
        let md = path(handle.committed().schema(), &["state", "area"]).unwrap();
        let opts = DeriveOptions::with_strategy(Strategy::Bitset);
        let mut n = 0i64;
        let us = measure(100, || {
            // one commit lands between reads, as under live write traffic
            let mut t = Transaction::begin(&handle);
            t.update_attr(AtomId::new(state, 0), 1, Value::from(n as f64))?;
            n += 1;
            t.commit()?;
            derive_molecules(&handle.committed(), &md, &opts)
        });
        row("snapshot_read", us.unwrap());
    }

    // ------------------------------------------------------------------
    // commit validation under a pinned log: an old open transaction keeps
    // 64 commit records × 32 write keys each alive; a small disjoint
    // commit must validate against them. With the per-key hash index this
    // is O(|write-set|) probes — the old nested scan paid O(Σ logged
    // keys) *inside the publication mutex* on every attempt.
    if selected(&filters, "commit_validation_pinned") {
        let handle = populated_handle(2100);
        let state = handle.committed().schema().atom_type_id("state").unwrap();
        let pinned = Transaction::begin(&handle);
        for c in 0..64 {
            let mut t = Transaction::begin(&handle);
            for s in 0..32u32 {
                t.update_attr(
                    AtomId::new(state, 1 + c * 32 + s),
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
        let us = measure(200, || {
            n += 1;
            let mut t = Transaction::begin(&handle);
            t.update_attr(AtomId::new(state, 2080), 1, Value::from(n as f64))?;
            t.commit()
        });
        row("commit_validation_pinned", us.unwrap());
        drop(pinned);
    }

    // ------------------------------------------------------------------
    // W writer threads race 64 small commits each over one handle; one
    // iteration is the whole race (64 per thread keeps the spawn cost
    // from dominating the measurement)
    const PIPE_COMMITS: usize = 64;
    for contended in [false, true] {
        for writers in [1usize, 4, 8, 16] {
            let name = format!(
                "commit_w{writers}_{}",
                if contended { "contended" } else { "disjoint" },
            );
            if !selected(&filters, &name) {
                continue;
            }
            let handle = populated_handle(40);
            let state = handle.committed().schema().atom_type_id("state").unwrap();
            let us = measure(10, || {
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
                                t.update_attr(AtomId::new(state, slot), 1, Value::from(v))
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
                });
                Ok::<_, MadError>(())
            });
            row(&name, us.unwrap());
        }
    }

    // ------------------------------------------------------------------
    for (label, readers, writers) in [("r2w2", 2usize, 2usize), ("r1w4", 1, 4)] {
        let name = format!("mixed_rw_{label}");
        if !selected(&filters, &name) {
            continue;
        }
        let us = measure(5, || {
            let handle = DbHandle::new(mixed_database()?);
            let stats = run_mixed(
                &handle,
                &MixedParams {
                    readers,
                    writers,
                    txns_per_writer: 5,
                    areas_per_state: 3,
                    seed: 99,
                },
            )?;
            assert_eq!(stats.inconsistencies, 0);
            Ok::<_, MadError>(stats)
        });
        row(&name, us.unwrap());
    }

    println!("B8 — concurrent sessions over one DbHandle");
    print!("{}", table(&["bench", "µs/iter"], &rows));
}
