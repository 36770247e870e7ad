//! The concurrent-serving smoke test of the transaction subsystem
//! (acceptance: ≥2 writer + ≥2 reader threads over one `DbHandle`).
//!
//! * readers always observe a consistent committed snapshot — never a
//!   partial write-set (every committed group is whole, referential
//!   integrity holds, a pinned snapshot is immutable);
//! * committed writes become visible to transactions begun afterwards;
//! * a forced write-write conflict aborts **exactly one** of the two
//!   transactions (first-committer-wins).

use mad::model::{AtomId, Value};
use mad::mql::Session;
use mad::txn::{DbHandle, Transaction};
use mad::workload::{mixed_database, run_mixed, MixedParams};

#[test]
fn two_writers_two_readers_over_one_handle() {
    let handle = DbHandle::new(mixed_database().unwrap());
    let params = MixedParams {
        readers: 2,
        writers: 2,
        txns_per_writer: 20,
        areas_per_state: 4,
        seed: 1,
    };
    let stats = run_mixed(&handle, &params).unwrap();
    assert_eq!(stats.commits, 40, "every writer transaction eventually commits");
    assert_eq!(
        stats.inconsistencies, 0,
        "a reader observed a partial write-set or an unstable snapshot"
    );
    assert!(stats.reads >= 2, "each reader derived at least once");
    // the contended counter proves no lost updates slipped past validation
    let db = handle.committed();
    let state = db.schema().atom_type_id("state").unwrap();
    assert_eq!(
        db.atom_value(AtomId::new(state, 0), 1).unwrap(),
        &Value::Float(40.0)
    );
    assert!(db.audit_referential_integrity().is_empty());
}

#[test]
fn committed_writes_visible_to_later_transactions() {
    let handle = DbHandle::new(mixed_database().unwrap());
    let db = handle.committed();
    let state = db.schema().atom_type_id("state").unwrap();

    // a transaction begun BEFORE the commit must not see the write…
    let early = Transaction::begin(&handle);
    let mut writer = Transaction::begin(&handle);
    let rj = writer
        .insert_atom(state, vec![Value::from("RJ"), Value::from(1.0)])
        .unwrap();
    let info = writer.commit().unwrap();
    let rj = info.resolve(rj);
    assert!(!early.db().atom_exists(rj), "begin snapshot must stay frozen");
    early.abort();

    // …while one begun AFTER the commit sees it in full
    let late = Transaction::begin(&handle);
    assert!(late.db().atom_exists(rj));
    assert_eq!(late.db().atom(rj).unwrap()[0], Value::from("RJ"));
    late.abort();
}

#[test]
fn forced_conflict_aborts_exactly_one() {
    let handle = DbHandle::new(mixed_database().unwrap());
    let state = handle.committed().schema().atom_type_id("state").unwrap();
    let contended = AtomId::new(state, 0);

    // both transactions overlap in lifetime and write the same atom, from
    // two threads, committing concurrently: exactly one must survive
    let barrier = std::sync::Barrier::new(2);
    let outcomes: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let handle = handle.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut t = Transaction::begin(&handle);
                    t.update_attr(contended, 1, Value::from((i + 1) as f64)).unwrap();
                    barrier.wait(); // both hold open overlapping writes
                    t.commit().is_ok()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let committed = outcomes.iter().filter(|ok| **ok).count();
    assert_eq!(committed, 1, "exactly one of two conflicting transactions commits");
    let v = handle.committed().atom_value(contended, 1).unwrap().clone();
    assert!(
        v == Value::Float(1.0) || v == Value::Float(2.0),
        "the surviving write is one of the two, whole: {v:?}"
    );
}

#[test]
fn concurrent_mql_sessions_serve_one_handle() {
    // multi-session serving at the MQL level: one session per thread, all
    // over one shared handle; writers use BEGIN/COMMIT with retry, readers
    // assert group atomicity through SELECT
    let handle = DbHandle::new(mixed_database().unwrap());
    let writers = 2;
    let per_writer = 8;
    std::thread::scope(|scope| {
        for w in 0..writers {
            let handle = handle.clone();
            scope.spawn(move || {
                let mut s = Session::shared(handle);
                for i in 0..per_writer {
                    let script = format!(
                        "BEGIN;\n\
                         INSERT ATOM state (sname = 'w{w}s{i}', hectare = 1.0);\n\
                         INSERT ATOM area (aid = {aid});\n\
                         CONNECT state[sname='w{w}s{i}'] TO area[aid={aid}] VIA state-area;\n\
                         COMMIT;",
                        aid = w * 1000 + i
                    );
                    loop {
                        match s.execute_script(&script) {
                            Ok(_) => break,
                            Err(e) if e.is_conflict() => {
                                if s.in_transaction() {
                                    s.abort().unwrap();
                                }
                            }
                            Err(e) => panic!("writer session failed: {e}"),
                        }
                    }
                }
            });
        }
        for _ in 0..2 {
            let handle = handle.clone();
            scope.spawn(move || {
                let mut s = Session::shared(handle);
                for _ in 0..20 {
                    let r = s.execute("SELECT ALL FROM state-area").unwrap();
                    let mad::mql::StatementResult::Molecules(mt) = r else {
                        panic!("expected molecules");
                    };
                    for m in &mt.molecules {
                        let areas = m.atoms_at(1).len();
                        assert!(
                            areas == 0 && m.root.slot == 0 || areas == 1,
                            "partial group observed: {areas} areas"
                        );
                    }
                    std::thread::yield_now();
                }
            });
        }
    });
    let db = handle.committed();
    let state = db.schema().atom_type_id("state").unwrap();
    let sa = db.schema().link_type_id("state-area").unwrap();
    assert_eq!(db.atom_count(state), 1 + writers * per_writer);
    assert_eq!(db.link_count(sa), writers * per_writer);
    assert!(db.audit_referential_integrity().is_empty());
}

#[test]
fn pinned_commit_log_does_not_inflate_commit_latency() {
    // Regression for the pruning bugfix: an old open snapshot pins the
    // commit log, but validation is a per-key hash probe and pruning is
    // off the commit critical path — so a 10k-record pinned log must
    // not slow commits down. The ratio bound is deliberately generous
    // (a reintroduced per-commit log scan would blow past it by an
    // order of magnitude; honest timing noise will not).
    use std::time::Instant;

    let commit_one = |handle: &DbHandle, v: f64| {
        let db = handle.committed();
        let state = db.schema().atom_type_id("state").unwrap();
        let mut t = Transaction::begin(handle);
        t.update_attr(AtomId::new(state, 0), 1, Value::Float(v)).unwrap();
        t.commit().unwrap();
    };
    let time_commits = |handle: &DbHandle, n: usize| {
        let start = Instant::now();
        for i in 0..n {
            commit_one(handle, i as f64);
        }
        start.elapsed()
    };

    const SAMPLE: usize = 200;
    // baseline: commits against an empty, unpinned log
    let fresh = DbHandle::new(mixed_database().unwrap());
    time_commits(&fresh, SAMPLE); // warm-up
    let baseline = time_commits(&fresh, SAMPLE);

    // pinned: an open transaction holds its begin registration, so the
    // log accumulates 10k records that cannot prune
    let pinned = DbHandle::new(mixed_database().unwrap());
    let pin = Transaction::begin(&pinned);
    for i in 0..10_000 {
        commit_one(&pinned, i as f64);
    }
    assert!(
        pinned.commit_log_len() >= 10_000,
        "the pin did not hold: log length {}",
        pinned.commit_log_len()
    );
    let loaded = time_commits(&pinned, SAMPLE);
    drop(pin);

    let ratio = loaded.as_secs_f64() / baseline.as_secs_f64().max(1e-6);
    assert!(
        ratio < 15.0,
        "commits over a 10k-record pinned log are {ratio:.1}x slower than over an \
         empty log ({loaded:?} vs {baseline:?} for {SAMPLE} commits)"
    );
}

/// A handle over `mixed_database` plus `extra` more states to write to.
fn handle_with_states(extra: usize, durable: Option<&std::path::Path>) -> DbHandle {
    let mut db = mixed_database().unwrap();
    let state = db.schema().atom_type_id("state").unwrap();
    for i in 0..extra {
        db.insert_atom(state, vec![Value::from(format!("s{i}")), Value::from(0.0)])
            .unwrap();
    }
    match durable {
        Some(path) => DbHandle::create_durable(db, path, mad::txn::FsyncPolicy::Never).unwrap(),
        None => DbHandle::new(db),
    }
}

fn txn_counter(handle: &DbHandle, name: &str) -> u64 {
    handle
        .obs()
        .snapshot(Some("txn"))
        .into_iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, v)| v.as_u64())
        .unwrap_or_else(|| panic!("no counter {name}"))
}

#[test]
fn a_commit_replays_at_most_once() {
    // the bound the rebase-under-ticket protocol promises: every commit
    // attempt (published or conflicted) replays its op log at most once,
    // however many writers race it
    const WRITERS: usize = 8;
    const COMMITS: usize = 200;
    for hot_keys in [None, Some(4)] {
        let handle = handle_with_states(WRITERS, None);
        let state = handle.committed().schema().atom_type_id("state").unwrap();
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let handle = &handle;
                scope.spawn(move || {
                    let key = hot_keys.map_or(w, |hot| w % hot);
                    let atom = AtomId::new(state, u32::try_from(key).unwrap());
                    let mut done = 0;
                    while done < COMMITS {
                        let mut t = Transaction::begin(handle);
                        t.update_attr(atom, 1, Value::Float(done as f64)).unwrap();
                        match t.commit() {
                            Ok(_) => done += 1,
                            Err(e) if e.is_conflict() => {}
                            Err(e) => panic!("unexpected commit error: {e}"),
                        }
                    }
                });
            }
        });
        let commits = txn_counter(&handle, "txn.commits");
        let conflicts = txn_counter(&handle, "txn.conflicts");
        let replays = txn_counter(&handle, "txn.replays");
        assert_eq!(commits, (WRITERS * COMMITS) as u64);
        if hot_keys.is_none() {
            assert_eq!(conflicts, 0, "disjoint writers never conflict");
        }
        assert!(
            replays <= commits + conflicts,
            "{replays} replays for {commits} commits + {conflicts} conflicts (hot keys: {hot_keys:?})"
        );
    }
}

#[test]
fn wal_append_fault_during_rebase_publishes_and_ships_nothing() {
    let dir = std::env::temp_dir().join(format!("mad-rebase-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let handle = handle_with_states(2, Some(&dir.join("mad.wal")));
    let state = handle.committed().schema().atom_type_id("state").unwrap();

    let pin = Transaction::begin(&handle); // keeps the conflict log observable
    let mut first = Transaction::begin(&handle);
    let mut second = Transaction::begin(&handle);
    first.update_attr(AtomId::new(state, 1), 1, Value::Float(1.0)).unwrap();
    second.update_attr(AtomId::new(state, 2), 1, Value::Float(2.0)).unwrap();
    first.commit().unwrap();
    let before = handle.committed();

    // `second` is disjoint but stale: it rebases under the ticket, and the
    // append of the rebased record is the one that fails
    let wal = handle.wal().unwrap();
    wal.set_fault_plan(Some(mad::txn::FaultPlan { fail_append_at: Some(1), fail_fsync_at: None }));
    let err = second.commit().unwrap_err();
    assert!(!err.is_conflict(), "expected the WAL failure, got {err}");
    assert_eq!(txn_counter(&handle, "txn.replays"), 1, "the commit took the rebase path");

    assert_eq!(handle.commit_seq(), 1, "no sequence was consumed");
    assert!(std::sync::Arc::ptr_eq(&before, &handle.committed()), "no image was published");
    assert_eq!((handle.commit_log_len(), handle.conflict_index_len()), (1, 1));
    // the log tail (the replication source) ends at the appended length,
    // so the rolled-back append is never shipped
    let mut cursor = mad::wal::WalCursor::after(0);
    let shipped: Vec<u64> = match wal.tail(&mut cursor).unwrap() {
        mad::wal::TailRead::Commits(batch) => batch.iter().map(|(s, _)| *s).collect(),
        mad::wal::TailRead::SnapshotNeeded { base_seq } => panic!("no checkpoint ran: {base_seq}"),
    };
    assert_eq!(shipped, [1], "the log tail holds only the first commit");
    assert_eq!(cursor.pos(), wal.appended_pos(), "and nothing after it");
    drop(pin);
    std::fs::remove_dir_all(&dir).ok();
}
