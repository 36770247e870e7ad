//! B9 — write-ahead-log durability: commit latency vs fsync policy, group
//! commit under concurrent writers, recovery time vs log length.
//!
//! Measurements of the `mad_wal` subsystem through `mad_txn`, each a row
//! of one table (µs per iteration):
//!
//! * `commit_latency/<policy>` — one uncontended durable commit (begin →
//!   one attribute update → commit) under each [`FsyncPolicy`]: `never`
//!   prices the pure append, `per_commit` adds a blocking fsync, `group`
//!   sits between (a lone writer cannot batch, but skips redundant syncs).
//! * `burst_<policy>/wN` — wall clock of N writer threads together pushing
//!   96 commits through one durable handle, with the fsyncs each commit
//!   cost beside it. Group commit amortizes one fsync over the commits
//!   that arrive while the previous fsync is in flight, so
//!   `burst_group/w16` should need fewer than one fsync per commit and
//!   beat `burst_per_commit/w16` on fsync-bound storage.
//! * `recovery/commits_N` — time for `DbHandle::open_durable` to scan,
//!   verify and replay a log of N commits.
//!
//! `cargo bench -p mad-bench --bench wal_commit [filter …]` runs the rows
//! whose name contains one of the filters (all without one).

use mad_bench::{bench_filters, measure, measure_batched, selected, table};
use mad_model::{MadError, Value};
use mad_txn::{DbHandle, FsyncPolicy, Transaction};
use mad_workload::mixed_database;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn fresh_wal_path() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mad-bench-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("b9-{}.wal", UNIQUE.fetch_add(1, Ordering::Relaxed)))
}

fn policy_name(p: FsyncPolicy) -> &'static str {
    match p {
        FsyncPolicy::PerCommit => "per_commit",
        FsyncPolicy::Group => "group",
        FsyncPolicy::Never => "never",
    }
}

/// One writer transaction: a small atomic group, like the mixed workload's.
fn commit_group(handle: &DbHandle, tag: u64) {
    let db = handle.committed();
    let state = db.schema().atom_type_id("state").unwrap();
    let area = db.schema().atom_type_id("area").unwrap();
    let sa = db.schema().link_type_id("state-area").unwrap();
    loop {
        let mut t = Transaction::begin(handle);
        let s = t
            .insert_atom(
                state,
                vec![Value::from(format!("b{tag}")), Value::from(1.0)],
            )
            .unwrap();
        let a = t.insert_atom(area, vec![Value::from(tag as i64)]).unwrap();
        t.connect(sa, s, a).unwrap();
        match t.commit() {
            Ok(_) => return,
            Err(e) if e.is_conflict() => continue,
            Err(e) => panic!("durable commit failed: {e}"),
        }
    }
}

/// One minimal writer transaction: a single conflict-free attribute update
/// on the writer's own pre-seeded atom. Keeps the commit CPU cost tiny so
/// the burst benches isolate the durability cost (the fsync schedule),
/// not op application.
fn commit_update(handle: &DbHandle, slot: u32, n: u64) {
    let db = handle.committed();
    let state = db.schema().atom_type_id("state").unwrap();
    let mut t = Transaction::begin(handle);
    t.update_attr(
        mad_model::AtomId::new(state, slot),
        1,
        Value::from(n as f64),
    )
    .unwrap();
    t.commit().unwrap();
}

/// The mixed database plus one pre-seeded state per writer, so update
/// bursts are conflict-free.
fn burst_database(writers: u64) -> mad_storage::Database {
    let mut db = mixed_database().unwrap();
    let state = db.schema().atom_type_id("state").unwrap();
    for w in 0..writers {
        db.insert_atom(state, vec![Value::from(format!("w{w}")), Value::from(0.0)])
            .unwrap();
    }
    db
}

fn main() {
    let filters = bench_filters();
    let mut rows: Vec<Vec<String>> = Vec::new();

    // ------------------------------------------------------------------
    // single-writer commit latency per fsync policy (update-only, so the
    // database does not grow across iterations and the number isolates
    // the durability cost, not CoW store copies)
    for policy in [
        FsyncPolicy::Never,
        FsyncPolicy::Group,
        FsyncPolicy::PerCommit,
    ] {
        let name = format!("commit_latency/{}", policy_name(policy));
        if !selected(&filters, &name) {
            continue;
        }
        let path = fresh_wal_path();
        let handle = DbHandle::create_durable(mixed_database().unwrap(), &path, policy).unwrap();
        let state = handle.committed().schema().atom_type_id("state").unwrap();
        let contended = mad_model::AtomId::new(state, 0);
        let mut n = 0u64;
        let us = measure(100, || {
            n += 1;
            let mut t = Transaction::begin(&handle);
            t.update_attr(contended, 1, Value::from(n as f64))?;
            t.commit()
        });
        rows.push(vec![name, format!("{:.1}", us.unwrap()), String::new()]);
        drop(handle);
        std::fs::remove_file(&path).ok();
    }

    // ------------------------------------------------------------------
    // concurrent-writer bursts: group commit vs fsync-per-commit
    const COMMITS_PER_BURST: u64 = 96; // total, split across the writers
    for policy in [FsyncPolicy::PerCommit, FsyncPolicy::Group] {
        for writers in [1u64, 4, 16] {
            let name = format!("burst_{}/w{writers}", policy_name(policy));
            if !selected(&filters, &name) {
                continue;
            }
            let quota = COMMITS_PER_BURST / writers;
            let mut fsyncs = Vec::new();
            let us = measure_batched(
                2,
                || {
                    // handle + log creation is setup, not burst
                    let path = fresh_wal_path();
                    let handle =
                        DbHandle::create_durable(burst_database(writers), &path, policy).unwrap();
                    (path, handle)
                },
                |(path, handle)| {
                    let before = handle.wal().unwrap().fsync_count();
                    std::thread::scope(|scope| {
                        for w in 0..writers {
                            let handle = handle.clone();
                            scope.spawn(move || {
                                for i in 0..quota {
                                    commit_update(&handle, 1 + w as u32, i);
                                }
                            });
                        }
                    });
                    fsyncs.push(handle.wal().unwrap().fsync_count() - before);
                    drop(handle);
                    std::fs::remove_file(&path).ok();
                    Ok::<_, MadError>(())
                },
            );
            let per_commit =
                fsyncs.iter().sum::<u64>() as f64 / (fsyncs.len() as u64 * quota * writers) as f64;
            rows.push(vec![
                name,
                format!("{:.1}", us.unwrap()),
                format!("{per_commit:.2}"),
            ]);
        }
    }

    // ------------------------------------------------------------------
    // recovery time vs log length
    for commits in [100u64, 1000] {
        let name = format!("recovery/commits_{commits}");
        if !selected(&filters, &name) {
            continue;
        }
        let path = fresh_wal_path();
        let handle =
            DbHandle::create_durable(mixed_database().unwrap(), &path, FsyncPolicy::Never).unwrap();
        for i in 0..commits {
            commit_group(&handle, i);
        }
        drop(handle);
        let us = measure(10, || {
            let h = DbHandle::open_durable(&path, FsyncPolicy::Never)?;
            assert_eq!(h.recovery_info().unwrap().commits_replayed, commits);
            Ok::<_, MadError>(h)
        });
        rows.push(vec![name, format!("{:.1}", us.unwrap()), String::new()]);
        std::fs::remove_file(&path).ok();
    }

    println!("B9 — WAL durability");
    print!("{}", table(&["bench", "µs/iter", "fsyncs/commit"], &rows));
}
