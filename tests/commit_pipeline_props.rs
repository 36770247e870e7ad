//! Property tests for the commit protocol
//! (ARCHITECTURE.md, "The commit protocol").
//!
//! 1. **oracle equivalence**: for arbitrary begin/commit interleavings,
//!    the handle publishes the same image, assigns the same sequences
//!    and aborts the same transaction set as a sequential
//!    first-committer-wins model computed from the event list alone —
//!    and, with four threads racing commits begun on one snapshot, the
//!    same model holds for whatever commit order the run produced;
//! 2. **gap-free feed**: a subscriber registered before concurrent
//!    writers start (exactly how a standby attaches) observes the
//!    commit sequence as a strictly consecutive, gap-free run;
//! 3. **never-panic under faults**: fsync failures injected mid-pipeline
//!    surface as clean errors on the committing threads, and recovery
//!    still lands on a consistent prefix covering every acked commit.

use mad::model::{AtomId, AttrType, SchemaBuilder, Value};
use mad::storage::Database;
use mad::txn::{DbHandle, FaultPlan, FsyncPolicy, Transaction};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// Pre-seeded conflict targets: `KEYS` atoms of one type, updated by key
/// index. Every generated write-set addresses these, so overlap — and
/// with it first-committer-wins — is common.
const KEYS: usize = 6;

fn base_db() -> Database {
    let schema = SchemaBuilder::new()
        .atom_type("state", &[("v", AttrType::Int)])
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    let state = db.schema().atom_type_id("state").unwrap();
    for i in 0..KEYS as i64 {
        db.insert_atom(state, vec![Value::Int(i)]).unwrap();
    }
    db
}

fn key_atom(db: &Database, key: usize) -> AtomId {
    let state = db.schema().atom_type_id("state").unwrap();
    AtomId::new(state, u32::try_from(key % KEYS).unwrap())
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mad-pipeprops-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One generated transaction: which conflict keys it writes, with what
/// value.
#[derive(Clone, Debug)]
struct GenTxn {
    keys: Vec<usize>,
    val: i64,
}

fn txn_strategy() -> impl Strategy<Value = GenTxn> {
    (prop::collection::vec(0..KEYS, 1..4), 0i64..1000)
        .prop_map(|(keys, val)| GenTxn { keys, val })
}

/// What one transaction's commit came back as.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Outcome {
    Committed(u64),
    Conflict,
}

/// Normalize a raw index stream into a begin/commit event list: the
/// first occurrence of a transaction index begins it, the second
/// commits it; missing events are appended at the end in index order.
/// `(index, is_commit)` — every transaction begins before it commits.
fn event_list(n: usize, raw: &[usize]) -> Vec<(usize, bool)> {
    let mut seen = vec![0usize; n];
    let mut events = Vec::with_capacity(2 * n);
    for &r in raw {
        let i = r % n;
        if seen[i] < 2 {
            events.push((i, seen[i] == 1));
            seen[i] += 1;
        }
    }
    for (i, &s) in seen.iter().enumerate() {
        if s == 0 {
            events.push((i, false));
        }
    }
    for (i, &s) in seen.iter().enumerate() {
        if s < 2 {
            events.push((i, true));
        }
    }
    events
}

/// The values of the `KEYS` conflict targets in the committed image.
fn key_values(db: &Database) -> Vec<i64> {
    (0..KEYS)
        .map(|k| match db.atom_value(key_atom(db, k), 0).unwrap() {
            Value::Int(v) => *v,
            other => panic!("conflict target holds {other:?}"),
        })
        .collect()
}

fn write_keys(t: &mut Transaction, gen: &GenTxn) {
    for &k in &gen.keys {
        let atom = key_atom(t.db(), k);
        t.update_attr(atom, 0, Value::Int(gen.val)).unwrap();
    }
}

fn outcome_of(commit: mad::model::Result<mad::txn::CommitInfo>) -> Outcome {
    match commit {
        Ok(info) => Outcome::Committed(info.seq),
        Err(e) if e.is_conflict() => Outcome::Conflict,
        Err(e) => panic!("unexpected commit error: {e}"),
    }
}

/// The sequential first-committer-wins model, from the event list alone:
/// a transaction conflicts iff some key of its write-set was committed
/// at an event between its begin and its commit; committed transactions
/// get consecutive sequences; a key's final value is its last committed
/// writer's.
fn model(txns: &[GenTxn], events: &[(usize, bool)]) -> (Vec<Outcome>, Vec<i64>, u64) {
    let mut values: Vec<i64> = (0..KEYS as i64).collect();
    let mut committed_at = [None::<usize>; KEYS];
    let mut began = vec![0usize; txns.len()];
    let mut outcomes = vec![Outcome::Conflict; txns.len()];
    let mut seq = 0;
    for (at, &(i, is_commit)) in events.iter().enumerate() {
        if !is_commit {
            began[i] = at;
        } else if !txns[i].keys.iter().any(|&k| committed_at[k].is_some_and(|c| c > began[i])) {
            seq += 1;
            outcomes[i] = Outcome::Committed(seq);
            for &k in &txns[i].keys {
                values[k] = txns[i].val;
                committed_at[k] = Some(at);
            }
        }
    }
    (outcomes, values, seq)
}

/// Drive the generated transactions through one interleaving on a real
/// handle; return per-transaction outcomes, the final key values and the
/// final commit sequence.
fn run_handle(txns: &[GenTxn], events: &[(usize, bool)]) -> (Vec<Outcome>, Vec<i64>, u64) {
    let handle = DbHandle::new(base_db());
    let mut open: HashMap<usize, Transaction> = HashMap::new();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; txns.len()];
    for &(i, is_commit) in events {
        if !is_commit {
            let mut t = Transaction::begin(&handle);
            write_keys(&mut t, &txns[i]);
            open.insert(i, t);
        } else {
            let t = open.remove(&i).expect("event list begins before committing");
            outcomes[i] = Some(outcome_of(t.commit()));
        }
    }
    let outcomes = outcomes.into_iter().map(|o| o.unwrap()).collect();
    (outcomes, key_values(&handle.committed()), handle.commit_seq())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The handle and the sequential model are observationally identical
    /// on every interleaving: same commit/abort decisions, same sequence
    /// assignment, same published values.
    #[test]
    fn commit_matches_the_sequential_model(
        txns in prop::collection::vec(txn_strategy(), 2..6),
        raw in prop::collection::vec(0usize..8, 4..24),
    ) {
        let events = event_list(txns.len(), &raw);
        let (outcomes, values, seq) = run_handle(&txns, &events);
        let (model_outcomes, model_values, model_seq) = model(&txns, &events);
        prop_assert_eq!(&outcomes, &model_outcomes, "commit/abort decisions diverged: {:?}", events);
        prop_assert_eq!(seq, model_seq, "sequence assignment diverged");
        prop_assert_eq!(values, model_values, "published values diverged");
    }

    /// Four threads begin on one snapshot (barrier), then race their
    /// commits. Whatever order the race produced must be one the model
    /// allows: all begins, then the commits in sequence order (losers
    /// last), replayed through the model give exactly the observed
    /// outcomes and image — so winners are pairwise disjoint, every loser
    /// overlaps a winner, and sequences are gap-free.
    #[test]
    fn racing_commits_obey_the_sequential_model(
        txns in prop::collection::vec(txn_strategy(), 4..5),
    ) {
        let handle = DbHandle::new(base_db());
        let barrier = Barrier::new(txns.len());
        let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
            let racers: Vec<_> = txns
                .iter()
                .map(|gen| {
                    let (handle, barrier) = (&handle, &barrier);
                    scope.spawn(move || {
                        let mut t = Transaction::begin(handle);
                        write_keys(&mut t, gen);
                        barrier.wait(); // all begun before any commits
                        outcome_of(t.commit())
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let mut order: Vec<usize> = (0..txns.len()).collect();
        order.sort_by_key(|&i| match outcomes[i] {
            Outcome::Committed(seq) => seq,
            Outcome::Conflict => u64::MAX,
        });
        let events: Vec<(usize, bool)> = (0..txns.len())
            .map(|i| (i, false))
            .chain(order.into_iter().map(|i| (i, true)))
            .collect();
        let observed = (outcomes, key_values(&handle.committed()), handle.commit_seq());
        prop_assert_eq!(observed, model(&txns, &events), "the race broke the model: {:?}", txns);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A commit-feed subscriber registered before the writers start —
    /// exactly how a replication standby attaches — sees a strictly
    /// consecutive sequence run: no gap, no reorder, no duplicate, under
    /// concurrent writers.
    #[test]
    fn feed_sequences_are_gap_free_under_concurrent_writers(
        writers in 1usize..5,
        per_writer in 1usize..7,
    ) {
        let dir = tmpdir("feed");
        let rx = {
            let handle = Arc::new(
                DbHandle::create_durable(base_db(), dir.join("mad.wal"), FsyncPolicy::Group)
                    .unwrap(),
            );
            let rx = handle.subscribe_commits();
            let threads: Vec<_> = (0..writers)
                .map(|w| {
                    let handle = Arc::clone(&handle);
                    std::thread::spawn(move || {
                        for n in 0..per_writer {
                            // disjoint write-sets: writer w only touches key w
                            let mut t = Transaction::begin(&handle);
                            t.update_attr(
                                key_atom(&handle.committed(), w),
                                0,
                                Value::Int(i64::try_from(n).unwrap()),
                            )
                            .unwrap();
                            t.commit().unwrap();
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            rx
        }; // handle dropped: the feed sender disconnects and rx drains
        let seqs: Vec<u64> = rx.iter().map(|c| c.seq).collect();
        prop_assert_eq!(seqs.len(), writers * per_writer, "a commit never reached the feed");
        for (i, &s) in seqs.iter().enumerate() {
            prop_assert_eq!(
                s,
                u64::try_from(i).unwrap() + 1,
                "feed gap or reorder at position {}: {:?}", i, seqs
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An fsync failure injected mid-pipeline never panics a committing
    /// thread: commits fail cleanly, and reopening the log recovers a
    /// consistent prefix that contains every commit that was acked.
    #[test]
    fn fsync_faults_mid_pipeline_fail_cleanly_and_preserve_acked_commits(
        writers in 1usize..4,
        per_writer in 2usize..6,
        fail_at in 1u64..8,
        group in any::<bool>(),
    ) {
        let dir = tmpdir("fault");
        let path = dir.join("mad.wal");
        let policy = if group { FsyncPolicy::Group } else { FsyncPolicy::PerCommit };
        let acked = Arc::new(AtomicUsize::new(0));
        {
            let handle =
                Arc::new(DbHandle::create_durable(base_db(), &path, policy).unwrap());
            prop_assert!(handle.set_wal_fault_plan(Some(FaultPlan {
                fail_append_at: None,
                fail_fsync_at: Some(fail_at),
            })));
            let threads: Vec<_> = (0..writers)
                .map(|w| {
                    let handle = Arc::clone(&handle);
                    let acked = Arc::clone(&acked);
                    std::thread::spawn(move || {
                        for n in 0..per_writer {
                            let mut t = Transaction::begin(&handle);
                            t.update_attr(
                                key_atom(&handle.committed(), w),
                                0,
                                Value::Int(i64::try_from(n).unwrap()),
                            )
                            .unwrap();
                            // the property under test: Ok or Err, never a
                            // panic — a poisoned log must surface as an
                            // error on every later commit too
                            if t.commit().is_ok() {
                                acked.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                })
                .collect();
            for t in threads {
                prop_assert!(t.join().is_ok(), "a committing thread panicked");
            }
        }
        // recovery: must come up clean (recovery itself verifies the
        // gap-free sequence run) and cover at least every acked commit
        let handle = DbHandle::open_durable(&path, FsyncPolicy::Never).unwrap();
        let info = handle.recovery_info().unwrap();
        prop_assert!(
            info.commits_replayed >= u64::try_from(acked.load(Ordering::Relaxed)).unwrap(),
            "an acked commit vanished: {} acked, {} recovered",
            acked.load(Ordering::Relaxed),
            info.commits_replayed
        );
        prop_assert!(handle.committed().audit_referential_integrity().is_empty());
        drop(handle);
        std::fs::remove_dir_all(&dir).ok();
    }
}
