//! Property tests for the commit protocol
//! (ARCHITECTURE.md, "The commit protocol").
//!
//! 1. **oracle equivalence**: for arbitrary begin/commit interleavings,
//!    the handle publishes the same image, assigns the same sequences
//!    and aborts the same transaction set as a sequential
//!    first-committer-wins model computed from the event list alone —
//!    and, with four threads racing commits begun on one snapshot, the
//!    same model holds for whatever commit order the run produced;
//! 2. **gap-free log tail**: a WAL cursor read after concurrent writers
//!    join (exactly what a standby's sender reads) observes the commit
//!    sequence as a strictly consecutive, gap-free run;
//! 3. **never-panic under faults**: fsync failures injected mid-pipeline
//!    surface as clean errors on the committing threads, and recovery
//!    still lands on a consistent prefix covering every acked commit;
//! 4. **one op log**: interleaved pairs of transactions mixing every DML
//!    call on their own and on pre-existing atoms commit through the
//!    rebase path; the log recovers the published image byte for byte,
//!    every resolved id holds its tuple, and the second committer
//!    conflicts exactly when the pre-existing keys the test computes from
//!    the generated ops overlap.

use mad::model::bin::BinEncode;
use mad::model::{AtomId, AttrType, LinkTypeId, SchemaBuilder, Value};
use mad::storage::{Database, DatabaseSnapshot};
use mad::txn::{DbHandle, FaultPlan, FsyncPolicy, Transaction};
use mad::wal::{TailRead, Wal, WalCursor};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
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

    /// A WAL cursor read after concurrent writers join — the one source
    /// a replication standby is streamed from — sees a strictly
    /// consecutive sequence run: no gap, no reorder, no duplicate.
    #[test]
    fn log_tail_sequences_are_gap_free_under_concurrent_writers(
        writers in 1usize..5,
        per_writer in 1usize..7,
    ) {
        let dir = tmpdir("tail");
        let handle = Arc::new(
            DbHandle::create_durable(base_db(), dir.join("mad.wal"), FsyncPolicy::Group).unwrap(),
        );
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
        let wal = handle.wal().unwrap();
        let mut cursor = WalCursor::after(0);
        let mut seqs: Vec<u64> = Vec::new();
        loop {
            match wal.tail(&mut cursor).unwrap() {
                TailRead::Commits(batch) if batch.is_empty() => break,
                TailRead::Commits(batch) => seqs.extend(batch.iter().map(|(s, _)| *s)),
                TailRead::SnapshotNeeded { base_seq } => panic!("no checkpoint ran: {base_seq}"),
            }
        }
        prop_assert_eq!(seqs.len(), writers * per_writer, "a commit never reached the log tail");
        for (i, &s) in seqs.iter().enumerate() {
            prop_assert_eq!(
                s,
                u64::try_from(i).unwrap() + 1,
                "tail gap or reorder at position {}: {:?}", i, seqs
            );
        }
        drop(handle);
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
            handle.wal().unwrap().set_fault_plan(Some(FaultPlan {
                fail_append_at: None,
                fail_fsync_at: Some(fail_at),
            }));
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

/// Pre-existing atoms per type in the op-log property's database; state
/// `i` starts linked to area `i`.
const PRE: usize = 2;

/// The op-log property's database: states and areas, one link type.
fn linked_db() -> Database {
    let schema = SchemaBuilder::new()
        .atom_type("state", &[("v", AttrType::Int)])
        .atom_type("area", &[("w", AttrType::Int)])
        .link_type("state-area", "state", "area")
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    let state = db.schema().atom_type_id("state").unwrap();
    let area = db.schema().atom_type_id("area").unwrap();
    let sa = db.schema().link_type_id("state-area").unwrap();
    for i in 0..PRE as i64 {
        let s = db.insert_atom(state, vec![Value::Int(i)]).unwrap();
        let a = db.insert_atom(area, vec![Value::Int(i)]).unwrap();
        db.connect(sa, s, a).unwrap();
    }
    db
}

/// Which atom a generated op addresses: one the transaction inserted
/// (by position, modulo how many it has) or a pre-existing one.
#[derive(Clone, Copy, Debug)]
enum Target {
    Own(usize),
    Pre(usize),
}

/// One generated DML call; `area` picks the atom type.
#[derive(Clone, Debug)]
enum GenOp {
    Insert { area: bool, v: i64 },
    InsertMany { area: bool, vs: Vec<i64> },
    Update { area: bool, at: Target, v: i64 },
    Connect { state: Target, area: Target },
    Disconnect { state: Target, area: Target },
    Delete { area: bool, at: Target },
}

fn target_strategy() -> impl Strategy<Value = Target> {
    prop_oneof![(0..PRE).prop_map(Target::Pre), (0usize..4).prop_map(Target::Own)]
}

/// Updates come up twice as often as the other calls, so overlapping
/// write-sets are common.
fn op_strategy() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (any::<bool>(), target_strategy(), 0i64..100)
            .prop_map(|(area, at, v)| GenOp::Update { area, at, v }),
        (any::<bool>(), 0i64..100).prop_map(|(area, v)| GenOp::Insert { area, v }),
        (any::<bool>(), prop::collection::vec(0i64..100, 1..4))
            .prop_map(|(area, vs)| GenOp::InsertMany { area, vs }),
        (any::<bool>(), target_strategy(), 0i64..100)
            .prop_map(|(area, at, v)| GenOp::Update { area, at, v }),
        (target_strategy(), target_strategy())
            .prop_map(|(state, area)| GenOp::Connect { state, area }),
        (target_strategy(), target_strategy())
            .prop_map(|(state, area)| GenOp::Disconnect { state, area }),
        (any::<bool>(), target_strategy()).prop_map(|(area, at)| GenOp::Delete { area, at }),
    ]
}

/// A piece of pre-existing state a transaction overwrote, as the test
/// computes it from the generated ops and their outcomes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Key {
    Atom(AtomId),
    Link(AtomId, AtomId),
}

/// One open transaction of the op-log property and what the test knows
/// about it independently of the transaction's own log.
struct Run {
    txn: Transaction,
    /// Inserted ids (provisional), states at 0 and areas at 1.
    own: [Vec<AtomId>; 2],
    keys: HashSet<Key>,
}

impl Run {
    /// The atom `at` names, and whether it is pre-existing; `None` when
    /// the transaction inserted no atom of that type yet.
    fn atom(&self, types: [mad::model::AtomTypeId; 2], area: bool, at: Target) -> Option<(AtomId, bool)> {
        let i = usize::from(area);
        match at {
            Target::Pre(k) => Some((AtomId::new(types[i], u32::try_from(k).unwrap()), true)),
            Target::Own(n) => {
                let own = &self.own[i];
                (!own.is_empty()).then(|| (own[n % own.len()], false))
            }
        }
    }

    /// Run one generated op. A call the transaction refuses (a deleted
    /// target, say) is skipped and writes nothing.
    fn step(&mut self, types: [mad::model::AtomTypeId; 2], sa: LinkTypeId, op: &GenOp) {
        match op {
            GenOp::Insert { area, v } => {
                if let Ok(id) = self.txn.insert_atom(types[usize::from(*area)], vec![Value::Int(*v)]) {
                    self.own[usize::from(*area)].push(id);
                }
            }
            GenOp::InsertMany { area, vs } => {
                let tuples = vs.iter().map(|v| vec![Value::Int(*v)]).collect();
                if let Ok(ids) = self.txn.insert_atoms(types[usize::from(*area)], tuples) {
                    self.own[usize::from(*area)].extend(ids);
                }
            }
            GenOp::Update { area, at, v } => {
                if let Some((id, pre)) = self.atom(types, *area, *at) {
                    if self.txn.update_attr(id, 0, Value::Int(*v)).is_ok() && pre {
                        self.keys.insert(Key::Atom(id));
                    }
                }
            }
            GenOp::Delete { area, at } => {
                if let Some((id, pre)) = self.atom(types, *area, *at) {
                    if self.txn.delete_atom(id).is_ok() && pre {
                        self.keys.insert(Key::Atom(id));
                    }
                }
            }
            GenOp::Connect { state, area } | GenOp::Disconnect { state, area } => {
                let (Some((s, s_pre)), Some((a, a_pre))) =
                    (self.atom(types, false, *state), self.atom(types, true, *area))
                else {
                    return;
                };
                let changed = if matches!(op, GenOp::Connect { .. }) {
                    self.txn.connect(sa, s, a)
                } else {
                    self.txn.disconnect(sa, s, a)
                };
                if matches!(changed, Ok(true)) && s_pre && a_pre {
                    self.keys.insert(Key::Link(s, a));
                }
            }
        }
    }

    /// Commit, then check every inserted atom alive at commit holds, at
    /// its resolved id, the tuple the transaction's own view showed.
    fn commit(self, handle: &DbHandle) -> mad::model::Result<()> {
        let alive: Vec<(AtomId, Vec<Value>)> = self
            .own
            .iter()
            .flatten()
            .filter_map(|&id| self.txn.db().atom(id).ok().map(|t| (id, t.to_vec())))
            .collect();
        let info = self.txn.commit()?;
        let db = handle.committed();
        for (id, tuple) in alive {
            let at = info.resolve(id);
            assert_eq!(db.atom(at).map(<[Value]>::to_vec).ok(), Some(tuple), "{id} resolved to {at}");
        }
        assert!(db.audit_referential_integrity().is_empty());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Pairs of transactions begin together, interleave their DML and
    /// commit one after the other, so the second one rebases (re-applies
    /// its op log to the first one's image). On a durable handle:
    /// (a) recovering the log reproduces the published image byte for
    /// byte, (b) every id `CommitInfo::resolve` returns holds the tuple
    /// the transaction inserted, and (c) the second committer conflicts
    /// if and only if the two transactions overwrote a common piece of
    /// pre-existing state.
    #[test]
    fn one_op_log_rebases_recovers_and_keys_pre_existing_writes(
        pairs in prop::collection::vec(
            (
                prop::collection::vec(op_strategy(), 2..9),
                prop::collection::vec(op_strategy(), 2..9),
                any::<bool>(),
            ),
            1..4,
        ),
    ) {
        let dir = tmpdir("oplog");
        let path = dir.join("mad.wal");
        let handle = DbHandle::create_durable(linked_db(), &path, FsyncPolicy::Group).unwrap();
        let schema = handle.committed().schema().clone();
        let types = [
            schema.atom_type_id("state").unwrap(),
            schema.atom_type_id("area").unwrap(),
        ];
        let sa = schema.link_type_id("state-area").unwrap();
        for (ops_a, ops_b, a_first) in &pairs {
            let begin = |handle: &DbHandle| Run {
                txn: Transaction::begin(handle),
                own: [Vec::new(), Vec::new()],
                keys: HashSet::new(),
            };
            let (mut a, mut b) = (begin(&handle), begin(&handle));
            for i in 0..ops_a.len().max(ops_b.len()) {
                if let Some(op) = ops_a.get(i) {
                    a.step(types, sa, op);
                }
                if let Some(op) = ops_b.get(i) {
                    b.step(types, sa, op);
                }
            }
            let (first, second) = if *a_first { (a, b) } else { (b, a) };
            let overlap = !first.keys.is_disjoint(&second.keys);
            prop_assert!(first.commit(&handle).is_ok(), "the first committer cannot fail");
            match second.commit(&handle) {
                Err(e) if e.is_conflict() => {
                    prop_assert!(overlap, "conflict without a common pre-existing key: {}", e);
                }
                // a rebase can also fail an integrity check the keys do
                // not see (a link to an atom the first one deleted)
                outcome => prop_assert!(!overlap, "overlapping keys committed or failed otherwise: {:?}", outcome),
            }
        }
        let expected = DatabaseSnapshot::capture(&handle.committed()).to_bytes();
        drop(handle);
        let (_, recovered, _) = Wal::recover(&path, FsyncPolicy::Never).unwrap();
        prop_assert!(
            DatabaseSnapshot::capture(&recovered).to_bytes() == expected,
            "the recovered image differs from the published one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
