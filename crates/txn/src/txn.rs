//! The transaction: write overlay, op log, commit/abort. The op log is a
//! `Vec<WalOp>` — the one record of a transaction's writes, from which
//! the write-set is derived at commit, which a rebase re-applies (and
//! resolves) in place, and which the WAL frames from a borrow.

use crate::handle::DbHandle;
use mad_model::{AtomId, AtomTypeId, FxHashMap, FxHashSet, LinkTypeId, MadError, Result, Value};
use mad_obs::trace::{StageKind, StageTimer};
use mad_storage::Database;
use mad_wal::{apply_op, WalOp};
use std::fmt;
use std::sync::Arc;

/// A key in a transaction's write-set: the piece of **pre-existing**
/// committed state the transaction overwrote. Used for first-committer-wins
/// validation — two committed transactions may not overlap on any key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum WriteKey {
    /// An atom updated or deleted (conflicts with any other update/delete
    /// of the same atom).
    Atom(AtomId),
    /// An oriented link pair connected or disconnected between two
    /// pre-existing atoms.
    Link(LinkTypeId, AtomId, AtomId),
}

impl fmt::Display for WriteKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteKey::Atom(id) => write!(f, "atom {id}"),
            WriteKey::Link(lt, a, b) => write!(f, "link lt{}({a}, {b})", lt.0),
        }
    }
}

/// What a successful [`Transaction::commit`] published.
#[derive(Clone, Debug, Default)]
pub struct CommitInfo {
    /// The commit sequence number the write-set was published at (0 for a
    /// read-only transaction, which publishes nothing).
    pub seq: u64,
    /// Number of logged DML operations published.
    pub ops: usize,
    /// Transaction-born atoms whose committed id differs from the
    /// provisional id handed out inside the transaction (only possible when
    /// other transactions committed inserts of the same atom type
    /// concurrently; empty on the uncontended fast path).
    pub remap: FxHashMap<AtomId, AtomId>,
}

impl CommitInfo {
    /// The committed id of `id`: remapped if `id` was a provisional
    /// transaction-born atom that landed elsewhere, otherwise unchanged.
    pub fn resolve(&self, id: AtomId) -> AtomId {
        self.remap.get(&id).copied().unwrap_or(id)
    }
}

/// A snapshot-isolated transaction over a [`DbHandle`].
///
/// See the crate docs for the full MVCC design. The fork behind
/// [`Transaction::db`] is the write overlay: queries against it observe the
/// transaction's own uncommitted DML merged into derivation (pushdown
/// bitsets, frontier expansion) while untouched stores and CSR pairs remain
/// physically shared with the committed image.
#[derive(Debug)]
pub struct Transaction {
    handle: DbHandle,
    begin: Arc<Database>,
    begin_seq: u64,
    /// Per atom type: the slot horizon at begin. Atoms at or beyond it are
    /// transaction-born (provisional ids, no conflict keys).
    base_slots: Vec<u32>,
    local: Database,
    /// The op log: every write, ids provisional until commit.
    ops: Vec<WalOp>,
    finished: bool,
}

impl Transaction {
    /// Begin a transaction against the current committed state of `handle`.
    pub fn begin(handle: &DbHandle) -> Self {
        let (begin, begin_seq) = handle.begin_txn();
        let base_slots = (0..begin.schema().atom_type_count())
            .map(|i| begin.atom_slot_count(AtomTypeId(i as u32)) as u32)
            .collect();
        let local = (*begin).clone();
        Transaction {
            handle: handle.clone(),
            begin,
            begin_seq,
            base_slots,
            local,
            ops: Vec::new(),
            finished: false,
        }
    }

    /// The transaction's consistent view: the begin snapshot plus every
    /// write this transaction performed (read-your-own-writes). Run any
    /// read — point lookups, molecule derivation, recursive unfolding —
    /// against this database.
    pub fn db(&self) -> &Database {
        &self.local
    }

    /// The commit sequence number of the begin snapshot.
    pub fn begin_seq(&self) -> u64 {
        self.begin_seq
    }

    /// Number of DML operations logged so far.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Was `id` created inside this transaction (provisional id, subject to
    /// remapping at commit)?
    pub fn is_provisional(&self, id: AtomId) -> bool {
        is_provisional(&self.base_slots, id)
    }

    // ------------------------------------------------------------------
    // DML (mirrors the Database interface)
    // ------------------------------------------------------------------

    /// Insert an atom (validated against the schema immediately). The
    /// returned id is provisional: inside the transaction it is fully
    /// usable; at commit it may be remapped (see [`CommitInfo::remap`]).
    pub fn insert_atom(&mut self, ty: AtomTypeId, tuple: Vec<Value>) -> Result<AtomId> {
        let id = self.local.insert_atom(ty, tuple.clone())?;
        self.ops.push(WalOp::Insert { ty, tuple, id });
        Ok(id)
    }

    /// Insert a batch of atoms of one type (one version stamp on the fork,
    /// one logged op).
    pub fn insert_atoms(&mut self, ty: AtomTypeId, tuples: Vec<Vec<Value>>) -> Result<Vec<AtomId>> {
        let ids = self.local.insert_atoms(ty, tuples.iter().cloned())?;
        self.ops.push(WalOp::InsertBatch { ty, tuples, ids: ids.clone() });
        Ok(ids)
    }

    /// Delete an atom, cascading into incident links. Returns the number of
    /// links removed *in this transaction's view*.
    pub fn delete_atom(&mut self, id: AtomId) -> Result<usize> {
        let removed = self.local.delete_atom(id)?;
        self.ops.push(WalOp::Delete { id });
        Ok(removed)
    }

    /// Update one attribute of an atom.
    pub fn update_attr(&mut self, id: AtomId, attr: usize, value: Value) -> Result<()> {
        let logged = u32::try_from(attr)
            .map_err(|_| MadError::unknown("attribute index", attr.to_string()))?;
        self.local.update_attr(id, attr, value.clone())?;
        self.ops.push(WalOp::UpdateAttr { id, attr: logged, value });
        Ok(())
    }

    /// Connect two atoms with explicit orientation (see
    /// [`Database::connect`]).
    pub fn connect(&mut self, lt: LinkTypeId, side0: AtomId, side1: AtomId) -> Result<bool> {
        let added = self.local.connect(lt, side0, side1)?;
        if added {
            self.ops.push(WalOp::Connect { lt, side0, side1 });
        }
        Ok(added)
    }

    /// Connect two atoms, inferring the orientation from their types
    /// (errors for reflexive link types, like [`Database::connect_sym`]).
    pub fn connect_sym(&mut self, lt: LinkTypeId, a: AtomId, b: AtomId) -> Result<bool> {
        let def = self.local.schema().link_type(lt);
        if def.is_reflexive() {
            return Err(MadError::integrity(format!(
                "link type `{}` is reflexive; orientation must be explicit",
                def.name
            )));
        }
        if a.ty == def.ends[0] && b.ty == def.ends[1] {
            self.connect(lt, a, b)
        } else if a.ty == def.ends[1] && b.ty == def.ends[0] {
            self.connect(lt, b, a)
        } else {
            Err(MadError::integrity(format!(
                "atoms {a} and {b} do not match the endpoints of link type `{}`",
                def.name
            )))
        }
    }

    /// Remove an oriented link. Returns `false` if it did not exist in the
    /// transaction's view.
    pub fn disconnect(&mut self, lt: LinkTypeId, side0: AtomId, side1: AtomId) -> Result<bool> {
        let removed = self.local.disconnect(lt, side0, side1)?;
        if removed {
            self.ops.push(WalOp::Disconnect { lt, side0, side1 });
        }
        Ok(removed)
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Validate and publish. On success every other transaction beginning
    /// afterwards sees this write-set in full; on
    /// [`MadError::TxnConflict`] (or a re-execution failure) the
    /// transaction is aborted and the committed state is untouched.
    ///
    /// Publication is **optimistic once**: on the uncontended path the
    /// transaction's fork publishes as-is (O(1)). When other commits
    /// landed since begin, the op log is re-applied to the newest state
    /// *while holding the commit ticket* — nobody can publish underneath
    /// it, so a commit replays at most once. Readers never take the
    /// ticket and are not blocked behind a heavy commit. Either way the
    /// op log moves to the WAL as it stands: resolved in place by the
    /// replay, already resolved on the fast path.
    ///
    /// **Caveat on durable handles**: a [`MadError::Wal`] error from the
    /// post-publication fsync wait means the commit **was published**
    /// (all sessions see it) but its durability is unknown —
    /// it is not a failed transaction and must not be retried. The same
    /// indeterminacy applies to a [`MadError::TxnState`] error from the
    /// replication wait under [`crate::ReplAck::SyncQuorum`] (replication
    /// sealed mid-wait): published and locally durable, replication
    /// unknown. The
    /// handle's log is poisoned: further durable commits fail until a
    /// successful `checkpoint()` rebuilds the log or the database is
    /// reopened. Errors *before* publication (validation conflicts,
    /// replay failures, the WAL append itself) keep the guarantee that
    /// nothing was published.
    pub fn commit(mut self) -> Result<CommitInfo> {
        if self.ops.is_empty() {
            // read-only: nothing to validate or publish
            self.finish();
            return Ok(CommitInfo::default());
        }
        let handle = self.handle.clone();
        // the write-set comes from the log, before the ticket is taken
        let keys = write_keys(&self.ops, &self.base_slots);
        let mut ops = std::mem::take(&mut self.ops);
        let op_count = ops.len();
        let mut fork = std::mem::take(&mut self.local);
        let mut remap: FxHashMap<AtomId, AtomId> = FxHashMap::default();
        // any Err — validation conflict, replay failure, WAL append
        // failure, even a panic — releases the registration via `finish`
        // (the `?` drops `self`, whose Drop runs it), so a failed commit
        // can never pin the commit log
        let (seq, lsn) = handle.publish(self.begin_seq, &self.begin, keys, |stale| {
            let candidate = match stale {
                // the committed state is still the begin snapshot: the
                // fork itself publishes and the log's provisional ids are
                // the committed ones (a stale fork is left in place, to
                // be freed only after the ticket is released)
                None => std::mem::take(&mut fork),
                Some(current) => {
                    let rt = StageTimer::start(StageKind::Replay);
                    let mut fresh = current.clone();
                    for op in &mut ops {
                        apply_op(&mut fresh, op, Some(&mut remap))?;
                    }
                    rt.finish_info(&[("ops", mad_model::bin::u64_of_usize(op_count))]);
                    fresh
                }
            };
            Ok((candidate, ops))
        })?;
        // published: release the registration *before* the durability
        // wait, so an fsync stall never pins the commit log behind this
        // transaction
        self.finish();
        // the commit is acknowledged only once its record is durable per
        // the handle's fsync policy (group commit batches this wait with
        // concurrent committers)...
        handle.wait_durable(lsn)?;
        // ...and, under ReplAck::SyncQuorum, once enough standbys
        // confirmed it durable on their side too
        let rt = StageTimer::start(StageKind::ReplWait);
        handle.wait_replicated(seq)?;
        rt.finish();
        // the log may now be over its auto-checkpoint threshold; fold it
        // before acknowledging
        handle.maybe_auto_checkpoint();
        Ok(CommitInfo {
            seq,
            ops: op_count,
            remap,
        })
    }

    /// Drop the overlay; the committed state was never touched.
    pub fn abort(mut self) {
        self.finish();
    }

    /// Release the handle registration exactly once. Every exit path of a
    /// transaction funnels here — commit (success or failure), abort, and
    /// plain drop (early return, panic unwind, a client disconnecting
    /// mid-transaction) — so an abandoned transaction can never keep the
    /// commit log pinned at its begin sequence.
    fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            self.handle.finish_txn(self.begin_seq);
        }
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Was `id` born after the per-type slot horizons `base_slots` of a
/// transaction's begin snapshot?
fn is_provisional(base_slots: &[u32], id: AtomId) -> bool {
    match base_slots.get(id.ty.0 as usize) {
        Some(&horizon) => id.slot >= horizon,
        // a type the begin snapshot did not know cannot pre-exist
        None => true,
    }
}

/// The write-set of an op log: the pre-existing state it overwrote —
/// `Atom` for an update or delete, `Link` for a connect or disconnect
/// between two pre-existing atoms. Writes to transaction-born atoms
/// cannot conflict and yield no key.
fn write_keys(ops: &[WalOp], base_slots: &[u32]) -> FxHashSet<WriteKey> {
    let pre = |id| !is_provisional(base_slots, id);
    ops.iter()
        .filter_map(|op| match *op {
            WalOp::Delete { id } | WalOp::UpdateAttr { id, .. } => {
                pre(id).then_some(WriteKey::Atom(id))
            }
            WalOp::Connect { lt, side0, side1 } | WalOp::Disconnect { lt, side0, side1 } => {
                (pre(side0) && pre(side1)).then_some(WriteKey::Link(lt, side0, side1))
            }
            WalOp::Insert { .. } | WalOp::InsertBatch { .. } => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mad_model::{AttrType, SchemaBuilder};
    use mad_storage::DatabaseSnapshot;

    fn geo_handle() -> DbHandle {
        let schema = SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text), ("pop", AttrType::Int)])
            .atom_type("area", &[("aid", AttrType::Int)])
            .link_type("state-area", "state", "area")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let s = db.insert_atom(state, vec![Value::from("SP"), Value::from(10)]).unwrap();
        let a = db.insert_atom(area, vec![Value::from(1)]).unwrap();
        db.connect(sa, s, a).unwrap();
        DbHandle::new(db)
    }

    fn ty(handle: &DbHandle, n: &str) -> AtomTypeId {
        handle.committed().schema().atom_type_id(n).unwrap()
    }

    fn lt(handle: &DbHandle, n: &str) -> LinkTypeId {
        handle.committed().schema().link_type_id(n).unwrap()
    }

    #[test]
    fn read_your_own_writes_and_isolation() {
        let h = geo_handle();
        let state = ty(&h, "state");
        let before = h.committed();
        let mut txn = Transaction::begin(&h);
        let rj = txn.insert_atom(state, vec![Value::from("RJ"), Value::from(7)]).unwrap();
        assert!(txn.db().atom_exists(rj), "transaction sees its own insert");
        assert!(!before.atom_exists(rj), "committed snapshot does not");
        assert_eq!(h.committed().atom_count(state), 1, "nothing published yet");
        txn.commit().unwrap();
        assert_eq!(h.committed().atom_count(state), 2);
        // the reader's old Arc still shows the old state
        assert_eq!(before.atom_count(state), 1);
    }

    #[test]
    fn abort_leaves_no_trace() {
        let h = geo_handle();
        let state = ty(&h, "state");
        let area = ty(&h, "area");
        let sa = lt(&h, "state-area");
        let before = DatabaseSnapshot::capture(&h.committed()).to_json_string();
        let mut txn = Transaction::begin(&h);
        let rj = txn.insert_atom(state, vec![Value::from("RJ"), Value::from(7)]).unwrap();
        let a9 = txn.insert_atom(area, vec![Value::from(9)]).unwrap();
        txn.connect(sa, rj, a9).unwrap();
        txn.update_attr(AtomId::new(state, 0), 1, Value::from(11)).unwrap();
        txn.delete_atom(AtomId::new(area, 0)).unwrap();
        txn.abort();
        let after = DatabaseSnapshot::capture(&h.committed()).to_json_string();
        assert_eq!(before, after, "abort must be byte-identical");
        assert_eq!(h.commit_log_len(), 0);
    }

    #[test]
    fn first_committer_wins_on_update_update() {
        let h = geo_handle();
        let state = ty(&h, "state");
        let sp = AtomId::new(state, 0);
        let mut t1 = Transaction::begin(&h);
        let mut t2 = Transaction::begin(&h);
        t1.update_attr(sp, 1, Value::from(100)).unwrap();
        t2.update_attr(sp, 1, Value::from(200)).unwrap();
        t1.commit().unwrap();
        let err = t2.commit().unwrap_err();
        assert!(matches!(err, MadError::TxnConflict { .. }), "got {err}");
        assert_eq!(
            h.committed().atom(sp).unwrap()[1],
            Value::from(100),
            "the first committer's write survives"
        );
    }

    #[test]
    fn disjoint_writers_both_commit_with_id_remap() {
        let h = geo_handle();
        let state = ty(&h, "state");
        let area = ty(&h, "area");
        let sa = lt(&h, "state-area");
        let mut t1 = Transaction::begin(&h);
        let mut t2 = Transaction::begin(&h);
        let rj1 = t1.insert_atom(state, vec![Value::from("RJ"), Value::from(7)]).unwrap();
        let mg2 = t2.insert_atom(state, vec![Value::from("MG"), Value::from(9)]).unwrap();
        let a2 = t2.insert_atom(area, vec![Value::from(2)]).unwrap();
        t2.connect(sa, mg2, a2).unwrap();
        // both inserted into the same type: t1's slot 1, t2's slot 1 — the
        // second committer's provisional ids must be remapped, never lost
        assert_eq!(rj1.slot, mg2.slot, "both forks allocated the same provisional slot");
        let i1 = t1.commit().unwrap();
        assert!(i1.remap.is_empty(), "fast path: no remapping");
        let i2 = t2.commit().unwrap();
        let mg_final = i2.resolve(mg2);
        assert_ne!(mg_final, mg2, "second committer's insert was remapped");
        let db = h.committed();
        assert_eq!(db.atom_count(state), 3);
        assert_eq!(db.atom(mg_final).unwrap()[0], Value::from("MG"));
        // the connect followed the remapped id
        assert!(db.linked(sa, mg_final, i2.resolve(a2)));
        assert!(db.audit_referential_integrity().is_empty());
    }

    #[test]
    fn replay_revalidates_against_latest_state() {
        // t1 deletes the area; t2 connects a transaction-born state to it.
        // t2's connect records no write key (one endpoint is txn-born), so
        // key validation alone cannot see the race — replay against the
        // latest state must catch the dangling reference instead.
        let h = geo_handle();
        let state = ty(&h, "state");
        let area = ty(&h, "area");
        let sa = lt(&h, "state-area");
        let a0 = AtomId::new(area, 0);
        let mut t1 = Transaction::begin(&h);
        let mut t2 = Transaction::begin(&h);
        t1.delete_atom(a0).unwrap();
        let rj = t2.insert_atom(state, vec![Value::from("RJ"), Value::from(7)]).unwrap();
        t2.connect(sa, rj, a0).unwrap();
        t1.commit().unwrap();
        let err = t2.commit().unwrap_err();
        assert!(matches!(err, MadError::IntegrityViolation { .. }), "got {err}");
        assert!(h.committed().audit_referential_integrity().is_empty());
    }

    #[test]
    fn connect_disconnect_same_pair_conflicts() {
        let h = geo_handle();
        let state = ty(&h, "state");
        let area = ty(&h, "area");
        let sa = lt(&h, "state-area");
        let (s0, a0) = (AtomId::new(state, 0), AtomId::new(area, 0));
        let mut t1 = Transaction::begin(&h);
        let mut t2 = Transaction::begin(&h);
        t1.disconnect(sa, s0, a0).unwrap();
        t2.disconnect(sa, s0, a0).unwrap();
        t1.commit().unwrap();
        assert!(t2.commit().unwrap_err().is_conflict());
    }

    #[test]
    fn read_only_commit_publishes_nothing() {
        let h = geo_handle();
        let seq = h.commit_seq();
        let before = h.committed();
        let txn = Transaction::begin(&h);
        let _ = txn.db().total_atoms();
        let info = txn.commit().unwrap();
        assert_eq!(info.ops, 0);
        assert_eq!(h.commit_seq(), seq);
        assert!(Arc::ptr_eq(&before, &h.committed()), "no new Arc published");
    }

    #[test]
    fn commit_log_is_pruned() {
        let h = geo_handle();
        let state = ty(&h, "state");
        for i in 0..10 {
            let mut t = Transaction::begin(&h);
            t.update_attr(AtomId::new(state, 0), 1, Value::from(i)).unwrap();
            t.commit().unwrap();
        }
        assert_eq!(
            h.commit_log_len(),
            0,
            "no active transactions → empty log"
        );
        let pinned = Transaction::begin(&h);
        for i in 0..5 {
            let mut t = Transaction::begin(&h);
            t.update_attr(AtomId::new(state, 0), 1, Value::from(100 + i)).unwrap();
            t.commit().unwrap();
        }
        assert_eq!(h.commit_log_len(), 5, "records pinned by the old reader");
        drop(pinned); // Drop unregisters and prunes
        let mut t = Transaction::begin(&h);
        t.update_attr(AtomId::new(state, 0), 1, Value::from(999)).unwrap();
        t.commit().unwrap();
        assert_eq!(h.commit_log_len(), 0);
    }

    #[test]
    fn leaked_and_panicked_transactions_drain_the_commit_log() {
        // the registry-leak regression: a transaction abandoned without
        // commit()/abort() — early return, panic, a client disconnecting
        // mid-transaction — must unregister on drop, or its begin_seq pins
        // the commit log (and the conflict index) forever
        let h = geo_handle();
        let state = ty(&h, "state");
        let sp = AtomId::new(state, 0);
        // records only prune when something is registered to prune *for*:
        // pin an old reader so leaked registrations would be observable
        let commit_one = |h: &DbHandle, v: i64| {
            let mut t = Transaction::begin(h);
            t.update_attr(sp, 1, Value::from(v)).unwrap();
            t.commit().unwrap();
        };
        // 1. leaked by early return (plain drop without commit/abort)
        {
            let mut t = Transaction::begin(&h);
            t.update_attr(sp, 1, Value::from(-1)).unwrap();
        }
        // 2. leaked by a panicking thread (unwind runs Drop)
        let h2 = h.clone();
        let panicked = std::thread::spawn(move || {
            let state = h2.committed().schema().atom_type_id("state").unwrap();
            let mut t = Transaction::begin(&h2);
            t.update_attr(AtomId::new(state, 0), 1, Value::from(-2)).unwrap();
            panic!("client vanished mid-transaction");
        })
        .join();
        assert!(panicked.is_err(), "the thread must have panicked");
        // 3. a commit that *fails* (conflict) must release its registration
        let mut loser = Transaction::begin(&h);
        loser.update_attr(sp, 1, Value::from(-3)).unwrap();
        commit_one(&h, 10);
        assert!(loser.commit().unwrap_err().is_conflict());
        // with every abandoned registration released, the next commit
        // prunes the log back to empty — nothing is pinned
        commit_one(&h, 11);
        assert_eq!(h.commit_log_len(), 0, "a leaked registration pins the log");
        assert_eq!(h.conflict_index_len(), 0, "the conflict index must prune too");
    }

    #[test]
    fn conflict_index_prunes_with_the_log() {
        let h = geo_handle();
        let state = ty(&h, "state");
        let sp = AtomId::new(state, 0);
        let pinned = Transaction::begin(&h);
        for i in 0..5 {
            let mut t = Transaction::begin(&h);
            t.update_attr(sp, 1, Value::from(i)).unwrap();
            // a disjoint insert too, so records carry >1 key
            t.insert_atom(state, vec![Value::from(format!("s{i}")), Value::from(i)])
                .unwrap();
            t.commit().unwrap();
        }
        assert_eq!(h.commit_log_len(), 5, "records pinned by the old reader");
        // all 5 records overwrite the same contended key; the index holds
        // the *last* committing seq per key, so exactly one entry covers it
        assert_eq!(h.conflict_index_len(), 1);
        drop(pinned);
        let mut t = Transaction::begin(&h);
        t.update_attr(sp, 1, Value::from(99)).unwrap();
        t.commit().unwrap();
        assert_eq!(h.commit_log_len(), 0);
        assert_eq!(h.conflict_index_len(), 0);
    }

    #[test]
    fn partial_prune_spares_republished_keys() {
        // two commits publish the same key; pruning the first record must
        // leave the index pointing at the second, still-visible one
        let h = geo_handle();
        let sp = AtomId::new(ty(&h, "state"), 0);
        let commit_one = |v: i64| {
            let mut t = Transaction::begin(&h);
            t.update_attr(sp, 1, Value::from(v)).unwrap();
            t.commit().unwrap();
        };
        let old_pin = Transaction::begin(&h);
        commit_one(1);
        let mut new_pin = Transaction::begin(&h);
        commit_one(2);
        assert_eq!((h.commit_log_len(), h.conflict_index_len()), (2, 1));
        drop(old_pin); // cutoff moves to new_pin's begin: record 1 dies
        assert_eq!((h.commit_log_len(), h.conflict_index_len()), (1, 1));
        new_pin.update_attr(sp, 1, Value::from(3)).unwrap();
        assert!(new_pin.commit().unwrap_err().is_conflict(), "record 2 still guards the key");
    }

    #[test]
    fn overlay_csr_rebuild_is_incremental() {
        // the fork's first snapshot after overlay DML re-freezes only the
        // touched link types — the overlay "merged into frontier expansion"
        let schema = SchemaBuilder::new()
            .atom_type("a", &[("x", AttrType::Int)])
            .atom_type("b", &[("y", AttrType::Int)])
            .atom_type("c", &[("z", AttrType::Int)])
            .link_type("ab", "a", "b")
            .link_type("bc", "b", "c")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let (a, b, c) = (
            db.schema().atom_type_id("a").unwrap(),
            db.schema().atom_type_id("b").unwrap(),
            db.schema().atom_type_id("c").unwrap(),
        );
        let (ab, bc) = (
            db.schema().link_type_id("ab").unwrap(),
            db.schema().link_type_id("bc").unwrap(),
        );
        let a0 = db.insert_atom(a, vec![Value::from(0)]).unwrap();
        let b0 = db.insert_atom(b, vec![Value::from(0)]).unwrap();
        let c0 = db.insert_atom(c, vec![Value::from(0)]).unwrap();
        db.connect(ab, a0, b0).unwrap();
        db.connect(bc, b0, c0).unwrap();
        let _ = db.csr_snapshot(); // warm the committed cache
        let h = DbHandle::new(db);
        let mut txn = Transaction::begin(&h);
        let b1 = txn.insert_atom(b, vec![Value::from(1)]).unwrap();
        txn.connect(ab, a0, b1).unwrap();
        let snap = txn.db().csr_snapshot();
        assert_eq!(
            txn.db().csr_rebuild_stats(),
            Some((1, 2)),
            "only the overlay-touched link type was re-frozen"
        );
        // the overlay insert + connect are visible to frontier expansion
        use mad_storage::database::Direction;
        assert_eq!(snap.adjacency(ab, Direction::Fwd).partners_of(a0.slot), &[b0.slot, b1.slot]);
        // the untouched pair is Arc-shared with the committed image
        let committed_snap = h.committed().csr_snapshot();
        assert!(std::ptr::eq(
            committed_snap.adjacency(bc, Direction::Fwd),
            snap.adjacency(bc, Direction::Fwd),
        ));
        txn.abort();
    }

    #[test]
    fn committed_reads_bypass_the_publication_mutex() {
        // the lock-free-publication bugfix: a commit stalled inside the
        // publication mutex (e.g. on a WAL fsync) must not block snapshot
        // reads — committed()/fork()/commit_seq() go through the published
        // cell only
        let h = geo_handle();
        let state = ty(&h, "state");
        let guard = h.lock_publication_for_test();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let h2 = h.clone();
        let reader = std::thread::spawn(move || {
            let db = h2.committed();
            let _ = h2.fork();
            let seq = h2.commit_seq();
            done_tx.send((db.atom_count(state), seq)).unwrap();
        });
        let (count, seq) = done_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("reader blocked behind the held publication mutex");
        assert_eq!((count, seq), (1, 0));
        drop(guard);
        reader.join().unwrap();
    }

    fn wal_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mad-txn-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("mad.wal")
    }

    fn geo_db() -> Database {
        let schema = SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text), ("pop", AttrType::Int)])
            .atom_type("area", &[("aid", AttrType::Int)])
            .link_type("state-area", "state", "area")
            .build()
            .unwrap();
        Database::new(schema)
    }

    #[test]
    fn durable_commits_survive_reopen() {
        let path = wal_path("reopen");
        let h = DbHandle::create_durable(geo_db(), &path, mad_wal::FsyncPolicy::Group).unwrap();
        let state = ty(&h, "state");
        let area = ty(&h, "area");
        let sa = lt(&h, "state-area");
        let mut t = Transaction::begin(&h);
        let s = t.insert_atom(state, vec![Value::from("SP"), Value::from(10)]).unwrap();
        let a = t.insert_atom(area, vec![Value::from(1)]).unwrap();
        t.connect(sa, s, a).unwrap();
        t.commit().unwrap();
        let mut t = Transaction::begin(&h);
        t.update_attr(s, 1, Value::from(11)).unwrap();
        t.commit().unwrap();
        let expected = DatabaseSnapshot::capture(&h.committed()).to_json_string();
        drop(h);

        let h2 = DbHandle::open_durable(&path, mad_wal::FsyncPolicy::Group).unwrap();
        let info = h2.recovery_info().unwrap();
        assert_eq!(info.commits_replayed, 2);
        assert_eq!(h2.commit_seq(), 2, "sequence numbering continues across restart");
        assert_eq!(
            DatabaseSnapshot::capture(&h2.committed()).to_json_string(),
            expected,
            "recovered state must be byte-identical"
        );
        // and the recovered handle keeps committing durably
        let mut t = Transaction::begin(&h2);
        t.update_attr(AtomId::new(state, 0), 1, Value::from(12)).unwrap();
        assert_eq!(t.commit().unwrap().seq, 3);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn durable_contended_commit_logs_resolved_ids() {
        // the second committer's inserts are remapped during replay; the
        // WAL must carry the *resolved* slots so recovery reproduces the
        // published state exactly
        let path = wal_path("remap");
        let h = DbHandle::create_durable(geo_db(), &path, mad_wal::FsyncPolicy::Group).unwrap();
        let state = ty(&h, "state");
        let area = ty(&h, "area");
        let sa = lt(&h, "state-area");
        let mut t1 = Transaction::begin(&h);
        let mut t2 = Transaction::begin(&h);
        t1.insert_atom(state, vec![Value::from("RJ"), Value::from(7)]).unwrap();
        let mg = t2.insert_atom(state, vec![Value::from("MG"), Value::from(9)]).unwrap();
        let a = t2.insert_atom(area, vec![Value::from(2)]).unwrap();
        t2.connect(sa, mg, a).unwrap();
        t1.commit().unwrap();
        let info = t2.commit().unwrap();
        assert!(!info.remap.is_empty(), "the test needs the contended path");
        let expected = DatabaseSnapshot::capture(&h.committed()).to_json_string();
        drop(h);
        let h2 = DbHandle::open_durable(&path, mad_wal::FsyncPolicy::Group).unwrap();
        assert_eq!(
            DatabaseSnapshot::capture(&h2.committed()).to_json_string(),
            expected
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn checkpoint_bounds_log_and_recovery() {
        let path = wal_path("ckpt");
        let h = DbHandle::create_durable(geo_db(), &path, mad_wal::FsyncPolicy::Group).unwrap();
        let state = ty(&h, "state");
        for i in 0..30 {
            let mut t = Transaction::begin(&h);
            t.insert_atom(state, vec![Value::from(format!("s{i}")), Value::from(i)])
                .unwrap();
            t.commit().unwrap();
        }
        let before = h.wal_len_bytes().unwrap();
        assert!(DbHandle::new(geo_db()).checkpoint().is_err(), "a non-durable handle refuses CHECKPOINT");
        let stats = h.checkpoint().unwrap();
        assert_eq!(stats.bytes_before, before);
        assert!(h.wal_len_bytes().unwrap() < before);
        // post-checkpoint commits land in the fresh log
        let mut t = Transaction::begin(&h);
        t.insert_atom(state, vec![Value::from("late"), Value::from(99)]).unwrap();
        t.commit().unwrap();
        let expected = DatabaseSnapshot::capture(&h.committed()).to_json_string();
        drop(h);
        let h2 = DbHandle::open_durable(&path, mad_wal::FsyncPolicy::Group).unwrap();
        let info = h2.recovery_info().unwrap();
        assert_eq!(info.commits_replayed, 1, "only the post-checkpoint commit replays");
        assert_eq!(h2.commit_seq(), 31);
        assert_eq!(
            DatabaseSnapshot::capture(&h2.committed()).to_json_string(),
            expected
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn concurrent_readers_and_writers_smoke() {
        // the in-crate half of the acceptance smoke test (the full MQL one
        // lives in the workspace tests): 2 writers × 2 readers over one
        // handle, every committed state internally consistent.
        let h = geo_handle();
        let state = ty(&h, "state");
        let area = ty(&h, "area");
        let sa = lt(&h, "state-area");
        let writers = 2;
        let per_writer = 20;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..per_writer as i64 {
                        loop {
                            let mut t = Transaction::begin(&h);
                            let s = t
                                .insert_atom(
                                    state,
                                    vec![Value::from(format!("w{w}-{i}")), Value::from(i)],
                                )
                                .unwrap();
                            let a = t.insert_atom(area, vec![Value::from(1000 + i)]).unwrap();
                            t.connect(sa, s, a).unwrap();
                            match t.commit() {
                                Ok(_) => break,
                                Err(e) if e.is_conflict() => continue,
                                Err(e) => panic!("unexpected commit error: {e}"),
                            }
                        }
                    }
                });
            }
            for _ in 0..2 {
                let h = h.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let db = h.committed();
                        // atomicity: every committed state+area pair arrives
                        // together, so counts always match and integrity holds
                        assert!(db.audit_referential_integrity().is_empty());
                        assert_eq!(db.atom_count(state), db.atom_count(area));
                        std::thread::yield_now();
                    }
                });
            }
        });
        let db = h.committed();
        assert_eq!(db.atom_count(state), 1 + writers * per_writer);
        assert_eq!(db.link_count(sa), 1 + writers * per_writer);
    }
}
