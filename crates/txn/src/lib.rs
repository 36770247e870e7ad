//! # mad-txn — snapshot-isolated transactions over a shared MAD database
//!
//! PRs 1–2 made molecule *derivation* fast; this crate makes the database
//! **shared**. It turns the single-owner `&mut Database` programming model
//! into a multi-session one:
//!
//! * [`DbHandle`] — the shared handle. The committed state is an immutable
//!   `Arc<Database>` published atomically behind a read-write lock whose
//!   write guard lives for one assignment: readers clone the `Arc` without
//!   queueing behind validation, the commit ticket or a WAL fsync, and
//!   then run lock-free against their frozen image for as long as they
//!   hold it. Concurrent readers never observe a partial write-set, and an
//!   in-flight derivation keeps its snapshot even while commits publish
//!   new states. Commits run one protocol — a ticket that orders
//!   first-committer-wins validation, the WAL append and the publication;
//!   fsync outside all locks (see `DbHandle`'s module docs and
//!   ARCHITECTURE.md, "The commit protocol").
//! * [`Transaction`] — one writer's view. `begin` forks the committed
//!   image; because `mad_storage::Database` is copy-on-write at store
//!   granularity (every per-type atom/link store and index is
//!   `Arc`-shared, split off on first write), the fork **is** the
//!   transaction's *write overlay*: untouched types remain physically the
//!   committed stores, touched types become private deltas. The
//!   transaction's own queries read through the fork
//!   ([`Transaction::db`]) and therefore see their own uncommitted writes
//!   merged into everything downstream — qualification-pushdown bitsets,
//!   frontier expansion, recursive unfolding — while PR-2's per-link-type
//!   version stamps make the fork's CSR snapshot rebuild *incrementally*:
//!   only link types the overlay touched are re-frozen, the rest stay
//!   `Arc`-shared with the committed adjacency image.
//!
//! ## MVCC design
//!
//! Isolation level: **snapshot isolation** with **first-committer-wins**
//! write-write conflict detection.
//!
//! * *Begin* records the committed `Arc` and the handle's commit sequence
//!   number, and snapshots each atom type's slot horizon (the boundary
//!   between pre-existing and transaction-born atoms).
//! * *DML* applies to the fork immediately (full validation, referential
//!   integrity, cardinality bounds, index maintenance — errors surface at
//!   statement time, not at commit), is appended to an **op log**, and
//!   records a [`WriteKey`] for every write that touches *pre-existing*
//!   state: `Atom(id)` for updates/deletes, `Link(lt, a, b)` for
//!   connect/disconnect between pre-existing atoms. Writes to
//!   transaction-born atoms cannot conflict and record nothing.
//! * *Commit* takes the commit ticket and validates the write-set
//!   against the conflict log: any key published after this transaction's
//!   begin sequence is a first-committer-wins conflict
//!   ([`mad_model::MadError::TxnConflict`]) and aborts us. If the
//!   committed state is still the begin image (uncontended fast path) the
//!   fork is published as-is — O(1). If other transactions committed
//!   disjoint writes meanwhile, the op log is **re-executed** against a
//!   fresh fork of the *current* committed state while still holding the
//!   ticket — nobody can publish underneath, so a commit replays at most
//!   once, and readers (who never take the ticket) do not wait behind it;
//!   transaction-born atoms may land on different slots there, so
//!   provisional [`mad_model::AtomId`]s are remapped op by op (the final
//!   mapping is returned in [`CommitInfo::remap`]). Re-execution re-runs
//!   every integrity check against the latest state, so races the
//!   key-level validation cannot see (e.g. two transactions jointly
//!   exceeding a max-cardinality bound, or connecting to an atom a
//!   committed transaction deleted) abort rather than corrupt.
//! * *Abort* drops the fork — the committed state was never touched, so
//!   there is nothing to undo.
//!
//! The commit log is pruned to the records still visible to the oldest
//! active transaction (begin registers, commit/abort/`Drop` unregister),
//! so it stays bounded by the write-sets of in-flight contention, not by
//! history.
//!
//! Conflict granularity is per atom / per oriented link pair. Two
//! transactions inserting atoms of the same type never conflict. DDL and
//! index creation are deliberately **not** transactional — they remain
//! load-time, single-owner operations (see ROADMAP follow-ons).
//!
//! ## Durability
//!
//! A handle opened with [`DbHandle::create_durable`] /
//! [`DbHandle::open_durable`] (or the [`Durability`] knob on
//! [`DbHandle::with_durability`]) write-ahead-logs every commit: at
//! publication time the validated op log — with provisional ids resolved
//! to their committed slots — is appended to a `mad_wal::Wal` *before*
//! the new state becomes visible, and `commit()` returns only once the
//! record is durable per the [`mad_wal::FsyncPolicy`]
//! (`PerCommit` | `Group` | `Never`; `Group` batches one fsync over every
//! commit that arrives while the previous fsync is in flight). Reopening
//! the log recovers exactly the acknowledged commits:
//! [`DbHandle::open_durable`] truncates any torn tail, restores the
//! bootstrap image and replays the records through the full storage
//! integrity machinery. [`DbHandle::checkpoint`] folds the log back into
//! a bootstrap image of the current committed state.
//!
//! Snapshot reads ([`DbHandle::committed`] / [`DbHandle::fork`]) live on
//! a dedicated read-write lock off the commit ticket, so a commit
//! stalled in `fsync` never blocks readers.
//!
//! ```
//! use mad_model::{AttrType, SchemaBuilder, Value};
//! use mad_storage::Database;
//! use mad_txn::{DbHandle, Transaction};
//!
//! let schema = SchemaBuilder::new()
//!     .atom_type("state", &[("sname", AttrType::Text)])
//!     .build()
//!     .unwrap();
//! let handle = DbHandle::new(Database::new(schema));
//! let state = handle.committed().schema().atom_type_id("state").unwrap();
//!
//! let mut txn = Transaction::begin(&handle);
//! let sp = txn.insert_atom(state, vec![Value::from("SP")]).unwrap();
//! assert!(txn.db().atom_exists(sp));            // read-your-own-writes
//! assert_eq!(handle.committed().total_atoms(), 0); // not yet published
//! txn.commit().unwrap();
//! assert_eq!(handle.committed().total_atoms(), 1);
//! ```

#![warn(missing_docs)]

mod handle;
mod txn;

pub use handle::{
    CheckpointPolicy, CommitRecord, DbHandle, Durability, FeedCommit, ReplAck,
};
pub use txn::{CommitInfo, Transaction, WriteKey};

// the durability knob's vocabulary, so sessions need no direct wal dep
pub use mad_wal::{CheckpointStats, FaultPlan, FsyncPolicy, RecoveryInfo, TailRead, WalOp};
