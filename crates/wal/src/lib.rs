//! # mad-wal — write-ahead-log durability for the MAD database
//!
//! PR 3 gave the engine snapshot-isolated transactions whose commit path
//! produces exactly the artifact a WAL needs: a validated, replayable op
//! log with provisional atom ids resolved. This crate persists that
//! artifact, turning the in-memory engine into a database that **survives
//! restart**:
//!
//! * [`WalOp`] / [`WalRecord`] ([`record`]) — the stable binary record
//!   format: an append-only sequence of length-prefixed, CRC-32-checksummed
//!   frames; the first frame is a full database **bootstrap image**, every
//!   further frame one committed transaction's resolved op log.
//! * [`Wal`] ([`log`]) — the log itself: a **manifest** file listing
//!   numbered **segment** files (`wal.0001`, `wal.0002`, …). Appends go
//!   to the last segment and rotate to a fresh one past a size
//!   threshold, so checkpoints stop rewriting one ever-growing file.
//!   [`Wal::append_commit`] is a buffered append of a borrowed op log
//!   (called in commit order by the publisher, under its commit ticket);
//!   [`Wal::wait_durable`] implements the [`FsyncPolicy`]:
//!   - [`FsyncPolicy::PerCommit`] — one fsync per commit (the baseline),
//!   - [`FsyncPolicy::Group`] — **group commit**: records that arrive
//!     while an fsync is in flight are covered together by the next one,
//!     amortizing one fsync over N concurrent commits,
//!   - [`FsyncPolicy::Never`] — acknowledge immediately; the OS flushes.
//! * [`Wal::recover`] — crash recovery: walk the segments in manifest
//!   order, **truncate the torn tail** at the first incomplete or
//!   checksum-failing frame of the *last* segment (a torn frame in an
//!   interior segment is corruption and a hard error), restore the
//!   bootstrap image and replay every complete commit record through
//!   [`apply_op`] — the one apply a rebasing commit and a standby use
//!   too. Replay re-runs the full integrity machinery of `mad_storage`
//!   and verifies that every logged insert re-lands on its recorded slot
//!   (slot allocation is deterministic), so a log that does not match its
//!   bootstrap errors instead of silently corrupting.
//! * [`Wal::checkpoint`] — fold the log into a fresh bootstrap image
//!   written into the **next** segment (atomic manifest swap, old
//!   segments deleted), bounding both log size and recovery time without
//!   rewriting already-closed segments.
//! * [`Wal::tail`] — advance a resumable [`WalCursor`] over the commit
//!   records appended after it, in bounded batches; with
//!   [`Wal::wait_appended`], the replication source.
//!   [`FaultPlan`] ([`fault`]) — deterministic append/fsync fault
//!   injection for the crash and failover scenarios.
//!
//! ## Recovery invariants
//!
//! 1. **Prefix property** — the log is appended through a single handle in
//!    commit-sequence order, so the set of complete frames on disk is
//!    always a prefix of the commit history; a crash loses at most a
//!    suffix of unacknowledged (or, under [`FsyncPolicy::Never`],
//!    unflushed) commits, never an interior record.
//! 2. **Torn tail, not torn state** — a partially written final frame
//!    fails its length or CRC check and is physically truncated; recovery
//!    lands exactly on the last fully-logged commit. Only the **last**
//!    segment can be torn: rotation fsyncs a segment before the manifest
//!    grows past it, so interior segments are complete by construction.
//! 3. **Acknowledgement = durability** — a commit only returns to the
//!    caller after [`Wal::wait_durable`] per the policy; under `PerCommit`
//!    and `Group` an acknowledged commit is on stable storage.
//! 4. **Deterministic replay** — recovery produces a state byte-identical
//!    (in snapshot form) to the one the publisher held at the last logged
//!    commit, verified by slot checks and the storage engine's own
//!    referential-integrity and cardinality validation.
//!
//! This crate knows nothing about transactions or validation — it stores
//! and replays what `mad_txn::DbHandle` hands it. The layering is
//! `model → storage → wal → txn → mql` (see `ARCHITECTURE.md`).

#![warn(missing_docs)]

pub mod fault;
pub mod log;
pub mod record;

pub use fault::FaultPlan;
pub use log::{
    active_segment_path, CheckpointStats, FsyncPolicy, Lsn, RecoveryInfo, TailRead, Wal,
    WalCursor, DEFAULT_SEGMENT_BYTES, MANIFEST_MAGIC, TAIL_BATCH_BYTES,
};
pub use record::{apply_op, crc32, frame_boundaries, WalOp, WalRecord};
