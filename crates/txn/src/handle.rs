//! The shared database handle: committed state, publication, conflict
//! log, durability.
//!
//! # The commit protocol
//!
//! One protocol, four locks (normative description in ARCHITECTURE.md,
//! "The commit protocol"), each a ranked lock of the lock hierarchy
//! (`mad_obs::rank`; debug builds check the order on every acquisition):
//!
//! * the **ticket** orders everything that must agree on commit order:
//!   sequence assignment, first-committer-wins validation, the buffered
//!   WAL append and the publication. A commit whose begin image is no
//!   longer the committed one rebases (replays its op log) *while holding
//!   the ticket* — nobody can publish underneath it, so a commit replays
//!   at most once. Replication reads the WAL on its own
//!   ([`mad_wal::Wal::tail`]); nothing is pushed under the ticket.
//! * the **published** image is an `RwLock` whose write guard lives for
//!   one assignment. Readers ([`DbHandle::committed`] / [`DbHandle::fork`])
//!   and `begin` take only it; they never wait on the ticket.
//! * the **conflict log** — last committing sequence per write key plus
//!   the retained commit records — is probed and appended under the
//!   ticket and pruned off the commit path (transaction finish), never
//!   taking the ticket.
//! * the **active** registry counts open transactions per begin sequence;
//!   its minimum is the prune cutoff.
//!
//! **Fsync / replication wait** happen outside every lock: while commit
//! `k` sits in the group-commit fsync window, commit `k+1` validates and
//! publishes. The WAL stays seq-ordered (appends happen under the ticket)
//! and acknowledgment still waits for durability.

use crate::txn::WriteKey;
use mad_model::bin::u64_of_usize;
use mad_model::{FxHashMap, FxHashSet, MadError, Result};
use mad_obs::rank::{self, RankedMutex, RankedRwLock};
use mad_obs::trace::{self, StageKind, StageTimer};
use mad_obs::{Counter, Registry};
use mad_storage::Database;
use mad_wal::{CheckpointStats, FsyncPolicy, Lsn, RecoveryInfo, Wal, WalOp};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::Instant;

/// A poisoned handle lock means a panic escaped another thread while the
/// shared commit state was mid-update. `Result`-returning paths surface
/// that as a transaction-state error instead of cascading the panic into
/// every client thread; infallible accessors propagate the panic.
fn poisoned<T>(_: PoisonError<T>) -> MadError {
    MadError::txn_state(
        "handle poisoned: a thread panicked while holding the commit state",
    )
}

/// One published commit: its sequence number and the write-set keys it
/// published. Kept (pruned) for first-committer-wins validation of
/// transactions that began before it.
#[derive(Clone, Debug)]
pub struct CommitRecord {
    /// The commit sequence number this record was published at.
    pub seq: u64,
    /// The pre-existing state the commit overwrote.
    pub keys: Vec<WriteKey>,
}

/// When does a commit acknowledge with respect to **replication** — the
/// knob beside [`FsyncPolicy`], governing standbys instead of disks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplAck {
    /// Acknowledge as soon as the commit is locally durable (the
    /// default); standbys catch up asynchronously. A primary failure can
    /// lose acknowledged commits that no standby had received yet.
    #[default]
    Async,
    /// Acknowledge only after at least `n` registered standbys have
    /// confirmed the commit durably appended to *their* logs — after
    /// promotion of any confirming standby, every acknowledged commit
    /// still exists. Blocks while fewer than `n` standbys are attached;
    /// sealing replication (shutdown, promotion) errors the waiters.
    SyncQuorum(usize),
}

/// Size/record-count triggers for automatic [`DbHandle::checkpoint`]s, so
/// the log — and with it recovery time and replication-bootstrap images —
/// stays bounded without anyone typing `CHECKPOINT`. Both triggers unset
/// (the default) disables auto-checkpointing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once the log exceeds this many bytes.
    pub max_bytes: Option<u64>,
    /// Checkpoint once this many commits accumulated since the last one.
    pub max_commits: Option<u64>,
}

impl CheckpointPolicy {
    /// Is any trigger armed?
    pub fn is_enabled(&self) -> bool {
        self.max_bytes.is_some() || self.max_commits.is_some()
    }
}

/// Replication bookkeeping: the ack mode, each registered standby's
/// durably-acknowledged sequence, and the seal.
#[derive(Debug, Default)]
struct ReplState {
    mode: ReplAck,
    /// Standby token → highest sequence that standby confirmed durable.
    standbys: FxHashMap<u64, u64>,
    next_token: u64,
    /// Sealed: no further acknowledgment can arrive (shutdown or
    /// promotion); quorum waiters error instead of blocking forever.
    sealed: bool,
}

/// The committed image plus the sequence it was published at. Cloned out
/// under the `published` read lock on every read, so the `(db, seq)` pair
/// is always consistent.
#[derive(Clone, Debug)]
struct PublishedImage {
    /// The committed image. Immutable once published; replaced wholesale.
    db: Arc<Database>,
    /// The sequence number `db` was published at.
    seq: u64,
}

/// First-committer-wins state: what committed since the oldest active
/// transaction began. Index and log are updated (under the ticket) and
/// pruned (off it) in one critical section each, so they always agree.
#[derive(Debug, Default)]
struct ConflictLog {
    /// Write key → sequence of the last commit that published it,
    /// covering exactly the keys of the retained `log` records.
    last_write: FxHashMap<WriteKey, u64>,
    /// Commit records newer than the oldest active transaction's begin,
    /// ordered by `seq` (pushes happen under the ticket).
    log: Vec<CommitRecord>,
}

#[derive(Debug)]
struct Inner {
    /// The commit **ticket**, guarding the last commit sequence (0 = the
    /// initial load). Whoever holds it is the one committer: it validates,
    /// rebases if the begin image went stale, assigns the next sequence,
    /// orders the WAL append and swaps the published image. It is never
    /// held across an fsync, a replication wait or pruning.
    ticket: RankedMutex<u64>,
    /// Active transactions: begin sequence → how many began there.
    active: RankedMutex<BTreeMap<u64, usize>>,
    /// See [`ConflictLog`]. Pruned off the commit path — see
    /// [`DbHandle::prune_commit_log`].
    conflict_log: RankedMutex<ConflictLog>,
    /// The published image. The write guard lives for one assignment, so
    /// readers never wait on validation, a rebase or the WAL.
    published: RankedRwLock<PublishedImage>,
    /// The write-ahead log, when the handle is durable.
    wal: Option<Wal>,
    /// What recovery found, when this handle was opened from a log.
    recovery: Option<RecoveryInfo>,
    /// A standby's serving handle: writes are refused at publication (the
    /// replication replayer installs state through
    /// [`DbHandle::install_replicated`] instead).
    read_only: bool,
    /// Replication ack bookkeeping, with its condvar for quorum waits.
    repl: RankedMutex<ReplState>,
    repl_cv: Condvar,
    /// Auto-checkpoint knob and counters (interior-mutable so the policy
    /// can be set on a running handle).
    ckpt_policy: RankedMutex<CheckpointPolicy>,
    /// Fast-path gate: true only when a policy is armed on a durable
    /// handle, so undurable/unconfigured commits pay one relaxed load.
    ckpt_armed: AtomicBool,
    /// Commits since the last checkpoint (any kind).
    commits_since_ckpt: AtomicU64,
    /// Claimed by the one committer running an auto-checkpoint, so a
    /// burst of over-threshold commits triggers one rewrite, not many.
    ckpt_claimed: AtomicBool,
    /// Auto-checkpoints completed (monitoring/tests).
    auto_ckpts: AtomicU64,
    /// The deployment-wide metrics registry (see [`mad_obs`]): the WAL,
    /// replication endpoints, sessions and servers over this handle all
    /// register here; `SHOW STATS` renders a snapshot.
    obs: Registry,
    /// Hot-path commit counters (handles into `obs` — increments never
    /// touch the registry map).
    metrics: TxnMetrics,
}

/// Counter handles the commit protocol bumps inline.
#[derive(Debug)]
struct TxnMetrics {
    /// Commits published (`txn.commits`).
    commits: Counter,
    /// First-committer-wins validation failures (`txn.conflicts`).
    conflicts: Counter,
    /// Op-log replays by commits whose begin image went stale
    /// (`txn.replays`); at most one per commit attempt.
    replays: Counter,
}

impl Inner {
    /// Clone the published `(db, seq)` pair out of its lock. Poison is
    /// ignored: the only write is one whole-value assignment, so the
    /// value is valid at every step.
    fn image(&self) -> PublishedImage {
        self.published.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Replace the published image (callers hold the ticket).
    fn set_image(&self, image: PublishedImage) {
        *self.published.write().unwrap_or_else(PoisonError::into_inner) = image;
    }
}

/// A cloneable, thread-safe handle to one shared MAD database.
///
/// All sessions of a deployment hold clones of one `DbHandle`. Readers take
/// a consistent frozen image with [`DbHandle::committed`]; writers go
/// through [`crate::Transaction`]. Publication is atomic: the committed
/// `Arc<Database>` is replaced in one assignment, in-flight readers keep
/// whatever image they already cloned, and new readers are never blocked
/// behind commit validation or a WAL fsync — not even behind the commit
/// ticket itself.
///
/// A durable handle ([`DbHandle::create_durable`] /
/// [`DbHandle::open_durable`]) additionally appends every commit's
/// resolved op log to a [`Wal`] before acknowledging it, and can [`DbHandle::checkpoint`] the log back down to
/// a bootstrap image.
#[derive(Clone, Debug)]
pub struct DbHandle {
    inner: Arc<Inner>,
}

impl DbHandle {
    /// Wrap a loaded database as commit 0 of a shared, **non-durable**
    /// handle.
    pub fn new(db: Database) -> Self {
        Self::build(db, 0, None, None, false)
    }

    /// Wrap `db` — replicated state at commit sequence `seq` — as a
    /// **read-only** serving handle: sessions read ordinary snapshots,
    /// but any write is refused at publication with
    /// [`mad_model::MadError::TxnState`]. The replication replayer
    /// advances the handle through [`DbHandle::install_replicated`];
    /// durability of the replicated stream is the replayer's own local
    /// WAL, not this handle's.
    pub fn new_read_only(db: Database, seq: u64) -> Self {
        Self::build(db, seq, None, None, true)
    }

    /// Wrap `db` as the bootstrap image of a **new** write-ahead log at
    /// `path` (error if the log already exists — recover with
    /// [`DbHandle::open_durable`] instead).
    pub fn create_durable(
        db: Database,
        path: impl AsRef<Path>,
        fsync: FsyncPolicy,
    ) -> Result<Self> {
        let wal = Wal::create(path, &db, fsync)?;
        Ok(Self::build(db, 0, Some(wal), None, false))
    }

    /// Recover the committed state from the write-ahead log at `path`
    /// (error if it does not exist): torn tail truncated, bootstrap image
    /// restored, every complete commit record replayed.
    pub fn open_durable(path: impl AsRef<Path>, fsync: FsyncPolicy) -> Result<Self> {
        let (wal, db, info) = Wal::recover(path, fsync)?;
        Ok(Self::build(db, info.last_seq, Some(wal), Some(info), false))
    }

    fn build(
        db: Database,
        seq: u64,
        wal: Option<Wal>,
        recovery: Option<RecoveryInfo>,
        read_only: bool,
    ) -> Self {
        // every image the handle publishes descends from this one, and a
        // fork inherits its CSR cache: build the snapshot once here, or
        // every transaction clones a cold cache and publishes one
        let _ = db.csr_snapshot();
        let obs = Registry::new();
        let metrics = TxnMetrics {
            commits: obs.counter("txn.commits"),
            conflicts: obs.counter("txn.conflicts"),
            replays: obs.counter("txn.replays"),
        };
        let handle = DbHandle {
            inner: Arc::new(Inner {
                ticket: RankedMutex::new(rank::TICKET, seq),
                active: RankedMutex::new(rank::ACTIVE, BTreeMap::new()),
                conflict_log: RankedMutex::new(rank::CONFLICT_LOG, ConflictLog::default()),
                published: RankedRwLock::new(
                    rank::PUBLISHED,
                    PublishedImage { db: Arc::new(db), seq },
                ),
                wal,
                recovery,
                read_only,
                repl: RankedMutex::new(rank::REPL, ReplState::default()),
                repl_cv: Condvar::new(),
                ckpt_policy: RankedMutex::new(rank::CKPT_POLICY, CheckpointPolicy::default()),
                ckpt_armed: AtomicBool::new(false),
                commits_since_ckpt: AtomicU64::new(0),
                ckpt_claimed: AtomicBool::new(false),
                auto_ckpts: AtomicU64::new(0),
                obs,
                metrics,
            }),
        };
        handle.register_gauges();
        handle
    }

    /// Register the handle's poll-gauges: the one surface `SHOW STATS`
    /// reads, folding what used to be ad-hoc accessors
    /// ([`DbHandle::commit_log_len`], [`DbHandle::conflict_index_len`],
    /// the WAL stats accessors…) into the registry. Closures capture a
    /// `Weak` so a handle (and its WAL file handles) can still drop
    /// while a server-side registry clone outlives it; each closure
    /// takes at most one ranked lock at a time and nests nothing inside
    /// it.
    fn register_gauges(&self) {
        let obs = &self.inner.obs;
        let weak = {
            let w = Arc::downgrade(&self.inner);
            move || w.clone()
        };
        {
            let w = weak();
            obs.gauge("txn.seq", move || w.upgrade().map(|i| i.image().seq));
        }
        {
            let w = weak();
            obs.gauge("txn.commit_log", move || {
                w.upgrade().map(|inner| u64_of_usize(DbHandle { inner }.commit_log_len()))
            });
        }
        {
            let w = weak();
            obs.gauge("txn.conflict_index", move || {
                w.upgrade().map(|inner| u64_of_usize(DbHandle { inner }.conflict_index_len()))
            });
        }
        {
            let w = weak();
            obs.gauge("txn.active", move || {
                w.upgrade().map(|i| {
                    let active = i.active.lock().unwrap_or_else(PoisonError::into_inner);
                    u64_of_usize(active.values().sum())
                })
            });
        }
        {
            let w = weak();
            obs.gauge("txn.auto_checkpoints", move || {
                w.upgrade().map(|i| i.auto_ckpts.load(Ordering::Relaxed))
            });
        }
        {
            // pairs re-frozen by the published image's last CSR rebuild
            // (the registry face of `Database::csr_rebuild_stats`).
            // `None` would reap the gauge, so "no rebuild yet" reads 0.
            let w = weak();
            obs.gauge("storage.csr_rebuilt_pairs", move || {
                w.upgrade().map(|i| {
                    let (rebuilt, _) = i.image().db.csr_rebuild_stats().unwrap_or((0, 0));
                    u64_of_usize(rebuilt)
                })
            });
        }
        {
            let w = weak();
            obs.gauge("storage.csr_pairs", move || {
                w.upgrade().map(|i| {
                    let (_, total) = i.image().db.csr_rebuild_stats().unwrap_or((0, 0));
                    u64_of_usize(total)
                })
            });
        }
        if self.is_durable() {
            {
                let w = weak();
                obs.gauge("wal.len_bytes", move || {
                    w.upgrade().and_then(|i| i.wal.as_ref().map(Wal::len_bytes))
                });
            }
            {
                let w = weak();
                obs.gauge("wal.fsyncs", move || {
                    w.upgrade().and_then(|i| i.wal.as_ref().map(Wal::fsync_count))
                });
            }
            {
                let w = weak();
                obs.gauge("wal.group_batches", move || {
                    w.upgrade()
                        .and_then(|i| i.wal.as_ref().map(|wal| wal.group_commit_stats().0))
                });
            }
            {
                let w = weak();
                obs.gauge("wal.group_records", move || {
                    w.upgrade()
                        .and_then(|i| i.wal.as_ref().map(|wal| wal.group_commit_stats().1))
                });
            }
        }
        {
            let w = weak();
            obs.text("repl.mode", move || {
                w.upgrade().and_then(|i| {
                    i.repl.lock().ok().map(|r| match r.mode {
                        ReplAck::Async => "async".to_owned(),
                        ReplAck::SyncQuorum(n) => format!("sync_quorum({n})"),
                    })
                })
            });
        }
        {
            let w = weak();
            obs.gauge("repl.sealed", move || {
                w.upgrade().and_then(|i| i.repl.lock().ok().map(|r| u64::from(r.sealed)))
            });
        }
        {
            let w = weak();
            obs.gauge("repl.standbys", move || {
                w.upgrade()
                    .and_then(|i| i.repl.lock().ok().map(|r| u64_of_usize(r.standbys.len())))
            });
        }
        {
            // per-standby replication cursor and lag-in-records — one
            // `repl.standby.<token>.{acked_seq,lag}` row pair per
            // attached standby. The committed seq is read first and the
            // repl lock taken after, never nested.
            let w = weak();
            obs.multi("repl.standby", move || {
                w.upgrade().and_then(|i| {
                    let seq = i.image().seq;
                    let r = i.repl.lock().ok()?;
                    let mut rows = Vec::with_capacity(r.standbys.len() * 2);
                    for (token, &acked) in &r.standbys {
                        rows.push((format!("{token}.acked_seq"), acked));
                        rows.push((format!("{token}.lag"), seq.saturating_sub(acked)));
                    }
                    Some(rows)
                })
            });
        }
    }

    /// The deployment-wide metrics registry. Sessions, servers and
    /// replication endpoints over this handle register their metrics
    /// here; `SHOW STATS` renders a [`Registry::snapshot`]. Snapshots
    /// poll gauges that take the handle's ranked locks, so never call
    /// [`Registry::snapshot`] while holding one.
    pub fn obs(&self) -> &Registry {
        &self.inner.obs
    }

    /// Does this handle refuse writes (a standby's serving handle)?
    pub fn is_read_only(&self) -> bool {
        self.inner.read_only
    }

    // ------------------------------------------------------------------
    // replication
    // ------------------------------------------------------------------

    /// Set the replication acknowledgment mode (see [`ReplAck`]). Takes
    /// effect for commits that reach their replication wait afterwards;
    /// loosening to [`ReplAck::Async`] releases current quorum waiters.
    pub fn set_repl_ack(&self, mode: ReplAck) {
        #[expect(
            clippy::unwrap_used,
            reason = "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome"
        )]
        let mut repl = self.inner.repl.lock().unwrap();
        repl.mode = mode;
        self.inner.repl_cv.notify_all();
    }

    /// The current replication acknowledgment mode.
    #[expect(
        clippy::unwrap_used,
        reason = "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome"
    )]
    pub fn repl_ack(&self) -> ReplAck {
        self.inner.repl.lock().unwrap().mode
    }

    /// The write-ahead log (`None` on non-durable handles): replication
    /// tails it with a [`mad_wal::WalCursor`], and its stats and fault
    /// plan live there. Commits append to it under the ticket; nothing
    /// else may.
    pub fn wal(&self) -> Option<&Wal> {
        self.inner.wal.as_ref()
    }

    /// Register a standby for quorum accounting; returns its token.
    pub fn register_standby(&self) -> u64 {
        #[expect(
            clippy::unwrap_used,
            reason = "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome"
        )]
        let mut repl = self.inner.repl.lock().unwrap();
        let token = repl.next_token;
        repl.next_token += 1;
        repl.standbys.insert(token, 0);
        token
    }

    /// Record that the standby behind `token` has durably appended every
    /// record up to and including `seq`, waking quorum waiters.
    pub fn standby_ack(&self, token: u64, seq: u64) {
        #[expect(
            clippy::unwrap_used,
            reason = "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome"
        )]
        let mut repl = self.inner.repl.lock().unwrap();
        if let Some(have) = repl.standbys.get_mut(&token) {
            *have = (*have).max(seq);
            self.inner.repl_cv.notify_all();
        }
    }

    /// Deregister a standby (its connection died). Its acknowledgments no
    /// longer count toward quorums.
    pub fn standby_gone(&self, token: u64) {
        #[expect(
            clippy::unwrap_used,
            reason = "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome"
        )]
        let mut repl = self.inner.repl.lock().unwrap();
        repl.standbys.remove(&token);
        self.inner.repl_cv.notify_all();
    }

    /// Seal replication: no further acknowledgment can arrive (server
    /// shutdown, primary demotion). Current and future quorum waiters
    /// error instead of blocking forever — their commits are published
    /// and locally durable, but replication is unknown, the same
    /// post-publication indeterminacy as a failed fsync wait.
    pub fn seal_replication(&self) {
        #[expect(
            clippy::unwrap_used,
            reason = "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome"
        )]
        let mut repl = self.inner.repl.lock().unwrap();
        repl.sealed = true;
        self.inner.repl_cv.notify_all();
    }

    /// Block until `seq` satisfies the [`ReplAck`] mode: immediately for
    /// [`ReplAck::Async`], else until `n` standbys acknowledged `seq` (or
    /// the seal errors the wait).
    pub(crate) fn wait_replicated(&self, seq: u64) -> Result<()> {
        let mut repl = self.inner.repl.lock().map_err(poisoned)?;
        loop {
            let need = match repl.mode {
                ReplAck::Async => return Ok(()),
                ReplAck::SyncQuorum(n) => n,
            };
            if repl.standbys.values().filter(|&&have| have >= seq).count() >= need {
                return Ok(());
            }
            if repl.sealed {
                return Err(MadError::txn_state(format!(
                    "replication sealed before {need} standby(s) acknowledged sequence \
                     {seq}; the commit is published and locally durable but its \
                     replication is unknown"
                )));
            }
            repl = repl.wait(&self.inner.repl_cv).map_err(poisoned)?;
        }
    }

    /// Install the next replicated commit's state — the standby
    /// replayer's publication path, valid only on
    /// [`DbHandle::new_read_only`] handles. `seq` must be exactly the
    /// successor of the current sequence: replication replays the commit
    /// history gap-free or not at all.
    pub fn install_replicated(&self, db: Database, seq: u64) -> Result<()> {
        if !self.inner.read_only {
            return Err(MadError::txn_state(
                "install_replicated is the standby path; this handle takes writes \
                 through transactions",
            ));
        }
        let mut t = self.inner.ticket.lock().map_err(poisoned)?;
        if seq != *t + 1 {
            return Err(MadError::txn_state(format!(
                "replication gap: handle is at sequence {}, install asked for {seq}",
                *t
            )));
        }
        *t = seq;
        self.inner.set_image(PublishedImage { db: Arc::new(db), seq });
        Ok(())
    }

    /// Install a **full replicated snapshot** at `seq` — the standby's
    /// resynchronization path, used when the primary's log no longer
    /// holds the records after the standby's cursor (a checkpoint folded
    /// them away) and replication restarts from a bootstrap image.
    /// Unlike [`DbHandle::install_replicated`] this may jump forward over
    /// a gap — the snapshot *is* the missing history — but never
    /// backwards. Valid only on [`DbHandle::new_read_only`] handles.
    pub fn install_snapshot(&self, db: Database, seq: u64) -> Result<()> {
        if !self.inner.read_only {
            return Err(MadError::txn_state(
                "install_snapshot is the standby path; this handle takes writes \
                 through transactions",
            ));
        }
        let mut t = self.inner.ticket.lock().map_err(poisoned)?;
        if seq < *t {
            return Err(MadError::txn_state(format!(
                "replication regression: handle is at sequence {}, snapshot install \
                 asked for {seq}",
                *t
            )));
        }
        *t = seq;
        self.inner.set_image(PublishedImage { db: Arc::new(db), seq });
        Ok(())
    }

    // ------------------------------------------------------------------
    // auto-checkpoint
    // ------------------------------------------------------------------

    /// Arm (or, with an empty policy, disarm) automatic checkpointing.
    /// Commits that push the log over a trigger fold it down inline —
    /// one committer at a time — so log size stays bounded without a
    /// manual `CHECKPOINT`. No effect on non-durable handles.
    #[expect(
        clippy::unwrap_used,
        reason = "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome"
    )]
    pub fn set_checkpoint_policy(&self, policy: CheckpointPolicy) {
        *self.inner.ckpt_policy.lock().unwrap() = policy;
        self.inner
            .ckpt_armed
            .store(policy.is_enabled() && self.is_durable(), Ordering::SeqCst);
    }

    /// The current auto-checkpoint policy.
    #[expect(
        clippy::unwrap_used,
        reason = "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome"
    )]
    pub fn checkpoint_policy(&self) -> CheckpointPolicy {
        *self.inner.ckpt_policy.lock().unwrap()
    }

    /// Auto-checkpoints completed since open.
    pub fn auto_checkpoint_count(&self) -> u64 {
        self.inner.auto_ckpts.load(Ordering::Relaxed)
    }

    /// Post-commit trigger check: fold the log if the armed policy says
    /// so. At most one committer runs the rewrite; the rest skip. An
    /// auto-checkpoint failure is **not** the commit's failure (the
    /// commit is already durable) — a genuinely sick log poisons itself
    /// and surfaces on the next commit.
    pub(crate) fn maybe_auto_checkpoint(&self) {
        if !self.inner.ckpt_armed.load(Ordering::Relaxed) {
            return;
        }
        let policy = self.checkpoint_policy();
        let over_bytes = policy
            .max_bytes
            .is_some_and(|m| self.wal_len_bytes().unwrap_or(0) > m);
        let over_commits = policy
            .max_commits
            .is_some_and(|m| self.inner.commits_since_ckpt.load(Ordering::Relaxed) >= m);
        if !(over_bytes || over_commits) {
            return;
        }
        if self.inner.ckpt_claimed.swap(true, Ordering::SeqCst) {
            return; // another committer is already rewriting
        }
        if self.checkpoint().is_ok() {
            self.inner.auto_ckpts.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.ckpt_claimed.store(false, Ordering::SeqCst);
    }

    /// Is every commit written ahead to a log?
    pub fn is_durable(&self) -> bool {
        self.inner.wal.is_some()
    }

    /// What recovery found when this handle was opened from an existing
    /// log (`None` for fresh or non-durable handles).
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.inner.recovery
    }

    /// Current write-ahead-log size in bytes, summed over its segments
    /// (`None` when not durable).
    pub fn wal_len_bytes(&self) -> Option<u64> {
        self.inner.wal.as_ref().map(Wal::len_bytes)
    }

    /// Fold the log into a fresh bootstrap image of the current committed
    /// state and drop every commit record, bounding log size and recovery
    /// time. Commits (and replicated installs) are held off for the whole
    /// rewrite by the commit ticket; snapshot readers and transaction
    /// begins are not. Errors on a non-durable handle.
    pub fn checkpoint(&self) -> Result<CheckpointStats> {
        let Some(wal) = &self.inner.wal else {
            return Err(MadError::wal(
                "CHECKPOINT requires a durable handle (no write-ahead log attached)",
            ));
        };
        // hold the commit ticket so no commit appends mid-rewrite; the
        // image is read under it, so (db, seq) is the final word
        let _t = self.inner.ticket.lock().map_err(poisoned)?;
        let img = self.inner.image();
        let stats = wal.checkpoint(&img.db, img.seq)?;
        self.inner.commits_since_ckpt.store(0, Ordering::Relaxed);
        Ok(stats)
    }

    /// The current committed image. The returned `Arc` is a consistent
    /// snapshot: it never changes, no matter what commits afterwards.
    ///
    /// This takes only the `published` read lock, whose writers hold it
    /// for one assignment: a reader is never blocked behind commit
    /// validation, the commit ticket, op-log replay or a WAL fsync.
    pub fn committed(&self) -> Arc<Database> {
        self.inner.image().db
    }

    /// The current commit sequence number (how many commits have been
    /// published). Sessions use it to detect that their cached fork of the
    /// committed state is stale.
    pub fn commit_seq(&self) -> u64 {
        self.inner.image().seq
    }

    /// A copy-on-write fork of the committed image plus the sequence number
    /// it was taken at — the cheap way for a session to get a *mutable*
    /// working copy (e.g. for autocommit query scratch space).
    pub fn fork(&self) -> (Database, u64) {
        let img = self.inner.image();
        ((*img.db).clone(), img.seq)
    }

    /// How many commit records the first-committer-wins log currently
    /// retains (bounded by in-flight contention; exposed for tests and
    /// monitoring).
    pub fn commit_log_len(&self) -> usize {
        self.inner.conflict_log.lock().unwrap_or_else(PoisonError::into_inner).log.len()
    }

    /// How many distinct write keys the commit-validation hash index
    /// currently covers (pruned together with the commit log; exposed for
    /// tests and monitoring).
    pub fn conflict_index_len(&self) -> usize {
        self.inner.conflict_log.lock().unwrap_or_else(PoisonError::into_inner).last_write.len()
    }

    /// Begin bookkeeping: registers the transaction as active at the
    /// sequence of the image it returns. The image is read **inside** the
    /// `active` critical section, which is what makes the prune cutoff
    /// sound: the pruner reads its fallback sequence under the same lock,
    /// so a begin it did not see registers afterwards and observes a
    /// sequence `>=` the cutoff — no begin slips under a prune.
    pub(crate) fn begin_txn(&self) -> (Arc<Database>, u64) {
        let mut active = self.inner.active.lock().unwrap_or_else(PoisonError::into_inner);
        let img = self.inner.image();
        *active.entry(img.seq).or_insert(0) += 1;
        (img.db, img.seq)
    }

    /// Drop an active transaction's registration (abort, or the cleanup
    /// half of commit) and prune the conflict log. Idempotence lives one
    /// level up: [`crate::Transaction`] releases its registration exactly
    /// once (its `finish` is called on commit, abort **and** plain drop —
    /// early return, panic, a disconnected client), so a leaked
    /// registration can never pin the log forever.
    pub(crate) fn finish_txn(&self, begin_seq: u64) {
        self.prune(Some(begin_seq));
    }

    /// Prune dead commit records and their conflict-index entries — the
    /// cleanup the commit path does not carry. Runs automatically on every
    /// transaction finish; public so operators and tests can force it.
    /// Takes `active`, then `conflict_log`, but **never** the commit
    /// ticket: a pinned 10k-record log costs committers nothing beyond
    /// their own probes.
    pub fn prune_commit_log(&self) {
        self.prune(None);
    }

    /// Unregister `finished` (a begin sequence), if any, and prune up to
    /// the resulting cutoff — one `active` critical section for both.
    fn prune(&self, finished: Option<u64>) {
        // every active transaction with begin b validates against records
        // with seq > b, so records at or below the oldest begin are dead;
        // with no active transactions everything up to the current
        // sequence is (see `begin_txn` for why no concurrent begin can
        // observe a sequence below the cutoff)
        let cutoff = {
            let mut active = self.inner.active.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(begin_seq) = finished {
                if let Some(n) = active.get_mut(&begin_seq) {
                    *n -= 1;
                    if *n == 0 {
                        active.remove(&begin_seq);
                    }
                }
            }
            active.keys().next().copied().unwrap_or_else(|| self.inner.image().seq)
        };
        let mut guard = self.inner.conflict_log.lock().unwrap_or_else(PoisonError::into_inner);
        let ConflictLog { last_write, log } = &mut *guard;
        // the log is seq-ordered: the dead records are a prefix, found in
        // O(log n) when a pinned transaction keeps everything alive
        let dead = log.partition_point(|r| r.seq <= cutoff);
        for record in log.drain(..dead) {
            for key in record.keys {
                // a later record may have re-published the key; then the
                // entry dies with that record instead
                if let Entry::Occupied(last) = last_write.entry(key) {
                    if *last.get() <= cutoff {
                        last.remove();
                    }
                }
            }
        }
    }

    /// Validate and publish one commit — the whole protocol up to the
    /// durability wait (module docs). Under the ticket: probe the conflict
    /// log, ask `build` for the candidate image, append the WAL record
    /// (buffered — no fsync), record the write-set, swap the published
    /// image. Returns the commit sequence and the WAL position the caller
    /// must await before acknowledging.
    ///
    /// `build` is called once, with `None` while `observed` is still the
    /// committed image (hand over the fork as-is, O(1)) and with
    /// `Some(current)` once it went stale (rebase onto `current`). Nobody
    /// can publish while it runs, so what it returns is never stale. It
    /// yields the candidate and the op log with ids resolved for that
    /// candidate, moved: a durable handle frames the log from a borrow,
    /// and a published log is freed only after the ticket is released.
    ///
    /// The transaction's registration is **not** touched here: on every
    /// outcome the caller still owns it and releases it through
    /// [`DbHandle::finish_txn`] (commit success/failure, abort, or drop).
    ///
    /// Any `Err` — `TxnConflict` from validation, whatever `build`
    /// returned, a WAL append failure — means nothing was published:
    /// sequence, image, conflict log and the log's appended length are
    /// untouched.
    pub(crate) fn publish(
        &self,
        begin_seq: u64,
        observed: &Arc<Database>,
        keys: FxHashSet<WriteKey>,
        build: impl FnOnce(Option<&Database>) -> Result<(Database, Vec<WalOp>)>,
    ) -> Result<(u64, Option<Lsn>)> {
        if self.inner.read_only {
            // the hard guarantee under the Session-level nicety: nothing
            // publishes through a standby's serving handle
            return Err(MadError::txn_state(
                "this handle serves a read-only standby; writes must go to the primary",
            ));
        }
        // the Publish stage is the ticket wait plus the publication proper;
        // validate, replay and wal_append in between record their own
        // stages, so a trace's stages stay disjoint
        let queued = trace::is_active().then(Instant::now);
        let mut t = self.inner.ticket.lock().map_err(poisoned)?;
        let wait_ns = queued.map_or(0, |q| q.elapsed().as_nanos() as u64);
        // Validate: first-committer-wins — any committed write since our
        // begin that overlaps our write-set aborts us. One hash probe per
        // key of OUR write-set; we hold the ticket, so no publication can
        // slip in after the probe.
        let vt = StageTimer::start(StageKind::Validate);
        let probes = u64_of_usize(keys.len());
        let conflict = {
            let log = self.inner.conflict_log.lock().unwrap_or_else(PoisonError::into_inner);
            keys.iter().find_map(|key| match log.last_write.get(key) {
                Some(&seq) if seq > begin_seq => Some((key, seq)),
                _ => None,
            })
        };
        if let Some((key, seq)) = conflict {
            self.inner.metrics.conflicts.inc();
            vt.finish_info(&[("probes", probes), ("conflict", 1)]);
            return Err(MadError::txn_conflict(format!(
                "write-write conflict on {key} with the transaction committed at sequence {seq}"
            )));
        }
        vt.finish_info(&[("probes", probes)]);
        // (this clone also keeps the image we are about to replace alive
        // until the ticket is dropped, so freeing it never happens under
        // a lock)
        let current = self.inner.image().db;
        let stale = !Arc::ptr_eq(&current, observed);
        if stale {
            self.inner.metrics.replays.inc();
        }
        let (candidate, ops) = build(stale.then_some(&*current))?;
        let seq = *t + 1;
        // write-ahead: the record must be in the log (buffered) before the
        // state becomes visible; an append failure publishes nothing —
        // the conflict log is untouched at this point
        let lsn = match &self.inner.wal {
            Some(wal) => Some(wal.append_commit(seq, &ops)?),
            None => None,
        };
        let started = queued.map(|_| Instant::now());
        {
            let mut log = self.inner.conflict_log.lock().unwrap_or_else(PoisonError::into_inner);
            for key in &keys {
                log.last_write.insert(key.clone(), seq);
            }
            log.log.push(CommitRecord { seq, keys: keys.into_iter().collect() });
        }
        *t = seq;
        self.inner.set_image(PublishedImage { db: Arc::new(candidate), seq });
        if let Some(started) = started {
            trace::record(
                StageKind::Publish,
                wait_ns + started.elapsed().as_nanos() as u64,
                None,
                &[("keys", probes), ("wait_ns", wait_ns), ("rebased", u64::from(stale))],
            );
        }
        drop(t);
        self.inner.commits_since_ckpt.fetch_add(1, Ordering::Relaxed);
        self.inner.metrics.commits.inc();
        Ok((seq, lsn))
    }

    /// Wait for the WAL record at `lsn` per the fsync policy (no-op for
    /// non-durable handles).
    pub(crate) fn wait_durable(&self, lsn: Option<Lsn>) -> Result<()> {
        match (&self.inner.wal, lsn) {
            (Some(wal), Some(lsn)) => wal.wait_durable(lsn),
            _ => Ok(()),
        }
    }

    /// Test hook: hold the commit ticket, proving reads stay unblocked
    /// while a commit (or fsync stall) owns the publication path.
    #[cfg(test)]
    pub(crate) fn lock_publication_for_test(&self) -> rank::RankedMutexGuard<'_, impl Sized> {
        self.inner.ticket.lock().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Poison the commit ticket by panicking a thread that holds it, then
    /// check the fallible standby paths surface the poison as a
    /// transaction-state error instead of cascading the panic.
    #[test]
    fn poisoned_handle_errors_on_fallible_paths() {
        let handle = DbHandle::new_read_only(Database::empty(), 0);
        let poisoner = {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let _guard = handle.lock_publication_for_test();
                panic!("poisoning the commit ticket");
            })
        };
        assert!(poisoner.join().is_err());

        let err = handle
            .install_replicated(Database::empty(), 1)
            .expect_err("install through a poisoned handle must error");
        assert!(
            err.to_string().contains("handle poisoned"),
            "unexpected error: {err}"
        );
        let err = handle
            .install_snapshot(Database::empty(), 1)
            .expect_err("snapshot install through a poisoned handle must error");
        assert!(err.to_string().contains("handle poisoned"), "{err}");
    }
}
