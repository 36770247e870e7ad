//! # mad-repl — streaming WAL replication, standby promotion, fault injection
//!
//! PR 4 made commits durable (one node, one log); PR 5 put the database
//! on the network. This crate combines the two into **availability**: a
//! primary streams its resolved commit records to warm standbys that
//! replay them continuously and can take over when the primary dies.
//!
//! * [`proto`] — the wire format. The stream transports
//!   [`mad_wal::WalRecord`]s verbatim over `mad_net`-style CRC-framed
//!   connections: what a standby receives **is** what it appends to its
//!   own log, so the byte format and the integrity discipline are the
//!   WAL's, not a second spec.
//! * [`ReplPrimary`] ([`primary`]) — the primary's listener. Each standby
//!   gets a catch-up phase (logged commits after its cursor, or one full
//!   bootstrap snapshot when a checkpoint folded those away) spliced
//!   gap-free onto the live commit feed, which `mad_txn` pushes under the
//!   publication lock — stream order *is* commit order. Standby
//!   acknowledgments flow back into the handle's quorum accounting,
//!   giving [`mad_txn::ReplAck::SyncQuorum`] commits their semantics: the
//!   client's `COMMIT` returns only once `n` standbys hold the record
//!   durably.
//! * [`Standby`] ([`standby`]) — the warm standby: append to own WAL →
//!   fsync per policy → integrity-checked replay ([`mad_wal::apply_op`],
//!   slot verification included) → publish on a read-only
//!   [`mad_txn::DbHandle`] serving ordinary snapshot reads → ack.
//!   Stream trouble reconnects with bounded backoff and resumes from the
//!   durable cursor; local trouble **halts cleanly** with a recorded
//!   reason. A standby never silently diverges.
//! * [`Standby::promote`] — failover: seal the replication cursor, then
//!   reopen the local log through the full crash-recovery path (CRC
//!   verification, torn-tail truncation, deterministic replay) — recovery
//!   *is* the prefix-consistency check — yielding a writable primary that
//!   continues the sequence numbering.
//! * [`FaultProxy`] ([`fault`]) — deterministic network fault injection
//!   (duplicated, reordered, torn, delayed, corrupted frames; mid-record
//!   disconnects) between standby and primary, complementing
//!   [`mad_wal::FaultPlan`]'s injected append/fsync failures. The
//!   failover scenario in `mad_workload` drives both.
//!
//! ## Replication invariants
//!
//! 1. **Gap-free prefix** — a standby's state is always the primary's
//!    commit history up to its cursor: exact, in order, no holes.
//!    Catch-up and live feed are spliced under subscription-before-read;
//!    duplicates are skipped by sequence; a sequence gap on the wire
//!    forces a resync instead of an apply.
//! 2. **Ack = standby durability** — a standby acknowledges a sequence
//!    only after its *own* log holds the record per its fsync policy, so
//!    a quorum-acked commit survives the primary's disk dying.
//! 3. **Converge or halt** — injected faults (network or storage) end in
//!    a reconnect-and-catch-up or a cleanly reported halt, never in a
//!    standby serving state that differs from some primary prefix.
//! 4. **Promotion preserves acked history** — the promoted handle
//!    recovers at least every sequence the standby ever served to
//!    readers; promotion errors rather than losing acknowledged commits.
//!
//! The layering stays `model → storage → wal → txn → {mql, net} → repl`
//! (see `ARCHITECTURE.md`).

#![warn(missing_docs)]

pub mod fault;
pub mod primary;
pub mod proto;
pub mod standby;

pub use fault::{FaultProxy, NetFault, NetFaultPlan};
pub use primary::ReplPrimary;
pub use proto::{ReplMsg, REPL_MAGIC, REPL_PROTOCOL_VERSION};
pub use standby::{PromotionReport, Standby, StandbyConfig};

// the replication vocabulary of the txn layer, re-exported so harnesses
// need no direct txn import for the ack knob
pub use mad_txn::ReplAck;
