//! Observability substrate for the MAD workspace.
//!
//! Layer-0, dependency-free (std only): every subsystem above may depend
//! on it and nothing here depends on anything. Five pieces:
//!
//! * [`hist`] — fixed-bucket log-scale latency [`Histogram`]s with
//!   p50/p90/p99/max readout, recordable concurrently without locks
//!   (one atomic add per sample). The exact-percentile harness that used
//!   to be private to the B10 bench lives here as
//!   [`hist::percentile_sorted`].
//! * [`registry`] — a named [`Registry`] of counters, poll-gauges,
//!   histograms and text metrics. Counter increments and histogram
//!   records are lock-free on the hot path (the registry mutex is taken
//!   only to register, remove, or snapshot). Gauges are *pull*: a
//!   registered closure is polled at snapshot time, so idle subsystems
//!   pay nothing.
//! * [`trace`] — a per-statement span tracer. One [`StmtTrace`] per
//!   statement, carried in a thread-local so every layer (parser,
//!   derivation, commit validation, WAL, replication waits) can record a
//!   stage without plumbing a context argument through the whole stack.
//!   When no trace is active, a [`trace::StageTimer`] is a no-op: the
//!   begin-check is a single thread-local read and no clock is sampled.
//! * [`slow`] — a bounded ring-buffer [`SlowLog`] of statement traces
//!   whose total time crossed a configurable threshold; the network
//!   server keeps one per listener.
//! * [`rank`] — [`RankedMutex`]/[`RankedRwLock`], the std locks with a
//!   place in the lock hierarchy; debug builds panic on an acquisition
//!   out of rank order.
//!
//! Everything here is panic-free in non-test code: mutex poisoning is
//! absorbed (`PoisonError::into_inner` — metrics must never take the
//! server down), arithmetic saturates or wraps deliberately, and no
//! slice is indexed unchecked.

pub mod hist;
pub mod rank;
pub mod registry;
pub mod slow;
pub mod trace;

pub use hist::{percentile_sorted, HistSnapshot, Histogram};
pub use rank::{Rank, RankedMutex, RankedRwLock};
pub use registry::{Counter, MetricValue, Registry};
pub use slow::{SlowEntry, SlowLog};
pub use trace::{StageKind, StageRec, StmtTrace};
