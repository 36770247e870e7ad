//! # mad — facade crate
//!
//! Re-exports the whole MAD-model workspace under one roof, so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`model`] — values, type descriptions, schema (Def. 1–3),
//! * [`storage`] — atom networks: the storage engine with referential
//!   integrity and symmetric link adjacency,
//! * [`algebra`] — the atom-type algebra and the molecule algebra
//!   (Def. 4–10, Theorems 1–3), molecule derivation, recursion,
//! * [`mql`] — the molecule query language of §4,
//! * [`obs`] — the metrics registry, per-statement tracing and the
//!   slow-query log,
//! * [`net`] — the TCP server front-end and blocking client (MQL over
//!   checksummed frames; one shared session per connection),
//! * [`repl`] — streaming WAL replication: primary, warm standbys with
//!   continuous integrity-checked replay, sync-quorum commit
//!   acknowledgment, standby promotion, network fault injection,
//! * [`relational`] — the relational substrate/baseline,
//! * [`nf2`] — the NF² substrate/baseline,
//! * [`workload`] — fixtures and generators (the Brazil database of
//!   Fig. 1/2/4, synthetic geography, bill-of-material, VLSI, the
//!   concurrent mixed read/write and crash-recovery scenarios),
//! * [`txn`] — snapshot-isolated transactions and concurrent multi-session
//!   serving over a shared database handle,
//! * [`wal`] — write-ahead-log durability: checksummed commit records,
//!   group-commit fsync batching, torn-tail crash recovery, checkpoints.
//!
//! See `README.md` for the quickstart and `ARCHITECTURE.md` for the layer
//! map.

pub use mad_core as algebra;
pub use mad_model as model;
pub use mad_mql as mql;
pub use mad_net as net;
pub use mad_nf2 as nf2;
pub use mad_obs as obs;
pub use mad_relational as relational;
pub use mad_repl as repl;
pub use mad_storage as storage;
pub use mad_txn as txn;
pub use mad_wal as wal;
pub use mad_workload as workload;

pub use mad_core::prelude::*;
