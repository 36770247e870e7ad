//! # mad-workload — fixtures and workload generators
//!
//! * [`brazil`] — the hand-built geographic database of Fig. 1/2/4: Brazil's
//!   states, rivers and cities over a shared geometric substrate of points,
//!   edges, areas and nets. The Paraná shares border edges with the states
//!   Minas Gerais, São Paulo and Paraná, exactly as §2 describes.
//! * [`geo`] — a seeded synthetic geography with tunable size and sharing
//!   degree (benchmarks B1/B3/B4/B7).
//! * [`bom`] — bill-of-material DAGs over a reflexive `composition` link
//!   type with tunable depth/fan-out/sharing (benchmarks B2/B5, the §3.1
//!   and §5 example).
//! * [`vlsi`] — a VLSI cell library (cells, instances, nets, pins), the
//!   design-application workload of the paper's motivation (\[BB84\]).
//! * [`mixed`] — the concurrent mixed read/write scenario: N reader + M
//!   writer threads over one shared `mad_txn::DbHandle`, with the
//!   isolation invariants verified online (benchmark B8).
//! * [`crash`] — the crash-recovery scenario: the mixed workload over a
//!   *durable* handle, a simulated kill at a random WAL record boundary,
//!   then recovery with prefix-consistency verification (benchmark B9's
//!   correctness twin).
//! * [`net`] — the networked crash scenario: TCP clients against a
//!   durable [`mad_net::Server`], a kill mid-traffic, a WAL cut, restart,
//!   and acked-prefix verification over the wire.
//! * [`pipeline`] — the pipelining stress scenario: connections keeping
//!   whole transaction groups in flight, a deterministic forced conflict
//!   answered in pipeline order, an abrupt mid-burst server kill, and
//!   the same acked-prefix verification.
//! * [`failover`] — the replication failover scenario: the network
//!   workload against a primary streaming to sync-quorum standbys under
//!   fault injection, a mid-traffic kill, standby promotion, and
//!   acked-prefix verification on the promoted node.

pub mod bom;
pub mod brazil;
pub mod crash;
pub mod failover;
pub mod geo;
pub mod mixed;
pub mod net;
pub mod pipeline;
pub mod rng;
pub mod vlsi;

pub use bom::{generate_bom, BomParams};
pub use brazil::{brazil_database, BrazilHandles};
pub use crash::{run_crash_recovery, CrashParams, CrashStats};
pub use failover::{run_failover, FailoverParams, FailoverStats};
pub use geo::{generate_geo, GeoParams};
pub use mixed::{mixed_database, run_mixed, MixedParams, MixedStats};
pub use net::{run_net_crash, NetCrashParams, NetCrashStats};
pub use pipeline::{run_net_pipeline, NetPipelineParams, NetPipelineStats};
pub use vlsi::{generate_vlsi, VlsiParams};
