//! # mad-net — the TCP server front-end of the MAD database
//!
//! The paper's molecule-atom data model is meant to be *served*: the MQL
//! statement text is the user's whole interface, and everything behind it
//! (molecule derivation, transactions, the write-ahead log) stays on the
//! server. This crate turns the workspace into that multi-user service:
//!
//! * [`Server`] — a readiness-based event loop serving one shared,
//!   optionally durable [`mad_txn::DbHandle`] to many concurrent
//!   clients: one poller thread owns every socket (see [`poller`]), a
//!   fixed worker pool executes statements against one
//!   [`mad_mql::Session::shared`] per connection. Clients may
//!   **pipeline** any number of requests; responses come back in
//!   request order, and `BEGIN … COMMIT` spans as many round-trips (or
//!   pipelined frames) as the client likes while other connections keep
//!   reading committed snapshots.
//! * [`Client`] — a small blocking client: connect, send MQL statement
//!   text, get the rendered result (or the server's error, with
//!   [`mad_model::MadError::is_conflict`] preserved across the wire so
//!   retry loops work remotely exactly like they do in-process). The
//!   binary result encoding ([`Client::set_encoding`]) ships molecule
//!   sets structurally instead of as server-rendered text;
//!   [`Client::send_statement`] / [`Client::recv_result`] expose the
//!   pipeline directly.
//! * [`frame`] — the wire format: length-prefixed, CRC-32-checksummed
//!   frames (the same framing discipline as the `mad_wal` log), hardened
//!   against oversized and truncated input. The normative spec lives in
//!   `ARCHITECTURE.md`.
//! * `madc` — a REPL binary over [`Client`]
//!   (`cargo run -p mad-net --bin madc -- <addr>`).
//!
//! ## Connection lifecycle
//!
//! A connection is one session. Dropping it mid-transaction aborts the
//! open transaction (the server's session drops, the transaction's `Drop`
//! releases its registration — nothing the client left behind can pin the
//! handle's commit log). A malformed frame closes *that* connection with a
//! protocol error; the shared handle and every other connection are
//! untouched.

pub mod client;
pub mod frame;
pub mod poller;
pub mod server;

pub use client::{Client, ClientConfig, RetryPolicy, ServerInfo};
pub use frame::{
    is_timeout_error, Request, Response, ENCODING_BINARY, ENCODING_TEXT, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig};

pub use mad_txn::DbHandle;
