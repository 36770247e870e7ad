//! # mad-storage — the atom-network storage engine
//!
//! This crate is the *occurrence* side of the MAD model: it stores atom-type
//! occurrences (sets of atoms) and link-type occurrences (sets of symmetric
//! links) and maintains the invariants §3.1 of the paper highlights as an
//! advantage over the relational model:
//!
//! * **referential integrity "(!)"** — a link can only connect existing
//!   atoms, and deleting an atom removes all its links, so there are never
//!   dangling references;
//! * **cardinality restrictions** — extended link-type definitions may bound
//!   how many partners an atom has per link type and side;
//! * **symmetry** — every link is navigable from both endpoints, which is
//!   what lets the same database serve `state→area→edge→point` and
//!   `point→edge→(area→state, net→river)` (Fig. 2).
//!
//! Architecturally this crate is the "basic component" of the PRIMA
//! prototype (§5): an atom-oriented interface on which the molecule
//! processing of `mad-core` is layered.
//!
//! Like the model, the store has no secondary attribute index: every
//! selection (`alias.attr op const`) is one typed scan of the atom-type
//! occurrence, [`Database::slots_where`].
//!
//! One deliberate refinement of the formalism: Def. 2 models a link as an
//! *unsorted* pair, which is ambiguous for **reflexive** link types (both
//! endpoints the same atom type — e.g. `composition` on `parts`). We store
//! each link with its side-0/side-1 orientation and expose both symmetric
//! and per-side navigation; for non-reflexive link types the two views
//! coincide with the paper's, and for reflexive ones the orientation is what
//! makes the super-component vs. sub-component views of §3.1 well-defined.

pub mod atom_store;
mod chunk;
pub mod csr;
pub mod database;
pub mod link_store;
mod merge;
pub mod snapshot;
pub mod stats;

pub use atom_store::AtomStore;
pub use chunk::CHUNK;
pub use csr::{CsrAdjacency, CsrSnapshot};
pub use database::Database;
pub use link_store::LinkStore;
pub use snapshot::DatabaseSnapshot;
pub use stats::DatabaseStats;
