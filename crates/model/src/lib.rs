//! # mad-model — the MAD data model kernel
//!
//! This crate defines the *static* side of the molecule-atom data model (MAD)
//! from Mitschang, *Extending the Relational Algebra to Capture Complex
//! Objects*, VLDB 1989:
//!
//! * [`Value`] / [`AttrType`] — attribute values and their domains,
//! * [`AttrDef`] — attribute descriptions,
//! * [`AtomTypeDef`] — atom-type descriptions (Def. 1: the pair
//!   `<aname, ad>`; occurrences live in `mad-storage`),
//! * [`LinkTypeDef`] — link-type descriptions (Def. 2: `<lname, {a1, a2}>`),
//!   including the *extended* link-type definition with cardinality
//!   restrictions the paper mentions in §3.1,
//! * [`Schema`] — the database schema `<AT, LT>` of Def. 3,
//! * [`MadError`] — the error domain shared by all crates.
//!
//! The correspondence to the relational model is exactly Fig. 3 of the paper:
//! attribute ↔ attribute, relation schema ↔ atom-type description, tuple ↔
//! atom, relation ↔ atom type, plus the concepts that have *no* relational
//! counterpart: link, link-type description, link-type occurrence, link type.

pub mod bin;
pub mod bitset;
pub mod error;
pub mod fxhash;
pub mod ids;
pub mod json;
pub mod schema;
pub mod types;
pub mod value;

pub use bitset::BitSet;
pub use error::{MadError, Result};
pub use fxhash::{FxHashMap, FxHashSet};
pub use ids::{AtomId, AtomTypeId, LinkPair, LinkTypeId};
pub use schema::{attrs, Schema, SchemaBuilder};
pub use types::{AtomTypeDef, AttrDef, Cardinality, LinkTypeDef};
pub use value::{AttrType, Value};
