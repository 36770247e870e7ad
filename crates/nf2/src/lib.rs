//! # mad-nf2 — the NF² (non-first-normal-form) substrate and baseline
//!
//! §5 of the paper compares the molecule algebra with the NF² relational
//! algebra of Schek/Scholl (\[SS86\]) and finds that nested relations support
//! only *hierarchical* complex objects *without shared subobjects*. This
//! crate builds that comparison partner:
//!
//! * [`nested`] — nested relations: relation-valued attributes, arbitrary
//!   nesting depth, set semantics at every level,
//! * [`ops`] — the NF² algebra core: `nest` (ν) and `unnest` (μ) plus
//!   σ/π at the top level, with the classical identities
//!   (`μ∘ν = id` always; `ν∘μ = id` only for partitioned relations)
//!   under test,
//! * [`from_mad`] — materialization of a MAD molecule type as a nested
//!   relation. A DAG-shaped structure is forced through its spanning tree
//!   and **shared subobjects are duplicated** — the duplication factor
//!   this module reports is precisely the §5 claim measured by
//!   benchmark B2.

pub mod from_mad;
pub mod nested;
pub mod ops;

pub use from_mad::{materialize, Nf2Materialization};
pub use nested::{NestedAttr, NestedRelation, NestedValue};
