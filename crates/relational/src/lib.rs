//! # mad-relational — the relational substrate and baseline
//!
//! The paper positions the MAD model *against* the flat relational model
//! (§1–2, Fig. 3): n:m relationships force auxiliary relations, queries turn
//! into join cascades, referential integrity is the application's problem.
//! To measure those claims rather than repeat them, this crate provides:
//!
//! * [`relation`] — set-semantics relations over the shared [`mad_model::Value`],
//! * [`algebra`] — the classical relational algebra (σ π × ⋈ ∪ − ∩ ρ),
//!   the baseline the atom-type algebra of Def. 4 degenerates to,
//! * [`mapping`] — the MAD→relational schema mapping: one relation per atom
//!   type (with a surrogate key), a foreign key for link types with a
//!   `max ≤ 1` side, and an **auxiliary relation** for every n:m link type
//!   — exactly the transformation §2 calls "quite cumbersome",
//! * [`derive_join`] — molecule derivation expressed as relational join
//!   cascades over that mapping (benchmark B1's comparator; tests assert it
//!   computes the very same molecule sets as `mad-core`),
//! * [`closure`] — semi-naive transitive closure (benchmark B5's comparator
//!   for recursive molecules).

pub mod algebra;
pub mod closure;
pub mod derive_join;
pub mod mapping;
pub mod relation;

pub use mapping::RelationalImage;
pub use relation::Relation;
