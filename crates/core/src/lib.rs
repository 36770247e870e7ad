//! # mad-core — the molecule algebra
//!
//! The primary contribution of Mitschang, *Extending the Relational Algebra
//! to Capture Complex Objects* (VLDB 1989): a closed algebra over
//! dynamically defined, possibly overlapping complex objects ("molecules")
//! built from atoms connected by symmetric links.
//!
//! | Paper | Here |
//! |---|---|
//! | Def. 4 atom-type ops π σ × ω δ (+ link inheritance) | [`atom_ops`] |
//! | Def. 5 molecule-type description, `md_graph` | [`structure`] |
//! | Def. 6 `m_dom`, `contained`, `total` | [`derive`](mod@derive) |
//! | Def. 7/8 molecule type, operator α | [`molecule`], [`ops`] |
//! | Def. 9 propagation `prop` | `Engine`'s propagation step (via [`provenance`]) |
//! | Def. 10 Σ (and the omitted Π X Ω Δ, Ψ) | [`ops`] |
//! | §3.2 qualification formulas `restr(md)` | [`qual`] |
//! | §5 recursive molecule types \[Schö89\] | [`recursive`] |
//! | §5 query optimization outlook | [`explain`](mod@explain) |
//! | Fig. 5 staged operator pipeline | [`trace`] |
//!
//! The closure theorems (1–3) are not just claimed: [`derive::check_molecule`]
//! re-validates `mv_graph`/`total` for every molecule of every operator
//! result, and the property-test suite exercises it.

pub mod atom_ops;
pub mod derive;
pub mod explain;
pub mod molecule;
pub mod ops;
pub mod provenance;
pub mod qual;
pub mod recursive;
pub mod structure;
pub mod trace;

/// The most common imports, bundled.
pub mod prelude {
    pub use crate::atom_ops;
    pub use crate::derive::{
        check_molecule, derive_bitset_pruned, derive_molecules, derive_one, DeriveOptions, Strategy,
    };
    pub use crate::explain::{explain, Plan};
    pub use crate::molecule::{Molecule, MoleculeType};
    pub use crate::ops::{plan_pushdown, Engine, PushdownPlan};
    pub use crate::qual::{AggFn, CmpOp, Operand, QualExpr};
    pub use crate::recursive::{derive_recursive, RecursiveMolecule, RecursiveSpec};
    pub use crate::structure::{path, MoleculeStructure, MsEdge, MsNode, StructureBuilder};
    pub use mad_storage::database::Direction;
}

pub use prelude::*;
