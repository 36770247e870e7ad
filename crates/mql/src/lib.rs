//! # mad-mql — MOL/MQL, the molecule query language (§4)
//!
//! The paper defines MQL's semantics *by translation into the molecule
//! algebra*: "the whole molecule-type definition is expressed in the FROM
//! clause", restriction is the WHERE clause, projection the SELECT clause.
//! This crate implements that pipeline end to end:
//!
//! ```text
//!   source ──lexer──▶ tokens ──parser──▶ AST ──analyze──▶
//!     (MoleculeStructure, QualExpr, projection) ──translate/exec──▶
//!        α / Σ / Π applications on mad_core::Engine ──▶ result
//! ```
//!
//! The concrete syntax follows the paper's examples:
//!
//! ```text
//! SELECT ALL FROM mt_state(state-area-edge-point);
//! SELECT ALL FROM point-edge-(area-state,net-river) WHERE point.pname = 'pn';
//! ```
//!
//! extended with the features the paper describes in prose: explicit link
//! names `a-[lname]-b` (needed when several link types connect two atom
//! types), traversal direction markers for reflexive link types
//! (`[composition>]` sub-component view, `[composition<]` super-component
//! view, `[composition~]` symmetric), node aliases `alias:type`,
//! quantifiers/aggregates in WHERE, recursive molecule queries
//! (`FROM RECURSIVE parts VIA composition DOWN DEPTH 3`), named molecule
//! types (`DEFINE MOLECULE name AS …`), and the manipulation statements
//! (INSERT ATOM / CONNECT / DISCONNECT / DELETE ATOM / UPDATE) that make
//! MQL "a high level query **and manipulation** language".

pub mod analyze;
pub mod ast;
pub mod exec;
pub mod format;
pub mod lexer;
pub mod parser;
pub mod session;

pub use exec::StatementResult;
pub use mad_txn::{DbHandle, Transaction};
pub use session::{split_statements, Session};

/// Parse a single MQL statement into its AST (lex + parse only).
pub fn parse(input: &str) -> mad_model::Result<ast::Statement> {
    let tokens = lexer::lex(input)?;
    parser::Parser::new(&tokens).parse_statement()
}
