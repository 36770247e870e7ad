//! Byte guard on the EXPLAIN text a session serves. Two plans over the
//! Brazil database, rendered by `Session::execute_rendered` (the text the
//! server puts on the wire), must equal `tests/golden/brazil_explain.txt`
//! byte for byte:
//!
//! * a root conjunct and a child conjunct, pushed to two structure nodes;
//! * a range conjunct on the root.
//!
//! Every selection is a scan of the atom-type occurrence, so the root line
//! reads `roots: occurrence scan filtered by […]` and every pushed conjunct
//! `(via scan)`. Regenerate the golden only from a build of the parent
//! commit, never from the change under test.

use mad::mql::Session;
use mad::workload::brazil_database;

const PLANS: [&str; 2] = [
    "EXPLAIN SELECT ALL FROM state-area-edge-point WHERE state.sname = 'SP' AND edge.eid >= 3",
    "EXPLAIN SELECT ALL FROM state-area-edge-point WHERE state.hectare > 900.0",
];

/// Each statement on its own line, followed by the text the session
/// renders for it.
fn served_plans() -> String {
    let (db, _) = brazil_database().unwrap();
    let mut session = Session::new(db);
    let mut out = String::new();
    for stmt in PLANS {
        out.push_str(stmt);
        out.push('\n');
        out.push_str(&session.execute_rendered(stmt).unwrap());
        out.push('\n');
    }
    out
}

#[test]
fn brazil_explain_equals_the_golden_byte_for_byte() {
    let got = served_plans();
    let golden = include_str!("golden/brazil_explain.txt");
    assert_eq!(
        got, golden,
        "the served EXPLAIN text differs from tests/golden/brazil_explain.txt"
    );
    assert_eq!(
        got.matches("roots: occurrence scan filtered by [").count(),
        2
    );
    assert_eq!(got.matches("(via scan)").count(), 3);
}
