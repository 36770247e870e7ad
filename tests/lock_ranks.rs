//! The lock hierarchy of ARCHITECTURE.md, checked against the rank
//! constants.
//!
//! `mad_obs::rank` is the source of truth: its constants are what the
//! ranked locks check on every debug-build acquisition. The "Lock
//! hierarchy (normative)" table documents them and must list exactly
//! the same `(name, rank)` rows, so the doc cannot drift from the code.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use mad::obs::rank::HIERARCHY;

const LOCK_HEADING: &str = "Lock hierarchy (normative)";

/// The `(lock, rank)` rows of the first table under [`LOCK_HEADING`].
fn lock_table() -> Vec<(String, u32)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("ARCHITECTURE.md");
    let doc = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut lines = doc.lines();
    lines
        .by_ref()
        .find(|l| l.starts_with('#') && l.contains(LOCK_HEADING))
        .expect("ARCHITECTURE.md has the lock hierarchy heading");
    lines
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| {
            let mut cells = l
                .trim_matches('|')
                .split('|')
                .map(|c| c.trim().trim_matches('`'));
            let rank = cells.next()?.parse().ok()?; // skips the header and separator
            Some((cells.next()?.to_string(), rank))
        })
        .collect()
}

#[test]
fn the_lock_table_lists_exactly_the_rank_constants() {
    let table = lock_table();
    let doc: BTreeSet<(String, u32)> = table.iter().cloned().collect();
    assert_eq!(doc.len(), table.len(), "duplicate rows in the lock table: {table:?}");
    // the constants are a total order with one bit each in the
    // held-ranks mask
    assert!(
        HIERARCHY.windows(2).all(|w| w[0].level() < w[1].level())
            && HIERARCHY.iter().all(|r| r.level() < u32::BITS),
        "{HIERARCHY:?}"
    );
    let code: BTreeSet<(String, u32)> =
        HIERARCHY.iter().map(|r| (r.name().to_string(), r.level())).collect();
    assert_eq!(
        doc, code,
        "ARCHITECTURE.md's lock table (left) differs from mad_obs::rank::HIERARCHY (right)"
    );
}
