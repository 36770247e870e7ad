//! Parser for the normative lock-hierarchy table in `ARCHITECTURE.md`.
//!
//! The analyzer does not hard-code policy: the lock hierarchy is
//! declared as a markdown table under an anchored heading in
//! `ARCHITECTURE.md`, and *that table is the spec* — editing the
//! document changes what the lock lint enforces. This module extracts it
//! with a small line-oriented scan (first cell = rank, second cell =
//! name, backticks stripped; separator rows and trailing columns
//! ignored).

/// Heading that anchors the lock-hierarchy table.
pub const LOCK_HEADING: &str = "Lock hierarchy (normative)";

/// The machine-readable policy extracted from ARCHITECTURE.md.
#[derive(Clone, Debug, Default)]
pub struct Spec {
    /// Lock name → hierarchy rank (lower acquires first).
    pub lock_ranks: Vec<(String, u32)>,
}

impl Spec {
    /// Rank of a lock name, if it is governed by the hierarchy.
    pub fn lock_rank(&self, name: &str) -> Option<u32> {
        self.lock_ranks.iter().find(|(n, _)| n == name).map(|&(_, r)| r)
    }
}

/// Parse the lock-hierarchy table out of the architecture document.
/// Returns `Err` with a description when the table is missing or
/// malformed — the analyzer refuses to run without its spec.
pub fn parse(doc: &str) -> Result<Spec, String> {
    let lock_ranks = parse_table(doc, LOCK_HEADING)?;
    if lock_ranks.is_empty() {
        return Err(format!("table under `{LOCK_HEADING}` has no rows"));
    }
    for (name, _) in &lock_ranks {
        if lock_ranks.iter().filter(|(n, _)| n == name).count() > 1 {
            return Err(format!("duplicate lock `{name}` in hierarchy table"));
        }
    }
    Ok(Spec { lock_ranks })
}

/// Find `heading`, then collect `(name, rank)` from the first table
/// after it: rank from column 1, name from column 2.
fn parse_table(doc: &str, heading: &str) -> Result<Vec<(String, u32)>, String> {
    let mut lines = doc.lines();
    lines
        .by_ref()
        .find(|l| l.starts_with('#') && l.contains(heading))
        .ok_or_else(|| format!("ARCHITECTURE.md: heading `{heading}` not found"))?;
    let mut rows = Vec::new();
    let mut in_table = false;
    for line in lines {
        let t = line.trim();
        if !t.starts_with('|') {
            if in_table {
                break; // table ended
            }
            if t.starts_with('#') {
                return Err(format!(
                    "ARCHITECTURE.md: no table between `{heading}` and the next heading"
                ));
            }
            continue; // prose before the table
        }
        in_table = true;
        let cells: Vec<String> = t
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().trim_matches('`').to_string())
            .collect();
        if cells.len() < 2 {
            continue;
        }
        // skip the header row and the |---|---| separator
        if cells[0].chars().all(|c| matches!(c, '-' | ':' | ' ')) {
            continue;
        }
        let Ok(rank) = cells[0].parse::<u32>() else {
            continue; // header row ("Rank")
        };
        if cells[1].is_empty() {
            return Err(format!(
                "ARCHITECTURE.md: `{heading}` row with rank {rank} has an empty name cell"
            ));
        }
        rows.push((cells[1].clone(), rank));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "\
# Architecture

### Lock hierarchy (normative)

Prose before the table.

| Rank | Lock | Owner |
|-----:|------|-------|
| 1 | `state` | `mad-txn` |
| 2 | `published` | `mad-txn` |

More prose.
";

    #[test]
    fn parses_the_lock_table() {
        let spec = parse(DOC).unwrap();
        assert_eq!(spec.lock_rank("state"), Some(1));
        assert_eq!(spec.lock_rank("published"), Some(2));
        assert_eq!(spec.lock_rank("nope"), None);
    }

    #[test]
    fn missing_heading_is_an_error() {
        let err = parse("# nothing here\n").unwrap_err();
        assert!(err.contains("Lock hierarchy"), "{err}");
    }

    #[test]
    fn heading_without_table_is_an_error() {
        let doc = "### Lock hierarchy (normative)\n\n### next\n";
        let err = parse(doc).unwrap_err();
        assert!(err.contains("no table"), "{err}");
    }

    #[test]
    fn duplicate_rows_are_rejected() {
        let doc = DOC.replace("`published`", "`state`");
        let err = parse(&doc).unwrap_err();
        assert!(err.contains("duplicate lock"), "{err}");
    }
}
