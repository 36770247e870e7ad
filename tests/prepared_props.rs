//! Property tests for prepared statements: `PREPARE` + `EXECUTE` is
//! observationally identical to executing the statement text directly
//! (results, commit sequences, conflicts), the cached plan is never
//! served stale across concurrent committers, and executing a
//! deallocated name fails cleanly without wedging the session.

use mad::model::{AttrType, MadError, SchemaBuilder, Value};
use mad::mql::Session;
use mad::storage::Database;
use mad::txn::DbHandle;
use proptest::prelude::*;

fn geo_db() -> Database {
    let schema = SchemaBuilder::new()
        .atom_type("state", &[("sname", AttrType::Text), ("pop", AttrType::Int)])
        .atom_type("area", &[("aid", AttrType::Int)])
        .link_type("state-area", "state", "area")
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    let state = db.schema().atom_type_id("state").unwrap();
    for (name, pop) in [("SP", 10), ("MG", 9), ("RJ", 6), ("BA", 4), ("RS", 3)] {
        db.insert_atom(state, vec![Value::from(name), Value::from(pop)])
            .unwrap();
    }
    db
}

/// One generated operation, applied identically to both sessions.
#[derive(Clone, Debug)]
enum Op {
    /// `EXECUTE sel (threshold)` vs the direct SELECT with the literal.
    Select(i64),
    /// `EXECUTE ins (name, pop)` vs the direct INSERT with the literals.
    Insert(u16, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..12).prop_map(Op::Select),
        (0u16..999, 0i64..12).prop_map(|(n, p)| Op::Insert(n, p)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The core equivalence: a session driving everything through
    /// prepared statements and a session executing the same statements
    /// directly produce identical rendered results and identical commit
    /// sequences, step by step.
    #[test]
    fn prepare_execute_equals_direct_execution(ops in proptest::collection::vec(op_strategy(), 1..16)) {
        let mut prep = Session::shared(DbHandle::new(geo_db()));
        let mut direct = Session::shared(DbHandle::new(geo_db()));
        prep.execute_rendered(
            "PREPARE sel AS SELECT ALL FROM state WHERE state.pop > $1",
        ).unwrap();
        prep.execute_rendered(
            "PREPARE ins AS INSERT ATOM state (sname = $1, pop = $2)",
        ).unwrap();
        for op in &ops {
            let (via_prep, via_direct) = match op {
                Op::Select(t) => (
                    prep.execute_rendered(&format!("EXECUTE sel ({t})")),
                    direct.execute_rendered(&format!(
                        "SELECT ALL FROM state WHERE state.pop > {t}"
                    )),
                ),
                Op::Insert(n, p) => (
                    prep.execute_rendered(&format!("EXECUTE ins ('N{n}', {p})")),
                    direct.execute_rendered(&format!(
                        "INSERT ATOM state (sname = 'N{n}', pop = {p})"
                    )),
                ),
            };
            prop_assert_eq!(via_prep.unwrap(), via_direct.unwrap());
            prop_assert_eq!(
                prep.handle().commit_seq(),
                direct.handle().commit_seq(),
                "prepared and direct execution diverged in commit history"
            );
        }
    }

    /// Conflicts are equivalent too: two writers racing on the same
    /// handle behave identically whether the loser's statements went
    /// through PREPARE/EXECUTE or direct text. Whatever the outcome of
    /// the race, it is the SAME outcome on both handles.
    #[test]
    fn prepared_conflicts_match_direct_conflicts(pop in 0i64..100) {
        let run = |prepared: bool| -> (bool, u64) {
            let handle = DbHandle::new(geo_db());
            let mut a = Session::shared(handle.clone());
            let mut b = Session::shared(handle.clone());
            if prepared {
                a.execute_rendered("PREPARE pw AS INSERT ATOM state (sname = $1, pop = $2)")
                    .unwrap();
            }
            a.execute_rendered("BEGIN").unwrap();
            let first = if prepared {
                a.execute_rendered(&format!("EXECUTE pw ('AA', {pop})"))
            } else {
                a.execute_rendered(&format!("INSERT ATOM state (sname = 'AA', pop = {pop})"))
            };
            first.unwrap();
            // b commits a competing write on the same atom type while
            // a's transaction is open
            b.execute_rendered(&format!("INSERT ATOM state (sname = 'BB', pop = {pop})"))
                .unwrap();
            let commit = a.execute_rendered("COMMIT");
            (commit.is_ok(), handle.commit_seq())
        };
        let (ok_p, seq_p) = run(true);
        let (ok_d, seq_d) = run(false);
        prop_assert_eq!(ok_p, ok_d, "conflict outcome diverged");
        prop_assert_eq!(seq_p, seq_d, "commit history diverged");
    }

    /// The plan cache is keyed by commit sequence: a committer on a
    /// *different* session of the same handle must be visible to the
    /// very next EXECUTE — the cached plan is revalidated, never stale.
    #[test]
    fn cached_plans_are_invalidated_by_concurrent_committers(
        batches in proptest::collection::vec(1usize..4, 1..6)
    ) {
        let handle = DbHandle::new(geo_db());
        let mut reader = Session::shared(handle.clone());
        let mut writer = Session::shared(handle);
        reader
            .execute_rendered("PREPARE qall AS SELECT ALL FROM state")
            .unwrap();
        let count_of = |text: &str| -> usize {
            let marker = " molecule(s)";
            let end = text.find(marker).expect("rendered SELECT has a count");
            let start = text[..end].rfind(|c: char| !c.is_ascii_digit()).map_or(0, |i| i + 1);
            text[start..end].parse().unwrap()
        };
        let mut expected = 5usize;
        // warm the plan cache, then interleave commits from the writer
        prop_assert_eq!(count_of(&reader.execute_rendered("EXECUTE qall").unwrap()), expected);
        for (round, batch) in batches.iter().enumerate() {
            for i in 0..*batch {
                writer
                    .execute_rendered(&format!(
                        "INSERT ATOM state (sname = 'W{round}_{i}', pop = {i})"
                    ))
                    .unwrap();
                expected += 1;
            }
            prop_assert_eq!(
                count_of(&reader.execute_rendered("EXECUTE qall").unwrap()),
                expected,
                "EXECUTE served a stale cached plan after a concurrent commit"
            );
        }
        // the fast path was actually exercised: one miss per
        // invalidating commit round (the plan had to be rebuilt)
        let counter = |name: &str| -> u64 {
            reader
                .obs()
                .snapshot(Some(name))
                .into_iter()
                .find_map(|(n, v)| match v {
                    mad::obs::MetricValue::Counter(c) if n == name => Some(c),
                    _ => None,
                })
                .unwrap_or(0)
        };
        prop_assert!(
            counter("mql.prepared.misses") >= batches.len() as u64,
            "expected a plan-cache miss per commit round"
        );
    }

    /// EXECUTE of a deallocated (or never-prepared) name is a clean
    /// UnknownName error: the session stays usable, other prepared
    /// statements survive, and re-preparing the name works.
    #[test]
    fn deallocated_execute_errors_cleanly(n in 0u16..999) {
        let mut s = Session::shared(DbHandle::new(geo_db()));
        s.execute_rendered("PREPARE gone AS SELECT ALL FROM state").unwrap();
        s.execute_rendered("PREPARE kept AS SELECT ALL FROM state WHERE state.pop > $1")
            .unwrap();
        s.execute_rendered("DEALLOCATE gone").unwrap();
        let err = s.execute_rendered("EXECUTE gone").unwrap_err();
        prop_assert!(
            matches!(&err, MadError::UnknownName { kind, .. } if *kind == "prepared statement"),
            "got: {err:?}"
        );
        // the session is not wedged: the surviving prepared statement
        // and plain statements still run
        s.execute_rendered(&format!("EXECUTE kept ({})", i64::from(n) % 12)).unwrap();
        s.execute_rendered(&format!("INSERT ATOM state (sname = 'X{n}', pop = 1)"))
            .unwrap();
        // deallocating twice is the same clean error
        let err = s.execute_rendered("DEALLOCATE gone").unwrap_err();
        prop_assert!(matches!(err, MadError::UnknownName { .. }), "got: {err:?}");
        // and the name can be re-prepared with a different body
        s.execute_rendered("PREPARE gone AS SELECT ALL FROM state WHERE state.pop > 100")
            .unwrap();
        let text = s.execute_rendered("EXECUTE gone").unwrap();
        prop_assert!(text.contains("0 molecule(s)"), "got: {text}");
    }
}
