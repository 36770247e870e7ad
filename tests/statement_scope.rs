//! Statement-scoped propagation: a top-level SELECT's DB′ (Def. 9) lives
//! until the session's next statement. A long-lived session therefore
//! neither grows with the statements it has run nor answers differently
//! from a fresh session over the same committed state.

use mad::mql::Session;
use mad::txn::DbHandle;
use mad::workload::brazil::STATES;
use mad::workload::brazil_database;
use proptest::prelude::*;

fn point_read(i: usize) -> String {
    format!(
        "SELECT ALL FROM state-area-edge-point WHERE state.sname = '{}'",
        STATES[i % STATES.len()].0
    )
}

/// Atom types, link types and atoms of the image the session reads.
fn image(s: &Session) -> (usize, usize, usize) {
    let db = s.db();
    (
        db.schema().atom_type_count(),
        db.schema().link_type_count(),
        db.total_atoms(),
    )
}

#[test]
fn long_lived_session_does_not_grow() {
    let (db, _) = brazil_database().unwrap();
    let mut s = Session::shared(DbHandle::new(db));
    let footprint = |s: &Session| (image(s), s.engine().provenance().atom_copies());

    s.execute(&point_read(0)).unwrap();
    let first = footprint(&s);
    for i in 1..10_000 {
        s.execute(&point_read(i)).unwrap();
    }
    assert_eq!(footprint(&s), first, "10 000 point reads grew the session");

    s.execute("PREPARE pr AS SELECT ALL FROM state-area-edge-point WHERE state.sname = 'SP'")
        .unwrap();
    for _ in 0..1_000 {
        s.execute("EXECUTE pr").unwrap();
    }
    assert!(
        s.obs().counter("mql.prepared.hits").get() >= 1_000,
        "fast path not taken"
    );
    assert_eq!(footprint(&s), first, "1 000 EXECUTEs grew the session");

    // SELECTs inside one read-only transaction run on its query engine
    s.execute("BEGIN").unwrap();
    for i in 0..1_000 {
        s.execute(&point_read(i)).unwrap();
        assert_eq!(
            image(&s),
            first.0,
            "in-transaction SELECT {i} grew the query fork"
        );
    }
    s.execute("COMMIT").unwrap();
}

/// One generated statement of the long-lived session.
#[derive(Clone, Debug)]
enum Op {
    /// Point read of state `i`.
    Read(usize),
    /// Projected scan over the states above a hectare threshold.
    Scan(u16),
    /// The symmetric point neighbourhood of point `p{i}`.
    Neighbourhood(usize),
    /// `EXECUTE scan` (cached plan) or `EXECUTE pr (state i)` (re-bound).
    Execute(Option<usize>),
    /// EXPLAIN of a point read.
    Explain(usize),
    /// Autocommit UPDATE of a state's hectare.
    Update(usize, u16),
    /// Autocommit INSERT of an area, then CONNECT it to a state.
    AddArea(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..10).prop_map(Op::Read),
        (0u16..1200).prop_map(Op::Scan),
        (0usize..40).prop_map(Op::Neighbourhood),
        (0usize..11).prop_map(|i| Op::Execute((i < 10).then_some(i))),
        (0usize..10).prop_map(Op::Explain),
        (0usize..10, 0u16..1200).prop_map(|(i, h)| Op::Update(i, h)),
        (0usize..10).prop_map(Op::AddArea),
    ]
}

const PREPARED: [&str; 2] = [
    "PREPARE scan AS SELECT ALL FROM state-area-edge WHERE state.hectare > 500.0",
    "PREPARE pr AS SELECT ALL FROM state-area-edge-point WHERE state.sname = $1",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every reply of a long-lived session is byte-equal to the reply of
    /// a fresh session opened over the same committed state.
    #[test]
    fn long_lived_session_answers_like_a_fresh_one(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let (db, _) = brazil_database().unwrap();
        let handle = DbHandle::new(db);
        let mut long = Session::shared(handle.clone());
        for p in PREPARED {
            long.execute(p).unwrap();
        }
        let mut next_aid = 1000;
        for op in &ops {
            let stmt = match *op {
                Op::Read(i) => point_read(i),
                Op::Scan(h) => {
                    format!("SELECT state.sname, area FROM state-area-edge WHERE state.hectare > {h}.0")
                }
                Op::Neighbourhood(i) => {
                    format!("SELECT ALL FROM point-edge-(area-state,net-river) WHERE point.pname = 'p{i}'")
                }
                Op::Execute(None) => "EXECUTE scan".to_owned(),
                Op::Execute(Some(i)) => format!("EXECUTE pr ('{}')", STATES[i].0),
                Op::Explain(i) => format!("EXPLAIN {}", point_read(i)),
                Op::Update(i, h) => {
                    long.execute(&format!(
                        "UPDATE state[sname='{}'] SET hectare = {h}.0",
                        STATES[i].0
                    ))
                    .unwrap();
                    continue;
                }
                Op::AddArea(i) => {
                    next_aid += 1;
                    long.execute(&format!("INSERT ATOM area (aid = {next_aid})")).unwrap();
                    long.execute(&format!(
                        "CONNECT state[sname='{}'] TO area[aid={next_aid}] VIA state-area",
                        STATES[i].0
                    ))
                    .unwrap();
                    continue;
                }
            };
            let mut fresh = Session::shared(handle.clone());
            for p in PREPARED {
                fresh.execute(p).unwrap();
            }
            prop_assert_eq!(
                long.execute_rendered(&stmt).unwrap(),
                fresh.execute_rendered(&stmt).unwrap(),
                "`{}` answered differently on the long-lived session", stmt
            );
        }
    }
}
