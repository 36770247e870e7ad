//! Everything derived from `--seed`: the database shape, the oracle the
//! responses are checked against, and each connection's statement script.
//! The engine sees only the MQL text produced here.

use mad_model::{MadError, Result, Value};
use mad_storage::Database;
use mad_workload::rng::StdRng;
use mad_workload::{generate_geo, GeoParams};
use std::borrow::Cow;

/// Closed-loop client connections (≤ `nproc` on the 2-core reference box:
/// design-tool callers that each wait for their reply).
pub const CONNECTIONS: usize = 2;
/// States both `mixed_contended` connections fight over.
pub const HOT_STATES: usize = 16;
/// Units per connection script; the window cycles through them.
const SCRIPT_LEN: usize = 4096;
/// `edges_per_state` of the `large` preset; fixes the rendered size of a
/// state molecule (state + area + 8 × (edge + 2 points) lines).
const EDGES_PER_STATE: usize = 8;
/// Distinct atoms of one generated state molecule: the state, its area,
/// the border edges and the points chained around them.
pub const MOLECULE_ATOMS: usize = 3 + 2 * EDGES_PER_STATE;
/// Inserted areas get ids above every generated one.
const FRESH_AID_BASE: u64 = 10_000_000;

const STRUCTURE: &str = "state-area-edge-point";

/// The four traffic mixes. Why each exists is recorded in `BENCHMARK.json`
/// and the README.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointRead,
    MoleculeScan,
    CommitDurable,
    MixedContended,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointRead,
        Workload::MoleculeScan,
        Workload::CommitDurable,
        Workload::MixedContended,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::MoleculeScan => "molecule_scan",
            Workload::CommitDurable => "commit_durable",
            Workload::MixedContended => "mixed_contended",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does the served handle write-ahead-log its commits?
    pub fn durable(self) -> bool {
        self == Workload::CommitDurable
    }

    /// The statement class whose round trip is the workload's `op_p50_us`
    /// when the operation is a single statement (`mixed_contended`'s
    /// operation is the whole transaction instead).
    pub fn op_kind(self) -> Kind {
        match self {
            Workload::PointRead | Workload::MoleculeScan => Kind::Read,
            Workload::CommitDurable | Workload::MixedContended => Kind::Commit,
        }
    }
}

/// `generate_geo` at the `large` preset of `mad_bench::presets` (800
/// states, share 0.5), seeded from `--seed`: one database shape for all
/// four workloads, so set-up is comparable.
pub fn geo_params(seed: u64) -> GeoParams {
    GeoParams {
        states: 800,
        edges_per_state: EDGES_PER_STATE,
        rivers: 160,
        edges_per_river: 12,
        share: 0.5,
        cities: 100,
        seed,
    }
}

/// What a correct response looks like, computed from the generated
/// database without going through the engine's derivation.
#[derive(Clone, Debug)]
pub struct Oracle {
    pub states: usize,
    /// `molecule_scan`'s `hectare > t`, placed so a quarter of the roots
    /// qualify.
    pub scan_threshold: f64,
    pub scan_molecules: usize,
    pub initial_areas: usize,
}

/// Rendered body lines of one generated state molecule with `areas`
/// areas: the state, its areas, and under the one generated area 8 edges
/// with 2 point lines each.
fn body_lines(areas: usize) -> usize {
    1 + areas + EDGES_PER_STATE * 3
}

pub fn generate(seed: u64) -> Result<(Database, Oracle)> {
    let (db, h) = generate_geo(&geo_params(seed))?;
    let mut hectares = Vec::new();
    for (_, tuple) in db.atoms_of(h.state) {
        match tuple.get(1) {
            Some(Value::Float(x)) => hectares.push(*x),
            other => {
                return Err(MadError::integrity(format!(
                    "generated state without a float hectare: {other:?}"
                )))
            }
        }
    }
    hectares.sort_by(f64::total_cmp);
    let states = hectares.len();
    let scan_molecules = states / 4;
    let cut = states - scan_molecules;
    let (Some(below), Some(above)) = (hectares.get(cut.wrapping_sub(1)), hectares.get(cut)) else {
        return Err(MadError::integrity("generated database has too few states"));
    };
    let oracle = Oracle {
        states,
        scan_threshold: (below + above) / 2.0,
        scan_molecules,
        initial_areas: db.atom_count(h.area),
    };
    Ok((db, oracle))
}

/// Statement classes the client times separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A SELECT.
    Read,
    /// The commit-bearing statement: autocommit DML or `COMMIT`.
    Commit,
    /// `BEGIN` and DML inside an explicit transaction.
    Other,
}

#[derive(Clone, Debug)]
pub struct Stmt {
    pub kind: Kind,
    pub mql: String,
}

fn stmt(kind: Kind, mql: String) -> Stmt {
    Stmt { kind, mql }
}

/// What an acknowledged unit lets the post-run check demand.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ack {
    Nothing,
    /// `hectare` of state `S<state>` is now `value`.
    Update {
        state: usize,
        value: f64,
    },
    /// State `N<conn>x<serial>` exists with four areas.
    InsertedState {
        serial: u64,
    },
    /// Two more areas hang off some hot state.
    InsertedAreas,
}

/// One closed-loop operation: a single statement, or a `BEGIN … COMMIT`
/// group the client retries as a whole on `TxnConflict`.
#[derive(Clone, Debug)]
pub enum Unit {
    Fixed {
        stmts: Vec<Stmt>,
        ack: Ack,
    },
    /// `commit_durable`'s insert group. Its names must be fresh on every
    /// lap through the script, so the text is built from the connection's
    /// running serial when the unit comes up, before the clock starts.
    InsertState,
    /// `mixed_contended`'s inserting transaction on `S<state>`; fresh
    /// area ids likewise.
    InsertAreas {
        state: usize,
    },
}

pub fn point_read(state: usize) -> String {
    format!("SELECT ALL FROM {STRUCTURE} WHERE state.sname = 'S{state}'")
}

fn update(state: usize, value: f64) -> String {
    format!("UPDATE state[sname='S{state}'] SET hectare = {value:?}")
}

pub fn inserted_state_name(conn: usize, serial: u64) -> String {
    format!("N{conn}x{serial}")
}

fn fresh_aid(conn: usize, serial: u64, j: u64) -> u64 {
    FRESH_AID_BASE + (serial * CONNECTIONS as u64 + conn as u64) * 4 + j
}

fn insert_area(aid: u64) -> Stmt {
    stmt(Kind::Other, format!("INSERT ATOM area (aid = {aid})"))
}

fn connect_area(sname: &str, aid: u64) -> Stmt {
    stmt(
        Kind::Other,
        format!("CONNECT state[sname='{sname}'] TO area[aid={aid}] VIA state-area"),
    )
}

/// The script of one connection.
#[derive(Clone, Debug)]
pub struct Script {
    pub conn: usize,
    pub units: Vec<Unit>,
}

impl Script {
    pub fn generate(workload: Workload, seed: u64, conn: usize, oracle: &Oracle) -> Script {
        let stream = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((workload as u64) << 8 | conn as u64);
        let mut rng = StdRng::seed_from_u64(stream);
        let read = |state| Unit::Fixed {
            stmts: vec![stmt(Kind::Read, point_read(state))],
            ack: Ack::Nothing,
        };
        let hectare = |rng: &mut StdRng| rng.gen_range(1000i64..20_000) as f64 / 10.0;
        // mixed_contended's hot set comes from the seed alone, so both
        // connections fight over the same states
        let mut hot_rng = StdRng::seed_from_u64(seed ^ 0x5eed_0b07);
        let mut hot: Vec<usize> = (0..oracle.states).collect();
        for i in 0..HOT_STATES.min(hot.len()) {
            let j = hot_rng.gen_range(i..hot.len());
            hot.swap(i, j);
        }
        hot.truncate(HOT_STATES);
        let units = (0..SCRIPT_LEN)
            .map(|i| match workload {
                Workload::PointRead => read(rng.gen_range(0..oracle.states)),
                Workload::MoleculeScan => Unit::Fixed {
                    stmts: vec![stmt(
                        Kind::Read,
                        format!(
                            "SELECT ALL FROM {STRUCTURE} WHERE state.hectare > {:?}",
                            oracle.scan_threshold
                        ),
                    )],
                    ack: Ack::Nothing,
                },
                Workload::CommitDurable => {
                    if i % 8 == 7 {
                        return Unit::InsertState;
                    }
                    // connection c owns the states k ≡ c (mod CONNECTIONS)
                    let owned = oracle.states / CONNECTIONS;
                    let state = rng.gen_range(0..owned) * CONNECTIONS + conn;
                    let value = hectare(&mut rng);
                    Unit::Fixed {
                        stmts: vec![stmt(Kind::Commit, update(state, value))],
                        ack: Ack::Update { state, value },
                    }
                }
                Workload::MixedContended => {
                    let state = hot[rng.gen_range(0..hot.len())];
                    if i % 2 == 0 {
                        read(state)
                    } else if rng.gen_bool(0.5) {
                        Unit::InsertAreas { state }
                    } else {
                        let value = hectare(&mut rng);
                        Unit::Fixed {
                            stmts: vec![
                                stmt(Kind::Other, "BEGIN".into()),
                                stmt(Kind::Read, point_read(state)),
                                stmt(Kind::Other, update(state, value)),
                                stmt(Kind::Commit, "COMMIT".into()),
                            ],
                            ack: Ack::Nothing,
                        }
                    }
                }
            })
            .collect();
        Script { conn, units }
    }

    /// The statements of `unit` and what their acknowledgment proves.
    /// `serial` numbers the connection's inserting units.
    pub fn materialize<'a>(&self, unit: &'a Unit, serial: &mut u64) -> (Cow<'a, [Stmt]>, Ack) {
        match unit {
            Unit::Fixed { stmts, ack } => (Cow::Borrowed(stmts), *ack),
            Unit::InsertState => {
                let s = *serial;
                *serial += 1;
                let name = inserted_state_name(self.conn, s);
                let mut stmts = vec![
                    stmt(Kind::Other, "BEGIN".into()),
                    stmt(
                        Kind::Other,
                        format!("INSERT ATOM state (sname = '{name}', hectare = 1.0)"),
                    ),
                ];
                for j in 0..4 {
                    let aid = fresh_aid(self.conn, s, j);
                    stmts.push(insert_area(aid));
                    stmts.push(connect_area(&name, aid));
                }
                stmts.push(stmt(Kind::Commit, "COMMIT".into()));
                (Cow::Owned(stmts), Ack::InsertedState { serial: s })
            }
            Unit::InsertAreas { state } => {
                let s = *serial;
                *serial += 1;
                let sname = format!("S{state}");
                let (a0, a1) = (fresh_aid(self.conn, s, 0), fresh_aid(self.conn, s, 1));
                // two areas per commit keep every hot state's area count
                // odd: a reader that sees an even count saw half a commit
                let stmts = vec![
                    stmt(Kind::Other, "BEGIN".into()),
                    stmt(Kind::Read, point_read(*state)),
                    insert_area(a0),
                    insert_area(a1),
                    connect_area(&sname, a0),
                    connect_area(&sname, a1),
                    stmt(Kind::Commit, "COMMIT".into()),
                ];
                (Cow::Owned(stmts), Ack::InsertedAreas)
            }
        }
    }

    /// The first `n` statements the connection would send, flattened —
    /// what the traced pass replays.
    pub fn first_statements(&self, n: usize) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(n);
        let mut serial = 0;
        for unit in self.units.iter().cycle() {
            let (stmts, _) = self.materialize(unit, &mut serial);
            for s in stmts.iter() {
                if out.len() == n {
                    return out;
                }
                out.push(s.clone());
            }
        }
        out
    }
}

/// Check one rendered SELECT result against the oracle: molecule count
/// from the header, atom occurrences from the body line count.
pub fn check_read(
    workload: Workload,
    oracle: &Oracle,
    text: &str,
) -> std::result::Result<(), String> {
    let header = text.lines().next().unwrap_or("");
    let molecules: usize = header
        .split(": ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("unreadable result header `{header}`"))?;
    let trailer = text
        .lines()
        .next_back()
        .is_some_and(|l| l.starts_with("shared subobjects"));
    let body = text
        .lines()
        .count()
        .saturating_sub(2 + usize::from(trailer));
    let (want_molecules, want_body) = match workload {
        Workload::MoleculeScan => (oracle.scan_molecules, oracle.scan_molecules * body_lines(1)),
        Workload::MixedContended => {
            let areas = text.lines().filter(|l| l.starts_with("  area ")).count();
            if areas % 2 == 0 {
                return Err(format!("state with a partial area set ({areas} areas)"));
            }
            (1, body_lines(areas))
        }
        Workload::PointRead | Workload::CommitDurable => (1, body_lines(1)),
    };
    if molecules != want_molecules || body != want_body {
        return Err(format!(
            "expected {want_molecules} molecule(s) over {want_body} lines, got {molecules} over {body}"
        ));
    }
    Ok(())
}
