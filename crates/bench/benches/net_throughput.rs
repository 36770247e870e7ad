//! B10 — the network front-end: statement throughput and latency
//! percentiles at 1/4/16/64/256 concurrent connections.
//!
//! This harness needs *per-statement* latency distributions (p50/p99), so
//! it times every round-trip itself rather than through
//! `mad_bench::measure`: `N` client threads each push a fixed statement
//! quota through one in-process [`mad_net::Server`] on loopback, and one
//! table row per `(kind, N)` reports
//!
//! * `stmts/s` — completed statements per second across all `N`
//!   connections (wall clock of the whole burst),
//! * `p50 ns`, `p99 ns` — round-trip latency percentiles in nanoseconds,
//!
//! for `kind = read` (a pushdown SELECT), `kind = prepared` (the same
//! SELECT as a server-side prepared statement: `PREPARE` once per
//! connection, then `EXECUTE` — prices the parse/plan cache against the
//! re-parsing `read` row) and `kind = update` (autocommit DML, one
//! implicit transaction per statement, conflict-free across
//! connections). The handle is non-durable: B10 prices the protocol +
//! session + commit path, B9 already prices fsync schedules.
//!
//! The per-connection quota shrinks above 16 connections so the total
//! statement volume stays bounded; throughput is still per-second over
//! the whole burst.

use mad_bench::table;
use mad_model::Value;
use mad_net::{Client, Server};
use mad_txn::DbHandle;
use mad_workload::mixed_database;
use std::sync::Barrier;
use std::time::Instant;

const CONNECTIONS: [usize; 5] = [1, 4, 16, 64, 256];

/// Statement generator of one bench kind: `(connection, iteration) → MQL`.
type StmtGen = Box<dyn Fn(usize, usize) -> String + Sync>;
/// Optional once-per-connection setup statement: `connection → MQL`.
type SetupGen<'a> = Option<&'a (dyn Fn(usize) -> String + Sync)>;

fn populated_handle(conns: usize) -> DbHandle {
    let mut db = mixed_database().unwrap();
    let state = db.schema().atom_type_id("state").unwrap();
    let area = db.schema().atom_type_id("area").unwrap();
    let sa = db.schema().link_type_id("state-area").unwrap();
    // one private state per connection (conflict-free update target) plus
    // a shared molecule population for the SELECTs
    for w in 0..conns {
        db.insert_atom(state, vec![Value::from(format!("w{w}")), Value::from(0.0)])
            .unwrap();
    }
    for g in 0..64i64 {
        let s = db
            .insert_atom(state, vec![Value::from(format!("g{g}")), Value::from(1.0)])
            .unwrap();
        let ids = db
            .insert_atoms(area, (0..4).map(|j| vec![Value::from(g * 10 + j)]))
            .unwrap();
        for a in ids {
            db.connect(sa, s, a).unwrap();
        }
    }
    let _ = db.csr_snapshot();
    DbHandle::new(db)
}

/// Drive `conns` clients, each issuing `quota` statements produced by
/// `stmt(conn, i)`; returns every round-trip latency in ns plus the
/// burst's wall-clock seconds.
fn burst(
    addr: std::net::SocketAddr,
    conns: usize,
    quota: usize,
    setup: SetupGen<'_>,
    stmt: impl Fn(usize, usize) -> String + Sync,
) -> (Vec<u64>, f64) {
    let barrier = Barrier::new(conns + 1);
    let mut all = Vec::with_capacity(conns * quota);
    let wall = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..conns {
            let (barrier, stmt) = (&barrier, &stmt);
            joins.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect to bench server");
                if let Some(setup) = setup {
                    client.execute(&setup(c)).expect("per-connection setup statement");
                }
                // warm the connection and the session's fork
                client.execute(&stmt(c, 0)).expect("warm-up statement");
                let mut lat = Vec::with_capacity(quota);
                barrier.wait();
                for i in 0..quota {
                    let t = Instant::now();
                    client.execute(&stmt(c, i)).expect("bench statement");
                    lat.push(t.elapsed().as_nanos() as u64);
                }
                lat
            }));
        }
        barrier.wait();
        let t = Instant::now();
        for j in joins {
            all.extend(j.join().expect("bench client thread"));
        }
        t.elapsed().as_secs_f64()
    });
    (all, wall)
}

// nearest-rank percentile over exact samples, shared with the
// observability layer (whose histograms bucket the same statistic)
use mad_obs::percentile_sorted as percentile;

/// Statements per connection below 16 connections.
const QUOTA: usize = 300;

fn main() {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for conns in CONNECTIONS {
        // keep the total statement volume bounded at high connection
        // counts; throughput stays a per-second rate over the burst
        let per_conn = if conns > 16 {
            (QUOTA * 16 / conns).max(12)
        } else {
            QUOTA
        };
        let server = Server::serve(populated_handle(conns), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        // zero-parameter form: the session caches the plan keyed by the
        // base snapshot, so EXECUTE skips both parse and plan until a
        // commit invalidates it (a parameterized EXECUTE still replans)
        let prepare: &(dyn Fn(usize) -> String + Sync) = &|_| {
            "PREPARE q AS SELECT ALL FROM state-area WHERE state.sname = 'g7'".to_owned()
        };
        let kinds: [(&str, SetupGen, StmtGen); 3] = [
            (
                "read",
                None,
                Box::new(|_, _| {
                    "SELECT ALL FROM state-area WHERE state.sname = 'g7'".to_owned()
                }),
            ),
            (
                "prepared",
                Some(prepare),
                Box::new(|_, _| "EXECUTE q".to_owned()),
            ),
            (
                "update",
                None,
                Box::new(|c, i| format!("UPDATE state[sname='w{c}'] SET hectare = {i}.0")),
            ),
        ];
        for (kind, setup, stmt) in kinds {
            let (mut lat, wall) = burst(addr, conns, per_conn, setup, stmt);
            lat.sort_unstable();
            let total = lat.len() as f64;
            rows.push(vec![
                kind.to_owned(),
                format!("c{conns}"),
                format!("{:.1}", total / wall),
                format!("{:.0}", percentile(&lat, 0.50)),
                format!("{:.0}", percentile(&lat, 0.99)),
            ]);
        }
        server.shutdown();
    }

    println!("B10 — network front-end over loopback");
    print!(
        "{}",
        table(&["kind", "conns", "stmts/s", "p50 ns", "p99 ns"], &rows)
    );
}
