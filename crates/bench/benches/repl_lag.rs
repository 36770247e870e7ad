//! B11 — streaming replication: lag vs write rate, sync-quorum commit
//! cost, and read throughput scaling across standby replicas.
//!
//! Like B10 this harness measures directly rather than through
//! `mad_bench::measure`: replication lag is a *distributed* observable
//! (primary commit sequence minus standby replicated sequence) sampled
//! while traffic runs, not a closed-loop iteration time. Everything runs
//! in-process over loopback, and one table has a row per metric:
//!
//! * `lag_commits/r<rate>` — mean standby lag in commits,
//!   sampled once per commit while a writer publishes at `rate`
//!   commits/sec (`r0` = unthrottled) against one async standby;
//! * `drain_ms/r<rate>` — after the burst, milliseconds until
//!   the standby has replayed everything the primary acknowledged;
//! * `commits_per_sec/<mode>` — direct-handle commit
//!   throughput with `async` acks vs a `quorum1` sync standby (the
//!   durability-of-acknowledgment price);
//! * `reads_per_sec/n<replicas>` — aggregate SELECT throughput
//!   of 8 TCP reader connections round-robined across `n` standby-backed
//!   servers (the scale-out story: every replica serves its own
//!   snapshot, so read throughput grows with the replica count).

use mad_bench::table;
use mad_model::Value;
use mad_net::{Client, Server};
use mad_repl::{ReplPrimary, Standby, StandbyConfig};
use mad_txn::{DbHandle, FsyncPolicy, ReplAck, Transaction};
use mad_workload::mixed_database;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One commit: insert a state atom and update it (two resolved ops).
fn commit_one(handle: &DbHandle, i: usize) {
    let db = handle.committed();
    let state = db.schema().atom_type_id("state").unwrap();
    let mut txn = Transaction::begin(handle);
    txn.insert_atom(
        state,
        vec![Value::from(format!("b11-{i}")), Value::from(i as f64)],
    )
    .unwrap();
    txn.commit().unwrap();
}

struct Cluster {
    primary: DbHandle,
    repl: ReplPrimary,
    standbys: Vec<Standby>,
    dir: PathBuf,
}

impl Cluster {
    fn start(tag: &str, standbys: usize) -> Cluster {
        let dir = std::env::temp_dir().join(format!("mad-b11-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let primary = DbHandle::create_durable(
            mixed_database().unwrap(),
            dir.join("primary.wal"),
            FsyncPolicy::Group,
        )
        .unwrap();
        let repl = ReplPrimary::start(primary.clone(), "127.0.0.1:0").unwrap();
        let addr = repl.local_addr().to_string();
        let standbys = (0..standbys)
            .map(|i| {
                Standby::start(StandbyConfig::new(
                    addr.clone(),
                    dir.join(format!("standby{i}.wal")),
                    FsyncPolicy::Group,
                ))
                .unwrap()
            })
            .collect();
        Cluster { primary, repl, standbys, dir }
    }

    fn stop(mut self) {
        self.repl.shutdown();
        let dir = self.dir.clone();
        drop(self);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Lag vs write rate: commit `quota` groups at `rate` commits/sec
/// (0 = unthrottled), sampling the standby's lag after every commit;
/// then time the post-burst drain.
fn bench_lag(results: &mut BTreeMap<String, f64>, rate: u64, quota: usize) {
    let cluster = Cluster::start(&format!("lag{rate}"), 1);
    let standby = &cluster.standbys[0];
    let period = (rate > 0).then(|| Duration::from_nanos(1_000_000_000 / rate));
    let mut lag_sum = 0u64;
    for i in 0..quota {
        let t = Instant::now();
        commit_one(&cluster.primary, i);
        lag_sum += cluster.primary.commit_seq() - standby.replicated_seq();
        if let Some(p) = period {
            if let Some(rest) = p.checked_sub(t.elapsed()) {
                std::thread::sleep(rest);
            }
        }
    }
    let target = cluster.primary.commit_seq();
    let t = Instant::now();
    while standby.replicated_seq() < target {
        std::thread::yield_now();
    }
    let drain = t.elapsed().as_secs_f64() * 1e3;
    results.insert(
        format!("lag_commits/r{rate}"),
        lag_sum as f64 / quota as f64,
    );
    results.insert(format!("drain_ms/r{rate}"), drain);
    cluster.stop();
}

/// Commit throughput: async acks vs a one-standby sync quorum.
fn bench_ack_modes(results: &mut BTreeMap<String, f64>, quota: usize) {
    for (mode, ack) in [("async", ReplAck::Async), ("quorum1", ReplAck::SyncQuorum(1))] {
        let cluster = Cluster::start(&format!("ack-{mode}"), 1);
        cluster.primary.set_repl_ack(ack);
        let t = Instant::now();
        for i in 0..quota {
            commit_one(&cluster.primary, i);
        }
        let wall = t.elapsed().as_secs_f64();
        results.insert(format!("commits_per_sec/{mode}"), quota as f64 / wall);
        cluster.stop();
    }
}

/// Read throughput at 1/2/4 replicas: 8 TCP readers round-robined over
/// `n` standby-backed servers, all querying the replicated population.
fn bench_read_scaling(results: &mut BTreeMap<String, f64>, quota: usize) {
    for replicas in [1usize, 2, 4] {
        let cluster = Cluster::start(&format!("read{replicas}"), replicas);
        // replicate a molecule population for the readers to chew on
        let db = cluster.primary.committed();
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let mut txn = Transaction::begin(&cluster.primary);
        for g in 0..32i64 {
            let s = txn
                .insert_atom(state, vec![Value::from(format!("g{g}")), Value::from(1.0)])
                .unwrap();
            for j in 0..4 {
                let a = txn.insert_atom(area, vec![Value::from(g * 10 + j)]).unwrap();
                txn.connect(sa, s, a).unwrap();
            }
        }
        txn.commit().unwrap();
        let target = cluster.primary.commit_seq();
        for s in &cluster.standbys {
            while s.replicated_seq() < target {
                std::thread::yield_now();
            }
        }
        let servers: Vec<Server> = cluster
            .standbys
            .iter()
            .map(|s| Server::serve(s.handle(), "127.0.0.1:0").unwrap())
            .collect();
        const READERS: usize = 8;
        let barrier = Barrier::new(READERS + 1);
        let wall = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..READERS)
                .map(|r| {
                    let (barrier, servers) = (&barrier, &servers);
                    scope.spawn(move || {
                        let addr = servers[r % servers.len()].local_addr();
                        let mut client = Client::connect(addr).expect("connect reader");
                        client
                            .execute("SELECT ALL FROM state-area WHERE state.sname = 'g7'")
                            .expect("warm-up");
                        barrier.wait();
                        for _ in 0..quota {
                            client
                                .execute("SELECT ALL FROM state-area WHERE state.sname = 'g7'")
                                .expect("bench read");
                        }
                    })
                })
                .collect();
            barrier.wait();
            let t = Instant::now();
            for j in joins {
                j.join().expect("reader thread");
            }
            t.elapsed().as_secs_f64()
        });
        results.insert(
            format!("reads_per_sec/n{replicas}"),
            (READERS * quota) as f64 / wall,
        );
        for s in servers {
            s.shutdown();
        }
        cluster.stop();
    }
}

fn main() {
    let mut results: BTreeMap<String, f64> = BTreeMap::new();
    for rate in [100u64, 500, 0] {
        bench_lag(&mut results, rate, 400);
    }
    bench_ack_modes(&mut results, 300);
    bench_read_scaling(&mut results, 200);

    let rows: Vec<Vec<String>> = results
        .into_iter()
        .map(|(k, v)| vec![k, format!("{v:.1}")])
        .collect();
    println!("B11 — streaming replication");
    print!("{}", table(&["metric", "value"], &rows));
}
