//! Set-up, the closed-loop timed window over loopback, and the
//! correctness checks that follow it.

use crate::gen::{self, Ack, Kind, Oracle, Script, Stmt, Workload, CONNECTIONS};
use mad_model::{FxHashMap, MadError, Result, Value};
use mad_net::{Client, ClientConfig, Server};
use mad_storage::database::Direction;
use mad_storage::Database;
use mad_txn::{CheckpointPolicy, DbHandle, FsyncPolicy};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The fsync policy of `commit_durable` (recorded in the host stamp).
pub const FSYNC: FsyncPolicy = FsyncPolicy::Group;
/// Auto-checkpoint every this many commits, so several checkpoints (and
/// the stalls they cause) fall inside one `commit_durable` window.
pub const CHECKPOINT_EVERY_COMMITS: u64 = 4000;
/// A transaction answered `TxnConflict` is retried as a whole this often.
const MAX_TRIES: u32 = 8;
/// A reply slower than this is a failed statement and ends the connection.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// States sampled for the post-window `check_molecule` pass.
const SAMPLE_MOLECULES: usize = 32;

/// A served database with its connected clients.
pub struct Bench {
    pub workload: Workload,
    pub oracle: Oracle,
    pub scripts: Vec<Script>,
    pub handle: DbHandle,
    pub server: Server,
    pub clients: Vec<Client>,
    /// The log's manifest path when the handle is durable.
    pub wal: Option<PathBuf>,
}

/// Open the handle a workload is served from: non-durable, or a fresh
/// write-ahead log under `dir`.
pub fn open_handle(db: Database, durable_in: Option<&Path>) -> Result<(DbHandle, Option<PathBuf>)> {
    let Some(dir) = durable_in else {
        return Ok((DbHandle::new(db), None));
    };
    std::fs::create_dir_all(dir).map_err(|e| MadError::io(format!("create {dir:?}: {e}")))?;
    let wal = dir.join("db.wal");
    let handle = DbHandle::create_durable(db, &wal, FSYNC)?;
    handle.set_checkpoint_policy(CheckpointPolicy {
        max_bytes: None,
        max_commits: Some(CHECKPOINT_EVERY_COMMITS),
    });
    Ok((handle, Some(wal)))
}

pub fn connect(server: &Server) -> Result<Client> {
    Client::connect_with(
        server.local_addr(),
        ClientConfig {
            read_timeout: Some(REPLY_TIMEOUT),
            write_timeout: Some(REPLY_TIMEOUT),
        },
    )
}

/// Everything `setup_s` covers: generate, open or create the handle,
/// serve, connect, warm the caches (the CSR snapshot and each session's
/// fork). Returns the bench and the seconds it took.
pub fn setup(workload: Workload, seed: u64, dir: &Path) -> Result<(Bench, f64)> {
    let started = Instant::now();
    let (db, oracle) = gen::generate(seed)?;
    let _ = db.csr_snapshot();
    let durable_in = workload.durable().then_some(dir);
    let (handle, wal) = open_handle(db, durable_in)?;
    let server = Server::serve(handle.clone(), "127.0.0.1:0")?;
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let mut client = connect(&server)?;
        client.execute(&gen::point_read(0))?;
        clients.push(client);
    }
    let setup_s = started.elapsed().as_secs_f64();
    // the scripts are the benchmark's own inputs, not the system's set-up
    let scripts = (0..CONNECTIONS)
        .map(|conn| Script::generate(workload, seed, conn, &oracle))
        .collect();
    let bench = Bench {
        workload,
        oracle,
        scripts,
        handle,
        server,
        clients,
        wal,
    };
    Ok((bench, setup_s))
}

/// What one connection measured and what it was acknowledged.
#[derive(Default)]
struct ConnLog {
    read_ns: Vec<u64>,
    commit_ns: Vec<u64>,
    txn_ns: Vec<u64>,
    max_ns: u64,
    ok: u64,
    attempted: u64,
    failed: u64,
    conflicts: u64,
    elapsed_s: f64,
    breaches: Vec<String>,
}

/// Acknowledged writes, kept across warm-up and window: every one of them
/// must be there afterwards.
#[derive(Default)]
pub struct Acked {
    /// Last acknowledged `hectare` per owned state.
    pub updates: FxHashMap<usize, f64>,
    /// Serials of acknowledged inserted states, by connection.
    pub inserted_states: Vec<(usize, u64)>,
    /// Acknowledged commits that each inserted two areas.
    pub inserting_commits: u64,
}

impl Acked {
    fn record(&mut self, conn: usize, ack: Ack) {
        match ack {
            Ack::Nothing => {}
            Ack::Update { state, value } => {
                self.updates.insert(state, value);
            }
            Ack::InsertedState { serial } => self.inserted_states.push((conn, serial)),
            Ack::InsertedAreas => self.inserting_commits += 1,
        }
    }

    fn merge(&mut self, other: Acked) {
        self.updates.extend(other.updates);
        self.inserted_states.extend(other.inserted_states);
        self.inserting_commits += other.inserting_commits;
    }
}

/// The timed window's client-side numbers.
#[derive(Default)]
pub struct Window {
    /// Sorted round trips of SELECTs, commit-bearing statements and whole
    /// transactions (BEGIN → acknowledged COMMIT, retries included).
    pub read_ns: Vec<u64>,
    pub commit_ns: Vec<u64>,
    pub txn_ns: Vec<u64>,
    pub max_ns: u64,
    pub stmts_ok: u64,
    pub attempted: u64,
    /// Statements that errored, timed out, or belonged to a transaction
    /// that exhausted its retries. A `TxnConflict` that a retry resolved
    /// is not a failure; it is counted in `conflicts`.
    pub failed: u64,
    pub conflicts: u64,
    /// OK statements per second, summed over the connections.
    pub stmts_per_s: f64,
    pub elapsed_s: f64,
    /// Largest commit-log length seen by the sampler (traced runs only).
    pub commit_log_len_max: usize,
    pub breaches: Vec<String>,
    pub acked: Acked,
}

struct Driver<'a> {
    workload: Workload,
    oracle: &'a Oracle,
    script: &'a Script,
    client: &'a mut Client,
    log: ConnLog,
    acked: Acked,
}

impl Driver<'_> {
    /// One statement round trip; `Ok(false)` is a `TxnConflict` answer.
    fn send(&mut self, stmt: &Stmt) -> Result<bool> {
        self.log.attempted += 1;
        let started = Instant::now();
        let reply = self.client.execute(&stmt.mql);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match reply {
            Ok(text) => {
                self.log.ok += 1;
                self.log.max_ns = self.log.max_ns.max(ns);
                match stmt.kind {
                    Kind::Read => {
                        self.log.read_ns.push(ns);
                        if let Err(why) = gen::check_read(self.workload, self.oracle, &text) {
                            if self.log.breaches.len() < 8 {
                                self.log.breaches.push(format!("`{}`: {why}", stmt.mql));
                            }
                        }
                    }
                    Kind::Commit => self.log.commit_ns.push(ns),
                    Kind::Other => {}
                }
                Ok(true)
            }
            Err(e) if e.is_conflict() => {
                self.log.conflicts += 1;
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Run one unit to its acknowledgment. `Err` means the connection is
    /// unusable (transport failure or timeout).
    fn run_unit(&mut self, stmts: &[Stmt], ack: Ack) -> Result<()> {
        let started = Instant::now();
        let is_txn = stmts.len() > 1;
        for _ in 0..MAX_TRIES {
            let mut conflicted = false;
            for stmt in stmts {
                match self.send(stmt) {
                    Ok(true) => {}
                    Ok(false) => {
                        // a conflicting COMMIT has already aborted; any
                        // other statement leaves the transaction open
                        if is_txn && stmt.kind != Kind::Commit {
                            let _ = self.client.execute("ABORT");
                        }
                        conflicted = true;
                        break;
                    }
                    Err(e) if matches!(e, MadError::Io { .. } | MadError::Protocol { .. }) => {
                        self.log.failed += 1;
                        return Err(e);
                    }
                    Err(_) => {
                        self.log.failed += 1;
                        if is_txn {
                            let _ = self.client.execute("ABORT");
                        }
                        return Ok(());
                    }
                }
            }
            if !conflicted {
                if is_txn {
                    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    self.log.txn_ns.push(ns);
                }
                self.acked.record(self.script.conn, ack);
                return Ok(());
            }
        }
        // retries exhausted: the operation failed
        self.log.failed += 1;
        Ok(())
    }

    /// Closed loop: warm up until `measure_from`, then measure until
    /// `stop_at`. A unit begun before the deadline runs to completion.
    fn drive(mut self, measure_from: Instant, stop_at: Instant) -> (ConnLog, Acked) {
        let mut serial = 0;
        let mut measuring_since = None;
        for unit in self.script.units.iter().cycle() {
            let now = Instant::now();
            if now >= stop_at {
                break;
            }
            if measuring_since.is_none() && now >= measure_from {
                // the counts start over; a breach seen while warming up stays
                let breaches = std::mem::take(&mut self.log.breaches);
                self.log = ConnLog {
                    breaches,
                    ..ConnLog::default()
                };
                measuring_since = Some(now);
            }
            let (stmts, ack) = self.script.materialize(unit, &mut serial);
            if self.run_unit(&stmts, ack).is_err() {
                break;
            }
        }
        let since = measuring_since.unwrap_or(measure_from);
        self.log.elapsed_s = since.elapsed().as_secs_f64();
        (self.log, self.acked)
    }
}

/// Drive every connection through warm-up and the timed window. With
/// `sample_commit_log`, the calling thread samples the handle's commit
/// log length meanwhile (traced runs; the end-to-end runs keep it idle).
pub fn window(
    bench: &mut Bench,
    warmup: Duration,
    measure: Duration,
    sample_commit_log: bool,
) -> Window {
    let (workload, oracle, handle) = (bench.workload, &bench.oracle, &bench.handle);
    let barrier = Barrier::new(CONNECTIONS + 1);
    let mut out = Window::default();
    let logs: Vec<(ConnLog, Acked)> = std::thread::scope(|scope| {
        let joins: Vec<_> = bench
            .clients
            .iter_mut()
            .zip(&bench.scripts)
            .map(|(client, script)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let driver = Driver {
                        workload,
                        oracle,
                        script,
                        client,
                        log: ConnLog::default(),
                        acked: Acked::default(),
                    };
                    barrier.wait();
                    let start = Instant::now();
                    driver.drive(start + warmup, start + warmup + measure)
                })
            })
            .collect();
        barrier.wait();
        let stop_at = Instant::now() + warmup + measure;
        while Instant::now() < stop_at {
            if sample_commit_log {
                out.commit_log_len_max = out.commit_log_len_max.max(handle.commit_log_len());
                std::thread::sleep(Duration::from_millis(2));
            } else {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| (lost_connection(), Acked::default()))
            })
            .collect()
    });
    for (log, acked) in logs {
        out.read_ns.extend(log.read_ns);
        out.commit_ns.extend(log.commit_ns);
        out.txn_ns.extend(log.txn_ns);
        out.max_ns = out.max_ns.max(log.max_ns);
        out.stmts_ok += log.ok;
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.conflicts += log.conflicts;
        if log.elapsed_s > 0.0 {
            out.stmts_per_s += log.ok as f64 / log.elapsed_s;
        }
        out.elapsed_s = out.elapsed_s.max(log.elapsed_s);
        out.breaches.extend(log.breaches);
        out.acked.merge(acked);
    }
    out.read_ns.sort_unstable();
    out.commit_ns.sort_unstable();
    out.txn_ns.sort_unstable();
    out
}

/// The log of a client thread that panicked: one failed operation.
fn lost_connection() -> ConnLog {
    ConnLog {
        attempted: 1,
        failed: 1,
        breaches: vec!["a client thread panicked".into()],
        ..ConnLog::default()
    }
}

/// VmHWM of this process in MB.
pub fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| MadError::io(format!("read /proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| MadError::io("no VmHWM line in /proc/self/status"))
}

/// Stop serving and check the database against what the clients were
/// acknowledged. Returns the breaches found; consumes the bench because
/// the durable check reopens the log from disk.
pub fn verify(bench: Bench, window: &Window) -> Result<Vec<String>> {
    let Bench {
        workload,
        oracle,
        handle,
        server,
        clients,
        wal,
        ..
    } = bench;
    drop(clients);
    server.shutdown();
    let mut breaches = window.breaches.clone();
    let db = match &wal {
        None => handle.committed(),
        Some(path) => {
            // every handle clone is gone once the server is: reopen what
            // the log holds, not what memory remembers
            drop(handle);
            DbHandle::open_durable(path, FSYNC)?.committed()
        }
    };
    let schema = db.schema();
    let (state, area) = (schema.atom_type_id("state")?, schema.atom_type_id("area")?);
    let state_area = schema.link_type_id("state-area")?;
    let by_name: FxHashMap<&str, (mad_model::AtomId, &Value)> = db
        .atoms_of(state)
        .filter_map(|(id, t)| match t {
            [Value::Text(name), hectare] => Some((name.as_str(), (id, hectare))),
            _ => None,
        })
        .collect();
    match workload {
        Workload::PointRead | Workload::MoleculeScan => {
            // derive a sample root by root (not the bitset path the
            // statements took) and hold each molecule to Def. 6
            let md = mad_core::structure::path(schema, &["state", "area", "edge", "point"])?;
            let step = (oracle.states / SAMPLE_MOLECULES).max(1);
            for k in (0..oracle.states).step_by(step) {
                let name = format!("S{k}");
                let Some(&(root, _)) = by_name.get(name.as_str()) else {
                    breaches.push(format!("state {name} is missing"));
                    continue;
                };
                let m = mad_core::derive::derive_one(&db, &md, root)?;
                if let Err(e) = mad_core::derive::check_molecule(&db, &md, &m) {
                    breaches.push(format!("check_molecule({name}): {e}"));
                }
                let atoms = m.atom_set().len();
                if atoms != gen::MOLECULE_ATOMS {
                    breaches.push(format!(
                        "{name} has {atoms} atoms, the generator made {}",
                        gen::MOLECULE_ATOMS
                    ));
                }
            }
        }
        Workload::CommitDurable => {
            let mut lost = 0u64;
            for (k, want) in &window.acked.updates {
                let got = by_name.get(format!("S{k}").as_str()).map(|(_, h)| *h);
                if got != Some(&Value::Float(*want)) {
                    lost += 1;
                }
            }
            for &(conn, serial) in &window.acked.inserted_states {
                let name = gen::inserted_state_name(conn, serial);
                let areas = by_name
                    .get(name.as_str())
                    .map(|(id, _)| db.partners(state_area, *id, Direction::Fwd).len());
                if areas != Some(4) {
                    lost += 1;
                }
            }
            if lost > 0 {
                breaches.push(format!("acked_lost = {lost} after reopening the log"));
            }
        }
        Workload::MixedContended => {
            let want = oracle.initial_areas as u64 + 2 * window.acked.inserting_commits;
            let got = db.atom_count(area) as u64;
            if got != want {
                breaches.push(format!(
                    "{got} areas after {} acknowledged inserting commits, expected {want}",
                    window.acked.inserting_commits
                ));
            }
        }
    }
    Ok(breaches)
}
