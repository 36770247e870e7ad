//! The warm standby: continuous replay of the primary's commit stream
//! into a local WAL and a read-only serving handle, plus promotion.

use crate::proto::{recv_msg, send_msg, ReplMsg, REPL_MAGIC, REPL_PROTOCOL_VERSION};
use mad_model::{MadError, Result};
use mad_storage::Database;
use mad_txn::DbHandle;
use mad_wal::{apply_op, FaultPlan, FsyncPolicy, Wal, WalOp, WalRecord};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How a [`Standby`] reaches its primary and persists the stream.
#[derive(Clone, Debug)]
pub struct StandbyConfig {
    /// The primary's replication listener address.
    pub primary_addr: String,
    /// The standby's **own** write-ahead log (its durability; promotion
    /// recovers from exactly this file).
    pub wal_path: PathBuf,
    /// When the standby's appends reach stable storage — governs what
    /// its [`ReplMsg::Ack`]s promise.
    pub fsync: FsyncPolicy,
    /// First reconnect backoff; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Deterministic fault injection armed on the standby's **own** WAL
    /// (the failover scenario's storage-fault hook): a tripped append or
    /// fsync must end in a clean halt, never silent divergence.
    pub fault: Option<FaultPlan>,
}

impl StandbyConfig {
    /// A config with the default backoff (10 ms base, 500 ms ceiling).
    pub fn new(primary_addr: impl Into<String>, wal_path: impl Into<PathBuf>, fsync: FsyncPolicy) -> Self {
        StandbyConfig {
            primary_addr: primary_addr.into(),
            wal_path: wal_path.into(),
            fsync,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            fault: None,
        }
    }
}

#[derive(Debug, Default)]
struct Shared {
    /// The live connection, kept so `stop`/`promote` can unblock a read.
    conn: Mutex<Option<TcpStream>>,
    records_applied: AtomicU64,
    reconnects: AtomicU64,
    /// The commit sequence last published for reading (mirrors the
    /// serving handle's cursor; kept here so the `repl.standby.*` gauges
    /// need only a weak reference to this state, never to the handle —
    /// the handle owns the registry the gauges live in).
    replicated_seq: AtomicU64,
    /// A clean halt: the replayer refused to continue (local WAL fault,
    /// replay divergence) and recorded why, rather than serving state it
    /// cannot vouch for.
    halted: Mutex<Option<String>>,
}

/// A warm standby: one background thread receives the primary's record
/// stream, appends each commit to the standby's **own** WAL, waits for
/// it to be durable per the configured [`FsyncPolicy`], replays it
/// through the same integrity-checked [`apply_op`] path recovery uses,
/// publishes the new state on a read-only [`DbHandle`] (ordinary
/// sessions serve snapshot reads from it), and acknowledges the sequence
/// back to the primary.
///
/// Failure handling is two-tier:
/// * **Stream trouble** (disconnect, torn frame, out-of-order record) —
///   drop the connection and reconnect with bounded exponential backoff,
///   resuming from the durable cursor; duplicates are skipped by
///   sequence number, so redelivery is idempotent.
/// * **Local trouble** (WAL append/fsync failure, replay divergence) —
///   **halt cleanly**: record the reason ([`Standby::halt_reason`]), stop
///   ingesting, keep serving the last verified state. A standby never
///   silently diverges — it either converges on the primary's history or
///   stops with a diagnosis.
#[derive(Debug)]
pub struct Standby {
    handle: DbHandle,
    stop: Arc<AtomicBool>,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
    wal_path: PathBuf,
    fsync: FsyncPolicy,
}

/// What promotion found while turning the standby's log into a primary.
#[derive(Clone, Copy, Debug)]
pub struct PromotionReport {
    /// The promoted handle's commit sequence (last replicated commit).
    pub last_seq: u64,
    /// Commits replayed by the promotion recovery pass.
    pub commits_replayed: u64,
    /// Bytes of torn tail truncated (a mid-record disconnect's residue).
    pub truncated_bytes: u64,
}

impl Standby {
    /// Start a standby. If `wal_path` already holds a log, the standby
    /// recovers from it first and resumes replication at its cursor;
    /// otherwise the primary must be reachable now — `start` performs
    /// the initial handshake synchronously and waits for the bootstrap
    /// image, so the returned standby always has a serving handle.
    pub fn start(config: StandbyConfig) -> Result<Standby> {
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared::default());

        // establish the initial local state: recovered log, or a
        // synchronously fetched bootstrap image
        let (ingest, conn) = if config.wal_path.exists() {
            let (wal, db, info) = Wal::recover(&config.wal_path, config.fsync)?;
            (
                Ingest {
                    wal,
                    db,
                    have: info.last_seq,
                    fault: config.fault,
                },
                None,
            )
        } else {
            let mut conn = Conn::establish(&config, Some(&shared))?;
            conn.hello(None)?;
            let ingest = match conn.recv()? {
                Some(ReplMsg::Record(WalRecord::Bootstrap { base_seq, snapshot })) => {
                    let db = snapshot.restore()?;
                    let wal = Wal::create_at_seq(&config.wal_path, &db, base_seq, config.fsync)?;
                    Ingest {
                        wal,
                        db,
                        have: base_seq,
                        fault: config.fault,
                    }
                }
                Some(_) => {
                    return Err(MadError::protocol(
                        "primary did not open a fresh standby's stream with a bootstrap image",
                    ))
                }
                None => {
                    return Err(MadError::protocol(
                        "primary closed the stream before the bootstrap image",
                    ))
                }
            };
            conn.ack(ingest.have)?;
            (ingest, Some(conn))
        };
        ingest.wal.set_fault_plan(ingest.fault);

        // every replicated commit publishes a clone of `ingest.db`, and a
        // clone inherits its CSR cache: warm the image replay keeps
        // applying to, not only the handle's first copy of it
        let _ = ingest.db.csr_snapshot();
        let handle = DbHandle::new_read_only(ingest.db.clone(), ingest.have);
        shared.replicated_seq.store(ingest.have, Ordering::SeqCst);
        register_standby_gauges(&handle, &shared);
        let thread = {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            let config = config.clone();
            std::thread::spawn(move || ingest_loop(ingest, conn, handle, stop, shared, config))
        };
        Ok(Standby {
            handle,
            stop,
            shared,
            thread: Some(thread),
            wal_path: config.wal_path,
            fsync: config.fsync,
        })
    }

    /// The read-only serving handle (clone it into sessions/servers).
    pub fn handle(&self) -> DbHandle {
        self.handle.clone()
    }

    /// The highest commit sequence published for reading.
    pub fn replicated_seq(&self) -> u64 {
        self.handle.commit_seq()
    }

    /// Commit records applied since start.
    pub fn records_applied(&self) -> u64 {
        self.shared.records_applied.load(Ordering::SeqCst)
    }

    /// Reconnection attempts since start.
    pub fn reconnects(&self) -> u64 {
        self.shared.reconnects.load(Ordering::SeqCst)
    }

    /// Why the replayer halted, if it did (see the type docs) — `None`
    /// while it is live.
    pub fn halt_reason(&self) -> Option<String> {
        self.shared.halted.lock().unwrap().clone()
    }

    /// **Promote** this standby to a writable primary:
    ///
    /// 1. seal the replication cursor — stop and join the ingest thread,
    ///    so nothing appends to the log after this point;
    /// 2. verify prefix consistency — reopen the log through
    ///    [`DbHandle::open_durable`], whose recovery pass re-checks every
    ///    frame's CRC, truncates any torn tail a mid-record disconnect
    ///    left behind, and replays each commit through the full storage
    ///    integrity machinery (slot verification included);
    /// 3. return the recovered handle, open for writes, its WAL
    ///    positioned for appending at the next sequence.
    ///
    /// The old read-only handle keeps serving its last state; readers
    /// should re-attach to the promoted handle. Errors if recovery lands
    /// *behind* the sequence the standby had already published for reads
    /// — that would mean acknowledged records were lost locally.
    pub fn promote(mut self) -> Result<(DbHandle, PromotionReport)> {
        self.stop_ingest();
        let published = self.handle.commit_seq();
        let promoted = DbHandle::open_durable(&self.wal_path, self.fsync)?;
        let info = promoted
            .recovery_info()
            .expect("open_durable always records recovery info");
        if info.last_seq < published {
            return Err(MadError::wal(format!(
                "promotion lost acknowledged history: log recovered to sequence {} \
                 but sequence {published} was already serving reads",
                info.last_seq
            )));
        }
        Ok((
            promoted,
            PromotionReport {
                last_seq: info.last_seq,
                commits_replayed: info.commits_replayed,
                truncated_bytes: info.truncated_bytes,
            },
        ))
    }

    /// Stop replicating without promoting (the handle keeps serving the
    /// last replicated state). Idempotent; also run by `Drop`.
    pub fn stop_ingest(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(conn) = self.shared.conn.lock().unwrap().take() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Standby {
    fn drop(&mut self) {
        self.stop_ingest();
    }
}

/// Register the standby's `repl.standby.*` poll-gauges in its serving
/// handle's registry, so sessions over the read-only handle can
/// `SHOW STATS repl` the replication cursor, apply counters, and — as a
/// text row — any clean-halt diagnosis. The gauges capture only a
/// [`std::sync::Weak`] of the ingest state; they vanish from snapshots
/// once the standby is dropped.
fn register_standby_gauges(handle: &DbHandle, shared: &Arc<Shared>) {
    let obs = handle.obs().clone();
    {
        let w = Arc::downgrade(shared);
        obs.gauge("repl.standby.replicated_seq", move || {
            w.upgrade().map(|s| s.replicated_seq.load(Ordering::SeqCst))
        });
    }
    {
        let w = Arc::downgrade(shared);
        obs.gauge("repl.standby.records_applied", move || {
            w.upgrade().map(|s| s.records_applied.load(Ordering::SeqCst))
        });
    }
    {
        let w = Arc::downgrade(shared);
        obs.gauge("repl.standby.reconnects", move || {
            w.upgrade().map(|s| s.reconnects.load(Ordering::SeqCst))
        });
    }
    {
        let w = Arc::downgrade(shared);
        obs.text("repl.standby.halt_reason", move || {
            w.upgrade().map(|s| {
                s.halted
                    .lock()
                    .map(|g| g.clone().unwrap_or_else(|| "none (live)".to_owned()))
                    .unwrap_or_else(|_| "unknown (poisoned)".to_owned())
            })
        });
    }
}

/// The replayer's working state: its own log, its working database image
/// (the serving handle publishes clones of it), and the durable cursor.
struct Ingest {
    wal: Wal,
    db: Database,
    have: u64,
    /// Re-armed on every log (re)creation, so a resync keeps the plan.
    fault: Option<FaultPlan>,
}

/// One established, handshaken connection to the primary.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect and complete the handshake; on success the next message
    /// is the first catch-up record. Registers the stream in `shared`
    /// (when given) so stop/promote can unblock the read.
    fn establish(config: &StandbyConfig, shared: Option<&Shared>) -> Result<Conn> {
        let stream = TcpStream::connect(&config.primary_addr).map_err(|e| {
            MadError::io(format!("connect to primary {}: {e}", config.primary_addr))
        })?;
        // acks are tiny and latency-critical (sync-quorum commits wait
        // on them); never let Nagle batch them
        let _ = stream.set_nodelay(true);
        let mut writer = stream
            .try_clone()
            .map_err(|e| MadError::io(format!("clone replication stream: {e}")))?;
        if let Some(shared) = shared {
            if let Ok(clone) = stream.try_clone() {
                *shared.conn.lock().unwrap() = Some(clone);
            }
        }
        let reader = BufReader::new(stream);
        writer
            .write_all(REPL_MAGIC)
            .map_err(|e| MadError::io(format!("send replication preamble: {e}")))?;
        Ok(Conn { writer, reader })
    }

    fn hello(&mut self, have: Option<u64>) -> Result<u64> {
        send_msg(
            &mut self.writer,
            &ReplMsg::StandbyHello {
                protocol: REPL_PROTOCOL_VERSION,
                have,
            },
        )?;
        match recv_msg(&mut self.reader)? {
            Some(ReplMsg::PrimaryHello { protocol, last_seq }) => {
                if protocol != REPL_PROTOCOL_VERSION {
                    return Err(MadError::protocol(format!(
                        "primary speaks replication protocol {protocol}, standby speaks \
                         {REPL_PROTOCOL_VERSION}"
                    )));
                }
                Ok(last_seq)
            }
            Some(_) => Err(MadError::protocol("expected a primary hello")),
            None => Err(MadError::protocol("primary closed during the handshake")),
        }
    }

    fn recv(&mut self) -> Result<Option<ReplMsg>> {
        recv_msg(&mut self.reader)
    }

    fn ack(&mut self, seq: u64) -> Result<()> {
        send_msg(&mut self.writer, &ReplMsg::Ack { seq })
    }
}

impl Conn {
    /// Establish **and** greet in one step (the reconnect path).
    fn establish_and_hello(config: &StandbyConfig, shared: &Shared, have: u64) -> Result<Conn> {
        let mut conn = Conn::establish(config, Some(shared))?;
        conn.hello(Some(have))?;
        Ok(conn)
    }
}

/// Why the inner receive loop ended.
enum StreamEnd {
    /// Stream-level trouble: reconnect and resume from the cursor.
    Reconnect,
    /// Local trouble: stop for good, reason already recorded.
    Halt,
}

fn ingest_loop(
    mut ingest: Ingest,
    initial: Option<Conn>,
    handle: DbHandle,
    stop: Arc<AtomicBool>,
    shared: Arc<Shared>,
    config: StandbyConfig,
) {
    let mut conn = initial;
    let mut backoff = config.backoff_base;
    while !stop.load(Ordering::SeqCst) {
        let mut live = match conn.take() {
            Some(c) => c,
            None => match Conn::establish_and_hello(&config, &shared, ingest.have) {
                Ok(c) => {
                    backoff = config.backoff_base;
                    c
                }
                Err(_) => {
                    shared.reconnects.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(config.backoff_max);
                    continue;
                }
            },
        };
        match receive_stream(&mut ingest, &mut live, &handle, &stop, &shared) {
            StreamEnd::Reconnect => {
                shared.conn.lock().unwrap().take();
                shared.reconnects.fetch_add(1, Ordering::SeqCst);
            }
            StreamEnd::Halt => return,
        }
    }
}

/// Drain one connection's records into the local log and serving handle.
fn receive_stream(
    ingest: &mut Ingest,
    conn: &mut Conn,
    handle: &DbHandle,
    stop: &AtomicBool,
    shared: &Shared,
) -> StreamEnd {
    loop {
        if stop.load(Ordering::SeqCst) {
            return StreamEnd::Halt;
        }
        let msg = match conn.recv() {
            Ok(Some(msg)) => msg,
            // clean close, torn frame, checksum mismatch, socket error —
            // all stream trouble: the cursor is durable, reconnect
            Ok(None) | Err(_) => return StreamEnd::Reconnect,
        };
        match msg {
            ReplMsg::Record(WalRecord::Commit { seq, ops }) => {
                if seq <= ingest.have {
                    continue; // duplicate delivery (reconnect overlap)
                }
                if seq != ingest.have + 1 {
                    // a gap is stream corruption (e.g. a reordering
                    // middlebox); the records still exist on the primary,
                    // so resync rather than diverge
                    return StreamEnd::Reconnect;
                }
                match apply_commit(ingest, handle, seq, ops) {
                    Ok(()) => {}
                    Err(e) => {
                        // local log or replay failure: serving unverified
                        // state would be silent divergence — halt instead
                        *shared.halted.lock().unwrap() = Some(format!(
                            "standby halted at sequence {seq}: {e}"
                        ));
                        return StreamEnd::Halt;
                    }
                }
                shared.records_applied.fetch_add(1, Ordering::SeqCst);
                shared.replicated_seq.store(seq, Ordering::SeqCst);
                if conn.ack(seq).is_err() {
                    return StreamEnd::Reconnect;
                }
            }
            ReplMsg::Record(WalRecord::Bootstrap { base_seq, snapshot }) => {
                // resync: the primary's log no longer reaches our cursor
                // (checkpoint horizon); replace everything
                if base_seq < ingest.have {
                    return StreamEnd::Reconnect; // never go backwards
                }
                let outcome = (|| -> mad_model::Result<()> {
                    let db = snapshot.restore()?;
                    replace_local_log(ingest, db, base_seq)?;
                    handle.install_snapshot(ingest.db.clone(), base_seq)
                })();
                match outcome {
                    Ok(()) => {
                        shared.replicated_seq.store(base_seq, Ordering::SeqCst);
                        if conn.ack(base_seq).is_err() {
                            return StreamEnd::Reconnect;
                        }
                    }
                    Err(e) => {
                        *shared.halted.lock().unwrap() = Some(format!(
                            "standby halted during resync at sequence {base_seq}: {e}"
                        ));
                        return StreamEnd::Halt;
                    }
                }
            }
            // hellos mid-stream or acks toward a standby are nonsense
            ReplMsg::StandbyHello { .. } | ReplMsg::PrimaryHello { .. } | ReplMsg::Ack { .. } => {
                return StreamEnd::Reconnect;
            }
        }
    }
}

/// The per-commit replay pipeline: local WAL append → durable wait →
/// integrity-checked apply → publish for readers. Exactly the recovery
/// path, run continuously: an insert that lands off its logged slot is a
/// replay divergence.
fn apply_commit(ingest: &mut Ingest, handle: &DbHandle, seq: u64, ops: Vec<WalOp>) -> Result<()> {
    let lsn = ingest.wal.append_commit(seq, &ops)?;
    ingest.wal.wait_durable(lsn)?;
    for mut op in ops {
        apply_op(&mut ingest.db, &mut op, None)?;
    }
    handle.install_replicated(ingest.db.clone(), seq)?;
    ingest.have = seq;
    Ok(())
}

/// Swap the local log for a fresh one bootstrapped at `base_seq`.
fn replace_local_log(ingest: &mut Ingest, db: Database, base_seq: u64) -> Result<()> {
    let path = ingest.wal.path().to_path_buf();
    let policy = ingest.wal.policy();
    // the old Wal still owns a handle to its active segment; the
    // reinitialize writes the new bootstrap into the next segment number
    // and the manifest swap is the atomic commit point, so a crash
    // mid-resync leaves either log intact. `db` came through
    // `DatabaseSnapshot::restore`, which already ran the full integrity
    // checks recovery would.
    ingest.wal = Wal::reinitialize(&path, &db, base_seq, policy)?;
    ingest.wal.set_fault_plan(ingest.fault);
    ingest.db = db;
    ingest.have = base_seq;
    Ok(())
}
