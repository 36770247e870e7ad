//! The primary's replication front-end: accept standbys and stream each
//! one the primary's write-ahead log from its cursor on.

use crate::proto::{recv_msg, send_msg, ReplMsg, REPL_MAGIC, REPL_PROTOCOL_VERSION};
use mad_model::{MadError, Result};
use mad_storage::DatabaseSnapshot;
use mad_txn::DbHandle;
use mad_wal::{TailRead, Wal, WalCursor, WalRecord};
use std::collections::HashMap;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Register the primary's `repl.primary.*` poll-gauges in the served
/// handle's registry. Only a [`Weak`] of the shared state is captured, so
/// a shut-down primary's rows disappear at the next snapshot.
fn register_primary_gauges(shared: &Arc<Shared>) {
    let gauge = |name: &str, read: fn(&Shared) -> u64| {
        let w: Weak<Shared> = Arc::downgrade(shared);
        shared.handle.obs().gauge(name, move || w.upgrade().map(|s| read(&s)));
    };
    gauge("repl.primary.attached", |s| mad_model::bin::u64_of_usize(s.shipped().len()));
    gauge("repl.primary.streamed", |s| s.streamed.load(Ordering::SeqCst));
    gauge("repl.primary.lag_bytes", Shared::lag_bytes);
}

/// How long a caught-up sender waits for the log to grow before
/// re-checking the stop flag and its standby's ack reader.
const STOP_CHECK: Duration = Duration::from_millis(50);

#[derive(Debug)]
struct Shared {
    handle: DbHandle,
    stopping: AtomicBool,
    /// Open standby connections by id, so shutdown can unblock them.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    /// The log position each attached standby (past the handshake) has
    /// been sent up to, by connection id.
    shipped: Mutex<HashMap<u64, Arc<AtomicU64>>>,
    /// Records streamed over all connections since start.
    streamed: AtomicU64,
}

impl Shared {
    /// The attached standbys' shipped positions. Each update is one insert
    /// or remove, so a poisoned map is still whole.
    fn shipped(&self) -> MutexGuard<'_, HashMap<u64, Arc<AtomicU64>>> {
        self.shipped.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appended log bytes the slowest attached standby has not been sent
    /// yet (0 with none attached). The positions are read first and the
    /// log's `files` lock taken after, never nested.
    fn lag_bytes(&self) -> u64 {
        let slowest = self.shipped().values().map(|p| p.load(Ordering::SeqCst)).min();
        match (slowest, self.handle.wal()) {
            (Some(pos), Some(wal)) => wal.appended_pos().saturating_sub(pos),
            _ => 0,
        }
    }
}

/// The replication listener of a durable primary.
///
/// Each accepted standby is served by its own sender thread with one
/// source, the primary's write-ahead log: a [`WalCursor`] starts after the
/// standby's cursor and the sender loops tail batch → ship → wait for
/// more. A fresh standby, or one whose cursor a checkpoint folded into
/// the bootstrap image, first gets one full bootstrap snapshot and is
/// tailed from its sequence on. The log holds every commit once, in
/// order, so the stream is gap-free by construction, and a stalled
/// standby costs the primary one tail batch, not a queue. A paired reader
/// thread consumes the standby's [`ReplMsg::Ack`]s into
/// [`DbHandle::standby_ack`], the currency of
/// [`mad_txn::ReplAck::SyncQuorum`] commit waits.
///
/// [`ReplPrimary::shutdown`] stops the listener, closes every stream and
/// seals the handle's replication state so quorum waiters error instead
/// of hanging.
#[derive(Debug)]
pub struct ReplPrimary {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ReplPrimary {
    /// Start streaming `handle`'s commits on `addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral test port). The handle must be
    /// durable — the stream *is* the WAL record stream.
    pub fn start(handle: DbHandle, addr: &str) -> Result<ReplPrimary> {
        if !handle.is_durable() {
            return Err(MadError::wal(
                "replication requires a durable primary (the stream is the WAL \
                 record stream); open the handle with a write-ahead log",
            ));
        }
        let listener = TcpListener::bind(addr)
            .map_err(|e| MadError::io(format!("bind replication listener on {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| MadError::io(format!("replication listener address: {e}")))?;
        let shared = Arc::new(Shared {
            handle,
            stopping: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            shipped: Mutex::new(HashMap::new()),
            streamed: AtomicU64::new(0),
        });
        register_primary_gauges(&shared);
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let threads = Arc::clone(&conn_threads);
            std::thread::spawn(move || accept_loop(listener, shared, threads))
        };
        Ok(ReplPrimary {
            shared,
            addr: local,
            accept: Some(accept),
            conn_threads,
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Standbys currently attached (past the handshake).
    pub fn standby_count(&self) -> usize {
        self.shared.shipped().len()
    }

    /// Records streamed to standbys since start (catch-up + live).
    pub fn records_streamed(&self) -> u64 {
        self.shared.streamed.load(Ordering::SeqCst)
    }

    /// Stop accepting, close every standby stream, join the threads and
    /// seal the handle's replication state (quorum waiters error rather
    /// than hang). Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // poke the blocking accept with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for (_, conn) in self.shared.conns.lock().unwrap().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let threads: Vec<_> = self.conn_threads.lock().unwrap().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
        self.shared.handle.seal_replication();
    }
}

impl Drop for ReplPrimary {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, threads: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        // commit records and acks are small; never let Nagle batch them
        let _ = stream.set_nodelay(true);
        let id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().unwrap().insert(id, clone);
        }
        let shared2 = Arc::clone(&shared);
        let t = std::thread::spawn(move || {
            let _ = serve_standby(&shared2, stream, id);
            shared2.conns.lock().unwrap().remove(&id);
        });
        threads.lock().unwrap().push(t);
    }
}

/// Serve one standby connection to completion (disconnect or shutdown).
fn serve_standby(shared: &Shared, stream: TcpStream, id: u64) -> Result<()> {
    let mut writer = stream
        .try_clone()
        .map_err(|e| MadError::io(format!("clone replication stream: {e}")))?;
    let mut reader = BufReader::new(stream);

    // handshake: magic, standby hello
    let mut magic = [0u8; 8];
    reader
        .read_exact(&mut magic)
        .map_err(|e| MadError::protocol(format!("replication preamble: {e}")))?;
    if &magic != REPL_MAGIC {
        return Err(MadError::protocol(
            "connection does not speak the MAD replication protocol",
        ));
    }
    let have = match recv_msg(&mut reader)? {
        Some(ReplMsg::StandbyHello { protocol, have }) => {
            if protocol != REPL_PROTOCOL_VERSION {
                return Err(MadError::protocol(format!(
                    "standby speaks replication protocol {protocol}, primary speaks \
                     {REPL_PROTOCOL_VERSION}"
                )));
            }
            have
        }
        Some(_) => return Err(MadError::protocol("expected a standby hello")),
        None => return Ok(()),
    };

    send_msg(
        &mut writer,
        &ReplMsg::PrimaryHello {
            protocol: REPL_PROTOCOL_VERSION,
            last_seq: shared.handle.commit_seq(),
        },
    )?;

    // ack reader: standby acks flow into quorum accounting until the
    // connection dies (its exit also signals the sender loop to stop)
    let token = shared.handle.register_standby();
    let reader_done = Arc::new(AtomicBool::new(false));
    let ack_thread = {
        let handle = shared.handle.clone();
        let done = Arc::clone(&reader_done);
        std::thread::spawn(move || {
            let mut reader = reader;
            // anything other than an ack (stray message, EOF, transport
            // error) ends the connection's quorum accounting
            while let Ok(Some(ReplMsg::Ack { seq })) = recv_msg(&mut reader) {
                handle.standby_ack(token, seq);
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    let shipped = Arc::new(AtomicU64::new(0));
    shared.shipped().insert(id, Arc::clone(&shipped));
    let sent = match shared.handle.wal() {
        Some(wal) => ship_log(shared, wal, &mut writer, have, &shipped, &reader_done),
        None => Err(MadError::wal("replication requires a durable primary")),
    };
    shared.shipped().remove(&id);
    // unblock and collect the ack reader
    let _ = writer.shutdown(std::net::Shutdown::Both);
    let _ = ack_thread.join();
    shared.handle.standby_gone(token);
    sent
}

/// The sender loop: tail a batch of the log from the standby's cursor,
/// ship it, and wait for the log to grow once caught up. A standby with
/// no cursor, or one the log's bootstrap image is past, gets a bootstrap
/// snapshot first.
fn ship_log(
    shared: &Shared,
    wal: &Wal,
    writer: &mut TcpStream,
    have: Option<u64>,
    shipped: &AtomicU64,
    reader_done: &AtomicBool,
) -> Result<()> {
    let mut cursor = match have {
        Some(seq) => WalCursor::after(seq),
        None => bootstrap(shared, writer)?,
    };
    while !shared.stopping.load(Ordering::SeqCst) && !reader_done.load(Ordering::SeqCst) {
        match wal.tail(&mut cursor)? {
            TailRead::SnapshotNeeded { .. } => cursor = bootstrap(shared, writer)?,
            TailRead::Commits(batch) if batch.is_empty() => {
                wal.wait_appended(&cursor, STOP_CHECK);
            }
            TailRead::Commits(batch) => {
                for (seq, ops) in batch {
                    send_msg(writer, &ReplMsg::Record(WalRecord::Commit { seq, ops }))?;
                    shared.streamed.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        shipped.store(cursor.pos(), Ordering::SeqCst);
    }
    Ok(())
}

/// Ship a full image of the committed state; the log is tailed from its
/// sequence on.
fn bootstrap(shared: &Shared, writer: &mut TcpStream) -> Result<WalCursor> {
    let (db, base_seq) = shared.handle.fork();
    let snapshot = Box::new(DatabaseSnapshot::capture(&db));
    send_msg(writer, &ReplMsg::Record(WalRecord::Bootstrap { base_seq, snapshot }))?;
    shared.streamed.fetch_add(1, Ordering::SeqCst);
    Ok(WalCursor::after(base_seq))
}
