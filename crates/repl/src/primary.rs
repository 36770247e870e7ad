//! The primary's replication front-end: accept standbys, bring each one
//! to the current commit, then stream live commits.

use crate::proto::{recv_msg, send_msg, ReplMsg, REPL_MAGIC, REPL_PROTOCOL_VERSION};
use mad_model::{MadError, Result};
use mad_storage::DatabaseSnapshot;
use mad_txn::{DbHandle, TailRead};
use mad_wal::WalRecord;
use std::collections::HashMap;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Register the primary's `repl.primary.*` poll-gauges in the served
/// handle's registry. Only a [`Weak`] of the shared state is captured, so
/// a shut-down primary's rows disappear at the next snapshot.
fn register_primary_gauges(shared: &Arc<Shared>) {
    let obs = shared.handle.obs().clone();
    {
        let w: Weak<Shared> = Arc::downgrade(shared);
        obs.gauge("repl.primary.attached", move || {
            w.upgrade()
                .map(|s| mad_model::bin::u64_of_usize(s.attached.load(Ordering::SeqCst)))
        });
    }
    {
        let w: Weak<Shared> = Arc::downgrade(shared);
        obs.gauge("repl.primary.streamed", move || {
            w.upgrade().map(|s| s.streamed.load(Ordering::SeqCst))
        });
    }
}

/// How long the live-stream sender waits on the commit feed before
/// re-checking the stop flag.
const FEED_POLL: Duration = Duration::from_millis(50);

#[derive(Debug)]
struct Shared {
    handle: DbHandle,
    stopping: AtomicBool,
    /// Open standby connections by id, so shutdown can unblock them.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    /// Standbys currently past the handshake (monitoring/tests).
    attached: AtomicUsize,
    /// Records streamed over all connections since start.
    streamed: AtomicU64,
}

/// The replication listener of a durable primary.
///
/// Each accepted standby is served by its own sender thread: it
/// subscribes to the handle's commit feed **before** reading the
/// catch-up state, so the union of (catch-up records, live feed) covers
/// every commit with no gap — duplicates across the seam are filtered by
/// sequence number. Catch-up is either the logged commits after the
/// standby's cursor ([`DbHandle::wal_tail_commits`]) or, when the cursor
/// predates the log's checkpoint horizon (or the standby is fresh), one
/// full bootstrap snapshot. A paired reader thread consumes the
/// standby's [`ReplMsg::Ack`]s into [`DbHandle::standby_ack`], the
/// currency of [`mad_txn::ReplAck::SyncQuorum`] commit waits.
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
            attached: AtomicUsize::new(0),
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
        self.shared.attached.load(Ordering::SeqCst)
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
            let _ = serve_standby(&shared2, stream);
            shared2.conns.lock().unwrap().remove(&id);
        });
        threads.lock().unwrap().push(t);
    }
}

/// Serve one standby connection to completion (disconnect or shutdown).
fn serve_standby(shared: &Shared, stream: TcpStream) -> Result<()> {
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

    // subscribe BEFORE reading the catch-up state: every commit is then
    // either in the log/snapshot we read next or in the feed — no gap
    let feed = shared.handle.subscribe_commits();
    let token = shared.handle.register_standby();
    shared.attached.fetch_add(1, Ordering::SeqCst);
    let result = stream_to_standby(shared, &mut writer, reader, have, &feed, token);
    shared.handle.standby_gone(token);
    shared.attached.fetch_sub(1, Ordering::SeqCst);
    result
}

fn stream_to_standby(
    shared: &Shared,
    writer: &mut TcpStream,
    reader: BufReader<TcpStream>,
    have: Option<u64>,
    feed: &std::sync::mpsc::Receiver<mad_txn::FeedCommit>,
    token: u64,
) -> Result<()> {
    send_msg(
        writer,
        &ReplMsg::PrimaryHello {
            protocol: REPL_PROTOCOL_VERSION,
            last_seq: shared.handle.commit_seq(),
        },
    )?;

    // ack reader: standby acks flow into quorum accounting until the
    // connection dies (its exit also signals the sender loop to stop)
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

    let sent = catch_up(shared, writer, have);
    let mut last_sent = match &sent {
        Ok(seq) => *seq,
        Err(_) => 0,
    };
    // live stream: forward feed commits the catch-up did not already cover
    let live = sent.and_then(|_| loop {
        if shared.stopping.load(Ordering::SeqCst) || reader_done.load(Ordering::SeqCst) {
            break Ok(());
        }
        match feed.recv_timeout(FEED_POLL) {
            Ok(commit) => {
                if commit.seq <= last_sent {
                    continue; // already covered by catch-up
                }
                // the publisher pushes the feed under its commit ticket, in
                // publication order — so past the catch-up seam every commit
                // is the exact successor. A gap here means the handle
                // published out of order; streaming it would hand the
                // standby a hole it can never fill, so fail the connection
                // loudly instead.
                if commit.seq != last_sent + 1 {
                    debug_assert_eq!(
                        commit.seq,
                        last_sent + 1,
                        "commit feed must be gap-free in publication order"
                    );
                    return Err(MadError::wal(format!(
                        "commit feed gap on the live stream: expected sequence {}, got {}",
                        last_sent + 1,
                        commit.seq
                    )));
                }
                send_msg(
                    writer,
                    &ReplMsg::Record(WalRecord::Commit {
                        seq: commit.seq,
                        ops: commit.ops,
                    }),
                )?;
                shared.streamed.fetch_add(1, Ordering::SeqCst);
                last_sent = commit.seq;
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break Ok(()),
        }
    });
    // unblock and collect the ack reader
    let _ = writer.shutdown(std::net::Shutdown::Both);
    let _ = ack_thread.join();
    live
}

/// Bring the standby to the primary's current commit; returns the last
/// sequence covered (everything later comes from the live feed).
fn catch_up(shared: &Shared, writer: &mut TcpStream, have: Option<u64>) -> Result<u64> {
    let tail = match have {
        Some(cursor) => shared.handle.wal_tail_commits(cursor)?.expect(
            "ReplPrimary::start checked the handle is durable",
        ),
        None => TailRead::SnapshotNeeded { base_seq: 0 },
    };
    match tail {
        TailRead::Commits(records) => {
            let mut last = have.unwrap_or(0);
            for (seq, ops) in records {
                send_msg(writer, &ReplMsg::Record(WalRecord::Commit { seq, ops }))?;
                shared.streamed.fetch_add(1, Ordering::SeqCst);
                last = seq;
            }
            Ok(last)
        }
        TailRead::SnapshotNeeded { .. } => {
            // the log cannot replay the standby's cursor forward (fresh
            // standby, or a checkpoint folded those records away): ship a
            // full image of the current committed state
            let (db, seq) = shared.handle.fork();
            let snapshot = Box::new(DatabaseSnapshot::capture(&db));
            send_msg(
                writer,
                &ReplMsg::Record(WalRecord::Bootstrap {
                    base_seq: seq,
                    snapshot,
                }),
            )?;
            shared.streamed.fetch_add(1, Ordering::SeqCst);
            Ok(seq)
        }
    }
}
