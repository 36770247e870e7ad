//! The TCP server: readiness-based event loops over non-blocking
//! sockets, a fixed worker pool, pipelined request execution.
//!
//! The server runs one event loop per core the process may use
//! (`available_parallelism()`; see [`crate::poller`] for the sweeps).
//! The first loop also owns the listener: it hands each accepted socket
//! to the loop that owns the fewest connections and wakes that loop at
//! once. From then on only the owning loop touches the socket: it
//! sweeps read readiness, parses frames out of the connection's buffer,
//! reaps it when idle and flushes its response bytes. Decoded requests
//! are handed to a small worker pool through per-connection mailboxes;
//! a connection is claimed by at most one worker at a time, so its
//! statements execute in order against its one [`Session::shared`] and
//! responses come back in request order even when the client
//! pipelines. A single pending statement is executed inline on the
//! owning loop when no connection of that loop is claimed by a worker —
//! no handoff, which keeps the one-client latency of the old
//! thread-per-connection design, and lets two closed-loop clients on two
//! loops use two cores.

use crate::frame::{
    decode_request, frame_response, split_frame, Request, Response, ENCODING_BINARY, ENCODING_TEXT,
    MAGIC, PROTOCOL_VERSION, SUPPORTED_ENCODINGS,
};
use crate::poller::{
    lock, prepare_stream, sweep_read, sweep_write, IdleWait, ReadSweep, WriteSweep,
};
use mad_model::bin::{u64_of_usize, BinEncode};
use mad_model::{MadError, Result};
use mad_mql::Session;
use mad_obs::{Histogram, Registry, SlowEntry, SlowLog};
use mad_txn::{DbHandle, ReplAck};
use std::collections::VecDeque;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Statements the slow-query ring buffer retains (oldest evicted first).
const SLOW_LOG_CAP: usize = 128;

/// How long shutdown waits for queued statements to finish and their
/// responses to flush before force-closing what remains (a dead peer
/// with a full receive window cannot stall shutdown forever).
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Server-side connection knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerConfig {
    /// Reap a connection after this long without request bytes: a
    /// half-open or abandoned connection then drops its session —
    /// aborting any transaction it left open — instead of pinning a
    /// session and the transaction's commit-log registration forever.
    /// `None` (the default) never reaps.
    pub idle_timeout: Option<Duration>,
    /// Record any statement slower than this in the slow-query ring
    /// buffer (its per-stage trace included; see [`Server::slow_queries`]).
    /// `None` (the default) disables the log.
    pub slow_query: Option<Duration>,
    /// Statement-execution workers. `0` (the default) sizes the pool to
    /// the machine: `available_parallelism` clamped to `4..=8` — the
    /// floor is above one because workers park (fsync slots, replication
    /// quorums) rather than compute, and a single parked commit must not
    /// serialize every other connection.
    pub workers: usize,
}

/// One unit of work in a connection's mailbox, executed in arrival order.
enum WorkItem {
    /// A decoded client request.
    Req(Request),
    /// A terminal condition discovered on the read side (malformed
    /// frame, idle reap): answer with the error *after* everything
    /// queued before it, then close the connection.
    Fatal(MadError),
}

/// The worker-visible half of one connection: its mailbox and its
/// outgoing byte stream. The owning event loop keeps the socket itself.
struct ConnShared {
    id: u64,
    /// The event loop that owns the socket: workers wake it when they
    /// append response bytes, and its `claimed` count tracks this
    /// connection's claim.
    home: Arc<LoopShared>,
    work: Mutex<ConnWork>,
    /// Encoded response frames waiting for the owning loop to write.
    /// Workers append; the loop drains into its per-connection write
    /// buffer, preserving order.
    outbox: Mutex<Vec<u8>>,
}

/// Mailbox state, guarded by one mutex so the claim/done transitions and
/// the exactly-once session teardown are atomic.
struct ConnWork {
    queue: VecDeque<WorkItem>,
    /// Is the connection currently claimed (in the ready queue or being
    /// drained by a worker)? At most one claimant at a time — this is
    /// what serializes a connection's statements.
    scheduled: bool,
    /// No further items will ever be enqueued (disconnect, fatal error,
    /// shutdown). Whoever next observes the queue empty takes and drops
    /// the session — aborting an open transaction exactly once.
    closed: bool,
    /// The connection's session; taken out while a statement executes so
    /// no lock is held during execution.
    session: Option<Session>,
    /// Result encoding in effect ([`ENCODING_TEXT`] until negotiated).
    encoding: u8,
    /// `net.conn.{id}.stmt_ns` — this connection's statement latencies.
    stmt_ns: Arc<Histogram>,
}

/// The part of one event loop that other threads reach: the listening
/// loop assigns sockets to it, workers wake it. The sockets and buffers
/// themselves live on the loop's own stack (see [`Conn`]).
struct LoopShared {
    /// Accepted sockets assigned to this loop, not yet adopted.
    incoming: Mutex<Vec<TcpStream>>,
    /// Connections assigned to this loop and not yet retired; the
    /// listening loop assigns each new socket to the loop with the
    /// fewest.
    owned: AtomicUsize,
    /// Connections of this loop claimed by the worker pool (in the ready
    /// queue or being drained). The inline fast path is open only at 0.
    claimed: AtomicUsize,
    /// Flagged (and `wake` signalled) when the loop has work it would not
    /// discover by sweeping: response bytes a worker appended, a socket
    /// assigned to it, a shutdown.
    signal: Mutex<bool>,
    wake: Condvar,
}

impl LoopShared {
    fn new() -> Self {
        LoopShared {
            incoming: Mutex::new(Vec::new()),
            owned: AtomicUsize::new(0),
            claimed: AtomicUsize::new(0),
            signal: Mutex::new(false),
            wake: Condvar::new(),
        }
    }

    /// Wake the loop if it is parked; a spinning loop consumes the flag
    /// on its next idle wait.
    fn notify(&self) {
        *lock(&self.signal) = true;
        self.wake.notify_one();
    }
}

/// Shared state of a running server.
struct Shared {
    handle: DbHandle,
    config: ServerConfig,
    /// Connections reaped by the idle timeout (monitoring/tests).
    reaped: AtomicUsize,
    /// Set by [`Server::shutdown`]; the listening loop stops accepting,
    /// and every loop drains its queued statements, then tears down.
    stopping: AtomicBool,
    /// Skip the drain: close everything now (see [`Server::kill`]).
    hard_stop: AtomicBool,
    /// Set once every event loop has exited; workers exit when the ready
    /// queue is empty and this is set.
    drained: AtomicBool,
    active: AtomicUsize,
    served: AtomicUsize,
    /// Requests answered (statements, pings, encoding switches).
    requests: AtomicUsize,
    /// Requests parsed off the wire (answered or still queued). On
    /// shutdown, everything counted here is still executed and its
    /// response flushed — the drain guarantee.
    received: AtomicUsize,
    /// Work items currently waiting in per-connection mailboxes.
    queued: AtomicUsize,
    /// Connections currently claimed by a worker.
    in_flight: AtomicUsize,
    /// Event-loop transitions from idle back to useful work, summed
    /// over the loops.
    wakeups: AtomicUsize,
    /// Requests executed inline on their connection's event loop.
    inline: AtomicUsize,
    /// Requests handed to the worker pool (`inline + handoff` is
    /// `received` once everything parsed has been dispatched).
    handoff: AtomicUsize,
    /// Statements whose execution panicked; each closed its connection.
    statement_panics: AtomicUsize,
    /// Connections with claimed, unprocessed mailboxes.
    ready: Mutex<VecDeque<Arc<ConnShared>>>,
    ready_cv: Condvar,
    /// The event loops; the first also owns the listener.
    loops: Vec<Arc<LoopShared>>,
    /// The deployment registry (the served handle's) this server reports
    /// its `net.*` metrics into.
    obs: Registry,
    /// `net.stmt_ns` — wall time per served statement, all connections.
    stmt_ns: Arc<Histogram>,
    /// The slow-query ring buffer ([`ServerConfig::slow_query`]).
    slow: SlowLog,
}

/// A running MAD TCP server.
///
/// [`Server::serve`] binds the listener and returns immediately;
/// accepting, I/O and statement execution happen on background threads
/// (one event loop per core plus a small worker pool — a session runs on
/// its connection's loop or on a worker, never on two threads at once;
/// the [`DbHandle`] underneath is the shared, thread-safe piece). Drop
/// without [`Server::shutdown`] leaves the threads running until the
/// process exits; call `shutdown` for a graceful stop (stop accepting,
/// drain queued statements, flush their responses, close every
/// connection, join all threads).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    loop_threads: Vec<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("loops", &self.shared.loops.len())
            .field("workers", &self.worker_threads.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port, see
    /// [`Server::local_addr`]) and serve `handle` until shutdown. Every
    /// accepted connection gets its own [`Session::shared`] over a clone
    /// of `handle`.
    pub fn serve(handle: DbHandle, addr: impl ToSocketAddrs) -> Result<Server> {
        Self::serve_with(handle, addr, ServerConfig::default())
    }

    /// [`Server::serve`] with connection knobs — notably
    /// [`ServerConfig::idle_timeout`], the idle-connection reaper, and
    /// [`ServerConfig::workers`], the execution-pool size.
    pub fn serve_with(
        handle: DbHandle,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Server> {
        Self::serve_loops(handle, addr, config, loop_count())
    }

    /// [`Server::serve_with`] with an explicit number of event loops
    /// (at least one), so tests can run several loops on any host.
    pub(crate) fn serve_loops(
        handle: DbHandle,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        loops: usize,
    ) -> Result<Server> {
        let listener =
            TcpListener::bind(addr).map_err(|e| MadError::io(format!("bind listener: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| MadError::io(format!("listener address: {e}")))?;
        let obs = handle.obs().clone();
        let stmt_ns = obs.histogram("net.stmt_ns");
        let shared = Arc::new(Shared {
            handle,
            config,
            reaped: AtomicUsize::new(0),
            stopping: AtomicBool::new(false),
            hard_stop: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            served: AtomicUsize::new(0),
            requests: AtomicUsize::new(0),
            received: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            wakeups: AtomicUsize::new(0),
            inline: AtomicUsize::new(0),
            handoff: AtomicUsize::new(0),
            statement_panics: AtomicUsize::new(0),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            loops: (0..loops.max(1))
                .map(|_| Arc::new(LoopShared::new()))
                .collect(),
            obs,
            stmt_ns,
            slow: SlowLog::new(SLOW_LOG_CAP, config.slow_query),
        });
        register_server_gauges(&shared);
        let mut listener = Some(listener);
        let mut loop_threads = Vec::with_capacity(shared.loops.len());
        for (i, home) in shared.loops.iter().enumerate() {
            // the first loop takes the listener
            let listener = listener.take();
            let loop_shared = Arc::clone(&shared);
            let home = Arc::clone(home);
            let t = std::thread::Builder::new()
                .name(format!("mad-net-loop-{i}"))
                .spawn(move || event_loop(&loop_shared, &home, listener.as_ref()))
                .map_err(|e| MadError::io(format!("spawn event-loop thread: {e}")))?;
            loop_threads.push(t);
        }
        let mut worker_threads = Vec::new();
        for i in 0..worker_count(&config) {
            let worker_shared = Arc::clone(&shared);
            let t = std::thread::Builder::new()
                .name(format!("mad-net-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared))
                .map_err(|e| MadError::io(format!("spawn worker thread: {e}")))?;
            worker_threads.push(t);
        }
        Ok(Server {
            shared,
            addr: local,
            loop_threads,
            worker_threads,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served database handle.
    pub fn handle(&self) -> &DbHandle {
        &self.shared.handle
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Connections accepted since the server started.
    pub fn connections_served(&self) -> usize {
        self.shared.served.load(Ordering::SeqCst)
    }

    /// Connections reaped by the idle timeout since the server started.
    pub fn connections_reaped(&self) -> usize {
        self.shared.reaped.load(Ordering::SeqCst)
    }

    /// Requests answered since the server started (statements, pings and
    /// encoding switches all count; every answered request produced
    /// exactly one response frame).
    pub fn requests_served(&self) -> usize {
        self.shared.requests.load(Ordering::SeqCst)
    }

    /// Requests parsed off the wire since the server started (answered
    /// or still queued). [`Server::shutdown`] answers everything counted
    /// here before closing — the drain guarantee.
    pub fn requests_received(&self) -> usize {
        self.shared.received.load(Ordering::SeqCst)
    }

    /// The metrics registry this server reports into (the served handle's
    /// deployment registry; `SHOW STATS net` over any connection renders
    /// the same numbers).
    pub fn obs(&self) -> &Registry {
        &self.shared.obs
    }

    /// The slow-query ring buffer's current contents, oldest first (empty
    /// unless [`ServerConfig::slow_query`] set a threshold).
    pub fn slow_queries(&self) -> Vec<SlowEntry> {
        self.shared.slow.entries()
    }

    /// Render the slow-query log, one line per retained statement.
    pub fn render_slow_queries(&self) -> String {
        self.shared.slow.render()
    }

    /// Graceful shutdown: stop accepting and reading, **drain** — every
    /// request already parsed executes and its response flushes to its
    /// client — then close every connection (open transactions abort
    /// through session drop) and join every thread. Idempotent in
    /// effect; consumes the server.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Abrupt kill: close every connection **without draining** — queued
    /// statements die unanswered, clients see transport errors, open
    /// transactions abort through session drop. This is the workload
    /// harness's stand-in for a server crash (modulo durability, which a
    /// real crash test exercises by also cutting the WAL file).
    pub fn kill(mut self) {
        self.shared.hard_stop.store(true, Ordering::SeqCst);
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // each loop notices `stopping` on its next sweep (its park
        // timeout is capped); nudge them in case they are parked now
        for home in &self.shared.loops {
            home.notify();
        }
        for t in self.loop_threads.drain(..) {
            let _ = t.join();
        }
        // a socket the listening loop assigned after its loop's last
        // sweep was never adopted: it carries no received request
        for home in &self.shared.loops {
            lock(&home.incoming).clear();
        }
        // every loop has drained its connections and exited: nothing can
        // be enqueued any more, so release the workers
        self.shared.drained.store(true, Ordering::SeqCst);
        {
            let _guard = lock(&self.shared.ready);
            self.shared.ready_cv.notify_all();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Event loops per server: one per core the process may use. A loop
/// runs lone statements inline, so this is also how many statements can
/// run at once without a worker handoff.
fn loop_count() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolve [`ServerConfig::workers`]: explicit if nonzero, else sized to
/// the machine — with a floor of 4, NOT a floor of 1. Workers are not
/// CPU-bound: a COMMIT can park for its fsync slot or a replication
/// quorum, costing no cycles while it waits. Sizing the pool by cores
/// alone would let one parked commit serialize every other connection
/// behind it (on a 1-core box the pool would be a single worker), and
/// independent connections must keep making progress while one waits —
/// the replication fault tests deadlock otherwise.
fn worker_count(config: &ServerConfig) -> usize {
    if config.workers > 0 {
        return config.workers;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(4, 8)
}

/// Register the server's `net.*` poll-gauges. Each captures only a
/// [`Weak`] of the shared state: once the server is gone the gauges read
/// `None` and the registry drops them at the next snapshot — a shut-down
/// server leaves no stale rows behind.
fn register_server_gauges(shared: &Arc<Shared>) {
    let weak = {
        let w = Arc::downgrade(shared);
        move || -> Weak<Shared> { w.clone() }
    };
    let obs = &shared.obs;
    type GaugeRow = (&'static str, fn(&Shared) -> u64);
    let gauges: [GaugeRow; 13] = [
        ("net.active", |s| u64_of_usize(s.active.load(Ordering::Relaxed))),
        ("net.served", |s| u64_of_usize(s.served.load(Ordering::Relaxed))),
        ("net.reaped", |s| u64_of_usize(s.reaped.load(Ordering::Relaxed))),
        ("net.requests", |s| {
            u64_of_usize(s.requests.load(Ordering::Relaxed))
        }),
        ("net.pipeline.received", |s| {
            u64_of_usize(s.received.load(Ordering::Relaxed))
        }),
        ("net.pipeline.queued", |s| {
            u64_of_usize(s.queued.load(Ordering::Relaxed))
        }),
        ("net.pipeline.in_flight", |s| {
            u64_of_usize(s.in_flight.load(Ordering::Relaxed))
        }),
        ("net.poll.wakeups", |s| {
            u64_of_usize(s.wakeups.load(Ordering::Relaxed))
        }),
        ("net.inline", |s| {
            u64_of_usize(s.inline.load(Ordering::Relaxed))
        }),
        ("net.handoff", |s| {
            u64_of_usize(s.handoff.load(Ordering::Relaxed))
        }),
        ("net.statement_panics", |s| {
            u64_of_usize(s.statement_panics.load(Ordering::Relaxed))
        }),
        ("net.slow.len", |s| u64_of_usize(s.slow.len())),
        ("net.slow.recorded", |s| s.slow.total_recorded()),
    ];
    for (name, read) in gauges {
        let w = weak();
        obs.gauge(name, move || w.upgrade().map(|s| read(&s)));
    }
    {
        let w = weak();
        obs.gauge("net.slow.threshold_ns", move || {
            w.upgrade().map(|s| {
                s.slow
                    .threshold()
                    .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            })
        });
    }
}

// ---------------------------------------------------------------------
// the event loops
// ---------------------------------------------------------------------

/// Loop-side state of one connection. Only the owning event loop touches
/// the socket and these buffers; everything workers need lives in
/// [`ConnShared`].
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into frames.
    rbuf: Vec<u8>,
    /// Bytes waiting to go out (drained from the outbox, plus the hello).
    pending: Vec<u8>,
    shared: Arc<ConnShared>,
    /// Completed the magic preamble?
    handshaken: bool,
    /// Still reading? Cleared on EOF, socket failure, a fatal protocol
    /// error, or the idle reaper.
    read_open: bool,
    /// Socket failed — skip further writes, drop pending output.
    hard_dead: bool,
    last_activity: Instant,
}

/// One event loop over the connections assigned to `home`. The loop
/// given the listener also accepts and assigns new sockets.
fn event_loop(shared: &Arc<Shared>, home: &Arc<LoopShared>, listener: Option<&TcpListener>) {
    if let Some(listener) = listener {
        let _ = listener.set_nonblocking(true);
    }
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut wait = IdleWait::default();
    let mut drain_started: Option<Instant> = None;
    let mut was_idle = false;
    loop {
        let stopping = shared.stopping.load(Ordering::SeqCst);
        let mut progress = false;
        if !stopping {
            if let Some(listener) = listener {
                if accept_sweep(shared, home, listener) {
                    progress = true;
                }
            }
            // idle reap
            if let Some(timeout) = shared.config.idle_timeout {
                if reap_idle(shared, &mut conns, timeout) {
                    progress = true;
                }
            }
        }
        // adopt the sockets assigned here, also while stopping: a socket
        // accepted before the stop is served like any other connection
        let incoming = std::mem::take(&mut *lock(&home.incoming));
        if !incoming.is_empty() {
            for stream in incoming {
                accept_conn(shared, home, &mut conns, stream);
            }
            progress = true;
        }
        // read sweep: pull bytes, parse frames, dispatch requests. This
        // keeps running while stopping — the drain guarantee covers every
        // request the server has *received*, and received bytes may still
        // be in the kernel buffer or mid-parse in `rbuf` when `stopping`
        // flips. Only a still-incomplete frame at the deadline is dropped.
        for conn in &mut conns {
            if pump_conn(shared, conn, &mut scratch) {
                progress = true;
            }
        }
        // flush sweep: outbox → pending → socket
        for conn in &mut conns {
            if flush_conn(shared, conn) {
                progress = true;
            }
        }
        // retire connections that are fully done
        let before = conns.len();
        conns.retain(|conn| {
            if retired(conn) {
                finish_conn(shared, conn);
                false
            } else {
                true
            }
        });
        if conns.len() != before {
            progress = true;
        }
        if stopping {
            let started = *drain_started.get_or_insert_with(Instant::now);
            // no connection of this loop is claimed by a worker, and all
            // of their output is flushed
            let drained = home.claimed.load(Ordering::SeqCst) == 0
                && conns.iter().all(|c| {
                    c.hard_dead
                        || (c.pending.is_empty() && lock(&c.shared.outbox).is_empty())
                });
            if drained
                || shared.hard_stop.load(Ordering::SeqCst)
                || started.elapsed() > DRAIN_DEADLINE
            {
                teardown(shared, &mut conns);
                return;
            }
        }
        if progress {
            if was_idle {
                shared.wakeups.fetch_add(1, Ordering::Relaxed);
            }
            was_idle = false;
            wait.progress();
        } else {
            was_idle = true;
            if listener.is_none() && conns.is_empty() {
                // nothing to sweep: only a handed-over socket (or the
                // stop) brings work, and both signal
                wait.park(&home.signal, &home.wake);
            } else {
                wait.wait(&home.signal, &home.wake);
            }
        }
    }
}

/// The listening loop's accept sweep: assign each accepted socket to the
/// loop that owns the fewest connections (the first such loop on a tie)
/// and wake that loop at once, so a parked loop adds no setup latency.
fn accept_sweep(shared: &Shared, home: &Arc<LoopShared>, listener: &TcpListener) -> bool {
    let mut progress = false;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                progress = true;
                let Some(target) = shared
                    .loops
                    .iter()
                    .min_by_key(|l| l.owned.load(Ordering::SeqCst))
                else {
                    continue;
                };
                target.owned.fetch_add(1, Ordering::SeqCst);
                lock(&target.incoming).push(stream);
                if !Arc::ptr_eq(target, home) {
                    target.notify();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            // transient accept failure (peer vanished between SYN and
            // accept, fd exhaustion): retried next sweep
            Err(_) => break,
        }
    }
    progress
}

fn accept_conn(
    shared: &Arc<Shared>,
    home: &Arc<LoopShared>,
    conns: &mut Vec<Conn>,
    stream: TcpStream,
) {
    if prepare_stream(&stream).is_err() {
        home.owned.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    let id = shared.served.fetch_add(1, Ordering::SeqCst) as u64;
    shared.active.fetch_add(1, Ordering::SeqCst);
    let stmt_ns = shared.obs.histogram(&format!("net.conn.{id}.stmt_ns"));
    let conn_shared = Arc::new(ConnShared {
        id,
        home: Arc::clone(home),
        work: Mutex::new(ConnWork {
            queue: VecDeque::new(),
            scheduled: false,
            closed: false,
            session: None,
            encoding: ENCODING_TEXT,
            stmt_ns,
        }),
        outbox: Mutex::new(Vec::new()),
    });
    conns.push(Conn {
        stream,
        rbuf: Vec::new(),
        pending: Vec::new(),
        shared: conn_shared,
        handshaken: false,
        read_open: true,
        hard_dead: false,
        last_activity: Instant::now(),
    });
}

/// One read sweep over one connection: pull ready bytes, parse, dispatch.
fn pump_conn(shared: &Arc<Shared>, conn: &mut Conn, scratch: &mut [u8]) -> bool {
    if !conn.read_open {
        return false;
    }
    // Backpressure: while this connection still has queued or in-flight
    // work, skip the read syscall. A request/response peer cannot have
    // sent more anyway, and a pipelined peer's bytes sit in the kernel
    // buffer until the mailbox drains — the next sweep picks them up.
    // This keeps the sweep cost proportional to *idle* connections
    // instead of all of them.
    {
        let w = lock(&conn.shared.work);
        if w.scheduled || !w.queue.is_empty() {
            return false;
        }
    }
    match sweep_read(&mut conn.stream, &mut conn.rbuf, scratch) {
        ReadSweep::Idle => false,
        ReadSweep::Progress => {
            conn.last_activity = Instant::now();
            parse_input(shared, conn);
            true
        }
        ReadSweep::Eof => {
            // half-close: the peer may still be reading; parse what
            // arrived before the EOF, finish queued work, flush, then
            // close (an open transaction aborts when the session drops)
            parse_input(shared, conn);
            conn.read_open = false;
            mark_input_closed(shared, conn, false);
            true
        }
        ReadSweep::Failed => {
            conn.read_open = false;
            conn.hard_dead = true;
            mark_input_closed(shared, conn, true);
            true
        }
    }
}

/// The read side of `conn` is finished. With `discard`, queued items are
/// dropped (the peer is gone and responses are undeliverable); without,
/// they drain normally. Either way the session is torn down exactly once
/// — here if the connection is unclaimed, else by the draining worker.
fn mark_input_closed(shared: &Shared, conn: &Conn, discard: bool) {
    let stale = {
        let mut w = lock(&conn.shared.work);
        w.closed = true;
        if discard {
            shared.queued.fetch_sub(w.queue.len(), Ordering::SeqCst);
            w.queue.clear();
        }
        if !w.scheduled && w.queue.is_empty() {
            w.session.take()
        } else {
            None
        }
    };
    // dropping the session aborts an open transaction; do it outside the
    // mailbox lock
    drop(stale);
}

/// Parse everything parseable out of `conn.rbuf`: the handshake preamble
/// first, then complete frames, dispatched in order.
fn parse_input(shared: &Arc<Shared>, conn: &mut Conn) {
    if !conn.handshaken {
        if conn.rbuf.len() < MAGIC.len() {
            return;
        }
        let ok = conn.rbuf[..MAGIC.len()] == MAGIC[..];
        conn.rbuf.drain(..MAGIC.len());
        if !ok {
            conn.read_open = false;
            enqueue_all(
                shared,
                conn,
                vec![WorkItem::Fatal(MadError::protocol(
                    "connection preamble mismatch: not a MAD protocol client",
                ))],
            );
            return;
        }
        conn.handshaken = true;
        // the hello precedes every response; write it straight into the
        // loop's buffer (the outbox is still empty)
        let hello = Response::Hello {
            protocol: PROTOCOL_VERSION,
            commit_seq: shared.handle.commit_seq(),
            durable: shared.handle.is_durable(),
            encodings: SUPPORTED_ENCODINGS,
        };
        if let Ok(frame) = frame_response(&hello) {
            push_frame(&mut conn.pending, frame);
        }
        lock(&conn.shared.work).session = Some(Session::shared(shared.handle.clone()));
    }
    // parse behind a cursor and consume every parsed frame with one drain:
    // draining per frame would memmove the rest of a coalesced pipeline
    // once per frame
    let mut items = Vec::new();
    let mut fatal = false;
    let mut consumed = 0;
    while !fatal {
        let rest = conn.rbuf.get(consumed..).unwrap_or_default();
        match split_frame(rest) {
            Ok(Some((payload, len))) => {
                consumed += len;
                match decode_request(payload) {
                    Ok(req) => {
                        shared.received.fetch_add(1, Ordering::SeqCst);
                        items.push(WorkItem::Req(req));
                    }
                    Err(e) => {
                        items.push(WorkItem::Fatal(e));
                        fatal = true;
                    }
                }
            }
            Ok(None) => break,
            Err(e) => {
                items.push(WorkItem::Fatal(e));
                fatal = true;
            }
        }
    }
    conn.rbuf.drain(..consumed);
    if fatal {
        conn.read_open = false;
    }
    if items.is_empty() {
        return;
    }
    // inline fast path: exactly one statement arrived and no connection
    // of this loop is claimed — execute here, no worker handoff
    if items.len() == 1 && !fatal && can_inline(shared, conn) {
        if let Some(item) = items.pop() {
            run_inline(shared, conn, item);
        }
        return;
    }
    enqueue_all(shared, conn, items);
}

/// May the owning loop execute this connection's single new item inline?
/// Only when no connection of this loop is claimed by a worker (queued
/// items always sit in a claimed mailbox) — then the handoff would only
/// add latency, and nothing of this loop waits behind the statement.
/// `pump_conn` read this connection only because its own mailbox was
/// empty and unclaimed, and only its loop claims it. Under synchronous
/// replication the fast path is off entirely: a COMMIT then parks until
/// a standby quorum acknowledges it, and a parked loop reads and flushes
/// nobody — including the very writer whose next commit the quorum may
/// be waiting on.
fn can_inline(shared: &Shared, conn: &Conn) -> bool {
    matches!(shared.handle.repl_ack(), ReplAck::Async)
        && conn.shared.home.claimed.load(Ordering::SeqCst) == 0
}

/// Execute one item on the owning loop (the single-statement fast
/// path). Response bytes go through the outbox like everyone else's, so
/// ordering with any not-yet-flushed worker output is preserved, and are
/// flushed at once: a reply that waited for the flush sweep would also
/// wait for whatever the read sweep inlines for the next connection, so
/// closed-loop clients would drift in and out of lock-step.
fn run_inline(shared: &Shared, conn: &mut Conn, item: WorkItem) {
    shared.inline.fetch_add(1, Ordering::Relaxed);
    let (mut session, mut encoding, stmt_ns) = {
        let mut w = lock(&conn.shared.work);
        (w.session.take(), w.encoding, Arc::clone(&w.stmt_ns))
    };
    let (frame, fatal) = run_item(shared, conn.shared.id, &stmt_ns, item, &mut session, &mut encoding);
    {
        let mut w = lock(&conn.shared.work);
        w.encoding = encoding;
        if fatal {
            w.closed = true;
        } else {
            w.session = session.take();
        }
    }
    if fatal {
        drop(session);
        conn.read_open = false;
    }
    push_frame(&mut lock(&conn.shared.outbox), frame);
    shared.requests.fetch_add(1, Ordering::SeqCst);
    flush_conn(shared, conn);
}

/// Append a response frame to an output buffer (the outbox, or the
/// loop's pending bytes): by move when the buffer is empty, which is the
/// common case, so a reply reaches the socket without another copy.
fn push_frame(buf: &mut Vec<u8>, frame: Vec<u8>) {
    if buf.is_empty() {
        *buf = frame;
    } else {
        buf.extend_from_slice(&frame);
    }
}

/// Append `items` to the connection's mailbox and claim it for the
/// worker pool if it is unclaimed.
fn enqueue_all(shared: &Shared, conn: &Conn, items: Vec<WorkItem>) {
    let n = items.len();
    let requests = items
        .iter()
        .filter(|item| matches!(item, WorkItem::Req(_)))
        .count();
    shared.handoff.fetch_add(requests, Ordering::Relaxed);
    let claim = {
        let mut w = lock(&conn.shared.work);
        w.queue.extend(items);
        shared.queued.fetch_add(n, Ordering::SeqCst);
        if w.scheduled {
            false
        } else {
            w.scheduled = true;
            conn.shared.home.claimed.fetch_add(1, Ordering::SeqCst);
            true
        }
    };
    if claim {
        lock(&shared.ready).push_back(Arc::clone(&conn.shared));
        shared.ready_cv.notify_one();
    }
}

/// One flush sweep over one connection: drain the outbox into the write
/// buffer, then write what the socket accepts.
fn flush_conn(shared: &Shared, conn: &mut Conn) -> bool {
    {
        let mut outbox = lock(&conn.shared.outbox);
        if !outbox.is_empty() {
            push_frame(&mut conn.pending, std::mem::take(&mut *outbox));
        }
    }
    if conn.pending.is_empty() || conn.hard_dead {
        return false;
    }
    let before = conn.pending.len();
    match sweep_write(&mut conn.stream, &mut conn.pending) {
        WriteSweep::Drained | WriteSweep::Pending => before != conn.pending.len(),
        WriteSweep::Failed => {
            conn.read_open = false;
            conn.hard_dead = true;
            mark_input_closed(shared, conn, true);
            true
        }
    }
}

/// Reap connections idle past the timeout with no in-flight work. The
/// reap notice is enqueued as a fatal item so it lands *after* any
/// responses still owed, and the session teardown runs through the same
/// exactly-once drop path as a disconnect.
fn reap_idle(shared: &Shared, conns: &mut [Conn], timeout: Duration) -> bool {
    let mut progress = false;
    for conn in conns.iter_mut() {
        if !conn.read_open || conn.last_activity.elapsed() < timeout {
            continue;
        }
        let quiet = {
            let w = lock(&conn.shared.work);
            w.queue.is_empty() && !w.scheduled
        };
        if !quiet {
            // mid-statement or mid-pipeline: not idle, restart the clock
            conn.last_activity = Instant::now();
            continue;
        }
        conn.read_open = false;
        shared.reaped.fetch_add(1, Ordering::SeqCst);
        enqueue_all(
            shared,
            conn,
            vec![WorkItem::Fatal(MadError::io(
                "connection reaped after idling past the server's timeout",
            ))],
        );
        progress = true;
    }
    progress
}

/// Is this connection completely finished — input closed, mailbox empty
/// and unclaimed, session torn down, output flushed (or unflushable)?
fn retired(conn: &Conn) -> bool {
    let done = {
        let w = lock(&conn.shared.work);
        w.closed && !w.scheduled && w.queue.is_empty() && w.session.is_none()
    };
    done && (conn.hard_dead || (conn.pending.is_empty() && lock(&conn.shared.outbox).is_empty()))
}

/// Deregister a retired connection: socket and per-connection metrics.
fn finish_conn(shared: &Shared, conn: &Conn) {
    let _ = conn.stream.shutdown(Shutdown::Both);
    // the connection's metrics leave the registry with it; the global
    // `net.stmt_ns` histogram keeps the totals
    shared.obs.remove_prefix(&format!("net.conn.{}.", conn.shared.id));
    shared.active.fetch_sub(1, Ordering::SeqCst);
    conn.shared.home.owned.fetch_sub(1, Ordering::SeqCst);
}

/// Force-close every remaining connection at the end of the drain.
fn teardown(shared: &Shared, conns: &mut Vec<Conn>) {
    for conn in conns.drain(..) {
        mark_input_closed(shared, &conn, true);
        finish_conn(shared, &conn);
    }
}

// ---------------------------------------------------------------------
// statement execution (worker pool + inline path)
// ---------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let claimed = {
            let mut ready = lock(&shared.ready);
            loop {
                if let Some(conn) = ready.pop_front() {
                    break Some(conn);
                }
                if shared.drained.load(Ordering::SeqCst) {
                    break None;
                }
                ready = shared
                    .ready_cv
                    .wait(ready)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let Some(conn) = claimed else { return };
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        drain_conn(shared, &conn);
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What a worker found when it asked a claimed mailbox for work.
enum NextItem {
    /// An item to execute, with the session and encoding taken out.
    Run(WorkItem, Option<Session>, u8, Arc<Histogram>),
    /// Mailbox empty: the claim was released. If the connection is
    /// closed, the session comes out here for its exactly-once drop.
    Done(Option<Session>),
}

/// Drain one claimed connection's mailbox: execute items in order,
/// appending each response frame to the outbox, until the mailbox is
/// empty. Several queued statements execute per claim, so the handoff
/// cost amortizes across a pipelined burst.
fn drain_conn(shared: &Shared, conn: &ConnShared) {
    loop {
        let next = {
            let mut w = lock(&conn.work);
            match w.queue.pop_front() {
                Some(item) => {
                    NextItem::Run(item, w.session.take(), w.encoding, Arc::clone(&w.stmt_ns))
                }
                None => {
                    w.scheduled = false;
                    conn.home.claimed.fetch_sub(1, Ordering::SeqCst);
                    NextItem::Done(if w.closed { w.session.take() } else { None })
                }
            }
        };
        let (item, mut session, mut encoding, stmt_ns) = match next {
            NextItem::Done(stale) => {
                // aborts an open transaction, outside the mailbox lock
                drop(stale);
                return;
            }
            NextItem::Run(item, session, encoding, stmt_ns) => (item, session, encoding, stmt_ns),
        };
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        let (frame, fatal) =
            run_item(shared, conn.id, &stmt_ns, item, &mut session, &mut encoding);
        {
            let mut w = lock(&conn.work);
            w.encoding = encoding;
            if fatal {
                w.closed = true;
                shared.queued.fetch_sub(w.queue.len(), Ordering::SeqCst);
                w.queue.clear();
            } else {
                w.session = session.take();
            }
        }
        // a fatal item's session (if any) drops here: exactly-once abort
        drop(session);
        push_frame(&mut lock(&conn.outbox), frame);
        shared.requests.fetch_add(1, Ordering::SeqCst);
        // wake the owning loop so the response flushes promptly
        conn.home.notify();
    }
}

/// Execute one work item and encode its response frame. Returns the
/// frame bytes and whether the item was fatal (the connection closes
/// after the response flushes).
///
/// A statement that panics is contained here: its slot is answered with
/// an I/O error and the item counts as fatal, so the caller closes the
/// connection and drops the session — outside the unwind, through the
/// same exactly-once path as a disconnect, aborting an open transaction.
/// The thread (an event loop or a worker) and every other connection
/// keep running.
fn run_item(
    shared: &Shared,
    conn_id: u64,
    stmt_ns: &Histogram,
    item: WorkItem,
    session: &mut Option<Session>,
    encoding: &mut u8,
) -> (Vec<u8>, bool) {
    let (resp, fatal) = match item {
        WorkItem::Fatal(e) => (Response::Error(e), true),
        WorkItem::Req(Request::Ping) => (Response::Pong, false),
        WorkItem::Req(Request::SetEncoding(enc)) => {
            if enc == ENCODING_TEXT || enc == ENCODING_BINARY {
                *encoding = enc;
                (Response::EncodingAck(enc), false)
            } else {
                (
                    Response::Error(MadError::protocol(format!(
                        "unsupported result encoding {enc} (hello advertised {SUPPORTED_ENCODINGS:#04b})"
                    ))),
                    false,
                )
            }
        }
        WorkItem::Req(Request::Statement(text)) => match session.as_mut() {
            Some(session) => match catch_unwind(AssertUnwindSafe(|| {
                execute_statement(shared, conn_id, stmt_ns, session, &text, *encoding)
            })) {
                Ok(resp) => (resp, false),
                Err(payload) => {
                    shared.statement_panics.fetch_add(1, Ordering::Relaxed);
                    (
                        Response::Error(MadError::io(format!(
                            "the statement panicked on the server ({}); the connection is closed",
                            panic_message(payload.as_ref())
                        ))),
                        true,
                    )
                }
            },
            // unreachable in practice: statements are only enqueued after
            // the handshake created the session, and a closed connection
            // stops enqueuing — but never panic on a protocol path
            None => (
                Response::Error(MadError::io("connection session already closed")),
                true,
            ),
        },
    };
    // the response itself may not fit a frame (a > 64 MiB rendered
    // result): answer with the error instead of dying silently
    let frame = frame_response(&resp)
        .or_else(|e| frame_response(&Response::Error(e)))
        .unwrap_or_default();
    (frame, fatal)
}

/// The message of a caught panic, if it carried one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message")
}

/// Execute one MQL statement in the connection's session, in the
/// negotiated result encoding, recording latency (and the slow-query
/// trace when armed).
fn execute_statement(
    shared: &Shared,
    conn_id: u64,
    stmt_ns: &Histogram,
    session: &mut Session,
    text: &str,
    encoding: u8,
) -> Response {
    #[cfg(test)]
    if text == tests::PANICKING_STATEMENT {
        panic!("injected statement panic");
    }
    // Stage tracing is armed only when the slow-query log wants the
    // breakdown; the latency histograms need just the total, so the
    // default path stays two clock reads. EXPLAIN ANALYZE arms its own
    // trace inside the session either way.
    let traced = shared.slow.threshold().is_some();
    let (resp, total_ns) = if encoding == ENCODING_BINARY {
        if traced {
            let (result, trace) = session.execute_bin_traced(text);
            shared.slow.offer(conn_id, &trace);
            (bin_response(result), trace.total_ns)
        } else {
            let started = Instant::now();
            let result = session.execute_bin(text);
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            (bin_response(result), ns)
        }
    } else if traced {
        let (result, trace) = session.execute_rendered_traced(text);
        shared.slow.offer(conn_id, &trace);
        (text_response(result), trace.total_ns)
    } else {
        let started = Instant::now();
        let result = session.execute_rendered(text);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        (text_response(result), ns)
    };
    shared.stmt_ns.record(total_ns);
    stmt_ns.record(total_ns);
    resp
}

fn text_response(result: Result<String>) -> Response {
    match result {
        Ok(rendered) => Response::Result(rendered),
        Err(e) => Response::Error(e),
    }
}

fn bin_response(result: Result<mad_model::bin::BinResult>) -> Response {
    match result {
        Ok(bin) => {
            let mut bytes = Vec::new();
            bin.encode(&mut bytes);
            Response::BinResult(bytes)
        }
        Err(e) => Response::Error(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use mad_model::{AttrType, SchemaBuilder, Value};
    use mad_storage::Database;

    fn geo_handle() -> DbHandle {
        let schema = SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text), ("pop", AttrType::Int)])
            .atom_type("area", &[("aid", AttrType::Int)])
            .link_type("state-area", "state", "area")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let state = db.schema().atom_type_id("state").unwrap();
        db.insert_atom(state, vec![Value::from("SP"), Value::from(10)])
            .unwrap();
        DbHandle::new(db)
    }

    #[test]
    fn serve_execute_shutdown_roundtrip() {
        let server = Server::serve(geo_handle(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.server_info().protocol, PROTOCOL_VERSION);
        assert!(!client.server_info().durable);
        assert_eq!(client.server_info().encodings, SUPPORTED_ENCODINGS);
        client.ping().unwrap();
        let text = client
            .execute("INSERT ATOM state (sname = 'MG', pop = 9)")
            .unwrap();
        assert!(text.starts_with("inserted atom"), "got: {text}");
        let text = client
            .execute("SELECT ALL FROM state WHERE state.sname = 'MG'")
            .unwrap();
        assert!(text.contains("1 molecule(s)"), "got: {text}");
        // statement errors come back typed, not as closed connections
        let err = client.execute("SELECT ALL FROM ghost").unwrap_err();
        assert!(matches!(err, MadError::UnknownName { .. }), "got {err:?}");
        // the session survives the error
        client.ping().unwrap();
        drop(client);
        server.shutdown();
    }

    #[test]
    fn malformed_preamble_gets_a_protocol_error() {
        use std::io::{BufReader, Write};
        let server = Server::serve(geo_handle(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"GET / HT").unwrap(); // an HTTP client, say
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let reply = crate::frame::read_frame(&mut reader).unwrap();
        let crate::frame::FrameIn::Payload(payload) = reply else {
            panic!("expected an error frame before close");
        };
        let resp = crate::frame::decode_response(&payload).unwrap();
        let Response::Error(e) = resp else {
            panic!("expected an error response, got {resp:?}")
        };
        assert!(matches!(e, MadError::Protocol { .. }), "got {e:?}");
        // ...and the connection is then closed
        assert!(matches!(
            crate::frame::read_frame(&mut reader),
            Ok(crate::frame::FrameIn::Closed)
        ));
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped_and_their_transactions_aborted() {
        let server = Server::serve_with(
            geo_handle(),
            "127.0.0.1:0",
            ServerConfig {
                idle_timeout: Some(Duration::from_millis(100)),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        client.execute("BEGIN").unwrap();
        client
            .execute("INSERT ATOM state (sname = 'RJ', pop = 6)")
            .unwrap();
        // ...and then the client goes silent (half-open in spirit)
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.active_connections() > 0 {
            assert!(std::time::Instant::now() < deadline, "connection never reaped");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.connections_reaped(), 1);
        // the open transaction died with its session: nothing committed,
        // and no registration pins the commit log
        assert_eq!(server.handle().committed().total_atoms(), 1);
        assert_eq!(server.handle().commit_log_len(), 0);
        // an active client is NOT reaped while it keeps talking (the
        // cadence sits well inside the timeout: a loaded box overshoots
        // sleeps, and the margin absorbs that)
        let mut live = Client::connect(addr).unwrap();
        for _ in 0..10 {
            std::thread::sleep(Duration::from_millis(20));
            live.ping().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn client_read_deadline_classifies_a_stalled_server() {
        use crate::{is_timeout_error, ClientConfig};
        // a listener that accepts and then never says anything
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sink = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_secs(2));
            drop(stream);
        });
        let err = Client::connect_with(
            addr,
            ClientConfig {
                read_timeout: Some(Duration::from_millis(100)),
                write_timeout: Some(Duration::from_millis(100)),
            },
        )
        .unwrap_err();
        assert!(is_timeout_error(&err), "got {err:?}");
        sink.join().unwrap();
    }

    #[test]
    fn conflict_retry_and_reconnect_policies() {
        use crate::RetryPolicy;
        // the idle timeout is what kills the connection server-side below
        let server = Server::serve_with(
            geo_handle(),
            "127.0.0.1:0",
            ServerConfig {
                idle_timeout: Some(Duration::from_millis(300)),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let policy = RetryPolicy::default();

        // retry helper: a conflict-free statement goes through unchanged
        let mut client = Client::connect(addr).unwrap();
        let text = client
            .execute_retry("SELECT ALL FROM state", &policy)
            .unwrap();
        assert!(text.contains("molecule"), "got: {text}");
        // a non-conflict error is NOT retried (fails fast, same error)
        let err = client
            .execute_retry("SELECT ALL FROM ghost", &policy)
            .unwrap_err();
        assert!(matches!(err, MadError::UnknownName { .. }), "got {err:?}");

        // reconnect: the server reaps the silent connection, then recover
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.connections_reaped() == 0 {
            assert!(std::time::Instant::now() < deadline, "connection never reaped");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(client.ping().is_err(), "connection should be dead");
        client.reconnect_retry(&policy).unwrap();
        client.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn slow_query_log_records_traced_statements_over_the_wire() {
        // threshold 0: every statement is "slow", so the log fills
        let server = Server::serve_with(
            geo_handle(),
            "127.0.0.1:0",
            ServerConfig {
                slow_query: Some(Duration::ZERO),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .execute("INSERT ATOM state (sname = 'MG', pop = 9)")
            .unwrap();
        client.execute("SELECT ALL FROM state").unwrap();
        client.ping().unwrap(); // pings are not statements: never logged
        let entries = server.slow_queries();
        assert_eq!(entries.len(), 2, "got: {}", server.render_slow_queries());
        // the entries carry real traces: text, total, non-zero stages
        let select = &entries[1];
        assert_eq!(select.conn, entries[0].conn);
        assert_eq!(select.trace.text, "SELECT ALL FROM state");
        assert!(select.trace.total_ns > 0);
        for kind in [
            mad_obs::StageKind::Lex,
            mad_obs::StageKind::Parse,
            mad_obs::StageKind::Derive,
            mad_obs::StageKind::Render,
        ] {
            assert_eq!(select.trace.stage_count(kind), 1, "{kind:?} missing");
            assert!(select.trace.stage_ns(kind) > 0, "{kind:?} timed at zero");
        }
        // the autocommit INSERT validated and appended through mad_txn
        assert_eq!(entries[0].trace.stage_count(mad_obs::StageKind::Validate), 1);
        // the ring buffer caps: overflow evicts the oldest entries
        for i in 0..(SLOW_LOG_CAP + 4) {
            client
                .execute(&format!("SELECT ALL FROM state WHERE state.pop = {i}"))
                .unwrap();
        }
        let entries = server.slow_queries();
        assert_eq!(entries.len(), SLOW_LOG_CAP);
        assert!(
            entries[0].trace.text.contains("state.pop"),
            "oldest entries were evicted: {}",
            entries[0].trace.text
        );
        // rendering shows one line per retained statement
        let rendered = server.render_slow_queries();
        assert_eq!(rendered.lines().count(), SLOW_LOG_CAP);
        server.shutdown();
    }

    #[test]
    fn show_stats_and_explain_analyze_served_over_the_wire() {
        let server = Server::serve(geo_handle(), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.execute("SELECT ALL FROM state").unwrap();
        // the server's registry is the handle's: net.* and mql.* both show
        let text = client.execute("SHOW STATS net").unwrap();
        assert!(text.contains("net.stmt_ns"), "got: {text}");
        assert!(text.contains("net.active"), "got: {text}");
        assert!(text.contains("net.pipeline.queued"), "got: {text}");
        let text = client.execute("SHOW STATS mql").unwrap();
        assert!(text.contains("mql.statements"), "got: {text}");
        // per-connection histograms appear while the connection lives…
        let text = client.execute("SHOW STATS").unwrap();
        assert!(text.contains("net.conn.0.stmt_ns"), "got: {text}");
        // …and EXPLAIN ANALYZE renders stage timings to the client
        let text = client
            .execute("EXPLAIN ANALYZE SELECT ALL FROM state WHERE state.pop = 10")
            .unwrap();
        assert!(text.contains("derive"), "got: {text}");
        assert!(text.contains("1 molecule(s)"), "got: {text}");
        // machine-readable stats parse as JSON on the client side
        let text = client.execute("SHOW STATS net AS JSON").unwrap();
        let json = mad_model::json::Json::parse(&text).unwrap();
        let count = json.get("net.stmt_ns").unwrap().get("count").unwrap();
        assert!(matches!(count, mad_model::json::Json::Int(n) if *n >= 5), "got: {count:?}");
        drop(client);
        server.shutdown();
    }

    #[test]
    fn connection_metrics_are_scoped_to_the_connection_lifetime() {
        let server = Server::serve(geo_handle(), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.execute("SELECT ALL FROM state").unwrap();
        let snap = server.obs().snapshot(Some("net.conn"));
        assert!(!snap.is_empty(), "live connection registers its histogram");
        drop(client);
        // wait for the event loop to retire the connection and unregister
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.active_connections() > 0 || !server.obs().snapshot(Some("net.conn")).is_empty()
        {
            assert!(
                std::time::Instant::now() < deadline,
                "per-connection metrics outlived the connection"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    /// A commit parked in a replication-quorum wait must not stall the
    /// rest of the server. Regression test for a distributed deadlock:
    /// an event loop inlined a sync-quorum COMMIT and froze every sweep —
    /// no other connection could even be read — while the quorum it was
    /// waiting on needed further traffic to converge. The commit must
    /// park on a *worker*, with the loops and the remaining workers
    /// still serving everyone else.
    #[test]
    fn a_parked_quorum_commit_does_not_stall_other_connections() {
        let handle = geo_handle();
        // one standby required, none attached: every commit parks until
        // the mode is loosened back to Async
        handle.set_repl_ack(ReplAck::SyncQuorum(1));
        let server = Server::serve(handle.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let committed = Arc::new(AtomicBool::new(false));
        let writer = {
            let committed = Arc::clone(&committed);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let out = client.execute("INSERT ATOM state (sname = 'RS', pop = 11)");
                committed.store(true, Ordering::SeqCst);
                out
            })
        };
        // wait until the INSERT reached the server (received, not yet
        // answered), then give it a beat to reach the quorum park
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.requests_received() == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50));
        // an independent connection must connect and answer while the
        // writer is parked (the Client's read deadline turns a frozen
        // server into a test failure, not a hang)
        let mut reader = Client::connect(addr).unwrap();
        let text = reader.execute("SELECT ALL FROM state").unwrap();
        assert!(text.contains("molecule(s)"), "got: {text}");
        assert!(
            !committed.load(Ordering::SeqCst),
            "the quorum wait should still be parked"
        );
        // loosening the mode releases the parked waiter
        handle.set_repl_ack(ReplAck::Async);
        let ack = writer.join().unwrap().unwrap();
        assert!(ack.starts_with("inserted atom"), "got: {ack}");
        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_parked_clients() {
        let server = Server::serve(geo_handle(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        assert_eq!(server.active_connections(), 1);
        server.shutdown(); // must not hang on the idle connection
        // the client now observes a dead connection as an I/O error
        let err = client.execute("SELECT ALL FROM state").unwrap_err();
        assert!(
            matches!(err, MadError::Io { .. } | MadError::Protocol { .. }),
            "got {err:?}"
        );
    }

    /// The statement text the test build's hook panics on.
    pub(super) const PANICKING_STATEMENT: &str = "PANIC ON THE SERVER";

    /// A `net.*`/`txn.*` gauge's current reading.
    fn gauge(obs: &Registry, name: &str) -> u64 {
        obs.snapshot(Some(name))
            .into_iter()
            .find_map(|(n, v)| match v {
                mad_obs::MetricValue::Gauge(g) if n == name => Some(g),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no gauge {name}"))
    }

    /// Connections per event loop, in loop order.
    fn owned_per_loop(server: &Server) -> Vec<usize> {
        server
            .shared
            .loops
            .iter()
            .map(|l| l.owned.load(Ordering::SeqCst))
            .collect()
    }

    /// `conns` connections to a fresh server with `loops` event loops;
    /// checks they are spread evenly over the loops.
    fn serve_spread(loops: usize, conns: usize, config: ServerConfig) -> (Server, Vec<Client>) {
        let server = Server::serve_loops(geo_handle(), "127.0.0.1:0", config, loops).unwrap();
        let clients: Vec<Client> = (0..conns)
            .map(|_| Client::connect(server.local_addr()).unwrap())
            .collect();
        assert_eq!(owned_per_loop(&server), vec![conns / loops; loops]);
        (server, clients)
    }

    /// (event loops, connections) for the multi-connection tests: one
    /// loop with one connection, and four connections over two loops.
    const SPREADS: [(usize, usize); 2] = [(1, 1), (2, 4)];

    #[test]
    fn pipelined_statements_answer_in_order() {
        for (loops, conns) in SPREADS {
            let (server, mut clients) = serve_spread(loops, conns, ServerConfig::default());
            std::thread::scope(|scope| {
                for (c, client) in clients.iter_mut().enumerate() {
                    scope.spawn(move || pipeline_in_order(client, c));
                }
            });
            // per connection: 8 inserts and one inserted in a transaction
            assert_eq!(server.handle().committed().total_atoms(), 1 + 9 * conns);
            server.shutdown();
        }
    }

    /// One connection's pipelined bursts; `c` keeps its atoms apart from
    /// the other connections'.
    fn pipeline_in_order(client: &mut Client, c: usize) {
        // a write burst first, then the responses — the server executes
        // in order on one session, so later SELECTs see earlier INSERTs
        let base = 1000 * (c + 1);
        let stmts: Vec<String> = (0..8)
            .map(|i| format!("INSERT ATOM state (sname = 'C{c}S{i}', pop = {base})"))
            .collect();
        let select = format!("SELECT ALL FROM state WHERE state.pop = {base}");
        let mut all: Vec<&str> = stmts.iter().map(String::as_str).collect();
        all.push(&select);
        let results = client.execute_pipelined(&all).unwrap();
        assert_eq!(results.len(), 9);
        for r in &results[..8] {
            assert!(r.as_ref().unwrap().starts_with("inserted atom"));
        }
        let selected = results[8].as_ref().unwrap();
        assert!(selected.contains("8 molecule(s)"), "got: {selected}");
        // a transaction spanning pipelined round-trips commits atomically
        let results = client
            .execute_pipelined(&[
                "BEGIN",
                &format!("INSERT ATOM state (sname = 'C{c}TX', pop = 1)"),
                "COMMIT",
            ])
            .unwrap();
        assert!(results.iter().all(Result::is_ok), "got: {results:?}");
        // BEGIN/UPDATE/COMMIT groups, answered slot by slot in order
        let groups: Vec<[String; 3]> = (1..=6)
            .map(|g| {
                [
                    "BEGIN".to_owned(),
                    format!("UPDATE state[sname='C{c}S0'] SET pop = {}", base + g),
                    "COMMIT".to_owned(),
                ]
            })
            .collect();
        let last = format!("SELECT ALL FROM state WHERE state.pop = {}", base + 6);
        let mut all: Vec<&str> = groups.iter().flatten().map(String::as_str).collect();
        all.push(&last);
        let results = client.execute_pipelined(&all).unwrap();
        for (slot, r) in results.iter().enumerate() {
            let text = r.as_ref().unwrap();
            let expected = match slot % 3 {
                _ if slot == groups.len() * 3 => "1 molecule(s)",
                0 => "transaction started",
                1 => "updated 1 atom(s)",
                _ => "committed 1 operation(s)",
            };
            assert!(text.contains(expected), "slot {slot}: got {text}");
        }
    }

    #[test]
    fn shutdown_drains_queued_statements_before_joining_workers() {
        for (loops, conns) in SPREADS {
            // single worker: a burst is guaranteed to sit queued while the
            // first statements execute, so shutdown races a non-empty
            // mailbox on every loop
            let config = ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            };
            let (server, mut clients) = serve_spread(loops, conns, config);
            const N: usize = 64;
            for (c, client) in clients.iter_mut().enumerate() {
                for i in 0..N {
                    let stmt = format!("INSERT ATOM state (sname = 'D{c}_{i}', pop = {i})");
                    client.send_statement(&stmt).unwrap();
                }
            }
            // wait until the server has parsed every burst — from then on
            // the drain guarantee owes a response for every statement —
            // then shut down while they are (at best partially) executed
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while server.requests_received() < N * conns {
                assert!(
                    std::time::Instant::now() < deadline,
                    "bursts never fully parsed: {} of {}",
                    server.requests_received(),
                    N * conns
                );
                std::thread::yield_now();
            }
            let stopper = std::thread::spawn(move || server.shutdown());
            for client in &mut clients {
                // every queued statement must still be answered, in order,
                // and only then may the connection close
                for _ in 0..N {
                    let text = client.recv_result().unwrap();
                    assert!(text.starts_with("inserted atom"), "got: {text}");
                }
                // a ping sent now may still sneak into the teardown window
                // and be answered (reads keep draining while stopping); the
                // connection must close shortly regardless
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                let err = loop {
                    match client.ping() {
                        Err(e) => break e,
                        Ok(()) => assert!(
                            std::time::Instant::now() < deadline,
                            "connection never closed after the drain"
                        ),
                    }
                };
                assert!(matches!(err, MadError::Io { .. }), "got {err:?}");
            }
            stopper.join().unwrap();
        }
    }

    #[test]
    fn kill_aborts_open_transactions_on_every_loop() {
        for (loops, conns) in SPREADS {
            let (server, mut clients) = serve_spread(loops, conns, ServerConfig::default());
            let handle = server.handle().clone();
            for (c, client) in clients.iter_mut().enumerate() {
                client.execute("BEGIN").unwrap();
                client
                    .execute(&format!("INSERT ATOM state (sname = 'K{c}', pop = 1)"))
                    .unwrap();
            }
            assert_eq!(gauge(server.obs(), "txn.active"), u64_of_usize(conns));
            server.kill();
            // every open transaction aborted exactly once: no registration
            // is left, none was released twice, nothing committed…
            assert_eq!(gauge(handle.obs(), "txn.active"), 0);
            assert_eq!(handle.commit_log_len(), 0);
            assert_eq!(handle.committed().total_atoms(), 1);
            // …and the clients see their connections gone
            for client in &mut clients {
                assert!(client.execute("COMMIT").is_err());
            }
            // the handle is not wedged: a fresh server commits on it
            let server =
                Server::serve_loops(handle, "127.0.0.1:0", ServerConfig::default(), loops).unwrap();
            let mut client = Client::connect(server.local_addr()).unwrap();
            let insert = "INSERT ATOM state (sname = 'KX', pop = 1)";
            let results = client
                .execute_pipelined(&["BEGIN", insert, "COMMIT"])
                .unwrap();
            assert!(results.iter().all(Result::is_ok), "got {results:?}");
            assert_eq!(server.handle().committed().total_atoms(), 2);
            server.shutdown();
        }
    }

    #[test]
    fn lone_clients_run_inline_and_pipelined_bursts_hand_off() {
        let server = Server::serve(geo_handle(), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        // a closed-loop client: each request arrives alone on an idle loop
        for i in 0..20 {
            client
                .execute(&format!("SELECT ALL FROM state WHERE state.pop = {i}"))
                .unwrap();
            client.ping().unwrap();
        }
        assert_eq!(gauge(server.obs(), "net.inline"), 40);
        assert_eq!(gauge(server.obs(), "net.handoff"), 0);
        // a pipelined burst: whatever arrives together goes to a worker
        let burst: Vec<String> = (0..32)
            .map(|i| format!("INSERT ATOM state (sname = 'H{i}', pop = {i})"))
            .collect();
        let burst: Vec<&str> = burst.iter().map(String::as_str).collect();
        let results = client.execute_pipelined(&burst).unwrap();
        assert!(results.iter().all(Result::is_ok));
        let inline = gauge(server.obs(), "net.inline");
        let handoff = gauge(server.obs(), "net.handoff");
        assert!(handoff > 0, "a pipelined burst never reached a worker");
        // every received request ran exactly once, on one path or the other
        assert_eq!(inline + handoff, u64_of_usize(server.requests_received()));
        assert_eq!(inline + handoff, 40 + 32);
        server.shutdown();
    }

    /// Open a raw connection and write the preamble and `stmts` with one
    /// write, so the loop parses them as one coalesced burst; returns the
    /// responses read until the server closes the connection.
    fn coalesced_burst(addr: SocketAddr, stmts: &[&str]) -> Vec<Response> {
        use crate::frame::{decode_response, encode_request, read_frame, write_frame, FrameIn};
        use std::io::{BufReader, Write};
        let mut bytes = MAGIC.to_vec();
        for stmt in stmts {
            let req = encode_request(&Request::Statement((*stmt).to_owned()));
            write_frame(&mut bytes, &req).unwrap();
        }
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(&bytes).unwrap();
        let mut reader = BufReader::new(raw);
        let mut responses = Vec::new();
        while let FrameIn::Payload(payload) = read_frame(&mut reader).unwrap() {
            responses.push(decode_response(&payload).unwrap());
        }
        responses
    }

    #[test]
    fn a_panicking_statement_closes_only_its_connection() {
        for (loops, conns) in SPREADS {
            let (server, mut clients) = serve_spread(loops, conns, ServerConfig::default());
            let handle = server.handle().clone();
            let is_panic_reply =
                |e: &MadError| matches!(e, MadError::Io { detail } if detail.contains("panicked"));
            // inline: a lone request inside an open transaction on an idle
            // loop panics on the loop itself
            let mut victim = clients.remove(0);
            victim.execute("BEGIN").unwrap();
            victim
                .execute("INSERT ATOM state (sname = 'P0', pop = 1)")
                .unwrap();
            let inline = gauge(server.obs(), "net.inline");
            let err = victim.execute(PANICKING_STATEMENT).unwrap_err();
            assert!(is_panic_reply(&err), "got {err:?}");
            assert_eq!(gauge(server.obs(), "net.inline"), inline + 1);
            // the connection is closed after the answered slot
            assert!(victim.ping().is_err());
            // handed off: a coalesced burst panics on a worker, after the
            // slots before it are answered; the rest of the burst is dropped
            let handoff = gauge(server.obs(), "net.handoff");
            let replies = coalesced_burst(
                server.local_addr(),
                &[
                    "BEGIN",
                    "INSERT ATOM state (sname = 'P1', pop = 1)",
                    PANICKING_STATEMENT,
                    "COMMIT",
                ],
            );
            assert_eq!(gauge(server.obs(), "net.handoff"), handoff + 4);
            assert!(
                matches!(replies[0], Response::Hello { .. }),
                "got {replies:?}"
            );
            assert!(matches!(&replies[1], Response::Result(t) if t.contains("started")));
            assert!(matches!(&replies[2], Response::Result(t) if t.starts_with("inserted")));
            assert!(
                matches!(&replies[3], Response::Error(e) if is_panic_reply(e)),
                "got {replies:?}"
            );
            assert_eq!(replies.len(), 4, "got {replies:?}");
            assert_eq!(gauge(server.obs(), "net.statement_panics"), 2);
            // both open transactions aborted exactly once with their sessions
            let deadline = Instant::now() + Duration::from_secs(5);
            while server.active_connections() > clients.len() {
                assert!(
                    Instant::now() < deadline,
                    "a panicked connection never retired"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(gauge(server.obs(), "txn.active"), 0);
            assert_eq!(handle.commit_log_len(), 0);
            assert_eq!(handle.committed().total_atoms(), 1);
            // every other connection, and new ones, keep being served
            clients.push(Client::connect(server.local_addr()).unwrap());
            for (c, client) in clients.iter_mut().enumerate() {
                let text = client
                    .execute(&format!("INSERT ATOM state (sname = 'Q{c}', pop = 2)"))
                    .unwrap();
                assert!(text.starts_with("inserted atom"), "got: {text}");
            }
            assert_eq!(handle.committed().total_atoms(), 1 + clients.len());
            server.shutdown();
        }
    }

    #[test]
    fn binary_encoding_negotiates_and_round_trips() {
        use mad_model::bin::BinResult;
        let server = Server::serve(geo_handle(), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.server_info().encodings & (1 << ENCODING_BINARY), 2);
        client.set_encoding(ENCODING_BINARY).unwrap();
        // molecule sets now travel structurally…
        let result = client.execute_bin("SELECT ALL FROM state").unwrap();
        let BinResult::Molecules(bm) = &result else {
            panic!("expected a structural result, got {result:?}");
        };
        assert_eq!(bm.molecules.len(), 1);
        assert_eq!(bm.nodes[0].atom_type, "state");
        assert_eq!(bm.molecules[0][0].tuple[0], Value::from("SP"));
        // …and the text renderer on the client side still shows them
        let text = client.execute("SELECT ALL FROM state").unwrap();
        assert!(text.contains("(binary)"), "got: {text}");
        // non-molecule results arrive as pre-rendered text payloads
        let result = client
            .execute_bin("INSERT ATOM state (sname = 'BN', pop = 2)")
            .unwrap();
        assert!(matches!(result, BinResult::Text(t) if t.starts_with("inserted atom")));
        // errors stay structural regardless of encoding
        let err = client.execute("SELECT ALL FROM ghost").unwrap_err();
        assert!(matches!(err, MadError::UnknownName { .. }), "got {err:?}");
        // switching back restores rendered text results
        client.set_encoding(ENCODING_TEXT).unwrap();
        let text = client.execute("SELECT ALL FROM state").unwrap();
        assert!(text.contains("structure:"), "got: {text}");
        // an unknown encoding is refused in-band, connection intact
        let err = client.set_encoding(9).unwrap_err();
        assert!(matches!(err, MadError::Protocol { .. }), "got {err:?}");
        client.ping().unwrap();
        server.shutdown();
    }
}
