//! The readiness shim: non-blocking socket sweeps and the event loop's
//! adaptive idle wait.
//!
//! The workspace forbids `unsafe` and vendors no FFI, so there is no
//! `epoll`/`kqueue` to call. Readiness is instead *discovered by
//! attempting the operation* on sockets switched to non-blocking mode:
//! a read that returns [`std::io::ErrorKind::WouldBlock`] means "not
//! readable now", a short or refused write means "not writable now", and
//! the event loop simply retries on its next sweep. What this costs over
//! a kernel selector is one failed syscall per idle connection per sweep;
//! what it keeps is the same structure an epoll loop would have — each
//! event loop thread owning its sockets (the server runs one loop per
//! core, and a socket belongs to exactly one loop), sweeping readiness,
//! and dispatching parsed frames to workers — with zero unsafe code.
//!
//! Between sweeps a loop waits adaptively (see [`IdleWait`]): while
//! traffic is hot it spins with [`std::thread::yield_now`] so the peer
//! (often a benchmark client on the same box) gets the core immediately;
//! once genuinely idle it parks on its own [`Condvar`] with escalating
//! timeouts, so an idle loop costs a few hundred wakeups per second,
//! not a spinning core. Workers signal the owning loop's condvar when
//! they append response bytes, and the listening loop signals it when it
//! hands over a new socket, so both stay prompt from the parked state.

use mad_model::{MadError, Result};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Lock a mutex, ignoring poisoning: the data under every mad-net mutex
/// is a queue or byte buffer that stays structurally valid even if a
/// holder panicked mid-update, and the server's failure containment is
/// per-connection, not process-wide.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Outcome of one non-blocking read sweep over a connection.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadSweep {
    /// Nothing to read right now (`WouldBlock` before any byte).
    Idle,
    /// At least one byte was appended to the buffer.
    Progress,
    /// The peer closed its write side (EOF).
    Eof,
    /// The socket failed; the connection is dead.
    Failed,
}

/// Per-sweep read cap per connection, so one fire-hosing peer cannot
/// starve the rest of the sweep.
const READ_SWEEP_CAP: usize = 256 * 1024;

/// Read whatever the socket has ready into `buf`, without blocking.
/// Stops at [`ReadSweep::Idle`] (`WouldBlock`), EOF, error, or the
/// per-sweep cap (reported as progress; the next sweep continues).
pub fn sweep_read(stream: &mut TcpStream, buf: &mut Vec<u8>, scratch: &mut [u8]) -> ReadSweep {
    let mut total = 0usize;
    loop {
        match stream.read(scratch) {
            Ok(0) => return ReadSweep::Eof,
            Ok(n) => {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "read returns n <= scratch.len() by contract"
                )]
                buf.extend_from_slice(&scratch[..n]);
                total += n;
                if total >= READ_SWEEP_CAP {
                    return ReadSweep::Progress;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                return if total == 0 {
                    ReadSweep::Idle
                } else {
                    ReadSweep::Progress
                };
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadSweep::Failed,
        }
    }
}

/// Outcome of one non-blocking write sweep over a connection.
#[derive(Debug, PartialEq, Eq)]
pub enum WriteSweep {
    /// Every pending byte went out.
    Drained,
    /// The socket stopped accepting bytes (`WouldBlock`); the remainder
    /// stays in the buffer for the next sweep.
    Pending,
    /// The socket failed; the connection is dead.
    Failed,
}

/// Write as much of `buf` as the socket accepts without blocking; written
/// bytes are removed from the front of `buf`.
pub fn sweep_write(stream: &mut TcpStream, buf: &mut Vec<u8>) -> WriteSweep {
    let mut written = 0usize;
    let outcome = loop {
        if written == buf.len() {
            break WriteSweep::Drained;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "the Drained break above keeps written <= buf.len()"
        )]
        match stream.write(&buf[written..]) {
            // a zero-length write on a non-empty buffer: the peer's
            // receive window is gone for good — treat as failure
            Ok(0) => break WriteSweep::Failed,
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break WriteSweep::Pending,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break WriteSweep::Failed,
        }
    };
    if written > 0 {
        buf.drain(..written);
    }
    outcome
}

/// Sweeps of pure spinning (one [`std::thread::yield_now`] each) before
/// the loop starts parking on the condvar. On a single-core box the
/// yield is what hands the CPU to the in-process peer, so a hot
/// request/response ping-pong never pays a park/unpark.
const SPIN_SWEEPS: u32 = 256;

/// The escalating park timeouts once spinning gives up.
const PARK_STEPS: [Duration; 3] = [
    Duration::from_micros(200),
    Duration::from_millis(1),
    Duration::from_millis(5),
];

/// Sweeps spent at each park step before escalating to the next.
const PARK_STEP_SWEEPS: u32 = 64;

/// The event loop's adaptive idle wait: spin while hot, park with
/// escalating timeouts while idle. [`IdleWait::progress`] resets the
/// escalation; the timeout cap bounds how stale a sweep can be (new
/// connections and new request bytes are discovered by sweeping, so the
/// cap is also the worst-case latency for an idle server's first byte).
#[derive(Debug, Default)]
pub struct IdleWait {
    streak: u32,
}

impl IdleWait {
    /// Called after any sweep that accomplished work.
    pub fn progress(&mut self) {
        self.streak = 0;
    }

    /// Called after an idle sweep: yield or park until the next sweep is
    /// due, or until a worker signals `(signal, cv)`.
    pub fn wait(&mut self, signal: &Mutex<bool>, cv: &Condvar) {
        self.streak = self.streak.saturating_add(1);
        if self.streak <= SPIN_SWEEPS {
            std::thread::yield_now();
            return;
        }
        let step = usize::min(
            ((self.streak - SPIN_SWEEPS) / PARK_STEP_SWEEPS) as usize,
            PARK_STEPS.len() - 1,
        );
        let mut flagged = lock(signal);
        if !*flagged {
            let (guard, _) = cv
                .wait_timeout(flagged, PARK_STEPS[step])
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            flagged = guard;
        }
        if *flagged {
            // a worker produced output while we parked: hot again
            *flagged = false;
            self.streak = 0;
        }
    }

    /// Called by a loop with nothing to sweep at all (no sockets, no
    /// listener), so only a signal can bring it work: skip the spin and
    /// park at the longest timeout at once, leaving the cores to the
    /// threads that have work.
    pub fn park(&mut self, signal: &Mutex<bool>, cv: &Condvar) {
        let longest = SPIN_SWEEPS + PARK_STEP_SWEEPS * PARK_STEPS.len() as u32;
        self.streak = self.streak.max(longest);
        self.wait(signal, cv);
    }
}

/// Switch a freshly accepted stream into the event loop's discipline:
/// non-blocking, no Nagle delay.
pub fn prepare_stream(stream: &TcpStream) -> Result<()> {
    let _ = stream.set_nodelay(true);
    stream
        .set_nonblocking(true)
        .map_err(|e| MadError::io(format!("set non-blocking: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn sweeps_discover_readiness_without_blocking() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut server = server;
        prepare_stream(&server).unwrap();

        // nothing sent yet: the read sweep reports idle, not a block
        let mut buf = Vec::new();
        let mut scratch = [0u8; 4096];
        assert_eq!(sweep_read(&mut server, &mut buf, &mut scratch), ReadSweep::Idle);

        // bytes written by the peer show up on a later sweep
        client.write_all(b"hello").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match sweep_read(&mut server, &mut buf, &mut scratch) {
                ReadSweep::Progress => break,
                ReadSweep::Idle if std::time::Instant::now() < deadline => {
                    std::thread::yield_now();
                }
                other => panic!("unexpected sweep outcome: {other:?}"),
            }
        }
        assert_eq!(buf, b"hello");

        // a write sweep drains the buffer through the socket
        let mut out = b"world".to_vec();
        assert_eq!(sweep_write(&mut server, &mut out), WriteSweep::Drained);
        assert!(out.is_empty());
        let mut echo = [0u8; 5];
        client.read_exact(&mut echo).unwrap();
        assert_eq!(&echo, b"world");

        // peer gone: EOF, then failure modes stay non-blocking
        drop(client);
        loop {
            match sweep_read(&mut server, &mut buf, &mut scratch) {
                ReadSweep::Eof => break,
                ReadSweep::Idle if std::time::Instant::now() < deadline => {
                    std::thread::yield_now();
                }
                other => panic!("unexpected sweep outcome: {other:?}"),
            }
        }
    }

    #[test]
    fn idle_wait_spins_then_parks_and_resets_on_signal() {
        let signal = Mutex::new(false);
        let cv = Condvar::new();
        let mut wait = IdleWait::default();
        // the spin phase must not park (fast even called 3× the spin budget)
        let started = std::time::Instant::now();
        for _ in 0..SPIN_SWEEPS {
            wait.wait(&signal, &cv);
        }
        assert!(started.elapsed() < Duration::from_secs(1));
        // past the spin budget it parks — but a pending signal wakes it
        *lock(&signal) = true;
        wait.wait(&signal, &cv);
        assert_eq!(wait.streak, 0, "a signal must reset the escalation");
        assert!(!*lock(&signal), "the signal must be consumed");
        // a loop with nothing to sweep parks at once, and a signal still
        // wakes it and resets the escalation
        *lock(&signal) = true;
        wait.park(&signal, &cv);
        assert_eq!(wait.streak, 0);
        wait.park(&signal, &cv);
        assert!(
            wait.streak > SPIN_SWEEPS,
            "an unsignalled park stays escalated"
        );
    }
}
