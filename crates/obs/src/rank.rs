//! Ranked locks: the lock hierarchy of ARCHITECTURE.md as types.
//!
//! Every lock on the commit path is a [`RankedMutex`] or [`RankedRwLock`]
//! built with one of the [`Rank`] constants below. A thread holding a
//! ranked lock may only acquire locks of a **strictly greater** rank; two
//! threads can then never wait on each other in a cycle.
//!
//! With `debug_assertions` (every `cargo test` build) each acquisition
//! checks the order against a thread-local bitmask of the ranks the
//! thread holds. The check runs *before* the thread blocks, so an
//! inverted acquisition panics with both lock names instead of hanging a
//! test, however many calls and crates lie between the two acquisitions.
//! Without `debug_assertions` nothing is recorded and the checks compile
//! out: the wrappers inline to the plain std locks.
//!
//! The wrappers return [`LockResult`] exactly like std, so poison
//! handling stays at the call site.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};
use std::time::Duration;

/// One row of the lock hierarchy. The constants below are the only
/// ranks; `tests/lock_ranks.rs` holds ARCHITECTURE.md's table to them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rank {
    level: u32,
    name: &'static str,
}

impl Rank {
    /// Position in the hierarchy (1 is taken first).
    pub const fn level(self) -> u32 {
        self.level
    }

    /// The lock's name in the hierarchy table.
    pub const fn name(self) -> &'static str {
        self.name
    }
}

/// `mad-txn` commit ticket: sequence and replication feeds.
pub const TICKET: Rank = Rank { level: 1, name: "ticket" };
/// `mad-txn` active-transaction begin counts.
pub const ACTIVE: Rank = Rank { level: 2, name: "active" };
/// `mad-txn` write-key index and retained commit records.
pub const CONFLICT_LOG: Rank = Rank { level: 3, name: "conflict_log" };
/// `mad-txn` published `(Arc<Database>, seq)` image.
pub const PUBLISHED: Rank = Rank { level: 4, name: "published" };
/// `mad-txn` replication acks (with their condvar).
pub const REPL: Rank = Rank { level: 5, name: "repl" };
/// `mad-txn` auto-checkpoint policy.
pub const CKPT_POLICY: Rank = Rank { level: 6, name: "ckpt_policy" };
/// `mad-wal` group-commit syncer election and durable LSN.
pub const SYNC: Rank = Rank { level: 7, name: "sync" };
/// `mad-wal` segment and checkpoint file handles.
pub const FILES: Rank = Rank { level: 8, name: "files" };
/// `mad-wal` fault-injection schedule.
pub const FAULT: Rank = Rank { level: 9, name: "fault" };
/// `mad-obs` metrics registry name→metric map.
pub const REGISTRY: Rank = Rank { level: 10, name: "registry" };

/// Every rank, in acquisition order.
pub const HIERARCHY: [Rank; 10] =
    [TICKET, ACTIVE, CONFLICT_LOG, PUBLISHED, REPL, CKPT_POLICY, SYNC, FILES, FAULT, REGISTRY];

thread_local! {
    /// Bit `level` is set while this thread holds that rank (recorded
    /// only with `debug_assertions`).
    static HELD: Cell<u32> = const { Cell::new(0) };
}

/// The highest rank the calling thread holds, if any. Always `None`
/// without `debug_assertions`, where nothing is recorded.
pub fn highest_held() -> Option<Rank> {
    highest_in(HELD.with(Cell::get))
}

fn highest_in(mask: u32) -> Option<Rank> {
    let level = u32::BITS.checked_sub(mask.leading_zeros() + 1)?;
    HIERARCHY.into_iter().find(|r| r.level == level)
}

/// One rank held by this thread; dropping it releases the rank, in
/// whatever order guards are dropped.
struct Held(u32);

impl Held {
    /// Record `rank` as held, or panic if the thread already holds it or
    /// anything above it. A no-op without `debug_assertions`.
    #[inline]
    #[expect(
        clippy::panic,
        reason = "an inverted acquisition is a deadlock candidate; reporting it is this check's job"
    )]
    fn take(rank: Rank) -> Held {
        if !cfg!(debug_assertions) {
            return Held(0);
        }
        let bit = 1u32 << rank.level;
        let held = HELD.with(Cell::get);
        if let Some(top) = highest_in(held & !(bit - 1)) {
            panic!(
                "lock order violation: `{}` (rank {}) acquired while holding `{}` (rank {})",
                rank.name, rank.level, top.name, top.level
            );
        }
        HELD.with(|h| h.set(held | bit));
        Held(bit)
    }
}

impl Drop for Held {
    #[inline]
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            HELD.with(|h| h.set(h.get() & !self.0));
        }
    }
}

/// A std lock guard that also holds its rank until dropped.
pub struct RankedGuard<G> {
    guard: G,
    held: Held,
}

impl<G: Deref> Deref for RankedGuard<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for RankedGuard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

impl<'a, T> RankedGuard<MutexGuard<'a, T>> {
    /// [`Condvar::wait`] on this guard's mutex. The rank stays held: the
    /// thread is blocked while the mutex is released.
    pub fn wait(self, cv: &Condvar) -> LockResult<Self> {
        let RankedGuard { guard, held } = self;
        wrap(cv.wait(guard), held)
    }

    /// [`Condvar::wait_timeout`] on this guard's mutex. Whether it timed
    /// out is dropped: callers re-check their condition.
    pub fn wait_timeout(self, cv: &Condvar, timeout: Duration) -> LockResult<Self> {
        let RankedGuard { guard, held } = self;
        let waited = cv.wait_timeout(guard, timeout);
        wrap(waited.map(|(g, _)| g).map_err(|p| PoisonError::new(p.into_inner().0)), held)
    }
}

/// A guard of a [`RankedMutex`].
pub type RankedMutexGuard<'a, T> = RankedGuard<MutexGuard<'a, T>>;

fn wrap<G>(locked: LockResult<G>, held: Held) -> LockResult<RankedGuard<G>> {
    match locked {
        Ok(guard) => Ok(RankedGuard { guard, held }),
        Err(poison) => Err(PoisonError::new(RankedGuard { guard: poison.into_inner(), held })),
    }
}

/// A [`Mutex`] with a place in the lock hierarchy.
pub struct RankedMutex<T> {
    rank: Rank,
    inner: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// A mutex at `rank` guarding `value`.
    pub const fn new(rank: Rank, value: T) -> Self {
        RankedMutex { rank, inner: Mutex::new(value) }
    }

    /// [`Mutex::lock`], after checking the lock order.
    #[inline]
    pub fn lock(&self) -> LockResult<RankedMutexGuard<'_, T>> {
        let held = Held::take(self.rank);
        wrap(self.inner.lock(), held)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RankedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// An [`RwLock`] with a place in the lock hierarchy. Readers hold the
/// rank too: a second `read()` on the same thread is refused like any
/// re-acquisition, since it can deadlock behind a queued writer.
pub struct RankedRwLock<T> {
    rank: Rank,
    inner: RwLock<T>,
}

impl<T> RankedRwLock<T> {
    /// An rwlock at `rank` guarding `value`.
    pub const fn new(rank: Rank, value: T) -> Self {
        RankedRwLock { rank, inner: RwLock::new(value) }
    }

    /// [`RwLock::read`], after checking the lock order.
    #[inline]
    pub fn read(&self) -> LockResult<RankedGuard<RwLockReadGuard<'_, T>>> {
        let held = Held::take(self.rank);
        wrap(self.inner.read(), held)
    }

    /// [`RwLock::write`], after checking the lock order.
    #[inline]
    pub fn write(&self) -> LockResult<RankedGuard<RwLockWriteGuard<'_, T>>> {
        let held = Held::take(self.rank);
        wrap(self.inner.write(), held)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RankedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// `highest_held()` is `expected` in a debug build (and `None` in a
    /// release build, which records nothing).
    fn assert_held(expected: Option<Rank>) {
        assert_eq!(highest_held(), expected.filter(|_| cfg!(debug_assertions)));
    }

    #[test]
    fn ascending_acquisition_succeeds() {
        let a = RankedMutex::new(TICKET, 1);
        let b = RankedRwLock::new(PUBLISHED, 2);
        let c = RankedMutex::new(FAULT, 3);
        let ga = a.lock().unwrap();
        let gb = b.read().unwrap();
        let gc = c.lock().unwrap();
        assert_eq!(*ga + *gb + *gc, 6);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "`ticket` (rank 1) acquired while holding `conflict_log` (rank 3)")]
    fn a_lower_rank_panics_naming_both_locks() {
        let log = RankedMutex::new(CONFLICT_LOG, ());
        let ticket = RankedMutex::new(TICKET, ());
        let _log = log.lock().unwrap();
        let _t = ticket.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "`sync` (rank 7) acquired while holding `sync` (rank 7)")]
    fn an_equal_rank_panics_naming_both_locks() {
        // two distinct locks at one rank: neither may wrap the other
        let a = RankedMutex::new(SYNC, ());
        let b = RankedMutex::new(SYNC, ());
        let _a = a.lock().unwrap();
        let _b = b.lock();
    }

    #[test]
    fn dropping_guards_out_of_order_leaves_the_mask_correct() {
        let a = RankedMutex::new(ACTIVE, ());
        let b = RankedMutex::new(REPL, ());
        let c = RankedMutex::new(FILES, ());
        let ga = a.lock().unwrap();
        let gb = b.lock().unwrap();
        drop(ga);
        assert_held(Some(REPL));
        // ACTIVE is free again, but REPL is still held above it
        let gc = c.lock().unwrap();
        drop(gb);
        assert_held(Some(FILES));
        drop(gc);
        assert_held(None);
        // everything released: the lowest rank is takeable again
        drop(a.lock().unwrap());
    }

    #[test]
    fn a_condvar_wait_round_trip_keeps_the_held_set() {
        let pair = Arc::new((RankedMutex::new(REPL, false), Condvar::new()));
        let ticket = RankedMutex::new(TICKET, ());
        let outer = ticket.lock().unwrap();
        let notifier = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (m, cv) = &*pair;
                *m.lock().unwrap() = true;
                cv.notify_all();
            })
        };
        let (m, cv) = &*pair;
        let mut g = m.lock().unwrap();
        while !*g {
            g = g.wait(cv).unwrap();
        }
        assert_held(Some(REPL));
        drop(g);
        assert_held(Some(TICKET));
        drop(outer);
        assert_held(None);
        notifier.join().unwrap();
    }

    #[test]
    fn rwlock_read_then_write_across_two_scopes() {
        let l = RankedRwLock::new(PUBLISHED, 1);
        {
            let r = l.read().unwrap();
            assert_eq!(*r, 1);
        }
        {
            let mut w = l.write().unwrap();
            *w += 1;
        }
        assert_eq!(*l.read().unwrap(), 2);
        assert_held(None);
    }

    #[test]
    fn a_rank_held_on_one_thread_does_not_affect_another() {
        let fault = RankedMutex::new(FAULT, ());
        let ticket = Arc::new(RankedMutex::new(TICKET, 0));
        let _f = fault.lock().unwrap();
        let other = {
            let ticket = Arc::clone(&ticket);
            std::thread::spawn(move || {
                assert_held(None);
                *ticket.lock().unwrap() += 1;
            })
        };
        other.join().unwrap();
        assert_held(Some(FAULT));
    }
}
