//! A named metrics registry shared by every subsystem of a deployment.
//!
//! One [`Registry`] is owned by the transaction handle; the WAL,
//! replication endpoints, sessions and the network server all register
//! into it, and `SHOW STATS` renders a [`Registry::snapshot`]. Names are
//! dot-separated paths (`txn.commits`, `wal.fsyncs`,
//! `repl.standby.3.lag`); the leading segment is the subsystem filter
//! `SHOW STATS <subsystem>` selects on.
//!
//! Cost model — the part that lets metrics stay on in production:
//!
//! * [`Counter`] increments and [`Histogram`] records touch only their
//!   own atomics; the registry mutex is **not** taken.
//! * Gauges are poll-only closures evaluated at snapshot time. They
//!   conventionally capture a `Weak` to their subsystem and return
//!   `None` once it is gone, which unregisters them lazily.
//! * The registry mutex guards only the name→metric map (register,
//!   remove, snapshot). It is the last rank of the lock hierarchy,
//!   [`REGISTRY`], so a metric can be registered under any other ranked
//!   lock. A snapshot clones the gauge closures out under the mutex and
//!   polls them after releasing it: the closures may take ranked locks
//!   (e.g. the txn `active` mutex). Calling [`Registry::snapshot`] while
//!   holding a ranked lock would invert the hierarchy inside those polls;
//!   debug builds assert it does not. `SHOW STATS` runs with no locks
//!   held.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, PoisonError};

use crate::hist::{HistSnapshot, Histogram};
use crate::rank::{RankedMutex, RankedMutexGuard, REGISTRY};

/// A monotonically increasing (or stored-value) atomic metric handle.
///
/// Cloning shares the underlying atomic; increments never touch the
/// registry.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Store an absolute value (stored-gauge use).
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Poll closure of a numeric gauge; `None` unregisters it lazily.
pub type GaugeFn = Arc<dyn Fn() -> Option<u64> + Send + Sync>;
/// Poll closure of a text metric; `None` unregisters it lazily.
pub type TextFn = Arc<dyn Fn() -> Option<String> + Send + Sync>;
/// Poll closure expanding to several `name.suffix` gauge rows at once
/// (e.g. one row per attached standby); `None` unregisters it lazily.
pub type MultiFn = Arc<dyn Fn() -> Option<Vec<(String, u64)>> + Send + Sync>;

enum Metric {
    Counter(Counter),
    Hist(Arc<Histogram>),
    Poll(Poll),
}

/// A polled metric. Cloning shares the closure, so a snapshot can run
/// it without the map lock.
#[derive(Clone)]
enum Poll {
    Gauge(GaugeFn),
    Text(TextFn),
    Multi(MultiFn),
}

impl Poll {
    /// Do `self` and `other` share one closure?
    fn same(&self, other: &Poll) -> bool {
        match (self, other) {
            (Poll::Gauge(a), Poll::Gauge(b)) => Arc::ptr_eq(a, b),
            (Poll::Text(a), Poll::Text(b)) => Arc::ptr_eq(a, b),
            (Poll::Multi(a), Poll::Multi(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// One metric's value in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter reading.
    Counter(u64),
    /// Polled gauge reading.
    Gauge(u64),
    /// Polled text reading (e.g. a halt reason).
    Text(String),
    /// Histogram snapshot (boxed: it is by far the widest variant).
    Hist(Box<HistSnapshot>),
}

impl MetricValue {
    /// Numeric value, if this metric has one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }
}

/// The shared name→metric map. Cheap to clone (one `Arc`).
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RankedMutex<BTreeMap<String, Metric>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry { inner: Arc::new(RankedMutex::new(REGISTRY, BTreeMap::new())) }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // gauge closures are opaque; show only the registered names
        let names: Vec<String> = self.map().keys().cloned().collect();
        f.debug_struct("Registry").field("metrics", &names).finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn map(&self) -> RankedMutexGuard<'_, BTreeMap<String, Metric>> {
        // metrics must never take the process down: absorb poisoning
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Get or create the counter named `name`.
    ///
    /// Re-requesting an existing counter returns a handle to the same
    /// atomic, so layers can share a metric without coordinating.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.map();
        if let Some(Metric::Counter(c)) = map.get(name) {
            return c.clone();
        }
        let c = Counter::default();
        map.insert(name.to_owned(), Metric::Counter(c.clone()));
        c
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.map();
        if let Some(Metric::Hist(h)) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(name.to_owned(), Metric::Hist(Arc::clone(&h)));
        h
    }

    /// Register (or replace) a poll-gauge.
    pub fn gauge(&self, name: &str, f: impl Fn() -> Option<u64> + Send + Sync + 'static) {
        self.map().insert(name.to_owned(), Metric::Poll(Poll::Gauge(Arc::new(f))));
    }

    /// Register (or replace) a text metric.
    pub fn text(&self, name: &str, f: impl Fn() -> Option<String> + Send + Sync + 'static) {
        self.map().insert(name.to_owned(), Metric::Poll(Poll::Text(Arc::new(f))));
    }

    /// Register (or replace) a multi-row gauge: the closure returns
    /// `(suffix, value)` pairs rendered as `name.suffix` rows.
    pub fn multi(&self, name: &str, f: impl Fn() -> Option<Vec<(String, u64)>> + Send + Sync + 'static) {
        self.map().insert(name.to_owned(), Metric::Poll(Poll::Multi(Arc::new(f))));
    }

    /// Remove one metric.
    pub fn remove(&self, name: &str) {
        self.map().remove(name);
    }

    /// Remove every metric whose name starts with `prefix` (used to
    /// drop per-connection histograms when a connection closes).
    pub fn remove_prefix(&self, prefix: &str) {
        self.map().retain(|k, _| !k.starts_with(prefix));
    }

    /// Read every metric (optionally only the subsystem `filter`),
    /// sorted by name.
    ///
    /// A filter matches a metric whose name equals it or continues it
    /// at a `.` boundary (`wal` matches `wal.fsyncs`, not `walrus`).
    /// Gauges whose closure returns `None` (their subsystem is gone)
    /// are dropped from the registry as a side effect.
    ///
    /// Gauge closures may take ranked locks — do not call this while
    /// holding one (see the module docs; debug builds assert it).
    pub fn snapshot(&self, filter: Option<&str>) -> Vec<(String, MetricValue)> {
        debug_assert!(
            crate::rank::highest_held().is_none(),
            "Registry::snapshot while holding the ranked lock `{}`",
            crate::rank::highest_held().map_or("", crate::rank::Rank::name)
        );
        let matches = |name: &str| match filter {
            None => true,
            Some(f) => {
                name == f
                    || (name.len() > f.len()
                        && name.starts_with(f)
                        && name.as_bytes().get(f.len()) == Some(&b'.'))
            }
        };
        let mut out = Vec::new();
        let mut polls = Vec::new();
        for (name, metric) in self.map().iter() {
            match metric {
                Metric::Counter(c) if matches(name) => {
                    out.push((name.clone(), MetricValue::Counter(c.get())));
                }
                Metric::Hist(h) if matches(name) => {
                    out.push((name.clone(), MetricValue::Hist(Box::new(h.snapshot()))));
                }
                Metric::Counter(_) | Metric::Hist(_) => {}
                Metric::Poll(p) => polls.push((name.clone(), p.clone())),
            }
        }
        // poll with the map unlocked: a closure may take any ranked lock
        let mut dead = Vec::new();
        for (name, poll) in polls {
            let alive = match &poll {
                Poll::Gauge(f) => f().map(|v| {
                    if matches(&name) {
                        out.push((name.clone(), MetricValue::Gauge(v)));
                    }
                }),
                Poll::Text(f) => f().map(|v| {
                    if matches(&name) {
                        out.push((name.clone(), MetricValue::Text(v)));
                    }
                }),
                Poll::Multi(f) => f().map(|rows| {
                    for (suffix, v) in rows {
                        let full = format!("{name}.{suffix}");
                        if matches(&full) {
                            out.push((full, MetricValue::Gauge(v)));
                        }
                    }
                }),
            };
            if alive.is_none() {
                dead.push((name, poll));
            }
        }
        if !dead.is_empty() {
            // a closure re-registered under the same name meanwhile stays
            let mut map = self.map();
            for (name, poll) in dead {
                if matches!(map.get(&name), Some(Metric::Poll(p)) if p.same(&poll)) {
                    map.remove(&name);
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Weak;

    #[test]
    fn counter_is_shared_by_name() {
        let r = Registry::new();
        let a = r.counter("txn.commits");
        let b = r.counter("txn.commits");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(
            r.snapshot(None),
            vec![("txn.commits".to_owned(), MetricValue::Counter(3))]
        );
    }

    #[test]
    fn filter_matches_on_dot_boundary() {
        let r = Registry::new();
        r.counter("wal.fsyncs").inc();
        r.counter("walrus.teeth").inc();
        let snap = r.snapshot(Some("wal"));
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, "wal.fsyncs");
        // exact name matches too
        assert_eq!(r.snapshot(Some("wal.fsyncs")).len(), 1);
        assert!(r.snapshot(Some("net")).is_empty());
    }

    #[test]
    fn dead_gauges_unregister_lazily() {
        let r = Registry::new();
        let owner = Arc::new(41u64);
        let weak: Weak<u64> = Arc::downgrade(&owner);
        r.gauge("sub.alive", move || weak.upgrade().map(|v| *v + 1));
        assert_eq!(
            r.snapshot(None),
            vec![("sub.alive".to_owned(), MetricValue::Gauge(42))]
        );
        drop(owner);
        assert!(r.snapshot(None).is_empty());
        // and it is actually gone, not just filtered
        r.counter("other").inc();
        assert_eq!(r.snapshot(None).len(), 1);
    }

    #[test]
    fn multi_expands_to_rows() {
        let r = Registry::new();
        r.multi("repl.standby", || {
            Some(vec![("7.lag".to_owned(), 3), ("7.acked_seq".to_owned(), 12)])
        });
        let snap = r.snapshot(Some("repl"));
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["repl.standby.7.acked_seq", "repl.standby.7.lag"]);
    }

    #[test]
    fn remove_prefix_drops_connection_metrics() {
        let r = Registry::new();
        r.counter("net.conn.1.stmts").inc();
        r.histogram("net.conn.1.stmt_ns").record(5);
        r.counter("net.stmts").inc();
        r.remove_prefix("net.conn.1.");
        let names: Vec<String> = r.snapshot(None).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["net.stmts"]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "Registry::snapshot while holding the ranked lock `published`")]
    fn a_snapshot_under_a_ranked_lock_panics() {
        let r = Registry::new();
        let published = crate::RankedRwLock::new(crate::rank::PUBLISHED, ());
        let _g = published.read().unwrap();
        r.snapshot(None);
    }

    #[test]
    fn gauges_are_polled_outside_the_map_lock() {
        // the map lock ranks above `active`, so a poll under it would be
        // an inverted acquisition (a panic in a debug build)
        let r = Registry::new();
        let active = Arc::new(crate::RankedMutex::new(crate::rank::ACTIVE, 7u64));
        let weak = Arc::downgrade(&active);
        r.gauge("txn.active", move || {
            let active = weak.upgrade()?;
            let n = *active.lock().unwrap_or_else(PoisonError::into_inner);
            Some(n)
        });
        assert_eq!(r.snapshot(None), vec![("txn.active".to_owned(), MetricValue::Gauge(7))]);
        drop(active);
        assert!(r.snapshot(None).is_empty());
    }

    #[test]
    fn a_dead_gauge_replaced_before_the_reap_survives() {
        let r = Registry::new();
        let r2 = r.clone();
        r.gauge("sub.g", move || {
            r2.gauge("sub.g", || Some(5));
            None
        });
        assert!(r.snapshot(None).is_empty());
        assert_eq!(r.snapshot(None), vec![("sub.g".to_owned(), MetricValue::Gauge(5))]);
    }

    #[test]
    fn histograms_snapshot_through_registry() {
        let r = Registry::new();
        let h = r.histogram("mql.stmt_ns");
        h.record(1000);
        h.record(3000);
        match r.snapshot(Some("mql")).pop() {
            Some((_, MetricValue::Hist(s))) => assert_eq!(s.count, 2),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
