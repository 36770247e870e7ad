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
//!   remove, snapshot). It is **unranked and must stay a leaf**: a
//!   snapshot polls gauge closures that may take ranked locks (e.g. the
//!   txn `active` mutex), so calling [`Registry::snapshot`] while holding
//!   any ranked lock would invert the hierarchy; debug builds assert it
//!   does not. `SHOW STATS` runs with no locks held.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};

use crate::hist::{HistSnapshot, Histogram};

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
pub type GaugeFn = Box<dyn Fn() -> Option<u64> + Send + Sync>;
/// Poll closure of a text metric; `None` unregisters it lazily.
pub type TextFn = Box<dyn Fn() -> Option<String> + Send + Sync>;
/// Poll closure expanding to several `name.suffix` gauge rows at once
/// (e.g. one row per attached standby); `None` unregisters it lazily.
pub type MultiFn = Box<dyn Fn() -> Option<Vec<(String, u64)>> + Send + Sync>;

enum Metric {
    Counter(Counter),
    Gauge(GaugeFn),
    Text(TextFn),
    Multi(MultiFn),
    Hist(Arc<Histogram>),
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
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
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

    fn map(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
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
        self.map().insert(name.to_owned(), Metric::Gauge(Box::new(f)));
    }

    /// Register (or replace) a text metric.
    pub fn text(&self, name: &str, f: impl Fn() -> Option<String> + Send + Sync + 'static) {
        self.map().insert(name.to_owned(), Metric::Text(Box::new(f)));
    }

    /// Register (or replace) a multi-row gauge: the closure returns
    /// `(suffix, value)` pairs rendered as `name.suffix` rows.
    pub fn multi(&self, name: &str, f: impl Fn() -> Option<Vec<(String, u64)>> + Send + Sync + 'static) {
        self.map().insert(name.to_owned(), Metric::Multi(Box::new(f)));
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
        let mut dead = Vec::new();
        let map = self.map();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    if matches(name) {
                        out.push((name.clone(), MetricValue::Counter(c.get())));
                    }
                }
                Metric::Hist(h) => {
                    if matches(name) {
                        out.push((name.clone(), MetricValue::Hist(Box::new(h.snapshot()))));
                    }
                }
                Metric::Gauge(f) => match f() {
                    Some(v) if matches(name) => out.push((name.clone(), MetricValue::Gauge(v))),
                    Some(_) => {}
                    None => dead.push(name.clone()),
                },
                Metric::Text(f) => match f() {
                    Some(v) if matches(name) => out.push((name.clone(), MetricValue::Text(v))),
                    Some(_) => {}
                    None => dead.push(name.clone()),
                },
                Metric::Multi(f) => match f() {
                    Some(rows) => {
                        for (suffix, v) in rows {
                            let full = format!("{name}.{suffix}");
                            if matches(&full) {
                                out.push((full, MetricValue::Gauge(v)));
                            }
                        }
                    }
                    None => dead.push(name.clone()),
                },
            }
        }
        drop(map);
        for name in dead {
            self.remove(&name);
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
