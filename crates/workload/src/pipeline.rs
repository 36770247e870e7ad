//! Pipelining stress scenario: N writer connections each keeping M
//! statements in flight against one durable [`mad_net::Server`], with
//! forced first-committer-wins conflicts, plus an abrupt mid-burst
//! [`mad_net::Server::kill`], recovery, and acked-prefix verification.
//!
//! The PR-6 networked crash scenario drives the server strictly
//! request/response: every statement waits for its answer. This scenario
//! exercises what that one cannot — the server's **pipelining
//! guarantees** under load and under a kill:
//!
//! * responses arrive in request order even when whole `BEGIN … COMMIT`
//!   groups are in flight back to back,
//! * a conflict error answers *in position* and aborts only its own
//!   transaction — the pipelined groups behind it still execute,
//! * an abrupt kill mid-burst loses only unacknowledged suffixes: after
//!   recovery, every commit that was acknowledged to a client is present,
//!   whole, and nothing half-committed survives (checked with the same
//!   prefix verifier as the crash scenario).
//!
//! The forced conflict is deterministic, not statistical: a probe
//! connection opens a transaction around the contended atom, a second
//! connection commits a competing group, and the probe's pipelined
//! `COMMIT` must answer with a conflict error in its slot.

use crate::mixed::mixed_database;
use crate::net::{is_transport, parse_commit_seq, verify_prefix};
use mad_model::{MadError, Result};
use mad_net::{Client, Server};
use mad_txn::{DbHandle, FsyncPolicy};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parameters of the pipelining stress scenario.
#[derive(Clone, Copy, Debug)]
pub struct NetPipelineParams {
    /// Writer connections, each pipelining whole transaction groups.
    pub connections: usize,
    /// Reader connections, each pipelining bursts of SELECTs.
    pub readers: usize,
    /// Transaction groups each writer tries to commit.
    pub txns_per_conn: usize,
    /// Complete groups kept in flight per burst (each group is
    /// `4 + 2 × areas_per_state` statements, so the in-flight depth in
    /// statements is this times that).
    pub groups_per_burst: usize,
    /// Areas connected to each inserted state (the atomic group size).
    pub areas_per_state: usize,
    /// Fsync policy of the durable handle behind the server.
    pub fsync: FsyncPolicy,
    /// Kill the server once this many commits were acknowledged (capped
    /// by the total quota; the writers are mid-burst then).
    pub kill_after_acks: usize,
}

impl Default for NetPipelineParams {
    fn default() -> Self {
        NetPipelineParams {
            connections: 3,
            readers: 1,
            txns_per_conn: 8,
            groups_per_burst: 3,
            areas_per_state: 2,
            fsync: FsyncPolicy::Group,
            kill_after_acks: 12,
        }
    }
}

/// Outcome of one [`run_net_pipeline`] execution.
#[derive(Clone, Debug, Default)]
pub struct NetPipelineStats {
    /// Commits acknowledged to a client before the kill.
    pub acked: usize,
    /// Conflict errors answered in pipeline position (the deterministic
    /// probe contributes at least one).
    pub conflicts: usize,
    /// SELECT responses received by the pipelined readers.
    pub reads: usize,
    /// Commit records surviving the kill.
    pub survived: u64,
    /// Invariant violations (must be 0): an out-of-order or malformed
    /// response, a lost acked commit, a phantom or torn group, an
    /// integrity-audit failure.
    pub violations: usize,
}

/// The statements of one atomic group, in pipeline order.
fn group_statements(name: &str, aid_base: i64, k: usize) -> Vec<String> {
    let mut stmts = vec![
        "BEGIN".to_owned(),
        format!("INSERT ATOM state (sname = '{name}', hectare = 1.0)"),
    ];
    for j in 0..k {
        let aid = aid_base + j as i64;
        stmts.push(format!("INSERT ATOM area (aid = {aid})"));
        stmts.push(format!(
            "CONNECT state[sname='{name}'] TO area[aid={aid}] VIA state-area"
        ));
    }
    stmts.push("UPDATE state[sname='contended'] SET hectare = 1.0".to_owned());
    stmts.push("COMMIT".to_owned());
    stmts
}

/// What one pipelined group's responses added up to.
enum GroupOutcome {
    /// COMMIT acknowledged with a commit sequence.
    Committed,
    /// COMMIT answered with a conflict in its pipeline slot; the group
    /// never published and can be retried verbatim.
    Conflicted,
    /// The server died under the burst.
    Transport,
    /// A statement failed that never should (counted as a violation).
    Broken,
}

/// Send `groups` whole transaction groups in ONE pipelined burst (every
/// statement written before any response is read), then classify each
/// group from its in-order response slots.
fn pipeline_groups(client: &mut Client, groups: &[(String, i64)], k: usize) -> Vec<GroupOutcome> {
    let per_group = 4 + 2 * k;
    let mut sent = 0usize;
    for (name, aid_base) in groups {
        for stmt in group_statements(name, *aid_base, k) {
            if client.send_statement(&stmt).is_err() {
                // the write side died: classify what was fully sent as
                // transport losses and stop
                return groups.iter().map(|_| GroupOutcome::Transport).collect();
            }
            sent += 1;
        }
    }
    debug_assert_eq!(sent, groups.len() * per_group);
    let mut outcomes = Vec::with_capacity(groups.len());
    'groups: for _ in groups {
        let mut outcome = None;
        for slot in 0..per_group {
            match client.recv_result() {
                Ok(text) => {
                    // an earlier Broken slot keeps its classification —
                    // a COMMIT after a failed group statement would be a
                    // torn group, not a success
                    if slot == per_group - 1 && outcome.is_none() {
                        outcome = match parse_commit_seq(&text) {
                            Some(_) => Some(GroupOutcome::Committed),
                            None => Some(GroupOutcome::Broken),
                        };
                    }
                }
                Err(e) if e.is_conflict() && slot == per_group - 1 && outcome.is_none() => {
                    outcome = Some(GroupOutcome::Conflicted);
                }
                Err(e) if is_transport(&e) => {
                    outcomes.push(GroupOutcome::Transport);
                    break 'groups;
                }
                Err(_) => {
                    // an unexpected statement failure; drain the group's
                    // remaining slots so the next group stays aligned
                    outcome = Some(GroupOutcome::Broken);
                }
            }
        }
        outcomes.push(outcome.unwrap_or(GroupOutcome::Broken));
    }
    while outcomes.len() < groups.len() {
        outcomes.push(GroupOutcome::Transport);
    }
    outcomes
}

/// Poison-ignoring lock, as in `mad_net::poller`: a panicked holder can
/// only be another workload thread, which already counts as a failure.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The deterministic conflict probe: `probe` opens a transaction around
/// the contended atom, `committer` publishes a competing group, then the
/// probe's pipelined COMMIT must answer with a conflict **in its slot**
/// — and the probe's retry must succeed. Returns observed violations.
fn forced_conflict_probe(
    addr: std::net::SocketAddr,
    k: usize,
    acked: &Mutex<Vec<String>>,
    conflicts: &AtomicUsize,
) -> Result<usize> {
    let mut probe = Client::connect(addr)?;
    let mut committer = Client::connect(addr)?;
    let mut violations = 0usize;

    // the probe opens a transaction and touches the contended atom
    for r in probe.execute_pipelined(&[
        "BEGIN",
        "UPDATE state[sname='contended'] SET hectare = 2.0",
    ])? {
        if r.is_err() {
            violations += 1;
        }
    }
    // a competing group commits while the probe's transaction is open
    match pipeline_groups(&mut committer, &[("wp-0".to_owned(), 900_000)], k).pop() {
        Some(GroupOutcome::Committed) => lock(acked).push("wp-0".to_owned()),
        _ => violations += 1,
    }
    // the probe's COMMIT must now conflict, in order, without killing
    // the connection
    match probe.execute("COMMIT") {
        Err(e) if e.is_conflict() => {
            conflicts.fetch_add(1, Ordering::Relaxed);
        }
        _ => violations += 1,
    }
    // and the probe retries as a full group on the same connection
    match pipeline_groups(&mut probe, &[("wp-1".to_owned(), 900_100)], k).pop() {
        Some(GroupOutcome::Committed) => lock(acked).push("wp-1".to_owned()),
        _ => violations += 1,
    }
    Ok(violations)
}

/// Run the scenario against a fresh durable server at `wal_path` (the
/// file must not exist). The log file is left in its recovered state.
pub fn run_net_pipeline(wal_path: &Path, params: &NetPipelineParams) -> Result<NetPipelineStats> {
    let k = params.areas_per_state;
    let handle = DbHandle::create_durable(mixed_database()?, wal_path, params.fsync)?;
    let server = Server::serve(handle, "127.0.0.1:0")?;
    let addr = server.local_addr();

    let acked: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let conflicts = AtomicUsize::new(0);
    let reads = AtomicUsize::new(0);
    let violations = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let writers_left = AtomicUsize::new(params.connections);

    // deterministic forced conflict before the load phase
    match forced_conflict_probe(addr, k, &acked, &conflicts) {
        Ok(v) => {
            violations.fetch_add(v, Ordering::Relaxed);
        }
        Err(_) => {
            violations.fetch_add(1, Ordering::Relaxed);
        }
    }

    struct Exit<'a>(&'a AtomicUsize);
    impl Drop for Exit<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::AcqRel);
        }
    }

    std::thread::scope(|scope| {
        for w in 0..params.connections {
            let (stop, acked, conflicts, violations, writers_left) =
                (&stop, &acked, &conflicts, &violations, &writers_left);
            scope.spawn(move || {
                let _exit = Exit(writers_left);
                let Ok(mut client) = Client::connect(addr) else {
                    violations.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                // groups yet to commit; conflicted ones go back in line
                let mut todo: std::collections::VecDeque<usize> =
                    (0..params.txns_per_conn).collect();
                while !todo.is_empty() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let burst: Vec<(String, i64)> = todo
                        .iter()
                        .take(params.groups_per_burst)
                        .map(|&i| {
                            let name = format!("w{w}-{i}");
                            let aid_base = ((w * params.txns_per_conn + i) * k) as i64;
                            (name, aid_base)
                        })
                        .collect();
                    let outcomes = pipeline_groups(&mut client, &burst, k);
                    for outcome in outcomes {
                        #[expect(
                            clippy::expect_used,
                            reason = "pipeline_groups yields at most one outcome per queued group"
                        )]
                        let group = todo.pop_front().expect("one outcome per queued group");
                        match outcome {
                            GroupOutcome::Committed => {
                                lock(acked).push(format!("w{w}-{group}"));
                            }
                            GroupOutcome::Conflicted => {
                                conflicts.fetch_add(1, Ordering::Relaxed);
                                todo.push_back(group);
                            }
                            GroupOutcome::Transport => return, // the kill
                            GroupOutcome::Broken => {
                                violations.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
        for _ in 0..params.readers {
            let (stop, reads, violations) = (&stop, &reads, &violations);
            scope.spawn(move || {
                let Ok(mut client) = Client::connect(addr) else {
                    violations.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let burst = ["SELECT ALL FROM state-area"; 8];
                while !stop.load(Ordering::Acquire) {
                    match client.execute_pipelined(&burst) {
                        Ok(results) => {
                            for r in results {
                                match r {
                                    Ok(text) if text.contains("molecule(s)") => {
                                        reads.fetch_add(1, Ordering::Relaxed);
                                    }
                                    _ => {
                                        violations.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                        Err(e) if is_transport(&e) => break, // the kill
                        Err(_) => {
                            violations.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                    std::thread::yield_now();
                }
            });
        }

        // the killer: once enough commits are acknowledged, pull the plug
        // abruptly — no drain, queued statements die unanswered. With a
        // quota beyond reach the loop instead waits for the writers to
        // finish, making the kill a post-traffic close.
        while lock(&acked).len() < params.kill_after_acks
            && writers_left.load(Ordering::Acquire) > 0
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
        server.kill();
    });

    let acked = acked.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut violation_count = violations.into_inner();

    // recover the WAL and verify the acked prefix with the same checker
    // as the crash scenario: every acked group present and whole, no
    // phantoms, integrity clean
    let handle = DbHandle::open_durable(wal_path, params.fsync)?;
    let info = handle
        .recovery_info()
        .ok_or_else(|| MadError::wal("open_durable recorded no recovery info"))?;
    if (info.commits_replayed as usize) < acked.len() {
        violation_count += 1; // an acknowledged commit was never logged
    }
    violation_count += verify_prefix(&handle, info.commits_replayed, &acked, k);

    Ok(NetPipelineStats {
        acked: acked.len(),
        conflicts: conflicts.into_inner(),
        reads: reads.into_inner(),
        survived: info.commits_replayed,
        violations: violation_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(tag: &str, params: &NetPipelineParams) -> NetPipelineStats {
        let dir = std::env::temp_dir().join(format!(
            "mad-netpipe-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mad.wal");
        let stats = run_net_pipeline(&path, params).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        stats
    }

    #[test]
    fn pipelined_load_with_kill_preserves_the_acked_prefix() {
        let stats = scenario("kill", &NetPipelineParams::default());
        assert_eq!(stats.violations, 0, "{stats:?}");
        assert!(stats.acked >= 12, "the kill fired too early: {stats:?}");
        assert!(stats.conflicts >= 1, "the forced conflict never fired: {stats:?}");
        assert!(stats.survived >= stats.acked as u64, "{stats:?}");
    }

    #[test]
    fn full_run_without_kill_commits_every_group() {
        let params = NetPipelineParams {
            connections: 2,
            readers: 1,
            txns_per_conn: 4,
            groups_per_burst: 2,
            kill_after_acks: usize::MAX,
            ..NetPipelineParams::default()
        };
        let stats = scenario("full", &params);
        assert_eq!(stats.violations, 0, "{stats:?}");
        // every writer group commits, plus the two probe groups
        assert_eq!(stats.acked, 2 * 4 + 2, "{stats:?}");
        assert_eq!(stats.survived, stats.acked as u64, "{stats:?}");
        assert!(stats.conflicts >= 1, "{stats:?}");
    }
}
