//! `madd` — the MAD server daemon.
//!
//! ```text
//! madd [--addr ADDR] [--wal PATH] [--fsync per-commit|group|never]
//!      [--bootstrap mixed|brazil]
//!      [--repl-addr ADDR] [--sync-quorum N]
//!      [--standby PRIMARY_REPL_ADDR]
//!      [--slow-query-ms N]
//! ```
//!
//! Serves one shared database over TCP (default `127.0.0.1:7878`): one
//! session per connection, `madc` as the client. With `--wal` the handle
//! is durable — the log is recovered if it exists and created from the
//! chosen bootstrap fixture otherwise, so killing the daemon (SIGKILL
//! included) and restarting it with the same `--wal` resumes from the
//! last acknowledged commit. Without `--wal` the state dies with the
//! process.
//!
//! ## Replication roles
//!
//! * `--repl-addr ADDR` (requires `--wal`) additionally listens for
//!   standbys and streams every resolved commit record to them;
//!   `--sync-quorum N` makes COMMIT acknowledge only once `N` standbys
//!   hold the record durably.
//! * `--standby PRIMARY_REPL_ADDR` (requires `--wal`) runs this daemon
//!   as a warm standby instead: it bootstraps/catches up from the
//!   primary's replication port, replays continuously through the full
//!   recovery path, and serves **read-only** snapshot queries on
//!   `--addr`. Writes are refused with a pointer to the primary.
//!   Restarting the dead primary's role elsewhere is a separate
//!   `promote` step (see `mad_repl::Standby::promote`); `madd` keeps the
//!   standby warm until then.
//!
//! ## Observability
//!
//! `--slow-query-ms N` records every statement slower than `N`
//! milliseconds (0 = all) in the server's slow-query ring buffer, with
//! its per-stage trace. Inspect over any connection with `SHOW STATS net`
//! (or `\stats net` in `madc`); `EXPLAIN ANALYZE <stmt>` and
//! `SHOW STATS` work regardless of the flag.

use mad_net::{Server, ServerConfig};
use mad_repl::{ReplPrimary, Standby, StandbyConfig};
use mad_txn::{DbHandle, Durability, FsyncPolicy, ReplAck};
use mad_workload::{brazil_database, mixed_database};

fn main() {
    if let Err(e) = run() {
        eprintln!("madd: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut wal: Option<std::path::PathBuf> = None;
    let mut fsync = FsyncPolicy::Group;
    let mut bootstrap = "mixed".to_owned();
    let mut repl_addr: Option<String> = None;
    let mut sync_quorum: Option<usize> = None;
    let mut standby: Option<String> = None;
    let mut slow_query: Option<std::time::Duration> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value (try --help)"))
        };
        match a.as_str() {
            "--addr" => addr = value("--addr")?,
            "--wal" => wal = Some(value("--wal")?.into()),
            "--fsync" => {
                fsync = match value("--fsync")?.as_str() {
                    "per-commit" => FsyncPolicy::PerCommit,
                    "group" => FsyncPolicy::Group,
                    "never" => FsyncPolicy::Never,
                    other => return Err(format!("unknown fsync policy `{other}`").into()),
                }
            }
            "--bootstrap" => bootstrap = value("--bootstrap")?,
            "--repl-addr" => repl_addr = Some(value("--repl-addr")?),
            "--sync-quorum" => {
                sync_quorum = Some(value("--sync-quorum")?.parse().map_err(|e| {
                    format!("--sync-quorum needs a standby count: {e}")
                })?)
            }
            "--standby" => standby = Some(value("--standby")?),
            "--slow-query-ms" => {
                let ms: u64 = value("--slow-query-ms")?.parse().map_err(|e| {
                    format!("--slow-query-ms needs a millisecond threshold: {e}")
                })?;
                slow_query = Some(std::time::Duration::from_millis(ms));
            }
            "-h" | "--help" => {
                println!(
                    "usage: madd [--addr ADDR] [--wal PATH] \
                     [--fsync per-commit|group|never] [--bootstrap mixed|brazil] \
                     [--repl-addr ADDR] [--sync-quorum N] \
                     [--standby PRIMARY_REPL_ADDR] [--slow-query-ms N]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)").into()),
        }
    }

    // ---------------------------------------------------------------
    // standby role: follow a primary, serve read-only snapshots
    if let Some(primary) = standby {
        let Some(path) = wal else {
            return Err("--standby needs --wal (the standby's own log)".into());
        };
        if repl_addr.is_some() || sync_quorum.is_some() {
            return Err("--standby excludes --repl-addr/--sync-quorum".into());
        }
        let standby = Standby::start(StandbyConfig::new(primary.clone(), path, fsync))?;
        let config = ServerConfig {
            slow_query,
            ..ServerConfig::default()
        };
        let server = Server::serve_with(standby.handle(), addr.as_str(), config)?;
        eprintln!(
            "madd: standby of {} serving read-only snapshots on {} \
             (replicated through sequence {})",
            primary,
            server.local_addr(),
            standby.replicated_seq(),
        );
        loop {
            std::thread::park_timeout(std::time::Duration::from_secs(5));
            if let Some(reason) = standby.halt_reason() {
                return Err(format!("standby halted: {reason}").into());
            }
        }
    }

    // ---------------------------------------------------------------
    // primary role (replicating when --repl-addr is given)
    let db = match bootstrap.as_str() {
        "mixed" => mixed_database()?,
        "brazil" => brazil_database()?.0,
        other => return Err(format!("unknown bootstrap fixture `{other}`").into()),
    };
    let durability = match wal {
        Some(path) => Durability::Wal { path, fsync },
        None => Durability::None,
    };
    let handle = DbHandle::with_durability(db, durability)?;
    if let Some(info) = handle.recovery_info() {
        eprintln!(
            "madd: recovered {} commit(s), truncated {} torn byte(s)",
            info.commits_replayed, info.truncated_bytes
        );
    }
    let _repl = match repl_addr {
        Some(raddr) => {
            let repl = ReplPrimary::start(handle.clone(), raddr.as_str())?;
            if let Some(n) = sync_quorum {
                handle.set_repl_ack(ReplAck::SyncQuorum(n));
            }
            eprintln!(
                "madd: streaming commits to standbys on {} (ack mode: {})",
                repl.local_addr(),
                match sync_quorum {
                    Some(n) => format!("sync quorum of {n}"),
                    None => "async".to_owned(),
                },
            );
            Some(repl)
        }
        None => {
            if sync_quorum.is_some() {
                return Err("--sync-quorum needs --repl-addr".into());
            }
            None
        }
    };
    let durable = handle.is_durable();
    let config = ServerConfig {
        slow_query,
        ..ServerConfig::default()
    };
    let server = Server::serve_with(handle, addr.as_str(), config)?;
    eprintln!(
        "madd: serving {} database on {} (one session per connection; connect with \
         `madc {}`)",
        if durable { "a durable" } else { "an in-memory" },
        server.local_addr(),
        server.local_addr(),
    );
    // serve until the process is killed; durability (when enabled) makes
    // an abrupt kill recoverable by construction
    loop {
        std::thread::park();
    }
}
