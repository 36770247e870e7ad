//! Durability end to end: a database that survives restart.
//!
//! 1. Create a durable handle (write-ahead log + group commit), commit
//!    transactions through MQL, `CHECKPOINT`, "kill the process", reopen,
//!    and show the recovered state answering molecule queries.
//! 2. Run the crash-recovery workload scenario: the concurrent mixed
//!    read/write workload over a durable handle, a simulated kill at a
//!    random WAL record boundary (plus a torn partial record), recovery,
//!    and prefix-consistency verification.
//!
//! ```text
//! cargo run --release --example durability
//! ```

use mad::mql::{Session, StatementResult};
use mad::txn::{DbHandle, FsyncPolicy};
use mad::workload::{mixed_database, run_crash_recovery, CrashParams, MixedParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("mad-durability-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let wal = dir.join("demo.wal");

    // ------------------------------------------------------------------
    println!("== 1. durable sessions: BEGIN/COMMIT, CHECKPOINT, restart\n");
    {
        let handle = DbHandle::create_durable(mixed_database()?, &wal, FsyncPolicy::Group)?;
        let mut session = Session::shared(handle.clone());
        session.execute("INSERT ATOM state (sname = 'SP', hectare = 1000.0)")?;
        session.execute_script(
            "BEGIN;\n\
             INSERT ATOM area (aid = 1);\n\
             CONNECT state[sname='SP'] TO area[aid=1] VIA state-area;\n\
             COMMIT;",
        )?;
        println!(
            "committed 2 transactions; log = {} bytes, {} fsyncs",
            handle.wal_len_bytes().unwrap(),
            handle.wal().unwrap().fsync_count()
        );
        let StatementResult::Checkpointed(stats) = session.execute("CHECKPOINT")? else {
            unreachable!()
        };
        println!(
            "CHECKPOINT folded the log: {} -> {} bytes (image at commit {})",
            stats.bytes_before, stats.bytes_after, stats.base_seq
        );
        session.execute("UPDATE state[sname='SP'] SET hectare = 1234.0")?;
        // the handle drops here with no shutdown step: the "crash"
    }
    let handle = DbHandle::open_durable(&wal, FsyncPolicy::Group)?;
    let info = handle.recovery_info().unwrap();
    println!(
        "reopened: {} commit(s) replayed on top of the checkpoint image, \
         {} torn byte(s) truncated",
        info.commits_replayed, info.truncated_bytes
    );
    let mut session = Session::shared(handle);
    let StatementResult::Molecules(mt) =
        session.execute("SELECT ALL FROM state-area WHERE state.hectare > 1200.0")?
    else {
        unreachable!()
    };
    println!(
        "recovered molecule query: {} molecule(s) — the post-checkpoint UPDATE survived\n",
        mt.len()
    );
    assert_eq!(mt.len(), 1);

    // ------------------------------------------------------------------
    println!("== 2. crash-recovery scenario: mixed workload, kill, recover, verify\n");
    for seed in [11u64, 23, 42] {
        let path = dir.join(format!("crash-{seed}.wal"));
        let stats = run_crash_recovery(
            &path,
            &CrashParams {
                mixed: MixedParams {
                    readers: 2,
                    writers: 2,
                    txns_per_writer: 10,
                    areas_per_state: 3,
                    seed,
                },
                fsync: FsyncPolicy::Group,
                tear_tail: true,
                seed,
            },
        )?;
        println!(
            "seed {seed}: {} commits pre-crash ({} conflict retries), \
             cut to {} survivor(s), {} torn byte(s) truncated, {} violations",
            stats.commits, stats.conflicts, stats.survived, stats.truncated_bytes, stats.violations
        );
        assert_eq!(stats.violations, 0, "recovered state must be a consistent prefix");
    }
    println!("\nall recovered states were exact, consistent commit prefixes");
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
