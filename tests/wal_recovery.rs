//! End-to-end durability acceptance tests.
//!
//! * torn-write recovery: truncating the log at **every byte offset** of
//!   the final record must recover cleanly to the previous commit;
//! * kill-at-arbitrary-record-boundary: the workload crash scenario over
//!   many seeds;
//! * MQL sessions over a recovered handle;
//! * auto-checkpoints folding the log on the commit path.

use mad::model::Value;
use mad::storage::DatabaseSnapshot;
use mad::txn::{CheckpointPolicy, DbHandle, FsyncPolicy, Transaction};
use mad::wal::{active_segment_path, frame_boundaries, MANIFEST_MAGIC};
use mad::workload::{run_crash_recovery, CrashParams, MixedParams};
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mad-walrec-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build a small durable history: bootstrap + 3 commits.
fn build_history(path: &std::path::Path) -> Vec<String> {
    let db = mad::workload::mixed_database().unwrap();
    let handle = DbHandle::create_durable(db, path, FsyncPolicy::Group).unwrap();
    let state = handle.committed().schema().atom_type_id("state").unwrap();
    let area = handle.committed().schema().atom_type_id("area").unwrap();
    let sa = handle.committed().schema().link_type_id("state-area").unwrap();
    // snapshot after every commit, so any prefix is checkable
    let mut images = vec![DatabaseSnapshot::capture(&handle.committed()).to_json_string()];
    for i in 0..3i64 {
        let mut t = Transaction::begin(&handle);
        let s = t
            .insert_atom(state, vec![Value::from(format!("s{i}")), Value::from(i as f64)])
            .unwrap();
        let a = t.insert_atom(area, vec![Value::from(i)]).unwrap();
        t.connect(sa, s, a).unwrap();
        if i == 2 {
            // make the final record heterogeneous: update + delete too
            t.update_attr(mad::model::AtomId::new(state, 0), 1, Value::from(9.0))
                .unwrap();
        }
        t.commit().unwrap();
        images.push(DatabaseSnapshot::capture(&handle.committed()).to_json_string());
    }
    images
}

/// Lay `segment` out as a one-segment log at `path`: the segment file
/// beside a manifest that lists it.
fn write_one_segment_log(path: &Path, segment: &[u8]) {
    let name = format!("{}.0001", path.file_name().unwrap().to_str().unwrap());
    std::fs::write(path.with_file_name(&name), segment).unwrap();
    let mut manifest = MANIFEST_MAGIC.to_vec();
    manifest.extend_from_slice(name.as_bytes());
    manifest.push(b'\n');
    std::fs::write(path, manifest).unwrap();
}

#[test]
fn torn_final_record_recovers_to_previous_commit_at_every_byte_offset() {
    let dir = tmpdir("everybyte");
    let path = dir.join("mad.wal");
    let images = build_history(&path);
    // the record bytes live in the active segment (one segment here —
    // the history is far below the rotation threshold); each prefix of
    // them is laid out as the one segment of a log of its own
    let full = std::fs::read(active_segment_path(&path).unwrap()).unwrap();
    let boundaries = frame_boundaries(&full);
    assert_eq!(boundaries.len(), 4, "bootstrap + 3 commits");
    let last_start = boundaries[2];
    let last_end = boundaries[3];
    assert_eq!(last_end, full.len());

    let torn = dir.join("torn.wal");
    for cut in last_start..last_end {
        write_one_segment_log(&torn, &full[..cut]);
        let handle = DbHandle::open_durable(&torn, FsyncPolicy::Never)
            .unwrap_or_else(|e| panic!("cut at byte {cut} failed recovery: {e}"));
        let info = handle.recovery_info().unwrap();
        assert_eq!(
            info.commits_replayed, 2,
            "cut at {cut}: the torn third commit must vanish"
        );
        assert_eq!(
            info.truncated_bytes,
            (cut - last_start) as u64,
            "cut at {cut}: exactly the torn bytes are discarded"
        );
        assert_eq!(
            DatabaseSnapshot::capture(&handle.committed()).to_json_string(),
            images[2],
            "cut at {cut}: state must be the second commit exactly"
        );
        drop(handle);
        std::fs::remove_file(&torn).unwrap();
    }
    // and the complete log recovers the full history
    let handle = DbHandle::open_durable(&path, FsyncPolicy::Never).unwrap();
    assert_eq!(
        DatabaseSnapshot::capture(&handle.committed()).to_json_string(),
        images[3]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_byte_in_final_record_is_treated_as_torn() {
    let dir = tmpdir("corrupt");
    let path = dir.join("mad.wal");
    let images = build_history(&path);
    let seg = active_segment_path(&path).unwrap();
    let full = std::fs::read(&seg).unwrap();
    let boundaries = frame_boundaries(&full);
    let last_start = boundaries[2];
    // flip one byte inside the final record's payload
    let mut bad = full.clone();
    bad[last_start + 10] ^= 0xFF;
    std::fs::write(&seg, &bad).unwrap();
    let handle = DbHandle::open_durable(&path, FsyncPolicy::Never).unwrap();
    assert_eq!(handle.recovery_info().unwrap().commits_replayed, 2);
    assert_eq!(
        DatabaseSnapshot::capture(&handle.committed()).to_json_string(),
        images[2]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_scenario_holds_across_seeds_and_policies() {
    // the acceptance scenario: run mixed, kill at a random record
    // boundary (+ torn tail), reopen, verify the recovered state is a
    // consistent commit prefix
    let dir = tmpdir("scenario");
    for (i, fsync) in [FsyncPolicy::Group, FsyncPolicy::PerCommit, FsyncPolicy::Never]
        .into_iter()
        .enumerate()
    {
        for seed in 0..3u64 {
            let path = dir.join(format!("crash-{i}-{seed}.wal"));
            let stats = run_crash_recovery(
                &path,
                &CrashParams {
                    mixed: MixedParams {
                        readers: 1,
                        writers: 3,
                        txns_per_writer: 6,
                        areas_per_state: 2,
                        seed: 1000 + seed,
                    },
                    fsync,
                    tear_tail: true,
                    seed,
                },
            )
            .unwrap();
            assert_eq!(stats.violations, 0, "{fsync:?} seed {seed}: {stats:?}");
            assert_eq!(stats.commits, 18);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mql_sessions_resume_on_recovered_state() {
    let dir = tmpdir("mql");
    let path = dir.join("mad.wal");
    {
        let handle = DbHandle::create_durable(
            mad::workload::mixed_database().unwrap(),
            &path,
            FsyncPolicy::Group,
        )
        .unwrap();
        let mut s = mad::mql::Session::shared(handle);
        s.execute("INSERT ATOM state (sname = 'durable', hectare = 1.0)").unwrap();
        s.execute_script(
            "BEGIN; INSERT ATOM area (aid = 7); \
             CONNECT state[sname='durable'] TO area[aid=7] VIA state-area; COMMIT;",
        )
        .unwrap();
    } // process "dies"
    let handle = DbHandle::open_durable(&path, FsyncPolicy::Group).unwrap();
    let mut s = mad::mql::Session::shared(handle);
    let r = s
        .execute("SELECT ALL FROM state-area WHERE state.sname = 'durable'")
        .unwrap();
    let mad::mql::StatementResult::Molecules(mt) = r else {
        panic!("expected molecules")
    };
    assert_eq!(mt.len(), 1);
    assert_eq!(mt.molecules[0].atoms_at(1).len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn auto_checkpoints_fold_the_log_and_recovery_lands_on_the_last_commit() {
    // runs the commit path's auto-checkpoint, so the debug-build lock
    // rank checks see its ckpt_policy → ticket → sync/files acquisitions
    let dir = tmpdir("autockpt");
    let path = dir.join("mad.wal");
    let db = mad::workload::mixed_database().unwrap();
    let handle = DbHandle::create_durable(db, &path, FsyncPolicy::Group).unwrap();
    handle.set_checkpoint_policy(CheckpointPolicy { max_bytes: None, max_commits: Some(3) });
    let state = handle.committed().schema().atom_type_id("state").unwrap();
    for i in 0..7i64 {
        let mut t = Transaction::begin(&handle);
        t.insert_atom(state, vec![Value::from(format!("c{i}")), Value::from(i as f64)])
            .unwrap();
        t.commit().unwrap();
    }
    // commits 3 and 6 crossed the trigger; commit 7 is the only record
    // after the last bootstrap image
    assert_eq!(handle.auto_checkpoint_count(), 2);
    let image = DatabaseSnapshot::capture(&handle.committed()).to_json_string();
    drop(handle);

    let reopened = DbHandle::open_durable(&path, FsyncPolicy::Never).unwrap();
    let info = reopened.recovery_info().unwrap();
    assert_eq!((info.commits_replayed, info.last_seq), (1, 7));
    assert_eq!(DatabaseSnapshot::capture(&reopened.committed()).to_json_string(), image);
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}
