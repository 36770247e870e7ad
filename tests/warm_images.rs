//! Every image a handle publishes starts with a warm CSR snapshot. A
//! handle builds the snapshot of its first image once, so a transaction's
//! fork inherits it and an attribute-only commit publishes it still warm:
//! the first SELECT after another session's UPDATE need not rebuild the
//! adjacency.

use mad::mql::Session;
use mad::txn::DbHandle;
use mad::wal::FsyncPolicy;
use mad::workload::brazil_database;

#[test]
fn a_handle_over_a_cold_database_publishes_warm_images() {
    let (db, _) = brazil_database().unwrap();
    assert!(!db.csr_is_warm(), "the fixture starts cold");
    let handle = DbHandle::new(db);
    let mut s = Session::shared(handle.clone());
    s.execute("UPDATE state[sname='SP'] SET hectare = 1.5")
        .unwrap();
    let (fork, seq) = handle.fork();
    assert_eq!(seq, 1, "the UPDATE committed");
    assert!(
        fork.csr_is_warm(),
        "the image after an autocommit UPDATE is cold"
    );
}

#[test]
fn durable_and_read_only_handles_start_warm() {
    let dir = std::env::temp_dir().join(format!("mad-warm-images-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("db.wal");
    let (db, _) = brazil_database().unwrap();
    let created = DbHandle::create_durable(db.clone(), &wal, FsyncPolicy::Never).unwrap();
    assert!(created.fork().0.csr_is_warm(), "create_durable");
    drop(created);
    let opened = DbHandle::open_durable(&wal, FsyncPolicy::Never).unwrap();
    assert!(opened.fork().0.csr_is_warm(), "open_durable");
    drop(opened);
    assert!(
        DbHandle::new_read_only(db, 0).fork().0.csr_is_warm(),
        "new_read_only"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
