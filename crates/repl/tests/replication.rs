//! End-to-end replication tests: stream, catch-up, quorum, promotion,
//! resync across a checkpoint horizon, streaming across rotations and
//! checkpoints, and a standby that stops reading.

use mad_model::{AtomId, AttrType, SchemaBuilder, Value};
use mad_repl::proto::send_msg;
use mad_repl::{ReplAck, ReplMsg, ReplPrimary, Standby, StandbyConfig};
use mad_repl::{REPL_MAGIC, REPL_PROTOCOL_VERSION};
use mad_storage::{Database, DatabaseSnapshot};
use mad_txn::{DbHandle, FsyncPolicy, Transaction};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mad-repl-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_db() -> Database {
    let schema = SchemaBuilder::new()
        .atom_type("item", &[("label", AttrType::Text), ("rank", AttrType::Int)])
        .build()
        .unwrap();
    Database::new(schema)
}

fn commit_item(handle: &DbHandle, label: &str, rank: i64) {
    let item = handle.committed().schema().atom_type_id("item").unwrap();
    let mut t = Transaction::begin(handle);
    t.insert_atom(item, vec![Value::from(label), Value::from(rank)])
        .unwrap();
    t.commit().unwrap();
}

fn image(handle: &DbHandle) -> String {
    DatabaseSnapshot::capture(&handle.committed()).to_json_string()
}

/// One `u64` metric of `registry`'s snapshot.
fn metric(registry: &mad_obs::Registry, name: &str) -> u64 {
    let snap = registry.snapshot(Some(name));
    snap.iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} missing from {snap:?}"))
        .1
        .as_u64()
        .unwrap()
}

/// Poll `registry` until `name` reads `want`.
fn await_metric(registry: &mad_obs::Registry, name: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while metric(registry, name) != want {
        assert!(Instant::now() < deadline, "{name} never reached {want}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Spin until the standby's published sequence reaches `seq`.
fn await_seq(standby: &Standby, seq: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while standby.replicated_seq() < seq {
        assert!(
            Instant::now() < deadline,
            "standby stuck at sequence {} waiting for {seq} (halt: {:?})",
            standby.replicated_seq(),
            standby.halt_reason()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn fresh_standby_bootstraps_and_follows_live_commits() {
    let dir = tmpdir("follow");
    let primary =
        DbHandle::create_durable(small_db(), dir.join("primary.wal"), FsyncPolicy::Group).unwrap();
    commit_item(&primary, "before", 1); // history before the standby exists
    let mut repl = ReplPrimary::start(primary.clone(), "127.0.0.1:0").unwrap();

    let standby = Standby::start(StandbyConfig::new(
        repl.local_addr().to_string(),
        dir.join("standby.wal"),
        FsyncPolicy::Group,
    ))
    .unwrap();
    assert_eq!(standby.replicated_seq(), 1, "bootstrap image carries commit 1");
    assert!(standby.handle().is_read_only());

    for i in 2..=6 {
        commit_item(&primary, &format!("live{i}"), i);
    }
    await_seq(&standby, 6);
    assert_eq!(image(&standby.handle()), image(&primary));
    assert!(standby.halt_reason().is_none());
    repl.shutdown();
}

#[test]
fn a_standby_publishes_warm_images_after_attribute_only_commits() {
    let dir = tmpdir("warm");
    let primary =
        DbHandle::create_durable(small_db(), dir.join("primary.wal"), FsyncPolicy::Group).unwrap();
    commit_item(&primary, "a", 1);
    let mut repl = ReplPrimary::start(primary.clone(), "127.0.0.1:0").unwrap();
    let standby = Standby::start(StandbyConfig::new(
        repl.local_addr().to_string(),
        dir.join("standby.wal"),
        FsyncPolicy::Group,
    ))
    .unwrap();
    let item = primary.committed().schema().atom_type_id("item").unwrap();
    let mut t = Transaction::begin(&primary);
    t.update_attr(AtomId::new(item, 0), 1, Value::from(2))
        .unwrap();
    t.commit().unwrap();
    await_seq(&standby, 2);
    assert!(
        standby.handle().fork().0.csr_is_warm(),
        "a replicated attribute-only commit published a cold image"
    );
    repl.shutdown();
}

#[test]
fn replication_metrics_report_cursor_lag_and_halt_state() {
    let dir = tmpdir("obs");
    let primary =
        DbHandle::create_durable(small_db(), dir.join("primary.wal"), FsyncPolicy::Group).unwrap();
    commit_item(&primary, "a", 1);
    let mut repl = ReplPrimary::start(primary.clone(), "127.0.0.1:0").unwrap();
    let standby = Standby::start(StandbyConfig::new(
        repl.local_addr().to_string(),
        dir.join("standby.wal"),
        FsyncPolicy::Group,
    ))
    .unwrap();
    commit_item(&primary, "b", 2);
    await_seq(&standby, 2);

    // primary side: attachment, stream volume, and the per-standby
    // cursor/lag rows of the deployment registry
    let find = |snap: &[(String, mad_obs::MetricValue)], name: &str| {
        snap.iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from {snap:?}"))
            .1
            .as_u64()
            .unwrap()
    };
    let snap = primary.obs().snapshot(Some("repl"));
    assert_eq!(find(&snap, "repl.primary.attached"), 1);
    assert!(find(&snap, "repl.primary.streamed") >= 2);
    assert_eq!(find(&snap, "repl.standbys"), 1);
    let acked: Vec<&String> = snap
        .iter()
        .map(|(n, _)| n)
        .filter(|n| n.starts_with("repl.standby.") && n.ends_with(".acked_seq"))
        .collect();
    assert_eq!(acked.len(), 1, "one cursor row per standby: {snap:?}");
    // the standby acknowledged everything: its lag row reads zero. (The
    // ack is sent after publish, so poll briefly.)
    let lag_name = acked[0].replace(".acked_seq", ".lag");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = primary.obs().snapshot(Some("repl"));
        if find(&snap, &lag_name) == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "lag never drained: {snap:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    // and in log bytes: the sender has shipped everything appended
    await_metric(primary.obs(), "repl.primary.lag_bytes", 0);

    // standby side: its serving handle's registry reports the replication
    // cursor, apply counters, and a live halt_reason text row
    let snap = standby.handle().obs().snapshot(Some("repl.standby"));
    assert_eq!(find(&snap, "repl.standby.replicated_seq"), 2);
    assert_eq!(find(&snap, "repl.standby.records_applied"), 1, "bootstrap + 1 live");
    assert_eq!(find(&snap, "repl.standby.reconnects"), 0);
    let halt = snap
        .iter()
        .find(|(n, _)| n == "repl.standby.halt_reason")
        .expect("halt_reason registered");
    assert!(
        matches!(&halt.1, mad_obs::MetricValue::Text(t) if t.contains("live")),
        "got {halt:?}"
    );

    // a detached standby disappears from the primary's rows, and its own
    // gauges go with it once it is dropped
    drop(standby);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = primary.obs().snapshot(Some("repl"));
        if find(&snap, "repl.primary.attached") == 0 && find(&snap, "repl.standbys") == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "standby rows never cleared: {snap:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    // with nobody attached there is no lag to report
    commit_item(&primary, "c", 3);
    assert_eq!(metric(primary.obs(), "repl.primary.lag_bytes"), 0);
    repl.shutdown();
}

#[test]
fn standby_with_a_log_catches_up_from_its_cursor() {
    let dir = tmpdir("catchup");
    let primary =
        DbHandle::create_durable(small_db(), dir.join("primary.wal"), FsyncPolicy::Group).unwrap();
    let mut repl = ReplPrimary::start(primary.clone(), "127.0.0.1:0").unwrap();
    let addr = repl.local_addr().to_string();
    let standby_wal = dir.join("standby.wal");

    // phase 1: replicate two commits, then stop the standby entirely
    commit_item(&primary, "a", 1);
    commit_item(&primary, "b", 2);
    let standby = Standby::start(StandbyConfig::new(
        &addr,
        &standby_wal,
        FsyncPolicy::Group,
    ))
    .unwrap();
    await_seq(&standby, 2);
    drop(standby);

    // phase 2: the primary advances while the standby is down
    for i in 3..=5 {
        commit_item(&primary, &format!("c{i}"), i);
    }

    // phase 3: restart from the same log — must resume at cursor 2 via
    // the log tail, not a bootstrap, and land on the primary's image
    let standby = Standby::start(StandbyConfig::new(
        &addr,
        &standby_wal,
        FsyncPolicy::Group,
    ))
    .unwrap();
    assert_eq!(standby.replicated_seq(), 2, "local recovery first");
    await_seq(&standby, 5);
    assert_eq!(image(&standby.handle()), image(&primary));
    repl.shutdown();
}

#[test]
fn checkpointed_primary_resyncs_a_stale_standby_with_a_snapshot() {
    let dir = tmpdir("resync");
    let primary =
        DbHandle::create_durable(small_db(), dir.join("primary.wal"), FsyncPolicy::Group).unwrap();
    let mut repl = ReplPrimary::start(primary.clone(), "127.0.0.1:0").unwrap();
    let addr = repl.local_addr().to_string();
    let standby_wal = dir.join("standby.wal");

    commit_item(&primary, "a", 1);
    let standby = Standby::start(StandbyConfig::new(
        &addr,
        &standby_wal,
        FsyncPolicy::Group,
    ))
    .unwrap();
    await_seq(&standby, 1);
    drop(standby);

    // advance and CHECKPOINT: the log now starts at a bootstrap image
    // past the standby's cursor — its tail request cannot be served
    for i in 2..=4 {
        commit_item(&primary, &format!("b{i}"), i);
    }
    primary.checkpoint().unwrap();
    commit_item(&primary, "after-ckpt", 5);

    let standby = Standby::start(StandbyConfig::new(
        &addr,
        &standby_wal,
        FsyncPolicy::Group,
    ))
    .unwrap();
    await_seq(&standby, 5);
    assert_eq!(image(&standby.handle()), image(&primary));
    assert!(standby.halt_reason().is_none(), "{:?}", standby.halt_reason());
    repl.shutdown();
}

#[test]
fn sync_quorum_blocks_until_a_standby_acknowledges() {
    let dir = tmpdir("quorum");
    let primary =
        DbHandle::create_durable(small_db(), dir.join("primary.wal"), FsyncPolicy::Group).unwrap();
    let mut repl = ReplPrimary::start(primary.clone(), "127.0.0.1:0").unwrap();
    primary.set_repl_ack(ReplAck::SyncQuorum(1));

    // with no standby attached, a commit must block — run it in a thread
    let p2 = primary.clone();
    let committer = std::thread::spawn(move || {
        commit_item(&p2, "quorum", 1);
    });
    std::thread::sleep(Duration::from_millis(100));
    assert!(!committer.is_finished(), "commit acked without any standby");

    // attaching a standby releases it: the standby bootstraps (or tails)
    // to the published commit and acks it
    let standby = Standby::start(StandbyConfig::new(
        repl.local_addr().to_string(),
        dir.join("standby.wal"),
        FsyncPolicy::Group,
    ))
    .unwrap();
    committer.join().unwrap();
    await_seq(&standby, 1);

    // and a commit with the standby attached acks promptly
    commit_item(&primary, "quorum2", 2);
    assert_eq!(primary.commit_seq(), 2);
    repl.shutdown();
}

#[test]
fn sealing_replication_errors_quorum_waiters_instead_of_hanging() {
    let dir = tmpdir("seal");
    let primary =
        DbHandle::create_durable(small_db(), dir.join("primary.wal"), FsyncPolicy::Group).unwrap();
    let repl = ReplPrimary::start(primary.clone(), "127.0.0.1:0").unwrap();
    primary.set_repl_ack(ReplAck::SyncQuorum(1));

    let p2 = primary.clone();
    let committer = std::thread::spawn(move || {
        let item = p2.committed().schema().atom_type_id("item").unwrap();
        let mut t = Transaction::begin(&p2);
        t.insert_atom(item, vec![Value::from("sealed"), Value::from(1)])
            .unwrap();
        t.commit()
    });
    std::thread::sleep(Duration::from_millis(100));
    drop(repl); // shutdown seals replication
    let err = committer.join().unwrap().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("sealed"), "unexpected error: {msg}");
    // the commit IS published and locally durable — only its replication
    // is unknown
    assert_eq!(primary.commit_seq(), 1);
}

#[test]
fn promotion_yields_a_writable_primary_that_continues_the_sequence() {
    let dir = tmpdir("promote");
    let primary =
        DbHandle::create_durable(small_db(), dir.join("primary.wal"), FsyncPolicy::Group).unwrap();
    let mut repl = ReplPrimary::start(primary.clone(), "127.0.0.1:0").unwrap();
    for i in 1..=4 {
        commit_item(&primary, &format!("p{i}"), i);
    }
    let standby = Standby::start(StandbyConfig::new(
        repl.local_addr().to_string(),
        dir.join("standby.wal"),
        FsyncPolicy::Group,
    ))
    .unwrap();
    await_seq(&standby, 4);
    let old_image = image(&primary);

    // primary dies
    repl.shutdown();
    drop(primary);

    let (promoted, report) = standby.promote().unwrap();
    assert_eq!(report.last_seq, 4);
    assert!(!promoted.is_read_only());
    assert_eq!(promoted.commit_seq(), 4);
    assert_eq!(image(&promoted), old_image, "promoted state = acked prefix");

    // the promoted node takes writes and continues the numbering
    commit_item(&promoted, "after-failover", 99);
    assert_eq!(promoted.commit_seq(), 5);

    // and its log recovers including the post-failover commit
    drop(promoted);
    let reopened = DbHandle::open_durable(dir.join("standby.wal"), FsyncPolicy::Group).unwrap();
    assert_eq!(reopened.commit_seq(), 5);
}

#[test]
fn writes_to_a_standby_handle_are_refused() {
    let dir = tmpdir("readonly");
    let primary =
        DbHandle::create_durable(small_db(), dir.join("primary.wal"), FsyncPolicy::Group).unwrap();
    commit_item(&primary, "a", 1);
    let mut repl = ReplPrimary::start(primary.clone(), "127.0.0.1:0").unwrap();
    let standby = Standby::start(StandbyConfig::new(
        repl.local_addr().to_string(),
        dir.join("standby.wal"),
        FsyncPolicy::Group,
    ))
    .unwrap();

    let handle = standby.handle();
    let item = handle.committed().schema().atom_type_id("item").unwrap();
    let mut t = Transaction::begin(&handle);
    t.insert_atom(item, vec![Value::from("nope"), Value::from(0)])
        .unwrap();
    let err = t.commit().unwrap_err();
    assert!(err.to_string().contains("read-only"), "got: {err}");
    repl.shutdown();
}

#[test]
fn two_standbys_replicate_independently() {
    let dir = tmpdir("two");
    let primary =
        DbHandle::create_durable(small_db(), dir.join("primary.wal"), FsyncPolicy::Group).unwrap();
    let mut repl = ReplPrimary::start(primary.clone(), "127.0.0.1:0").unwrap();
    let addr = repl.local_addr().to_string();
    let s1 = Standby::start(StandbyConfig::new(&addr, dir.join("s1.wal"), FsyncPolicy::Group))
        .unwrap();
    let s2 = Standby::start(StandbyConfig::new(&addr, dir.join("s2.wal"), FsyncPolicy::Group))
        .unwrap();
    primary.set_repl_ack(ReplAck::SyncQuorum(2));
    for i in 1..=3 {
        commit_item(&primary, &format!("x{i}"), i);
    }
    // SyncQuorum(2) means both standbys hold every acked commit durably
    await_seq(&s1, 3);
    await_seq(&s2, 3);
    assert_eq!(image(&s1.handle()), image(&primary));
    assert_eq!(image(&s2.handle()), image(&primary));
    assert_eq!(repl.standby_count(), 2);
    repl.shutdown();
}

#[test]
fn a_standby_streams_across_segment_rotations() {
    let dir = tmpdir("rotate");
    let primary =
        DbHandle::create_durable(small_db(), dir.join("primary.wal"), FsyncPolicy::Group).unwrap();
    let wal = primary.wal().unwrap();
    // a few commits per segment
    wal.set_max_segment_bytes(256);
    let mut repl = ReplPrimary::start(primary.clone(), "127.0.0.1:0").unwrap();
    let standby = Standby::start(StandbyConfig::new(
        repl.local_addr().to_string(),
        dir.join("standby.wal"),
        FsyncPolicy::Group,
    ))
    .unwrap();
    for i in 1..=40 {
        commit_item(&primary, &format!("r{i}"), i);
    }
    assert!(wal.segment_count() >= 4, "only {} segments", wal.segment_count());
    await_seq(&standby, 40);
    assert_eq!(image(&standby.handle()), image(&primary));
    assert_eq!((standby.records_applied(), standby.reconnects()), (40, 0));
    repl.shutdown();
}

#[test]
fn a_caught_up_standby_streams_through_checkpoints_without_a_bootstrap() {
    let dir = tmpdir("through-ckpt");
    let primary =
        DbHandle::create_durable(small_db(), dir.join("primary.wal"), FsyncPolicy::Group).unwrap();
    commit_item(&primary, "a", 1);
    let mut repl = ReplPrimary::start(primary.clone(), "127.0.0.1:0").unwrap();
    let standby = Standby::start(StandbyConfig::new(
        repl.local_addr().to_string(),
        dir.join("standby.wal"),
        FsyncPolicy::Group,
    ))
    .unwrap();
    for i in 2..=5 {
        commit_item(&primary, &format!("b{i}"), i);
    }
    await_seq(&standby, 5);
    primary.checkpoint().unwrap();
    for i in 6..=10 {
        commit_item(&primary, &format!("c{i}"), i);
    }
    await_seq(&standby, 10);
    // commits the sender may not have read yet when the checkpoint folds
    // them: it finishes the segment it holds open instead of
    // re-bootstrapping
    for i in 11..=20 {
        commit_item(&primary, &format!("d{i}"), i);
    }
    primary.checkpoint().unwrap();
    for i in 21..=25 {
        commit_item(&primary, &format!("e{i}"), i);
    }
    await_seq(&standby, 25);
    assert_eq!(image(&standby.handle()), image(&primary));
    // a second Bootstrap would have replaced applied commits with an
    // image: every commit after the first image was applied one by one
    let obs = standby.handle().obs().clone();
    assert_eq!(metric(&obs, "repl.standby.records_applied"), 24);
    assert_eq!(metric(&obs, "repl.standby.reconnects"), 0);
    repl.shutdown();
}

#[test]
fn a_stalled_standby_holds_up_neither_commits_nor_primary_memory() {
    const COMMITS: u64 = 10_000;
    let dir = tmpdir("stalled");
    let primary =
        DbHandle::create_durable(small_db(), dir.join("primary.wal"), FsyncPolicy::Never).unwrap();
    let mut repl = ReplPrimary::start(primary.clone(), "127.0.0.1:0").unwrap();
    let wal = primary.wal().unwrap();
    let config = StandbyConfig::new(
        repl.local_addr().to_string(),
        dir.join("standby.wal"),
        FsyncPolicy::Never,
    );
    drop(Standby::start(config.clone()).unwrap()); // a local log at sequence 0
    let streamed_before = repl.records_streamed();

    // a peer that completes the handshake from cursor 0, then never reads
    let mut peer = TcpStream::connect(repl.local_addr()).unwrap();
    peer.write_all(REPL_MAGIC).unwrap();
    let hello = ReplMsg::StandbyHello { protocol: REPL_PROTOCOL_VERSION, have: Some(0) };
    send_msg(&mut peer, &hello).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while repl.standby_count() == 0 {
        assert!(Instant::now() < deadline, "the peer never attached");
        std::thread::sleep(Duration::from_millis(5));
    }

    // 10 MB of Async commits, well past what loopback socket buffers hold
    // for a peer that does not read: every one completes. Each rewrites
    // one item's 1 KB label, so the image stays small.
    commit_item(&primary, "item", 0);
    let item = AtomId::new(primary.committed().schema().atom_type_id("item").unwrap(), 0);
    let pad = "x".repeat(1000);
    let before = wal.appended_pos();
    for i in 1..COMMITS {
        let mut t = Transaction::begin(&primary);
        t.update_attr(item, 0, Value::from(format!("{pad}{i:05}"))).unwrap();
        t.commit().unwrap();
    }
    assert_eq!(primary.commit_seq(), COMMITS);
    let frame = (wal.appended_pos() - before) / (COMMITS - 1);

    // the sender stalls on the socket instead of queueing the backlog
    let mut streamed = 0;
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = repl.records_streamed() - streamed_before;
        if now == streamed {
            break;
        }
        streamed = now;
    }
    assert!(streamed < COMMITS, "all {streamed} records fit into socket buffers");
    // what it has not streamed is lag in the log, and what it has read
    // but not finished shipping is at most one tail batch
    let lag = metric(primary.obs(), "repl.primary.lag_bytes");
    let unsent = (COMMITS - streamed) * frame;
    assert!(lag >= unsent, "lag {lag} B < {unsent} B never streamed");
    assert!(
        lag <= unsent + mad_wal::TAIL_BATCH_BYTES,
        "lag {lag} B: the sender read more than one batch past {unsent} B"
    );

    // a real standby converges, stalled peer or not
    let standby = Standby::start(config).unwrap();
    await_seq(&standby, COMMITS);
    assert_eq!(image(&standby.handle()), image(&primary));
    drop(peer);
    repl.shutdown();
}
