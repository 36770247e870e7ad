//! The append-only log: create/recover, group-commit fsync, segment
//! rotation, checkpoint-and-truncate.
//!
//! ## Segmented layout
//!
//! A log is a **manifest** file plus one or more **segment** files in the
//! same directory. The manifest (at the path callers hand to
//! [`Wal::create`] / [`Wal::recover`]) starts with its own magic and
//! lists the live segment file names in order, one per line; each segment
//! starts with the WAL magic and holds length-prefixed CRC frames. The
//! first frame of the *first listed* segment is the bootstrap image;
//! every later frame anywhere is one commit record. Appends go to the
//! *last* listed segment; when it exceeds [`Wal::set_max_segment_bytes`]
//! the log **rotates**: the closing segment is fsynced, a fresh segment
//! is created, and the manifest is atomically rewritten (temp + rename +
//! directory fsync). A checkpoint writes the bootstrap into a brand-new
//! segment and shrinks the manifest to just that segment, so it no longer
//! rewrites one ever-growing file.
//!
//! Segment numbers are monotone and never reused, so a [`WalCursor`]
//! tailing the log survives any interleaving of rotation and checkpoint.
//!
//! **Torn-tail rule**: only the *last* segment may end in a torn frame
//! (recovery truncates it, exactly as in the single-file format). A torn
//! frame inside an interior segment is a hard error — interior segments
//! were completed and fsynced before the manifest grew past them, so a
//! tear there is corruption, not a crash artifact.

use crate::fault::{FaultPlan, FaultState};
use crate::record::{
    apply_op, frame, frame_commit, frame_len, read_frame, FrameRead, WalRecord, MAGIC,
};
use crate::WalOp;
use mad_model::{MadError, Result};
use mad_obs::rank::{self, RankedMutex};
use mad_obs::trace::{StageKind, StageTimer};
use mad_storage::{Database, DatabaseSnapshot};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, PoisonError};
use std::time::Duration;

/// When does a committing transaction wait for its record to hit stable
/// storage?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every commit performs its own `fsync` before returning — the
    /// durability baseline, one fsync per commit, serialized.
    PerCommit,
    /// Group commit (the default): a commit whose record is already
    /// appended waits for the in-flight `fsync` (if any) to finish and
    /// checks whether it covered its record; one fsync amortizes over
    /// every record appended while the previous fsync was running.
    Group,
    /// Never wait: records reach the OS on append and stable storage
    /// whenever the kernel flushes. Commits acknowledged under this policy
    /// can be lost in a crash (but the log prefix property still holds —
    /// recovery never sees a gap).
    Never,
}

/// First bytes of a log **manifest** file (the segment list). Distinct
/// from [`MAGIC`], which opens every segment.
pub const MANIFEST_MAGIC: &[u8] = b"MADWALM1\n";

/// Default rotation threshold: a segment past this size closes at the
/// next append and a fresh one opens.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// How many log bytes one [`Wal::tail`] reads at most (one frame larger
/// than this is read whole).
pub const TAIL_BATCH_BYTES: u64 = 256 * 1024;

fn io_err(context: &str, e: std::io::Error) -> MadError {
    MadError::wal(format!("{context}: {e}"))
}

/// A log lock poisoned by a panic on another thread, as an error.
fn poisoned<T>(_: PoisonError<T>) -> MadError {
    MadError::wal("write-ahead log state poisoned by a panic on another thread")
}

/// A monotone position in the log: the number of records appended before
/// this one, so record `n` is durable once `durable_lsn > n`.
pub type Lsn = u64;

/// One segment file of the log.
#[derive(Clone, Copy, Debug)]
struct Segment {
    /// The segment number (its file-name suffix).
    n: u64,
    /// Where the segment starts in the log's byte stream since open: where
    /// the segment before it ended, so stream positions only grow.
    start: u64,
    /// Bytes appended so far; final once the segment is closed.
    len: u64,
}

impl Segment {
    /// The stream position just past the segment's appended bytes.
    fn end(&self) -> u64 {
        self.start + self.len
    }
}

#[derive(Debug)]
struct Files {
    /// Open handle to the active segment.
    file: File,
    /// LSN the next append gets.
    next_lsn: Lsn,
    /// Listed segments before the active one, ascending, all fsynced.
    closed: Vec<Segment>,
    /// The segment appends go to (the last one listed).
    active: Segment,
    /// The segment that was active when the last checkpoint unlisted it.
    /// A cursor that still holds it open may read it up to its `len`.
    retired: Option<Segment>,
    /// The bootstrap image that opens the first listed segment.
    image: Image,
    /// Tailers blocked in [`Wal::wait_appended`] (appends notify if any).
    waiting: usize,
    /// Rotation threshold for the active segment.
    max_seg_bytes: u64,
}

/// Where a log's bootstrap image ends in the first listed segment, and
/// the commit sequence it was taken at.
#[derive(Clone, Copy, Debug)]
struct Image {
    base_seq: u64,
    end: u64,
}

impl Files {
    /// The listed segments, oldest first.
    fn listed(&self) -> impl Iterator<Item = &Segment> {
        self.closed.iter().chain(std::iter::once(&self.active))
    }

    /// The first listed segment, the one the bootstrap image opens.
    fn head(&self) -> &Segment {
        self.closed.first().unwrap_or(&self.active)
    }
}

#[derive(Debug)]
struct SyncState {
    /// Every record with `lsn < durable_lsn` is on stable storage.
    durable_lsn: Lsn,
    /// Is an fsync in flight? (Exactly one syncer at a time; followers
    /// wait on the condvar.)
    syncing: bool,
}

/// What [`Wal::recover`] found.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryInfo {
    /// Commit records replayed (after the bootstrap image).
    pub commits_replayed: u64,
    /// The commit sequence number of the recovered state.
    pub last_seq: u64,
    /// Bytes of torn tail discarded (0 for a cleanly closed log).
    pub truncated_bytes: u64,
    /// Log segments the recovery walked.
    pub segments: u64,
}

/// What [`Wal::tail`] found.
#[derive(Clone, Debug)]
pub enum TailRead {
    /// The next appended commit records after the cursor, in sequence
    /// order: `(seq, resolved op log)` pairs. Empty when the cursor has
    /// caught up (or read only records at or before its sequence).
    Commits(Vec<(u64, Vec<WalOp>)>),
    /// A checkpoint folded records the cursor still needs into the
    /// bootstrap image; the reader needs a full snapshot to resynchronize.
    SnapshotNeeded {
        /// Commit sequence of the log's current bootstrap image.
        base_seq: u64,
    },
}

/// A resumable read position in the log, advanced by [`Wal::tail`]: the
/// sequence of the last commit read, and once positioned the segment it
/// reads and the byte offset of its next frame there.
///
/// The cursor holds its segment open. A checkpoint that unlinks that
/// segment does not stop it: the cursor finishes the segment up to the
/// length appended before the checkpoint, then steps past the new
/// bootstrap image. Only a cursor that still needs folded records gets
/// [`TailRead::SnapshotNeeded`].
#[derive(Debug)]
pub struct WalCursor {
    seq: u64,
    at: Option<Reading>,
}

/// The segment a [`WalCursor`] is reading.
#[derive(Debug)]
struct Reading {
    seg: Segment,
    /// Offset in the segment of the next unread frame.
    offset: u64,
    file: File,
}

impl WalCursor {
    /// A cursor that starts after commit `seq`: the first [`Wal::tail`]
    /// positions it at the head of the log and skips records up to `seq`.
    pub fn after(seq: u64) -> WalCursor {
        WalCursor { seq, at: None }
    }

    /// The cursor's position in the log's byte stream since the log was
    /// opened, comparable with [`Wal::appended_pos`]; 0 before the first
    /// [`Wal::tail`].
    pub fn pos(&self) -> u64 {
        self.at.as_ref().map_or(0, |r| r.seg.start + r.offset)
    }

    /// Read the frames of the open segment from the cursor's offset up to
    /// `end` (at most [`TAIL_BATCH_BYTES`], or one larger frame), keeping
    /// the commits after the cursor's sequence.
    fn read_batch(&mut self, end: u64) -> Result<Vec<(u64, Vec<WalOp>)>> {
        let mut commits = Vec::new();
        let Some(r) = self.at.as_mut() else {
            return Ok(commits);
        };
        let mut want = (end - r.offset).min(TAIL_BATCH_BYTES);
        while want > 0 {
            let mut buf = vec![0; mad_model::bin::usize_of_u64(want)?];
            r.file
                .seek(SeekFrom::Start(r.offset))
                .and_then(|_| r.file.read_exact(&mut buf))
                .map_err(|e| io_err("read log segment for tailing", e))?;
            let mut at = 0;
            while let FrameRead::Ok(rec, next) = read_frame(&buf, at) {
                match rec {
                    WalRecord::Commit { seq, ops } if seq > self.seq => {
                        commits.push((seq, ops));
                        self.seq = seq;
                    }
                    WalRecord::Commit { .. } => {}
                    WalRecord::Bootstrap { .. } => {
                        return Err(MadError::wal("unexpected bootstrap record mid-log"))
                    }
                }
                at = next;
            }
            if at > 0 {
                r.offset += at as u64;
                break;
            }
            // the first frame does not fit the batch: read it whole. Every
            // byte below `end` was appended, so a frame that does not fit
            // there either is corruption, not an append in flight.
            let whole = frame_len(&buf).filter(|&n| n > want && r.offset + n <= end);
            want = whole.ok_or_else(|| {
                MadError::wal("corrupt record inside the appended log while tailing")
            })?;
        }
        Ok(commits)
    }
}

/// Result of a [`Wal::checkpoint`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckpointStats {
    /// Log size before the checkpoint, in bytes (all segments).
    pub bytes_before: u64,
    /// Log size after (one bootstrap segment), in bytes.
    pub bytes_after: u64,
    /// The commit sequence number the new bootstrap image carries.
    pub base_seq: u64,
}

/// The write-ahead log of one database deployment.
///
/// All methods take `&self`; the log is shared by every committing session
/// of a [`DbHandle`](../mad_txn/struct.DbHandle.html)-style publisher.
/// Callers serialize [`Wal::append_commit`] externally (the publisher's
/// commit order **is** the log order); [`Wal::wait_durable`] is safe to
/// call from any number of threads concurrently and implements the fsync
/// policy.
#[derive(Debug)]
pub struct Wal {
    /// The **manifest** path (what callers know as "the log").
    path: PathBuf,
    policy: FsyncPolicy,
    files: RankedMutex<Files>,
    sync: RankedMutex<SyncState>,
    synced: Condvar,
    /// Paired with `files`: signalled on append and checkpoint while a
    /// tailer waits (see [`Wal::wait_appended`]).
    appended: Condvar,
    fsyncs: AtomicU64,
    /// Group-commit fsync batches performed (`wal.group_batches`).
    batches: AtomicU64,
    /// Records those batches covered (`wal.group_records`): the
    /// amortization factor is `batched / batches`.
    batched: AtomicU64,
    /// Set when the on-disk log can no longer be trusted: a partial
    /// append that could not be rolled back, or a failed fsync (the
    /// kernel may have dropped dirty pages — "fsyncgate"). All further
    /// appends and durability waits fail, so no commit is acknowledged
    /// against a log that recovery could silently truncate.
    poisoned: AtomicBool,
    /// Armed fault-injection plan (tests and failure scenarios only; see
    /// [`crate::fault`]).
    fault: RankedMutex<FaultState>,
}

/// The file name of segment `n` of the log at `path` (lives beside the
/// manifest): `{manifest_file_name}.{n:04}`.
fn segment_name(path: &Path, n: u64) -> String {
    let stem = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "wal".to_string());
    format!("{stem}.{n:04}")
}

/// Full path of segment `n` of the log at `path`.
fn segment_path(path: &Path, n: u64) -> PathBuf {
    path.with_file_name(segment_name(path, n))
}

/// The segment number encoded in a manifest entry (its final dot-suffix).
fn segment_number(name: &str) -> Result<u64> {
    name.rsplit('.')
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            MadError::wal(format!("malformed segment name `{name}` in log manifest"))
        })
}

/// The manifest-journal path used to make manifest swaps crash-safe.
fn manifest_journal(path: &Path) -> PathBuf {
    path.with_extension("mtmp")
}

/// Parse a manifest body (already verified to start with
/// [`MANIFEST_MAGIC`]) into its segment file names.
fn parse_manifest(buf: &[u8]) -> Result<Vec<String>> {
    let body = std::str::from_utf8(&buf[MANIFEST_MAGIC.len()..])
        .map_err(|_| MadError::wal("log manifest is not valid UTF-8"))?;
    let names: Vec<String> = body
        .lines()
        .filter(|l| !l.is_empty())
        .map(str::to_owned)
        .collect();
    if names.is_empty() {
        return Err(MadError::wal("log manifest lists no segments"));
    }
    for name in &names {
        if name.contains('/') || name.contains('\\') {
            return Err(MadError::wal(format!(
                "segment name `{name}` escapes the log directory"
            )));
        }
    }
    Ok(names)
}

/// The segment file names the manifest at `path` lists.
fn read_manifest(path: &Path) -> Result<Vec<String>> {
    let head = std::fs::read(path)
        .map_err(|e| io_err(&format!("open log `{}`", path.display()), e))?;
    if !head.starts_with(MANIFEST_MAGIC) {
        return Err(MadError::wal(format!(
            "`{}` is not a MAD write-ahead log (bad magic)",
            path.display()
        )));
    }
    parse_manifest(&head)
}

/// Atomically (re)write the manifest at `path`: journal file + fsync +
/// rename + directory fsync.
fn write_manifest(path: &Path, names: &[String]) -> Result<()> {
    let tmp = manifest_journal(path);
    let mut buf = Vec::from(MANIFEST_MAGIC);
    for name in names {
        buf.extend_from_slice(name.as_bytes());
        buf.push(b'\n');
    }
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(|e| io_err("create manifest journal", e))?;
    file.write_all(&buf)
        .map_err(|e| io_err("write log manifest", e))?;
    file.sync_data()
        .map_err(|e| io_err("fsync log manifest", e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| io_err("swap log manifest into place", e))?;
    sync_parent_dir(path)
}

/// The segment file the log at `path` is currently appending to — what a
/// crash scenario must cut to simulate a torn tail.
pub fn active_segment_path(path: impl AsRef<Path>) -> Result<PathBuf> {
    let path = path.as_ref();
    match read_manifest(path)?.last() {
        Some(name) => Ok(path.with_file_name(name)),
        None => Err(MadError::wal("log manifest lists no segments")),
    }
}

impl Wal {
    /// Create a fresh log at `path` holding `db` as its bootstrap image.
    /// Fails if the file already exists (use [`Wal::recover`] then).
    pub fn create(path: impl AsRef<Path>, db: &Database, policy: FsyncPolicy) -> Result<Wal> {
        Self::create_at_seq(path, db, 0, policy)
    }

    /// Create a fresh log at `path` whose bootstrap image of `db` is
    /// stamped at commit sequence `base_seq` — the replication-bootstrap
    /// path: a standby that received a snapshot taken at `base_seq` turns
    /// it into a local log whose next appended commit is `base_seq + 1`,
    /// so recovery and promotion continue the primary's numbering
    /// seamlessly. Fails if the file already exists.
    pub fn create_at_seq(
        path: impl AsRef<Path>,
        db: &Database,
        base_seq: u64,
        policy: FsyncPolicy,
    ) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        if path.exists() {
            return Err(MadError::wal(format!(
                "create log `{}`: file exists (recover it instead)",
                path.display()
            )));
        }
        let (file, image) = image_segment(&path, 1, db, base_seq)?;
        Ok(Self::assemble(path, policy, file, 1, image))
    }

    /// Replace whatever log lives at `path` (or nothing) with a fresh one
    /// bootstrapped from `db` at `base_seq`, atomically: the new bootstrap
    /// goes into the **next** segment number and the manifest swap is the
    /// commit point, so a crash leaves either the old or the new log. Old
    /// segment files are deleted best-effort afterwards. This is the standby-resync
    /// operation — the primary's checkpoint horizon passed our cursor and
    /// a snapshot replaces local history.
    pub fn reinitialize(
        path: impl AsRef<Path>,
        db: &Database,
        base_seq: u64,
        policy: FsyncPolicy,
    ) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let old_names = std::fs::read(&path)
            .ok()
            .filter(|head| head.starts_with(MANIFEST_MAGIC))
            .and_then(|head| parse_manifest(&head).ok())
            .unwrap_or_default();
        let next = old_names.last().and_then(|n| segment_number(n).ok()).unwrap_or(0) + 1;
        let (file, image) = image_segment(&path, next, db, base_seq)?;
        for name in &old_names {
            let _ = std::fs::remove_file(path.with_file_name(name));
        }
        Ok(Self::assemble(path, policy, file, next, image))
    }

    /// A freshly bootstrapped `Wal` over segment `n`, which holds just
    /// `image`.
    fn assemble(path: PathBuf, policy: FsyncPolicy, file: File, n: u64, image: Image) -> Wal {
        let active = Segment { n, start: 0, len: image.end };
        let wal = Self::open(path, policy, file, Vec::new(), active, image, 1);
        wal.fsyncs.store(1, Ordering::Relaxed);
        wal
    }

    /// A `Wal` appending to `active`, every record before `next_lsn`
    /// durable.
    fn open(
        path: PathBuf,
        policy: FsyncPolicy,
        file: File,
        closed: Vec<Segment>,
        active: Segment,
        image: Image,
        next_lsn: Lsn,
    ) -> Wal {
        Wal {
            path,
            policy,
            files: RankedMutex::new(rank::FILES, Files {
                file,
                next_lsn,
                closed,
                active,
                retired: None,
                image,
                waiting: 0,
                max_seg_bytes: DEFAULT_SEGMENT_BYTES,
            }),
            sync: RankedMutex::new(rank::SYNC, SyncState {
                durable_lsn: next_lsn,
                syncing: false,
            }),
            synced: Condvar::new(),
            appended: Condvar::new(),
            fsyncs: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            fault: RankedMutex::new(rank::FAULT, FaultState::default()),
        }
    }

    /// Open an existing log: walk its segments in manifest order,
    /// truncate any torn tail (last segment only — a torn frame in an
    /// interior segment is corruption and a hard error), replay the
    /// bootstrap image plus every complete commit record, and return the
    /// log (positioned for appending) with the recovered database.
    pub fn recover(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<(Wal, Database, RecoveryInfo)> {
        let path = path.as_ref().to_path_buf();
        let journal = manifest_journal(&path);
        if path.exists() {
            // a journal beside a live manifest is a leftover from an
            // interrupted swap that never reached its rename — stale
            let _ = std::fs::remove_file(&journal);
        } else if journal.exists() {
            // a `create` crashed between journaling its first manifest
            // and renaming it into place — finish the swap
            let head = std::fs::read(&journal).map_err(|e| io_err("read manifest journal", e))?;
            if head.starts_with(MANIFEST_MAGIC) {
                std::fs::rename(&journal, &path)
                    .map_err(|e| io_err("complete interrupted manifest swap", e))?;
                sync_parent_dir(&path)?;
            }
        }
        let names = read_manifest(&path)?;

        // scan every segment; stop at the first incomplete/corrupt frame
        // of the LAST segment (the torn tail); a torn interior is fatal
        let last_i = names.len() - 1;
        let mut records = Vec::new();
        let mut image_end = 0;
        let mut truncated = 0u64;
        let mut segs: Vec<Segment> = Vec::with_capacity(names.len());
        let mut active: Option<File> = None;
        for (i, name) in names.iter().enumerate() {
            let n = segment_number(name)?;
            if segs.last().is_some_and(|p| p.n >= n) {
                return Err(MadError::wal(
                    "log manifest segment numbers are not strictly ascending",
                ));
            }
            let spath = path.with_file_name(name);
            let mut file = OpenOptions::new()
                .read(true)
                .write(i == last_i)
                .open(&spath)
                .map_err(|e| io_err(&format!("open log segment `{name}`"), e))?;
            let mut buf = Vec::new();
            file.read_to_end(&mut buf)
                .map_err(|e| io_err("read log segment", e))?;
            if !buf.starts_with(MAGIC) {
                return Err(MadError::wal(format!(
                    "log segment `{name}` does not start with the WAL magic"
                )));
            }
            let mut offset = MAGIC.len();
            while let FrameRead::Ok(rec, end) = read_frame(&buf, offset) {
                if records.is_empty() {
                    image_end = end as u64;
                }
                records.push(rec);
                offset = end;
            }
            let leftover = (buf.len() - offset) as u64;
            if leftover > 0 {
                if i != last_i {
                    return Err(MadError::wal(format!(
                        "torn record inside interior log segment `{name}` — \
                         only the last segment may have a torn tail"
                    )));
                }
                truncated = leftover;
                file.set_len(offset as u64)
                    .map_err(|e| io_err("truncate torn tail", e))?;
                file.sync_data()
                    .map_err(|e| io_err("fsync after truncate", e))?;
            }
            if i == last_i {
                // the cursor sits at the old EOF after read_to_end;
                // reposition it to the (possibly truncated) end so appends
                // continue the segment instead of leaving a zero-filled
                // hole past the torn tail
                file.seek(SeekFrom::Start(offset as u64))
                    .map_err(|e| io_err("seek to log end", e))?;
                active = Some(file);
            }
            let start = segs.last().map_or(0, Segment::end);
            segs.push(Segment { n, start, len: offset as u64 });
        }
        let (Some(file), Some(last)) = (active, segs.pop()) else {
            return Err(MadError::wal("log manifest lists no segments"));
        };

        // replay: bootstrap image first, then commits in sequence —
        // continuity holds across segment boundaries
        let mut iter = records.into_iter();
        let (base_seq, mut db) = match iter.next() {
            Some(WalRecord::Bootstrap { base_seq, snapshot }) => {
                (base_seq, snapshot.restore()?)
            }
            Some(WalRecord::Commit { .. }) => {
                return Err(MadError::wal("log does not start with a bootstrap record"))
            }
            None => return Err(MadError::wal("log holds no complete record")),
        };
        let mut last_seq = base_seq;
        let mut commits = 0u64;
        for rec in iter {
            match rec {
                WalRecord::Commit { seq, ops } => {
                    if seq != last_seq + 1 {
                        return Err(MadError::wal(format!(
                            "commit sequence gap: expected {}, log has {seq}",
                            last_seq + 1
                        )));
                    }
                    for mut op in ops {
                        apply_op(&mut db, &mut op, None)?;
                    }
                    last_seq = seq;
                    commits += 1;
                }
                WalRecord::Bootstrap { .. } => {
                    return Err(MadError::wal(
                        "unexpected bootstrap record mid-log (checkpoint rewrites, it never appends)",
                    ))
                }
            }
        }

        let segments = mad_model::bin::u64_of_usize(segs.len() + 1);
        let image = Image { base_seq, end: image_end };
        let wal = Self::open(path, policy, file, segs, last, image, 1 + commits);
        let info = RecoveryInfo {
            commits_replayed: commits,
            last_seq,
            truncated_bytes: truncated,
            segments,
        };
        Ok((wal, db, info))
    }

    /// The fsync policy this log runs under.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// The log's manifest path (what callers hand to `create`/`recover`;
    /// segment files live beside it).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current log length in bytes, summed across all live segments.
    pub fn len_bytes(&self) -> u64 {
        let files = self.files.lock().unwrap();
        files.active.end() - files.head().start
    }

    /// The stream position just past the last appended byte: what a
    /// [`WalCursor::pos`] reaches once it has read everything.
    pub fn appended_pos(&self) -> u64 {
        self.files.lock().unwrap_or_else(PoisonError::into_inner).active.end()
    }

    /// Number of live segments (1 after create or checkpoint; grows with
    /// rotation).
    #[expect(clippy::unwrap_used, reason = "mutex poison propagates the original panic")]
    pub fn segment_count(&self) -> usize {
        self.files.lock().unwrap().closed.len() + 1
    }

    /// Set the rotation threshold: an append finding the active segment
    /// at or past `bytes` rotates first. Tests use tiny values to force
    /// many segments; production leaves [`DEFAULT_SEGMENT_BYTES`].
    #[expect(clippy::unwrap_used, reason = "mutex poison propagates the original panic")]
    pub fn set_max_segment_bytes(&self, bytes: u64) {
        self.files.lock().unwrap().max_seg_bytes = bytes.max(1);
    }

    /// Total fsyncs performed since open (the group-commit amortization
    /// shows up as `fsyncs ≪ commits`).
    pub fn fsync_count(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// `(batches, records_covered)` of group-commit fsyncs since open —
    /// `records_covered / batches` is the amortization factor commits
    /// are currently enjoying. Both zero under other fsync policies.
    pub fn group_commit_stats(&self) -> (u64, u64) {
        (
            self.batches.load(Ordering::Relaxed),
            self.batched.load(Ordering::Relaxed),
        )
    }

    /// Append one committed transaction's record (buffered OS write, no
    /// fsync) and return its [`Lsn`]. Callers must append in commit-seq
    /// order — the publisher's commit path does this under its publication
    /// ticket. Rotates to a fresh segment first when the active one is
    /// past the size threshold.
    ///
    /// A failed append is rolled back (truncate to the pre-append length)
    /// so later records never sit beyond garbage bytes; if even the
    /// rollback fails, the log is poisoned and every further append
    /// errors.
    pub fn append_commit(&self, seq: u64, ops: &[WalOp]) -> Result<Lsn> {
        self.check_poisoned()?;
        let at = StageTimer::start(StageKind::WalAppend);
        let framed = frame_commit(seq, ops)?;
        let mut files = self.files.lock().unwrap();
        if files.active.len >= files.max_seg_bytes {
            // rotate BEFORE the record goes anywhere: a rotation failure
            // aborts this append cleanly, with the old segment still
            // active and the log unpoisoned (unless the closing fsync
            // itself failed)
            self.rotate(&mut files)?;
        }
        let written = if self.fault.lock().unwrap().trip_append() {
            // injected fault: leave a torn partial frame behind, exactly
            // like a disk dying mid-write, then fail the append
            let cut = framed.len() / 2;
            let _ = files.file.write_all(&framed[..cut]);
            Err(std::io::Error::other("injected append fault"))
        } else {
            files.file.write_all(&framed)
        };
        if let Err(e) = written {
            // a partial frame may be on disk; cut the active segment back
            // to the last good byte so an acknowledged later commit is
            // never stranded behind a torn interior record
            let good = files.active.len;
            let restore = files
                .file
                .set_len(good)
                .and_then(|()| files.file.seek(SeekFrom::Start(good)).map(|_| ()));
            if restore.is_err() {
                self.poisoned.store(true, Ordering::SeqCst);
            }
            return Err(io_err("append commit record", e));
        }
        // only now may a tailer read the record: an in-flight or rolled
        // back append is never past the appended length
        files.active.len += framed.len() as u64;
        if files.waiting > 0 {
            self.appended.notify_all();
        }
        let lsn = files.next_lsn;
        files.next_lsn += 1;
        at.finish_info(&[("bytes", mad_model::bin::u64_of_usize(framed.len()))]);
        Ok(lsn)
    }

    /// Close the active segment and open the next one (caller holds the
    /// `files` lock). The closing segment is fsynced **before** the
    /// manifest grows, so every record in a non-last segment is durable —
    /// that is what lets [`Wal::wait_durable`] prove any LSN durable by
    /// fsyncing only the active segment, and what makes a torn interior
    /// segment a corruption signal rather than a crash artifact.
    fn rotate(&self, files: &mut Files) -> Result<()> {
        if let Err(e) = files.file.sync_data() {
            // records in the closing segment may have been acknowledged
            // as durable already; if its final fsync fails we can no
            // longer trust the file — same rule as a failed group fsync
            self.poisoned.store(true, Ordering::SeqCst);
            return Err(io_err("fsync closing log segment", e));
        }
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        let next = files.active.n + 1;
        let spath = segment_path(&self.path, next);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&spath)
            .map_err(|e| io_err("create next log segment", e))?;
        file.write_all(MAGIC)
            .map_err(|e| io_err("write segment magic", e))?;
        file.sync_data()
            .map_err(|e| io_err("fsync new log segment", e))?;
        let mut names: Vec<String> = files
            .listed()
            .map(|s| segment_name(&self.path, s.n))
            .collect();
        names.push(segment_name(&self.path, next));
        write_manifest(&self.path, &names)?;
        let fresh = Segment { n: next, start: files.active.end(), len: MAGIC.len() as u64 };
        let closing = std::mem::replace(&mut files.active, fresh);
        files.closed.push(closing);
        files.file = file;
        Ok(())
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(MadError::wal(
                "write-ahead log is poisoned after an unrecoverable I/O failure; \
                 reopen the database to recover from the last durable state",
            ));
        }
        Ok(())
    }

    /// Block until the record at `lsn` is durable per the fsync policy.
    /// See [`FsyncPolicy`] for what each level guarantees.
    ///
    /// An fsync failure poisons the log (see [`Wal::append_commit`]): the
    /// kernel may have dropped the dirty pages, so no later fsync can
    /// retroactively prove this record durable.
    pub fn wait_durable(&self, lsn: Lsn) -> Result<()> {
        self.check_poisoned()?;
        match self.policy {
            FsyncPolicy::Never => Ok(()),
            FsyncPolicy::PerCommit => {
                let ft = StageTimer::start(StageKind::FsyncWait);
                // baseline: one fsync per commit, no batching, serialized
                // through the sync lock
                let st = self.sync.lock().unwrap();
                let high = self.files.lock().unwrap().next_lsn;
                self.fsync_log()?;
                let mut st = st;
                st.durable_lsn = st.durable_lsn.max(high);
                ft.finish_info(&[("batch", 1)]);
                Ok(())
            }
            FsyncPolicy::Group => {
                let ft = StageTimer::start(StageKind::FsyncWait);
                let batch = self.wait_durable_grouped(lsn)?;
                // `batch` > 0 only when this thread was the elected
                // group-commit syncer; a pure waiter rode along
                ft.finish_info(&[("batch", batch)]);
                Ok(())
            }
        }
    }

    /// Returns the number of records this thread's own fsync batches
    /// covered (0 when the wait was satisfied by another thread's sync).
    fn wait_durable_grouped(&self, lsn: Lsn) -> Result<u64> {
        let mut covered = 0u64;
        let mut st = self.sync.lock().unwrap();
        loop {
            if st.durable_lsn > lsn {
                return Ok(covered);
            }
            if self.poisoned.load(Ordering::SeqCst) {
                drop(st);
                return self.check_poisoned().map(|()| covered);
            }
            if st.syncing {
                // an fsync is in flight; by the time it finishes it may or
                // may not cover our record — loop to re-check
                st = st.wait(&self.synced).unwrap();
                continue;
            }
            // become the syncer for everything appended so far — but first
            // let the batch fill: committers that are mid-publication right
            // now would otherwise each trigger their own fsync. Yield while
            // the append stream is still growing (a `commit_delay` in the
            // PostgreSQL sense, but adaptive: a lone writer quiesces after
            // one yield and pays essentially nothing).
            st.syncing = true;
            let durable_before = st.durable_lsn;
            drop(st);
            let mut high = self.files.lock().unwrap().next_lsn;
            let batch_deadline =
                std::time::Instant::now() + std::time::Duration::from_micros(250);
            let mut quiet = 0u32;
            loop {
                std::thread::yield_now();
                let now_high = self.files.lock().unwrap().next_lsn;
                // two consecutive quiet observations, so one committer
                // that merely hasn't been scheduled yet doesn't shrink
                // the batch to a premature lone fsync
                quiet = if now_high == high { quiet + 1 } else { 0 };
                high = now_high;
                if quiet >= 2 || std::time::Instant::now() >= batch_deadline {
                    break;
                }
            }
            let res = self.fsync_log();
            st = self.sync.lock().unwrap();
            st.syncing = false;
            if res.is_ok() {
                st.durable_lsn = st.durable_lsn.max(high);
                let records = high.saturating_sub(durable_before);
                covered += records;
                self.batches.fetch_add(1, Ordering::Relaxed);
                self.batched.fetch_add(records, Ordering::Relaxed);
            }
            // notify while holding the mutex: futex wait-morphing requeues
            // the waiters instead of stampeding them awake
            self.synced.notify_all();
            res?;
        }
    }

    /// One fsync of the **active** segment. Uses a duplicated handle so
    /// the append path is never blocked behind the flush. Syncing only
    /// the active segment is sufficient for any LSN: rotation fsyncs a
    /// segment before the manifest grows past it, so every record in a
    /// closed segment is already durable.
    fn fsync_log(&self) -> Result<()> {
        if self.fault.lock().unwrap().trip_fsync() {
            // injected fault: indistinguishable from a real failed fsync
            // — the log poisons and no covered commit is acknowledged
            self.poisoned.store(true, Ordering::SeqCst);
            return Err(io_err(
                "fsync log",
                std::io::Error::other("injected fsync fault"),
            ));
        }
        let dup = self
            .files
            .lock()
            .unwrap()
            .file
            .try_clone()
            .map_err(|e| io_err("clone log handle", e))?;
        if let Err(e) = dup.sync_data() {
            self.poisoned.store(true, Ordering::SeqCst);
            return Err(io_err("fsync log", e));
        }
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Arm (or with `None` disarm) a deterministic [`FaultPlan`]; ordinal
    /// counters restart from zero at every call. See [`crate::fault`].
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.fault.lock().unwrap() = FaultState {
            plan,
            ..FaultState::default()
        };
    }

    /// Read the next batch of commit records after `cursor` and advance
    /// it: the replication source. A batch is at most
    /// [`TAIL_BATCH_BYTES`] of log (or one larger frame) and ends at the
    /// appended length recorded under the `files` lock, so a record whose
    /// append is in flight or was rolled back is never read. Returns
    /// [`TailRead::SnapshotNeeded`] when a checkpoint folded records the
    /// cursor still needs into the bootstrap image.
    ///
    /// A cursor that finished a closed segment moves on to the next one
    /// listed. An unpositioned cursor, or one whose segment a checkpoint
    /// folded away before it finished, starts over at the head of the
    /// log, past the bootstrap image. Segments are opened under the lock,
    /// so a checkpoint cannot unlink one in between: it unlinks only what
    /// it has already unlisted. The bytes are read after the lock is
    /// released.
    pub fn tail(&self, cursor: &mut WalCursor) -> Result<TailRead> {
        let end = {
            let files = self.files.lock().map_err(poisoned)?;
            loop {
                let seg = match cursor.at.as_ref().map(|r| (r.seg.n, r.offset)) {
                    None => *files.head(),
                    Some((n, offset)) => {
                        match files.listed().chain(files.retired.as_ref()).find(|s| s.n == n) {
                            None => {
                                cursor.at = None;
                                continue;
                            }
                            Some(seg) if offset < seg.len || n == files.active.n => break seg.len,
                            // finished a closed segment: the next one listed
                            // continues it (the active one is numbered highest)
                            Some(_) => *files.listed().find(|s| s.n > n).unwrap_or(&files.active),
                        }
                    }
                };
                let offset = if seg.n == files.head().n {
                    if files.image.base_seq > cursor.seq {
                        let base_seq = files.image.base_seq;
                        return Ok(TailRead::SnapshotNeeded { base_seq });
                    }
                    files.image.end
                } else {
                    MAGIC.len() as u64
                };
                let file = File::open(segment_path(&self.path, seg.n))
                    .map_err(|e| io_err("open log segment for tailing", e))?;
                cursor.at = Some(Reading { seg, offset, file });
            }
        };
        cursor.read_batch(end).map(TailRead::Commits)
    }

    /// Block until the log holds bytes past `cursor` or `timeout` passes;
    /// returns whether it does. Appends signal only while a tailer waits,
    /// so a log nobody tails pays no wake-up.
    pub fn wait_appended(&self, cursor: &WalCursor, timeout: Duration) -> bool {
        let mut files = self.files.lock().unwrap_or_else(PoisonError::into_inner);
        if files.active.end() <= cursor.pos() {
            files.waiting += 1;
            files = files
                .wait_timeout(&self.appended, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            files.waiting -= 1;
        }
        files.active.end() > cursor.pos()
    }

    /// Replace the log with a fresh bootstrap image of `db` (taken at
    /// commit sequence `base_seq`), dropping every commit record — the
    /// checkpoint-and-truncate operation. The bootstrap is written into
    /// the **next** segment number, fsynced, and the manifest is
    /// atomically rewritten to list just that segment, so a crash
    /// mid-checkpoint recovers from either the old or the new log, never
    /// a mix; old segment files are deleted best-effort afterwards.
    /// Because only the new segment is rewritten, checkpoint cost no
    /// longer scales with the total bytes the log accumulated.
    ///
    /// The caller must guarantee no concurrent [`Wal::append_commit`]
    /// (the publisher runs checkpoints under its commit ticket).
    pub fn checkpoint(&self, db: &Database, base_seq: u64) -> Result<CheckpointStats> {
        // claim the syncer slot so no fsync races the segment swap
        let mut st = self.sync.lock().unwrap();
        while st.syncing {
            st = st.wait(&self.synced).unwrap();
        }
        st.syncing = true;
        drop(st);

        let result = self.checkpoint_inner(db, base_seq);

        let mut st = self.sync.lock().unwrap();
        st.syncing = false;
        if result.is_ok() {
            // the fresh log is fully durable — and trustworthy again,
            // even if an earlier fsync failure had poisoned the old file
            #[expect(clippy::unwrap_used, reason = "mutex poison propagates the original panic")]
            let next_lsn = self.files.lock().unwrap().next_lsn;
            st.durable_lsn = next_lsn;
            self.poisoned.store(false, Ordering::SeqCst);
        }
        self.synced.notify_all();
        result
    }

    fn checkpoint_inner(&self, db: &Database, base_seq: u64) -> Result<CheckpointStats> {
        let next = self.files.lock().map_err(poisoned)?.active.n + 1;
        let (file, image) = image_segment(&self.path, next, db, base_seq)?;
        let bytes_after = image.end;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        let (bytes_before, old) = {
            let mut files = self.files.lock().map_err(poisoned)?;
            let bytes_before = files.active.end() - files.head().start;
            let old: Vec<u64> = files.listed().map(|s| s.n).collect();
            let fresh = Segment { n: next, start: files.active.end(), len: bytes_after };
            files.retired = Some(std::mem::replace(&mut files.active, fresh));
            files.image = image;
            files.closed.clear();
            files.file = file;
            files.next_lsn += 1; // the bootstrap record occupies one LSN
            if files.waiting > 0 {
                self.appended.notify_all();
            }
            (bytes_before, old)
        };
        // the manifest no longer references them; deletion is cleanup,
        // not correctness, so failures are ignored. A tailer may still
        // hold the retired segment open and finish it.
        for n in old {
            let _ = std::fs::remove_file(segment_path(&self.path, n));
        }
        Ok(CheckpointStats {
            bytes_before,
            bytes_after,
            base_seq,
        })
    }
}

/// Write `db` at `base_seq` as the bootstrap image of a fresh, fsynced
/// segment `n` of the log at `path`, then make that segment the only one
/// the manifest lists.
fn image_segment(path: &Path, n: u64, db: &Database, base_seq: u64) -> Result<(File, Image)> {
    let spath = segment_path(path, n);
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&spath)
        .map_err(|e| io_err(&format!("create log segment `{}`", spath.display()), e))?;
    let end = write_bootstrap(&mut file, db, base_seq)?;
    write_manifest(path, &[segment_name(path, n)])?;
    Ok((file, Image { base_seq, end }))
}

/// Write magic + bootstrap frame and fsync; returns the file length.
fn write_bootstrap(file: &mut File, db: &Database, base_seq: u64) -> Result<u64> {
    let record = WalRecord::Bootstrap {
        base_seq,
        snapshot: Box::new(DatabaseSnapshot::capture(db)),
    };
    let framed = frame(&record)?;
    file.write_all(MAGIC).map_err(|e| io_err("write magic", e))?;
    file.write_all(&framed)
        .map_err(|e| io_err("write bootstrap record", e))?;
    file.sync_data().map_err(|e| io_err("fsync bootstrap", e))?;
    Ok((MAGIC.len() + framed.len()) as u64)
}

/// Fsync the directory holding `path`, making a create/rename durable.
/// Best-effort on platforms where directories cannot be opened.
fn sync_parent_dir(path: &Path) -> Result<()> {
    let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) else {
        return Ok(());
    };
    match File::open(dir) {
        Ok(d) => d
            .sync_data()
            .map_err(|e| io_err("fsync log directory", e)),
        Err(_) => Ok(()), // e.g. platforms without O_DIRECTORY semantics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mad_model::{AttrType, SchemaBuilder, Value};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mad-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_db() -> Database {
        let schema = SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text)])
            .atom_type("area", &[("aid", AttrType::Int)])
            .link_type("state-area", "state", "area")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let state = db.schema().atom_type_id("state").unwrap();
        db.insert_atom(state, vec![Value::from("SP")]).unwrap();
        db
    }

    #[test]
    fn create_append_recover_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("mad.wal");
        let mut db = small_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let wal = Wal::create(&path, &db, FsyncPolicy::Group).unwrap();

        // two committed "transactions", applied in parallel to our model db
        for (seq, name) in [(1u64, "MG"), (2, "RJ")] {
            let id = db.insert_atom(state, vec![Value::from(name)]).unwrap();
            let ops = vec![WalOp::Insert {
                ty: state,
                tuple: vec![Value::from(name)],
                id,
            }];
            let lsn = wal.append_commit(seq, &ops).unwrap();
            wal.wait_durable(lsn).unwrap();
        }
        drop(wal);

        let (wal2, recovered, info) = Wal::recover(&path, FsyncPolicy::Group).unwrap();
        assert_eq!(info.commits_replayed, 2);
        assert_eq!(info.last_seq, 2);
        assert_eq!(info.truncated_bytes, 0);
        assert_eq!(info.segments, 1);
        assert_eq!(
            DatabaseSnapshot::capture(&recovered).to_json_string(),
            DatabaseSnapshot::capture(&db).to_json_string()
        );
        // the recovered log accepts further appends
        let lsn = wal2
            .append_commit(
                3,
                &[WalOp::UpdateAttr {
                    id: mad_model::AtomId::new(state, 0),
                    attr: 0,
                    value: Value::from("SP2"),
                }],
            )
            .unwrap();
        wal2.wait_durable(lsn).unwrap();
        drop(wal2);
        let (_, recovered, info) = Wal::recover(&path, FsyncPolicy::Group).unwrap();
        assert_eq!(info.commits_replayed, 3);
        assert_eq!(
            recovered.atom(mad_model::AtomId::new(state, 0)).unwrap()[0],
            Value::from("SP2")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_existing_file() {
        let dir = tmpdir("exists");
        let path = dir.join("mad.wal");
        let db = small_db();
        Wal::create(&path, &db, FsyncPolicy::Never).unwrap();
        assert!(Wal::create(&path, &db, FsyncPolicy::Never).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_truncates_torn_tail() {
        let dir = tmpdir("torn");
        let path = dir.join("mad.wal");
        let db = small_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let wal = Wal::create(&path, &db, FsyncPolicy::Never).unwrap();
        let ops = vec![WalOp::Insert {
            ty: state,
            tuple: vec![Value::from("MG")],
            id: mad_model::AtomId::new(state, 1),
        }];
        wal.append_commit(1, &ops).unwrap();
        drop(wal);
        // tear the final record: chop 3 bytes off the active segment
        let seg = active_segment_path(&path).unwrap();
        let full = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &full[..full.len() - 3]).unwrap();
        let (_, recovered, info) = Wal::recover(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(info.commits_replayed, 0, "the torn commit is gone");
        assert!(info.truncated_bytes > 0);
        assert_eq!(recovered.atom_count(state), 1, "bootstrap state only");
        // the truncation is physical: a second recover sees a clean log
        let (_, _, info) = Wal::recover(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(info.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_after_torn_recovery_survive_the_next_recovery() {
        // regression: recover() repositions the write cursor after
        // truncating the torn tail — without the seek, post-recovery
        // appends landed past a zero-filled hole and the NEXT recovery
        // silently dropped every acknowledged commit
        let dir = tmpdir("torn-then-append");
        let path = dir.join("mad.wal");
        let db = small_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let wal = Wal::create(&path, &db, FsyncPolicy::Group).unwrap();
        let ops = vec![WalOp::Insert {
            ty: state,
            tuple: vec![Value::from("MG")],
            id: mad_model::AtomId::new(state, 1),
        }];
        let lsn = wal.append_commit(1, &ops).unwrap();
        wal.wait_durable(lsn).unwrap();
        drop(wal);
        // tear the final record
        let seg = active_segment_path(&path).unwrap();
        let full = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &full[..full.len() - 3]).unwrap();
        // recover (truncates the tail), then commit again
        let (wal, _, info) = Wal::recover(&path, FsyncPolicy::Group).unwrap();
        assert!(info.truncated_bytes > 0);
        let lsn = wal.append_commit(1, &ops).unwrap();
        wal.wait_durable(lsn).unwrap();
        drop(wal);
        // the re-appended commit must be recoverable — no hole in the log
        let (_, recovered, info) = Wal::recover(&path, FsyncPolicy::Group).unwrap();
        assert_eq!(info.truncated_bytes, 0, "log must be hole-free");
        assert_eq!(info.commits_replayed, 1);
        assert!(recovered.atom_exists(mad_model::AtomId::new(state, 1)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_rejects_non_wal_files() {
        let dir = tmpdir("badmagic");
        let path = dir.join("mad.wal");
        std::fs::write(&path, b"definitely not a wal").unwrap();
        assert!(Wal::recover(&path, FsyncPolicy::Never).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_rejects_a_bare_single_file_log_unchanged() {
        // a lone segment at the manifest path (magic + bootstrap + commit,
        // no manifest) is not a log: recovery refuses it and writes nothing
        let dir = tmpdir("bare");
        let path = dir.join("mad.wal");
        let mut db = small_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let mut file = File::create(&path).unwrap();
        write_bootstrap(&mut file, &db, 0).unwrap();
        let id = db.insert_atom(state, vec![Value::from("MG")]).unwrap();
        let ops = [WalOp::Insert { ty: state, tuple: vec![Value::from("MG")], id }];
        file.write_all(&frame_commit(1, &ops).unwrap()).unwrap();
        drop(file);
        let before = std::fs::read(&path).unwrap();
        let err = Wal::recover(&path, FsyncPolicy::Never).map(|_| ()).unwrap_err();
        assert!(matches!(err, MadError::Wal { .. }), "got {err}");
        assert_eq!(std::fs::read(&path).unwrap(), before, "the file is left as it was");
        assert!(!dir.join("mad.wal.0001").exists(), "no segment was split off");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `max_segment_bytes = 1`: every append rotates first, so commit `k`
    /// lands alone in segment `k + 1` (the bootstrap holds segment 1).
    fn rotated_log(path: &Path, commits: u64) -> (Wal, Database) {
        let mut db = small_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let wal = Wal::create(path, &db, FsyncPolicy::Group).unwrap();
        wal.set_max_segment_bytes(1);
        for seq in 1..=commits {
            let id = db
                .insert_atom(state, vec![Value::from(format!("r{seq}"))])
                .unwrap();
            let lsn = wal
                .append_commit(
                    seq,
                    &[WalOp::Insert {
                        ty: state,
                        tuple: vec![Value::from(format!("r{seq}"))],
                        id,
                    }],
                )
                .unwrap();
            wal.wait_durable(lsn).unwrap();
        }
        (wal, db)
    }

    #[test]
    fn rotation_splits_the_log_and_recovery_walks_segments() {
        let dir = tmpdir("rotate");
        let path = dir.join("mad.wal");
        let (wal, db) = rotated_log(&path, 6);
        let state = db.schema().atom_type_id("state").unwrap();
        assert!(wal.segment_count() > 1, "tiny threshold must rotate");
        let total = wal.len_bytes();
        drop(wal);

        let (wal2, recovered, info) = Wal::recover(&path, FsyncPolicy::Group).unwrap();
        assert_eq!(info.commits_replayed, 6);
        assert!(info.segments > 1);
        assert_eq!(info.segments as usize, wal2.segment_count());
        assert_eq!(wal2.len_bytes(), total);
        assert_eq!(recovered.atom_count(state), 7);
        // tailing crosses segment boundaries in order
        assert_eq!(drain(&wal2, &mut WalCursor::after(0)), (1..=6).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Tail `cursor` until a batch comes back empty; the sequences read.
    fn drain(wal: &Wal, cursor: &mut WalCursor) -> Vec<u64> {
        let mut seqs = Vec::new();
        loop {
            match wal.tail(cursor).unwrap() {
                TailRead::Commits(c) if c.is_empty() => return seqs,
                TailRead::Commits(c) => seqs.extend(c.iter().map(|(s, _)| *s)),
                TailRead::SnapshotNeeded { base_seq } => panic!("snapshot needed at {base_seq}"),
            }
        }
    }

    fn insert_op(state: mad_model::AtomTypeId, seq: u64) -> Vec<WalOp> {
        vec![WalOp::Insert {
            ty: state,
            tuple: vec![Value::from(format!("t{seq}"))],
            id: mad_model::AtomId::new(state, u32::try_from(seq).unwrap()),
        }]
    }

    #[test]
    fn a_cursor_resumes_where_it_stopped_and_ends_at_the_appended_length() {
        let dir = tmpdir("cursor");
        let path = dir.join("mad.wal");
        let db = small_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let wal = Wal::create(&path, &db, FsyncPolicy::Never).unwrap();
        for seq in 1..=3 {
            wal.append_commit(seq, &insert_op(state, seq)).unwrap();
        }
        let mut cursor = WalCursor::after(0);
        assert_eq!(drain(&wal, &mut cursor), [1, 2, 3]);
        assert_eq!(cursor.pos(), wal.appended_pos(), "a caught-up cursor has no lag");
        wal.append_commit(4, &insert_op(state, 4)).unwrap();
        assert_eq!(drain(&wal, &mut cursor), [4]);
        // a cursor that starts after 2 skips what it already has
        assert_eq!(drain(&wal, &mut WalCursor::after(2)), [3, 4]);

        // a whole frame written past the recorded length (an append still
        // in flight, or one whose rollback failed) is never read
        let framed = frame(&WalRecord::Commit { seq: 5, ops: insert_op(state, 5) }).unwrap();
        let active = active_segment_path(&path).unwrap();
        OpenOptions::new().append(true).open(active).unwrap().write_all(&framed).unwrap();
        assert_eq!(drain(&wal, &mut cursor), Vec::<u64>::new());
        assert_eq!(drain(&wal, &mut WalCursor::after(0)), [1, 2, 3, 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_cursor_reads_the_first_frame_of_every_rotated_segment() {
        let dir = tmpdir("cursor-rotate");
        let path = dir.join("mad.wal");
        let (wal, db) = rotated_log(&path, 1);
        let state = db.schema().atom_type_id("state").unwrap();
        let mut cursor = WalCursor::after(0);
        assert_eq!(drain(&wal, &mut cursor), [1]);
        // every append rotates: each commit opens a segment of its own,
        // and the cursor is caught up at the end of the one before
        for seq in 2..=4 {
            wal.append_commit(seq, &insert_op(state, seq)).unwrap();
            assert_eq!(drain(&wal, &mut cursor), [seq]);
        }
        assert_eq!(wal.segment_count(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_cursor_behind_a_checkpoint_finishes_its_segment_or_needs_a_snapshot() {
        let dir = tmpdir("cursor-ckpt");
        let path = dir.join("mad.wal");
        let db = small_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let wal = Wal::create(&path, &db, FsyncPolicy::Never).unwrap();
        wal.append_commit(1, &insert_op(state, 1)).unwrap();
        let mut caught_up = WalCursor::after(0);
        let mut behind = WalCursor::after(0);
        assert_eq!(drain(&wal, &mut behind), [1]);
        for seq in 2..=3 {
            wal.append_commit(seq, &insert_op(state, seq)).unwrap();
        }
        assert_eq!(drain(&wal, &mut caught_up), [1, 2, 3]);
        wal.checkpoint(&db, 3).unwrap();
        assert!(!dir.join("mad.wal.0001").exists(), "the folded segment is unlinked");
        wal.append_commit(4, &insert_op(state, 4)).unwrap();
        // read through the checkpoint's base: straight past the new image
        assert_eq!(drain(&wal, &mut caught_up), [4]);
        // still owed 2 and 3: it finishes the unlinked segment it holds
        assert_eq!(drain(&wal, &mut behind), [2, 3, 4]);
        // a cursor with no segment open cannot reach 2 any more
        assert!(matches!(
            wal.tail(&mut WalCursor::after(1)).unwrap(),
            TailRead::SnapshotNeeded { base_seq: 3 }
        ));
        assert_eq!(drain(&wal, &mut WalCursor::after(3)), [4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_cursor_in_a_folded_interior_segment_needs_a_snapshot() {
        let dir = tmpdir("cursor-interior");
        let path = dir.join("mad.wal");
        let (wal, db) = rotated_log(&path, 1);
        let state = db.schema().atom_type_id("state").unwrap();
        let mut cursor = WalCursor::after(0);
        assert_eq!(drain(&wal, &mut cursor), [1]);
        for seq in 2..=3 {
            wal.append_commit(seq, &insert_op(state, seq)).unwrap();
        }
        // commit 2's segment is gone, not just the cursor's
        wal.checkpoint(&db, 3).unwrap();
        assert!(matches!(
            wal.tail(&mut cursor).unwrap(),
            TailRead::SnapshotNeeded { base_seq: 3 }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_batch_is_bounded_and_a_larger_frame_is_read_whole() {
        let dir = tmpdir("cursor-batch");
        let path = dir.join("mad.wal");
        let db = small_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let wal = Wal::create(&path, &db, FsyncPolicy::Never).unwrap();
        let op = |seq: u64, bytes: usize| {
            vec![WalOp::Insert {
                ty: state,
                tuple: vec![Value::from("x".repeat(bytes))],
                id: mad_model::AtomId::new(state, u32::try_from(seq).unwrap()),
            }]
        };
        let big = usize::try_from(TAIL_BATCH_BYTES).unwrap() + 1000;
        wal.append_commit(1, &op(1, big)).unwrap();
        for seq in 2..=100 {
            wal.append_commit(seq, &op(seq, 10_000)).unwrap();
        }
        let mut cursor = WalCursor::after(0);
        let mut batches = Vec::new();
        loop {
            let TailRead::Commits(c) = wal.tail(&mut cursor).unwrap() else { panic!() };
            if c.is_empty() {
                break;
            }
            batches.push(c.iter().map(|(s, _)| *s).collect::<Vec<_>>());
        }
        assert_eq!(batches[0], [1], "the oversized frame comes alone");
        assert!(batches[1..].iter().all(|b| b.len() <= 26), "{batches:?}");
        assert_eq!(batches.concat(), (1..=100).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wait_appended_wakes_on_an_append_and_times_out_without_one() {
        let dir = tmpdir("cursor-wait");
        let path = dir.join("mad.wal");
        let db = small_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let wal = Wal::create(&path, &db, FsyncPolicy::Never).unwrap();
        let mut cursor = WalCursor::after(0);
        assert_eq!(drain(&wal, &mut cursor), Vec::<u64>::new());
        assert!(!wal.wait_appended(&cursor, Duration::from_millis(10)));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| wal.wait_appended(&cursor, Duration::from_secs(30)));
            while wal.files.lock().unwrap().waiting == 0 {
                std::thread::yield_now();
            }
            wal.append_commit(1, &insert_op(state, 1)).unwrap();
            assert!(waiter.join().unwrap());
        });
        assert!(wal.wait_appended(&cursor, Duration::ZERO), "bytes past the cursor");
        assert_eq!(drain(&wal, &mut cursor), [1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncates_only_the_last_segment() {
        let dir = tmpdir("torn-last-seg");
        let path = dir.join("mad.wal");
        let (wal, _) = rotated_log(&path, 3);
        drop(wal);
        let active = active_segment_path(&path).unwrap();
        let full = std::fs::read(&active).unwrap();
        std::fs::write(&active, &full[..full.len() - 3]).unwrap();
        let (_, _, info) = Wal::recover(&path, FsyncPolicy::Group).unwrap();
        assert_eq!(info.commits_replayed, 2, "only the torn last commit is lost");
        assert!(info.truncated_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_interior_segment_is_a_hard_error() {
        let dir = tmpdir("torn-interior");
        let path = dir.join("mad.wal");
        let (wal, _) = rotated_log(&path, 3);
        drop(wal);
        // commit 1 lives alone in segment 0002 — an interior segment
        let interior = dir.join("mad.wal.0002");
        let full = std::fs::read(&interior).unwrap();
        std::fs::write(&interior, &full[..full.len() - 3]).unwrap();
        let err = Wal::recover(&path, FsyncPolicy::Group).unwrap_err();
        assert!(
            err.to_string().contains("interior"),
            "must name the interior-segment rule: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_and_survives_recovery() {
        let dir = tmpdir("checkpoint");
        let path = dir.join("mad.wal");
        let mut db = small_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let wal = Wal::create(&path, &db, FsyncPolicy::Group).unwrap();
        for seq in 1..=20u64 {
            let id = db
                .insert_atom(state, vec![Value::from(format!("s{seq}"))])
                .unwrap();
            let lsn = wal
                .append_commit(
                    seq,
                    &[WalOp::Insert {
                        ty: state,
                        tuple: vec![Value::from(format!("s{seq}"))],
                        id,
                    }],
                )
                .unwrap();
            wal.wait_durable(lsn).unwrap();
        }
        let stats = wal.checkpoint(&db, 20).unwrap();
        assert!(
            stats.bytes_after < stats.bytes_before,
            "checkpoint must shrink the log ({} -> {})",
            stats.bytes_before,
            stats.bytes_after
        );
        assert_eq!(wal.segment_count(), 1, "checkpoint collapses to one segment");
        assert!(
            !dir.join("mad.wal.0001").exists(),
            "the pre-checkpoint segment is deleted"
        );
        drop(wal);
        let (_, recovered, info) = Wal::recover(&path, FsyncPolicy::Group).unwrap();
        assert_eq!(info.commits_replayed, 0, "commits were folded into the image");
        assert_eq!(info.last_seq, 20, "sequence numbering continues");
        assert_eq!(recovered.atom_count(state), 21);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_of_a_rotated_log_collapses_the_segments() {
        let dir = tmpdir("ckpt-rotated");
        let path = dir.join("mad.wal");
        let (wal, db) = rotated_log(&path, 5);
        let before = wal.segment_count();
        assert!(before > 1);
        wal.checkpoint(&db, 5).unwrap();
        assert_eq!(wal.segment_count(), 1);
        drop(wal);
        let (_, _, info) = Wal::recover(&path, FsyncPolicy::Group).unwrap();
        assert_eq!(info.last_seq, 5);
        assert_eq!(info.segments, 1);
        // every pre-checkpoint segment file is gone
        for n in 1..=before as u64 {
            assert!(
                !dir.join(format!("mad.wal.{n:04}")).exists(),
                "segment {n:04} must be deleted"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reinitialize_replaces_the_log_at_a_new_base() {
        let dir = tmpdir("reinit");
        let path = dir.join("mad.wal");
        let (old_wal, db) = rotated_log(&path, 3);
        let state = db.schema().atom_type_id("state").unwrap();
        // resync: replace history with a snapshot stamped at seq 10,
        // while the old Wal still holds its open handle (as a standby's
        // ingest loop does)
        let wal = Wal::reinitialize(&path, &db, 10, FsyncPolicy::Never).unwrap();
        drop(old_wal);
        assert_eq!(wal.segment_count(), 1);
        let lsn = wal
            .append_commit(
                11,
                &[WalOp::Insert {
                    ty: state,
                    tuple: vec![Value::from("after")],
                    id: mad_model::AtomId::new(state, 4),
                }],
            )
            .unwrap();
        wal.wait_durable(lsn).unwrap();
        drop(wal);
        let (_, recovered, info) = Wal::recover(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(info.last_seq, 11);
        assert_eq!(info.commits_replayed, 1);
        assert_eq!(info.segments, 1);
        assert!(recovered.atom_exists(mad_model::AtomId::new(state, 4)));
        // the pre-resync segments are gone
        assert!(!dir.join("mad.wal.0001").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_amortizes_fsyncs_across_threads() {
        let dir = tmpdir("group");
        let path = dir.join("mad.wal");
        let db = small_db();
        let state = db.schema().atom_type_id("state").unwrap();
        let wal = Wal::create(&path, &db, FsyncPolicy::Group).unwrap();
        // seq allocation + append happen under one lock (mirroring the
        // publisher's commit ticket: commit order IS append order);
        // only the durability wait runs concurrently
        let publication = std::sync::Mutex::new(0u64);
        let writers = 8usize;
        let per_writer = 25u64;
        std::thread::scope(|scope| {
            for _ in 0..writers {
                let wal = &wal;
                let publication = &publication;
                scope.spawn(move || {
                    for _ in 0..per_writer {
                        let lsn = {
                            let mut seq = publication.lock().unwrap();
                            *seq += 1;
                            let ops = vec![WalOp::Insert {
                                ty: state,
                                tuple: vec![Value::from(format!("g{seq}"))],
                                id: mad_model::AtomId::new(state, *seq as u32),
                            }];
                            wal.append_commit(*seq, &ops).unwrap()
                        };
                        wal.wait_durable(lsn).unwrap();
                    }
                });
            }
        });
        let commits = writers as u64 * per_writer;
        let fsyncs = wal.fsync_count();
        assert!(
            fsyncs < commits,
            "group commit should need fewer fsyncs than commits ({fsyncs} vs {commits})"
        );
        drop(wal);
        let (_, recovered, info) = Wal::recover(&path, FsyncPolicy::Group).unwrap();
        assert_eq!(info.commits_replayed, commits);
        assert_eq!(recovered.atom_count(state), 1 + commits as usize);
        std::fs::remove_dir_all(&dir).ok();
    }
}
