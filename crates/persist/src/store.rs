//! The on-disk store: a directory of WAL segments plus snapshot files.
//!
//! ```text
//! <dir>/wal-00000000.log    sealed segment (header magic + frames)
//! <dir>/wal-00000001.log    … more sealed segments …
//! <dir>/wal-00000002.log    active segment (single writer appends)
//! <dir>/snap-00000000.snap  checkpoint files; highest valid one wins
//! ```
//!
//! ## Lifecycle
//!
//! Appends go to the active segment; once it passes the rotation
//! threshold it is synced, sealed, and a fresh segment is opened. A
//! checkpoint seals the active segment first ([`Store::seal_for_checkpoint`]),
//! so every record written before the checkpoint's state gather lives in a
//! sealed segment; after the snapshot file is durably in place
//! ([`Store::write_snapshot`]) exactly those segments are deleted. Records
//! appended *during* the gather land in the new active segment and remain
//! — they are deduplicated at replay by the per-session sequence numbers,
//! never by file bookkeeping.
//!
//! ## Recovery
//!
//! [`Store::open`] picks the newest snapshot that passes its checksum,
//! then scans the remaining segments in order. Within one segment the
//! scan stops at the first invalid frame (crash-only fault model: bytes
//! past a torn frame in a file are garbage from the same interrupted
//! write) — but the scan then *continues with the next segment*. A torn
//! tail in segment `k` only proves the writer died while appending to
//! `k`; any `k+1` on disk was created by a *later* process generation
//! that already recovered the pre-tear prefix, so its records are
//! acknowledged data that must not be dropped. Each torn segment is also
//! repaired in place at open (truncated to its checksum-valid prefix and
//! fsynced), and a segment whose header never made it to disk is renamed
//! aside, so the damage is dealt with once instead of being re-judged on
//! every open. New appends always go to a fresh segment, so a truncated
//! tail is abandoned, never overwritten.
//!
//! ## Single writer
//!
//! The store directory is guarded by an advisory `LOCK` file held (via
//! `File::try_lock`) for the store's lifetime. A second process opening
//! the same directory fails fast instead of computing the same fresh
//! active-segment index and clobbering the first writer's segment; the
//! OS drops the lock when the holder exits, so a crash never wedges the
//! store.

use std::collections::BTreeSet;
use std::fs;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::record::{scan_frame, FrameScan, WalRecord};
use crate::snapshot::Snapshot;

/// Magic prefix of a WAL segment file (8 bytes, version included).
pub const SEGMENT_MAGIC: &[u8; 8] = b"STEMWAL1";

/// Deferred-mode appends accumulate in memory and hit the file in runs of
/// this size (or at the next `sync`/rotation), so the per-commit cost of
/// interval-sync durability is a memcpy rather than a `write` syscall.
const WRITE_BUF_FLUSH: usize = 128 << 10;

/// Advisory lock file guarding the store directory against a second
/// concurrent writer process.
const LOCK_FILE: &str = "LOCK";

/// Minimal file abstraction the store writes through — real files in
/// production, [`FailingFile`](crate::fault::FailingFile) under fault
/// injection. Reads always go through the real filesystem: the fault
/// model is torn *writes*, and recovery must see exactly what a write
/// left behind.
pub trait StoreFile: Write + Send {
    /// Durably flushes written bytes (fsync / `fdatasync`).
    fn sync(&mut self) -> io::Result<()>;

    /// Cuts the file back to `len` bytes and moves the write position
    /// there: drops the tail a failed write or sync left behind.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

impl StoreFile for fs::File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)?;
        self.seek(SeekFrom::Start(len)).map(drop)
    }
}

/// Opens (create + truncate) a writable store file at `path`.
pub type FileFactory = Box<dyn Fn(&Path) -> io::Result<Box<dyn StoreFile>> + Send>;

fn real_files() -> FileFactory {
    Box::new(|path| {
        let f = fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path)?;
        Ok(Box::new(f) as Box<dyn StoreFile>)
    })
}

/// When appended records are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync inside every [`Store::append`] — nothing acknowledged is ever
    /// lost, at ~one disk flush per commit.
    #[default]
    Always,
    /// Never fsync from `append`; the owner calls [`Store::sync`] on its
    /// own schedule (the engine's interval-sync mode). A crash loses at
    /// most one interval of acknowledged commits — but never tears a
    /// committed prefix, since the kernel writes the log back in order of
    /// the page cache, and recovery truncates at the first bad record
    /// regardless.
    Deferred,
}

/// Store construction knobs.
pub struct StoreOptions {
    /// Active-segment size that triggers rotation.
    pub segment_bytes: u64,
    /// fsync policy for appends.
    pub sync: SyncPolicy,
    /// File opener — swap in a failing one for fault injection.
    pub file_factory: FileFactory,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            segment_bytes: 1 << 20,
            sync: SyncPolicy::Always,
            file_factory: real_files(),
        }
    }
}

/// Counters the engine surfaces through `Engine::stats()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Records appended over this store's lifetime (excludes recovery).
    pub appends: u64,
    /// Frame bytes appended.
    pub bytes: u64,
    /// Snapshot files durably written.
    pub snapshots_written: u64,
    /// Log bytes appended since the last snapshot (checkpoint trigger).
    pub bytes_since_checkpoint: u64,
    /// Segment files currently on disk (sealed + active).
    pub segments: u64,
}

/// What [`Store::open`] found on disk.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Newest checksum-valid snapshot, if any.
    pub snapshot: Option<Snapshot>,
    /// Valid log records after (and not covered by) the snapshot, in
    /// append order. Per-session sequence filtering is the caller's job.
    pub tail: Vec<WalRecord>,
    /// Whether a torn/corrupt frame was dropped during the scan (the
    /// damaged segment was also repaired or quarantined on disk, so the
    /// flag does not reappear on later opens).
    pub truncated: bool,
}

/// A directory-backed segmented WAL + snapshot store. Single writer; the
/// engine serialises access behind a mutex, and the directory's `LOCK`
/// file (held for the store's lifetime) excludes other processes.
pub struct Store {
    dir: PathBuf,
    opts: StoreOptions,
    file: Box<dyn StoreFile>,
    seg_index: u64,
    seg_bytes: u64,
    sealed: Vec<u64>,
    next_snap: u64,
    dirty: bool,
    /// Deferred-mode write buffer for the active segment; always empty
    /// under [`SyncPolicy::Always`] and after any `sync`/rotation.
    buf: Vec<u8>,
    /// Active-segment length at its last successful sync: the bytes no
    /// later failure can take away.
    synced_len: u64,
    /// Records appended (counting from 1) when the last sync succeeded.
    synced: u64,
    /// Set by a failed write or sync: the active segment may hold bytes
    /// of discarded records past `synced_len`, so nothing is written
    /// until [`Store::cut_torn_tail`] has cut them away.
    torn: bool,
    /// `(lo, hi]` ranges of appended records that a failed write or sync
    /// discarded, oldest first (see [`Store::voided`]).
    voided: Vec<(u64, u64)>,
    stats: StoreStats,
    /// Lease fence: `(my_epoch, cluster_epoch)`. When the shared cluster
    /// epoch moves past this store's granted epoch, appends and snapshot
    /// writes are refused ([`Store::set_fence`]).
    fence: Option<(u64, Arc<AtomicU64>)>,
    /// Holds the directory's advisory lock; released on drop (or crash).
    _lock: fs::File,
}

fn parse_index(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

fn seg_path(dir: &Path, idx: u64) -> PathBuf {
    dir.join(format!("wal-{idx:08}.log"))
}

fn snap_path(dir: &Path, idx: u64) -> PathBuf {
    dir.join(format!("snap-{idx:08}.snap"))
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    // Make renames/creates durable. Directory fsync is a Unix notion;
    // if the platform refuses, the data files themselves are still synced.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Acquires the store directory's advisory lock, failing fast if another
/// live process holds it. The lock file stays empty; only the OS lock on
/// it matters, and the OS releases that when the holder exits, so a
/// crashed process never wedges the store.
fn acquire_lock(dir: &Path) -> io::Result<fs::File> {
    let lock = fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(dir.join(LOCK_FILE))?;
    lock.try_lock().map_err(|err| match err {
        fs::TryLockError::Error(e) => e,
        fs::TryLockError::WouldBlock => io::Error::new(
            io::ErrorKind::WouldBlock,
            format!("store at {} is locked by another process", dir.display()),
        ),
    })?;
    Ok(lock)
}

/// Truncates a torn segment to its checksum-valid prefix, durably.
/// `set_len` is a metadata operation: a crash mid-repair cannot tear the
/// surviving records the way rewriting the file could.
fn repair_segment(path: &Path, keep: u64) -> io::Result<()> {
    let f = fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(keep)?;
    f.sync_all()?;
    Ok(())
}

/// Retires a segment whose header never made it to disk: an empty file
/// (crash between create and magic write) is deleted, anything else is
/// renamed out of the `wal-*.log` namespace so later opens ignore it
/// without re-judging the corruption.
fn quarantine_segment(path: &Path, empty: bool) -> io::Result<()> {
    if empty {
        fs::remove_file(path)
    } else {
        fs::rename(path, path.with_extension("log.corrupt"))
    }
}

impl Store {
    /// Opens (creating if needed) the store at `dir`, returning the store
    /// positioned for appends plus everything recovered from disk.
    pub fn open(dir: impl Into<PathBuf>, opts: StoreOptions) -> io::Result<(Store, Recovered)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let lock = acquire_lock(&dir)?;

        let mut seg_indexes = BTreeSet::new();
        let mut snap_indexes = BTreeSet::new();
        // Indexes burnt by quarantined (`.log.corrupt`) segments: never
        // reused, so a fresh segment cannot collide with a quarantined
        // name and the on-disk append order stays the index order.
        let mut burnt = 0u64;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                // Leftover from a crash mid-snapshot: never renamed into
                // place, so it was never the truth. Discard.
                let _ = fs::remove_file(entry.path());
            } else if let Some(i) = parse_index(name, "wal-", ".log") {
                seg_indexes.insert(i);
            } else if let Some(i) = parse_index(name, "wal-", ".log.corrupt") {
                burnt = burnt.max(i + 1);
            } else if let Some(i) = parse_index(name, "snap-", ".snap") {
                snap_indexes.insert(i);
            }
        }

        let mut recovered = Recovered::default();
        for &i in snap_indexes.iter().rev() {
            if let Ok(bytes) = fs::read(snap_path(&dir, i)) {
                if let Some(snap) = Snapshot::decode_file(&bytes) {
                    recovered.snapshot = Some(snap);
                    break;
                }
                recovered.truncated = true;
            }
        }

        // Scan every segment in index (= append) order. A bad frame ends
        // that *segment* — frame lengths chain, so resynchronising inside
        // a file is impossible — but never the scan: later segments were
        // written by later process generations on top of the recovered
        // prefix and hold acknowledged records. Damaged segments are
        // repaired (or quarantined) here, once, so the fault is not
        // re-judged on every open.
        let mut live_indexes = BTreeSet::new();
        for &i in &seg_indexes {
            let path = seg_path(&dir, i);
            let bytes = fs::read(&path)?;
            let Some(mut rest) = bytes.strip_prefix(SEGMENT_MAGIC.as_slice()) else {
                recovered.truncated |= !bytes.is_empty();
                quarantine_segment(&path, bytes.is_empty())?;
                continue;
            };
            live_indexes.insert(i);
            let mut valid = SEGMENT_MAGIC.len() as u64;
            loop {
                match scan_frame(rest) {
                    FrameScan::Ok { payload, rest: r } => {
                        match WalRecord::decode_payload(payload) {
                            Ok(rec) => {
                                recovered.tail.push(rec);
                                valid += 8 + payload.len() as u64;
                                rest = r;
                            }
                            Err(_) => {
                                recovered.truncated = true;
                                repair_segment(&path, valid)?;
                                break;
                            }
                        }
                    }
                    FrameScan::End => {
                        if !rest.is_empty() {
                            recovered.truncated = true;
                            repair_segment(&path, valid)?;
                        }
                        break;
                    }
                }
            }
        }

        // Appends never touch an existing segment: a fresh one both avoids
        // writing after a torn tail and keeps sealed files immutable.
        let seg_index = seg_indexes
            .iter()
            .next_back()
            .map_or(0, |i| i + 1)
            .max(burnt);
        let seg_indexes = live_indexes;
        let mut file = (opts.file_factory)(&seg_path(&dir, seg_index))?;
        file.write_all(SEGMENT_MAGIC)?;
        file.sync()?;
        sync_dir(&dir)?;

        let sealed: Vec<u64> = seg_indexes.into_iter().collect();
        let stats = StoreStats {
            segments: sealed.len() as u64 + 1,
            ..StoreStats::default()
        };
        let store = Store {
            next_snap: snap_indexes.iter().next_back().map_or(0, |i| i + 1),
            dir,
            opts,
            file,
            seg_index,
            seg_bytes: SEGMENT_MAGIC.len() as u64,
            sealed,
            dirty: false,
            buf: Vec::new(),
            synced_len: SEGMENT_MAGIC.len() as u64,
            synced: 0,
            torn: false,
            voided: Vec::new(),
            stats,
            fence: None,
            _lock: lock,
        };
        Ok((store, recovered))
    }

    /// Arms the lease fence: this store was granted `epoch`, and `current`
    /// is the cluster's live epoch cell (bumped by the coordinator when it
    /// re-grants the lease to someone else). Once `current` exceeds
    /// `epoch`, [`Store::append`] and [`Store::write_snapshot`] refuse
    /// with [`io::ErrorKind::PermissionDenied`] — the record is *not*
    /// logged, so the owning engine rolls the batch back and never acks
    /// it. That is the whole fencing contract: a deposed leader's late
    /// write can fail, but it can never silently land in a log the new
    /// leader has already caught up from.
    pub fn set_fence(&mut self, epoch: u64, current: Arc<AtomicU64>) {
        self.fence = Some((epoch, current));
    }

    /// Returns an error if the lease fence has been overtaken.
    fn check_fence(&self) -> io::Result<()> {
        if let Some((mine, current)) = &self.fence {
            let now = current.load(Ordering::SeqCst);
            if now > *mine {
                return Err(io::Error::new(
                    io::ErrorKind::PermissionDenied,
                    format!("append fenced: lease epoch {mine} superseded by {now}"),
                ));
            }
        }
        Ok(())
    }

    /// Appends one record, fsyncing per policy. Returns the frame size in
    /// bytes. On error the record must be treated as *not logged*: the
    /// caller rolls the batch back and refuses to ack. Conversely, `Ok`
    /// means the record is committed (and, under [`SyncPolicy::Always`],
    /// durable) — segment rotation happens *after* that commit point and
    /// its failure is deliberately not surfaced here: the record is
    /// already in the log and would replay on recovery, so reporting the
    /// batch as failed would be a lie. A failed rotation simply leaves
    /// the current segment active (oversized) and is retried when the
    /// next append crosses the threshold again.
    ///
    /// A failed write or sync discards every record appended since the
    /// last successful sync, and the next append or sync first cuts their
    /// bytes from the segment. So a record whose writer was told it failed
    /// can never replay ahead of a later one that reuses its sequence
    /// number.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<usize> {
        self.check_fence()?;
        self.cut_torn_tail()?;
        let frame = rec.encode_frame()?;
        match self.opts.sync {
            SyncPolicy::Always => {
                if let Err(err) = self.file.write_all(&frame) {
                    self.void_unsynced();
                    return Err(err);
                }
            }
            SyncPolicy::Deferred => {
                // Buffer the frame; it reaches the file at the next flush
                // threshold, explicit `sync`, rotation, or drop. The loss
                // window is the same one Deferred already grants (un-synced
                // page cache), just extended into user space.
                self.buf.extend_from_slice(&frame);
            }
        }
        self.dirty = true;
        self.seg_bytes += frame.len() as u64;
        self.stats.appends += 1;
        self.stats.bytes += frame.len() as u64;
        self.stats.bytes_since_checkpoint += frame.len() as u64;
        if self.opts.sync == SyncPolicy::Always {
            self.sync()?;
        } else if self.buf.len() >= WRITE_BUF_FLUSH {
            self.flush_buf()?;
        }
        if self.seg_bytes >= self.opts.segment_bytes {
            let _ = self.rotate();
        }
        Ok(frame.len())
    }

    /// Writes the deferred-mode buffer through to the active segment file.
    /// A failed write discards the unsynced records like a failed sync.
    fn flush_buf(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            if let Err(err) = self.file.write_all(&self.buf) {
                self.void_unsynced();
                return Err(err);
            }
            self.buf.clear();
        }
        Ok(())
    }

    /// Durably flushes any unsynced appends (interval-sync driver).
    pub fn sync(&mut self) -> io::Result<()> {
        self.cut_torn_tail()?;
        self.flush_buf()?;
        if self.dirty {
            if let Err(err) = self.file.sync() {
                self.void_unsynced();
                return Err(err);
            }
            self.dirty = false;
        }
        self.synced = self.stats.appends;
        self.synced_len = self.seg_bytes;
        Ok(())
    }

    /// Discards every record appended since the last successful sync:
    /// after a failed write or sync some of their bytes may be in the file
    /// and some not, so none of them may count as logged. Records the
    /// range in [`Store::voided`] and leaves the tail for
    /// [`Store::cut_torn_tail`].
    fn void_unsynced(&mut self) {
        let lo = self
            .voided
            .last()
            .map_or(self.synced, |&(_, hi)| hi.max(self.synced));
        if self.stats.appends > lo {
            self.voided.push((lo, self.stats.appends));
        }
        self.buf.clear();
        self.dirty = false;
        self.torn = true;
    }

    /// After a failed write or sync, cuts the active segment back to its
    /// last synced length and syncs the cut, so discarded records cannot
    /// replay. Until that succeeds, every append and sync fails.
    fn cut_torn_tail(&mut self) -> io::Result<()> {
        if self.torn {
            self.file.truncate(self.synced_len)?;
            self.file.sync()?;
            self.seg_bytes = self.synced_len;
            self.torn = false;
        }
        Ok(())
    }

    /// Record ranges `(lo, hi]` — counting appends from 1, as
    /// [`StoreStats::appends`] does — that a failed write or sync
    /// discarded, oldest first. A record in none of them and at or below
    /// [`Store::synced`] is durable. Only a failure adds a range.
    pub(crate) fn voided(&self) -> &[(u64, u64)] {
        &self.voided
    }

    /// The append count when a sync last succeeded, whoever ran it (an
    /// explicit sync, a rotation, a checkpoint's seal).
    pub(crate) fn synced(&self) -> u64 {
        self.synced
    }

    /// Seals the active segment and opens its successor. The successor is
    /// brought fully up (opened, magic written) *before* any store state
    /// changes: a failure leaves the store exactly as it was, still
    /// appending to the current segment, and in particular never leaves
    /// the active segment's index in `sealed` where a checkpoint could
    /// delete it out from under the writer.
    fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        let next = self.seg_index + 1;
        let path = seg_path(&self.dir, next);
        let result = (self.opts.file_factory)(&path).and_then(|mut file| {
            file.write_all(SEGMENT_MAGIC)?;
            Ok(file)
        });
        let file = match result {
            Ok(file) => file,
            Err(err) => {
                // Drop the stillborn successor so a later open does not
                // find a headerless segment to quarantine.
                let _ = fs::remove_file(&path);
                return Err(err);
            }
        };
        self.sealed.push(self.seg_index);
        self.seg_index = next;
        self.file = file;
        self.dirty = true;
        self.seg_bytes = SEGMENT_MAGIC.len() as u64;
        self.synced_len = self.seg_bytes;
        self.stats.segments += 1;
        Ok(())
    }

    /// Seals the active segment (if it holds any records) and returns every
    /// sealed segment index. Call *before* gathering checkpoint state:
    /// all records already appended are then in sealed segments, so the
    /// gathered state covers them, and only them may be deleted once the
    /// snapshot lands ([`Store::write_snapshot`]).
    pub fn seal_for_checkpoint(&mut self) -> io::Result<Vec<u64>> {
        if self.seg_bytes > SEGMENT_MAGIC.len() as u64 {
            self.rotate()?;
        }
        Ok(self.sealed.clone())
    }

    /// Durably writes `snap` (tmp + fsync + rename + dir fsync), then
    /// retires the `covered` segments and all older snapshot files. A
    /// crash before the rename leaves the previous snapshot authoritative;
    /// a crash after it can only lose files the snapshot supersedes.
    ///
    /// Returns whether every covered segment is gone from disk — callers
    /// that retire bookkeeping tied to those segments (the engine's
    /// closed-session ids) must see `true` before forgetting anything.
    pub fn write_snapshot(&mut self, snap: &Snapshot, covered: &[u64]) -> io::Result<bool> {
        self.check_fence()?;
        let image = snap.encode_file()?;
        let idx = self.next_snap;
        let final_path = snap_path(&self.dir, idx);
        let tmp_path = final_path.with_extension("snap.tmp");
        {
            let mut f = (self.opts.file_factory)(&tmp_path)?;
            f.write_all(&image)?;
            f.sync()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        sync_dir(&self.dir)?;
        self.next_snap = idx + 1;
        self.stats.snapshots_written += 1;
        self.stats.bytes_since_checkpoint = 0;

        for old in 0..idx {
            let _ = fs::remove_file(snap_path(&self.dir, old));
        }
        let mut all_removed = true;
        for &seg in covered {
            let gone = match fs::remove_file(seg_path(&self.dir, seg)) {
                Ok(()) => true,
                Err(err) => err.kind() == io::ErrorKind::NotFound,
            };
            if gone {
                self.sealed.retain(|&s| s != seg);
                self.stats.segments = self.stats.segments.saturating_sub(1);
            } else {
                all_removed = false;
            }
        }
        sync_dir(&self.dir)?;
        Ok(all_removed)
    }

    /// Running counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sealed segment indexes currently on disk, in append order. These
    /// are the shippable units: sealed files are immutable and were fully
    /// synced by the rotation that sealed them.
    pub fn sealed_segments(&self) -> Vec<u64> {
        self.sealed.clone()
    }

    /// Reads the raw bytes of a *sealed* segment for shipping to a
    /// replica. The active segment is refused: it is still being appended
    /// to (and under deferred sync some of it may only exist in memory),
    /// so its bytes are not yet a stable replication unit.
    pub fn read_segment(&self, index: u64) -> io::Result<Vec<u8>> {
        if index == self.seg_index {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("segment {index} is active; seal it before shipping"),
            ));
        }
        fs::read(seg_path(&self.dir, index))
    }

    /// Raw bytes of the newest snapshot file, if one exists — the bulk
    /// bootstrap a replica ingests before replaying shipped segments.
    pub fn latest_snapshot_bytes(&self) -> io::Result<Option<Vec<u8>>> {
        if self.next_snap == 0 {
            return Ok(None);
        }
        match fs::read(snap_path(&self.dir, self.next_snap - 1)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(err) => Err(err),
        }
    }
}

impl Drop for Store {
    /// Flush (without fsync) so records buffered under deferred sync are
    /// visible to a clean-process reopen — dropping a store has always
    /// meant "the process survived", and the crash fault model is
    /// exercised by abandoning the directory, not by dropping.
    fn drop(&mut self) {
        let _ = self.flush_buf();
    }
}

/// Decodes a shipped segment image (as returned by [`Store::read_segment`])
/// into its records. Unlike crash recovery — which tolerates a torn tail
/// because the writer may have died mid-append — a shipped segment was
/// sealed and fully synced before it ever left the leader, so *anything*
/// short of a perfect decode (bad magic, torn frame, trailing garbage,
/// undecodable payload) is transport or software corruption and is
/// reported as an error rather than silently truncated.
pub fn decode_segment(bytes: &[u8]) -> io::Result<Vec<WalRecord>> {
    let corrupt = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let Some(mut rest) = bytes.strip_prefix(SEGMENT_MAGIC.as_slice()) else {
        return Err(corrupt("shipped segment missing STEMWAL1 header"));
    };
    let mut records = Vec::new();
    loop {
        match scan_frame(rest) {
            FrameScan::Ok { payload, rest: r } => {
                let rec = WalRecord::decode_payload(payload)
                    .map_err(|e| corrupt(&format!("shipped segment payload: {e}")))?;
                records.push(rec);
                rest = r;
            }
            FrameScan::End => {
                if !rest.is_empty() {
                    return Err(corrupt("shipped segment has a torn or corrupt frame"));
                }
                return Ok(records);
            }
        }
    }
}
