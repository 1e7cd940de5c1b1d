//! Store lifecycle: append/reopen, segment rotation, torn-tail
//! truncation, checkpoint compaction, and snapshot fallback.

use std::fs;
use std::io;

use stem_core::{Value, VarId};
use stem_persist::{
    failing_factory, ByteBudget, Command, SessionState, Snapshot, Source, Store, StoreOptions,
    SyncPolicy, WalRecord,
};
use stem_testkit::TempDir;

fn batch(session: u64, seq: u64, n: usize) -> WalRecord {
    WalRecord::Batch {
        session,
        seq,
        key: 0,
        commands: (0..n)
            .map(|i| Command::Set {
                var: VarId::from_index(i),
                value: Value::Int(seq as i64 * 100 + i as i64),
                source: Source::User,
            })
            .collect(),
    }
}

#[test]
fn append_then_reopen_replays_in_order() {
    let dir = TempDir::new("roundtrip");
    let records: Vec<_> = (1..=5).map(|q| batch(0, q, 2)).collect();
    {
        let (mut store, rec) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.tail.is_empty());
        for r in &records {
            store.append(r).unwrap();
        }
        let s = store.stats();
        assert_eq!(s.appends, 5);
        assert!(s.bytes > 0);
    }
    let (_, rec) = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(rec.tail, records);
    assert!(!rec.truncated);
}

#[test]
fn rotation_spreads_segments_and_reopen_merges() {
    let dir = TempDir::new("rotate");
    let records: Vec<_> = (1..=40).map(|q| batch(q % 3, q, 3)).collect();
    {
        let opts = StoreOptions {
            segment_bytes: 256,
            ..StoreOptions::default()
        };
        let (mut store, _) = Store::open(&dir, opts).unwrap();
        for r in &records {
            store.append(r).unwrap();
        }
        assert!(store.stats().segments > 3, "tiny threshold must rotate");
    }
    let (_, rec) = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(rec.tail, records);
}

#[test]
fn torn_tail_truncates_to_committed_prefix() {
    let dir = TempDir::new("torn");
    let records: Vec<_> = (1..=4).map(|q| batch(7, q, 2)).collect();
    let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
    for r in &records {
        store.append(r).unwrap();
    }
    drop(store);

    // Tear bytes off the single segment's tail, one at a time; each
    // reopen must yield some prefix of the records, never garbage.
    let seg = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "log"))
        .unwrap();
    let full = fs::read(&seg).unwrap();
    // Byte offsets at which a cut is a clean record boundary, not a tear.
    let mut boundaries = vec![8usize];
    for r in &records {
        boundaries.push(boundaries.last().unwrap() + r.encode_frame().unwrap().len());
    }
    let mut prev_len = usize::MAX;
    for cut in (8..full.len()).rev() {
        fs::write(&seg, &full[..cut]).unwrap();
        let (_, rec) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(
            rec.tail.len() <= prev_len,
            "recovered more after cutting more"
        );
        prev_len = rec.tail.len();
        assert_eq!(rec.tail[..], records[..rec.tail.len()], "prefix property");
        assert_eq!(
            rec.truncated,
            !boundaries.contains(&cut),
            "tear flag wrong at cut {cut}"
        );
        // Each reopen creates a fresh active segment; drop it so the next
        // iteration still finds exactly one interesting segment.
        for extra in fs::read_dir(&dir).unwrap() {
            let p = extra.unwrap().path();
            if p != seg && p.extension().is_some_and(|e| e == "log") {
                fs::remove_file(p).unwrap();
            }
        }
    }
}

#[test]
fn checkpoint_compacts_covered_segments() {
    let dir = TempDir::new("compact");
    let opts = StoreOptions {
        segment_bytes: 128,
        sync: SyncPolicy::Deferred,
        ..StoreOptions::default()
    };
    let (mut store, _) = Store::open(&dir, opts).unwrap();
    for q in 1..=20 {
        store.append(&batch(1, q, 2)).unwrap();
    }
    let covered = store.seal_for_checkpoint().unwrap();
    assert!(!covered.is_empty());

    // Appends racing the checkpoint land in the new active segment.
    store.append(&batch(1, 21, 2)).unwrap();

    let snap = Snapshot {
        next_session: 2,
        closed: vec![],
        sessions: vec![(1, 20, SessionState::default())],
    };
    store.write_snapshot(&snap, &covered).unwrap();
    let s = store.stats();
    assert_eq!(s.snapshots_written, 1);
    assert_eq!(s.bytes_since_checkpoint, 0);
    drop(store);

    let logs = fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "log")
        })
        .count();
    assert!(logs <= 2, "covered segments deleted, found {logs}");

    let (_, rec) = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(rec.snapshot, Some(snap));
    assert_eq!(rec.tail, vec![batch(1, 21, 2)], "only the uncovered record");
}

#[test]
fn corrupt_newest_snapshot_falls_back_to_prior() {
    let dir = TempDir::new("snapfall");
    let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
    let older = Snapshot {
        next_session: 1,
        ..Snapshot::default()
    };
    let newer = Snapshot {
        next_session: 9,
        ..Snapshot::default()
    };
    store.write_snapshot(&older, &[]).unwrap();
    store.write_snapshot(&newer, &[]).unwrap();
    drop(store);

    // write_snapshot retires older snapshot files; re-create the older one
    // by hand, then corrupt the newest.
    fs::write(dir.join("snap-00000000.snap"), older.encode_file().unwrap()).unwrap();
    let newest = dir.join("snap-00000001.snap");
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(&newest, bytes).unwrap();

    let (_, rec) = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(rec.snapshot, Some(older), "fell back past the corrupt file");
    assert!(rec.truncated, "corruption was noticed");
}

/// The crash→recover→append→reopen sequence: a torn tail left by crash
/// #1 must be repaired at the first reopen, so records acknowledged
/// *after* that recovery (which land in a later segment) survive every
/// subsequent open instead of being dropped when the scan re-hits the
/// tear.
#[test]
fn torn_tail_is_repaired_and_later_appends_survive_reopen() {
    let dir = TempDir::new("repair");
    let records: Vec<_> = (1..=3).map(|q| batch(5, q, 2)).collect();
    {
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        for r in &records {
            store.append(r).unwrap();
        }
    }
    // Crash #1: tear into the last record of the first segment.
    let seg = dir.join("wal-00000000.log");
    let full = fs::read(&seg).unwrap();
    fs::write(&seg, &full[..full.len() - 3]).unwrap();

    {
        let (mut store, rec) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(rec.tail, records[..2], "pre-tear prefix recovered");
        assert!(rec.truncated);
        // The post-recovery generation commits new acknowledged data; it
        // lands in a later segment than the (now repaired) torn one.
        store.append(&batch(5, 3, 1)).unwrap();
    }
    let (_, rec) = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(
        rec.tail,
        vec![records[0].clone(), records[1].clone(), batch(5, 3, 1)],
        "acked post-recovery record must not be shadowed by the old tear"
    );
    assert!(!rec.truncated, "the tear was repaired at the previous open");
}

/// A segment whose header is corrupt is quarantined aside; segments after
/// it still replay, and later opens neither re-report the damage nor
/// reuse the quarantined index.
#[test]
fn bad_magic_segment_is_quarantined_not_a_barrier() {
    let dir = TempDir::new("quarantine");
    let records: Vec<_> = (1..=3).map(|q| batch(2, q, 2)).collect();
    {
        // segment_bytes: 1 rotates after every append → one record per
        // sealed segment.
        let opts = StoreOptions {
            segment_bytes: 1,
            ..StoreOptions::default()
        };
        let (mut store, _) = Store::open(&dir, opts).unwrap();
        for r in &records {
            store.append(r).unwrap();
        }
    }
    let mid = dir.join("wal-00000001.log");
    let mut bytes = fs::read(&mid).unwrap();
    bytes[0] ^= 0xFF;
    fs::write(&mid, bytes).unwrap();

    let (_, rec) = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(
        rec.tail,
        vec![records[0].clone(), records[2].clone()],
        "records on both sides of the bad segment recovered"
    );
    assert!(rec.truncated);
    assert!(dir.join("wal-00000001.log.corrupt").exists());

    let (_, rec) = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(rec.tail, vec![records[0].clone(), records[2].clone()]);
    assert!(!rec.truncated, "quarantine is judged once, not per open");
}

/// Once a record's frame is written and fsynced it is committed; a
/// rotation failure right after must not surface as an append error,
/// because the record replays on recovery and the caller would otherwise
/// report an un-failed batch as failed.
#[test]
fn append_commits_even_when_rotation_fails() {
    let dir = TempDir::new("rotfail");
    let frame_len = batch(1, 1, 2).encode_frame().unwrap().len() as u64;
    // Enough for the open's segment magic (8) plus one full frame plus one
    // spare byte (keeps the post-frame fsync alive); the successor's magic
    // write then dies mid-rotation.
    let budget = ByteBudget::new(8 + frame_len + 1);
    {
        let opts = StoreOptions {
            segment_bytes: 1,
            sync: SyncPolicy::Always,
            file_factory: failing_factory(budget),
        };
        let (mut store, _) = Store::open(&dir, opts).unwrap();
        store
            .append(&batch(1, 1, 2))
            .expect("committed record: rotation failure must stay internal");
        store
            .append(&batch(1, 2, 2))
            .expect_err("budget exhausted: this record never hit the disk");
    }
    let (_, rec) = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(rec.tail, vec![batch(1, 1, 2)], "exactly the acked record");
    assert!(!rec.truncated, "stillborn successor was cleaned up");
}

/// Two live processes must not share a store directory: the second open
/// fails fast instead of clobbering the first writer's active segment.
#[test]
fn second_open_is_locked_out() {
    let dir = TempDir::new("lock");
    let (store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
    let err = Store::open(&dir, StoreOptions::default())
        .err()
        .expect("second opener must be refused");
    assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    drop(store);
    Store::open(&dir, StoreOptions::default()).expect("lock released with its holder");
}

#[test]
fn close_records_round_trip() {
    let dir = TempDir::new("close");
    {
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.append(&batch(3, 1, 1)).unwrap();
        store
            .append(&WalRecord::Close { session: 3, seq: 2 })
            .unwrap();
    }
    let (_, rec) = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(rec.tail.len(), 2);
    assert_eq!(rec.tail[1], WalRecord::Close { session: 3, seq: 2 });
}

/// The lease fence: once the cluster epoch moves past this store's
/// granted epoch, appends and snapshot writes are refused *before*
/// anything touches the log — the deposed writer's record never lands,
/// so it is rolled back and never acknowledged.
#[test]
fn fenced_store_refuses_appends_and_snapshots() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let dir = TempDir::new("fence");
    let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
    let epoch = Arc::new(AtomicU64::new(1));
    store.set_fence(1, Arc::clone(&epoch));

    // At its own epoch the store behaves normally.
    store.append(&batch(0, 1, 1)).unwrap();

    // Deposed: a newer lease exists somewhere else.
    epoch.store(2, Ordering::SeqCst);
    let err = store.append(&batch(0, 2, 1)).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    let err = store.write_snapshot(&Snapshot::default(), &[]).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    drop(store);

    // Only the pre-fence record survives on disk.
    let (_, rec) = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(rec.tail.len(), 1);
    assert_eq!(rec.tail[0].seq(), 1);
}

/// Lease epochs persist and count up across grants, so a restarted
/// coordinator can never hand out an epoch a fenced store already saw.
#[test]
fn lease_epochs_are_monotonic_on_disk() {
    let dir = TempDir::new("lease");
    fs::create_dir_all(&dir).unwrap();
    assert_eq!(stem_persist::Lease::load(&dir).unwrap(), None);
    let a = stem_persist::Lease::advance(&dir, 7).unwrap();
    let b = stem_persist::Lease::advance(&dir, 8).unwrap();
    assert!(b.epoch > a.epoch);
    assert_eq!(stem_persist::Lease::load(&dir).unwrap(), Some(b));
}
