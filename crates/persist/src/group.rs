//! Group commit: one fsync covers many commits.
//!
//! Commit-sync durability pays ~one disk flush per batch, which caps an
//! engine at fsync rate. The coordinator here keeps the durability
//! contract (an acknowledged batch is on disk) while sharing flushes. It
//! splits a commit in two:
//!
//! - [`GroupCommit::append`] puts the record in the store under the store
//!   lock and hands back its *sync epoch* (the count of records appended
//!   so far, itself included).
//! - [`GroupCommit::wait`] returns once a flush has covered that epoch.
//!   The first waiter to find no flush in progress elects itself leader,
//!   re-takes the store lock, and issues a single fsync that makes every
//!   record appended so far durable at once; everyone whose epoch the
//!   flush covered is released together. Waiters that arrive while a
//!   flush is in flight simply wait — the next leader's flush includes
//!   their records, so nobody ever waits for more than two flushes.
//!
//! Flushes are shared two ways. Across threads: engine workers waiting at
//! the same time ride one leader's fsync. Within a thread: an engine
//! worker drains its queue, runs and appends every ready batch — a
//! session's later batch runs stacked on its earlier, still undurable one
//! (its record's `after` names that one's epoch) — and then waits on
//! their epochs: the first wait's flush covers the whole group.
//!
//! ## Ordering argument
//!
//! Epochs are the store's append count, read under the store lock right
//! after the append. The leader syncs while *itself* holding the store
//! lock, so every record counted before the `Store::sync` (which flushes
//! the write buffer first) is covered by it, and epochs grow with append
//! order.
//!
//! ## Failure
//!
//! A failed write or sync discards every record appended since the last
//! good sync, and the store cuts their bytes off the log before it writes
//! again, so none of them can replay ahead of a
//! later record that reuses its sequence number. The leader publishes the
//! store's synced count and discarded ranges after every flush, so
//! `wait` answers each epoch exactly: a discarded epoch errors even if a
//! later flush has succeeded since. The engine rolls back every batch
//! whose record was discarded, with every batch stacked on it, and acks
//! none of them — the same semantics as a failed inline fsync under
//! commit-sync. Only a crash before the cut leaves such records in the
//! log, which is why recovery may find a batch whose client was told it
//! failed, never the reverse.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::record::WalRecord;
use crate::store::Store;

#[derive(Default)]
struct GcState {
    /// Highest epoch made durable by a completed flush (unless voided).
    synced: u64,
    /// The store's voided epoch ranges ([`Store::voided`]) as of the last
    /// flush: those commits error out even once `synced` passes them.
    voided: Vec<(u64, u64)>,
    /// Message of the most recent flush failure.
    failed_msg: String,
    /// Whether a committer is currently driving a flush.
    leader: bool,
}

/// Shared-fsync commit coordinator wrapped around the engine's store.
pub struct GroupCommit {
    store: Arc<Mutex<Store>>,
    state: Mutex<GcState>,
    cv: Condvar,
    syncs: AtomicU64,
    commits: AtomicU64,
}

impl GroupCommit {
    /// Wraps `store` (which should be opened with
    /// [`SyncPolicy::Deferred`](crate::store::SyncPolicy::Deferred) so the
    /// coordinator owns all fsyncs).
    pub fn new(store: Arc<Mutex<Store>>) -> GroupCommit {
        GroupCommit {
            store,
            state: Mutex::new(GcState::default()),
            cv: Condvar::new(),
            syncs: AtomicU64::new(0),
            commits: AtomicU64::new(0),
        }
    }

    /// The wrapped store, for non-commit paths (checkpoints, shipping).
    pub fn store(&self) -> &Arc<Mutex<Store>> {
        &self.store
    }

    /// Appends `rec` under the store lock and returns its frame size in
    /// bytes (like [`Store::append`]) and its *sync epoch*: the store's
    /// append count, itself included. The record is in the log but not
    /// yet durable: it is acknowledgeable only once [`GroupCommit::wait`]
    /// on its epoch has returned `Ok`. An `Err` here means the record is
    /// not logged.
    ///
    /// `after` is the epoch of an unsettled record `rec` builds on (0 for
    /// none): once a failure has discarded that record, `rec` is refused.
    /// Checked under the store lock, where every discard happens, so a
    /// chain of dependent records is always discarded from some point on,
    /// never with a hole.
    pub fn append(&self, rec: &WalRecord, after: u64) -> io::Result<(usize, u64)> {
        let mut store = self.store.lock().unwrap();
        if voided(store.voided(), after) {
            return Err(io::Error::other(
                "group commit: an earlier record of this chain was discarded",
            ));
        }
        let n = store.append(rec)?;
        self.commits.fetch_add(1, Ordering::Relaxed);
        Ok((n, store.stats().appends))
    }

    /// Returns once a flush has made every record up to `epoch` durable,
    /// leading that flush if none is in progress; errors if a failed write
    /// or sync discarded `epoch`'s record. One call on the newest of
    /// several epochs settles all of them: a flush covers everything
    /// appended before it, and a failure discards every record since the
    /// last good flush.
    pub fn wait(&self, epoch: u64) -> io::Result<()> {
        let mut g = self.state.lock().unwrap();
        loop {
            if voided(&g.voided, epoch) {
                return Err(io::Error::other(format!(
                    "group commit flush failed: {}",
                    g.failed_msg
                )));
            }
            if g.synced >= epoch {
                return Ok(());
            }
            if !g.leader {
                g.leader = true;
                drop(g);
                let mut store = self.store.lock().unwrap();
                let result = store.sync();
                g = self.state.lock().unwrap();
                // Publish the store's verdicts under its lock, so no later
                // failure can slip between the sync and the copy. They
                // also cover syncs and failures outside any flush (a
                // rotation, a checkpoint's seal): after this every record
                // appended so far is either synced or voided.
                g.synced = store.synced();
                let known = g.voided.len();
                g.voided.extend_from_slice(&store.voided()[known..]);
                drop(store);
                g.leader = false;
                match result {
                    Ok(()) => {
                        self.syncs.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(err) => g.failed_msg = err.to_string(),
                }
                self.cv.notify_all();
            } else {
                g = self.cv.wait(g).unwrap();
            }
        }
    }

    /// Completed group flushes (each one covered ≥1 commit).
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Records appended through the coordinator.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }
}

/// Whether one of the `(lo, hi]` ranges holds `epoch` (never epoch 0).
fn voided(ranges: &[(u64, u64)], epoch: u64) -> bool {
    ranges.iter().any(|&(lo, hi)| lo < epoch && epoch <= hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{StoreOptions, SyncPolicy};
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::thread;
    use stem_testkit::TempDir;

    fn open_deferred(dir: &std::path::Path) -> Store {
        let (store, _) = Store::open(
            dir,
            StoreOptions {
                sync: SyncPolicy::Deferred,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        store
    }

    fn rec(session: u64, seq: u64) -> WalRecord {
        WalRecord::Batch {
            session,
            seq,
            key: 0,
            commands: vec![crate::command::Command::SetValueChangeLimit { limit: seq as u32 }],
        }
    }

    /// Commits `rec` the way a lone committer does: append, then wait on
    /// its own epoch.
    fn commit(gc: &GroupCommit, rec: &WalRecord) -> io::Result<()> {
        let (_, epoch) = gc.append(rec, 0)?;
        gc.wait(epoch)
    }

    #[test]
    fn concurrent_commits_share_fsyncs_and_all_persist() {
        let dir = TempDir::new("share");
        let gc = Arc::new(GroupCommit::new(Arc::new(Mutex::new(open_deferred(&dir)))));
        const THREADS: u64 = 8;
        const PER: u64 = 25;

        let (tx, rx) = mpsc::channel();
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let gc = Arc::clone(&gc);
            let tx = tx.clone();
            handles.push(thread::spawn(move || {
                for s in 1..=PER {
                    commit(&gc, &rec(t, s)).unwrap();
                }
                tx.send(t).unwrap();
            }));
        }
        drop(tx);
        assert_eq!(rx.iter().count() as u64, THREADS);
        for h in handles {
            h.join().unwrap();
        }

        assert_eq!(gc.commits(), THREADS * PER);
        // Every commit waited for a flush, but concurrent committers share
        // them: strictly fewer flushes than commits (with 8 threads the
        // coordinator typically needs far fewer; ≥1 is all that's certain
        // beyond the sharing bound).
        let syncs = gc.syncs();
        assert!(syncs >= 1, "at least one flush must have happened");
        assert!(
            syncs <= THREADS * PER,
            "flushes ({syncs}) cannot exceed commits"
        );

        // Everything acknowledged is on disk: drop and reopen.
        drop(gc);
        let (_store, recovered) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered.tail.len() as u64, THREADS * PER);
        assert!(!recovered.truncated);
    }

    #[test]
    fn single_committer_still_durable_per_append() {
        let dir = TempDir::new("single");
        let gc = GroupCommit::new(Arc::new(Mutex::new(open_deferred(&dir))));
        for s in 1..=5 {
            commit(&gc, &rec(0, s)).unwrap();
        }
        assert_eq!(gc.commits(), 5);
        assert_eq!(gc.syncs(), 5, "uncontended commits flush one-for-one");
        drop(gc);
        let (_store, recovered) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered.tail.len(), 5);
    }

    #[test]
    fn one_wait_on_the_newest_epoch_makes_every_append_durable() {
        let dir = TempDir::new("one-wait");
        let gc = GroupCommit::new(Arc::new(Mutex::new(open_deferred(&dir))));
        const K: u64 = 16;
        let epochs: Vec<u64> = (1..=K)
            .map(|s| gc.append(&rec(0, s), 0).unwrap().1)
            .collect();
        assert_eq!(
            epochs,
            (1..=K).collect::<Vec<_>>(),
            "epochs follow append order"
        );
        assert_eq!(gc.syncs(), 0, "appending alone never flushes");
        gc.wait(K).unwrap();
        assert_eq!(gc.syncs(), 1, "one flush covers the whole group");
        // Earlier epochs are already covered: no further flush.
        for e in 1..K {
            gc.wait(e).unwrap();
        }
        assert_eq!(gc.syncs(), 1);
        drop(gc);
        let (_store, recovered) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered.tail.len() as u64, K);
        assert!(!recovered.truncated);
    }

    #[test]
    fn failed_flush_errors_every_epoch_it_covered() {
        let dir = TempDir::new("flush-fail");
        // Room for the segment header and part of the first record: the
        // group's flush tears and fails.
        let (store, _) = Store::open(
            &dir,
            StoreOptions {
                sync: SyncPolicy::Deferred,
                file_factory: crate::fault::failing_factory(crate::fault::ByteBudget::new(12)),
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let gc = GroupCommit::new(Arc::new(Mutex::new(store)));
        for s in 1..=4 {
            gc.append(&rec(0, s), 0).unwrap();
        }
        assert!(gc.wait(4).is_err());
        for e in 1..=4 {
            let err = gc.wait(e).unwrap_err();
            assert!(err.to_string().contains("flush failed"), "{err}");
        }
        assert_eq!(gc.syncs(), 0);
    }

    #[test]
    fn an_epoch_appended_after_a_failed_flush_can_still_succeed() {
        let dir = TempDir::new("flush-recover");
        let fail = Arc::new(AtomicBool::new(false));
        let (store, _) = Store::open(
            &dir,
            StoreOptions {
                sync: SyncPolicy::Deferred,
                file_factory: crate::fault::flaky_sync_factory(Arc::clone(&fail)),
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let gc = GroupCommit::new(Arc::new(Mutex::new(store)));
        for s in 1..=3 {
            gc.append(&rec(0, s), 0).unwrap();
        }
        fail.store(true, Ordering::SeqCst);
        assert!(gc.wait(3).is_err());
        assert!(
            (1..=3).all(|e| gc.wait(e).is_err()),
            "every covered epoch fails"
        );
        fail.store(false, Ordering::SeqCst);
        let (_, epoch) = gc.append(&rec(0, 4), 0).unwrap();
        assert_eq!(epoch, 4);
        gc.wait(epoch).unwrap();
        assert_eq!(gc.syncs(), 1);
        // The failed records' bytes reached the file before the sync
        // failed; the next append cut them, so only the acked one replays.
        drop(gc);
        let (_store, recovered) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered.tail, vec![rec(0, 4)]);
    }

    #[test]
    fn a_voided_epoch_fails_even_after_a_later_flush_succeeds() {
        let dir = TempDir::new("late-waiter");
        let fail = Arc::new(AtomicBool::new(false));
        let (store, _) = Store::open(
            &dir,
            StoreOptions {
                sync: SyncPolicy::Deferred,
                file_factory: crate::fault::flaky_sync_factory(Arc::clone(&fail)),
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let gc = GroupCommit::new(Arc::new(Mutex::new(store)));
        // A committer appends and is slow to wait; another's flush covers
        // its record and fails, and a third commits cleanly after that.
        let (_, slow) = gc.append(&rec(0, 1), 0).unwrap();
        fail.store(true, Ordering::SeqCst);
        assert!(commit(&gc, &rec(1, 1)).is_err());
        fail.store(false, Ordering::SeqCst);
        commit(&gc, &rec(2, 1)).unwrap();
        assert!(
            gc.wait(slow).is_err(),
            "the slow committer's record was discarded with the failed flush"
        );
        drop(gc);
        let (_store, recovered) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered.tail, vec![rec(2, 1)]);
    }
}
