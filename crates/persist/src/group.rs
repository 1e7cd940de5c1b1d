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
//!   re-takes the store lock, observes how many records have been
//!   appended so far (`cover`), and issues a single fsync that makes all
//!   of them durable at once; everyone whose epoch the flush covered is
//!   released together. Waiters that arrive while a flush is in flight
//!   simply wait — by the time the current flush finishes and the next
//!   leader reads its own `cover`, their records are included, so nobody
//!   ever waits for more than two flushes.
//!
//! Flushes are shared two ways. Across threads: engine workers waiting at
//! the same time ride one leader's fsync. Within a thread: an engine
//! worker drains its queue, runs and appends every ready batch (deferring
//! a session's later batch until its earlier one settles, so per-session
//! order holds), and then makes a single `wait` on the newest epoch for
//! the whole group.
//!
//! ## Ordering argument
//!
//! `appended` is only incremented while holding the store lock, *after*
//! the record's bytes are in the store (file or deferred write buffer).
//! The leader reads `cover = appended` while *itself* holding the store
//! lock, so every record counted by `cover` is fully appended before the
//! `Store::sync` that follows (which flushes the write buffer first).
//! `synced >= epoch` therefore really does mean "my record is durable" —
//! and, since epochs grow with append order, so are all earlier ones.
//!
//! ## Failure
//!
//! If the flush fails, every epoch it covered gets an error: the engine
//! rolls back every batch of a group whose `wait` failed, and acks none
//! of them — the same semantics as a failed inline fsync under
//! commit-sync. A record may physically exist in the log as an orphan
//! (a failed flush does not un-write bytes), which is why recovery may
//! find a batch whose client was told it failed, never the reverse.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::record::WalRecord;
use crate::store::Store;

#[derive(Default)]
struct GcState {
    /// Records appended so far (bumped under the store lock).
    appended: u64,
    /// Highest epoch made durable by a completed flush.
    synced: u64,
    /// Highest epoch covered by a *failed* flush; those commits error out.
    failed: u64,
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
    /// bytes (like [`Store::append`]) and its *sync epoch*. The record is
    /// in the log but not yet durable: it is acknowledgeable only once
    /// [`GroupCommit::wait`] on this epoch, or on any later one, has
    /// returned `Ok`. An `Err` here means nothing was appended.
    pub fn append(&self, rec: &WalRecord) -> io::Result<(usize, u64)> {
        // Lock order is always store → state, so `appended` counts exactly
        // the records whose bytes are already in the store.
        let mut store = self.store.lock().unwrap();
        let n = store.append(rec)?;
        let mut g = self.state.lock().unwrap();
        g.appended += 1;
        self.commits.fetch_add(1, Ordering::Relaxed);
        Ok((n, g.appended))
    }

    /// Returns once a flush has made every record up to `epoch` durable,
    /// leading that flush if none is in progress; errors if the flush that
    /// covered `epoch` failed. One call on the newest of several epochs
    /// settles all of them: a flush covers everything appended before it.
    pub fn wait(&self, epoch: u64) -> io::Result<()> {
        let mut g = self.state.lock().unwrap();
        loop {
            if g.synced >= epoch {
                return Ok(());
            }
            if g.failed >= epoch {
                return Err(io::Error::other(format!(
                    "group commit flush failed: {}",
                    g.failed_msg
                )));
            }
            if !g.leader {
                g.leader = true;
                drop(g);
                let result = {
                    let mut store = self.store.lock().unwrap();
                    let cover = self.state.lock().unwrap().appended;
                    store.sync().map(|()| cover).map_err(|e| (cover, e))
                };
                g = self.state.lock().unwrap();
                g.leader = false;
                match result {
                    Ok(cover) => {
                        g.synced = g.synced.max(cover);
                        self.syncs.fetch_add(1, Ordering::Relaxed);
                    }
                    Err((cover, err)) => {
                        g.failed = g.failed.max(cover);
                        g.failed_msg = err.to_string();
                    }
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
            commands: vec![crate::command::PersistCommand::SetValueChangeLimit {
                limit: seq as u32,
            }],
        }
    }

    /// Commits `rec` the way a lone committer does: append, then wait on
    /// its own epoch.
    fn commit(gc: &GroupCommit, rec: &WalRecord) -> io::Result<()> {
        let (_, epoch) = gc.append(rec)?;
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
        let epochs: Vec<u64> = (1..=K).map(|s| gc.append(&rec(0, s)).unwrap().1).collect();
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
            gc.append(&rec(0, s)).unwrap();
        }
        assert!(gc.wait(4).is_err());
        for e in 1..=4 {
            let err = gc.wait(e).unwrap_err();
            assert!(err.to_string().contains("flush failed"), "{err}");
        }
        assert_eq!(gc.syncs(), 0);
    }

    /// A real file whose fsync fails while `fail` is set.
    struct FlakySync {
        inner: std::fs::File,
        fail: Arc<AtomicBool>,
    }

    impl std::io::Write for FlakySync {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl crate::store::StoreFile for FlakySync {
        fn sync(&mut self) -> io::Result<()> {
            if self.fail.load(Ordering::SeqCst) {
                return Err(io::Error::other("injected fsync failure"));
            }
            self.inner.sync_data()
        }
    }

    #[test]
    fn an_epoch_appended_after_a_failed_flush_can_still_succeed() {
        let dir = TempDir::new("flush-recover");
        let fail = Arc::new(AtomicBool::new(false));
        let factory_fail = Arc::clone(&fail);
        let (store, _) = Store::open(
            &dir,
            StoreOptions {
                sync: SyncPolicy::Deferred,
                file_factory: Box::new(move |path: &std::path::Path| {
                    let inner = std::fs::OpenOptions::new()
                        .create(true)
                        .truncate(true)
                        .write(true)
                        .open(path)?;
                    let fail = Arc::clone(&factory_fail);
                    Ok(Box::new(FlakySync { inner, fail }) as Box<dyn crate::store::StoreFile>)
                }),
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let gc = GroupCommit::new(Arc::new(Mutex::new(store)));
        for s in 1..=3 {
            gc.append(&rec(0, s)).unwrap();
        }
        fail.store(true, Ordering::SeqCst);
        assert!(gc.wait(3).is_err());
        assert!(
            (1..=3).all(|e| gc.wait(e).is_err()),
            "every covered epoch fails"
        );
        fail.store(false, Ordering::SeqCst);
        let (_, epoch) = gc.append(&rec(0, 4)).unwrap();
        assert_eq!(epoch, 4);
        gc.wait(epoch).unwrap();
        assert_eq!(gc.syncs(), 1);
    }
}
