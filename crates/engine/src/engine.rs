//! The engine proper: a fixed pool of worker threads, each owning the
//! networks of the sessions sharded onto it.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use stem_core::{Network, ParStats, Stats};
use stem_persist::{
    decode_segment, GroupCommit, PersistCommand, PersistSpec, SessionState, Snapshot, Store,
    StoreOptions, SyncPolicy, WalRecord,
};

use crate::command::{BatchError, BatchOutcome, Command, ConstraintSpec, Output};
use crate::persist::{self, Durability, DurabilityOptions, RecoveredSession, RecoveryPlan};
use crate::stats::{Counters, EngineStats, SessionStats};

/// Identifies one design session — an independent constraint network owned
/// by exactly one worker. Ids are engine-unique and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Engine construction parameters ([`Engine::with_config`]).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads; sessions are sharded `id % workers`. Minimum 1.
    pub workers: usize,
    /// Bounded per-worker queue capacity. [`Engine::submit`] blocks when
    /// the target queue is full (backpressure); [`Engine::try_submit`]
    /// returns [`BatchError::Backpressure`] instead. Under
    /// [`Durability::GroupCommit`] it also caps how many queued jobs a
    /// worker drains into one group. Minimum 1.
    pub queue_capacity: usize,
    /// Per-cycle propagation step budget installed in every session
    /// network; `None` is unlimited. A wave exceeding the budget aborts
    /// cleanly with `ViolationKind::BudgetExceeded` and rolls its batch
    /// back.
    pub step_budget: Option<u64>,
    /// Replay thread budget installed in every session network
    /// ([`stem_core::Network::set_parallel_threads`]). At the default of
    /// 1 every propagation is sequential; above 1, cached plans are
    /// lowered to cone kernels, replayed inline or — for cones above the
    /// network's per-task floor — on a shared worker pool. Observable
    /// behaviour is identical at every setting — only wall-clock
    /// changes.
    pub propagation_threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            queue_capacity: 128,
            step_budget: None,
            propagation_threads: 1,
        }
    }
}

/// In-flight batch handle returned by [`Engine::submit`] /
/// [`Engine::try_submit`]; redeem it with [`BatchTicket::wait`].
#[derive(Debug)]
pub struct BatchTicket {
    reply: Receiver<Result<BatchOutcome, BatchError>>,
}

impl BatchTicket {
    /// Blocks until the owning worker replies. Returns
    /// [`BatchError::Shutdown`] if the engine stopped before processing
    /// the batch.
    pub fn wait(self) -> Result<BatchOutcome, BatchError> {
        self.reply.recv().unwrap_or(Err(BatchError::Shutdown))
    }

    /// A ticket that is already redeemed: `wait` returns `result`
    /// immediately. Lets a routing layer answer a batch without touching
    /// an engine (e.g. refusing a submit during reconfiguration) through
    /// the same handle type.
    pub fn resolved(result: Result<BatchOutcome, BatchError>) -> BatchTicket {
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(result);
        BatchTicket { reply: rx }
    }
}

enum Job {
    Batch {
        session: SessionId,
        commands: Vec<Command>,
        /// Client idempotence key (0 = unkeyed); see
        /// [`Engine::submit_keyed`].
        key: u64,
        reply: mpsc::Sender<Result<BatchOutcome, BatchError>>,
        enqueued: Instant,
    },
    SessionStats {
        session: SessionId,
        reply: mpsc::Sender<SessionStats>,
    },
    LiftQuarantine {
        session: SessionId,
        reply: mpsc::Sender<bool>,
    },
    CloseSession {
        session: SessionId,
        reply: mpsc::Sender<bool>,
    },
    /// Gather every session's checkpoint image plus the worker's closed
    /// ids (durable engines only; volatile workers reply empty).
    Checkpoint {
        reply: mpsc::Sender<GatherReply>,
    },
    /// Drop these ids from the worker's closed-session set: the
    /// checkpoint machinery proved every log record that could mention
    /// them has been compacted away, so recovery can never again meet a
    /// record that needs them.
    Forget {
        ids: Arc<HashSet<u64>>,
    },
    /// Replica bootstrap: install recovered snapshot sessions (and closed
    /// ids) belonging to this worker's shard.
    Install {
        sessions: Vec<RecoveredSession>,
        closed: Vec<u64>,
        reply: mpsc::Sender<u64>,
    },
    /// Replica ingestion: replay this worker's share of a shipped WAL
    /// segment, in segment order, deduplicated by per-session sequence.
    Replay {
        records: Vec<WalRecord>,
        reply: mpsc::Sender<ReplayReport>,
    },
    Shutdown,
}

/// What [`Engine::ingest_segment`] did with a shipped segment's records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayReport {
    /// Records applied (batches replayed, closes honoured).
    pub applied: u64,
    /// Records skipped as duplicates (sequence already covered) or
    /// addressed to closed sessions — expected when a segment is shipped
    /// twice or overlaps a snapshot bootstrap.
    pub skipped: u64,
    /// Records that could not be applied: a sequence gap (a segment was
    /// skipped in shipping) or a replay failure. Each anomaly quarantines
    /// its session; a correct shipping pipeline never produces one.
    pub anomalies: u64,
}

/// One worker's contribution to a checkpoint: `(id, seq, state)` per live
/// session, plus the worker's cumulative closed-session ids.
type GatherReply = (Vec<(u64, u64, SessionState)>, Vec<u64>);

/// A concurrent multi-session propagation service.
///
/// The engine owns a fixed pool of worker threads. Each session — an
/// independent [`Network`] — is pinned to the worker `session_id %
/// workers`, which serialises that session's batches (they apply in
/// submission order) while distinct sessions on distinct workers run in
/// parallel. Networks never cross threads: they are created, mutated and
/// dropped inside their owning worker, which is what lets the
/// single-threaded `Rc`-based core serve concurrent traffic without locks
/// on the hot path.
///
/// ```
/// use stem_engine::{Command, ConstraintSpec, Engine, Output, Source};
/// use stem_core::{Value, VarId};
///
/// let engine = Engine::new(2);
/// let s = engine.create_session();
/// let out = engine
///     .apply(s, vec![
///         Command::AddVariable { name: "a".into() },
///         Command::AddVariable { name: "b".into() },
///         // Ids are sequential, so a batch may wire what it just created.
///         Command::AddConstraint {
///             spec: ConstraintSpec::Equality,
///             args: vec![VarId::from_index(0), VarId::from_index(1)],
///         },
///         Command::Set {
///             var: VarId::from_index(0),
///             value: Value::Int(7),
///             source: Source::User,
///         },
///         Command::Get { var: VarId::from_index(1) },
///     ])
///     .unwrap();
/// assert_eq!(out.outputs[4], Output::Value(Value::Int(7)));
/// ```
pub struct Engine {
    senders: Vec<SyncSender<Job>>,
    depths: Vec<Arc<AtomicUsize>>,
    counters: Arc<Counters>,
    handles: Vec<JoinHandle<()>>,
    next_session: Arc<AtomicU64>,
    config: EngineConfig,
    durable: Option<DurableCtx>,
    /// Read-only replica flag, shared with every worker; flipped off by
    /// [`Engine::promote`].
    replica: Arc<AtomicBool>,
    /// Group-commit coordinator under [`Durability::GroupCommit`].
    group: Option<Arc<GroupCommit>>,
    /// `(epoch, holder)` of the lease installed by [`Engine::install_lease`]
    /// (0/0 when none) — queryable observability for the fence the store
    /// enforces.
    lease: Arc<(AtomicU64, AtomicU64)>,
}

/// Engine-side durability state, present when the engine was opened on a
/// store ([`Engine::open`] / [`Engine::open_with_config`]).
struct DurableCtx {
    store: Arc<Mutex<Store>>,
    mode: Durability,
    /// Serialises checkpoints (manual and automatic): seal → gather →
    /// write must not interleave with another checkpoint's.
    checkpoint_lock: Arc<Mutex<()>>,
    /// Closed-session ids carried by the most recent durable snapshot;
    /// the next fully-compacting checkpoint may tell workers to forget
    /// them (see [`run_checkpoint`]).
    prev_closed: Arc<Mutex<HashSet<u64>>>,
    stop: Arc<StopSignal>,
    /// Background interval-fsync / auto-checkpoint thread, when either is
    /// configured.
    flusher: Option<JoinHandle<()>>,
}

/// Pre-spawn durable state handed to [`Engine::build`].
struct DurableSetup {
    store: Store,
    mode: Durability,
    checkpoint_bytes: u64,
    plan: RecoveryPlan,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.senders.len())
            .field("config", &self.config)
            .field("durability", &self.durable.as_ref().map(|d| d.mode))
            .finish()
    }
}

impl Engine {
    /// Creates an engine with `workers` threads and default queue/budget
    /// settings.
    pub fn new(workers: usize) -> Self {
        Engine::with_config(EngineConfig {
            workers,
            ..EngineConfig::default()
        })
    }

    /// Creates an engine from an explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Engine::build(config, None, false).0
    }

    /// Creates a read-only replica engine with `workers` threads: it
    /// accepts shipped WAL segments ([`Engine::ingest_segment`]) and
    /// snapshot bootstraps ([`Engine::ingest_snapshot`]), serves read-only
    /// batches, and rejects mutating batches with
    /// [`BatchError::ReadOnlyReplica`] until [`Engine::promote`].
    pub fn replica(workers: usize) -> Self {
        Engine::replica_with_config(EngineConfig {
            workers,
            ..EngineConfig::default()
        })
    }

    /// [`Engine::replica`] with an explicit configuration. The replica is
    /// volatile — it holds replayed state in memory only; a promoted
    /// replica keeps serving in memory and can be checkpointed into a new
    /// durable store by a higher layer re-submitting its state.
    pub fn replica_with_config(config: EngineConfig) -> Self {
        Engine::build(config, None, true).0
    }

    /// Opens (or creates) a durable engine rooted at `dir`: loads the
    /// newest valid snapshot, replays the log tail, rebuilds every live
    /// session in its worker, and logs new commits with commit-sync
    /// durability. Equivalent to [`Engine::open_with_config`] with
    /// defaults.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Engine> {
        Engine::open_with_config(dir, EngineConfig::default(), DurabilityOptions::default())
    }

    /// [`Engine::open`] with explicit engine configuration and durability
    /// options. With [`Durability::Off`] the store is still recovered but
    /// nothing new is logged.
    pub fn open_with_config(
        dir: impl Into<PathBuf>,
        config: EngineConfig,
        opts: DurabilityOptions,
    ) -> io::Result<Engine> {
        let store_opts = StoreOptions {
            segment_bytes: opts.segment_bytes,
            sync: match opts.mode {
                Durability::CommitSync => SyncPolicy::Always,
                // Group commit defers store-level fsync: the coordinator
                // issues shared flushes before any commit is acknowledged.
                Durability::Off | Durability::IntervalSync { .. } | Durability::GroupCommit => {
                    SyncPolicy::Deferred
                }
            },
            file_factory: opts
                .file_factory
                .unwrap_or_else(|| StoreOptions::default().file_factory),
        };
        let (store, recovered) = Store::open(dir, store_opts)?;
        let plan = persist::plan_recovery(recovered);
        let (engine, anomalies) = Engine::build(
            config,
            Some(DurableSetup {
                store,
                mode: opts.mode,
                checkpoint_bytes: opts.checkpoint_bytes,
                plan,
            }),
            false,
        );
        if anomalies > 0 {
            // One or more sessions recovered from a corrupt log tail
            // (sequence gap or a committed batch that no longer replays):
            // their durable cursors were rewound, so the log still holds
            // stale records at sequence numbers new commits would reuse.
            // Fence immediately: a fresh snapshot captures the rewound
            // state and compaction deletes the stale records, so they can
            // never shadow new commits at the next recovery. (No-op under
            // `Durability::Off`, which logs no new commits.)
            engine.checkpoint()?;
        }
        Ok(engine)
    }

    /// Builds the engine and returns it along with the number of sessions
    /// that recovered anomalously (quarantined); blocks until every
    /// worker has finished rebuilding its recovered sessions.
    fn build(config: EngineConfig, durable: Option<DurableSetup>, replica: bool) -> (Self, u64) {
        let workers = config.workers.max(1);
        let queue = config.queue_capacity.max(1);
        let counters = Arc::new(Counters::default());
        let replica = Arc::new(AtomicBool::new(replica));

        let mut recover_by_shard: Vec<Vec<RecoveredSession>> =
            (0..workers).map(|_| Vec::new()).collect();
        let mut closed_by_shard: Vec<Vec<u64>> = (0..workers).map(|_| Vec::new()).collect();
        let mut snapshot_closed = HashSet::new();
        let (next0, mode, store, checkpoint_bytes) = match durable {
            Some(setup) => {
                for rs in setup.plan.sessions {
                    recover_by_shard[(rs.id % workers as u64) as usize].push(rs);
                }
                // Ids already in the recovered snapshot are candidates for
                // forgetting at the next fully-compacting checkpoint: every
                // record mentioning them predates that snapshot's seal.
                snapshot_closed.extend(setup.plan.closed.iter().copied());
                for id in setup.plan.closed {
                    closed_by_shard[(id % workers as u64) as usize].push(id);
                }
                (
                    setup.plan.next_session,
                    Some(setup.mode),
                    Some(Arc::new(Mutex::new(setup.store))),
                    setup.checkpoint_bytes,
                )
            }
            None => (0, None, None, 0),
        };
        let group = (mode == Some(Durability::GroupCommit)).then(|| {
            Arc::new(GroupCommit::new(
                store.clone().expect("mode implies a store"),
            ))
        });

        // Workers report how many of their sessions recovered anomalously
        // (and are now quarantined) before they start serving jobs.
        let (report_tx, report_rx) = mpsc::channel::<u64>();

        let mut senders = Vec::with_capacity(workers);
        let mut depths = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for ix in 0..workers {
            let (tx, rx) = mpsc::sync_channel::<Job>(queue);
            let depth = Arc::new(AtomicUsize::new(0));
            let worker_depth = depth.clone();
            let worker_counters = counters.clone();
            let step_budget = config.step_budget;
            let propagation_threads = config.propagation_threads;
            let worker_store = store.clone();
            let worker_group = group.clone();
            let worker_replica = replica.clone();
            let recover = std::mem::take(&mut recover_by_shard[ix]);
            let closed = std::mem::take(&mut closed_by_shard[ix]);
            let report = report_tx.clone();
            handles.push(
                thread::Builder::new()
                    .name(format!("stem-engine-{ix}"))
                    .spawn(move || {
                        // Networks are !Send, so the worker — and every
                        // session it will own — is built inside its thread.
                        Worker {
                            rx,
                            depth: worker_depth,
                            queue_capacity: queue,
                            counters: worker_counters,
                            step_budget,
                            propagation_threads,
                            sessions: HashMap::new(),
                            mode,
                            store: worker_store,
                            group: worker_group,
                            replica: worker_replica,
                            closed,
                            recover,
                            report: Some(report),
                        }
                        .run()
                    })
                    .expect("spawn engine worker"),
            );
            senders.push(tx);
            depths.push(depth);
        }
        drop(report_tx);
        let anomalies: u64 = report_rx.iter().sum();

        let next_session = Arc::new(AtomicU64::new(next0));
        let prev_closed = Arc::new(Mutex::new(snapshot_closed));
        let durable = store.map(|store| {
            let mode = mode.expect("store implies a durability mode");
            let stop = Arc::new(StopSignal::default());
            let checkpoint_lock = Arc::new(Mutex::new(()));
            let flusher = spawn_flusher(
                mode,
                checkpoint_bytes,
                CheckpointCtx {
                    senders: senders.clone(),
                    depths: depths.clone(),
                    next_session: next_session.clone(),
                    store: store.clone(),
                    lock: checkpoint_lock.clone(),
                    prev_closed: prev_closed.clone(),
                },
                stop.clone(),
            );
            DurableCtx {
                store,
                mode,
                checkpoint_lock,
                prev_closed,
                stop,
                flusher,
            }
        });
        (
            Engine {
                senders,
                depths,
                counters,
                handles,
                next_session,
                config,
                durable,
                replica,
                group,
                lease: Arc::new((AtomicU64::new(0), AtomicU64::new(0))),
            },
            anomalies,
        )
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Allocates a new session id. The session's network materialises
    /// lazily in its worker on first use; ids are never reused.
    pub fn create_session(&self) -> SessionId {
        SessionId(self.next_session.fetch_add(1, Ordering::Relaxed))
    }

    fn shard(&self, session: SessionId) -> usize {
        (session.0 % self.senders.len() as u64) as usize
    }

    fn note_enqueue(&self, shard: usize) {
        let depth = self.depths[shard].fetch_add(1, Ordering::Relaxed) + 1;
        self.counters.observe_queue_depth(depth as u64);
    }

    /// Enqueues a batch, blocking while the worker's queue is full
    /// (backpressure), and returns a ticket for the reply.
    pub fn submit(&self, session: SessionId, commands: Vec<Command>) -> BatchTicket {
        self.submit_keyed(session, commands, 0)
    }

    /// [`Engine::submit`] with a client idempotence key. Keys are dense
    /// per-session counters of *submitted mutating batches* assigned by
    /// the (single) writing client; `0` means unkeyed. A keyed batch at
    /// or below the session's high-water mark is a resubmit of something
    /// already decided: it is skipped and acknowledged with an empty
    /// [`BatchOutcome`] instead of being applied twice. Only successful
    /// batches advance the mark — a violated batch re-runs and
    /// deterministically re-violates against the identical state.
    pub fn submit_keyed(
        &self,
        session: SessionId,
        commands: Vec<Command>,
        key: u64,
    ) -> BatchTicket {
        let shard = self.shard(session);
        let (reply_tx, reply_rx) = mpsc::channel();
        self.note_enqueue(shard);
        let job = Job::Batch {
            session,
            commands,
            key,
            reply: reply_tx,
            enqueued: Instant::now(),
        };
        if self.senders[shard].send(job).is_err() {
            self.depths[shard].fetch_sub(1, Ordering::Relaxed);
        }
        BatchTicket { reply: reply_rx }
    }

    /// Enqueues a batch without blocking; a full queue returns
    /// [`BatchError::Backpressure`] and the batch is not accepted.
    pub fn try_submit(
        &self,
        session: SessionId,
        commands: Vec<Command>,
    ) -> Result<BatchTicket, BatchError> {
        self.try_submit_keyed(session, commands, 0)
    }

    /// [`Engine::try_submit`] with a client idempotence key (see
    /// [`Engine::submit_keyed`]).
    pub fn try_submit_keyed(
        &self,
        session: SessionId,
        commands: Vec<Command>,
        key: u64,
    ) -> Result<BatchTicket, BatchError> {
        let shard = self.shard(session);
        let (reply_tx, reply_rx) = mpsc::channel();
        self.note_enqueue(shard);
        let job = Job::Batch {
            session,
            commands,
            key,
            reply: reply_tx,
            enqueued: Instant::now(),
        };
        match self.senders[shard].try_send(job) {
            Ok(()) => Ok(BatchTicket { reply: reply_rx }),
            Err(err) => {
                self.depths[shard].fetch_sub(1, Ordering::Relaxed);
                match err {
                    TrySendError::Full(_) => {
                        self.counters
                            .backpressure_rejections
                            .fetch_add(1, Ordering::Relaxed);
                        Err(BatchError::Backpressure)
                    }
                    TrySendError::Disconnected(_) => Err(BatchError::Shutdown),
                }
            }
        }
    }

    /// Submits a batch and waits for its outcome — the synchronous
    /// convenience over [`Engine::submit`] + [`BatchTicket::wait`].
    pub fn apply(
        &self,
        session: SessionId,
        commands: Vec<Command>,
    ) -> Result<BatchOutcome, BatchError> {
        self.submit(session, commands).wait()
    }

    /// Fetches a session's counters (creating the session if it never ran
    /// a batch). Travels the session's queue, so it also observes ordering
    /// with in-flight batches.
    pub fn session_stats(&self, session: SessionId) -> SessionStats {
        let shard = self.shard(session);
        let (tx, rx) = mpsc::channel();
        self.note_enqueue(shard);
        if self.senders[shard]
            .send(Job::SessionStats { session, reply: tx })
            .is_err()
        {
            self.depths[shard].fetch_sub(1, Ordering::Relaxed);
            return SessionStats::default();
        }
        rx.recv().unwrap_or_default()
    }

    /// Lifts a session's quarantine, re-admitting mutating batches.
    /// Returns whether the session was quarantined.
    pub fn lift_quarantine(&self, session: SessionId) -> bool {
        let shard = self.shard(session);
        let (tx, rx) = mpsc::channel();
        self.note_enqueue(shard);
        if self.senders[shard]
            .send(Job::LiftQuarantine { session, reply: tx })
            .is_err()
        {
            self.depths[shard].fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        rx.recv().unwrap_or(false)
    }

    /// Drops a session's network and counters. Returns whether the session
    /// existed. The id is retired, not recycled.
    pub fn close_session(&self, session: SessionId) -> bool {
        let shard = self.shard(session);
        let (tx, rx) = mpsc::channel();
        self.note_enqueue(shard);
        if self.senders[shard]
            .send(Job::CloseSession { session, reply: tx })
            .is_err()
        {
            self.depths[shard].fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        rx.recv().unwrap_or(false)
    }

    /// The durability mode the engine was opened with; `None` for a
    /// purely in-memory engine ([`Engine::new`] / [`Engine::with_config`]).
    pub fn durability(&self) -> Option<Durability> {
        self.durable.as_ref().map(|d| d.mode)
    }

    /// Forces any deferred log writes to disk (a no-op under commit-sync,
    /// where every acknowledged commit is already synced). `Ok(false)` on
    /// a non-durable engine.
    pub fn sync_wal(&self) -> io::Result<bool> {
        let Some(d) = &self.durable else {
            return Ok(false);
        };
        d.store.lock().unwrap().sync()?;
        Ok(true)
    }

    /// Writes a snapshot checkpoint now and compacts the log segments it
    /// covers. `Ok(false)` (without touching disk) on a non-durable or
    /// recover-only ([`Durability::Off`]) engine.
    pub fn checkpoint(&self) -> io::Result<bool> {
        let Some(d) = &self.durable else {
            return Ok(false);
        };
        if d.mode == Durability::Off {
            return Ok(false);
        }
        run_checkpoint(&CheckpointCtx {
            senders: self.senders.clone(),
            depths: self.depths.clone(),
            next_session: self.next_session.clone(),
            store: d.store.clone(),
            lock: d.checkpoint_lock.clone(),
            prev_closed: d.prev_closed.clone(),
        })?;
        Ok(true)
    }

    // -----------------------------------------------------------------
    // WAL segment shipping (leader side)
    // -----------------------------------------------------------------

    /// Seals the active WAL segment and returns every sealed segment
    /// index — the shippable replication units. Errors on a non-durable
    /// engine (there is no log to ship).
    pub fn seal_wal(&self) -> io::Result<Vec<u64>> {
        let Some(d) = &self.durable else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "engine has no write-ahead log to seal",
            ));
        };
        d.store.lock().unwrap().seal_for_checkpoint()
    }

    /// Reads a sealed segment's raw bytes for shipping to a replica.
    pub fn read_wal_segment(&self, index: u64) -> io::Result<Vec<u8>> {
        let Some(d) = &self.durable else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "engine has no write-ahead log to read",
            ));
        };
        d.store.lock().unwrap().read_segment(index)
    }

    /// Raw bytes of the newest checkpoint snapshot, if any — the bulk
    /// bootstrap a replica ingests before replaying shipped segments.
    pub fn wal_snapshot_bytes(&self) -> io::Result<Option<Vec<u8>>> {
        let Some(d) = &self.durable else {
            return Ok(None);
        };
        d.store.lock().unwrap().latest_snapshot_bytes()
    }

    // -----------------------------------------------------------------
    // Lease fencing (cluster tier)
    // -----------------------------------------------------------------

    /// Arms this engine's store with a lease fence: the engine holds
    /// `epoch` (granted to `holder`), and `current` is the cluster's live
    /// epoch cell. Once the coordinator bumps `current` past `epoch` —
    /// after durably advancing the on-disk [`stem_persist::Lease`] — every
    /// subsequent WAL append here fails, the owning batch rolls back, and
    /// the client sees [`BatchError::Persist`] instead of a phantom ack.
    /// Errors on a non-durable engine: with no log to guard there is
    /// nothing to fence.
    pub fn install_lease(
        &self,
        epoch: u64,
        holder: u64,
        current: Arc<AtomicU64>,
    ) -> io::Result<()> {
        let Some(d) = &self.durable else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "lease fencing requires a durable engine",
            ));
        };
        d.store.lock().unwrap().set_fence(epoch, current);
        self.lease.0.store(epoch, Ordering::SeqCst);
        self.lease.1.store(holder, Ordering::SeqCst);
        Ok(())
    }

    /// `(epoch, holder)` of the installed lease, `(0, 0)` if none.
    pub fn lease(&self) -> (u64, u64) {
        (
            self.lease.0.load(Ordering::SeqCst),
            self.lease.1.load(Ordering::SeqCst),
        )
    }

    // -----------------------------------------------------------------
    // Replica mode (follower side)
    // -----------------------------------------------------------------

    /// Whether the engine is currently a read-only replica.
    pub fn is_replica(&self) -> bool {
        self.replica.load(Ordering::Relaxed)
    }

    /// Promotes a replica to a writable engine (failover): mutating
    /// batches are accepted from the next submission on. Returns whether
    /// the engine was a replica. Promotion is one-way and the promoted
    /// engine stays volatile; per-session sequencing continues from the
    /// replayed cursors, so a later re-ship into a fresh replica remains
    /// well-ordered.
    pub fn promote(&self) -> bool {
        self.replica.swap(false, Ordering::SeqCst)
    }

    /// Bootstraps a replica from a leader checkpoint snapshot (as
    /// returned by [`Engine::wal_snapshot_bytes`]): every session image
    /// is installed in its shard worker, exactly like crash recovery.
    /// Returns the number of sessions installed. Call once, before the
    /// first [`Engine::ingest_segment`]; segments shipped afterwards
    /// overlap-dedupe against the snapshot's per-session cursors.
    pub fn ingest_snapshot(&self, bytes: &[u8]) -> io::Result<u64> {
        if !self.is_replica() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot ingestion requires replica mode",
            ));
        }
        let Some(snapshot) = Snapshot::decode_file(bytes) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "shipped snapshot is torn or checksum-invalid",
            ));
        };
        let plan = persist::plan_recovery(stem_persist::Recovered {
            snapshot: Some(snapshot),
            tail: Vec::new(),
            truncated: false,
        });
        self.next_session
            .fetch_max(plan.next_session, Ordering::Relaxed);
        let workers = self.senders.len() as u64;
        let mut sessions_by_shard: Vec<Vec<RecoveredSession>> =
            (0..workers).map(|_| Vec::new()).collect();
        let mut closed_by_shard: Vec<Vec<u64>> = (0..workers).map(|_| Vec::new()).collect();
        for rs in plan.sessions {
            sessions_by_shard[(rs.id % workers) as usize].push(rs);
        }
        for id in plan.closed {
            closed_by_shard[(id % workers) as usize].push(id);
        }
        let mut replies = Vec::new();
        for (ix, (sessions, closed)) in sessions_by_shard
            .into_iter()
            .zip(closed_by_shard)
            .enumerate()
        {
            if sessions.is_empty() && closed.is_empty() {
                continue;
            }
            let (tx, rx) = mpsc::channel();
            self.note_enqueue(ix);
            self.senders[ix]
                .send(Job::Install {
                    sessions,
                    closed,
                    reply: tx,
                })
                .map_err(|_| io::Error::other("engine is shutting down"))?;
            replies.push(rx);
        }
        let mut installed = 0;
        for rx in replies {
            installed += rx
                .recv()
                .map_err(|_| io::Error::other("engine is shutting down"))?;
        }
        Ok(installed)
    }

    /// Ingests one shipped WAL segment (as returned by
    /// [`Engine::read_wal_segment`]): records are routed to their shard
    /// workers in segment order and replayed through the same validate +
    /// apply machinery recovery uses, deduplicated by per-session
    /// sequence numbers — re-shipping a segment is a harmless no-op.
    /// Requires replica mode.
    pub fn ingest_segment(&self, bytes: &[u8]) -> io::Result<ReplayReport> {
        if !self.is_replica() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "segment ingestion requires replica mode",
            ));
        }
        let records = decode_segment(bytes)?;
        if let Some(max_id) = records.iter().map(WalRecord::session).max() {
            // Keep the id allocator ahead of every replayed session so a
            // promoted replica never hands out a replayed id.
            self.next_session.fetch_max(max_id + 1, Ordering::Relaxed);
        }
        let workers = self.senders.len() as u64;
        let mut by_shard: Vec<Vec<WalRecord>> = (0..workers).map(|_| Vec::new()).collect();
        for rec in records {
            by_shard[(rec.session() % workers) as usize].push(rec);
        }
        let mut replies = Vec::new();
        for (ix, records) in by_shard.into_iter().enumerate() {
            if records.is_empty() {
                continue;
            }
            let (tx, rx) = mpsc::channel();
            self.note_enqueue(ix);
            self.senders[ix]
                .send(Job::Replay { records, reply: tx })
                .map_err(|_| io::Error::other("engine is shutting down"))?;
            replies.push(rx);
        }
        let mut report = ReplayReport::default();
        for rx in replies {
            let r = rx
                .recv()
                .map_err(|_| io::Error::other("engine is shutting down"))?;
            report.applied += r.applied;
            report.skipped += r.skipped;
            report.anomalies += r.anomalies;
        }
        self.counters
            .segments_ingested
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .records_replayed
            .fetch_add(report.applied, Ordering::Relaxed);
        Ok(report)
    }

    /// Overlays the store-side counters (WAL appends/bytes, snapshots) on
    /// an engine-stats snapshot.
    fn overlay_store(&self, mut s: EngineStats) -> EngineStats {
        if let Some(d) = &self.durable {
            let st = d.store.lock().unwrap().stats();
            s.wal_appends = st.appends;
            s.wal_bytes = st.bytes;
            s.snapshots_written = st.snapshots_written;
        }
        if let Some(g) = &self.group {
            s.wal_group_syncs = g.syncs();
        }
        s
    }

    /// Snapshot of the engine-wide counters.
    pub fn stats(&self) -> EngineStats {
        self.overlay_store(self.counters.snapshot())
    }

    /// [`Engine::stats`] that also resets the queue-depth high-water mark:
    /// the returned snapshot reports the mark as of the read, and later
    /// reads watermark from zero again. Lets repeated measurement runs
    /// (e.g. the T-E20 throughput table) report per-epoch peaks instead of
    /// a stale all-time maximum.
    pub fn stats_and_reset_queue_hwm(&self) -> EngineStats {
        self.overlay_store(self.counters.snapshot_and_reset_queue_hwm())
    }

    /// Stops every worker after it drains its queue, then joins them.
    /// Also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if let Some(d) = &mut self.durable {
            d.stop.stop();
            if let Some(h) = d.flusher.take() {
                let _ = h.join();
            }
        }
        for tx in &self.senders {
            let _ = tx.send(Job::Shutdown);
        }
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        if let Some(d) = &self.durable {
            // A clean shutdown loses nothing, even under interval sync.
            let _ = d.store.lock().unwrap().sync();
        }
    }
}

/// Everything a checkpoint needs; [`Engine::checkpoint`] and the
/// background flusher build the same context.
struct CheckpointCtx {
    senders: Vec<SyncSender<Job>>,
    depths: Vec<Arc<AtomicUsize>>,
    next_session: Arc<AtomicU64>,
    store: Arc<Mutex<Store>>,
    lock: Arc<Mutex<()>>,
    /// Closed ids carried by the previous durable snapshot; see
    /// [`run_checkpoint`]'s forget protocol.
    prev_closed: Arc<Mutex<HashSet<u64>>>,
}

/// Seal → gather → write. Rotating *before* the gather puts every record
/// logged so far into sealed segments the gathered images fully cover, so
/// deleting those segments after the snapshot is durable cannot drop an
/// uncovered commit; records racing the gather land in the fresh active
/// segment and replay on top of the snapshot (per-session sequence numbers
/// make the overlap idempotent).
fn run_checkpoint(ctx: &CheckpointCtx) -> io::Result<()> {
    let _serialise = ctx.lock.lock().unwrap();
    if ctx.senders.is_empty() {
        return Err(io::Error::other("engine is shutting down"));
    }
    let covered = ctx.store.lock().unwrap().seal_for_checkpoint()?;
    let mut replies = Vec::with_capacity(ctx.senders.len());
    for (ix, tx) in ctx.senders.iter().enumerate() {
        let (rtx, rrx) = mpsc::channel();
        ctx.depths[ix].fetch_add(1, Ordering::Relaxed);
        if tx.send(Job::Checkpoint { reply: rtx }).is_err() {
            ctx.depths[ix].fetch_sub(1, Ordering::Relaxed);
            return Err(io::Error::other("engine is shutting down"));
        }
        replies.push(rrx);
    }
    let mut sessions = Vec::new();
    let mut closed = Vec::new();
    for rrx in replies {
        let (mut s, mut c) = rrx
            .recv()
            .map_err(|_| io::Error::other("engine is shutting down"))?;
        sessions.append(&mut s);
        closed.append(&mut c);
    }
    // Read after the gather so the id bound covers every session that
    // could appear in the images.
    let next_session = ctx.next_session.load(Ordering::Relaxed);
    let snap = Snapshot {
        next_session,
        closed: closed.clone(),
        sessions,
    };
    let fully_compacted = ctx.store.lock().unwrap().write_snapshot(&snap, &covered)?;

    // Forget protocol, two checkpoints behind: an id in the *previous*
    // snapshot was closed before that snapshot sealed, so every record
    // mentioning it sits in segments this checkpoint just covered. Once
    // those segments are verifiably gone (`fully_compacted`), nothing on
    // disk can resurrect the id and workers may drop it. The snapshot we
    // just wrote still lists such ids — the belt stays on until the next
    // round — and the id bound (`next_session`) keeps them unreusable.
    {
        let mut prev = ctx.prev_closed.lock().unwrap();
        let forget = if fully_compacted {
            std::mem::take(&mut *prev)
        } else {
            HashSet::new()
        };
        *prev = closed
            .into_iter()
            .filter(|id| !forget.contains(id))
            .collect();
        if !forget.is_empty() {
            let ids = Arc::new(forget);
            for (ix, tx) in ctx.senders.iter().enumerate() {
                ctx.depths[ix].fetch_add(1, Ordering::Relaxed);
                if tx.send(Job::Forget { ids: ids.clone() }).is_err() {
                    // Shutdown race: the worker is gone, and so is its
                    // closed list.
                    ctx.depths[ix].fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }
    Ok(())
}

/// Spawns the background thread driving interval fsyncs and automatic
/// checkpoints; `None` when neither is configured.
fn spawn_flusher(
    mode: Durability,
    checkpoint_bytes: u64,
    ctx: CheckpointCtx,
    stop: Arc<StopSignal>,
) -> Option<JoinHandle<()>> {
    let interval = match mode {
        Durability::IntervalSync { interval } => Some(interval.max(Duration::from_millis(1))),
        // Group commit flushes before every ack; like commit-sync, only
        // automatic checkpointing needs the background thread.
        Durability::CommitSync | Durability::GroupCommit => None,
        // Recover-only engines neither sync nor checkpoint.
        Durability::Off => return None,
    };
    if interval.is_none() && checkpoint_bytes == 0 {
        return None;
    }
    let tick = interval
        .unwrap_or(Duration::from_millis(50))
        .min(Duration::from_millis(50));
    let handle = thread::Builder::new()
        .name("stem-engine-flush".into())
        .spawn(move || {
            let mut last_sync = Instant::now();
            loop {
                // Park on the stop signal: zero wakeups between ticks,
                // and shutdown interrupts the wait instead of waiting
                // out the remainder of a tick to join this thread.
                if stop.wait_stop(tick) {
                    break;
                }
                if let Some(iv) = interval {
                    if last_sync.elapsed() >= iv {
                        let _ = ctx.store.lock().unwrap().sync();
                        last_sync = Instant::now();
                    }
                }
                if checkpoint_bytes > 0 {
                    let due = ctx.store.lock().unwrap().stats().bytes_since_checkpoint
                        >= checkpoint_bytes;
                    if due {
                        let _ = run_checkpoint(&ctx);
                    }
                }
            }
        })
        .expect("spawn engine flusher");
    Some(handle)
}

/// Stop flag the background flusher parks on. `stop()` flips the flag
/// and wakes the waiter immediately, so engine shutdown never idles for
/// the rest of a flush tick.
#[derive(Default)]
struct StopSignal {
    stopped: Mutex<bool>,
    cv: Condvar,
}

impl StopSignal {
    fn stop(&self) {
        *self.stopped.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// Waits up to `timeout` (or until `stop()`); true once stopped.
    fn wait_stop(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.stopped.lock().unwrap();
        loop {
            if *guard {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _) = self.cv.wait_timeout(guard, deadline - now).unwrap();
            guard = g;
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

struct Session {
    net: Network,
    stats: SessionStats,
    quarantined: bool,
    /// Last logged commit sequence number (0 before the first log write).
    seq: u64,
    /// Highest client idempotence key a successful batch carried (0 =
    /// none). Keyed submits at or below this are resubmits and are
    /// skipped; see [`Engine::submit_keyed`].
    dedup: u64,
    /// Spec shadow of the constraint arena: `specs[i]` is slot `i`'s
    /// replayable description, `None` for tombstones. Maintained only on
    /// durable engines (empty otherwise).
    specs: Vec<Option<PersistSpec>>,
}

struct Worker {
    rx: Receiver<Job>,
    depth: Arc<AtomicUsize>,
    /// Most jobs one group drains from the queue
    /// ([`EngineConfig::queue_capacity`]).
    queue_capacity: usize,
    counters: Arc<Counters>,
    step_budget: Option<u64>,
    /// Per-network replay thread budget
    /// ([`EngineConfig::propagation_threads`]), stamped on every session
    /// network at creation and recovery.
    propagation_threads: usize,
    sessions: HashMap<SessionId, Session>,
    /// Durability mode when the engine was opened on a store.
    mode: Option<Durability>,
    store: Option<Arc<Mutex<Store>>>,
    /// Shared-fsync coordinator under [`Durability::GroupCommit`].
    group: Option<Arc<GroupCommit>>,
    /// Engine-wide read-only-replica flag ([`Engine::promote`] clears it).
    replica: Arc<AtomicBool>,
    /// Ids of sessions closed on this worker (including ones recovered as
    /// closed); checkpoints persist them so recovery never resurrects a
    /// closed session from pre-compaction records.
    closed: Vec<u64>,
    /// Sessions to rebuild before the first job is served.
    recover: Vec<RecoveredSession>,
    /// One-shot channel for reporting how many recovered sessions came
    /// back anomalous (quarantined); sent (and dropped) before the first
    /// job is served so [`Engine::build`] can fence the store.
    report: Option<mpsc::Sender<u64>>,
}

impl Worker {
    /// Whether committed batches are logged (durable and not recover-only).
    fn logging(&self) -> bool {
        self.store.is_some() && !matches!(self.mode, Some(Durability::Off) | None)
    }

    /// Rebuilds one recovered session: checkpoint image first, then the
    /// logged tail re-applied through the normal batch machinery (without
    /// re-logging — the records are already in the log).
    fn restore_session(&self, rs: RecoveredSession) -> Session {
        let base_seq = rs.seq - rs.tail.len() as u64;
        let (mut net, mut specs) = persist::restore_network(&rs.state, self.step_budget);
        net.set_durability_label(persist::durability_label(self.mode));
        net.set_parallel_threads(self.propagation_threads);
        let mut applied = 0u64;
        for batch in &rs.tail {
            let commands: Vec<Command> = batch
                .iter()
                .cloned()
                .map(persist::command_from_persist)
                .collect();
            // Committed batches replay cleanly against the state they
            // committed on; a failure means corruption the checksums
            // could not see — keep the prefix that did replay.
            if validate(&net, &commands, false).is_err() {
                break;
            }
            if apply_all(&mut net, commands).is_err() {
                break;
            }
            persist::absorb_committed(&mut specs, batch);
            applied += 1;
        }
        self.counters
            .sessions_created
            .fetch_add(1, Ordering::Relaxed);
        self.counters.recoveries.fetch_add(1, Ordering::Relaxed);
        // A short replay or a planner-detected gap means the log's tail
        // diverged from acknowledged state: quarantine the session so a
        // human (or test harness) must acknowledge the rewind via
        // `lift_quarantine` before new mutations are accepted.
        let quarantined = rs.corrupt || applied < rs.tail.len() as u64;
        if quarantined {
            self.counters
                .sessions_quarantined
                .fetch_add(1, Ordering::Relaxed);
        }
        Session {
            net,
            stats: SessionStats::default(),
            quarantined,
            seq: base_seq + applied,
            dedup: rs.dedup,
            specs,
        }
    }

    /// Replays this worker's share of a shipped segment. The records are
    /// the same committed batches crash recovery replays, and the same
    /// machinery applies them (validate + `apply_all`); per-session
    /// sequence numbers deduplicate overlap with the snapshot bootstrap
    /// or re-shipped segments. A gap or a replay failure is an anomaly:
    /// the session is quarantined, exactly like an anomalous recovery.
    fn replay_records(&mut self, records: Vec<WalRecord>) -> ReplayReport {
        let mut report = ReplayReport::default();
        for rec in records {
            match rec {
                WalRecord::Close { session, seq } => {
                    match self.sessions.remove(&SessionId(session)) {
                        Some(sess) if seq > sess.seq => report.applied += 1,
                        Some(_) | None => report.skipped += 1,
                    }
                    if !self.closed.contains(&session) {
                        self.closed.push(session);
                    }
                }
                WalRecord::Batch {
                    session,
                    seq,
                    key,
                    commands,
                } => {
                    if self.closed.contains(&session) {
                        report.skipped += 1;
                        continue;
                    }
                    let counters = self.counters.clone();
                    let sess = self.session_entry(SessionId(session));
                    if seq <= sess.seq {
                        report.skipped += 1;
                        continue;
                    }
                    if seq != sess.seq + 1 || sess.quarantined {
                        report.anomalies += 1;
                        if !sess.quarantined {
                            sess.quarantined = true;
                            counters
                                .sessions_quarantined
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        continue;
                    }
                    let cmds: Vec<Command> = commands
                        .into_iter()
                        .map(persist::command_from_persist)
                        .collect();
                    let ok = validate(&sess.net, &cmds, false).is_ok()
                        && apply_all(&mut sess.net, cmds).is_ok();
                    if ok {
                        sess.seq = seq;
                        sess.dedup = sess.dedup.max(key);
                        sess.stats.batches += 1;
                        sess.stats.batches_ok += 1;
                        report.applied += 1;
                    } else {
                        // A committed batch that no longer replays means
                        // the shipped stream diverged from the leader's
                        // history; serving more reads from this session
                        // would serve wrong answers.
                        report.anomalies += 1;
                        sess.quarantined = true;
                        counters
                            .sessions_quarantined
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        report
    }

    fn run(mut self) {
        // FIFO queues guarantee no job can observe a session before its
        // rebuild: recovery runs to completion first.
        let mut anomalies = 0u64;
        for rs in std::mem::take(&mut self.recover) {
            let id = SessionId(rs.id);
            let sess = self.restore_session(rs);
            if sess.quarantined {
                anomalies += 1;
            }
            self.sessions.insert(id, sess);
        }
        if let Some(tx) = self.report.take() {
            let _ = tx.send(anomalies);
        }
        // Jobs taken off the queue but not yet served, in submission order:
        // the batches a group deferred, then the job that ended its drain.
        let mut backlog = VecDeque::new();
        loop {
            let job = match backlog.pop_front() {
                Some(job) => job,
                None => match self.rx.recv() {
                    Ok(job) => {
                        self.depth.fetch_sub(1, Ordering::Relaxed);
                        job
                    }
                    Err(_) => break,
                },
            };
            match job {
                job @ Job::Batch { .. } => self.run_group(job, &mut backlog),
                Job::SessionStats { session, reply } => {
                    let sess = self.session_entry(session);
                    let mut stats = sess.stats;
                    stats.read_network(&sess.net.stats(), &sess.net.par_stats());
                    stats.n_variables = sess.net.n_variables() as u64;
                    stats.n_constraints = sess.net.n_constraints() as u64;
                    stats.quarantined = sess.quarantined;
                    let _ = reply.send(stats);
                }
                Job::LiftQuarantine { session, reply } => {
                    let sess = self.session_entry(session);
                    let was = sess.quarantined;
                    sess.quarantined = false;
                    let _ = reply.send(was);
                }
                Job::CloseSession { session, reply } => {
                    let existed = match self.sessions.remove(&session) {
                        Some(sess) => {
                            if self.logging() {
                                // Best-effort: a lost Close record only
                                // means the session resurrects on
                                // recovery; no acknowledged data is at
                                // stake.
                                let record = WalRecord::Close {
                                    session: session.0,
                                    seq: sess.seq + 1,
                                };
                                if let Some(store) = &self.store {
                                    let _ = store.lock().unwrap().append(&record);
                                }
                                self.closed.push(session.0);
                            }
                            true
                        }
                        None => false,
                    };
                    let _ = reply.send(existed);
                }
                Job::Checkpoint { reply } => {
                    let mut sessions = Vec::with_capacity(self.sessions.len());
                    if self.logging() {
                        for (id, sess) in &self.sessions {
                            let mut state = persist::gather_state(&sess.net, &sess.specs);
                            state.dedup = sess.dedup;
                            sessions.push((id.0, sess.seq, state));
                        }
                    }
                    let _ = reply.send((sessions, self.closed.clone()));
                }
                Job::Forget { ids } => {
                    self.closed.retain(|id| !ids.contains(id));
                }
                Job::Install {
                    sessions,
                    closed,
                    reply,
                } => {
                    let installed = sessions.len() as u64;
                    for rs in sessions {
                        let id = SessionId(rs.id);
                        let sess = self.restore_session(rs);
                        self.sessions.insert(id, sess);
                    }
                    for id in closed {
                        if !self.closed.contains(&id) {
                            self.closed.push(id);
                        }
                    }
                    let _ = reply.send(installed);
                }
                Job::Replay { records, reply } => {
                    let report = self.replay_records(records);
                    let _ = reply.send(report);
                }
                Job::Shutdown => break,
            }
        }
    }

    fn session_entry(&mut self, id: SessionId) -> &mut Session {
        let counters = &self.counters;
        let step_budget = self.step_budget;
        let mode = self.mode;
        let propagation_threads = self.propagation_threads;
        self.sessions.entry(id).or_insert_with(|| {
            counters.sessions_created.fetch_add(1, Ordering::Relaxed);
            let mut net = Network::new();
            net.set_step_limit(step_budget);
            net.set_durability_label(persist::durability_label(mode));
            net.set_parallel_threads(propagation_threads);
            Session {
                net,
                stats: SessionStats::default(),
                quarantined: false,
                seq: 0,
                dedup: 0,
                specs: Vec::new(),
            }
        })
    }

    /// Phase one of a batch: validates it, runs it under an open change
    /// journal and appends its record. What comes back is settled by
    /// [`Worker::settle`] — immediately, or after a group-commit wait
    /// covers the record.
    fn execute(&mut self, id: SessionId, commands: Vec<Command>, key: u64) -> Executed {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        let logging = self.logging();
        let store = self.store.clone();
        let group = self.group.clone();
        if self.replica.load(Ordering::SeqCst) && commands.iter().any(Command::is_mutating) {
            return Executed::Done(Err(BatchError::ReadOnlyReplica));
        }
        let counters = self.counters.clone();
        let sess = self.session_entry(id);
        sess.stats.batches += 1;

        // Keyed resubmit of an already-successful batch: acknowledge
        // without re-applying. The empty outcome marks the skip — a real
        // batch always produces one output per command. (A resubmitted
        // *violated* batch has a key above the mark: it re-runs against
        // byte-identical state and deterministically re-violates.)
        if key != 0 && key <= sess.dedup {
            counters.dedup_skips.fetch_add(1, Ordering::Relaxed);
            return Executed::Done(Ok(BatchOutcome {
                outputs: Vec::new(),
                waves: 0,
                assignments: 0,
            }));
        }

        if sess.quarantined && commands.iter().any(Command::is_mutating) {
            return Executed::Done(Err(BatchError::Quarantined));
        }
        if let Err(err) = validate(&sess.net, &commands, logging) {
            return Executed::Done(Err(err));
        }

        // The loggable mirror is built before `apply_all` consumes the
        // commands; read-only batches log nothing. Validation already
        // rejected unpersistable (custom-kind) commands.
        let to_log: Option<Vec<PersistCommand>> =
            if logging && commands.iter().any(Command::is_mutating) {
                Some(
                    persist::commands_to_persist(&commands)
                        .expect("validated: no custom kinds on a durable engine"),
                )
            } else {
                None
            };

        let before = (sess.net.stats(), sess.net.par_stats());
        // The network records pre-images and structural undo entries as
        // the batch runs; every failure replays them in reverse, so undoing
        // a batch costs O(touched set) whatever the network's size.
        sess.net.begin_journal();
        let outputs = match catch_unwind(AssertUnwindSafe(|| apply_all(&mut sess.net, commands))) {
            Ok(Ok(outputs)) => outputs,
            Ok(Err((index, violation))) => {
                sess.net.rollback_journal();
                return Executed::Failed(id, BatchError::Violation { index, violation });
            }
            Err(payload) => {
                // The panic may have unwound out of an active cycle;
                // finish its restoration (journal-coherently), then undo
                // the rest of the batch.
                sess.net.abort_cycle();
                sess.net.rollback_journal();
                return Executed::Failed(
                    id,
                    BatchError::Panicked {
                        index: usize::MAX,
                        message: panic_message(payload),
                    },
                );
            }
        };

        // Log before acknowledging: the journal is still open, so a failed
        // append — or a failed flush, at settle — rolls the whole batch
        // back and the client's error means "not committed".
        let logged = match to_log {
            None => None,
            Some(commands) => {
                let record = WalRecord::Batch {
                    session: id.0,
                    seq: sess.seq + 1,
                    key,
                    commands,
                };
                let appended = match &group {
                    // Group commit: the record is in the log, durable once
                    // a flush covers its epoch.
                    Some(group) => group.append(&record),
                    None => {
                        let store = store.as_ref().expect("logging requires a store");
                        store.lock().unwrap().append(&record).map(|n| (n, 0))
                    }
                };
                match appended {
                    Ok((bytes, epoch)) => {
                        let WalRecord::Batch { commands, .. } = record else {
                            unreachable!()
                        };
                        Some(Logged {
                            commands,
                            bytes: bytes as u64,
                            epoch,
                        })
                    }
                    Err(err) => {
                        sess.net.rollback_journal();
                        return Executed::Failed(
                            id,
                            BatchError::Persist {
                                message: err.to_string(),
                            },
                        );
                    }
                }
            }
        };
        Executed::Ran(Pending {
            session: id,
            key,
            outputs,
            before,
            logged,
        })
    }

    /// Phase two of a batch: commits a batch that ran — if `flushed`, the
    /// outcome of the wait covering its record, is `Ok` — or rolls it
    /// back; advances the session's durable cursor, dedup mark and spec
    /// shadow; and updates the counters.
    fn settle(
        &mut self,
        executed: Executed,
        flushed: &io::Result<()>,
    ) -> Result<BatchOutcome, BatchError> {
        let (id, result) = match executed {
            Executed::Done(result) => return result,
            Executed::Failed(id, err) => (id, Err(err)),
            Executed::Ran(p) => (p.session, self.commit_or_rollback(p, flushed)),
        };
        let counters = &self.counters;
        let sess = self
            .sessions
            .get_mut(&id)
            .expect("a batch that ran has a session");
        match result {
            Ok(p) => {
                let after = (sess.net.stats(), sess.net.par_stats());
                counters.batches_ok.fetch_add(1, Ordering::Relaxed);
                counters.add_network(&p.before, &after);
                let waves = after.0.cycles.saturating_sub(p.before.0.cycles);
                let assignments = after.0.assignments.saturating_sub(p.before.0.assignments);
                sess.stats.batches_ok += 1;
                sess.stats.waves += waves;
                sess.stats.assignments += assignments;
                if p.key != 0 {
                    sess.dedup = sess.dedup.max(p.key);
                }
                Ok(BatchOutcome {
                    outputs: p.outputs,
                    waves,
                    assignments,
                })
            }
            Err(err) => {
                match &err {
                    BatchError::Violation { .. } => {
                        counters.violations.fetch_add(1, Ordering::Relaxed);
                        counters.rollbacks.fetch_add(1, Ordering::Relaxed);
                        sess.stats.violations += 1;
                    }
                    BatchError::Panicked { .. } => {
                        counters.panics.fetch_add(1, Ordering::Relaxed);
                        counters.rollbacks.fetch_add(1, Ordering::Relaxed);
                        counters
                            .sessions_quarantined
                            .fetch_add(1, Ordering::Relaxed);
                        sess.stats.panics += 1;
                        sess.quarantined = true;
                    }
                    BatchError::Persist { .. } => {
                        counters.rollbacks.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
                Err(err)
            }
        }
    }

    /// Ends a pending batch: commits it when its record is durable,
    /// otherwise undoes it so the session is exactly as before the batch.
    fn commit_or_rollback(
        &mut self,
        mut p: Pending,
        flushed: &io::Result<()>,
    ) -> Result<Pending, BatchError> {
        let sess = self
            .sessions
            .get_mut(&p.session)
            .expect("a session stays open while its batch is pending");
        if let Err(err) = flushed {
            sess.net.rollback_journal();
            return Err(BatchError::Persist {
                message: err.to_string(),
            });
        }
        sess.net.commit_journal();
        if let Some(logged) = p.logged.take() {
            sess.seq += 1;
            sess.stats.wal_appends += 1;
            sess.stats.wal_bytes += logged.bytes;
            persist::absorb_committed(&mut sess.specs, &logged.commands);
        }
        Ok(p)
    }

    /// Serves `first`, a batch, and under group commit every batch ready
    /// behind it, as one group: each runs and appends its record, one
    /// `wait` on the newest epoch covers them all, and they settle in
    /// execution order. A later batch for a session already in the group
    /// — read-only ones too, which must not see undurable state — is
    /// deferred to `backlog`, as is the first non-batch job, which ends the
    /// drain; both are served before the channel is read again, so every
    /// session's batches and every non-batch job keep submission order.
    /// Without group commit the group never grows past `first`.
    fn run_group(&mut self, first: Job, backlog: &mut VecDeque<Job>) {
        let drain = self.group.is_some();
        let mut pending: Vec<(Pending, Reply, Instant)> = Vec::new();
        let mut deferred = Vec::new();
        let mut ender = None;
        let mut next = Some(first);
        let mut taken = 0;
        while let Some(job) = next.take() {
            taken += 1;
            match job {
                Job::Batch { session, .. }
                    if pending.iter().any(|(p, ..)| p.session == session) =>
                {
                    deferred.push(job)
                }
                Job::Batch {
                    session,
                    commands,
                    key,
                    reply,
                    enqueued,
                } => match self.execute(session, commands, key) {
                    Executed::Ran(p) if p.epoch() != 0 => pending.push((p, reply, enqueued)),
                    executed => {
                        let result = self.settle(executed, &Ok(()));
                        self.reply(reply, enqueued, result);
                    }
                },
                job => {
                    ender = Some(job);
                    break;
                }
            }
            if drain && taken < self.queue_capacity {
                next = backlog.pop_front().or_else(|| self.try_recv());
            }
        }
        let last = pending.iter().map(|(p, ..)| p.epoch()).max();
        let flushed = match (&self.group, last) {
            (Some(gc), Some(epoch)) => gc.wait(epoch),
            _ => Ok(()),
        };
        for (p, reply, enqueued) in pending {
            let result = self.settle(Executed::Ran(p), &flushed);
            self.reply(reply, enqueued, result);
        }
        for job in deferred.into_iter().chain(ender).rev() {
            backlog.push_front(job);
        }
    }

    /// Takes the next queued job without blocking.
    fn try_recv(&self) -> Option<Job> {
        let job = self.rx.try_recv().ok()?;
        self.depth.fetch_sub(1, Ordering::Relaxed);
        Some(job)
    }

    fn reply(&self, reply: Reply, enqueued: Instant, result: Result<BatchOutcome, BatchError>) {
        self.counters
            .observe_latency_us(enqueued.elapsed().as_micros() as u64);
        let _ = reply.send(result);
    }
}

type Reply = mpsc::Sender<Result<BatchOutcome, BatchError>>;

/// A batch's appended record.
struct Logged {
    commands: Vec<PersistCommand>,
    /// Frame size in bytes.
    bytes: u64,
    /// Group-commit epoch a flush must cover before the batch commits; 0
    /// when the store's own sync policy already settled durability.
    epoch: u64,
}

/// A batch that ran to completion, its session's change journal still
/// open, and awaits [`Worker::settle`].
struct Pending {
    session: SessionId,
    key: u64,
    outputs: Vec<Output>,
    /// Network stats before the batch ran.
    before: (Stats, ParStats),
    /// `None` when the batch logs nothing (read-only, or not logging).
    logged: Option<Logged>,
}

impl Pending {
    fn epoch(&self) -> u64 {
        self.logged.as_ref().map_or(0, |l| l.epoch)
    }
}

/// What [`Worker::execute`] hands to [`Worker::settle`].
enum Executed {
    /// Decided without running: a dedup skip or a refusal. Counts nothing
    /// beyond the batch itself.
    Done(Result<BatchOutcome, BatchError>),
    /// Failed while running or appending; already rolled back.
    Failed(SessionId, BatchError),
    /// Ran to completion; commits or rolls back at settle.
    Ran(Pending),
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Pre-flight validation: every referenced id must exist, counting ids the
/// batch itself will allocate before the referencing command runs. Runs
/// before any command executes, so an invalid batch is a no-op. With
/// `durable`, commands that cannot be persisted (custom constraint kinds)
/// are rejected too — everything that reaches the log must replay.
fn validate(net: &Network, commands: &[Command], durable: bool) -> Result<(), BatchError> {
    let mut n_vars = net.n_variables();
    let mut n_cons = net.n_constraint_slots();
    let invalid = |index: usize, reason: String| BatchError::InvalidCommand { index, reason };
    for (ix, cmd) in commands.iter().enumerate() {
        match cmd {
            Command::AddVariable { .. } => n_vars += 1,
            Command::Set { var, .. }
            | Command::Unset { var }
            | Command::Probe { var, .. }
            | Command::Get { var } => {
                if var.index() >= n_vars {
                    return Err(invalid(ix, format!("unknown variable {var}")));
                }
            }
            Command::AddConstraint { spec, args } => {
                if durable && matches!(spec, ConstraintSpec::Custom(_)) {
                    return Err(invalid(
                        ix,
                        "custom constraint kinds cannot be persisted on a durable engine".into(),
                    ));
                }
                for arg in args {
                    if arg.index() >= n_vars {
                        return Err(invalid(ix, format!("unknown argument {arg}")));
                    }
                }
                n_cons += 1;
            }
            Command::RemoveConstraint { constraint }
            | Command::EnableConstraint { constraint, .. } => {
                if constraint.index() >= n_cons {
                    return Err(invalid(ix, format!("unknown constraint {constraint}")));
                }
            }
            Command::SetValueChangeLimit { limit } => {
                if *limit == 0 {
                    return Err(invalid(ix, "value-change limit must be ≥ 1".into()));
                }
            }
            Command::SetKindEnabled { .. } | Command::DumpValues | Command::CheckAll => {}
        }
    }
    Ok(())
}

type CommandFailure = (usize, stem_core::Violation);

/// Applies a batch in order, consuming the commands: payloads (`Value`s,
/// names, argument vectors) move into the network instead of being cloned
/// per command.
fn apply_all(net: &mut Network, commands: Vec<Command>) -> Result<Vec<Output>, CommandFailure> {
    commands
        .into_iter()
        .enumerate()
        .map(|(ix, cmd)| apply_one(net, cmd).map_err(|v| (ix, v)))
        .collect()
}

fn apply_one(net: &mut Network, cmd: Command) -> Result<Output, stem_core::Violation> {
    use stem_core::Justification;
    Ok(match cmd {
        Command::AddVariable { name } => Output::Var(net.add_variable(name)),
        Command::Set { var, value, source } => {
            net.set(var, value, Justification::from(source))?;
            Output::Unit
        }
        Command::Unset { var } => {
            net.reset(var);
            Output::Unit
        }
        Command::Probe { var, value } => Output::Feasible(net.can_be_set_to(var, value)),
        // The clone here builds the reply's owned copy — O(1) for every
        // value shape but `List` (see the cheap-clone contract on `Value`).
        Command::Get { var } => Output::Value(net.value(var).clone()),
        Command::AddConstraint { spec, args } => {
            Output::Constraint(net.add_constraint_rc(spec.build(), args)?)
        }
        Command::RemoveConstraint { constraint } => {
            net.remove_constraint(constraint);
            Output::Unit
        }
        Command::EnableConstraint {
            constraint,
            enabled,
        } => {
            net.set_constraint_enabled(constraint, enabled);
            Output::Unit
        }
        Command::SetKindEnabled { kind_name, enabled } => {
            Output::Count(net.set_kind_enabled(&kind_name, enabled))
        }
        Command::SetValueChangeLimit { limit } => {
            net.set_value_change_limit(limit);
            Output::Unit
        }
        Command::DumpValues => Output::Dump(
            net.variables()
                .map(|v| {
                    (
                        net.var_name(v).to_string(),
                        net.value(v).clone(),
                        net.justification(v).clone(),
                    )
                })
                .collect(),
        ),
        Command::CheckAll => Output::Violations(net.check_all()),
    })
}
