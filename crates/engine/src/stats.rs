//! Engine- and session-level observability counters.
//!
//! Engine-wide counters are lock-free atomics shared by every worker and
//! read by [`crate::Engine::stats`] without stopping traffic. Per-session
//! counters live inside the owning worker and are fetched over the same
//! queue the session's batches use, so a stats read also measures queue
//! health.

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (exclusive, in microseconds) of the coarse batch-latency
/// buckets; the final bucket is unbounded. Latency is measured from
/// enqueue to reply, so it includes queue wait.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 6] = [50, 200, 1_000, 5_000, 20_000, 100_000];

/// Number of latency buckets (the bounds plus one overflow bucket).
pub const N_LATENCY_BUCKETS: usize = LATENCY_BUCKET_BOUNDS_US.len() + 1;

/// Lock-free engine-wide counters, updated by workers.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub batches: AtomicU64,
    pub batches_ok: AtomicU64,
    pub violations: AtomicU64,
    pub rollbacks: AtomicU64,
    pub panics: AtomicU64,
    pub waves: AtomicU64,
    pub assignments: AtomicU64,
    pub sessions_created: AtomicU64,
    pub sessions_quarantined: AtomicU64,
    pub backpressure_rejections: AtomicU64,
    pub queue_depth_hwm: AtomicU64,
    pub plan_compiles: AtomicU64,
    pub plan_cache_hits: AtomicU64,
    pub plan_cache_invalidations: AtomicU64,
    pub plan_replays_parallel: AtomicU64,
    pub cones_executed: AtomicU64,
    pub cones_stolen: AtomicU64,
    pub parallel_fallbacks: AtomicU64,
    pub recoveries: AtomicU64,
    pub segments_ingested: AtomicU64,
    pub records_replayed: AtomicU64,
    pub dedup_skips: AtomicU64,
    pub domain_tightenings: AtomicU64,
    pub subsumed_pruned: AtomicU64,
    pub wipeouts: AtomicU64,
    pub latency_buckets: [AtomicU64; N_LATENCY_BUCKETS],
}

impl Counters {
    /// Raises the queue-depth high-water mark to at least `depth`.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Files one batch latency into its coarse bucket.
    pub fn observe_latency_us(&self, us: u64) {
        let ix = LATENCY_BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us < bound)
            .unwrap_or(N_LATENCY_BUCKETS - 1);
        self.latency_buckets[ix].fetch_add(1, Ordering::Relaxed);
    }

    /// [`Counters::snapshot`] that also resets the queue-depth high-water
    /// mark: the returned snapshot carries the mark as of the read, and
    /// subsequent observations rebuild it from zero. Atomic (`swap`), so
    /// depths observed concurrently with the reset are never lost — they
    /// either land in this snapshot or seed the next epoch.
    pub fn snapshot_and_reset_queue_hwm(&self) -> EngineStats {
        let mut s = self.snapshot();
        s.queue_depth_hwm = self.queue_depth_hwm.swap(0, Ordering::Relaxed);
        s
    }

    pub fn snapshot(&self) -> EngineStats {
        let mut latency_buckets = [0u64; N_LATENCY_BUCKETS];
        for (out, bucket) in latency_buckets.iter_mut().zip(&self.latency_buckets) {
            *out = bucket.load(Ordering::Relaxed);
        }
        EngineStats {
            batches: self.batches.load(Ordering::Relaxed),
            batches_ok: self.batches_ok.load(Ordering::Relaxed),
            violations: self.violations.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            waves: self.waves.load(Ordering::Relaxed),
            assignments: self.assignments.load(Ordering::Relaxed),
            sessions_created: self.sessions_created.load(Ordering::Relaxed),
            sessions_quarantined: self.sessions_quarantined.load(Ordering::Relaxed),
            backpressure_rejections: self.backpressure_rejections.load(Ordering::Relaxed),
            queue_depth_hwm: self.queue_depth_hwm.load(Ordering::Relaxed),
            plan_compiles: self.plan_compiles.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_invalidations: self.plan_cache_invalidations.load(Ordering::Relaxed),
            plan_replays_parallel: self.plan_replays_parallel.load(Ordering::Relaxed),
            cones_executed: self.cones_executed.load(Ordering::Relaxed),
            cones_stolen: self.cones_stolen.load(Ordering::Relaxed),
            parallel_fallbacks: self.parallel_fallbacks.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            segments_ingested: self.segments_ingested.load(Ordering::Relaxed),
            records_replayed: self.records_replayed.load(Ordering::Relaxed),
            dedup_skips: self.dedup_skips.load(Ordering::Relaxed),
            domain_tightenings: self.domain_tightenings.load(Ordering::Relaxed),
            subsumed_pruned: self.subsumed_pruned.load(Ordering::Relaxed),
            wipeouts: self.wipeouts.load(Ordering::Relaxed),
            wal_appends: 0,
            wal_bytes: 0,
            wal_group_syncs: 0,
            snapshots_written: 0,
            latency_buckets,
        }
    }
}

/// Point-in-time snapshot of the engine-wide counters
/// ([`crate::Engine::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Batches processed (committed + rolled back + refused).
    pub batches: u64,
    /// Batches committed.
    pub batches_ok: u64,
    /// Batches rolled back on a constraint violation (includes step-budget
    /// aborts).
    pub violations: u64,
    /// Rollbacks performed (violations + panics).
    pub rollbacks: u64,
    /// Batches that panicked (each also quarantined its session).
    pub panics: u64,
    /// Propagation waves (cycles) run across all sessions.
    pub waves: u64,
    /// Variable assignments performed across all sessions.
    pub assignments: u64,
    /// Sessions materialised in workers.
    pub sessions_created: u64,
    /// Quarantine events.
    pub sessions_quarantined: u64,
    /// `try_submit` calls refused because a queue was full.
    pub backpressure_rejections: u64,
    /// Highest observed per-worker queue depth (queued + being submitted).
    pub queue_depth_hwm: u64,
    /// Propagation plans compiled across all sessions (including
    /// uncompilable verdicts).
    pub plan_compiles: u64,
    /// `set`s served by a cached propagation plan across all sessions.
    pub plan_cache_hits: u64,
    /// Cached plans discarded after structural edits, across all sessions.
    pub plan_cache_invalidations: u64,
    /// Plan replays committed through the cone kernels, inline or on the
    /// worker pool, across all sessions (0 unless
    /// [`crate::EngineConfig::propagation_threads`] exceeds 1). Every
    /// cache hit on a thread-enabled session lands in exactly one of this
    /// counter or [`EngineStats::parallel_fallbacks`].
    pub plan_replays_parallel: u64,
    /// Cones executed by committed kernel replays, across all sessions.
    pub cones_executed: u64,
    /// Pool tasks claimed by a worker other than the one they were dealt
    /// to (work stealing), summed over committed parallel replays.
    /// Schedule-dependent — excluded from determinism digests.
    pub cones_stolen: u64,
    /// Cached replays that ran sequentially despite an enabled thread
    /// budget: a kernel-less kind or non-plain write target in the plan,
    /// or a kernel attempt that aborted (overwrite denial / violation)
    /// into the sequential rerun.
    pub parallel_fallbacks: u64,
    /// Sessions reconstructed from the store at [`crate::Engine::open`]
    /// (snapshot image + log-tail replay).
    pub recoveries: u64,
    /// Shipped WAL segments ingested by this engine in replica mode
    /// ([`crate::Engine::ingest_segment`]).
    pub segments_ingested: u64,
    /// WAL records applied during replica segment ingestion (skips and
    /// anomalies not included).
    pub records_replayed: u64,
    /// Keyed batches acknowledged without re-applying because their
    /// idempotence key was at or below the session's high-water mark
    /// ([`crate::Engine::submit_keyed`]) — each one is a client resubmit
    /// that duplicate suppression absorbed.
    pub dedup_skips: u64,
    /// Domain tightenings landed by domain propagators across all
    /// sessions: interval/finite-set writes that strictly narrowed a
    /// variable's domain.
    pub domain_tightenings: u64,
    /// Constraint activations pruned because the constraint was
    /// runtime-marked subsumed (entailed) at the time, across all
    /// sessions — agenda dispatch and compiled-plan replay alike.
    pub subsumed_pruned: u64,
    /// Domain wipeouts (a propagator emptied a domain, aborting and
    /// rolling back its batch) across all sessions.
    pub wipeouts: u64,
    /// Write-ahead log records appended since the store was opened
    /// (filled from the store by [`crate::Engine::stats`]; 0 on a
    /// non-durable engine).
    pub wal_appends: u64,
    /// Write-ahead log bytes appended since the store was opened.
    pub wal_bytes: u64,
    /// Group-commit flushes completed (each covering ≥1 commit); 0 unless
    /// the engine runs [`crate::Durability::GroupCommit`].
    pub wal_group_syncs: u64,
    /// Snapshot checkpoints written since the store was opened.
    pub snapshots_written: u64,
    /// Batch latency histogram; bucket `i` counts batches with
    /// enqueue-to-reply latency under [`LATENCY_BUCKET_BOUNDS_US`]`[i]` µs
    /// (last bucket: everything slower).
    pub latency_buckets: [u64; N_LATENCY_BUCKETS],
}

/// Per-session counters ([`crate::Engine::session_stats`]), maintained by
/// the owning worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Batches processed for this session.
    pub batches: u64,
    /// Batches committed.
    pub batches_ok: u64,
    /// Batches rolled back on violation.
    pub violations: u64,
    /// Batches rolled back after a panic.
    pub panics: u64,
    /// Propagation waves run on behalf of committed work.
    pub waves: u64,
    /// Assignments performed by committed work.
    pub assignments: u64,
    /// Variables currently in the session's network.
    pub n_variables: u64,
    /// Active constraints currently in the session's network.
    pub n_constraints: u64,
    /// Times the session's network took a full `snapshot()` — stays 0 as
    /// long as every batch rolls back through the change journal.
    pub net_snapshots: u64,
    /// Times the session's network was cloned (clone-and-swap rollback
    /// path; stays 0 under the default journal strategy now that every
    /// command — including constraint removal — is journalable).
    pub net_clones: u64,
    /// Propagation plans this session's network has compiled (including
    /// uncompilable verdicts).
    pub plan_compiles: u64,
    /// `set`s this session served from a cached propagation plan.
    pub plan_cache_hits: u64,
    /// Cached plans this session discarded after structural edits.
    pub plan_cache_invalidations: u64,
    /// Plan replays this session committed through the cone kernels.
    /// Reconciles with [`SessionStats::plan_cache_hits`]: on a
    /// thread-enabled session every cached replay counts in exactly one
    /// of this counter or [`SessionStats::parallel_fallbacks`].
    pub plan_replays_parallel: u64,
    /// Cones executed by this session's committed kernel replays.
    pub cones_executed: u64,
    /// Pool tasks stolen during this session's committed parallel
    /// replays. Schedule-dependent; diagnostic only.
    pub cones_stolen: u64,
    /// Cached replays that ran sequentially despite the thread budget
    /// (kernel-less kind, non-plain write target, or an aborted kernel
    /// attempt).
    pub parallel_fallbacks: u64,
    /// Domain tightenings this session's propagators landed (cumulative,
    /// mirroring the network's counter).
    pub domain_tightenings: u64,
    /// Activations this session pruned via runtime subsumption marks.
    pub subsumed_pruned: u64,
    /// Domain wipeouts this session's propagators raised.
    pub wipeouts: u64,
    /// WAL records this session's committed batches appended — the
    /// per-session share of [`EngineStats::wal_appends`], counted by the
    /// owning worker at commit time (0 on non-durable engines; replayed
    /// recovery records are not re-counted).
    pub wal_appends: u64,
    /// Frame bytes this session's committed batches appended — the
    /// per-session share of [`EngineStats::wal_bytes`].
    pub wal_bytes: u64,
    /// Whether the session is quarantined.
    pub quarantined: bool,
}

impl EngineStats {
    /// Folds another engine's snapshot into this one — the cluster tier's
    /// per-shard roll-up. Counters add; the queue-depth high-water mark
    /// takes the max (it is a mark, not a volume); latency buckets add
    /// elementwise.
    pub fn absorb(&mut self, other: &EngineStats) {
        let EngineStats {
            batches,
            batches_ok,
            violations,
            rollbacks,
            panics,
            waves,
            assignments,
            sessions_created,
            sessions_quarantined,
            backpressure_rejections,
            queue_depth_hwm,
            plan_compiles,
            plan_cache_hits,
            plan_cache_invalidations,
            plan_replays_parallel,
            cones_executed,
            cones_stolen,
            parallel_fallbacks,
            recoveries,
            segments_ingested,
            records_replayed,
            dedup_skips,
            domain_tightenings,
            subsumed_pruned,
            wipeouts,
            wal_appends,
            wal_bytes,
            wal_group_syncs,
            snapshots_written,
            latency_buckets,
        } = other;
        self.batches += batches;
        self.batches_ok += batches_ok;
        self.violations += violations;
        self.rollbacks += rollbacks;
        self.panics += panics;
        self.waves += waves;
        self.assignments += assignments;
        self.sessions_created += sessions_created;
        self.sessions_quarantined += sessions_quarantined;
        self.backpressure_rejections += backpressure_rejections;
        self.queue_depth_hwm = self.queue_depth_hwm.max(*queue_depth_hwm);
        self.plan_compiles += plan_compiles;
        self.plan_cache_hits += plan_cache_hits;
        self.plan_cache_invalidations += plan_cache_invalidations;
        self.plan_replays_parallel += plan_replays_parallel;
        self.cones_executed += cones_executed;
        self.cones_stolen += cones_stolen;
        self.parallel_fallbacks += parallel_fallbacks;
        self.recoveries += recoveries;
        self.segments_ingested += segments_ingested;
        self.records_replayed += records_replayed;
        self.dedup_skips += dedup_skips;
        self.domain_tightenings += domain_tightenings;
        self.subsumed_pruned += subsumed_pruned;
        self.wipeouts += wipeouts;
        self.wal_appends += wal_appends;
        self.wal_bytes += wal_bytes;
        self.wal_group_syncs += wal_group_syncs;
        self.snapshots_written += snapshots_written;
        for (mine, theirs) in self.latency_buckets.iter_mut().zip(latency_buckets) {
            *mine += theirs;
        }
    }
}
