//! Engine- and session-level observability counters.
//!
//! Engine-wide counters are lock-free atomics shared by every worker and
//! read by [`crate::Engine::stats`] without stopping traffic. Per-session
//! counters live inside the owning worker and are fetched over the same
//! queue the session's batches use, so a stats read also measures queue
//! health.
//!
//! Each counter is declared once, in the [`EngineStats`] or
//! [`SessionStats`] table below. The tables generate the structs, the
//! atomic twin workers update, the per-batch fold of network counters and
//! the iteration the wire codec and [`EngineStats::absorb`] run over, so
//! adding a counter is one table line plus its increment site.

use std::sync::atomic::{AtomicU64, Ordering};

use stem_core::{ParStats, Stats};

/// Upper bounds (exclusive, in microseconds) of the coarse batch-latency
/// buckets; the final bucket is unbounded. Latency is measured from
/// enqueue to reply, so it includes queue wait.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 6] = [50, 200, 1_000, 5_000, 20_000, 100_000];

/// Number of latency buckets (the bounds plus one overflow bucket).
pub const N_LATENCY_BUCKETS: usize = LATENCY_BUCKET_BOUNDS_US.len() + 1;

/// Declares a stats struct from its counter table.
///
/// Every table entry is a documented `u64` counter. An entry written
/// `name = net.field` or `name = par.field` is *network-derived*: its
/// source is that field of the session network's core
/// [`Stats`](stem_core::Stats) or [`ParStats`](stem_core::ParStats). The
/// fields after the `;` are not counters and are declared as written.
///
/// The plain form declares the struct with `counters()`/`counters_mut()`
/// (table order, which is also the wire order) and `read_network`. The
/// `as $atomic` form also declares the lock-free twin, whose extra fields
/// must be `[u64; N]` histograms, with `snapshot()` and `add_network()`.
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident as $atomic:ident {
            $( $(#[$doc:meta])* $field:ident $(= $src:ident . $from:ident)?, )*
            ;
            $( $(#[$xdoc:meta])* $xfield:ident: [u64; $n:expr], )*
        }
    ) => {
        counter_table! {
            $(#[$meta])*
            pub struct $name {
                $( $(#[$doc])* $field $(= $src . $from)?, )*
                ;
                $( $(#[$xdoc])* $xfield: [u64; $n], )*
            }
        }

        #[doc = concat!("Lock-free twin of [`", stringify!($name), "`], updated by workers.")]
        #[derive(Debug, Default)]
        pub(crate) struct $atomic {
            $( $(#[$doc])* pub $field: AtomicU64, )*
            $( $(#[$xdoc])* pub $xfield: [AtomicU64; $n], )*
        }

        impl $atomic {
            pub fn snapshot(&self) -> $name {
                $name {
                    $( $field: self.$field.load(Ordering::Relaxed), )*
                    $( $xfield: std::array::from_fn(|i| self.$xfield[i].load(Ordering::Relaxed)), )*
                }
            }

            /// Adds one committed batch's movement to every
            /// network-derived counter: `after - before`, each side a
            /// network's `(stats(), par_stats())`. A counter that did not
            /// move costs no atomic add.
            pub fn add_network(&self, before: &(Stats, ParStats), after: &(Stats, ParStats)) {
                let (mut from, mut to) = ($name::default(), $name::default());
                from.read_network(&before.0, &before.1);
                to.read_network(&after.0, &after.1);
                $(
                    let delta = to.$field.saturating_sub(from.$field);
                    if delta != 0 {
                        self.$field.fetch_add(delta, Ordering::Relaxed);
                    }
                )*
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$doc:meta])* $field:ident $(= $src:ident . $from:ident)?, )*
            ;
            $( $(#[$xdoc:meta])* $xfield:ident: $xty:ty, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$doc])* pub $field: u64, )*
            $( $(#[$xdoc])* pub $xfield: $xty, )*
        }

        impl $name {
            /// Every counter's value, in table order.
            pub fn counters(&self) -> impl Iterator<Item = u64> {
                [$( self.$field ),*].into_iter()
            }

            /// Every counter, mutably, in table order.
            pub fn counters_mut(&mut self) -> impl Iterator<Item = &mut u64> {
                [$( &mut self.$field ),*].into_iter()
            }

            /// Overwrites every network-derived counter with its source
            /// field in a network's `stats()` and `par_stats()`.
            pub(crate) fn read_network(&mut self, stats: &Stats, par: &ParStats) {
                $( network_source! { self.$field, stats, par, $($src . $from)? } )*
            }
        }
    };
}

/// One table entry's line of `read_network`. A separate rule because the
/// `net`/`par` tokens come from the table, outside the hygiene of the
/// locals `counter_table!` declares.
macro_rules! network_source {
    ($dst:expr, $stats:ident, $par:ident, ) => {};
    ($dst:expr, $stats:ident, $par:ident, net . $from:ident) => {
        $dst = $stats.$from;
    };
    ($dst:expr, $stats:ident, $par:ident, par . $from:ident) => {
        $dst = $par.$from;
    };
}

counter_table! {
    /// Point-in-time snapshot of the engine-wide counters
    /// ([`crate::Engine::stats`]). Network-derived counters sum the
    /// movement of committed batches only.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct EngineStats as Counters {
        /// Batches processed (committed + rolled back + refused).
        batches,
        /// Batches committed.
        batches_ok,
        /// Batches rolled back on a constraint violation (includes
        /// step-budget aborts).
        violations,
        /// Rollbacks performed (violations + panics + failed log writes).
        rollbacks,
        /// Batches that panicked (each also quarantined its session).
        panics,
        /// Propagation waves (cycles) run across all sessions.
        waves = net.cycles,
        /// Variable assignments performed across all sessions.
        assignments = net.assignments,
        /// Sessions materialised in workers.
        sessions_created,
        /// Quarantine events.
        sessions_quarantined,
        /// `try_submit` calls refused because a queue was full.
        backpressure_rejections,
        /// Highest observed per-worker queue depth (queued + being
        /// submitted). A mark, not a volume: [`EngineStats::absorb`] takes
        /// the max, and [`crate::Engine::stats_and_reset_queue_hwm`] resets
        /// it.
        queue_depth_hwm,
        /// Propagation plans compiled across all sessions (including
        /// uncompilable verdicts).
        plan_compiles = net.plan_compiles,
        /// `set`s served by a cached propagation plan across all sessions.
        plan_cache_hits = net.plan_cache_hits,
        /// Cached plans discarded after structural edits, across all
        /// sessions.
        plan_cache_invalidations = net.plan_cache_invalidations,
        /// Plan replays committed through the cone kernels, inline or on
        /// the worker pool, across all sessions (0 unless
        /// [`crate::EngineConfig::propagation_threads`] exceeds 1). Every
        /// cache hit on a thread-enabled session lands in exactly one of
        /// this counter or [`EngineStats::parallel_fallbacks`].
        plan_replays_parallel = par.plan_replays_parallel,
        /// Cones executed by committed kernel replays, across all sessions.
        cones_executed = par.cones_executed,
        /// Cached replays that ran sequentially despite an enabled thread
        /// budget: a kernel-less kind or non-plain write target in the
        /// plan, or a kernel attempt that aborted (overwrite denial /
        /// violation) into the sequential rerun.
        parallel_fallbacks = par.parallel_fallbacks,
        /// Sessions reconstructed from the store at [`crate::Engine::open`]
        /// (snapshot image + log-tail replay).
        recoveries,
        /// Shipped WAL segments ingested by this engine in replica mode
        /// ([`crate::Engine::ingest_segment`]).
        segments_ingested,
        /// WAL records applied during replica segment ingestion (skips and
        /// anomalies not included).
        records_replayed,
        /// Keyed batches acknowledged without re-applying because their
        /// idempotence key was at or below the session's high-water mark
        /// ([`crate::Engine::submit_keyed`]) — each one is a client
        /// resubmit that duplicate suppression absorbed.
        dedup_skips,
        /// Domain tightenings landed by domain propagators across all
        /// sessions: interval/finite-set writes that strictly narrowed a
        /// variable's domain.
        domain_tightenings = net.domain_tightenings,
        /// Constraint activations pruned because the constraint was
        /// runtime-marked subsumed (entailed) at the time, across all
        /// sessions — agenda dispatch and compiled-plan replay alike.
        subsumed_pruned = net.subsumed_pruned,
        /// Domain wipeouts (a propagator emptied a domain, aborting and
        /// rolling back its batch) across all sessions.
        wipeouts = net.wipeouts,
        /// Write-ahead log records appended since the store was opened
        /// (read from the store by [`crate::Engine::stats`]; 0 on a
        /// non-durable engine).
        wal_appends,
        /// Write-ahead log bytes appended since the store was opened.
        wal_bytes,
        /// Group-commit flushes completed (each covering ≥1 commit); 0
        /// unless the engine runs [`crate::Durability::GroupCommit`].
        wal_group_syncs,
        /// Snapshot checkpoints written since the store was opened.
        snapshots_written,
        ;
        /// Batch latency histogram; bucket `i` counts batches with
        /// enqueue-to-reply latency under [`LATENCY_BUCKET_BOUNDS_US`]`[i]`
        /// µs (last bucket: everything slower).
        latency_buckets: [u64; N_LATENCY_BUCKETS],
    }
}

counter_table! {
    /// Per-session counters ([`crate::Engine::session_stats`]), maintained
    /// by the owning worker. Network-derived counters copy the session's
    /// live network.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct SessionStats {
        /// Batches processed for this session.
        batches,
        /// Batches committed.
        batches_ok,
        /// Batches rolled back on violation.
        violations,
        /// Batches rolled back after a panic.
        panics,
        /// Propagation waves run on behalf of committed work.
        waves,
        /// Assignments performed by committed work.
        assignments,
        /// Variables currently in the session's network.
        n_variables,
        /// Active constraints currently in the session's network.
        n_constraints,
        /// Propagation plans this session's network has compiled
        /// (including uncompilable verdicts).
        plan_compiles = net.plan_compiles,
        /// `set`s this session served from a cached propagation plan.
        plan_cache_hits = net.plan_cache_hits,
        /// Cached plans this session discarded after structural edits.
        plan_cache_invalidations = net.plan_cache_invalidations,
        /// Plan replays this session committed through the cone kernels.
        /// Reconciles with [`SessionStats::plan_cache_hits`]: on a
        /// thread-enabled session every cached replay counts in exactly
        /// one of this counter or [`SessionStats::parallel_fallbacks`].
        plan_replays_parallel = par.plan_replays_parallel,
        /// Cones executed by this session's committed kernel replays.
        cones_executed = par.cones_executed,
        /// Cached replays that ran sequentially despite the thread budget
        /// (kernel-less kind, non-plain write target, or an aborted kernel
        /// attempt).
        parallel_fallbacks = par.parallel_fallbacks,
        /// Domain tightenings this session's propagators landed.
        domain_tightenings = net.domain_tightenings,
        /// Activations this session pruned via runtime subsumption marks.
        subsumed_pruned = net.subsumed_pruned,
        /// Domain wipeouts this session's propagators raised.
        wipeouts = net.wipeouts,
        /// WAL records this session's committed batches appended — the
        /// per-session share of [`EngineStats::wal_appends`], counted by
        /// the owning worker at commit time (0 on non-durable engines;
        /// replayed recovery records are not re-counted).
        wal_appends,
        /// Frame bytes this session's committed batches appended — the
        /// per-session share of [`EngineStats::wal_bytes`].
        wal_bytes,
        ;
        /// Whether the session is quarantined.
        quarantined: bool,
    }
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
}

impl EngineStats {
    /// Folds another engine's snapshot into this one — the cluster tier's
    /// per-shard roll-up. Counters add; the queue-depth high-water mark
    /// takes the max (it is a mark, not a volume); latency buckets add
    /// elementwise.
    pub fn absorb(&mut self, other: &EngineStats) {
        let hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
        for (mine, theirs) in self.counters_mut().zip(other.counters()) {
            *mine += theirs;
        }
        self.queue_depth_hwm = hwm;
        for (mine, theirs) in self.latency_buckets.iter_mut().zip(other.latency_buckets) {
            *mine += theirs;
        }
    }
}
