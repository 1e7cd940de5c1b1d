//! Group commit: commit-sync durability guarantees with shared fsyncs.
//!
//! Under [`Durability::GroupCommit`] every acknowledged batch is durable
//! before its reply — same contract as `CommitSync` — but appends share
//! fsyncs: across workers that wait at the same time, and within a worker
//! that drains its queue, appends every ready batch and waits once for
//! the group, a session's later batches stacked on its earlier ones. These
//! tests pin the contract (reopen equality, rollback of every batch a
//! failed flush covered, no failed record shadowing a later ack after a
//! transient fsync failure) and the amortisation (flushes ≤ appends, at
//! most half as many when one worker has a queue of pipelined batches,
//! and a handful for one session's 64 pipelined batches).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use stem_core::{Value, VarId};
use stem_engine::{
    BatchError, Command, Durability, DurabilityOptions, Engine, EngineConfig, Output, SessionId,
    Source,
};
use stem_persist::{failing_factory, flaky_sync_factory, ByteBudget};
use stem_testkit::TempDir;

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        mode: Durability::GroupCommit,
        checkpoint_bytes: 0,
        ..DurabilityOptions::default()
    }
}

fn set(ix: usize, v: i64) -> Command {
    Command::Set {
        var: VarId::from_index(ix),
        value: Value::Int(v),
        source: Source::User,
    }
}

fn dump(engine: &Engine, s: SessionId) -> Vec<(String, Value, stem_core::Justification)> {
    match engine
        .apply(s, vec![Command::DumpValues])
        .expect("dump")
        .outputs
        .remove(0)
    {
        Output::Dump(d) => d,
        other => panic!("expected dump, got {other:?}"),
    }
}

#[test]
fn concurrent_sessions_share_fsyncs_and_survive_reopen() {
    let dir = TempDir::new("concurrent");
    let n_threads = 4usize;
    let batches_per = 25u64;
    let expected: Vec<_>;
    {
        let engine = Arc::new(
            Engine::open_with_config(
                &dir,
                EngineConfig {
                    workers: 4,
                    ..EngineConfig::default()
                },
                opts(),
            )
            .unwrap(),
        );
        let sessions: Vec<SessionId> = (0..n_threads).map(|_| engine.create_session()).collect();
        std::thread::scope(|scope| {
            for &s in &sessions {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    engine
                        .apply(s, vec![Command::AddVariable { name: "v".into() }])
                        .unwrap();
                    for i in 0..batches_per {
                        engine.apply(s, vec![set(0, i as i64)]).unwrap();
                    }
                });
            }
        });
        let stats = engine.stats();
        let appends = n_threads as u64 * (batches_per + 1);
        assert_eq!(stats.wal_appends, appends);
        assert!(stats.wal_group_syncs > 0, "coordinator never flushed");
        assert!(
            stats.wal_group_syncs <= stats.wal_appends,
            "more flushes ({}) than appends ({})",
            stats.wal_group_syncs,
            stats.wal_appends
        );
        expected = sessions.iter().map(|&s| dump(&engine, s)).collect();
        // Drop (not clean shutdown): acknowledged work must already be
        // on disk.
    }
    // Every acknowledged batch was durable at ack time, so reopening
    // under any mode rebuilds exactly what the writers saw.
    let engine = Engine::open(&dir).unwrap();
    for (ix, want) in expected.iter().enumerate() {
        assert_eq!(&dump(&engine, SessionId(ix as u64)), want);
    }
}

#[test]
fn failed_group_flush_rolls_the_batch_back() {
    let dir = TempDir::new("flushfail");
    // Budget covers the store magic and the first batch; the second
    // batch's group flush hits the wall and must report Persist — with
    // the in-memory state rolled back, exactly like inline commit-sync.
    let failing = DurabilityOptions {
        file_factory: Some(failing_factory(ByteBudget::new(96))),
        ..opts()
    };
    let engine = Engine::open_with_config(
        &dir,
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        failing,
    )
    .unwrap();
    let s = engine.create_session();
    engine
        .apply(
            s,
            vec![Command::AddVariable { name: "v".into() }, set(0, 1)],
        )
        .unwrap();
    let err = engine.apply(s, vec![set(0, 2), set(0, 3)]).unwrap_err();
    assert!(matches!(err, BatchError::Persist { .. }), "{err}");
    assert_eq!(
        dump(&engine, s)[0].1,
        Value::Int(1),
        "batch not rolled back"
    );
}

fn one_worker() -> EngineConfig {
    EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }
}

#[test]
fn one_flush_covers_a_sessions_pipelined_batches() {
    const TICKETS: u64 = 64;
    let dir = TempDir::new("stacked-sets");
    let engine = Engine::open_with_config(&dir, one_worker(), opts()).unwrap();
    let s = engine.create_session();
    engine
        .apply(s, vec![Command::AddVariable { name: "x".into() }])
        .unwrap();
    let before = engine.stats();
    // Each batch of the session runs stacked on the undurable one before
    // it, so the group does not stop at one batch per session.
    let tickets: Vec<_> = (0..TICKETS)
        .map(|i| engine.submit(s, vec![set(0, i as i64)]))
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let after = engine.stats();
    let appends = after.wal_appends - before.wal_appends;
    let syncs = after.wal_group_syncs - before.wal_group_syncs;
    assert_eq!(appends, TICKETS);
    assert!(
        syncs <= 4,
        "{syncs} flushes for {appends} pipelined appends of one session"
    );
    let want = dump(&engine, s);
    assert_eq!(want[0].1, Value::Int(TICKETS as i64 - 1));
    drop(engine);
    let engine = Engine::open(&dir).unwrap();
    assert_eq!(dump(&engine, s), want, "after reopen");
}

/// A transient fsync failure, then a clean commit: the failed batch's
/// record reached the file before its sync failed, and the next commit
/// reuses its sequence number, so the failed record must not replay.
fn transient_fsync_failure_never_shadows_a_later_ack(mode: Durability) {
    let dir = TempDir::new("flaky-sync");
    let fail = Arc::new(AtomicBool::new(false));
    let flaky = DurabilityOptions {
        mode,
        checkpoint_bytes: 0,
        file_factory: Some(flaky_sync_factory(Arc::clone(&fail))),
        ..DurabilityOptions::default()
    };
    let engine = Engine::open_with_config(&dir, one_worker(), flaky).unwrap();
    let s = engine.create_session();
    engine
        .apply(
            s,
            vec![Command::AddVariable { name: "x".into() }, set(0, 1)],
        )
        .unwrap();
    fail.store(true, Ordering::SeqCst);
    // Pipelined, so under group commit the second runs stacked on the
    // first and fails with it.
    let tickets = [
        engine.submit(s, vec![set(0, 2)]),
        engine.submit(s, vec![set(0, 5)]),
    ];
    for ticket in tickets {
        let err = ticket.wait().unwrap_err();
        assert!(matches!(err, BatchError::Persist { .. }), "{mode:?}: {err}");
    }
    assert_eq!(
        dump(&engine, s)[0].1,
        Value::Int(1),
        "{mode:?}: rolled back"
    );
    fail.store(false, Ordering::SeqCst);
    engine
        .apply(s, vec![set(0, 3)])
        .expect("the disk works again");
    drop(engine);

    let engine = Engine::open(&dir).unwrap();
    assert_eq!(
        dump(&engine, s)[0].1,
        Value::Int(3),
        "{mode:?}: acked batch lost"
    );
    engine.apply(s, vec![set(0, 4)]).unwrap();
    drop(engine);
    let engine = Engine::open(&dir).unwrap();
    assert_eq!(
        dump(&engine, s)[0].1,
        Value::Int(4),
        "{mode:?}: after reopen"
    );
}

#[test]
fn transient_fsync_failure_under_group_commit() {
    transient_fsync_failure_never_shadows_a_later_ack(Durability::GroupCommit);
}

#[test]
fn transient_fsync_failure_under_commit_sync() {
    transient_fsync_failure_never_shadows_a_later_ack(Durability::CommitSync);
}

#[test]
fn a_keyed_resubmit_waits_for_its_original_to_settle() {
    let dir = TempDir::new("keyed-stack");
    let engine = Engine::open_with_config(&dir, one_worker(), opts()).unwrap();
    let s = engine.create_session();
    engine
        .submit_keyed(s, vec![Command::AddVariable { name: "x".into() }], 1)
        .wait()
        .unwrap();
    let before = engine.stats().wal_appends;
    let tickets = [
        engine.submit_keyed(s, vec![set(0, 5)], 2),
        // A resubmit of key 2: skipped once the original commits.
        engine.submit_keyed(s, vec![set(0, 99)], 2),
        engine.submit_keyed(s, vec![set(0, 6)], 3),
        engine.submit_keyed(s, vec![set(0, 7)], 0),
    ];
    let outputs: Vec<usize> = tickets
        .into_iter()
        .map(|t| t.wait().unwrap().outputs.len())
        .collect();
    assert_eq!(outputs, [1, 0, 1, 1], "the resubmit is a skip");
    assert_eq!(engine.stats().wal_appends - before, 3);
    assert_eq!(dump(&engine, s)[0].1, Value::Int(7));
}

#[test]
fn group_commit_reports_its_label_and_mode() {
    let dir = TempDir::new("label");
    let engine = Engine::open_with_config(&dir, EngineConfig::default(), opts()).unwrap();
    assert_eq!(engine.durability(), Some(Durability::GroupCommit));
    // Off/interval engines never tick the group-sync counter.
    engine.shutdown();
    let plain = Engine::open(&dir).unwrap();
    let s = SessionId(0);
    let _ = plain.apply(s, vec![Command::DumpValues]);
    assert_eq!(plain.stats().wal_group_syncs, 0);
}

// ---------------------------------------------------------------------
// Worker-side groups: one worker, many sessions, pipelined tickets
// ---------------------------------------------------------------------

/// SplitMix64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Per session: `x0 = x1`, `x1 ≤ 900`, and a free `x2`.
fn setup() -> Vec<Command> {
    let v = VarId::from_index;
    vec![
        Command::AddVariable { name: "x0".into() },
        Command::AddVariable { name: "x1".into() },
        Command::AddVariable { name: "x2".into() },
        Command::AddConstraint {
            spec: stem_engine::ConstraintSpec::Equality,
            args: vec![v(0), v(1)],
        },
        Command::AddConstraint {
            spec: stem_engine::ConstraintSpec::LeConst(Value::Int(900)),
            args: vec![v(1)],
        },
    ]
}

/// A seeded stream of `(session, batch)` over `sessions` sessions: value
/// sets (about one in ten violates the guard), reads, read-only batches,
/// and structural edits. Regenerated per use since `Command` is not
/// `Clone`.
fn stream(seed: u64, sessions: u64, n: usize) -> Vec<(u64, Vec<Command>)> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|_| {
            let s = rng.below(sessions);
            let batch = match rng.below(10) {
                0 => vec![Command::Get {
                    var: VarId::from_index(1),
                }],
                1 => vec![Command::AddVariable {
                    name: format!("extra{}", rng.below(1000)),
                }],
                2 => vec![
                    set(2, rng.below(1000) as i64),
                    Command::Unset {
                        var: VarId::from_index(2),
                    },
                ],
                _ => vec![
                    set(0, rng.below(1000) as i64),
                    Command::Get {
                        var: VarId::from_index(1),
                    },
                ],
            };
            (s, batch)
        })
        .collect()
}

type Dump = Vec<(String, Value, stem_core::Justification)>;

/// Replays `batches` into one session of a fresh volatile engine and
/// dumps it.
fn volatile_replay(session: SessionId, batches: Vec<Vec<Command>>) -> Dump {
    let twin = Engine::new(1);
    for _ in 0..=session.0 {
        twin.create_session();
    }
    twin.apply(session, setup()).unwrap();
    for batch in batches {
        let _ = twin.apply(session, batch);
    }
    dump(&twin, session)
}

#[test]
fn one_worker_amortises_fsyncs_across_pipelined_sessions_in_order() {
    const SESSIONS: u64 = 8;
    const BATCHES: usize = 512;
    let dir = TempDir::new("worker-group");
    let config = EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    };
    let engine = Engine::open_with_config(&dir, config, opts()).unwrap();
    let twin = Engine::with_config(config);
    let sessions: Vec<SessionId> = (0..SESSIONS).map(|_| engine.create_session()).collect();
    for &s in &sessions {
        assert_eq!(twin.create_session(), s);
        engine.apply(s, setup()).unwrap();
        twin.apply(s, setup()).unwrap();
    }

    let before = engine.stats();
    // Every ticket is submitted before any is redeemed, so the worker
    // finds a queue of ready batches each time it looks.
    let tickets: Vec<_> = stream(7, SESSIONS, BATCHES)
        .into_iter()
        .map(|(s, batch)| engine.submit(SessionId(s), batch))
        .collect();
    // Queued behind every ticket: a read-only batch per session, then
    // (blocking) each session's stats.
    let dumps: Vec<_> = sessions
        .iter()
        .map(|&s| engine.submit(s, vec![Command::DumpValues]))
        .collect();
    let stats: Vec<_> = sessions.iter().map(|&s| engine.session_stats(s)).collect();
    let results: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    let after = engine.stats();

    let expected: Vec<_> = stream(7, SESSIONS, BATCHES)
        .into_iter()
        .map(|(s, batch)| twin.apply(SessionId(s), batch))
        .collect();
    assert_eq!(format!("{results:?}"), format!("{expected:?}"));
    assert!(
        results
            .iter()
            .any(|r| matches!(r, Err(BatchError::Violation { .. }))),
        "the stream must exercise rollback inside groups"
    );
    for (ix, (&s, ticket)) in sessions.iter().zip(dumps).enumerate() {
        let got = match ticket.wait().unwrap().outputs.remove(0) {
            Output::Dump(d) => d,
            other => panic!("expected dump, got {other:?}"),
        };
        assert_eq!(got, dump(&twin, s), "{s}: dump behind the tickets");
        let want = twin.session_stats(s);
        let have = stats[ix];
        // Both sides count their dump batch.
        assert_eq!(
            (have.batches, have.batches_ok, have.violations),
            (want.batches, want.batches_ok, want.violations),
            "{s}: stats behind the tickets"
        );
        assert_eq!(
            (have.waves, have.assignments),
            (want.waves, want.assignments)
        );
    }

    let appends = after.wal_appends - before.wal_appends;
    let syncs = after.wal_group_syncs - before.wal_group_syncs;
    assert!(appends > 0);
    assert!(
        syncs * 2 <= appends,
        "one worker must share fsyncs across its queue: {syncs} flushes for {appends} appends"
    );

    // Every acknowledged batch is durable.
    let want: Vec<Dump> = sessions.iter().map(|&s| dump(&engine, s)).collect();
    drop(engine);
    let engine = Engine::open(&dir).unwrap();
    for (&s, want) in sessions.iter().zip(&want) {
        assert_eq!(&dump(&engine, s), want, "{s} after reopen");
    }
}

/// Bytes on disk in `dir`.
fn disk_bytes(dir: &TempDir) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum()
}

#[test]
fn failed_flush_rolls_back_every_batch_of_a_pipelined_group() {
    const SESSIONS: u64 = 4;
    const BATCHES: usize = 64;
    /// Tickets submitted together; each wave is redeemed before the next
    /// is submitted, so a cut lands after acked waves.
    const WAVE: usize = 8;
    let config = one_worker();
    // Measure the log: its size after the set-up batches and after the
    // whole stream. Record sizes do not depend on how batches group.
    let (setup_bytes, total_bytes) = {
        let dir = TempDir::new("group-fail-measure");
        let engine = Engine::open_with_config(&dir, config, opts()).unwrap();
        for _ in 0..SESSIONS {
            let s = engine.create_session();
            engine.apply(s, setup()).unwrap();
        }
        engine.sync_wal().unwrap();
        let setup_bytes = disk_bytes(&dir);
        for (s, batch) in stream(11, SESSIONS, BATCHES) {
            let _ = engine.apply(SessionId(s), batch);
        }
        engine.shutdown();
        (setup_bytes, disk_bytes(&dir))
    };
    assert!(total_bytes > setup_bytes);

    // Cut the disk at several points inside the pipelined stream.
    for k in 1..8 {
        let budget = setup_bytes + (total_bytes - setup_bytes) * k / 8;
        let dir = TempDir::new("group-fail");
        let failing = DurabilityOptions {
            file_factory: Some(failing_factory(ByteBudget::new(budget))),
            ..opts()
        };
        let engine = Engine::open_with_config(&dir, config, failing).unwrap();
        let sessions: Vec<SessionId> = (0..SESSIONS).map(|_| engine.create_session()).collect();
        for &s in &sessions {
            engine.apply(s, setup()).unwrap();
        }
        let mut results: Vec<(u64, Result<_, BatchError>)> = Vec::new();
        let mut batches = stream(11, SESSIONS, BATCHES).into_iter().peekable();
        while batches.peek().is_some() {
            let tickets: Vec<_> = batches
                .by_ref()
                .take(WAVE)
                .map(|(s, batch)| (s, engine.submit(SessionId(s), batch)))
                .collect();
            results.extend(tickets.into_iter().map(|(s, t)| (s, t.wait())));
        }
        let failed = results
            .iter()
            .filter(|(_, r)| matches!(r, Err(BatchError::Persist { .. })))
            .count();
        assert!(failed >= 2, "budget {budget}: the cut must fail a group");
        assert!(
            results.iter().any(|(_, r)| r.is_ok()),
            "budget {budget}: the cut must fall after some acked batches"
        );

        // Per session, as indexes into the stream: its acked batches, and
        // the ones that replied `Persist`.
        let acked = |s: u64| -> Vec<usize> {
            (0..results.len())
                .filter(|&i| results[i].0 == s && results[i].1.is_ok())
                .collect()
        };
        let persist_failed = |s: u64| -> Vec<usize> {
            (0..results.len())
                .filter(|&i| {
                    results[i].0 == s && matches!(results[i].1, Err(BatchError::Persist { .. }))
                })
                .collect()
        };
        let replay = |s: u64, keep: &[usize]| {
            let batches = stream(11, SESSIONS, BATCHES)
                .into_iter()
                .enumerate()
                .filter(|(i, _)| keep.contains(i))
                .map(|(_, (_, batch))| batch)
                .collect();
            volatile_replay(SessionId(s), batches)
        };

        // In memory: every batch a failed flush covered was rolled back.
        for &s in &sessions {
            assert_eq!(
                dump(&engine, s),
                replay(s.0, &acked(s.0)),
                "budget {budget}: {s} in memory"
            );
        }
        drop(engine);

        // On disk: every acked batch survives. A failed flush does not
        // un-write what reached the file before the disk died, so a
        // session may recover some of its failed records whole on top —
        // only ever a prefix of them, in sequence order (a stacked
        // record follows its predecessor). No write is acked after the
        // cut, so none can be shadowed by such an orphan.
        let engine = Engine::open(&dir).unwrap();
        for &s in &sessions {
            let got = dump(&engine, s);
            let acked = acked(s.0);
            let failed = persist_failed(s.0);
            assert!(
                (0..=failed.len()).any(|j| {
                    let keep: Vec<usize> = acked.iter().chain(&failed[..j]).copied().collect();
                    got == replay(s.0, &keep)
                }),
                "budget {budget}: {s} after reopen is not its acked batches \
                 plus a prefix of the failed ones"
            );
        }
    }
}
