//! Pins the engine-global vs per-session split of the WAL counters.
//!
//! `EngineStats::wal_appends`/`wal_bytes` come from the store and count
//! *everything* appended (batch records, close records). The per-session
//! `SessionStats::wal_appends`/`wal_bytes` are maintained by the owning
//! worker at commit time and attribute each batch record to its session —
//! so the session shares must sum to the engine totals, minus exactly the
//! records that belong to no session.

use stem_core::{Value, VarId};
use stem_engine::{Command, DurabilityOptions, Engine, EngineConfig, Source};
use stem_testkit::TempDir;

fn set(v: i64) -> Command {
    Command::Set {
        var: VarId::from_index(0),
        value: Value::Int(v),
        source: Source::User,
    }
}

#[test]
fn session_wal_counters_partition_the_engine_totals() {
    let dir = TempDir::new("split");
    let engine = Engine::open_with_config(
        &dir,
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        DurabilityOptions {
            checkpoint_bytes: 0,
            ..DurabilityOptions::default()
        },
    )
    .unwrap();
    let s0 = engine.create_session();
    let s1 = engine.create_session();
    let s2 = engine.create_session();

    // s0: 1 + 5 mutating batches; s1: 1 + 2; s2: read-only only (after a
    // no-op probe the session exists but never logs).
    engine
        .apply(s0, vec![Command::AddVariable { name: "a".into() }])
        .unwrap();
    for i in 0..5 {
        engine.apply(s0, vec![set(i)]).unwrap();
    }
    engine
        .apply(s1, vec![Command::AddVariable { name: "b".into() }])
        .unwrap();
    engine.apply(s1, vec![set(1), set(2)]).unwrap();
    engine.apply(s1, vec![Command::CheckAll]).unwrap();
    engine.apply(s2, vec![Command::DumpValues]).unwrap();

    // A rolled-back batch must not be attributed to the session.
    let bad = engine.apply(
        s0,
        vec![Command::Set {
            var: VarId::from_index(99),
            value: Value::Int(0),
            source: Source::User,
        }],
    );
    assert!(bad.is_err());

    let (g0, g1, g2) = (
        engine.session_stats(s0),
        engine.session_stats(s1),
        engine.session_stats(s2),
    );
    assert_eq!(g0.wal_appends, 6);
    assert_eq!(g1.wal_appends, 2);
    assert_eq!(g2.wal_appends, 0);
    assert!(g0.wal_bytes > g1.wal_bytes);
    assert!(g1.wal_bytes > 0);
    assert_eq!(g2.wal_bytes, 0);

    // Partition: with no close/checkpoint records yet, the session shares
    // sum exactly to the store totals.
    let total = engine.stats();
    assert_eq!(total.wal_appends, g0.wal_appends + g1.wal_appends);
    assert_eq!(total.wal_bytes, g0.wal_bytes + g1.wal_bytes);

    // Closing a session appends a close record: engine totals move, the
    // remaining sessions' shares do not.
    assert!(engine.close_session(s1));
    let after = engine.stats();
    assert_eq!(after.wal_appends, total.wal_appends + 1);
    assert_eq!(engine.session_stats(s0).wal_appends, 6);
}

#[test]
fn volatile_sessions_report_zero_wal_counters() {
    let engine = Engine::new(1);
    let s = engine.create_session();
    engine
        .apply(s, vec![Command::AddVariable { name: "a".into() }, set(7)])
        .unwrap();
    let stats = engine.session_stats(s);
    assert_eq!((stats.wal_appends, stats.wal_bytes), (0, 0));
}
