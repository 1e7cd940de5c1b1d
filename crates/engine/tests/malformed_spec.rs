//! A domain spec that does not fit its arguments — a directional output
//! past the relation's arity, or the wrong number of arguments — is
//! refused by validation on every path that can carry one: a submitted
//! batch, a shipped segment and a store's log. None of them may reach the
//! kind's constructor or its propagator, which index arguments by
//! position, and none may take down the worker that owns the session.
//! A shipped or logged batch that passes validation but fails while
//! applying is undone whole: the session keeps only the batches before it.

use stem_core::{Value, VarId};
use stem_engine::{BatchError, Command, ConstraintSpec, Engine, EngineConfig, SessionId, Source};
use stem_persist::{Store, StoreOptions, WalRecord};
use stem_testkit::TempDir;

fn var(ix: usize) -> VarId {
    VarId::from_index(ix)
}

fn add(name: &str) -> Command {
    Command::AddVariable { name: name.into() }
}

fn set(ix: usize, v: i64) -> Command {
    Command::Set {
        var: var(ix),
        value: Value::Int(v),
        source: Source::User,
    }
}

/// The three malformed installs: each would panic worker-side if it ran.
fn malformed() -> Vec<Command> {
    vec![
        Command::AddConstraint {
            spec: ConstraintSpec::DomLe {
                c: 0,
                views: [(1, 0), (1, 0)],
                out: Some(2),
            },
            args: vec![var(0), var(1)],
        },
        Command::AddConstraint {
            spec: ConstraintSpec::DomAdd {
                views: [(1, 0), (1, 0), (1, 0)],
                out: Some(7),
            },
            args: vec![var(0), var(1), var(2)],
        },
        Command::AddConstraint {
            spec: ConstraintSpec::DomLe {
                c: 0,
                views: [(1, 0), (1, 0)],
                out: None,
            },
            args: vec![var(0)],
        },
    ]
}

fn one_worker() -> EngineConfig {
    EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }
}

fn value(engine: &Engine, s: SessionId, ix: usize) -> Value {
    match engine.apply(s, vec![Command::Get { var: var(ix) }]) {
        Ok(out) => match &out.outputs[0] {
            stem_engine::Output::Value(v) => v.clone(),
            other => panic!("unexpected output {other:?}"),
        },
        Err(err) => panic!("read failed: {err}"),
    }
}

#[test]
fn submitting_a_malformed_domain_spec_is_an_invalid_command() {
    let engine = Engine::with_config(one_worker());
    let s = engine.create_session();
    engine
        .apply(s, vec![add("x"), add("y"), add("z")])
        .expect("variables");
    for cmd in malformed() {
        let err = engine.apply(s, vec![set(0, 1), cmd]).unwrap_err();
        assert!(
            matches!(err, BatchError::InvalidCommand { index: 1, .. }),
            "{err}"
        );
        assert!(!engine.session_stats(s).quarantined, "{err}");
        // Nothing of the refused batch applied, and the session keeps
        // taking mutating batches.
        assert_eq!(value(&engine, s, 0), Value::Nil);
        engine
            .apply(s, vec![set(2, 3)])
            .expect("session still serves");
    }
    assert_eq!(engine.stats().panics, 0);
}

/// Every batch that must not replay behind [`log_with`]'s first batch:
/// one per malformed install, and one that validates but violates
/// `x <= 5` after adding a variable.
fn bad_batches() -> Vec<Vec<Command>> {
    let mut batches: Vec<Vec<Command>> = malformed().into_iter().map(|c| vec![c]).collect();
    batches.push(vec![add("b"), set(0, 10)]);
    batches
}

/// The names of session `s`'s variables, in creation order.
fn names(engine: &Engine, s: SessionId) -> Vec<String> {
    match engine.apply(s, vec![Command::DumpValues]) {
        Ok(out) => match &out.outputs[0] {
            stem_engine::Output::Dump(rows) => rows.iter().map(|(name, ..)| name.clone()).collect(),
            other => panic!("unexpected output {other:?}"),
        },
        Err(err) => panic!("dump failed: {err}"),
    }
}

/// A store in `dir` whose log holds session 0's variables and an
/// `x <= 5` check, then the batch `bad`, then a batch of session 1 behind
/// it.
fn log_with(dir: &TempDir, bad: Vec<Command>) -> Store {
    let (mut store, _) = Store::open(dir, StoreOptions::default()).unwrap();
    let batch = |session, seq, commands| WalRecord::Batch {
        session,
        seq,
        key: 0,
        commands,
    };
    for rec in [
        batch(
            0,
            1,
            vec![
                add("x"),
                add("y"),
                add("z"),
                set(0, 4),
                Command::AddConstraint {
                    spec: ConstraintSpec::LeConst(Value::Int(5)),
                    args: vec![var(0)],
                },
            ],
        ),
        batch(0, 2, bad),
        batch(1, 1, vec![add("w"), set(0, 9)]),
    ] {
        store.append(&rec).unwrap();
    }
    store.sync().unwrap();
    store
}

#[test]
fn a_shipped_malformed_record_quarantines_its_session_only() {
    for bad in bad_batches() {
        let dir = TempDir::new("malformed-ship");
        let mut store = log_with(&dir, bad);
        let sealed = store.seal_for_checkpoint().unwrap();
        let replica = Engine::replica_with_config(one_worker());
        let mut report = stem_engine::ReplayReport::default();
        for ix in sealed {
            let r = replica
                .ingest_segment(&store.read_segment(ix).unwrap())
                .expect("the replica's shard survives the record");
            report.applied += r.applied;
            report.anomalies += r.anomalies;
        }
        assert_eq!((report.applied, report.anomalies), (2, 1));
        assert!(replica.session_stats(SessionId(0)).quarantined);
        assert!(!replica.session_stats(SessionId(1)).quarantined);
        // The prefix before the bad record serves reads, and the shard
        // serves the session behind it.
        assert_eq!(value(&replica, SessionId(0), 0), Value::Int(4));
        assert_eq!(names(&replica, SessionId(0)), ["x", "y", "z"]);
        assert_eq!(value(&replica, SessionId(1), 0), Value::Int(9));
    }
}

#[test]
fn a_logged_malformed_record_is_a_short_replay_at_recovery() {
    for bad in bad_batches() {
        let dir = TempDir::new("malformed-log");
        drop(log_with(&dir, bad));
        let engine = Engine::open_with_config(
            &dir,
            one_worker(),
            stem_engine::DurabilityOptions::default(),
        )
        .expect("open");
        assert!(engine.session_stats(SessionId(0)).quarantined);
        assert_eq!(value(&engine, SessionId(0), 0), Value::Int(4));
        assert_eq!(names(&engine, SessionId(0)), ["x", "y", "z"]);
        // The shard keeps serving: session 1 recovered and commits.
        assert!(!engine.session_stats(SessionId(1)).quarantined);
        engine
            .apply(SessionId(1), vec![set(0, 10)])
            .expect("the shard still commits");
        assert_eq!(value(&engine, SessionId(1), 0), Value::Int(10));
    }
}
