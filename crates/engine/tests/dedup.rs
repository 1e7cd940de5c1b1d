//! Idempotent resubmission (keyed batches) and lease fencing: the two
//! engine-level guarantees the cluster tier builds failover on. A client
//! that resends a batch after a reconnect must never double-apply it, and
//! a deposed leader must never ack a write the new leader cannot see.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use stem_core::{Value, VarId};
use stem_engine::{
    BatchError, Command, Durability, DurabilityOptions, Engine, EngineConfig, Output, SessionId,
    Source,
};
use stem_testkit::TempDir;

fn config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        checkpoint_bytes: 0,
        ..DurabilityOptions::default()
    }
}

fn add(name: &str) -> Command {
    Command::AddVariable { name: name.into() }
}

fn set(ix: usize, v: i64) -> Command {
    Command::Set {
        var: VarId::from_index(ix),
        value: Value::Int(v),
        source: Source::User,
    }
}

fn value_of(engine: &Engine, s: SessionId, ix: usize) -> Value {
    match engine
        .apply(
            s,
            vec![Command::Get {
                var: VarId::from_index(ix),
            }],
        )
        .expect("get")
        .outputs
        .remove(0)
    {
        Output::Value(v) => v,
        other => panic!("expected value, got {other:?}"),
    }
}

/// Resending an already-applied key is acked with an empty outcome, not
/// re-applied: the increment lands once no matter how often the client's
/// retry loop pushes it.
#[test]
fn duplicate_keys_are_skipped_not_reapplied() {
    let engine = Engine::new(1);
    let s = engine.create_session();
    engine.submit_keyed(s, vec![add("x")], 1).wait().unwrap();
    let first = engine.submit_keyed(s, vec![set(0, 7)], 2).wait().unwrap();
    assert!(!first.outputs.is_empty(), "a real batch reports outputs");

    for _ in 0..3 {
        let dup = engine.submit_keyed(s, vec![set(0, 99)], 2).wait().unwrap();
        assert!(dup.outputs.is_empty(), "duplicate is acked as a skip");
    }
    assert_eq!(value_of(&engine, s, 0), Value::Int(7), "no double-apply");
    assert_eq!(engine.stats().dedup_skips, 3);

    // Unkeyed batches (key 0) never dedup — legacy submit path.
    engine.submit_keyed(s, vec![set(0, 8)], 0).wait().unwrap();
    engine.submit_keyed(s, vec![set(0, 9)], 0).wait().unwrap();
    // (see above: key 0 means "unkeyed", so both applied)
    assert_eq!(value_of(&engine, s, 0), Value::Int(9));
    engine.shutdown();
}

/// A key that fails (violation) does not advance the watermark: the
/// client may retry the same key with the same commands and, once the
/// cause clears, have it apply.
#[test]
fn failed_batches_do_not_burn_their_key() {
    let engine = Engine::new(1);
    let s = engine.create_session();
    engine.submit_keyed(s, vec![add("a")], 1).wait().unwrap();
    let err = engine
        .submit_keyed(
            s,
            vec![Command::Set {
                var: VarId::from_index(5), // out of range
                value: Value::Int(1),
                source: Source::User,
            }],
            2,
        )
        .wait()
        .unwrap_err();
    assert!(matches!(err, BatchError::InvalidCommand { .. }), "{err}");
    // Same key, corrected commands: applies (the failure did not advance
    // the watermark), so a retry after a transport error is never lost.
    let ok = engine.submit_keyed(s, vec![set(0, 4)], 2).wait().unwrap();
    assert!(!ok.outputs.is_empty());
    assert_eq!(value_of(&engine, s, 0), Value::Int(4));
    engine.shutdown();
}

/// The watermark is durable: keys survive a crash/reopen both via the
/// log tail and via a checkpoint, so a client retrying across a restart
/// still cannot double-apply.
#[test]
fn dedup_watermark_survives_reopen() {
    let dir = TempDir::new("reopen");
    {
        let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
        let s = engine.create_session();
        engine.submit_keyed(s, vec![add("n")], 1).wait().unwrap();
        engine.submit_keyed(s, vec![set(0, 10)], 2).wait().unwrap();
        engine.shutdown();
    }
    // Tail replay path.
    {
        let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
        let s = SessionId(0);
        let dup = engine.submit_keyed(s, vec![set(0, 55)], 2).wait().unwrap();
        assert!(dup.outputs.is_empty(), "replayed watermark blocks the dup");
        assert_eq!(value_of(&engine, s, 0), Value::Int(10));
        engine.submit_keyed(s, vec![set(0, 11)], 3).wait().unwrap();
        assert!(engine.checkpoint().unwrap());
        engine.shutdown();
    }
    // Checkpoint path: the snapshot's SessionState carries the watermark.
    {
        let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
        let s = SessionId(0);
        let dup = engine.submit_keyed(s, vec![set(0, 77)], 3).wait().unwrap();
        assert!(dup.outputs.is_empty(), "snapshot watermark blocks the dup");
        assert_eq!(value_of(&engine, s, 0), Value::Int(11));
        engine.shutdown();
    }
}

/// Once the cluster epoch moves past an engine's lease, its appends are
/// fenced: the in-flight batch rolls back (Persist error, state
/// unchanged) instead of acking a write the new leader will never see.
/// Reads keep working — fencing guards the log, not the session.
#[test]
fn superseded_lease_fences_writes_but_not_reads() {
    let dir = TempDir::new("fence");
    let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
    assert_eq!(engine.durability(), Some(Durability::CommitSync));
    let epoch = Arc::new(AtomicU64::new(3));
    engine.install_lease(3, 1, Arc::clone(&epoch)).unwrap();
    assert_eq!(engine.lease(), (3, 1));

    let s = engine.create_session();
    engine.apply(s, vec![add("v"), set(0, 1)]).unwrap();

    // The coordinator deposes this leader: epoch 3 -> 4.
    epoch.store(4, Ordering::SeqCst);
    let err = engine.apply(s, vec![set(0, 2)]).unwrap_err();
    assert!(matches!(err, BatchError::Persist { .. }), "{err}");
    assert_eq!(
        value_of(&engine, s, 0),
        Value::Int(1),
        "fenced batch rolled back"
    );
    assert!(
        engine.checkpoint().is_err(),
        "snapshots are fenced too — a deposed leader must not publish one"
    );
    engine.shutdown();

    // The log holds only the pre-fence history.
    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(value_of(&reopened, SessionId(0), 0), Value::Int(1));
    reopened.shutdown();
}

/// A volatile engine has no log to fence.
#[test]
fn install_lease_requires_durability() {
    let engine = Engine::new(1);
    let err = engine
        .install_lease(1, 1, Arc::new(AtomicU64::new(1)))
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    assert_eq!(engine.lease(), (0, 0));
    engine.shutdown();
}
