//! Replication over the wire: a leader server on a durable engine, a
//! follower server on a replica engine, segments shipped client-side
//! (fetch from one socket, ingest into the other), then kill-leader /
//! promote-follower — all through [`Client`], no in-process shortcuts.

use std::path::Path;

use stem_core::{Value, VarId};
use stem_engine::{
    Command, ConstraintSpec, Durability, DurabilityOptions, Engine, EngineConfig, SessionId, Source,
};
use stem_server::{Client, Server};
use stem_testkit::TempDir;

fn leader_engine(dir: &Path) -> Engine {
    let opts = DurabilityOptions {
        segment_bytes: 512,
        checkpoint_bytes: 0,
        mode: Durability::GroupCommit,
        ..DurabilityOptions::default()
    };
    let config = EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    };
    Engine::open_with_config(dir, config, opts).expect("durable leader opens")
}

fn set(ix: usize, v: i64) -> Command {
    Command::Set {
        var: VarId::from_index(ix),
        value: Value::Int(v),
        source: Source::User,
    }
}

/// Client-side shipping: seal on the leader connection, fetch each
/// sealed segment, ingest into the follower connection.
fn ship(leader: &mut Client, follower: &mut Client) -> (u64, u64, u64) {
    let mut totals = (0, 0, 0);
    for ix in leader.seal_wal().expect("leader seals") {
        let bytes = leader.fetch_segment(ix).expect("segment fetches");
        let (a, s, x) = follower.ingest_segment(&bytes).expect("segment ingests");
        totals = (totals.0 + a, totals.1 + s, totals.2 + x);
    }
    totals
}

#[test]
fn kill_leader_promote_follower_over_tcp() {
    let dir = TempDir::new("fleet");
    let leader_srv = Server::spawn(leader_engine(&dir), "127.0.0.1:0").unwrap();
    let follower_srv = Server::spawn(Engine::replica(3), "127.0.0.1:0").unwrap();
    let mut leader = Client::connect(leader_srv.local_addr()).unwrap();
    let mut follower = Client::connect(follower_srv.local_addr()).unwrap();

    // Two sessions of real work on the leader.
    let s0 = leader.open().unwrap();
    let s1 = leader.open().unwrap();
    for &s in &[s0, s1] {
        leader
            .apply(
                s,
                &[
                    Command::AddVariable { name: "a".into() },
                    Command::AddVariable { name: "b".into() },
                    Command::AddVariable { name: "sum".into() },
                    Command::AddConstraint {
                        spec: ConstraintSpec::Sum,
                        args: vec![
                            VarId::from_index(0),
                            VarId::from_index(1),
                            VarId::from_index(2),
                        ],
                    },
                ],
            )
            .unwrap()
            .unwrap();
    }
    for i in 0..20i64 {
        leader
            .apply(s0, &[set(0, i), set(1, 2 * i)])
            .unwrap()
            .unwrap();
        leader.apply(s1, &[set(0, -i)]).unwrap().unwrap();
    }

    // Bootstrap the follower from the leader's snapshot (none yet —
    // checkpoints are disabled — so this leg is a no-op by design) and
    // ship every sealed segment over the two sockets.
    assert_eq!(leader.fetch_snapshot().unwrap(), None);
    let (applied, skipped, anomalies) = ship(&mut leader, &mut follower);
    assert!(applied >= 42, "42 batches shipped, got {applied}");
    assert_eq!((skipped, anomalies), (0, 0));

    // The follower now serves identical reads over its own socket…
    assert_eq!(
        follower.value(s0, VarId::from_index(2)).unwrap().unwrap(),
        Value::Int(3 * 19)
    );
    assert_eq!(
        follower.value(s1, VarId::from_index(0)).unwrap().unwrap(),
        Value::Int(-19)
    );
    assert_eq!(
        format!("{:?}", follower.dump(s0).unwrap()),
        format!("{:?}", leader.dump(s0).unwrap()),
        "dump must match leader byte for byte"
    );
    // …but refuses writes.
    assert!(matches!(
        follower.apply(s0, &[set(0, 7)]).unwrap(),
        Err(stem_engine::BatchError::ReadOnlyReplica)
    ));
    // Re-shipping the same segments is idempotent.
    let mut follower2 = Client::connect(follower_srv.local_addr()).unwrap();
    let (re_applied, re_skipped, _) = ship(&mut leader, &mut follower2);
    assert_eq!(re_applied, 0, "idempotent re-ship must apply nothing");
    assert!(re_skipped > 0);

    // Kill the leader mid-fleet: server torn down, engine dropped.
    drop(leader);
    drop(leader_srv);

    // Promote the follower over its socket; it starts taking writes and
    // its replication verbs go dormant (not a durable engine).
    assert!(follower.promote().unwrap());
    assert!(!follower.promote().unwrap(), "second promote is a no-op");
    follower.apply(s0, &[set(0, 100)]).unwrap().unwrap();
    assert_eq!(
        follower.value(s0, VarId::from_index(2)).unwrap().unwrap(),
        Value::Int(100 + 2 * 19)
    );
    assert!(follower.seal_wal().is_err(), "volatile promotee has no WAL");

    // New sessions allocate above everything the replica ever ingested.
    let fresh = follower.open().unwrap();
    assert_eq!(fresh, SessionId(2));

    let stats = follower.stats().unwrap();
    assert!(stats.segments_ingested > 0);
    assert!(stats.records_replayed >= 42);
}
