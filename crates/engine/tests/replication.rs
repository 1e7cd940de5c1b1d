//! Leader → follower WAL segment shipping, differential-style.
//!
//! A durable leader applies seeded random workloads; its sealed WAL
//! segments are shipped to a read-only replica engine (with a *different*
//! worker count, so shard placement is proven an implementation detail).
//! After shipping, every session's observable state — values,
//! justifications, violation sets — must be **byte-identical** between
//! leader and follower, under the canonical codec encoding. Then the
//! leader is killed mid-stream, the follower promoted, and the second
//! half of the workload applied; the promoted follower must track a
//! volatile reference engine that saw the whole stream.

use stem_core::codec::{put_justification, put_str, put_value, put_violation};
use stem_core::prng::SplitMix64;
use stem_core::{Value, VarId};
use stem_engine::{
    BatchError, Command, ConstraintSpec, Durability, DurabilityOptions, Engine, EngineConfig,
    Output, SessionId, Source,
};
use stem_testkit::TempDir;

fn leader_config() -> EngineConfig {
    EngineConfig {
        workers: 3,
        ..EngineConfig::default()
    }
}

/// Small segments so every workload spans several shipping units.
fn ship_opts() -> DurabilityOptions {
    DurabilityOptions {
        segment_bytes: 512,
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

/// c = a + b with a LeConst tripwire on c, so random workloads violate
/// and roll back at a healthy rate (rolled-back batches must not ship).
fn build_session(engine: &Engine, s: SessionId) {
    engine
        .apply(
            s,
            vec![
                Command::AddVariable { name: "a".into() },
                Command::AddVariable { name: "b".into() },
                Command::AddVariable { name: "c".into() },
                Command::AddConstraint {
                    spec: ConstraintSpec::Sum,
                    args: vec![
                        VarId::from_index(0),
                        VarId::from_index(1),
                        VarId::from_index(2),
                    ],
                },
                Command::AddConstraint {
                    spec: ConstraintSpec::LeConst(Value::Int(60)),
                    args: vec![VarId::from_index(2)],
                },
            ],
        )
        .expect("session skeleton builds clean");
}

/// One deterministic batch: mostly sets (some violating), a few
/// journalable structural edits and constraint toggles.
fn gen_batch(rng: &mut SplitMix64) -> Vec<Command> {
    let len = rng.range_usize(1, 4);
    (0..len)
        .map(|_| match rng.range_usize(0, 8) {
            0..=4 => set(rng.range_usize(0, 2), rng.range_i64(0, 45)),
            5 => Command::AddVariable {
                name: format!("x{}", rng.next_u64() % 1000),
            },
            6 => Command::EnableConstraint {
                constraint: stem_core::ConstraintId::from_index(1),
                enabled: rng.next_bool(),
            },
            _ => set(2, rng.range_i64(0, 90)),
        })
        .collect()
}

/// Canonical observation: the session's dump (names, values,
/// justifications) and violation set, rendered to codec bytes. Two
/// engines agree on a session iff these bytes are identical.
fn observe(engine: &Engine, s: SessionId) -> Vec<u8> {
    let out = engine
        .apply(s, vec![Command::DumpValues, Command::CheckAll])
        .expect("read-only observation always serves");
    let mut buf = Vec::new();
    for o in out.outputs {
        match o {
            Output::Dump(entries) => {
                for (name, value, just) in entries {
                    put_str(&mut buf, &name);
                    put_value(&mut buf, &value);
                    put_justification(&mut buf, &just);
                }
            }
            Output::Violations(vs) => {
                for v in vs {
                    put_violation(&mut buf, &v);
                }
            }
            other => panic!("unexpected output {other:?}"),
        }
    }
    buf
}

/// Ships every sealed segment to the follower, in index order.
fn ship_all(leader: &Engine, follower: &Engine) -> Vec<u64> {
    let mut sealed = leader.seal_wal().expect("leader has a log");
    sealed.sort_unstable();
    for &ix in &sealed {
        let bytes = leader.read_wal_segment(ix).expect("sealed segment reads");
        follower.ingest_segment(&bytes).expect("segment ingests");
    }
    sealed
}

#[test]
fn follower_matches_leader_byte_for_byte_across_25_seeds() {
    for seed in 0..25u64 {
        let dir = TempDir::new(&format!("seed{seed}"));
        let leader = Engine::open_with_config(&dir, leader_config(), ship_opts()).unwrap();
        // Volatile reference engine: sees the whole workload, first half
        // and second, and is the oracle for the promoted follower.
        let reference = Engine::new(1);
        let sessions: Vec<SessionId> = (0..3).map(|_| leader.create_session()).collect();
        for &s in &sessions {
            assert_eq!(reference.create_session(), s);
            build_session(&leader, s);
            build_session(&reference, s);
        }

        // `Command` is intentionally not `Clone` (it can carry a kind
        // factory), so each engine draws the identical batch stream from
        // its own twin of the seeded rng.
        let mut rng_l = SplitMix64::new(0xF0110 + seed);
        let mut rng_r = SplitMix64::new(0xF0110 + seed);

        let mut violations = 0usize;
        for _ in 0..10 {
            for &s in &sessions {
                let rl = leader.apply(s, gen_batch(&mut rng_l));
                let rr = reference.apply(s, gen_batch(&mut rng_r));
                assert_eq!(format!("{rl:?}"), format!("{rr:?}"), "seed {seed}");
                violations += usize::from(rl.is_err());
            }
        }
        assert!(violations > 0, "seed {seed}: tripwire never fired");

        // Every 5th seed also exercises the snapshot bootstrap: the
        // follower ingests a leader checkpoint first, and the shipped
        // segments (whose records the snapshot already covers) dedupe
        // against its cursors.
        let follower = Engine::replica(2);
        assert!(follower.is_replica());
        if seed % 5 == 0 {
            assert!(leader.checkpoint().unwrap());
            let snap = leader
                .wal_snapshot_bytes()
                .unwrap()
                .expect("checkpoint wrote a snapshot");
            let installed = follower.ingest_snapshot(&snap).unwrap();
            assert_eq!(installed, 3, "seed {seed}: all sessions bootstrapped");
        }
        let sealed = ship_all(&leader, &follower);
        assert!(
            seed % 5 == 0 || sealed.len() > 1,
            "seed {seed}: workload must span several segments"
        );

        for &s in &sessions {
            assert_eq!(
                observe(&leader, s),
                observe(&follower, s),
                "seed {seed}: follower diverged from leader on {s}"
            );
        }
        let stats = follower.stats();
        assert_eq!(stats.segments_ingested, sealed.len() as u64);
        assert!(seed % 5 == 0 || stats.records_replayed > 0);

        // Re-shipping a segment is a no-op: every record dedupes.
        if let Some(&ix) = sealed.first() {
            let bytes = leader.read_wal_segment(ix).unwrap();
            let report = follower.ingest_segment(&bytes).unwrap();
            assert_eq!(report.applied, 0, "seed {seed}: re-ship re-applied");
            assert_eq!(report.anomalies, 0);
        }

        // Mid-stream leader kill: drop without clean shutdown, promote.
        let pre_promotion = observe(&follower, sessions[0]);
        drop(leader);
        let err = follower.apply(sessions[0], vec![set(0, 1)]).unwrap_err();
        assert!(matches!(err, BatchError::ReadOnlyReplica), "{err}");
        assert_eq!(
            observe(&follower, sessions[0]),
            pre_promotion,
            "seed {seed}: refused batch mutated replica state"
        );
        assert!(follower.promote());
        assert!(!follower.is_replica());

        // Second half lands on the promoted follower (continuing the
        // leader's rng stream); the reference saw the whole stream on one
        // engine and must agree byte-for-byte.
        for _ in 0..11 {
            for &s in &sessions {
                let rf = follower.apply(s, gen_batch(&mut rng_l));
                let rr = reference.apply(s, gen_batch(&mut rng_r));
                assert_eq!(format!("{rf:?}"), format!("{rr:?}"), "seed {seed}");
            }
        }
        for &s in &sessions {
            assert_eq!(
                observe(&follower, s),
                observe(&reference, s),
                "seed {seed}: promoted follower diverged from reference on {s}"
            );
        }
        // The promoted follower never hands out an id the stream used.
        assert_eq!(follower.create_session(), SessionId(3));
    }
}

#[test]
fn closed_sessions_do_not_resurrect_on_the_follower() {
    let dir = TempDir::new("close");
    let leader = Engine::open_with_config(&dir, leader_config(), ship_opts()).unwrap();
    let s0 = leader.create_session();
    let s1 = leader.create_session();
    build_session(&leader, s0);
    build_session(&leader, s1);
    leader.apply(s0, vec![set(0, 5)]).unwrap();
    assert!(leader.close_session(s1));

    let follower = Engine::replica(2);
    ship_all(&leader, &follower);
    assert_eq!(observe(&leader, s0), observe(&follower, s0));
    assert!(
        matches!(
            follower
                .apply(s1, vec![Command::DumpValues])
                .unwrap()
                .outputs
                .remove(0),
            Output::Dump(d) if d.is_empty()
        ),
        "closed session resurrected on the follower"
    );
}

#[test]
fn segment_gap_quarantines_follower_sessions() {
    let dir = TempDir::new("gap");
    let leader = Engine::open_with_config(&dir, leader_config(), ship_opts()).unwrap();
    let s = leader.create_session();
    build_session(&leader, s);
    for i in 0..60 {
        leader.apply(s, vec![set(0, i)]).unwrap();
    }
    let mut sealed = leader.seal_wal().unwrap();
    sealed.sort_unstable();
    assert!(sealed.len() >= 3, "need segments to drop one");

    // Ship the first and last segment, skipping the middle: the follower
    // sees a sequence gap, quarantines the session, and reports anomalies
    // instead of serving a state the leader never had.
    let follower = Engine::replica(2);
    follower
        .ingest_segment(&leader.read_wal_segment(sealed[0]).unwrap())
        .unwrap();
    let report = follower
        .ingest_segment(&leader.read_wal_segment(*sealed.last().unwrap()).unwrap())
        .unwrap();
    assert!(report.anomalies > 0, "gap not detected: {report:?}");
    assert!(follower.session_stats(s).quarantined);
    assert!(follower.stats().sessions_quarantined >= 1);
}

#[test]
fn ingestion_requires_replica_mode_and_strict_segments() {
    let dir = TempDir::new("guards");
    let leader = Engine::open_with_config(&dir, leader_config(), ship_opts()).unwrap();
    let s = leader.create_session();
    build_session(&leader, s);
    let sealed = leader.seal_wal().unwrap();
    let bytes = leader.read_wal_segment(sealed[0]).unwrap();

    // A writable engine refuses ingestion outright.
    let writable = Engine::new(1);
    assert!(writable.ingest_segment(&bytes).is_err());
    assert!(writable.ingest_snapshot(&bytes).is_err());

    // A torn shipped segment is corruption, not a tail to salvage: the
    // shipping path re-reads sealed, fsynced files, so unlike crash
    // recovery there is nothing lenient about a short read.
    let follower = Engine::replica(1);
    assert!(follower.ingest_segment(&bytes[..bytes.len() - 3]).is_err());
    assert!(follower.ingest_segment(b"not a segment").is_err());
    // Non-durable engines have nothing to ship.
    assert!(writable.seal_wal().is_err());
    assert!(writable.read_wal_segment(0).is_err());
    assert!(writable.wal_snapshot_bytes().unwrap().is_none());
}

#[test]
fn group_commit_engine_ships_like_commit_sync() {
    // Group commit changes *when* fsync happens, not what is logged: a
    // follower fed a group-commit leader's segments must match it.
    let dir = TempDir::new("group");
    let opts = DurabilityOptions {
        mode: Durability::GroupCommit,
        ..ship_opts()
    };
    let leader = Engine::open_with_config(&dir, leader_config(), opts).unwrap();
    let sessions: Vec<SessionId> = (0..3).map(|_| leader.create_session()).collect();
    let mut rng = SplitMix64::new(0x96C0);
    for &s in &sessions {
        build_session(&leader, s);
    }
    for _ in 0..15 {
        for &s in &sessions {
            let _ = leader.apply(s, gen_batch(&mut rng));
        }
    }
    assert!(
        leader.stats().wal_group_syncs > 0,
        "no group flush happened"
    );

    let follower = Engine::replica(2);
    ship_all(&leader, &follower);
    for &s in &sessions {
        assert_eq!(observe(&leader, s), observe(&follower, s), "{s}");
    }
}
