//! stem-cluster end-to-end: session-sharded routing, id translation,
//! stats roll-up, segment shipping, lease-fenced failover — capped by a
//! 25-seed kill-leader-mid-pipeline differential against a volatile
//! twin engine: every acked batch must survive promotion byte-for-byte,
//! none may apply twice.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use stem_core::prng::SplitMix64;
use stem_core::{Value, VarId};
use stem_engine::{
    BatchError, BatchOutcome, Command, ConstraintSpec, Engine, EngineConfig, SessionId, Source,
};
use stem_persist::Lease;
use stem_server::proto::{Reply, Request};
use stem_server::{Backend, Cluster, ClusterOptions};
use stem_testkit::TempDir;

fn options(shards: usize) -> ClusterOptions {
    ClusterOptions {
        shards,
        workers_per_shard: 1,
        segment_bytes: 256,  // rotate early so shipping has segments to move
        ship_interval: None, // tests drive the schedule themselves
    }
}

// Application-source writes: propagation may overwrite them, so
// re-setting across the equality chain retracts and re-propagates
// instead of tripping the user-value overwrite rule.
fn set(ix: usize, v: i64) -> Command {
    Command::Set {
        var: VarId::from_index(ix),
        value: Value::Int(v),
        source: Source::Application,
    }
}

/// Synchronous submit through the router, unkeyed.
fn c_apply(
    cluster: &Cluster,
    s: SessionId,
    commands: Vec<Command>,
) -> Result<BatchOutcome, BatchError> {
    cluster.submit(s, 0, commands).wait()
}

/// Variables + equality chain + a `LeConst(60)` tripwire mid-chain, so
/// a healthy fraction of random Sets violate and roll back. Fresh
/// commands per call (specs are not `Clone`).
fn chain_cmds(n: usize) -> Vec<Command> {
    let mut batch: Vec<Command> = (0..n)
        .map(|i| Command::AddVariable {
            name: format!("v{i}"),
        })
        .collect();
    for i in 0..n - 1 {
        batch.push(Command::AddConstraint {
            spec: ConstraintSpec::Equality,
            args: vec![VarId::from_index(i), VarId::from_index(i + 1)],
        });
    }
    batch.push(Command::AddConstraint {
        spec: ConstraintSpec::LeConst(Value::Int(60)),
        args: vec![VarId::from_index(n / 2)],
    });
    batch
}

/// One deterministic batch drawn from the rng (same shape as the engine
/// differential's generator; drawn once per side to keep rngs in
/// lockstep, since commands are not `Clone`).
fn gen_batch(rng: &mut SplitMix64, n_vars: usize, n_constraints: usize) -> Vec<Command> {
    let mut batch = Vec::new();
    let len = rng.range_usize(1, 5);
    for _ in 0..len {
        let var = VarId::from_index(rng.range_usize(0, n_vars));
        match rng.range_usize(0, 10) {
            0..=4 => batch.push(Command::Set {
                var,
                value: Value::Int(rng.range_i64(0, 90)),
                source: Source::Application,
            }),
            5 => batch.push(Command::Get { var }),
            6 => batch.push(Command::Probe {
                var,
                value: Value::Int(rng.range_i64(0, 90)),
            }),
            7 => batch.push(Command::AddVariable {
                name: format!("x{}", rng.next_u64() % 1000),
            }),
            8 => batch.push(Command::EnableConstraint {
                constraint: stem_core::ConstraintId::from_index(rng.range_usize(0, n_constraints)),
                enabled: rng.next_bool(),
            }),
            _ => batch.push(Command::Get { var }),
        }
    }
    batch
}

fn render(result: &Result<BatchOutcome, BatchError>) -> String {
    match result {
        Ok(out) => format!("ok outputs={:?}", out.outputs),
        Err(e) => format!("err {e:?}"),
    }
}

/// Canonical state string: full dump plus the violation report.
fn state_of(apply: impl FnOnce(Vec<Command>) -> Result<BatchOutcome, BatchError>) -> String {
    let out = apply(vec![Command::DumpValues, Command::CheckAll]).expect("reads never fail");
    format!("{:?}", out.outputs)
}

#[test]
fn router_translates_ids_and_rolls_up_stats() {
    let cluster = Cluster::volatile(options(3));
    assert_eq!(cluster.shards(), 3);

    let sessions: Vec<SessionId> = (0..12).map(|_| cluster.open_session()).collect();
    let mut ids: Vec<u64> = sessions.iter().map(|s| s.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 12, "global session ids must be unique");

    for (i, &s) in sessions.iter().enumerate() {
        c_apply(
            &cluster,
            s,
            vec![Command::AddVariable { name: "v".into() }, set(0, i as i64)],
        )
        .unwrap_or_else(|e| panic!("session {}: {e:?}", s.0));
    }
    // Each session's state lives on exactly its own shard-local session.
    for (i, &s) in sessions.iter().enumerate() {
        let out = c_apply(
            &cluster,
            s,
            vec![Command::Get {
                var: VarId::from_index(0),
            }],
        )
        .unwrap();
        assert_eq!(
            format!("{:?}", out.outputs[0]),
            format!("{:?}", stem_engine::Output::Value(Value::Int(i as i64)))
        );
    }
    // The roll-up absorbs every shard leader exactly once.
    assert_eq!(cluster.stats().batches_ok, 24);

    // serve() speaks the wire vocabulary with global ids.
    match cluster.serve(Request::SessionStats {
        session: sessions[0].0,
    }) {
        Reply::SessionStats(ss) => assert_eq!(ss.n_variables, 1),
        other => panic!("{other:?}"),
    }
    // Replication verbs are the cluster's own business.
    assert!(matches!(cluster.serve(Request::SealWal), Reply::Err { .. }));
    // No lease on a volatile cluster, and nothing to fail over to.
    assert!(matches!(
        cluster.serve(Request::Lease {
            session: sessions[0].0
        }),
        Reply::Lease {
            epoch: 0,
            holder: 0
        }
    ));
    assert!(cluster.fail_over(0).is_err());

    assert!(cluster.close_session(sessions[3]));
    assert!(
        !cluster.close_session(sessions[3]),
        "second close is absent"
    );
}

#[test]
fn rendezvous_spreads_sessions_across_shards() {
    let cluster = Cluster::volatile(options(4));
    let mut per_shard = [0usize; 4];
    for _ in 0..64 {
        per_shard[cluster.shard_of(cluster.open_session())] += 1;
    }
    assert!(
        per_shard.iter().all(|&n| n > 0),
        "64 opens left a shard empty: {per_shard:?}"
    );
}

#[test]
fn fail_over_preserves_acked_batches_and_refuses_a_second() {
    let dir = TempDir::new("failover");
    let cluster = Cluster::open(&dir, options(2)).unwrap();

    // Sessions on both shards (open until each shard has one).
    let mut by_shard: [Vec<SessionId>; 2] = [Vec::new(), Vec::new()];
    while by_shard.iter().any(Vec::is_empty) {
        let s = cluster.open_session();
        by_shard[cluster.shard_of(s)].push(s);
    }
    for shard in &by_shard {
        for &s in shard {
            c_apply(&cluster, s, chain_cmds(6)).unwrap();
            c_apply(&cluster, s, vec![set(0, 11)]).unwrap();
        }
    }
    // Ship what exists, then write more that stays unshipped — failover
    // must deliver both halves (warm shipping + post-mortem catch-up).
    let moved = cluster.ship_now().unwrap();
    assert!(moved > 0, "256-byte segments must have sealed by now");
    for shard in &by_shard {
        for &s in shard {
            c_apply(&cluster, s, vec![set(2, 37)]).unwrap();
        }
    }

    let epoch_before = cluster.lease_of(0).0;
    cluster.fail_over(0).unwrap();
    assert!(
        cluster.lease_of(0).0 > epoch_before,
        "failover must advance the lease epoch"
    );

    // Every acked write is on the promoted leader; the chain propagated
    // 37 down the equalities, so any slot reads it back.
    for &s in &by_shard[0] {
        let out = c_apply(
            &cluster,
            s,
            vec![Command::Get {
                var: VarId::from_index(5),
            }],
        )
        .unwrap();
        assert_eq!(
            format!("{:?}", out.outputs[0]),
            format!("{:?}", stem_engine::Output::Value(Value::Int(37)))
        );
        // And it keeps accepting writes.
        c_apply(&cluster, s, vec![set(1, 40)]).unwrap();
    }
    // The other shard never noticed.
    for &s in &by_shard[1] {
        c_apply(&cluster, s, vec![set(3, 12)]).unwrap();
    }

    let err = cluster.fail_over(0).unwrap_err();
    assert!(
        err.to_string().contains("already failed over"),
        "second failover must be refused, got: {err}"
    );
    // An untouched shard can still fail over.
    cluster.fail_over(1).unwrap();
}

#[test]
fn lease_epochs_are_monotonic_across_cluster_reopen() {
    let dir = TempDir::new("lease-reopen");
    let (first_epochs, session);
    {
        let cluster = Cluster::open(&dir, options(2)).unwrap();
        first_epochs = [cluster.lease_of(0).0, cluster.lease_of(1).0];
        session = cluster.open_session();
        c_apply(&cluster, session, chain_cmds(4)).unwrap();
        c_apply(&cluster, session, vec![set(0, 21)]).unwrap();
        cluster.shutdown();
    }
    let cluster = Cluster::open(&dir, options(2)).unwrap();
    for (ix, &first) in first_epochs.iter().enumerate() {
        assert!(
            cluster.lease_of(ix).0 > first,
            "shard {ix}: reopen must advance the persisted epoch, \
             {} !> {first}",
            cluster.lease_of(ix).0,
        );
    }
    // Recovery replayed the first incarnation's WAL: same global id,
    // same values.
    let out = c_apply(
        &cluster,
        session,
        vec![Command::Get {
            var: VarId::from_index(3),
        }],
    )
    .unwrap();
    assert_eq!(
        format!("{:?}", out.outputs[0]),
        format!("{:?}", stem_engine::Output::Value(Value::Int(21)))
    );
}

#[test]
fn resurrected_leader_is_fenced_by_the_advanced_lease() {
    let dir = TempDir::new("zombie");
    let cluster = Cluster::open(&dir, options(1)).unwrap();
    let s = cluster.open_session();
    c_apply(&cluster, s, chain_cmds(4)).unwrap();
    let old_epoch = cluster.lease_of(0).0;
    cluster.fail_over(0).unwrap();
    let new_epoch = cluster.lease_of(0).0;
    assert!(new_epoch > old_epoch);
    drop(cluster);

    // A zombie process reopens the dead leader's store under its stale
    // grant. The durable lease outranks it: appends are fenced before
    // acknowledgement, reads still work.
    let shard_dir = dir.join("shard-0");
    let on_disk = Lease::load(&shard_dir).unwrap().expect("lease persisted");
    assert_eq!(on_disk.epoch, new_epoch, "failover durably advanced it");
    let zombie = Engine::open_with_config(
        &shard_dir,
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        stem_engine::DurabilityOptions {
            checkpoint_bytes: 0,
            ..stem_engine::DurabilityOptions::default()
        },
    )
    .unwrap();
    let live = Arc::new(AtomicU64::new(on_disk.epoch));
    zombie.install_lease(old_epoch, 1, live).unwrap();
    let zs = SessionId(s.0); // 1 shard: global == local
    let err = zombie.apply(zs, vec![set(0, 9)]).unwrap_err();
    assert!(
        matches!(err, BatchError::Persist { .. }),
        "stale-grant append must be fenced, got {err:?}"
    );
    let reads = zombie.apply(zs, vec![Command::DumpValues]).unwrap();
    assert!(!reads.outputs.is_empty());
}

/// The headline differential: a durable 2-shard cluster and a volatile
/// twin engine are fed identical seeded workloads; mid-pipeline — with
/// batches still in flight — the busiest shard's leader is killed and
/// its follower promoted. Per-batch results, final dumps, violation
/// reports, and structure counts must match the twin byte-for-byte: no
/// acked batch lost, none duplicated.
#[test]
fn kill_leader_mid_pipeline_differential_25_seeds() {
    const SEEDS: u64 = 25;
    const SESSIONS: usize = 3;
    const N_VARS: usize = 8;
    const PIPELINED: usize = 12; // in flight when the leader dies
    const AFTER: usize = 8; // applied on the promoted leader

    for seed in 0..SEEDS {
        let dir = TempDir::new(&format!("diff-{seed}"));
        let cluster = Cluster::open(&dir, options(2)).unwrap();
        let twin = Engine::with_config(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });

        let pairs: Vec<(SessionId, SessionId)> = (0..SESSIONS)
            .map(|_| (cluster.open_session(), twin.create_session()))
            .collect();
        for &(cs, ts) in &pairs {
            c_apply(&cluster, cs, chain_cmds(N_VARS)).unwrap();
            twin.apply(ts, chain_cmds(N_VARS)).unwrap();
        }
        let n_constraints = N_VARS; // n-1 equalities + the tripwire

        // Two rngs in lockstep: commands are not Clone, so each side
        // draws its own identical copy of every batch.
        let mut rng_c = SplitMix64::new(0xC0DE ^ seed);
        let mut rng_t = SplitMix64::new(0xC0DE ^ seed);

        // Phase 1: pipeline without waiting, ship part of the log so
        // failover exercises both delivery paths, then kill the leader
        // with the tail still queued.
        let mut tickets = Vec::new();
        let mut twin_results = Vec::new();
        for i in 0..PIPELINED {
            let which = rng_c.range_usize(0, SESSIONS);
            let batch = gen_batch(&mut rng_c, N_VARS, n_constraints);
            tickets.push(cluster.submit(pairs[which].0, 0, batch));

            let which_t = rng_t.range_usize(0, SESSIONS);
            assert_eq!(which, which_t);
            let batch_t = gen_batch(&mut rng_t, N_VARS, n_constraints);
            twin_results.push(twin.apply(pairs[which_t].1, batch_t));

            if i == PIPELINED / 2 {
                cluster.ship_now().unwrap();
            }
        }
        let victim = cluster.shard_of(pairs[0].0);
        cluster.fail_over(victim).unwrap();
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(
                render(&ticket.wait()),
                render(&twin_results[i]),
                "seed {seed}: in-flight batch {i} diverged across failover"
            );
        }

        // Phase 2: the promoted leader serves the rest of the workload.
        for i in 0..AFTER {
            let which = rng_c.range_usize(0, SESSIONS);
            let batch = gen_batch(&mut rng_c, N_VARS, n_constraints);
            let got = c_apply(&cluster, pairs[which].0, batch);

            let _ = rng_t.range_usize(0, SESSIONS);
            let batch_t = gen_batch(&mut rng_t, N_VARS, n_constraints);
            let want = twin.apply(pairs[which].1, batch_t);
            assert_eq!(
                render(&got),
                render(&want),
                "seed {seed}: post-failover batch {i} diverged"
            );
        }

        // Convergence: byte-identical dumps and violation reports, and
        // matching structure counts, on every session.
        for (i, &(cs, ts)) in pairs.iter().enumerate() {
            assert_eq!(
                state_of(|cmds| c_apply(&cluster, cs, cmds)),
                state_of(|cmds| twin.apply(ts, cmds)),
                "seed {seed}: session {i} state diverged"
            );
            let (c_ss, t_ss) = match cluster.serve(Request::SessionStats { session: cs.0 }) {
                Reply::SessionStats(ss) => (ss, twin.session_stats(ts)),
                other => panic!("{other:?}"),
            };
            assert_eq!(c_ss.n_variables, t_ss.n_variables, "seed {seed}");
            assert_eq!(c_ss.n_constraints, t_ss.n_constraints, "seed {seed}");
        }
        cluster.shutdown();
    }
}

/// Cold joiner: a fresh replica bootstraps from one `CatchUp` answer
/// (checkpoint snapshot + sealed tail) over TCP, then serves the same
/// state as the leader.
#[test]
fn catch_up_bootstraps_a_cold_follower_over_tcp() {
    use stem_server::{Client, Server};
    let dir = TempDir::new("catchup");
    let opts = stem_engine::DurabilityOptions {
        segment_bytes: 256,
        checkpoint_bytes: 0,
        ..stem_engine::DurabilityOptions::default()
    };
    let leader = Engine::open_with_config(
        &dir,
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        opts,
    )
    .unwrap();
    let leader_srv = Server::spawn(leader, "127.0.0.1:0").unwrap();
    let mut lc = Client::connect(leader_srv.local_addr()).unwrap();

    let s = lc.open().unwrap();
    lc.apply(s, &chain_cmds(5)).unwrap().unwrap();
    lc.apply(s, &[set(0, 17)]).unwrap().unwrap();
    // Snapshot part of the history, then keep writing a tail.
    leader_srv.engine().checkpoint().unwrap();
    lc.apply(s, &[set(2, 44)]).unwrap().unwrap();

    let (snapshot, segments) = lc.catch_up().unwrap();
    assert!(snapshot.is_some(), "checkpoint must surface in catch-up");
    assert!(!segments.is_empty(), "the tail rides as sealed segments");

    let joiner_srv = Server::spawn(Engine::replica(1), "127.0.0.1:0").unwrap();
    let mut jc = Client::connect(joiner_srv.local_addr()).unwrap();
    if let Some(bytes) = &snapshot {
        jc.ingest_snapshot(bytes).unwrap();
    }
    for seg in &segments {
        jc.ingest_segment(seg).unwrap();
    }
    assert!(jc.promote().unwrap(), "joiner was a replica");
    assert_eq!(
        lc.dump(s).unwrap(),
        jc.dump(s).unwrap(),
        "cold joiner must converge to the leader's exact state"
    );
    // A promoted joiner accepts writes.
    jc.apply(s, &[set(1, 50)]).unwrap().unwrap();
}

/// A cluster behind a single socket: `Cluster` implements `Backend`,
/// so the TCP frontend routes for the whole fleet.
#[test]
fn a_server_fronts_a_whole_cluster() {
    use stem_server::{Client, Server};
    let server = Server::spawn(Cluster::volatile(options(2)), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.ping().unwrap();
    let a = c.open().unwrap();
    let b = c.open().unwrap();
    assert_ne!(a.0, b.0);
    for (s, v) in [(a, 5i64), (b, 9)] {
        c.apply(s, &[Command::AddVariable { name: "n".into() }, set(0, v)])
            .unwrap()
            .unwrap();
        assert_eq!(
            c.value(s, VarId::from_index(0)).unwrap().unwrap(),
            Value::Int(v)
        );
    }
    // Two applies plus two value queries — every batch routed and acked.
    assert_eq!(c.stats().unwrap().batches_ok, 4);
    // Hand-driven replication verbs are refused with a structured error.
    assert!(matches!(
        c.call(&Request::Promote).unwrap(),
        Reply::Err { .. }
    ));
}
