//! Server-level benches over real loopback TCP: pipelined batch
//! throughput through the wire protocol, and replication lag — the
//! seal → fetch → ingest cycle that moves one commit from a leader
//! server to a queryable follower.

use stem_bench::harness::{BenchmarkId, Criterion};
use stem_bench::{criterion_group, criterion_main};
use stem_core::{Value, VarId};
use stem_engine::{
    Command, ConstraintSpec, Durability, DurabilityOptions, Engine, EngineConfig, Source,
};
use stem_server::{Client, Cluster, ClusterOptions, Server};
use stem_testkit::TempDir;

fn set_head(tick: i64) -> Command {
    Command::Set {
        var: VarId::from_index(0),
        value: Value::Int(tick),
        source: Source::User,
    }
}

fn chain_session(client: &mut Client, len: usize) -> stem_engine::SessionId {
    let s = client.open().expect("open");
    let mut cmds: Vec<Command> = (0..len)
        .map(|i| Command::AddVariable {
            name: format!("v{i}"),
        })
        .collect();
    for i in 0..len - 1 {
        cmds.push(Command::AddConstraint {
            spec: ConstraintSpec::Equality,
            args: vec![VarId::from_index(i), VarId::from_index(i + 1)],
        });
    }
    client.apply(s, &cmds).expect("transport").expect("chain");
    s
}

/// Round trips through the socket at pipeline depths 1 and 32: depth 1
/// is the request/reply latency floor (encode, frame, TCP, decode,
/// engine, and back); depth 32 keeps the connection's submission queue
/// full, so framing and propagation overlap. One iteration = `depth`
/// batches, so ops/s are burst rates — compare depths by multiplying
/// back up.
fn loopback_pipeline(c: &mut Criterion) {
    let server = Server::spawn(Engine::new(2), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let session = chain_session(&mut client, 100);
    let mut group = c.benchmark_group("server/loopback_chain100");
    let mut tick = 0i64;
    for &depth in &[1usize, 32] {
        group.bench_with_input(BenchmarkId::new("pipeline", depth), &depth, |b, &depth| {
            b.iter(|| {
                for _ in 0..depth {
                    tick += 1;
                    client.submit(session, &[set_head(tick)]).expect("submit");
                }
                let results = client.drain().expect("drain");
                assert!(results.iter().all(Result::is_ok));
                results.len()
            })
        });
    }
    group.finish();
}

/// The same pipelined loopback workload, but routed: the server fronts
/// a two-shard volatile [`Cluster`] instead of a bare engine, so every
/// batch pays the router's id translation and shard-roster read lock on
/// top of the wire. Compared against `server/loopback_chain100` by the
/// CI ratio gate — routing must stay within 15% of direct submission.
fn routed_pipeline(c: &mut Criterion) {
    let cluster = Cluster::volatile(ClusterOptions {
        shards: 2,
        workers_per_shard: 1,
        ship_interval: None,
        ..ClusterOptions::default()
    });
    let server = Server::spawn(cluster, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let session = chain_session(&mut client, 100);
    let mut group = c.benchmark_group("server/routed_chain100");
    let mut tick = 0i64;
    for &depth in &[1usize, 32] {
        group.bench_with_input(BenchmarkId::new("pipeline", depth), &depth, |b, &depth| {
            b.iter(|| {
                for _ in 0..depth {
                    tick += 1;
                    client.submit(session, &[set_head(tick)]).expect("submit");
                }
                let results = client.drain().expect("drain");
                assert!(results.iter().all(Result::is_ok));
                results.len()
            })
        });
    }
    group.finish();
}

/// Replication lag, end to end over two sockets: the leader commits one
/// durable batch, seals its WAL, and the newly sealed segments are
/// fetched from the leader server and ingested into a follower server.
/// One iteration = one commit made queryable on the replica.
fn replication_lag(c: &mut Criterion) {
    let dir = TempDir::new("bench-ship");
    let leader_engine = Engine::open_with_config(
        &dir,
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        DurabilityOptions {
            mode: Durability::GroupCommit,
            // Small segments: each commit seals into its own shipping unit.
            segment_bytes: 64,
            checkpoint_bytes: 0,
            ..DurabilityOptions::default()
        },
    )
    .expect("open leader");
    let leader_srv = Server::spawn(leader_engine, "127.0.0.1:0").expect("bind leader");
    let follower_srv = Server::spawn(Engine::replica(1), "127.0.0.1:0").expect("bind follower");
    let mut leader = Client::connect(leader_srv.local_addr()).expect("connect leader");
    let mut follower = Client::connect(follower_srv.local_addr()).expect("connect follower");
    let session = chain_session(&mut leader, 20);
    // Ship the session skeleton so the measured loop ships exactly one
    // commit per iteration.
    let mut shipped = 0u64;
    let mut tick = 0i64;
    let mut ship_new = |leader: &mut Client, follower: &mut Client| {
        let mut applied = 0;
        for ix in leader.seal_wal().expect("seal") {
            if ix < shipped {
                continue;
            }
            let bytes = leader.fetch_segment(ix).expect("fetch");
            applied += follower.ingest_segment(&bytes).expect("ingest").0;
            shipped = ix + 1;
        }
        applied
    };
    ship_new(&mut leader, &mut follower);
    c.bench_function("server/replication_lag_1commit", |b| {
        b.iter(|| {
            tick += 1;
            leader
                .apply(session, &[set_head(tick)])
                .expect("transport")
                .expect("commit");
            let applied = ship_new(&mut leader, &mut follower);
            assert!(applied >= 1, "each iteration must ship its commit");
            applied
        })
    });
    drop(leader);
    drop(follower);
    drop(leader_srv);
    drop(follower_srv);
}

criterion_group!(benches, loopback_pipeline, routed_pipeline, replication_lag);
criterion_main!(benches);
