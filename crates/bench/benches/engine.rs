//! Engine-level benches: batch round-trip latency through a worker and
//! pipelined multi-session throughput (T-E19's workload at bench scale).

use stem_bench::harness::{smoke, BenchmarkId, Criterion};
use stem_bench::{criterion_group, criterion_main};
use stem_core::kinds::{Equality, PredOp, Predicate};
use stem_core::{Justification, Network, Value, VarId};
use stem_engine::{
    Command, ConstraintSpec, Durability, DurabilityOptions, Engine, EngineConfig, Source,
};
use stem_testkit::TempDir;

fn chain_session(engine: &Engine, len: usize) -> stem_engine::SessionId {
    let s = engine.create_session();
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
    engine.apply(s, cmds).unwrap();
    s
}

/// One `Set` batch applied synchronously: submit → propagate a 100-var
/// equality chain → reply. Measures the full engine round trip.
fn batch_round_trip(c: &mut Criterion) {
    let engine = Engine::new(1);
    let session = chain_session(&engine, 100);
    let head = VarId::from_index(0);
    let mut tick = 0i64;
    c.bench_function("engine/batch_round_trip_chain100", |b| {
        b.iter(|| {
            tick += 1;
            engine
                .apply(
                    session,
                    vec![Command::Set {
                        var: head,
                        value: Value::Int(tick),
                        source: Source::User,
                    }],
                )
                .unwrap()
        })
    });
}

/// Pipelined throughput over 8 sessions for several worker counts: all
/// batches are submitted before any ticket is awaited, so workers drain
/// their queues concurrently.
fn pipelined_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/pipelined_8x50");
    for &workers in &[1usize, 2, 4] {
        let engine = Engine::with_config(EngineConfig {
            workers,
            queue_capacity: 128,
            step_budget: None,
            ..EngineConfig::default()
        });
        let sessions: Vec<_> = (0..8).map(|_| chain_session(&engine, 100)).collect();
        let head = VarId::from_index(0);
        let mut tick = 0i64;
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            b.iter(|| {
                tick += 1;
                let tickets: Vec<_> = (0..50)
                    .flat_map(|round| {
                        sessions
                            .iter()
                            .map(move |&s| (s, round))
                            .collect::<Vec<_>>()
                    })
                    .map(|(s, round)| {
                        engine.submit(
                            s,
                            vec![Command::Set {
                                var: head,
                                value: Value::Int(tick * 1000 + round),
                                source: Source::User,
                            }],
                        )
                    })
                    .collect();
                for t in tickets {
                    t.wait().unwrap();
                }
            })
        });
    }
    group.finish();
}

/// A session of `n` variables where only two are ever touched: an
/// equality `v0 = v1` with a `v1 ≤ 60` tripwire. A violating `Set v0`
/// touches exactly two variables regardless of `n`.
fn sparse_session(engine: &Engine, n: usize) -> stem_engine::SessionId {
    let s = engine.create_session();
    let mut next = 0usize;
    while next < n {
        let hi = (next + 10_000).min(n);
        let cmds: Vec<Command> = (next..hi)
            .map(|i| Command::AddVariable {
                name: format!("v{i}"),
            })
            .collect();
        engine.apply(s, cmds).unwrap();
        next = hi;
    }
    engine
        .apply(
            s,
            vec![
                Command::AddConstraint {
                    spec: ConstraintSpec::Equality,
                    args: vec![VarId::from_index(0), VarId::from_index(1)],
                },
                Command::AddConstraint {
                    spec: ConstraintSpec::LeConst(Value::Int(60)),
                    args: vec![VarId::from_index(1)],
                },
            ],
        )
        .unwrap();
    s
}

/// Network sizes the rollback-latency groups sweep.
fn rollback_sizes() -> &'static [usize] {
    if smoke() {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000, 100_000]
    }
}

/// Rollback latency of a violating two-variable batch as network size
/// grows, through the engine: the journal replays two pre-images
/// whatever the size, so the curve stays flat (§9.2.3 cost model).
fn rollback_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/rollback_latency");
    for &n in rollback_sizes() {
        let engine = Engine::new(1);
        let session = sparse_session(&engine, n);
        group.bench_with_input(BenchmarkId::new("journal", n), &n, |b, _| {
            b.iter(|| {
                engine
                    .apply(
                        session,
                        vec![Command::Set {
                            var: VarId::from_index(0),
                            value: Value::Int(100),
                            source: Source::Application,
                        }],
                    )
                    .unwrap_err()
            })
        });
    }
    group.finish();
}

/// The same violating `set` on a core network of `n` variables, without
/// the engine hop, undone by each of the core's two rollback APIs. The
/// change journal replays two pre-images; a whole-network snapshot
/// copies and restores every variable, so its curve exposes the
/// O(network) cost the journal removes (T-E21).
fn core_rollback_latency(c: &mut Criterion) {
    let (v0, v1) = (VarId::from_index(0), VarId::from_index(1));
    let mut group = c.benchmark_group("engine/rollback_latency_core");
    for &n in rollback_sizes() {
        let mut net = Network::new();
        for i in 0..n {
            net.add_variable(format!("v{i}"));
        }
        net.add_constraint(Equality::new(), [v0, v1]).unwrap();
        net.add_constraint(Predicate::new(PredOp::LeConst(Value::Int(60))), [v1])
            .unwrap();
        group.bench_with_input(BenchmarkId::new("journal", n), &n, |b, _| {
            b.iter(|| {
                net.begin_journal();
                let err = net.set(v0, Value::Int(100), Justification::Application);
                net.rollback_journal();
                err.unwrap_err()
            })
        });
        group.bench_with_input(BenchmarkId::new("snapshot", n), &n, |b, _| {
            b.iter(|| {
                let snapshot = net.snapshot();
                let err = net.set(v0, Value::Int(100), Justification::Application);
                net.restore_snapshot(&snapshot);
                err.unwrap_err()
            })
        });
    }
    group.finish();
}

/// WAL overhead on the batch round trip: the same chain-100 `Set`
/// workload as `batch_round_trip`, against a volatile engine, an
/// interval-sync durable engine (append per commit, fsync on a 25 ms
/// timer), a commit-sync engine (fsync per batch) and a group-commit
/// engine (shared fsyncs, here with one submitter). The `ci.sh`
/// durability gap gate holds `interval_sync` within 10% of `volatile`;
/// `commit_sync` measures the price of an on-disk ack and is reported,
/// not gated against the in-memory baseline.
fn durability_overhead(c: &mut Criterion) {
    let base = TempDir::new("bench-durability");
    let variants: &[(&str, Option<Durability>)] = &[
        ("volatile", None),
        (
            "interval_sync",
            Some(Durability::IntervalSync {
                interval: std::time::Duration::from_millis(25),
            }),
        ),
        ("commit_sync", Some(Durability::CommitSync)),
        // Single serial submitter: group commit still pays one fsync per
        // batch (nobody to share with), so this leg prices the
        // coordinator's overhead against commit_sync; the amortization
        // curve lives in T-E23 and BENCH_server.json.
        ("group_commit", Some(Durability::GroupCommit)),
    ];
    let mut group = c.benchmark_group("engine/durability_chain100");
    for &(label, mode) in variants {
        let engine = match mode {
            None => Engine::new(1),
            Some(mode) => Engine::open_with_config(
                base.join(label),
                EngineConfig {
                    workers: 1,
                    ..EngineConfig::default()
                },
                DurabilityOptions {
                    mode,
                    checkpoint_bytes: 0, // no checkpoint jitter mid-measurement
                    ..DurabilityOptions::default()
                },
            )
            .expect("open durable bench engine"),
        };
        let session = chain_session(&engine, 100);
        let head = VarId::from_index(0);
        let mut tick = 0i64;
        group.bench_function(label, |b| {
            b.iter(|| {
                tick += 1;
                engine
                    .apply(
                        session,
                        vec![Command::Set {
                            var: head,
                            value: Value::Int(tick),
                            source: Source::User,
                        }],
                    )
                    .unwrap()
            })
        });
        engine.shutdown();
    }
    group.finish();
}

criterion_group!(
    benches,
    batch_round_trip,
    pipelined_throughput,
    rollback_latency,
    core_rollback_latency,
    durability_overhead
);
criterion_main!(benches);
