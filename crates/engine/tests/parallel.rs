//! Engine-level behaviour of cone-kernel plan replay: the
//! `propagation_threads` knob, multi-`Set` batches against a sequential
//! twin, partition invalidation by structural edits landing mid-batch,
//! pool dispatch above the per-task floor, and the reconciliation of the
//! split replay counters with the plan-cache counters.

use std::rc::Rc;

use stem_core::kinds::Functional;
use stem_core::{Value, VarId};
use stem_engine::{Command, ConstraintSpec, Engine, EngineConfig, Output, SessionId, Source};
use stem_testkit::TempDir;

fn var(ix: usize) -> VarId {
    VarId::from_index(ix)
}

fn set(ix: usize, v: i64) -> Command {
    Command::Set {
        var: var(ix),
        value: Value::Int(v),
        source: Source::User,
    }
}

fn engine_with_threads(threads: usize) -> Engine {
    Engine::with_config(EngineConfig {
        workers: 1,
        propagation_threads: threads,
        ..EngineConfig::default()
    })
}

/// Appends one fanout cluster (root, then `cones` × {head, `fan`
/// mirrors, sum-out}) to `cmds`, returning the root's variable index.
/// Clusters are variable-disjoint, so each root has its own plan.
fn push_cluster(cmds: &mut Vec<Command>, next_ix: &mut usize, cones: usize, fan: usize) -> usize {
    let src = *next_ix;
    cmds.push(Command::AddVariable {
        name: format!("src{src}"),
    });
    *next_ix += 1;
    for _ in 0..cones {
        let head = *next_ix;
        cmds.push(Command::AddVariable {
            name: format!("h{head}"),
        });
        *next_ix += 1;
        cmds.push(Command::AddConstraint {
            spec: ConstraintSpec::Equality,
            args: vec![var(src), var(head)],
        });
        let mut args = Vec::with_capacity(fan + 1);
        for _ in 0..fan {
            let m = *next_ix;
            cmds.push(Command::AddVariable {
                name: format!("m{m}"),
            });
            *next_ix += 1;
            cmds.push(Command::AddConstraint {
                spec: ConstraintSpec::Equality,
                args: vec![var(head), var(m)],
            });
            args.push(var(m));
        }
        let out = *next_ix;
        cmds.push(Command::AddVariable {
            name: format!("o{out}"),
        });
        *next_ix += 1;
        args.push(var(out));
        cmds.push(Command::AddConstraint {
            spec: ConstraintSpec::Sum,
            args,
        });
    }
    src
}

fn dump(engine: &Engine, session: SessionId) -> Vec<(String, Value, stem_core::Justification)> {
    let out = engine
        .apply(session, vec![Command::DumpValues])
        .expect("dump batch");
    match out.outputs.into_iter().next() {
        Some(Output::Dump(d)) => d,
        other => panic!("expected dump, got {other:?}"),
    }
}

/// Three disjoint 8-cone clusters (1 + 31 + 1 = 33 executing steps per
/// cone, under the default pool floor, so replays run inline), built
/// identically on a sequential and a thread-enabled engine.
fn twin_engines(threads: usize) -> ([Engine; 2], [SessionId; 2], [usize; 3]) {
    let engines = [engine_with_threads(1), engine_with_threads(threads)];
    let mut roots = [0usize; 3];
    let sessions = engines.each_ref().map(|e| {
        let s = e.create_session();
        let mut setup = Vec::new();
        let mut ix = 0;
        for root in &mut roots {
            *root = push_cluster(&mut setup, &mut ix, 8, 31);
        }
        e.apply(s, setup).expect("setup batch");
        s
    });
    (engines, sessions, roots)
}

#[test]
fn batch_sets_match_sequential_engine() {
    let ([seq, par], [ss, sp], [a, b, c]) = twin_engines(8);
    type BatchFn = fn(usize, usize, usize) -> Vec<Command>;
    let batches: Vec<BatchFn> = vec![
        |a, b, c| vec![set(a, 5), set(b, 6), set(c, 7)], // cold: compile, then replay
        |a, _, c| vec![set(a, 8), set(c, 9)],            // warm: cached replays
        |a, b, _| vec![set(b, 1), set(b, 2), set(a, 3)], // repeated root: last wins
    ];
    for batch in batches {
        let os = seq.apply(ss, batch(a, b, c)).expect("sequential batch");
        let op = par.apply(sp, batch(a, b, c)).expect("parallel batch");
        assert_eq!(os.outputs, op.outputs);
        assert_eq!(os.waves, op.waves);
        assert_eq!(os.assignments, op.assignments);
    }
    assert_eq!(dump(&seq, ss), dump(&par, sp));
    // Same session work, same core counters — only the parallel split
    // counters may differ (the sequential engine's stay zero).
    let stats_seq = seq.session_stats(ss);
    let stats_par = par.session_stats(sp);
    assert_eq!(stats_seq.waves, stats_par.waves);
    assert_eq!(stats_seq.assignments, stats_par.assignments);
    assert_eq!(stats_seq.plan_cache_hits, stats_par.plan_cache_hits);
    assert_eq!(stats_seq.plan_replays_parallel, 0);
    assert_eq!(stats_seq.parallel_fallbacks, 0);
    // Every set after its root's compile replays through the kernels.
    assert!(
        stats_par.plan_replays_parallel >= 5,
        "warm sets must take the kernel path: {stats_par:?}"
    );
    assert_eq!(stats_par.parallel_fallbacks, 0);
}

#[test]
fn session_replay_counters_reconcile_with_cache_hits() {
    // An 8-cone cluster whose plan lowers to kernels.
    let mut cmds = Vec::new();
    let mut ix = 0;
    let big = push_cluster(&mut cmds, &mut ix, 8, 31);
    // And a two-variable custom functional: it plans, but its closure
    // has no thread-safe kernel, so the plan never partitions.
    let small = ix;
    cmds.push(Command::AddVariable { name: "s0".into() });
    cmds.push(Command::AddVariable { name: "s1".into() });
    ix += 2;
    cmds.push(Command::AddConstraint {
        spec: ConstraintSpec::Custom(Box::new(|| {
            Rc::new(Functional::custom("copy", |vals| Some(vals[0].clone())))
        })),
        args: vec![var(small), var(small + 1)],
    });
    let _ = ix;
    let engine = engine_with_threads(8);
    let session = engine.create_session();
    engine.apply(session, cmds).expect("setup");
    // Warm both plans (first replay runs off the fresh compile).
    engine
        .apply(session, vec![set(big, 1), set(small, 1)])
        .expect("warm");
    let base = engine.session_stats(session);
    for round in 0..6i64 {
        engine
            .apply(session, vec![set(big, round + 2), set(small, round + 2)])
            .expect("round");
    }
    let stats = engine.session_stats(session);
    let hits = stats.plan_cache_hits - base.plan_cache_hits;
    let replays = stats.plan_replays_parallel - base.plan_replays_parallel;
    let fallbacks = stats.parallel_fallbacks - base.parallel_fallbacks;
    // Every cached replay on a thread-enabled session lands in exactly
    // one of the two split counters.
    assert_eq!(hits, 12);
    assert_eq!(replays + fallbacks, hits);
    assert_eq!(replays, 6, "big-cluster sets must take the kernel path");
    assert_eq!(fallbacks, 6, "kernel-less sets must fall back");
    let cones = stats.cones_executed - base.cones_executed;
    assert_eq!(cones, 6 * 8);
    // The engine-wide rollup carries the same counters — including the
    // schedule-dependent steal count, which both tiers read from the
    // same committed replays and must therefore agree on exactly.
    let es = engine.stats();
    assert_eq!(es.plan_replays_parallel, stats.plan_replays_parallel);
    assert_eq!(es.cones_executed, stats.cones_executed);
    assert_eq!(es.cones_stolen, stats.cones_stolen);
    assert_eq!(es.parallel_fallbacks, stats.parallel_fallbacks);
}

#[test]
fn pooled_replay_counters_flow_through_engine_stats() {
    // Two cones of 1 + 1030 + 1 = 1032 executing steps each clear the
    // default 1,024-step floor, so the session hands them to the pool.
    let build = |threads: usize| {
        let mut cmds = Vec::new();
        let mut ix = 0;
        let root = push_cluster(&mut cmds, &mut ix, 2, 1030);
        let engine = engine_with_threads(threads);
        let session = engine.create_session();
        engine.apply(session, cmds).expect("setup");
        (engine, session, root)
    };
    let (par, sp, root) = build(4);
    let (seq, ss, _) = build(1);
    for round in 0..4i64 {
        let op = par.apply(sp, vec![set(root, round + 1)]).expect("par");
        let os = seq.apply(ss, vec![set(root, round + 1)]).expect("seq");
        assert_eq!(op.outputs, os.outputs);
        assert_eq!(op.assignments, os.assignments);
    }
    assert_eq!(dump(&par, sp), dump(&seq, ss));
    let stats = par.session_stats(sp);
    assert_eq!(stats.plan_replays_parallel, 4, "every planned set");
    assert_eq!(stats.cones_executed, 4 * 2);
    assert_eq!(stats.parallel_fallbacks, 0);
    let es = par.stats();
    assert_eq!(es.cones_executed, stats.cones_executed);
    assert_eq!(es.cones_stolen, stats.cones_stolen);
    // The sequential twin kept every kernel counter at zero.
    let stats_seq = seq.session_stats(ss);
    assert_eq!(stats_seq.plan_replays_parallel, 0);
    assert_eq!(stats_seq.cones_stolen, 0);
}

#[test]
fn structural_edit_mid_batch_invalidates_partitions() {
    // Two 8-cone clusters, warmed so both roots hold cached partitions.
    let build = |threads: usize| {
        let mut cmds = Vec::new();
        let mut ix = 0;
        let a = push_cluster(&mut cmds, &mut ix, 8, 31);
        let b = push_cluster(&mut cmds, &mut ix, 8, 31);
        let engine = engine_with_threads(threads);
        let session = engine.create_session();
        engine.apply(session, cmds).expect("setup");
        engine
            .apply(session, vec![set(a, 1), set(b, 1)])
            .expect("warm");
        (engine, session, a, b, ix)
    };
    let (par, sp, a, b, next) = build(8);
    let (seq, ss, _, _, _) = build(1);
    let base = par.session_stats(sp);
    // One batch: two sets, then a structural edit rewiring cluster A's
    // root into a fresh equality, then more sets. The edit bumps the
    // structure generation, so the later sets must not replay the stale
    // cone tables (whose write ranges no longer cover the new
    // constraint's target).
    let batch = || {
        vec![
            set(a, 10),
            set(b, 20),
            Command::AddVariable {
                name: "late".into(),
            },
            Command::AddConstraint {
                spec: ConstraintSpec::Equality,
                args: vec![var(a), var(next)],
            },
            set(a, 30),
            set(b, 40),
        ]
    };
    let op = par.apply(sp, batch()).expect("parallel batch");
    let os = seq.apply(ss, batch()).expect("sequential batch");
    assert_eq!(op.outputs, os.outputs);
    assert_eq!(dump(&par, sp), dump(&seq, ss));
    // The late variable received cluster A's post-edit value — the
    // stale partition (which could never write it) was not replayed.
    let late = dump(&par, sp)
        .into_iter()
        .find(|(name, _, _)| name == "late")
        .expect("late variable");
    assert_eq!(late.1, Value::Int(30));
    let stats = par.session_stats(sp);
    assert!(
        stats.plan_cache_invalidations > base.plan_cache_invalidations,
        "the structural edit must invalidate the cached plans"
    );
    // Post-edit replays recompiled and ran parallel again.
    assert!(stats.plan_replays_parallel > base.plan_replays_parallel);
}

#[test]
fn threads_knob_survives_durable_recovery() {
    let dir = TempDir::new("engine-parallel");
    let config = EngineConfig {
        workers: 1,
        propagation_threads: 8,
        ..EngineConfig::default()
    };
    let mut cmds = Vec::new();
    let mut ix = 0;
    let big = push_cluster(&mut cmds, &mut ix, 8, 31);
    let before;
    {
        let engine = Engine::open_with_config(&dir, config, Default::default()).expect("open");
        let session = engine.create_session();
        engine.apply(session, cmds).expect("setup");
        engine
            .apply(session, vec![set(big, 1), set(big, 2)])
            .expect("sets");
        before = dump(&engine, session);
        let stats = engine.session_stats(session);
        assert!(stats.plan_replays_parallel > 0);
        engine.shutdown();
    }
    // Recovery replays the logged batches on a network stamped with the
    // same thread budget; state and parallel behaviour both survive.
    let engine = Engine::open_with_config(&dir, config, Default::default()).expect("reopen");
    let session = SessionId(0);
    assert_eq!(dump(&engine, session), before);
    engine
        .apply(session, vec![set(big, 3), set(big, 4)])
        .expect("post-recovery sets");
    let stats = engine.session_stats(session);
    assert!(
        stats.plan_replays_parallel > 0,
        "recovered sessions must keep the thread budget"
    );
    engine.shutdown();
}
