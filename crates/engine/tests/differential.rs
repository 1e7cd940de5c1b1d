//! Journal rollback against an oracle that never rolls back. An engine
//! runs SplitMix64-derived batch workloads on one session, and a healthy
//! share of the batches violate mid-propagation and roll back through the
//! change journal. The oracle's answers never depend on a rollback: a
//! batch's expected outcome comes from a fresh engine that replays every
//! committed batch and then this one, and the expected state after the
//! batch from a twin engine that has only ever applied committed batches.
//! Outcomes and `DumpValues` dumps must match after every batch. A
//! group-commit leg pipelines each phase into a durable engine, so
//! violations, structural edits and removals run stacked on batches whose
//! records are not yet durable.

use std::rc::Rc;

use stem_core::prng::SplitMix64;
use stem_core::{ConstraintId, ConstraintKind, Network, Value, VarId, Violation};
use stem_engine::{
    BatchError, BatchOutcome, Command, ConstraintSpec, Durability, DurabilityOptions, Engine,
    EngineConfig, KindFactory, Output, SessionId, Source,
};
use stem_testkit::TempDir;

/// Variables in the chain every session starts from; it also carries one
/// constraint per variable (the equalities plus the tripwire).
const CHAIN: usize = 10;

fn one_worker() -> EngineConfig {
    EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }
}

fn engine() -> Engine {
    Engine::with_config(one_worker())
}

/// One deterministic batch drawn from the rng. `structural` additionally
/// mixes in structure edits; `removals` allows `RemoveConstraint`.
fn gen_batch(rng: &mut SplitMix64, structural: bool, removals: bool) -> Vec<Command> {
    let mut batch = Vec::new();
    let len = rng.range_usize(1, 5);
    for _ in 0..len {
        let var = VarId::from_index(rng.range_usize(0, CHAIN));
        match rng.range_usize(0, 10) {
            // Values above ~60 trip the LeConst bound installed on the
            // chain, so a healthy fraction of batches violate and roll
            // back — the interesting case.
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
            7 if structural => batch.push(Command::AddVariable {
                name: format!("x{}", rng.next_u64() % 1000),
            }),
            8 if structural => batch.push(Command::EnableConstraint {
                constraint: ConstraintId::from_index(rng.range_usize(0, CHAIN)),
                enabled: rng.next_bool(),
            }),
            9 if removals => batch.push(Command::RemoveConstraint {
                constraint: ConstraintId::from_index(rng.range_usize(0, CHAIN)),
            }),
            _ => batch.push(Command::Get { var }),
        }
    }
    batch
}

/// A drawn batch, kept as the generator state that drew it: `Command` is
/// not `Clone`, so every replay regenerates the batch from a copy.
#[derive(Clone, Copy)]
struct Draw {
    rng: SplitMix64,
    structural: bool,
    removals: bool,
}

impl Draw {
    fn commands(self) -> Vec<Command> {
        let mut rng = self.rng;
        gen_batch(&mut rng, self.structural, self.removals)
    }
}

/// Renders a batch result to a canonical comparison string.
fn render(result: &Result<BatchOutcome, BatchError>) -> String {
    match result {
        Ok(out) => format!("ok outputs={:?}", out.outputs),
        // Violation details must match too: same failing command, same
        // violation shape.
        Err(e) => format!("err {e:?}"),
    }
}

fn dump(engine: &Engine, session: SessionId) -> String {
    let out = engine
        .apply(session, vec![Command::DumpValues])
        .expect("dump never fails");
    format!("{:?}", out.outputs)
}

/// An equality chain over `CHAIN` variables with a tripwire in the middle.
fn build_chain(engine: &Engine, session: SessionId) {
    let mut batch: Vec<Command> = (0..CHAIN)
        .map(|i| Command::AddVariable {
            name: format!("v{i}"),
        })
        .collect();
    for i in 0..CHAIN - 1 {
        batch.push(Command::AddConstraint {
            spec: ConstraintSpec::Equality,
            args: vec![VarId::from_index(i), VarId::from_index(i + 1)],
        });
    }
    // The tripwire: mid-chain values above 60 violate during propagation.
    batch.push(Command::AddConstraint {
        spec: ConstraintSpec::LeConst(Value::Int(60)),
        args: vec![VarId::from_index(CHAIN / 2)],
    });
    engine.apply(session, batch).expect("chain builds clean");
}

/// A chain session on a new one-worker engine.
fn chain_engine() -> (Engine, SessionId) {
    let engine = engine();
    let session = engine.create_session();
    build_chain(&engine, session);
    (engine, session)
}

/// The rollback-free oracle: the batches that committed, in order, and a
/// twin that has applied exactly those.
struct Oracle {
    committed: Vec<Draw>,
    twin: (Engine, SessionId),
}

impl Oracle {
    /// `draw`'s outcome on a fresh engine after every committed batch —
    /// each of which commits there too, so nothing before `draw` rolls
    /// back.
    fn outcome(&self, draw: Draw) -> String {
        let (fresh, session) = chain_engine();
        let replays: Vec<_> = self
            .committed
            .iter()
            .map(|d| fresh.submit(session, d.commands()))
            .collect();
        for ticket in replays {
            ticket.wait().expect("a committed batch commits on replay");
        }
        render(&fresh.apply(session, draw.commands()))
    }

    fn commit(&mut self, draw: Draw) {
        let (twin, session) = &self.twin;
        twin.apply(*session, draw.commands())
            .expect("a committed batch commits on the twin");
        self.committed.push(draw);
    }
}

/// `(name, rounds, structural, removals)` per phase of a workload.
const PHASES: [(&str, usize, bool, bool); 3] = [
    ("value-only", 120, false, false),
    ("structural", 40, true, false),
    ("removal", 30, true, true),
];

#[test]
fn journal_rollback_matches_a_rollback_free_oracle() {
    let (subject, s) = chain_engine();
    let mut oracle = Oracle {
        committed: Vec::new(),
        twin: chain_engine(),
    };
    let mut rng = SplitMix64::new(0xD1FF);
    for (phase, rounds, structural, removals) in PHASES {
        let mut rolled_back = 0usize;
        let mut removed = 0usize;
        for round in 0..rounds {
            let draw = Draw {
                rng,
                structural,
                removals,
            };
            let commands = gen_batch(&mut rng, structural, removals);
            let removes = commands
                .iter()
                .any(|c| matches!(c, Command::RemoveConstraint { .. }));
            let result = subject.apply(s, commands);
            assert_eq!(
                render(&result),
                oracle.outcome(draw),
                "{phase} outcome diverged at round {round}"
            );
            if result.is_ok() {
                oracle.commit(draw);
                removed += usize::from(removes);
            } else {
                rolled_back += 1;
            }
            let (twin, twin_session) = &oracle.twin;
            assert_eq!(
                dump(&subject, s),
                dump(twin, *twin_session),
                "{phase} state diverged after round {round}"
            );
        }
        assert!(
            rolled_back > 0,
            "{phase}: no batch rolled back — tripwire too loose"
        );
        if removals {
            assert!(removed > 0, "{phase}: no removal batch committed");
        }
    }
}

#[test]
fn stacked_group_commit_matches_the_rollback_free_oracle() {
    let dir = TempDir::new("stacked-differential");
    let durable = || {
        let opts = DurabilityOptions {
            mode: Durability::GroupCommit,
            checkpoint_bytes: 0,
            ..DurabilityOptions::default()
        };
        Engine::open_with_config(&dir, one_worker(), opts).unwrap()
    };
    let subject = durable();
    let s = subject.create_session();
    build_chain(&subject, s);
    let mut oracle = Oracle {
        committed: Vec::new(),
        twin: chain_engine(),
    };
    let mut rng = SplitMix64::new(0x57AC);
    let before = subject.stats();
    for (phase, rounds, structural, removals) in PHASES {
        // The whole phase is in flight before any reply is read.
        let draws: Vec<Draw> = (0..rounds)
            .map(|_| {
                let draw = Draw {
                    rng,
                    structural,
                    removals,
                };
                gen_batch(&mut rng, structural, removals);
                draw
            })
            .collect();
        let tickets: Vec<_> = draws
            .iter()
            .map(|draw| subject.submit(s, draw.commands()))
            .collect();
        let mut rolled_back = 0usize;
        for (round, (draw, ticket)) in draws.into_iter().zip(tickets).enumerate() {
            let result = ticket.wait();
            assert_eq!(
                render(&result),
                oracle.outcome(draw),
                "{phase} outcome diverged at round {round}"
            );
            if result.is_ok() {
                oracle.commit(draw);
            } else {
                rolled_back += 1;
            }
        }
        assert!(rolled_back > 0, "{phase}: no batch rolled back");
        let (twin, twin_session) = &oracle.twin;
        assert_eq!(
            dump(&subject, s),
            dump(twin, *twin_session),
            "{phase} state diverged"
        );
    }
    let after = subject.stats();
    let appends = after.wal_appends - before.wal_appends;
    let syncs = after.wal_group_syncs - before.wal_group_syncs;
    assert!(
        syncs * 4 <= appends,
        "batches did not stack: {syncs} flushes for {appends} appends"
    );
    let want = dump(&subject, s);
    drop(subject);
    assert_eq!(dump(&durable(), s), want, "after reopen");
}

/// Panics once a non-nil value reaches it. Installing it is safe: the
/// install pass dispatches its argument while the value is still `Nil`.
#[derive(Debug)]
struct PanicOnInfer;

impl ConstraintKind for PanicOnInfer {
    fn kind_name(&self) -> &str {
        "panicOnInfer"
    }

    fn infer(
        &self,
        net: &mut Network,
        _cid: ConstraintId,
        changed: Option<VarId>,
    ) -> Result<(), Violation> {
        if changed.is_some_and(|v| !net.value(v).is_nil()) {
            panic!("deliberate test panic");
        }
        Ok(())
    }

    fn is_satisfied(&self, _net: &Network, _cid: ConstraintId) -> bool {
        true
    }
}

#[test]
fn journal_rollback_undoes_propagation_before_a_panic() {
    let (engine, s) = chain_engine();
    let trigger = VarId::from_index(CHAIN);
    engine
        .apply(
            s,
            vec![
                Command::AddVariable {
                    name: "trigger".into(),
                },
                Command::AddConstraint {
                    spec: ConstraintSpec::Custom(KindFactory::new(|| Rc::new(PanicOnInfer))),
                    args: vec![trigger],
                },
            ],
        )
        .unwrap();
    let before = dump(&engine, s);
    let set = |var: VarId, v: i64| Command::Set {
        var,
        value: Value::Int(v),
        source: Source::User,
    };
    let head = VarId::from_index(0);

    // The first command floods the chain; the second panics mid-cycle.
    let err = engine
        .apply(s, vec![set(head, 7), set(trigger, 1)])
        .unwrap_err();
    assert!(matches!(err, BatchError::Panicked { .. }), "{err:?}");
    assert_eq!(
        dump(&engine, s),
        before,
        "a panicked batch must leave no trace"
    );

    // Alone, the first command reaches the chain's end: the rollback
    // above undid real propagation, not a no-op.
    assert!(engine.lift_quarantine(s));
    let tail = VarId::from_index(CHAIN - 1);
    let out = engine
        .apply(s, vec![set(head, 7), Command::Get { var: tail }])
        .unwrap();
    assert_eq!(out.outputs[1], Output::Value(Value::Int(7)));
}
