//! Journal savepoints: `rollback_journal_to` undoes exactly the segment
//! after its mark — for every kind of journal entry — and leaves a network
//! whose later propagation matches one that never ran the segment; a full
//! `rollback_journal` still restores the state before the journal opened.

use stem_core::kinds::{DomLe, DomainConstraint, Equality};
use stem_core::{ConstraintId, Interval, Justification, Network, Value, VarId};

/// Everything a journal entry can touch: values, justifications, wiring,
/// enable flags, subsumption marks, the change limit and the arenas.
fn state(net: &Network) -> String {
    let mut out = String::new();
    for v in net.variables() {
        out += &format!(
            "{}={:?}/{:?} on {:?};",
            net.var_name(v),
            net.value(v),
            net.justification(v),
            net.constraints_of(v)
        );
    }
    for ix in 0..net.n_constraint_slots() {
        let cid = ConstraintId::from_index(ix);
        out += &format!(
            " c{ix}:{}{}",
            net.is_constraint_enabled(cid),
            net.is_subsumed(cid)
        );
    }
    out + &format!(
        " limit={} subsumed={}",
        net.value_change_limit(),
        net.subsumed_count()
    )
}

fn v(ix: usize) -> VarId {
    VarId::from_index(ix)
}

fn c(ix: usize) -> ConstraintId {
    ConstraintId::from_index(ix)
}

fn set(net: &mut Network, var: usize, value: Value) {
    net.set(v(var), value, Justification::User).unwrap();
}

fn int(n: i64) -> Value {
    Value::Int(n)
}

/// Four variables in an equality chain `v0 = v1 = v2 = v3`.
fn chain(net: &mut Network) {
    for i in 0..4 {
        net.add_variable(format!("v{i}"));
    }
    for i in 0..3 {
        net.add_constraint(Equality::new(), [v(i), v(i + 1)])
            .unwrap();
    }
}

/// `x ≤ y` over two interval variables, not yet entailed.
fn ordered(net: &mut Network) {
    let x = net.add_variable("x");
    let y = net.add_variable("y");
    net.set(
        x,
        Value::Interval(Interval::new(0, 100)),
        Justification::User,
    )
    .unwrap();
    net.set(
        y,
        Value::Interval(Interval::new(0, 100)),
        Justification::User,
    )
    .unwrap();
    net.add_constraint(DomainConstraint::new(DomLe::le(0)), [x, y])
        .unwrap();
}

type Step = fn(&mut Network);

/// One entry kind under test: a set-up, batch A, batch B (touching what A
/// touched, with entries of the same kind) and a probe run afterwards.
struct Case {
    name: &'static str,
    setup: Step,
    a: Step,
    b: Step,
    probe: Step,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "Value",
            setup: chain,
            a: |net| set(net, 0, int(1)),
            b: |net| set(net, 0, int(2)),
            probe: |net| set(net, 0, int(7)),
        },
        Case {
            name: "VarAdded",
            setup: chain,
            a: |net| {
                let a = net.add_variable("a");
                net.add_constraint(Equality::new(), [v(0), a]).unwrap();
                set(net, 0, int(1));
            },
            b: |net| {
                net.add_variable("b");
                set(net, 0, int(2));
                set(net, 5, int(3));
            },
            probe: |net| {
                net.add_variable("p");
                set(net, 0, int(9));
            },
        },
        Case {
            name: "ConstraintAdded",
            setup: |net| {
                for i in 0..4 {
                    net.add_variable(format!("v{i}"));
                }
            },
            a: |net| {
                net.add_constraint(Equality::new(), [v(0), v(1)]).unwrap();
                set(net, 0, int(1));
            },
            b: |net| {
                net.add_constraint(Equality::new(), [v(1), v(2)]).unwrap();
                net.add_constraint(Equality::new(), [v(0), v(3)]).unwrap();
                set(net, 0, int(2));
            },
            probe: |net| {
                net.add_constraint(Equality::new(), [v(2), v(3)]).unwrap();
                set(net, 0, int(5));
            },
        },
        Case {
            name: "ConstraintRemoved",
            setup: chain,
            a: |net| {
                net.remove_constraint(c(0));
                set(net, 1, int(1));
            },
            b: |net| {
                net.remove_constraint(c(1));
                set(net, 1, int(2));
                set(net, 2, int(4));
            },
            probe: |net| set(net, 1, int(8)),
        },
        Case {
            name: "EnabledChanged",
            setup: chain,
            a: |net| {
                net.set_constraint_enabled(c(0), false);
                set(net, 1, int(1));
            },
            b: |net| {
                net.set_constraint_enabled(c(0), true);
                net.set_constraint_enabled(c(2), false);
                set(net, 1, int(2));
            },
            probe: |net| set(net, 1, int(6)),
        },
        Case {
            name: "LimitChanged",
            setup: chain,
            a: |net| {
                net.set_value_change_limit(3);
                set(net, 0, int(1));
            },
            b: |net| {
                net.set_value_change_limit(5);
                set(net, 0, int(2));
            },
            probe: |net| set(net, 0, int(4)),
        },
        Case {
            name: "SubsumedChanged",
            setup: ordered,
            // Entailed once x ≤ 10 and y ≥ 20: the mark is set.
            a: |net| {
                set(net, 0, Value::Interval(Interval::new(0, 10)));
                set(net, 1, Value::Interval(Interval::new(20, 50)));
                assert!(net.is_subsumed(c(0)));
            },
            // Widening x breaks the witness (mark cleared), narrowing y
            // re-marks.
            b: |net| {
                set(net, 0, Value::Interval(Interval::new(0, 60)));
                assert!(!net.is_subsumed(c(0)));
                set(net, 1, Value::Interval(Interval::new(70, 80)));
                assert!(net.is_subsumed(c(0)));
            },
            probe: |net| set(net, 0, Value::Interval(Interval::new(0, 90))),
        },
    ]
}

#[test]
fn rollback_to_a_savepoint_restores_exactly_the_first_segment() {
    for case in cases() {
        let name = case.name;
        let fresh = || {
            let mut net = Network::new();
            (case.setup)(&mut net);
            net
        };
        // Twins: the set-up alone, and the set-up plus batch A.
        let base = fresh();
        let mut after_a = fresh();
        (case.a)(&mut after_a);
        assert_ne!(state(&after_a), state(&base), "{name}: A changes nothing");

        let mut net = fresh();
        net.begin_journal();
        (case.a)(&mut net);
        let mark = net.journal_savepoint();
        (case.b)(&mut net);
        assert_ne!(state(&net), state(&after_a), "{name}: B changes nothing");
        net.rollback_journal_to(mark);
        assert!(net.is_journaling(), "{name}: partial rollback closed");
        assert_eq!(state(&net), state(&after_a), "{name}: back to A's end");

        // A second segment on the same mark behaves like the first.
        let again = net.journal_savepoint();
        (case.b)(&mut net);
        net.rollback_journal_to(again);
        assert_eq!(state(&net), state(&after_a), "{name}: second segment");

        // Later propagation replays as if B never ran.
        let mut probed = net.journal_savepoint();
        (case.probe)(&mut net);
        let mut twin = fresh();
        (case.a)(&mut twin);
        (case.probe)(&mut twin);
        assert_eq!(state(&net), state(&twin), "{name}: probe after rollback");
        net.rollback_journal_to(probed);
        probed = net.journal_savepoint();
        (case.probe)(&mut net);
        assert_eq!(state(&net), state(&twin), "{name}: probe replayed");
        net.rollback_journal_to(probed);

        net.rollback_journal();
        assert!(!net.is_journaling());
        assert_eq!(state(&net), state(&base), "{name}: back to before A");
        (case.probe)(&mut net);
        let mut twin = fresh();
        (case.probe)(&mut twin);
        assert_eq!(
            state(&net),
            state(&twin),
            "{name}: probe after full rollback"
        );
    }
}

#[test]
fn a_committed_stack_keeps_every_segment() {
    let mut net = Network::new();
    chain(&mut net);
    net.begin_journal();
    set(&mut net, 0, int(1));
    net.journal_savepoint();
    set(&mut net, 0, int(2));
    net.journal_savepoint();
    net.set_constraint_enabled(c(1), false);
    set(&mut net, 3, int(5));
    net.commit_journal();
    assert_eq!(net.value(v(1)), &int(2));
    assert_eq!(net.value(v(3)), &int(5));
    assert!(!net.is_constraint_enabled(c(1)));
}

#[test]
fn nested_savepoints_unwind_newest_first() {
    let mut net = Network::new();
    chain(&mut net);
    let mut states = vec![state(&net)];
    net.begin_journal();
    let mut marks = Vec::new();
    for i in 0..4 {
        marks.push(net.journal_savepoint());
        net.add_variable(format!("n{i}"));
        set(&mut net, 0, int(10 + i));
        states.push(state(&net));
    }
    states.pop();
    // Each rollback lands on the state its mark was taken in.
    while let Some(mark) = marks.pop() {
        net.rollback_journal_to(mark);
        assert_eq!(state(&net), states.pop().unwrap());
    }
    net.rollback_journal();
    assert!(states.is_empty());
}
