//! Cone-kernel plan replay: partitioned execution must be
//! byte-identical to the sequential planned path (which is itself
//! differentially checked against the agenda interpreter) at every
//! thread count — values, justifications, violations, handler calls and
//! the core statistics block. These tests pin down the partition
//! admission rules (kernel-less kinds), the per-task pool floor, the
//! abort-and-fallback paths (violations, overwrite denials), partition
//! invalidation under structural edits, and the final-check elision: a
//! constraint a kernel established skips the final check, and every
//! case where a landed kernel does *not* prove satisfaction must still
//! be checked.

use std::cell::RefCell;
use std::rc::Rc;

use stem_core::kinds::{Equality, Functional, Predicate};
use stem_core::{
    ConstraintId, ConstraintKind, DependencyRecord, Justification, Network, Stats, Value, VarId,
    Violation,
};

/// Canonical rendering of the full observable state.
fn dump(net: &Network) -> String {
    net.variables()
        .map(|v| {
            format!(
                "{}={:?}/{:?};",
                net.var_name(v),
                net.value(v),
                net.justification(v)
            )
        })
        .collect()
}

/// `cones` independent cones hanging off one root: `src —eq→ head_i`,
/// `head_i —eq→ m_i_j` (`fan` mirrors), and a sum over the mirrors into
/// `out_i`. Every pair of cones is variable-disjoint except for `src`,
/// so the partitioner must find exactly `cones` components.
fn fanout(net: &mut Network, tag: &str, cones: usize, fan: usize) -> (VarId, Vec<VarId>) {
    let src = net.add_variable(format!("{tag}src"));
    let mut outs = Vec::new();
    for i in 0..cones {
        let head = net.add_variable(format!("{tag}h{i}"));
        net.add_constraint(Equality::new(), [src, head]).unwrap();
        let mut args = Vec::with_capacity(fan + 1);
        for j in 0..fan {
            let m = net.add_variable(format!("{tag}m{i}_{j}"));
            net.add_constraint(Equality::new(), [head, m]).unwrap();
            args.push(m);
        }
        let out = net.add_variable(format!("{tag}o{i}"));
        args.push(out);
        net.add_constraint(Functional::uni_addition(), args)
            .unwrap();
        outs.push(out);
    }
    (src, outs)
}

fn parallel_net(threads: usize, cones: usize, fan: usize) -> (Network, VarId, Vec<VarId>) {
    let mut net = Network::new();
    net.set_parallel_threads(threads);
    net.set_parallel_min_steps(1);
    let (src, outs) = fanout(&mut net, "", cones, fan);
    (net, src, outs)
}

#[test]
fn replay_is_byte_identical_across_thread_counts() {
    let mut reference: Option<(String, String)> = None;
    for threads in [1usize, 2, 4, 8] {
        let (mut net, src, outs) = parallel_net(threads, 8, 6);
        for round in 0..5i64 {
            net.set(src, Value::Int(round + 3), Justification::User)
                .unwrap();
        }
        assert_eq!(net.value(outs[3]), &Value::Int(7 * 6));
        if threads > 1 {
            assert_eq!(net.plan_parallel_cones(src), Some(8));
            let ps = net.par_stats();
            // First set compiles then replays in parallel; so do the rest.
            assert_eq!(ps.plan_replays_parallel, 5);
            assert_eq!(ps.cones_executed, 5 * 8);
            assert_eq!(ps.parallel_fallbacks, 0);
        } else {
            assert_eq!(net.plan_parallel_cones(src), None);
            assert_eq!(net.par_stats(), stem_core::ParStats::default());
        }
        let state = (dump(&net), format!("{:?}", net.stats()));
        match &reference {
            None => reference = Some(state),
            Some(r) => assert_eq!(r, &state, "diverged at {threads} threads"),
        }
    }
}

#[test]
fn below_floor_plans_replay_their_kernels_inline() {
    let mut net = Network::new();
    net.set_parallel_threads(8);
    // Default floor: the costliest cone runs 1 + 4 + 1 = 6 steps < 1024,
    // so the partition is built but never handed to the pool.
    assert_eq!(net.parallel_min_steps(), 1024);
    let (src, outs) = fanout(&mut net, "", 8, 4);
    net.set(src, Value::Int(2), Justification::User).unwrap();
    net.set(src, Value::Int(3), Justification::User).unwrap();
    assert_eq!(net.value(outs[7]), &Value::Int(12));
    assert_eq!(net.plan_parallel_cones(src), Some(8));
    let detail = net.plan_par_detail(src).unwrap();
    assert_eq!(detail.max_task_exec, 6);
    let ps = net.par_stats();
    assert_eq!(ps.plan_replays_parallel, 2);
    assert_eq!(ps.parallel_fallbacks, 0);
    assert_eq!(ps.cones_stolen, 0, "inline replays never steal");
}

#[test]
fn single_component_plans_replay_as_one_cone() {
    let mut net = Network::new();
    net.set_parallel_threads(4);
    net.set_parallel_min_steps(1);
    // One equality chain: every step shares a variable with the next, so
    // there is exactly one cone — it still runs through the kernels.
    let vars: Vec<_> = (0..6).map(|i| net.add_variable(format!("c{i}"))).collect();
    for w in vars.windows(2) {
        net.add_constraint(Equality::new(), [w[0], w[1]]).unwrap();
    }
    net.set(vars[0], Value::Int(9), Justification::User)
        .unwrap();
    assert_eq!(net.value(vars[5]), &Value::Int(9));
    assert_eq!(net.plan_parallel_cones(vars[0]), Some(1));
    assert_eq!(net.par_stats().plan_replays_parallel, 1);
    assert_eq!(net.par_stats().parallel_fallbacks, 0);
}

#[test]
fn kernel_less_kinds_fall_back_to_sequential() {
    let mut net = Network::new();
    net.set_parallel_threads(4);
    net.set_parallel_min_steps(1);
    let (src, _) = fanout(&mut net, "", 4, 3);
    // A custom functional has no off-thread kernel (its closure is not
    // Sync), so the whole plan must refuse to partition...
    let a = net.add_variable("ca");
    let b = net.add_variable("cb");
    net.add_constraint(Equality::new(), [src, a]).unwrap();
    net.add_constraint(
        Functional::custom("triple", |vals| vals[0].numeric_add(&Value::Int(0))),
        [a, b],
    )
    .unwrap();
    net.set(src, Value::Int(5), Justification::User).unwrap();
    // ...while still computing the right values on the sequential path.
    assert_eq!(net.value(b), &Value::Int(5));
    assert_eq!(net.plan_parallel_cones(src), None);
    assert_eq!(net.par_stats().plan_replays_parallel, 0);
    assert_eq!(net.par_stats().parallel_fallbacks, 1);
}

#[test]
fn violation_aborts_parallel_attempt_and_matches_sequential() {
    let run = |threads: usize| {
        let (mut net, src, outs) = parallel_net(threads, 8, 6);
        // Tripwire deep inside cone 5: src > 4 pushes out_5 = 6·src > 24.
        net.add_constraint(Predicate::le_const(Value::Int(24)), [outs[5]])
            .unwrap();
        let handled: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&handled);
        net.add_violation_handler(move |_, v| sink.borrow_mut().push(format!("{v:?}")));
        net.set(src, Value::Int(3), Justification::User).unwrap();
        let err = net
            .set(src, Value::Int(9), Justification::User)
            .unwrap_err();
        // Violation restored the pre-set state.
        assert_eq!(net.value(outs[5]), &Value::Int(18));
        let handler_log = handled.borrow().clone();
        (
            dump(&net),
            format!("{err:?}"),
            format!("{:?}", net.stats()),
            handler_log,
        )
    };
    let sequential = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), sequential, "diverged at {threads} threads");
    }
    // The parallel attempt itself must have aborted into the fallback.
    let (mut net, src, outs) = parallel_net(8, 8, 6);
    net.add_constraint(Predicate::le_const(Value::Int(24)), [outs[5]])
        .unwrap();
    net.set(src, Value::Int(3), Justification::User).unwrap();
    net.set(src, Value::Int(9), Justification::User)
        .unwrap_err();
    let ps = net.par_stats();
    assert_eq!(ps.plan_replays_parallel, 1);
    assert_eq!(ps.parallel_fallbacks, 1);
}

#[test]
fn overwrite_denial_aborts_parallel_attempt_and_matches_sequential() {
    let run = |threads: usize| {
        let (mut net, src, _) = parallel_net(threads, 8, 6);
        net.set(src, Value::Int(3), Justification::User).unwrap();
        // Pin a mirror by user fiat; the next replay's copy into it must
        // be denied (user values outrank propagation) and the whole set
        // must restore.
        let pin = net
            .variables()
            .find(|&v| net.var_name(v) == "m2_4")
            .unwrap();
        net.set(pin, Value::Int(3), Justification::User).unwrap();
        let err = net
            .set(src, Value::Int(7), Justification::User)
            .unwrap_err();
        (dump(&net), format!("{err:?}"), format!("{:?}", net.stats()))
    };
    let sequential = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), sequential, "diverged at {threads} threads");
    }
}

#[test]
fn structural_edit_invalidates_partition_with_plan() {
    let (mut net, src, _) = parallel_net(4, 8, 4);
    net.set(src, Value::Int(1), Justification::User).unwrap();
    assert_eq!(net.plan_parallel_cones(src), Some(8));
    // The edit touches `src`, which is in the plan's footprint: the
    // subscription index must evict the stale cone tables eagerly.
    let extra = net.add_variable("extra");
    net.add_constraint(Equality::new(), [src, extra]).unwrap();
    assert_eq!(net.plan_parallel_cones(src), None);
    // The next set recompiles — now with nine cones.
    net.set(src, Value::Int(2), Justification::User).unwrap();
    assert_eq!(net.plan_parallel_cones(src), Some(9));
    assert_eq!(net.value(extra), &Value::Int(2));
}

#[test]
fn repeated_runs_are_deterministic() {
    // At the default floor these 10-step cones replay inline, so even
    // the steal count belongs to the deterministic state (the pooled
    // twin of this test is the stealing one below).
    let run = || {
        let mut net = Network::new();
        net.set_parallel_threads(8);
        let (src, _) = fanout(&mut net, "", 8, 8);
        for round in 0..10i64 {
            net.set(src, Value::Int(round), Justification::User)
                .unwrap();
        }
        (
            dump(&net),
            format!("{:?} {:?}", net.stats(), net.par_stats()),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn single_cone_violation_aborts_and_matches_sequential() {
    let run = |threads: usize| {
        let mut net = Network::new();
        net.set_parallel_threads(threads);
        net.set_parallel_min_steps(1);
        let (src, outs) = fanout(&mut net, "", 1, 10);
        net.add_constraint(Predicate::le_const(Value::Int(40)), [outs[0]])
            .unwrap();
        net.set(src, Value::Int(3), Justification::User).unwrap();
        let err = net
            .set(src, Value::Int(9), Justification::User) // 9·10 > 40
            .unwrap_err();
        assert_eq!(net.value(outs[0]), &Value::Int(30), "restored");
        (dump(&net), format!("{err:?}"), format!("{:?}", net.stats()))
    };
    let sequential = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), sequential, "diverged at {threads} threads");
    }
}

#[test]
fn stealing_pool_replay_is_deterministic_modulo_steal_count() {
    // With the per-task floor at 1, replays really cross the pool, so
    // thieves can claim cones. Everything observable must still be
    // byte-identical run to run; only `cones_stolen` (and the
    // per-plan `last_stolen` diagnostic) may vary with the schedule.
    let run = || {
        let (mut net, src, _) = parallel_net(8, 8, 8);
        for round in 0..10i64 {
            net.set(src, Value::Int(round), Justification::User)
                .unwrap();
        }
        let mut ps = net.par_stats();
        ps.cones_stolen = 0;
        (dump(&net), format!("{:?} {ps:?}", net.stats()))
    };
    assert_eq!(run(), run());
}

#[test]
fn disjoint_structural_edit_keeps_unrelated_plans() {
    let mut net = Network::new();
    net.set_parallel_threads(4);
    net.set_parallel_min_steps(1);
    let (a, _) = fanout(&mut net, "a", 4, 4);
    let (b, _) = fanout(&mut net, "b", 4, 4);
    net.set(a, Value::Int(1), Justification::User).unwrap();
    net.set(b, Value::Int(2), Justification::User).unwrap();
    let compiles_before = net.stats().plan_compiles;
    // Edit inside b's cone only: a's plan footprint is disjoint, so it
    // must survive — this is the O(touched) invalidation contract.
    let extra = net.add_variable("extra");
    net.add_constraint(Equality::new(), [b, extra]).unwrap();
    assert_eq!(net.plan_parallel_cones(a), Some(4), "a's plan survives");
    assert_eq!(net.plan_parallel_cones(b), None, "b's plan evicted");
    assert_eq!(net.stats().plan_cache_invalidations, 1);
    net.set(a, Value::Int(3), Justification::User).unwrap();
    assert_eq!(
        net.stats().plan_compiles,
        compiles_before,
        "replaying a recompiled nothing"
    );
    net.set(b, Value::Int(4), Justification::User).unwrap();
    assert_eq!(
        net.value(extra),
        &Value::Int(4),
        "b recompiled with the edge"
    );
    assert_eq!(net.stats().plan_compiles, compiles_before + 1);
}

#[test]
fn thread_knob_clamps_and_drops_plans() {
    let mut net = Network::new();
    net.set_parallel_threads(0);
    assert_eq!(net.parallel_threads(), 1);
    net.set_parallel_min_steps(1);
    let (src, _) = fanout(&mut net, "", 4, 4);
    net.set(src, Value::Int(1), Justification::User).unwrap();
    // Sequential run cached a partition-less plan; raising the budget
    // must drop it so the next set compiles cone tables.
    net.set_parallel_threads(4);
    net.set(src, Value::Int(2), Justification::User).unwrap();
    assert_eq!(net.plan_parallel_cones(src), Some(4));
    assert_eq!(net.stats().plan_compiles, 2);
}

// ----------------------------------------------------------------------
// Final-check elision: each case below lands every kernel write yet
// leaves its constraint unsatisfied, so the check must still run. Every
// network runs at 2 threads twice — pool forced (floor 1) and at the
// default floor (inline) — against an agenda twin with plan caching off.
// ----------------------------------------------------------------------

/// The observable state of one twin after one operation: the `set`
/// outcome, every value and justification, and the core statistics with
/// the plan-cache counters (which the agenda never moves) zeroed.
fn observe(net: &Network, outcome: &Result<(), Violation>) -> (String, String, String) {
    let s = Stats {
        plan_compiles: 0,
        plan_cache_hits: 0,
        plan_cache_invalidations: 0,
        ..net.stats()
    };
    (format!("{outcome:?}"), dump(net), format!("{s:?}"))
}

/// Builds one network per twin with `build`, applies `sets` (variable
/// index, value, justification) to each, and asserts both kernel twins
/// match the agenda twin after every set. Returns the kernel twins'
/// cumulative counters so callers can prove the kernel path ran.
fn assert_kernel_twins_match_agenda(
    build: impl Fn(&mut Network),
    sets: &[(usize, Value, Justification)],
) -> Vec<stem_core::ParStats> {
    let mut agenda = Network::new();
    agenda.set_plan_caching(false);
    build(&mut agenda);
    let mut twins: Vec<Network> = [Some(1), None]
        .into_iter()
        .map(|floor| {
            let mut net = Network::new();
            net.set_parallel_threads(2);
            if let Some(f) = floor {
                net.set_parallel_min_steps(f);
            }
            build(&mut net);
            net
        })
        .collect();
    // Twice through: the first pass compiles each root's plan, the second
    // replays it from the cache.
    for pass in 0..2 {
        for (i, (ix, value, justification)) in sets.iter().enumerate() {
            let var = VarId::from_index(*ix);
            let want = agenda.set(var, value.clone(), justification.clone());
            let want = observe(&agenda, &want);
            for (t, net) in twins.iter_mut().enumerate() {
                let got = net.set(var, value.clone(), justification.clone());
                assert_eq!(
                    observe(net, &got),
                    want,
                    "twin {t} (0 = pool, 1 = inline) diverged at pass {pass} set {i}"
                );
            }
        }
    }
    twins.iter().map(Network::par_stats).collect()
}

#[test]
fn elision_checks_a_sum_whose_result_is_one_of_its_inputs() {
    // `acc = acc + b`: args [acc, b, acc] make `acc` both an input and
    // the result. Writing the sum changes an input, so the landed write
    // proves nothing and the final check must catch 1 + 5 != 6.
    let stats = assert_kernel_twins_match_agenda(
        |net| {
            let r = net.add_variable("r");
            let b = net.add_variable("b");
            let acc = net.add_variable("acc");
            net.add_constraint(Equality::new(), [r, b]).unwrap();
            net.add_constraint(Functional::uni_addition(), [acc, b, acc])
                .unwrap();
        },
        &[
            (2, Value::Int(1), Justification::Application),
            (0, Value::Int(5), Justification::User), // violates
            (0, Value::Int(0), Justification::User), // acc + 0 == acc
        ],
    );
    for ps in stats {
        assert!(
            ps.plan_replays_parallel > 0,
            "kernel path never ran: {ps:?}"
        );
    }
}

#[test]
fn elision_checks_values_that_are_not_equal_to_themselves() {
    // `y = 0·x + 1` turns x = ∞ into NaN, and an equality copies a NaN
    // root verbatim. Every write lands, yet NaN != NaN fails both the
    // functional and the equality test.
    let stats = assert_kernel_twins_match_agenda(
        |net| {
            let r = net.add_variable("r");
            let x = net.add_variable("x");
            let y = net.add_variable("y");
            net.add_constraint(Equality::new(), [r, x]).unwrap();
            net.add_constraint(Functional::uni_scale(0.0, 1.0), [x, y])
                .unwrap();
        },
        &[
            (0, Value::Float(2.0), Justification::User),
            (0, Value::Float(f64::INFINITY), Justification::User), // y = NaN
            (0, Value::Float(f64::NAN), Justification::User),      // x = NaN
            (0, Value::Float(3.0), Justification::User),
        ],
    );
    for ps in stats {
        assert!(
            ps.plan_replays_parallel > 0,
            "kernel path never ran: {ps:?}"
        );
    }
}

/// A strength-5 copy `args[0] → args[1]`: holds its target against the
/// default strength-1 equality.
#[derive(Debug)]
struct Pin;

impl ConstraintKind for Pin {
    fn kind_name(&self) -> &str {
        "pin"
    }
    fn strength(&self) -> u8 {
        5
    }
    fn should_activate(&self, net: &Network, cid: ConstraintId, changed: VarId) -> bool {
        changed == net.args(cid)[0]
    }
    fn infer(
        &self,
        net: &mut Network,
        cid: ConstraintId,
        _changed: Option<VarId>,
    ) -> Result<(), Violation> {
        let (src, target) = (net.args(cid)[0], net.args(cid)[1]);
        let value = net.value(src).clone();
        if !value.is_nil() {
            net.propagate_set(target, value, cid, DependencyRecord::Single(src))?;
        }
        Ok(())
    }
    fn is_satisfied(&self, _net: &Network, _cid: ConstraintId) -> bool {
        true
    }
    fn outputs(&self, net: &Network, cid: ConstraintId) -> Vec<VarId> {
        vec![net.args(cid)[1]]
    }
    fn planned_writes(
        &self,
        net: &Network,
        cid: ConstraintId,
        changed: Option<VarId>,
    ) -> Option<Vec<VarId>> {
        let args = net.args(cid);
        Some(if changed == Some(args[0]) {
            vec![args[1]]
        } else {
            Vec::new()
        })
    }
}

#[test]
fn elision_checks_an_equality_whose_target_yields_to_a_stronger_value() {
    // `x` holds 3 from the strength-5 pin; the equality's copy of 7
    // yields, so `r = x` stays violated and must be reported exactly as
    // the agenda reports it.
    let stats = assert_kernel_twins_match_agenda(
        |net| {
            let r = net.add_variable("r");
            let x = net.add_variable("x");
            let p = net.add_variable("p");
            net.add_constraint(Equality::new(), [r, x]).unwrap();
            net.add_constraint(Pin, [p, x]).unwrap();
        },
        &[
            (2, Value::Int(3), Justification::User), // pins x = 3
            (0, Value::Int(7), Justification::User), // yields, violates
            (0, Value::Int(3), Justification::User), // already equal
        ],
    );
    for ps in stats {
        assert!(
            ps.plan_replays_parallel > 0,
            "kernel path never ran: {ps:?}"
        );
    }
}
