//! Randomized differential check of the domain-propagation subsystem:
//! 1 000 SplitMix64-derived networks mixing interval, finite-set and
//! single-valued variables under the domain propagator library (bounds
//! `x + y = z`, offset inequalities, `all_different`, reification) plus
//! the classic kinds, each mirrored into an agenda twin with plan
//! caching disabled and into planned twins sweeping `threads ∈ {1, 2,
//! 4, 8}`, all fed the identical op stream — domain/value sets
//! interleaved with structural edits (adds, enable toggles, removals,
//! change-limit tweaks, runtime-subsumption switches). After every op
//! all twins must agree byte-for-byte on values, justifications and
//! outcomes; per round the planned twins must agree with each other on
//! the full statistics block, and the agenda twin must agree with them
//! on the domain counters (tightenings, subsumed prunes, wipeouts) and
//! on which constraints are currently marked subsumed.
//!
//! Every variable is seeded with a bounded domain before any constraint
//! arrives and every later set stays bounded, so offset-inequality
//! cycles cannot enter the unbounded one-step-at-a-time bound climb
//! that half-open domains would allow.

use stem_core::kinds::{AllDiff, DomAdd, DomLe, DomReifLe, DomainConstraint, Equality, Predicate};
use stem_core::prng::SplitMix64;
use stem_core::{ConstraintId, FinSet, Interval, Justification, Network, PlanStatus, Value, VarId};

/// Replay thread budgets swept by every round. Index 0 must stay `1`:
/// it is the sequential reference the others are compared against.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

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

/// Draws a bounded domain value: an interval inside `[0, 64]`, a small
/// integer (a singleton domain), or a non-empty finite set over
/// `{0, …, 63}`.
fn draw_value(rng: &mut SplitMix64) -> Value {
    match rng.range_usize(0, 10) {
        0..=4 => {
            let lo = rng.range_i64(0, 48);
            let hi = lo + rng.range_i64(0, 17);
            Value::Interval(Interval::new(lo, hi))
        }
        5..=7 => Value::Int(rng.range_i64(0, 64)),
        _ => Value::FinSet(FinSet::new(rng.next_u64() | 1)),
    }
}

/// A constraint recipe, drawn once and instantiated on every twin so the
/// set stays structurally identical.
enum Spec {
    /// `x ≤ y + c` and the lt/ge/gt derivations (`which ∈ 0..4`).
    Le(VarId, VarId, i64, usize),
    /// Directional `x ≤ y + c` narrowing only `out` (plannable).
    LeDir(VarId, VarId, i64, usize),
    /// `x + y = z`; `mode` 0 = forward, 1 = all, 2 = difference.
    Add(VarId, VarId, VarId, usize),
    /// Pairwise distinct.
    AllDiff(Vec<VarId>),
    /// `b ⇔ x ≤ y + c`.
    ReifLe(VarId, VarId, VarId, i64),
    Equality(Vec<VarId>),
    /// Tripwire predicate so plain violations stay in the mix.
    LeConst(VarId, i64),
}

impl Spec {
    fn draw(rng: &mut SplitMix64, n_vars: usize) -> Spec {
        let var = |rng: &mut SplitMix64| VarId::from_index(rng.range_usize(0, n_vars));
        let c = |rng: &mut SplitMix64| rng.range_i64(-8, 9);
        match rng.range_usize(0, 12) {
            0..=2 => Spec::Le(var(rng), var(rng), c(rng), rng.range_usize(0, 4)),
            3 => Spec::LeDir(var(rng), var(rng), c(rng), rng.range_usize(0, 2)),
            4..=5 => Spec::Add(var(rng), var(rng), var(rng), rng.range_usize(0, 3)),
            6 => {
                let n = rng.range_usize(2, 5);
                Spec::AllDiff((0..n).map(|_| var(rng)).collect())
            }
            7 => Spec::ReifLe(var(rng), var(rng), var(rng), c(rng)),
            8..=9 => {
                let n = rng.range_usize(2, 4);
                Spec::Equality((0..n).map(|_| var(rng)).collect())
            }
            _ => Spec::LeConst(var(rng), rng.range_i64(5, 30)),
        }
    }

    fn apply(&self, net: &mut Network) -> String {
        let r = match self {
            Spec::Le(x, y, c, which) => {
                let prop = match which {
                    0 => DomLe::le(*c),
                    1 => DomLe::lt(*c),
                    2 => DomLe::ge(*c),
                    _ => DomLe::gt(*c),
                };
                net.add_constraint(DomainConstraint::new(prop), [*x, *y])
            }
            Spec::LeDir(x, y, c, out) => net.add_constraint(
                DomainConstraint::new(DomLe::directional(*c, *out)),
                [*x, *y],
            ),
            Spec::Add(x, y, z, mode) => {
                let prop = match mode {
                    0 => DomAdd::forward(),
                    1 => DomAdd::all(),
                    _ => DomAdd::difference(),
                };
                net.add_constraint(DomainConstraint::new(prop), [*x, *y, *z])
            }
            Spec::AllDiff(args) => {
                net.add_constraint(DomainConstraint::new(AllDiff::new()), args.clone())
            }
            Spec::ReifLe(b, x, y, c) => {
                net.add_constraint(DomainConstraint::new(DomReifLe::le(*c)), [*b, *x, *y])
            }
            Spec::Equality(args) => net.add_constraint(Equality::new(), args.clone()),
            Spec::LeConst(v, k) => net.add_constraint(Predicate::le_const(Value::Int(*k)), [*v]),
        };
        format!("{r:?}")
    }
}

/// Ids of constraints that are still active (removable/toggleable).
fn active_cids(net: &Network) -> Vec<ConstraintId> {
    (0..net.n_constraints())
        .map(ConstraintId::from_index)
        .filter(|&c| net.is_active(c))
        .collect()
}

#[test]
fn domain_propagation_is_byte_identical_across_paths() {
    let mut total_tightenings = 0u64;
    let mut total_pruned = 0u64;
    let mut total_wipeouts = 0u64;
    let mut total_compiles = 0u64;
    let mut total_hits = 0u64;
    let mut total_invalidations = 0u64;
    let mut total_violations = 0u64;
    let mut total_marks = 0u64;
    let mut saw_uncompilable = false;

    for round in 0u64..1_000 {
        let mut rng = SplitMix64::new(0xD0DA_11F5 ^ (round.wrapping_mul(0x2545_F491)));
        let mut agenda = Network::new();
        agenda.set_plan_caching(false);
        let mut planned: Vec<Network> = THREAD_SWEEP
            .iter()
            .map(|&threads| {
                let mut net = Network::new();
                assert!(net.is_plan_caching());
                net.set_parallel_threads(threads);
                net.set_parallel_min_steps(1);
                net
            })
            .collect();
        let each = |planned: &mut Vec<Network>, agenda: &mut Network, f: &dyn Fn(&mut Network)| {
            for net in planned.iter_mut() {
                f(net);
            }
            f(agenda);
        };

        let n_vars = rng.range_usize(3, 10);
        for i in 0..n_vars {
            each(&mut planned, &mut agenda, &|net| {
                net.add_variable(format!("v{i}"));
            });
        }
        // Seed every variable with a bounded domain *before* any
        // constraint exists (no constraints yet, so these cannot fail);
        // boundedness is what keeps inequality cycles terminating.
        for i in 0..n_vars {
            let val = draw_value(&mut rng);
            each(&mut planned, &mut agenda, &|net| {
                net.set(VarId::from_index(i), val.clone(), Justification::User)
                    .expect("unconstrained seed set cannot fail");
            });
        }
        for _ in 0..rng.range_usize(1, n_vars) {
            let spec = Spec::draw(&mut rng, n_vars);
            let ra = spec.apply(&mut agenda);
            for net in planned.iter_mut() {
                assert_eq!(spec.apply(net), ra, "constraint add diverged in {round}");
            }
        }
        let da = dump(&agenda);
        for net in &planned {
            assert_eq!(dump(net), da, "setup diverged in {round}");
        }

        for op in 0..rng.range_usize(8, 20) {
            match rng.range_usize(0, 100) {
                0..=59 => {
                    let v = VarId::from_index(rng.range_usize(0, n_vars));
                    let val = draw_value(&mut rng);
                    let ra = format!("{:?}", agenda.set(v, val.clone(), Justification::User));
                    if ra.starts_with("Err") {
                        total_violations += 1;
                    }
                    for (t, net) in THREAD_SWEEP.iter().zip(planned.iter_mut()) {
                        let rp = format!("{:?}", net.set(v, val.clone(), Justification::User));
                        assert_eq!(
                            rp, ra,
                            "set outcome diverged at round {round} op {op} threads {t}"
                        );
                    }
                }
                60..=69 => {
                    let spec = Spec::draw(&mut rng, n_vars);
                    let ra = spec.apply(&mut agenda);
                    for net in planned.iter_mut() {
                        assert_eq!(spec.apply(net), ra, "add diverged at {round} op {op}");
                    }
                }
                70..=78 => {
                    let cids = active_cids(&agenda);
                    if !cids.is_empty() {
                        let c = cids[rng.range_usize(0, cids.len())];
                        let on = rng.next_bool();
                        each(&mut planned, &mut agenda, &|net| {
                            net.set_constraint_enabled(c, on);
                        });
                    }
                }
                79..=85 => {
                    let cids = active_cids(&agenda);
                    if !cids.is_empty() {
                        let c = cids[rng.range_usize(0, cids.len())];
                        each(&mut planned, &mut agenda, &|net| {
                            net.remove_constraint(c);
                        });
                    }
                }
                86..=92 => {
                    // Runtime-subsumption switch; biased towards on so
                    // entailment marks actually accumulate and later
                    // dispatches hit the prune path.
                    let on = rng.range_usize(0, 4) != 0;
                    each(&mut planned, &mut agenda, &|net| {
                        net.set_subsumption(on);
                    });
                }
                _ => {
                    let limit = rng.range_i64(1, 4) as u32;
                    each(&mut planned, &mut agenda, &|net| {
                        net.set_value_change_limit(limit);
                    });
                }
            }
            let da = dump(&agenda);
            for (t, net) in THREAD_SWEEP.iter().zip(planned.iter()) {
                assert_eq!(
                    dump(net),
                    da,
                    "state diverged at round {round} op {op} threads {t}"
                );
            }
        }

        // The planned twins took thread-count-dependent execution paths
        // but must land on the identical full statistics block.
        let s = planned[0].stats();
        for (t, net) in THREAD_SWEEP.iter().zip(planned.iter()).skip(1) {
            assert_eq!(
                format!("{:?}", net.stats()),
                format!("{s:?}"),
                "stats diverged at round {round} threads {t}"
            );
        }
        // The agenda twin must agree on the domain counters and on the
        // set of live subsumption marks: the prune sites were placed so
        // plan replay is observationally identical to the interpreter.
        let sa = agenda.stats();
        assert_eq!(
            (sa.domain_tightenings, sa.subsumed_pruned, sa.wipeouts),
            (s.domain_tightenings, s.subsumed_pruned, s.wipeouts),
            "domain counters diverged between agenda and planned at round {round}"
        );
        for (t, net) in THREAD_SWEEP.iter().zip(planned.iter()) {
            assert_eq!(
                net.subsumed_count(),
                agenda.subsumed_count(),
                "subsumption marks diverged at round {round} threads {t}"
            );
        }
        total_tightenings += s.domain_tightenings;
        total_pruned += s.subsumed_pruned;
        total_wipeouts += s.wipeouts;
        total_compiles += s.plan_compiles;
        total_hits += s.plan_cache_hits;
        total_invalidations += s.plan_cache_invalidations;
        total_marks += agenda.subsumed_count() as u64;
        saw_uncompilable |= planned[0]
            .variables()
            .any(|v| planned[0].plan_status(v) == PlanStatus::Uncompilable);
        assert_eq!(sa.plan_compiles, 0, "agenda twin must never plan");
        assert_eq!(sa.plan_cache_hits, 0);
    }

    // The workload must actually exercise every interesting regime.
    assert!(
        total_tightenings > 0,
        "no propagator ever narrowed a domain"
    );
    assert!(total_pruned > 0, "no subsumed constraint was ever pruned");
    assert!(total_wipeouts > 0, "no batch ever wiped out a domain");
    assert!(total_marks > 0, "no constraint ever proved itself entailed");
    assert!(total_compiles > 0, "no plan was ever compiled");
    assert!(total_hits > 0, "no set was ever served from the cache");
    assert!(
        total_invalidations > 0,
        "structural edits never invalidated a cached plan"
    );
    assert!(total_violations > 0, "tripwires never fired — too loose");
    assert!(
        saw_uncompilable,
        "no multi-writer cone was ever refused — domain mix too tame"
    );
}
