//! Randomized differential check of the plan-cached propagation path:
//! 1 000 SplitMix64-derived networks, each mirrored into an agenda twin
//! with plan caching disabled and into planned twins sweeping the
//! parallel-replay budget over `threads ∈ {1, 2, 4, 8}`, all fed the
//! identical op stream — value sets interleaved with structural edits
//! (constraint adds, enable toggles, removals, change-limit tweaks)
//! that force plan invalidation mid-run. After every op all networks
//! must agree byte-for-byte on values, justifications and outcomes; the
//! planned twins must additionally agree with *each other* on the core
//! statistics block (the parallel path may not even perturb counters),
//! and collectively exercise the cache (hits), the invalidation path,
//! the uncompilable fallback, and real parallel replays.

use stem_core::kinds::{Equality, Functional, Predicate};
use stem_core::prng::SplitMix64;
use stem_core::{ConstraintId, Justification, Network, PlanStatus, Value, VarId};

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

/// A constraint recipe, drawn once and instantiated on every twin so the
/// set stays structurally identical.
enum Spec {
    Equality(Vec<VarId>),
    Sum(Vec<VarId>),
    Max(Vec<VarId>),
    LeConst(VarId, i64),
}

impl Spec {
    fn draw(rng: &mut SplitMix64, n_vars: usize) -> Spec {
        let var = |rng: &mut SplitMix64| VarId::from_index(rng.range_usize(0, n_vars));
        match rng.range_usize(0, 10) {
            // Equality chains dominate: they are the plannable fabric.
            0..=4 => {
                let n = rng.range_usize(2, 4);
                Spec::Equality((0..n).map(|_| var(rng)).collect())
            }
            5..=6 => {
                let n = rng.range_usize(2, 4);
                Spec::Sum((0..n).map(|_| var(rng)).collect())
            }
            7 => {
                let n = rng.range_usize(2, 4);
                Spec::Max((0..n).map(|_| var(rng)).collect())
            }
            // Tripwires: bounds low enough that random sets violate often.
            _ => Spec::LeConst(var(rng), rng.range_i64(5, 30)),
        }
    }

    fn apply(&self, net: &mut Network) -> String {
        let r = match self {
            Spec::Equality(args) => net.add_constraint(Equality::new(), args.clone()),
            Spec::Sum(args) => net.add_constraint(Functional::uni_addition(), args.clone()),
            Spec::Max(args) => net.add_constraint(Functional::uni_maximum(), args.clone()),
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
fn planned_path_is_byte_identical_to_agenda_on_random_networks() {
    let mut total_hits = 0u64;
    let mut total_invalidations = 0u64;
    let mut total_compiles = 0u64;
    let mut total_violations = 0u64;
    let mut total_parallel_replays = 0u64;
    let mut total_parallel_steals = 0u64;
    let mut total_parallel_fallbacks = 0u64;
    let mut saw_uncompilable = false;

    for round in 0u64..1_000 {
        let mut rng = SplitMix64::new(0x9E1D_F00D ^ (round.wrapping_mul(0x2545_F491)));
        let mut agenda = Network::new();
        agenda.set_plan_caching(false);
        let mut planned: Vec<Network> = THREAD_SWEEP
            .iter()
            .map(|&threads| {
                let mut net = Network::new();
                assert!(net.is_plan_caching());
                net.set_parallel_threads(threads);
                // Tiny random cones would never clear the production
                // floor; drop it so replays really cross the
                // work-stealing pool (instead of running inline).
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
                0..=64 => {
                    let v = VarId::from_index(rng.range_usize(0, n_vars));
                    let val = Value::Int(rng.range_i64(0, 40));
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
                65..=74 => {
                    let spec = Spec::draw(&mut rng, n_vars);
                    let ra = spec.apply(&mut agenda);
                    for net in planned.iter_mut() {
                        assert_eq!(spec.apply(net), ra, "add diverged at {round} op {op}");
                    }
                }
                75..=84 => {
                    let cids = active_cids(&agenda);
                    if !cids.is_empty() {
                        let c = cids[rng.range_usize(0, cids.len())];
                        let on = rng.next_bool();
                        each(&mut planned, &mut agenda, &|net| {
                            net.set_constraint_enabled(c, on);
                        });
                    }
                }
                85..=91 => {
                    let cids = active_cids(&agenda);
                    if !cids.is_empty() {
                        let c = cids[rng.range_usize(0, cids.len())];
                        each(&mut planned, &mut agenda, &|net| {
                            net.remove_constraint(c);
                        });
                    }
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
        // but must land on the identical core statistics block.
        let s = planned[0].stats();
        for (t, net) in THREAD_SWEEP.iter().zip(planned.iter()).skip(1) {
            assert_eq!(
                format!("{:?}", net.stats()),
                format!("{s:?}"),
                "stats diverged at round {round} threads {t}"
            );
        }
        total_hits += s.plan_cache_hits;
        total_invalidations += s.plan_cache_invalidations;
        total_compiles += s.plan_compiles;
        let ps = planned.last().unwrap().par_stats();
        total_parallel_replays += ps.plan_replays_parallel;
        total_parallel_steals += ps.cones_stolen;
        total_parallel_fallbacks += ps.parallel_fallbacks;
        // The deterministic parallel counters must agree across the
        // pooled twins; only `cones_stolen` is schedule-dependent.
        for (t, net) in THREAD_SWEEP.iter().zip(planned.iter()).skip(1) {
            let mut other = net.par_stats();
            let mut want = ps;
            other.cones_stolen = 0;
            want.cones_stolen = 0;
            assert_eq!(
                other, want,
                "par stats diverged at round {round} threads {t}"
            );
        }
        assert_eq!(planned[0].par_stats(), stem_core::ParStats::default());
        saw_uncompilable |= planned[0]
            .variables()
            .any(|v| planned[0].plan_status(v) == PlanStatus::Uncompilable);
        let sa = agenda.stats();
        assert_eq!(sa.plan_compiles, 0, "agenda twin must never plan");
        assert_eq!(sa.plan_cache_hits, 0);
    }

    // The workload must actually exercise every interesting regime.
    assert!(total_compiles > 0, "no plan was ever compiled");
    assert!(total_hits > 0, "no set was ever served from the cache");
    assert!(
        total_invalidations > 0,
        "structural edits never invalidated a cached plan"
    );
    assert!(total_violations > 0, "tripwires never fired — too loose");
    assert!(
        saw_uncompilable,
        "no multi-writer cone was ever refused — topology mix too tame"
    );
    assert!(
        total_parallel_replays > 0,
        "the 8-thread twin never replayed a partition — topology mix too tame"
    );
    assert!(
        total_parallel_fallbacks > 0,
        "the 8-thread twin never fell back — admission rules untested"
    );
    // Not asserted > 0: steal counts are schedule-dependent and may
    // legitimately be 0 on a quiet machine. Folded in so the sweep
    // exercises the accounting without constraining it.
    let _ = total_parallel_steals;
}
