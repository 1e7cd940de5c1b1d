//! Bench E22: plan-cached vs. agenda propagation (§9.2.3's "precompiled
//! topological sorts" applied to the dynamic `set` path).
//!
//! Unlike the construction-heavy benches, these measure *steady state*:
//! the network is built and warmed outside the timed region (the first
//! `set` compiles the plan), and each iteration is one `set` on the
//! source with a fresh value, so every cycle rewrites the whole cone and
//! the planned arm replays its cached plan.

use stem_bench::harness::Criterion;
use stem_bench::workloads;
use stem_bench::{criterion_group, criterion_main};
use stem_core::{Justification, PlanStatus, Value};

/// Steady-state `set` throughput on the dense-fanout cone, planned vs.
/// agenda, across fanout widths.
fn dense_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("propagation_planned/dense_fanout");
    for fan in [16usize, 64, 256] {
        for planned in [false, true] {
            let path = if planned { "planned" } else { "agenda" };
            let (mut net, src) = workloads::dense_fanout(fan);
            net.set_plan_caching(planned);
            for i in 0..16 {
                net.set(src, Value::Int(i), Justification::User).unwrap();
            }
            assert_eq!(
                matches!(net.plan_status(src), PlanStatus::Ready { .. }),
                planned,
                "warm-up must leave the cache in the arm's configuration"
            );
            let mut i = 100i64;
            g.bench_function(format!("{path}/{fan}"), |b| {
                b.iter(|| {
                    i += 1;
                    net.set(src, Value::Int(i), Justification::User).unwrap();
                })
            });
        }
    }
    g.finish();
}

/// Cone-kernel replay vs. the identical plan replayed by the sequential
/// interpreter, on the cone-partitionable fanout (8 independent cones
/// per root write). The `par_seq` arm runs with a one-thread budget,
/// `parallel` with eight. Every fan partitions, and every cone (at most
/// 258 steps) sits below the default 1,024-step pool floor, so the
/// `parallel` arm measures the inline kernels with final-check elision
/// against `run_plan`; `tools/bench_compare.py` gates the ratio.
fn parallel_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("propagation_planned/dense_fanout");
    const CONES: usize = 8;
    for fan in [16usize, 64, 256] {
        for threads in [1usize, 8] {
            let path = if threads == 1 { "par_seq" } else { "parallel" };
            let (mut net, src) = workloads::par_fanout(CONES, fan);
            net.set_parallel_threads(threads);
            for i in 0..16 {
                net.set(src, Value::Int(i), Justification::User).unwrap();
            }
            assert_eq!(
                net.plan_parallel_cones(src),
                (threads > 1).then_some(CONES),
                "warm-up must leave the partition in the arm's configuration \
                 (threads={threads}, fan={fan})"
            );
            let mut i = 100i64;
            g.bench_function(format!("{path}/{fan}"), |b| {
                b.iter(|| {
                    i += 1;
                    net.set(src, Value::Int(i), Justification::User).unwrap();
                })
            });
        }
    }
    g.finish();
}

/// Same comparison on a pairwise equality star (every spoke its own
/// constraint — maximal dispatch count per cycle).
fn equality_star(c: &mut Criterion) {
    let mut g = c.benchmark_group("propagation_planned/equality_star");
    for n in [64usize, 256] {
        for planned in [false, true] {
            let path = if planned { "planned" } else { "agenda" };
            let (mut net, hub) = workloads::equality_star(n);
            net.set_plan_caching(planned);
            for i in 0..16 {
                net.set(hub, Value::Int(i), Justification::User).unwrap();
            }
            let mut i = 100i64;
            g.bench_function(format!("{path}/{n}"), |b| {
                b.iter(|| {
                    i += 1;
                    net.set(hub, Value::Int(i), Justification::User).unwrap();
                })
            });
        }
    }
    g.finish();
}

/// Structural-edit churn: a constraint toggle between sets, swept over
/// fanout widths in two shapes. `toggle_between_sets` flips a predicate
/// on a standalone guard variable whose footprint is disjoint from the
/// measured cone — under per-root dirty tracking the cone's plan
/// survives the edit, so the arm runs at cache-hit speed (this is the
/// O(touched) invalidation win; the old global generation bump
/// recompiled the cone every iteration). `toggle_in_cone` flips a
/// predicate directly on the source variable, so every iteration
/// genuinely invalidates and recompiles the cone's plan — the honest
/// worst case, which must still stay within sight of the agenda path.
fn recompile_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("propagation_planned/recompile_churn");
    for fan in [16usize, 64, 256] {
        for in_cone in [false, true] {
            let name = if in_cone {
                "toggle_in_cone"
            } else {
                "toggle_between_sets"
            };
            let (mut net, src) = workloads::dense_fanout(fan);
            let probe = {
                use stem_core::kinds::Predicate;
                let target = if in_cone {
                    src
                } else {
                    net.add_variable("probe_guard")
                };
                net.add_constraint(Predicate::le_const(Value::Int(i64::MAX)), [target])
                    .unwrap()
            };
            for i in 0..16 {
                net.set(src, Value::Int(i), Justification::User).unwrap();
            }
            let mut i = 100i64;
            let mut on = true;
            g.bench_function(format!("{name}/{fan}"), |b| {
                b.iter(|| {
                    i += 1;
                    on = !on;
                    net.set_constraint_enabled(probe, on);
                    net.set(src, Value::Int(i), Justification::User).unwrap();
                })
            });
        }
    }
    g.finish();
}

/// Pool dispatch overhead on a plan too small to profit from it: four
/// 6-step cones. Every cone sits far below the default pool floor, so
/// the `par` arm must take the inline replay path and stay within noise
/// of `seq` — the regression the floor fixed was exactly this shape
/// paying pool hand-off per replay.
fn dispatch_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("propagation_planned/dispatch_overhead");
    const CONES: usize = 4;
    const FAN: usize = 4;
    for threads in [1usize, 8] {
        let path = if threads == 1 { "seq" } else { "par" };
        let (mut net, src) = workloads::par_fanout(CONES, FAN);
        net.set_parallel_threads(threads);
        for i in 0..16 {
            net.set(src, Value::Int(i), Justification::User).unwrap();
        }
        assert_eq!(
            net.plan_parallel_cones(src),
            (threads > 1).then_some(CONES),
            "warm-up must leave the partition in the arm's configuration"
        );
        let mut i = 100i64;
        g.bench_function(format!("{path}/{CONES}x{FAN}"), |b| {
            b.iter(|| {
                i += 1;
                net.set(src, Value::Int(i), Justification::User).unwrap();
            })
        });
    }
    g.finish();
}

/// The pool floor's two sides on `par_fanout(4, m)` at a two-thread
/// budget: `pool` forces every replay onto the worker pool (floor 1),
/// `inline` keeps it on the calling thread (floor `usize::MAX`). m = 128
/// is the `fanout_replay` shape (four 130-step cones), where hand-off
/// costs more than the second core saves; m = 2048 is well above the
/// default floor. `tools/bench_compare.py` gates only inline/128 ≥
/// pool/128: whether the pool wins at 2048 depends on host load.
fn floor_pair(c: &mut Criterion) {
    let mut g = c.benchmark_group("propagation_planned/par_floor");
    const CONES: usize = 4;
    for fan in [128usize, 2048] {
        for pooled in [true, false] {
            let path = if pooled { "pool" } else { "inline" };
            let (mut net, src) = workloads::par_fanout(CONES, fan);
            net.set_parallel_threads(2);
            net.set_parallel_min_steps(if pooled { 1 } else { usize::MAX });
            for i in 0..16 {
                net.set(src, Value::Int(i), Justification::User).unwrap();
            }
            assert_eq!(net.plan_parallel_cones(src), Some(CONES));
            let mut i = 100i64;
            g.bench_function(format!("{path}/{fan}"), |b| {
                b.iter(|| {
                    i += 1;
                    net.set(src, Value::Int(i), Justification::User).unwrap();
                })
            });
        }
    }
    g.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
        .sample_size(15)
}

criterion_group!(
    name = benches;
    config = quick();
    targets = dense_fanout, parallel_replay, floor_pair, equality_star, recompile_churn,
        dispatch_overhead
);
criterion_main!(benches);
