//! Experiment table generators (DESIGN.md §4). Each function reproduces
//! one thesis figure/claim and returns markdown-ready rows; the
//! `experiments` binary prints them and EXPERIMENTS.md records a run.

use std::time::Instant;

use crate::workloads;
use stem_cells::{alu_fixture, synthetic_pruning_family, CellKit, ADDER_UNIT_WIDTH};
use stem_core::Value;
use stem_design::SignalDir;
use stem_geom::{Point, Rect, Transform};
use stem_modsel::{select_realizations, SelectionOptions, TestKind};
use stem_sim::{flatten, Level, Simulator};

fn ms(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// T-E3 — hierarchical propagation evaluates the shared internal network
/// once per change, not once per instance (thesis §5.1, Fig. 5.1).
pub fn t_e3_hierarchy(instance_counts: &[usize]) -> Vec<Vec<String>> {
    const INTERNAL: usize = 200;
    let mut rows = Vec::new();
    for &n in instance_counts {
        let (mut hier, hi, _) = workloads::hierarchical_fanout(INTERNAL, n);
        let (mut flat, fi, _) = workloads::flat_replication(INTERNAL, n);
        hier.reset_stats();
        flat.reset_stats();
        let t0 = Instant::now();
        workloads::drive(&mut hier, hi, 1);
        let t_hier = t0.elapsed();
        let t0 = Instant::now();
        workloads::drive(&mut flat, fi, 1);
        let t_flat = t0.elapsed();
        rows.push(vec![
            n.to_string(),
            hier.stats().inferences.to_string(),
            flat.stats().inferences.to_string(),
            format!(
                "{:.2}×",
                flat.stats().inferences as f64 / hier.stats().inferences as f64
            ),
            ms(t_hier),
            ms(t_flat),
        ]);
    }
    rows
}

/// T-E8 — Fig. 8.1 module selection: which realisation each spec set
/// admits.
pub fn t_e8_alu_selection() -> Vec<Vec<String>> {
    let scenarios: [(&str, f64, i64); 4] = [
        ("tight area (8.1b)", 11.0, 12),
        ("tight delay (8.1c)", 8.0, 22),
        ("relaxed", 11.0, 22),
        ("impossible", 8.0, 12),
    ];
    let mut rows = Vec::new();
    for (name, delay_spec, area_tenths) in scenarios {
        let mut kit = CellKit::new();
        let fx = alu_fixture(&mut kit);
        kit.analyzer
            .constrain_max(&mut kit.design, fx.alu, "in", "out", delay_spec)
            .unwrap();
        let t = kit.design.instance_transform(fx.adder_inst);
        let budget = Rect::with_extent(
            t.apply(Point::ORIGIN),
            ADDER_UNIT_WIDTH * area_tenths / 10,
            20,
        );
        kit.design
            .set_instance_bounding_box(fx.adder_inst, budget)
            .unwrap();
        let out = select_realizations(
            &mut kit.design,
            &mut kit.analyzer,
            fx.adder_inst,
            &SelectionOptions::default(),
        )
        .unwrap();
        let names: Vec<&str> = out
            .valid
            .iter()
            .map(|&c| kit.design.class_name(c))
            .collect();
        rows.push(vec![
            name.to_string(),
            format!("≤ {delay_spec} D"),
            format!("{}.{} A", area_tenths / 10, area_tenths % 10),
            if names.is_empty() {
                "(none)".to_string()
            } else {
                names.join(", ")
            },
        ]);
    }
    rows
}

/// T-E9 — selection efficiency: candidates tested with/without pruning
/// and selective testing (thesis §8.2), over synthetic generic trees.
pub fn t_e9_pruning(sizes: &[(usize, usize)]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for &(groups, leaves) in sizes {
        let run = |prune: bool, priorities: Vec<TestKind>| -> (usize, usize, usize) {
            let mut kit = CellKit::new();
            let fam = synthetic_pruning_family(&mut kit, groups, leaves);
            let d = &mut kit.design;
            let top = d.define_class("TOP");
            d.add_signal(top, "a", SignalDir::Input);
            d.set_signal_bit_width(top, "a", 8).unwrap();
            d.add_signal(top, "s", SignalDir::Output);
            d.set_signal_bit_width(top, "s", 8).unwrap();
            let inst = d
                .instantiate(fam.root, top, "add", Transform::IDENTITY)
                .unwrap();
            let na = d.add_net(top, "na");
            d.connect_io(na, "a").unwrap();
            d.connect(na, inst, "a").unwrap();
            let ns = d.add_net(top, "ns");
            d.connect(ns, inst, "s").unwrap();
            d.connect_io(ns, "s").unwrap();
            kit.analyzer.declare_delay(&mut kit.design, top, "a", "s");
            // Spec admits only the first group's ideals (delay 5+3g).
            kit.analyzer
                .constrain_max(&mut kit.design, top, "a", "s", 7.9)
                .unwrap();
            let out = select_realizations(
                &mut kit.design,
                &mut kit.analyzer,
                inst,
                &SelectionOptions { priorities, prune },
            )
            .unwrap();
            (
                out.stats.candidates_tested,
                out.stats.property_tests,
                out.stats.pruned_subtrees,
            )
        };
        let all = || SelectionOptions::default().priorities;
        let (c1, p1, pr1) = run(true, all());
        let (c2, p2, _) = run(false, all());
        let (c3, p3, _) = run(true, vec![TestKind::Delays]);
        rows.push(vec![
            format!("{groups}×{leaves}"),
            format!("{c1} / {p1} / {pr1}"),
            format!("{c2} / {p2}"),
            format!("{c3} / {p3}"),
        ]);
    }
    rows
}

/// T-E10 — the complexity claim of §9.2.3: propagation cost grows with
/// Σ_v #constraints(v), across network shapes.
pub fn t_e10_complexity(sizes: &[usize]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for &n in sizes {
        for (shape, build) in [("chain", 0usize), ("star", 1), ("grid", 2)] {
            let (mut net, start) = match build {
                0 => {
                    let (net, vars) = workloads::equality_chain(n);
                    (net, vars[0])
                }
                1 => workloads::equality_star(n),
                _ => {
                    let side = (n as f64).sqrt().ceil() as usize;
                    workloads::equality_grid(side, side)
                }
            };
            let complexity = workloads::complexity_measure(&net);
            net.reset_stats();
            let t0 = Instant::now();
            workloads::drive(&mut net, start, 1);
            let dt = t0.elapsed();
            rows.push(vec![
                shape.to_string(),
                n.to_string(),
                complexity.to_string(),
                net.stats().activations.to_string(),
                ms(dt),
                format!("{:.1}", dt.as_nanos() as f64 / complexity as f64),
            ]);
        }
    }
    rows
}

/// T-E11 — agenda scheduling of functional constraints "reduces redundant
/// calculations of transient results" (§4.2.1).
pub fn t_e11_agenda(fans: &[usize]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for &fan in fans {
        let (mut sched, s1, o1) = workloads::fan_in_sum(fan, true);
        let (mut imm, s2, o2) = workloads::fan_in_sum(fan, false);
        sched.reset_stats();
        imm.reset_stats();
        workloads::drive(&mut sched, s1, 3);
        workloads::drive(&mut imm, s2, 3);
        assert_eq!(sched.value(o1), imm.value(o2));
        rows.push(vec![
            fan.to_string(),
            sched.stats().inferences.to_string(),
            imm.stats().inferences.to_string(),
            format!(
                "{:.1}×",
                imm.stats().inferences as f64 / sched.stats().inferences.max(1) as f64
            ),
        ]);
    }
    rows
}

/// T-E7 — hierarchical delay estimates vs. event-driven simulation for
/// ripple-carry adders of growing width (Figs. 7.11/7.12 machinery).
pub fn t_e7_delay(widths: &[usize]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for &w in widths {
        let mut kit = CellKit::new();
        let rca = kit.ripple_carry_adder(&format!("RCA{w}"), w);
        let t0 = Instant::now();
        let est = kit
            .analyzer
            .delay(&mut kit.design, rca, "cin", "cout")
            .unwrap()
            .unwrap();
        let t_est = t0.elapsed();

        // Simulate the same critical path: a = 1…1, toggle cin.
        let flat = flatten(&kit.design, &kit.primitives, rca).unwrap();
        let mut sim = Simulator::new(flat);
        for i in 0..w {
            let pa = sim.port(&format!("a{i}")).unwrap();
            let pb = sim.port(&format!("b{i}")).unwrap();
            sim.drive(pa, Level::L1, 0);
            sim.drive(pb, Level::L0, 0);
        }
        let pcin = sim.port("cin").unwrap();
        sim.drive(pcin, Level::L0, 0);
        sim.run_to_quiescence().unwrap();
        let pcout = sim.port("cout").unwrap();
        sim.record(pcin);
        sim.record(pcout);
        let t = sim.time() + 1000;
        sim.drive(pcin, Level::L1, t);
        sim.run_to_quiescence().unwrap();
        let measured = sim.measure_delay(pcin, pcout).unwrap() as f64 / 1000.0;
        rows.push(vec![
            w.to_string(),
            format!("{est:.1}"),
            format!("{measured:.1}"),
            format!("{:.2}", est / measured),
            ms(t_est),
        ]);
    }
    rows
}

/// T-E12 — dependency-directed erasure: removing one constraint resets
/// only its consequences (§4.2.4: the efficiency that "justifies the
/// storage overhead for dependency records").
pub fn t_e12_erasure(sizes: &[usize]) -> Vec<Vec<String>> {
    use stem_core::kinds::Equality;
    let mut rows = Vec::new();
    for &n in sizes {
        // A long chain plus one side branch; removing the branch's
        // constraint must erase only the branch.
        let (mut net, vars) = workloads::equality_chain(n);
        let side = net.add_variable("side");
        let branch = net
            .add_constraint(Equality::new(), [vars[n / 2], side])
            .unwrap();
        workloads::drive(&mut net, vars[0], 7);
        let t0 = Instant::now();
        net.remove_constraint(branch);
        let dt = t0.elapsed();
        let erased = net.variables().filter(|&v| net.value(v).is_nil()).count();
        rows.push(vec![
            n.to_string(),
            erased.to_string(),
            (n + 1 - erased).to_string(),
            ms(dt),
        ]);
    }
    rows
}

/// T-E13 — lazy calculated views (§6.3): reads per recalculation.
pub fn t_e13_lazy_views(reads: usize, changes: usize) -> Vec<Vec<String>> {
    use stem_compilers::CompilerView;
    use stem_design::ChangeKey;

    let mut kit = CellKit::new();
    let fa = kit.full_adder("FA");
    let view = CompilerView::new(&mut kit.design, fa);
    for _ in 0..reads {
        view.data(&mut kit.design).unwrap();
    }
    let after_reads = view.recalc_count();
    for _ in 0..changes {
        kit.design.notify_changed(fa, ChangeKey::Layout);
        view.data(&mut kit.design).unwrap();
    }
    let after_changes = view.recalc_count();
    vec![
        vec![format!("{reads} reads, 0 changes"), after_reads.to_string()],
        vec![
            format!("+{changes} change/read pairs"),
            after_changes.to_string(),
        ],
    ]
}

/// T-E14 — simulator vs. analyzer consistency on the full-adder cell: the
/// worst-case estimate bounds every measured input-to-output delay.
pub fn t_e14_sim_vs_analyzer() -> Vec<Vec<String>> {
    let mut kit = CellKit::new();
    let fa = kit.full_adder("FA");
    let mut rows = Vec::new();
    for (from, to) in [("cin", "cout"), ("cin", "s"), ("a", "cout"), ("a", "s")] {
        let est = kit
            .analyzer
            .delay(&mut kit.design, fa, from, to)
            .unwrap()
            .unwrap();
        // Measure with a path-sensitising input pattern: for cin→* paths
        // prime (a=1, b=0) so the carry chain follows cin; for a→* paths
        // prime (b=0, cin=1) so both outputs follow a.
        let flat = flatten(&kit.design, &kit.primitives, fa).unwrap();
        let mut sim = Simulator::new(flat);
        let (pa, pb, pc) = (
            sim.port("a").unwrap(),
            sim.port("b").unwrap(),
            sim.port("cin").unwrap(),
        );
        if from == "cin" {
            sim.drive(pa, Level::L1, 0);
            sim.drive(pb, Level::L0, 0);
            sim.drive(pc, Level::L0, 0);
        } else {
            sim.drive(pa, Level::L0, 0);
            sim.drive(pb, Level::L0, 0);
            sim.drive(pc, Level::L1, 0);
        }
        sim.run_to_quiescence().unwrap();
        let pin = sim.port(from).unwrap();
        let pout = sim.port(to).unwrap();
        sim.record(pin);
        sim.record(pout);
        let t = sim.time() + 1000;
        sim.drive(pin, Level::L1.resolve(sim.value(pin).not()), t);
        sim.run_to_quiescence().unwrap();
        let measured = sim.measure_delay(pin, pout).map(|ps| ps as f64 / 1000.0);
        rows.push(vec![
            format!("{from} → {to}"),
            format!("{est:.1}"),
            measured
                .map(|m| format!("{m:.1}"))
                .unwrap_or_else(|| "-".into()),
            measured
                .map(|m| (est >= m - 1e-9).to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    rows
}

/// T-E15 — network compilation (§9.3): interpreted propagation vs.
/// straight-line compiled evaluation of functional adder trees.
pub fn t_e15_compiled(sizes: &[usize]) -> Vec<Vec<String>> {
    use stem_core::{compile_functional, Justification};
    let mut rows = Vec::new();
    for &n in sizes {
        // Interpreted: drive every leaf through normal propagation.
        let (mut net, leaves, root) = workloads::adder_tree(n);
        net.reset_stats();
        let t0 = Instant::now();
        for (i, &l) in leaves.iter().enumerate() {
            net.set(l, Value::Int(i as i64), Justification::User)
                .unwrap();
        }
        let t_interp = t0.elapsed();
        let interp_inferences = net.stats().inferences;
        let expected = net.value(root).clone();

        // Compiled: bulk stores, then one plan evaluation.
        let (mut net2, leaves2, root2) = workloads::adder_tree(n);
        let plan = compile_functional(&net2).unwrap();
        net2.reset_stats();
        let t0 = Instant::now();
        net2.set_propagation_enabled(false);
        for (i, &l) in leaves2.iter().enumerate() {
            net2.set(l, Value::Int(i as i64), Justification::User)
                .unwrap();
        }
        net2.set_propagation_enabled(true);
        plan.evaluate(&mut net2).unwrap();
        let t_comp = t0.elapsed();
        assert_eq!(net2.value(root2), &expected);
        rows.push(vec![
            n.to_string(),
            interp_inferences.to_string(),
            net2.stats().inferences.to_string(),
            ms(t_interp),
            ms(t_comp),
            format!("{:.1}×", t_interp.as_secs_f64() / t_comp.as_secs_f64()),
        ]);
    }
    rows
}

/// T-E16 — satisfaction vs. propagation (§2.1/§7.4): the compaction
/// baseline *solves* placements; a STEM network *verifies* them.
pub fn t_e16_compaction(sizes: &[usize]) -> Vec<Vec<String>> {
    use stem_compact::{compact_row, RowSpec};
    use stem_core::kinds::Predicate;
    use stem_core::{Justification, Network};

    let mut rows = Vec::new();
    for &n in sizes {
        let mut spec = RowSpec {
            min_separation: 2,
            ..Default::default()
        };
        for i in 0..n {
            spec.cell(format!("c{i}"), 6 + (i % 5) as i64 * 2);
        }
        for i in (0..n.saturating_sub(10)).step_by(10) {
            spec.exact_offsets.push((i, i + 10, 120));
        }
        let t0 = Instant::now();
        let (sol, ids) = compact_row(&spec).unwrap();
        let t_solve = t0.elapsed();

        // Verify in a STEM predicate network.
        let mut net = Network::new();
        let xs: Vec<_> = (0..n).map(|i| net.add_variable(format!("x{i}"))).collect();
        for i in 0..n - 1 {
            let gap = spec.cells[i].width + 2;
            net.add_constraint_quiet(
                Predicate::custom("minSep", move |vals| {
                    match (vals[0].as_i64(), vals[1].as_i64()) {
                        (Some(a), Some(b)) => b >= a + gap,
                        _ => true,
                    }
                }),
                [xs[i], xs[i + 1]],
            );
        }
        net.set_propagation_enabled(false);
        for (i, &x) in xs.iter().enumerate() {
            net.set(
                x,
                Value::Int(sol.position(ids[i])),
                Justification::Application,
            )
            .unwrap();
        }
        net.set_propagation_enabled(true);
        let t0 = Instant::now();
        let ok = net.check_all().is_empty();
        let t_verify = t0.elapsed();
        rows.push(vec![
            n.to_string(),
            sol.total_extent.to_string(),
            ms(t_solve),
            ms(t_verify),
            ok.to_string(),
        ]);
    }
    rows
}

/// T-E17 — the Fig. 8.1 premise measured from structure: ripple-carry vs.
/// carry-select adders built from the same gate library.
pub fn t_e17_adder_tradeoff(widths: &[usize]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for &w in widths {
        let mut kit = CellKit::new();
        let rca = kit.ripple_carry_adder(&format!("RCA{w}"), w);
        let csa = kit.carry_select_adder(&format!("CSA{w}"), w);
        let d_rc = kit
            .analyzer
            .delay(&mut kit.design, rca, "cin", "cout")
            .unwrap()
            .unwrap();
        let d_cs = kit
            .analyzer
            .delay(&mut kit.design, csa, "cin", "cout")
            .unwrap()
            .unwrap();
        let a_rc = kit.design.class_bounding_box(rca).unwrap().area();
        let a_cs = kit.design.class_bounding_box(csa).unwrap().area();
        rows.push(vec![
            w.to_string(),
            format!("{d_rc:.1}"),
            format!("{d_cs:.1}"),
            format!("{:.2}×", d_rc / d_cs),
            a_rc.to_string(),
            a_cs.to_string(),
            format!("{:.2}×", a_cs as f64 / a_rc as f64),
        ]);
    }
    rows
}

/// T-E18 — joint module selection over a two-adder pipeline sharing one
/// delay budget (the §9.3 global-considerations extension).
pub fn t_e18_joint_selection(specs: &[f64]) -> Vec<Vec<String>> {
    use stem_modsel::select_joint_realizations;

    let mut rows = Vec::new();
    for &spec in specs {
        let mut kit = CellKit::new();
        let family = stem_cells::adder8_family(&mut kit);
        let d = &mut kit.design;
        let top = d.define_class("PIPE");
        d.add_signal(top, "in", SignalDir::Input);
        d.set_signal_bit_width(top, "in", 8).unwrap();
        d.add_signal(top, "out", SignalDir::Output);
        d.set_signal_bit_width(top, "out", 8).unwrap();
        let add1 = d
            .instantiate(family.generic, top, "add1", Transform::IDENTITY)
            .unwrap();
        let add2 = d
            .instantiate(
                family.generic,
                top,
                "add2",
                Transform::translation(Point::new(3 * ADDER_UNIT_WIDTH, 0)),
            )
            .unwrap();
        let n_in = d.add_net(top, "n_in");
        d.connect_io(n_in, "in").unwrap();
        d.connect(n_in, add1, "a").unwrap();
        let n_mid = d.add_net(top, "n_mid");
        d.connect(n_mid, add1, "s").unwrap();
        d.connect(n_mid, add2, "a").unwrap();
        let n_out = d.add_net(top, "n_out");
        d.connect(n_out, add2, "s").unwrap();
        d.connect_io(n_out, "out").unwrap();
        kit.analyzer
            .declare_delay(&mut kit.design, top, "in", "out");
        kit.analyzer
            .constrain_max(&mut kit.design, top, "in", "out", spec)
            .unwrap();

        let out = select_joint_realizations(
            &mut kit.design,
            &mut kit.analyzer,
            &[add1, add2],
            &SelectionOptions::default(),
        )
        .unwrap();
        let combos: Vec<String> = out
            .combinations
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&cls| kit.design.class_name(cls).trim_start_matches("ADD8."))
                    .collect::<Vec<_>>()
                    .join("+")
            })
            .collect();
        rows.push(vec![
            format!("≤ {spec} D"),
            out.combinations.len().to_string(),
            if combos.is_empty() {
                "(none)".to_string()
            } else {
                combos.join(", ")
            },
            out.commits_tried.to_string(),
        ]);
    }
    rows
}

/// Quick self-check that the E1/E2 walk-throughs behave (printed as
/// pass/fail lines rather than a table).
pub fn e1_e2_walkthroughs() -> Vec<String> {
    use stem_core::kinds::{Equality, Functional};
    use stem_core::{Justification, Network};

    let mut lines = Vec::new();
    // E1.
    let mut net = Network::new();
    let v1 = net.add_variable("V1");
    let v2 = net.add_variable("V2");
    let v3 = net.add_variable("V3");
    let v4 = net.add_variable("V4");
    net.add_constraint(Equality::new(), [v1, v2]).unwrap();
    net.add_constraint(Functional::uni_maximum(), [v2, v3, v4])
        .unwrap();
    net.set(v3, Value::Int(7), Justification::User).unwrap();
    net.set(v1, Value::Int(9), Justification::User).unwrap();
    lines.push(format!(
        "E1 Fig4.5: V1:=9 ⇒ V2={} V4={}  [{}]",
        net.value(v2),
        net.value(v4),
        if net.value(v4) == &Value::Int(9) {
            "ok"
        } else {
            "FAIL"
        }
    ));
    // E2.
    let mut cyc = Network::new();
    let c1 = cyc.add_variable("V1");
    let c2 = cyc.add_variable("V2");
    let c3 = cyc.add_variable("V3");
    let plus = |k: i64| {
        Functional::custom("plusConst", move |vals| {
            vals[0].as_i64().map(|x| Value::Int(x + k))
        })
    };
    cyc.add_constraint(plus(1), [c1, c2]).unwrap();
    cyc.add_constraint(plus(3), [c2, c3]).unwrap();
    cyc.add_constraint(plus(2), [c3, c1]).unwrap();
    let rejected = cyc.set(c1, Value::Int(10), Justification::User).is_err();
    let restored = cyc.value(c1).is_nil();
    lines.push(format!(
        "E2 Fig4.9: cycle rejected={rejected} restored={restored}  [{}]",
        if rejected && restored { "ok" } else { "FAIL" }
    ));
    lines
}

/// T-E20 — engine throughput scaling: N independent sessions of
/// equality-chain networks served by 1..k workers, single submitting
/// driver, pipelined batches (bounded queues provide backpressure).
///
/// Each batch is one `Set` on the chain head that floods the whole chain
/// (`chain` assignments per batch). Reported speedups are relative to the
/// 1-worker row; genuine parallel speedup requires as many free cores as
/// workers.
pub fn t_e20_engine_throughput(worker_counts: &[usize]) -> Vec<Vec<String>> {
    use stem_engine::{Command, ConstraintSpec, Engine, EngineConfig, Source};

    const SESSIONS: usize = 16;
    const CHAIN: usize = 200;
    const ROUNDS: i64 = 100;

    let mut rows = Vec::new();
    let mut base_bps = None;
    for &workers in worker_counts {
        let engine = Engine::with_config(EngineConfig {
            workers,
            queue_capacity: 64,
            step_budget: None,
            ..EngineConfig::default()
        });
        let sessions: Vec<_> = (0..SESSIONS).map(|_| engine.create_session()).collect();
        for &s in &sessions {
            let mut cmds: Vec<Command> = (0..CHAIN)
                .map(|i| Command::AddVariable {
                    name: format!("v{i}"),
                })
                .collect();
            for i in 0..CHAIN - 1 {
                cmds.push(Command::AddConstraint {
                    spec: ConstraintSpec::Equality,
                    args: vec![
                        stem_core::VarId::from_index(i),
                        stem_core::VarId::from_index(i + 1),
                    ],
                });
            }
            engine.apply(s, cmds).unwrap();
        }
        let head = stem_core::VarId::from_index(0);
        let t0 = Instant::now();
        let mut tickets = Vec::with_capacity(SESSIONS * ROUNDS as usize);
        for round in 0..ROUNDS {
            for &s in &sessions {
                tickets.push(engine.submit(
                    s,
                    vec![Command::Set {
                        var: head,
                        value: stem_core::Value::Int(round),
                        source: Source::User,
                    }],
                ));
            }
        }
        for t in tickets {
            t.wait().unwrap();
        }
        let dt = t0.elapsed();
        // Snapshot-and-reset so each measured burst reports its own
        // high-water mark even if the engine were reused for another round.
        let stats = engine.stats_and_reset_queue_hwm();
        let batches = SESSIONS as u64 * ROUNDS as u64;
        let bps = batches as f64 / dt.as_secs_f64();
        let speedup = match base_bps {
            None => {
                base_bps = Some(bps);
                "1.00×".to_string()
            }
            Some(b) => format!("{:.2}×", bps / b),
        };
        rows.push(vec![
            workers.to_string(),
            batches.to_string(),
            stats.assignments.to_string(),
            ms(dt),
            format!("{bps:.0}"),
            speedup,
            stats.queue_depth_hwm.to_string(),
        ]);
    }
    rows
}

/// T-E21 — journaled vs. snapshot rollback on a 200-var equality chain,
/// measured on a core [`stem_core::Network`]: each batch is one `set` on
/// the chain head, undone on violation by `rollback_journal` (journal arm)
/// or `restore_snapshot` (snapshot arm).
///
/// Two workloads: *commit flood* (every batch sets the chain head to a
/// fresh value and propagation floods all 200 variables) isolates the
/// per-batch checkpoint overhead when the touched set IS the network;
/// *rollback sparse* (the second variable holds a user-pinned value, so a
/// conflicting set on the head is denied after touching one variable —
/// the §4.2.4 overwrite rule violating mid-propagation) isolates rollback
/// cost when the touched set is tiny. The snapshot arm pays O(network)
/// for checkpoint and restore either way; the journal pays O(touched)
/// (§9.2.3 cost model). Speedups are journal relative to snapshot per
/// workload.
pub fn t_e21_rollback_strategies() -> Vec<Vec<String>> {
    use stem_core::kinds::Equality;
    use stem_core::{Justification, Network, VarId};

    const CHAIN: usize = 200;
    const ROUNDS: i64 = 2_000;

    let build = |pin: bool| {
        let mut net = Network::new();
        let vars: Vec<VarId> = (0..CHAIN)
            .map(|i| net.add_variable(format!("v{i}")))
            .collect();
        for pair in vars.windows(2) {
            net.add_constraint(Equality::new(), [pair[0], pair[1]])
                .unwrap();
        }
        if pin {
            // User values deny propagation overwrites, so a conflicting
            // set on the head violates after touching only the head.
            net.set(vars[1], Value::Int(50), Justification::User)
                .unwrap();
        }
        net
    };

    // One batch: a set on the chain head, kept on success and undone on
    // violation. Returns whether it committed.
    let batch = |net: &mut Network, journal: bool, value: Value| {
        let head = VarId::from_index(0);
        if journal {
            net.begin_journal();
            let ok = net.set(head, value, Justification::Application).is_ok();
            if ok {
                net.commit_journal();
            } else {
                net.rollback_journal();
            }
            ok
        } else {
            let snapshot = net.snapshot();
            let ok = net.set(head, value, Justification::Application).is_ok();
            if !ok {
                net.restore_snapshot(&snapshot);
            }
            ok
        }
    };

    let mut rows = Vec::new();
    for (workload, violate) in [("commit flood", false), ("rollback sparse", true)] {
        let mut snapshot_bps = 0.0;
        for (label, journal) in [("snapshot", false), ("journal", true)] {
            let mut net = build(violate);
            let t0 = Instant::now();
            for round in 0..ROUNDS {
                let value = Value::Int(if violate { 100 } else { round % 50 });
                assert_eq!(batch(&mut net, journal, value), !violate);
            }
            let dt = t0.elapsed();
            let bps = ROUNDS as f64 / dt.as_secs_f64();
            let speedup = if journal {
                format!("{:.2}×", bps / snapshot_bps)
            } else {
                snapshot_bps = bps;
                "1.00×".to_string()
            };
            rows.push(vec![
                workload.to_string(),
                label.to_string(),
                ROUNDS.to_string(),
                ms(dt),
                format!("{bps:.0}"),
                speedup,
            ]);
        }
    }
    rows
}

/// T-E22 — plan-cached vs. agenda propagation on the dense-fanout
/// workload (§9.2.3's "precompiled topological sorts", applied to the
/// dynamic path).
///
/// Steady state: the network is built once, the first `set` compiles the
/// plan (planned arm) or warms the pooled agenda state (agenda arm), and
/// the measured loop re-sets the source with fresh values so every cycle
/// rewrites the whole cone. The agenda arm runs with plan caching
/// disabled — the interpreter ground truth — so the speedup column is the
/// tentpole claim: ≥2× `set` ops/s at dense fanout.
pub fn t_e22_planned_propagation(fans: &[usize]) -> Vec<Vec<String>> {
    use stem_core::Justification;

    const ROUNDS: i64 = 2_000;

    let mut rows = Vec::new();
    for &fan in fans {
        let mut agenda_ops = 0.0;
        for planned in [false, true] {
            let (mut net, src) = workloads::dense_fanout(fan);
            net.set_plan_caching(planned);
            // Warm-up: compile the plan / size the pooled cycle state.
            for i in 0..16 {
                net.set(src, Value::Int(i), Justification::User).unwrap();
            }
            net.reset_stats();
            let t0 = Instant::now();
            for i in 0..ROUNDS {
                net.set(src, Value::Int(100 + i), Justification::User)
                    .unwrap();
            }
            let dt = t0.elapsed();
            let stats = net.stats();
            assert_eq!(
                stats.plan_cache_hits,
                if planned { ROUNDS as u64 } else { 0 },
                "planned arm must serve every measured set from the cache"
            );
            let ops = ROUNDS as f64 / dt.as_secs_f64();
            let speedup = if planned {
                format!("{:.2}×", ops / agenda_ops)
            } else {
                agenda_ops = ops;
                "1.00×".to_string()
            };
            rows.push(vec![
                fan.to_string(),
                if planned { "planned" } else { "agenda" }.to_string(),
                ROUNDS.to_string(),
                stats.assignments.to_string(),
                ms(dt),
                format!("{ops:.0}"),
                speedup,
                stats.plan_cache_hits.to_string(),
            ]);
        }
    }
    rows
}

/// T-E23 — group-commit fsync amortization: N sessions, each on its own
/// thread, each committing `ROUNDS` single-`Set` chain batches against
/// one durable engine in [`stem_engine::Durability::GroupCommit`] mode.
///
/// Every acknowledged batch is on disk before its `apply` returns (the
/// commit-sync guarantee), but concurrent committers share fsyncs: the
/// coordinator absorbs every append that arrives while the current
/// flush is in flight and retires them with one `fsync`. The
/// appends-per-fsync column is the amortization factor; with one session
/// it degenerates to ~1 (commit-sync behaviour), and it climbs with
/// concurrency while batches/s climbs with it.
pub fn t_e23_group_commit(session_counts: &[usize]) -> Vec<Vec<String>> {
    use stem_engine::{
        Command, ConstraintSpec, Durability, DurabilityOptions, Engine, EngineConfig, Source,
    };

    const CHAIN: usize = 100;
    const ROUNDS: i64 = 60;

    let base = stem_testkit::TempDir::new("e23");
    let mut rows = Vec::new();
    let mut base_bps = None;
    for &n_sessions in session_counts {
        let engine = Engine::open_with_config(
            base.join(format!("s{n_sessions}")),
            EngineConfig {
                // One worker per session: concurrent *committers* are what
                // the coordinator amortizes over, and sessions shard onto
                // workers — fewer workers would cap the curve, not the
                // session count.
                workers: n_sessions,
                ..EngineConfig::default()
            },
            DurabilityOptions {
                mode: Durability::GroupCommit,
                checkpoint_bytes: 0,
                ..DurabilityOptions::default()
            },
        )
        .expect("open group-commit engine");
        let sessions: Vec<_> = (0..n_sessions).map(|_| engine.create_session()).collect();
        for &s in &sessions {
            let mut cmds: Vec<Command> = (0..CHAIN)
                .map(|i| Command::AddVariable {
                    name: format!("v{i}"),
                })
                .collect();
            for i in 0..CHAIN - 1 {
                cmds.push(Command::AddConstraint {
                    spec: ConstraintSpec::Equality,
                    args: vec![
                        stem_core::VarId::from_index(i),
                        stem_core::VarId::from_index(i + 1),
                    ],
                });
            }
            engine.apply(s, cmds).unwrap();
        }
        let before = engine.stats();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for &s in &sessions {
                let engine = &engine;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        engine
                            .apply(
                                s,
                                vec![Command::Set {
                                    var: stem_core::VarId::from_index(0),
                                    value: Value::Int(round),
                                    source: Source::User,
                                }],
                            )
                            .unwrap();
                    }
                });
            }
        });
        let dt = t0.elapsed();
        let stats = engine.stats();
        let appends = stats.wal_appends - before.wal_appends;
        let syncs = (stats.wal_group_syncs - before.wal_group_syncs).max(1);
        let batches = n_sessions as u64 * ROUNDS as u64;
        let bps = batches as f64 / dt.as_secs_f64();
        let speedup = match base_bps {
            None => {
                base_bps = Some(bps);
                "1.00×".to_string()
            }
            Some(b) => format!("{:.2}×", bps / b),
        };
        rows.push(vec![
            n_sessions.to_string(),
            batches.to_string(),
            appends.to_string(),
            syncs.to_string(),
            format!("{:.2}", appends as f64 / syncs as f64),
            ms(dt),
            format!("{bps:.0}"),
            speedup,
        ]);
        engine.shutdown();
    }
    rows
}

/// T-E24 — parallel cone replay: the cached plan of an 8-cone dense
/// fanout (fan 256 — 2 064 executing steps per root write) replayed with
/// growing thread budgets (§9.3's network compilation extended with a
/// partition into independent cones).
///
/// Every arm replays the *same* plan over the same value sequence; the
/// agenda interpreter stays ground truth (the planned-vs-agenda
/// differential sweeps the identical thread counts). Observable state is
/// asserted equal across arms here, so the speedup column is wall-clock
/// only; the replay/cone/fallback columns show whether the partition
/// actually engaged. Each 258-step cone sits below the default 1,024-step
/// pool floor, so every threaded arm runs the cone kernels inline: the
/// column compares kernel replay (with final-check elision) against the
/// sequential interpreter, not thread scaling — T-E27 sweeps the floor.
pub fn t_e24_parallel_replay(thread_counts: &[usize]) -> Vec<Vec<String>> {
    use stem_core::Justification;

    const CONES: usize = 8;
    const FAN: usize = 256;
    const ROUNDS: i64 = 2_000;

    let mut rows = Vec::new();
    let mut base_ops = 0.0;
    let mut reference: Option<Vec<(String, Value)>> = None;
    for &threads in thread_counts {
        let (mut net, src) = workloads::par_fanout(CONES, FAN);
        net.set_parallel_threads(threads);
        // Warm-up: the first set compiles the plan (and, with threads,
        // its cone partition).
        for i in 0..16 {
            net.set(src, Value::Int(i), Justification::User).unwrap();
        }
        net.reset_stats();
        let t0 = Instant::now();
        for i in 0..ROUNDS {
            net.set(src, Value::Int(100 + i), Justification::User)
                .unwrap();
        }
        let dt = t0.elapsed();
        let stats = net.stats();
        let par = net.par_stats();
        assert_eq!(
            stats.plan_cache_hits, ROUNDS as u64,
            "every measured set must replay the cached plan"
        );
        let dump: Vec<(String, Value)> = net
            .variables()
            .map(|v| (net.var_name(v).to_string(), net.value(v).clone()))
            .collect();
        match &reference {
            None => reference = Some(dump),
            Some(r) => assert_eq!(r, &dump, "replay must be identical at every thread count"),
        }
        let ops = ROUNDS as f64 / dt.as_secs_f64();
        let speedup = if base_ops == 0.0 {
            base_ops = ops;
            "1.00×".to_string()
        } else {
            format!("{:.2}×", ops / base_ops)
        };
        rows.push(vec![
            threads.to_string(),
            ROUNDS.to_string(),
            par.plan_replays_parallel.to_string(),
            par.cones_executed.to_string(),
            par.parallel_fallbacks.to_string(),
            ms(dt),
            format!("{ops:.0}"),
            speedup,
        ]);
    }
    rows
}

/// T-E27 — the pool floor's crossover: `par_fanout(4, m)` at a two-thread
/// budget, replayed with the kernels forced inline (floor `usize::MAX`)
/// and forced onto the pool (floor 1), next to the sequential interpreter
/// (thread budget 1) on the same plan. Each cell is the median of `reps`
/// alternating repetitions of a fixed step budget, in µs per `set`; the
/// last column is inline time over pool time (above 1 = the pool wins).
/// Observable state is asserted equal across the three arms.
pub fn t_e27_pool_floor(fans: &[usize], reps: usize) -> Vec<Vec<String>> {
    use stem_core::Justification;

    const CONES: usize = 4;
    const STEP_BUDGET: usize = 2_000_000;

    let mut rows = Vec::new();
    for &fan in fans {
        let steps = fan + 2;
        let rounds = (STEP_BUDGET / (CONES * steps)).max(20) as i64;
        // Arms: interpreter (threads 1), inline kernels, pooled kernels.
        let mut arms: Vec<_> = [(1usize, 0usize), (2, usize::MAX), (2, 1)]
            .into_iter()
            .map(|(threads, floor)| {
                let (mut net, src) = workloads::par_fanout(CONES, fan);
                net.set_parallel_threads(threads);
                if threads > 1 {
                    net.set_parallel_min_steps(floor);
                }
                for i in 0..16 {
                    net.set(src, Value::Int(i), Justification::User).unwrap();
                }
                (net, src, Vec::with_capacity(reps))
            })
            .collect();
        let mut next = 100i64;
        for _ in 0..reps {
            for (net, src, times) in arms.iter_mut() {
                let t0 = Instant::now();
                for i in 0..rounds {
                    net.set(*src, Value::Int(next + i), Justification::User)
                        .unwrap();
                }
                times.push(t0.elapsed().as_secs_f64() * 1e6 / rounds as f64);
            }
            next += rounds;
        }
        let dumps: Vec<Vec<Value>> = arms
            .iter()
            .map(|(net, _, _)| net.variables().map(|v| net.value(v).clone()).collect())
            .collect();
        assert!(
            dumps.windows(2).all(|w| w[0] == w[1]),
            "arms diverged at m={fan}"
        );
        let median = |times: &mut Vec<f64>| {
            times.sort_by(f64::total_cmp);
            times[times.len() / 2]
        };
        let us: Vec<f64> = arms.iter_mut().map(|(_, _, t)| median(t)).collect();
        let pool = &arms[2].0;
        assert_eq!(pool.par_stats().parallel_fallbacks, 0);
        rows.push(vec![
            fan.to_string(),
            steps.to_string(),
            format!("{:.1}", us[0]),
            format!("{:.1}", us[1]),
            format!("{:.1}", us[2]),
            format!("{:.2}×", us[1] / us[2]),
        ]);
    }
    rows
}
