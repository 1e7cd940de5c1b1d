//! Regenerates every experiment table of DESIGN.md §4 / EXPERIMENTS.md.
//!
//! Run with: `cargo run --release -p stem-bench --bin experiments`

use stem_bench::{experiments, render_table};

fn main() {
    println!("# STEM reproduction — experiment tables\n");
    println!("(see DESIGN.md §4 for the experiment index; absolute timings");
    println!("depend on the machine — the shapes are what the thesis claims)");

    println!("\n### E1/E2 — chapter 4 walk-throughs\n");
    for line in experiments::e1_e2_walkthroughs() {
        println!("{line}");
    }

    print!(
        "{}",
        render_table(
            "T-E3 — hierarchical vs. flat propagation (Fig. 5.1): shared internal network of 200 stages",
            &["instances", "inferences (hier)", "inferences (flat)", "saving", "hier ms", "flat ms"],
            &experiments::t_e3_hierarchy(&[1, 2, 4, 8, 16, 32]),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E7 — hierarchical delay estimates vs. simulation (ripple-carry adders)",
            &[
                "width",
                "analyzer est (ns)",
                "simulated (ns)",
                "est/meas",
                "est ms"
            ],
            &experiments::t_e7_delay(&[2, 4, 8, 16]),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E8 — Fig. 8.1 ALU module selection",
            &["scenario", "delay spec", "adder area budget", "selected"],
            &experiments::t_e8_alu_selection(),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E9 — selection effort (candidates / property tests / pruned)",
            &[
                "tree (groups×leaves)",
                "prune + all tests",
                "no prune + all tests",
                "prune + delays only",
            ],
            &experiments::t_e9_pruning(&[(2, 2), (4, 8), (8, 16), (16, 32)]),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E10 — complexity ∝ Σ_v #constraints(v) (§9.2.3)",
            &[
                "shape",
                "n",
                "Σ #constraints",
                "activations",
                "ms",
                "ns per unit"
            ],
            &experiments::t_e10_complexity(&[100, 400, 1600, 6400]),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E11 — agenda batching of functional constraints (§4.2.1)",
            &[
                "fan-in",
                "inferences (scheduled)",
                "inferences (immediate)",
                "saving"
            ],
            &experiments::t_e11_agenda(&[2, 8, 32, 128]),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E12 — dependency-directed erasure on constraint removal (§4.2.4)",
            &["chain length", "erased vars", "surviving vars", "ms"],
            &experiments::t_e12_erasure(&[100, 1000, 10000]),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E13 — lazy calculated views (§6.3): recalculations",
            &["access pattern", "recalculations"],
            &experiments::t_e13_lazy_views(100, 5),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E14 — full adder: analyzer bound vs. simulated delay",
            &["path", "analyzer est (ns)", "simulated (ns)", "est ≥ meas"],
            &experiments::t_e14_sim_vs_analyzer(),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E15 — compiled vs. interpreted evaluation (§9.3 network compilation)",
            &[
                "leaves",
                "inferences (interp)",
                "inferences (compiled)",
                "interp ms",
                "compiled ms",
                "speedup"
            ],
            &experiments::t_e15_compiled(&[64, 256, 1024]),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E16 — satisfaction solves, propagation verifies (§2.1/§7.4 baseline)",
            &[
                "row cells",
                "compacted extent",
                "solve ms",
                "verify ms",
                "verified"
            ],
            &experiments::t_e16_compaction(&[50, 200, 800]),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E17 — Fig. 8.1's premise measured from gate structure: ripple vs. carry-select",
            &[
                "width",
                "RC delay (ns)",
                "CS delay (ns)",
                "speedup",
                "RC area",
                "CS area",
                "area cost"
            ],
            &experiments::t_e17_adder_tradeoff(&[4, 8, 16]),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E18 — joint selection over a two-adder pipeline (shared delay budget)",
            &[
                "pipeline spec",
                "valid combos",
                "combinations",
                "commits tried"
            ],
            &experiments::t_e18_joint_selection(&[18.0, 14.0, 10.0]),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E20 — engine throughput: 16 sessions, 200-var chains, pipelined single-Set batches",
            &[
                "workers",
                "batches",
                "assignments",
                "ms",
                "batches/s",
                "speedup",
                "queue HWM"
            ],
            &experiments::t_e20_engine_throughput(&[1, 2, 4]),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E21 — journaled vs. snapshot rollback: 200-var chain, one core `set` per batch",
            &[
                "workload",
                "strategy",
                "batches",
                "ms",
                "batches/s",
                "speedup"
            ],
            &experiments::t_e21_rollback_strategies(),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E22 — plan-cached vs. agenda propagation: dense-fanout steady-state sets",
            &[
                "fanout",
                "path",
                "sets",
                "assignments",
                "ms",
                "sets/s",
                "speedup",
                "plan hits"
            ],
            &experiments::t_e22_planned_propagation(&[16, 64, 256]),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E23 — group-commit fsync amortization: concurrent sessions, durable single-Set batches",
            &[
                "sessions",
                "batches",
                "WAL appends",
                "fsyncs",
                "appends/fsync",
                "ms",
                "batches/s",
                "speedup"
            ],
            &experiments::t_e23_group_commit(&[1, 2, 4, 8]),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E24 — parallel cone replay: 8-cone dense fanout (fan 256), cached plan, thread sweep",
            &[
                "threads",
                "sets",
                "parallel replays",
                "cones",
                "fallbacks",
                "ms",
                "sets/s",
                "speedup"
            ],
            &experiments::t_e24_parallel_replay(&[1, 2, 4, 8]),
        )
    );

    print!(
        "{}",
        render_table(
            "T-E27 — pool floor crossover: par_fanout(4, m) at 2 threads, µs per set (median of 7)",
            &[
                "m",
                "steps/cone",
                "interpreter µs",
                "inline µs",
                "pool µs",
                "pool speedup"
            ],
            &experiments::t_e27_pool_floor(&[128, 256, 512, 1024, 2048, 4096, 8192], 7),
        )
    );
}
