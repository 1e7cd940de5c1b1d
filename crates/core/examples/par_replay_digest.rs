//! Determinism probe for the `ci.sh --par-differential` leg: builds a
//! seeded batch of cone-partitionable networks, replays each with an
//! 8-thread budget through the pool and inline, and prints every
//! variable's final value plus the propagation counters. The CI leg runs this twice with the same seed
//! and requires byte-identical stdout — any scheduling-dependent value,
//! ordering, or counter difference in the parallel replay path shows up
//! as a diff.
//!
//! Usage: `cargo run --release -p stem-core --example par_replay_digest [seed]`

use stem_core::kinds::{Equality, Functional};
use stem_core::prng::SplitMix64;
use stem_core::{Justification, Network, Value, VarId};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xE24);
    let mut rng = SplitMix64::new(seed);
    for round in 0..16 {
        // Every fifth round collapses to a single cone, so the digest
        // covers the one-cone partition too.
        let cones = if round % 5 == 0 {
            1
        } else {
            rng.range_usize(2, 9)
        };
        let fan = rng.range_usize(2, 24);
        let mut net = Network::new();
        net.set_parallel_threads(8);
        // Odd rounds drop the per-task floor so these small cones really
        // cross the worker pool; even rounds keep the default floor and
        // replay inline.
        if round % 2 == 1 {
            net.set_parallel_min_steps(1);
        }
        let src = net.add_variable("src");
        let mut outs: Vec<VarId> = Vec::new();
        for i in 0..cones {
            let head = net.add_variable(format!("h{i}"));
            net.add_constraint(Equality::new(), [src, head]).unwrap();
            let mut args = Vec::with_capacity(fan + 1);
            for j in 0..fan {
                let m = net.add_variable(format!("m{i}_{j}"));
                net.add_constraint(Equality::new(), [head, m]).unwrap();
                args.push(m);
            }
            let out = net.add_variable(format!("o{i}"));
            args.push(out);
            net.add_constraint(Functional::uni_addition(), args)
                .unwrap();
            outs.push(out);
        }
        for _ in 0..rng.range_usize(3, 12) {
            let v = rng.range_i64(-1000, 1000);
            net.set(src, Value::Int(v), Justification::User).unwrap();
        }
        println!("round {round}: cones={cones} fan={fan}");
        for v in net.variables() {
            println!(
                "  {} = {:?} [{:?}]",
                net.var_name(v),
                net.value(v),
                net.justification(v)
            );
        }
        println!("  stats: {:?}", net.stats());
        println!("  par: {:?}", net.par_stats());
    }
}
