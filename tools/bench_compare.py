#!/usr/bin/env python3
"""Compare smoke-bench JSON output against the checked-in baseline.

Usage:
  tools/bench_compare.py                  # compare BENCH_*.json vs BENCH_baseline.json
  tools/bench_compare.py --update         # rewrite BENCH_baseline.json from current JSONs
  tools/bench_compare.py --write-baseline # run every smoke bench fresh, then rewrite
  tools/bench_compare.py --threshold 0.4  # custom allowed fractional ops/s drop

Exit status 1 if any benchmark id present in both current output and the
baseline regressed by more than the threshold (default 25% ops/s drop).
Smoke runs are short (5 samples), so the comparison uses median-derived
ops/s and a generous threshold: this is a tripwire for order-of-magnitude
mistakes (accidental debug profile, quadratic blowup, plan cache silently
disabled), not a micro-benchmark referee. New ids are reported and pass;
ids that vanished from the current run fail, since a silently dropped
benchmark is exactly what a regression gate must notice.

Besides the absolute floors, RATIO_GATES checks relative speedups between
arms of the same run (e.g. parallel vs. sequential plan replay) — those
cancel machine speed out, but are only enforced on hosts with enough CPUs
to make thread scaling observable.

Stdlib only — the repo is hermetic and this must run offline.
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "BENCH_baseline.json")

# Relative gates: (numerator id, denominator id, minimum ops/s ratio,
# minimum host CPUs to enforce). Unlike the absolute floors these compare
# two arms of the *same* run, so machine speed cancels out — but each
# gate names the core count below which it is warn-skipped rather than
# enforced. Every gate below holds on a 1-CPU host: none asks for a
# thread-scaling speedup, which no host this repo is measured on can
# show.
RATIO_GATES = [
    # Cone-kernel replay must never cost more than noise against the
    # sequential interpreter at ANY fanout, on any host. Every fan's
    # cones (≤ 258 steps) sit below the 1,024-step pool floor, so the
    # `parallel` arm runs its kernels inline. The thresholds carry heavy
    # slack: on a 1–2 CPU builder identical-code arms swing ±30% run to
    # run, so these are tripwires for an order-of-magnitude dispatch
    # regression.
    ("propagation_planned/dense_fanout/parallel/16",
     "propagation_planned/dense_fanout/par_seq/16", 0.65, 1),
    ("propagation_planned/dense_fanout/parallel/64",
     "propagation_planned/dense_fanout/par_seq/64", 0.9, 1),
    ("propagation_planned/dense_fanout/parallel/256",
     "propagation_planned/dense_fanout/par_seq/256", 0.75, 1),
    # The pool floor: at the `fanout_replay` shape (four 130-step
    # cones) inline replay must not lose to the pool. Six smoke runs on
    # a 2-vCPU host measured inline/pool at 1.01-1.11x; the tolerance is
    # that 0.10 spread. No gate asks the pool to win (par_floor/*/2048):
    # whether a second core is free depends on host load.
    ("propagation_planned/par_floor/inline/128",
     "propagation_planned/par_floor/pool/128", 0.9, 1),
    # A partition of sub-floor cones must take the inline path: the par
    # arm of the dispatch-overhead micro-bench may not pay pool tax
    # (pooled, this shape measured 0.1-0.3×; inline it sits at ~1.0×).
    ("propagation_planned/dispatch_overhead/par/4x4",
     "propagation_planned/dispatch_overhead/seq/4x4", 0.8, 1),
    # Per-root dirty tracking: a structural toggle whose footprint is
    # disjoint from the measured cone must leave its plan alive, so the
    # churn arm runs within 2× of pure cache-hit replay (the old global
    # generation bump recompiled every iteration, ~5-6× slower).
    ("propagation_planned/recompile_churn/toggle_between_sets/64",
     "propagation_planned/dense_fanout/planned/64", 0.5, 1),
    # The cluster router's tax on a pipelined submit (id translation plus
    # the shard-roster read lock) must stay within 15% of hitting the
    # engine directly — enforced everywhere, it measures overhead, not
    # parallel speedup.
    ("server/routed_chain100/pipeline/32",
     "server/loopback_chain100/pipeline/32", 0.85, 1),
    # Runtime subsumption: replaying a plan whose 256 propagators have
    # all proved themselves entailed must beat the never-pruned twin by
    # ≥1.3× — a pure dispatch-avoidance ratio, so it holds on any host
    # (measured ~30× when the skip sits before the infer call).
    ("domains/subsumed_prune/pruned/256",
     "domains/subsumed_prune/unpruned/256", 1.3, 1),
]


def check_ratio_gates(current):
    """Enforce RATIO_GATES against the current run.

    Returns `(failures, skipped)`: the numerator ids of enforced gates
    that failed, and `(gate, reason)` pairs for every gate that was NOT
    enforced this run — because an id was absent or because the host has
    too few CPUs — so the caller can surface them in the end-of-run
    summary instead of letting coverage silently shrink.
    """
    cores = os.cpu_count() or 1
    failures, skipped = [], []
    for num, den, min_ratio, min_cores in RATIO_GATES:
        gate = f"{num} / {den} (need ≥ {min_ratio}x @ {min_cores}+ cores)"
        enforce = cores >= min_cores
        if num not in current or den not in current:
            missing = [i for i in (num, den) if i not in current]
            reason = f"id(s) absent from current run: {', '.join(missing)}"
            print(f"bench-compare: WARN ratio gate skipped, {reason}")
            skipped.append((gate, reason))
            continue
        ratio = current[num] / current[den] if current[den] else float("inf")
        ok = ratio >= min_ratio
        mark = "ok" if ok else ("FAIL" if enforce else "warn")
        suffix = "" if enforce else (
            f" [not enforced: {cores} CPU(s) < {min_cores}]")
        print(f"  [{mark:>4}] {num} / {den}: {ratio:.2f}x "
              f"(need ≥ {min_ratio}x){suffix}")
        if enforce and not ok:
            failures.append(num)
        if not enforce:
            reason = (f"host has {cores} CPU(s), gate needs ≥ {min_cores}; "
                      f"measured {ratio:.2f}x "
                      + ("(would have passed)" if ok else "(would have FAILED)"))
            skipped.append((gate, reason))
    return failures, skipped


def load_current():
    """Merge every BENCH_<bench>.json (except the baseline) into id -> ops/s.

    Throughput is derived from `min_ns` (best sampled iteration), not the
    median: on a loaded single-CPU builder the median of a 5-sample smoke
    run swings ±40% with background load, while the best case — which a
    real regression cannot fake — stays within a few percent.

    Records the benches emit that the baseline schema doesn't know about —
    a missing `min_ns`/`ops_per_sec`, an id-less record from a newer bench
    runner — are warned about and skipped, never a crash: the gate must
    keep working while the bench suite grows ahead of the baseline.
    """
    merged = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json"))):
        if os.path.basename(path) == os.path.basename(BASELINE):
            continue
        with open(path) as f:
            doc = json.load(f)
        for r in doc.get("results", []):
            bid = r.get("id")
            if bid is None:
                print(f"bench-compare: WARN {os.path.basename(path)}: "
                      f"skipping record without an 'id': {r}")
                continue
            if r.get("min_ns"):
                ops = 1e9 / r["min_ns"]
            elif r.get("ops_per_sec"):
                ops = r["ops_per_sec"]
            else:
                print(f"bench-compare: WARN {os.path.basename(path)}: {bid} has "
                      f"neither 'min_ns' nor 'ops_per_sec'; skipping")
                continue
            merged[bid] = ops
    return merged


def bench_names():
    """Every [[bench]] target declared by the bench crate, in file order."""
    manifest = os.path.join(ROOT, "crates", "bench", "Cargo.toml")
    with open(manifest) as f:
        text = f.read()
    return re.findall(r'\[\[bench\]\]\s*\nname = "([^"]+)"', text)


def run_smoke_benches():
    """Run every smoke bench fresh, regenerating each BENCH_<name>.json."""
    names = bench_names()
    if not names:
        print("bench-compare: no [[bench]] targets found in crates/bench/Cargo.toml")
        return False
    for name in names:
        print(f"bench-compare: running smoke bench '{name}'")
        proc = subprocess.run(
            ["cargo", "bench", "--offline", "-p", "stem-bench",
             "--bench", name, "--", "--smoke"],
            cwd=ROOT,
        )
        if proc.returncode != 0:
            print(f"bench-compare: bench '{name}' failed (exit {proc.returncode})")
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--update", action="store_true", help="rewrite the baseline")
    ap.add_argument("--write-baseline", action="store_true",
                    help="run every smoke bench fresh (cargo bench -- --smoke), then "
                         "rewrite the baseline from the regenerated JSONs; combine with "
                         "--merge-min to only lower existing floors")
    ap.add_argument("--merge-min", action="store_true",
                    help="like --update, but keep the elementwise min with any existing "
                         "baseline — run the smoke benches several times with this to "
                         "record a conservative floor that background load cannot dip under")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional ops/s drop (default 0.25)")
    args = ap.parse_args()

    if args.write_baseline:
        if not run_smoke_benches():
            return 1

    current = load_current()
    if not current:
        print("bench-compare: no BENCH_*.json results found — run the smoke benches first")
        return 1

    if args.update or args.merge_min or args.write_baseline:
        if args.merge_min and os.path.exists(BASELINE):
            with open(BASELINE) as f:
                prior = json.load(f)["results"]
            for k, v in prior.items():
                current[k] = min(v, current.get(k, v))
        doc = {
            "comment": "ops/s floor for ci.sh --bench-compare; regenerate with tools/bench_compare.py --update, then tighten with repeated smoke runs + --merge-min",
            "results": {k: round(v, 2) for k, v in sorted(current.items())},
        }
        with open(BASELINE, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"bench-compare: wrote {len(current)} baseline entries to {BASELINE}")
        return 0

    if not os.path.exists(BASELINE):
        print(f"bench-compare: missing {BASELINE} (run with --update to create it)")
        return 1
    with open(BASELINE) as f:
        baseline = json.load(f).get("results", {})

    failures, missing = [], []
    for bid, base_ops in sorted(baseline.items()):
        cur_ops = current.get(bid)
        if cur_ops is None:
            missing.append(bid)
            continue
        ratio = cur_ops / base_ops if base_ops else float("inf")
        mark = "FAIL" if ratio < 1.0 - args.threshold else "ok"
        print(f"  [{mark:>4}] {bid}: {cur_ops:>12.0f} ops/s vs baseline {base_ops:>12.0f} ({ratio:.2f}x)")
        if mark == "FAIL":
            failures.append(bid)
    new_ids = sorted(set(current) - set(baseline))
    for bid in new_ids:
        print(f"  [ new] {bid}: {current[bid]:.0f} ops/s (not in baseline)")
    if new_ids:
        print(f"bench-compare: WARN {len(new_ids)} id(s) not in baseline (pass, "
              f"ungated): {', '.join(new_ids)} — refresh with --update/--merge-min")

    ratio_failures, ratio_skipped = check_ratio_gates(current)

    if ratio_skipped:
        print(f"bench-compare: {len(ratio_skipped)} ratio gate(s) not "
              f"enforced this run:")
        for gate, reason in ratio_skipped:
            print(f"  [skip] {gate} — {reason}")
    if missing:
        print(f"bench-compare: {len(missing)} baseline id(s) absent from current run: {', '.join(missing)}")
    if failures:
        print(f"bench-compare: {len(failures)} regression(s) beyond {args.threshold:.0%}: {', '.join(failures)}")
    if ratio_failures:
        print(f"bench-compare: {len(ratio_failures)} ratio gate(s) failed: {', '.join(ratio_failures)}")
    if failures or missing or ratio_failures:
        return 1
    print(f"bench-compare: {len(baseline)} benchmarks within {args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
