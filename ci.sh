#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, docs, release build, full test suite.
# The workspace is hermetic — everything runs with --offline.
#
# Flags:
#   --bench-compare    additionally diff the smoke-bench JSON against
#                      BENCH_baseline.json and fail on a >25% ops/s drop
#   --par-differential additionally run the parallel-replay legs in
#                      release: the 1000-network planned-vs-agenda
#                      differential (thread sweep 1/2/4/8 is inside the
#                      test), the core + engine parallel suites, and a
#                      two-run same-seed byte-identical determinism check
#                      on the 8-thread replay digest
#   --cluster-differential
#                      additionally run the stem-cluster suite in
#                      release: the 25-seed kill-leader-mid-pipeline
#                      differential (no acked batch lost or duplicated
#                      across lease-fenced failover) plus the router,
#                      shipping, and client-failover robustness legs
#   --domain-differential
#                      additionally run the domain-propagation legs in
#                      release: the 1000-network mixed
#                      interval/finite-set/single differential (agenda
#                      vs planned twins, byte-identical values and
#                      domain counters, subsumption-mark parity) plus
#                      the core domain-kind unit suite
set -euo pipefail
cd "$(dirname "$0")"

BENCH_COMPARE=0
PAR_DIFFERENTIAL=0
CLUSTER_DIFFERENTIAL=0
DOMAIN_DIFFERENTIAL=0
for arg in "$@"; do
  case "$arg" in
    --bench-compare) BENCH_COMPARE=1 ;;
    --par-differential) PAR_DIFFERENTIAL=1 ;;
    --cluster-differential) CLUSTER_DIFFERENTIAL=1 ;;
    --domain-differential) DOMAIN_DIFFERENTIAL=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings, incl. redundant clones)"
cargo clippy --workspace --all-targets --offline -- -D warnings -W clippy::redundant-clone

echo "==> cargo doc (deny warnings: broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace -q --offline

echo "==> recovery fault-injection matrix (crash at every WAL byte offset)"
# Runs in release: the deterministic sweep opens an engine per possible
# crash point and the randomized differential replays ~25 seeded
# workloads, each also pipelined into group-commit workers. The
# group_commit suite pins worker-side groups: fsyncs shared across a
# worker's queue (a session's pipelined batches stacked into one flush),
# a failed flush rolling back every batch it covered, and a transient
# fsync failure never shadowing a later ack (commit-sync and group
# commit). The differential suite's stacked leg checks pipelined group
# commit against the rollback-free oracle, and the core savepoint suite
# the journal savepoints stacking runs on. Also re-runs the persist
# store/fault suites at -O to catch release-only ordering bugs in the
# recovery path, and the wire codec suite (its corruption and truncation
# sweeps decode the same command encoding the log holds).
cargo test --release --offline -p stem-engine --test crash_matrix -q
cargo test --release --offline -p stem-engine --test group_commit -q
cargo test --release --offline -p stem-engine --test differential -q
cargo test --release --offline -p stem-engine --test persist -q
cargo test --release --offline -p stem-core --test savepoint -q
cargo test --release --offline -p stem-persist -q
cargo test --release --offline -p stem-server --test proto -q
# Kill-leader/promote-follower leg: byte-identical leader/follower state
# across 25 seeded workloads (in-process shipping), then the same fleet
# choreography over real loopback TCP through stem-server.
cargo test --release --offline -p stem-engine --test replication -q
cargo test --release --offline -p stem-server --test replication -q

echo "==> server loopback smoke (ephemeral port, example client, clean shutdown)"
# remote_session spawns a stem-server on 127.0.0.1:0, drives it with a
# pipelined client, and exits 0 only after a clean client-requested
# shutdown; the timeout turns a hung accept/reply loop into a failure.
timeout 120 cargo run --release --offline --example remote_session > /dev/null

echo "==> cargo bench --smoke (regression JSON)"
cargo bench -p stem-bench --bench propagation --offline -- --smoke
cargo bench -p stem-bench --bench propagation_planned --offline -- --smoke
cargo bench -p stem-bench --bench domains --offline -- --smoke
cargo bench -p stem-bench --bench engine --offline -- --smoke
cargo bench -p stem-bench --bench persist --offline -- --smoke
cargo bench -p stem-bench --bench server --offline -- --smoke
test -s BENCH_propagation.json || { echo "missing BENCH_propagation.json"; exit 1; }
test -s BENCH_propagation_planned.json || { echo "missing BENCH_propagation_planned.json"; exit 1; }
test -s BENCH_domains.json || { echo "missing BENCH_domains.json"; exit 1; }
test -s BENCH_engine.json || { echo "missing BENCH_engine.json"; exit 1; }
test -s BENCH_persist.json || { echo "missing BENCH_persist.json"; exit 1; }
test -s BENCH_server.json || { echo "missing BENCH_server.json"; exit 1; }

echo "==> durability gap gate (interval_sync within 10% of volatile)"
# The buffered-append + group-commit work closed the WAL gap; hold it
# closed. Uses min_ns (best sample) for load tolerance, like the
# baseline compare.
python3 - << 'PY'
import json
r = {e["id"]: e["min_ns"] for e in json.load(open("BENCH_engine.json"))["results"]}
vol = 1e9 / r["engine/durability_chain100/volatile"]
ivl = 1e9 / r["engine/durability_chain100/interval_sync"]
print(f"volatile {vol:.0f} ops/s, interval_sync {ivl:.0f} ops/s ({ivl/vol:.2%})")
assert ivl >= 0.9 * vol, "interval_sync fell >10% below volatile"
PY

if [[ "$PAR_DIFFERENTIAL" == 1 ]]; then
  echo "==> parallel replay differential (thread sweep 1/2/4/8, release)"
  # The differential asserts byte-identical values, justifications,
  # stats, violations, and final-check order between the agenda
  # interpreter and planned replay at every swept thread count. The
  # `parallel` suite carries the final-check elision regressions
  # (self-input sum, NaN, yielded equality), pooled and inline.
  cargo test --release --offline -p stem-core --test planned_differential -q
  cargo test --release --offline -p stem-core --test parallel -q
  cargo test --release --offline -p stem-engine --test parallel -q

  echo "==> parallel replay determinism (two same-seed runs, byte-identical)"
  cargo run --release --offline -p stem-core --example par_replay_digest > /tmp/par_digest_1.txt 2>/dev/null
  cargo run --release --offline -p stem-core --example par_replay_digest > /tmp/par_digest_2.txt 2>/dev/null
  diff /tmp/par_digest_1.txt /tmp/par_digest_2.txt \
    || { echo "parallel replay digest differs between same-seed runs"; exit 1; }
  grep -q "plan_replays_parallel: [1-9]" /tmp/par_digest_1.txt \
    || { echo "digest never exercised the parallel replay path"; exit 1; }
  rm -f /tmp/par_digest_1.txt /tmp/par_digest_2.txt
fi

if [[ "$CLUSTER_DIFFERENTIAL" == 1 ]]; then
  echo "==> cluster differential (25-seed kill-leader, release)"
  # The cluster suite's headline test feeds a durable 2-shard cluster
  # and a volatile twin identical seeded workloads, kills a shard leader
  # with batches still pipelined, and requires byte-identical per-batch
  # results, dumps, and violation reports after promotion. The server
  # suite rides along: timeout eviction, Busy caps, and the
  # failover-client no-loss/no-double-apply check.
  cargo test --release --offline -p stem-server --test cluster -q
  cargo test --release --offline -p stem-server --test server -q
fi

if [[ "$DOMAIN_DIFFERENTIAL" == 1 ]]; then
  echo "==> domain propagation differential (1000 mixed-domain networks, release)"
  # Byte-identical values/justifications/outcomes between the agenda
  # interpreter and every planned twin, identical domain counters
  # (tightenings, subsumed prunes, wipeouts), and identical live
  # subsumption marks — under mid-run structural edits and
  # set_subsumption toggles.
  cargo test --release --offline -p stem-core --test domain_differential -q
  cargo test --release --offline -p stem-core --lib kinds::domain -q
fi

if [[ "$BENCH_COMPARE" == 1 ]]; then
  echo "==> bench-compare vs BENCH_baseline.json"
  python3 tools/bench_compare.py
fi

echo "CI OK"
