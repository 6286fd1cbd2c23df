#!/usr/bin/env bash
# Tier-1 verification gate for the Zerber+R workspace.
#
# CI (.github/workflows/ci.yml) runs this script as its one step, so the
# same checks run locally and in CI: rustfmt, release build, clippy with
# warnings denied (the lint gate: the workspace `[lints]` table plus the
# per-crate and per-file `deny` attributes, see README "Static
# analysis"), the full test suite
# (including the engine-vs-oracle equivalence proptests, whose spill and
# durable configurations write page files, WALs and manifests into
# temp-dir roots), the release re-run of the concurrency and equivalence
# suites (every equivalence case once, the tiering configuration's
# included: maintenance forced on every operation, next to a live-WAL
# durable store), a repeated compaction-under-load stress loop, the fault-injected durable recovery
# suite plus a repeated kill-at-every-injection-point crash stress loop,
# the fault-injected replication suite plus a repeated disconnect-storm
# stress loop, a hygiene guard, a syntax check of the perf gate script
# (which is run by hand, not here) and the two line-count ratchets
# (scripts/loc.sh totals against fixed ceilings).
#
# Hygiene: the store library creates no directory of its own — every
# store lives in a root its caller names.  The tests put every root they
# use (spill, durable, replica and fault-injection alike) in a drop-guarded
# `TempRoot` under one staging dir, `$TMPDIR/zerber-test`
# (tests/common/mod.rs, and its twins in the store and protocol unit
# tests), so one guard asserts the runs left no file behind there: a
# root that outlived its test, with its page files, `.pages.compact`
# rewrite scratch, WALs, manifests or replica generation directories.
#
# The debug lock checker needs no step of its own: the plain `cargo test -q`
# below builds with debug assertions, so every test that takes a shard lock
# checks the rank order and the one-shard-at-a-time rule, and every test
# that reaches durable IO checks that no shard write lock is held outside a
# sanctioned scope (crates/store/src/lockrank.rs).
#
# Right after the workspace tests it runs the paper as a gate: the release
# `zerber_repro` binary reproduces every figure and table of the paper's
# evaluation on both datasets from one seed and exits non-zero when a gated
# claim of the paper does not hold (`cargo test` already ran the same
# experiment functions on the StudIP bed alone, in
# crates/bench/tests/repro_claims.rs).
#
# Then it runs the tests of zerber_perf, the benchmark: a detached package
# (own Cargo.toml and Cargo.lock) that the workspace build never sees.  Its
# unit tests plus `--smoke` on all four workloads make a signature change in
# store/protocol break this gate rather than the next benchmark run.

set -euo pipefail
cd "$(dirname "$0")/.."

TEST_STAGING="${TMPDIR:-/tmp}/zerber-test"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

echo "==> zerber_repro (the paper's figures and tables, both datasets, gated claims must hold)"
cargo run --release --offline -q -p zerber_bench --bin zerber_repro -- \
  all --scale 0.02 --seed 42 --out target/REPRO.json > /dev/null

echo "==> zerber_perf tests (detached benchmark package: unit tests + --smoke on all four workloads)"
cargo test --offline --manifest-path zerber_perf/Cargo.toml

echo "==> cargo test --release (concurrency + engine-vs-oracle, the tiering configuration's maintenance-on-every-op included, + batched-vs-sequential + spill equivalence)"
cargo test --release --test concurrent_server --test store_equivalence --test spill_store

echo "==> compaction-under-load stress (release, repeated)"
for i in 1 2 3 4 5; do
  cargo test --release --test spill_store \
    compaction_under_concurrent_load_never_tears_an_answer -- --exact \
    > /dev/null 2>&1 || {
      echo "compaction-under-load stress failed on iteration $i" >&2
      cargo test --release --test spill_store \
        compaction_under_concurrent_load_never_tears_an_answer -- --exact
      exit 1
    }
done

echo "==> durable recovery suite (release: fault injection, bit flips, WAL truncation property)"
cargo test --release --test durable_recovery

echo "==> crash-injection stress (release, repeated kill-at-every-injection-point loop)"
for i in 1 2 3 4 5; do
  cargo test --release --test durable_recovery \
    kill_at_every_injection_point_recovers_a_prefix_of_history -- --exact \
    > /dev/null 2>&1 || {
      echo "crash-injection stress failed on iteration $i" >&2
      cargo test --release --test durable_recovery \
        kill_at_every_injection_point_recovers_a_prefix_of_history -- --exact
      exit 1
    }
done

echo "==> replication suite (release: fault matrix, resnapshot, degraded reads, kill-at-every-boundary)"
cargo test --release --test replication

echo "==> disconnect-storm replication stress (release, repeated)"
for i in 1 2 3 4 5; do
  cargo test --release --test replication \
    disconnect_storm_replication_converges -- --exact \
    > /dev/null 2>&1 || {
      echo "disconnect-storm stress failed on iteration $i" >&2
      cargo test --release --test replication \
        disconnect_storm_replication_converges -- --exact
      exit 1
    }
done

echo "==> test hygiene: no test root left files behind under the staging dir"
if [ -d "$TEST_STAGING" ] && [ -n "$(find "$TEST_STAGING" -type f 2>/dev/null | head -1)" ]; then
  echo "stray files left behind under $TEST_STAGING:" >&2
  find "$TEST_STAGING" -type f >&2
  exit 1
fi

echo "==> perf gate script parses (scripts/perf_gate.sh and its embedded Python; running it takes ~40 min and an idle machine)"
bash -n scripts/perf_gate.sh
python3 - scripts/perf_gate.sh <<'PY'
import ast
import sys

# Padded with the lines before the heredoc, so errors cite the file's lines.
head, body = open(sys.argv[1]).read().split("<<'PY'\n", 1)
ast.parse("\n" * (head.count("\n") + 1) + body.split("\nPY\n", 1)[0], sys.argv[1])
PY

# The non-test lines of crates/store/src + crates/protocol/src may only go
# down: lower the ceiling (the landed total, rounded up to the next 25)
# when a PR removes code, never raise it to make room.
LOC_CEILING=7475
echo "==> line-count ratchet (scripts/loc.sh total <= $LOC_CEILING)"
loc_table="$(scripts/loc.sh)"
loc_total="$(awk '$2 == "total" { print $1 }' <<<"$loc_table")"
if [ "$loc_total" -gt "$LOC_CEILING" ]; then
  echo "$loc_table" >&2
  echo "non-test line count $loc_total exceeds the ceiling of $LOC_CEILING" >&2
  exit 1
fi

# The same ratchet for the paper side: the crates that implement and
# evaluate the paper, and the examples.
PAPER_LOC_CEILING=8162
echo "==> paper-side line-count ratchet (scripts/loc.sh <paper crates> examples <= $PAPER_LOC_CEILING)"
loc_table="$(scripts/loc.sh crates/adversary/src crates/bench/src crates/corpus/src \
  crates/crypto/src crates/index/src crates/workload/src crates/zerber/src \
  crates/zerber-r/src examples)"
loc_total="$(awk '$2 == "total" { print $1 }' <<<"$loc_table")"
if [ "$loc_total" -gt "$PAPER_LOC_CEILING" ]; then
  echo "$loc_table" >&2
  echo "paper-side non-test line count $loc_total exceeds the ceiling of $PAPER_LOC_CEILING" >&2
  exit 1
fi

echo "verify: OK"
