#!/usr/bin/env bash
# Runs the network-facing test suites N times each and prints every suite's
# failure rate, so a timing-dependent test shows up as a number instead of
# an occasional red run.
#
# Usage:
#   scripts/flake.sh 20          # 20 runs of each suite
#
# Exits non-zero when any run of any suite failed.  A failed run's output
# is kept as target/flake/<suite>-<run>.log.
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:-}"
if ! [[ "$runs" =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: scripts/flake.sh N   (N >= 1 runs per suite)" >&2
  exit 2
fi

suites=(
  node_protocol
  node_workflow
  replication_props
  pipeline_props
)

mkdir -p target/flake
# Build once up front so the loop times only the tests.
cargo test -q -p tibpre-tests --no-run "${suites[@]/#/--test=}"

total_failed=0
for suite in "${suites[@]}"; do
  failed=0
  for run in $(seq 1 "$runs"); do
    log="target/flake/${suite}-${run}.log"
    if cargo test -q -p tibpre-tests --test "$suite" >"$log" 2>&1; then
      rm -f "$log"
    else
      failed=$((failed + 1))
    fi
  done
  total_failed=$((total_failed + failed))
  echo "$suite: $failed/$runs failed ($((100 * failed / runs))%)"
done

[[ $total_failed -eq 0 ]]
