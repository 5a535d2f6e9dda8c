#!/usr/bin/env bash
# Regenerate the checked-in baselines: the golden result digests and the
# engine performance baseline.
#
# testdata/golden.json pins the simulator's output (result JSON and every
# export format) at fixed seeds; TestGolden fails on any drift. A change
# that alters behaviour on purpose regenerates the digests here, so the
# new digests land in the same diff as the change.
#
# CI's perf-smoke job benchmarks table1 + rack1 at -scale 4 and
# compares the result against ci/engine-baseline.json at a generous
# threshold (different hardware). When the scenario set changes — a new
# experiment, a renamed scenario, an intentional engine cost change —
# re-record the baseline with this script, on an otherwise idle
# machine, and commit the result. The exact es2bench invocation here
# mirrors the CI job, so a freshly recorded baseline always matches the
# scenarios CI measures.
#
# Usage: ci/update-baselines.sh [reps]   (default 5, CI's rep count)
set -euo pipefail
cd "$(dirname "$0")/.."

reps="${1:-5}"
out="ci/engine-baseline.json"

echo "regenerating golden digests: testdata/golden.json" >&2
go test -run TestGolden -update .

echo "recording engine baseline: table1 + rack1, scale 4, ${reps} reps" >&2
go run ./cmd/es2bench -perf -reps "$reps" -exp table1,rack1 -scale 4 \
  -progress -json "$out"

echo "wrote testdata/golden.json and $out — review the deltas, then commit:" >&2
echo "  go run ./cmd/es2bench -compare $out $out   # sanity: zero deltas" >&2
