#!/usr/bin/env sh
# benchdiff.sh — compare fresh BENCH_*.json records against the committed
# baselines in results/bench/ and print per-benchmark ns/op deltas.
#
# Usage:
#   scripts/benchdiff.sh             # run the bench suite, then diff
#   scripts/benchdiff.sh FRESH_DIR   # diff already-recorded FRESH_DIR
#
# The timing report is informational: shared CI runners are too noisy
# to gate on wall time, so deltas never fail the script unless
# BENCHDIFF_GATE_PCT is set, in which case any benchmark slower than
# the committed record by more than that percentage fails it (for
# quiet, dedicated hosts). A committed record that the fresh run did
# not produce at all is a stale baseline and always fails.
set -eu

cd "$(dirname "$0")/.."
BASE_DIR=results/bench

if [ $# -ge 1 ]; then
    FRESH_DIR=$1
else
    FRESH_DIR=$(mktemp -d)
    trap 'rm -rf "$FRESH_DIR"' EXIT
    echo "recording fresh benchmarks into $FRESH_DIR ..."
    BENCH_JSON_DIR="$FRESH_DIR" go test -run '^$' \
        -bench 'BenchmarkSVMCSweep|BenchmarkPIMCSweep|BenchmarkSAGroup|BenchmarkPTGroup|BenchmarkRun$|BenchmarkRunMulti|BenchmarkLeasePreparedHit|BenchmarkLeaseServe16QAM' \
        -benchtime=1x ./internal/annealer/ >/dev/null
    BENCH_JSON_DIR="$FRESH_DIR" go test -run '^$' \
        -bench 'BenchmarkTopKCandidates' -benchtime=1x ./internal/core/ >/dev/null
    BENCH_JSON_DIR="$FRESH_DIR" go test -run '^$' \
        -bench 'BenchmarkFleetServe|BenchmarkEnsembleDetect' -benchtime=1x ./internal/fleet/ >/dev/null
    BENCH_JSON_DIR="$FRESH_DIR" go test -run '^$' \
        -bench 'BenchmarkCRANServe' -benchtime=1x ./internal/cran/ >/dev/null
    BENCH_JSON_DIR="$FRESH_DIR" go test -run '^$' \
        -bench 'BenchmarkWriteJSONL' -benchtime=1x ./internal/slo/ >/dev/null
fi

# ns_per_op lives on its own line in records written by
# telemetry.WriteBenchJSON; take the first match.
ns_per_op() {
    sed -n 's/.*"ns_per_op": *\([0-9.eE+-]*\).*/\1/p' "$1" | head -n 1
}

fail=0
printf '%-36s %15s %15s %9s\n' benchmark committed fresh delta
for base in "$BASE_DIR"/BENCH_*.json; do
    name=$(basename "$base")
    fresh="$FRESH_DIR/$name"
    if [ ! -f "$fresh" ]; then
        # A committed record with no fresh counterpart means the
        # benchmark was renamed or dropped (or fell out of the run list
        # above) — that's a stale baseline, not timing noise, so it
        # fails even without BENCHDIFF_GATE_PCT.
        printf '%-36s %15s %15s %9s\n' "${name#BENCH_}" "$(ns_per_op "$base")" - MISSING
        fail=1
        continue
    fi
    old=$(ns_per_op "$base")
    new=$(ns_per_op "$fresh")
    printf '%-36s %15.0f %15.0f %8.1f%%\n' "${name#BENCH_}" "$old" "$new" \
        "$(awk "BEGIN { print ($new - $old) / $old * 100 }")"
    if [ -n "${BENCHDIFF_GATE_PCT:-}" ]; then
        if awk "BEGIN { exit !(($new - $old) / $old * 100 > $BENCHDIFF_GATE_PCT) }"; then
            echo "  ^ regression beyond ${BENCHDIFF_GATE_PCT}% gate"
            fail=1
        fi
    fi
done
for fresh in "$FRESH_DIR"/BENCH_*.json; do
    [ -f "$fresh" ] || continue
    name=$(basename "$fresh")
    if [ ! -f "$BASE_DIR/$name" ]; then
        printf '%-36s %15s %15.0f %9s\n' "${name#BENCH_}" - "$(ns_per_op "$fresh")" new
    fi
done
exit $fail
