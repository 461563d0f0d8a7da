#!/usr/bin/env sh
# benchdiff.sh — compare fresh BENCH_*.json records against the committed
# baselines in results/bench/ and print per-benchmark ns/op deltas.
#
# Usage:
#   scripts/benchdiff.sh                 # record into a temporary dir, diff, remove it
#   scripts/benchdiff.sh -record DIR     # record into DIR (kept), then diff
#   scripts/benchdiff.sh FRESH_DIR       # diff already-recorded FRESH_DIR
#
# Recording runs every benchmark in the list below once (-benchtime=1x):
# the BENCH_*.json records land in the directory and the raw
# `go test -bench` output in its bench.txt. This is the only bench run
# list; CI calls `-record`.
#
# The timing report is informational: shared CI runners are too noisy
# to gate on wall time, so deltas never fail the script unless
# BENCHDIFF_GATE_PCT is set, in which case any benchmark slower than
# the committed record by more than that percentage fails it (for
# quiet, dedicated hosts). A committed record that the fresh run did
# not produce at all is a stale baseline and always fails.
set -eu

# record DIR runs the bench list into DIR, which must be an absolute
# path: each package's benchmarks run in that package's directory.
# 'BenchmarkSVMCSweep' is unanchored: it also runs BenchmarkSVMCSweepReverse.
record() {
    echo "recording fresh benchmarks into $1 ..."
    : > "$1/bench.txt"
    while read -r pkg pattern; do
        BENCH_JSON_DIR="$1" go test -run '^$' -bench "$pattern" -benchtime=1x -benchmem "$pkg" >> "$1/bench.txt"
    done <<LIST
./internal/annealer/ BenchmarkSVMCSweep|BenchmarkPIMCSweep|BenchmarkSAGroup|BenchmarkPTGroup|BenchmarkRun|BenchmarkLease
./internal/core/ BenchmarkTopKCandidates
./internal/fleet/ BenchmarkFleetServe|BenchmarkEnsembleDetect
./internal/cran/ BenchmarkCRANServe
./internal/slo/ BenchmarkAnalyze|BenchmarkWriteJSONL
LIST
}

if [ $# -ge 2 ] && [ "$1" = -record ]; then
    mkdir -p "$2"
    FRESH_DIR=$(cd "$2" && pwd)
    cd "$(dirname "$0")/.."
    record "$FRESH_DIR"
elif [ $# -ge 1 ]; then
    FRESH_DIR=$(cd "$1" && pwd)
    cd "$(dirname "$0")/.."
else
    cd "$(dirname "$0")/.."
    FRESH_DIR=$(mktemp -d)
    trap 'rm -rf "$FRESH_DIR"' EXIT
    record "$FRESH_DIR"
fi
BASE_DIR=results/bench

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
        # in record) — that's a stale baseline, not timing noise, so it
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
