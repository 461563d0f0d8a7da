#!/usr/bin/env bash
# Ratcheted per-package coverage floors. CI fails when any internal
# package drops below its floor; when a package's coverage rises, raise
# its floor here (never lower one without a review note in the PR).
#
# Floors are set ~2 points under the measured coverage at the time of
# the last ratchet so that small refactors don't flake the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

floors='
repro/internal/annealer 94
repro/internal/channel 87
repro/internal/chimera 92
repro/internal/cli 56
repro/internal/coding 93
repro/internal/core 88
repro/internal/cran 95
repro/internal/experiments 84
repro/internal/fleet 94
repro/internal/instance 91
repro/internal/linalg 91
repro/internal/metrics 94
repro/internal/metropolis 98
repro/internal/mimo 93
repro/internal/modulation 94
repro/internal/qaoa 95
repro/internal/qubo 93
repro/internal/rng 91
repro/internal/slo 87
repro/internal/telemetry 94
repro/internal/validate 55
'

out=$(go test -cover ./internal/...)
echo "$out"

fail=0
while read -r pkg floor; do
  [ -z "$pkg" ] && continue
  pct=$(echo "$out" | awk -v p="$pkg" '$1=="ok" && $2==p {
    for (i = 1; i <= NF; i++) if ($i ~ /%$/) { gsub(/%/, "", $i); print $i }
  }')
  if [ -z "$pct" ]; then
    echo "coverage: no result for $pkg (package removed? update floors)" >&2
    fail=1
    continue
  fi
  if awk -v got="$pct" -v want="$floor" 'BEGIN { exit !(got < want) }'; then
    echo "coverage: $pkg at ${pct}% is below its ${floor}% floor" >&2
    fail=1
  fi
done <<<"$floors"

if [ "$fail" -ne 0 ]; then
  echo "coverage ratchet failed" >&2
  exit 1
fi
echo "coverage ratchet ok"
