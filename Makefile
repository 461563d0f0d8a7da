# Tier-1 gate: everything `make check` runs must stay green on every
# change (see ROADMAP.md). No external dependencies — Go toolchain only.

GO ?= go

# Per-claim anneal-read budget for the validation gate; CI passes a
# tighter cap than the local default so the leg stays inside its slot.
VALIDATE_MAX_READS ?= 30000

.PHONY: check vet build test race race-fleet race-cran race-ensemble fuzz-smoke slo bench-harness cross fmt validate validate-inject update-golden cover

check: vet build test race race-fleet race-cran race-ensemble fuzz-smoke slo bench-harness cross

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The fleet scheduler's determinism and stress suites are the lock on the
# multi-QPU serving path; run them race-enabled and uncached every time.
race-fleet:
	$(GO) test -race -count=1 ./internal/fleet/

# Same lock one level up: the C-RAN tier's cross-shard failover, shared
# telemetry merge, and determinism battery under the race detector, plus
# the cross-surface battery, which drives multi-worker fleet and C-RAN
# execute phases with a live SLO monitor attached as a trace sink.
race-cran:
	$(GO) test -race -count=1 ./internal/cran/
	$(GO) test -race -count=1 -run TestCrossSurfaceAgreement ./internal/slo/

# Flexible-parallelism ensemble lock: the K×G arm planner and grouped
# batching, multi-initial-state prepared runs, fusion purity, and the
# ensemble determinism battery — all under the race detector.
race-ensemble:
	$(GO) test -race -count=1 -run 'Ensemble|FuseLLR|RunPreparedMulti|TopKCandidates|PlanArms|SpGrid' \
		./internal/core/ ./internal/mimo/ ./internal/annealer/ ./internal/fleet/

# Run every fuzz target's seed corpus (no open-ended fuzzing): catches
# regressions on the known-interesting inputs in CI time.
fuzz-smoke:
	$(GO) test -run 'Fuzz' ./internal/...

# SLO monitoring gate: the uncached monitor/alerting/health suite (this
# battery pins the no-perturbation and live==offline determinism
# contracts), a slotool smoke run over the committed trace fixture, and
# one iteration of the analysis benchmark so it cannot bitrot.
slo:
	$(GO) test -count=1 ./internal/slo/
	$(GO) run ./cmd/slotool -trace internal/slo/testdata/trace_small.jsonl -quiet > /dev/null
	$(GO) test -run '^$$' -bench BenchmarkAnalyze -benchtime=1x ./internal/slo/

# The benchmark harness is its own module, so the root `go test ./...`
# never builds it; vet and test it here so an API change that breaks the
# benchmark fails the gate.
bench-harness:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Off amd64 the SVMC lockstep kernel is the pure-Go staged path
# (svmc_simd_generic.go): build and vet it for arm64 so a change to the
# kernel cannot break the only SVMC kernel those hosts run.
cross:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/annealer/

fmt:
	gofmt -l .

# Statistical gate: every paper claim must clear its bootstrap-CI gate
# and every figure metric must stay inside its golden baseline. Exits
# non-zero on any failed/inconclusive claim or drifted metric; the drift
# report lands in drift-report.json for artifact upload.
validate:
	$(GO) run ./cmd/experiments -validate -check-golden \
		-validate-max-reads $(VALIDATE_MAX_READS) -drift-report drift-report.json

# Harness self-test: each injected regression must fail the claim gate
# end to end. The build runs first so a compile error cannot pass for a
# failing gate.
VALIDATE_INJECTIONS = ra-degraded reads-slashed fleet-serial cran-single-shard hybrid-routing-off ensemble-collapsed

validate-inject:
	$(GO) build -o /dev/null ./cmd/experiments
	@for m in $(VALIDATE_INJECTIONS); do \
		if $(GO) run ./cmd/experiments -validate -quiet -validate-inject $$m > /dev/null 2>&1; then \
			echo "validate-inject: $$m passed the claim gate, want a failure"; exit 1; \
		fi; \
		echo "validate-inject: $$m fails the claim gate"; \
	done

# Explicit re-baselining after an intentional model change — review the
# results/golden/ diff before committing.
update-golden:
	$(GO) run ./cmd/experiments -update-golden

# Ratcheted per-package coverage floors (see scripts/check_coverage.sh).
cover:
	./scripts/check_coverage.sh
