package fleet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/annealer"
	"repro/internal/telemetry"
)

// TestHybridStressRace hammers the heterogeneous scheduler under the race
// detector: two concurrent mixed-backend Serves with hybrid routing
// sharing one tracer and registry, programming faults on both classes,
// and a classical backend dying mid-flight.
func TestHybridStressRace(t *testing.T) {
	devs := HybridDevices(2, 2, 2)
	devs[0].Faults = annealer.FaultModel{ProgrammingFailureRate: 0.3}
	devs[1].Faults = annealer.FaultModel{ReadTimeoutRate: 0.3, ChainBreakStormRate: 0.2}
	devs[2].FailAt = 20_000 // PT worker dies mid-run
	devs[4].Faults = annealer.FaultModel{ProgrammingFailureRate: 0.3}
	devs = append(devs, Device{Backend: BackendQAOA})

	tracer := telemetry.NewTracer()
	registry := telemetry.NewRegistry()
	var wg sync.WaitGroup
	for run := 0; run < 2; run++ {
		wg.Add(1)
		go func(run int) {
			defer wg.Done()
			cfg := Config{
				Devices:          devs,
				Policy:           PolicyEDF,
				Route:            RouteHybrid,
				NumReads:         4,
				BatchMax:         3,
				StreamQueueBound: 4,
				Workers:          8,
				Seed:             uint64(run + 1),
				Trace:            tracer,
				Metrics:          registry,
			}
			reqs := mixedWorkload(t, 6, 6)
			res, err := Serve(context.Background(), cfg, reqs)
			if err != nil {
				t.Errorf("run %d: %v", run, err)
				return
			}
			if len(res.Outcomes) != len(reqs) {
				t.Errorf("run %d: %d outcomes for %d requests", run, len(res.Outcomes), len(reqs))
			}
			checkInvariants(t, reqs, res)
		}(run)
	}
	wg.Wait()
	if tracer.Len() == 0 {
		t.Fatal("shared tracer collected nothing")
	}
}

// TestHybridServeCancellation covers cancellation on heterogeneous pools:
// pre-cancelled and mid-flight while classical solver batches run.
func TestHybridServeCancellation(t *testing.T) {
	cfg := Config{Devices: heteroDevices(), Route: RouteHybrid, NumReads: 4, Seed: 1}
	reqs := mixedWorkload(t, 3, 4)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Serve(ctx, cfg, reqs); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Serve returned %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	// Either the run slips in before the cancel or it reports the
	// cancellation — both are correct; racing must never corrupt.
	big := Config{Devices: HybridDevices(1, 1, 1), Route: RouteHybrid, NumReads: 200, Workers: 2, Seed: 1}
	if _, err := Serve(ctx, big, mixedWorkload(t, 4, 6)); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel returned %v", err)
	}
	cancel()
}
