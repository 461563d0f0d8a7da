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

// TestFleetStressRace hammers the scheduler under the race detector:
// many streams, mixed devices failing mid-flight, programming and read
// faults, deadline pressure, and two Serve calls running concurrently
// against a SHARED tracer and registry (the telemetry layer's concurrency
// contract is part of the surface under test).
func TestFleetStressRace(t *testing.T) {
	devs := logicalDevices(6)
	devs[1].Faults = annealer.FaultModel{ProgrammingFailureRate: 0.3}
	devs[2].Faults = annealer.FaultModel{ReadTimeoutRate: 0.3, ChainBreakStormRate: 0.2}
	devs[3].FailAt = 3_000 // dies mid-run
	devs[4].ICE = annealer.DWave2000QICE()
	devs[5].FailAt = 50

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
				NumReads:         4,
				BatchMax:         3,
				StreamQueueBound: 3,
				Workers:          8,
				Seed:             uint64(run + 1),
				Trace:            tracer,
				Metrics:          registry,
			}
			reqs := uniformRequests(t, 8, 20, 30, 5_000)
			res, err := Serve(context.Background(), cfg, reqs)
			if err != nil {
				t.Errorf("run %d: %v", run, err)
				return
			}
			if len(res.Outcomes) != len(reqs) {
				t.Errorf("run %d: %d outcomes for %d requests", run, len(res.Outcomes), len(reqs))
			}
		}(run)
	}
	wg.Wait()
	if tracer.Len() == 0 {
		t.Fatal("shared tracer collected nothing")
	}
}

// TestServeCancellation covers both cancellation surfaces: a context
// cancelled before Serve, and one cancelled while batches are in flight.
func TestServeCancellation(t *testing.T) {
	cfg := Config{Devices: logicalDevices(2), NumReads: 4, Seed: 1}
	reqs := uniformRequests(t, 4, 8, 10, 0)

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
	big := Config{Devices: logicalDevices(1), NumReads: 400, Workers: 2, Seed: 1}
	if _, err := Serve(ctx, big, uniformRequests(t, 6, 10, 0, 0)); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel returned %v", err)
	}
	cancel()
}
