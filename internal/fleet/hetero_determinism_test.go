package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/annealer"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

// heteroScenario mirrors determinismScenario for a mixed-backend pool
// under hybrid routing: two QPUs (one embedded with chain dynamics on,
// one noisy), a parallel-tempering worker that dies mid-run, a
// simulated-annealing worker, and a QAOA worker, serving the mixed
// easy/hard workload with deadline pressure and retries in play.
func heteroScenario(t testing.TB, faults bool) (Config, []Request) {
	t.Helper()
	prof := annealer.CalibratedProfile()
	qpu := annealer.NewQPU2000Q()
	qpu.Chains = true
	devs := []Device{
		{QPU: qpu, Profile: &prof, SweepsPerMicrosecond: 30},
		{SweepsPerMicrosecond: 30, ICE: annealer.DWave2000QICE()},
		{Backend: BackendParallelTempering, FailAt: 60_000},
		{Backend: BackendSimulatedAnnealing},
		{Backend: BackendQAOA},
	}
	if faults {
		devs[0].Faults = annealer.FaultModel{ProgrammingFailureRate: 0.4}
		devs[1].Faults = annealer.FaultModel{ReadTimeoutRate: 0.2, ChainBreakStormRate: 0.1, CalibrationDriftRate: 0.1}
		devs[3].Faults = annealer.FaultModel{ProgrammingFailureRate: 0.3}
	}
	cfg := Config{
		Devices:  devs,
		Route:    RouteHybrid,
		NumReads: 6,
		BatchMax: 3,
		Seed:     0xBACC9,
	}
	reqs := mixedWorkload(t, 4, 4)
	return cfg, reqs
}

// heteroArtifacts runs the heterogeneous scenario and returns the export
// surfaces covered by the determinism contract: marshaled outcomes and
// trace JSONL bytes.
func heteroArtifacts(t testing.TB, workers int, faults bool) (outcomes, trace []byte) {
	t.Helper()
	cfg, reqs := heteroScenario(t, faults)
	cfg.Workers = workers
	cfg.Trace = telemetry.NewTracer()
	res, err := Serve(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	telemetrytest.CheckTrace(t, cfg.Trace)
	var buf bytes.Buffer
	if err := cfg.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return out, buf.Bytes()
}

// TestHeteroFleetDeterminism extends the determinism gate to mixed
// backends with hybrid routing: outcomes and exported traces must be
// bit-identical for worker counts 1, 4, and 16, faults off and on, with a
// classical backend dying mid-run.
func TestHeteroFleetDeterminism(t *testing.T) {
	for _, faults := range []bool{false, true} {
		name := "faults-off"
		if faults {
			name = "faults-on"
		}
		t.Run(name, func(t *testing.T) {
			refOut, refTrace := heteroArtifacts(t, 1, faults)
			if len(refTrace) == 0 {
				t.Fatal("trace export is empty")
			}
			if !bytes.Contains(refOut, []byte(`"backend":"parallel-tempering"`)) &&
				!bytes.Contains(refOut, []byte(`"backend":"simulated-annealing"`)) {
				t.Fatal("no classical backend served a frame — the scenario is not heterogeneous")
			}
			for _, workers := range []int{1, 4, 16} {
				out, trace := heteroArtifacts(t, workers, faults)
				if !bytes.Equal(out, refOut) {
					t.Fatalf("outcomes diverge at %d workers", workers)
				}
				if !bytes.Equal(trace, refTrace) {
					t.Fatalf("trace export diverges at %d workers", workers)
				}
			}
		})
	}
}

// TestHeteroDeterminismSeedSensitivity guards the other direction: the
// heterogeneous pipeline must still be seed-driven, not canned.
func TestHeteroDeterminismSeedSensitivity(t *testing.T) {
	cfg, reqs := heteroScenario(t, true)
	a, err := Serve(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	b, err := Serve(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.Outcomes)
	jb, _ := json.Marshal(b.Outcomes)
	if bytes.Equal(ja, jb) {
		t.Fatal("outcomes identical across different seeds")
	}
}
