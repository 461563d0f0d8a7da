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

// determinismScenario is a moderately busy mixed fleet: a logical device,
// an embedded QPU device (chain dynamics on), and a noisy device, serving
// 4 streams of 5 frames with retries and deadline pressure in play.
func determinismScenario(t testing.TB, faults bool) (Config, []Request) {
	t.Helper()
	prof := annealer.CalibratedProfile()
	qpu := annealer.NewQPU2000Q()
	qpu.Chains = true
	devs := []Device{
		{SweepsPerMicrosecond: 30},
		{QPU: qpu, Profile: &prof, SweepsPerMicrosecond: 30},
		{SweepsPerMicrosecond: 30, ICE: annealer.DWave2000QICE()},
	}
	if faults {
		devs[0].Faults = annealer.FaultModel{ProgrammingFailureRate: 0.4}
		devs[2].Faults = annealer.FaultModel{ReadTimeoutRate: 0.2, ChainBreakStormRate: 0.1, CalibrationDriftRate: 0.1}
	}
	cfg := Config{
		Devices:  devs,
		NumReads: 6,
		BatchMax: 3,
		Seed:     0xF1EE7,
	}
	reqs := uniformRequests(t, 4, 5, 200, 40_000)
	return cfg, reqs
}

// serveArtifacts runs the scenario and returns the two export surfaces
// the determinism contract covers: marshaled outcomes and trace JSONL.
func serveArtifacts(t testing.TB, workers int, faults bool) (outcomes, trace []byte) {
	t.Helper()
	cfg, reqs := determinismScenario(t, faults)
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

// TestFleetDeterminism is the gating regression for the determinism
// contract: outcomes and exported traces must be bit-identical for worker
// counts 1, 4, and 16, and across repeated runs, with faults off and on.
func TestFleetDeterminism(t *testing.T) {
	for _, faults := range []bool{false, true} {
		name := "faults-off"
		if faults {
			name = "faults-on"
		}
		t.Run(name, func(t *testing.T) {
			refOut, refTrace := serveArtifacts(t, 1, faults)
			if len(refTrace) == 0 {
				t.Fatal("trace export is empty")
			}
			for _, workers := range []int{1, 4, 16} {
				out, trace := serveArtifacts(t, workers, faults)
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

// TestFleetDeterminismSeedSensitivity guards against the opposite failure:
// a scheduler that ignores its seed would pass the identity checks above
// while serving canned results.
func TestFleetDeterminismSeedSensitivity(t *testing.T) {
	cfg, reqs := determinismScenario(t, true)
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
