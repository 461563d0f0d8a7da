package cran

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/annealer"
	"repro/internal/fleet"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

// determinismScenario is a busy 3-shard tier over mixed device pools —
// logical, embedded-QPU (chain dynamics on), and noisy devices — with one
// shard dying mid-run (failover in play) and backpressure enabled,
// serving a generated city workload with bursty diurnal arrivals.
func determinismScenario(t testing.TB, faults bool) (Config, []Request) {
	t.Helper()
	prof := annealer.CalibratedProfile()
	qpu := annealer.NewQPU2000Q()
	qpu.Chains = true
	shards := [][]fleet.Device{
		{
			{SweepsPerMicrosecond: 30},
			{QPU: qpu, Profile: &prof, SweepsPerMicrosecond: 30},
		},
		{
			{SweepsPerMicrosecond: 30, FailAt: 20_000},
			{SweepsPerMicrosecond: 30, ICE: annealer.DWave2000QICE(), FailAt: 25_000},
		},
		{
			{SweepsPerMicrosecond: 30},
			{SweepsPerMicrosecond: 30},
		},
	}
	if faults {
		shards[0][0].Faults = annealer.FaultModel{ProgrammingFailureRate: 0.4}
		shards[2][1].Faults = annealer.FaultModel{ReadTimeoutRate: 0.2, ChainBreakStormRate: 0.1, CalibrationDriftRate: 0.1}
	}
	cfg := Config{
		Shards:           shards,
		Fleet:            fleet.Config{NumReads: 6, BatchMax: 3},
		AdmitQueueMicros: 30_000,
		EstReadMicros:    50,
		Seed:             0xC4A17,
	}
	return cfg, determinismWorkload(t)
}

var (
	detWorkloadOnce sync.Once
	detWorkload     []Request
)

// determinismWorkload generates the shared city workload once: 10 cells
// × 2 UEs of bursty diurnal traffic over 50 simulated ms.
func determinismWorkload(t testing.TB) []Request {
	t.Helper()
	detWorkloadOnce.Do(func() {
		var err error
		detWorkload, err = Workload{
			Cells: 10, UEsPerCell: 2,
			DurationMicros:  50_000,
			FramesPerSecond: 1_000,
			Diurnal:         DefaultDiurnal(),
			BurstProb:       0.3, BurstFactor: 3,
			NumReads:       6,
			DeadlineMicros: 40_000,
			Seed:           99,
		}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if len(detWorkload) < 20 {
			t.Fatalf("determinism workload too small: %d frames", len(detWorkload))
		}
	})
	return detWorkload
}

// tierArtifacts serves the scenario and returns the export surfaces the
// determinism contract covers: marshaled outcomes, placement history,
// and trace JSONL.
func tierArtifacts(t testing.TB, workers, shardWorkers int, perm []int, faults bool) (outcomes, placements, trace []byte) {
	t.Helper()
	cfg, reqs := determinismScenario(t, faults)
	cfg.Fleet.Workers = workers
	cfg.ShardWorkers = shardWorkers
	cfg.execPerm = perm
	cfg.Trace = telemetry.NewTracer()
	res, err := Serve(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := json.Marshal(res.Placements)
	if err != nil {
		t.Fatal(err)
	}
	telemetrytest.CheckTrace(t, cfg.Trace)
	var buf bytes.Buffer
	if err := cfg.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return out, pl, buf.Bytes()
}

// TestCRANDeterminism is the gating regression for the tier's
// determinism contract: outcomes, placement history, and the merged
// trace export must be bit-identical across per-shard worker counts
// 1/4/16, shard concurrency, and any shard execution order, with faults
// off and on.
func TestCRANDeterminism(t *testing.T) {
	for _, faults := range []bool{false, true} {
		name := "faults-off"
		if faults {
			name = "faults-on"
		}
		t.Run(name, func(t *testing.T) {
			refOut, refPl, refTrace := tierArtifacts(t, 1, 1, nil, faults)
			if len(refTrace) == 0 {
				t.Fatal("trace export is empty")
			}
			cases := []struct {
				label        string
				workers      int
				shardWorkers int
				perm         []int
			}{
				{"workers=4", 4, 1, nil},
				{"workers=16", 16, 1, nil},
				{"shard-workers=3", 1, 3, nil},
				{"perm-reversed", 4, 3, []int{2, 1, 0}},
				{"perm-rotated", 16, 2, []int{1, 2, 0}},
			}
			for _, tc := range cases {
				out, pl, trace := tierArtifacts(t, tc.workers, tc.shardWorkers, tc.perm, faults)
				if !bytes.Equal(out, refOut) {
					t.Fatalf("outcomes diverge at %s", tc.label)
				}
				if !bytes.Equal(pl, refPl) {
					t.Fatalf("placement history diverges at %s", tc.label)
				}
				if !bytes.Equal(trace, refTrace) {
					t.Fatalf("trace export diverges at %s", tc.label)
				}
			}
		})
	}
}

// TestCRANSeedSensitivity guards the opposite failure: a router that
// ignores its seed would pass the identity checks while serving canned
// results.
func TestCRANSeedSensitivity(t *testing.T) {
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

// TestWorkloadGenerateDeterminism pins the generator half of the
// contract: equal specs produce bit-identical request sets.
func TestWorkloadGenerateDeterminism(t *testing.T) {
	spec := Workload{
		Cells: 6, UEsPerCell: 3,
		DurationMicros:  20_000,
		FramesPerSecond: 500,
		Diurnal:         DefaultDiurnal(),
		BurstProb:       0.5, BurstFactor: 2,
		Seed: 4242,
	}
	a, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("reruns sized %d and %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Cell != y.Cell || x.UE != y.UE || x.Seq != y.Seq || x.Arrival != y.Arrival ||
			x.Problem.N != y.Problem.N || x.Problem.Energy(x.InitialState) != y.Problem.Energy(y.InitialState) {
			t.Fatalf("frame %d diverges: %+v vs %+v", i, x, y)
		}
	}
}
