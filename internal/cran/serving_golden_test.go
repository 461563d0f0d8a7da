package cran

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/annealer"
	"repro/internal/fleet"
	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/telemetry"
)

var updateServingGolden = flag.Bool("update", false, "rewrite testdata/serving.golden")

// servingGoldenRequests lays out 4 cells × 2 UEs × 8 frames, 40 μs
// apart: UE 0 frames carry a deadline far below a QPU programming cycle
// (they route quantum and miss), UE 1 frames carry none (they route
// classical unless they are the 32-spin hard frame every fourth seq).
func servingGoldenRequests(t testing.TB) []Request {
	t.Helper()
	hard, err := instance.Synthesize(instance.Spec{Users: 8, Scheme: modulation.QAM16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	easy := testProblems(t)
	var reqs []Request
	for c := 0; c < 4; c++ {
		for u := 0; u < 2; u++ {
			for q := 0; q < 8; q++ {
				p := easy[(c+u+q)%len(easy)]
				if q%4 == 3 {
					p = hard.Reduction.Ising
				}
				init := make([]int8, p.N)
				for i := range init {
					init[i] = 1
				}
				var deadline float64
				if u == 0 {
					deadline = 300
				}
				reqs = append(reqs, Request{
					Cell: c, UE: u, Seq: q,
					Arrival:      float64(q) * 40,
					Deadline:     deadline,
					Problem:      p,
					InitialState: init,
				})
			}
		}
	}
	return reqs
}

// servingGoldenRun serves the golden workload twice into one registry: a
// fleet.Serve on a hybrid QPU/PT/SA pool, and a 2-shard cran.Serve on
// hybrid shards. Both see programming faults, a device that dies
// mid-run, a stream queue bound of 2 and deadline pressure, so every
// fleet series is populated.
func servingGoldenRun(t testing.TB) (reg *telemetry.Registry, fleetRes *fleet.Result, tierRes *Result) {
	t.Helper()
	reqs := servingGoldenRequests(t)
	reg = telemetry.NewRegistry()

	devs := fleet.HybridDevices(2, 1, 1)
	devs[0].Faults = annealer.FaultModel{ProgrammingFailureRate: 0.5}
	devs[3].Faults = annealer.FaultModel{ProgrammingFailureRate: 0.3}
	devs[2].FailAt = 2_000
	freqs := make([]fleet.Request, len(reqs))
	for i, r := range reqs {
		freqs[i] = toFleetRequest(r)
	}
	fleetRes, err := fleet.Serve(context.Background(), fleet.Config{
		Devices:          devs,
		Route:            fleet.RouteHybrid,
		NumReads:         4,
		BatchMax:         3,
		StreamQueueBound: 2,
		Seed:             5,
		Workers:          2,
		Metrics:          reg,
	}, freqs)
	if err != nil {
		t.Fatal(err)
	}

	shards := [][]fleet.Device{fleet.HybridDevices(1, 1, 0), fleet.HybridDevices(1, 0, 1)}
	shards[0][0].Faults = annealer.FaultModel{ProgrammingFailureRate: 0.5}
	shards[0][1].FailAt = 60
	tierRes, err = Serve(context.Background(), Config{
		Shards: shards,
		Fleet: fleet.Config{
			Route:            fleet.RouteHybrid,
			NumReads:         4,
			BatchMax:         3,
			StreamQueueBound: 2,
			Workers:          2,
		},
		Placement:        PlacementLoadAware,
		AdmitQueueMicros: 400,
		EstReadMicros:    20,
		ShardWorkers:     2,
		Seed:             0x7135,
		Metrics:          reg,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return reg, fleetRes, tierRes
}

// TestServingOutputsGolden pins the metric exposition and the report
// JSON of a fleet and a C-RAN serve against testdata/serving.golden, so
// a change to how a serve's figures are computed or published cannot
// move any of them unnoticed. Regenerate with -update and inspect the
// diff.
func TestServingOutputsGolden(t *testing.T) {
	reg, fleetRes, tierRes := servingGoldenRun(t)
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"fleet_frames_served_total", "fleet_shed_total", "fleet_deadline_misses_total",
		"fleet_stream_deadline_misses_total", "fleet_batches_total", "fleet_batch_faults_total",
		"fleet_retries_total", "fleet_prep_cache_hits_total", "fleet_prep_cache_misses_total",
		"fleet_answers_total", "fleet_device_utilization", "fleet_backend_utilization",
		"fleet_backend_frames_total", "fleet_queue_depth", "fleet_routed_total",
		"fleet_route_fallbacks_total",
	} {
		if !strings.Contains(prom.String(), "\n"+family) && !strings.HasPrefix(prom.String(), family) {
			t.Errorf("exposition has no %s series; the scenario no longer covers it", family)
		}
	}

	var got bytes.Buffer
	got.WriteString("== metrics\n")
	got.Write(prom.Bytes())
	for _, part := range []struct {
		name string
		v    any
	}{
		{"fleet.Report", fleetRes.Report},
		{"cran.Report", tierRes.Report},
		{"cran shard fleet.Reports", tierRes.ShardReports},
	} {
		b, err := json.Marshal(part.v)
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString("== " + part.name + "\n")
		got.Write(b)
		got.WriteString("\n")
	}

	path := filepath.Join("testdata", "serving.golden")
	if *updateServingGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("serving outputs differ from %s at line %d:\n got  %s\n want %s", path, i+1, g, w)
			}
		}
	}
}

// TestMetricsMatchReports requires every exposed fleet counter and gauge
// that restates a report figure to equal it, for the standalone fleet
// serve and for each shard of the tier (whose series carry the shard
// label): served frames, sheds summed over the ladder's rungs, retries,
// batches, per-device utilization, and per-backend frames and
// utilization.
func TestMetricsMatchReports(t *testing.T) {
	reg, fleetRes, tierRes := servingGoldenRun(t)
	reports := map[string]fleet.Report{"": fleetRes.Report}
	for s, rep := range tierRes.ShardReports {
		reports[fmt.Sprint(s)] = rep
	}
	for shard, rep := range reports {
		labels := func(ls ...telemetry.Label) []telemetry.Label {
			if shard != "" {
				ls = append(ls, telemetry.Label{Key: "shard", Value: shard})
			}
			return ls
		}
		counter := func(name string, ls ...telemetry.Label) float64 {
			return reg.Counter(name, labels(ls...)...).Value()
		}
		check := func(what string, got, want float64) {
			t.Helper()
			if got != want {
				t.Errorf("shard %q: %s exposes %v, report %v", shard, what, got, want)
			}
		}
		check("fleet_frames_served_total", counter("fleet_frames_served_total"), float64(rep.Served))
		shed := 0.0
		for _, reason := range []string{fleet.ShedStreamQueueFull, fleet.ShedDeadlineExpired,
			fleet.ShedRetriesExhausted, fleet.ShedDeviceUnavailable, fleet.ShedNoCompatibleBackend} {
			shed += counter("fleet_shed_total", telemetry.Label{Key: "reason", Value: reason})
		}
		check("Σ fleet_shed_total", shed, float64(rep.Shed))
		check("fleet_retries_total", counter("fleet_retries_total"), float64(rep.Retries))
		check("fleet_batches_total", counter("fleet_batches_total"), float64(rep.Batches))
		for _, d := range rep.Devices {
			l := telemetry.Label{Key: "device", Value: fmt.Sprint(d.ID)}
			check("fleet_device_utilization "+l.Value, reg.Gauge("fleet_device_utilization", labels(l)...).Value(), d.Utilization)
		}
		for _, b := range rep.Backends {
			l := telemetry.Label{Key: "backend", Value: b.Backend}
			check("fleet_backend_frames_total "+b.Backend, counter("fleet_backend_frames_total", l), float64(b.Frames))
			check("fleet_backend_utilization "+b.Backend, reg.Gauge("fleet_backend_utilization", labels(l)...).Value(), b.Utilization)
		}
	}
}
