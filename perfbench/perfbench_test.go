package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/qubo"
)

func TestNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{0, 0.5, 0},       // no samples
		{1, 0.99, 1},      // one sample is every percentile
		{4, 0, 1},         // rank clamps up to 1
		{4, 1, 4},         // p = 1 is the maximum
		{4, 0.5, 2},       // ⌈2⌉: no rounding up from an exact rank
		{5, 0.5, 3},       // ⌈2.5⌉
		{60, 0.99, 60},    // ⌈59.4⌉, where round-half-up picks 59
		{100, 0.07, 7},    // 0.07·100 = 7.000000000000001 in float64
		{100, 0.99, 99},   // exact rank
		{1000, 0.99, 990}, // ten samples beyond
		{1001, 0.99, 991}, // ⌈990.99⌉
	} {
		if got := nearestRank(seq(c.n), c.p); got != c.want {
			t.Errorf("nearestRank(1..%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 10, 2, 8, 4, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{4, 1, 2}), 3.0/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("one value: spread = %g, want 0", got)
	}
}

func TestInvalidAnswerCatchesPlantedErrors(t *testing.T) {
	is := qubo.NewIsing(3)
	is.H[0], is.H[1] = 1, -0.5
	is.AddCoupling(0, 2, 0.75)
	good := []int8{-1, 1, 1}
	cand := []int8{1, 1, 1}
	ok := frameOutcome{best: qubo.Sample{Spins: good, Energy: is.Energy(good)}, candEnergy: is.Energy(cand)}
	if why := invalidAnswer(ok, is); why != "" {
		t.Fatalf("valid answer rejected: %s", why)
	}
	for name, f := range map[string]frameOutcome{
		"wrong length":     {best: qubo.Sample{Spins: good[:2], Energy: ok.best.Energy}, candEnergy: ok.candEnergy},
		"not a spin":       {best: qubo.Sample{Spins: []int8{-1, 0, 1}, Energy: ok.best.Energy}, candEnergy: ok.candEnergy},
		"energy mismatch":  {best: qubo.Sample{Spins: good, Energy: ok.best.Energy - 0.5}, candEnergy: ok.candEnergy},
		"worse than cand.": {best: qubo.Sample{Spins: good, Energy: ok.best.Energy}, candEnergy: ok.best.Energy - 1},
	} {
		if invalidAnswer(f, is) == "" {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestGateFlagsEveryCheck(t *testing.T) {
	is := qubo.NewIsing(1)
	is.H[0] = 1
	frame := frameOutcome{best: qubo.Sample{Spins: []int8{-1}, Energy: -1}, candEnergy: 1}
	out := &passOut{frames: []frameOutcome{frame, frame}, problems: []*qubo.Ising{is, is}, dashboardServed: 2}
	rec := &record{Passes: []passStat{{Digest: "a"}, {Digest: "a"}}}
	if failed := gate(rec, out, true); failed != 0 || !rec.Correct {
		t.Fatalf("clean pass: failed %d, problems %v", failed, rec.Problems)
	}
	rec = &record{Passes: []passStat{{Digest: "a"}}}
	if gate(rec, out, false); rec.Correct {
		t.Error("2 served frames passed the full-size 1000-frame floor")
	}
	bad := &passOut{frames: []frameOutcome{frame, {best: qubo.Sample{Spins: []int8{1}, Energy: 1}, candEnergy: 1, shed: true}},
		problems: []*qubo.Ising{is, is}, dashboardServed: 2}
	rec = &record{Passes: []passStat{{Digest: "a"}, {Digest: "b"}}}
	gate(rec, bad, true)
	if rec.Correct || len(rec.Problems) != 2 {
		t.Errorf("digest and dashboard mismatches: correct %v, problems %v", rec.Correct, rec.Problems)
	}
	bad.frames[1].best.Energy = 0.5
	rec = &record{Passes: []passStat{{Digest: "a"}}}
	if failed := gate(rec, bad, true); failed != 1 || rec.Correct {
		t.Errorf("energy mismatch: failed %d, correct %v", failed, rec.Correct)
	}
}

func rec(wl string, seed uint64, host fingerprint, metrics map[string]float64) record {
	r := record{Workload: wl, Seed: seed, Host: host, Metrics: map[string]metricValue{}}
	for k, v := range metrics {
		r.Metrics[k] = metricValue{Value: v}
	}
	return r
}

func verdicts(t *testing.T, a, b []record, bounds map[string]bound) map[string]string {
	t.Helper()
	rows, err := compareRecords(a, b, bounds)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, r := range rows {
		out[r.metric] = r.verdict
	}
	return out
}

func TestCompareDirectionsAndBounds(t *testing.T) {
	h := fingerprint{CPUModel: "x", NProc: 2}
	bounds := map[string]bound{"host_fps": {Bound: 0.1}, "cpu_ms_per_frame": {Bound: 0.1}, "allocs_per_frame": {Bound: 0.05}}
	var a, b []record
	for s := uint64(1); s <= 4; s++ {
		a = append(a, rec("w", s, h, map[string]float64{"host_fps": 100, "cpu_ms_per_frame": 10, "allocs_per_frame": 100, "sim_fps": 50, "shed_rate": 0.01}))
		b = append(b, rec("w", s, h, map[string]float64{
			"host_fps":         80,  // higher is better: 20% lower is worse
			"cpu_ms_per_frame": 8,   // lower is better: 20% lower is better
			"allocs_per_frame": 104, // 4% worse, inside the 5% bound
			"sim_fps":          50,  // exact and identical
			"shed_rate":        0.02,
		}))
	}
	v := verdicts(t, a, b, bounds)
	for metric, want := range map[string]string{
		"host_fps": worse, "cpu_ms_per_frame": better, "allocs_per_frame": same,
		"sim_fps": same, "shed_rate": worse, "setup_s": unresolved,
	} {
		if v[metric] != want {
			t.Errorf("%s: verdict %q, want %q", metric, v[metric], want)
		}
	}
}

func TestCompareUnresolvedAndExact(t *testing.T) {
	h := fingerprint{CPUModel: "x"}
	bounds := map[string]bound{"host_fps": {Bound: 0.1}}
	noisy := []float64{70, 100, 130, 160}
	var a, b, c []record
	for i, v := range noisy {
		a = append(a, rec("w", uint64(i), h, map[string]float64{"host_fps": v, "sim_p99_latency_us": 1000}))
		b = append(b, rec("w", uint64(i), h, map[string]float64{"host_fps": v * 1.05, "sim_p99_latency_us": 1000.5}))
		c = append(c, rec("w", uint64(i), h, map[string]float64{"host_fps": 1000 + v, "sim_p99_latency_us": 999}))
	}
	v := verdicts(t, a, b, bounds)
	if v["host_fps"] != unresolved {
		t.Errorf("spread wider than the bound: %q, want unresolved", v["host_fps"])
	}
	if v["sim_p99_latency_us"] != worse {
		t.Errorf("exact metric moved 0.05%% the wrong way: %q, want worse", v["sim_p99_latency_us"])
	}
	v = verdicts(t, a, c, bounds)
	if v["host_fps"] != better {
		t.Errorf("every change run beats every base run: %q, want better", v["host_fps"])
	}
	if v["sim_p99_latency_us"] != better {
		t.Errorf("exact metric improved: %q, want better", v["sim_p99_latency_us"])
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := []record{rec("w", 1, fingerprint{CPUModel: "x", NProc: 2}, nil)}
	b := []record{rec("w", 1, fingerprint{CPUModel: "x", NProc: 4}, nil)}
	if _, err := compareRecords(a, b, nil); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Fatalf("err = %v, want a fingerprint refusal", err)
	}
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the metric and
// workload tables the binary reports from.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []bound `json:"end_to_end"`
		PerLayer  []bound `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v vs %q %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, declared []bound, defs []metricDef) {
		var listed []metricDef
		for _, d := range defs {
			if d.listed {
				listed = append(listed, d)
			}
		}
		if len(declared) != len(listed) {
			t.Fatalf("%s: %d metrics declared, %d listed in code", kind, len(declared), len(listed))
		}
		for i, b := range declared {
			d := listed[i]
			if b.Name != d.name || b.Unit != d.unit || b.Better != d.better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, b, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestSmoke runs every workload at a few dozen frames, untraced and
// traced, through the same measure path the command uses.
func TestSmoke(t *testing.T) {
	for _, info := range workloads {
		for _, trace := range []bool{false, true} {
			r, err := measure(info, 7, 0, trace, true, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", info.name, trace, err)
			}
			if !r.Correct {
				t.Errorf("%s trace=%v: %v", info.name, trace, r.Problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := r.Metrics[d.name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", info.name, trace, d.name, v, ok)
				}
			}
			if trace && r.Metrics["annealer.reads"].Value == 0 {
				t.Errorf("%s: traced run replayed no anneal reads", info.name)
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "uplink-16qam", "-trace", "2"},
		{"-compare", "only-one.json"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestFinalLineListsOnlyDeclaredMetrics(t *testing.T) {
	r := &record{Correct: true, Attempted: 3, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		r.Metrics[d.name] = metricValue{Value: 1, Unit: d.unit}
	}
	data, _ := json.Marshal(finalLine(r))
	var got struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metricValue
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Metrics["error_rate"]; ok {
		t.Error("unlisted metric error_rate in the final line")
	}
	if _, ok := got.Metrics["host_fps"]; !ok || !got.Correct || got.Attempted != 3 {
		t.Errorf("final line %s", data)
	}
}
