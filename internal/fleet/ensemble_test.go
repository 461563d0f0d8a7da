package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/qubo"
	"repro/internal/telemetry"
)

// ensembleCandidates builds k deterministic distinct candidates for p.
func ensembleCandidates(p *qubo.Ising, k int) [][]int8 {
	out := make([][]int8, k)
	for c := range out {
		out[c] = make([]int8, p.N)
		for i := range out[c] {
			if (i+c)%2 == 0 {
				out[c][i] = 1
			} else {
				out[c][i] = -1
			}
		}
	}
	return out
}

// ensembleScenario: 3 streams × 3 frames fanned into 2×2 arms over the
// mixed 3-device pool, busy enough for arm batching, retries, and
// deadline pressure to all engage.
func ensembleScenario(t testing.TB, faults bool, prepCache int) (EnsembleConfig, []EnsembleFrame) {
	t.Helper()
	fc, _ := determinismScenario(t, faults)
	fc.PrepCacheSize = prepCache
	probs := testProblems(t)
	var frames []EnsembleFrame
	for s := 0; s < 3; s++ {
		for q := 0; q < 3; q++ {
			p := probs[(s*3+q)%len(probs)]
			frames = append(frames, EnsembleFrame{
				Stream: s, Seq: q,
				Arrival:    float64(q) * 150,
				Deadline:   60_000,
				Problem:    p,
				Candidates: ensembleCandidates(p, 2),
			})
		}
	}
	cfg := EnsembleConfig{Fleet: fc, SpGrid: []float64{0.37, 0.45}, ReadsPerArm: 5}
	return cfg, frames
}

// ensembleArtifacts returns the export surfaces the ensemble determinism
// contract covers: marshaled fused outcomes and the trace JSONL.
func ensembleArtifacts(t testing.TB, workers int, faults bool, prepCache int) (outcomes, trace []byte) {
	t.Helper()
	cfg, frames := ensembleScenario(t, faults, prepCache)
	cfg.Fleet.Workers = workers
	cfg.Fleet.Trace = telemetry.NewTracer()
	res, err := ServeEnsemble(context.Background(), cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Fleet.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return out, buf.Bytes()
}

// TestEnsembleDeterminism is the gating regression battery for ensemble
// serving: fused outcomes and exported traces must be bit-identical at
// worker counts 1/4/16, with faults off and on, and with the prepared-
// problem cache on and off — the TestCRANDeterminism pattern one tier
// down.
func TestEnsembleDeterminism(t *testing.T) {
	for _, faults := range []bool{false, true} {
		fname := "faults-off"
		if faults {
			fname = "faults-on"
		}
		t.Run(fname, func(t *testing.T) {
			refOut, refTrace := ensembleArtifacts(t, 1, faults, 64)
			if len(refTrace) == 0 {
				t.Fatal("trace export is empty")
			}
			cases := []struct {
				label     string
				workers   int
				prepCache int
			}{
				{"workers=4", 4, 64},
				{"workers=16", 16, 64},
				{"prep-cache-off", 1, -1},
				{"workers=16+prep-cache-off", 16, -1},
			}
			for _, tc := range cases {
				out, trace := ensembleArtifacts(t, tc.workers, faults, tc.prepCache)
				if !bytes.Equal(out, refOut) {
					t.Fatalf("fused outcomes diverge at %s", tc.label)
				}
				if !bytes.Equal(trace, refTrace) {
					t.Fatalf("trace export diverges at %s", tc.label)
				}
			}
		})
	}
}

// TestEnsembleSeedSensitivity guards the opposite failure: a serving
// path that ignored its seed would pass the identity battery with
// canned results.
func TestEnsembleSeedSensitivity(t *testing.T) {
	cfg, frames := ensembleScenario(t, true, 64)
	a, err := ServeEnsemble(context.Background(), cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fleet.Seed++
	b, err := ServeEnsemble(context.Background(), cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.Outcomes)
	jb, _ := json.Marshal(b.Outcomes)
	if bytes.Equal(ja, jb) {
		t.Fatal("fused outcomes identical across different seeds")
	}
}

// TestServeEnsembleShape pins the fan-out/fuse contract: one fused
// outcome per frame in (Stream, Seq) order, K×G arms each, every
// (candidate, s_p) pair served exactly once per frame, fused LLRs over
// every spin, and a hard answer no worse than any arm or candidate.
func TestServeEnsembleShape(t *testing.T) {
	cfg, frames := ensembleScenario(t, false, 64)
	res, err := ServeEnsemble(context.Background(), cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(frames) || res.Arms != 4 {
		t.Fatalf("%d outcomes (%d arms/frame) for %d frames", len(res.Outcomes), res.Arms, len(frames))
	}
	byID := map[[2]int]EnsembleFrame{}
	for _, f := range frames {
		byID[[2]int{f.Stream, f.Seq}] = f
	}
	arms := core.PlanArms(2, 2)
	for i, eo := range res.Outcomes {
		if i > 0 {
			prev := res.Outcomes[i-1]
			if eo.Stream < prev.Stream || (eo.Stream == prev.Stream && eo.Seq <= prev.Seq) {
				t.Fatalf("outcome %d out of (Stream, Seq) order", i)
			}
		}
		f := byID[[2]int{eo.Stream, eo.Seq}]
		if len(eo.Arms) != len(arms) {
			t.Fatalf("frame (%d,%d): %d arms", eo.Stream, eo.Seq, len(eo.Arms))
		}
		if len(eo.FusedLLRs) != f.Problem.N {
			t.Fatalf("frame (%d,%d): %d fused LLRs for %d spins", eo.Stream, eo.Seq, len(eo.FusedLLRs), f.Problem.N)
		}
		for ai, a := range arms {
			ao := eo.Arms[ai]
			if !ao.Shed {
				if ao.Best.Energy < eo.Best.Energy {
					t.Fatalf("frame (%d,%d): fused best %g worse than arm %d best %g",
						eo.Stream, eo.Seq, eo.Best.Energy, ai, ao.Best.Energy)
				}
				if len(ao.Samples) == 0 {
					t.Fatalf("frame (%d,%d): arm %d kept no samples", eo.Stream, eo.Seq, ai)
				}
			}
			if want := f.Stream*len(arms) + ai; ao.Stream != want {
				t.Fatalf("frame (%d,%d): arm %d served as stream %d, want %d", eo.Stream, eo.Seq, ai, ao.Stream, want)
			}
			_ = a
		}
		for _, c := range f.Candidates {
			if e := f.Problem.Energy(c); e < eo.Best.Energy {
				t.Fatalf("frame (%d,%d): fused best %g worse than candidate energy %g", eo.Stream, eo.Seq, eo.Best.Energy, e)
			}
		}
	}
}

// TestServeEnsembleAllShed: a pool whose only device is dead before any
// arrival sheds every arm; the frame still answers with its top
// candidate on the fallback rung.
func TestServeEnsembleAllShed(t *testing.T) {
	probs := testProblems(t)
	p := probs[0]
	cfg := EnsembleConfig{
		Fleet: Config{
			Devices: []Device{{SweepsPerMicrosecond: 30, FailAt: 1e-9}},
			Seed:    1,
		},
		SpGrid: []float64{0.45}, ReadsPerArm: 3,
	}
	frames := []EnsembleFrame{{Stream: 0, Seq: 0, Arrival: 5, Problem: p, Candidates: ensembleCandidates(p, 2)}}
	res, err := ServeEnsemble(context.Background(), cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	eo := res.Outcomes[0]
	if eo.ShedArms != 2 || eo.Source != core.AnswerClassicalFallback {
		t.Fatalf("all-shed frame answered %+v", eo)
	}
	if eo.FusedLLRs != nil {
		t.Fatal("all-shed frame fused LLRs from nothing")
	}
	if len(eo.Best.Spins) != p.N {
		t.Fatal("all-shed frame has no fallback answer")
	}
}

// TestServeEnsembleAllShedPicksLowestCandidate: with every arm shed the
// frame falls back to its lowest-energy candidate, not to slot 0
// (TopKCandidates pins the greedy state there whatever its energy) — the
// fallback rung core.Ensemble takes too.
func TestServeEnsembleAllShedPicksLowestCandidate(t *testing.T) {
	p := testProblems(t)[0]
	ground, err := qubo.ExhaustiveIsing(p)
	if err != nil {
		t.Fatal(err)
	}
	groundE := p.Energy(ground.Spins)
	worse := ensembleCandidates(p, 1)[0]
	if p.Energy(worse) <= groundE {
		t.Fatal("setup: slot-0 candidate is already optimal")
	}
	cfg := EnsembleConfig{
		Fleet:  Config{Devices: []Device{{SweepsPerMicrosecond: 30, FailAt: 1e-9}}, Seed: 1},
		SpGrid: []float64{0.45}, ReadsPerArm: 3,
	}
	frames := []EnsembleFrame{{Arrival: 5, Problem: p, Candidates: [][]int8{worse, ground.Spins}}}
	res, err := ServeEnsemble(context.Background(), cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	eo := res.Outcomes[0]
	if eo.ShedArms != 2 || eo.Source != core.AnswerClassicalFallback {
		t.Fatalf("all-shed frame answered %+v", eo)
	}
	if eo.Best.Energy != groundE {
		t.Fatalf("all-shed frame fell back to energy %g, lowest candidate is %g", eo.Best.Energy, groundE)
	}
}

// TestServeEnsembleReadFaultArmDoesNotDegrade: an arm whose reads were
// all lost (a fault, not a shed) has no anneal output. It must not
// compete with its candidate on the fallback rung and so report the
// frame as degraded while another arm served it healthily.
func TestServeEnsembleReadFaultArmDoesNotDegrade(t *testing.T) {
	p := testProblems(t)[0]
	ground, err := qubo.ExhaustiveIsing(p)
	if err != nil {
		t.Fatal(err)
	}
	devs := logicalDevices(2)
	devs[0].Faults.ReadTimeoutRate = 1
	cfg := EnsembleConfig{
		Fleet:  Config{Devices: devs, Seed: 1},
		SpGrid: []float64{0.37, 0.45}, ReadsPerArm: 3,
	}
	// The ground-state candidate ties or beats every anneal read, so a
	// faulted arm 0 holding it would otherwise never be displaced.
	frames := []EnsembleFrame{{Problem: p, Candidates: [][]int8{ground.Spins}}}
	res, err := ServeEnsemble(context.Background(), cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	eo := res.Outcomes[0]
	if a := eo.Arms; a[0].Shed || !a[0].Source.Degraded() || a[1].Shed || a[1].Source.Degraded() {
		t.Fatalf("setup: want arm 0 read-faulted and arm 1 healthy, got sources %v and %v", a[0].Source, a[1].Source)
	}
	if eo.Source.Degraded() {
		t.Fatalf("frame with a healthy arm reported %v", eo.Source)
	}
	if groundE := p.Energy(ground.Spins); eo.Best.Energy != groundE {
		t.Fatalf("frame answered energy %g, ground is %g", eo.Best.Energy, groundE)
	}
}

// TestServeEnsembleValidation: bad grids, empty frame sets, mismatched
// K, and stream overflow are rejected up front.
func TestServeEnsembleValidation(t *testing.T) {
	probs := testProblems(t)
	p := probs[0]
	base := EnsembleConfig{Fleet: Config{Devices: logicalDevices(1), Seed: 1}, ReadsPerArm: 2}
	frame := EnsembleFrame{Problem: p, Candidates: ensembleCandidates(p, 2)}

	bad := base
	bad.SpGrid = []float64{1.5}
	if _, err := ServeEnsemble(context.Background(), bad, []EnsembleFrame{frame}); err == nil {
		t.Fatal("bad grid accepted")
	}
	if _, err := ServeEnsemble(context.Background(), base, nil); err == nil {
		t.Fatal("empty frame set accepted")
	}
	noCand := frame
	noCand.Candidates = nil
	if _, err := ServeEnsemble(context.Background(), base, []EnsembleFrame{noCand}); err == nil {
		t.Fatal("candidate-free frame accepted")
	}
	mixed := []EnsembleFrame{frame, {Stream: 1, Problem: p, Candidates: ensembleCandidates(p, 3)}}
	if _, err := ServeEnsemble(context.Background(), base, mixed); err == nil {
		t.Fatal("mixed K accepted")
	}
	huge := frame
	huge.Stream = 1 << 30
	if _, err := ServeEnsemble(context.Background(), base, []EnsembleFrame{huge}); err == nil {
		t.Fatal("stream overflow accepted")
	}
}

// TestGroupedRequestsCoalesce: the arm-aware batch filler folds one
// frame's QUEUED arms into a shared programming cycle past the
// cross-stream cap, while the same requests without groups split at the
// cap. (Arms arriving on an idle fleet still spread across free devices
// — dispatch runs per event — so the scenario parks three blocker frames
// first; the six arms queue behind them and drain in one cycle when the
// devices free together.)
func TestGroupedRequestsCoalesce(t *testing.T) {
	probs := testProblems(t)
	p := probs[0]
	build := func(group int) []Request {
		init := make([]int8, p.N)
		for i := range init {
			init[i] = 1
		}
		var reqs []Request
		for d := 0; d < 3; d++ {
			reqs = append(reqs, Request{
				Stream: 100 + d, Seq: 0, Arrival: 0, Problem: p, InitialState: init,
			})
		}
		for ai := 0; ai < 6; ai++ {
			reqs = append(reqs, Request{
				Stream: ai, Seq: 0, Arrival: 1, Problem: p, InitialState: init, Group: group,
			})
		}
		return reqs
	}
	armBatches := func(reqs []Request) map[int]bool {
		res, err := Serve(context.Background(), Config{
			Devices: logicalDevices(3), NumReads: 3, BatchMax: 6, Seed: 7,
		}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		batches := map[int]bool{}
		for _, o := range res.Outcomes {
			if o.Stream < 100 {
				batches[o.Batch] = true
			}
		}
		return batches
	}
	// All three blockers finish at the same instant, so the first free
	// device sees 6 eligible seeds over 3 free devices: crossCap = 2.
	// The group exemption must beat the cap and coalesce all 6 arms.
	if got := armBatches(build(1)); len(got) != 1 {
		t.Fatalf("grouped arms spread over %d batches, want 1", len(got))
	}
	if got := armBatches(build(0)); len(got) != 3 {
		t.Fatalf("ungrouped arms packed into %d batches, want 3 (crossCap)", len(got))
	}
}

// TestUngroupedByteIdentity: a request set without groups plans and
// serves byte-identically whether or not the Group field exists — pinned
// by comparing against KeepSamples-only requests (every frame's group is
// 0, so the group exemption never fires for legacy callers).
func TestUngroupedByteIdentity(t *testing.T) {
	cfg, reqs := determinismScenario(t, true)
	cfg.Trace = telemetry.NewTracer()
	a, err := Serve(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var ta bytes.Buffer
	if err := cfg.Trace.WriteJSONL(&ta); err != nil {
		t.Fatal(err)
	}
	// Group 0 on every request is the documented no-op.
	for i := range reqs {
		reqs[i].Group = 0
	}
	cfg2, _ := determinismScenario(t, true)
	cfg2.Trace = telemetry.NewTracer()
	b, err := Serve(context.Background(), cfg2, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := cfg2.Trace.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.Outcomes)
	jb, _ := json.Marshal(b.Outcomes)
	if !bytes.Equal(ja, jb) || !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Fatal("Group=0 requests diverge from legacy serving")
	}
}

// FuzzEnsemblePlan generates random but conforming ensemble workloads —
// frame counts, K, grid sizes, device pools, faults — and asserts the
// fan-out invariants hold and the run is reproducible (two serves,
// byte-identical fused outcomes), matching FuzzFleetSchedule.
func FuzzEnsemblePlan(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(2), uint8(3), uint8(2), false)
	f.Add(uint64(7), uint8(1), uint8(1), uint8(1), uint8(1), true)
	f.Add(uint64(42), uint8(4), uint8(3), uint8(6), uint8(4), true)
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, gRaw, framesRaw, devicesRaw uint8, faults bool) {
		k := int(kRaw)%4 + 1
		g := int(gRaw)%3 + 1
		nFrames := int(framesRaw)%6 + 1
		nd := int(devicesRaw)%3 + 1

		grid := make([]float64, g)
		for i := range grid {
			grid[i] = 0.3 + 0.1*float64(i)
		}
		probs := testProblems(t)
		var frames []EnsembleFrame
		for i := 0; i < nFrames; i++ {
			p := probs[(int(seed%16)+i)%len(probs)]
			frames = append(frames, EnsembleFrame{
				Stream: i % 3, Seq: i / 3,
				Arrival:    float64(i/3) * 100,
				Problem:    p,
				Candidates: ensembleCandidates(p, k),
			})
		}
		devs := logicalDevices(nd)
		if faults {
			devs[0].Faults.ProgrammingFailureRate = 0.5
			if nd > 1 {
				devs[1].Faults.ReadTimeoutRate = 0.3
			}
		}
		cfg := EnsembleConfig{
			Fleet: Config{
				Devices:  devs,
				BatchMax: int(seed%4) + 1,
				Seed:     seed,
			},
			SpGrid:      grid,
			ReadsPerArm: 2,
		}
		res, err := ServeEnsemble(context.Background(), cfg, frames)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Outcomes) != nFrames || res.Arms != k*g {
			t.Fatalf("%d outcomes (%d arms) for %d frames (k=%d g=%d)", len(res.Outcomes), res.Arms, nFrames, k, g)
		}
		arms := core.PlanArms(k, g)
		for _, eo := range res.Outcomes {
			if len(eo.Arms) != len(arms) {
				t.Fatalf("frame (%d,%d): %d arm outcomes", eo.Stream, eo.Seq, len(eo.Arms))
			}
			// Every (candidate, s_p) pair exactly once: arm ai must have
			// been served at PlanArms[ai]'s grid point, and its underlying
			// stream identity must be unique.
			seen := map[int]bool{}
			for ai := range arms {
				ao := eo.Arms[ai]
				if seen[ao.Stream] {
					t.Fatalf("frame (%d,%d): arm stream %d served twice", eo.Stream, eo.Seq, ao.Stream)
				}
				seen[ao.Stream] = true
			}
			if len(eo.Best.Spins) == 0 {
				t.Fatalf("frame (%d,%d) has no answer", eo.Stream, eo.Seq)
			}
		}
		again, err := ServeEnsemble(context.Background(), cfg, frames)
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(res.Outcomes)
		jb, _ := json.Marshal(again.Outcomes)
		if !bytes.Equal(ja, jb) {
			t.Fatal("ensemble serve not reproducible")
		}
	})
}

// BenchmarkEnsembleDetect measures fan-out/fuse serving at K ∈ {1,4,16}
// over the benchmark fleet, emitting BENCH_JSON records for benchdiff.
func BenchmarkEnsembleDetect(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			probs := testProblems(b)
			var frames []EnsembleFrame
			for i := 0; i < 8; i++ {
				p := probs[i%len(probs)]
				frames = append(frames, EnsembleFrame{
					Stream: i % 4, Seq: i / 4,
					Arrival:    float64(i/4) * 100,
					Problem:    p,
					Candidates: ensembleCandidates(p, k),
				})
			}
			cfg := EnsembleConfig{
				Fleet: Config{
					Devices:  logicalDevices(4),
					BatchMax: 8,
					Seed:     11,
				},
				SpGrid:      []float64{0.37, 0.45},
				ReadsPerArm: 4,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ServeEnsemble(context.Background(), cfg, frames); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			writeEnsembleBenchJSON(b, k)
		})
	}
}

func writeEnsembleBenchJSON(b *testing.B, k int) {
	b.Helper()
	dir := os.Getenv(telemetry.BenchJSONDirEnv)
	if dir == "" {
		return
	}
	rec := telemetry.BenchRecord{
		Name:       fmt.Sprintf("EnsembleDetectK%d", k),
		NsPerOp:    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		Iterations: b.N,
		Config: map[string]any{
			"k": k, "sp_grid": []float64{0.37, 0.45}, "reads_per_arm": 4,
			"frames": 8, "devices": 4,
		},
		Series: fmt.Sprintf("k=%d arms=%d frames=8 devices=4", k, k*2),
	}
	if err := telemetry.WriteBenchJSON(dir, rec); err != nil {
		b.Fatalf("bench json: %v", err)
	}
}
