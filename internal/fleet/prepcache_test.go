package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/telemetry"
)

// prepArtifacts serves the determinism scenario on its two busiest
// devices (the embedded QPU and the faulty ICE device, so frames queue
// and batch) with every odd stream repeating its even neighbour's
// problem pointer frame for frame, the pair marked as one Group so the
// planner batches them together and they can share a compile, and
// returns the marshaled outcomes,
// trace JSONL, report, metrics registry and the number of frames served
// on the anneal path. With clone set, every request carries its own copy
// of its problem, so no two frames share a *qubo.Ising and no compile
// can be shared.
func prepArtifacts(t *testing.T, workers int, clone bool) (outcomes, trace []byte, rep Report, reg *telemetry.Registry, annealed int) {
	t.Helper()
	cfg, reqs := determinismScenario(t, true)
	cfg.Devices = cfg.Devices[1:]
	first := map[[2]int]*Request{}
	for i := range reqs {
		r := &reqs[i]
		if r.Stream%2 == 0 {
			first[[2]int{r.Stream, r.Seq}] = r
			r.Group = len(first)
		} else if m := first[[2]int{r.Stream - 1, r.Seq}]; m != nil {
			r.Problem, r.Group = m.Problem, m.Group
		}
	}
	if clone {
		for i := range reqs {
			reqs[i].Problem = reqs[i].Problem.Clone()
		}
	}
	cfg.Workers = workers
	cfg.Trace = telemetry.NewTracer()
	reg = telemetry.NewRegistry()
	cfg.Metrics = reg
	res, err := Serve(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if !o.Shed && !cfg.Devices[o.Device].Backend.Classical() {
			annealed++
		}
	}
	return out, buf.Bytes(), res.Report, reg, annealed
}

// TestFleetPrepCacheDeterminism extends the fleet determinism contract
// to compile sharing on plain fleet traffic, where streams reuse the
// scenario's problems: outcomes and traces must be bit-identical whether
// batch-mates share one compile per *qubo.Ising or each compiles its own
// clone, at worker counts 1, 4 and 16. Sharing can only skip compiles,
// never change answers, and its counters are fixed by the plan, so they
// must not move with the worker count either.
func TestFleetPrepCacheDeterminism(t *testing.T) {
	refOut, refTrace, _, _, _ := prepArtifacts(t, 1, true)
	for _, clone := range []bool{false, true} {
		var refStats *PrepStats
		for _, workers := range []int{1, 4, 16} {
			out, trace, rep, _, _ := prepArtifacts(t, workers, clone)
			if !bytes.Equal(out, refOut) {
				t.Fatalf("clone=%v, %d workers: outcomes diverge from the unshared serve", clone, workers)
			}
			if !bytes.Equal(trace, refTrace) {
				t.Fatalf("clone=%v, %d workers: trace export diverges from the unshared serve", clone, workers)
			}
			if refStats == nil {
				refStats = &rep.PrepCache
			} else if rep.PrepCache != *refStats {
				t.Fatalf("clone=%v: counters vary with worker count: %+v vs %+v", clone, rep.PrepCache, *refStats)
			}
		}
	}
}

// TestFleetPrepCacheCounters checks the counters tell the plan's story:
// every frame served on the anneal path is either a compile (Misses) or
// a reuse of a batch-mate's compile (Hits); cloned problems never reuse;
// sharing compiles strictly fewer times than the cloned serve when
// batch-mates repeat a problem; and the metrics mirror the report.
func TestFleetPrepCacheCounters(t *testing.T) {
	_, _, shared, reg, annealed := prepArtifacts(t, 4, false)
	st := shared.PrepCache
	if st.Misses == 0 {
		t.Fatal("no compiles counted on a serve that annealed")
	}
	if st.Hits == 0 {
		t.Fatalf("no batch-mate reused a repeated problem's compile: %+v", st)
	}
	if st.Hits+st.Misses != uint64(annealed) {
		t.Fatalf("%+v counts %d compiles and reuses, want the %d annealed frames", st, st.Hits+st.Misses, annealed)
	}
	if got := reg.Counter("fleet_prep_cache_hits_total").Value(); got != float64(st.Hits) {
		t.Fatalf("hits metric %v, report %d", got, st.Hits)
	}
	if got := reg.Counter("fleet_prep_cache_misses_total").Value(); got != float64(st.Misses) {
		t.Fatalf("misses metric %v, report %d", got, st.Misses)
	}

	_, _, cloned, creg, cannealed := prepArtifacts(t, 4, true)
	cst := cloned.PrepCache
	if cst.Hits != 0 || cst.Misses != uint64(cannealed) {
		t.Fatalf("cloned serve: %+v, want 0 hits and %d misses", cst, cannealed)
	}
	if got := creg.Counter("fleet_prep_cache_hits_total").Value(); got != 0 {
		t.Fatalf("cloned serve: hits metric %v, want 0", got)
	}
	if st.Misses >= cst.Misses {
		t.Fatalf("sharing reused %d compiles yet compiled %d times, cloned %d", st.Hits, st.Misses, cst.Misses)
	}
}
