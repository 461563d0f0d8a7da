package cran

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/fleet"
	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
)

var (
	problemOnce sync.Once
	problemPool []*qubo.Ising
)

// testProblems returns a small pool of detection Isings (6 spins each),
// synthesized once — tier tests exercise routing, not anneal quality.
func testProblems(t testing.TB) []*qubo.Ising {
	t.Helper()
	problemOnce.Do(func() {
		for seed := uint64(1); seed <= 4; seed++ {
			in, err := instance.Synthesize(instance.Spec{Users: 3, Scheme: modulation.QPSK, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			problemPool = append(problemPool, in.Reduction.Ising)
		}
	})
	return problemPool
}

// cityRequests lays out perStream frames on each (cell, ue) stream,
// arriving interval μs apart.
func cityRequests(t testing.TB, cells, uesPerCell, perStream int, interval, deadline float64) []Request {
	t.Helper()
	probs := testProblems(t)
	var reqs []Request
	for c := 0; c < cells; c++ {
		for u := 0; u < uesPerCell; u++ {
			for q := 0; q < perStream; q++ {
				p := probs[(c+u+q)%len(probs)]
				init := make([]int8, p.N)
				for i := range init {
					init[i] = 1
				}
				reqs = append(reqs, Request{
					Cell: c, UE: u, Seq: q,
					Arrival:      float64(q) * interval,
					Deadline:     deadline,
					Problem:      p,
					InitialState: init,
				})
			}
		}
	}
	return reqs
}

// logicalShards builds n shards of m plain logical devices each.
func logicalShards(n, m int) [][]fleet.Device {
	shards := make([][]fleet.Device, n)
	for s := range shards {
		shards[s] = make([]fleet.Device, m)
		for d := range shards[s] {
			shards[s][d].SweepsPerMicrosecond = 30
		}
	}
	return shards
}

// cellOn finds a cell id the config's ring places on the wanted shard.
func cellOn(t testing.TB, cfg Config, shard int) int {
	t.Helper()
	r := buildRing(len(cfg.Shards), virtualNodes, cfg.Seed)
	for cell := 0; cell < 10_000; cell++ {
		if r.place(cell) == shard {
			return cell
		}
	}
	t.Fatalf("no cell places on shard %d", shard)
	return -1
}

func TestServeBasic(t *testing.T) {
	reqs := cityRequests(t, 6, 2, 3, 50, 0)
	cfg := Config{
		Shards: logicalShards(3, 2),
		Fleet:  fleet.Config{NumReads: 4},
		Seed:   1,
	}
	res, err := Serve(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(reqs) {
		t.Fatalf("%d outcomes for %d requests", len(res.Outcomes), len(reqs))
	}
	for i := 1; i < len(res.Outcomes); i++ {
		a, b := res.Outcomes[i-1], res.Outcomes[i]
		if a.Cell > b.Cell || (a.Cell == b.Cell && a.UE > b.UE) ||
			(a.Cell == b.Cell && a.UE == b.UE && a.Seq >= b.Seq) {
			t.Fatalf("outcomes unordered at %d: %+v then %+v", i, a, b)
		}
	}
	rep := res.Report
	if rep.Frames != len(reqs) || rep.Admitted != len(reqs) || rep.RouterShed != 0 {
		t.Fatalf("report miscounts: %+v", rep)
	}
	if rep.Served+rep.Shed != rep.Frames {
		t.Fatalf("served %d + shed %d != frames %d", rep.Served, rep.Shed, rep.Frames)
	}
	if rep.Cells != 6 || rep.Streams != 12 {
		t.Fatalf("workload shape miscounted: %+v", rep)
	}
	if len(res.ShardReports) != 3 || len(rep.ShardRows) != 3 {
		t.Fatalf("want 3 shard reports, got %d/%d", len(res.ShardReports), len(rep.ShardRows))
	}
	// Every cell has exactly one epoch-0 record on a valid shard.
	seen := map[int]bool{}
	for _, p := range res.Placements {
		if p.Epoch != 0 {
			t.Fatalf("unexpected failover record %+v in a healthy run", p)
		}
		if p.Shard < 0 || p.Shard >= 3 || seen[p.Cell] {
			t.Fatalf("bad placement record %+v", p)
		}
		seen[p.Cell] = true
	}
	if len(seen) != 6 {
		t.Fatalf("placed %d cells, want 6", len(seen))
	}
	var buf strings.Builder
	if err := rep.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "placement") || !strings.Contains(buf.String(), "shard") {
		t.Fatalf("report table missing sections:\n%s", buf.String())
	}
}

func TestServeEmptyRequests(t *testing.T) {
	res, err := Serve(context.Background(), Config{Shards: logicalShards(2, 1), Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 0 || res.Report.Frames != 0 || len(res.ShardReports) != 2 {
		t.Fatalf("empty run produced %+v", res.Report)
	}
}

func TestServeConfigErrors(t *testing.T) {
	reqs := cityRequests(t, 1, 1, 1, 0, 0)
	bads := []Config{
		{},
		{Shards: [][]fleet.Device{{}}},
		{Shards: logicalShards(2, 1), Placement: Placement(9)},
		{Shards: logicalShards(2, 1), AdmitQueueMicros: -5},
		{Shards: logicalShards(2, 1), EstReadMicros: -1},
		{Shards: logicalShards(2, 1), ShardWorkers: -2},
		{Shards: logicalShards(2, 1), execPerm: []int{0}},
		{Shards: logicalShards(2, 1), execPerm: []int{1, 1}},
	}
	for i, cfg := range bads {
		if _, err := Serve(context.Background(), cfg, reqs); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestValidateRequests(t *testing.T) {
	probs := testProblems(t)
	ok := Request{Cell: 1, UE: 2, Seq: 0, Problem: probs[0], InitialState: make([]int8, probs[0].N)}
	if err := ValidateRequests([]Request{ok}); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	bads := [][]Request{
		{{Cell: -1, UE: 0, Problem: probs[0], InitialState: make([]int8, probs[0].N)}},
		{{Cell: MaxCells, UE: 0, Problem: probs[0], InitialState: make([]int8, probs[0].N)}},
		{{Cell: 0, UE: MaxUEsPerCell, Problem: probs[0], InitialState: make([]int8, probs[0].N)}},
		{ok, ok}, // duplicate (cell, ue, seq)
		{{Cell: 0, UE: 0, Problem: nil}},
		{{Cell: 0, UE: 0, Problem: probs[0], InitialState: make([]int8, 1)}},
		{
			{Cell: 0, UE: 0, Seq: 0, Arrival: 100, Problem: probs[0], InitialState: make([]int8, probs[0].N)},
			{Cell: 0, UE: 0, Seq: 1, Arrival: 50, Problem: probs[0], InitialState: make([]int8, probs[0].N)},
		},
	}
	for i, reqs := range bads {
		if err := ValidateRequests(reqs); err == nil {
			t.Fatalf("bad request set %d accepted", i)
		}
	}
}

func TestParsePlacement(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Placement
	}{{"hash", PlacementHash}, {"consistent-hash", PlacementHash}, {"load", PlacementLoadAware}, {"load-aware", PlacementLoadAware}} {
		got, err := ParsePlacement(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePlacement(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() == "" || !got.valid() {
			t.Fatalf("placement %v unprintable or invalid", got)
		}
	}
	if _, err := ParsePlacement("nope"); err == nil {
		t.Fatal("unknown placement accepted")
	}
	if Placement(42).String() == "" {
		t.Fatal("unknown placement unprintable")
	}
}

// TestFailover pins the cross-shard failover path: a cell whose shard
// dies mid-run moves to a live shard at the next frame arrival, with the
// epoch history recorded.
func TestFailover(t *testing.T) {
	for _, placement := range []Placement{PlacementHash, PlacementLoadAware} {
		t.Run(placement.String(), func(t *testing.T) {
			cfg := Config{
				Shards:    logicalShards(3, 2),
				Placement: placement,
				Fleet:     fleet.Config{NumReads: 4},
				Seed:      7,
			}
			// Kill the victim shard's whole pool at t=500.
			victim := 0
			if placement == PlacementHash {
				victim = buildRing(3, 64, cfg.Seed).place(5)
			}
			for d := range cfg.Shards[victim] {
				cfg.Shards[victim][d].FailAt = 500
			}

			probs := testProblems(t)
			p := probs[0]
			init := make([]int8, p.N)
			var reqs []Request
			for q := 0; q < 6; q++ {
				reqs = append(reqs, Request{
					Cell: 5, UE: 0, Seq: q, Arrival: float64(q) * 200,
					Problem: p, InitialState: init,
				})
			}
			res, err := Serve(context.Background(), cfg, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.Failovers != 1 {
				t.Fatalf("want 1 failover, got %d (placements %+v)", res.Report.Failovers, res.Placements)
			}
			if len(res.Placements) != 2 {
				t.Fatalf("want 2 placement records, got %+v", res.Placements)
			}
			r0, r1 := res.Placements[0], res.Placements[1]
			if r0.Epoch != 0 || r0.Shard != victim || r1.Epoch != 1 || r1.Shard == victim {
				t.Fatalf("bad epoch history: %+v", res.Placements)
			}
			if r1.SinceMicros < 500 {
				t.Fatalf("failover before the pool died: %+v", r1)
			}
			for _, o := range res.Outcomes {
				switch {
				case o.Frame.Arrival < 500:
					if o.Shard != victim || o.Epoch != 0 || o.FailedOver {
						t.Fatalf("pre-death frame misrouted: %+v", o)
					}
				default:
					if o.Shard != r1.Shard || o.Epoch != 1 || !o.FailedOver {
						t.Fatalf("post-death frame not failed over: %+v", o)
					}
				}
			}
		})
	}
}

// TestNoLiveShard pins the tier's last rung: when every pool is dead, the
// router answers classically with ShedNoLiveShard.
func TestNoLiveShard(t *testing.T) {
	cfg := Config{
		Shards: logicalShards(2, 1),
		Fleet:  fleet.Config{NumReads: 4},
		Seed:   3,
	}
	for s := range cfg.Shards {
		for d := range cfg.Shards[s] {
			cfg.Shards[s][d].FailAt = 100
		}
	}
	probs := testProblems(t)
	p := probs[1]
	reqs := []Request{
		{Cell: 1, UE: 0, Seq: 0, Arrival: 0, Problem: p, InitialState: make([]int8, p.N)},
		{Cell: 1, UE: 0, Seq: 1, Arrival: 1_000, Problem: p, InitialState: make([]int8, p.N), Deadline: 0.001},
	}
	res, err := Serve(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	late := res.Outcomes[1]
	if !late.RouterShed || late.Shard != -1 || late.Frame.ShedReason != ShedNoLiveShard {
		t.Fatalf("late frame not router-shed: %+v", late)
	}
	if !late.Frame.DeadlineMissed {
		t.Fatalf("classical fallback beat a %gµs deadline: %+v", reqs[1].Deadline, late.Frame)
	}
	if len(late.Frame.Best.Spins) != p.N {
		t.Fatalf("router-shed frame lacks a fallback answer: %+v", late.Frame)
	}
	if res.Report.RouterShed != 1 {
		t.Fatalf("report miscounts router sheds: %+v", res.Report)
	}
}

// TestBackpressure pins admission control: with a tiny queue bound, a
// burst beyond the drain estimate sheds with ShedShardBackpressure.
func TestBackpressure(t *testing.T) {
	cfg := Config{
		Shards:           logicalShards(1, 1),
		Fleet:            fleet.Config{NumReads: 50},
		AdmitQueueMicros: 100,
		EstReadMicros:    10, // 500 µs estimated per frame
		Seed:             11,
	}
	reqs := cityRequests(t, 1, 1, 8, 0.001, 0) // near-simultaneous burst
	res, err := Serve(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	shed := 0
	for _, o := range res.Outcomes {
		if o.RouterShed {
			if o.Frame.ShedReason != ShedShardBackpressure {
				t.Fatalf("wrong shed reason: %+v", o.Frame)
			}
			shed++
		}
	}
	if shed == 0 || shed == len(reqs) {
		t.Fatalf("backpressure shed %d of %d frames, want some but not all", shed, len(reqs))
	}
	if res.Report.RouterShed != shed || res.Report.Admitted != len(reqs)-shed {
		t.Fatalf("report disagrees with outcomes: %+v", res.Report)
	}
}

// FuzzParsePlacement: the -placement flag is external input. Parsing
// must never panic; an accepted value is a valid Placement whose String
// parses back to itself.
func FuzzParsePlacement(f *testing.F) {
	for _, s := range []string{"hash", "consistent-hash", "load", "load-aware", "", "Hash", "placement(1)", " hash"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlacement(s)
		if err != nil {
			return
		}
		if !p.valid() {
			t.Fatalf("ParsePlacement(%q) accepted invalid placement %d", s, int(p))
		}
		back, err := ParsePlacement(p.String())
		if err != nil || back != p {
			t.Fatalf("ParsePlacement(%q) = %v, but its String %q parses to %v, %v", s, p, p.String(), back, err)
		}
	})
}
