package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// checkInvariants asserts the scheduling properties every policy must
// uphold, whatever the load, faults, or device churn:
//   - conservation: exactly one outcome per request, served + shed = all,
//     no frame lost or double-dispatched;
//   - per-stream FIFO: in seq order, served frames start and finish in
//     non-decreasing time, and nothing overtakes inside a batch;
//   - shed frames carry a ladder rung and a classical-fallback answer.
func checkInvariants(t *testing.T, reqs []Request, res *Result) {
	t.Helper()
	if len(res.Outcomes) != len(reqs) {
		t.Fatalf("%d outcomes for %d requests", len(res.Outcomes), len(reqs))
	}
	want := map[[2]int]bool{}
	for _, r := range reqs {
		want[[2]int{r.Stream, r.Seq}] = true
	}
	seen := map[[2]int]bool{}
	served, shed := 0, 0
	perStream := map[int][]Outcome{}
	for _, o := range res.Outcomes {
		k := [2]int{o.Stream, o.Seq}
		if !want[k] {
			t.Fatalf("outcome for unknown frame %v", k)
		}
		if seen[k] {
			t.Fatalf("frame %v reported twice", k)
		}
		seen[k] = true
		if o.Shed {
			shed++
			if o.ShedReason == "" || o.Source != core.AnswerClassicalFallback {
				t.Fatalf("shed frame %v lacks reason/fallback answer: %+v", k, o)
			}
			if o.Device != -1 || o.Batch != -1 {
				t.Fatalf("shed frame %v claims a device: %+v", k, o)
			}
		} else {
			served++
			if o.Device < 0 || o.Batch < 0 || o.Attempts < 1 {
				t.Fatalf("served frame %v has no placement: %+v", k, o)
			}
			if o.Start < o.Arrival || o.Finish <= o.Start {
				t.Fatalf("served frame %v has bad timing: %+v", k, o)
			}
		}
		if len(o.Best.Spins) == 0 {
			t.Fatalf("frame %v has no answer", k)
		}
		perStream[o.Stream] = append(perStream[o.Stream], o)
	}
	if len(seen) != len(want) {
		t.Fatalf("%d frames answered of %d submitted", len(seen), len(want))
	}
	if served != res.Report.Served || shed != res.Report.Shed || served+shed != len(reqs) {
		t.Fatalf("conservation broken: served=%d shed=%d report=%+v", served, shed, res.Report)
	}
	for stream, os := range perStream {
		sort.Slice(os, func(i, j int) bool { return os[i].Seq < os[j].Seq })
		var prev *Outcome
		for i := range os {
			o := &os[i]
			if o.Shed {
				continue
			}
			if prev != nil {
				if o.Start < prev.Start || o.Finish <= prev.Finish {
					t.Fatalf("stream %d: seq %d (start %g finish %g) overtakes seq %d (start %g finish %g)",
						stream, o.Seq, o.Start, o.Finish, prev.Seq, prev.Start, prev.Finish)
				}
			}
			prev = o
		}
	}
}

func TestInvariantsUnderLoadAndFaults(t *testing.T) {
	for _, policy := range []Policy{PolicyLeastLoaded, PolicyRoundRobin, PolicyEDF} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg, reqs := determinismScenario(t, true)
			cfg.Policy = policy
			cfg.StreamQueueBound = 2
			res, err := Serve(context.Background(), cfg, reqs)
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, reqs, res)
		})
	}
}

// TestEDFOrdersByDeadline pins the EDF guarantee: with a single device
// and single-frame batches, frames queued together are served strictly in
// deadline order, so two frames whose deadlines differ by more than one
// batch can never invert.
func TestEDFOrdersByDeadline(t *testing.T) {
	probs := testProblems(t)
	deadlines := []float64{90_000, 30_000, 70_000, 10_000, 50_000}
	var reqs []Request
	for s, d := range deadlines {
		p := probs[s%len(probs)]
		init := make([]int8, p.N)
		for i := range init {
			init[i] = 1
		}
		reqs = append(reqs, Request{Stream: s, Seq: 0, Arrival: 1, Deadline: d, Problem: p, InitialState: init})
	}
	// Stream 9 occupies the device at t=0 so all five frames are queued
	// when it frees; EDF must then drain them by deadline.
	p := probs[0]
	reqs = append(reqs, Request{Stream: 9, Seq: 0, Problem: p, InitialState: make([]int8, p.N)})
	res, err := Serve(context.Background(), Config{
		Devices: logicalDevices(1), Policy: PolicyEDF, NumReads: 8, BatchMax: 1, Seed: 1,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	byStart := append([]Outcome(nil), res.Outcomes...)
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].Start < byStart[j].Start })
	var lastDeadline float64
	for _, o := range byStart {
		if o.Stream == 9 {
			continue
		}
		abs := o.Arrival + deadlines[o.Stream]
		if abs < lastDeadline {
			t.Fatalf("EDF inversion: stream %d (deadline %g) served after deadline %g", o.Stream, abs, lastDeadline)
		}
		lastDeadline = abs
	}
}

// FuzzFleetSchedule generates random but conforming workloads and fleet
// shapes, then asserts the scheduling invariants hold and the run is
// reproducible (two Serves, byte-identical outcomes).
func FuzzFleetSchedule(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(4), uint8(2), uint8(0), uint16(100), uint16(0), false)
	f.Add(uint64(7), uint8(1), uint8(8), uint8(1), uint8(1), uint16(0), uint16(500), true)
	f.Add(uint64(42), uint8(5), uint8(3), uint8(4), uint8(2), uint16(40), uint16(50), true)
	f.Fuzz(func(t *testing.T, seed uint64, streams, perStream, devices, policy uint8, interval, deadline uint16, faults bool) {
		ns := int(streams)%6 + 1
		nf := int(perStream)%6 + 1
		nd := int(devices)%4 + 1
		pol := Policy(int(policy) % 3)

		probs := testProblems(t)
		src := rng.New(seed)
		var reqs []Request
		for s := 0; s < ns; s++ {
			arrival := 0.0
			for q := 0; q < nf; q++ {
				p := probs[src.Uint64()%uint64(len(probs))]
				init := make([]int8, p.N)
				for i := range init {
					if src.Uint64()&1 == 1 {
						init[i] = 1
					} else {
						init[i] = -1
					}
				}
				arrival += float64(interval) * src.Float64()
				reqs = append(reqs, Request{
					Stream: s, Seq: q,
					Arrival:      arrival,
					Deadline:     float64(deadline),
					Problem:      p,
					InitialState: init,
				})
			}
		}
		devs := logicalDevices(nd)
		if faults {
			devs[0].Faults.ProgrammingFailureRate = 0.5
			if nd > 1 {
				devs[1].Faults.ReadTimeoutRate = 0.3
			}
			if nd > 2 {
				devs[2].FailAt = 200
			}
		}
		cfg := Config{
			Devices:          devs,
			Policy:           pol,
			NumReads:         2,
			BatchMax:         int(seed)%3 + 1,
			StreamQueueBound: 2,
			Seed:             seed,
		}
		res, err := Serve(context.Background(), cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, reqs, res)

		again, err := Serve(context.Background(), cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(res.Outcomes)
		jb, _ := json.Marshal(again.Outcomes)
		if !bytes.Equal(ja, jb) {
			t.Fatal("re-run diverged")
		}
	})
}
