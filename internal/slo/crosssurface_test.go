package slo

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cran"
	"repro/internal/fleet"
	"repro/internal/telemetry"
)

// surfaceFigures are the frame counts, shed rate and latency
// percentiles a serving run reports; every surface must give the same
// values.
type surfaceFigures struct {
	Served, Shed            int
	ShedRate, P50, P99, Q99 float64
}

func tierFigures(s ScopeSLI) surfaceFigures {
	return surfaceFigures{s.Served, s.Shed, s.ShedRate, s.LatencyP50, s.LatencyP99, s.QueueP99}
}

// checkSurfaces compares a Report's figures with the live monitor's
// tier and with slo.Analyze over the run's exported JSONL.
func checkSurfaces(t *testing.T, label string, rep surfaceFigures, m *Monitor, tr *telemetry.Tracer, cfg Config) {
	t.Helper()
	snap, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := ParseTrace(bytes.NewReader(traceJSONL(t, tr)), true)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Analyze(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tierFigures(snap.Tier); got != rep {
		t.Errorf("%s: live dashboard %+v, report %+v", label, got, rep)
	}
	if got := tierFigures(off.Tier); got != rep {
		t.Errorf("%s: offline analysis %+v, report %+v", label, got, rep)
	}
}

// gainShare is the share of outcomes a report's QuantumGainShare must
// equal: quantum answers strictly below their candidate, over all frames.
func gainShare(outcomes []fleet.Outcome) (share float64, gains int) {
	for i := range outcomes {
		if outcomes[i].Gain {
			gains++
		}
	}
	return float64(gains) / float64(len(outcomes)), gains
}

// rankSensitive reports whether n sorted latencies put the half-up p99
// rank round(0.99·n) and the nearest rank ⌈0.99·n⌉ on different values,
// so a surface on either rule would disagree with one on the other.
func rankSensitive(lat []float64) bool {
	n := len(lat)
	halfUp := max(1, min(int(0.99*float64(n)+0.5), n))
	ceil := max(1, min((99*n+99)/100, n))
	return halfUp != ceil && lat[halfUp-1] != lat[ceil-1]
}

// TestCrossSurfaceAgreement runs random fleet and C-RAN configurations,
// with queue bounds small enough to shed and enough frames that p99's
// rank rounding matters, and requires fleet.Report / cran.Report, the
// live SLO dashboard and an offline slo.Analyze of the exported trace
// to report the same served and shed counts, shed rate, p50, p99 and
// p99 queueing delay. Both reports must also give one quantum-gain
// share: fleet.Report's is its outcomes' share, and cran.Report's is its
// outcomes' share and the frame-weighted sum of its shards' fleet
// reports (router-shed frames never gain).
func TestCrossSurfaceAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	probs := testProblems(t)
	sensitive, shedding, gaining, echoing := 0, 0, 0, 0
	countGains := func(frames, gains int) {
		if gains > 0 {
			gaining++
		}
		if gains < frames {
			echoing++
		}
	}

	for run := 0; run < 10; run++ {
		streams := 2 + r.Intn(4)
		perStream := 60/streams + r.Intn(40)
		interval := 10 + 30*r.Float64()
		var reqs []fleet.Request
		for s := 0; s < streams; s++ {
			at := 0.0
			for q := 0; q < perStream; q++ {
				at += interval * r.ExpFloat64()
				p := probs[r.Intn(len(probs))]
				init := make([]int8, p.N)
				for i := range init {
					init[i] = int8(2*r.Intn(2) - 1)
				}
				reqs = append(reqs, fleet.Request{
					Stream: s, Seq: q, Arrival: at, NumReads: 2 + r.Intn(5),
					Problem: p, InitialState: init,
				})
			}
		}
		cfg := Config{Specs: DefaultSpecs(5000)}
		tr := telemetry.NewTracer()
		m := NewMonitor(cfg)
		tr.AddSink(m)
		res, err := fleet.Serve(context.Background(), fleet.Config{
			Devices:          logicalDevices(1 + r.Intn(3)),
			Policy:           fleet.Policy(r.Intn(3)),
			NumReads:         4,
			BatchMax:         1 + r.Intn(4),
			StreamQueueBound: 1 + r.Intn(3),
			Workers:          1 + r.Intn(4),
			Seed:             r.Uint64(),
			Trace:            tr,
		}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report
		label := fmt.Sprintf("fleet run %d (%d served, %d shed)", run, rep.Served, rep.Shed)
		// fleet.Report carries no shed rate; the dashboard's is Shed/Frames.
		checkSurfaces(t, label, surfaceFigures{rep.Served, rep.Shed, float64(rep.Shed) / float64(rep.Frames),
			rep.P50LatencyMicros, rep.P99LatencyMicros, rep.P99QueueMicros}, m, tr, cfg)
		share, gains := gainShare(res.Outcomes)
		if rep.QuantumGainShare != share {
			t.Errorf("%s: report quantum-gain share %g, outcomes %g", label, rep.QuantumGainShare, share)
		}
		countGains(rep.Frames, gains)

		var lat []float64
		for _, o := range res.Outcomes {
			if !o.Shed {
				lat = append(lat, o.Finish-o.Arrival)
			}
		}
		sort.Float64s(lat)
		if rankSensitive(lat) {
			sensitive++
		}
		if rep.Shed > 0 {
			shedding++
		}
	}

	for run := 0; run < 10; run++ {
		cells := 3 + r.Intn(6)
		perCell := 80/cells + r.Intn(30)
		interval := 10 + 40*r.Float64()
		var reqs []cran.Request
		for c := 0; c < cells; c++ {
			at := 0.0
			for q := 0; q < perCell; q++ {
				at += interval * r.ExpFloat64()
				p := probs[r.Intn(len(probs))]
				init := make([]int8, p.N)
				for i := range init {
					init[i] = int8(2*r.Intn(2) - 1)
				}
				reqs = append(reqs, cran.Request{
					Cell: c, UE: 0, Seq: q, Arrival: at, NumReads: 2 + r.Intn(5),
					Problem: p, InitialState: init,
				})
			}
		}
		shards := make([][]fleet.Device, 1+r.Intn(3))
		for s := range shards {
			shards[s] = logicalDevices(1 + r.Intn(2))
		}
		var admit float64
		if r.Intn(2) == 0 {
			admit = 50 + 200*r.Float64()
		}
		cfg := Config{Specs: DefaultSpecs(5000)}
		tr := telemetry.NewTracer()
		m := NewMonitor(cfg)
		tr.AddSink(m)
		res, err := cran.Serve(context.Background(), cran.Config{
			Shards: shards,
			Fleet: fleet.Config{
				NumReads:         4,
				BatchMax:         1 + r.Intn(4),
				StreamQueueBound: 1 + r.Intn(3),
				Workers:          1 + r.Intn(3),
			},
			AdmitQueueMicros: admit,
			ShardWorkers:     1 + r.Intn(3),
			Seed:             r.Uint64(),
			Trace:            tr,
		}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report
		label := fmt.Sprintf("cran run %d (%d served, %d shed)", run, rep.Served, rep.Shed)
		checkSurfaces(t, label, surfaceFigures{rep.Served, rep.Shed, rep.ShedRate,
			rep.P50LatencyMicros, rep.P99LatencyMicros, rep.P99QueueMicros}, m, tr, cfg)
		frames := make([]fleet.Outcome, len(res.Outcomes))
		for i, o := range res.Outcomes {
			frames[i] = o.Frame
		}
		share, gains := gainShare(frames)
		if rep.QuantumGainShare != share {
			t.Errorf("%s: report quantum-gain share %g, outcomes %g", label, rep.QuantumGainShare, share)
		}
		shardGains := 0.0
		for _, sr := range res.ShardReports {
			shardGains += sr.QuantumGainShare * float64(sr.Frames)
		}
		if math.Round(shardGains) != float64(gains) {
			t.Errorf("%s: shard reports count %g quantum gains, tier report %d", label, shardGains, gains)
		}
		countGains(rep.Frames, gains)

		var lat []float64
		for _, o := range res.Outcomes {
			if !o.Frame.Shed {
				lat = append(lat, o.Frame.Finish-o.Frame.Arrival)
			}
		}
		sort.Float64s(lat)
		if rankSensitive(lat) {
			sensitive++
		}
		if rep.Shed > 0 {
			shedding++
		}
	}

	// Without runs where the two rank rules pick different values, or
	// runs that shed, the comparisons above could not catch a surface
	// that rounds ranks or counts shed frames its own way; without runs
	// where some answers gain and some echo, one that miscounts gains.
	if sensitive < 4 || shedding < 10 || gaining < 10 || echoing < 10 {
		t.Fatalf("of 20 runs %d rank-sensitive, %d shedding, %d gaining, %d echoing; the battery has no teeth",
			sensitive, shedding, gaining, echoing)
	}
}
