package slo

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/annealer"
	"repro/internal/cran"
	"repro/internal/fleet"
	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/telemetry"
)

var (
	problemOnce sync.Once
	problemPool []*qubo.Ising
)

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

func uniformRequests(t testing.TB, streams, perStream int, interval, deadline float64) []fleet.Request {
	t.Helper()
	probs := testProblems(t)
	var reqs []fleet.Request
	for s := 0; s < streams; s++ {
		for q := 0; q < perStream; q++ {
			p := probs[(s*perStream+q)%len(probs)]
			init := make([]int8, p.N)
			for i := range init {
				init[i] = 1
			}
			reqs = append(reqs, fleet.Request{
				Stream: s, Seq: q,
				Arrival:      float64(q) * interval,
				Deadline:     deadline,
				Problem:      p,
				InitialState: init,
			})
		}
	}
	return reqs
}

func logicalDevices(n int) []fleet.Device {
	devs := make([]fleet.Device, n)
	for i := range devs {
		devs[i].SweepsPerMicrosecond = 30
	}
	return devs
}

func traceJSONL(t *testing.T, tr *telemetry.Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMonitorDoesNotPerturbFleet is the acceptance regression: a fleet
// run with a Monitor tapping the tracer must produce bit-identical
// outcomes AND a bit-identical exported trace versus the same run
// without monitoring.
func TestMonitorDoesNotPerturbFleet(t *testing.T) {
	reqs := uniformRequests(t, 3, 6, 120, 0)
	run := func(attach bool) (*fleet.Result, []byte, *Monitor) {
		tr := telemetry.NewTracer()
		var m *Monitor
		if attach {
			m = NewMonitor(Config{Specs: DefaultSpecs(5000)})
			tr.AddSink(m)
		}
		res, err := fleet.Serve(context.Background(), fleet.Config{
			Devices: logicalDevices(2), NumReads: 4, Seed: 42, Trace: tr,
		}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res, traceJSONL(t, tr), m
	}
	plain, plainTrace, _ := run(false)
	monitored, monTrace, m := run(true)
	if !reflect.DeepEqual(plain.Outcomes, monitored.Outcomes) {
		t.Fatal("outcomes changed with monitoring attached")
	}
	if !bytes.Equal(plainTrace, monTrace) {
		t.Fatal("exported trace changed with monitoring attached")
	}
	snap, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Tier.Served != len(reqs) || snap.Tier.Answers != len(reqs) {
		t.Fatalf("snapshot totals: %+v for %d requests", snap.Tier, len(reqs))
	}
}

// TestMonitorDoesNotPerturbCRAN: same regression one level up, with
// shard labels in every record.
func TestMonitorDoesNotPerturbCRAN(t *testing.T) {
	probs := testProblems(t)
	var reqs []cran.Request
	for cell := 0; cell < 4; cell++ {
		for q := 0; q < 4; q++ {
			p := probs[(cell+q)%len(probs)]
			init := make([]int8, p.N)
			for i := range init {
				init[i] = 1
			}
			reqs = append(reqs, cran.Request{
				Cell: cell, UE: 0, Seq: q,
				Arrival: float64(q) * 150, Problem: p, InitialState: init,
			})
		}
	}
	run := func(attach bool) (*cran.Result, []byte, *Monitor) {
		tr := telemetry.NewTracer()
		var m *Monitor
		if attach {
			m = NewMonitor(Config{Specs: DefaultSpecs(5000)})
			tr.AddSink(m)
		}
		res, err := cran.Serve(context.Background(), cran.Config{
			Shards: [][]fleet.Device{logicalDevices(2), logicalDevices(2)},
			Fleet:  fleet.Config{NumReads: 4},
			Seed:   7, Trace: tr,
		}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res, traceJSONL(t, tr), m
	}
	plain, plainTrace, _ := run(false)
	monitored, monTrace, m := run(true)
	if !reflect.DeepEqual(plain.Outcomes, monitored.Outcomes) {
		t.Fatal("cran outcomes changed with monitoring attached")
	}
	if !bytes.Equal(plainTrace, monTrace) {
		t.Fatal("cran exported trace changed with monitoring attached")
	}
	snap, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Shards) == 0 {
		t.Fatal("no per-shard SLIs from a sharded run")
	}
	for _, s := range snap.Shards {
		if s.Scope == "" {
			t.Fatalf("unlabelled shard scope in %+v", snap.Shards)
		}
	}
}

// TestOfflineAnalysisMatchesLive: analyzing the exported JSONL must
// reproduce the live monitor's snapshot exactly — the slotool path and
// the in-process path are the same computation.
func TestOfflineAnalysisMatchesLive(t *testing.T) {
	reqs := uniformRequests(t, 4, 6, 100, 0)
	tr := telemetry.NewTracer()
	cfg := Config{Specs: DefaultSpecs(4000)}
	m := NewMonitor(cfg)
	tr.AddSink(m)
	if _, err := fleet.Serve(context.Background(), fleet.Config{
		Devices: logicalDevices(3), NumReads: 4, Seed: 9, Trace: tr,
	}, reqs); err != nil {
		t.Fatal(err)
	}
	live, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}

	recs, stats, err := ParseTrace(bytes.NewReader(traceJSONL(t, tr)), true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 0 || stats.Duplicates != 0 {
		t.Fatalf("clean trace parsed dirty: %+v", stats)
	}
	offline, err := Analyze(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, offline) {
		t.Fatalf("offline analysis diverged from live:\nlive:    %+v\noffline: %+v", live.Tier, offline.Tier)
	}

	var dashLive, dashOffline bytes.Buffer
	if err := live.WriteDashboard(&dashLive); err != nil {
		t.Fatal(err)
	}
	if err := offline.WriteDashboard(&dashOffline); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dashLive.Bytes(), dashOffline.Bytes()) {
		t.Fatal("dashboards diverged")
	}
}

// TestCriticalPathTilesLatency: on a real fleet trace, every served
// frame's critical-path components must sum to its latency.
func TestCriticalPathTilesLatency(t *testing.T) {
	reqs := uniformRequests(t, 3, 8, 80, 0)
	tr := telemetry.NewTracer()
	if _, err := fleet.Serve(context.Background(), fleet.Config{
		Devices: logicalDevices(2), NumReads: 4, Seed: 5, Trace: tr,
	}, reqs); err != nil {
		t.Fatal(err)
	}
	snap, err := Analyze(tr.Records(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	paths := snap.Frames
	if len(paths) != len(reqs) {
		t.Fatalf("%d paths for %d served frames", len(paths), len(reqs))
	}
	for _, fp := range paths {
		sum := fp.Queue + fp.Program + fp.BatchWait + fp.Anneal + fp.Readout
		if math.Abs(sum-fp.Latency) > 1e-6*(1+fp.Latency) {
			t.Fatalf("frame (%d,%d): components %g != latency %g (%+v)",
				fp.Stream, fp.Seq, sum, fp.Latency, fp)
		}
		if fp.Latency <= 0 || fp.Dominant == "" {
			t.Fatalf("degenerate path %+v", fp)
		}
	}
}

// driftRequests builds a two-phase load: a light warmup, then a burst
// arriving faster than the pool drains, pushing queue delay (and thus
// latency) far past the warmup level.
func driftRequests(t testing.TB, streams, warm, burst int, warmGap float64) []fleet.Request {
	t.Helper()
	probs := testProblems(t)
	var reqs []fleet.Request
	for s := 0; s < streams; s++ {
		for q := 0; q < warm+burst; q++ {
			arrival := float64(q) * warmGap
			if q >= warm {
				// Burst: everything lands just after the warmup.
				arrival = float64(warm)*warmGap + float64(q-warm)*5
			}
			p := probs[(s+q)%len(probs)]
			init := make([]int8, p.N)
			for i := range init {
				init[i] = 1
			}
			reqs = append(reqs, fleet.Request{
				Stream: s, Seq: q, Arrival: arrival,
				Problem: p, InitialState: init,
			})
		}
	}
	return reqs
}

// TestDriftInjectionSelfTest is the acceptance self-test: one device
// carries heavy injected calibration drift; the health scorer must flag
// exactly that device, and the overload-induced latency breach must walk
// the p99 burn-rate alert through firing.
func TestDriftInjectionSelfTest(t *testing.T) {
	devs := logicalDevices(3)
	devs[1].Faults = annealer.FaultModel{CalibrationDriftRate: 0.95, DriftSigma: 0.8}
	reqs := driftRequests(t, 4, 10, 20, 400)

	tr := telemetry.NewTracer()
	// Threshold between warmup latency and burst latency; tick sized so
	// the burst spans several ticks.
	cfg := Config{
		TickMicros: 100,
		Specs: []Spec{{
			Name: "frame-p99-latency", Kind: KindLatency,
			LatencyMicros: 60, Budget: 0.01,
			FastTicks: 2, SlowTicks: 8, FastBurn: 10, SlowBurn: 5, MinEvents: 10,
		}},
	}
	m := NewMonitor(cfg)
	tr.AddSink(m)
	if _, err := fleet.Serve(context.Background(), fleet.Config{
		Devices: devs, NumReads: 4, Seed: 17, Trace: tr,
	}, reqs); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Health: device 1 (and only device 1) is the outlier.
	if len(snap.Devices) != 3 {
		t.Fatalf("scored %d devices, want 3: %+v", len(snap.Devices), snap.Devices)
	}
	for _, h := range snap.Devices {
		if h.Device == 1 {
			if !h.Suspect {
				t.Fatalf("drifting device not flagged: %+v", snap.Devices)
			}
			if h.Score >= 0.5 {
				t.Fatalf("drifting device score %g too healthy", h.Score)
			}
		} else if h.Suspect {
			t.Fatalf("healthy device %d flagged: %+v", h.Device, h)
		}
	}

	// Alerting: the latency SLO must fire and eventually leave firing.
	fired := false
	for _, tr := range snap.Alerts {
		if tr.SLO == "frame-p99-latency" && tr.To == StateFiring {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("p99 alert never fired; alerts: %+v, tier %+v", snap.Alerts, snap.Tier)
	}
}

// TestCellBucketingMatchesCranStreamID pins the monitor's stream→cell
// decoding to cran's stream packing: every frame span lands in the
// per-cell table of the cell its packed stream id came from.
func TestCellBucketingMatchesCranStreamID(t *testing.T) {
	if uesPerCell != cran.MaxUEsPerCell {
		t.Fatalf("cell bucketing divides by %d, cran packs %d UEs per cell", uesPerCell, cran.MaxUEsPerCell)
	}
	cells := []int{0, 3, 7}
	var recs []telemetry.Record
	for i, cell := range cells {
		for _, ue := range []int{0, cran.MaxUEsPerCell - 1} {
			recs = append(recs, telemetry.Record{
				Type: "span", Name: "fleet/frame", T0: float64(10 * i), T1: float64(10*i + 5),
				Attrs: telemetry.Attrs{telemetry.Int("stream", cran.StreamID(cell, ue)), telemetry.Int("seq", 0)},
			})
		}
	}
	snap, err := Analyze(recs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, c := range snap.Cells {
		got = append(got, c.Cell)
	}
	if !reflect.DeepEqual(got, cells) {
		t.Fatalf("per-cell table lists cells %v, want %v", got, cells)
	}
}
