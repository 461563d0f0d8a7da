package annealer

// Regression pins for the telemetry layer's two load-bearing guarantees:
// (1) tracing/probing is observation-only — a fully instrumented run's
// samples are bit-identical to an uninstrumented run's, at any
// parallelism; (2) a traced batch's qpu/* span durations sum exactly to
// the device timing model's programming + N×(anneal + readout) budget,
// the same number QPU.ServiceTime reports.

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

// instrumented returns Params with every telemetry hook wired.
func instrumented(p Params) (Params, *telemetry.Tracer, *telemetry.Registry) {
	tr := telemetry.NewTracer()
	reg := telemetry.NewRegistry()
	p.Trace = tr
	p.Metrics = reg
	p.Probe = &MetricsProbe{Trace: tr, Metrics: reg, Engine: "test"}
	return p, tr, reg
}

func TestTracedRunBitIdentical(t *testing.T) {
	is := frustrated(10, 123)
	for _, engine := range []Engine{SVMC{}, SVMC{TFMoves: true}, PIMC{}} {
		for _, par := range []int{1, 4} {
			sc, _ := Forward(1, 0.41, 1)
			base := Params{Schedule: sc, NumReads: 16, Engine: engine,
				SweepsPerMicrosecond: 50, Parallelism: par,
				Faults: FaultModel{ReadTimeoutRate: 0.1, CalibrationDriftRate: 0.1}}
			plain, err := Run(is, base, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			traced, tr, reg := instrumented(base)
			traced.Timing = &DeviceTiming{ProgrammingMicros: 100, ReadoutMicros: 10}
			got, err := Run(is, traced, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Samples) != len(plain.Samples) {
				t.Fatalf("%s par=%d: sample count changed under tracing", engine.Name(), par)
			}
			for i := range plain.Samples {
				if plain.Samples[i].Energy != got.Samples[i].Energy ||
					!spinsEqual(plain.Samples[i].Spins, got.Samples[i].Spins) {
					t.Fatalf("%s par=%d: read %d diverged under tracing", engine.Name(), par, i)
				}
			}
			if tr.Len() == 0 || reg.Counter("annealer_reads_issued_total").Value() != 16 {
				t.Fatalf("%s par=%d: telemetry not actually collected", engine.Name(), par)
			}
			telemetrytest.CheckTrace(t, tr)
		}
	}
}

func TestTracedRunDeterministicTrace(t *testing.T) {
	// Two runs at different parallelism levels must produce byte-identical
	// traces: the record set is seed-determined and Records() orders it.
	is := frustrated(10, 55)
	sc, _ := Reverse(0.45, 1)
	init := make([]int8, is.N)
	for i := range init {
		init[i] = 1
	}
	trace := func(par int) []telemetry.Record {
		p, tr, _ := instrumented(Params{Schedule: sc, InitialState: init,
			NumReads: 12, SweepsPerMicrosecond: 40, Parallelism: par})
		p.Timing = &DeviceTiming{ProgrammingMicros: 50, ReadoutMicros: 5}
		if _, err := Run(is, p, rng.New(3)); err != nil {
			t.Fatal(err)
		}
		return tr.Records()
	}
	a, b := trace(1), trace(8)
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Type != b[i].Type || a[i].Name != b[i].Name ||
			a[i].T0 != b[i].T0 || a[i].T1 != b[i].T1 {
			t.Fatalf("record %d differs across parallelism: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSpanDurationsSumToServiceTime(t *testing.T) {
	// The acceptance invariant: per-read span durations (programming +
	// anneals + readouts) sum to the QPU's service-time budget — including
	// reads lost to injected timeouts, which still occupy the device.
	is := ferroChain(8)
	sc, _ := Forward(1, 0.5, 1)
	q := NewQPU2000Q()
	const reads = 20
	tr := telemetry.NewTracer()
	p := Params{Schedule: sc, NumReads: reads, SweepsPerMicrosecond: 30,
		Trace: tr, Faults: FaultModel{ReadTimeoutRate: 0.2}}
	res, err := q.Run(is, p, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.ReadTimeouts == 0 {
		t.Fatal("want some injected timeouts for this pin; raise the rate")
	}
	telemetrytest.CheckTrace(t, tr)
	var sum float64
	counts := map[string]int{}
	for _, r := range tr.Records() {
		switch r.Name {
		case "qpu/program", "qpu/anneal", "qpu/readout":
			sum += r.T1 - r.T0
			counts[r.Name]++
		}
	}
	if counts["qpu/program"] != 1 || counts["qpu/anneal"] != reads || counts["qpu/readout"] != reads {
		t.Fatalf("span counts %v, want 1 program + %d anneal + %d readout", counts, reads, reads)
	}
	want := q.ServiceTime(sc, reads)
	if math.Abs(sum-want) > 1e-6*want {
		t.Fatalf("span durations sum to %v, want ServiceTime %v", sum, want)
	}
}

func TestProbeSeesEverySweep(t *testing.T) {
	// A counting probe must observe reads × sweeps observations with the
	// right read stamps, for both engines.
	is := ferroChain(6)
	sc, _ := Forward(1, 0.5, 1)
	for _, engine := range []Engine{SVMC{}, PIMC{}} {
		var obs []SweepObservation
		probe := probeFunc(func(ob SweepObservation) { obs = append(obs, ob) })
		p := Params{Schedule: sc, NumReads: 3, Engine: engine,
			SweepsPerMicrosecond: 10, Probe: probe}
		if _, err := Run(is, p, rng.New(2)); err != nil {
			t.Fatal(err)
		}
		if len(obs) == 0 {
			t.Fatalf("%s: probe never fired", engine.Name())
		}
		perRead := map[int]int{}
		for _, ob := range obs {
			perRead[ob.Read]++
			if ob.S < 0 || ob.S > 1 {
				t.Fatalf("%s: s(t) = %v out of [0,1]", engine.Name(), ob.S)
			}
			if ob.Proposed <= 0 || ob.Accepted < 0 || ob.Accepted > ob.Proposed {
				t.Fatalf("%s: acceptance counts %d/%d", engine.Name(), ob.Accepted, ob.Proposed)
			}
			if math.IsNaN(ob.Energy) {
				t.Fatalf("%s: NaN probe energy", engine.Name())
			}
		}
		if len(perRead) != 3 {
			t.Fatalf("%s: observations from %d reads, want 3", engine.Name(), len(perRead))
		}
		if _, ok := engine.(PIMC); ok && obs[0].ReplicaEnergies == nil {
			t.Fatal("PIMC probe missing replica energies")
		}
	}
}

// probeFunc adapts a function to the Probe interface (serial tests only).
type probeFunc func(SweepObservation)

func (f probeFunc) ObserveSweep(ob SweepObservation) { f(ob) }

func TestHardFaultCounted(t *testing.T) {
	is := ferroChain(6)
	sc, _ := Forward(1, 0.5, 1)
	tr := telemetry.NewTracer()
	reg := telemetry.NewRegistry()
	p := Params{Schedule: sc, NumReads: 4, Trace: tr, Metrics: reg,
		Faults: FaultModel{ProgrammingFailureRate: 1}}
	if _, err := Run(is, p, rng.New(1)); err == nil {
		t.Fatal("want programming failure")
	}
	kind := telemetry.Label{Key: "kind", Value: FaultProgramming.String()}
	if reg.Counter("annealer_faults_total", kind).Value() != 1 {
		t.Fatal("programming failure not counted")
	}
	recs := tr.Records()
	if len(recs) != 1 || recs[0].Name != "fault" {
		t.Fatalf("want one fault event, got %+v", recs)
	}
}

// BenchmarkAnnealBaseline and BenchmarkAnnealTelemetryOff measure the
// acceptance criterion that disabled telemetry (nil hooks) costs < 2% on
// the hot path: the only difference between the two is that the second
// goes through Params fields explicitly set to nil — the exact code path
// instrumented callers take when tracing is off.
func BenchmarkAnnealBaseline(b *testing.B) {
	benchmarkAnneal(b, Params{})
}

func BenchmarkAnnealTelemetryOff(b *testing.B) {
	benchmarkAnneal(b, Params{Trace: nil, Metrics: nil, Probe: nil, Timing: nil})
}

// BenchmarkAnnealTelemetryOn quantifies the cost of full instrumentation
// (tracer + registry + per-sweep probe) for comparison; it is allowed to
// be slower.
func BenchmarkAnnealTelemetryOn(b *testing.B) {
	tr := telemetry.NewTracer()
	reg := telemetry.NewRegistry()
	benchmarkAnneal(b, Params{Trace: tr, Metrics: reg,
		Probe:  &MetricsProbe{Trace: tr, Metrics: reg, Engine: "svmc"},
		Timing: &DeviceTiming{ProgrammingMicros: 100, ReadoutMicros: 10}})
}

func benchmarkAnneal(b *testing.B, p Params) {
	is := frustrated(16, 7)
	sc, _ := Forward(1, 0.41, 1)
	p.Schedule = sc
	p.NumReads = 50
	p.SweepsPerMicrosecond = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(is, p, rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}
