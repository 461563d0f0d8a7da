package pipeline

// Pins for the pipeline's telemetry emission: tracing must not change
// the report (observation-only), stage spans must mirror the schedule
// recurrence exactly, and the counters must add up to the report's
// robustness accounting.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

func TestTracedScheduleIdenticalReport(t *testing.T) {
	run := func(tr *telemetry.Tracer, reg *telemetry.Registry) *Report {
		p := &Pipeline{Stages: []Stage{
			&fixedStage{name: "cpu", micros: 3},
			&fixedStage{name: "qpu", micros: 7},
		}, Trace: tr, Metrics: reg}
		frames := simpleFrames(20, 2, 50)
		out, err := p.Run(frames)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Schedule(out)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(nil, nil)
	traced := run(telemetry.NewTracer(), telemetry.NewRegistry())
	if !reflect.DeepEqual(plain, traced) {
		t.Fatal("tracing changed the report")
	}
}

func TestStageSpansMatchSchedule(t *testing.T) {
	tr := telemetry.NewTracer()
	reg := telemetry.NewRegistry()
	p := &Pipeline{Stages: []Stage{
		&fixedStage{name: "cpu", micros: 4},
		&fixedStage{name: "qpu", micros: 9},
	}, Trace: tr, Metrics: reg}
	const n = 12
	frames := simpleFrames(n, 1, 5) // tight deadline: most frames miss
	out, err := p.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Schedule(out)
	if err != nil {
		t.Fatal(err)
	}
	telemetrytest.CheckTrace(t, tr)

	// Index spans by (name, frame) and compare to the recurrence.
	type key struct {
		name  string
		frame int
	}
	spans := map[key]telemetry.Record{}
	misses := 0
	for _, r := range tr.Records() {
		switch {
		case strings.HasPrefix(r.Name, "stage/"):
			frame, ok := r.Attrs.Int("frame")
			if !ok {
				t.Fatalf("%s span without a frame attribute", r.Name)
			}
			spans[key{r.Name, frame}] = r
		case r.Name == "deadline-miss":
			misses++
		}
	}
	if len(spans) != 2*n {
		t.Fatalf("got %d stage spans, want %d", len(spans), 2*n)
	}
	for i, ft := range rep.Frames {
		for st, name := range rep.StageNames {
			r, ok := spans[key{"stage/" + name, ft.Seq}]
			if !ok {
				t.Fatalf("no span for stage %s frame %d", name, ft.Seq)
			}
			if r.T0 != ft.Start[st] || r.T1 != ft.Finish[st] {
				t.Fatalf("frame %d stage %s span [%v,%v] != schedule [%v,%v]",
					i, name, r.T0, r.T1, ft.Start[st], ft.Finish[st])
			}
		}
	}
	wantMisses := int(rep.DeadlineMissRate * float64(n))
	if misses != wantMisses {
		t.Fatalf("%d deadline-miss events, report says %d", misses, wantMisses)
	}
	if reg.Counter("pipeline_frames_total").Value() != n {
		t.Fatal("frame counter wrong")
	}
	if reg.Counter("pipeline_deadline_misses_total").Value() != float64(wantMisses) {
		t.Fatal("miss counter wrong")
	}
	if reg.Gauge("pipeline_throughput_fps").Value() != rep.ThroughputPerSecond {
		t.Fatal("throughput gauge wrong")
	}
	for st, name := range rep.StageNames {
		g := reg.Gauge("pipeline_stage_utilization", telemetry.Label{Key: "stage", Value: name})
		if g.Value() != rep.Utilization[st] {
			t.Fatalf("stage %s utilization gauge %v != %v", name, g.Value(), rep.Utilization[st])
		}
	}
}

func TestRetryEventsAndCounters(t *testing.T) {
	tr := telemetry.NewTracer()
	reg := telemetry.NewRegistry()
	fb := &stubFallback{micros: 1}
	p := &Pipeline{Stages: []Stage{&Retry{
		Stage:         &flakyStage{micros: 2, failuresFor: map[int]int{0: 1, 2: 5}},
		MaxAttempts:   3,
		BackoffMicros: 4,
		Fallback:      fb,
		Trace:         tr,
	}}, Trace: tr, Metrics: reg}
	frames := simpleFrames(4, 1, 0)
	out, err := p.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Schedule(out)
	if err != nil {
		t.Fatal(err)
	}
	telemetrytest.CheckTrace(t, tr)
	// Frame 0 recovers on its 2nd attempt; frame 2 exhausts 3 attempts and
	// falls back; frames 1 and 3 pass clean.
	names := map[string]int{}
	for _, r := range tr.Records() {
		names[r.Name]++
	}
	if names["retry/attempt"] != 3 { // frame 0: 1 retry, frame 2: 2 retries
		t.Fatalf("retry/attempt events %d, want 3 (trace: %v)", names["retry/attempt"], names)
	}
	if names["retry/fault"] != 4 { // frame 0: 1 fault, frame 2: 3 faults
		t.Fatalf("retry/fault events %d, want 4", names["retry/fault"])
	}
	if names["retry/fallback"] != 1 {
		t.Fatalf("retry/fallback events %d, want 1", names["retry/fallback"])
	}
	if got := reg.Counter("pipeline_retries_total").Value(); got != float64(rep.Retries) {
		t.Fatalf("retries counter %v != report %d", got, rep.Retries)
	}
	if got := reg.Counter("pipeline_fallbacks_total").Value(); got != float64(rep.Fallbacks) {
		t.Fatalf("fallbacks counter %v != report %d", got, rep.Fallbacks)
	}
	if got := reg.Counter("pipeline_backoff_micros_total").Value(); got != rep.BackoffMicros {
		t.Fatalf("backoff counter %v != report %v", got, rep.BackoffMicros)
	}
}
