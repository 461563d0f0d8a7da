package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/slo"
	"repro/internal/telemetry"
)

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := &Logger{Tool: "tool", Out: &buf}

	l.Infof("hello %d", 1)
	l.Debugf("hidden")
	if got := buf.String(); got != "tool: hello 1\n" {
		t.Fatalf("info output %q", got)
	}

	buf.Reset()
	l.Level = Debug
	l.Debugf("now visible")
	if !strings.Contains(buf.String(), "tool: now visible") {
		t.Fatalf("debug output %q", buf.String())
	}

	buf.Reset()
	l.Level = Quiet
	l.Infof("suppressed")
	l.Debugf("suppressed")
	if buf.Len() != 0 {
		t.Fatalf("quiet logger printed %q", buf.String())
	}
}

func TestLoggerSetVerbose(t *testing.T) {
	l := New("x")
	l.SetVerbose(false)
	if l.Level != Info {
		t.Fatal("SetVerbose(false) changed the level")
	}
	l.SetVerbose(true)
	if l.Level != Debug {
		t.Fatal("SetVerbose(true) did not raise to Debug")
	}
	// Quiet is never overridden downward, only raised explicitly.
	l.Level = Quiet
	l.SetVerbose(true)
	if l.Level != Debug {
		t.Fatal("SetVerbose should raise even from Quiet")
	}
}

func TestTelemetryLifecycle(t *testing.T) {
	dir := t.TempDir()
	tel := &Telemetry{
		traceOut:    filepath.Join(dir, "trace.jsonl"),
		metricsOut:  filepath.Join(dir, "metrics.prom"),
		manifestOut: filepath.Join(dir, "manifest.json"),
	}
	log := &Logger{Tool: "test", Out: &bytes.Buffer{}}
	if err := tel.Start("test", log); err != nil {
		t.Fatal(err)
	}
	if tel.Tracer == nil || tel.Registry == nil || tel.Manifest == nil {
		t.Fatal("Start did not allocate requested sinks")
	}
	tel.Tracer.Span("qpu/anneal", 0, 2, nil)
	tel.Registry.Counter("reads_total").Add(5)
	if err := tel.Flush(log); err != nil {
		t.Fatal(err)
	}

	trace, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := slo.ParseTrace(bytes.NewReader(trace), true)
	if err != nil {
		t.Fatal(err)
	}
	// Manifest line + span.
	if len(recs) != 2 || recs[0].Type != "manifest" || recs[1].Name != "qpu/anneal" {
		t.Fatalf("trace records %+v", recs)
	}

	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "reads_total 5") {
		t.Fatalf("prometheus snapshot: %s", prom)
	}

	manifest, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(manifest), `"tool": "test"`) {
		t.Fatalf("manifest: %s", manifest)
	}
}

func TestTelemetryJSONMetricsByExtension(t *testing.T) {
	dir := t.TempDir()
	tel := &Telemetry{metricsOut: filepath.Join(dir, "metrics.json")}
	log := &Logger{Tool: "test", Out: &bytes.Buffer{}}
	if err := tel.Start("test", log); err != nil {
		t.Fatal(err)
	}
	tel.Registry.Gauge("util").Set(0.5)
	if err := tel.Flush(log); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind": "gauge"`) {
		t.Fatalf("json snapshot: %s", data)
	}
}

// TestTelemetrySLOReport: -slo-report alone must allocate a tracer (the
// monitor needs the record stream even when no trace file is written),
// tap it with a Monitor, and render the dashboard at Flush.
func TestTelemetrySLOReport(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "slo.txt")
	tel := &Telemetry{sloOut: out, sloDeadline: 100}
	log := &Logger{Tool: "test", Out: &bytes.Buffer{}}
	if err := tel.Start("test", log); err != nil {
		t.Fatal(err)
	}
	if tel.Tracer == nil || tel.Monitor == nil {
		t.Fatal("Start did not allocate tracer + monitor for -slo-report")
	}
	// A minimal served frame so the dashboard has service levels.
	tel.Tracer.Span("fleet/frame", 0, 50, telemetry.Attrs{
		telemetry.Int("stream", 0), telemetry.Int("seq", 0), telemetry.Int("device", 0),
		telemetry.Int("batch", 0), telemetry.Int("attempts", 1),
		telemetry.Float("queue_us", 5), telemetry.Int("reads", 4),
	})
	tel.Tracer.Event("fleet/answer", 50, telemetry.Attrs{
		telemetry.Int("stream", 0), telemetry.Int("seq", 0), telemetry.Int("device", 0),
		telemetry.String("source", "quantum"),
	})
	if tel.Monitor.Len() != 2 {
		t.Fatalf("monitor buffered %d records, want 2", tel.Monitor.Len())
	}
	if err := tel.Flush(log); err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SLO dashboard", "service levels", "tier"} {
		if !strings.Contains(string(report), want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	// No -trace-out: the trace file must not appear.
	if _, err := os.Stat(filepath.Join(dir, "trace.jsonl")); !os.IsNotExist(err) {
		t.Fatal("trace file written without -trace-out")
	}
}

func TestTelemetryDisabledIsFreeOfSideEffects(t *testing.T) {
	tel := &Telemetry{}
	log := &Logger{Tool: "test", Out: &bytes.Buffer{}}
	if err := tel.Start("test", log); err != nil {
		t.Fatal(err)
	}
	if tel.Tracer != nil || tel.Registry != nil {
		t.Fatal("sinks allocated without output flags")
	}
	if err := tel.Flush(log); err != nil {
		t.Fatal(err)
	}
}
