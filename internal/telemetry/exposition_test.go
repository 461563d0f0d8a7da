package telemetry

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// Exposition edge cases: the validation harness and the CI artifact
// upload both consume these renderings, so the degenerate shapes must
// stay well-formed rather than merely not crashing.

func TestWritePrometheusEmptyRegistry(t *testing.T) {
	var sb strings.Builder
	if err := NewRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "" {
		t.Fatalf("empty registry rendered %q, want no output", sb.String())
	}
	var nilReg *Registry
	if err := nilReg.WritePrometheus(&sb); err != nil || sb.String() != "" {
		t.Fatalf("nil registry must be a no-op, got %q (err %v)", sb.String(), err)
	}
}

func TestWritePrometheusZeroObservationHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("anneal_latency_us", 0, 100, 4, Label{Key: "device", Value: "qpu-0"})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE anneal_latency_us histogram",
		`anneal_latency_us_bucket{device="qpu-0",le="+Inf"} 0`,
		`anneal_latency_us_sum{device="qpu-0"} 0`,
		`anneal_latency_us_count{device="qpu-0"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Every cumulative bucket of an empty histogram is zero.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Contains(line, "_bucket") && !strings.HasSuffix(line, " 0") {
			t.Errorf("non-zero bucket in empty histogram: %q", line)
		}
	}
}

// Label values containing quotes, backslashes, and newlines must render
// through %q escaping without breaking the line-oriented format.
func TestWritePrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total", Label{Key: "stream", Value: `a"b\c`}).Inc()
	r.Counter("frames_total", Label{Key: "stream", Value: "line1\nline2"}).Add(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `stream="a\"b\\c"`) {
		t.Errorf("quote/backslash escaping missing in:\n%s", out)
	}
	if !strings.Contains(out, `stream="line1\nline2"`) {
		t.Errorf("newline escaping missing in:\n%s", out)
	}
	// The exposition format is one sample per line: 2 samples + 1 TYPE
	// header, regardless of what the label values contain.
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 3 {
		t.Errorf("label content broke line framing (%d lines):\n%s", len(lines), out)
	}
}

func TestWritePrometheusLabelSortingAndMerge(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", 0, 10, 2, Label{Key: "z", Value: "1"}, Label{Key: "a", Value: "2"}).Observe(5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `h_bucket{a="2",z="1",le="+Inf"} 1`) {
		t.Errorf("le label not merged into sorted label set:\n%s", out)
	}
}

func TestWriteJSONEmptyAndNil(t *testing.T) {
	var sb strings.Builder
	if err := NewRegistry().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var got map[string]MetricSnapshot
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("empty registry rendered invalid JSON %q: %v", sb.String(), err)
	}
	if len(got) != 0 {
		t.Fatalf("empty registry rendered %d series", len(got))
	}
	var nilReg *Registry
	if snap := nilReg.Snapshot(); snap != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

func TestSnapshotZeroObservationHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty_h", 0, 1, 3)
	snap := r.Snapshot()
	s, ok := snap["empty_h"]
	if !ok {
		t.Fatal("registered histogram missing from snapshot")
	}
	if s.Count != 0 || s.Sum != 0 || len(s.Bins) != 3 {
		t.Fatalf("zero-observation snapshot malformed: %+v", s)
	}
}

// fmtSeriesKey is the series-key renderer the registry first shipped
// with (fmt %q per label, reflective sort, strings.Join), kept as the
// specification appendSeriesKey must reproduce byte for byte.
func fmtSeriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

func TestSeriesKeyMatchesFmtRendering(t *testing.T) {
	keys := []string{"shard", "device", "kind", "le", "a", "z"}
	values := []string{"", "s0", `a"b\c`, "line1\nline2", "tab\there", "é", "\x00\x7f", "\xff\xfe", "日本", strings.Repeat("v", 200)}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		labels := make([]Label, r.Intn(13))
		for i := range labels {
			labels[i] = Label{Key: keys[r.Intn(len(keys))], Value: values[r.Intn(len(values))]}
		}
		given := append([]Label(nil), labels...)
		if got, want := string(appendSeriesKey(nil, "fleet_frames_total", labels)), fmtSeriesKey("fleet_frames_total", labels); got != want {
			t.Fatalf("labels %q: key %q, want %q", labels, got, want)
		}
		if !slices.Equal(labels, given) {
			t.Fatalf("appendSeriesKey reordered the caller's labels: %q", labels)
		}
	}
}

// TestRegistryLookupAllocs pins the hot metric-lookup path: an existing
// series found through an unsorted two-label set allocates nothing (the
// sorted copy and the key are built on the stack).
func TestRegistryLookupAllocs(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("fleet_frames_total", Label{"shard", "s1"}, Label{"device", "3"})
	allocs := testing.AllocsPerRun(100, func() {
		reg.Counter("fleet_frames_total", Label{"shard", "s1"}, Label{"device", "3"}).Inc()
	})
	if allocs > 0 {
		t.Fatalf("counter lookup: %.0f allocs, want 0", allocs)
	}
}
