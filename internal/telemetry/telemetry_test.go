package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	// The whole design rests on nil instruments being exact no-ops: call
	// every method on nil receivers and require zero effect.
	var tr *Tracer
	tr.Span("x", 0, 1, nil)
	tr.Event("y", 2, nil)
	tr.SetManifest(&Manifest{})
	if tr.Len() != 0 || tr.Records() != nil {
		t.Fatal("nil tracer did something")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	var reg *Registry
	c := reg.Counter("a")
	g := reg.Gauge("b")
	h := reg.Histogram("c", 0, 1, 4)
	c.Inc()
	c.Add(3)
	g.Set(5)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h != nil {
		t.Fatal("nil-registry instruments recorded values")
	}
	if reg.Snapshot() != nil {
		t.Fatal("nil registry snapshot non-nil")
	}
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestTracerDeterministicOrder(t *testing.T) {
	// Emit the same record set in two different orders (as parallel reads
	// would); Records() and the JSONL bytes must be identical.
	emit := func(order []int) *Tracer {
		tr := NewTracer()
		for _, i := range order {
			tr.Span("qpu/anneal", float64(i), float64(i)+1, Attrs{Int("read", i)})
			tr.Event("fault", float64(i), Attrs{String("kind", "drift"), Int("read", i)})
		}
		return tr
	}
	a := emit([]int{0, 1, 2, 3})
	b := emit([]int{3, 1, 0, 2})
	var ja, jb bytes.Buffer
	if err := a.WriteJSONL(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	if ja.String() != jb.String() {
		t.Fatalf("emission order leaked into the trace:\n%s\nvs\n%s", ja.String(), jb.String())
	}
}

func TestTracerJSONLRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.SetManifest(&Manifest{Tool: "test", GoVersion: "go1.x"})
	tr.Span("qpu/anneal", 10, 12.5, Attrs{Int("read", 7)})
	tr.Event("deadline-miss", 99, nil)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	recs := make([]Record, 3)
	for i := range recs {
		if err := dec.Decode(&recs[i]); err != nil {
			t.Fatalf("record %d of manifest + span + event: %v", i, err)
		}
	}
	if dec.More() {
		t.Fatal("more records than manifest + span + event")
	}
	if recs[0].Type != "manifest" || recs[0].Manifest == nil || recs[0].Manifest.Tool != "test" {
		t.Fatalf("first line is not the manifest: %+v", recs[0])
	}
	if recs[1].Type != "span" || recs[1].Name != "qpu/anneal" || recs[1].T1-recs[1].T0 != 2.5 {
		t.Fatalf("span mangled: %+v", recs[1])
	}
	if recs[2].Type != "event" || recs[2].T0 != 99 {
		t.Fatalf("event mangled: %+v", recs[2])
	}
}

func TestTracerConcurrentEmission(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Span("s", float64(i), float64(i+1), Attrs{Int("w", w)})
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Fatalf("lost records: %d", tr.Len())
	}
}

// TestTracerExportWhileEmitting exports while emitters append: Records
// and WriteJSONL read the collected records outside the tracer's lock,
// which is safe only because an appended record never changes. Run it
// under -race.
func TestTracerExportWhileEmitting(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				tr.Event("e", float64(i), Attrs{Int("w", w), String("s", "x")})
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		n := tr.Len()
		if got := len(tr.Records()); got < n {
			t.Fatalf("Records returned %d records after Len %d", got, n)
		}
		if err := tr.WriteJSONL(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if tr.Len() != 12000 {
		t.Fatalf("lost records: %d", tr.Len())
	}
}

func TestRegistryCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reads_total", Label{"engine", "svmc"})
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if c.Value() != 5 {
		t.Fatalf("counter %v", c.Value())
	}
	// Same (name, labels) returns the same instrument.
	if reg.Counter("reads_total", Label{"engine", "svmc"}).Value() != 5 {
		t.Fatal("lookup did not return the existing counter")
	}
	// Different labels are a different series.
	if reg.Counter("reads_total", Label{"engine", "pimc"}).Value() != 0 {
		t.Fatal("label sets collided")
	}

	g := reg.Gauge("util")
	g.Set(0.75)
	if g.Value() != 0.75 {
		t.Fatalf("gauge %v", g.Value())
	}

	h := reg.Histogram("lat", 0, 100, 10)
	h.Observe(5)
	h.Observe(95)
	h.Observe(250) // clamps to last bucket
	h.Observe(math.NaN())
	if h.hist.Total != 3 {
		t.Fatalf("histogram count %d", h.hist.Total)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch accepted")
		}
	}()
	reg.Gauge("x")
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("faults_total", Label{"kind", "read-timeout"}).Add(3)
	reg.Counter("faults_total", Label{"kind", "drift"}).Add(1)
	reg.Gauge("util").Set(0.5)
	h := reg.Histogram("lat_us", 0, 10, 2)
	h.Observe(1) // bin [0,5)
	h.Observe(7) // bin [5,10)
	h.Observe(9)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE faults_total counter",
		`faults_total{kind="drift"} 1`,
		`faults_total{kind="read-timeout"} 3`,
		"# TYPE lat_us histogram",
		`lat_us_bucket{le="5"} 1`,
		`lat_us_bucket{le="10"} 3`, // cumulative
		`lat_us_bucket{le="+Inf"} 3`,
		"lat_us_sum 17",
		"lat_us_count 3",
		"# TYPE util gauge",
		"util 0.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE header per family, even with several label sets.
	if strings.Count(out, "# TYPE faults_total") != 1 {
		t.Fatalf("duplicate TYPE headers:\n%s", out)
	}
	// Deterministic: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := reg.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("prometheus exposition not deterministic")
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Add(2)
	reg.Histogram("h", 0, 4, 2).Observe(1)
	snap := reg.Snapshot()
	if snap["a"].Kind != "counter" || snap["a"].Value != 2 {
		t.Fatalf("counter snapshot %+v", snap["a"])
	}
	hs := snap["h"]
	if hs.Kind != "histogram" || hs.Count != 1 || hs.Sum != 1 || len(hs.Bins) != 2 || hs.Bins[0] != 1 {
		t.Fatalf("histogram snapshot %+v", hs)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind": "histogram"`) {
		t.Fatalf("JSON exposition: %s", buf.String())
	}
}

func TestNewManifestCapturesFlags(t *testing.T) {
	m := NewManifest("testtool")
	if m.Tool != "testtool" {
		t.Fatalf("tool %q", m.Tool)
	}
	if m.GoVersion == "" || m.Platform == "" || m.StartedAt == "" {
		t.Fatalf("manifest incomplete: %+v", m)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "testtool") {
		t.Fatalf("manifest JSON: %s", buf.String())
	}
}

func TestWriteBenchJSON(t *testing.T) {
	dir := t.TempDir()
	rec := BenchRecord{Name: "Figure 8/quick", NsPerOp: 1e6, Iterations: 3, Series: "rows"}
	if err := WriteBenchJSON(dir, rec); err != nil {
		t.Fatal(err)
	}
	// The name is sanitized for the filesystem.
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_Figure_8_quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, `"ns_per_op": 1000000`) || !strings.Contains(s, `"recorded_at"`) {
		t.Fatalf("bench record: %s", s)
	}
	if err := WriteBenchJSON(dir, BenchRecord{}); err == nil {
		t.Fatal("nameless record accepted")
	}
}

func TestStartPprofServes(t *testing.T) {
	addr, err := StartPprof("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint status %d", resp.StatusCode)
	}
}

// TestAttrAccessors: the typed accessors read back what the constructors
// wrote, Int truncates a float (a number read back from JSONL), and a
// missing key or a wrong kind reports not-found.
func TestAttrAccessors(t *testing.T) {
	as := Attrs{Bool("b", true), Float("f", 2.75), Int("i", 7), String("s", "x")}
	if v, ok := as.Num("i"); !ok || v != 7 {
		t.Fatalf("Num(i) = %v, %v", v, ok)
	}
	if v, ok := as.Num("f"); !ok || v != 2.75 {
		t.Fatalf("Num(f) = %v, %v", v, ok)
	}
	if v, ok := as.Int("i"); !ok || v != 7 {
		t.Fatalf("Int(i) = %v, %v", v, ok)
	}
	if v, ok := as.Int("f"); !ok || v != 2 {
		t.Fatalf("Int(f) = %v, %v", v, ok)
	}
	if v, ok := as.Str("s"); !ok || v != "x" {
		t.Fatalf("Str(s) = %q, %v", v, ok)
	}
	if !as.Bool("b") || as.Bool("s") || (Attrs{Bool("b", false)}).Bool("b") {
		t.Fatal("Bool reads only a true boolean")
	}
	for _, key := range []string{"s", "missing"} {
		if _, ok := as.Num(key); ok {
			t.Fatalf("Num(%s) found", key)
		}
		if _, ok := as.Int(key); ok {
			t.Fatalf("Int(%s) found", key)
		}
	}
	if _, ok := as.Str("i"); ok {
		t.Fatal("Str read an int")
	}
}

// recordCollector is a RecordSink that keeps what it is given.
type recordCollector struct {
	mu  sync.Mutex
	log RecordLog
}

func (c *recordCollector) ObserveRecord(r Record) {
	c.mu.Lock()
	c.log.Append(r)
	c.mu.Unlock()
}

// TestSinkSeesEveryRecord: an attached sink receives each record with its
// attributes in key order, and sorting what it got gives Records().
func TestSinkSeesEveryRecord(t *testing.T) {
	tr := NewTracer()
	tr.AddSink(nil) // ignored
	var c recordCollector
	tr.AddSink(&c)
	tr.Event("b", 2, Attrs{String("z", "last"), Int("a", 1)})
	tr.Span("a", 1, 3, nil)
	tr.Event("a", 1, nil)
	if c.log.Len() != 3 {
		t.Fatalf("sink saw %d records, want 3", c.log.Len())
	}
	if got := c.log.At(0).Attrs; got[0].Key != "a" || got[1].Key != "z" {
		t.Fatalf("sink attrs not in key order: %+v", got)
	}
	c.log.Sort()
	want := tr.Records()
	for i := range want {
		if got := c.log.At(i); got.Name != want[i].Name || got.Type != want[i].Type || got.T0 != want[i].T0 {
			t.Fatalf("record %d: sink %+v, tracer %+v", i, *got, want[i])
		}
	}
}
