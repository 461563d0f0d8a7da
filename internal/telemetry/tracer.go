// Package telemetry is the repository's observability layer: a span/event
// tracer keyed to the SIMULATED microsecond clock the annealer and
// fleet already account in, a metrics registry (counters, gauges,
// fixed-bucket histograms reusing metrics.Histogram) with Prometheus-text
// and JSON exposition, run manifests, machine-readable benchmark records,
// and a net/http/pprof helper.
//
// Two clocks exist in this system and the package keeps them separate by
// construction: trace spans and events carry *simulated* μs (the
// deterministic device/fleet timing model — the numbers TTS and
// deadline analyses are made of), while the run manifest records *wall*
// time (when the process ran, for provenance only). Nothing in this
// package feeds back into computation: telemetry consumes no RNG and
// every instrument is nil-safe, so a nil Tracer/Registry/Probe is an
// exact no-op and traced runs are bit-identical to untraced runs.
package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
)

// Record is one trace entry. Spans have T0 ≤ T1; events use only T0.
type Record struct {
	// Type is "span", "event", or "manifest".
	Type string `json:"type"`
	// Name identifies the span/event taxonomy node (e.g. "qpu/anneal",
	// "fleet/frame", "fleet/shed").
	Name string `json:"name,omitempty"`
	// T0 and T1 are simulated μs. Events carry only T0.
	T0 float64 `json:"t0_us"`
	T1 float64 `json:"t1_us,omitempty"`
	// Attrs carries structured details (read index, frame seq, fault
	// kind). Values should be deterministic (no wall times, no pointers).
	Attrs Attrs `json:"attrs,omitempty"`
	// Manifest is set only on the leading type:"manifest" record.
	Manifest *Manifest `json:"manifest,omitempty"`
}

// RecordSink receives every record a tracer collects, as it is emitted.
// Sinks are the tap the SLO monitor (internal/slo) hangs off: they observe
// the stream without touching it, so an attached sink can never perturb
// results or the exported trace. Records arrive in HOST-SCHEDULING order
// (parallel emitters interleave arbitrarily); a sink that needs the
// deterministic order must bucket by simulated time or sort with
// SortRecords on Finish, exactly as Records() does. Implementations must
// be safe for concurrent calls and must not mutate the record's Attrs.
type RecordSink interface {
	ObserveRecord(Record)
}

// Tracer collects spans and events concurrently and writes them as JSONL
// in a deterministic order. All methods are safe on a nil receiver (a nil
// tracer is a disabled tracer) and safe for concurrent use — the
// annealer's parallel read loop and the fleet's execute workers emit
// into one tracer.
type Tracer struct {
	mu       sync.Mutex
	manifest *Manifest
	records  RecordLog
	sinks    []RecordSink
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// SetManifest attaches the run manifest emitted as the first JSONL line.
func (t *Tracer) SetManifest(m *Manifest) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.manifest = m
	t.mu.Unlock()
}

// AddSink attaches a record sink. Sinks added mid-run see only records
// emitted after attachment; attach before the run for full coverage.
func (t *Tracer) AddSink(s RecordSink) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.mu.Unlock()
}

// add puts the record's attributes into key order, appends the record
// and forwards it to every sink.
func (t *Tracer) add(r Record) {
	r.Attrs = r.Attrs.normalize()
	t.mu.Lock()
	t.records.Append(r)
	sinks := t.sinks
	t.mu.Unlock()
	for _, s := range sinks {
		s.ObserveRecord(r)
	}
}

// Span records a [t0, t1] interval on the simulated clock. The tracer
// keeps attrs and sorts it by key in place; of two attributes with one
// key the later one is kept, as a map assignment would. Callers build
// attrs only when the tracer is non-nil.
func (t *Tracer) Span(name string, t0, t1 float64, attrs Attrs) {
	if t == nil {
		return
	}
	t.add(Record{Type: "span", Name: name, T0: t0, T1: t1, Attrs: attrs})
}

// Event records an instantaneous occurrence at simulated time at.
func (t *Tracer) Event(name string, at float64, attrs Attrs) {
	if t == nil {
		return
	}
	t.add(Record{Type: "event", Name: name, T0: at, Attrs: attrs})
}

// Len returns the number of collected records (0 for nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.records.Len()
}

// Records returns a deterministically ordered copy of the collected
// records. Parallel emitters append in host-scheduling order, so the copy
// is put into SortRecords order — the record SET is deterministic for a
// fixed seed, hence so is the sorted sequence.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	recs := t.records.snapshot()
	t.mu.Unlock()
	idx := order(recs.Len(), recs.At)
	out := make([]Record, len(idx))
	for i, k := range idx {
		out[i] = *recs.At(int(k.pos))
	}
	return out
}

// RecordLess is the trace's one record order: by T0, then Name, then the
// encoded Attrs (the JSON object of the JSONL line, or null for nil
// attrs). Attrs are encoded only when both T0 and Name tie, so almost
// every comparison is a float and a string compare.
func RecordLess(a, b Record) bool { return compareRecords(&a, &b) < 0 }

func compareRecords(a, b *Record) int {
	switch {
	case a.T0 < b.T0:
		return -1
	case a.T0 > b.T0:
		return 1
	case a.T0 != b.T0:
		// A NaN T0 is unordered against everything; the tie-breakers
		// below never apply to it.
		return 0
	}
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	var ba, bb [512]byte
	return bytes.Compare(attrsKey(ba[:0], a.Attrs), attrsKey(bb[:0], b.Attrs))
}

// attrsKey appends the bytes json.Marshal gives for the attributes as a
// map: null for nil, nothing on an encoding error.
func attrsKey(b []byte, as Attrs) []byte {
	if as == nil {
		return append(b, "null"...)
	}
	out, err := appendObject(b, as.sorted())
	if err != nil {
		return b
	}
	return out
}

// SortRecords stable-sorts recs in place into RecordLess order. It is the
// one ordering of trace records: the JSONL export, the SLO monitor and
// the offline trace parser all go through it, which is what makes a live
// and an offline analysis of the same run agree byte for byte.
func SortRecords(recs []Record) {
	sortInPlace(len(recs), func(i int) *Record { return &recs[i] })
}

// WriteJSONL writes the manifest (if set) followed by every record, one
// JSON object per line, in deterministic order. The manifest goes
// through encoding/json; every other line is appended by appendRecord,
// which writes the same bytes.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	m, recs := t.manifest, t.records.snapshot()
	t.mu.Unlock()
	buf := bytes.NewBuffer(make([]byte, 0, 64<<10))
	if m != nil {
		if err := json.NewEncoder(buf).Encode(Record{Type: "manifest", Manifest: m}); err != nil {
			return err
		}
	}
	b := buf.Bytes()
	for _, k := range order(recs.Len(), recs.At) {
		var err error
		if b, err = appendRecord(b, recs.At(int(k.pos))); err != nil {
			return err
		}
		if len(b) >= 32<<10 {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	if len(b) == 0 {
		return nil
	}
	_, err := w.Write(b)
	return err
}
