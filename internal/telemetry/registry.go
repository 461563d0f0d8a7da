package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// Label is one metric dimension (e.g. {"kind", "read-timeout"}).
type Label struct {
	Key, Value string
}

// appendSeriesKey appends the family name followed by the
// Prometheus-style {k="v",...} label suffix, keys sorted (labels sharing
// a key keep their given order), or the bare name for no labels. Values
// are quoted by strconv, which is what %q does for strings.
func appendSeriesKey(b []byte, name string, labels []Label) []byte {
	b = append(b, name...)
	if len(labels) == 0 {
		return b
	}
	byKey := func(a, b Label) int { return strings.Compare(a.Key, b.Key) }
	if !slices.IsSortedFunc(labels, byKey) {
		var sorted [8]Label
		labels = append(sorted[:0], labels...)
		slices.SortStableFunc(labels, byKey)
	}
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l.Value)
	}
	return append(b, '}')
}

// Counter is a monotonically increasing value. Nil-safe: Add/Inc on a nil
// counter are no-ops, so call sites never branch on whether telemetry is
// wired.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Add increases the counter by d (negative d is ignored).
func (c *Counter) Add(d float64) {
	if c == nil || d < 0 {
		return
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 for nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a point-in-time value.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram is a fixed-bucket distribution, reusing metrics.Histogram for
// the binning (equal-width bins over [Min, Max), out-of-range clamped to
// the edge bins) plus a running sum for Prometheus exposition.
type Histogram struct {
	mu   sync.Mutex
	hist *metrics.Histogram
	sum  float64
}

// Observe records a value. NaN observations are dropped (a NaN would
// poison the sum and has no meaningful bucket).
func (h *Histogram) Observe(x float64) {
	if h == nil || math.IsNaN(x) {
		return
	}
	h.mu.Lock()
	h.hist.Add(x)
	h.sum += x
	h.mu.Unlock()
}

// snapshot returns copies of the underlying state.
func (h *Histogram) snapshot() (hist metrics.Histogram, counts []int, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return *h.hist, append([]int(nil), h.hist.Counts...), h.sum
}

// series is one named+labeled instrument in the registry.
type series struct {
	family string // metric family name
	labels string // rendered {k="v"} suffix ("" for none)
	kind   string // "counter" | "gauge" | "histogram"

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics and renders them as Prometheus text or
// JSON. All methods are nil-safe (a nil registry hands out nil
// instruments, which are themselves no-ops) and concurrency-safe.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
	kinds  map[string]string // family → kind, across ALL label sets
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[string]*series),
		kinds:  make(map[string]string),
	}
}

// lookup returns the series for (name, labels), creating it with mk on
// first use. Panics if the FAMILY was registered with another kind — even
// under a different label set, since the exposition format emits one
// # TYPE per family and mixed kinds would corrupt it. That is a
// programming error, not a runtime condition.
//
// The key is built in a stack buffer, so finding an existing series
// allocates nothing.
func (r *Registry) lookup(name, kind string, labels []Label, mk func() *series) *series {
	var arr [128]byte
	buf := appendSeriesKey(arr[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if k, ok := r.kinds[name]; !ok {
		r.kinds[name] = kind
	} else if k != kind {
		panic(fmt.Sprintf("telemetry: metric family %s registered as %s, requested as %s", name, k, kind))
	}
	if s, ok := r.series[string(buf)]; ok {
		return s
	}
	key := string(buf)
	s := mk()
	s.family = name
	s.labels = key[len(name):]
	s.kind = kind
	r.series[key] = s
	return s
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, "counter", labels, func() *series {
		return &series{counter: &Counter{}}
	}).counter
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, "gauge", labels, func() *series {
		return &series{gauge: &Gauge{}}
	}).gauge
}

// Histogram returns (creating on first use) the named fixed-bucket
// histogram over [min, max) with the given bin count. The shape arguments
// apply only on first registration.
func (r *Registry) Histogram(name string, min, max float64, bins int, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, "histogram", labels, func() *series {
		return &series{hist: &Histogram{hist: metrics.NewHistogram(min, max, bins)}}
	}).hist
}

// sortedSeries returns the series sorted by (family, labels) for
// deterministic exposition.
func (r *Registry) sortedSeries() []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format: a # TYPE header exactly once per metric family — labelled
// series of one family stay grouped under a single header no matter how
// many label sets interleave — one sample line per series, and
// cumulative _bucket/_sum/_count lines per histogram.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	emitted := make(map[string]bool)
	for _, s := range r.sortedSeries() {
		if !emitted[s.family] {
			emitted[s.family] = true
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.family, s.kind)
		}
		switch s.kind {
		case "counter":
			fmt.Fprintf(bw, "%s%s %g\n", s.family, s.labels, s.counter.Value())
		case "gauge":
			fmt.Fprintf(bw, "%s%s %g\n", s.family, s.labels, s.gauge.Value())
		case "histogram":
			hist, counts, sum := s.hist.snapshot()
			width := (hist.Max - hist.Min) / float64(len(counts))
			cum := 0
			for i, c := range counts {
				cum += c
				le := hist.Min + float64(i+1)*width
				fmt.Fprintf(bw, "%s_bucket%s %d\n", s.family, mergeLabel(s.labels, fmt.Sprintf("le=%q", fmt.Sprintf("%g", le))), cum)
			}
			fmt.Fprintf(bw, "%s_bucket%s %d\n", s.family, mergeLabel(s.labels, `le="+Inf"`), hist.Total)
			fmt.Fprintf(bw, "%s_sum%s %g\n", s.family, s.labels, sum)
			fmt.Fprintf(bw, "%s_count%s %d\n", s.family, s.labels, hist.Total)
		}
	}
	return bw.Flush()
}

// mergeLabel inserts extra into a rendered label suffix.
func mergeLabel(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}

// MetricSnapshot is one series' JSON exposition.
type MetricSnapshot struct {
	Kind  string  `json:"kind"`
	Value float64 `json:"value,omitempty"`
	// Histogram fields.
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Count int     `json:"count,omitempty"`
	Bins  []int   `json:"bins,omitempty"`
}

// Snapshot returns every series keyed by its full name (family + labels).
func (r *Registry) Snapshot() map[string]MetricSnapshot {
	if r == nil {
		return nil
	}
	out := make(map[string]MetricSnapshot)
	for _, s := range r.sortedSeries() {
		key := s.family + s.labels
		switch s.kind {
		case "counter":
			out[key] = MetricSnapshot{Kind: "counter", Value: s.counter.Value()}
		case "gauge":
			out[key] = MetricSnapshot{Kind: "gauge", Value: s.gauge.Value()}
		case "histogram":
			hist, counts, sum := s.hist.snapshot()
			out[key] = MetricSnapshot{
				Kind: "histogram", Min: hist.Min, Max: hist.Max,
				Sum: sum, Count: hist.Total, Bins: counts,
			}
		}
	}
	return out
}

// WriteJSON renders the registry as one indented JSON object (map keys
// are sorted by encoding/json, so output is deterministic).
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
