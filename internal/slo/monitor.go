package slo

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// Config tunes one monitoring pass.
type Config struct {
	// TickMicros is the tumbling window width in simulated μs
	// (default 5000).
	TickMicros float64
	// SlideTicks is the sliding window length in ticks (default 4).
	SlideTicks int
	// Specs are the SLOs to evaluate (empty: SLIs only, no alerts).
	// DefaultSpecs(deadline) is the serving tier's standard set.
	Specs []Spec
	// TopSlow is how many slowest frames the dashboard details
	// (default 10; negative: none).
	TopSlow int
}

// uesPerCell recovers the cell id from a packed fleet stream id
// (cell = stream / uesPerCell), matching cran.StreamID.
const uesPerCell = 1024

func (c Config) withDefaults() (Config, error) {
	if c.TickMicros == 0 {
		c.TickMicros = 5000
	}
	if c.TickMicros <= 0 || math.IsNaN(c.TickMicros) || math.IsInf(c.TickMicros, 0) {
		return c, fmt.Errorf("slo: bad tick %g", c.TickMicros)
	}
	if c.SlideTicks == 0 {
		c.SlideTicks = 4
	}
	if c.SlideTicks < 1 {
		return c, fmt.Errorf("slo: slide ticks %d < 1", c.SlideTicks)
	}
	if c.TopSlow == 0 {
		c.TopSlow = 10
	}
	specs := make([]Spec, len(c.Specs))
	for i, sp := range c.Specs {
		var err error
		if specs[i], err = sp.withDefaults(); err != nil {
			return c, err
		}
	}
	c.Specs = specs
	return c, nil
}

// ScopeSLI is one scope's (whole tier, or one shard's) service levels
// over the full run.
type ScopeSLI struct {
	// Scope is "" for the tier aggregate or the shard label.
	Scope string `json:"scope,omitempty"`
	// Served counts frames that completed service (fleet/frame spans).
	Served int `json:"served"`
	// Answers counts every answered frame (served + shed + router-shed).
	Answers int `json:"answers"`
	// Fallback counts answers from the classical-fallback rung.
	Fallback int `json:"fallback"`
	// Shed counts shed frames (fleet admission/retry or router).
	Shed int `json:"shed"`
	// Latency percentiles over served frames (μs).
	LatencyP50 float64 `json:"latency_p50_us"`
	LatencyP99 float64 `json:"latency_p99_us"`
	LatencyMax float64 `json:"latency_max_us"`
	// Queue percentiles over served frames' queue delay (μs) — the queue
	// drain time SLI.
	QueueP50 float64 `json:"queue_p50_us"`
	QueueP99 float64 `json:"queue_p99_us"`
	// Availability is 1 − Fallback/Answers.
	Availability float64 `json:"availability"`
	// ShedRate is Shed/Answers.
	ShedRate float64 `json:"shed_rate"`
}

// CellSLI is one cell's latency summary.
type CellSLI struct {
	Cell       int     `json:"cell"`
	Served     int     `json:"served"`
	LatencyP50 float64 `json:"latency_p50_us"`
	LatencyP99 float64 `json:"latency_p99_us"`
}

// DeviceUtil is one device's busy fraction over the observed span.
type DeviceUtil struct {
	Shard       string  `json:"shard,omitempty"`
	Device      int     `json:"device"`
	BusyMicros  float64 `json:"busy_us"`
	Utilization float64 `json:"utilization"`
	// PeakUtilization is the highest single-tick busy fraction.
	PeakUtilization float64 `json:"peak_utilization"`
}

// Snapshot is one completed monitoring pass.
type Snapshot struct {
	Config Config `json:"-"`
	// StartMicros/EndMicros bound the observed simulated time.
	StartMicros float64 `json:"start_us"`
	EndMicros   float64 `json:"end_us"`
	// Tier aggregates everything; Shards holds one entry per shard label.
	Tier   ScopeSLI   `json:"tier"`
	Shards []ScopeSLI `json:"shards,omitempty"`
	Cells  []CellSLI  `json:"cells,omitempty"`
	// LatencyTumbling/LatencySliding are the tier-wide windowed latency
	// series.
	LatencyTumbling []Bucket `json:"latency_tumbling,omitempty"`
	LatencySliding  []Bucket `json:"latency_sliding,omitempty"`
	// Devices is the per-device health report; Utilization the per-device
	// load report.
	Devices     []DeviceHealth `json:"devices,omitempty"`
	Utilization []DeviceUtil   `json:"utilization,omitempty"`
	// Alerts is the full burn-rate transition timeline.
	Alerts []AlertTransition `json:"alerts,omitempty"`
	// Frames holds every served frame's critical path.
	Frames []FramePath `json:"-"`
}

// Monitor is the live tap: attach it with Tracer.AddSink before a run,
// call Finish after. ObserveRecord only buffers (one mutex-guarded
// append), so the monitored run's outcomes and exported trace stay
// bit-identical; all computation happens in Finish over the sorted
// record set — the same records, in the same order, that WriteJSONL
// exports, which is why Finish agrees exactly with an offline
// slotool pass over the exported file.
type Monitor struct {
	cfg  Config
	mu   sync.Mutex
	recs telemetry.RecordLog
}

// NewMonitor returns a Monitor with the given config.
func NewMonitor(cfg Config) *Monitor {
	return &Monitor{cfg: cfg}
}

// ObserveRecord implements telemetry.RecordSink.
func (m *Monitor) ObserveRecord(r telemetry.Record) {
	m.mu.Lock()
	m.recs.Append(r)
	m.mu.Unlock()
}

// Len returns the number of buffered records.
func (m *Monitor) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recs.Len()
}

// Finish analyzes everything observed so far. It holds the lock
// throughout: the buffer is sorted in place and read without a copy.
func (m *Monitor) Finish() (*Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs.Sort()
	return analyze(&m.recs, m.cfg)
}

// Analyze runs the full monitoring pass over a record set (live-captured
// or parsed from JSONL — both paths land here). The input order is
// irrelevant: a copy of the records is sorted into the exporter's
// deterministic order (telemetry.SortRecords) first, so the caller's
// slice is never reordered.
func Analyze(records []telemetry.Record, cfg Config) (*Snapshot, error) {
	var recs telemetry.RecordLog
	for _, r := range records {
		recs.Append(r)
	}
	recs.Sort()
	return analyze(&recs, cfg)
}

// analyze is the monitoring pass over records in telemetry.SortRecords
// order.
func analyze(recs *telemetry.RecordLog, cfg Config) (*Snapshot, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	a := &analysis{
		cfg:         cfg,
		tierLat:     NewSeries(cfg.TickMicros),
		tierQueue:   NewSeries(cfg.TickMicros),
		shardLat:    map[string]*Series{},
		shardQueue:  map[string]*Series{},
		cellLat:     map[int]*Series{},
		scopes:      map[string]*scopeCount{},
		specSeries:  make([]map[string]*RatioSeries, len(cfg.Specs)),
		shardScopes: map[string]string{},
		load:        map[devKey]*SpanLoad{},
	}
	for i := range a.specSeries {
		a.specSeries[i] = map[string]*RatioSeries{}
	}
	// Size the per-frame slices up front; growing them would double the
	// pass's garbage.
	var stats, frames, batches int
	for i := 0; i < recs.Len(); i++ {
		switch recs.At(i).Name {
		case "fleet/anneal-stats":
			stats++
		case "fleet/frame":
			frames++
		case "fleet/batch":
			batches++
		}
	}
	a.annealObs = make([]AnnealObs, 0, stats)
	a.crit.frames = make([]*telemetry.Record, 0, frames)
	a.crit.batches = make(map[batchKey]batchInfo, batches)
	for i := 0; i < recs.Len(); i++ {
		a.ingest(recs.At(i))
	}
	return a.snapshot()
}

type devKey struct {
	shard  string
	device int
}

type scopeCount struct {
	served, answers, fallback, shed int
}

type analysis struct {
	cfg        Config
	start, end float64
	any        bool

	tierLat, tierQueue   *Series
	shardLat, shardQueue map[string]*Series
	cellLat              map[int]*Series
	tier                 scopeCount
	scopes               map[string]*scopeCount

	specSeries []map[string]*RatioSeries
	// shardScopes caches each shard label's "shard=<label>" scope.
	shardScopes map[string]string
	load        map[devKey]*SpanLoad
	crit        critPaths
	annealObs   []AnnealObs
}

func (a *analysis) touch(t float64) {
	if !a.any {
		a.start, a.end, a.any = t, t, true
		return
	}
	if t < a.start {
		a.start = t
	}
	if t > a.end {
		a.end = t
	}
}

func (a *analysis) scope(shard string) *scopeCount {
	sc := a.scopes[shard]
	if sc == nil {
		sc = &scopeCount{}
		a.scopes[shard] = sc
	}
	return sc
}

// feedSpecs routes one (shard, event) observation into every spec of
// the matching kind, under that spec's scoping rule; bad is evaluated
// per spec (latency specs carry their own thresholds).
func (a *analysis) feedSpecs(kind Kind, shard string, at float64, bad func(Spec) bool) {
	for i, sp := range a.cfg.Specs {
		if sp.Kind != kind {
			continue
		}
		var key string
		switch sp.Scope {
		case "":
			key = ""
		case ScopePerShard:
			if shard == "" {
				// Unsharded runs have no shard label; the tier-scope
				// instance of this spec already covers those events.
				continue
			}
			key = a.shardScopes[shard]
			if key == "" {
				key = "shard=" + shard
				a.shardScopes[shard] = key
			}
		default:
			if sp.Scope != "shard="+shard {
				continue
			}
			key = sp.Scope
		}
		rs := a.specSeries[i][key]
		if rs == nil {
			rs = NewRatioSeries(a.cfg.TickMicros)
			a.specSeries[i][key] = rs
		}
		rs.Observe(at, bad(sp))
	}
}

func constBad(b bool) func(Spec) bool { return func(Spec) bool { return b } }

func (a *analysis) ingest(r *telemetry.Record) {
	switch {
	case r.Type == "span" && r.Name == "fleet/frame":
		a.touch(r.T0)
		a.touch(r.T1)
		a.crit.frame(r)
		shard, _ := r.Attrs.Str("shard")
		lat := r.T1 - r.T0
		a.tierLat.Observe(r.T1, lat)
		a.seriesFor(a.shardLat, shard).Observe(r.T1, lat)
		if q, ok := r.Attrs.Num("queue_us"); ok {
			a.tierQueue.Observe(r.T1, q)
			a.seriesFor(a.shardQueue, shard).Observe(r.T1, q)
		}
		if stream, ok := r.Attrs.Int("stream"); ok {
			cell := stream / uesPerCell
			s := a.cellLat[cell]
			if s == nil {
				s = NewSeries(a.cfg.TickMicros)
				a.cellLat[cell] = s
			}
			s.Observe(r.T1, lat)
		}
		a.tier.served++
		a.scope(shard).served++
		a.feedSpecs(KindLatency, shard, r.T1, func(sp Spec) bool { return lat > sp.LatencyMicros })

	case r.Type == "span" && r.Name == "fleet/batch":
		a.touch(r.T0)
		a.touch(r.T1)
		a.crit.batch(r)
		shard, _ := r.Attrs.Str("shard")
		dev, ok := r.Attrs.Int("device")
		if !ok {
			return
		}
		k := devKey{shard, dev}
		l := a.load[k]
		if l == nil {
			l = NewSpanLoad(a.cfg.TickMicros)
			a.load[k] = l
		}
		l.Observe(r.T0, r.T1)

	case r.Type == "event" && r.Name == "fleet/answer":
		a.touch(r.T0)
		shard, _ := r.Attrs.Str("shard")
		source, _ := r.Attrs.Str("source")
		shed := r.Attrs.Bool("shed")
		fallback := source == "classical-fallback"
		a.tier.answers++
		sc := a.scope(shard)
		sc.answers++
		if fallback {
			a.tier.fallback++
			sc.fallback++
		}
		if shed {
			a.tier.shed++
			sc.shed++
		}
		a.feedSpecs(KindAvailability, shard, r.T0, constBad(fallback))
		a.feedSpecs(KindShed, shard, r.T0, constBad(shed))

	case r.Type == "event" && r.Name == "cran/router-shed":
		// Router-shed frames never reach a shard: they are answered
		// classically at admission, so they count against tier
		// availability and shed under the pseudo-scope "router".
		a.touch(r.T0)
		const shard = "router"
		a.tier.answers++
		a.tier.fallback++
		a.tier.shed++
		sc := a.scope(shard)
		sc.answers++
		sc.fallback++
		sc.shed++
		a.feedSpecs(KindAvailability, shard, r.T0, constBad(true))
		a.feedSpecs(KindShed, shard, r.T0, constBad(true))

	case r.Type == "event" && r.Name == "fleet/anneal-stats":
		a.touch(r.T0)
		shard, _ := r.Attrs.Str("shard")
		dev, _ := r.Attrs.Int("device")
		stream, _ := r.Attrs.Int("stream")
		seq, _ := r.Attrs.Int("seq")
		ob := AnnealObs{At: r.T0, Shard: shard, Device: dev, Stream: stream, Seq: seq}
		if survived, _ := r.Attrs.Int("survived"); survived == 0 {
			ob.HardFault = true
		} else {
			mean, _ := r.Attrs.Num("mean_energy")
			cand, _ := r.Attrs.Num("cand_energy")
			ob.Residual = mean - cand
			ob.ChainBreakRate, _ = r.Attrs.Num("chain_break_rate")
		}
		a.annealObs = append(a.annealObs, ob)

	case r.Type == "span" || r.Type == "event":
		a.touch(r.T0)
		if r.Type == "span" {
			a.touch(r.T1)
		}
	}
}

func (a *analysis) seriesFor(m map[string]*Series, key string) *Series {
	s := m[key]
	if s == nil {
		s = NewSeries(a.cfg.TickMicros)
		m[key] = s
	}
	return s
}

// summarize converts accumulated counters + series into a ScopeSLI.
func summarize(scope string, c scopeCount, lat, queue *Series) ScopeSLI {
	sli := ScopeSLI{Scope: scope, Served: c.served, Answers: c.answers, Fallback: c.fallback, Shed: c.shed}
	if c.answers > 0 {
		sli.Availability = 1 - float64(c.fallback)/float64(c.answers)
		sli.ShedRate = float64(c.shed) / float64(c.answers)
	}
	if lb := lat.All(); lb.Count > 0 {
		sli.LatencyP50, sli.LatencyP99, sli.LatencyMax = lb.P50, lb.P99, lb.Max
	}
	if qb := queue.All(); qb.Count > 0 {
		sli.QueueP50, sli.QueueP99 = qb.P50, qb.P99
	}
	return sli
}

func (a *analysis) snapshot() (*Snapshot, error) {
	snap := &Snapshot{Config: a.cfg, StartMicros: a.start, EndMicros: a.end}
	snap.Tier = summarize("", a.tier, a.tierLat, a.tierQueue)

	shardKeys := make([]string, 0, len(a.scopes))
	for k := range a.scopes {
		// The unlabelled scope (a plain fleet run, no shard router) is
		// already the tier aggregate — listing it again as a shard row
		// would just duplicate Tier.
		if k == "" {
			continue
		}
		shardKeys = append(shardKeys, k)
	}
	sort.Strings(shardKeys)
	for _, k := range shardKeys {
		lat, ok := a.shardLat[k]
		if !ok {
			lat = NewSeries(a.cfg.TickMicros)
		}
		q, ok := a.shardQueue[k]
		if !ok {
			q = NewSeries(a.cfg.TickMicros)
		}
		snap.Shards = append(snap.Shards, summarize(k, *a.scopes[k], lat, q))
	}

	cellKeys := make([]int, 0, len(a.cellLat))
	for c := range a.cellLat {
		cellKeys = append(cellKeys, c)
	}
	sort.Ints(cellKeys)
	for _, c := range cellKeys {
		all := a.cellLat[c].All()
		snap.Cells = append(snap.Cells, CellSLI{
			Cell: c, Served: all.Count, LatencyP50: all.P50, LatencyP99: all.P99,
		})
	}

	snap.LatencyTumbling = a.tierLat.Buckets()
	snap.LatencySliding = a.tierLat.Sliding(a.cfg.SlideTicks)

	// Utilization per device over the observed span.
	span := a.end - a.start
	devKeys := make([]devKey, 0, len(a.load))
	for k := range a.load {
		devKeys = append(devKeys, k)
	}
	sort.Slice(devKeys, func(i, j int) bool {
		if devKeys[i].shard != devKeys[j].shard {
			return devKeys[i].shard < devKeys[j].shard
		}
		return devKeys[i].device < devKeys[j].device
	})
	for _, k := range devKeys {
		var busy, peak float64
		for _, b := range a.load[k].Buckets() {
			busy += b.BusyMicros
			if b.Utilization > peak {
				peak = b.Utilization
			}
		}
		du := DeviceUtil{Shard: k.shard, Device: k.device, BusyMicros: busy, PeakUtilization: peak}
		if span > 0 {
			du.Utilization = busy / span
		}
		snap.Utilization = append(snap.Utilization, du)
	}

	snap.Devices = ScoreDevices(a.annealObs)
	snap.Frames = a.crit.paths()

	// Burn-rate alerting: each spec over each scope it expanded to.
	for i, sp := range a.cfg.Specs {
		keys := make([]string, 0, len(a.specSeries[i]))
		for k := range a.specSeries[i] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			snap.Alerts = append(snap.Alerts, evalSpec(sp, k, a.specSeries[i][k], a.cfg.TickMicros)...)
		}
	}
	sortTransitions(snap.Alerts)
	return snap, nil
}
