// Package fleet is the serving layer the paper's centralized-RAN story
// needs: one scheduler owning a pool of N heterogeneous simulated QPUs
// that serves M concurrent detection streams. The scheduler is an
// event-driven simulation on the same deterministic microsecond clock the
// annealer accounts in, with per-device work queues, batching
// of schedule-compatible frames into shared programming cycles (amortizing
// the 10 ms device programming overhead and the engine's Prepare compile
// via annealer leases), pluggable dispatch policies, admission control
// with per-stream queue bounds, and a degradation ladder that sheds
// overload to the classical fallback instead of failing.
//
// Determinism contract: Serve runs in two phases. The PLAN phase is a
// single-threaded event simulation that fixes every dispatch decision,
// batch composition, timing figure, shed, trace record, and scheduling
// metric — timing depends only on modelled service times and pre-drawn
// programming faults, never on anneal results. The EXECUTE phase then runs
// the planned anneal batches on Config.Workers goroutines; each frame's
// RNG stream derives from (Seed, stream, seq, attempt) fixed by the plan,
// so outcomes and exported traces are bit-identical for any worker count.
package fleet

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/annealer"
	"repro/internal/core"
	"repro/internal/qaoa"
	"repro/internal/qubo"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Shed reasons reported in Outcome.ShedReason and the
// fleet_shed_total{reason} counter — the rungs of the degradation ladder.
const (
	// ShedStreamQueueFull: the frame's stream queue bound exceeded.
	ShedStreamQueueFull = "stream-queue-full"
	// ShedDeadlineExpired: the deadline passed before dispatch.
	ShedDeadlineExpired = "deadline-expired"
	// ShedRetriesExhausted: every dispatch attempt hit a device fault.
	ShedRetriesExhausted = "retries-exhausted"
	// ShedDeviceUnavailable: no device will ever be free again.
	ShedDeviceUnavailable = "device-unavailable"
	// ShedNoCompatibleBackend: no live device can serve the frame at all
	// (e.g. a problem too large for every remaining backend).
	ShedNoCompatibleBackend = "no-compatible-backend"
)

const (
	// DefaultNumReads is the per-frame read count when neither the
	// request nor Config.NumReads sets one.
	DefaultNumReads = 50
	// maxAttempts bounds dispatch attempts per frame across device
	// programming faults before shedding: one retry.
	maxAttempts = 2
)

// Request is one detection frame submitted to the fleet: a reduced Ising
// problem plus the classical candidate that seeds reverse annealing.
type Request struct {
	// Stream and Seq identify the frame; Seq orders frames within a
	// stream (per-stream FIFO is defined over Seq). Both must be in
	// [0, 2^31).
	Stream, Seq int
	// Arrival is the simulated-μs arrival time.
	Arrival float64
	// Deadline is the latency budget in μs after Arrival (0: none).
	Deadline float64
	// Problem is the reduced detection problem. Serve compiles and reads
	// it in place, so it must not change until Serve returns.
	Problem *qubo.Ising
	// InitialState is the classical candidate (len == Problem.N); it
	// seeds the reverse anneal and is the shed/fallback answer.
	InitialState []int8
	// Sp, Tp override the fleet's reverse-anneal switch point and pause
	// (0: Config defaults). Frames batch together only when these match.
	Sp, Tp float64
	// NumReads overrides the per-frame read count (0: Config default).
	NumReads int
	// Group, when positive, marks this request as one arm of an ensemble
	// frame: batch filling treats same-group requests like same-stream
	// continuations (exempt from the cross-stream cap), so one frame's
	// arms coalesce onto a device's programming cycles instead of
	// starving it of unrelated work. 0 (the default) opts out; grouping
	// never changes an answer, only batch composition and timing.
	Group int
	// KeepSamples asks the executor to return the frame's raw anneal
	// reads in Outcome.Samples (an ensemble fuses them into soft output).
	// Off by default: a fleet result normally carries only Best.
	KeepSamples bool
}

// Device is one backend in the pool. The zero value is a valid logical
// QPU-sim device (no embedding, no programming/readout overheads).
type Device struct {
	// Backend selects the solver kind (default BackendQPUSim). Classical
	// kinds ignore the QPU/Engine/Profile/ICE fields and run at the
	// package's one serving configuration instead.
	Backend BackendKind
	// QPU, when set, charges its programming/readout overheads in the
	// timing model and rejects frames beyond its clique capacity; the
	// anneal runs the logical problem unless QPU.Chains opts into the
	// Chimera-embedded chain dynamics.
	QPU *annealer.QPU
	// Engine simulates the quantum dynamics (default annealer.SVMC).
	Engine annealer.Engine
	// Profile sets the device energy scales (default DWave2000QProfile).
	Profile *annealer.Profile
	// SweepsPerMicrosecond is the device clock rate (default 100).
	SweepsPerMicrosecond float64
	// ICE is the device's control-error noise (calibration quality).
	ICE annealer.ICE
	// Faults is the device's failure model. ProgrammingFailureRate is
	// drawn per BATCH by the dispatcher (the whole batch retries);
	// per-read classes fire inside the anneal as usual.
	Faults annealer.FaultModel
	// FailAt, when positive, takes the device down at that simulated μs:
	// in-flight work completes but nothing new is dispatched to it.
	FailAt float64
}

// PoolDeadAt returns the simulated μs at which the whole pool stops
// accepting work: the latest FailAt when every device carries one, +Inf
// when any device never fails, and 0 for an empty pool. The C-RAN shard
// router plans cross-shard failover from this figure — it depends only on
// static configuration, so the plan phase and the router agree by
// construction.
func PoolDeadAt(devs []Device) float64 {
	if len(devs) == 0 {
		return 0
	}
	dead := 0.0
	for _, d := range devs {
		if d.FailAt <= 0 {
			return math.Inf(1)
		}
		if d.FailAt > dead {
			dead = d.FailAt
		}
	}
	return dead
}

// Config tunes one Serve call.
type Config struct {
	// Devices is the pool (required, ≥ 1). Device IDs are positional.
	Devices []Device
	// Policy selects the dispatch policy (default PolicyLeastLoaded).
	Policy Policy
	// Route selects how frames are assigned backend classes (default
	// RouteAny: any frame may run on any compatible device). RouteHybrid
	// scores hardness and deadline slack per frame.
	Route RoutePolicy
	// Router.ForceClass, when set, pins every frame to one class — the
	// routing-off failure injection.
	Router RouterConfig
	// Sp, Tp are the default reverse-anneal switch point and pause μs
	// (defaults core.RASp, core.PauseMicros — the paper's working point).
	Sp, Tp float64
	// NumReads is the default per-frame read count (default
	// DefaultNumReads).
	NumReads int
	// BatchMax caps frames per shared programming cycle (default 4).
	BatchMax int
	// StreamQueueBound caps each stream's queue; frames arriving beyond
	// it are shed to the classical fallback (default 16).
	StreamQueueBound int
	// Seed roots every RNG stream in the run.
	Seed uint64
	// Workers is the execute-phase goroutine count (default
	// min(GOMAXPROCS, 8)). It cannot affect results.
	Workers int
	// ShardLabel, when non-empty, tags every trace record and metric
	// series this Serve emits with a shard="..." attribute/label. It is
	// the shard-facing seam for the C-RAN tier (internal/cran): shards
	// sharing one tracer/registry stay distinguishable, which keeps the
	// merged trace export deterministic and per-shard gauges collision
	// free. Empty (the default) emits exactly the standalone telemetry.
	ShardLabel string
	// Trace and Metrics receive dispatcher telemetry (nil-safe).
	Trace   *telemetry.Tracer
	Metrics *telemetry.Registry
}

// Outcome is one frame's fate: where and when it ran (or why it was
// shed) and the answer it got.
type Outcome struct {
	Stream int `json:"stream"`
	Seq    int `json:"seq"`
	// Arrival, Start, Finish are simulated μs; QueueMicros = Start −
	// Arrival. For shed frames Start is the shed instant and Finish adds
	// the classical-fallback compute cost.
	Arrival     float64 `json:"arrival_us"`
	Start       float64 `json:"start_us"`
	Finish      float64 `json:"finish_us"`
	QueueMicros float64 `json:"queue_us"`
	// Device and Batch locate the serving batch (−1 when shed).
	Device int `json:"device"`
	Batch  int `json:"batch"`
	// Backend names the serving device's backend kind. Set only for
	// frames served by heterogeneous pools — homogeneous QPU fleets and
	// shed frames leave it empty.
	Backend string `json:"backend,omitempty"`
	// Attempts is the number of dispatch attempts consumed (≥ 1 unless
	// shed before ever dispatching).
	Attempts int `json:"attempts"`
	// Shed marks degradation-ladder answers; ShedReason says which rung.
	Shed       bool   `json:"shed,omitempty"`
	ShedReason string `json:"shed_reason,omitempty"`
	// DeadlineMissed reports Finish > Arrival + Deadline (when set).
	DeadlineMissed bool `json:"deadline_missed,omitempty"`
	// Source and Best are the answer: quantum, classical-candidate
	// (candidate beat every sample), or classical-fallback (shed or
	// device fault).
	Source core.AnswerSource `json:"source"`
	Best   qubo.Sample       `json:"best"`
	// Gain marks a quantum answer that strictly beat the frame's
	// classical candidate (core.Arm.Gain); shed, faulted and
	// classical-backend frames never gain.
	Gain bool `json:"gain,omitempty"`
	// Samples holds the frame's raw anneal reads, only when the request
	// set KeepSamples (ensemble fusion needs them; plain serving drops
	// them to keep results small).
	Samples []qubo.Sample `json:"samples,omitempty"`
}

// Result is one Serve call's full output.
type Result struct {
	// Outcomes holds one entry per request, ordered by (Stream, Seq).
	Outcomes []Outcome
	// Report aggregates scheduling statistics.
	Report Report
}

// ValidateRequests checks a request set is servable: problems present,
// candidates sized, times finite, identities unique and in range, and
// per-stream arrivals non-decreasing in Seq order.
func ValidateRequests(reqs []Request) error {
	seen := make(map[[2]int]int, len(reqs))
	lastArrival := make(map[int]float64)
	lastSeq := make(map[int]int)
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := reqs[order[a]], reqs[order[b]]
		if ra.Stream != rb.Stream {
			return ra.Stream < rb.Stream
		}
		return ra.Seq < rb.Seq
	})
	for _, i := range order {
		r := reqs[i]
		if r.Stream < 0 || r.Stream >= 1<<31 || r.Seq < 0 || r.Seq >= 1<<31 {
			return fmt.Errorf("fleet: request %d: stream/seq (%d, %d) out of [0, 2^31)", i, r.Stream, r.Seq)
		}
		if j, dup := seen[[2]int{r.Stream, r.Seq}]; dup {
			return fmt.Errorf("fleet: requests %d and %d duplicate frame (%d, %d)", j, i, r.Stream, r.Seq)
		}
		seen[[2]int{r.Stream, r.Seq}] = i
		if r.Problem == nil || r.Problem.N == 0 {
			return fmt.Errorf("fleet: request (%d, %d): empty problem", r.Stream, r.Seq)
		}
		if len(r.InitialState) != r.Problem.N {
			return fmt.Errorf("fleet: request (%d, %d): %d-spin candidate for %d-spin problem",
				r.Stream, r.Seq, len(r.InitialState), r.Problem.N)
		}
		if math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0) || r.Arrival < 0 {
			return fmt.Errorf("fleet: request (%d, %d): bad arrival %g", r.Stream, r.Seq, r.Arrival)
		}
		if math.IsNaN(r.Deadline) || math.IsInf(r.Deadline, 0) || r.Deadline < 0 {
			return fmt.Errorf("fleet: request (%d, %d): bad deadline %g", r.Stream, r.Seq, r.Deadline)
		}
		if math.IsNaN(r.Sp) || r.Sp < 0 || r.Sp >= 1 {
			return fmt.Errorf("fleet: request (%d, %d): switch point %g out of (0, 1)", r.Stream, r.Seq, r.Sp)
		}
		if math.IsNaN(r.Tp) || math.IsInf(r.Tp, 0) || r.Tp < 0 {
			return fmt.Errorf("fleet: request (%d, %d): bad pause %g", r.Stream, r.Seq, r.Tp)
		}
		if r.NumReads < 0 || r.NumReads > annealer.MaxReads {
			return fmt.Errorf("fleet: request (%d, %d): bad read count %d", r.Stream, r.Seq, r.NumReads)
		}
		if r.Group < 0 || r.Group >= 1<<31 {
			return fmt.Errorf("fleet: request (%d, %d): group %d out of [0, 2^31)", r.Stream, r.Seq, r.Group)
		}
		if prev, ok := lastArrival[r.Stream]; ok && r.Arrival < prev {
			return fmt.Errorf("fleet: stream %d: seq %d arrives at %g before seq %d at %g (per-stream arrivals must be non-decreasing in seq order)",
				r.Stream, r.Seq, r.Arrival, lastSeq[r.Stream], prev)
		}
		lastArrival[r.Stream] = r.Arrival
		lastSeq[r.Stream] = r.Seq
	}
	return nil
}

func (cfg Config) withDefaults() (Config, error) {
	if len(cfg.Devices) == 0 {
		return cfg, fmt.Errorf("fleet: no devices")
	}
	if !cfg.Policy.valid() {
		return cfg, fmt.Errorf("fleet: unknown policy %d", int(cfg.Policy))
	}
	if !cfg.Route.valid() {
		return cfg, fmt.Errorf("fleet: unknown route policy %d", int(cfg.Route))
	}
	if c := cfg.Router.ForceClass; c < ClassAny || c > ClassClassical {
		return cfg, fmt.Errorf("fleet: unknown forced class %d", int(c))
	}
	if cfg.Sp == 0 {
		cfg.Sp = core.RASp
	}
	if cfg.Tp == 0 {
		cfg.Tp = core.PauseMicros
	}
	if cfg.Sp <= 0 || cfg.Sp >= 1 || math.IsNaN(cfg.Sp) {
		return cfg, fmt.Errorf("fleet: switch point %g out of (0, 1)", cfg.Sp)
	}
	if cfg.Tp < 0 || math.IsNaN(cfg.Tp) || math.IsInf(cfg.Tp, 0) {
		return cfg, fmt.Errorf("fleet: bad pause %g", cfg.Tp)
	}
	if cfg.NumReads == 0 {
		cfg.NumReads = DefaultNumReads
	}
	if cfg.NumReads < 0 || cfg.NumReads > annealer.MaxReads {
		return cfg, fmt.Errorf("fleet: bad read count %d", cfg.NumReads)
	}
	if cfg.BatchMax == 0 {
		cfg.BatchMax = 4
	}
	if cfg.BatchMax < 1 {
		return cfg, fmt.Errorf("fleet: batch max %d < 1", cfg.BatchMax)
	}
	if cfg.StreamQueueBound == 0 {
		cfg.StreamQueueBound = 16
	}
	if cfg.StreamQueueBound < 1 {
		return cfg, fmt.Errorf("fleet: stream queue bound %d < 1", cfg.StreamQueueBound)
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
		if cfg.Workers > 8 {
			cfg.Workers = 8
		}
	}
	if cfg.Workers < 1 {
		return cfg, fmt.Errorf("fleet: workers %d < 1", cfg.Workers)
	}
	for i, d := range cfg.Devices {
		if !d.Backend.valid() {
			return cfg, fmt.Errorf("fleet: device %d: unknown backend %d", i, int(d.Backend))
		}
		if d.SweepsPerMicrosecond < 0 {
			return cfg, fmt.Errorf("fleet: device %d: negative sweep rate", i)
		}
		if err := d.Faults.Validate(); err != nil {
			return cfg, fmt.Errorf("fleet: device %d: %w", i, err)
		}
		if err := d.ICE.Validate(); err != nil {
			return cfg, fmt.Errorf("fleet: device %d: %w", i, err)
		}
		if d.FailAt < 0 || math.IsNaN(d.FailAt) {
			return cfg, fmt.Errorf("fleet: device %d: bad fail time %g", i, d.FailAt)
		}
	}
	return cfg, nil
}

// Serve plans and executes one fleet run over a request set. It returns
// one Outcome per request (ordered by stream, seq); the only errors are
// invalid inputs, context cancellation, and non-fault execution failures
// (e.g. a problem too large for a device's Chimera graph) — injected
// device faults degrade to fallback answers instead.
func Serve(ctx context.Context, cfg Config, reqs []Request) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := ValidateRequests(reqs); err != nil {
		return nil, err
	}
	pl, err := newPlanner(cfg, reqs)
	if err != nil {
		return nil, err
	}
	pl.simulate()
	pl.publishPlan()
	if err := pl.execute(ctx); err != nil {
		return nil, err
	}
	rep := pl.report()
	pl.publish(&rep)
	return &Result{Outcomes: pl.outcomes, Report: rep}, nil
}

// schedKey is the batching-compatibility key: frames share a programming
// cycle only when their anneal program is identical.
type schedKey struct{ sp, tp float64 }

// frame is one request's mutable scheduling state.
type frame struct {
	req         Request
	stream      int // dense stream index
	absDeadline float64
	attempts    int
	sp, tp      float64
	reads       int
	// class is the routing decision (ClassAny unless Config.Route is
	// hybrid); hardness is the score behind it. rerouteStranded may relax
	// class back to ClassAny when its devices die.
	class    BackendClass
	hardness float64
	// group mirrors req.Group for the batch filler's exemption check.
	group int
}

// plannedBatch is one shared programming cycle fixed by the plan phase.
type plannedBatch struct {
	id            int
	dev           int
	key           schedKey
	start, finish float64
	faulted       bool
	frames        []int
}

// event is one entry in the simulation heap, ordered by
// (t, kind, a, b): completions (kind 0: a=device, b=batch) before
// arrivals (kind 1: a=stream, b=seq) at the same instant.
type event struct {
	t       float64
	kind    int
	a, b    int
	payload int // frame index for arrivals, batch id for completions
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	if h[i].a != h[j].a {
		return h[i].a < h[j].a
	}
	return h[i].b < h[j].b
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *eventHeap) push(e event) { heap.Push(h, e) }
func (h *eventHeap) pop() event   { return heap.Pop(h).(event) }

type planner struct {
	cfg      Config
	frames   []frame
	outcomes []Outcome // indexed like frames
	streams  []int     // dense index → stream id

	events   eventHeap
	queues   [][]int // per dense stream: queued frame indices, FIFO
	queued   int
	inflight []int // per dense stream: batch id or −1

	busyUntil   []float64
	busy        []float64 // cumulative busy μs per device
	devBatch    []int     // per-device programming-cycle counter (RNG key)
	downEmitted []bool

	batches  []plannedBatch
	rrStream int
	rrDevice int
	clock    float64

	schedules map[schedKey]*annealer.Schedule
	leases    map[leaseKey]*annealer.Lease
	prepStats PrepStats

	retries int

	// hetero marks a pool with classical backends or hybrid routing. It
	// gates the output shape: Outcome.Backend, DeviceStats.Backend,
	// Report.Backends and the per-backend series exist only for such
	// pools, and only they consult routing classes.
	hetero         bool
	routeFallbacks int
}

type leaseKey struct {
	dev int
	key schedKey
}

func newPlanner(cfg Config, reqs []Request) (*planner, error) {
	pl := &planner{
		cfg:       cfg,
		schedules: make(map[schedKey]*annealer.Schedule),
		leases:    make(map[leaseKey]*annealer.Lease),
	}
	pl.hetero = cfg.Route != RouteAny
	for _, d := range cfg.Devices {
		if d.Backend.Classical() {
			pl.hetero = true
		}
	}
	// Dense stream indices in ascending stream-id order keep every
	// policy's tiebreaks independent of request-slice order.
	ids := map[int]bool{}
	for _, r := range reqs {
		ids[r.Stream] = true
	}
	for id := range ids {
		pl.streams = append(pl.streams, id)
	}
	sort.Ints(pl.streams)
	dense := make(map[int]int, len(pl.streams))
	for i, id := range pl.streams {
		dense[id] = i
	}

	pl.frames = make([]frame, 0, len(reqs))
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := reqs[order[a]], reqs[order[b]]
		if ra.Stream != rb.Stream {
			return ra.Stream < rb.Stream
		}
		return ra.Seq < rb.Seq
	})
	for _, i := range order {
		r := reqs[i]
		f := frame{req: r, stream: dense[r.Stream], sp: r.Sp, tp: r.Tp, reads: r.NumReads, group: r.Group}
		if f.sp == 0 {
			f.sp = cfg.Sp
		}
		if f.tp == 0 {
			f.tp = cfg.Tp
		}
		if f.reads == 0 {
			f.reads = cfg.NumReads
		}
		f.absDeadline = math.Inf(1)
		if r.Deadline > 0 {
			f.absDeadline = r.Arrival + r.Deadline
		}
		if cfg.Route == RouteHybrid {
			dec := cfg.Router.Route(r.Problem, r.Deadline, f.reads)
			f.class = dec.Class
			f.hardness = dec.Hardness
		}
		if _, err := pl.schedule(schedKey{f.sp, f.tp}); err != nil {
			return nil, err
		}
		pl.frames = append(pl.frames, f)
	}
	pl.outcomes = make([]Outcome, len(pl.frames))
	for i := range pl.outcomes {
		f := &pl.frames[i]
		pl.outcomes[i] = Outcome{Stream: f.req.Stream, Seq: f.req.Seq, Arrival: f.req.Arrival, Device: -1, Batch: -1}
	}

	n := len(pl.streams)
	pl.queues = make([][]int, n)
	pl.inflight = make([]int, n)
	for i := range pl.inflight {
		pl.inflight[i] = -1
	}
	d := len(cfg.Devices)
	pl.busyUntil = make([]float64, d)
	pl.busy = make([]float64, d)
	pl.devBatch = make([]int, d)
	pl.downEmitted = make([]bool, d)

	for i := range pl.frames {
		f := &pl.frames[i]
		pl.events.push(event{t: f.req.Arrival, kind: 1, a: f.stream, b: f.req.Seq, payload: i})
	}
	return pl, nil
}

func (pl *planner) schedule(k schedKey) (*annealer.Schedule, error) {
	if sc, ok := pl.schedules[k]; ok {
		return sc, nil
	}
	sc, err := annealer.Reverse(k.sp, k.tp)
	if err != nil {
		return nil, err
	}
	pl.schedules[k] = sc
	return sc, nil
}

// lease returns the prepared session for (device, schedule), compiling it
// on first use. Programming failures are stripped from the lease's fault
// model: the dispatcher owns that draw (one per programming cycle, from
// the batch's "fault/programming" split) so the plan and the execution
// always agree on a batch's fate.
func (pl *planner) lease(dev int, k schedKey) (*annealer.Lease, error) {
	lk := leaseKey{dev, k}
	if l, ok := pl.leases[lk]; ok {
		return l, nil
	}
	d := pl.cfg.Devices[dev]
	p := annealer.Params{
		Schedule:             pl.schedules[k],
		Engine:               d.Engine,
		Profile:              d.Profile,
		SweepsPerMicrosecond: d.SweepsPerMicrosecond,
		ICE:                  d.ICE,
		Faults:               d.Faults.WithoutProgrammingFailures(),
		Parallelism:          1,
	}
	l, err := d.QPU.Lease(p)
	if err != nil {
		return nil, fmt.Errorf("fleet: device %d: %w", dev, err)
	}
	pl.leases[lk] = l
	return l, nil
}

// tattrs builds a trace record's attributes from as, which is in key
// order, inserting the shard label in its place so the tracer has
// nothing to sort. Call it only when the tracer is non-nil.
func (pl *planner) tattrs(as ...telemetry.Attr) telemetry.Attrs {
	out := make(telemetry.Attrs, 0, len(as)+1)
	if pl.cfg.ShardLabel == "" {
		return append(out, as...)
	}
	i := 0
	for i < len(as) && as[i].Key < "shard" {
		i++
	}
	out = append(append(out, as[:i]...), telemetry.String("shard", pl.cfg.ShardLabel))
	return append(out, as[i:]...)
}

// mlabels appends the shard label to a metric series' labels. Callers
// pass at most three and hand the result straight to the registry, so
// the copy stays on the caller's stack.
func (pl *planner) mlabels(ls ...telemetry.Label) []telemetry.Label {
	if pl.cfg.ShardLabel == "" {
		return ls
	}
	return append(append(make([]telemetry.Label, 0, 4), ls...), telemetry.Label{Key: "shard", Value: pl.cfg.ShardLabel})
}

// deviceDown reports whether the device refuses new work at time t.
func (pl *planner) deviceDown(dev int, t float64) bool {
	f := pl.cfg.Devices[dev].FailAt
	return f > 0 && t >= f
}

// simulate is the plan phase: a single-threaded event loop that fixes
// every scheduling decision and all dispatcher telemetry.
func (pl *planner) simulate() {
	for pl.events.Len() > 0 {
		e := pl.events.pop()
		pl.clock = e.t
		switch e.kind {
		case 0:
			pl.complete(e.payload)
		case 1:
			pl.admit(e.payload)
		}
		pl.dispatch()
	}
	// Anything still queued can never run: every device is down and
	// nothing is in flight. Walk streams in order and shed.
	for s := range pl.queues {
		for _, fi := range pl.queues[s] {
			t := math.Max(pl.clock, pl.frames[fi].req.Arrival)
			pl.shed(fi, ShedDeviceUnavailable, t)
		}
		pl.queues[s] = nil
	}
	pl.queued = 0
	pl.prepStats = pl.compiles()
	for dev := range pl.cfg.Devices {
		if f := pl.cfg.Devices[dev].FailAt; f > 0 && !pl.downEmitted[dev] {
			pl.downEmitted[dev] = true
			if pl.cfg.Trace != nil {
				pl.cfg.Trace.Event("fleet/device-down", f, pl.tattrs(telemetry.Int("device", dev)))
			}
		}
	}
}

// admit applies the admission-control ladder to an arriving frame.
func (pl *planner) admit(fi int) {
	f := &pl.frames[fi]
	if len(pl.queues[f.stream]) >= pl.cfg.StreamQueueBound {
		pl.shed(fi, ShedStreamQueueFull, f.req.Arrival)
		return
	}
	pl.queues[f.stream] = append(pl.queues[f.stream], fi)
	pl.queued++
	if pl.cfg.Route == RouteHybrid {
		if pl.cfg.Trace != nil {
			pl.cfg.Trace.Event("fleet/route", f.req.Arrival, pl.tattrs(
				telemetry.String("class", f.class.String()), telemetry.Float("hardness", f.hardness),
				telemetry.Int("seq", f.req.Seq), telemetry.Int("stream", f.req.Stream),
			))
		}
		if pl.cfg.Metrics != nil {
			pl.cfg.Metrics.Counter("fleet_routed_total",
				pl.mlabels(telemetry.Label{Key: "class", Value: f.class.String()})...).Inc()
		}
	}
	if pl.cfg.Metrics != nil {
		pl.cfg.Metrics.Histogram("fleet_queue_depth", 0, 64, 16, pl.mlabels()...).Observe(float64(pl.queued))
	}
}

// shed records a degradation-ladder outcome: the frame is answered by the
// classical candidate at the shed instant plus the fallback compute cost.
func (pl *planner) shed(fi int, reason string, t float64) {
	f := &pl.frames[fi]
	o := &pl.outcomes[fi]
	o.Start = t
	o.Finish = t + float64(f.req.Problem.N)*core.FallbackMicrosPerSpin
	o.QueueMicros = t - f.req.Arrival
	o.Attempts = f.attempts
	o.Shed = true
	o.ShedReason = reason
	o.DeadlineMissed = o.Finish > f.absDeadline
	ans := core.Reduce(f.req.Problem, [][]int8{f.req.InitialState}, nil)
	o.Best, o.Source = ans.Best, ans.Source
	if pl.cfg.Trace != nil {
		pl.cfg.Trace.Event("fleet/shed", t, pl.tattrs(
			telemetry.String("reason", reason), telemetry.Int("seq", f.req.Seq), telemetry.Int("stream", f.req.Stream)))
	}
	if o.DeadlineMissed {
		pl.deadlineMiss(fi, o.Finish)
	}
}

func (pl *planner) deadlineMiss(fi int, at float64) {
	if pl.cfg.Trace != nil {
		f := &pl.frames[fi]
		pl.cfg.Trace.Event("fleet/deadline-miss", at, pl.tattrs(telemetry.Int("seq", f.req.Seq), telemetry.Int("stream", f.req.Stream)))
	}
}

// expireHeads sheds queue heads whose deadlines have already passed —
// dispatching them would burn device time on an answer nobody can use.
func (pl *planner) expireHeads() {
	for s := range pl.queues {
		for len(pl.queues[s]) > 0 {
			fi := pl.queues[s][0]
			if pl.frames[fi].absDeadline > pl.clock {
				break
			}
			pl.queues[s] = pl.queues[s][1:]
			pl.queued--
			pl.shed(fi, ShedDeadlineExpired, pl.clock)
		}
	}
}

// routable reports whether frame fi may run on device dev: the problem
// fits the backend (QAOA's statevector cap) and the frame's routing class
// matches the backend's class. Only consulted for heterogeneous pools —
// homogeneous QPU fleets skip it entirely.
func (pl *planner) routable(fi, dev int) bool {
	d := &pl.cfg.Devices[dev]
	f := &pl.frames[fi]
	if d.Backend == BackendQAOA && f.req.Problem.N > qaoa.MaxQubits {
		return false
	}
	return f.class == ClassAny || d.Backend.Class() == f.class
}

// pickFrame returns the next frame to serve on device dev under the
// policy, or −1. With forBatch < 0 it seeds a new batch (only streams
// with nothing in flight are eligible); otherwise it extends batch
// forBatch with frames matching key — a stream already in THAT batch may
// contribute its next frame too (same-cycle continuation keeps FIFO
// intact). contOnly restricts the pick to those continuations, plus —
// when group > 0 — idle streams whose head frame belongs to ensemble
// group `group`: a frame's arms are one logical unit of work,
// so coalescing them into the seeding arm's cycle is the same pure
// amortization as a same-stream continuation.
func (pl *planner) pickFrame(forBatch int, key schedKey, contOnly bool, dev, group int) int {
	eligible := func(s int) int {
		if len(pl.queues[s]) == 0 {
			return -1
		}
		if contOnly {
			if pl.inflight[s] != forBatch &&
				!(group > 0 && pl.inflight[s] == -1 && pl.frames[pl.queues[s][0]].group == group) {
				return -1
			}
		} else if pl.inflight[s] != -1 && pl.inflight[s] != forBatch {
			return -1
		}
		fi := pl.queues[s][0]
		if forBatch >= 0 {
			f := &pl.frames[fi]
			if (schedKey{f.sp, f.tp}) != key {
				return -1
			}
		}
		if pl.hetero && !pl.routable(fi, dev) {
			return -1
		}
		return fi
	}
	if pl.cfg.Policy == PolicyRoundRobin {
		n := len(pl.queues)
		for off := 1; off <= n; off++ {
			s := (pl.rrStream + off) % n
			if fi := eligible(s); fi >= 0 {
				if forBatch < 0 {
					pl.rrStream = s
				}
				return fi
			}
		}
		return -1
	}
	best := -1
	for s := range pl.queues {
		fi := eligible(s)
		if fi < 0 {
			continue
		}
		if best < 0 || pl.frameLess(fi, best) {
			best = fi
		}
	}
	return best
}

// frameLess orders frames for the non-round-robin policies.
func (pl *planner) frameLess(a, b int) bool {
	fa, fb := &pl.frames[a], &pl.frames[b]
	if pl.cfg.Policy == PolicyEDF && fa.absDeadline != fb.absDeadline {
		return fa.absDeadline < fb.absDeadline
	}
	if fa.req.Arrival != fb.req.Arrival {
		return fa.req.Arrival < fb.req.Arrival
	}
	if fa.stream != fb.stream {
		return fa.stream < fb.stream
	}
	return fa.req.Seq < fb.req.Seq
}

// pickDevice returns a free device under the policy, or −1.
func (pl *planner) pickDevice() int {
	free := func(d int) bool {
		return pl.busyUntil[d] <= pl.clock && !pl.deviceDown(d, pl.clock)
	}
	n := len(pl.cfg.Devices)
	if pl.cfg.Policy == PolicyRoundRobin {
		for off := 1; off <= n; off++ {
			d := (pl.rrDevice + off) % n
			if free(d) {
				pl.rrDevice = d
				return d
			}
		}
		return -1
	}
	// Least-loaded (and EDF's device pick): compare accumulated busy
	// time; ties break to the lowest index.
	best := -1
	for d := 0; d < n; d++ {
		if !free(d) {
			continue
		}
		if best < 0 || pl.busy[d] < pl.busy[best] {
			best = d
		}
	}
	return best
}

// rerouteStranded relaxes or sheds queued frames whose routing class can
// no longer be served. Device death is permanent (FailAt is monotone), so
// a frame with no live class-compatible device either falls back to
// ClassAny (some live device can still run it — the per-backend fallback
// rung) or is shed on the no-compatible-backend rung. Heterogeneous pools
// only; the all-devices-dead case is left to simulate's end walk so the
// existing device-unavailable accounting is untouched.
func (pl *planner) rerouteStranded() {
	anyAlive := false
	for d := range pl.cfg.Devices {
		if !pl.deviceDown(d, pl.clock) {
			anyAlive = true
			break
		}
	}
	if !anyAlive {
		return
	}
	liveCompatible := func(fi int, respectClass bool) bool {
		f := &pl.frames[fi]
		for d := range pl.cfg.Devices {
			if pl.deviceDown(d, pl.clock) {
				continue
			}
			dd := &pl.cfg.Devices[d]
			if dd.Backend == BackendQAOA && f.req.Problem.N > qaoa.MaxQubits {
				continue
			}
			if respectClass && f.class != ClassAny && dd.Backend.Class() != f.class {
				continue
			}
			return true
		}
		return false
	}
	for s := range pl.queues {
		keep := pl.queues[s][:0]
		for _, fi := range pl.queues[s] {
			if liveCompatible(fi, true) {
				keep = append(keep, fi)
				continue
			}
			f := &pl.frames[fi]
			if f.class != ClassAny && liveCompatible(fi, false) {
				if pl.cfg.Trace != nil {
					pl.cfg.Trace.Event("fleet/route-fallback", pl.clock, pl.tattrs(
						telemetry.String("from", f.class.String()),
						telemetry.Int("seq", f.req.Seq), telemetry.Int("stream", f.req.Stream),
					))
				}
				if pl.cfg.Metrics != nil {
					pl.cfg.Metrics.Counter("fleet_route_fallbacks_total",
						pl.mlabels(telemetry.Label{Key: "from", Value: f.class.String()})...).Inc()
				}
				f.class = ClassAny
				pl.routeFallbacks++
				keep = append(keep, fi)
				continue
			}
			pl.queued--
			pl.shed(fi, ShedNoCompatibleBackend, pl.clock)
		}
		pl.queues[s] = keep
	}
}

// dispatch forms and launches batches while a free device and an eligible
// frame exist.
func (pl *planner) dispatch() {
	for {
		pl.expireHeads()
		if pl.hetero {
			pl.rerouteStranded()
		}
		dev := pl.pickDevice()
		if dev < 0 {
			return
		}
		seed := pl.pickFrame(-1, schedKey{}, false, dev, 0)
		if seed >= 0 {
			pl.launch(dev, seed)
			continue
		}
		if !pl.hetero {
			return
		}
		// The policy's first-choice device has no routable frame; scan the
		// remaining free devices in index order so class-restricted work
		// still drains (the policy ordering only ranks within a class).
		launched := false
		for d := range pl.cfg.Devices {
			if d == dev || pl.busyUntil[d] > pl.clock || pl.deviceDown(d, pl.clock) {
				continue
			}
			if s := pl.pickFrame(-1, schedKey{}, false, d, 0); s >= 0 {
				pl.launch(d, s)
				launched = true
				break
			}
		}
		if !launched {
			return
		}
	}
}

// launch forms one batch seeded by frame seed and programs it onto dev.
func (pl *planner) launch(dev, seed int) {
	id := len(pl.batches)
	sf := &pl.frames[seed]
	key := schedKey{sf.sp, sf.tp}
	b := plannedBatch{id: id, dev: dev, key: key, start: pl.clock}
	take := func(fi int) {
		f := &pl.frames[fi]
		pl.queues[f.stream] = pl.queues[f.stream][1:]
		pl.queued--
		pl.inflight[f.stream] = id
		f.attempts++
		b.frames = append(b.frames, fi)
	}
	// Partition the eligible work across the free devices: pulling
	// EXTRA streams into this cycle is worth a share of the programming
	// overhead only while it doesn't starve an idle device, so
	// cross-stream fills are capped at ceil(eligible/free). Same-stream
	// continuations stay exempt — a stream locked by this batch cannot
	// run anywhere else, so folding its next frames in is pure
	// amortization.
	eligibleSeeds, freeDevs := 0, 0
	for s := range pl.queues {
		if len(pl.queues[s]) > 0 && pl.inflight[s] == -1 {
			eligibleSeeds++
		}
	}
	for d2 := range pl.cfg.Devices {
		if pl.busyUntil[d2] <= pl.clock && !pl.deviceDown(d2, pl.clock) {
			freeDevs++
		}
	}
	crossCap := (eligibleSeeds + freeDevs - 1) / freeDevs
	if crossCap > pl.cfg.BatchMax {
		crossCap = pl.cfg.BatchMax
	}

	take(seed)
	cross := 1
	for len(b.frames) < pl.cfg.BatchMax {
		fi := pl.pickFrame(id, key, cross >= crossCap, dev, sf.group)
		if fi < 0 {
			break
		}
		if pl.inflight[pl.frames[fi].stream] != id {
			cross++
		}
		take(fi)
	}

	d := pl.cfg.Devices[dev]
	classical := d.Backend.Classical()
	var prog, readout float64
	if classical {
		prog = serving.setupMicros
	} else if d.QPU != nil {
		prog, readout = d.QPU.ProgrammingTime, d.QPU.ReadoutTime
	}
	sc := pl.schedules[key]
	perRead := sc.Duration() + readout

	// The batch's fate is pre-drawn from the same "fault/programming"
	// split annealer.Run would use, keyed by (seed, device, cycle) — the
	// execute phase never re-draws it.
	root := rng.New(pl.cfg.Seed).SplitString("device").Split(uint64(dev)).Split(uint64(pl.devBatch[dev]))
	pl.devBatch[dev]++
	b.faulted = d.Faults.ProgrammingFails(root.SplitString("fault/programming"))

	cursor := pl.clock + prog
	if b.faulted {
		b.finish = cursor
		if pl.cfg.Trace != nil {
			pl.cfg.Trace.Event("fleet/device-fault", pl.clock, pl.tattrs(telemetry.Int("batch", id), telemetry.Int("device", dev)))
		}
	} else {
		for _, fi := range b.frames {
			f := &pl.frames[fi]
			if classical {
				cursor += classicalServiceMicros(d.Backend, f.req.Problem, f.reads)
			} else {
				cursor += float64(f.reads) * perRead
			}
			o := &pl.outcomes[fi]
			o.Start = b.start
			o.Finish = cursor
			o.QueueMicros = b.start - f.req.Arrival
			o.Device = dev
			o.Batch = id
			o.Attempts = f.attempts
			if pl.hetero {
				o.Backend = d.Backend.String()
			}
		}
		b.finish = cursor
	}
	pl.busyUntil[dev] = b.finish
	pl.busy[dev] += b.finish - b.start
	pl.batches = append(pl.batches, b)
	batchReads := 0
	for _, fi := range b.frames {
		batchReads += pl.frames[fi].reads
	}
	// The per-read anneal/readout decomposition rides on the span so an
	// offline analyzer (cmd/slotool) can attribute each frame's time to
	// program / batch-wait / anneal / readout without re-deriving the
	// device model.
	if pl.cfg.Trace != nil {
		battrs := make([]telemetry.Attr, 0, 9)
		if classical {
			// Classical cycles have no anneal schedule: their time is solver
			// compute, announced by the backend attribute.
			battrs = append(battrs, telemetry.Float("anneal_us", 0), telemetry.String("backend", d.Backend.String()))
		} else {
			battrs = append(battrs, telemetry.Float("anneal_us", sc.Duration()))
		}
		battrs = append(battrs,
			telemetry.Int("batch", id), telemetry.Int("device", dev),
			telemetry.Bool("faulted", b.faulted), telemetry.Int("frames", len(b.frames)),
			telemetry.Float("prog_us", prog), telemetry.Float("readout_us", readout),
			telemetry.Int("reads", batchReads),
		)
		pl.cfg.Trace.Span("fleet/batch", b.start, b.finish, pl.tattrs(battrs...))
	}
	pl.events.push(event{t: b.finish, kind: 0, a: dev, b: id, payload: id})
}

// complete retires a batch at its finish time: served frames get their
// spans, faulted frames requeue at their stream heads or exhaust.
func (pl *planner) complete(batchID int) {
	b := &pl.batches[batchID]
	for s := range pl.inflight {
		if pl.inflight[s] == batchID {
			pl.inflight[s] = -1
		}
	}
	if !b.faulted {
		for _, fi := range b.frames {
			f := &pl.frames[fi]
			o := &pl.outcomes[fi]
			o.DeadlineMissed = o.Finish > f.absDeadline
			if pl.cfg.Trace != nil {
				pl.cfg.Trace.Span("fleet/frame", f.req.Arrival, o.Finish, pl.tattrs(
					telemetry.Int("attempts", o.Attempts), telemetry.Int("batch", batchID),
					telemetry.Int("device", o.Device), telemetry.Float("queue_us", o.QueueMicros),
					telemetry.Int("reads", f.reads), telemetry.Int("seq", f.req.Seq),
					telemetry.Int("stream", f.req.Stream),
				))
			}
			if o.DeadlineMissed {
				pl.deadlineMiss(fi, o.Finish)
			}
		}
		return
	}
	// Faulted cycle: re-admit survivors at their stream FRONTS in batch
	// order so per-stream FIFO survives the retry.
	requeued := map[int][]int{}
	for _, fi := range b.frames {
		f := &pl.frames[fi]
		if f.attempts >= maxAttempts {
			pl.shed(fi, ShedRetriesExhausted, pl.clock)
			continue
		}
		requeued[f.stream] = append(requeued[f.stream], fi)
		pl.retries++
	}
	for s := range pl.queues {
		if fis, ok := requeued[s]; ok {
			pl.queues[s] = append(append([]int(nil), fis...), pl.queues[s]...)
			pl.queued += len(fis)
		}
	}
}

// execute runs every planned (non-faulted) batch's anneals on
// cfg.Workers goroutines. Each frame's RNG derives from plan-fixed keys,
// so the worker count cannot change any answer.
func (pl *planner) execute(ctx context.Context) error {
	var jobs []int
	for i := range pl.batches {
		if !pl.batches[i].faulted {
			jobs = append(jobs, i)
		}
	}
	// Compile every lease up front (deterministic order, fail fast).
	// Classical backends run without leases — their solvers need no
	// compiled embedding or schedule.
	for _, bi := range jobs {
		b := &pl.batches[bi]
		if pl.cfg.Devices[b.dev].Backend.Classical() {
			continue
		}
		if _, err := pl.lease(b.dev, b.key); err != nil {
			return err
		}
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < pl.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bi := range ch {
				if ctx.Err() != nil {
					fail(ctx.Err())
					continue
				}
				if err := pl.runBatch(bi); err != nil {
					fail(err)
				}
			}
		}()
	}
	for _, bi := range jobs {
		ch <- bi
	}
	close(ch)
	wg.Wait()
	return firstErr
}

// compiles counts the problem compiles runBatch's multi-run calls will
// make: RunMulti compiles each distinct *qubo.Ising of a batch once, so a
// frame whose problem a batch-mate before it carries is a hit. The plan
// alone fixes the counts; classical batches compile nothing.
func (pl *planner) compiles() PrepStats {
	var st PrepStats
	for i := range pl.batches {
		b := &pl.batches[i]
		if b.faulted || pl.cfg.Devices[b.dev].Backend.Classical() {
			continue
		}
		for k, fi := range b.frames {
			is := pl.frames[fi].req.Problem
			if slices.ContainsFunc(b.frames[:k], func(fj int) bool { return pl.frames[fj].req.Problem == is }) {
				st.Hits++
			} else {
				st.Misses++
			}
		}
	}
	return st
}

// runBatch anneals one planned batch's frames through the device lease
// in one multi-run call, so the frames' reads share lockstep groups and
// frames carrying the same *qubo.Ising — the arms of one ensemble
// frame — share one problem compile, or hands the batch to its
// classical solver.
func (pl *planner) runBatch(bi int) error {
	b := &pl.batches[bi]
	if pl.cfg.Devices[b.dev].Backend.Classical() {
		return pl.runClassicalBatch(bi)
	}
	l := pl.leases[leaseKey{b.dev, b.key}]
	runs := make([]annealer.MultiRun, len(b.frames))
	for k, fi := range b.frames {
		f := &pl.frames[fi]
		key := uint64(f.req.Stream)<<32 | uint64(f.req.Seq)
		runs[k] = annealer.MultiRun{
			Problem: f.req.Problem, InitialState: f.req.InitialState, NumReads: f.reads,
			Rng: rng.New(pl.cfg.Seed).SplitString("fleet/frame").Split(key).Split(uint64(pl.outcomes[fi].Attempts)),
		}
	}
	results, errs, err := l.RunMulti(runs)
	if err != nil {
		return err
	}
	for k, fi := range b.frames {
		f := &pl.frames[fi]
		o := &pl.outcomes[fi]
		res := results[k]
		arm := core.Arm{Source: core.AnswerQuantum}
		if err := errs[k]; err != nil {
			if _, ok := annealer.AsFault(err); !ok {
				return err
			}
			// A read-level hard fault (all reads lost): the candidate is
			// still a complete answer — degrade, keep the planned timing.
			arm.Fault = err
		} else {
			arm.Best = res.Best
			if f.req.KeepSamples {
				o.Samples = res.Samples
			}
		}
		ans := core.Reduce(f.req.Problem, [][]int8{f.req.InitialState}, []core.Arm{arm})
		o.Best, o.Source, o.Gain = ans.Best, ans.Source, ans.Gain
		if pl.cfg.Trace != nil {
			pl.annealStats(f, o, "", readStatsOf(res))
		}
	}
	return nil
}

// runClassicalBatch serves one planned batch's frames on a classical
// backend. The RNG keying is identical to the anneal path — (Seed, stream,
// seq, attempt), all plan-fixed — so the worker count cannot change any
// answer here either.
func (pl *planner) runClassicalBatch(bi int) error {
	b := &pl.batches[bi]
	d := pl.cfg.Devices[b.dev]
	for _, fi := range b.frames {
		f := &pl.frames[fi]
		o := &pl.outcomes[fi]
		key := uint64(f.req.Stream)<<32 | uint64(f.req.Seq)
		r := rng.New(pl.cfg.Seed).SplitString("fleet/frame").Split(key).Split(uint64(o.Attempts))
		best, meanE, err := runClassical(d.Backend, f.req.Problem, f.req.InitialState, f.reads, r)
		if err != nil {
			return fmt.Errorf("fleet: device %d (%s): %w", b.dev, d.Backend, err)
		}
		ans := core.Reduce(f.req.Problem, [][]int8{f.req.InitialState}, []core.Arm{{Best: best, Source: core.AnswerClassicalSolver}})
		o.Best, o.Source = ans.Best, ans.Source
		if pl.cfg.Trace != nil {
			// A classical solver has no chains to break and no per-read
			// faults: every read survives.
			pl.annealStats(f, o, d.Backend.String(), &readStats{best: o.Best.Energy, mean: meanE, survived: f.reads})
		}
	}
	return nil
}

// readStats is the per-frame read quality a fleet/anneal-stats event
// carries.
type readStats struct {
	best, mean, chainBreaks float64
	survived                int
	faults                  annealer.FaultStats
}

// readStatsOf summarizes an anneal result; nil (a hard fault that lost
// every read) stays nil.
func readStatsOf(res *annealer.Result) *readStats {
	if res == nil {
		return nil
	}
	var sum float64
	for _, s := range res.Samples {
		sum += s.Energy
	}
	return &readStats{
		best: res.Best.Energy, mean: sum / float64(len(res.Samples)), chainBreaks: res.BrokenChainRate,
		survived: len(res.Samples), faults: res.Faults,
	}
}

// annealStats publishes one frame's fleet/anneal-stats event — the raw
// material the SLO monitor's per-device health scoring (internal/slo)
// consumes: sample-energy residuals against the frame's own classical
// candidate (a device-independent reference) plus the soft-fault
// tallies. Classical backends publish the same event with their backend
// named, so health scoring sees one uniform quality stream; st == nil
// marks a hard fault that lost every read. Every value derives from the
// plan-fixed RNG keys, so emission from the concurrent execute phase
// cannot perturb the deterministic record set. Call it only when the
// tracer is non-nil.
func (pl *planner) annealStats(f *frame, o *Outcome, backend string, st *readStats) {
	candE := f.req.Problem.Energy(f.req.InitialState)
	as := make([]telemetry.Attr, 0, 14)
	if backend != "" {
		as = append(as, telemetry.String("backend", backend))
	}
	as = append(as, telemetry.Int("batch", o.Batch))
	if st == nil {
		as = append(as,
			telemetry.Float("cand_energy", candE), telemetry.Int("device", o.Device),
			telemetry.Int("reads", f.reads), telemetry.Int("seq", f.req.Seq),
			telemetry.Int("stream", f.req.Stream), telemetry.Int("survived", 0),
		)
	} else {
		as = append(as,
			telemetry.Float("best_energy", st.best), telemetry.Float("cand_energy", candE),
			telemetry.Float("chain_break_rate", st.chainBreaks), telemetry.Int("device", o.Device),
			telemetry.Int("drifts", st.faults.CalibrationDrifts), telemetry.Float("mean_energy", st.mean),
			telemetry.Int("reads", f.reads), telemetry.Int("seq", f.req.Seq),
			telemetry.Int("storms", st.faults.ChainBreakStorms), telemetry.Int("stream", f.req.Stream),
			telemetry.Int("survived", st.survived), telemetry.Int("timeouts", st.faults.ReadTimeouts),
		)
	}
	pl.cfg.Trace.Event("fleet/anneal-stats", o.Finish, pl.tattrs(as...))
}
