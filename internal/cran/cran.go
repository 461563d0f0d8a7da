// Package cran is the paper's centralized-RAN story taken to city scale:
// a two-level serving tier where a front-end shard router places cells
// onto N independent fleet shards, each an internal/fleet dispatcher over
// its own simulated-QPU pool. The router owns cell placement (consistent
// hashing or load-aware), cross-shard failover when a shard's whole pool
// is dead, and per-shard admission backpressure; each shard keeps the
// fleet's bit-deterministic plan/execute contract.
//
// Determinism contract: Serve routes in two phases, mirroring fleet.Serve.
// The ROUTE phase is a single-threaded pass over frames in simulated
// arrival order that fixes every placement, failover epoch, admission
// decision, and router trace record — it depends only on the request set
// and static configuration (shard death times come from device FailAt
// config via fleet.PoolDeadAt, never from execution). The EXECUTE phase
// then runs each shard's fleet.Serve concurrently on up to ShardWorkers
// goroutines; per-shard seeds and telemetry shard labels are fixed by the
// route, so merged outcomes and the exported trace are bit-identical for
// any ShardWorkers, any per-shard Workers count, and any shard execution
// order.
package cran

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/qubo"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Router shed reasons reported in Outcome.Frame.ShedReason and the
// cran_router_shed_total{reason} counter. They extend the fleet's
// degradation ladder one level up.
const (
	// ShedNoLiveShard: every shard's pool is dead at the frame's arrival.
	ShedNoLiveShard = "no-live-shard"
	// ShedShardBackpressure: the serving shard's estimated queueing delay
	// exceeded AdmitQueueMicros at the frame's arrival.
	ShedShardBackpressure = "shard-backpressure"
)

// Stream identity limits: a (cell, ue) pair packs into one fleet stream
// id as cell·1024 + ue, which must stay inside the fleet's [0, 2^31)
// stream range.
const (
	// MaxCells bounds Request.Cell.
	MaxCells = 1 << 20
	// MaxUEsPerCell bounds Request.UE.
	MaxUEsPerCell = 1 << 10
)

// Request is one detection frame submitted to the serving tier,
// addressed by (cell, UE) instead of a flat stream id.
type Request struct {
	// Cell is the originating base station, in [0, MaxCells). The router
	// places whole cells: every frame of a cell lands on the cell's
	// current shard.
	Cell int
	// UE identifies the user stream within the cell, in [0, MaxUEsPerCell).
	UE int
	// Seq orders frames within a (cell, UE) stream; per-stream FIFO is
	// defined over Seq, and arrivals must be non-decreasing in Seq order.
	Seq int
	// Arrival is the simulated-μs arrival time.
	Arrival float64
	// Deadline is the latency budget in μs after Arrival (0: none).
	Deadline float64
	// Problem is the reduced detection problem.
	Problem *qubo.Ising
	// InitialState is the classical candidate (len == Problem.N).
	InitialState []int8
	// Sp, Tp, NumReads override shard-level defaults (0: defaults).
	Sp, Tp   float64
	NumReads int
}

// StreamID packs the (cell, ue) pair into the fleet stream id the shard
// dispatcher sees.
func StreamID(cell, ue int) int { return cell*MaxUEsPerCell + ue }

// Config tunes one Serve call.
type Config struct {
	// Shards partitions the QPU pool: Shards[i] is shard i's device list
	// (required: ≥ 1 shard, every shard non-empty).
	Shards [][]fleet.Device
	// Placement selects the cell-placement policy (default PlacementHash).
	Placement Placement
	// Fleet is the per-shard dispatcher template: policy, anneal
	// defaults, batching, queue bounds, and per-shard Workers all apply
	// to every shard. Devices, Seed, ShardLabel, Trace, and Metrics are
	// owned by the router and overwritten per shard.
	Fleet fleet.Config
	// AdmitQueueMicros bounds each shard's estimated queueing delay: a
	// frame whose serving shard's backlog estimate exceeds it at arrival
	// is shed at admission with ShedShardBackpressure. 0 disables router
	// backpressure (shards still shed by their own queue bounds).
	AdmitQueueMicros float64
	// EstReadMicros is the admission estimator's per-read service cost in
	// μs (default 1): an admitted frame advances its shard's drain
	// estimate by reads·EstReadMicros/len(devices). It is a routing
	// estimate only — actual timing is fixed by the shard's own plan.
	EstReadMicros float64
	// Seed roots every RNG stream; shard i serves under an independent
	// seed split from (Seed, i).
	Seed uint64
	// ShardWorkers caps how many shard Serves run concurrently (default
	// min(GOMAXPROCS, shards)). It cannot affect results.
	ShardWorkers int
	// Trace and Metrics receive router and shard telemetry (nil-safe).
	// They are shared across shards: every shard-emitted record carries a
	// shard attribute/label (fleet.Config.ShardLabel), which keeps the
	// merged trace export deterministic.
	Trace   *telemetry.Tracer
	Metrics *telemetry.Registry

	// execPerm, when non-nil, fixes the order shard Serves are launched
	// in. It is an in-package test hook for proving shard execution order
	// cannot affect results; the zero value launches shards in index
	// order.
	execPerm []int
}

// Outcome is one frame's fate at the tier level: where the router sent
// it and what the shard (or the router's own shed path) answered.
type Outcome struct {
	Cell int `json:"cell"`
	UE   int `json:"ue"`
	Seq  int `json:"seq"`
	// Shard is the serving shard after any failover; −1 when the router
	// shed the frame before admission.
	Shard int `json:"shard"`
	// Epoch is the cell's placement epoch the frame was admitted under
	// (0: original placement; each failover increments it).
	Epoch int `json:"epoch"`
	// FailedOver marks frames admitted under a failover epoch: the cell
	// had been moved off its original shard by the frame's arrival.
	FailedOver bool `json:"failed_over,omitempty"`
	// RouterShed marks frames the router answered classically without
	// admitting to any shard; Frame.ShedReason says why.
	RouterShed bool `json:"router_shed,omitempty"`
	// Frame is the shard-level outcome (or the router's synthesized
	// fallback outcome for router-shed frames). Frame.Stream is the
	// packed StreamID(Cell, UE).
	Frame fleet.Outcome `json:"frame"`
}

// PlacementRecord is one epoch of a cell's placement history. Epoch 0 is
// the original placement; each cross-shard failover appends the next
// epoch. SinceMicros is the arrival time of the frame that established
// the epoch.
type PlacementRecord struct {
	Cell        int     `json:"cell"`
	Epoch       int     `json:"epoch"`
	Shard       int     `json:"shard"`
	SinceMicros float64 `json:"since_us"`
}

// Result is one Serve call's full output.
type Result struct {
	// Outcomes holds one entry per request, ordered by (Cell, UE, Seq).
	Outcomes []Outcome
	// Placements is the full placement history, ordered by (Cell, Epoch).
	Placements []PlacementRecord
	// ShardReports holds each shard's fleet report (zero value for shards
	// that admitted no frames).
	ShardReports []fleet.Report
	// Report aggregates tier-level statistics.
	Report Report
}

func (cfg Config) withDefaults() (Config, error) {
	if len(cfg.Shards) == 0 {
		return cfg, fmt.Errorf("cran: no shards")
	}
	for i, devs := range cfg.Shards {
		if len(devs) == 0 {
			return cfg, fmt.Errorf("cran: shard %d has no devices", i)
		}
	}
	if !cfg.Placement.valid() {
		return cfg, fmt.Errorf("cran: unknown placement %d", int(cfg.Placement))
	}
	if cfg.AdmitQueueMicros < 0 || math.IsNaN(cfg.AdmitQueueMicros) {
		return cfg, fmt.Errorf("cran: bad admit queue bound %g", cfg.AdmitQueueMicros)
	}
	if cfg.EstReadMicros == 0 {
		cfg.EstReadMicros = 1
	}
	if cfg.EstReadMicros < 0 || math.IsNaN(cfg.EstReadMicros) || math.IsInf(cfg.EstReadMicros, 0) {
		return cfg, fmt.Errorf("cran: bad per-read estimate %g", cfg.EstReadMicros)
	}
	if cfg.ShardWorkers == 0 {
		cfg.ShardWorkers = runtime.GOMAXPROCS(0)
		if cfg.ShardWorkers > len(cfg.Shards) {
			cfg.ShardWorkers = len(cfg.Shards)
		}
	}
	if cfg.ShardWorkers < 1 {
		return cfg, fmt.Errorf("cran: shard workers %d < 1", cfg.ShardWorkers)
	}
	if cfg.execPerm != nil {
		if len(cfg.execPerm) != len(cfg.Shards) {
			return cfg, fmt.Errorf("cran: exec perm length %d for %d shards", len(cfg.execPerm), len(cfg.Shards))
		}
		seen := make([]bool, len(cfg.Shards))
		for _, s := range cfg.execPerm {
			if s < 0 || s >= len(cfg.Shards) || seen[s] {
				return cfg, fmt.Errorf("cran: exec perm is not a permutation of shards")
			}
			seen[s] = true
		}
	}
	return cfg, nil
}

// ValidateRequests checks a request set is servable at the tier level:
// cell/UE identities in range, plus every fleet-level requirement
// (problems present, candidates sized, unique (cell, ue, seq), per-stream
// arrivals non-decreasing) checked over the packed stream ids.
func ValidateRequests(reqs []Request) error {
	for i, r := range reqs {
		if r.Cell < 0 || r.Cell >= MaxCells {
			return fmt.Errorf("cran: request %d: cell %d out of [0, %d)", i, r.Cell, MaxCells)
		}
		if r.UE < 0 || r.UE >= MaxUEsPerCell {
			return fmt.Errorf("cran: request %d: ue %d out of [0, %d)", i, r.UE, MaxUEsPerCell)
		}
	}
	freqs := make([]fleet.Request, len(reqs))
	for i, r := range reqs {
		freqs[i] = toFleetRequest(r)
	}
	return fleet.ValidateRequests(freqs)
}

func toFleetRequest(r Request) fleet.Request {
	return fleet.Request{
		Stream: StreamID(r.Cell, r.UE), Seq: r.Seq,
		Arrival: r.Arrival, Deadline: r.Deadline,
		Problem: r.Problem, InitialState: r.InitialState,
		Sp: r.Sp, Tp: r.Tp, NumReads: r.NumReads,
	}
}

// cellState is one cell's routing state during the route phase.
type cellState struct {
	shard int
	epoch int
}

// router is the single-threaded route-phase state.
type router struct {
	cfg    Config
	ring   *ring
	deadAt []float64 // per shard: fleet.PoolDeadAt

	cells    map[int]*cellState
	records  []PlacementRecord
	estDrain []float64 // per shard: estimated drain instant (abs μs)
	estLoad  []float64 // per shard: cumulative estimated service μs

	perShard   [][]fleet.Request // admitted fleet requests per shard
	frameShard []int             // per request index: shard or −1
	frameEpoch []int
	routerShed int
	failovers  int
}

// Serve routes and executes one tier run over a request set. It returns
// one Outcome per request ordered by (Cell, UE, Seq); the only errors
// are invalid inputs, context cancellation, and non-fault shard
// execution failures — dead shards and overload degrade to failover and
// classical fallbacks instead.
func Serve(ctx context.Context, cfg Config, reqs []Request) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := ValidateRequests(reqs); err != nil {
		return nil, err
	}

	rt := &router{
		cfg:        cfg,
		ring:       buildRing(len(cfg.Shards), virtualNodes, cfg.Seed),
		deadAt:     make([]float64, len(cfg.Shards)),
		cells:      make(map[int]*cellState),
		estDrain:   make([]float64, len(cfg.Shards)),
		estLoad:    make([]float64, len(cfg.Shards)),
		perShard:   make([][]fleet.Request, len(cfg.Shards)),
		frameShard: make([]int, len(reqs)),
		frameEpoch: make([]int, len(reqs)),
	}
	for s, devs := range cfg.Shards {
		rt.deadAt[s] = fleet.PoolDeadAt(devs)
	}

	outcomes := make([]Outcome, len(reqs))
	rt.route(reqs, outcomes)

	reports, err := rt.execute(ctx, reqs, outcomes)
	if err != nil {
		return nil, err
	}

	sort.Slice(outcomes, func(i, j int) bool {
		a, b := outcomes[i], outcomes[j]
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		if a.UE != b.UE {
			return a.UE < b.UE
		}
		return a.Seq < b.Seq
	})
	sort.Slice(rt.records, func(i, j int) bool {
		if rt.records[i].Cell != rt.records[j].Cell {
			return rt.records[i].Cell < rt.records[j].Cell
		}
		return rt.records[i].Epoch < rt.records[j].Epoch
	})

	res := &Result{
		Outcomes:     outcomes,
		Placements:   rt.records,
		ShardReports: reports,
	}
	res.Report = rt.report(res)
	return res, nil
}

// route is the single-threaded route phase: frames in simulated arrival
// order (ties by cell, ue, seq) are placed, failed over, admitted, or
// shed. Everything it decides is a pure function of (cfg, reqs).
func (rt *router) route(reqs []Request, outcomes []Outcome) {
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := reqs[order[a]], reqs[order[b]]
		if ra.Arrival != rb.Arrival {
			return ra.Arrival < rb.Arrival
		}
		if ra.Cell != rb.Cell {
			return ra.Cell < rb.Cell
		}
		if ra.UE != rb.UE {
			return ra.UE < rb.UE
		}
		return ra.Seq < rb.Seq
	})

	for _, i := range order {
		r := reqs[i]
		cs := rt.placeCell(r.Cell, r.Arrival)
		if cs == nil || rt.deadAt[cs.shard] <= r.Arrival {
			if cs != nil {
				cs = rt.failOver(cs, r.Cell, r.Arrival)
			}
			if cs == nil {
				rt.shed(i, r, ShedNoLiveShard, outcomes)
				continue
			}
		}
		s := cs.shard
		reads := r.NumReads
		if reads == 0 {
			reads = rt.cfg.Fleet.NumReads
		}
		if reads == 0 {
			reads = fleet.DefaultNumReads
		}
		cost := float64(reads) * rt.cfg.EstReadMicros / float64(len(rt.cfg.Shards[s]))
		if rt.estDrain[s] < r.Arrival {
			rt.estDrain[s] = r.Arrival
		}
		if rt.cfg.AdmitQueueMicros > 0 && rt.estDrain[s]-r.Arrival > rt.cfg.AdmitQueueMicros {
			rt.shed(i, r, ShedShardBackpressure, outcomes)
			continue
		}
		rt.estDrain[s] += cost
		rt.estLoad[s] += cost
		rt.frameShard[i] = s
		rt.frameEpoch[i] = cs.epoch
		rt.perShard[s] = append(rt.perShard[s], toFleetRequest(r))
		if rt.cfg.Metrics != nil {
			rt.cfg.Metrics.Counter("cran_admitted_total",
				telemetry.Label{Key: "shard", Value: fmt.Sprint(s)}).Inc()
		}
	}
}

// placeCell returns the cell's current state, establishing epoch 0 on
// first touch. A nil return means no shard is live at t (load-aware
// placement refuses to place a cell on a dead shard; the hash ring
// always returns its owner and lets the failover walk sort it out).
func (rt *router) placeCell(cell int, t float64) *cellState {
	if cs, ok := rt.cells[cell]; ok {
		return cs
	}
	var s int
	switch rt.cfg.Placement {
	case PlacementLoadAware:
		s = rt.leastLoadedLive(t, -1)
		if s < 0 {
			return nil
		}
	default:
		s = rt.ring.place(cell)
	}
	cs := &cellState{shard: s}
	rt.cells[cell] = cs
	rt.records = append(rt.records, PlacementRecord{Cell: cell, Epoch: 0, Shard: s, SinceMicros: t})
	return cs
}

// failOver moves a cell off its dead shard to the next live one,
// recording the new epoch; nil when every shard is dead at t.
func (rt *router) failOver(cs *cellState, cell int, t float64) *cellState {
	from := cs.shard
	next := -1
	switch rt.cfg.Placement {
	case PlacementLoadAware:
		next = rt.leastLoadedLive(t, from)
	default:
		for _, s := range rt.ring.successors(cell) {
			if rt.deadAt[s] > t {
				next = s
				break
			}
		}
	}
	if next < 0 {
		return nil
	}
	cs.shard = next
	cs.epoch++
	rt.failovers++
	rt.records = append(rt.records, PlacementRecord{Cell: cell, Epoch: cs.epoch, Shard: next, SinceMicros: t})
	if rt.cfg.Trace != nil {
		rt.cfg.Trace.Event("cran/failover", t, telemetry.Attrs{
			telemetry.Int("cell", cell), telemetry.Int("epoch", cs.epoch),
			telemetry.Int("from", from), telemetry.Int("to", next),
		})
	}
	if rt.cfg.Metrics != nil {
		rt.cfg.Metrics.Counter("cran_failovers_total").Inc()
	}
	return cs
}

// leastLoadedLive returns the live shard with the least estimated load
// (ties to the lowest index), skipping `not`; −1 when none is live.
func (rt *router) leastLoadedLive(t float64, not int) int {
	best := -1
	for s := range rt.cfg.Shards {
		if s == not || rt.deadAt[s] <= t {
			continue
		}
		if best < 0 || rt.estLoad[s] < rt.estLoad[best] {
			best = s
		}
	}
	return best
}

// shed answers a frame classically at admission, pricing the fallback
// exactly like the fleet's own shed path.
func (rt *router) shed(i int, r Request, reason string, outcomes []Outcome) {
	rt.frameShard[i] = -1
	rt.frameEpoch[i] = 0
	rt.routerShed++
	ans := core.Reduce(r.Problem, [][]int8{r.InitialState}, nil)
	o := fleet.Outcome{
		Stream: StreamID(r.Cell, r.UE), Seq: r.Seq,
		Arrival: r.Arrival,
		Start:   r.Arrival,
		Finish:  r.Arrival + float64(r.Problem.N)*core.FallbackMicrosPerSpin,
		Device:  -1, Batch: -1,
		Shed: true, ShedReason: reason,
		Source: ans.Source, Best: ans.Best,
	}
	if r.Deadline > 0 && o.Finish > r.Arrival+r.Deadline {
		o.DeadlineMissed = true
	}
	outcomes[i] = Outcome{
		Cell: r.Cell, UE: r.UE, Seq: r.Seq,
		Shard: -1, RouterShed: true, Frame: o,
	}
	if rt.cfg.Trace != nil {
		rt.cfg.Trace.Event("cran/router-shed", r.Arrival, telemetry.Attrs{
			telemetry.Int("cell", r.Cell), telemetry.String("reason", reason),
			telemetry.Int("seq", r.Seq), telemetry.Int("ue", r.UE),
		})
	}
	if rt.cfg.Metrics != nil {
		rt.cfg.Metrics.Counter("cran_router_shed_total",
			telemetry.Label{Key: "reason", Value: reason}).Inc()
	}
}

// execute runs every non-empty shard's fleet.Serve, up to ShardWorkers
// at a time, in execPerm launch order, then merges shard outcomes back
// into the tier outcomes. Seeds, labels, and admitted sets are all fixed
// by the route phase, so concurrency here cannot affect results.
func (rt *router) execute(ctx context.Context, reqs []Request, outcomes []Outcome) ([]fleet.Report, error) {
	nShards := len(rt.cfg.Shards)
	results := make([]*fleet.Result, nShards)
	errs := make([]error, nShards)
	seeds := rng.New(rt.cfg.Seed).SplitString("cran/shard-seed")

	order := rt.cfg.execPerm
	if order == nil {
		order = make([]int, nShards)
		for i := range order {
			order[i] = i
		}
	}

	sem := make(chan struct{}, rt.cfg.ShardWorkers)
	var wg sync.WaitGroup
	for _, s := range order {
		if len(rt.perShard[s]) == 0 {
			continue
		}
		fc := rt.cfg.Fleet
		fc.Devices = rt.cfg.Shards[s]
		fc.Seed = seeds.Split(uint64(s)).Uint64()
		fc.ShardLabel = fmt.Sprint(s)
		fc.Trace = rt.cfg.Trace
		fc.Metrics = rt.cfg.Metrics
		wg.Add(1)
		sem <- struct{}{}
		go func(s int, fc fleet.Config) {
			defer func() { <-sem; wg.Done() }()
			results[s], errs[s] = fleet.Serve(ctx, fc, rt.perShard[s])
		}(s, fc)
	}
	wg.Wait()
	for s := 0; s < nShards; s++ {
		if errs[s] != nil {
			return nil, fmt.Errorf("cran: shard %d: %w", s, errs[s])
		}
	}

	// Merge: shard outcomes come back ordered by (stream, seq); map each
	// back to its request slot by frame identity.
	slot := make(map[[2]int]int, len(reqs))
	for i, r := range reqs {
		slot[[2]int{StreamID(r.Cell, r.UE), r.Seq}] = i
	}
	reports := make([]fleet.Report, nShards)
	for s := 0; s < nShards; s++ {
		if results[s] == nil {
			continue
		}
		reports[s] = results[s].Report
		for _, fo := range results[s].Outcomes {
			i := slot[[2]int{fo.Stream, fo.Seq}]
			outcomes[i] = Outcome{
				Cell: reqs[i].Cell, UE: reqs[i].UE, Seq: reqs[i].Seq,
				Shard:      s,
				Epoch:      rt.frameEpoch[i],
				FailedOver: rt.frameEpoch[i] > 0,
				Frame:      fo,
			}
		}
	}
	return reports, nil
}
