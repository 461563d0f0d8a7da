package annealer

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/chimera"
	"repro/internal/qubo"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// MaxReads bounds NumReads so per-read RNG stream derivation (uint64 read
// keys) and μs accounting (exact float64 integers) cannot overflow —
// requests beyond it are configuration errors, not workloads.
const MaxReads = 1 << 30

// Params configures a batch of anneal reads (the N_s device calls of §2).
type Params struct {
	// Schedule is the anneal program (required).
	Schedule *Schedule
	// InitialState is the programmed classical state for reverse
	// annealing; required iff the schedule starts at s = 1.
	InitialState []int8
	// NumReads is the number of samples to draw (default 1, max MaxReads).
	NumReads int
	// Engine simulates the quantum dynamics (default SVMC{}).
	Engine Engine
	// Profile sets the device energy scales (default DWave2000QProfile).
	Profile *Profile
	// SweepsPerMicrosecond converts schedule time into Monte-Carlo sweeps
	// (default 100). It is the simulation's "clock rate": TTS comparisons
	// must hold it fixed across solvers.
	SweepsPerMicrosecond float64
	// ICE adds control-error noise to the programmed coefficients on
	// every read (default none).
	ICE ICE
	// Faults injects hard device failures — programming failures, read
	// timeouts, chain-break storms, calibration drift (default none).
	Faults FaultModel
	// NoQuench disables the end-of-anneal quench. By default every read
	// is relaxed to its local minimum by zero-temperature steepest
	// descent before readout, modelling the freeze-out at the very end of
	// the schedule where B(s) dwarfs the thermal scale and the system
	// falls into the basin it occupies; without it, readout is polluted
	// by near-degenerate single-spin thermal flips that no hardware
	// anneal would report.
	NoQuench bool
	// Parallelism runs reads on up to this many goroutines (default 1:
	// sequential). Each read derives its own RNG stream from its index,
	// so results are bit-identical at any parallelism level.
	Parallelism int

	// Telemetry hooks — all optional and nil-safe. None of them touches
	// the RNG or the dynamics: a traced run's samples are bit-identical
	// to an untraced run's, and with every hook nil the hot path pays
	// nothing beyond a per-sweep nil check.

	// Trace receives per-read device spans (programming → anneal →
	// readout on the simulated-μs clock) and hard-fault events.
	Trace *telemetry.Tracer
	// Metrics receives batch counters: reads issued/survived, total
	// anneal μs, and faults by kind.
	Metrics *telemetry.Registry
	// Probe receives per-sweep engine observations (replica energies,
	// acceptance rates, s(t)) from the engine's read loop.
	Probe Probe
	// Timing lays the trace spans out with device overheads (programming,
	// readout μs). Results never depend on it. QPU.Run fills it from its
	// own ProgrammingTime/ReadoutTime when unset.
	Timing *DeviceTiming
}

func (p Params) withDefaults() (Params, error) {
	if p.Schedule == nil {
		return p, fmt.Errorf("annealer: nil schedule")
	}
	if err := p.Schedule.Validate(); err != nil {
		return p, err
	}
	if p.NumReads <= 0 {
		p.NumReads = 1
	}
	if p.NumReads > MaxReads {
		return p, fmt.Errorf("annealer: %d reads exceed the per-read stream limit %d", p.NumReads, MaxReads)
	}
	if p.Parallelism < 0 {
		return p, fmt.Errorf("annealer: negative parallelism %d", p.Parallelism)
	}
	if p.Engine == nil {
		p.Engine = SVMC{}
	}
	if p.Profile == nil {
		prof := DWave2000QProfile()
		p.Profile = &prof
	}
	if err := p.Profile.Validate(); err != nil {
		return p, err
	}
	if err := p.ICE.Validate(); err != nil {
		return p, err
	}
	if err := p.Faults.Validate(); err != nil {
		return p, err
	}
	if p.SweepsPerMicrosecond == 0 {
		p.SweepsPerMicrosecond = 100
	}
	if p.SweepsPerMicrosecond < 0 {
		return p, fmt.Errorf("annealer: negative sweeps per microsecond")
	}
	return p, nil
}

// Result is the outcome of a batch of reads.
type Result struct {
	// Samples holds every surviving read's measured state and its energy
	// under the ORIGINAL (unnormalized) problem. Reads lost to injected
	// timeouts are dropped; len(Samples) may be below NumReads when a
	// FaultModel is active.
	Samples []qubo.Sample
	// Best is the lowest-energy sample (§2: "the best sample is selected
	// as the final solution").
	Best qubo.Sample
	// ScheduleDuration is one read's anneal time in μs.
	ScheduleDuration float64
	// TotalAnnealTime = NumReads × ScheduleDuration (μs), the quantity
	// TTS-style metrics account. Timed-out reads still occupy the device,
	// so they are charged.
	TotalAnnealTime float64
	// BrokenChainRate is the fraction of (read × chain) events where a
	// chain was not unanimous; zero for unembedded runs.
	BrokenChainRate float64
	// Faults tallies the soft faults injected into this batch.
	Faults FaultStats
}

// readFault carries one read's fault flags; indexed per read so the
// parallel group loop tallies without shared state.
type readFault struct {
	timeout, storm, drift bool
}

// compactReads drops timed-out reads (keeping read order) and tallies the
// batch's fault statistics.
func compactReads(samples []qubo.Sample, faults []readFault) ([]qubo.Sample, FaultStats) {
	var stats FaultStats
	kept := samples[:0]
	for i, f := range faults {
		if f.timeout {
			stats.ReadTimeouts++
			continue
		}
		if f.storm {
			stats.ChainBreakStorms++
		}
		if f.drift {
			stats.CalibrationDrifts++
		}
		kept = append(kept, samples[i])
	}
	return kept, stats
}

// readScratch is the per-read working set that survives between reads:
// the RNG streams (split in place instead of allocated), the coefficient
// clone and dense row weights that per-read noise is programmed into,
// the noise draws, and the quench's local-field buffer. One package pool
// serves every run, so a steady stream of runs reuses the same few
// scratches — and their clone storage — instead of building a pool, and
// fresh clones, per run.
type readScratch struct {
	rr, fr rng.Source
	prog   *qubo.CSR // re-pointed at each noisy read's problem by program
	rows   svmcRows  // a noisy read's row table; mask is the run's own
	noise  []float64
	field  []float64
}

var readScratchPool = sync.Pool{New: func() any { return new(readScratch) }}

// release returns st to the pool without its clone's references to the
// last problem's topology, so pooled scratch keeps no problem alive.
func (st *readScratch) release() {
	if st.prog != nil {
		st.prog.Offsets, st.prog.Cols, st.prog.Mirror = nil, nil, nil
	}
	st.rows.mask = nil
	readScratchPool.Put(st)
}

// run is one problem's batch of reads in the run body. pr is the
// normalized CSR the engine sweeps: is's own, or with a non-nil emb the
// physical problem of is under emb; rows is its dense row table when the
// engine's kernel applies along one. Compiled artifacts are only read, so
// one compiled problem may serve concurrent runs.
type run struct {
	is   *qubo.Ising
	emb  *chimera.Embedding
	pr   *qubo.CSR
	rows *svmcRows // pr's dense row table, or nil
	p    Params
	r    *rng.Source

	samples  []qubo.Sample
	faults   []readFault
	spins    []int8 // flat engine readout, NumReads × pr.N
	logSpins []int8 // embedded: flat unembedded samples, NumReads × is.N
	broken   []int  // embedded: broken chains per read

	res *Result
	err error // set by the caller for an argument error, or by the body
}

// readRef is one read of one run: the unit packReads lays out.
type readRef struct {
	ru   *run
	read int
}

// runAll is the one run body behind every entry point. Each run does its
// own pre-work (start); then the reads of ALL runs are packed into
// lockstep groups of the kernel's width (packReads) that fan out through
// parallelFor, and each run's Result or fault is assembled, telemetry
// included, in run order. Packing cannot change an answer: a read's
// dynamics depend only on its own stream. All runs must belong to the
// lease whose compiled kernel this is. A run whose err the caller set is
// skipped.
func runAll(runs []*run, kernel BatchReadFunc, width int) {
	refs, groups := packReads(runs, width)
	for _, ru := range runs {
		if ru.err == nil {
			ru.err = ru.start()
		}
	}
	parallelFor(len(groups)-1, runs[0].p.Parallelism, func(g int) {
		groupReads(kernel, refs[groups[g]:groups[g+1]])
	})
	for _, ru := range runs {
		if ru.err == nil {
			ru.res, ru.err = ru.assemble()
		}
	}
}

// packReads lays out the reads of every run without a caller-set error in
// group order — runs bucketed by physical N in first-appearance order,
// then runs in order and reads in order within a bucket — and returns the
// group bounds: group g is refs[groups[g]:groups[g+1]], at most width
// (≤ maxGroupWidth) reads of one N. The layout depends only on each
// run's N and NumReads, never on an RNG draw: the reads of a run that
// fails in start keep their slots and are skipped, like timed-out reads.
func packReads(runs []*run, width int) (refs []readRef, groups []int) {
	total := 0
	for _, ru := range runs {
		if ru.err == nil {
			total += ru.p.NumReads
		}
	}
	refs = make([]readRef, 0, total)
	groups = make([]int, 0, total/width+len(runs)+1)
	for i, ru := range runs {
		if ru.err != nil || slices.ContainsFunc(runs[:i], func(prev *run) bool {
			return prev.err == nil && prev.pr.N == ru.pr.N
		}) {
			continue // failed, or its bucket is already laid out
		}
		bucket := len(refs)
		for _, rb := range runs[i:] {
			for read := 0; rb.err == nil && rb.pr.N == ru.pr.N && read < rb.p.NumReads; read++ {
				if (len(refs)-bucket)%width == 0 {
					groups = append(groups, len(refs))
				}
				refs = append(refs, readRef{rb, read})
			}
		}
	}
	return refs, append(groups, len(refs))
}

// start is a run's pre-work: the reverse-anneal initial-state check and,
// embedded, its mapping onto the physical qubits; the programming-fault
// draw; and the read buffers. Flat blocks back the engine readout and,
// embedded, the unembedded logical samples, so a run performs O(1)
// allocations regardless of NumReads.
func (ru *run) start() error {
	p := &ru.p
	if p.Schedule.StartsClassical() {
		if len(p.InitialState) != ru.is.N {
			return fmt.Errorf("annealer: reverse anneal needs an initial state of %d spins, got %d", ru.is.N, len(p.InitialState))
		}
		if ru.emb != nil {
			p.InitialState = ru.emb.EmbedSpins(p.InitialState)
		}
	}
	// Run-level fault: the device rejects the programming cycle. Drawn
	// from a dedicated split so the per-read streams are untouched.
	if p.Faults.ProgrammingFails(ru.r.SplitString("fault/programming")) {
		p.emitHardFault(FaultProgramming)
		return &FaultError{Kind: FaultProgramming}
	}
	n, reads := ru.pr.N, p.NumReads
	ru.samples = make([]qubo.Sample, reads)
	ru.faults = make([]readFault, reads)
	ru.spins = make([]int8, reads*n)
	if ru.emb != nil {
		ru.logSpins = make([]int8, reads*ru.is.N)
		ru.broken = make([]int, reads)
	}
	return nil
}

// program returns the problem a read should run against and its dense
// row table: the run's compiled problem when no noise applies, or the
// scratch's coefficient clone, re-pointed at the run's problem, with ICE
// and (when the fault fires) calibration drift programmed in — into the
// scratch's row weights too when the run has a row table, in the same
// pass. The noise draw order matches the adjacency-list ICE/drift path:
// per layer, h in spin order (nonzero entries only), then couplings in
// (i, j), i < j order.
func (ru *run) program(st *readScratch, drifted *bool) (*qubo.CSR, *svmcRows) {
	ice := ru.p.ICE
	*drifted = ru.p.Faults.driftFires(&st.fr)
	if !ice.enabled() && !*drifted {
		return ru.pr, ru.rows
	}
	var layers [2]gaussNoise
	nl := 0
	if ice.enabled() {
		layers[nl] = gaussNoise{ice.SigmaH, ice.SigmaJ, &st.rr}
		nl++
	}
	if *drifted {
		sigma := ru.p.Faults.driftSigma()
		layers[nl] = gaussNoise{sigma, sigma, &st.fr}
		nl++
	}
	if st.prog == nil {
		st.prog = new(qubo.CSR)
	}
	var rows *svmcRows
	if ru.rows != nil {
		st.rows.w = slices.Grow(st.rows.w[:0], len(ru.rows.w))[:len(ru.rows.w)]
		st.rows.mask = ru.rows.mask
		rows = &st.rows
	}
	applyGaussianCSR(st.prog, ru.pr, rows, layers[:nl], &st.noise)
	return st.prog, rows
}

// groupReads runs one packed group of reads through the engine kernel.
// Each read's prelude — stream derivation, the timeout draw, ICE/drift
// programming — happens in group order, only the dynamics are
// interleaved, and each read's private stream makes that interleaving
// invisible, so a read's result does not depend on its group. Each
// surviving read then runs its run's finish step; timed-out reads are
// marked in their run's faults and skipped, as are the reads of a run
// whose programming failed.
func groupReads(kernel BatchReadFunc, refs []readRef) {
	var sts [maxGroupWidth]*readScratch
	var group [maxGroupWidth]BatchRead
	var member [maxGroupWidth]int
	ng := 0
	for k, ref := range refs {
		ru, read := ref.ru, ref.read
		if ru.err != nil {
			continue
		}
		st := readScratchPool.Get().(*readScratch)
		sts[k] = st
		ru.r.SplitInto(&st.rr, uint64(read))
		// Split never advances rr: dynamics stay fault-independent.
		st.rr.SplitStringInto(&st.fr, "fault")
		if ru.p.Faults.readTimesOut(&st.fr) {
			ru.faults[read].timeout = true
			continue
		}
		n := ru.pr.N
		if cap(st.field) < n {
			st.field = make([]float64, n)
		}
		st.field = st.field[:n]
		prog, rows := ru.program(st, &ru.faults[read].drift)
		group[ng] = BatchRead{
			Prog: prog,
			Init: ru.p.InitialState,
			Out:  ru.spins[read*n : (read+1)*n],
			Rng:  &st.rr,
			rows: rows,
		}
		if ru.p.Probe != nil {
			group[ng].Probe = readProbe{ru.p.Probe, read}
		}
		member[ng] = k
		ng++
	}
	if ng > 0 {
		kernel(group[:ng])
	}
	for g := 0; g < ng; g++ {
		k := member[g]
		refs[k].ru.finish(refs[k].read, group[g].Prog, group[g].Out, sts[k])
	}
	for _, st := range sts[:len(refs)] {
		if st != nil {
			st.release()
		}
	}
}

// finish owns everything after one read's dynamics: on the embedded
// path the broken-chain count, then the quench, the chain-break storm,
// unembedding, and the sample capture.
func (ru *run) finish(read int, prog *qubo.CSR, out []int8, st *readScratch) {
	sample := out
	if ru.emb != nil {
		// Chain breakage is counted on the RAW engine output — the state
		// the device's readout would see — before the quench heals
		// chains on the way to the sample's reported basin, and before
		// any storm.
		sample = ru.logSpins[read*ru.is.N : (read+1)*ru.is.N]
		ru.broken[read] = ru.emb.UnembedInto(sample, out)
	}
	if !ru.p.NoQuench {
		prog.Quench(out, st.field)
	}
	ru.faults[read].storm = ru.p.Faults.storm(out, &st.fr)
	if ru.emb != nil {
		ru.emb.UnembedInto(sample, out)
	}
	ru.samples[read] = qubo.Sample{Spins: sample, Energy: ru.is.Energy(sample)}
}

// assemble turns a run's finished reads into its Result and publishes
// its telemetry. With every read lost it returns a *FaultError.
func (ru *run) assemble() (*Result, error) {
	p := ru.p
	res := &Result{ScheduleDuration: p.Schedule.Duration()}
	res.Samples, res.Faults = compactReads(ru.samples, ru.faults)
	res.TotalAnnealTime = float64(p.NumReads) * res.ScheduleDuration
	p.emitBatchTelemetry(res, ru.faults)
	if len(res.Samples) == 0 {
		p.emitHardFault(FaultAllReadsLost)
		return nil, &FaultError{Kind: FaultAllReadsLost}
	}
	if ru.emb != nil {
		totalBroken := 0
		for read, br := range ru.broken {
			if !ru.faults[read].timeout {
				totalBroken += br
			}
		}
		res.BrokenChainRate = float64(totalBroken) / float64(len(res.Samples)*ru.is.N)
		if p.Metrics != nil {
			p.Metrics.Gauge("annealer_broken_chain_rate").Set(res.BrokenChainRate)
		}
	}
	res.Best = bestSample(res.Samples)
	return res, nil
}

// Run draws reads from the simulated annealer for a logical (all-to-all
// capable) problem. The problem is normalized to the device coefficient
// range for the dynamics; reported energies are in the caller's original
// scale.
//
// The hot path is compiled once per batch: the normalized problem becomes
// a flat CSR view shared read-only by every read, the engine precomputes
// its per-sweep schedule tables in Prepare, and per-read scratch (engine
// state, coefficient clones, quench fields, sample spins) comes from
// pools or one flat block — steady-state batches allocate O(1) beyond
// the returned samples.
//
// With an active FaultModel, Run returns a *FaultError when the batch
// programming fails or every read is lost; surviving soft faults are
// reported in Result.Faults. Run is a one-call Lease.
func Run(is *qubo.Ising, p Params, r *rng.Source) (*Result, error) {
	l, err := NewLease(p)
	if err != nil {
		return nil, err
	}
	return l.Run(is, l.p.InitialState, l.p.NumReads, r)
}

// parallelFor runs body(0..n-1), optionally across a worker pool. Each
// worker owns one contiguous index chunk — no per-index channel
// operations, whose send/recv overhead is measurable when reads are
// short. Callers derive read i's RNG stream from its index, so the
// result is independent of the parallelism level and of the chunk
// assignment.
func parallelFor(n, parallelism int, body func(i int)) {
	if parallelism <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	if parallelism > n {
		parallelism = n
	}
	chunk := (n + parallelism - 1) / parallelism
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				body(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// bestSample returns the lowest-energy sample (first wins ties).
func bestSample(samples []qubo.Sample) qubo.Sample {
	best := samples[0]
	for _, s := range samples[1:] {
		if s.Energy < best.Energy {
			best = s
		}
	}
	return best
}

// QPU couples the anneal simulation to the Chimera hardware model. By
// default a QPU runs the logical problem and keeps what the hardware
// honestly charges: the clique capacity of its Chimera graph
// (MaxProblemSize), the programming and readout overheads of its service
// time, and the matching span layout. With Chains set it takes the full
// path a problem takes through the 2000Q instead: clique minor-embedding,
// the anneal on the physical graph, majority-vote unembedding.
//
// Chain dynamics are an opt-in because the surrogate engines move one
// spin at a time: a ferromagnetic chain never flips as a unit, so an
// embedded reverse anneal returns its initial state unchanged and the
// serve would pay for simulating idle chains (EXPERIMENTS.md, "Serving on
// the logical problem").
//
// A nil *QPU is the bare logical sampler: (*QPU)(nil).Lease is NewLease
// and (*QPU)(nil).Run is Run, so a caller holding an optional device
// (core.AnnealConfig.QPU, fleet.Device.QPU) calls them without a branch.
type QPU struct {
	// Grid is the Chimera dimension (16 for the 2000Q).
	Grid int
	// Chains runs the anneal on the clique-embedded physical problem
	// (chain dynamics, broken-chain accounting, majority-vote unembedding)
	// instead of the logical one. The embedding ablation and the CLIs'
	// -embed flags set it; serving leaves it off.
	Chains bool
	// ProgrammingTime and ReadoutTime (μs) model the per-call and
	// per-read device overheads used by the pipeline experiments
	// (defaults: 10 ms programming, 123 μs readout, 2000Q-typical).
	ProgrammingTime float64
	ReadoutTime     float64
}

// NewQPU2000Q returns the paper's device: C_16 with typical overheads.
func NewQPU2000Q() *QPU {
	return &QPU{Grid: 16, ProgrammingTime: 10_000, ReadoutTime: 123}
}

// MaxProblemSize returns the largest embeddable clique.
func (q *QPU) MaxProblemSize() int { return chimera.MaxCliqueSize(q.Grid) }

// ServiceTime returns the wall-clock μs the device is busy for a batch of
// reads under a schedule: programming + reads × (anneal + readout).
func (q *QPU) ServiceTime(sc *Schedule, numReads int) float64 {
	return q.ProgrammingTime + float64(numReads)*(sc.Duration()+q.ReadoutTime)
}

// Run is Lease(p).Run on the logical problem: it rejects problems beyond
// MaxProblemSize and lays trace spans out with the QPU's overheads; on a
// nil QPU it is Run, with no capacity check or device overheads. With
// Chains it embeds the problem onto the smallest sufficient Chimera region
// (bounded by Grid), anneals the physical problem, and unembeds each read.
// Sample energies are logical-problem energies either way.
//
// Injected faults behave as in the logical Run; with Chains, chain-break
// storms corrupt the PHYSICAL readout, so majority-vote unembedding
// partially heals them — chain redundancy is a storm mitigation the
// logical path lacks.
func (q *QPU) Run(logical *qubo.Ising, p Params, r *rng.Source) (*Result, error) {
	l, err := q.Lease(p)
	if err != nil {
		return nil, err
	}
	return l.Run(logical, l.p.InitialState, l.p.NumReads, r)
}

// withTiming fills the span-layout timing model with the QPU's own
// overheads unless the caller pinned one (telemetry only — results are
// unaffected).
func (q *QPU) withTiming(p Params) Params {
	if p.Timing == nil {
		p.Timing = &DeviceTiming{ProgrammingMicros: q.ProgrammingTime, ReadoutMicros: q.ReadoutTime}
	}
	return p
}

// checkCapacity rejects a problem too large to clique-embed on the QPU's
// graph — the capacity limit every QPU lease enforces, chains or not.
func (q *QPU) checkCapacity(logical *qubo.Ising) error {
	if logical.N > q.MaxProblemSize() {
		return fmt.Errorf("annealer: %d variables exceed QPU clique capacity %d", logical.N, q.MaxProblemSize())
	}
	return nil
}

// prepareEmbedded performs the per-problem compile of the chain path:
// clique embedding onto the smallest sufficient Chimera region, chain
// strength, physical coefficients, CSR compile, normalization. The
// result depends only on (QPU, problem); Lease.PrepareProblem returns it
// as a Prepared that any number of runs can share.
func (q *QPU) prepareEmbedded(logical *qubo.Ising) (*chimera.Embedding, *qubo.CSR, error) {
	if err := q.checkCapacity(logical); err != nil {
		return nil, nil, err
	}
	m := chimera.MinGridFor(logical.N)
	if m > q.Grid {
		m = q.Grid
	}
	graph := chimera.NewGraph(m)
	emb, err := chimera.EmbedClique(graph, logical.N)
	if err != nil {
		return nil, nil, err
	}
	phys, err := emb.EmbedIsing(logical, chimera.RecommendedChainStrength(logical))
	if err != nil {
		return nil, nil, err
	}
	prPhys := qubo.NewCSR(phys)
	prPhys.Normalize()
	return emb, prPhys, nil
}
