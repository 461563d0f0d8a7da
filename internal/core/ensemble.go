package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/annealer"
	"repro/internal/mimo"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// This file implements flexible-parallelism ensemble RA detection
// (X-ResQ, the authors' follow-up to the paper): instead of one reverse
// anneal seeded by one classical candidate, a frame fans out into K×G
// arms — the top-K classical candidates × a G-point s_p schedule grid —
// and the arms' read ensembles are fused into per-spin soft output
// (mimo.FuseLLRs) for the channel decoder, with the best state across
// all arms and candidates as the hard answer.

// Ensemble bounds, wide enough for every configuration the experiments
// sweep while keeping a mis-parsed flag from planning millions of arms.
const (
	// MaxEnsembleK caps the classical-candidate count per frame.
	MaxEnsembleK = 64
	// MaxSpGridSize caps the s_p schedule grid size.
	MaxSpGridSize = 16
)

// EnsembleArm identifies one RA arm of the ensemble: which classical
// candidate seeds it and which grid entry sets its switch point.
type EnsembleArm struct {
	Candidate int `json:"candidate"`
	SpIndex   int `json:"sp_index"`
}

// PlanArms enumerates the K×G arm grid in canonical candidate-major
// order: (0,0), (0,1), …, (0,G−1), (1,0), …. Every (candidate, s_p)
// pair appears exactly once, and arm index 0 is always (candidate 0,
// grid entry 0) — the single-RA arm the ensemble strictly extends.
func PlanArms(k, gridSize int) []EnsembleArm {
	if k < 1 || gridSize < 1 {
		return nil
	}
	arms := make([]EnsembleArm, 0, k*gridSize)
	for c := 0; c < k; c++ {
		for g := 0; g < gridSize; g++ {
			arms = append(arms, EnsembleArm{Candidate: c, SpIndex: g})
		}
	}
	return arms
}

// DefaultSpGrid is the s_p grid the ensemble flags default to: the
// paper's working point bracketed inside its 0.33–0.49 window plus one
// step above, so arms disagree enough for fusion to matter.
func DefaultSpGrid() []float64 { return []float64{0.37, 0.45, 0.53} }

// ParseSpGrid parses a comma-separated s_p grid flag ("0.37,0.45,0.53")
// and validates it with ValidateSpGrid.
func ParseSpGrid(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	grid := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("core: bad s_p grid entry %q: %v", p, err)
		}
		grid = append(grid, v)
	}
	if err := ValidateSpGrid(grid); err != nil {
		return nil, err
	}
	return grid, nil
}

// ValidateSpGrid checks an ensemble s_p grid: non-empty, bounded, every
// entry strictly inside (0, 1), no duplicates (a duplicated entry would
// double an arm's (candidate, s_p) pair).
func ValidateSpGrid(grid []float64) error {
	if len(grid) == 0 {
		return fmt.Errorf("core: empty s_p grid")
	}
	if len(grid) > MaxSpGridSize {
		return fmt.Errorf("core: s_p grid of %d entries exceeds the cap of %d", len(grid), MaxSpGridSize)
	}
	for i, sp := range grid {
		if math.IsNaN(sp) || sp <= 0 || sp >= 1 {
			return fmt.Errorf("core: s_p grid entry %d (%g) out of (0, 1)", i, sp)
		}
		for j := 0; j < i; j++ {
			if grid[j] == sp {
				return fmt.Errorf("core: s_p grid entries %d and %d duplicate %g", j, i, sp)
			}
		}
	}
	return nil
}

// topKPatience is TopKCandidates' patience: restarts stop once this many
// in a row, restart 0 counted, add no distinct candidate. On the frames
// that reach the restarts, later ones almost never add one, and a
// restart that adds no candidate adds no arm to the ensemble.
const topKPatience = 8

// TopKCandidates produces the ensemble's K classical candidates for a
// reduced problem, deterministically from r. Candidate 0 is always the
// default greedy-search state (GreedyModule{} — the single-RA seed, so a
// K=1 ensemble collapses onto today's hybrid path exactly); the rest are
// drawn from a fixed generation order — the ascending greedy order, the
// zero-forcing linear detector, then simulated-annealing restarts,
// restart i on r's "sa" stream split by i — deduplicated and ranked by
// ascending energy. Restarts stop at the first of: the pool holds K−1
// distinct candidates, topKPatience restarts in a row added none, or
// 4K+16 restarts ran. Restart 0 runs one-read; restarts 1, 2, … run in
// groups of up to eight through annealer.SimulatedAnnealingGroup, whose
// lanes are bit-identical to one-read restarts. A group is planned for
// no more restarts than the patience and the cap leave, and its samples
// are consumed in restart order, so the candidates are exactly those of
// one restart at a time. r is only read; concurrent calls may share it.
func TopKCandidates(red *mimo.Reduction, k int, r *rng.Source) ([][]int8, error) {
	if k < 1 || k > MaxEnsembleK {
		return nil, fmt.Errorf("core: ensemble K %d out of [1, %d]", k, MaxEnsembleK)
	}
	is := red.Ising
	base := qubo.GreedySearchIsing(is, qubo.OrderDescending)
	cands := [][]int8{base}
	if k == 1 {
		return cands, nil
	}
	seen := func(s []int8) bool {
		for _, c := range cands {
			if spinsEqual(c, s) {
				return true
			}
		}
		return false
	}
	type ranked struct {
		spins  []int8
		energy float64
	}
	var pool []ranked
	// add reports whether s joined the pool as a new distinct candidate.
	add := func(s []int8) bool {
		if len(s) != is.N || seen(s) {
			return false
		}
		cands = append(cands, s) // reserve for dedup; replaced by ranked order below
		pool = append(pool, ranked{spins: s, energy: is.Energy(s)})
		return true
	}
	add(qubo.GreedySearchIsing(is, qubo.OrderAscending))
	if p := red.Problem(); p != nil {
		if syms, err := (mimo.ZeroForcing{}).Detect(p); err == nil {
			if s, err := red.EncodeSymbols(syms); err == nil {
				add(s)
			}
		}
	}
	// end is the restart the patience or the cap stops before; restart i
	// adding a candidate moves it to i+1+topKPatience. Restart 0 runs
	// one-read: it fills the pool on most frames, and one live lane in an
	// 8-lane group costs more than a one-read restart.
	sa := r.SplitString("sa")
	restarts := 4*k + 16
	end := min(topKPatience, restarts)
	keep := func(i int, s []int8) {
		if add(s) {
			end = min(i+1+topKPatience, restarts)
		}
	}
	if len(pool) < k-1 {
		keep(0, qubo.SimulatedAnnealing(is, sa.Split(0), qubo.SAOptions{}).Spins)
	}
	var srcs [8]rng.Source
	var lanes [8]*rng.Source
	var samples [8]qubo.Sample
	for i := 1; len(pool) < k-1 && i < end; {
		w := min(len(lanes), end-i)
		for j := 0; j < w; j++ {
			sa.SplitInto(&srcs[j], uint64(i+j))
			lanes[j] = &srcs[j]
		}
		annealer.SimulatedAnnealingGroup(is, lanes[:w], nil, qubo.SAOptions{}, samples[:w])
		for j := 0; j < w && len(pool) < k-1; j++ {
			keep(i+j, samples[j].Spins)
		}
		i += w
	}
	// Rank the non-base pool by quality; the base candidate keeps slot 0
	// regardless (the collapse anchor), ties keep generation order.
	sort.SliceStable(pool, func(a, b int) bool { return pool[a].energy < pool[b].energy })
	out := make([][]int8, 1, k)
	out[0] = base
	for _, p := range pool {
		if len(out) == k {
			break
		}
		out = append(out, p.spins)
	}
	// A tiny problem can exhaust its distinct-candidate supply; pad by
	// cycling so the arm plan keeps its exactly-once (candidate, s_p)
	// shape with deterministic content.
	for i := 0; len(out) < k; i++ {
		out = append(out, append([]int8(nil), out[i%len(out)]...))
	}
	return out, nil
}

func spinsEqual(a, b []int8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Ensemble is the flexible-parallelism RA detector. Every arm pauses
// PauseMicros, and fusion re-weights at mimo.FuseLLRs' scale-free
// sharpness. The zero value is exactly the paper's single-RA hybrid
// (K=1, grid {RASp}): Solve's outcome is byte-identical to Hybrid.Solve
// with the same defaults, and every K>1 or longer grid strictly extends
// that run with extra arms on independent RNG streams.
type Ensemble struct {
	// K is the classical-candidate count (default 1, max MaxEnsembleK).
	K int
	// SpGrid is the s_p switch-point grid (default {RASp}).
	SpGrid []float64
	// NumReads is the per-ARM read count (default 100).
	NumReads int
	// Config bundles the simulated-device settings shared by all arms.
	// A device fault on any arm fails the solve.
	Config AnnealConfig
}

func (e *Ensemble) withDefaults() Ensemble {
	out := *e
	if out.K == 0 {
		out.K = 1
	}
	if len(out.SpGrid) == 0 {
		out.SpGrid = []float64{RASp}
	}
	out.NumReads = defaultReads(out.NumReads)
	return out
}

// ArmOutcome reports one arm's run.
type ArmOutcome struct {
	Arm EnsembleArm
	// Sp is the arm's switch point (SpGrid[Arm.SpIndex]).
	Sp float64
	// InitialState and InitialEnergy describe the arm's candidate.
	InitialState  []int8
	InitialEnergy float64
	// Best and Samples are the arm's anneal output (empty when faulted).
	Best    qubo.Sample
	Samples []qubo.Sample
	// AnnealTime, BrokenChainRate and FaultStats carry the arm's device
	// accounting.
	AnnealTime      float64
	BrokenChainRate float64
	FaultStats      annealer.FaultStats
	// Fault is the device fault a degraded arm recovered from (nil for
	// healthy arms).
	Fault error
}

// EnsembleOutcome is one frame's ensemble solve: the fused/hard answer
// in the embedded Outcome (Best is the minimum across every arm's reads
// and every candidate) plus the per-arm detail and the fused soft
// output.
type EnsembleOutcome struct {
	Outcome
	Arms []ArmOutcome
	// FusedLLRs is the per-spin soft output fused across every arm's
	// reads (set by Ensemble.Solve only).
	FusedLLRs []float64
}

// Solve fans the frame into K×G arms on the shared arm runner and fuses
// every arm's reads into per-spin soft output. A device fault on any arm
// fails the solve.
//
// Determinism: arm 0 runs on the exact RNG stream Hybrid.Solve uses
// ("quantum" under r), every further arm on its own "ensemble/arm"
// split, and fusion is canonical-order — so results are a pure function
// of (problem, config, r) and a K=1/{RASp} ensemble reproduces the
// single-RA path byte for byte.
func (e *Ensemble) Solve(red *mimo.Reduction, r *rng.Source) (*EnsembleOutcome, error) {
	cfg := e.withDefaults()
	if err := ValidateSpGrid(cfg.SpGrid); err != nil {
		return nil, err
	}
	cands, err := TopKCandidates(red, cfg.K, r.SplitString("classical"))
	if err != nil {
		return nil, err
	}
	out, err := cfg.Config.runArms(red, cands, cfg.SpGrid, cfg.NumReads, false, r)
	if err != nil {
		return nil, err
	}
	armSamples := make([][]qubo.Sample, len(out.Arms))
	for i := range out.Arms {
		armSamples[i] = out.Arms[i].Samples
	}
	if llrs, err := mimo.FuseLLRs(armSamples, 0, 0); err == nil {
		out.FusedLLRs = llrs
	}
	return out, nil
}

// runArms is the reverse-anneal detection path every RA solver shares.
// It runs the PlanArms(len(cands), len(grid)) arm plan — one lease and
// one multi-run call per grid entry, whose arms all carry red.Ising, so
// the per-problem compile is paid G times, not K×G — then hands the arms
// to Reduce for the hard answer. Hybrid is the one-candidate, one-entry
// plan.
//
// Arm 0 runs on r's "quantum" stream (the single-RA anchor), every
// further arm on its own "ensemble/arm" split. With fallback a faulted
// arm contributes nothing and the frame answers from the survivors (or
// the fallback rung); without it any arm fault fails the solve.
func (c AnnealConfig) runArms(red *mimo.Reduction, cands [][]int8, grid []float64, reads int, fallback bool, r *rng.Source) (*EnsembleOutcome, error) {
	for i, cand := range cands {
		if len(cand) != red.NumSpins() {
			return nil, fmt.Errorf("core: candidate %d has %d spins for %d-spin problem", i, len(cand), red.NumSpins())
		}
	}
	arms := PlanArms(len(cands), len(grid))
	results := make([]*annealer.Result, len(arms))
	armErrs := make([]error, len(arms))
	extra := r.SplitString("ensemble/arm")
	var firstDuration float64
	for g, sp := range grid {
		sc, err := annealer.Reverse(sp, PauseMicros)
		if err != nil {
			return nil, err
		}
		if g == 0 {
			firstDuration = sc.Duration()
		}
		l, err := c.QPU.Lease(c.params(sc, nil, reads))
		if err != nil {
			return nil, err
		}
		var idx []int
		var runs []annealer.MultiRun
		for i, a := range arms {
			if a.SpIndex != g {
				continue
			}
			armRng := extra.Split(uint64(i))
			if i == 0 {
				armRng = r.SplitString("quantum")
			}
			idx = append(idx, i)
			runs = append(runs, annealer.MultiRun{
				Problem:      red.Ising,
				InitialState: cands[a.Candidate],
				NumReads:     reads,
				Rng:          armRng,
			})
		}
		res, errs, err := l.RunMulti(runs)
		if err != nil {
			return nil, err
		}
		for j, i := range idx {
			results[i], armErrs[i] = res[j], errs[j]
		}
	}

	out := &EnsembleOutcome{Arms: make([]ArmOutcome, len(arms))}
	reduced := make([]Arm, len(arms))
	var weightedBreaks, sampleCount float64
	for i, a := range arms {
		ao := &out.Arms[i]
		ao.Arm, ao.Sp = a, grid[a.SpIndex]
		ao.InitialState = cands[a.Candidate]
		ao.InitialEnergy = red.Ising.Energy(cands[a.Candidate])
		if armErrs[i] != nil {
			fe, isFault := annealer.AsFault(armErrs[i])
			if !isFault || !fallback {
				return nil, armErrs[i]
			}
			ao.Fault, reduced[i].Fault = fe, fe
			continue
		}
		res := results[i]
		ao.Best, ao.Samples = res.Best, res.Samples
		ao.AnnealTime = res.TotalAnnealTime
		ao.BrokenChainRate = res.BrokenChainRate
		ao.FaultStats = res.Faults
		reduced[i] = Arm{Best: res.Best, Source: AnswerQuantum}
		if out.Samples == nil {
			// Share the first arm's reads; the capped capacity makes a
			// later arm's append copy rather than write past them.
			out.Samples = res.Samples[:len(res.Samples):len(res.Samples)]
		} else {
			out.Samples = append(out.Samples, res.Samples...)
		}
		out.AnnealTime += res.TotalAnnealTime
		weightedBreaks += res.BrokenChainRate * float64(len(res.Samples))
		sampleCount += float64(len(res.Samples))
		out.FaultStats.ReadTimeouts += res.Faults.ReadTimeouts
		out.FaultStats.ChainBreakStorms += res.Faults.ChainBreakStorms
		out.FaultStats.CalibrationDrifts += res.Faults.CalibrationDrifts
		if out.ScheduleDuration == 0 {
			out.ScheduleDuration = res.ScheduleDuration
		}
	}
	if sampleCount > 0 {
		out.BrokenChainRate = weightedBreaks / sampleCount
	}
	if out.ScheduleDuration == 0 {
		// Every arm faulted: report the plan's first schedule.
		out.ScheduleDuration = firstDuration
	}
	ans := Reduce(red.Ising, cands, reduced)
	out.Best, out.Source, out.Fault = ans.Best, ans.Source, ans.Fault
	out.InitialState, out.InitialEnergy = cands[0], out.Arms[0].InitialEnergy
	out.Symbols = red.DecodeSpins(out.Best.Spins)
	c.recordAnswerSource(out.Source)
	return out, nil
}
