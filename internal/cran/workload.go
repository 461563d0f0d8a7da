package cran

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// Class is one traffic class in the workload mix: a per-frame detection
// shape and the relative probability a cell carries it.
type Class struct {
	// Users is the per-frame MIMO user count (square antenna setting).
	Users int
	// Scheme is the modulation.
	Scheme modulation.Scheme
	// Weight is the cell-draw probability weight (> 0, finite).
	Weight float64
}

// DefaultClasses is the mixed city traffic: mostly small QPSK cells with
// a denser QPSK tier and a 16-QAM tier, spanning 4–8 spin problems.
func DefaultClasses() []Class {
	return []Class{
		{Users: 2, Scheme: modulation.QPSK, Weight: 2},
		{Users: 3, Scheme: modulation.QPSK, Weight: 1},
		{Users: 2, Scheme: modulation.QAM16, Weight: 1},
	}
}

// DefaultDiurnal is a 12-bucket day shape: quiet night, morning ramp,
// midday plateau, evening peak.
func DefaultDiurnal() []float64 {
	return []float64{0.3, 0.2, 0.25, 0.45, 0.8, 1.0, 1.1, 1.0, 0.95, 1.2, 1.35, 0.7}
}

// Workload declares a city-scale request set: Cells×UEsPerCell Poisson
// arrival streams whose rate is modulated by a diurnal profile and
// per-(cell, bucket) bursts, with detection problems drawn from mixed
// modulation/user-count classes. Generate is a pure function of the
// spec: equal specs produce bit-identical request sets.
type Workload struct {
	// Cells and UEsPerCell size the city; streams = Cells × UEsPerCell.
	Cells      int
	UEsPerCell int
	// DurationMicros is the simulated arrival horizon.
	DurationMicros float64
	// FramesPerSecond is one UE's mean arrival rate at diurnal level 1.
	FramesPerSecond float64
	// Diurnal scales the rate over the horizon: bucket i covers
	// [i, i+1)·DurationMicros/len(Diurnal). Required non-empty; entries
	// finite and ≥ 0 with at least one > 0 (DefaultDiurnal for a day
	// shape, []float64{1} for a flat profile).
	Diurnal []float64
	// BurstProb is the probability each (cell, bucket) pair bursts;
	// BurstFactor (≥ 1) multiplies the rate inside a burst.
	BurstProb   float64
	BurstFactor float64
	// Classes is the traffic mix (default DefaultClasses). Each cell
	// draws one class for its lifetime.
	Classes []Class
	// Instances is the per-class detection-problem corpus size (default
	// 3); frames cycle through the corpus.
	Instances int
	// DeadlineMicros and NumReads stamp every request (0: serving
	// defaults); every request runs the shard's s_p and pause defaults.
	DeadlineMicros float64
	NumReads       int
	// MaxFrames, when > 0, truncates the generated set to its earliest
	// MaxFrames arrivals (a time-prefix, so per-stream FIFO survives).
	MaxFrames int
	// Seed roots every draw.
	Seed uint64
}

func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// Validate rejects unservable specs: NaN/Inf/negative rates, zero cells,
// empty diurnal profiles, and malformed classes.
func (w Workload) Validate() error {
	if w.Cells < 1 || w.Cells > MaxCells {
		return fmt.Errorf("cran: workload cells %d out of [1, %d]", w.Cells, MaxCells)
	}
	if w.UEsPerCell < 1 || w.UEsPerCell > MaxUEsPerCell {
		return fmt.Errorf("cran: workload UEs per cell %d out of [1, %d]", w.UEsPerCell, MaxUEsPerCell)
	}
	if bad(w.DurationMicros) || w.DurationMicros <= 0 {
		return fmt.Errorf("cran: workload duration %g must be positive and finite", w.DurationMicros)
	}
	if bad(w.FramesPerSecond) || w.FramesPerSecond <= 0 {
		return fmt.Errorf("cran: workload rate %g frames/s must be positive and finite", w.FramesPerSecond)
	}
	if len(w.Diurnal) == 0 {
		return fmt.Errorf("cran: workload diurnal profile is empty (use DefaultDiurnal() or []float64{1})")
	}
	peak := 0.0
	for i, d := range w.Diurnal {
		if bad(d) || d < 0 {
			return fmt.Errorf("cran: workload diurnal[%d] = %g must be finite and ≥ 0", i, d)
		}
		if d > peak {
			peak = d
		}
	}
	if peak == 0 {
		return fmt.Errorf("cran: workload diurnal profile is all zero")
	}
	if bad(w.BurstProb) || w.BurstProb < 0 || w.BurstProb > 1 {
		return fmt.Errorf("cran: workload burst probability %g out of [0, 1]", w.BurstProb)
	}
	if w.BurstProb > 0 && (bad(w.BurstFactor) || w.BurstFactor < 1) {
		return fmt.Errorf("cran: workload burst factor %g must be finite and ≥ 1", w.BurstFactor)
	}
	for i, c := range w.Classes {
		if c.Users < 1 {
			return fmt.Errorf("cran: workload class %d: users %d < 1", i, c.Users)
		}
		if bad(c.Weight) || c.Weight <= 0 {
			return fmt.Errorf("cran: workload class %d: weight %g must be positive and finite", i, c.Weight)
		}
	}
	if w.Instances < 0 {
		return fmt.Errorf("cran: workload corpus size %d < 0", w.Instances)
	}
	if bad(w.DeadlineMicros) || w.DeadlineMicros < 0 {
		return fmt.Errorf("cran: workload deadline %g must be finite and ≥ 0", w.DeadlineMicros)
	}
	if w.NumReads < 0 {
		return fmt.Errorf("cran: workload read count %d < 0", w.NumReads)
	}
	if w.MaxFrames < 0 {
		return fmt.Errorf("cran: workload frame cap %d < 0", w.MaxFrames)
	}
	return nil
}

// classProblem is one prepared detection problem: the reduced Ising and
// its greedy classical candidate.
type classProblem struct {
	ising *qubo.Ising
	init  []int8
}

// Generate materializes the request set: per-class problem corpora, one
// class and per-bucket burst pattern per cell, and one thinned
// non-homogeneous Poisson arrival stream per (cell, UE). Requests come
// back sorted by (Arrival, Cell, UE, Seq).
func (w Workload) Generate() ([]Request, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	classes := w.Classes
	if len(classes) == 0 {
		classes = DefaultClasses()
	}
	corpus := w.Instances
	if corpus == 0 {
		corpus = 3
	}
	root := rng.New(w.Seed)

	problems := make([][]classProblem, len(classes))
	for c, cl := range classes {
		insts, err := instance.Corpus(instance.Spec{Users: cl.Users, Scheme: cl.Scheme},
			root.SplitString("cran/corpus").Split(uint64(c)).Uint64(), corpus)
		if err != nil {
			return nil, fmt.Errorf("cran: workload class %d: %w", c, err)
		}
		for _, inst := range insts {
			is := inst.Reduction.Ising
			problems[c] = append(problems[c], classProblem{
				ising: is,
				init:  qubo.GreedySearchIsing(is, qubo.OrderDescending),
			})
		}
	}

	var totalWeight float64
	for _, cl := range classes {
		totalWeight += cl.Weight
	}
	baseRate := w.FramesPerSecond / 1e6 // frames per μs at level 1
	peak := 0.0
	for _, d := range w.Diurnal {
		if d > peak {
			peak = d
		}
	}
	maxBurst := 1.0
	if w.BurstProb > 0 {
		maxBurst = w.BurstFactor
	}
	lambdaMax := baseRate * peak * maxBurst
	bucketLen := w.DurationMicros / float64(len(w.Diurnal))

	var reqs []Request
	for cell := 0; cell < w.Cells; cell++ {
		// The cell's class, by weighted draw.
		cr := root.SplitString("cran/cell").Split(uint64(cell))
		pick := cr.Float64() * totalWeight
		class := len(classes) - 1
		for c, cl := range classes {
			if pick < cl.Weight {
				class = c
				break
			}
			pick -= cl.Weight
		}
		// The cell's burst pattern, one draw per diurnal bucket.
		bursts := make([]bool, len(w.Diurnal))
		for b := range bursts {
			bursts[b] = w.BurstProb > 0 && cr.Float64() < w.BurstProb
		}

		for ue := 0; ue < w.UEsPerCell; ue++ {
			sr := root.SplitString("cran/stream").Split(uint64(StreamID(cell, ue)))
			t, seq := 0.0, 0
			for {
				// Thinning: step at the peak rate, accept at λ(t)/λmax.
				t += -math.Log(1-sr.Float64()) / lambdaMax
				if t >= w.DurationMicros {
					break
				}
				bucket := int(t / bucketLen)
				if bucket >= len(w.Diurnal) {
					bucket = len(w.Diurnal) - 1
				}
				rate := baseRate * w.Diurnal[bucket]
				if bursts[bucket] {
					rate *= w.BurstFactor
				}
				if sr.Float64()*lambdaMax >= rate {
					continue
				}
				p := problems[class][sr.Intn(len(problems[class]))]
				reqs = append(reqs, Request{
					Cell: cell, UE: ue, Seq: seq,
					Arrival:      t,
					Deadline:     w.DeadlineMicros,
					Problem:      p.ising,
					InitialState: p.init,
					NumReads:     w.NumReads,
				})
				seq++
			}
		}
	}

	sort.Slice(reqs, func(i, j int) bool {
		a, b := reqs[i], reqs[j]
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		if a.UE != b.UE {
			return a.UE < b.UE
		}
		return a.Seq < b.Seq
	})
	if w.MaxFrames > 0 && len(reqs) > w.MaxFrames {
		reqs = reqs[:w.MaxFrames]
	}
	return reqs, nil
}
