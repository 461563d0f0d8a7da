package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/annealer"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// Fig8Solver labels the curves of Figure 8.
type Fig8Solver string

// Figure 8's compared solvers. The paper's yellow band is a family of RA
// curves, one per initial-state quality ΔE_IS% (its δ = 0.2% grid is
// coarsened here to a handful of representative qualities); the red
// dashed reference is RA from the exact ground state; RA-GS is the
// hybrid prototype's own greedy-search candidate.
const (
	Fig8FA       Fig8Solver = "FA"
	Fig8FROracle Fig8Solver = "FR-oracle"
	Fig8RAGround Fig8Solver = "RA-dE0"
	Fig8RAGS     Fig8Solver = "RA-GS"
)

// fig8FamilyTargets are the representative ΔE_IS% qualities of the RA
// family (the paper sweeps 0 < ΔE_IS% < 10).
var fig8FamilyTargets = []float64{1, 3, 5, 8}

// Fig8FamilySolver names the RA curve for one ΔE_IS target.
func Fig8FamilySolver(target float64) Fig8Solver {
	return Fig8Solver(fmt.Sprintf("RA-dE%g", target))
}

// Fig8Point is one (solver, s_p) measurement.
type Fig8Point struct {
	Solver   Fig8Solver `json:"solver"`
	Sp       float64    `json:"sp"`
	PStar    float64    `json:"p_star"`
	TTS      float64    `json:"tts"`      // μs at C_t = 99%
	Duration float64    `json:"duration"` // one read's schedule μs
	// DeltaEIS is the RA initial state's actual quality (NaN for FA/FR).
	DeltaEIS float64 `json:"delta_e_is"`
	// Successes of Reads is the success count behind PStar — the point's
	// sample vector (per-read Bernoulli indicators) for confidence
	// intervals. For FR-oracle points the counts are the winning c_p's.
	Successes int `json:"successes"`
	Reads     int `json:"reads"`
}

// MarshalJSON implements json.Marshaler: TTS and DeltaEIS may be
// non-finite (never-succeeded, no-initial-state), which plain JSON
// numbers cannot carry.
func (p Fig8Point) MarshalJSON() ([]byte, error) {
	type wire Fig8Point
	return json.Marshal(struct {
		wire
		TTS      jsonFloat `json:"tts"`
		DeltaEIS jsonFloat `json:"delta_e_is"`
	}{wire: wire(p), TTS: jsonFloat(p.TTS), DeltaEIS: jsonFloat(p.DeltaEIS)})
}

// UnmarshalJSON implements json.Unmarshaler, the inverse of MarshalJSON.
func (p *Fig8Point) UnmarshalJSON(b []byte) error {
	type wire Fig8Point
	var w struct {
		wire
		TTS      jsonFloat `json:"tts"`
		DeltaEIS jsonFloat `json:"delta_e_is"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*p = Fig8Point(w.wire)
	p.TTS, p.DeltaEIS = float64(w.TTS), float64(w.DeltaEIS)
	return nil
}

// Fig8Result is the full sweep on the paper's 8-user 16-QAM instance.
type Fig8Result struct {
	Points []Fig8Point       `json:"points"`
	Users  int               `json:"users"`
	Scheme modulation.Scheme `json:"scheme"`
	// Confidence is the TTS target C_t%.
	Confidence float64 `json:"confidence"`
	// GSDeltaE is the greedy candidate's ΔE_IS%.
	GSDeltaE float64 `json:"gs_delta_e"`
}

// Figure8 sweeps the switch/pause location s_p ∈ {0.25 … 0.97 step 0.04}
// for FA, FR (oracle c_p: best of an exhaustive c_p grid per s_p), RA
// from the ground state, RA from candidate states of representative
// qualities ΔE_IS% ∈ {1, 3, 5, 8} (the paper's yellow family), and RA
// from the hybrid's greedy-search candidate — reporting p★ and TTS(99%)
// per point, Figure 8's axes.
func Figure8(cfg Config) (*Fig8Result, error) {
	cfg = cfg.withDefaults()
	const users = 8
	in, err := instance.Synthesize(instance.Spec{Users: users, Scheme: modulation.QAM16, Seed: cfg.Seed ^ 0x88})
	if err != nil {
		return nil, err
	}
	is := in.Reduction.Ising
	root := cfg.root().SplitString("fig8")
	res := &Fig8Result{Users: users, Scheme: modulation.QAM16, Confidence: 99}
	tol := 1e-6

	gsState := qubo.GreedySearchIsing(is, qubo.OrderDescending)
	res.GSDeltaE = metrics.DeltaEForIsing(is, is.Energy(gsState), in.GroundEnergy)

	// One candidate state per family target quality.
	family := make(map[float64][]int8)
	familyD := make(map[float64]float64)
	for _, target := range fig8FamilyTargets {
		st, d := stateAtQuality(is, in.GroundSpins, in.GroundEnergy, target, root.SplitString(fmt.Sprintf("family/%g", target)))
		family[target] = st
		familyD[target] = d
	}

	// run draws one batch and returns (p★, successes, surviving reads).
	run := func(sc *annealer.Schedule, init []int8, r *rng.Source) (float64, int, int, error) {
		out, err := annealer.Run(is, cfg.annealParams(sc, init, cfg.Reads), r)
		if err != nil {
			return 0, 0, 0, err
		}
		hits := 0
		for _, s := range out.Samples {
			if s.Energy <= in.GroundEnergy+tol {
				hits++
			}
		}
		return metrics.SuccessProbability(out.Samples, in.GroundEnergy, tol), hits, len(out.Samples), nil
	}

	for i, sp := range spGrid() {
		r := root.Split(uint64(i))
		// FA with pause at sp.
		fa, err := annealer.Forward(1, sp, 1)
		if err != nil {
			return nil, err
		}
		p, hits, reads, err := run(fa, nil, r.SplitString("fa"))
		if err != nil {
			return nil, err
		}
		res.add(Fig8FA, sp, p, fa.Duration(), math.NaN(), hits, reads)

		// FR with oracle cp: best success over a cp grid above sp.
		bestP, bestDur := 0.0, 0.0
		bestHits, bestReads := 0, 0
		for _, cp := range cpGrid(sp) {
			fr, err := annealer.ForwardReverse(cp, sp, 1, 1)
			if err != nil {
				return nil, err
			}
			pp, hh, rr, err := run(fr, nil, r.SplitString(fmt.Sprintf("fr/%0.2f", cp)))
			if err != nil {
				return nil, err
			}
			if pp > bestP || bestDur == 0 {
				bestP, bestDur = pp, fr.Duration()
				bestHits, bestReads = hh, rr
			}
		}
		res.add(Fig8FROracle, sp, bestP, bestDur, math.NaN(), bestHits, bestReads)

		// RA from the exact ground state (red dashed reference).
		ra, err := annealer.Reverse(sp, 1)
		if err != nil {
			return nil, err
		}
		p, hits, reads, err = run(ra, in.GroundSpins, r.SplitString("ra0"))
		if err != nil {
			return nil, err
		}
		res.add(Fig8RAGround, sp, p, ra.Duration(), 0, hits, reads)

		// RA family: one curve per candidate quality.
		for _, target := range fig8FamilyTargets {
			p, hits, reads, err = run(ra, family[target], r.SplitString(fmt.Sprintf("ra/%g", target)))
			if err != nil {
				return nil, err
			}
			res.add(Fig8FamilySolver(target), sp, p, ra.Duration(), familyD[target], hits, reads)
		}

		// RA from the hybrid's greedy candidate.
		p, hits, reads, err = run(ra, gsState, r.SplitString("ra-gs"))
		if err != nil {
			return nil, err
		}
		res.add(Fig8RAGS, sp, p, ra.Duration(), res.GSDeltaE, hits, reads)
	}
	return res, nil
}

func (r *Fig8Result) add(sv Fig8Solver, sp, p, dur, dIS float64, successes, reads int) {
	r.Points = append(r.Points, Fig8Point{
		Solver: sv, Sp: sp, PStar: p,
		TTS:       metrics.TTS(dur, p, r.Confidence),
		Duration:  dur,
		DeltaEIS:  dIS,
		Successes: successes,
		Reads:     reads,
	})
}

// spGrid is the paper's §4.2 sweep: 0.25–0.99 step 0.04.
func spGrid() []float64 {
	var out []float64
	for sp := 0.25; sp < 0.995; sp += 0.04 {
		out = append(out, math.Round(sp*100)/100)
	}
	return out
}

// cpGrid is the FR oracle's turn-point candidates above sp.
func cpGrid(sp float64) []float64 {
	var out []float64
	for cp := sp + 0.08; cp <= 1.0; cp += 0.08 {
		out = append(out, math.Round(cp*100)/100)
	}
	if len(out) == 0 {
		out = append(out, math.Min(1, sp+0.04))
	}
	return out
}

// CandidateAtQuality exposes the figure harnesses' candidate-state
// synthesis to the validation harness: a state whose ΔE_IS% lands as
// close as possible to target, plus the achieved quality. Deterministic
// for a fixed r stream.
func CandidateAtQuality(is *qubo.Ising, ground []int8, groundEnergy, target float64, r *rng.Source) ([]int8, float64) {
	return stateAtQuality(is, ground, groundEnergy, target, r)
}

// stateAtQuality synthesizes a candidate whose ΔE_IS% is as close as
// possible to target, by random low-cost flips from the ground state —
// the stand-in for the paper's harvest of anneal samples at each quality.
func stateAtQuality(is *qubo.Ising, ground []int8, groundEnergy, target float64, r *rng.Source) ([]int8, float64) {
	bestState := append([]int8(nil), ground...)
	bestState[0] *= -1
	bestGap := math.Inf(1)
	bestD := metrics.DeltaEForIsing(is, is.Energy(bestState), groundEnergy)
	for attempt := 0; attempt < 4000; attempt++ {
		state := append([]int8(nil), ground...)
		flips := 1 + r.Intn(6)
		for f := 0; f < flips; f++ {
			if r.Bool() {
				state[cheapestFlip(is, state, r)] *= -1
			} else {
				state[r.Intn(is.N)] *= -1
			}
		}
		d := metrics.DeltaEForIsing(is, is.Energy(state), groundEnergy)
		if d <= 0 {
			continue
		}
		if gap := math.Abs(d - target); gap < bestGap {
			bestGap, bestD, bestState = gap, d, state
			if gap < target*0.05 {
				break
			}
		}
	}
	return bestState, bestD
}

// WriteTable renders the sweep.
func (r *Fig8Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Figure 8: p★ and TTS(%.0f%%) vs s_p, %d-user %s (GS candidate ΔE_IS%%=%.2f)\n",
		r.Confidence, r.Users, r.Scheme, r.GSDeltaE)
	writeRow(w, "solver", "sp", "p_star", "tts_us", "dur_us", "dE_IS%")
	for _, p := range r.Points {
		writeRow(w, string(p.Solver), p.Sp, p.PStar, p.TTS, p.Duration, p.DeltaEIS)
	}
}

// PointsFor filters one solver's curve.
func (r *Fig8Result) PointsFor(sv Fig8Solver) []Fig8Point {
	var out []Fig8Point
	for _, p := range r.Points {
		if p.Solver == sv {
			out = append(out, p)
		}
	}
	return out
}

// FamilyPoints returns every RA-family point (excluding the ground-state
// reference and the GS curve).
func (r *Fig8Result) FamilyPoints() []Fig8Point {
	var out []Fig8Point
	for _, p := range r.Points {
		if strings.HasPrefix(string(p.Solver), "RA-dE") && p.Solver != Fig8RAGround {
			out = append(out, p)
		}
	}
	return out
}

// FamilySuccessWindow returns the s_p interval [lo, hi] over which some
// RA-family point's p★ is strictly positive (the paper: RA succeeds on
// 0.33–0.49).
func (r *Fig8Result) FamilySuccessWindow() (lo, hi float64, ok bool) {
	for _, p := range r.FamilyPoints() {
		if p.PStar > 0 {
			if !ok {
				lo, hi, ok = p.Sp, p.Sp, true
			} else {
				if p.Sp < lo {
					lo = p.Sp
				}
				if p.Sp > hi {
					hi = p.Sp
				}
			}
		}
	}
	return lo, hi, ok
}

// BestTTS returns the solver's minimum-TTS point.
func (r *Fig8Result) BestTTS(sv Fig8Solver) (Fig8Point, bool) {
	return bestOf(r.PointsFor(sv))
}

// BestFamilyTTS returns the minimum-TTS point across the RA family.
func (r *Fig8Result) BestFamilyTTS() (Fig8Point, bool) {
	return bestOf(r.FamilyPoints())
}

func bestOf(pts []Fig8Point) (Fig8Point, bool) {
	best := Fig8Point{TTS: math.Inf(1)}
	found := false
	for _, p := range pts {
		if p.PStar > 0 && p.TTS < best.TTS {
			best = p
			found = true
		}
	}
	return best, found
}
