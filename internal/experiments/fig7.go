package experiments

import (
	"fmt"
	"io"

	"repro/internal/annealer"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// Fig7Point is one ΔE_IS% bin of Figure 7: RA runs initialized at states
// of that quality, reporting the success probability and the expectation
// value of the (offset-free, ΔE%-scaled) cost over the anneal samples.
type Fig7Point struct {
	DeltaEIS   float64 `json:"delta_e_is"` // bin center, %
	PStar      float64 `json:"p_star"`
	MeanDeltaE float64 `json:"mean_delta_e"`
	Inits      int     `json:"inits"` // initial states contributing to the bin
	Samples    int     `json:"samples"`
	// PStars is the per-init success-probability sample vector PStar
	// averages — what a bootstrap resamples for the bin's CI.
	PStars []float64 `json:"p_stars"`
}

// Fig7Result is the full ΔE_IS% sweep on one instance.
type Fig7Result struct {
	Points []Fig7Point       `json:"points"`
	Users  int               `json:"users"`
	Scheme modulation.Scheme `json:"scheme"`
	Sp     float64           `json:"sp"`
}

// Figure7 studies the impact of the RA initial state's quality on one
// 8-user 16-QAM instance (§4.3): candidate initial states of varied
// ΔE_IS% are synthesized by randomly flipping spins of the known ground
// state (the paper harvests them from 750k anneal samples; flips cover
// the same 0–10% range directly), binned at δ = 2%, and each is used to
// initialize RA runs at the median-best s_p.
func Figure7(cfg Config) (*Fig7Result, error) {
	cfg = cfg.withDefaults()
	const (
		users = 8
		sp    = core.RASp
		delta = 2.0  // bin width, %
		maxD  = 12.0 // sweep range, %
	)
	in, err := instance.Synthesize(instance.Spec{Users: users, Scheme: modulation.QAM16, Seed: cfg.Seed ^ 0x77})
	if err != nil {
		return nil, err
	}
	root := cfg.root().SplitString("fig7")
	is := in.Reduction.Ising
	bins := int(maxD / delta)
	type agg struct {
		pSum, dSum float64
		inits      int
		samples    int
		pStars     []float64
	}
	aggs := make([]agg, bins)

	sc, err := annealer.Reverse(sp, 1)
	if err != nil {
		return nil, err
	}
	readsPerInit := cfg.Reads / 4
	if readsPerInit < 20 {
		readsPerInit = 20
	}
	// Synthesize initial states by random flips away from the ground
	// state: candidates are generated in bulk and credited to whichever
	// ΔE_IS% bin still needs initial states. Low-cost flips (spins with
	// the weakest local fields) are preferred so the low-ΔE bins populate
	// as densely as the paper's sample harvest does.
	initsPerBin := cfg.Instances * 4
	maxAttempts := initsPerBin * bins * 60
	remaining := bins * initsPerBin
	for attempt := 0; attempt < maxAttempts && remaining > 0; attempt++ {
		r := root.Split(uint64(attempt))
		state := append([]int8(nil), in.GroundSpins...)
		flips := 1 + r.Intn(6)
		for f := 0; f < flips; f++ {
			// Half the time, flip one of the cheapest spins; otherwise a
			// uniform one — together they cover the ΔE_IS% range.
			if r.Bool() {
				state[cheapestFlip(is, state, r)] *= -1
			} else {
				i := r.Intn(is.N)
				state[i] = -state[i]
			}
		}
		d := metrics.DeltaEForIsing(is, is.Energy(state), in.GroundEnergy)
		b := int(d / delta)
		if d <= 0 || b >= bins || aggs[b].inits >= initsPerBin {
			continue
		}
		res, err := annealer.Run(is, cfg.annealParams(sc, state, readsPerInit), r.SplitString("anneal"))
		if err != nil {
			return nil, err
		}
		aggs[b].inits++
		remaining--
		aggs[b].samples += len(res.Samples)
		p := metrics.SuccessProbability(res.Samples, in.GroundEnergy, 1e-6)
		aggs[b].pSum += p
		aggs[b].pStars = append(aggs[b].pStars, p)
		for _, smp := range res.Samples {
			aggs[b].dSum += metrics.DeltaEForIsing(is, smp.Energy, in.GroundEnergy)
		}
	}
	res := &Fig7Result{Users: users, Scheme: modulation.QAM16, Sp: sp}
	for bin := 0; bin < bins; bin++ {
		a := aggs[bin]
		if a.inits == 0 {
			continue
		}
		res.Points = append(res.Points, Fig7Point{
			DeltaEIS:   (float64(bin) + 0.5) * delta,
			PStar:      a.pSum / float64(a.inits),
			MeanDeltaE: a.dSum / float64(a.samples),
			Inits:      a.inits,
			Samples:    a.samples,
			PStars:     a.pStars,
		})
	}
	// Also include the ΔE_IS% = 0 reference point (ground-state init).
	gsRes, err := annealer.Run(is, cfg.annealParams(sc, in.GroundSpins, readsPerInit), root.SplitString("ground"))
	if err != nil {
		return nil, err
	}
	var dSum float64
	for _, smp := range gsRes.Samples {
		dSum += metrics.DeltaEForIsing(is, smp.Energy, in.GroundEnergy)
	}
	zero := Fig7Point{
		DeltaEIS:   0,
		PStar:      metrics.SuccessProbability(gsRes.Samples, in.GroundEnergy, 1e-6),
		MeanDeltaE: dSum / float64(len(gsRes.Samples)),
		Inits:      1,
		Samples:    len(gsRes.Samples),
	}
	zero.PStars = []float64{zero.PStar}
	res.Points = append([]Fig7Point{zero}, res.Points...)
	return res, nil
}

// WriteTable renders the sweep.
func (r *Fig7Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Figure 7: RA vs initial-state quality, %d-user %s, sp=%.2f\n", r.Users, r.Scheme, r.Sp)
	writeRow(w, "dE_IS%", "p_star", "mean_dE%", "inits", "samples")
	for _, p := range r.Points {
		writeRow(w, p.DeltaEIS, p.PStar, p.MeanDeltaE, p.Inits, p.Samples)
	}
}

// cheapestFlip returns the index of a spin whose flip costs the least
// energy given the current state (random tie-breaking among the 3
// cheapest).
func cheapestFlip(is *qubo.Ising, state []int8, r *rng.Source) int {
	type cand struct {
		i    int
		cost float64
	}
	best := [3]cand{{-1, 0}, {-1, 0}, {-1, 0}}
	for i := 0; i < is.N; i++ {
		c := is.FlipDelta(state, i)
		for k := 0; k < 3; k++ {
			if best[k].i < 0 || c < best[k].cost {
				copy(best[k+1:], best[k:2])
				best[k] = cand{i, c}
				break
			}
		}
	}
	k := r.Intn(3)
	if best[k].i < 0 {
		k = 0
	}
	return best[k].i
}

// Monotone reports whether success probability broadly degrades with
// initial-state quality: the first point's p★ must be within the top of
// the sweep and the last point must not exceed the first.
func (r *Fig7Result) Monotone() bool {
	if len(r.Points) < 2 {
		return false
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	return last.PStar <= first.PStar+1e-9
}
