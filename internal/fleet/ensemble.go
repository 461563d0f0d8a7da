// Ensemble serving: fan each detection frame into K×G reverse-anneal
// arms (top-K classical candidates × an s_p schedule grid, the X-ResQ
// flexible-parallelism shape), serve every arm through the fleet's
// plan/execute scheduler with arm-aware batching, then fuse each frame's
// surviving reads into per-spin soft output.
package fleet

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/mimo"
	"repro/internal/qubo"
)

// EnsembleFrame is one detection frame submitted for ensemble serving.
type EnsembleFrame struct {
	// Stream and Seq identify the frame, exactly as in Request.
	Stream, Seq int
	// Arrival and Deadline are simulated μs, as in Request.
	Arrival, Deadline float64
	// Problem is the reduced detection problem shared by every arm.
	Problem *qubo.Ising
	// Candidates are the top-K classical candidates; Candidates[0] seeds
	// arm 0 (the single-RA anchor). The lowest-energy candidate is the
	// fallback answer when no arm is healthy.
	Candidates [][]int8
}

// EnsembleConfig tunes ServeEnsemble on top of a fleet Config.
type EnsembleConfig struct {
	// Fleet is the underlying pool and scheduler configuration. Per-frame
	// Sp/Tp/NumReads defaults are ignored: the ensemble's grid drives
	// them.
	Fleet Config
	// SpGrid is the per-candidate s_p schedule grid (default {core.RASp}).
	SpGrid []float64
	// Tp is the pause μs shared by all arms (default Fleet default).
	Tp float64
	// ReadsPerArm is each arm's read count (default Fleet default).
	ReadsPerArm int
	// Beta is the fusion sharpness passed to mimo.FuseLLRs (≤ 0: auto).
	Beta float64
}

// EnsembleOutcome is one frame's fused result.
type EnsembleOutcome struct {
	Stream int `json:"stream"`
	Seq    int `json:"seq"`
	// Best and Source are the frame's hard answer: core.Reduce over the
	// healthy arms (neither shed nor faulted) and every candidate.
	Best   qubo.Sample       `json:"best"`
	Source core.AnswerSource `json:"source"`
	// FusedLLRs is the per-spin soft output over every surviving arm's
	// reads (nil when every arm was shed or faulted).
	FusedLLRs []float64 `json:"fused_llrs,omitempty"`
	// Arms holds the underlying per-arm fleet outcomes in PlanArms order.
	Arms []Outcome `json:"arms"`
	// ShedArms counts arms answered by the degradation ladder.
	ShedArms int `json:"shed_arms,omitempty"`
	// Finish is the frame's completion instant: the latest arm finish.
	Finish float64 `json:"finish_us"`
}

// EnsembleResult is one ServeEnsemble call's full output.
type EnsembleResult struct {
	// Outcomes holds one fused entry per frame, ordered by (Stream, Seq).
	Outcomes []EnsembleOutcome
	// Arms is the number of arms served per frame (K × G).
	Arms int
	// Report aggregates the underlying arm-level scheduling statistics.
	Report Report
}

// ServeEnsemble fans frames into arms, serves them, and fuses.
//
// Arm i of a frame runs as fleet stream Stream*(K·G)+i with the frame's
// Seq, in its own group so the batch filler coalesces a frame's arms
// onto shared programming cycles; all arm requests carry KeepSamples.
// The plan/execute split is untouched underneath, so ensemble serving is
// bit-identical at any worker count.
func ServeEnsemble(ctx context.Context, cfg EnsembleConfig, frames []EnsembleFrame) (*EnsembleResult, error) {
	grid := cfg.SpGrid
	if len(grid) == 0 {
		grid = []float64{core.RASp}
	}
	if err := core.ValidateSpGrid(grid); err != nil {
		return nil, err
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("fleet: ensemble needs at least one frame")
	}
	k := len(frames[0].Candidates)
	if k < 1 || k > core.MaxEnsembleK {
		return nil, fmt.Errorf("fleet: frame 0 has %d candidates, want 1..%d", k, core.MaxEnsembleK)
	}
	arms := core.PlanArms(k, len(grid))
	nArms := len(arms)
	reqs := make([]Request, 0, len(frames)*nArms)
	for i, f := range frames {
		if len(f.Candidates) != k {
			return nil, fmt.Errorf("fleet: frame %d has %d candidates, frame 0 has %d (one K per call)", i, len(f.Candidates), k)
		}
		if f.Stream < 0 || f.Stream >= (1<<31)/nArms {
			return nil, fmt.Errorf("fleet: frame %d stream %d overflows the arm substream space (max %d for %d arms)",
				i, f.Stream, (1<<31)/nArms-1, nArms)
		}
		for ai, a := range arms {
			reqs = append(reqs, Request{
				Stream:       f.Stream*nArms + ai,
				Seq:          f.Seq,
				Arrival:      f.Arrival,
				Deadline:     f.Deadline,
				Problem:      f.Problem,
				InitialState: f.Candidates[a.Candidate],
				Sp:           grid[a.SpIndex],
				Tp:           cfg.Tp,
				NumReads:     cfg.ReadsPerArm,
				Group:        i + 1,
				KeepSamples:  true,
			})
		}
	}
	res, err := Serve(ctx, cfg.Fleet, reqs)
	if err != nil {
		return nil, err
	}
	byArm := make(map[[2]int]*Outcome, len(res.Outcomes))
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		byArm[[2]int{o.Stream, o.Seq}] = o
	}
	out := &EnsembleResult{Arms: nArms, Report: res.Report, Outcomes: make([]EnsembleOutcome, 0, len(frames))}
	order := make([]int, len(frames))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		fa, fb := frames[order[a]], frames[order[b]]
		if fa.Stream != fb.Stream {
			return fa.Stream < fb.Stream
		}
		return fa.Seq < fb.Seq
	})
	healthy := make([]core.Arm, 0, nArms)
	for _, fi := range order {
		f := frames[fi]
		eo := EnsembleOutcome{Stream: f.Stream, Seq: f.Seq, Finish: math.Inf(-1)}
		var pooled [][]qubo.Sample
		healthy = healthy[:0]
		for ai := range arms {
			o := byArm[[2]int{f.Stream*nArms + ai, f.Seq}]
			if o == nil {
				return nil, fmt.Errorf("fleet: arm %d of frame (%d, %d) missing from serve result", ai, f.Stream, f.Seq)
			}
			eo.Arms = append(eo.Arms, *o)
			if o.Finish > eo.Finish {
				eo.Finish = o.Finish
			}
			if o.Shed {
				eo.ShedArms++
				continue
			}
			// A read-fault arm answered with its candidate on the fallback
			// rung; it carries no anneal output, so it does not compete.
			if o.Source.Degraded() {
				continue
			}
			healthy = append(healthy, core.Arm{Best: o.Best, Source: o.Source})
			if len(o.Samples) > 0 {
				pooled = append(pooled, o.Samples)
			}
		}
		ans := core.Reduce(f.Problem, f.Candidates, healthy)
		eo.Best, eo.Source = ans.Best, ans.Source
		if len(pooled) > 0 {
			if llrs, err := mimo.FuseLLRs(pooled, cfg.Beta, 0); err == nil {
				eo.FusedLLRs = llrs
			}
		}
		out.Outcomes = append(out.Outcomes, eo)
	}
	return out, nil
}
