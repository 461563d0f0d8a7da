package fleet

import (
	"fmt"
	"math"

	"repro/internal/qubo"
)

// BackendClass is the coarse routing bucket a frame is steered toward.
// Routing works at class granularity — which *specific* device inside the
// class serves the frame stays a scheduling decision (policy + load).
type BackendClass int

const (
	// ClassAny places the frame on whatever device frees up first — the
	// zero value and the behavior of homogeneous fleets.
	ClassAny BackendClass = iota
	// ClassQuantum restricts the frame to QPU-sim backends.
	ClassQuantum
	// ClassClassical restricts the frame to classical surrogates.
	ClassClassical
)

// String names the class.
func (c BackendClass) String() string {
	switch c {
	case ClassAny:
		return "any"
	case ClassQuantum:
		return "quantum"
	case ClassClassical:
		return "classical"
	}
	return fmt.Sprintf("BackendClass(%d)", int(c))
}

// RoutePolicy selects how admitted frames are assigned a backend class.
type RoutePolicy int

const (
	// RouteAny ignores backend classes entirely: every frame may land on
	// any compatible device. The zero value, and the pre-heterogeneous
	// behavior.
	RouteAny RoutePolicy = iota
	// RouteHybrid scores each frame's hardness and deadline slack: hard or
	// deadline-tight frames go to ClassQuantum, easy frames with slack go
	// to ClassClassical.
	RouteHybrid
)

// ParseRoutePolicy maps CLI spellings onto route policies.
func ParseRoutePolicy(s string) (RoutePolicy, error) {
	switch s {
	case "any", "":
		return RouteAny, nil
	case "hybrid":
		return RouteHybrid, nil
	}
	return 0, fmt.Errorf("fleet: unknown route policy %q (want any or hybrid)", s)
}

// String names the policy.
func (p RoutePolicy) String() string {
	switch p {
	case RouteAny:
		return "any"
	case RouteHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("RoutePolicy(%d)", int(p))
}

// valid reports whether p is a known policy.
func (p RoutePolicy) valid() bool {
	return p >= RouteAny && p <= RouteHybrid
}

// Hybrid routing's split points.
const (
	// hardnessThreshold splits easy from hard instances on the [0,1]
	// Hardness scale; frames at or below it are classical candidates. It
	// sits above the density term's full weight at small sizes: even a
	// fully dense instance scores below it up to ~10 spins, so
	// cheap-to-solve dense small frames stay classical and only genuinely
	// large instances rank as hard.
	hardnessThreshold = 0.6
	// slackFactor is the safety margin on the modelled classical service
	// time: a frame only routes classical when its deadline leaves at
	// least slackFactor× the estimate.
	slackFactor = 2
)

// RouterConfig tunes hybrid routing. The zero value scores every frame.
type RouterConfig struct {
	// ForceClass, when non-zero, overrides scoring and pins every frame to
	// the given class — the "hybrid-routing-off" failure injection.
	ForceClass BackendClass
}

// Hardness scores an instance on [0,1]: 0.6 weight on problem size
// (saturating at 32 spins — one 8-user 16QAM frame, the paper's hardest
// workload) and 0.4 on coupling density. Size is the dominant term because
// classical surrogate cost scales with N×sweeps while the QPU's anneal
// time does not.
func Hardness(is *qubo.Ising) float64 {
	if is == nil || is.N == 0 {
		return 0
	}
	size := float64(is.N) / 32
	if size > 1 {
		size = 1
	}
	density := 0.0
	if is.N > 1 {
		density = 2 * float64(is.NumEdges()) / float64(is.N*(is.N-1))
	}
	return 0.6*size + 0.4*density
}

// RouteDecision explains where and why a frame was routed.
type RouteDecision struct {
	Class BackendClass
	// Hardness is the instance's score on the [0,1] scale.
	Hardness float64
	// ClassicalMicros is the modelled classical service time used for the
	// deadline-slack test: the SA model (the cheapest surrogate) plus its
	// setup overhead, as the class-wide estimate.
	ClassicalMicros float64
}

// Route assigns a frame a backend class from its instance hardness and
// deadline slack (deadlineMicros ≤ 0 means no deadline). Monotone in the
// deadline by construction: tightening a deadline can only move a frame
// from ClassClassical to ClassQuantum, never the reverse, because the
// deadline appears in exactly one test and only on the ≥ side.
func (rc RouterConfig) Route(is *qubo.Ising, deadlineMicros float64, reads int) RouteDecision {
	d := RouteDecision{
		Hardness:        Hardness(is),
		ClassicalMicros: classicalServiceMicros(BackendSimulatedAnnealing, is, reads) + serving.setupMicros,
	}
	if rc.ForceClass != ClassAny {
		d.Class = rc.ForceClass
		return d
	}
	if d.Hardness > hardnessThreshold {
		d.Class = ClassQuantum
		return d
	}
	if deadlineMicros > 0 && deadlineMicros < slackFactor*d.ClassicalMicros {
		d.Class = ClassQuantum
		return d
	}
	if math.IsNaN(deadlineMicros) {
		d.Class = ClassQuantum
		return d
	}
	d.Class = ClassClassical
	return d
}
