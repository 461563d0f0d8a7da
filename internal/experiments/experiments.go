// Package experiments regenerates every table and figure of the paper's
// evaluation: one harness per figure, shared by cmd/experiments and the
// root-level benchmarks. Each harness returns structured series and can
// render the same rows the paper plots.
//
// Harness ↔ figure map (see DESIGN.md's per-experiment index):
//
//	Figure3  — QUBO-simplification ratio & avg fixed variables (§3.1)
//	Figure4  — soft-information constraint effect report (§3.1)
//	Figure6  — ΔE% sample distributions: FA vs RA(random) vs RA(GS) (§4.3)
//	Figure7  — success probability & E[cost] vs ΔE_IS% (§4.3)
//	Figure8  — p★ and TTS vs s_p for FA / FR / RA (§4.3)
//	Headline — RA-vs-FA success-probability and TTS ratios (§1, §4.3)
//	Pipeline — Figure 2 pipelining throughput/latency (§3)
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"

	"repro/internal/annealer"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// jsonFloat marshals the non-finite float64s figure results legitimately
// contain (TTS = +Inf when a solver never succeeds, ΔE_IS = NaN for
// solvers without an initial state) as JSON strings — plain encoding/json
// rejects them, and the golden-baseline files embed whole results.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler, accepting both the string
// spellings above and plain numbers.
func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		switch s {
		case "NaN":
			*f = jsonFloat(math.NaN())
		case "+Inf":
			*f = jsonFloat(math.Inf(1))
		case "-Inf":
			*f = jsonFloat(math.Inf(-1))
		default:
			return fmt.Errorf("experiments: unknown float spelling %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

// Config scales every harness's effort. Quick() keeps the full sweep
// structure at a few seconds per figure for benchmarks and CI; Full()
// approaches the paper's sample counts.
type Config struct {
	// Seed roots all randomness; a fixed seed reproduces every number.
	Seed uint64
	// Instances per (modulation, size) point.
	Instances int
	// Reads per anneal setting (the paper's N_s).
	Reads int
	// SweepsPerMicrosecond is the simulator clock rate. The calibrated
	// default of 30 keeps dynamics diabatic: forward anneals cannot fully
	// equilibrate (as on hardware), which is what separates the solvers.
	SweepsPerMicrosecond float64
	// Profile sets device energy scales (default CalibratedProfile).
	// Every harness simulates SVMC dynamics without control-error noise.
	Profile *annealer.Profile
	// Parallelism fans anneal reads across goroutines (default
	// runtime.NumCPU, capped at 8; deterministic at any level).
	Parallelism int
	// Trace and Metrics, when set, are threaded into every anneal batch
	// and fleet serve a harness issues — one registry/trace accumulates
	// the whole experiment. Nil-safe and observation-only (results are
	// bit-identical either way).
	Trace   *telemetry.Tracer
	Metrics *telemetry.Registry
}

// Quick returns the benchmark-scale configuration.
func Quick() Config {
	return Config{
		Seed:                 2020,
		Instances:            5,
		Reads:                200,
		SweepsPerMicrosecond: 30,
	}
}

// Full returns the paper-scale configuration (minutes per figure).
func Full() Config {
	return Config{
		Seed:                 2020,
		Instances:            20,
		Reads:                2000,
		SweepsPerMicrosecond: 30,
	}
}

// WithDefaults returns c with every unset field at its Quick-scale
// default (seed 2020, calibrated profile, 30 sweeps/μs, up to 8 workers),
// so callers that layer their own defaults on a Config (the validation
// harness) resolve the rest exactly as the figures do.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 2020
	}
	if c.Instances <= 0 {
		c.Instances = 5
	}
	if c.Reads <= 0 {
		c.Reads = 200
	}
	if c.SweepsPerMicrosecond <= 0 {
		c.SweepsPerMicrosecond = 30
	}
	if c.Profile == nil {
		prof := annealer.CalibratedProfile()
		c.Profile = &prof
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.NumCPU()
		if c.Parallelism > 8 {
			c.Parallelism = 8
		}
	}
	return c
}

// annealConfig builds the shared device settings.
func (c Config) annealConfig() core.AnnealConfig {
	return core.AnnealConfig{
		Profile:              c.Profile,
		SweepsPerMicrosecond: c.SweepsPerMicrosecond,
		Parallelism:          c.Parallelism,
		Trace:                c.Trace,
		Metrics:              c.Metrics,
	}
}

// annealParams builds raw annealer parameters for harnesses that bypass
// the solver types.
func (c Config) annealParams(sc *annealer.Schedule, init []int8, reads int) annealer.Params {
	return annealer.Params{
		Schedule:             sc,
		InitialState:         init,
		NumReads:             reads,
		Profile:              c.Profile,
		SweepsPerMicrosecond: c.SweepsPerMicrosecond,
		Parallelism:          c.Parallelism,
		Trace:                c.Trace,
		Metrics:              c.Metrics,
	}
}

func (c Config) root() *rng.Source { return rng.New(c.Seed) }

// writeRow writes one aligned table row.
func writeRow(w io.Writer, cols ...any) {
	for i, col := range cols {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		switch v := col.(type) {
		case string:
			fmt.Fprintf(w, "%-10s", v)
		case float64:
			fmt.Fprintf(w, "%10.4f", v)
		case int:
			fmt.Fprintf(w, "%6d", v)
		default:
			fmt.Fprintf(w, "%v", v)
		}
	}
	fmt.Fprintln(w)
}
