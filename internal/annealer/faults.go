package annealer

import (
	"errors"
	"fmt"

	"repro/internal/rng"
)

// FaultModel injects hard device failures alongside the soft ICE noise —
// the failure classes a production cQ-RAN integration must survive:
// programming failures (the whole batch is lost before any read), per-read
// timeouts (a read returns nothing), chain-break storms (a read's readout
// comes back corrupted), and calibration drift (a read runs against stale
// coefficients).
//
// Every fault decision is drawn from a dedicated split of the run's RNG
// (never from the dynamics stream), so a zero-rate model is an exact
// no-op, results are bit-identical at any Parallelism level, and the same
// seed replays the same faults.
type FaultModel struct {
	// ProgrammingFailureRate is the probability one Run/QPU.Run call fails
	// to program the device at all; the call returns a *FaultError of kind
	// FaultProgramming before any read is drawn.
	ProgrammingFailureRate float64
	// ReadTimeoutRate is the per-read probability the read times out and
	// is dropped from Result.Samples.
	ReadTimeoutRate float64
	// ChainBreakStormRate is the per-read probability the measured state
	// is corrupted at readout: each spin flips independently with
	// probability StormFlipFraction.
	ChainBreakStormRate float64
	// StormFlipFraction is the per-spin flip probability inside a storm
	// (default 0.25).
	StormFlipFraction float64
	// CalibrationDriftRate is the per-read probability the programmed
	// coefficients drift by N(0, DriftSigma²) on top of ICE — stale
	// calibration between recalibration cycles.
	CalibrationDriftRate float64
	// DriftSigma is the drift magnitude when a drift fires (default 0.05,
	// relative to the normalized ±1 coefficient range).
	DriftSigma float64
}

// Enabled reports whether any fault class can fire.
func (fm FaultModel) Enabled() bool {
	return fm.ProgrammingFailureRate > 0 || fm.ReadTimeoutRate > 0 ||
		fm.ChainBreakStormRate > 0 || fm.CalibrationDriftRate > 0
}

// Validate checks every rate is a probability and magnitudes are sane.
func (fm FaultModel) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"programming failure rate", fm.ProgrammingFailureRate},
		{"read timeout rate", fm.ReadTimeoutRate},
		{"chain-break storm rate", fm.ChainBreakStormRate},
		{"storm flip fraction", fm.StormFlipFraction},
		{"calibration drift rate", fm.CalibrationDriftRate},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("annealer: %s %g out of [0,1]", p.name, p.v)
		}
	}
	if fm.DriftSigma < 0 {
		return fmt.Errorf("annealer: negative drift sigma %g", fm.DriftSigma)
	}
	return nil
}

// ProgrammingFails decides one batch-level programming failure. It is
// exported so serving layers (internal/fleet) can pre-draw a batch's
// fate when planning dispatch timing: Run and QPU.Run draw from the same
// "fault/programming" split of the batch's root stream, so a plan and
// its execution always agree. A zero rate consumes no draw.
func (fm FaultModel) ProgrammingFails(r *rng.Source) bool {
	return fm.ProgrammingFailureRate > 0 && r.Float64() < fm.ProgrammingFailureRate
}

// WithoutProgrammingFailures returns the model with the batch-level
// programming-failure class disabled, leaving per-read classes intact —
// for callers (a fleet dispatcher) that own the programming-cycle draw
// themselves and must not have the execution layer re-draw it.
func (fm FaultModel) WithoutProgrammingFailures() FaultModel {
	fm.ProgrammingFailureRate = 0
	return fm
}

// readTimesOut decides one read's timeout from the read's fault stream.
func (fm FaultModel) readTimesOut(fr *rng.Source) bool {
	return fm.ReadTimeoutRate > 0 && fr.Float64() < fm.ReadTimeoutRate
}

// driftFires decides one read's calibration-drift fault from its fault
// stream, consuming exactly one draw iff the rate is positive (so a
// zero-rate model stays an exact no-op). The drifted coefficients
// themselves are programmed by applyGaussianCSR with driftSigma, as a
// noise layer after the read's ICE.
func (fm FaultModel) driftFires(fr *rng.Source) bool {
	return fm.CalibrationDriftRate > 0 && fr.Float64() < fm.CalibrationDriftRate
}

// driftSigma returns the coefficient sigma applied when a drift fires.
func (fm FaultModel) driftSigma() float64 {
	if fm.DriftSigma == 0 {
		return 0.05
	}
	return fm.DriftSigma
}

// storm corrupts the measured state in place when a chain-break storm
// fires, returning whether it did.
func (fm FaultModel) storm(spins []int8, fr *rng.Source) bool {
	if fm.ChainBreakStormRate <= 0 || fr.Float64() >= fm.ChainBreakStormRate {
		return false
	}
	flip := fm.StormFlipFraction
	if flip == 0 {
		flip = 0.25
	}
	for i := range spins {
		if fr.Float64() < flip {
			spins[i] = -spins[i]
		}
	}
	return true
}

// FaultKind labels the failure classes a FaultError can report.
type FaultKind int

// The fault classes surfaced as errors; soft per-read faults (storms,
// drift) degrade samples and are tallied in FaultStats instead.
const (
	// FaultProgramming: the device could not be programmed; no reads ran.
	FaultProgramming FaultKind = iota
	// FaultAllReadsLost: every read in the batch timed out.
	FaultAllReadsLost
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultProgramming:
		return "programming-failure"
	case FaultAllReadsLost:
		return "all-reads-lost"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultError is the typed error an injected hard fault surfaces, so
// callers (the pipeline's retry policy, the hybrid's fallback) can
// distinguish a transient device fault from a caller bug.
type FaultError struct {
	Kind FaultKind
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("annealer: injected fault: %s", e.Kind)
}

// AsFault unwraps err into a *FaultError if one is in its chain.
func AsFault(err error) (*FaultError, bool) {
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// FaultStats tallies the soft faults injected over a batch of reads.
type FaultStats struct {
	// ReadTimeouts is the number of reads dropped by timeouts.
	ReadTimeouts int
	// ChainBreakStorms is the number of reads corrupted at readout.
	ChainBreakStorms int
	// CalibrationDrifts is the number of reads run on drifted coefficients.
	CalibrationDrifts int
}

// Total is the total number of fault events.
func (s FaultStats) Total() int {
	return s.ReadTimeouts + s.ChainBreakStorms + s.CalibrationDrifts
}
