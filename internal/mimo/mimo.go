// Package mimo implements Large MIMO detection: the maximum-likelihood
// problem, the classical detector zoo the paper positions around its
// hybrid design (zero-forcing, MMSE, sphere decoding, K-best, FCSD), and
// the ML-to-Ising/QUBO reduction (the QuAMax mapping, paper reference
// [29]) that makes the problem solvable on a quantum annealer.
//
// The detection problem: nt users each transmit one constellation symbol
// x_i; the base station's nr antennas receive y = H·x + n and must
// recover x. Optimal (ML) detection minimizes ‖y − H·x‖² over the
// constellation lattice — exponential in nt for exact search, which is
// exactly the computational bottleneck that motivates quantum offload.
package mimo

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/modulation"
	"repro/internal/rng"
)

// Problem is one MIMO detection instance: recover the nt transmitted
// symbols from Y = H·x + n.
type Problem struct {
	H      *linalg.CMatrix // nr × nt channel, known at the receiver
	Y      []complex128    // nr received samples
	Scheme modulation.Scheme
}

// Nt returns the number of transmitters (users).
func (p *Problem) Nt() int { return p.H.Cols }

// Objective evaluates the ML cost ‖y − H·x‖² for a candidate symbol
// vector.
func (p *Problem) Objective(x []complex128) float64 {
	return linalg.CVecNormSq(linalg.CVecSub(p.Y, p.H.MulVec(x)))
}

// Validate checks structural consistency.
func (p *Problem) Validate() error {
	if p.H == nil {
		return fmt.Errorf("mimo: nil channel")
	}
	if len(p.Y) != p.H.Rows {
		return fmt.Errorf("mimo: y has %d entries for %d receive antennas", len(p.Y), p.H.Rows)
	}
	if p.H.Cols == 0 {
		return fmt.Errorf("mimo: no transmitters")
	}
	return nil
}

// Detector recovers transmitted symbols from a Problem.
type Detector interface {
	// Detect returns one normalized constellation point per user.
	Detect(p *Problem) ([]complex128, error)
	// Name identifies the detector in experiment output.
	Name() string
}

// SymbolErrors counts positions where est differs from truth (exact
// complex equality — both sides are sliced constellation points).
func SymbolErrors(est, truth []complex128) int {
	if len(est) != len(truth) {
		panic("mimo: SymbolErrors length mismatch")
	}
	errs := 0
	for i := range est {
		if est[i] != truth[i] {
			errs++
		}
	}
	return errs
}

// BitErrors counts bit differences between the Gray demappings of est and
// truth under the scheme.
func BitErrors(s modulation.Scheme, est, truth []complex128) int {
	if len(est) != len(truth) {
		panic("mimo: BitErrors length mismatch")
	}
	errs := 0
	var abuf, bbuf [8]int8 // a symbol's bits: 6 at most, for 64-QAM
	for i := range est {
		a := s.AppendDemodulate(abuf[:0], est[i])
		b := s.AppendDemodulate(bbuf[:0], truth[i])
		for k := range a {
			if a[k] != b[k] {
				errs++
			}
		}
	}
	return errs
}

// RandomSymbols draws nt uniform constellation points with their Gray bit
// labels, for workload synthesis.
func RandomSymbols(r *rng.Source, s modulation.Scheme, nt int) (symbols []complex128, bits []int8) {
	alpha := s.Alphabet()
	symbols = make([]complex128, nt)
	bits = make([]int8, 0, nt*s.BitsPerSymbol())
	for i := range symbols {
		symbols[i] = alpha[r.Intn(len(alpha))]
		bits = s.AppendDemodulate(bits, symbols[i])
	}
	return symbols, bits
}
