package qubo

import "fmt"

// This file implements sample-persistence variable fixing (Karimi &
// Rosenberg, "Boosting quantum annealer performance via sample
// persistence", the paper's reference [28], cited in §2 as the
// "prefixing some variables as part of iterative loops" hybridization):
// spins that take the same value across (the elite fraction of) a sample
// batch are deemed decided, clamped, and the solver recurses on the
// shrunken problem.

// PersistentSpins inspects the best eliteFraction of samples (by energy)
// and returns the indices and values of spins whose value agrees across
// at least agreement of them. eliteFraction and agreement are in (0, 1];
// typical values are 0.5 and 1.0 (strict unanimity).
func PersistentSpins(samples []Sample, eliteFraction, agreement float64) (vars []int, values []int8, err error) {
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("qubo: persistence needs samples")
	}
	if eliteFraction <= 0 || eliteFraction > 1 || agreement <= 0 || agreement > 1 {
		return nil, nil, fmt.Errorf("qubo: persistence fractions must lie in (0,1]")
	}
	n := len(samples[0].Spins)
	elite := LowestSamples(samples, max(1, int(eliteFraction*float64(len(samples)))))
	need := int(agreement * float64(len(elite)))
	if need < 1 {
		need = 1
	}
	for i := 0; i < n; i++ {
		up := 0
		for _, s := range elite {
			if s.Spins[i] > 0 {
				up++
			}
		}
		if up >= need {
			vars = append(vars, i)
			values = append(values, 1)
		} else if len(elite)-up >= need {
			vars = append(vars, i)
			values = append(values, -1)
		}
	}
	return vars, values, nil
}

// LowestSamples returns the k lowest-energy samples (all of them when
// k ≥ len(samples)) without mutating the input. It is a partial
// selection sort, so among equal energies the order is the sort's swap
// order, not the input order.
func LowestSamples(samples []Sample, k int) []Sample {
	out := append([]Sample(nil), samples...)
	k = min(k, len(out))
	for i := 0; i < k; i++ {
		lo := i
		for j := i + 1; j < len(out); j++ {
			if out[j].Energy < out[lo].Energy {
				lo = j
			}
		}
		out[i], out[lo] = out[lo], out[i]
	}
	return out[:k]
}
