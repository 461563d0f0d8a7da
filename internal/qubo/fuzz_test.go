package qubo

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// Fuzz targets double as seeded invariant tests under plain `go test` and
// as fuzzing entry points under `go test -fuzz`.

// FuzzQUBOIsingRoundTrip: QUBO → Ising → QUBO preserves every
// configuration's energy, for arbitrary coefficient seeds.
func FuzzQUBOIsingRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(4))
	f.Add(uint64(99), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, sizeByte uint8) {
		n := 1 + int(sizeByte)%12
		r := rng.New(seed)
		q := randomQUBO(r, n, 4)
		back := q.ToIsing().ToQUBO()
		for k := 0; k < 8; k++ {
			bits := randomBits(r, n)
			a, b := q.Energy(bits), back.Energy(bits)
			if math.Abs(a-b) > 1e-7*(1+math.Abs(a)) {
				t.Fatalf("round trip energy %v vs %v", a, b)
			}
		}
	})
}

// FuzzPreprocessPreservesEnergies: variable fixing never changes the
// energy of any completion of the reduced problem.
func FuzzPreprocessPreservesEnergies(f *testing.F) {
	f.Add(uint64(7), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, sizeByte uint8) {
		n := 2 + int(sizeByte)%8
		r := rng.New(seed)
		q := randomQUBO(r, n, 2)
		for i := 0; i < n; i++ {
			if r.Float64() < 0.4 {
				q.AddCoeff(i, i, (2*r.Float64()-1)*4*float64(n))
			}
		}
		res := Preprocess(q)
		m := res.Reduced.n
		for k := 0; k < 6; k++ {
			bits := randomBits(r, m)
			full := res.Expand(bits)
			a, b := res.Reduced.Energy(bits), q.Energy(full)
			if math.Abs(a-b) > 1e-7*(1+math.Abs(b)) {
				t.Fatalf("preprocess energy %v vs %v", a, b)
			}
		}
	})
}

// FuzzSubproblemEnergies: clamped subproblems agree with the full model.
func FuzzSubproblemEnergies(f *testing.F) {
	f.Add(uint64(3), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, sizeByte, pickByte uint8) {
		n := 2 + int(sizeByte)%10
		r := rng.New(seed)
		q := randomQUBO(r, n, 3)
		is := q.ToIsing()
		state := BitsToSpins(randomBits(r, n))
		k := 1 + int(pickByte)%n
		sub, err := NewSubproblem(is, r.Perm(n)[:k], state)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 6; probe++ {
			subSpins := make([]int8, k)
			for i := range subSpins {
				subSpins[i] = r.Spin()
			}
			full := sub.Apply(state, subSpins)
			a, b := sub.Ising.Energy(subSpins), is.Energy(full)
			if math.Abs(a-b) > 1e-7*(1+math.Abs(b)) {
				t.Fatalf("subproblem energy %v vs %v", a, b)
			}
		}
	})
}
