package qubo

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestExhaustiveMatchesBruteForce(t *testing.T) {
	r := rng.New(10)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(10)
		q := randomQUBO(r, n, 4)
		sol, err := Exhaustive(q)
		if err != nil {
			t.Fatal(err)
		}
		// Naive check over all assignments.
		bits := make([]int8, n)
		best := math.Inf(1)
		for mask := 0; mask < 1<<uint(n); mask++ {
			for i := 0; i < n; i++ {
				bits[i] = int8(mask >> uint(i) & 1)
			}
			if e := q.Energy(bits); e < best {
				best = e
			}
		}
		if math.Abs(sol.Energy-best) > 1e-9 {
			t.Fatalf("exhaustive energy %v, brute force %v", sol.Energy, best)
		}
		if math.Abs(q.Energy(sol.Bits)-sol.Energy) > 1e-9 {
			t.Fatal("reported bits do not achieve reported energy")
		}
	}
}

func TestExhaustiveIsingAgreesWithQUBO(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(10)
		q := randomQUBO(r, n, 4)
		sq, err := Exhaustive(q)
		if err != nil {
			t.Fatal(err)
		}
		si, err := ExhaustiveIsing(q.ToIsing())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sq.Energy-si.Energy) > 1e-9 {
			t.Fatalf("QUBO ground %v vs Ising ground %v", sq.Energy, si.Energy)
		}
	}
}

func TestExhaustiveSizeLimit(t *testing.T) {
	if _, err := Exhaustive(New(MaxExhaustiveVars + 1)); err == nil {
		t.Fatal("oversized exhaustive accepted")
	}
	if _, err := ExhaustiveIsing(NewIsing(MaxExhaustiveVars + 1)); err == nil {
		t.Fatal("oversized exhaustive Ising accepted")
	}
}

func TestExhaustiveEmpty(t *testing.T) {
	q := New(0)
	q.Offset = 7
	sol, err := Exhaustive(q)
	if err != nil || sol.Energy != 7 || len(sol.Bits) != 0 {
		t.Fatalf("empty exhaustive: %v %v", sol, err)
	}
}

func TestBruteForceEnergyRange(t *testing.T) {
	q := New(1)
	q.SetCoeff(0, 0, -3)
	q.Offset = 1
	min, max, err := BruteForceEnergyRange(q)
	if err != nil || min != -2 || max != 1 {
		t.Fatalf("range = [%v, %v], err %v", min, max, err)
	}
}

func TestGreedyAchievesReportedEnergy(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(20)
		q := randomQUBO(r, n, 4)
		is := q.ToIsing()
		for _, order := range []GreedyOrder{OrderAscending, OrderDescending} {
			spins := GreedySearchIsing(is, order)
			if len(spins) != n {
				t.Fatalf("greedy returned %d spins for %d variables", len(spins), n)
			}
			if math.Abs(q.Energy(SpinsToBits(spins))-is.Energy(spins)) > 1e-9 {
				t.Fatal("greedy candidate's QUBO and Ising energies disagree")
			}
		}
	}
}

func TestGreedyDeterministic(t *testing.T) {
	r := rng.New(13)
	q := randomQUBO(r, 16, 2)
	a := GreedySearchIsing(q.ToIsing(), OrderDescending)
	b := GreedySearchIsing(q.ToIsing(), OrderDescending)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy not deterministic")
		}
	}
}

// TestGreedyNearOptimal reflects §4.3's observation that GS solutions
// typically score ΔE% ≤ 10%: on random problems GS must land well below
// the midpoint of the energy range, and usually within 25% of optimal
// relative to the full range.
func TestGreedyNearOptimal(t *testing.T) {
	r := rng.New(14)
	good := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		q := randomQUBO(r, 14, 3)
		energy := q.Energy(SpinsToBits(GreedySearchIsing(q.ToIsing(), OrderDescending)))
		min, max, err := BruteForceEnergyRange(q)
		if err != nil {
			t.Fatal(err)
		}
		frac := (energy - min) / (max - min)
		if frac < 0.25 {
			good++
		}
	}
	if good < trials*3/4 {
		t.Fatalf("greedy within 25%% of optimum on only %d/%d trials", good, trials)
	}
}

// TestGreedyOptimalOnFieldOnlyProblem: with no couplings the greedy rule
// is exact — each spin independently aligns against its field.
func TestGreedyOptimalOnFieldOnlyProblem(t *testing.T) {
	r := rng.New(15)
	is := NewIsing(12)
	for i := range is.H {
		is.H[i] = r.NormFloat64()
	}
	spins := GreedySearchIsing(is, OrderDescending)
	for i, s := range spins {
		want := int8(1)
		if is.H[i] > 0 {
			want = -1
		}
		if s != want {
			t.Fatalf("spin %d = %d with field %v", i, s, is.H[i])
		}
	}
}

func TestSteepestDescentReachesLocalMin(t *testing.T) {
	r := rng.New(16)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(15)
		q := randomQUBO(r, n, 3)
		is := q.ToIsing()
		start := BitsToSpins(randomBits(r, n))
		res := SteepestDescent(is, start)
		if math.Abs(is.Energy(res.Spins)-res.Energy) > 1e-9 {
			t.Fatal("descent reported wrong energy")
		}
		for i := 0; i < n; i++ {
			if is.FlipDelta(res.Spins, i) < -1e-9 {
				t.Fatalf("not a local minimum: flip %d improves by %v", i, is.FlipDelta(res.Spins, i))
			}
		}
		// Must not be worse than the start.
		if res.Energy > is.Energy(start)+1e-9 {
			t.Fatal("descent increased energy")
		}
	}
}

func TestSimulatedAnnealingFindsSmallGroundStates(t *testing.T) {
	r := rng.New(17)
	hits := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		q := randomQUBO(r.Split(uint64(trial)), 12, 2)
		is := q.ToIsing()
		ground, err := ExhaustiveIsing(is)
		if err != nil {
			t.Fatal(err)
		}
		got := SimulatedAnnealing(is, r.Split(uint64(100+trial)), SAOptions{Sweeps: 2000})
		if math.Abs(got.Energy-ground.Energy) < 1e-9 {
			hits++
		}
	}
	if hits < trials-2 {
		t.Fatalf("SA found ground state on only %d/%d small instances", hits, trials)
	}
}

func TestTabuFindsSmallGroundStates(t *testing.T) {
	r := rng.New(18)
	hits := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		q := randomQUBO(r.Split(uint64(trial)), 12, 2)
		is := q.ToIsing()
		ground, err := ExhaustiveIsing(is)
		if err != nil {
			t.Fatal(err)
		}
		got := TabuSearch(is, r.Split(uint64(100+trial)), TabuOptions{Iterations: 3000})
		if math.Abs(got.Energy-ground.Energy) < 1e-9 {
			hits++
		}
	}
	if hits < trials-2 {
		t.Fatalf("tabu found ground state on only %d/%d small instances", hits, trials)
	}
}

func TestSAFromStartNotWorseWhenCold(t *testing.T) {
	// At very high beta (cold), SA from a local minimum must stay at or
	// below the starting energy.
	r := rng.New(19)
	q := randomQUBO(r, 10, 2)
	is := q.ToIsing()
	start := SteepestDescent(is, BitsToSpins(randomBits(r, 10)))
	res := SimulatedAnnealingFrom(is, r, start.Spins, SAOptions{Sweeps: 100, BetaStart: 50, BetaEnd: 100})
	if res.Energy > start.Energy+1e-9 {
		t.Fatalf("cold SA got worse: %v -> %v", start.Energy, res.Energy)
	}
}

func TestRandomSampleEnergyConsistent(t *testing.T) {
	r := rng.New(20)
	q := randomQUBO(r, 8, 2)
	is := q.ToIsing()
	s := RandomSample(is, r)
	if math.Abs(is.Energy(s.Spins)-s.Energy) > 1e-9 {
		t.Fatal("random sample energy inconsistent")
	}
}

func TestMultiStartGroundEstimate(t *testing.T) {
	r := rng.New(21)
	q := randomQUBO(r, 14, 2)
	is := q.ToIsing()
	ground, err := ExhaustiveIsing(is)
	if err != nil {
		t.Fatal(err)
	}
	est := MultiStartGroundEstimate(is, r, 4)
	if est.Energy < ground.Energy-1e-9 {
		t.Fatal("estimate below true ground energy — energy bookkeeping broken")
	}
	if math.Abs(est.Energy-ground.Energy) > 1e-9 {
		t.Fatalf("multi-start missed ground state: %v vs %v", est.Energy, ground.Energy)
	}
}

func BenchmarkGreedy64(b *testing.B) {
	r := rng.New(1)
	is := randomQUBO(r, 64, 2).ToIsing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = GreedySearchIsing(is, OrderDescending)
	}
}

func BenchmarkSA36(b *testing.B) {
	r := rng.New(1)
	q := randomQUBO(r, 36, 2)
	is := q.ToIsing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SimulatedAnnealing(is, r, SAOptions{Sweeps: 100})
	}
}

func TestParallelTemperingFindsGroundStates(t *testing.T) {
	r := rng.New(81)
	hits := 0
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		q := randomQUBO(r.Split(uint64(trial)), 14, 2)
		is := q.ToIsing()
		ground, err := ExhaustiveIsing(is)
		if err != nil {
			t.Fatal(err)
		}
		got := ParallelTempering(is, r.Split(uint64(100+trial)), PTOptions{Sweeps: 300})
		if math.Abs(got.Energy-ground.Energy) < 1e-9 {
			hits++
		}
		// Reported energy consistent with reported spins.
		if math.Abs(is.Energy(got.Spins)-got.Energy) > 1e-9 {
			t.Fatal("PT energy inconsistent")
		}
	}
	if hits < trials-1 {
		t.Fatalf("PT found ground on only %d/%d instances", hits, trials)
	}
}

func TestParallelTemperingDeterministic(t *testing.T) {
	r1 := rng.New(83)
	q := randomQUBO(r1, 10, 2)
	is := q.ToIsing()
	a := ParallelTempering(is, rng.New(85), PTOptions{Sweeps: 100})
	b := ParallelTempering(is, rng.New(85), PTOptions{Sweeps: 100})
	if a.Energy != b.Energy {
		t.Fatal("PT not deterministic for equal seeds")
	}
}

func TestPTOptionsDefaults(t *testing.T) {
	o := PTOptions{}.WithDefaults()
	if o.Replicas < 2 || o.Sweeps <= 0 || o.BetaMax <= o.BetaMin || o.SwapInterval <= 0 {
		t.Fatalf("bad defaults: %+v", o)
	}
	// BetaMax below BetaMin gets repaired.
	o = PTOptions{BetaMin: 5, BetaMax: 1}.WithDefaults()
	if o.BetaMax <= o.BetaMin {
		t.Fatal("inverted ladder not repaired")
	}
	// The ladder resolves defaults itself, runs geometrically from
	// BetaMin to BetaMax, and appends to dst.
	betas := PTOptions{Replicas: 5, BetaMin: 0.5, BetaMax: 8}.AppendBetas([]float64{-1})
	want := []float64{-1, 0.5, 1, 2, 4, 8}
	if len(betas) != len(want) {
		t.Fatalf("ladder %v, want %v", betas, want)
	}
	for i, b := range betas {
		if math.Abs(b-want[i]) > 1e-12 {
			t.Fatalf("ladder %v, want %v", betas, want)
		}
	}
	if got := len(PTOptions{}.AppendBetas(nil)); got != 8 {
		t.Fatalf("default ladder has %d rungs, want 8", got)
	}
}
