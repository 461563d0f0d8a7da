package annealer

import (
	"math"
	"testing"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// ferroChain builds an N-spin ferromagnetic chain with a field pinning the
// ground state to all-up: an easy problem every engine should solve.
func ferroChain(n int) *qubo.Ising {
	is := qubo.NewIsing(n)
	for i := 0; i < n; i++ {
		is.H[i] = -0.2
		if i+1 < n {
			is.SetCoupling(i, i+1, -1)
		}
	}
	return is
}

// frustrated builds a small problem with a planted deep ground state and
// competing local minima, from a fixed random draw.
func frustrated(n int, seed uint64) *qubo.Ising {
	r := rng.New(seed)
	is := qubo.NewIsing(n)
	for i := 0; i < n; i++ {
		is.H[i] = r.NormFloat64() * 0.3
		for j := i + 1; j < n; j++ {
			is.SetCoupling(i, j, r.NormFloat64()*0.5)
		}
	}
	return is
}

func groundOf(t *testing.T, is *qubo.Ising) qubo.Sample {
	t.Helper()
	g, err := qubo.ExhaustiveIsing(is)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestProfileShape(t *testing.T) {
	for _, p := range []Profile{DWave2000QProfile(), LinearProfile()} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if p.A(0) != p.AMax || p.A(1) != 0 {
			t.Fatalf("%s: A endpoints wrong", p.Name)
		}
		if p.B(0) != 0 || p.B(1) != p.BMax {
			t.Fatalf("%s: B endpoints wrong", p.Name)
		}
		// A decreasing, B increasing.
		prev := p.A(0)
		for s := 0.1; s <= 1.0; s += 0.1 {
			if a := p.A(s); a > prev+1e-12 {
				t.Fatalf("%s: A not decreasing at %v", p.Name, s)
			} else {
				prev = a
			}
		}
		if p.B(0.3) >= p.B(0.7) {
			t.Fatalf("%s: B not increasing", p.Name)
		}
		// A must dominate B at small s and vice versa at large s.
		if p.A(0.05) <= p.B(0.05) {
			t.Fatalf("%s: transverse field does not dominate early", p.Name)
		}
		if p.A(0.95) >= p.B(0.95) {
			t.Fatalf("%s: problem term does not dominate late", p.Name)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	bad := Profile{AMax: 0, BMax: 1, ACurve: 1, TemperatureGHz: 0.1}
	if bad.Validate() == nil {
		t.Fatal("AMax=0 accepted")
	}
}

func TestICEZeroIsIdentity(t *testing.T) {
	is := ferroChain(4)
	out := ICE{}.Perturb(is, rng.New(1))
	if out != is {
		t.Fatal("zero ICE should return the problem unchanged")
	}
}

func TestICEPerturbsCoefficients(t *testing.T) {
	is := ferroChain(6)
	ice := ICE{SigmaH: 0.05, SigmaJ: 0.05}
	out := ice.Perturb(is, rng.New(2))
	if out == is {
		t.Fatal("ICE returned the same object")
	}
	changedH, changedJ := false, false
	for i := range is.H {
		if out.H[i] != is.H[i] {
			changedH = true
		}
		if math.Abs(out.H[i]-is.H[i]) > 0.5 {
			t.Fatal("ICE perturbation implausibly large")
		}
	}
	for _, e := range is.Edges() {
		if out.Coupling(e.I, e.J) != e.V {
			changedJ = true
		}
	}
	if !changedH || !changedJ {
		t.Fatal("ICE did not perturb both h and J")
	}
	// Zero terms stay zero (no phantom fields).
	isz := qubo.NewIsing(3)
	isz.SetCoupling(0, 1, 1)
	outz := ICE{SigmaH: 0.1}.Perturb(isz, rng.New(3))
	for i, h := range outz.H {
		if h != 0 {
			t.Fatalf("phantom field on spin %d", i)
		}
	}
}

func TestRunValidation(t *testing.T) {
	is := ferroChain(4)
	r := rng.New(1)
	if _, err := Run(is, Params{}, r); err == nil {
		t.Fatal("nil schedule accepted")
	}
	ra, _ := Reverse(0.5, 1)
	if _, err := Run(is, Params{Schedule: ra}, r); err == nil {
		t.Fatal("RA without initial state accepted")
	}
	fa, _ := Forward(1, 0.5, 1)
	if _, err := Run(qubo.NewIsing(0), Params{Schedule: fa}, r); err == nil {
		t.Fatal("empty problem accepted")
	}
	if _, err := Run(is, Params{Schedule: fa, SweepsPerMicrosecond: -1}, r); err == nil {
		t.Fatal("negative sweep rate accepted")
	}
}

func TestRunDeterministicAndConsistent(t *testing.T) {
	is := frustrated(8, 7)
	fa, _ := Forward(1, 0.41, 1)
	p := Params{Schedule: fa, NumReads: 20, SweepsPerMicrosecond: 50}
	a, err := Run(is, p, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(is, p, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != 20 || len(b.Samples) != 20 {
		t.Fatal("read count wrong")
	}
	for i := range a.Samples {
		if a.Samples[i].Energy != b.Samples[i].Energy {
			t.Fatal("same-seed runs diverged")
		}
		// Reported energies are consistent with reported spins.
		if math.Abs(is.Energy(a.Samples[i].Spins)-a.Samples[i].Energy) > 1e-9 {
			t.Fatal("sample energy inconsistent")
		}
		if a.Samples[i].Energy < a.Best.Energy {
			t.Fatal("Best is not the minimum sample")
		}
	}
	if a.TotalAnnealTime != 20*fa.Duration() {
		t.Fatalf("total anneal time %v", a.TotalAnnealTime)
	}
}

// TestForwardAnnealSolvesEasyProblem: both engines must find the ground
// state of a ferromagnetic chain with high probability.
func TestForwardAnnealSolvesEasyProblem(t *testing.T) {
	is := ferroChain(8)
	g := groundOf(t, is)
	fa, _ := Forward(1, 0.41, 1)
	for _, eng := range []Engine{SVMC{}, PIMC{Slices: 8}} {
		res, err := Run(is, Params{Schedule: fa, NumReads: 30, Engine: eng, SweepsPerMicrosecond: 100}, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for _, s := range res.Samples {
			if math.Abs(s.Energy-g.Energy) < 1e-9 {
				hits++
			}
		}
		if hits < 15 {
			t.Fatalf("%s: FA found ground state on %d/30 reads of an easy problem", eng.Name(), hits)
		}
	}
}

// TestReverseAnnealHighSpFreezesInitialState: with sp near 1, quantum
// fluctuations are too weak to perturb the programmed state (§4.3's
// discussion of sp): starting AT the ground state must stay there.
func TestReverseAnnealHighSpFreezesInitialState(t *testing.T) {
	is := frustrated(10, 13)
	g := groundOf(t, is)
	ra, _ := Reverse(0.97, 1)
	for _, eng := range []Engine{SVMC{}, PIMC{Slices: 8}} {
		res, err := Run(is, Params{Schedule: ra, InitialState: g.Spins, NumReads: 20, Engine: eng, SweepsPerMicrosecond: 100}, rng.New(17))
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for _, s := range res.Samples {
			if math.Abs(s.Energy-g.Energy) < 1e-9 {
				hits++
			}
		}
		if hits < 18 {
			t.Fatalf("%s: frozen RA kept the ground state on only %d/20 reads", eng.Name(), hits)
		}
	}
}

// TestReverseAnnealLowSpWipesInitialState: with sp near 0 the reversal
// erases the programmed state — final samples should not preferentially
// remember a programmed excited state.
func TestReverseAnnealLowSpWipesInitialState(t *testing.T) {
	is := frustrated(10, 19)
	g := groundOf(t, is)
	// Program the COMPLEMENT of the ground state: an (almost surely) bad
	// state that only survives if information is retained.
	bad := make([]int8, is.N)
	for i, s := range g.Spins {
		bad[i] = -s
	}
	badEnergy := is.Energy(bad)
	raLow, _ := Reverse(0.05, 1)
	res, err := Run(is, Params{Schedule: raLow, InitialState: bad, NumReads: 30, SweepsPerMicrosecond: 100}, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	stayedBad := 0
	for _, s := range res.Samples {
		if math.Abs(s.Energy-badEnergy) < 1e-9 && spinsEqual(s.Spins, bad) {
			stayedBad++
		}
	}
	if stayedBad > 10 {
		t.Fatalf("deep reversal retained the programmed state on %d/30 reads", stayedBad)
	}
}

func spinsEqual(a, b []int8) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReverseFromGoodBeatsReverseFromRandom is Figure 6's core claim in
// miniature: RA initialized at a near-optimal state yields lower-energy
// samples than RA initialized at random states.
func TestReverseFromGoodBeatsReverseFromRandom(t *testing.T) {
	is := frustrated(12, 29)
	g := groundOf(t, is)
	ra, _ := Reverse(0.55, 1)
	r := rng.New(31)

	good, err := Run(is, Params{Schedule: ra, InitialState: g.Spins, NumReads: 40, SweepsPerMicrosecond: 100}, r.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	randInit := qubo.RandomSample(is, r.Split(2))
	randRes, err := Run(is, Params{Schedule: ra, InitialState: randInit.Spins, NumReads: 40, SweepsPerMicrosecond: 100}, r.Split(3))
	if err != nil {
		t.Fatal(err)
	}
	if meanEnergy(good.Samples) >= meanEnergy(randRes.Samples) {
		t.Fatalf("RA(ground init) mean %v not better than RA(random init) mean %v",
			meanEnergy(good.Samples), meanEnergy(randRes.Samples))
	}
}

func meanEnergy(samples []qubo.Sample) float64 {
	var sum float64
	for _, s := range samples {
		sum += s.Energy
	}
	return sum / float64(len(samples))
}

// TestICEDegradesSuccess: control-error noise should not improve an FA
// run's ability to hit the true ground state on a frustrated problem.
func TestICEDegradesSuccess(t *testing.T) {
	is := frustrated(10, 37)
	g := groundOf(t, is)
	fa, _ := Forward(1, 0.41, 1)
	clean, err := Run(is, Params{Schedule: fa, NumReads: 60, SweepsPerMicrosecond: 60}, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Run(is, Params{Schedule: fa, NumReads: 60, SweepsPerMicrosecond: 60, ICE: ICE{SigmaH: 0.25, SigmaJ: 0.25}}, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	ch, nh := 0, 0
	for i := range clean.Samples {
		if math.Abs(clean.Samples[i].Energy-g.Energy) < 1e-9 {
			ch++
		}
		if math.Abs(noisy.Samples[i].Energy-g.Energy) < 1e-9 {
			nh++
		}
	}
	if nh > ch+8 {
		t.Fatalf("heavy ICE noise improved success (%d vs %d) — noise wiring suspect", nh, ch)
	}
}

func TestQPUEmbeddedRun(t *testing.T) {
	is := frustrated(8, 43)
	g := groundOf(t, is)
	qpu := chainQPU()
	fa, _ := Forward(1, 0.41, 1)
	res, err := qpu.Run(is, Params{Schedule: fa, NumReads: 20, SweepsPerMicrosecond: 60}, rng.New(47))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 20 {
		t.Fatal("read count wrong")
	}
	if res.BrokenChainRate < 0 || res.BrokenChainRate > 1 {
		t.Fatalf("broken chain rate %v", res.BrokenChainRate)
	}
	// The embedded sampler should land at or near the logical optimum at
	// least sometimes on an 8-spin problem.
	if res.Best.Energy > g.Energy+2.0 {
		t.Fatalf("embedded best %v far above ground %v", res.Best.Energy, g.Energy)
	}
	// Reverse mode through the QPU exercises chain-state initialization.
	ra, _ := Reverse(0.6, 1)
	res2, err := qpu.Run(is, Params{Schedule: ra, InitialState: g.Spins, NumReads: 10, SweepsPerMicrosecond: 60}, rng.New(49))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.Best.Energy-g.Energy) > 1e-9 {
		t.Fatalf("embedded RA from ground state lost it: best %v vs %v", res2.Best.Energy, g.Energy)
	}
}

func TestQPUCapacityAndServiceTime(t *testing.T) {
	qpu := NewQPU2000Q()
	if qpu.MaxProblemSize() != 64 {
		t.Fatalf("capacity %d", qpu.MaxProblemSize())
	}
	fa, _ := Forward(1, 0.41, 1)
	if _, err := qpu.Run(qubo.NewIsing(65), Params{Schedule: fa}, rng.New(1)); err == nil {
		t.Fatal("overcapacity problem accepted")
	}
	if _, err := chainQPU().Run(qubo.NewIsing(65), Params{Schedule: fa}, rng.New(1)); err == nil {
		t.Fatal("overcapacity problem accepted with chains")
	}
	st := qpu.ServiceTime(fa, 100)
	want := 10_000 + 100*(fa.Duration()+123)
	if math.Abs(st-want) > 1e-9 {
		t.Fatalf("service time %v, want %v", st, want)
	}
}

func TestEngineNames(t *testing.T) {
	if (SVMC{}).Name() != "svmc" || (PIMC{}).Name() != "pimc" {
		t.Fatal("engine names wrong")
	}
}

func TestPIMCTemporalCoupling(t *testing.T) {
	e := PIMC{}
	beta := 4.0
	// Strong transverse field: weak replica coupling.
	weak := e.temporalCoupling(beta, 6.0, 16)
	// Vanishing transverse field: clamped maximum coupling.
	strong := e.temporalCoupling(beta, 1e-30, 16)
	if weak >= strong {
		t.Fatalf("K(A=6)=%v not below K(A≈0)=%v", weak, strong)
	}
	if strong != maxTemporalCoupling {
		t.Fatalf("K not clamped: %v", strong)
	}
	if e.temporalCoupling(beta, 0, 16) != maxTemporalCoupling {
		t.Fatal("A=0 not clamped")
	}
}

func BenchmarkSVMCAnneal32(b *testing.B) {
	benchmarkEngineAnneal32(b, SVMC{})
}

func BenchmarkPIMCAnneal32(b *testing.B) {
	benchmarkEngineAnneal32(b, PIMC{Slices: 16})
}

// benchmarkEngineAnneal32 times one lockstep group of forward reads on
// a 32-spin frustrated problem through eng's production kernel.
func benchmarkEngineAnneal32(b *testing.B, eng Engine) {
	fa, _ := Forward(1, 0.41, 1)
	benchGroup(b, eng, fa, 100, oneProblem(qubo.NewCSR(frustrated(32, 1)), nil), groupWidth(eng))
}

// TestParallelismDeterministic: reads are bit-identical regardless of the
// worker count, because each read derives its RNG stream from its index.
func TestParallelismDeterministic(t *testing.T) {
	is := frustrated(10, 91)
	fa, _ := Forward(1, 0.41, 1)
	base, err := Run(is, Params{Schedule: fa, NumReads: 24, SweepsPerMicrosecond: 50}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 16, 100} {
		got, err := Run(is, Params{Schedule: fa, NumReads: 24, SweepsPerMicrosecond: 50, Parallelism: par}, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Samples {
			if base.Samples[i].Energy != got.Samples[i].Energy ||
				!spinsEqual(base.Samples[i].Spins, got.Samples[i].Spins) {
				t.Fatalf("parallelism %d diverged at read %d", par, i)
			}
		}
		if got.Best.Energy != base.Best.Energy {
			t.Fatalf("parallelism %d changed Best", par)
		}
	}
}

// TestQuenchProducesLocalMinima: with the default quench every sample is
// a 1-flip local minimum of its programmed problem; NoQuench may return
// non-minimal states.
func TestQuenchProducesLocalMinima(t *testing.T) {
	is := frustrated(12, 97)
	fa, _ := Forward(1, 0.41, 1)
	res, err := Run(is, Params{Schedule: fa, NumReads: 30, SweepsPerMicrosecond: 50}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		for i := 0; i < is.N; i++ {
			if is.FlipDelta(s.Spins, i) < -1e-9 {
				t.Fatal("quenched sample is not a local minimum")
			}
		}
	}
	// NoQuench: at least one sample should NOT be a local minimum (hot
	// readout) — probabilistic but overwhelmingly likely at this size.
	raw, err := Run(is, Params{Schedule: fa, NumReads: 30, SweepsPerMicrosecond: 50, NoQuench: true}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	nonMinimal := 0
	for _, s := range raw.Samples {
		for i := 0; i < is.N; i++ {
			if is.FlipDelta(s.Spins, i) < -1e-9 {
				nonMinimal++
				break
			}
		}
	}
	if nonMinimal == 0 {
		t.Log("warning: every raw read was already locally minimal (possible but unusual)")
	}
	// Quench never hurts the mean energy.
	if meanEnergy(res.Samples) > meanEnergy(raw.Samples)+1e-9 {
		t.Fatal("quench increased mean sample energy")
	}
}

func TestCalibratedProfileShape(t *testing.T) {
	p := CalibratedProfile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	base := DWave2000QProfile()
	if p.TemperatureGHz >= base.TemperatureGHz {
		t.Fatal("calibrated profile should run cooler than the physical one")
	}
	if p.AMax != base.AMax || p.BMax != base.BMax || p.ACurve != base.ACurve {
		t.Fatal("calibration must only touch the temperature")
	}
	if DWave2000QICE().SigmaH <= 0 || DWave2000QICE().SigmaJ <= 0 {
		t.Fatal("device ICE magnitudes missing")
	}
}

// TestSVMCTFRetainsHarder: the TF-moves engine retains a reverse-anneal
// initial state at least as well as the uniform-move default.
func TestSVMCTFRetainsHarder(t *testing.T) {
	is := frustrated(12, 101)
	g := groundOf(t, is)
	ra, _ := Reverse(0.85, 1)
	prof := CalibratedProfile()
	count := func(eng Engine) int {
		res, err := Run(is, Params{Schedule: ra, InitialState: g.Spins, NumReads: 30,
			Engine: eng, Profile: &prof, SweepsPerMicrosecond: 30}, rng.New(103))
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for _, s := range res.Samples {
			if math.Abs(s.Energy-g.Energy) < 1e-9 {
				hits++
			}
		}
		return hits
	}
	uniform := count(SVMC{})
	tf := count(SVMC{TFMoves: true})
	if tf < uniform {
		t.Fatalf("TF retention %d below uniform %d", tf, uniform)
	}
	if (SVMC{TFMoves: true}).Name() != "svmc-tf" {
		t.Fatal("TF engine name wrong")
	}
}

// TestEngineClampDefaults pins the engines' fixed numerical guards: PIMC
// clamps the replica coupling K(s) at 5 as A(s) → 0, and SVMC-TF floors
// its proposal width at 0.02 of π once the driver has died away.
func TestEngineClampDefaults(t *testing.T) {
	if k := (PIMC{}).temporalCoupling(4, 0, 16); k != 5 {
		t.Fatalf("PIMC coupling clamp %v, want 5", k)
	}
	sc, err := Forward(1, 0.41, 1)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := (SVMC{TFMoves: true}).compile(sc, DWave2000QProfile(), 100)
	if err != nil {
		t.Fatal(err)
	}
	lo := math.Inf(1)
	for _, s := range prog.scale {
		lo = math.Min(lo, s)
	}
	if lo != 0.02 {
		t.Fatalf("SVMC-TF minimum move scale %v, want the 0.02 floor", lo)
	}
}
