package mimo

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/channel"
	"repro/internal/linalg"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// synth builds a noiseless square detection problem with known transmitted
// symbols, per §4.2's workload definition.
func synth(r *rng.Source, s modulation.Scheme, nt int, n0 float64) (*Problem, []complex128) {
	h := channel.Draw(channel.UnitGainRandomPhase, r, nt, nt)
	x, _ := RandomSymbols(r, s, nt)
	y := channel.Transmit(r, h, x, n0)
	return &Problem{H: h, Y: y, Scheme: s}, x
}

func symbolsEqual(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(real(a[i])-real(b[i])) > tol || math.Abs(imag(a[i])-imag(b[i])) > tol {
			return false
		}
	}
	return true
}

func TestProblemValidate(t *testing.T) {
	r := rng.New(1)
	p, _ := synth(r, modulation.QPSK, 3, 0)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Problem{H: p.H, Y: p.Y[:2], Scheme: p.Scheme}
	if err := bad.Validate(); err == nil {
		t.Fatal("short y accepted")
	}
	if err := (&Problem{}).Validate(); err == nil {
		t.Fatal("nil channel accepted")
	}
}

func TestObjectiveZeroAtTruthNoiseless(t *testing.T) {
	r := rng.New(2)
	for _, s := range modulation.Schemes {
		p, x := synth(r, s, 4, 0)
		if obj := p.Objective(x); obj > 1e-18 {
			t.Fatalf("%v: noiseless objective at truth = %v", s, obj)
		}
	}
}

// TestReductionEnergyMatchesObjective is the central reduction invariant:
// for EVERY candidate symbol vector, the Ising energy of its spin encoding
// equals the ML objective ‖y − Hx‖² exactly.
func TestReductionEnergyMatchesObjective(t *testing.T) {
	r := rng.New(3)
	for _, s := range modulation.Schemes {
		for trial := 0; trial < 10; trial++ {
			p, _ := synth(r, s, 2+r.Intn(3), 0)
			red, err := Reduce(p)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 25; k++ {
				cand, _ := RandomSymbols(r, s, p.Nt())
				spins, err := red.EncodeSymbols(cand)
				if err != nil {
					t.Fatal(err)
				}
				got := red.Ising.Energy(spins)
				want := p.Objective(cand)
				if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
					t.Fatalf("%v: Ising energy %v != objective %v", s, got, want)
				}
			}
		}
	}
}

// TestReductionGroundStateIsTransmitted: with no noise, the Ising ground
// state decodes to the transmitted symbols and has (near-)zero energy.
func TestReductionGroundStateIsTransmitted(t *testing.T) {
	r := rng.New(4)
	cases := []struct {
		s  modulation.Scheme
		nt int
	}{
		{modulation.BPSK, 8},  // 8 spins
		{modulation.QPSK, 6},  // 12 spins
		{modulation.QAM16, 4}, // 16 spins
		{modulation.QAM64, 3}, // 18 spins
	}
	for _, c := range cases {
		p, x := synth(r, c.s, c.nt, 0)
		red, err := Reduce(p)
		if err != nil {
			t.Fatal(err)
		}
		ground, err := qubo.ExhaustiveIsing(red.Ising)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ground.Energy) > 1e-6 {
			t.Fatalf("%v: ground energy %v, want ≈0", c.s, ground.Energy)
		}
		decoded := red.DecodeSpins(ground.Spins)
		if !symbolsEqual(decoded, x, 1e-9) {
			t.Fatalf("%v: ground state decodes to %v, transmitted %v", c.s, decoded, x)
		}
	}
}

func TestReductionSpinCount(t *testing.T) {
	r := rng.New(5)
	cases := []struct {
		s    modulation.Scheme
		nt   int
		want int
	}{
		{modulation.BPSK, 12, 12},
		{modulation.QPSK, 9, 18},
		{modulation.QAM16, 9, 36}, // the paper's 36-variable setting
		{modulation.QAM64, 6, 36},
		{modulation.QAM16, 8, 32}, // the paper's 8-user 16-QAM instance
	}
	for _, c := range cases {
		p, _ := synth(r, c.s, c.nt, 0)
		red, err := Reduce(p)
		if err != nil {
			t.Fatal(err)
		}
		if red.NumSpins() != c.want {
			t.Fatalf("%v nt=%d: %d spins, want %d", c.s, c.nt, red.NumSpins(), c.want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rng.New(6)
	for _, s := range modulation.Schemes {
		p, _ := synth(r, s, 4, 0)
		red, err := Reduce(p)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 50; k++ {
			cand, _ := RandomSymbols(r, s, 4)
			spins, err := red.EncodeSymbols(cand)
			if err != nil {
				t.Fatal(err)
			}
			back := red.DecodeSpins(spins)
			if !symbolsEqual(back, cand, 1e-12) {
				t.Fatalf("%v: decode(encode(x)) != x", s)
			}
		}
	}
}

func TestEncodeSymbolsWrongCount(t *testing.T) {
	r := rng.New(7)
	p, _ := synth(r, modulation.QPSK, 3, 0)
	red, _ := Reduce(p)
	if _, err := red.EncodeSymbols(make([]complex128, 2)); err == nil {
		t.Fatal("wrong symbol count accepted")
	}
}

func TestMLRecoversNoiselessTruth(t *testing.T) {
	r := rng.New(8)
	for _, s := range modulation.Schemes {
		p, x := synth(r, s, 3, 0)
		got, err := ML{}.Detect(p)
		if err != nil {
			t.Fatal(err)
		}
		if !symbolsEqual(got, x, 1e-9) {
			t.Fatalf("%v: ML missed noiseless truth", s)
		}
	}
}

func TestMLSizeLimit(t *testing.T) {
	r := rng.New(9)
	p, _ := synth(r, modulation.QAM64, 5, 0)
	// 64^5 = 2^30 > limit.
	if _, err := (ML{}).Detect(p); err == nil {
		t.Fatal("oversized ML accepted")
	}
}

func TestSphereDecoderMatchesML(t *testing.T) {
	r := rng.New(10)
	for _, s := range modulation.Schemes {
		for trial := 0; trial < 10; trial++ {
			// Noisy so the optimum is nontrivial.
			p, _ := synth(r, s, 3, 0.5)
			ml, err := ML{}.Detect(p)
			if err != nil {
				t.Fatal(err)
			}
			sd, err := SphereDecoder{}.Detect(p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(p.Objective(sd)-p.Objective(ml)) > 1e-8 {
				t.Fatalf("%v: SD objective %v, ML %v", s, p.Objective(sd), p.Objective(ml))
			}
		}
	}
}

func TestKBestLargeKMatchesML(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		p, _ := synth(r, modulation.QAM16, 3, 0.5)
		ml, err := ML{}.Detect(p)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := KBest{K: 4096}.Detect(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Objective(kb)-p.Objective(ml)) > 1e-8 {
			t.Fatalf("K-best(∞) objective %v, ML %v", p.Objective(kb), p.Objective(ml))
		}
	}
}

func TestKBestSmallKStillDecodesNoiseless(t *testing.T) {
	r := rng.New(12)
	hits := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		p, x := synth(r, modulation.QAM16, 4, 0)
		kb, err := KBest{K: 8}.Detect(p)
		if err != nil {
			t.Fatal(err)
		}
		if symbolsEqual(kb, x, 1e-9) {
			hits++
		}
	}
	if hits < trials/2 {
		t.Fatalf("K-best(8) recovered truth on only %d/%d noiseless instances", hits, trials)
	}
}

func TestKBestRejectsBadK(t *testing.T) {
	r := rng.New(13)
	p, _ := synth(r, modulation.QPSK, 2, 0)
	if _, err := (KBest{K: 0}).Detect(p); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestFCSDFullExpansionMatchesML(t *testing.T) {
	r := rng.New(14)
	for trial := 0; trial < 10; trial++ {
		p, _ := synth(r, modulation.QPSK, 3, 0.5)
		ml, err := ML{}.Detect(p)
		if err != nil {
			t.Fatal(err)
		}
		// rho = 2·nt: every dimension fully expanded — exact search.
		fc, err := FCSD{FullExpansion: 6}.Detect(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Objective(fc)-p.Objective(ml)) > 1e-8 {
			t.Fatalf("FCSD(full) objective %v, ML %v", p.Objective(fc), p.Objective(ml))
		}
	}
}

func TestFCSDPartialNotWorseThanSIC(t *testing.T) {
	r := rng.New(15)
	for trial := 0; trial < 10; trial++ {
		p, _ := synth(r, modulation.QAM16, 4, 1.0)
		sic, err := FCSD{FullExpansion: 0}.Detect(p) // pure SIC
		if err != nil {
			t.Fatal(err)
		}
		fc, err := FCSD{FullExpansion: 3}.Detect(p)
		if err != nil {
			t.Fatal(err)
		}
		if p.Objective(fc) > p.Objective(sic)+1e-9 {
			t.Fatalf("more expansion made FCSD worse: %v vs %v", p.Objective(fc), p.Objective(sic))
		}
	}
}

func TestZFRecoversNoiselessTruth(t *testing.T) {
	r := rng.New(16)
	for _, s := range modulation.Schemes {
		for trial := 0; trial < 10; trial++ {
			p, x := synth(r, s, 4, 0)
			got, err := ZeroForcing{}.Detect(p)
			if err != nil {
				t.Fatal(err)
			}
			// Noiseless ZF inverts the channel exactly.
			if !symbolsEqual(got, x, 1e-6) {
				t.Fatalf("%v: ZF missed noiseless truth", s)
			}
		}
	}
}

func TestMMSEZeroNoiseEqualsZF(t *testing.T) {
	r := rng.New(17)
	p, _ := synth(r, modulation.QAM16, 4, 0.3)
	zf, err := ZeroForcing{}.Detect(p)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := MMSE{NoiseVariance: 0}.Detect(p)
	if err != nil {
		t.Fatal(err)
	}
	if !symbolsEqual(zf, mm, 1e-9) {
		t.Fatal("MMSE(0) != ZF")
	}
}

func TestMMSENegativeNoiseRejected(t *testing.T) {
	r := rng.New(18)
	p, _ := synth(r, modulation.QPSK, 2, 0)
	if _, err := (MMSE{NoiseVariance: -1}).Detect(p); err == nil {
		t.Fatal("negative noise accepted")
	}
}

func TestDetectorNames(t *testing.T) {
	dets := []Detector{ML{}, ZeroForcing{}, MMSE{}, SphereDecoder{}, KBest{K: 1}, FCSD{}}
	want := []string{"ml", "zf", "mmse", "sd", "kbest", "fcsd"}
	for i, d := range dets {
		if d.Name() != want[i] {
			t.Fatalf("detector %d name %q, want %q", i, d.Name(), want[i])
		}
	}
}

func TestSymbolAndBitErrors(t *testing.T) {
	s := modulation.QAM16
	alpha := s.Alphabet()
	truth := []complex128{alpha[0], alpha[5], alpha[9]}
	est := []complex128{alpha[0], alpha[5], alpha[9]}
	if SymbolErrors(est, truth) != 0 || BitErrors(s, est, truth) != 0 {
		t.Fatal("errors on identical vectors")
	}
	est[1] = alpha[6]
	if SymbolErrors(est, truth) != 1 {
		t.Fatal("symbol error miscount")
	}
	if be := BitErrors(s, est, truth); be < 1 {
		t.Fatalf("bit errors = %d", be)
	}
}

// TestGrayBitErrorsAdjacent: adjacent symbols differ by exactly 1 bit —
// the reason Gray labeling is used for BER accounting.
func TestGrayBitErrorsAdjacent(t *testing.T) {
	s := modulation.QAM16
	norm := s.Norm()
	a := []complex128{complex(-3*norm, 1*norm)}
	b := []complex128{complex(-1*norm, 1*norm)} // I-adjacent
	if be := BitErrors(s, a, b); be != 1 {
		t.Fatalf("adjacent symbols differ in %d bits, want 1", be)
	}
}

func TestRankDeficientChannelRejected(t *testing.T) {
	h := linalg.NewCMatrix(2, 2) // all-zero channel
	p := &Problem{H: h, Y: []complex128{0, 0}, Scheme: modulation.QPSK}
	if _, err := (SphereDecoder{}).Detect(p); err == nil {
		t.Fatal("singular channel accepted by SD")
	}
	if _, err := (ZeroForcing{}).Detect(p); err == nil {
		t.Fatal("singular channel accepted by ZF")
	}
}

// TestReduceMatchesAddCoupling pins Reduce's append-built adjacency to
// the model AddCoupling builds from the same quadratic form, pair by
// pair in (i, j) order: the same neighbours in the same order with the
// same bits, and the same fields and offset. A real channel decouples
// every user's I and Q dimensions exactly, so its forms also cover the
// pairs the nonzero count skips.
func TestReduceMatchesAddCoupling(t *testing.T) {
	r := rng.New(0xadd)
	for _, s := range []modulation.Scheme{modulation.QPSK, modulation.QAM16, modulation.QAM64} {
		for _, realH := range []bool{false, true} {
			p, _ := synth(r, s, 8, 0.1)
			if realH {
				for k, h := range p.H.Data {
					p.H.Data[k] = complex(cmplx.Abs(h), 0)
				}
			}
			red, err := Reduce(p)
			if err != nil {
				t.Fatal(err)
			}
			hr, yr := linalg.RealDecompose(p.H, p.Y)
			n := red.Ising.N
			m, c := quadraticForm(hr, yr, s.Norm(), red.dimBits, red.dimOffset)
			want := qubo.NewIsing(n)
			want.Offset = linalg.VecNormSq(yr)
			zeros := 0
			for i := 0; i < n; i++ {
				want.H[i] = -2 * c[i]
				want.Offset += m.At(i, i)
				for j := i + 1; j < n; j++ {
					if v := m.At(i, j); v != 0 {
						want.AddCoupling(i, j, 2*v)
					} else {
						zeros++
					}
				}
			}
			if !red.Ising.Equal(want) {
				t.Fatalf("%v real=%v: Reduce's model differs from the AddCoupling-built one", s, realH)
			}
			if realH && zeros == 0 {
				t.Fatalf("%v: a real channel gave no exact-zero coupling", s)
			}
		}
	}
}

// TestQuadraticFormMatchesMul pins quadraticForm to the dense form it
// replaced, M = (AᵀG)·A with G = H̃ᵀ·H̃ and c = Aᵀ·(H̃ᵀ·ỹ) through
// Transpose, Mul and MulVec: every entry of M and c bit for bit, on
// complex and real channels (a real one leaves exact zeros in G) for
// each scheme.
func TestQuadraticFormMatchesMul(t *testing.T) {
	r := rng.New(0xf0)
	for _, s := range []modulation.Scheme{modulation.QPSK, modulation.QAM16, modulation.QAM64} {
		for _, realH := range []bool{false, true} {
			p, _ := synth(r, s, 8, 0.1)
			if realH {
				for k, h := range p.H.Data {
					p.H.Data[k] = complex(real(h), 0)
				}
			}
			red, err := Reduce(p)
			if err != nil {
				t.Fatal(err)
			}
			hr, yr := linalg.RealDecompose(p.H, p.Y)
			n := red.Ising.N
			a := linalg.NewMatrix(len(red.dimBits), n)
			for d, b := range red.dimBits {
				for k := 0; k < b; k++ {
					a.Set(d, red.dimOffset[d]+k, s.Norm()*modulation.SpinWeight(b, k))
				}
			}
			wantM := a.Transpose().Mul(hr.Transpose().Mul(hr)).Mul(a)
			wantC := a.Transpose().MulVec(hr.Transpose().MulVec(yr))
			m, c := quadraticForm(hr, yr, s.Norm(), red.dimBits, red.dimOffset)
			for i := 0; i < n; i++ {
				if math.Float64bits(c[i]) != math.Float64bits(wantC[i]) {
					t.Fatalf("%v real=%v: c[%d] = %v, Mul form %v", s, realH, i, c[i], wantC[i])
				}
				for j := 0; j < n; j++ {
					if got, want := m.At(i, j), wantM.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v real=%v: M[%d][%d] = %v, Mul form %v", s, realH, i, j, got, want)
					}
				}
			}
		}
	}
}

func BenchmarkReduce16QAM8User(b *testing.B) {
	r := rng.New(1)
	p, _ := synth(r, modulation.QAM16, 8, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reduce(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSphereDecoder16QAM4User(b *testing.B) {
	r := rng.New(1)
	p, _ := synth(r, modulation.QAM16, 4, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (SphereDecoder{}).Detect(p); err != nil {
			b.Fatal(err)
		}
	}
}

// synthTall builds a rectangular (nr > nt) problem.
func synthTall(r *rng.Source, s modulation.Scheme, nt, nr int, n0 float64) (*Problem, []complex128) {
	h := channel.Draw(channel.Rayleigh, r, nr, nt)
	x, _ := RandomSymbols(r, s, nt)
	y := channel.Transmit(r, h, x, n0)
	return &Problem{H: h, Y: y, Scheme: s}, x
}

// TestDetectorsOnTallChannel: all detectors handle nr > nt, and the
// reduction invariant holds on rectangular channels.
func TestDetectorsOnTallChannel(t *testing.T) {
	r := rng.New(41)
	p, x := synthTall(r, modulation.QAM16, 3, 9, 0.3)
	ml, err := ML{}.Detect(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Detector{ZeroForcing{}, MMSE{NoiseVariance: 0.3}, SphereDecoder{}, KBest{K: 64}, FCSD{FullExpansion: 2}} {
		got, err := d.Detect(p)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if len(got) != 3 {
			t.Fatalf("%s: %d symbols", d.Name(), len(got))
		}
		if d.Name() == "sd" && math.Abs(p.Objective(got)-p.Objective(ml)) > 1e-8 {
			t.Fatalf("SD != ML on tall channel")
		}
	}
	// Tall channels at this SNR decode reliably via ML.
	if SymbolErrors(ml, x) > 1 {
		t.Fatalf("ML erred on a 9x3 channel")
	}
	// Reduction invariant on a rectangular system.
	red, err := Reduce(p)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		cand, _ := RandomSymbols(r, modulation.QAM16, 3)
		spins, _ := red.EncodeSymbols(cand)
		if math.Abs(red.Ising.Energy(spins)-p.Objective(cand)) > 1e-8*(1+p.Objective(cand)) {
			t.Fatal("reduction invariant fails on tall channel")
		}
	}
}

// TestTallChannelEasierForZF: with 3x oversampling, ZF matches ML far
// more often than on the square channel at the same SNR.
func TestTallChannelEasierForZF(t *testing.T) {
	r := rng.New(43)
	const trials = 20
	squareHits, tallHits := 0, 0
	for k := 0; k < trials; k++ {
		sq, _ := synthTall(r, modulation.QAM16, 3, 3, 0.5)
		tall, _ := synthTall(r, modulation.QAM16, 3, 9, 0.5)
		for _, tc := range []struct {
			p    *Problem
			hits *int
		}{{sq, &squareHits}, {tall, &tallHits}} {
			zf, err := ZeroForcing{}.Detect(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			ml, err := ML{}.Detect(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			if SymbolErrors(zf, ml) == 0 {
				*tc.hits++
			}
		}
	}
	if tallHits <= squareHits {
		t.Fatalf("oversampling did not help ZF: square %d vs tall %d", squareHits, tallHits)
	}
}

func TestReductionAccessors(t *testing.T) {
	r := rng.New(77)
	p, _ := synth(r, modulation.QAM16, 3, 0)
	red, err := Reduce(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nt() != 3 {
		t.Fatal("problem dims wrong")
	}
	if red.Users() != 3 {
		t.Fatal("reduction accessors wrong")
	}
	if red.Scheme() != modulation.QAM16 {
		t.Fatal("scheme accessor wrong")
	}
	if red.Problem() != p {
		t.Fatal("problem accessor wrong")
	}
}
