package annealer

import (
	"math"
	"slices"
	"testing"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// Prepare must reject a non-positive sweep rate with an error, never a
// panic: the validation is part of the Engine contract so callers can
// surface bad configs instead of crashing a batch worker.
func TestPrepareRejectsNonPositiveSweepRate(t *testing.T) {
	sc, err := Forward(1, 0.5, 0)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	prof := CalibratedProfile()
	engines := []Engine{SVMC{}, SVMC{TFMoves: true}, PIMC{Slices: 8}}
	for _, e := range engines {
		for _, rate := range []float64{0, -1, -1e9} {
			kernel, err := e.Prepare(sc, prof, rate)
			if err == nil {
				t.Fatalf("%s.Prepare(rate=%g): want error, got nil", e.Name(), rate)
			}
			if kernel != nil {
				t.Fatalf("%s.Prepare(rate=%g): non-nil kernel alongside error", e.Name(), rate)
			}
		}
		if _, err := e.Prepare(sc, prof, 100); err != nil {
			t.Fatalf("%s.Prepare(rate=100): unexpected error %v", e.Name(), err)
		}
	}
}

// The bit-packed PIMC kernel holds one Trotter slice per bit of a word:
// Prepare must reject more than 64 slices with an error and no kernel,
// and Run must surface that error, while 64 slices still prepare.
func TestPrepareRejectsTooManySlices(t *testing.T) {
	sc, err := Forward(1, 0.5, 0)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	prof := CalibratedProfile()
	kernel, err := PIMC{Slices: 65}.Prepare(sc, prof, 100)
	if err == nil {
		t.Fatal("PIMC{Slices: 65}.Prepare: want error, got nil")
	}
	if kernel != nil {
		t.Fatal("PIMC{Slices: 65}.Prepare: non-nil kernel alongside error")
	}
	if _, err := (PIMC{Slices: 64}).Prepare(sc, prof, 100); err != nil {
		t.Fatalf("PIMC{Slices: 64}.Prepare: unexpected error %v", err)
	}
	is := qubo.NewIsing(3)
	is.SetCoupling(0, 1, 1)
	p := Params{Schedule: sc, Engine: PIMC{Slices: 65}, SweepsPerMicrosecond: 10}
	if res, err := Run(is, p, rng.New(1)); err == nil || res != nil {
		t.Fatalf("Run with 65 slices: got (%v, %v), want an error", res, err)
	}
	if _, err := NewLease(p); err == nil {
		t.Fatal("NewLease with 65 slices: want error, got nil")
	}
}

// applyGaussianCSR is the per-read noise path on the compiled problem;
// it must program the same coefficients as ICE.Perturb on the adjacency
// form given the same seed, so the CSR refactor cannot change which
// noisy instance a read sees. Two layers (ICE, then a drift) must match
// Perturb applied twice, and the dense row table the same pass writes
// must hold every perturbed coupling at its (row, column) slot. The
// program goes into a reused clone whose coefficient storage holds
// NaNs: the pass must overwrite every entry in that storage, share the
// compiled problem's topology, and leave the compiled problem as it was.
func TestApplyGaussianCSRMatchesPerturb(t *testing.T) {
	r := rng.New(0x1CE0)
	is := qubo.NewIsing(12)
	for i := 0; i < is.N; i++ {
		is.H[i] = 2*r.Float64() - 1
		for j := i + 1; j < is.N; j++ {
			if r.Float64() < 0.5 {
				is.SetCoupling(i, j, 2*r.Float64()-1)
			}
		}
	}
	is.H[3] = 0 // zero fields must stay exactly zero under ICE

	ice := ICE{SigmaH: 0.03, SigmaJ: 0.02}
	drift := ICE{SigmaH: 0.05, SigmaJ: 0.05}
	const seed, driftSeed = 0xD1F7, 0xD21F
	for _, layers := range []int{1, 2} {
		want := ice.Perturb(is, rng.New(seed))
		noise := []gaussNoise{{ice.SigmaH, ice.SigmaJ, rng.New(seed)}}
		if layers == 2 {
			want = drift.Perturb(want, rng.New(driftSeed))
			noise = append(noise, gaussNoise{drift.SigmaH, drift.SigmaJ, rng.New(driftSeed)})
		}
		wantCSR := qubo.NewCSR(want)
		src := qubo.NewCSR(is)
		rows := newSVMCRows(src)
		got := &qubo.CSR{H: make([]float64, 0, is.N), W: make([]float64, len(src.W))}
		for k := range got.W {
			got.W[k] = math.NaN()
		}
		w0 := &got.W[0]
		var buf []float64
		applyGaussianCSR(got, src, rows, noise, &buf)
		if &got.W[0] != w0 || &got.Cols[0] != &src.Cols[0] || &got.Mirror[0] != &src.Mirror[0] {
			t.Fatalf("%d layers: the clone must reuse its coefficient storage and share the topology", layers)
		}
		if fresh := qubo.NewCSR(is); !slices.Equal(src.H, fresh.H) || !slices.Equal(src.W, fresh.W) {
			t.Fatalf("%d layers: programming the clone changed the compiled problem", layers)
		}

		for i := range wantCSR.H {
			if got.H[i] != wantCSR.H[i] {
				t.Fatalf("%d layers: H[%d] = %v, want %v", layers, i, got.H[i], wantCSR.H[i])
			}
		}
		if got.H[3] != 0 {
			t.Fatalf("%d layers: zero field perturbed to %v", layers, got.H[3])
		}
		np := (is.N + 3) &^ 3
		for i := 0; i < got.N; i++ {
			for k := got.Offsets[i]; k < got.Offsets[i+1]; k++ {
				if got.W[k] != wantCSR.W[k] {
					t.Fatalf("%d layers: W[%d] = %v, want %v", layers, k, got.W[k], wantCSR.W[k])
				}
				if w := rows.w[i*np+int(got.Cols[k])]; w != got.W[k] {
					t.Fatalf("%d layers: row %d column %d holds %v, the CSR %v", layers, i, got.Cols[k], w, got.W[k])
				}
			}
		}
	}
}
