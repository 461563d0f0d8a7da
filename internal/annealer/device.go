package annealer

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// Profile models the annealer's energy scales: the transverse-field
// envelope A(s) (quantum fluctuations, strong at s = 0 and suppressed at
// s = 1) and the problem-Hamiltonian envelope B(s), both in GHz, plus the
// operating temperature. The quantum Hamiltonian being emulated is
//
//	H(s) = −A(s)/2·Σ σˣ_i + B(s)/2·(Σ h_i·σᶻ_i + Σ J_ij·σᶻ_i·σᶻ_j).
//
// The qualitative shape matters more than exact hardware curves: A must
// dominate B at small s (a measurement there returns a random bitstring,
// Figure 5's caption), cross B somewhere mid-schedule, and be negligible
// near s = 1 (classical memory register).
type Profile struct {
	Name string
	// AMax and BMax are the s = 0 transverse-field and s = 1 problem
	// energy scales in GHz.
	AMax, BMax float64
	// ACurve shapes A(s) = AMax·(1−s)^ACurve; the 2000Q's published
	// schedule decays faster than linearly, so the default uses 3.
	ACurve float64
	// TemperatureGHz is k_B·T/h for the device mixing chamber
	// (≈ 12 mK ≈ 0.25 GHz on the 2000Q).
	TemperatureGHz float64
}

// DWave2000QProfile approximates the paper's hardware platform.
func DWave2000QProfile() Profile {
	return Profile{
		Name:           "dwave-2000q",
		AMax:           6.0,
		BMax:           12.0,
		ACurve:         3,
		TemperatureGHz: 0.25,
	}
}

// CalibratedProfile is the 2000Q profile with the simulator's effective
// temperature calibrated against the paper's workload. Auto-scaling
// normalizes a MIMO QUBO by its LARGEST coefficient, leaving typical
// couplings well below 1, so the physical 0.25 GHz runs the surrogate
// dynamics slightly too hot relative to the problem scale. 0.15 GHz
// places the pause of a reverse anneal at s_p ≈ 0.3–0.6 in the effective
// inverse-temperature band (β·B(s_p)/2 ≈ 8–20 in normalized energy
// units) where measured barrier-crossing rates let a good initial state's
// defects heal without erasing it — the repair window Figures 7 and 8
// hinge on. Experiments default to this profile; DWave2000QProfile
// remains available for ablation.
func CalibratedProfile() Profile {
	p := DWave2000QProfile()
	p.Name = "dwave-2000q-calibrated"
	p.TemperatureGHz = 0.15
	return p
}

// LinearProfile is a textbook linear interpolation schedule, useful for
// ablation against the hardware-like profile.
func LinearProfile() Profile {
	return Profile{
		Name:           "linear",
		AMax:           6.0,
		BMax:           12.0,
		ACurve:         1,
		TemperatureGHz: 0.25,
	}
}

// A returns the transverse-field scale at anneal fraction s (GHz).
func (p Profile) A(s float64) float64 {
	if s >= 1 {
		return 0
	}
	if s <= 0 {
		return p.AMax
	}
	return p.AMax * math.Pow(1-s, p.ACurve)
}

// B returns the problem-Hamiltonian scale at anneal fraction s (GHz).
func (p Profile) B(s float64) float64 {
	if s <= 0 {
		return 0
	}
	if s >= 1 {
		return p.BMax
	}
	return p.BMax * s
}

// Validate checks the profile is physically sensible.
func (p Profile) Validate() error {
	if p.AMax <= 0 || p.BMax <= 0 {
		return fmt.Errorf("annealer: non-positive energy scales A=%g B=%g", p.AMax, p.BMax)
	}
	if p.ACurve <= 0 {
		return fmt.Errorf("annealer: non-positive A curve exponent %g", p.ACurve)
	}
	if p.TemperatureGHz <= 0 {
		return fmt.Errorf("annealer: non-positive temperature %g", p.TemperatureGHz)
	}
	return nil
}

// ICE models integrated-control-error noise: every anneal programs the
// device with slightly perturbed coefficients, h_i + N(0, SigmaH²) and
// J_ij + N(0, SigmaJ²). On the 2000Q these are a few percent of the
// full-scale range; zero sigmas disable the noise.
type ICE struct {
	SigmaH, SigmaJ float64
}

// DWave2000QICE returns the device-typical control-error magnitudes
// (relative to the normalized ±1 coefficient range).
func DWave2000QICE() ICE { return ICE{SigmaH: 0.03, SigmaJ: 0.02} }

// Validate checks the noise magnitudes are non-negative. Run validates the
// model once per batch, so the per-read apply paths never re-check.
func (ice ICE) Validate() error {
	if ice.SigmaH < 0 || ice.SigmaJ < 0 {
		return fmt.Errorf("annealer: negative ICE sigma (h=%g, j=%g)", ice.SigmaH, ice.SigmaJ)
	}
	return nil
}

// enabled reports whether any noise can be drawn.
func (ice ICE) enabled() bool { return ice.SigmaH != 0 || ice.SigmaJ != 0 }

// gaussNoise is one layer of per-read coefficient noise: nonzero fields
// take N(0, sigmaH²) and couplings N(0, sigmaJ²), drawn from r.
type gaussNoise struct {
	sigmaH, sigmaJ float64
	r              *rng.Source
}

// applyGaussianCSR programs dst as a noisy copy of the compiled problem
// src: dst shares src's topology (Offsets, Cols, Mirror) and holds the
// coefficients in its own storage, reused when large enough, perturbed
// by each of at most two layers (a read's ICE, then its drift) in turn,
// as ICE.Perturb would one layer after another: nonzero fields (after
// the layers before) by N(0, sigmaH²), and each undirected coupling by
// N(0, sigmaJ²), both halves of the mirrored entry receiving the same
// draw. A layer's draw order — fields in spin order, then couplings in
// (i, j), i < j order — matches ICE.Perturb on the adjacency form, so a
// seed programs the same noise through either path. Each layer draws its
// normals in one batch (NormFloat64s) into buf. One pass over src's
// couplings then writes both halves of every coupling of dst, with
// every layer's draws added — every entry of W is the i < j half of a
// coupling or its mirror, so the pass writes all of it — and, when rows
// is non-nil, writes each perturbed coupling into the dense row table
// too, whose masks must be src's topology.
func applyGaussianCSR(dst, src *qubo.CSR, rows *svmcRows, layers []gaussNoise, buf *[]float64) {
	h := append(dst.H[:0], src.H...)
	w := slices.Grow(dst.W[:0], len(src.W))[:len(src.W)]
	*dst = *src
	dst.H, dst.W = h, w
	couplings := len(w) / 2
	var js [2][]float64 // each layer's coupling draws
	noise := (*buf)[:0]
	for l, ly := range layers {
		fields := 0
		if ly.sigmaH > 0 {
			for _, hi := range h {
				if hi != 0 {
					fields++
				}
			}
		}
		draws := fields
		if ly.sigmaJ > 0 {
			draws += couplings
		}
		at := len(noise)
		noise = slices.Grow(noise, draws)[:at+draws]
		seg := noise[at:]
		ly.r.NormFloat64s(seg)
		if ly.sigmaH > 0 {
			t := 0
			for i, hi := range h {
				if hi != 0 {
					h[i] += ly.sigmaH * seg[t]
					t++
				}
			}
		}
		if ly.sigmaJ > 0 {
			js[l] = seg[fields:]
		}
	}
	*buf = noise
	np := (src.N + 3) &^ 3
	t := 0
	for i := 0; i < src.N; i++ {
		for k := src.Offsets[i]; k < src.Offsets[i+1]; k++ {
			j := int(src.Cols[k])
			if j <= i {
				continue // written with its mirror
			}
			m := src.Mirror[k]
			a, b := src.W[k], src.W[m]
			for l, ly := range layers {
				if js[l] != nil {
					dv := ly.sigmaJ * js[l][t]
					a += dv
					b += dv
				}
			}
			t++
			w[k], w[m] = a, b
			if rows != nil {
				rows.w[i*np+j], rows.w[j*np+i] = a, b
			}
		}
	}
}

// Perturb returns a copy of the problem with control-error noise applied
// (or the original when the ICE is zero).
func (ice ICE) Perturb(is *qubo.Ising, r *rng.Source) *qubo.Ising {
	if ice.SigmaH == 0 && ice.SigmaJ == 0 {
		return is
	}
	if ice.SigmaH < 0 || ice.SigmaJ < 0 {
		panic("annealer: negative ICE sigma")
	}
	out := is.Clone()
	if ice.SigmaH > 0 {
		for i := range out.H {
			if out.H[i] != 0 {
				out.H[i] += ice.SigmaH * r.NormFloat64()
			}
		}
	}
	if ice.SigmaJ > 0 {
		for _, e := range out.Edges() {
			out.SetCoupling(e.I, e.J, e.V+ice.SigmaJ*r.NormFloat64())
		}
	}
	return out
}
