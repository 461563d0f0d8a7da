package annealer

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/metropolis"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// The one-read reference kernels: SVMC.read and pimcRead evolve a single
// read with plain per-spin state, in the order the physics is written
// down. They serve no production read — every read runs through the
// engine's lockstep kernel — and live here as the executable
// specification that kernel must reproduce bit for bit: same spins, same
// probe observations, same final RNG state
// (TestLockstepMatchesSequential).

// referenceRead evolves one read against pr and writes the measured
// state into out; probe, when non-nil, receives one observation per
// sweep.
type referenceRead func(pr *qubo.CSR, init []int8, out []int8, r *rng.Source, probe Probe)

// prepareReference compiles eng's sweep program exactly as Prepare does
// and returns the one-read reference kernel over it.
func prepareReference(eng Engine, sc *Schedule, prof Profile, sweepsPerMicrosecond float64) (referenceRead, error) {
	switch e := eng.(type) {
	case SVMC:
		prog, err := e.compile(sc, prof, sweepsPerMicrosecond)
		if err != nil {
			return nil, err
		}
		return func(pr *qubo.CSR, init []int8, out []int8, r *rng.Source, probe Probe) {
			st := new(svmcScratch)
			st.ensure(pr.N)
			e.read(pr, prog.tab, prog.scale, prog.beta, prog.startsClassical, init, out, st, r, probe)
		}, nil
	case PIMC:
		prog, err := e.compile(sc, prof, sweepsPerMicrosecond)
		if err != nil {
			return nil, err
		}
		return func(pr *qubo.CSR, init []int8, out []int8, r *rng.Source, probe Probe) {
			st := new(pimcScratch)
			st.ensure(prog.p, pr.N)
			pimcRead(pr, prog.tab, prog.spatial, prog.temporal, prog.p, prog.startsClassical, init, out, st, r, probe)
		}, nil
	}
	return nil, fmt.Errorf("no reference kernel for engine %s", eng.Name())
}

// svmcScratch is one read's working state. sinT caches
// sin θ_i alongside the cos θ_i cache z, so a proposal evaluates one
// fused Sincos for the proposed angle instead of three transcendentals.
type svmcScratch struct {
	theta, z, sinT, zField []float64
	probeSpins             []int8
}

func (sc *svmcScratch) ensure(n int) {
	if cap(sc.theta) < n {
		sc.theta = make([]float64, n)
		sc.z = make([]float64, n)
		sc.sinT = make([]float64, n)
		sc.zField = make([]float64, n)
		sc.probeSpins = make([]int8, n)
	}
	sc.theta = sc.theta[:n]
	sc.z = sc.z[:n]
	sc.sinT = sc.sinT[:n]
	sc.zField = sc.zField[:n]
	sc.probeSpins = sc.probeSpins[:n]
}

// start puts the read in its initial state: the rotor angles of a
// reverse start from init, or of a forward start, and the local fields
// zField[i] = h_i + Σ_j J_ij·cos θ_j of those angles.
func (st *svmcScratch) start(pr *qubo.CSR, startsClassical bool, init []int8) {
	n := pr.N
	theta, z, sinT, zField := st.theta, st.z, st.sinT, st.zField
	if startsClassical {
		if len(init) != n {
			panic("annealer: SVMC reverse anneal requires an initial state")
		}
		// Loop-invariant transcendentals hoisted: cos 0 = 1, sin 0 = 0 and
		// cos π = −1 are exact; sin π is the (nonzero) libm value at the
		// double nearest π and must stay bit-identical to math.Sin, which
		// TestSVMCStartConstants pins.
		sinPi := math.Sin(math.Pi)
		for i, s := range init {
			if s > 0 {
				theta[i] = 0
				z[i] = 1
				sinT[i] = 0
			} else {
				theta[i] = math.Pi
				z[i] = -1
				sinT[i] = sinPi
			}
		}
	} else {
		// Forward start: rotors aligned with the transverse field.
		// sin(π/2) evaluates to exactly 1 (TestSVMCStartConstants).
		for i := range theta {
			theta[i] = math.Pi / 2
			z[i] = 0
			sinT[i] = 1
		}
	}
	// zField[i] = h_i + Σ_j J_ij·cos θ_j, maintained incrementally.
	cols, w, offs := pr.Cols, pr.W, pr.Offsets
	for i := 0; i < n; i++ {
		f := pr.H[i]
		for k := offs[i]; k < offs[i+1]; k++ {
			f += w[k] * z[cols[k]]
		}
		zField[i] = f
	}
}

// read evolves one SVMC read. It draws from r in exactly the same order
// regardless of probe, so probed and unprobed runs are bit-identical.
func (e SVMC) read(pr *qubo.CSR, tab *sweepTable, scale []float64, beta float64,
	startsClassical bool, init, out []int8, st *svmcScratch, r *rng.Source, probe Probe) {
	n := pr.N
	st.start(pr, startsClassical, init)
	theta, z, sinT, zField := st.theta, st.z, st.sinT, st.zField
	// zField is maintained incrementally from here on.
	cols, w, offs := pr.Cols, pr.W, pr.Offsets

	// The sweep loop advances the generator in locals (see fastrand.go);
	// the draw sequence — index, optional TF gate, proposal angle, one
	// uniform per uphill proposal — is bit-identical to r.Intn/r.Float64.
	nb := uint64(n)
	negnb := lemireThreshold(n)
	rs0, rs1, rs2, rs3 := r.State()
	sweeps := tab.sweeps()
	for sweep := 0; sweep < sweeps; sweep++ {
		a := tab.a[sweep]
		b := tab.b[sweep]
		sc := 1.0
		if scale != nil {
			sc = scale[sweep]
		}
		accepted := 0
		for k := 0; k < n; k++ {
			var x uint64
			x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
			hi, lo := bits.Mul64(x, nb)
			for lo < negnb {
				x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
				hi, lo = bits.Mul64(x, nb)
			}
			i := int(hi)
			global := scale == nil
			if !global {
				x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
				global = float64(x>>11)*(1.0/(1<<53)) < sc
			}
			var nt, sinNt, nz float64
			if global {
				// Global move: a fresh uniform angle. Under TF scaling
				// these occur at rate A/(A+B) — the surrogate for the
				// multi-spin tunnelling channel that closes as the
				// transverse field is suppressed. The draw u is the angle
				// in units of π, so sinCosPi needs no argument reduction;
				// the current angle's sine comes from the sinT cache.
				x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
				u := float64(x>>11) * (1.0 / (1 << 53))
				nt = math.Pi * u
				sinNt, nz = sinCosPi(u)
			} else {
				// Local TF-scaled move around the current angle,
				// reflected into [0, π].
				x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
				nt = theta[i] + (2*(float64(x>>11)*(1.0/(1<<53)))-1)*math.Pi*sc
				if nt < 0 {
					nt = -nt
				}
				if nt > math.Pi {
					nt = 2*math.Pi - nt
				}
				u := nt * (1 / math.Pi)
				if u > 1 {
					u = 1 // guard the π·(1/π) rounding at nt = π
				}
				sinNt, nz = sinCosPi(u)
			}
			dE := -a/2*(sinNt-sinT[i]) + b/2*(nz-z[i])*zField[i]
			accept := dE <= 0
			if !accept {
				x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
				u := float64(x>>11) * (1.0 / (1 << 53))
				accept = metropolis.Accept(u, beta*dE)
			}
			if accept {
				accepted++
				dz := nz - z[i]
				theta[i] = nt
				z[i] = nz
				sinT[i] = sinNt
				for kk := offs[i]; kk < offs[i+1]; kk++ {
					zField[cols[kk]] += w[kk] * dz
				}
			}
		}
		if probe != nil {
			for i, zi := range z {
				if zi >= 0 {
					st.probeSpins[i] = 1
				} else {
					st.probeSpins[i] = -1
				}
			}
			probe.ObserveSweep(SweepObservation{
				Sweep: sweep, TotalSweeps: sweeps, TimeMicros: tab.t[sweep], S: tab.s[sweep],
				Energy: pr.Energy(st.probeSpins), Accepted: accepted, Proposed: n,
			})
		}
	}

	r.SetState(rs0, rs1, rs2, rs3)

	for i, zi := range z {
		if zi >= 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
}

// pimcScratch is one read's working state. The replica
// matrix is stored n-major — spin i of slice k lives at replicaFlat[i*p+k]
// — so the three slice values a Metropolis proposal touches (current,
// imaginary-time neighbours k±1) sit in the same 16-byte block instead of
// three cache lines P·N bytes apart. The field matrix stays k-major
// because the accept path streams a whole row of slice k's fields.
type pimcScratch struct {
	replicaFlat []int8    // n-major: spin i of slice k at [i*p+k]
	fieldFlat   []float64 // k-major: slice k's fields at [k*n : (k+1)*n]
	fields      [][]float64
	energies    []float64 // per-replica problem energies (probed runs only)
	gather      []int8    // one replica's spins, contiguous (probe init only)
}

func (sc *pimcScratch) ensure(p, n int) {
	if cap(sc.replicaFlat) < p*n || len(sc.fields) != p || len(sc.fields[0]) != n {
		sc.replicaFlat = make([]int8, p*n)
		sc.fieldFlat = make([]float64, p*n)
		sc.fields = make([][]float64, p)
		for k := 0; k < p; k++ {
			sc.fields[k] = sc.fieldFlat[k*n : (k+1)*n]
		}
		sc.energies = make([]float64, p)
		sc.gather = make([]int8, n)
	}
}

// pimcRead evolves one PIMC read. It draws from r in exactly the same
// order regardless of probe, so probed and unprobed runs are
// bit-identical; the per-replica problem energies a probe reports are
// maintained incrementally during flips (O(1) per flip) instead of
// recomputed from scratch every sweep (O(P·n·deg)).
func pimcRead(pr *qubo.CSR, tab *sweepTable, spatial, temporal []float64, p int,
	startsClassical bool, init, out []int8, st *pimcScratch, r *rng.Source, probe Probe) {
	n := pr.N
	flat, fields := st.replicaFlat, st.fields
	cols, w, offs := pr.Cols, pr.W, pr.Offsets
	if startsClassical {
		if len(init) != n {
			panic("annealer: PIMC reverse anneal requires an initial state")
		}
		for i, s := range init {
			base := i * p
			for k := 0; k < p; k++ {
				flat[base+k] = s
			}
		}
	} else {
		// Slice-major draw order, matching the previous k-major layout's
		// initialisation stream bit for bit.
		for k := 0; k < p; k++ {
			for i := 0; i < n; i++ {
				flat[i*p+k] = r.Spin()
			}
		}
	}
	// fields[k][i] = h_i + Σ_j J_ij·s_{j,k}, maintained incrementally
	// (the inlined row walk is CSR.LocalField against the strided layout).
	for k := 0; k < p; k++ {
		f := fields[k]
		for i := 0; i < n; i++ {
			fi := pr.H[i]
			for kk := offs[i]; kk < offs[i+1]; kk++ {
				fi += w[kk] * float64(flat[int(cols[kk])*p+k])
			}
			f[i] = fi
		}
	}
	// trackE: replica problem energies only matter when someone watches.
	trackE := probe != nil
	if trackE {
		for k := 0; k < p; k++ {
			for i := 0; i < n; i++ {
				st.gather[i] = flat[i*p+k]
			}
			st.energies[k] = pr.Energy(st.gather)
		}
	}

	// The sweep loop advances the generator in locals (see fastrand.go);
	// the draw sequence — one bounded index per proposal, one uniform per
	// uphill proposal — is bit-identical to r.Intn/r.Float64.
	nb := uint64(n)
	negnb := lemireThreshold(n)
	rs0, rs1, rs2, rs3 := r.State()
	sweeps := tab.sweeps()
	for sweep := 0; sweep < sweeps; sweep++ {
		// −2·sp and 2·tc are exact (power-of-two scalings), so hoisting
		// them out of the proposal loop cannot change any rounding.
		spm2 := -2 * spatial[sweep]
		tc2 := 2 * temporal[sweep]
		accepted := 0
		for k := 0; k < p; k++ {
			kPrev := k - 1
			if kPrev < 0 {
				kPrev = p - 1
			}
			kNext := k + 1
			if kNext == p {
				kNext = 0
			}
			f := fields[k]
			for m := 0; m < n; m++ {
				var x uint64
				x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
				hi, lo := bits.Mul64(x, nb)
				for lo < negnb {
					x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
					hi, lo = bits.Mul64(x, nb)
				}
				i := int(hi)
				base := i * p
				si8 := flat[base+k]
				si := float64(si8)
				// Spatial action delta: flipping s changes slice energy by
				// −2·s·f, scaled by the spatial action factor; the two
				// temporal bonds change by +2·K·s·(s_prev + s_next).
				dS := spm2*si*f[i] + tc2*si*float64(flat[base+kPrev]+flat[base+kNext])
				accept := dS <= 0
				if !accept {
					x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
					u := float64(x>>11) * (1.0 / (1 << 53))
					accept = metropolis.Accept(u, dS)
				}
				if accept {
					accepted++
					if trackE {
						// Problem-frame energy delta of the flip; f[i]
						// excludes s_i, so it is still valid here.
						st.energies[k] -= 2 * float64(si8) * f[i]
					}
					nv := -si8
					flat[base+k] = nv
					nvf := float64(nv)
					for kk := offs[i]; kk < offs[i+1]; kk++ {
						f[cols[kk]] += 2 * w[kk] * nvf
					}
				}
			}
		}
		if probe != nil {
			// Copy the tracked energies so the observation owns its slice
			// (probes may retain it past this sweep).
			energies := make([]float64, p)
			var mean float64
			for k, e := range st.energies {
				energies[k] = e
				mean += e
			}
			probe.ObserveSweep(SweepObservation{
				Sweep: sweep, TotalSweeps: sweeps, TimeMicros: tab.t[sweep], S: tab.s[sweep],
				Energy: mean / float64(p), ReplicaEnergies: energies,
				Accepted: accepted, Proposed: p * n,
			})
		}
	}

	r.SetState(rs0, rs1, rs2, rs3)

	// Projective measurement: one uniformly chosen replica.
	kSel := r.Intn(p)
	for i := 0; i < n; i++ {
		out[i] = flat[i*p+kSel]
	}
}
