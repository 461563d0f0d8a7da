package annealer

import (
	"math/bits"

	"repro/internal/metropolis"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// Bit-packed group kernel for PIMC. The replica matrix — p slices
// of n ±1 spins — collapses to one uint64 word per spin: bit k of
// spins[i] is set iff s_{i,k} = −1. Everything a Metropolis proposal
// needs from the replica matrix (the current slice value and both
// imaginary-time neighbours) comes out of a single word load and three
// shifts instead of three byte loads over a p·n matrix, the accepted
// flip is one XOR, and for the default p = 16 the whole spin state of a
// 130-spin embedded problem fits in ~1 KB of L1. The arithmetic is
// untouched: a spin only ever enters the float pipeline as ±1.0, and
// IEEE-754 multiplication by ±1.0 is exact, so every dS, every field
// update, and every draw matches the int8 one-read reference kernel bit
// for bit — enforced by TestLockstepMatchesSequential. Packing requires
// p ≤ 64, which PIMC.Prepare enforces.

type pimcBatchScratch struct {
	spins     []uint64  // bit k of spins[i] set ⇔ s_{i,k} = −1
	fieldFlat []float64 // k-major: slice k's fields at [k*n : (k+1)*n]
	fields    [][]float64
	energies  []float64 // per-replica problem energies (probed reads only)
	gather    []int8    // one replica's spins, unpacked (probe init only)
}

func (st *pimcBatchScratch) ensure(p, n int) {
	if cap(st.spins) < n || len(st.fields) != p || len(st.fields[0]) != n {
		st.spins = make([]uint64, n)
		st.fieldFlat = make([]float64, p*n)
		st.fields = make([][]float64, p)
		for k := 0; k < p; k++ {
			st.fields[k] = st.fieldFlat[k*n : (k+1)*n]
		}
		st.energies = make([]float64, p)
		st.gather = make([]int8, n)
	}
	st.spins = st.spins[:n]
}

// pimcPackedRead evolves one PIMC read over the packed representation.
// The draw sequence — the slice-major init spins, one bounded index per
// proposal, one uniform per uphill proposal, the final replica
// selection — is the same whether or not probe is set, so probed and
// unprobed reads are bit-identical. The per-replica problem energies a
// probe reports are maintained incrementally during flips (O(1) per
// flip) instead of recomputed every sweep (O(P·n·deg)).
func pimcPackedRead(pr *qubo.CSR, prog *pimcProgram, init, out []int8,
	st *pimcBatchScratch, r *rng.Source, probe Probe) {
	tab, spatial, temporal, p := prog.tab, prog.spatial, prog.temporal, prog.p
	n := pr.N
	spins, fields := st.spins, st.fields
	cols, w, offs := pr.Cols, pr.W, pr.Offsets
	all := ^uint64(0) >> uint(64-p)
	if prog.startsClassical {
		if len(init) != n {
			panic("annealer: PIMC reverse anneal requires an initial state")
		}
		for i, s := range init {
			if s == 1 {
				spins[i] = 0
			} else {
				spins[i] = all
			}
		}
	} else {
		// Slice-major draw order; Spin() is one Uint64 with bit 0 deciding
		// the sign (1 → +1), replicated here on the packed words.
		for i := range spins {
			spins[i] = 0
		}
		for k := 0; k < p; k++ {
			bit := uint64(1) << uint(k)
			for i := 0; i < n; i++ {
				if r.Uint64()&1 == 0 {
					spins[i] |= bit
				}
			}
		}
	}
	// fields[k][i] = h_i + Σ_j J_ij·s_{j,k}; w·(±1.0) is the exact ±w,
	// so the conditional add/sub reproduces the reference sums bit for
	// bit while skipping the int8→float convert and multiply.
	for k := 0; k < p; k++ {
		f := fields[k]
		bit := uint64(1) << uint(k)
		for i := 0; i < n; i++ {
			fi := pr.H[i]
			for kk := offs[i]; kk < offs[i+1]; kk++ {
				if spins[int(cols[kk])]&bit != 0 {
					fi -= w[kk]
				} else {
					fi += w[kk]
				}
			}
			f[i] = fi
		}
	}
	// trackE: replica problem energies only matter when someone watches.
	trackE := probe != nil
	if trackE {
		for k := 0; k < p; k++ {
			bit := uint64(1) << uint(k)
			for i, sp := range spins {
				st.gather[i] = 1
				if sp&bit != 0 {
					st.gather[i] = -1
				}
			}
			st.energies[k] = pr.Energy(st.gather)
		}
	}

	nb := uint64(n)
	negnb := lemireThreshold(n)
	rs0, rs1, rs2, rs3 := r.State()
	sweeps := tab.sweeps()
	for sweep := 0; sweep < sweeps; sweep++ {
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
			bit := uint64(1) << uint(k)
			for m := 0; m < n; m++ {
				var x uint64
				x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
				hi, lo := bits.Mul64(x, nb)
				for lo < negnb {
					x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
					hi, lo = bits.Mul64(x, nb)
				}
				i := int(hi)
				sp := spins[i]
				si := 1.0
				if sp&bit != 0 {
					si = -1
				}
				// s_prev + s_next from the down bits b ∈ {0,1}: each spin is
				// 1−2b, so the sum is 2 − 2(b_prev+b_next) ∈ {−2, 0, 2} —
				// the same exact small integer the int8 path adds up.
				nsum := 2 - 2*int(sp>>uint(kPrev)&1+sp>>uint(kNext)&1)
				dS := spm2*si*f[i] + tc2*si*float64(nsum)
				accept := dS <= 0
				if !accept {
					x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
					u := float64(x>>11) * (1.0 / (1 << 53))
					// metropolis.Accept, with the bracket inlined: a call
					// per uphill draw spills this loop's live registers.
					v := metropolis.Bracket(u, dS)
					accept = v > 0 || (v == 0 && metropolis.Exact(u, dS))
				}
				if accept {
					accepted++
					if trackE {
						// Problem-frame energy delta of the flip; f[i]
						// excludes s_i, so it is still valid here.
						st.energies[k] -= 2 * si * f[i]
					}
					spins[i] = sp ^ bit
					nvf := -si
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

	kSel := r.Intn(p)
	selBit := uint64(1) << uint(kSel)
	for i := 0; i < n; i++ {
		if spins[i]&selBit != 0 {
			out[i] = -1
		} else {
			out[i] = 1
		}
	}
}
