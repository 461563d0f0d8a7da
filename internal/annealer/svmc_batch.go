package annealer

import (
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"repro/internal/metropolis"
	"repro/internal/qubo"
)

// Lockstep SVMC: R reads of equal problem size advance through the sweep
// program together. A one-read sweep loop is latency-bound — every proposal
// chains an RNG step into sinCosPi's polynomial into the dE compare, and
// the core sits idle waiting on each link. Interleaving R independent
// reads per (sweep, proposal) step gives the out-of-order window R
// disjoint chains to overlap, which is where the kernel's speedup comes
// from; the schedule constants are also loaded once per group step
// instead of once per read. Each lane walks its own CSR, so the reads
// may belong to different problems.
//
// Per-read state is struct-of-arrays in lane-major blocks with a row
// stride np = n rounded up to 4, as in the SA group (sa_group.go): read
// j's spin i sits at slot j·np+i of each array. The rotor array rot
// holds the (z, sin θ) pair the score reads, 16 bytes per slot, so one
// aligned 16-byte load fetches both and never straddles a cache line.
// The local fields live in their own contiguous array fld, so a spin's
// neighbours' fields are consecutive doubles: the AVX2 apply of an
// accept along a dense row table (svmcRows, built for every problem of
// at most 64 spins, as the logical problems the serve anneals are)
// updates the lane's whole field block four fields at a time, and
// larger problems walk their CSR rows. The rotor angle θ, which only TF
// moves read, has a third array of its own.
// On amd64 one AVX2 call (svmcStepx8) runs a whole sweep for up to
// sixteen reads — per proposal step the draws, trig, score and verdict
// of every live 4-lane half, then the apply of every decided accept —
// and returns to Go only when a lane needs it: a bracket-undecided lane
// for Go to settle, or a Lemire rejection for Go to replay.
// Every step the kernel does not run — TF moves, non-amd64 hosts, and
// the chunks it hands back on a Lemire rejection — runs as the same
// step in Go (svmcFinishStep), one 8-lane chunk at a time over the
// chunk's live lanes: stage 1 draws each proposal and evaluates its trig, the scorer
// (svmcScoreScalar) takes the dE score and the bracket's verdict, the
// outright accepts are applied (svmcApply is the Go apply), and the
// undecided lanes are settled with metropolis.Exact. Every read draws
// from its own stream in exactly the one-read order (index draw, TF's
// gate draw, angle draw, then one uniform per uphill proposal), so
// outcomes are bit-identical to the one-read reference kernel the tests
// keep.
type svmcBatchScratch struct {
	rot                []float64 // (z, sin θ) pair per (read, spin) slot
	fld                []float64 // local field per (read, spin) slot
	theta              []float64 // rotor angle per (read, spin) slot (TF only)
	rs0, rs1, rs2, rs3 []uint64  // per-read xoshiro256++ state
	idx                []uint64  // stage-1 proposal index per read
	nsin, ncos         []float64 // stage-1 proposal trig per read
	nang               []float64 // stage-1 proposal angle (TF only)
	dE                 []float64 // stage-2 proposal energy delta per read
	u                  []float64 // stage-2 uphill uniform per read
	lanoff             []uint64  // per-lane slot offset j·np (0 for padding)
	accepted           []int     // per-lane accepts this sweep (read by probes)
	probeSpins         []int8    // one lane's projected state (probed reads only)
	args               []svmcStepArgs
}

// svmcStepArgs is the SIMD kernel's argument block for up to sixteen
// lanes — two 8-lane chunks of four-lane halves: array pointers and
// scalars at fixed offsets, so a kernel call marshals a single pointer.
// The layout is hard offsets in svmc_simd_amd64.s
// (TestSVMCStepArgsLayout). k is the proposal step the kernel starts at
// and, when it stops early, the step it stopped at; exm (bit j: lane j's
// bracket-undecided verdict at that step) and rej (the first chunk that
// did not run that step, 2 when both ran) are OUTPUTS. live masks the
// real lanes, acc counts each lane's accepts the kernel applied, and
// offs/cols/w hold each live lane's CSR arrays for the kernel's row walk
// (lanes may carry different problems), and dw/dm the weights and
// masks of its dense row table (svmcRows), nil when it has none. rot
// and fld are the scratch's rotor and field arrays, lanoff each lane's
// slot offset into both.
// bounds points at metropolis.Bounds, the one exp bracket every
// Metropolis test reads.
type svmcStepArgs struct {
	rs0, rs1, rs2, rs3 *[svmcGroupWidth]uint64  // +0 +8 +16 +24
	idx                *[svmcGroupWidth]uint64  // +32
	sn, cs             *[svmcGroupWidth]float64 // +40 +48
	rot                *float64                 // +56
	lanoff             *[svmcGroupWidth]uint64  // +64
	dE, u              *[svmcGroupWidth]float64 // +72 +80
	nb, negnb          uint64                   // +88 +96
	na2, b2, beta      float64                  // +104 +112 +120
	k                  uint64                   // +128 (in/out)
	exm                uint16                   // +136 (kernel-written)
	live               uint16                   // +138
	rej                uint16                   // +140 (kernel-written)
	bounds             *float64                 // +144
	acc                *[svmcGroupWidth]int     // +152
	offs, cols         [svmcGroupWidth]*int32   // +160 +288
	w                  [svmcGroupWidth]*float64 // +416
	fld                *float64                 // +544
	dw                 [svmcGroupWidth]*float64 // +552
	dm                 [svmcGroupWidth]*uint64  // +680
}

// svmcRowSpins is the largest problem that gets a dense row table: a
// row's mask is one uint64.
const svmcRowSpins = 64

// svmcRows is a problem's dense row table, the layout the SIMD kernel
// applies an accept along. Row i holds spin i's couplings in column
// order: w[i·np+j] is J_ij, with np = n rounded up to 4, the kernel's
// slot stride. Bit j of mask[i] marks a column row i does not couple:
// j = i itself, an exact-zero coupling the problem dropped, and the
// padding j ≥ n. A masked slot's weight never reaches a field (it is
// zero, or stale in a pooled table): the kernel adds w·dz to all np
// fields of the lane's block and blends every masked field back, so a
// −0 field stays −0 and the result is the CSR walk's, bit for bit. The
// unmasked weights must equal the CSR's.
type svmcRows struct {
	w    []float64
	mask []uint64
	buf  []float64 // one allocation behind w and mask (built tables)
}

// svmcRowsPool holds the row tables of problems compiled for a single
// call (Prepared.release), so a stream of calls reuses a few tables.
var svmcRowsPool sync.Pool

// newSVMCRows returns pr's dense row table (pr.N ≤ svmcRowSpins), in a
// pooled table when one is free. The weights and the masks share one
// allocation, the masks a uint64 view of its tail.
func newSVMCRows(pr *qubo.CSR) *svmcRows {
	rows, _ := svmcRowsPool.Get().(*svmcRows)
	if rows == nil {
		rows = new(svmcRows)
	}
	n := pr.N
	np := (n + 3) &^ 3
	if cap(rows.buf) < n*np+n {
		rows.buf = make([]float64, n*np+n)
	}
	buf := rows.buf[:n*np+n]
	rows.w = buf[: n*np : n*np]
	rows.mask = unsafe.Slice((*uint64)(unsafe.Pointer(&buf[n*np])), n)
	for i := range rows.mask {
		m := ^uint64(0)
		for k := pr.Offsets[i]; k < pr.Offsets[i+1]; k++ {
			j := pr.Cols[k]
			rows.w[i*np+int(j)] = pr.W[k]
			m &^= 1 << uint(j)
		}
		rows.mask[i] = m
	}
	return rows
}

// svmcUsesRows reports whether eng's kernel applies along dense row
// tables: the SIMD kernel, which covers SVMC's uniform moves. The Go
// step (svmcApply) walks the CSR rows.
func svmcUsesRows(eng Engine) bool {
	e, ok := eng.(SVMC)
	return ok && !e.TFMoves && hasBatchSIMD
}

// svmcChunks is the number of 8-lane chunks in one svmcStepArgs block.
const svmcChunks = svmcGroupWidth / 8

// svmcForceScalar makes every proposal step of a SIMD-eligible group
// run in Go (svmcFinishStep); TestSVMCReplayMatchesKernelApply and
// TestSVMCKernelExitsMatchReplay set it.
var svmcForceScalar = false

// svmcLemireThreshold is the bounded index draw's rejection threshold
// for n spins. TestSVMCKernelExitsMatchReplay raises it so the kernel's
// rejection exit, which real thresholds reach with probability n/2⁶⁴
// per draw, fires on a large share of steps.
var svmcLemireThreshold = lemireThreshold

// ensure sizes the scratch for an r-read group of n spins, with the
// angle array only for TF moves, and returns the slot stride np. The
// per-lane arrays (states, proposal outputs) are rounded up to a
// multiple of the sixteen-lane kernel block; lanes beyond r are padding
// the SIMD kernel can advance harmlessly (the Go step and the epilogue
// only walk j < r).
func (st *svmcBatchScratch) ensure(r, n int, tf bool) (np int) {
	np = (n + 3) &^ 3
	slots := r * np
	if cap(st.fld) < slots {
		st.rot = make([]float64, 2*slots)
		st.fld = make([]float64, slots)
	}
	st.rot = st.rot[:2*slots]
	st.fld = st.fld[:slots]
	if tf {
		if cap(st.theta) < slots {
			st.theta = make([]float64, slots)
		}
		st.theta = st.theta[:slots]
	}
	if cap(st.probeSpins) < n {
		st.probeSpins = make([]int8, n)
	}
	st.probeSpins = st.probeSpins[:n]
	rr := (r + svmcGroupWidth - 1) &^ (svmcGroupWidth - 1)
	if cap(st.rs0) < rr {
		st.rs0 = make([]uint64, rr)
		st.rs1 = make([]uint64, rr)
		st.rs2 = make([]uint64, rr)
		st.rs3 = make([]uint64, rr)
		st.idx = make([]uint64, rr)
		st.nsin = make([]float64, rr)
		st.ncos = make([]float64, rr)
		st.nang = make([]float64, rr)
		st.dE = make([]float64, rr)
		st.u = make([]float64, rr)
		st.lanoff = make([]uint64, rr)
		st.accepted = make([]int, rr)
		st.args = make([]svmcStepArgs, rr/svmcGroupWidth)
	}
	st.rs0 = st.rs0[:rr]
	st.rs1 = st.rs1[:rr]
	st.rs2 = st.rs2[:rr]
	st.rs3 = st.rs3[:rr]
	st.idx = st.idx[:rr]
	st.nsin = st.nsin[:rr]
	st.ncos = st.ncos[:rr]
	st.nang = st.nang[:rr]
	st.dE = st.dE[:rr]
	st.u = st.u[:rr]
	st.lanoff = st.lanoff[:rr]
	st.accepted = st.accepted[:rr]
	st.args = st.args[:rr/svmcGroupWidth]
	return np
}

// svmcBatchRead evolves one lockstep group. Reads must share the problem
// size n; everything else — field init, the accept path's row walk,
// probe energies, the reverse-start state — reads the lane's own Prog
// and Init, so one group may carry different problems.
func svmcBatchRead(prog *svmcProgram, reads []BatchRead, st *svmcBatchScratch) {
	tab, scale, beta := prog.tab, prog.scale, prog.beta
	r := len(reads)
	n := reads[0].Prog.N
	tf := scale != nil
	np := st.ensure(r, n, tf)
	probed := st.start(prog, reads, np)
	rot, fld := st.rot, st.fld
	acc := st.accepted
	rs0, rs1, rs2, rs3 := st.rs0, st.rs1, st.rs2, st.rs3
	// SIMD padding lanes: any nonzero xoshiro state works — they may be
	// advanced alongside the real lanes, and their outputs are never read.
	rr := len(rs0)
	for j := r; j < rr; j++ {
		rs0[j], rs1[j], rs2[j], rs3[j] = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, uint64(j)+1
	}

	nb := uint64(n)
	negnb := svmcLemireThreshold(n)
	// The AVX2 kernel covers the default (global-move) proposal; TF moves
	// branch on the gate draw and read theta, so they run in Go. The nb
	// bound is the 32-bit limb decomposition's precondition.
	useSIMD := hasBatchSIMD && !tf && nb <= 0xFFFFFFFF && !svmcForceScalar
	// Per-lane slot offsets for the kernel's rotor and field loads;
	// padding lanes alias read 0's block so their (never-read) loads stay
	// inside the allocation.
	lan := st.lanoff
	for j := 0; j < r; j++ {
		lan[j] = uint64(j * np)
	}
	for j := r; j < rr; j++ {
		lan[j] = 0
	}
	for ci := range st.args {
		c := ci * svmcGroupWidth
		a := &st.args[ci]
		*a = svmcStepArgs{
			rs0: (*[svmcGroupWidth]uint64)(rs0[c:]), rs1: (*[svmcGroupWidth]uint64)(rs1[c:]),
			rs2: (*[svmcGroupWidth]uint64)(rs2[c:]), rs3: (*[svmcGroupWidth]uint64)(rs3[c:]),
			idx: (*[svmcGroupWidth]uint64)(st.idx[c:]),
			sn:  (*[svmcGroupWidth]float64)(st.nsin[c:]), cs: (*[svmcGroupWidth]float64)(st.ncos[c:]),
			rot: &rot[0], fld: &fld[0], lanoff: (*[svmcGroupWidth]uint64)(lan[c:]),
			dE: (*[svmcGroupWidth]float64)(st.dE[c:]), u: (*[svmcGroupWidth]float64)(st.u[c:]),
			nb: nb, negnb: negnb, beta: beta,
			bounds: &metropolis.Bounds[0], acc: (*[svmcGroupWidth]int)(acc[c:]),
		}
		for l := 0; l < svmcGroupWidth && c+l < r; l++ {
			pr := reads[c+l].Prog
			a.live |= 1 << uint(l)
			a.offs[l] = unsafe.SliceData(pr.Offsets)
			a.cols[l] = unsafe.SliceData(pr.Cols)
			a.w[l] = unsafe.SliceData(pr.W)
			if rows := reads[c+l].rows; rows != nil {
				a.dw[l] = unsafe.SliceData(rows.w)
				a.dm[l] = unsafe.SliceData(rows.mask)
			}
		}
	}
	sweeps := tab.sweeps()
	for sweep := 0; sweep < sweeps; sweep++ {
		na2 := -tab.a[sweep] / 2
		b2 := tab.b[sweep] / 2
		var sc float64
		if tf {
			sc = scale[sweep]
		}
		// With SIMD, one kernel call runs the sweep's n proposal steps for
		// every live half of the block. It stops early only at a step
		// where Go must act — a bracket-undecided lane, or a chunk whose
		// index draw hit the Lemire rejection (probability n/2⁶⁴ per lane)
		// — and resumes at the next step once Go has finished that one.
		// Without it, Go runs every step.
		for ci := range st.args {
			a := &st.args[ci]
			a.na2, a.b2 = na2, b2
			for a.k = 0; a.k < nb; a.k++ {
				from := 0
				if useSIMD {
					if svmcStepx8(a) {
						break
					}
					from = int(a.rej)
				}
				svmcFinishStep(st, reads, a, ci*svmcGroupWidth, from, tf, sc)
			}
		}
		if probed {
			svmcObserveSweep(tab, sweep, n, reads, st)
		}
	}

	// The pool keeps the scratch; drop its references to the problems.
	for ci := range st.args {
		a := &st.args[ci]
		a.offs, a.cols, a.w = [svmcGroupWidth]*int32{}, [svmcGroupWidth]*int32{}, [svmcGroupWidth]*float64{}
		a.dw, a.dm = [svmcGroupWidth]*float64{}, [svmcGroupWidth]*uint64{}
	}
	for j := range reads {
		reads[j].Rng.SetState(rs0[j], rs1[j], rs2[j], rs3[j])
		z := rot[2*int(lan[j]):]
		out := reads[j].Out
		for i := 0; i < n; i++ {
			if z[2*i] >= 0 {
				out[i] = 1
			} else {
				out[i] = -1
			}
		}
	}
}

// start puts each read of an n-spin group in its lane's initial state:
// the rotors (and, for TF moves, the angles) of prog's start, their local
// fields, the read's RNG state and a zero accept count. np is the lane
// stride ensure returned. It reports whether any read is probed.
// TestLockstepMatchesSequential compares the fields it leaves with the
// one-read reference kernel's, bit for bit.
func (st *svmcBatchScratch) start(prog *svmcProgram, reads []BatchRead, np int) (probed bool) {
	n := reads[0].Prog.N
	tf := prog.scale != nil
	rot, fld, theta := st.rot, st.fld, st.theta
	// Per-read state initialisation — identical constants to the
	// reference kernel, with the reverse-start transcendentals hoisted
	// (cos π = −1 exactly; sin π is the libm value at the double nearest
	// π, not zero, and must match bit for bit).
	sinPi := math.Sin(math.Pi)
	for j := range reads {
		base := j * np
		pairs := rot[2*base : 2*(base+n)] // lane j's (z, sin θ) pairs
		var th []float64
		if tf {
			th = theta[base : base+n]
		}
		if prog.startsClassical {
			for i, s := range reads[j].Init {
				if s > 0 {
					pairs[2*i], pairs[2*i+1] = 1, 0
					if tf {
						th[i] = 0
					}
				} else {
					pairs[2*i], pairs[2*i+1] = -1, sinPi
					if tf {
						th[i] = math.Pi
					}
				}
			}
		} else {
			for i := 0; i < n; i++ {
				pairs[2*i], pairs[2*i+1] = 0, 1
				if tf {
					th[i] = math.Pi / 2
				}
			}
		}
		qubo.LocalFields(reads[j].Prog, pairs, 2, fld[base:base+n])
		st.rs0[j], st.rs1[j], st.rs2[j], st.rs3[j] = reads[j].Rng.State()
		st.accepted[j] = 0
		probed = probed || reads[j].Probe != nil
	}
	return probed
}

// svmcFinishStep completes proposal step a.k of the kernel block whose
// lanes start at c in Go. Chunks from `from` on did not run the step
// (every chunk, when Go runs the whole step): each runs it over its live
// lanes — svmcScoreScalar's draws, score and verdict — and Go applies
// its outright accepts. Then every live bracket-undecided lane of the
// step is settled with metropolis.Exact. tf selects TF moves, whose
// sweep width is sc.
func svmcFinishStep(st *svmcBatchScratch, reads []BatchRead, a *svmcStepArgs, c, from int, tf bool, sc float64) {
	for ch := from; ch < svmcChunks; ch++ {
		c0 := c + 8*ch
		if c0 >= len(reads) {
			break // no live lane; the kernel skips such a chunk too
		}
		am, em := svmcScoreScalar(st, a, c0, min(c0+8, len(reads)), tf, sc)
		shift := uint(8 * ch)
		a.exm = a.exm&^(0xFF<<shift) | uint16(em)<<shift
		for m := am; m != 0; m &= m - 1 {
			j := c0 + bits.TrailingZeros32(m)
			st.accepted[j]++
			svmcApply(st, reads[j].Prog, j, tf)
		}
	}
	for m := uint32(a.exm & a.live); m != 0; m &= m - 1 {
		j := c + bits.TrailingZeros32(m)
		if metropolis.Exact(st.u[j], a.beta*st.dE[j]) {
			st.accepted[j]++
			svmcApply(st, reads[j].Prog, j, tf)
		}
	}
}

// svmcApply moves lane j to its accepted proposal: the rotor takes the
// proposed (cos, sin) — and angle, for TF moves — and the change in z
// is scattered into the lane's local fields along row idx[j] of pr, in
// row order. svmcStepx8 is the only other applier, for the lanes it
// decides itself.
func svmcApply(st *svmcBatchScratch, pr *qubo.CSR, j int, tf bool) {
	i := int(st.idx[j])
	base := int(st.lanoff[j])
	bi := base + i
	nz := st.ncos[j]
	dz := nz - st.rot[2*bi]
	st.rot[2*bi] = nz
	st.rot[2*bi+1] = st.nsin[j]
	if tf {
		st.theta[bi] = st.nang[j]
	}
	field := st.fld[base:]
	cols, w := pr.Cols, pr.W
	for k := pr.Offsets[i]; k < pr.Offsets[i+1]; k++ {
		field[cols[k]] += w[k] * dz
	}
}

// svmcStage1Scalar is the Go stage 1 for the default (global-move)
// proposal over lanes [c0, c1): one bounded index draw, one angle draw,
// sinCosPi. It is the reference the AVX2 kernel must match bit for bit.
func svmcStage1Scalar(st *svmcBatchScratch, c0, c1 int, nb, negnb uint64) {
	rs0, rs1, rs2, rs3 := st.rs0, st.rs1, st.rs2, st.rs3
	idx, nsin, ncos := st.idx, st.nsin, st.ncos
	for j := c0; j < c1; j++ {
		s0, s1, s2, s3 := rs0[j], rs1[j], rs2[j], rs3[j]
		var x uint64
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		hi, lo := bits.Mul64(x, nb)
		for lo < negnb {
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			hi, lo = bits.Mul64(x, nb)
		}
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		rs0[j], rs1[j], rs2[j], rs3[j] = s0, s1, s2, s3
		u := float64(x>>11) * (1.0 / (1 << 53))
		sn, cs := sinCosPi(u)
		idx[j] = hi
		nsin[j], ncos[j] = sn, cs
	}
}

// svmcStage1TF is stage 1 for TF moves of width sc over lanes [c0, c1):
// the index draw, the gate draw, then the angle draw — exactly the
// one-read order. A local move steps from the rotor's current angle, so
// theta is live here.
func svmcStage1TF(st *svmcBatchScratch, c0, c1 int, nb, negnb uint64, sc float64) {
	rs0, rs1, rs2, rs3 := st.rs0, st.rs1, st.rs2, st.rs3
	idx, nsin, ncos, nang := st.idx, st.nsin, st.ncos, st.nang
	theta, lan := st.theta, st.lanoff
	for j := c0; j < c1; j++ {
		s0, s1, s2, s3 := rs0[j], rs1[j], rs2[j], rs3[j]
		var x uint64
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		hi, lo := bits.Mul64(x, nb)
		for lo < negnb {
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			hi, lo = bits.Mul64(x, nb)
		}
		i := int(hi)
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		global := float64(x>>11)*(1.0/(1<<53)) < sc
		var nt, sinNt, nz float64
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		if global {
			u := float64(x>>11) * (1.0 / (1 << 53))
			nt = math.Pi * u
			sinNt, nz = sinCosPi(u)
		} else {
			nt = theta[int(lan[j])+i] + (2*(float64(x>>11)*(1.0/(1<<53)))-1)*math.Pi*sc
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
		rs0[j], rs1[j], rs2[j], rs3[j] = s0, s1, s2, s3
		idx[j] = hi
		nang[j] = nt
		nsin[j], ncos[j] = sinNt, nz
	}
}

// svmcScoreScalar runs proposal step a.k in Go over lanes [c0, c1) of
// one 8-lane chunk: stage 1 (svmcStage1TF for TF moves of width sc,
// else svmcStage1Scalar), the dE score, the conditional uphill draw and
// the bracket verdict, materialized into the same per-lane arrays
// svmcStepx8 fills, with the verdicts as masks over the chunk's lanes:
// am (accepted outright) and em (bracket-undecided). It applies
// nothing; the caller applies the accepts. It also replays a chunk
// whose SIMD call bailed on a Lemire rejection — the kernel stores
// nothing in that case, so replaying from the untouched states is
// exact, rejection loop included.
func svmcScoreScalar(st *svmcBatchScratch, a *svmcStepArgs, c0, c1 int, tf bool, sc float64) (am, em uint32) {
	if tf {
		svmcStage1TF(st, c0, c1, a.nb, a.negnb, sc)
	} else {
		svmcStage1Scalar(st, c0, c1, a.nb, a.negnb)
	}
	// Score every lane before the first verdict, so no lane's rotor and
	// field loads wait behind another lane's unpredictable branch.
	rot, fld, lan, dEs := st.rot, st.fld, st.lanoff, st.dE
	na2, b2, beta := a.na2, a.b2, a.beta
	for j := c0; j < c1; j++ {
		bi := int(lan[j]) + int(st.idx[j])
		// Same expression tree as the reference kernel, so the rounding
		// is identical.
		dEs[j] = na2*(st.nsin[j]-rot[2*bi+1]) + b2*(st.ncos[j]-rot[2*bi])*fld[bi]
	}
	rs0, rs1, rs2, rs3 := st.rs0, st.rs1, st.rs2, st.rs3
	for j := c0; j < c1; j++ {
		dE := dEs[j]
		bit := uint(j - c0)
		if dE <= 0 {
			am |= 1 << bit
			continue
		}
		s0, s1, s2, s3 := rs0[j], rs1[j], rs2[j], rs3[j]
		var x uint64
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		rs0[j], rs1[j], rs2[j], rs3[j] = s0, s1, s2, s3
		u := float64(x>>11) * (1.0 / (1 << 53))
		st.u[j] = u
		// v is +1, 0 or −1: accept, undecided, reject.
		v := metropolis.Bracket(u, beta*dE)
		am |= uint32(v+1) >> 1 << bit
		em |= uint32(v&1^1) << bit
	}
	return am, em
}

// svmcObserveSweep reports one sweep to every probed read of the group —
// the read's state projected to sign(cos θ), its problem-frame energy,
// and the sweep's accept count — and resets every lane's count.
func svmcObserveSweep(tab *sweepTable, sweep, n int, reads []BatchRead, st *svmcBatchScratch) {
	spins := st.probeSpins
	for j := range reads {
		if probe := reads[j].Probe; probe != nil {
			z := st.rot[2*int(st.lanoff[j]):]
			for i := range spins {
				if z[2*i] >= 0 {
					spins[i] = 1
				} else {
					spins[i] = -1
				}
			}
			probe.ObserveSweep(SweepObservation{
				Sweep: sweep, TotalSweeps: tab.sweeps(), TimeMicros: tab.t[sweep], S: tab.s[sweep],
				Energy: reads[j].Prog.Energy(spins), Accepted: st.accepted[j], Proposed: n,
			})
		}
		st.accepted[j] = 0
	}
}
