package annealer

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/metropolis"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// Lockstep simulated annealing: up to eight independent SA reads of one
// Ising model advance through the same (sweep, step) loop, one lane per
// read, each on its own stream. A one-read SA loop is bound by branch
// mispredicts — about 85% of proposals are uphill and about 30% accept,
// so the accept branch is a coin flip the predictor cannot learn. The
// AVX2 step (saStepx8, sa_simd_amd64.s) computes all eight lanes'
// index draw, (spin, field) gather, energy delta, conditional uphill
// draw and exp-bracket verdict as vector masks, and applies every
// decided accept itself; Go handles only the rare bracket-undecided
// lanes and saves the spins of lanes that reached a new best. Every
// lane draws from its stream in exactly the one-read order (index
// draw, then one uniform per uphill proposal) and every float op rounds
// as in qubo.SimulatedAnnealingFrom, so each lane's sample and final
// RNG state are bit-identical to a one-read run —
// TestSAGroupMatchesOneRead holds the two together.
//
// Lane state is struct-of-arrays: spins (stored as g = −2·spin, the
// exact first factor of the one-read dE = −2·s·f) and local fields in
// two lane-major float64 arrays with a row stride np = N rounded up to
// 4. Accepting a flip of spin i adds a dense signed row to the lane's
// fields: rows[i] holds 2·J·1 and rows[N+i] holds 2·J·(−1) at every
// coupled column — the one-read update's own expression — and −0
// everywhere else (the diagonal, absent couplings, the padding). Since
// x + (−0) == x for every x, adding the whole row is bit-identical to
// the one-read per-coupling adds, and exact-zero couplings keep their
// signed-zero contributions.
//
// One lane driver serves two solvers. Each lane owns k state buffers
// in the g/field block, laid out [8][k][np], and the kernel steps the
// buffer lanoff[j] points at. Simulated annealing is the k = 1 case
// with a per-sweep β; parallel tempering (pt_group.go) retargets lanoff
// at each replica's buffer before that replica's sweep at its rung's β.
// The driver — the kernel call, the exact settle of undecided lanes,
// the best-spin save, apply and stepScalar — reads every buffer
// through lanoff, so neither solver keeps its own copy.

// saGroupMaxN bounds the dense row table (2·64·64 float64 = 64 KiB).
// Larger models run their lanes through the one-read path.
const saGroupMaxN = 64

// saStepArgs is saStepx8's argument block, per-lane arrays inline, at
// the fixed offsets sa_simd_amd64.s reads (TestSAStepArgsLayout). One
// saStepx8 call runs one proposal step for all eight lanes:
//
//   - the index draw from rs0..rs3 into idx, then the energy delta
//     dE = g·f of lane j's spin g = spins[lanoff[j]+idx[j]] (stored as
//     −2·spin) and field f = field[lanoff[j]+idx[j]];
//   - for lanes with dE > 0, the uphill uniform u and the exp-bracket
//     verdict; lanes the bracket cannot decide set their bit in exm,
//     and the caller settles u < exp(−beta·dE) with metropolis.Exact;
//   - for every decided accept of a lane in live: g negated, the signed
//     row rows[(idx or n+idx)·np :][:np] added to the lane's fields,
//     dE added to energy, and — when energy drops below bestE — bestE
//     updated and the lane's bit set in bestm, so the caller can copy
//     the lane's spins.
//
// A padding lane (outside live) carries lanoff 0 so its gathers stay in
// bounds; it is advanced but never applied. If any lane's index draw
// hits the Lemire rejection (probability n/2⁶⁴ per lane, never for n a
// power of 2) the kernel returns false WITHOUT writing anything and the
// caller replays the step through stepScalar. Requires nb < 2³²,
// nonzero states and AVX2 (hasBatchSIMD).
type saStepArgs struct {
	rs0, rs1, rs2, rs3 [8]uint64  // +0 +64 +128 +192
	idx                [8]uint64  // +256
	lanoff             [8]uint64  // +320
	dE, u              [8]float64 // +384 +448
	energy, bestE      [8]float64 // +512 +576
	spins, field, rows *float64   // +640 +648 +656
	bounds             *float64   // +664
	nb, negnb          uint64     // +672 +680
	n, np              uint64     // +688 +696
	beta               float64    // +704
	live               uint32     // +712
	exm, bestm         uint32     // +716 +720 (kernel-written)
}

// saGroupScratch is one group's working set, pooled across calls. Each
// lane owns k state buffers (k = 1 for SA, the replica count for PT)
// and lanoff[j] points the kernel at the one lane j is stepping.
type saGroupScratch struct {
	args     saStepArgs
	rows     []float64 // [2N][np] signed coupling rows
	g, field []float64 // lane-major [8][k][np]: −2·spin and local field
	bestG    []float64 // lane-major [8][np]: g at each lane's best energy
	start    []int8    // one buffer's initial spins
	// PT only: slot[j·k+i] is the buffer (within lane j) replica i
	// occupies, energy[j·k+b] the energy of lane j's buffer b, and
	// betas the replica ladder.
	slot   []int
	energy []float64
	betas  []float64
	src    rng.Source // scratch stream: PT's random starts and exchanges
}

var saGroupPool = sync.Pool{New: func() any { return new(saGroupScratch) }}

// saForceScalar makes every group step take the scalar replay;
// TestSAGroupScalarMatchesSIMD sets it.
var saForceScalar = false

// saRowSigns are the new spin values a flip can produce, kept in a
// variable so the row build multiplies by ±1 at run time exactly as the
// one-read update does (a constant −1 could fold into a negation, which
// differs from the multiply on NaN signs).
var saRowSigns = [2]int8{1, -1}

// SimulatedAnnealingGroup runs len(rs) ≤ 8 independent simulated-
// annealing reads of is and stores lane j's result in out[j]. Lane j is
// bit-identical to qubo.SimulatedAnnealingFrom(is, rs[j], starts[j],
// opts) — or, when starts is nil or starts[j] is nil, to
// qubo.SimulatedAnnealing(is, rs[j], opts) — sample and final rs[j]
// state alike. Models above 64 spins, adjacency the dense rows cannot
// represent (self-couplings, repeated or out-of-range neighbours),
// explicit starts of the wrong length, and hosts without AVX2 run each
// lane through the one-read path.
func SimulatedAnnealingGroup(is *qubo.Ising, rs []*rng.Source, starts [][]int8, opts qubo.SAOptions, out []qubo.Sample) {
	startOf := func(j int) []int8 {
		if starts == nil {
			return nil
		}
		return starts[j]
	}
	st := saGroupPool.Get().(*saGroupScratch)
	defer saGroupPool.Put(st)
	if !st.begin(is, len(rs), 1) || !startsFit(starts, is.N) {
		for j, r := range rs {
			if s := startOf(j); s != nil {
				out[j] = qubo.SimulatedAnnealingFrom(is, r, s, opts)
			} else {
				out[j] = qubo.SimulatedAnnealing(is, r, opts)
			}
		}
		return
	}
	opts = opts.WithDefaults()
	a := &st.args
	np := int(a.np)

	// Lane initialisation, in the one-read order: the random start (if
	// any) is drawn from the lane's stream before its state is captured.
	for j, r := range rs {
		sp := st.start
		if s := startOf(j); s != nil {
			copy(sp, s)
		} else {
			for i := range sp {
				sp[i] = r.Spin()
			}
		}
		a.energy[j] = st.load(is, sp, j*np)
		a.bestE[j] = a.energy[j]
		copy(st.bestG[j*np:(j+1)*np], st.g[j*np:(j+1)*np])
		a.rs0[j], a.rs1[j], a.rs2[j], a.rs3[j] = r.State()
		a.lanoff[j] = uint64(j * np)
	}

	ratio := 1.0
	if opts.Sweeps > 1 {
		ratio = math.Pow(opts.BetaEnd/opts.BetaStart, 1/float64(opts.Sweeps-1))
	}
	beta := opts.BetaStart
	for sweep := 0; sweep < opts.Sweeps; sweep++ {
		st.sweep(beta)
		beta *= ratio
	}
	for j, r := range rs {
		r.SetState(a.rs0[j], a.rs1[j], a.rs2[j], a.rs3[j])
	}
	st.results(is.N, out[:len(rs)])
}

// begin readies the scratch for a group of w ≤ 8 lanes on is with k
// state buffers per lane: the dense rows, the buffers, and the step
// arguments, with the padding lanes' streams seeded. It reports false —
// the caller then runs the one-read path — when the group cannot run
// is: no AVX2, N outside [1, 64], or adjacency the rows cannot
// represent.
func (st *saGroupScratch) begin(is *qubo.Ising, w, k int) bool {
	if w > lockstepWidth {
		panic("annealer: lockstep group wider than 8 lanes")
	}
	n := is.N
	if !hasBatchSIMD || n < 1 || n > saGroupMaxN || !st.buildRows(is) {
		return false
	}
	np := (n + 3) &^ 3
	st.ensure(n, np, k)
	a := &st.args
	*a = saStepArgs{
		spins: &st.g[0], field: &st.field[0], rows: &st.rows[0],
		bounds: &metropolis.Bounds[0],
		nb:     uint64(n), negnb: lemireThreshold(n), n: uint64(n), np: uint64(np),
		live: uint32(1)<<uint(w) - 1,
	}
	// Padding lanes: any nonzero xoshiro state works — they are advanced
	// alongside the real lanes and never applied, and lanoff 0 keeps
	// their gathers in bounds.
	for j := w; j < lockstepWidth; j++ {
		a.rs0[j], a.rs1[j], a.rs2[j], a.rs3[j] = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, uint64(j)+1
	}
	return true
}

// load writes the buffer at offset off from the spins sp — g = −2·s
// and the local fields, padding zeroed — and returns the energy of sp.
func (st *saGroupScratch) load(is *qubo.Ising, sp []int8, off int) float64 {
	np := int(st.args.np)
	g, f := st.g[off:off+np], st.field[off:off+np]
	for i := range g {
		g[i], f[i] = 0, 0
	}
	for i, s := range sp {
		g[i] = -2 * float64(s)
		f[i] = is.LocalField(sp, i)
	}
	return is.Energy(sp)
}

// sweep runs one Metropolis sweep — N lockstep steps at inverse
// temperature beta — on the buffers lanoff points at: the kernel step
// (or its scalar replay), then the rare lanes the kernel leaves to Go:
// bracket-undecided proposals, and new bests whose spins must be saved.
func (st *saGroupScratch) sweep(beta float64) {
	a := &st.args
	a.beta = beta
	np := int(a.np)
	for k := uint64(0); k < a.n; k++ {
		if saForceScalar || !saStepx8(a) {
			st.stepScalar()
		}
		bestm := a.bestm
		for ex := a.exm & a.live; ex != 0; ex &= ex - 1 {
			j := bits.TrailingZeros32(ex)
			if metropolis.Exact(a.u[j], beta*a.dE[j]) && st.apply(j) {
				bestm |= 1 << uint(j)
			}
		}
		for ; bestm != 0; bestm &= bestm - 1 {
			j := bits.TrailingZeros32(bestm)
			o := int(a.lanoff[j])
			copy(st.bestG[j*np:(j+1)*np], st.g[o:o+np])
		}
	}
}

// results stores each live lane's best sample — spins decoded from
// bestG, energy bestE — in out, the spins of all lanes in one
// allocation.
func (st *saGroupScratch) results(n int, out []qubo.Sample) {
	a := &st.args
	np := int(a.np)
	best := make([]int8, len(out)*n)
	for j := range out {
		spins := best[j*n : (j+1)*n : (j+1)*n]
		for i := range spins {
			spins[i] = -1
			if st.bestG[j*np+i] < 0 {
				spins[i] = 1
			}
		}
		out[j] = qubo.Sample{Spins: spins, Energy: a.bestE[j]}
	}
}

// startsFit reports whether every explicit start has n spins.
func startsFit(starts [][]int8, n int) bool {
	for _, s := range starts {
		if s != nil && len(s) != n {
			return false
		}
	}
	return true
}

// ensure sizes the lane arrays for n spins at row stride np with k
// buffers per lane.
func (st *saGroupScratch) ensure(n, np, k int) {
	size := lockstepWidth * k * np
	if cap(st.g) < size {
		st.g = make([]float64, size)
		st.field = make([]float64, size)
	}
	st.g, st.field = st.g[:size], st.field[:size]
	if cap(st.bestG) < lockstepWidth*np {
		st.bestG = make([]float64, lockstepWidth*np)
	}
	st.bestG = st.bestG[:lockstepWidth*np]
	if cap(st.start) < n {
		st.start = make([]int8, n)
	}
	st.start = st.start[:n]
	if cap(st.slot) < lockstepWidth*k {
		st.slot = make([]int, lockstepWidth*k)
		st.energy = make([]float64, lockstepWidth*k)
	}
	st.slot, st.energy = st.slot[:lockstepWidth*k], st.energy[:lockstepWidth*k]
}

// buildRows fills the signed coupling rows for is (1 ≤ N ≤ 64) and
// reports whether they represent its adjacency exactly: every neighbour
// in range, no self-coupling, no neighbour listed twice in one row.
func (st *saGroupScratch) buildRows(is *qubo.Ising) bool {
	n := is.N
	np := (n + 3) &^ 3
	if cap(st.rows) < 2*n*np {
		st.rows = make([]float64, 2*n*np)
	}
	rows := st.rows[:2*n*np]
	negZero := math.Copysign(0, -1)
	for c := range rows {
		rows[c] = negZero
	}
	for i, adj := range is.Adj {
		var seen uint64
		for _, c := range adj {
			if c.To < 0 || c.To >= n || c.To == i || seen&(1<<uint(c.To)) != 0 {
				return false
			}
			seen |= 1 << uint(c.To)
			for h, sgn := range saRowSigns {
				rows[(h*n+i)*np+c.To] = 2 * c.J * float64(sgn)
			}
		}
	}
	st.rows = rows
	return true
}

// apply accepts lane j's current proposal — the Go twin of the
// kernel's apply loop: negate g, add the new spin's row to the lane's
// fields, add dE to the energy. It reports whether the lane reached a
// new best energy (bestE is updated; the caller copies the spins).
func (st *saGroupScratch) apply(j int) bool {
	a := &st.args
	n, np := int(a.n), int(a.np)
	lane := int(a.lanoff[j])
	i := int(a.idx[j])
	g := -st.g[lane+i]
	st.g[lane+i] = g
	row := i
	if g > 0 {
		row += n // the new spin is −1
	}
	f, r := st.field[lane:lane+np], st.rows[row*np:(row+1)*np]
	for c := range f {
		f[c] += r[c]
	}
	a.energy[j] += a.dE[j]
	if a.energy[j] < a.bestE[j] {
		a.bestE[j] = a.energy[j]
		return true
	}
	return false
}

// stepScalar is the scalar reference for saStepx8: the same eight-lane
// step — index draw (Lemire rejection loop included), dE, conditional
// uphill draw, bracket verdict, and the apply of every decided accept
// of a live lane — with the same outputs. It replays a step whose SIMD
// call bailed on a Lemire rejection; the kernel stores nothing then, so
// replaying from the untouched states is exact.
func (st *saGroupScratch) stepScalar() {
	a := &st.args
	var exm, bestm uint32
	for j := 0; j < lockstepWidth; j++ {
		s0, s1, s2, s3 := a.rs0[j], a.rs1[j], a.rs2[j], a.rs3[j]
		var x uint64
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		hi, lo := bits.Mul64(x, a.nb)
		for lo < a.negnb {
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			hi, lo = bits.Mul64(x, a.nb)
		}
		a.idx[j] = hi
		o := int(a.lanoff[j] + hi)
		dE := st.g[o] * st.field[o]
		a.dE[j] = dE
		bit := uint32(1) << uint(j)
		accept := dE <= 0
		if !accept {
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			u := float64(x>>11) * (1.0 / (1 << 53))
			a.u[j] = u
			switch metropolis.Bracket(u, a.beta*dE) {
			case 1:
				accept = true
			case 0:
				exm |= bit
			}
		}
		a.rs0[j], a.rs1[j], a.rs2[j], a.rs3[j] = s0, s1, s2, s3
		if accept && a.live&bit != 0 && st.apply(j) {
			bestm |= bit
		}
	}
	a.exm, a.bestm = exm, bestm
}
