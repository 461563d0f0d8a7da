package annealer

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// obsLog collects probe observations by the read index readProbe
// stamps on them (single-goroutine use only).
type obsLog map[int][]SweepObservation

func (l obsLog) ObserveSweep(ob SweepObservation) { l[ob.Read] = append(l[ob.Read], ob) }

// probeFor returns read j's probe: a read-stamping wrapper around log,
// as the batch runner attaches it, or nil when log is nil.
func probeFor(log obsLog, j int) Probe {
	if log == nil {
		return nil
	}
	return readProbe{log, j}
}

// lanes assigns each read of a group its problem and initial state:
// read j runs prs[j%len(prs)] from inits[j%len(inits)], or from no
// initial state when inits is empty.
type lanes struct {
	prs   []*qubo.CSR
	inits [][]int8
	// rows, when set, holds prs[k]'s dense row table at rows[k]; the
	// groups otherwise build each one as PrepareProblem does.
	rows []*svmcRows
}

// oneProblem is the lane assignment of a single-problem group.
func oneProblem(pr *qubo.CSR, init []int8) lanes {
	return lanes{prs: []*qubo.CSR{pr}, inits: [][]int8{init}}
}

func (ln lanes) at(j int) (*qubo.CSR, []int8) {
	var init []int8
	if len(ln.inits) > 0 {
		init = ln.inits[j%len(ln.inits)]
	}
	return ln.prs[j%len(ln.prs)], init
}

// rowsAt returns read j's dense row table: the lanes' own, or one built
// from its problem when it has at most svmcRowSpins spins, else nil.
func (ln lanes) rowsAt(j int) *svmcRows {
	if len(ln.rows) > 0 {
		return ln.rows[j%len(ln.rows)]
	}
	pr, _ := ln.at(j)
	if pr.N > svmcRowSpins {
		return nil
	}
	return newSVMCRows(pr)
}

// lockstepGroup runs reads of one group through the engine's production
// kernel, probing every read into log when log is non-nil.
func lockstepGroup(t testing.TB, eng Engine, sc *Schedule, prof Profile, rate float64,
	ln lanes, reads int, seed uint64, log obsLog) ([][]int8, []rng.Source) {
	t.Helper()
	kernel, err := eng.Prepare(sc, prof, rate)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]int8, reads)
	rngs := make([]rng.Source, reads)
	group := make([]BatchRead, reads)
	root := rng.New(seed)
	for j := 0; j < reads; j++ {
		pr, init := ln.at(j)
		outs[j] = make([]int8, pr.N)
		root.SplitInto(&rngs[j], uint64(j))
		group[j] = BatchRead{Prog: pr, Init: init, Out: outs[j], Rng: &rngs[j], Probe: probeFor(log, j), rows: ln.rowsAt(j)}
	}
	kernel(group)
	return outs, rngs
}

// sequentialGroup runs the same reads one at a time through the
// one-read reference kernel.
func sequentialGroup(t testing.TB, eng Engine, sc *Schedule, prof Profile, rate float64,
	ln lanes, reads int, seed uint64, log obsLog) ([][]int8, []rng.Source) {
	t.Helper()
	read, err := prepareReference(eng, sc, prof, rate)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]int8, reads)
	rngs := make([]rng.Source, reads)
	root := rng.New(seed)
	for j := 0; j < reads; j++ {
		pr, init := ln.at(j)
		outs[j] = make([]int8, pr.N)
		root.SplitInto(&rngs[j], uint64(j))
		read(pr, init, outs[j], &rngs[j], probeFor(log, j))
	}
	return outs, rngs
}

// assertGroupsEqual compares spins and final RNG states read by read.
func assertGroupsEqual(t *testing.T, label string, seqOuts, batchOuts [][]int8, seqRngs, batchRngs []rng.Source) {
	t.Helper()
	for j := range seqOuts {
		for i := range seqOuts[j] {
			if seqOuts[j][i] != batchOuts[j][i] {
				t.Fatalf("%s: read %d spin %d: sequential %d, lockstep %d",
					label, j, i, seqOuts[j][i], batchOuts[j][i])
			}
		}
		a0, a1, a2, a3 := seqRngs[j].State()
		b0, b1, b2, b3 := batchRngs[j].State()
		if a0 != b0 || a1 != b1 || a2 != b2 || a3 != b3 {
			t.Fatalf("%s: read %d: final RNG state diverged", label, j)
		}
	}
}

// sameBits reports whether two floats are the same IEEE-754 value, bit
// for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// assertObservationsEqual requires each read's lockstep observation
// stream to equal the reference kernel's field by field, bit for bit.
func assertObservationsEqual(t *testing.T, label string, reads int, seq, batch obsLog) {
	t.Helper()
	for j := 0; j < reads; j++ {
		want, got := seq[j], batch[j]
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("%s: read %d: %d lockstep observations, reference %d", label, j, len(got), len(want))
		}
		for s := range want {
			w, g := want[s], got[s]
			if g.Read != w.Read || g.Sweep != w.Sweep || g.TotalSweeps != w.TotalSweeps ||
				!sameBits(g.TimeMicros, w.TimeMicros) || !sameBits(g.S, w.S) || !sameBits(g.Energy, w.Energy) ||
				g.Accepted != w.Accepted || g.Proposed != w.Proposed || len(g.ReplicaEnergies) != len(w.ReplicaEnergies) {
				t.Fatalf("%s: read %d observation %d: lockstep %+v, reference %+v", label, j, s, g, w)
			}
			for k := range w.ReplicaEnergies {
				if !sameBits(g.ReplicaEnergies[k], w.ReplicaEnergies[k]) {
					t.Fatalf("%s: read %d observation %d replica %d: lockstep %v, reference %v",
						label, j, s, k, g.ReplicaEnergies[k], w.ReplicaEnergies[k])
				}
			}
		}
	}
}

// checkLockstepMatches runs one group through the production kernel,
// unprobed and probed, and through the probed reference kernel. It
// requires identical spins and final RNG states across all three,
// identical per-read observation streams from the two probed runs, and,
// for SVMC, identical local fields right after the start.
func checkLockstepMatches(t *testing.T, label string, eng Engine, sc *Schedule, prof Profile,
	ln lanes, reads int, seed uint64) {
	t.Helper()
	const rate = 50
	seqLog, batchLog := obsLog{}, obsLog{}
	seqOuts, seqRngs := sequentialGroup(t, eng, sc, prof, rate, ln, reads, seed, seqLog)
	batchOuts, batchRngs := lockstepGroup(t, eng, sc, prof, rate, ln, reads, seed, nil)
	probedOuts, probedRngs := lockstepGroup(t, eng, sc, prof, rate, ln, reads, seed, batchLog)
	assertGroupsEqual(t, label, seqOuts, batchOuts, seqRngs, batchRngs)
	assertGroupsEqual(t, label+"/probed-vs-unprobed", batchOuts, probedOuts, batchRngs, probedRngs)
	assertObservationsEqual(t, label, reads, seqLog, batchLog)
	if e, ok := eng.(SVMC); ok {
		checkSVMCStartFields(t, label, e, sc, prof, rate, ln, reads)
	}
}

// checkSVMCStartFields requires every lane's local fields, right after
// the lockstep kernel's start, to equal the one-read reference kernel's
// after its start bit for bit. The dynamics only read the fields through
// Metropolis verdicts, so a last-bit change in their summation order
// would otherwise show only as a rare flipped verdict.
func checkSVMCStartFields(t *testing.T, label string, eng SVMC, sc *Schedule, prof Profile, rate float64, ln lanes, reads int) {
	t.Helper()
	prog, err := eng.compile(sc, prof, rate)
	if err != nil {
		t.Fatal(err)
	}
	group := make([]BatchRead, reads)
	srcs := make([]rng.Source, reads)
	for j := range group {
		pr, init := ln.at(j)
		group[j] = BatchRead{Prog: pr, Init: init, Rng: &srcs[j]}
	}
	n := group[0].Prog.N
	st := new(svmcBatchScratch)
	np := st.ensure(reads, n, prog.scale != nil)
	st.start(prog, group, np)
	ref := new(svmcScratch)
	ref.ensure(n)
	for j := range group {
		ref.start(group[j].Prog, prog.startsClassical, group[j].Init)
		for i, want := range ref.zField {
			if got := st.fld[j*np+i]; !sameBits(got, want) {
				t.Fatalf("%s: read %d field %d after start: lockstep %v, reference %v", label, j, i, got, want)
			}
		}
	}
}

// mixedLanes builds the lanes of a mixed-problem group: three problems of
// n spins with different coefficients AND different CSR topologies
// (densities 0.15, 0.5, 0.9; an exact-zero coupling is no edge at all),
// and, for reverse schedules, a different random initial state per lane.
func mixedLanes(t testing.TB, r *rng.Source, n, reads int, reverse bool) lanes {
	t.Helper()
	var ln lanes
	for _, density := range []float64{0.15, 0.5, 0.9} {
		pr := qubo.NewCSR(randomIsing(t, r, n, density))
		pr.Normalize()
		ln.prs = append(ln.prs, pr)
	}
	if ln.prs[0].Offsets[n] == ln.prs[2].Offsets[n] {
		t.Fatal("mixed lanes share a topology")
	}
	if reverse {
		for j := 0; j < reads; j++ {
			init := make([]int8, n)
			for i := range init {
				init[i] = r.Spin()
			}
			ln.inits = append(ln.inits, init)
		}
	}
	return ln
}

// fullRowLanes builds the lanes of a group that mixes row shapes: a
// dense n-spin problem, whose rows are all full (every other spin a
// neighbour), the same problem one coupling short, so two of its rows
// mask a hole, and an ICE-noised program of the dense one (as the
// odd-indexed fleet devices run), which shares its topology but not its
// coefficients. For reverse schedules each lane gets its own random
// initial state.
func fullRowLanes(t testing.TB, r *rng.Source, n, reads int, reverse bool) lanes {
	t.Helper()
	dense := randomIsing(t, r, n, 1)
	short := dense.Clone()
	short.SetCoupling(0, n-1, 0)
	var ln lanes
	for _, is := range []*qubo.Ising{dense, short} {
		pr := qubo.NewCSR(is)
		pr.Normalize()
		ln.prs = append(ln.prs, pr)
	}
	if full := int32(n - 1); ln.prs[0].Offsets[1] != full || ln.prs[1].Offsets[1] != full-1 {
		t.Fatalf("full-row lanes: row 0 has %d and %d entries, want %d and %d",
			ln.prs[0].Offsets[1], ln.prs[1].Offsets[1], full, full-1)
	}
	ice := new(qubo.CSR)
	sigma := DWave2000QICE()
	var buf []float64
	applyGaussianCSR(ice, ln.prs[0], nil, []gaussNoise{{sigma.SigmaH, sigma.SigmaJ, r}}, &buf)
	ln.prs = append(ln.prs, ice)
	if reverse {
		for j := 0; j < reads; j++ {
			init := make([]int8, n)
			for i := range init {
				init[i] = r.Spin()
			}
			ln.inits = append(ln.inits, init)
		}
	}
	return ln
}

// holeLanes builds the lanes of a group whose rows have holes: exact-zero
// couplings the problem drops, which the dense row tables mask. Two
// problems derive from one dense n-spin problem (n ≥ 6): the first
// drops (0, 1) and (0, n−1), so rows miss column 0, column n−1, and a
// column next to their own; the second drops (2, 3), (2, 4), (n−2, n−1)
// and (1, n−1), so row 2 misses two adjacent columns and holes sit
// inside the first and last quads, beside the spin itself and, when n
// is not a multiple of 4, beside the padding. The third lane is an
// ICE-noised program of the first, programmed as the run body programs
// a noisy read: into a per-read table that shares the first's masks and
// whose masked slots hold stale weights, as a pooled table's do. For
// reverse schedules each lane gets its own random initial state.
func holeLanes(t testing.TB, r *rng.Source, n, reads int, reverse bool) lanes {
	t.Helper()
	dense := randomIsing(t, r, n, 1)
	var ln lanes
	for _, holes := range [][][2]int{{{0, 1}, {0, n - 1}}, {{2, 3}, {2, 4}, {n - 2, n - 1}, {1, n - 1}}} {
		is := dense.Clone()
		for _, h := range holes {
			is.SetCoupling(h[0], h[1], 0)
		}
		pr := qubo.NewCSR(is)
		pr.Normalize()
		if got, want := int(pr.Offsets[n]), n*(n-1)-2*len(holes); got != want {
			t.Fatalf("hole lanes: %d CSR entries, want %d", got, want)
		}
		ln.prs, ln.rows = append(ln.prs, pr), append(ln.rows, newSVMCRows(pr))
	}
	ice := new(qubo.CSR)
	stale := &svmcRows{w: make([]float64, len(ln.rows[0].w)), mask: ln.rows[0].mask}
	for k := range stale.w {
		stale.w[k] = 0.75
	}
	sigma := DWave2000QICE()
	var buf []float64
	applyGaussianCSR(ice, ln.prs[0], stale, []gaussNoise{{sigma.SigmaH, sigma.SigmaJ, r}}, &buf)
	ln.prs, ln.rows = append(ln.prs, ice), append(ln.rows, stale)
	if reverse {
		for j := 0; j < reads; j++ {
			init := make([]int8, n)
			for i := range init {
				init[i] = r.Spin()
			}
			ln.inits = append(ln.inits, init)
		}
	}
	return ln
}

// uplinkLanes builds the lanes of the uplink-16qam workload: two 8-user
// 16-QAM frames (32 logical spins each), each started from its
// greedy-search candidate as the serve loads a reverse anneal. Logical
// lanes are compiled the way a default QPU lease serves them: the
// 32-spin CSR, normalized. Embedded lanes are compiled the way a chain
// lease does — clique-embedded onto Chimera and normalized, so most rows
// are chain rows and idle qubits have empty ones — and start from the
// candidate embedded chain by chain. Lanes alternate between the two
// frames.
func uplinkLanes(tb testing.TB, embedded bool) lanes {
	tb.Helper()
	q := NewQPU2000Q()
	var ln lanes
	for _, seed := range []uint64{0xBE9C, 0x5EED} {
		in, err := instance.Synthesize(instance.Spec{Users: 8, Scheme: modulation.QAM16, Seed: seed})
		if err != nil {
			tb.Fatal(err)
		}
		logical := in.Reduction.Ising
		cand := qubo.GreedySearchIsing(logical, qubo.OrderDescending)
		if !embedded {
			pr := qubo.NewCSR(logical)
			pr.Normalize()
			ln.prs = append(ln.prs, pr)
			ln.inits = append(ln.inits, cand)
			continue
		}
		emb, pr, err := q.prepareEmbedded(logical)
		if err != nil {
			tb.Fatal(err)
		}
		ln.prs = append(ln.prs, pr)
		ln.inits = append(ln.inits, emb.EmbedSpins(cand))
	}
	if ln.prs[0].N != ln.prs[1].N {
		tb.Fatal("uplink frames embed at different sizes")
	}
	return ln
}

// TestLockstepMatchesSequential is the lockstep≡sequential equivalence
// property test: across engines, schedule shapes, problem shapes and
// group sizes (including partial groups, and SVMC's twelve- and
// sixteen-read groups: one full 8-lane chunk plus a chunk with only its
// first half live, and two full chunks; twenty reads span two SVMC
// kernel blocks), the production lockstep kernel
// must reproduce the one-read reference kernel bit for bit — same spins,
// same final RNG state, and with a probe attached the same per-sweep
// observations for every read. The mixed cases pack lanes of different
// problems of one size, each with its own initial state, into one group,
// as the run body does across the runs of a multi-run batch. The
// full-row cases mix, in one group, lanes whose rows are all full, a
// problem one coupling short and an ICE-noised program, at sizes that
// give the dense apply one, two and eight quads of fields, with and
// without padding. The hole cases put the masked columns where the
// dense apply's quads and mask shifts must get them right (holeLanes),
// with an ICE-noised lane programmed into a stale per-read table.
func TestLockstepMatchesSequential(t *testing.T) {
	prof := DWave2000QProfile()
	r := rng.New(0x10c)
	for _, tc := range []struct {
		name string
		eng  Engine
	}{
		{"svmc", SVMC{}},
		{"svmc-tf", SVMC{TFMoves: true}},
		{"pimc", PIMC{Slices: 16}},
		{"pimc-p3", PIMC{Slices: 3}},
	} {
		for _, n := range []int{1, 5, 33} {
			for _, reads := range []int{1, 3, 8, 11, 12, 16, 20} {
				for _, sched := range []string{"forward", "reverse"} {
					name := fmt.Sprintf("%s/n=%d/reads=%d/%s", tc.name, n, reads, sched)
					t.Run(name, func(t *testing.T) {
						is := randomIsing(t, r, n, 0.4)
						pr := qubo.NewCSR(is)
						pr.Normalize()
						var sc *Schedule
						var err error
						var init []int8
						if sched == "forward" {
							sc, err = Forward(1, 0.41, 1)
						} else {
							sc, err = Reverse(0.55, 0.6)
							init = make([]int8, n)
							for i := range init {
								init[i] = int8(1 - 2*(i%2))
							}
						}
						if err != nil {
							t.Fatal(err)
						}
						checkLockstepMatches(t, name, tc.eng, sc, prof, oneProblem(pr, init), reads, r.Uint64())
					})
				}
			}
		}
		for _, reads := range []int{8, 11, 16} {
			for _, reverse := range []bool{false, true} {
				name := fmt.Sprintf("%s/mixed/n=17/reads=%d/reverse=%v", tc.name, reads, reverse)
				t.Run(name, func(t *testing.T) {
					sc, err := Forward(1, 0.41, 1)
					if reverse {
						sc, err = Reverse(0.55, 0.6)
					}
					if err != nil {
						t.Fatal(err)
					}
					ln := mixedLanes(t, r, 17, reads, reverse)
					checkLockstepMatches(t, name, tc.eng, sc, prof, ln, reads, r.Uint64())
				})
			}
		}
		for _, shape := range []struct {
			name  string
			ns    []int
			lanes func(testing.TB, *rng.Source, int, int, bool) lanes
		}{{"full-rows", []int{3, 6, 30, 32}, fullRowLanes}, {"holes", []int{6, 16, 32}, holeLanes}} {
			for _, n := range shape.ns {
				for _, reads := range []int{12, 16} {
					for _, reverse := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/n=%d/reads=%d/reverse=%v", tc.name, shape.name, n, reads, reverse)
						t.Run(name, func(t *testing.T) {
							sc, err := Forward(1, 0.41, 1)
							if reverse {
								sc, err = Reverse(0.45, 1)
							}
							if err != nil {
								t.Fatal(err)
							}
							ln := shape.lanes(t, r, n, reads, reverse)
							checkLockstepMatches(t, name, tc.eng, sc, prof, ln, reads, r.Uint64())
						})
					}
				}
			}
		}
	}
	// The serve-shaped groups: two uplink frames, reverse-annealed at
	// s_p 0.45 from their greedy candidates, in an 8-lane group, in
	// uplink's common 12-read group and in a full 16-read one — on the
	// 32-spin logical problem a default QPU lease serves and on the
	// clique-embedded one a chain lease runs.
	for _, path := range []string{"embedded", "logical"} {
		for _, reads := range []int{8, 12, 16} {
			label := "svmc/uplink-" + path
			t.Run(fmt.Sprintf("%s/reads=%d/reverse", label, reads), func(t *testing.T) {
				sc, err := Reverse(0.45, 1)
				if err != nil {
					t.Fatal(err)
				}
				checkLockstepMatches(t, label, SVMC{}, sc, prof, uplinkLanes(t, path == "embedded"), reads, r.Uint64())
			})
		}
	}
}

// randomIsing builds a dense-ish random problem with Gaussian couplings.
func randomIsing(t testing.TB, r *rng.Source, n int, density float64) *qubo.Ising {
	t.Helper()
	is := qubo.NewIsing(n)
	for i := 0; i < n; i++ {
		is.H[i] = r.NormFloat64()
		for j := i + 1; j < n; j++ {
			if r.Float64() < density {
				is.SetCoupling(i, j, r.NormFloat64())
			}
		}
	}
	return is
}
