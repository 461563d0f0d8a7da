package annealer

import (
	"fmt"
	"testing"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// TestLockstepScalarMatchesSIMD pins the Go proposal step against the
// reference: with the SIMD gate forced off, every step of the lockstep
// group runs in Go (svmcFinishStep), and the group must still reproduce
// the one-read reference kernel bit for bit, unprobed and probed, for
// uniform and TF moves and for one-problem and mixed-problem groups. The
// read counts cover a partial first chunk (1, 3), a full one (8), a
// half-live second chunk (11, 12), two full chunks (16) and two kernel
// blocks (20). This is the only SVMC kernel off amd64 and the one TF
// moves run everywhere.
func TestLockstepScalarMatchesSIMD(t *testing.T) {
	saved := hasBatchSIMD
	hasBatchSIMD = false
	defer func() { hasBatchSIMD = saved }()

	prof := DWave2000QProfile()
	r := rng.New(0x5ca1a)
	fwd, rev := fwdRev(t)
	for _, eng := range []SVMC{{}, {TFMoves: true}} {
		label := "scalar-" + eng.Name()
		for _, n := range []int{4, 17} {
			for _, reads := range []int{1, 3, 8, 11, 12, 16, 20} {
				for _, sc := range []*Schedule{fwd, rev} {
					is := randomIsing(t, r, n, 0.5)
					pr := qubo.NewCSR(is)
					pr.Normalize()
					var init []int8
					if sc.StartsClassical() {
						init = make([]int8, n)
						for i := range init {
							init[i] = int8(1 - 2*(i%3%2))
						}
					}
					name := fmt.Sprintf("%s/n=%d/reads=%d/reverse=%v", label, n, reads, sc == rev)
					checkLockstepMatches(t, name, eng, sc, prof, oneProblem(pr, init), reads, r.Uint64())
				}
				for _, sc := range []*Schedule{fwd, rev} {
					ln := mixedLanes(t, r, n, reads, sc.StartsClassical())
					name := fmt.Sprintf("%s/mixed/n=%d/reads=%d/reverse=%v", label, n, reads, sc == rev)
					checkLockstepMatches(t, name, eng, sc, prof, ln, reads, r.Uint64())
				}
			}
		}
		for _, n := range []int{6, 30} {
			for _, sc := range []*Schedule{fwd, rev} {
				ln := fullRowLanes(t, r, n, 12, sc.StartsClassical())
				checkLockstepMatches(t, label+"/full-rows", eng, sc, prof, ln, 12, r.Uint64())
			}
		}
		for _, n := range []int{6, 16, 32} {
			for _, sc := range []*Schedule{fwd, rev} {
				ln := holeLanes(t, r, n, 12, sc.StartsClassical())
				checkLockstepMatches(t, fmt.Sprintf("%s/holes/n=%d", label, n), eng, sc, prof, ln, 12, r.Uint64())
			}
		}
	}
}

// TestScalarScoreReplay drives the Go step's scorer directly: replaying
// from identical scratch states must be bit-deterministic, the
// accept/exp masks must be disjoint and consistent with the materialized
// dE values, and downhill proposals must always accept.
func TestScalarScoreReplay(t *testing.T) {
	const n, reads = 5, 8
	build := func() *svmcBatchScratch {
		st := new(svmcBatchScratch)
		np := st.ensure(reads, n, false)
		r := rng.New(0x5c0e)
		for j := 0; j < reads; j++ {
			st.rs0[j], st.rs1[j], st.rs2[j], st.rs3[j] = r.Uint64()|1, r.Uint64(), r.Uint64(), r.Uint64()
			st.lanoff[j] = uint64(np * j)
			for i := 0; i < n; i++ {
				g := np*j + i
				sn, cs := sinCosPi(r.Float64())
				st.rot[2*g] = cs
				st.rot[2*g+1] = sn
				st.fld[g] = r.NormFloat64()
			}
		}
		return st
	}
	args := &svmcStepArgs{nb: n, negnb: lemireThreshold(n), na2: 0.8, b2: 1.2, beta: 3}
	a, b := build(), build()
	amA, emA := svmcScoreScalar(a, args, 0, reads, false, 0)
	amB, emB := svmcScoreScalar(b, args, 0, reads, false, 0)
	if amA != amB || emA != emB {
		t.Fatalf("replay not deterministic: masks %x/%x vs %x/%x", amA, emA, amB, emB)
	}
	if amA&emA != 0 {
		t.Fatalf("accept and exp masks overlap: %x & %x", amA, emA)
	}
	for j := 0; j < reads; j++ {
		if a.dE[j] != b.dE[j] {
			t.Fatalf("lane %d dE differs across replays", j)
		}
		if a.rs0[j] != b.rs0[j] || a.rs3[j] != b.rs3[j] {
			t.Fatalf("lane %d RNG state differs across replays", j)
		}
		bit := uint32(1) << uint(j)
		if a.dE[j] <= 0 && amA&bit == 0 {
			t.Fatalf("lane %d: downhill proposal (dE=%g) not accepted", j, a.dE[j])
		}
		if a.dE[j] <= 0 && emA&bit != 0 {
			t.Fatalf("lane %d: downhill proposal marked exp-undecided", j)
		}
		if int(a.idx[j]) >= n {
			t.Fatalf("lane %d proposed spin %d out of range", j, a.idx[j])
		}
	}
}

// TestLeaseAccessors covers the read-only lease surface the fleet
// dispatcher consumes.
func TestLeaseAccessors(t *testing.T) {
	sc, err := Forward(1, 0.41, 1)
	if err != nil {
		t.Fatal(err)
	}
	fm := FaultModel{ProgrammingFailureRate: 0.5, ReadTimeoutRate: 0.25}
	lease, err := NewLease(Params{Schedule: sc, NumReads: 4, SweepsPerMicrosecond: 30, Faults: fm})
	if err != nil {
		t.Fatal(err)
	}
	if lease.Embedded() {
		t.Fatal("logical lease reports embedded")
	}

	stripped := fm.WithoutProgrammingFailures()
	if stripped.ProgrammingFailureRate != 0 {
		t.Fatal("WithoutProgrammingFailures kept the programming class")
	}
	if stripped.ReadTimeoutRate != fm.ReadTimeoutRate {
		t.Fatal("WithoutProgrammingFailures dropped a per-read class")
	}

	r := rng.New(1)
	is := randomIsing(t, r, 6, 0.5)
	prep, err := lease.PrepareProblem(is)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Problem() != is {
		t.Fatal("Problem() is not the caller's problem")
	}
}

// TestSVMCReplayMatchesKernelApply pins the scalar replay of the SIMD
// sweep loop — svmcScoreScalar plus the Go apply — to the kernel-applied
// path: with every proposal step forced through the replay, the group
// must reproduce the kernel's spins, final RNG states and probe
// observations bit for bit. The kernel bails to the replay with
// probability n/2⁶⁴ per lane, so no workload reaches it naturally. The
// shapes are TestLockstepMatchesSequential's: partial live masks
// (reads 1, 3, 11, 12), mixed-problem groups, full-row groups, groups
// whose rows have holes, forward and reverse, and the serve-shaped logical and embedded
// groups, every read probed.
func TestSVMCReplayMatchesKernelApply(t *testing.T) {
	if !hasBatchSIMD {
		t.Skip("no SIMD batch path on this host")
	}
	defer func() { svmcForceScalar = false }()
	r := rng.New(0x4e91a)
	check := kernelReplayCheck(t, r)
	fwd, rev := fwdRev(t)
	for _, n := range []int{1, 5, 33} {
		for _, reads := range []int{1, 3, 8, 11, 12, 16} {
			for _, sc := range []*Schedule{fwd, rev} {
				check(fmt.Sprintf("replay/n=%d/reads=%d/reverse=%v", n, reads, sc == rev), sc, oneRandomProblem(t, r, n, sc), reads)
			}
		}
	}
	for _, reads := range []int{8, 11, 16} {
		for _, sc := range []*Schedule{fwd, rev} {
			ln := mixedLanes(t, r, 17, reads, sc.StartsClassical())
			check(fmt.Sprintf("replay/mixed/reads=%d/reverse=%v", reads, sc == rev), sc, ln, reads)
		}
	}
	for _, n := range []int{6, 30} {
		for _, sc := range []*Schedule{fwd, rev} {
			ln := fullRowLanes(t, r, n, 12, sc.StartsClassical())
			check(fmt.Sprintf("replay/full-rows/n=%d/reverse=%v", n, sc == rev), sc, ln, 12)
		}
	}
	for _, n := range []int{6, 16, 32} {
		for _, sc := range []*Schedule{fwd, rev} {
			ln := holeLanes(t, r, n, 12, sc.StartsClassical())
			check(fmt.Sprintf("replay/holes/n=%d/reverse=%v", n, sc == rev), sc, ln, 12)
		}
	}
	ra, err := Reverse(0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("replay/uplink-embedded", ra, uplinkLanes(t, true), 8)
	check("replay/uplink-logical", ra, uplinkLanes(t, false), 12)
}

// TestSVMCKernelExitsMatchReplay drives the kernel's early exits with
// the Lemire threshold raised so one index draw in sixteen is rejected:
// a rejection in chunk 0 (nothing of the step stored), a rejection in
// chunk 1 after chunk 0 has drawn, scored and applied its step, and —
// at the real bracket's rate — the mid-sweep undecided exit, each
// followed by a resume at the next step. Under the same hook the kernel
// must match the scalar replay of every step bit for bit: spins, final
// RNG states and probe observations, on one- and two-chunk groups.
func TestSVMCKernelExitsMatchReplay(t *testing.T) {
	if !hasBatchSIMD {
		t.Skip("no SIMD batch path on this host")
	}
	saved := svmcLemireThreshold
	defer func() { svmcLemireThreshold, svmcForceScalar = saved, false }()
	svmcLemireThreshold = func(int) uint64 { return 1 << 60 }
	r := rng.New(0xe817)
	check := kernelReplayCheck(t, r)
	fwd, rev := fwdRev(t)
	for _, reads := range []int{4, 8, 11, 12, 16} {
		for _, sc := range []*Schedule{fwd, rev} {
			check(fmt.Sprintf("exits/n=33/reads=%d/reverse=%v", reads, sc == rev), sc, oneRandomProblem(t, r, 33, sc), reads)
		}
	}
	ln := mixedLanes(t, r, 17, 16, true)
	check("exits/mixed/reads=16/reverse", rev, ln, 16)
	for _, n := range []int{6, 30} {
		check(fmt.Sprintf("exits/full-rows/n=%d/reads=16/reverse", n), rev, fullRowLanes(t, r, n, 16, true), 16)
	}
	for _, n := range []int{6, 16, 32} {
		check(fmt.Sprintf("exits/holes/n=%d/reads=16/reverse", n), rev, holeLanes(t, r, n, 16, true), 16)
	}
	ra, err := Reverse(0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, reads := range []int{12, 16} {
		check(fmt.Sprintf("exits/uplink-embedded/reads=%d", reads), ra, uplinkLanes(t, true), reads)
	}
}

// kernelReplayCheck returns a check that runs one probed group through
// the SIMD kernel and again with every step forced through the scalar
// replay, requiring identical spins, final RNG states and observations.
func kernelReplayCheck(t *testing.T, r *rng.Source) func(label string, sc *Schedule, ln lanes, reads int) {
	prof := DWave2000QProfile()
	return func(label string, sc *Schedule, ln lanes, reads int) {
		t.Helper()
		seed := r.Uint64()
		kernelLog, replayLog := obsLog{}, obsLog{}
		svmcForceScalar = false
		kernelOuts, kernelRngs := lockstepGroup(t, SVMC{}, sc, prof, 50, ln, reads, seed, kernelLog)
		svmcForceScalar = true
		replayOuts, replayRngs := lockstepGroup(t, SVMC{}, sc, prof, 50, ln, reads, seed, replayLog)
		svmcForceScalar = false
		assertGroupsEqual(t, label, kernelOuts, replayOuts, kernelRngs, replayRngs)
		assertObservationsEqual(t, label, reads, kernelLog, replayLog)
	}
}

// fwdRev returns the forward and reverse schedules the replay tests
// anneal along.
func fwdRev(t *testing.T) (fwd, rev *Schedule) {
	t.Helper()
	fwd, err := Forward(1, 0.41, 1)
	if err != nil {
		t.Fatal(err)
	}
	rev, err = Reverse(0.55, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	return fwd, rev
}

// oneRandomProblem is the lane assignment of a one-problem group on a
// random normalized n-spin problem, with a random initial state when sc
// starts classical.
func oneRandomProblem(t *testing.T, r *rng.Source, n int, sc *Schedule) lanes {
	t.Helper()
	pr := qubo.NewCSR(randomIsing(t, r, n, 0.4))
	pr.Normalize()
	var init []int8
	if sc.StartsClassical() {
		init = make([]int8, n)
		for i := range init {
			init[i] = r.Spin()
		}
	}
	return oneProblem(pr, init)
}
