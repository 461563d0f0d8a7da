package annealer

import (
	"fmt"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// Engine is a classical surrogate for the annealer's quantum dynamics.
//
// Two engines are provided. SVMC (spin-vector Monte Carlo) models each
// qubit as a classical O(2) rotor — cheap and known to capture much of
// D-Wave's equilibrium behaviour. PIMC (path-integral Monte Carlo /
// simulated quantum annealing) simulates the transverse-field Ising model
// through its Suzuki–Trotter decomposition — the standard reference
// surrogate in the quantum-annealing benchmarking literature.
//
// An engine runs in two phases. Prepare compiles the batch-invariant
// sweep program — the per-sweep schedule quantities s(t), A(s), B(s) and
// any engine-specific factors derived from them, which are identical for
// every read of a batch — and returns the engine's one production kernel,
// a BatchReadFunc that evolves groups of reads in lockstep. Run calls
// Prepare once per batch (a Lease once per session) and fans groups of
// reads — from one run or, through RunMulti, many — out to the
// kernel, so the per-sweep trigonometry/transcendentals
// are paid once per batch instead of once per read. Probed and unprobed
// reads run through the same kernel.
//
// Precondition (validated by the caller, once): the schedule has passed
// (*Schedule).Validate and the profile (Profile).Validate. Run/QPU.Run
// establish this in withDefaults before any engine code runs; engines do
// not re-validate and must not panic on schedule content. The knobs an
// engine interprets itself — the sweep rate, and PIMC's Trotter number —
// are checked in Prepare, which returns an error (never panics, never a
// kernel) when they are out of range.
type Engine interface {
	// Name identifies the engine in experiment output.
	Name() string
	// Prepare compiles the sweep program for one batch. See the interface
	// comment for the validation contract.
	Prepare(sc *Schedule, prof Profile, sweepsPerMicrosecond float64) (BatchReadFunc, error)
}

// BatchRead describes one resident read of a lockstep group: the compiled
// problem it runs against, its programmed initial state, the output spin
// buffer, the read's private RNG stream, and the probe that watches it
// (nil when unprobed). All reads of a group must share the problem SIZE
// (Prog.N) and nothing else: coefficients and topology (Offsets/Cols)
// may differ per read — the run body packs reads of different problems
// of one size into a group, and per-read noise such as ICE or
// calibration drift lives in the coefficients. Init is the read's
// programmed initial state for schedules that start at s = 1 (reverse
// annealing), length Prog.N, and is ignored otherwise.
type BatchRead struct {
	Prog  *qubo.CSR
	Init  []int8
	Out   []int8
	Rng   *rng.Source
	Probe Probe

	// rows is Prog's dense row table (svmcRows) when the run body built
	// one, else nil; the SVMC kernel then walks Prog's CSR rows.
	rows *svmcRows
}

// BatchReadFunc evolves a group of reads in LOCKSTEP: all reads advance
// through the sweep program together, with spin state stored as
// struct-of-arrays (read-major contiguous blocks) so the per-sweep
// schedule constants are loaded once per group and the reads' independent
// dependency chains overlap in the pipeline instead of serializing. The
// group takes only its size from the reads' shared N; every other
// problem quantity is read per read.
//
// Each read draws only from its own Rng, in a fixed per-read order, and
// writes its measured classical state into Out (length Prog.N). The
// streams are private, so a read's outcome — and the state its Rng is
// left in — does not depend on which reads share its group; the one-read
// reference kernels in the tests pin this bit for bit
// (TestLockstepMatchesSequential).
//
// A read with a non-nil Probe receives one observation per sweep. A nil
// probe costs nothing beyond a per-sweep nil check, and probing never
// perturbs the dynamics (the probe sees state; it does not touch the
// RNG). Within a group, observations arrive in sweep order, not
// necessarily read by read.
//
// BatchReadFuncs are safe for concurrent use: compiled state is read-only
// and group scratch is pooled internally, so steady-state groups allocate
// nothing beyond probe observations.
type BatchReadFunc func(reads []BatchRead)

// lockstepWidth is the number of reads resident in one PIMC lockstep
// group, and the lane count of the SA group (SimulatedAnnealingGroup).
// Eight reads give the out-of-order core enough independent RNG/trig/
// field dependency chains to hide each chain's latency while the
// group's spin state still fits comfortably in L2 for the paper's
// embedded problem sizes. PIMC runs a group's reads one after another,
// so a wider group buys it nothing, and the SA kernel's argument block
// and assembly are laid out for eight lanes.
const lockstepWidth = 8

// svmcGroupWidth is the number of reads resident in one SVMC lockstep
// group. An SVMC proposal step is latency-bound: the chain draw →
// sinCosPi → dE → bracket verdict, plus the apply's data-dependent
// branches, retires at about one instruction per cycle. The AVX2 kernel
// scores every 4-lane half of two 8-lane chunks before it applies any
// accept, and staggers the two chunks' applies, so sixteen reads put
// twice the independent chains in flight per step. That pays on the
// 512-qubit chain path, whose rows are short: BenchmarkSVMCSweepReverse
// measured ~15% fewer ns per read-sweep at 16 reads than at 8 (9,642
// against 11,397, medians of eight interleaved runs on a 2-vCPU Xeon),
// and sixteen such reads hold 192 KB of rotor and field state, inside
// L2. On the 32-spin logical problem the serve anneals, where the
// row apply dominates, 16 and 8 reads measure the same (930
// against 935 ns per read-sweep, two frames reverse-annealed from their
// greedy candidates, medians of seven interleaved runs on the same
// host), so the chain path sets the width.
const svmcGroupWidth = 16

// maxGroupWidth is the widest group any engine declares.
const maxGroupWidth = svmcGroupWidth

// groupWidth is the number of reads the run body packs into one group
// of eng's kernel. It never changes an answer — each read draws only
// from its own stream — only how many reads share a kernel call.
func groupWidth(eng Engine) int {
	if _, ok := eng.(SVMC); ok {
		return svmcGroupWidth
	}
	return lockstepWidth
}

// sweepTable is the batch-shared sweep program: for each Monte-Carlo
// sweep, the schedule time, anneal fraction and energy scales every read
// will see there. Engines extend it with their own derived columns
// (temporal coupling, move scales) in Prepare.
type sweepTable struct {
	duration float64
	t        []float64 // μs into the schedule
	s        []float64 // anneal fraction s(t)
	a        []float64 // transverse-field scale A(s)
	b        []float64 // problem scale B(s)
}

func newSweepTable(sc *Schedule, prof Profile, sweepsPerMicrosecond float64) (*sweepTable, error) {
	sweeps, err := sweepCount(sc, sweepsPerMicrosecond)
	if err != nil {
		return nil, err
	}
	tab := &sweepTable{
		duration: sc.Duration(),
		t:        make([]float64, sweeps),
		s:        make([]float64, sweeps),
		a:        make([]float64, sweeps),
		b:        make([]float64, sweeps),
	}
	for i := 0; i < sweeps; i++ {
		t := tab.duration * float64(i) / float64(sweeps-1)
		s := sc.At(t)
		tab.t[i] = t
		tab.s[i] = s
		tab.a[i] = prof.A(s)
		tab.b[i] = prof.B(s)
	}
	return tab, nil
}

func (tab *sweepTable) sweeps() int { return len(tab.t) }

// sweepCount converts a schedule duration to an integer sweep count
// (at least 1 per schedule point segment).
func sweepCount(sc *Schedule, sweepsPerMicrosecond float64) (int, error) {
	if sweepsPerMicrosecond <= 0 {
		return 0, fmt.Errorf("annealer: sweeps per microsecond must be positive")
	}
	n := int(sc.Duration() * sweepsPerMicrosecond)
	if n < 2 {
		n = 2
	}
	return n, nil
}
