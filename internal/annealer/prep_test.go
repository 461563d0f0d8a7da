package annealer

import (
	"reflect"
	"testing"

	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

func prepTestProblems(t *testing.T, count int) []*qubo.Ising {
	t.Helper()
	out := make([]*qubo.Ising, count)
	for i := range out {
		in, err := instance.Synthesize(instance.Spec{Users: 3, Scheme: modulation.QPSK, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = in.Reduction.Ising
	}
	return out
}

// RunPrepared must be bit-identical to Lease.Run — the prepared form
// only skips the per-call compile — on the logical, the chain-embedded
// QPU and the default (logical) QPU lease paths, and for repeated runs
// of one Prepared.
func TestRunPreparedMatchesRun(t *testing.T) {
	is := prepTestProblems(t, 1)[0]
	sc, err := Reverse(0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	init := make([]int8, is.N)
	for i := range init {
		init[i] = 1
	}
	p := Params{
		Schedule: sc, NumReads: 10, SweepsPerMicrosecond: 30,
		ICE:    ICE{SigmaH: 0.02, SigmaJ: 0.01},
		Faults: FaultModel{ReadTimeoutRate: 0.1, CalibrationDriftRate: 0.1},
	}
	leases := map[string]*Lease{}
	l, err := NewLease(p)
	if err != nil {
		t.Fatal(err)
	}
	leases["logical"] = l
	if l, err = chainQPU().Lease(p); err != nil {
		t.Fatal(err)
	}
	leases["embedded"] = l
	if l, err = NewQPU2000Q().Lease(p); err != nil {
		t.Fatal(err)
	}
	leases["qpu-logical"] = l
	for name, l := range leases {
		t.Run(name, func(t *testing.T) {
			direct, err := l.Run(is, init, 10, rng.New(3))
			if err != nil {
				t.Fatal(err)
			}
			prep, err := l.PrepareProblem(is)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 2; trial++ {
				got, err := l.RunPrepared(prep, init, 10, rng.New(3))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(direct.Samples, got.Samples) {
					t.Fatalf("trial %d: prepared samples diverge from Lease.Run", trial)
				}
				if direct.Best.Energy != got.Best.Energy || direct.Faults != got.Faults ||
					direct.BrokenChainRate != got.BrokenChainRate {
					t.Fatalf("trial %d: prepared result metadata diverges", trial)
				}
			}
		})
	}
}

// A Prepared is bound to the lease that compiled it.
func TestRunPreparedWrongLease(t *testing.T) {
	is := prepTestProblems(t, 1)[0]
	sc, err := Forward(1, 0.41, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewLease(Params{Schedule: sc, SweepsPerMicrosecond: 30})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLease(Params{Schedule: sc, SweepsPerMicrosecond: 30})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := a.PrepareProblem(is)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunPrepared(prep, nil, 2, rng.New(1)); err == nil {
		t.Fatal("prepared problem from lease a must be rejected by lease b")
	}
	if _, err := a.RunPrepared(nil, nil, 2, rng.New(1)); err == nil {
		t.Fatal("nil prepared problem must be rejected")
	}
}

// PrepareProblem snapshots the problem: mutating the caller's Ising
// after preparing must not desynchronize the compiled artifacts.
func TestPreparedSnapshotIsolation(t *testing.T) {
	is := prepTestProblems(t, 1)[0]
	sc, err := Forward(1, 0.41, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLease(Params{Schedule: sc, SweepsPerMicrosecond: 30})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := l.PrepareProblem(is)
	if err != nil {
		t.Fatal(err)
	}
	want, err := l.RunPrepared(prep, nil, 4, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	is.H[0] += 100 // caller mutates after preparing
	got, err := l.RunPrepared(prep, nil, 4, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Samples, got.Samples) {
		t.Fatal("mutating the source problem changed a prepared run")
	}
}

// Cache behavior: verified hits, misses on first sight, LRU eviction at
// capacity, and recency updates on hit.
func TestPrepCacheHitMissEvict(t *testing.T) {
	ps := prepTestProblems(t, 3)
	sc, err := Forward(1, 0.41, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLease(Params{Schedule: sc, SweepsPerMicrosecond: 30})
	if err != nil {
		t.Fatal(err)
	}
	c := NewPrepCache(2)
	first, err := c.Get(l, ps[0])
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Get(l, ps[0])
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatal("second lookup of the same problem must return the cached Prepared")
	}
	if _, err := c.Get(l, ps[1]); err != nil {
		t.Fatal(err)
	}
	// Touch ps[0] so ps[1] is LRU, then insert ps[2] to evict it.
	if _, err := c.Get(l, ps[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(l, ps[2]); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(l, ps[0]); err != nil || got != first {
		t.Fatalf("recently used entry was evicted (err %v)", err)
	}
	if _, err := c.Get(l, ps[1]); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	want := PrepCacheStats{Hits: 3, Misses: 4, Evictions: 2}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	// Distinct leases must not share entries even for the same problem.
	l2, err := NewLease(Params{Schedule: sc, SweepsPerMicrosecond: 30})
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.Get(l2, ps[1])
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != want.Misses+1 {
		t.Fatalf("same problem under a different lease must miss; stats %+v", st)
	}
	if other.l != l2 {
		t.Fatal("cross-lease lookup returned another lease's Prepared")
	}
}

// A hash collision — same 64-bit content hash, different problem — must
// fall back to a fresh compile for the requester and leave the resident
// entry untouched. Real collisions are not constructible on demand, so
// the test plants one directly in the cache's internal map.
func TestPrepCacheCollisionFallback(t *testing.T) {
	ps := prepTestProblems(t, 2)
	sc, err := Forward(1, 0.41, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLease(Params{Schedule: sc, SweepsPerMicrosecond: 30})
	if err != nil {
		t.Fatal(err)
	}
	c := NewPrepCache(4)
	resident, err := l.PrepareProblem(ps[0])
	if err != nil {
		t.Fatal(err)
	}
	// Register ps[0]'s compile under ps[1]'s hash: Get(ps[1]) now sees a
	// hash hit whose content verification must fail.
	k := prepKey{l, ps[1].ContentHash()}
	c.byKey[k] = c.ll.PushFront(&prepEntry{key: k, prep: resident})
	got, err := c.Get(l, ps[1])
	if err != nil {
		t.Fatal(err)
	}
	if got == resident {
		t.Fatal("collision served the resident entry's artifacts")
	}
	if !got.is.Equal(ps[1]) {
		t.Fatal("collision fallback compiled the wrong problem")
	}
	if st := c.Stats(); st.Collisions != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want exactly one collision and no hits", st)
	}
	if el, ok := c.byKey[k]; !ok || el.Value.(*prepEntry).prep != resident {
		t.Fatal("collision displaced the resident entry")
	}
	// The colliding problem still runs correctly through its fallback.
	direct, err := l.Run(ps[1], nil, 3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	viaCache, err := l.RunPrepared(got, nil, 3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Samples, viaCache.Samples) {
		t.Fatal("collision fallback produced different samples")
	}
}

// ContentHash/Equal are the cache's correctness foundation: equal
// content hashes equal, and any content difference — field value, edge
// weight, topology, offset — breaks both.
func TestIsingContentHashEqual(t *testing.T) {
	base := prepTestProblems(t, 1)[0]
	same := base.Clone()
	if base.ContentHash() != same.ContentHash() || !base.Equal(same) {
		t.Fatal("clone must hash and compare equal")
	}
	mutate := []func(*qubo.Ising){
		func(is *qubo.Ising) { is.H[1] += 1e-9 },
		func(is *qubo.Ising) { is.Offset++ },
		func(is *qubo.Ising) { is.Adj[0][0].J *= 1.0000001 },
		func(is *qubo.Ising) { is.SetCoupling(0, is.N-1, 12345) },
	}
	for i, f := range mutate {
		m := base.Clone()
		f(m)
		if base.Equal(m) {
			t.Fatalf("mutation %d not detected by Equal", i)
		}
		if base.ContentHash() == m.ContentHash() {
			t.Fatalf("mutation %d not reflected in ContentHash", i)
		}
	}
}
