package qubo_test

import (
	"math"
	"testing"

	"repro/internal/chimera"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// The CSR view is the annealer's hot-path representation; these tests pin
// it to the adjacency-list representation it is compiled from.

func randomDenseIsing(r *rng.Source, n int, density float64) *qubo.Ising {
	is := qubo.NewIsing(n)
	for i := 0; i < n; i++ {
		is.H[i] = 2*r.Float64() - 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < density {
				is.SetCoupling(i, j, 2*r.Float64()-1)
			}
		}
	}
	return is
}

func randomChimeraIsing(r *rng.Source, m int) *qubo.Ising {
	g := chimera.NewGraph(m)
	is := qubo.NewIsing(g.NumQubits())
	for i := 0; i < is.N; i++ {
		is.H[i] = 2*r.Float64() - 1
		for _, j := range g.Neighbors(i) {
			if j > i {
				is.SetCoupling(i, j, 2*r.Float64()-1)
			}
		}
	}
	return is
}

func randomSpins(r *rng.Source, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = r.Spin()
	}
	return s
}

// checkCSRAgainstAdjacency asserts every CSR accessor agrees with the
// adjacency-list form: energies, local fields, neighbor iteration
// (sorted, complete, correct weights), and mirror indices.
func checkCSRAgainstAdjacency(t *testing.T, is *qubo.Ising, r *rng.Source) {
	t.Helper()
	c := qubo.NewCSR(is)
	if c.N != is.N {
		t.Fatalf("CSR.N = %d, want %d", c.N, is.N)
	}
	for probe := 0; probe < 8; probe++ {
		s := randomSpins(r, is.N)
		a, b := is.Energy(s), c.Energy(s)
		if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
			t.Fatalf("Energy mismatch: adjacency %v, CSR %v", a, b)
		}
		for i := 0; i < is.N; i++ {
			fa, fb := is.LocalField(s, i), c.LocalField(s, i)
			if math.Abs(fa-fb) > 1e-9*(1+math.Abs(fa)) {
				t.Fatalf("LocalField(%d) mismatch: adjacency %v, CSR %v", i, fa, fb)
			}
		}
	}
	for i := 0; i < is.N; i++ {
		lo, hi := c.Offsets[i], c.Offsets[i+1]
		cols, w := c.Cols[lo:hi], c.W[lo:hi]
		if len(cols) != len(is.Adj[i]) {
			t.Fatalf("row %d has %d entries, adjacency has %d", i, len(cols), len(is.Adj[i]))
		}
		for k, col := range cols {
			if k > 0 && cols[k-1] >= col {
				t.Fatalf("row %d not sorted by column: %v", i, cols)
			}
			if got := is.Coupling(i, int(col)); got != w[k] {
				t.Fatalf("row %d col %d weight %v, adjacency %v", i, col, w[k], got)
			}
		}
	}
	// Mirror links each directed half to its reverse.
	for i := 0; i < c.N; i++ {
		for k := c.Offsets[i]; k < c.Offsets[i+1]; k++ {
			mk := c.Mirror[k]
			if c.Cols[mk] != int32(i) || c.W[mk] != c.W[k] || c.Mirror[mk] != k {
				t.Fatalf("mirror broken at row %d entry %d", i, k)
			}
		}
	}
}

func TestCSRMatchesAdjacencyDense(t *testing.T) {
	r := rng.New(0xC5A)
	for _, n := range []int{1, 2, 7, 24} {
		for _, density := range []float64{0.2, 1.0} {
			is := randomDenseIsing(r, n, density)
			checkCSRAgainstAdjacency(t, is, r)
		}
	}
}

func TestCSRMatchesAdjacencyChimera(t *testing.T) {
	r := rng.New(0xC5B)
	checkCSRAgainstAdjacency(t, randomChimeraIsing(r, 3), r)
}

// Deleting an edge via SetCoupling(i, j, 0) must be reflected by a
// rebuilt CSR: the entry disappears from both rows and all invariants
// still hold.
func TestCSRAfterEdgeDeletion(t *testing.T) {
	r := rng.New(0xDE1)
	is := randomDenseIsing(r, 12, 0.8)
	edges := is.Edges()
	for _, del := range []int{0, len(edges) / 2, len(edges) - 1} {
		e := edges[del]
		is.SetCoupling(e.I, e.J, 0)
	}
	checkCSRAgainstAdjacency(t, is, r)
	c := qubo.NewCSR(is)
	for _, del := range []int{0, len(edges) / 2, len(edges) - 1} {
		e := edges[del]
		cols := c.Cols[c.Offsets[e.I]:c.Offsets[e.I+1]]
		for _, col := range cols {
			if int(col) == e.J {
				t.Fatalf("deleted edge (%d,%d) still present in CSR", e.I, e.J)
			}
		}
	}
}

// Quench must reproduce SteepestDescent exactly: same pick order, same
// final spins.
// searchMirror links each CSR entry (i, col) to its reverse by binary
// search of row col, the way NewCSR linked them before its one-pass
// cursors.
func searchMirror(c *qubo.CSR) []int32 {
	out := make([]int32, len(c.Cols))
	for i := 0; i < c.N; i++ {
		for k := c.Offsets[i]; k < c.Offsets[i+1]; k++ {
			col := c.Cols[k]
			lo, hi := c.Offsets[col], c.Offsets[col+1]
			for lo < hi {
				mid := (lo + hi) / 2
				if c.Cols[mid] < int32(i) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			out[k] = lo
		}
	}
	return out
}

// TestCSRMirrorMatchesSearch pins NewCSR's cursor-linked Mirror to the
// binary-search linking, entry for entry, on a dense logical problem, a
// clique embedded on Chimera (chain rows, inter-chain couplers and idle
// qubits with empty rows) and a random sparse problem.
func TestCSRMirrorMatchesSearch(t *testing.T) {
	r := rng.New(0x3177)
	logical := randomDenseIsing(r, 32, 1)
	emb, err := chimera.EmbedClique(chimera.NewGraph(chimera.MinGridFor(12)), 12)
	if err != nil {
		t.Fatal(err)
	}
	embedded, err := emb.EmbedIsing(randomDenseIsing(r, 12, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, is := range map[string]*qubo.Ising{
		"dense-logical": logical, "chimera-embedded": embedded, "sparse": randomDenseIsing(r, 60, 0.05),
	} {
		c := qubo.NewCSR(is)
		want := searchMirror(c)
		for k, m := range c.Mirror {
			if m != want[k] {
				t.Fatalf("%s: Mirror[%d] = %d, binary search gives %d", name, k, m, want[k])
			}
		}
	}
}

// TestNewCSRRejectsMalformedRows checks that NewCSR refuses the
// adjacency its row invariants exclude.
func TestNewCSRRejectsMalformedRows(t *testing.T) {
	r := rng.New(0xbad)
	self := randomDenseIsing(r, 5, 1)
	self.Adj[2] = append(self.Adj[2], qubo.Coupling{To: 2, J: 0.5})
	dup := randomDenseIsing(r, 5, 1)
	dup.Adj[1] = append(dup.Adj[1], dup.Adj[1][0])
	asym := randomDenseIsing(r, 5, 0)
	asym.Adj[0] = append(asym.Adj[0], qubo.Coupling{To: 3, J: 0.5})
	for name, is := range map[string]*qubo.Ising{"self-coupling": self, "repeated-neighbour": dup, "asymmetric": asym} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewCSR accepted it", name)
				}
			}()
			qubo.NewCSR(is)
		}()
	}
}

// Quench must relax to SteepestDescent's local minimum, and the fields
// it returns must be LocalField's bit for bit: re-quenching the minimum
// flips nothing, so its field is the four-rows-at-once initial sum. The
// models draw couplings from a 0.25 grid, and SetCoupling drops the
// exact zeros, so rows are ragged and N = 5 and 33 leave a tail row.
func TestCSRQuenchMatchesSteepestDescent(t *testing.T) {
	r := rng.New(0x5DE)
	for _, n := range []int{5, 16, 33} {
		for trial := 0; trial < 20; trial++ {
			is := qubo.NewIsing(n)
			for i := 0; i < n; i++ {
				is.H[i] = 2*r.Float64() - 1
				for j := i + 1; j < n; j++ {
					if r.Float64() < 0.6 {
						is.SetCoupling(i, j, float64(int(9*r.Float64())-4)/4)
					}
				}
			}
			c := qubo.NewCSR(is)
			start := randomSpins(r, is.N)
			// The SVMC kernel's stride-2 form over (z, sin θ) pairs.
			pairs := make([]float64, 2*n)
			for i, s := range start {
				pairs[2*i], pairs[2*i+1] = float64(s), 0.5
			}
			field := make([]float64, n)
			qubo.LocalFields(c, pairs, 2, field)
			for i := range field {
				if want := c.LocalField(start, i); math.Float64bits(field[i]) != math.Float64bits(want) {
					t.Fatalf("n=%d trial %d: stride-2 field[%d] = %v, LocalField %v", n, trial, i, field[i], want)
				}
			}

			want := qubo.SteepestDescent(is, start)
			got := append([]int8(nil), start...)
			c.Quench(got, field)
			for i := range got {
				if got[i] != want.Spins[i] {
					t.Fatalf("n=%d trial %d: Quench spins differ from SteepestDescent at %d", n, trial, i)
				}
			}
			local := append([]int8(nil), got...)
			c.Quench(got, field)
			for i := range got {
				if got[i] != local[i] {
					t.Fatalf("n=%d trial %d: re-quench of a local minimum flipped spin %d", n, trial, i)
				}
				if want := c.LocalField(got, i); math.Float64bits(field[i]) != math.Float64bits(want) {
					t.Fatalf("n=%d trial %d: Quench field[%d] = %v, LocalField %v", n, trial, i, field[i], want)
				}
			}
		}
	}
}

// Normalize on the CSR must match normalizing the adjacency form first —
// identical scale factor, bitwise-identical coefficients.
func TestCSRNormalizeMatchesIsingNormalized(t *testing.T) {
	r := rng.New(0x40A)
	is := randomDenseIsing(r, 10, 0.6)
	for i := range is.H {
		is.H[i] *= 3
	}
	direct := qubo.NewCSR(is)
	scale := direct.Normalize()
	norm, wantScale := is.Normalized()
	viaIsing := qubo.NewCSR(norm)
	if scale != wantScale {
		t.Fatalf("scale %v, want %v", scale, wantScale)
	}
	if direct.Offset != viaIsing.Offset {
		t.Fatalf("offset %v, want %v", direct.Offset, viaIsing.Offset)
	}
	for i := range direct.H {
		if direct.H[i] != viaIsing.H[i] {
			t.Fatalf("H[%d] = %v, want %v", i, direct.H[i], viaIsing.H[i])
		}
	}
	for k := range direct.W {
		if direct.W[k] != viaIsing.W[k] {
			t.Fatalf("W[%d] = %v, want %v", k, direct.W[k], viaIsing.W[k])
		}
	}
}

// ToIsing inverts NewCSR up to coupling-list ordering.
func TestCSRToIsingRoundTrip(t *testing.T) {
	r := rng.New(0x707)
	is := randomDenseIsing(r, 14, 0.4)
	back := qubo.NewCSR(is).ToIsing()
	for probe := 0; probe < 8; probe++ {
		s := randomSpins(r, is.N)
		a, b := is.Energy(s), back.Energy(s)
		if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
			t.Fatalf("round-trip energy %v, want %v", b, a)
		}
	}
}

// FuzzCSRAdjacencyEquivalence drives the same invariants from arbitrary
// seeds, including after a fuzzer-chosen edge deletion.
func FuzzCSRAdjacencyEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(128), uint8(0))
	f.Add(uint64(42), uint8(20), uint8(255), uint8(7))
	f.Add(uint64(7), uint8(1), uint8(10), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, sizeByte, densityByte, delByte uint8) {
		n := 1 + int(sizeByte)%24
		r := rng.New(seed)
		is := randomDenseIsing(r, n, float64(densityByte)/255)
		if edges := is.Edges(); len(edges) > 0 {
			e := edges[int(delByte)%len(edges)]
			is.SetCoupling(e.I, e.J, 0)
		}
		checkCSRAgainstAdjacency(t, is, r)
	})
}
