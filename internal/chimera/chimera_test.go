package chimera

import (
	"math"
	"slices"
	"testing"

	"repro/internal/qubo"
	"repro/internal/rng"
)

func TestGraphSizes(t *testing.T) {
	g := NewGraph(2)
	if g.NumQubits() != 32 {
		t.Fatalf("C_2 has %d qubits", g.NumQubits())
	}
	// C_m couplers: m²·16 intra + 2·m·(m−1)·4 inter.
	want := 2*2*16 + 2*2*1*4
	ends := 0
	for id := 0; id < g.NumQubits(); id++ {
		ends += len(g.Neighbors(id))
	}
	if ends/2 != want {
		t.Fatalf("C_2 has %d couplers, want %d", ends/2, want)
	}
	dw := NewGraph(16)
	if dw.NumQubits() != 2048 {
		t.Fatalf("2000Q model has %d qubits", dw.NumQubits())
	}
	if dw.M != 16 {
		t.Fatal("2000Q is not C_16")
	}
}

// TestQubitIDCoordRoundTrip: every (row, col, side, unit) coordinate maps
// to its own in-range qubit id, so ids and coordinates correspond one to
// one.
func TestQubitIDCoordRoundTrip(t *testing.T) {
	g := NewGraph(4)
	seen := make([]bool, g.NumQubits())
	for r := 0; r < g.M; r++ {
		for c := 0; c < g.M; c++ {
			for s := 0; s < 2; s++ {
				for u := 0; u < CellUnits; u++ {
					id := g.QubitID(r, c, s, u)
					if id < 0 || id >= len(seen) || seen[id] {
						t.Fatalf("QubitID(%d,%d,%d,%d) = %d is out of range or taken", r, c, s, u, id)
					}
					seen[id] = true
				}
			}
		}
	}
}

func TestQubitIDPanicsOutOfRange(t *testing.T) {
	g := NewGraph(2)
	defer func() {
		if recover() == nil {
			t.Fatal("bad coordinate accepted")
		}
	}()
	g.QubitID(2, 0, 0, 0)
}

func TestDegreeBounds(t *testing.T) {
	g := NewGraph(16)
	for id := 0; id < g.NumQubits(); id++ {
		d := len(g.Neighbors(id))
		if d < 4 || d > 6 {
			t.Fatalf("qubit %d has degree %d (Chimera degree is 4..6)", id, d)
		}
	}
}

func TestIntraCellK44(t *testing.T) {
	g := NewGraph(3)
	for kv := 0; kv < 4; kv++ {
		for kh := 0; kh < 4; kh++ {
			if !slices.Contains(g.Neighbors(g.QubitID(1, 1, 0, kv)), g.QubitID(1, 1, 1, kh)) {
				t.Fatalf("missing intra-cell edge v%d-h%d", kv, kh)
			}
		}
	}
	// No vertical-vertical edges within a cell.
	if slices.Contains(g.Neighbors(g.QubitID(1, 1, 0, 0)), g.QubitID(1, 1, 0, 1)) {
		t.Fatal("spurious vertical-vertical intra-cell edge")
	}
}

func TestInterCellCouplers(t *testing.T) {
	g := NewGraph(3)
	// Vertical unit k couples down the column.
	if !slices.Contains(g.Neighbors(g.QubitID(0, 1, 0, 2)), g.QubitID(1, 1, 0, 2)) {
		t.Fatal("missing vertical inter-cell edge")
	}
	// Horizontal unit k couples along the row.
	if !slices.Contains(g.Neighbors(g.QubitID(1, 0, 1, 3)), g.QubitID(1, 1, 1, 3)) {
		t.Fatal("missing horizontal inter-cell edge")
	}
	// No diagonal coupling.
	if slices.Contains(g.Neighbors(g.QubitID(0, 0, 0, 0)), g.QubitID(1, 1, 0, 0)) {
		t.Fatal("spurious diagonal edge")
	}
	// Vertical qubits do not couple along rows.
	if slices.Contains(g.Neighbors(g.QubitID(1, 0, 0, 0)), g.QubitID(1, 1, 0, 0)) {
		t.Fatal("vertical qubits coupled along a row")
	}
}

func TestEmbedCliqueChainsValid(t *testing.T) {
	g := NewGraph(4)
	for _, n := range []int{1, 4, 7, 16} {
		e, err := EmbedClique(g, n)
		if err != nil {
			t.Fatal(err)
		}
		if e.N() != n {
			t.Fatalf("embedding has %d chains", e.N())
		}
		// Chains are disjoint, uniform length m+1, and connected.
		seen := map[int]bool{}
		for i, chain := range e.Chains {
			if len(chain) != g.M+1 {
				t.Fatalf("chain %d has length %d, want %d", i, len(chain), g.M+1)
			}
			for _, q := range chain {
				if seen[q] {
					t.Fatalf("qubit %d in two chains", q)
				}
				seen[q] = true
				if e.chainOf[q] != i {
					t.Fatalf("chainOf(%d) = %d, want %d", q, e.chainOf[q], i)
				}
			}
			if !chainConnected(g, chain) {
				t.Fatalf("chain %d is not connected in the hardware graph", i)
			}
		}
	}
}

func chainConnected(g *Graph, chain []int) bool {
	if len(chain) == 0 {
		return false
	}
	in := map[int]bool{}
	for _, q := range chain {
		in[q] = true
	}
	visited := map[int]bool{chain[0]: true}
	stack := []int{chain[0]}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range g.Neighbors(q) {
			if in[n] && !visited[n] {
				visited[n] = true
				stack = append(stack, n)
			}
		}
	}
	return len(visited) == len(chain)
}

// TestEmbedCliqueAllPairsCoupled: the defining property of a clique
// embedding — every pair of chains shares at least one physical coupler.
func TestEmbedCliqueAllPairsCoupled(t *testing.T) {
	g := NewGraph(4)
	e, err := EmbedClique(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.N(); i++ {
		for j := i + 1; j < e.N(); j++ {
			if len(e.interChainCouplers(i, j)) == 0 {
				t.Fatalf("chains %d and %d share no coupler", i, j)
			}
		}
	}
}

func TestEmbedCliqueCapacity(t *testing.T) {
	g := NewGraph(2)
	if _, err := EmbedClique(g, 9); err == nil {
		t.Fatal("overcapacity clique accepted")
	}
	if _, err := EmbedClique(g, 0); err == nil {
		t.Fatal("empty clique accepted")
	}
	if MaxCliqueSize(16) != 64 {
		t.Fatal("2000Q clique capacity wrong")
	}
	if MinGridFor(36) != 9 || MinGridFor(1) != 1 || MinGridFor(64) != 16 {
		t.Fatal("MinGridFor wrong")
	}
}

// TestEmbedIsingEnergyEquivalence: for intact (unbroken) chain states, the
// physical energy equals the logical energy exactly.
func TestEmbedIsingEnergyEquivalence(t *testing.T) {
	r := rng.New(1)
	g := NewGraph(3)
	n := 10
	logical := qubo.NewIsing(n)
	for i := 0; i < n; i++ {
		logical.H[i] = r.NormFloat64()
		for j := i + 1; j < n; j++ {
			logical.SetCoupling(i, j, r.NormFloat64())
		}
	}
	logical.Offset = 0.7
	e, err := EmbedClique(g, n)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := e.EmbedIsing(logical, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		spins := make([]int8, n)
		for i := range spins {
			spins[i] = r.Spin()
		}
		physSpins := e.EmbedSpins(spins)
		le := logical.Energy(spins)
		pe := phys.Energy(physSpins)
		if math.Abs(le-pe) > 1e-9 {
			t.Fatalf("intact-chain energy mismatch: logical %v vs physical %v", le, pe)
		}
	}
}

// TestUnembedMajorityVote: intact chains recover exactly; a broken chain
// resolves by majority and is counted.
func TestUnembedMajorityVote(t *testing.T) {
	g := NewGraph(3)
	e, err := EmbedClique(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	logical := []int8{1, -1, 1, -1, 1}
	phys := e.EmbedSpins(logical)
	got := make([]int8, e.N())
	broken := e.UnembedInto(got, phys)
	if broken != 0 {
		t.Fatalf("intact state reported %d broken chains", broken)
	}
	for i := range logical {
		if got[i] != logical[i] {
			t.Fatal("unembed lost the logical state")
		}
	}
	// Flip one qubit of chain 2 (chains have 4 qubits on C_3; majority
	// stays with the original value).
	phys[e.Chains[2][0]] = -phys[e.Chains[2][0]]
	broken = e.UnembedInto(got, phys)
	if broken != 1 {
		t.Fatalf("broken chains = %d, want 1", broken)
	}
	if got[2] != 1 {
		t.Fatal("majority vote failed")
	}
}

func TestEmbedIsingValidation(t *testing.T) {
	g := NewGraph(2)
	e, _ := EmbedClique(g, 4)
	if _, err := e.EmbedIsing(qubo.NewIsing(5), 1); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := e.EmbedIsing(qubo.NewIsing(4), -1); err == nil {
		t.Fatal("negative chain strength accepted")
	}
}

// TestEmbeddedGroundStateMatchesLogical: with a sufficiently strong chain
// coupling, the physical ground state restricted to chains is the logical
// ground state (verified exhaustively on a tiny problem).
func TestEmbeddedGroundStateMatchesLogical(t *testing.T) {
	r := rng.New(2)
	g := NewGraph(1) // 8 qubits
	n := 3
	logical := qubo.NewIsing(n)
	for i := 0; i < n; i++ {
		logical.H[i] = r.NormFloat64()
		for j := i + 1; j < n; j++ {
			logical.SetCoupling(i, j, r.NormFloat64())
		}
	}
	e, err := EmbedClique(g, n)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := e.EmbedIsing(logical, RecommendedChainStrength(logical)+2)
	if err != nil {
		t.Fatal(err)
	}
	// Restrict the physical problem to the used qubits for exhaustive
	// search: chains on C_1 are 2 qubits each, 6 used + 2 idle = 8 total.
	pg, err := qubo.ExhaustiveIsing(phys)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := qubo.ExhaustiveIsing(logical)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int8, n)
	broken := e.UnembedInto(got, pg.Spins)
	if broken != 0 {
		t.Fatal("physical ground state has broken chains despite strong coupling")
	}
	if math.Abs(logical.Energy(got)-lg.Energy) > 1e-9 {
		t.Fatalf("embedded ground state decodes to energy %v, logical ground %v", logical.Energy(got), lg.Energy)
	}
	// Physical ground energy equals logical ground energy (offset
	// compensation): idle qubits have zero terms.
	if math.Abs(pg.Energy-lg.Energy) > 1e-9 {
		t.Fatalf("physical ground energy %v, logical %v", pg.Energy, lg.Energy)
	}
}

func TestRecommendedChainStrength(t *testing.T) {
	is := qubo.NewIsing(2)
	if RecommendedChainStrength(is) != 1 {
		t.Fatal("zero problem default wrong")
	}
	is.SetCoupling(0, 1, -4)
	if RecommendedChainStrength(is) != 6 {
		t.Fatalf("got %v", RecommendedChainStrength(is))
	}
}

func TestEmbedSpinsLengthPanics(t *testing.T) {
	g := NewGraph(2)
	e, _ := EmbedClique(g, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("bad length accepted")
		}
	}()
	e.EmbedSpins(make([]int8, 3))
}
