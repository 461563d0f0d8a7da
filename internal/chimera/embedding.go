package chimera

import (
	"fmt"

	"repro/internal/qubo"
)

// This file implements the triangle clique embedding that maps a fully-
// connected (K_N) Ising problem onto Chimera, the construction used in
// practice for dense problems on the 2000Q (cf. QuAMax [29] and the
// D-Wave clique embedder): logical variable i = 4·g + k owns an L-shaped
// chain of physical qubits — the vertical unit k of every cell in column
// g from row g downward, plus the horizontal unit k of every cell in row
// g from column g leftward to column 0 — giving uniform chains of m+1
// qubits and supporting N ≤ 4·m logical variables on C_m (64 on the
// 2000Q's C_16).
//
// The two chain segments meet (and are physically coupled) in the
// diagonal cell (g, g); chains of groups g_i < g_j intersect in cell
// (g_j, g_i), where chain i's vertical qubit couples to chain j's
// horizontal qubit; same-group chains intersect in their shared diagonal
// cell. Every logical pair therefore has at least one physical coupler.

// Embedding maps logical variables to chains of physical qubits.
type Embedding struct {
	Graph  *Graph
	Chains [][]int // Chains[i] = physical qubit ids of logical variable i
	// chainOf[q] = logical variable owning physical qubit q, or −1.
	chainOf []int
}

// MaxCliqueSize returns the largest all-to-all problem C_m supports under
// the triangle embedding.
func MaxCliqueSize(m int) int { return 4 * m }

// MinGridFor returns the smallest m with MaxCliqueSize(m) ≥ n.
func MinGridFor(n int) int {
	m := (n + 3) / 4
	if m < 1 {
		m = 1
	}
	return m
}

// EmbedClique builds the triangle clique embedding of K_n on g.
func EmbedClique(g *Graph, n int) (*Embedding, error) {
	if n <= 0 {
		return nil, fmt.Errorf("chimera: cannot embed %d variables", n)
	}
	if n > MaxCliqueSize(g.M) {
		return nil, fmt.Errorf("chimera: K_%d exceeds C_%d clique capacity %d", n, g.M, MaxCliqueSize(g.M))
	}
	e := &Embedding{Graph: g, Chains: make([][]int, n), chainOf: make([]int, g.NumQubits())}
	for i := range e.chainOf {
		e.chainOf[i] = -1
	}
	for i := 0; i < n; i++ {
		grp, unit := i/CellUnits, i%CellUnits
		var chain []int
		// Vertical segment: column grp, rows grp..M−1, side 0.
		for row := grp; row < g.M; row++ {
			chain = append(chain, g.QubitID(row, grp, 0, unit))
		}
		// Horizontal segment: row grp, columns grp..0, side 1.
		for col := grp; col >= 0; col-- {
			chain = append(chain, g.QubitID(grp, col, 1, unit))
		}
		e.Chains[i] = chain
		for _, q := range chain {
			if e.chainOf[q] != -1 {
				return nil, fmt.Errorf("chimera: qubit %d claimed by chains %d and %d", q, e.chainOf[q], i)
			}
			e.chainOf[q] = i
		}
	}
	return e, nil
}

// N returns the number of logical variables.
func (e *Embedding) N() int { return len(e.Chains) }

// interChainCouplers returns the physical couplers joining chains i and j.
func (e *Embedding) interChainCouplers(i, j int) [][2]int {
	var out [][2]int
	for _, q := range e.Chains[i] {
		for _, n := range e.Graph.Neighbors(q) {
			if e.chainOf[n] == j {
				out = append(out, [2]int{q, n})
			}
		}
	}
	return out
}

// intraChainCouplers returns the physical couplers internal to chain i.
func (e *Embedding) intraChainCouplers(i int) [][2]int {
	var out [][2]int
	for _, q := range e.Chains[i] {
		for _, n := range e.Graph.Neighbors(q) {
			if n > q && e.chainOf[n] == i {
				out = append(out, [2]int{q, n})
			}
		}
	}
	return out
}

// EmbedIsing maps a logical Ising problem onto the physical graph:
// logical fields are split equally across each chain's qubits, logical
// couplings are split equally across the available inter-chain couplers,
// and every intra-chain coupler gets the ferromagnetic chain coupling
// −chainStrength that ties the chain's qubits together. The returned
// problem ranges over all NumQubits() physical qubits (unused qubits have
// zero terms). The logical Offset carries over; the chain-coupling energy
// floor (−chainStrength per intra-chain coupler when chains are intact)
// is compensated in the offset so an unbroken physical state's energy
// equals its logical energy.
func (e *Embedding) EmbedIsing(logical *qubo.Ising, chainStrength float64) (*qubo.Ising, error) {
	if logical.N != e.N() {
		return nil, fmt.Errorf("chimera: embedding has %d chains, problem has %d variables", e.N(), logical.N)
	}
	if chainStrength < 0 {
		return nil, fmt.Errorf("chimera: negative chain strength")
	}
	phys := qubo.NewIsing(e.Graph.NumQubits())
	phys.Offset = logical.Offset
	for i, h := range logical.H {
		if h == 0 {
			continue
		}
		per := h / float64(len(e.Chains[i]))
		for _, q := range e.Chains[i] {
			phys.H[q] += per
		}
	}
	for _, edge := range logical.Edges() {
		couplers := e.interChainCouplers(edge.I, edge.J)
		if len(couplers) == 0 {
			return nil, fmt.Errorf("chimera: no physical coupler between chains %d and %d", edge.I, edge.J)
		}
		per := edge.V / float64(len(couplers))
		for _, c := range couplers {
			phys.AddCoupling(c[0], c[1], per)
		}
	}
	for i := range e.Chains {
		for _, c := range e.intraChainCouplers(i) {
			phys.AddCoupling(c[0], c[1], -chainStrength)
			// An intact chain contributes −chainStrength per coupler;
			// compensate so intact physical energies match logical ones.
			phys.Offset += chainStrength
		}
	}
	return phys, nil
}

// UnembedInto recovers a logical spin configuration from a physical one
// by majority vote over each chain (ties break to +1), writing it into a
// caller-provided buffer of length N() so hot paths unembed every read
// without allocating. It returns how many chains were broken (not
// unanimous).
func (e *Embedding) UnembedInto(logical []int8, physSpins []int8) (brokenChains int) {
	if len(physSpins) != e.Graph.NumQubits() {
		panic("chimera: UnembedInto with wrong-length physical state")
	}
	if len(logical) != e.N() {
		panic("chimera: UnembedInto with wrong-length logical buffer")
	}
	for i, chain := range e.Chains {
		sum := 0
		for _, q := range chain {
			sum += int(physSpins[q])
		}
		if sum >= 0 {
			logical[i] = 1
		} else {
			logical[i] = -1
		}
		if sum != len(chain) && sum != -len(chain) {
			brokenChains++
		}
	}
	return brokenChains
}

// EmbedSpins maps a logical spin configuration to the physical qubits
// (every chain qubit takes its variable's value; unused qubits get +1).
// This is how a classical candidate solution is loaded as a reverse-
// annealing initial state on embedded hardware.
func (e *Embedding) EmbedSpins(logical []int8) []int8 {
	if len(logical) != e.N() {
		panic("chimera: EmbedSpins with wrong-length logical state")
	}
	phys := make([]int8, e.Graph.NumQubits())
	for i := range phys {
		phys[i] = 1
	}
	for i, chain := range e.Chains {
		for _, q := range chain {
			phys[q] = logical[i]
		}
	}
	return phys
}

// RecommendedChainStrength returns a chain strength that dominates the
// logical problem's couplings — the common √(max |J|·deg) style heuristic
// reduced to a simple safety factor over the largest coefficient, which
// is what practitioners tune around on the 2000Q.
func RecommendedChainStrength(logical *qubo.Ising) float64 {
	m := logical.MaxAbsCoeff()
	if m == 0 {
		return 1
	}
	return 1.5 * m
}
