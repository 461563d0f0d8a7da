// Package chimera models the D-Wave 2000Q's qubit-connectivity graph (the
// Chimera topology) and the minor embedding that maps fully-connected
// Ising problems — which MIMO detection reductions are — onto it.
//
// A Chimera graph C_m is an m×m grid of unit cells; each cell is a
// complete bipartite K_{4,4} over four "vertical" (side 0) and four
// "horizontal" (side 1) qubits. Vertical qubits couple to the same unit in
// the cells directly above and below; horizontal qubits couple along the
// row. The 2000Q is C_16: 2048 qubits, degree ≤ 6 — far short of the
// all-to-all coupling a dense QUBO needs, which is why chains of
// physically-coupled qubits must be composed into single logical
// variables (embedding.go).
package chimera

import "fmt"

// CellUnits is the number of qubits per cell side (the "4" in K_{4,4}).
const CellUnits = 4

// Graph is a Chimera topology C_m.
type Graph struct {
	M   int // grid dimension
	adj [][]int
}

// NewGraph builds C_m.
func NewGraph(m int) *Graph {
	if m <= 0 {
		panic("chimera: non-positive grid dimension")
	}
	g := &Graph{M: m, adj: make([][]int, 8*m*m)}
	for row := 0; row < m; row++ {
		for col := 0; col < m; col++ {
			// Intra-cell K_{4,4}: every vertical to every horizontal.
			for kv := 0; kv < CellUnits; kv++ {
				v := g.QubitID(row, col, 0, kv)
				for kh := 0; kh < CellUnits; kh++ {
					g.addEdge(v, g.QubitID(row, col, 1, kh))
				}
			}
			// Inter-cell vertical couplers (to the cell below).
			if row+1 < m {
				for k := 0; k < CellUnits; k++ {
					g.addEdge(g.QubitID(row, col, 0, k), g.QubitID(row+1, col, 0, k))
				}
			}
			// Inter-cell horizontal couplers (to the cell to the right).
			if col+1 < m {
				for k := 0; k < CellUnits; k++ {
					g.addEdge(g.QubitID(row, col, 1, k), g.QubitID(row, col+1, 1, k))
				}
			}
		}
	}
	return g
}

func (g *Graph) addEdge(a, b int) {
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
}

// NumQubits returns 8·m².
func (g *Graph) NumQubits() int { return 8 * g.M * g.M }

// QubitID maps (row, col, side, unit) to a physical qubit index. side 0 is
// vertical, side 1 horizontal; unit ∈ [0, 4).
func (g *Graph) QubitID(row, col, side, unit int) int {
	if row < 0 || row >= g.M || col < 0 || col >= g.M || side < 0 || side > 1 || unit < 0 || unit >= CellUnits {
		panic(fmt.Sprintf("chimera: bad qubit coordinate (%d,%d,%d,%d)", row, col, side, unit))
	}
	return ((row*g.M+col)*2+side)*CellUnits + unit
}

// Neighbors returns the physical neighbours of a qubit.
func (g *Graph) Neighbors(id int) []int { return g.adj[id] }
