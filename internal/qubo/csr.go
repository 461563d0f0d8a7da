package qubo

import "math"

// CSR is a compressed-sparse-row view of an Ising problem: the adjacency
// lists flattened into three parallel arrays so the annealer's sweep loops
// walk contiguous memory instead of chasing []Coupling slice headers. It
// is compiled once per batch (NewCSR) and shared read-only across every
// read; per-read coefficient noise (ICE, calibration drift) programs a
// copy that shares the immutable topology arrays.
//
// Rows are sorted by column, with distinct columns and no diagonal
// entry, so a row of N−1 entries is every other spin in order. Each
// undirected coupling appears twice (once per endpoint); Mirror links
// the two halves so symmetric weight updates stay O(1) per edge.
type CSR struct {
	N      int
	Offset float64
	// H is the linear field per spin.
	H []float64
	// Offsets[i] .. Offsets[i+1] delimit row i in Cols/W.
	Offsets []int32
	// Cols[k] is the neighbor spin of entry k; W[k] its coupling J.
	Cols []int32
	W    []float64
	// Mirror[k] is the index of entry k's reverse direction — the entry
	// (Cols[k], i) for k in row i — so a symmetric update writes both
	// halves without searching.
	Mirror []int32
}

// NewCSR compiles the adjacency-list problem into its CSR view. The input
// is not retained; later mutations of is are not reflected. It panics on
// adjacency that is asymmetric, repeats a neighbour or couples a spin to
// itself (Ising.SetCoupling never builds such a problem).
func NewCSR(is *Ising) *CSR {
	n := is.N
	total := 0
	for _, adj := range is.Adj {
		total += len(adj)
	}
	// The three int32 arrays share one allocation, each capped at its
	// own length.
	idx := make([]int32, n+1+2*total)
	c := &CSR{
		N:       n,
		Offset:  is.Offset,
		H:       append([]float64(nil), is.H...),
		Offsets: idx[: n+1 : n+1],
		Cols:    idx[n+1 : n+1+total : n+1+total],
		W:       make([]float64, total),
		Mirror:  idx[n+1+total:],
	}
	pos := 0
	for i := 0; i < n; i++ {
		c.Offsets[i] = int32(pos)
		row := is.Adj[i]
		for _, cp := range row {
			c.Cols[pos] = int32(cp.To)
			c.W[pos] = cp.J
			pos++
		}
		// Sort the row by column so neighbor iteration is deterministic
		// regardless of insertion order and mirrors link in one pass.
		// Insertion sort: rows are short, usually already sorted (edges
		// are inserted in ascending order), and sort.Sort's interface
		// value would allocate once per row.
		lo := int(c.Offsets[i])
		sortRow(c.Cols[lo:pos], c.W[lo:pos])
		for k := lo; k < pos; k++ {
			if c.Cols[k] == int32(i) || k > lo && c.Cols[k] == c.Cols[k-1] {
				panic("qubo: CSR row repeats a neighbour or couples a spin to itself")
			}
		}
	}
	c.Offsets[n] = int32(pos)
	// Link the mirrors with one cursor per row. Rows are visited in order
	// and each is sorted, so the entries (i, col) that point into row col
	// arrive with i ascending, which is the order of row col's own
	// columns: each one's mirror is the entry under row col's cursor.
	// The cursors of a logical-sized problem live on the stack.
	var stack [64]int32
	next := append(stack[:0], c.Offsets[:n]...)
	for i := 0; i < n; i++ {
		for k := c.Offsets[i]; k < c.Offsets[i+1]; k++ {
			col := c.Cols[k]
			m := next[col]
			if m >= c.Offsets[col+1] || c.Cols[m] != int32(i) {
				panic("qubo: CSR mirror entry missing; adjacency was asymmetric")
			}
			c.Mirror[k] = m
			next[col]++
		}
	}
	return c
}

// sortRow sorts a row's columns and weights in lockstep by column.
// Columns within a row are distinct, so any comparison sort yields the
// same result.
func sortRow(cols []int32, w []float64) {
	for i := 1; i < len(cols); i++ {
		ci, wi := cols[i], w[i]
		j := i
		for j > 0 && cols[j-1] > ci {
			cols[j], w[j] = cols[j-1], w[j-1]
			j--
		}
		cols[j], w[j] = ci, wi
	}
}

// Normalize scales H, W, and Offset in place so max(|h|, |J|) = 1 (the
// device coefficient range), returning the scale factor applied. It
// matches Ising.Normalized followed by NewCSR — same maximum, same
// multiplications — without cloning the adjacency lists.
func (c *CSR) Normalize() float64 {
	var m float64
	for _, h := range c.H {
		if a := math.Abs(h); a > m {
			m = a
		}
	}
	for _, w := range c.W {
		if a := math.Abs(w); a > m {
			m = a
		}
	}
	if m == 0 {
		return 1
	}
	inv := 1 / m
	for i := range c.H {
		c.H[i] *= inv
	}
	for i := range c.W {
		c.W[i] *= inv
	}
	c.Offset *= inv
	return inv
}

// Energy evaluates E(s) for spins in {−1,+1}, counting each undirected
// coupling once.
func (c *CSR) Energy(spins []int8) float64 {
	if len(spins) != c.N {
		panic("qubo: Energy with wrong-length spin assignment")
	}
	e := c.Offset
	cols, w := c.Cols, c.W
	for i := 0; i < c.N; i++ {
		si := float64(spins[i])
		e += c.H[i] * si
		for k := c.Offsets[i]; k < c.Offsets[i+1]; k++ {
			if int(cols[k]) > i {
				e += w[k] * si * float64(spins[cols[k]])
			}
		}
	}
	return e
}

// LocalField returns f_i = h_i + Σ_j J_ij·s_j, the effective field on
// spin i.
func (c *CSR) LocalField(spins []int8, i int) float64 {
	f := c.H[i]
	cols, w := c.Cols, c.W
	for k := c.Offsets[i]; k < c.Offsets[i+1]; k++ {
		f += w[k] * float64(spins[cols[k]])
	}
	return f
}

// LocalFields sets field[i] = h_i + Σ_j J_ij·x[stride·j] for every row
// of c: the local fields of spins x (stride 1), or of the z components
// of interleaved (z, ·) pairs (stride 2). A row's sum is one chain of
// dependent adds, so four rows are summed side by side, each in its own
// column order: over their common prefix, then their ragged tails. Each
// field takes LocalField's adds in LocalField's order, so the bits
// match.
func LocalFields[T int8 | float64](c *CSR, x []T, stride int, field []float64) {
	cols, w, offs := c.Cols, c.W, c.Offsets
	i := 0
	for ; i+4 <= c.N; i += 4 {
		o0, o1, o2, o3, o4 := int(offs[i]), int(offs[i+1]), int(offs[i+2]), int(offs[i+3]), int(offs[i+4])
		m := min(o1-o0, o2-o1, o3-o2, o4-o3)
		c0, c1, c2, c3 := cols[o0:o0+m], cols[o1:o1+m], cols[o2:o2+m], cols[o3:o3+m]
		w0, w1, w2, w3 := w[o0:o0+m], w[o1:o1+m], w[o2:o2+m], w[o3:o3+m]
		f0, f1, f2, f3 := c.H[i], c.H[i+1], c.H[i+2], c.H[i+3]
		for k := range c0 {
			f0 += w0[k] * float64(x[stride*int(c0[k])])
			f1 += w1[k] * float64(x[stride*int(c1[k])])
			f2 += w2[k] * float64(x[stride*int(c2[k])])
			f3 += w3[k] * float64(x[stride*int(c3[k])])
		}
		for k := o0 + m; k < o1; k++ {
			f0 += w[k] * float64(x[stride*int(cols[k])])
		}
		for k := o1 + m; k < o2; k++ {
			f1 += w[k] * float64(x[stride*int(cols[k])])
		}
		for k := o2 + m; k < o3; k++ {
			f2 += w[k] * float64(x[stride*int(cols[k])])
		}
		for k := o3 + m; k < o4; k++ {
			f3 += w[k] * float64(x[stride*int(cols[k])])
		}
		field[i], field[i+1], field[i+2], field[i+3] = f0, f1, f2, f3
	}
	for ; i < c.N; i++ {
		f := c.H[i]
		for k := offs[i]; k < offs[i+1]; k++ {
			f += w[k] * float64(x[stride*int(cols[k])])
		}
		field[i] = f
	}
}

// Quench relaxes spins in place to a 1-flip local minimum by steepest
// descent — the same pick order as SteepestDescent, without its per-call
// allocations. field must have length N; it is used as scratch and holds
// the final local fields on return.
func (c *CSR) Quench(spins []int8, field []float64) {
	if len(spins) != c.N || len(field) != c.N {
		panic("qubo: Quench with wrong-length buffers")
	}
	LocalFields(c, spins, 1, field)
	cols, w := c.Cols, c.W
	for {
		bestI, bestDelta := -1, 0.0
		for i := 0; i < c.N; i++ {
			delta := -2 * float64(spins[i]) * field[i]
			if delta < bestDelta-1e-15 {
				bestDelta, bestI = delta, i
			}
		}
		if bestI < 0 {
			return
		}
		spins[bestI] = -spins[bestI]
		ds := float64(spins[bestI])
		for k := c.Offsets[bestI]; k < c.Offsets[bestI+1]; k++ {
			field[cols[k]] += 2 * w[k] * ds
		}
	}
}

// ToIsing converts back to the adjacency-list form (used by tests and
// tooling; the annealer never needs it on the hot path).
func (c *CSR) ToIsing() *Ising {
	out := NewIsing(c.N)
	copy(out.H, c.H)
	out.Offset = c.Offset
	for i := 0; i < c.N; i++ {
		for k := c.Offsets[i]; k < c.Offsets[i+1]; k++ {
			out.Adj[i] = append(out.Adj[i], Coupling{To: int(c.Cols[k]), J: c.W[k]})
		}
	}
	return out
}
