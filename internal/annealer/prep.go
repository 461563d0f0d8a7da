// Prepared problems and the prepared-problem cache. A Lease already
// amortizes Params validation and the engine's sweep-program compile
// across calls; what it still pays per Run is the per-PROBLEM compile —
// clique embedding, chain strength, physical coefficients, CSR layout,
// normalization. The paper's serving workload re-submits the same
// (channel, modulation) detection instances across frames, so that
// compile is highly redundant: PrepareProblem hoists it into a reusable
// Prepared, RunPrepared runs a batch against one, and PrepCache is the
// LRU a serving tier (internal/fleet) puts in front of PrepareProblem,
// keyed by (lease, problem content hash) with verified hits.
//
// Correctness is structural: a Prepared holds exactly the artifacts the
// uncached path would recompute — byte for byte, since the compile is
// deterministic — and they are read-only during runs, so RunPrepared is
// bit-identical to Run and cache hits can never change an answer, only
// skip work. A hash collision is caught by full-content verification
// and falls back to a fresh compile.
package annealer

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/chimera"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// Prepared is one problem compiled for one lease: the normalized CSR of
// the problem the engine actually sweeps (physical for chain leases)
// plus, on the chain path, the minor embedding. It is immutable after
// PrepareProblem and safe for concurrent RunPrepared calls.
type Prepared struct {
	l   *Lease
	is  *qubo.Ising // private snapshot of the problem, for hit verification
	pr  *qubo.CSR
	emb *chimera.Embedding
}

// Problem returns the prepared problem's private snapshot. Mutating it
// would desynchronize it from the compiled artifacts — treat as
// read-only.
func (p *Prepared) Problem() *qubo.Ising { return p.is }

// PrepareProblem compiles is for this lease: CSR + normalization, plus
// embedding and physical coefficients when the lease runs chains. A QPU
// lease rejects a problem beyond the QPU's clique capacity here. The
// snapshot it keeps is a deep copy, so later mutation of is cannot
// desynchronize a cached entry from its compiled artifacts.
func (l *Lease) PrepareProblem(is *qubo.Ising) (*Prepared, error) {
	return l.compile(is.Clone())
}

// compile is PrepareProblem without the snapshot copy, for a one-call
// Prepared whose problem cannot change while it runs (Lease.Run).
func (l *Lease) compile(is *qubo.Ising) (*Prepared, error) {
	if is.N == 0 {
		return nil, fmt.Errorf("annealer: empty problem")
	}
	prep := &Prepared{l: l, is: is}
	if l.Embedded() {
		emb, pr, err := l.qpu.prepareEmbedded(is)
		if err != nil {
			return nil, err
		}
		prep.emb, prep.pr = emb, pr
		return prep, nil
	}
	if l.qpu != nil {
		if err := l.qpu.checkCapacity(is); err != nil {
			return nil, err
		}
	}
	prep.pr = qubo.NewCSR(is)
	prep.pr.Normalize()
	return prep, nil
}

// RunPrepared is Lease.Run against a prepared problem: bit-identical
// results, minus the per-call problem compile. prep must have come from
// this lease's PrepareProblem.
func (l *Lease) RunPrepared(prep *Prepared, init []int8, numReads int, r *rng.Source) (*Result, error) {
	if prep == nil || prep.l != l {
		return nil, fmt.Errorf("annealer: prepared problem does not belong to this lease")
	}
	ru := l.preparedRun(prep, init, numReads, r)
	runAll([]*run{ru}, l.kernel, l.width)
	return ru.res, ru.err
}

// preparedRun builds the run of one call against prep; an argument error
// is carried in the run's err.
func (l *Lease) preparedRun(prep *Prepared, init []int8, numReads int, r *rng.Source) *run {
	p, err := l.callParams(init, numReads)
	if l.qpu != nil {
		p = l.qpu.withTiming(p)
	}
	return &run{is: prep.is, emb: prep.emb, pr: prep.pr, p: p, r: r, err: err}
}

// PrepCacheStats is a point-in-time snapshot of a cache's counters.
// Hits are verified hits; Collisions count lookups whose hash matched a
// resident entry with different content (served by a fresh, uncached
// compile); Misses led to a compile that was then inserted.
type PrepCacheStats struct {
	Hits, Misses, Evictions, Collisions uint64
}

// PrepCache is an LRU of Prepared problems keyed by (lease, problem
// content hash). It is safe for concurrent use, but a serving tier that
// needs deterministic eviction (and therefore deterministic counters)
// at any worker count should drive it from a single-threaded planning
// pass — see internal/fleet's execute pre-pass.
type PrepCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[prepKey]*list.Element
	stats PrepCacheStats
}

type prepKey struct {
	l    *Lease
	hash uint64
}

type prepEntry struct {
	key  prepKey
	prep *Prepared
}

// NewPrepCache returns a cache retaining at most capacity prepared
// problems (capacity ≥ 1).
func NewPrepCache(capacity int) *PrepCache {
	if capacity < 1 {
		panic("annealer: prep cache capacity must be ≥ 1")
	}
	return &PrepCache{cap: capacity, ll: list.New(), byKey: make(map[prepKey]*list.Element)}
}

// Get returns the lease's prepared form of is, compiling on miss and
// inserting the result. A hit is trusted only after full content
// verification against the entry's snapshot; a hash collision compiles
// fresh without touching the resident entry.
func (c *PrepCache) Get(l *Lease, is *qubo.Ising) (*Prepared, error) {
	k := prepKey{l, is.ContentHash()}
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		e := el.Value.(*prepEntry)
		if e.prep.is.Equal(is) {
			c.ll.MoveToFront(el)
			c.stats.Hits++
			c.mu.Unlock()
			return e.prep, nil
		}
		c.stats.Collisions++
		c.mu.Unlock()
		return l.PrepareProblem(is)
	}
	c.stats.Misses++
	c.mu.Unlock()

	prep, err := l.PrepareProblem(is)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if _, ok := c.byKey[k]; !ok {
		for len(c.byKey) >= c.cap {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.byKey, oldest.Value.(*prepEntry).key)
			c.stats.Evictions++
		}
		c.byKey[k] = c.ll.PushFront(&prepEntry{key: k, prep: prep})
	}
	c.mu.Unlock()
	return prep, nil
}

// Stats returns a snapshot of the cache counters.
func (c *PrepCache) Stats() PrepCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of resident entries.
func (c *PrepCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}
