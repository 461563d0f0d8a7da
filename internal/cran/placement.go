package cran

import (
	"fmt"
	"sort"
)

// Placement selects how the router maps cells onto shards.
type Placement int

const (
	// PlacementHash places each cell by consistent hashing over a ring of
	// virtual nodes. Placement of a cell depends only on (cell, shard
	// count, ring seed) — never on what other cells exist —
	// so it is stable under any workload and cheap to recompute. Failover
	// walks the ring clockwise to the next live shard.
	PlacementHash Placement = iota
	// PlacementLoadAware places each cell, at its first frame's arrival,
	// on the live shard with the least estimated admitted load (ties to
	// the lowest shard index), and keeps it there (sticky) until failover.
	// Failover re-places on the least-loaded live shard.
	PlacementLoadAware
)

// ParsePlacement maps a CLI spelling to a Placement.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "hash", "consistent-hash":
		return PlacementHash, nil
	case "load", "load-aware":
		return PlacementLoadAware, nil
	}
	return 0, fmt.Errorf("cran: unknown placement %q (want hash or load-aware)", s)
}

func (p Placement) String() string {
	switch p {
	case PlacementHash:
		return "hash"
	case PlacementLoadAware:
		return "load-aware"
	}
	return fmt.Sprintf("placement(%d)", int(p))
}

func (p Placement) valid() bool {
	return p == PlacementHash || p == PlacementLoadAware
}

// mix64 is the SplitMix64 finalizer — the same mixing the repo's rng
// package builds on — used as a stateless integer hash for ring points
// and cell keys.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// ringPoint is one virtual node: a hash position owned by a shard.
type ringPoint struct {
	hash  uint64
	shard int
}

// virtualNodes is the consistent-hash ring's per-shard point count; the
// ring's balance bound below holds from 64 up.
const virtualNodes = 64

// ring is the consistent-hash placement structure: virtualNodes points
// per shard on a 64-bit circle. A cell hashes to a position and is owned
// by the clockwise-next point's shard.
//
// Balance bound (documented and fuzz-checked by FuzzCellPlacement): with
// ≥ 64 virtual nodes per shard, once the cell population is large enough
// to average ≥ 64 cells per shard, no shard's cell count exceeds 4× the
// mean. Small populations can be arbitrarily skewed — hashing says
// nothing about 3 cells on 8 shards.
type ring struct {
	seed   uint64
	shards int
	points []ringPoint
}

// buildRing lays out shards×vnodes points. Point positions derive
// from (seed, shard, vnode) only, so the ring — and therefore every
// cell's placement — is a pure function of the Config.
func buildRing(shards, vnodes int, seed uint64) *ring {
	r := &ring{seed: seed, shards: shards, points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := mix64(mix64(seed^uint64(s)) + uint64(v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	// Shard index breaks (vanishingly rare) hash ties so the ring order
	// never depends on sort internals.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// start returns the index of the clockwise-next ring point for a cell.
func (r *ring) start(cell int) int {
	h := mix64(r.seed ^ 0xce11ce11ce11ce11 ^ uint64(cell))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// place returns the cell's owning shard.
func (r *ring) place(cell int) int {
	return r.points[r.start(cell)].shard
}

// successors returns every shard in the cell's clockwise ring order,
// starting with its owner — the router's failover walk order.
func (r *ring) successors(cell int) []int {
	seen := make([]bool, r.shards)
	order := make([]int, 0, r.shards)
	for i, n := r.start(cell), len(r.points); len(order) < r.shards && n > 0; i, n = (i+1)%len(r.points), n-1 {
		s := r.points[i].shard
		if !seen[s] {
			seen[s] = true
			order = append(order, s)
		}
	}
	return order
}
