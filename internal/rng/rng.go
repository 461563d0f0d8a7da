// Package rng provides deterministic, splittable pseudo-random number
// generation for reproducible experiments.
//
// The experiments in this repository must be exactly reproducible from a
// single seed: every instance corpus, every anneal run, and every noise
// draw derives its stream from a named split of a root generator, so
// adding a new consumer never perturbs existing streams.
//
// The core generator is xoshiro256++ seeded via SplitMix64, following the
// reference constructions by Blackman and Vigna. Both are small, fast, and
// pass BigCrush; neither is cryptographically secure, which is fine for
// Monte-Carlo use.
package rng

import (
	"math"
	"math/bits"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and for deriving split keys.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic xoshiro256++ generator.
//
// The zero value is not a valid generator; use New or Split.
type Source struct {
	s [4]uint64

	// Gaussian spare value cache for Box-Muller.
	hasSpare bool
	spare    float64
}

// New returns a Source seeded from seed via SplitMix64 state expansion.
func New(seed uint64) *Source {
	var r Source
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// rotl rotates x left by k bits.
func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Split derives an independent child generator keyed by key. Children with
// distinct keys produce statistically independent streams, and splitting is
// stable: the child for a given (parent seed, key) never changes when other
// consumers are added.
func (r *Source) Split(key uint64) *Source {
	var c Source
	r.SplitInto(&c, key)
	return &c
}

// SplitInto derives the child keyed by key into dst, overwriting dst's
// state entirely (including the Gaussian spare). It is Split without the
// allocation, for hot paths that derive one short-lived stream per work
// item; dst must not be in concurrent use.
func (r *Source) SplitInto(dst *Source, key uint64) {
	// Mix the parent's state with the key through SplitMix64 so child
	// streams decorrelate from the parent and from each other.
	sm := r.s[0] ^ rotl(r.s[1], 13) ^ rotl(r.s[2], 29) ^ rotl(r.s[3], 41) ^ (key * 0xd1342543de82ef95)
	for i := range dst.s {
		dst.s[i] = splitMix64(&sm)
	}
	if dst.s[0]|dst.s[1]|dst.s[2]|dst.s[3] == 0 {
		dst.s[0] = 1
	}
	dst.hasSpare = false
	dst.spare = 0
}

// SplitString derives an independent child generator keyed by a name.
// Experiment code uses names ("fig8/instance3/ra") so streams are
// self-describing.
func (r *Source) SplitString(name string) *Source {
	return r.Split(hashString(name))
}

// SplitStringInto is SplitString without the allocation; see SplitInto.
func (r *Source) SplitStringInto(dst *Source, name string) {
	r.SplitInto(dst, hashString(name))
}

// hashString is FNV-1a over the name, sufficient for stream keying.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// State returns the xoshiro256++ core state. Together with SetState it
// lets a hot loop advance the generator in local variables — the method
// calls above keep the state in memory and are too large to inline — by
// applying the documented xoshiro256++ step inline, while remaining
// bit-identical to drawing through the Source directly. The Gaussian
// spare cache is not part of the core state; NormFloat64 draws must go
// through the Source.
func (r *Source) State() (s0, s1, s2, s3 uint64) {
	return r.s[0], r.s[1], r.s[2], r.s[3]
}

// SetState stores a core state advanced externally; see State.
func (r *Source) SetState(s0, s1, s2, s3 uint64) {
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo). bits.Mul64
// compiles to a single wide-multiply instruction on 64-bit targets, which
// matters because Intn sits inside every Monte-Carlo proposal.
func mul64(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}

// Bool returns a uniform random boolean.
func (r *Source) Bool() bool { return r.Uint64()&1 == 1 }

// Spin returns ±1 uniformly.
func (r *Source) Spin() int8 {
	if r.Bool() {
		return 1
	}
	return -1
}

// NormFloat64 returns a standard normal variate via the polar Box-Muller
// transform, caching the spare value.
func (r *Source) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// normChunk is the number of polar pairs NormFloat64s draws before it
// scales them, so the pairs' radii fit a stack buffer.
const normChunk = 64

// NormFloat64s fills dst with the next len(dst) NormFloat64 values, bit
// for bit: a cached spare comes first, then the same polar pairs from
// the same stream in the same order, and for an odd remainder the last
// pair's second value is cached as the spare. The Source ends in the
// state len(dst) successive NormFloat64 calls leave. The uniforms are
// drawn with the state in locals, and the accepted pairs are scaled a
// block at a time by polarScale, whose log matches math.Log bit for bit.
func (r *Source) NormFloat64s(dst []float64) {
	if len(dst) == 0 {
		return
	}
	if r.hasSpare {
		r.hasSpare = false
		dst[0] = r.spare
		dst = dst[1:]
	}
	var rad [normChunk]float64
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for len(dst) >= 2 {
		pairs := min(len(dst)/2, normChunk)
		uv := dst[:2*pairs]
		for p := range rad[:pairs] {
			for {
				var x uint64
				x, s0, s1, s2, s3 = next(s0, s1, s2, s3)
				u := 2*(float64(x>>11)*(1.0/(1<<53))) - 1
				x, s0, s1, s2, s3 = next(s0, s1, s2, s3)
				v := 2*(float64(x>>11)*(1.0/(1<<53))) - 1
				if s := u*u + v*v; s < 1 && s != 0 {
					uv[2*p], uv[2*p+1], rad[p] = u, v, s
					break
				}
			}
		}
		polarScale(uv, rad[:pairs])
		// NormFloat64 leaves the consumed spare's value in the field.
		r.spare = uv[2*pairs-1]
		dst = dst[2*pairs:]
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	if len(dst) == 1 {
		dst[0] = r.NormFloat64()
	}
}

// next is one xoshiro256++ step on a state held in locals: the output,
// then the successor state. It is Uint64 without the memory traffic.
func next(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	x = rotl(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return x, s0, s1, s2, s3
}

// polarScaleGo turns accepted polar pairs into normals, as NormFloat64
// does: with f = √(−2·ln s / s), pair p's (u, v) at uv[2p:2p+2] becomes
// (u·f, v·f), s = s[p].
func polarScaleGo(uv, s []float64) {
	for p, sp := range s {
		f := math.Sqrt(-2 * math.Log(sp) / sp)
		uv[2*p] *= f
		uv[2*p+1] *= f
	}
}

// Perm returns a uniformly random permutation of [0, n) using
// Fisher-Yates.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes xs in place.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
