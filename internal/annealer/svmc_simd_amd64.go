package annealer

import (
	"math"

	"repro/internal/metropolis"
)

// The lockstep SVMC kernel in svmc_simd_amd64.s: one call runs the
// proposal steps of one sweep for up to sixteen resident reads — two
// 8-lane chunks, each two 4-wide AVX2 halves. Per step and chunk with a
// live lane it runs the index and angle draws, sinCosPi, the loads of
// (z, sinθ) and the field, the dE score, the conditional uphill uniform
// draw and the exp-bracket verdict, and then applies the decided accepts
// lane by lane. Every operation is either exact integer arithmetic
// (xoshiro256++, the Lemire product, the (x>>11)·2⁻⁵³ conversion, the
// fold/swap/sign bit masks, the mask logic) or an IEEE-754 mul/add/sub
// (vector or scalar) that rounds identically to its Go counterpart, so
// the outputs are bit-identical to the scalar path — enforced by
// TestLockstepMatchesSequential. FMA is never used: contracting a
// mul+add pair would change the rounding.
//
// svmcStepx8 runs steps a.k, a.k+1, … of the sweep, one per spin, up to
// a.nb−1. At each step it advances every live chunk's a.rs0..rs3 (index
// draw, angle draw, and — only for lanes whose dE came out positive —
// the uphill uniform, exactly the one-read draw order) and fills a.idx,
// sn, cs, dE (the proposal's energy delta) and u (the uphill uniform;
// garbage for downhill lanes). It applies every decided accept of a
// lane in a.live: with g = lanoff[j]+idx[j], the lane's rotor pair at
// rot[2g] takes (cs[j], sn[j]), and dz = cs[j] − z is added to the field
// fld[lanoff[j]+col] of every column the lane's row idx[j] couples, with
// the Go apply's expression, field + w·dz. A lane with a dense row table
// (a.dw/dm[j], an svmcRows) updates the np fields of its block a quad at
// a time and restores every field its row mask marks; a lane without one
// walks its CSR row (a.offs/cols/w[j]) column by column. a.acc[j] counts
// the accepts it applies. It returns true once the sweep is done (a.k = a.nb). It
// returns false with a.k at a step the caller must finish, in one of
// two cases, and the caller then resumes the sweep at a.k+1:
//   - Undecided (a.rej = 2): the bracket could not decide the live lanes
//     in a.exm (bit j: lane j). Every decided accept of the step is
//     applied; the caller settles u < exp(−beta·dE) for those lanes with
//     metropolis.Exact and applies their accepts itself.
//   - Rejected (a.rej = c): chunk c's index draw hit the Lemire rejection
//     (probability n/2⁶⁴ per lane). Chunk c and any chunk after it wrote
//     nothing for the step — states included — so the caller replays
//     them through the scalar reference path (svmcScoreScalar) and
//     applies their accepts. Chunks before c ran the step: their decided
//     accepts are applied and a.exm holds their undecided lanes.
//
// Lane j's spin i sits at slot lanoff[j]+i of a.rot (pairs) and a.fld,
// where lanoff[j] is a multiple of 4 and the lane owns its slots up to
// np, the next multiple of 4 at or above nb (the dense apply reads and
// rewrites the padding slots, leaving them as they were). A dense
// table's unmasked weights must equal the CSR row's, its masked ones be
// finite, and nb ≤ 64 (one mask word per row). A padding lane (outside live) must carry
// lanoff 0 so its loads stay in bounds, and is never applied. Its state
// and outputs are unspecified: the kernel skips a chunk with no live
// lane, and the second half of a chunk with no live lane there. Requires
// nb < 2³², nonzero states, and AVX2 (hasBatchSIMD).
func svmcStepx8(a *svmcStepArgs) bool

// saStepx8 is the lockstep simulated-annealing step in sa_simd_amd64.s;
// see saStepArgs in sa_group.go for the contract.
func saStepx8(a *saStepArgs) bool

// saLanex1 is the scalar simulated-annealing lane in sa_simd_amd64.s;
// see saLaneArgs in sa_group.go for the contract. It keeps no pointer
// past the call, so its argument block can live on the caller's stack.
//
//go:noescape
func saLanex1(a *saLaneArgs) bool

// cpuHasAVX2 reports AVX2 plus OS support for YMM state (OSXSAVE +
// XCR0 XMM|YMM), probed with CPUID/XGETBV in svmc_simd_amd64.s.
func cpuHasAVX2() bool

var hasBatchSIMD = cpuHasAVX2()

// svmcSIMDTab is the constant table the assembly kernels load their
// 256-bit operands from: each logical constant replicated across the
// four lanes of a YMM register. The polynomial coefficients are copied
// from the same init()-computed sinPiCoef/cosPiCoef tables the scalar
// sinCosPi reads, so the two paths cannot drift. Field order and the
// 32-byte stride are hard offsets in svmc_simd_amd64.s — keep in sync.
var svmcSIMDTab struct {
	mask32   [4]uint64     // +0    0x00000000FFFFFFFF
	magicHi  [4]uint64     // +32   exponent bits placing hi21 at 2³²
	magicLo  [4]uint64     // +64   exponent bits placing lo32 at 2⁰
	magicSub [4]float64    // +96   2⁸⁴ + 2⁵²
	scale    [4]float64    // +128  2⁻⁵³
	half     [4]float64    // +160  0.5
	quarter  [4]float64    // +192  0.25
	absMask  [4]uint64     // +224  0x7FFFFFFFFFFFFFFF
	signBit  [4]uint64     // +256  0x8000000000000000
	sinC     [7][4]float64 // +288
	cosC     [8][4]float64 // +512
	expStep  [4]float64    // +768  metropolis.GridStep
	expCap   [4]uint64     // +800  metropolis.GridMax (as int64)
	laneBit  [4]uint64     // +832  63, 62, 61, 60: shifts taking mask bit l to lane l's sign
	laneBit2 [4]uint64     // +864  59, 58, 57, 56: the same for mask bit 4+l
}

func init() {
	fill := func(dst *[4]uint64, v uint64) { dst[0], dst[1], dst[2], dst[3] = v, v, v, v }
	fillF := func(dst *[4]float64, v float64) { dst[0], dst[1], dst[2], dst[3] = v, v, v, v }
	fill(&svmcSIMDTab.mask32, 0x00000000FFFFFFFF)
	fill(&svmcSIMDTab.magicHi, 0x4530000000000000)
	fill(&svmcSIMDTab.magicLo, 0x4330000000000000)
	fillF(&svmcSIMDTab.magicSub, 0x1p84+0x1p52)
	fillF(&svmcSIMDTab.scale, 0x1p-53)
	fillF(&svmcSIMDTab.half, 0.5)
	fillF(&svmcSIMDTab.quarter, 0.25)
	fill(&svmcSIMDTab.absMask, 0x7FFFFFFFFFFFFFFF)
	fill(&svmcSIMDTab.signBit, 0x8000000000000000)
	for k := 0; k < 7; k++ {
		fillF(&svmcSIMDTab.sinC[k], sinPiCoef[k])
	}
	for k := 0; k < 8; k++ {
		fillF(&svmcSIMDTab.cosC[k], cosPiCoef[k])
	}
	fillF(&svmcSIMDTab.expStep, metropolis.GridStep)
	fill(&svmcSIMDTab.expCap, metropolis.GridMax)
	svmcSIMDTab.laneBit = [4]uint64{63, 62, 61, 60}
	svmcSIMDTab.laneBit2 = [4]uint64{59, 58, 57, 56}
	// The u64→f64 magic-number identity the conversion rests on, checked
	// once at startup so a miscompiled constant can never ship silently.
	if v := uint64(1)<<52 | 12345; float64(v) != (math.Float64frombits(0x4530000000000000|v>>32)-(0x1p84+0x1p52))+math.Float64frombits(0x4330000000000000|v&0xFFFFFFFF) {
		panic("annealer: SIMD u64→f64 magic constants are wrong")
	}
}
